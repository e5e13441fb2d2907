//! OBR proportionality sweep (§IV-C): "the greater the number of
//! overlapping ranges, the larger the amplification factor". Sweeps n for
//! one cascade and prints the factor series plus the attacker's fixed
//! cost — the figure the paper describes in prose.
//!
//! Accepts the shared harness flags (`--json <path>`, `--threads <n>`);
//! output is byte-identical at any thread count.
//!
//! ```text
//! cargo run -p rangeamp-bench --release --bin obr_sweep
//! ```

use rangeamp::attack::ObrAttack;
use rangeamp_bench::{obr_sweep_points, render_obr_sweep, BenchCli};
use rangeamp_cdn::Vendor;

fn main() {
    let cli = BenchCli::parse(&[]);
    let points = obr_sweep_points(&cli.executor());
    println!("{}", render_obr_sweep(&points));
    let max_n = ObrAttack::new(Vendor::Cloudflare, Vendor::Akamai).max_n();
    println!(
        "The factor grows linearly in n up to the header-limit ceiling (max n = {max_n}); \
         the attacker's accepted bytes stay constant — §IV-C's proportionality claim."
    );
    cli.write_json(&points);
}
