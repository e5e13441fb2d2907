//! Detectability analysis (paper §VI-C, server side): sweeps a naive
//! tiny-range detector's threshold over a mixed benign + SBR stream and
//! prints the true/false positive trade-off — quantifying why "it is
//! difficult for the origin server to defend against it effectively
//! without affecting normal services".
//!
//! Accepts the shared harness flags (`--json`, `--threads`, `--seed`);
//! output is byte-identical at any thread count.
//!
//! ```text
//! cargo run -p rangeamp-bench --release --bin detectability
//! ```

use rangeamp::report::TextTable;
use rangeamp_bench::BenchCli;

fn main() {
    let cli = BenchCli::parse(&[]);
    let seed = cli.seed.unwrap_or(2020);
    let points = rangeamp_bench::detectability_points(seed, &cli.executor());

    let mut table = TextTable::new(
        "Tiny-range detector at the origin — mixed stream of 2000 benign + 2000 SBR requests (10 MB resource)",
        &["threshold (bytes)", "attack detection rate", "benign false-positive rate"],
    );
    for point in &points {
        table.row(vec![
            point.threshold.to_string(),
            format!("{:.1}%", point.true_positive_rate * 100.0),
            format!("{:.1}%", point.false_positive_rate * 100.0),
        ]);
    }
    println!("{table}");
    println!(
        "Catching the attack (tiny thresholds) also flags media-player probe \
         requests; raising the threshold to spare them lets the attacker simply \
         request larger-but-still-small ranges. The distributed egress sources \
         (see `mitigation` bin) close the remaining avenue — §VI-C's conclusion. \
         The `defense` bin shows what a stateful per-client layer adds."
    );
    cli.write_json(&points);
}
