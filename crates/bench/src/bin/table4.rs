//! Regenerates Table IV: SBR amplification factors at 1, 10 and 25 MB
//! for every vendor, printed beside the paper's published values.
//!
//! Accepts the shared harness flags (`--json <path>`, `--threads <n>`);
//! output is byte-identical at any thread count.
//!
//! ```text
//! cargo run -p rangeamp-bench --release --bin table4
//! ```

fn main() {
    let cli = rangeamp_bench::BenchCli::parse(&[]);
    let points = rangeamp_bench::sbr_points(&[1, 10, 25], &cli.executor());
    println!("{}", rangeamp_bench::render_table4(&points));
    cli.write_json(&points);
}
