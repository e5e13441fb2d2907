//! Regenerates Table III: multi-range replying behaviours vulnerable to
//! the OBR attack (BCDN eligibility), derived by the scanner.
//!
//! Accepts the shared harness flags (`--json <path>`, `--threads <n>`);
//! output is byte-identical at any thread count.
//!
//! ```text
//! cargo run -p rangeamp-bench --release --bin table3
//! ```

fn main() {
    let cli = rangeamp_bench::BenchCli::parse(&[]);
    let rows = rangeamp::scanner::Scanner::default().scan_table3(&cli.executor());
    println!("{}", rangeamp_bench::render_table3(&rows));
    println!(
        "{} BCDN-eligible vendors — the paper finds 3 (Akamai, Azure, StackPath).",
        rows.len()
    );
    cli.write_json(&rows);
}
