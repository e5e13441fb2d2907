//! Regenerates Table I: range forwarding behaviours vulnerable to the
//! SBR attack, derived by the vulnerability scanner.
//!
//! Accepts the shared harness flags (`--json <path>`, `--threads <n>`);
//! output is byte-identical at any thread count.
//!
//! ```text
//! cargo run -p rangeamp-bench --release --bin table1
//! ```

fn main() {
    let cli = rangeamp_bench::BenchCli::parse(&[]);
    let rows = rangeamp::scanner::Scanner::default().scan_table1(&cli.executor());
    println!("{}", rangeamp_bench::render_table1(&rows));
    println!(
        "{} vulnerable (vendor, format) rows across {} vendors — the paper finds all 13 CDNs vulnerable.",
        rows.len(),
        rows.iter().map(|r| r.vendor.clone()).collect::<std::collections::BTreeSet<_>>().len(),
    );
    cli.write_json(&rows);
}
