//! Regenerates Fig 7: per-second bandwidth consumption of the origin
//! (outgoing) and the client (incoming) under m = 1..=15 concurrent SBR
//! requests per second for 30 seconds (10 MB resource, 1000 Mbps origin
//! uplink). Prints a summary table plus one CSV block per sub-figure.
//!
//! Accepts the shared harness flags (`--json <path>`, `--threads <n>`);
//! output is byte-identical at any thread count.
//!
//! ```text
//! cargo run -p rangeamp-bench --release --bin fig7
//! ```

fn main() {
    let cli = rangeamp_bench::BenchCli::parse(&[]);
    let reports = rangeamp_bench::fig7_reports(&cli.executor());
    println!("{}", rangeamp_bench::render_fig7_summary(&reports));

    println!("# Fig 7b — origin outgoing bandwidth (Mbps) per second");
    print!("second");
    for report in &reports {
        print!(",m={}", report.requests_per_sec);
    }
    println!();
    let seconds = reports[0].origin_outgoing_mbps.len();
    for t in 0..seconds {
        print!("{t}");
        for report in &reports {
            print!(
                ",{:.1}",
                report.origin_outgoing_mbps.get(t).copied().unwrap_or(0.0)
            );
        }
        println!();
    }
    println!();
    println!("# Fig 7a — client incoming bandwidth (Kbps) per second");
    print!("second");
    for report in &reports {
        print!(",m={}", report.requests_per_sec);
    }
    println!();
    for t in 0..seconds {
        print!("{t}");
        for report in &reports {
            print!(
                ",{:.1}",
                report.client_incoming_mbps.get(t).copied().unwrap_or(0.0) * 1000.0
            );
        }
        println!();
    }
    println!();
    println!(
        "# paper shape: proportional for m<=10, near line rate from m={}, exhausted from m={}, client < {} Kbps",
        rangeamp_bench::paper::FIG7_SATURATION_M,
        rangeamp_bench::paper::FIG7_EXHAUSTION_M,
        rangeamp_bench::paper::FIG7_CLIENT_KBPS_BOUND,
    );
    cli.write_json(&reports);
}
