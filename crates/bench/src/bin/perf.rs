//! Benchmark harness for the campaign executor: times the
//! representative workloads (table sweep, OBR sweep, chaos campaign,
//! telemetry export, Fig 7 flood) at each requested thread count and writes
//! `BENCH_campaigns.json` in the stable `rangeamp-bench-perf/1` schema
//! (see `rangeamp_bench::timing`).
//!
//! ```text
//! cargo run -p rangeamp-bench --release --bin perf -- \
//!     --threads 1,4 --out BENCH_campaigns.json --baseline BENCH_baseline.json
//! ```
//!
//! Flags:
//!
//! * `--threads a,b,c` — thread counts to sweep (default `1,<cores>`);
//! * `--out <path>` — where to write the JSON report (default
//!   `BENCH_campaigns.json`);
//! * `--baseline <path>` — committed baseline to gate against; the
//!   process exits non-zero when the file cannot be read, is not a perf
//!   report, or any workload's best wall time regresses more than the
//!   tolerance (that is the CI perf gate).
//!
//! Each workload runs `WARMUP` untimed and `ITERS` timed iterations;
//! the gate's tolerance is `timing::DEFAULT_TOLERANCE` (+15%).

use rangeamp::executor::Executor;
use rangeamp_bench::timing::{
    gate_against_baseline, time_workload, PerfReport, DEFAULT_TOLERANCE, WORKLOADS,
};
use rangeamp_bench::{write_output, Flags};

/// Untimed warm-up iterations per workload.
const WARMUP: u32 = 1;
/// Timed iterations per workload; the gate compares the fastest.
const ITERS: u32 = 3;

fn parse_threads(flags: &Flags) -> Vec<usize> {
    let default = Executor::available_parallelism().threads();
    let all_cores = format!("1,{default}");
    let spec = flags.get("--threads").unwrap_or(&all_cores);
    let mut threads: Vec<usize> = spec
        .split(',')
        .filter(|part| !part.trim().is_empty())
        .map(|part| match part.trim().parse() {
            Ok(0) => default,
            Ok(n) => n,
            Err(_) => flags.fail(&format!("`--threads` takes integers, got `{part}`")),
        })
        .collect();
    threads.dedup();
    if threads.is_empty() {
        threads.push(1);
    }
    threads
}

fn main() {
    let flags = Flags::from_env(&["--threads", "--out", "--baseline"]);
    let threads = parse_threads(&flags);
    let out_path = flags.get("--out").unwrap_or("BENCH_campaigns.json");

    let mut report = PerfReport::new(threads.clone());
    for &count in &threads {
        let executor = Executor::new(count);
        for (name, run) in WORKLOADS {
            let result = time_workload(name, &executor, WARMUP, ITERS, run);
            println!(
                "{:>17} @{}t: {:>12} ns  {:>10.1} units/s  {:>14.0} wire-B/s",
                result.name,
                result.threads,
                result.wall_ns,
                result.units_per_sec,
                result.wire_bytes_per_sec,
            );
            report.workloads.push(result);
        }
    }
    for &count in threads.iter().filter(|&&count| count > 1) {
        if let Some(speedup) = report.speedup("chaos_campaign", count) {
            println!("chaos_campaign speedup @{count}t: {speedup:.2}x");
        }
    }

    write_output(
        out_path,
        &serde_json::to_string_pretty(&report).expect("serializable"),
    );

    if let Some(path) = flags.get("--baseline") {
        let baseline = std::fs::read_to_string(path);
        let check =
            gate_against_baseline(&report, baseline, DEFAULT_TOLERANCE).unwrap_or_else(|err| {
                eprintln!("perf gate: baseline {path} {err}");
                std::process::exit(1)
            });
        for line in &check.lines {
            println!("baseline: {line}");
        }
        if !check.passed() {
            for regression in &check.regressions {
                eprintln!("perf regression: {regression}");
            }
            std::process::exit(1);
        }
        println!(
            "perf gate: ok (tolerance +{:.0}%)",
            DEFAULT_TOLERANCE * 100.0
        );
    }
}
