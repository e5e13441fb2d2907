//! Prints the per-vendor retry-amplification table: the SBR campaign
//! re-run under a deterministic flaky-origin fault schedule, reporting
//! how much extra back-to-origin traffic each vendor's retry policy
//! generates on top of the range amplification itself — plus the
//! resilience-layer counters (stale serves, breaker opens) and the
//! edge-cache hit/miss split behind each row.
//!
//! The fault schedule, backoff clock, vendor order and shard merge are
//! all deterministic — the same build prints byte-identical output on
//! every run at any `--threads N`.
//!
//! Flags (shared harness set plus `--trace`):
//!
//! * `--trace <path>` — record every round's hop spans and write them as
//!   Chrome trace-event JSON (Perfetto-loadable); also writes the
//!   campaign metrics snapshot as `<path>.metrics.jsonl`.
//! * `--json <path>` — write the per-vendor reports as JSON.
//! * `--seed <n>` — override the campaign seed (default is the built-in
//!   deterministic seed).
//! * `--threads <n>` — shard the campaign over `n` executor threads
//!   (0 = one per core).
//!
//! ```text
//! cargo run -p rangeamp-bench --release --bin retry_amp -- \
//!     --trace retry_amp.trace.json --json retry_amp.json --threads 8
//! ```

use rangeamp::chaos::{run_sbr_campaign, ChaosConfig};
use rangeamp::Telemetry;
use rangeamp_bench::{retry_amp_json, write_output, BenchCli};

fn main() {
    let cli = BenchCli::parse(&["--trace"]);
    let mut config = ChaosConfig::default();
    if let Some(seed) = cli.seed {
        config.seed = seed;
    }
    let trace_path = cli.flags.get("--trace");
    let telemetry = trace_path.map(|_| Telemetry::seeded(config.seed));

    let reports = run_sbr_campaign(&config, telemetry.as_ref(), &cli.executor());
    println!("{}", rangeamp_bench::render_retry_amp(&reports));

    if let (Some(path), Some(tel)) = (trace_path, &telemetry) {
        write_output(path, &tel.tracer().chrome_trace_json());
        write_output(
            &format!("{path}.metrics.jsonl"),
            &tel.metrics().snapshot().to_jsonl(),
        );
    }
    cli.write_json(&retry_amp_json(&reports));
}
