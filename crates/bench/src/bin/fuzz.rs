//! Differential conformance fuzzer for the range-rewrite pipeline.
//!
//! Generates structure-aware `Range`/`If-Range` request cases (plus raw
//! wire mutations), replays each through all 13 vendor edges, and
//! cross-checks nine oracles against the independent forwarding model
//! (DESIGN.md §9). Findings are shrunk to minimal reproducers and written
//! into the regression corpus.
//!
//! Accepts the shared harness flags plus `--cases <n>` (default 1000) and
//! `--corpus-dir <path>` (default `tests/corpus`, used only when findings
//! need to be written). Output — including the run digest over every
//! per-case outcome — is byte-identical at any `--threads` value:
//!
//! ```text
//! cargo run --release -p rangeamp-bench --bin fuzz -- --seed 42 --cases 10000
//! ```
//!
//! Exits non-zero when any oracle fired.

use std::path::Path;

use rangeamp::conformance::{corpus, run_fuzz, CorpusEntry, FuzzConfig};
use rangeamp_bench::BenchCli;

fn main() {
    let cli = BenchCli::parse(&["--cases", "--corpus-dir"]);
    let config = FuzzConfig {
        seed: cli.seed.unwrap_or(42),
        cases: cli.flags.parsed("--cases").unwrap_or(1000),
        ..FuzzConfig::default()
    };
    let corpus_dir = cli.flags.get("--corpus-dir").unwrap_or("tests/corpus");

    let report = run_fuzz(&config, &cli.executor());

    println!(
        "conformance fuzz: seed {}, {} cases ({} pipeline, {} wire)",
        report.seed, report.cases, report.pipeline_cases, report.wire_cases
    );
    println!(
        "probes: {}, violations: {}",
        report.probes, report.violations
    );
    println!("digest: {:016x}", report.digest);

    let mut written = Vec::new();
    for (seq, finding) in report.findings.iter().enumerate() {
        println!(
            "finding #{seq}: case {} oracle {} vendor {}",
            finding.index,
            finding.violation.oracle,
            finding
                .violation
                .vendor
                .map(|v| format!("{v:?}"))
                .unwrap_or_else(|| "-".to_string()),
        );
        println!("  {}", finding.violation.detail);
        println!(
            "  minimized: {}",
            finding.minimized.to_text().replace('\n', " | ")
        );
        match corpus::write_finding(
            Path::new(corpus_dir),
            &finding.violation,
            seq,
            &finding.minimized,
        ) {
            Ok(path) => {
                eprintln!("wrote {}", path.display());
                written.push(path.display().to_string());
            }
            Err(e) => eprintln!("could not write finding to {corpus_dir}: {e}"),
        }
    }
    if report.violations == 0 {
        println!("all oracles passed");
    }

    cli.write_json(&report_json(&report, &written));
    if report.violations > 0 {
        std::process::exit(1);
    }
}

/// JSON shape deliberately excludes the thread count and corpus paths'
/// host specifics beyond what was written, so `--threads 1` and
/// `--threads 8` runs serialize identically.
fn report_json(
    report: &rangeamp::conformance::FuzzReport,
    written: &[String],
) -> serde_json::Value {
    serde_json::json!({
        "seed": report.seed,
        "cases": report.cases,
        "pipeline_cases": report.pipeline_cases,
        "wire_cases": report.wire_cases,
        "probes": report.probes,
        "violations": report.violations,
        "digest": format!("{:016x}", report.digest),
        "findings": report.findings.iter().map(|f| {
            serde_json::json!({
                "index": f.index,
                "oracle": f.violation.oracle,
                "vendor": f.violation.vendor.map(|v| format!("{v:?}")),
                "detail": f.violation.detail,
                "entry": entry_json(&f.entry),
                "minimized": entry_json(&f.minimized),
            })
        }).collect::<Vec<_>>(),
        "corpus_files": written,
    })
}

fn entry_json(entry: &CorpusEntry) -> serde_json::Value {
    serde_json::to_value(&entry.to_text())
}
