//! Shared timing harness for the `perf` benchmark binary: the timed
//! campaign [`WORKLOADS`], workload timing over warmup + measured
//! iterations, the stable `BENCH_campaigns.json` schema, and the
//! committed-baseline regression gate used by CI.
//!
//! # `BENCH_*.json` schema (`rangeamp-bench-perf/1`)
//!
//! ```json
//! {
//!   "schema": "rangeamp-bench-perf/1",
//!   "threads": [1, 4],
//!   "workloads": [
//!     {
//!       "name": "chaos_campaign",
//!       "threads": 4,
//!       "warmup_iters": 1,
//!       "measured_iters": 3,
//!       "wall_ns": 123456789,
//!       "mean_wall_ns": 130000000,
//!       "units": 13,
//!       "units_per_sec": 105.3,
//!       "simulated_wire_bytes": 987654321,
//!       "wire_bytes_per_sec": 8.0e9
//!     }
//!   ]
//! }
//! ```
//!
//! * `wall_ns` is the **minimum** measured-iteration wall time (the
//!   least-noise estimator; it is what the regression gate compares);
//!   `mean_wall_ns` is the arithmetic mean over measured iterations.
//! * `units` counts the executor units the workload processed in one
//!   iteration (vendors, cascades, sweep sizes …); `units_per_sec`
//!   divides by the best wall time.
//! * `simulated_wire_bytes` sums the bytes that crossed the testbed's
//!   metered segments in one iteration — the throughput the simulation
//!   achieved, not bytes on any real NIC.
//!
//! Workload entries are keyed `(name, threads)`; the baseline check
//! compares `wall_ns` for matching keys and ignores keys present on
//! only one side (so adding a workload or running a different thread
//! list never fails the gate spuriously).
//!
//! The committed baseline (`BENCH_baseline.json`) is read back with the
//! minimal JSON parser below — the workspace's vendored `serde_json`
//! serialises only, by design.

use std::time::Instant;

use rangeamp::chaos::{run_sbr_campaign, ChaosConfig};
use rangeamp::executor::Executor;
use rangeamp::scanner::Scanner;
use rangeamp::Telemetry;
use serde::Serialize;

use crate::{fig7_reports, obr_sweep_points, sbr_points, table5_measurements};

/// Schema identifier written into every perf report.
pub const PERF_SCHEMA: &str = "rangeamp-bench-perf/1";

/// Default regression tolerance: fail when a workload's best wall time
/// grows by more than 15% over the committed baseline.
pub const DEFAULT_TOLERANCE: f64 = 0.15;

/// A workload runs on an executor and reports `(units, wire bytes)`.
pub type Workload = fn(&Executor) -> (u64, u64);

/// The campaigns `perf` times, in report order: each name with its run.
pub const WORKLOADS: &[(&str, Workload)] = &[
    ("table_sweep", table_sweep),
    ("obr_sweep", obr_sweep),
    ("chaos_campaign", chaos_campaign),
    ("telemetry_export", telemetry_export),
    ("fig7_flood", fig7_flood),
];

/// Table I–V sweep: scanner tables plus the SBR (1 MB) and OBR
/// amplification measurements.
fn table_sweep(executor: &Executor) -> (u64, u64) {
    let scan = Scanner::default();
    let t1 = scan.scan_table1(executor);
    let t2 = scan.scan_table2(executor);
    let t3 = scan.scan_table3(executor);
    let t4 = sbr_points(&[1], executor);
    let t5 = table5_measurements(executor);
    let units = (t1.len() + t2.len() + t3.len() + t4.len() + t5.len()) as u64;
    let bytes: u64 = t4
        .iter()
        .map(|p| p.client_bytes + p.origin_bytes)
        .sum::<u64>()
        + t5.iter()
            .map(|m| m.server_to_bcdn_bytes + m.bcdn_to_fcdn_bytes + m.attacker_bytes)
            .sum::<u64>();
    (units, bytes)
}

/// §IV-C OBR proportionality sweep (factor vs n).
fn obr_sweep(executor: &Executor) -> (u64, u64) {
    let points = obr_sweep_points(executor);
    let bytes = points
        .iter()
        .map(|p| p.bcdn_to_fcdn_bytes + p.attacker_bytes)
        .sum();
    (points.len() as u64, bytes)
}

/// SBR chaos campaign across all 13 vendors, untraced — the same
/// default 32-round flaky-origin sweep `retry_amp` ships.
fn chaos_campaign(executor: &Executor) -> (u64, u64) {
    let reports = run_sbr_campaign(&ChaosConfig::default(), None, executor);
    let bytes = reports
        .iter()
        .map(|r| r.origin.request_bytes + r.origin.response_bytes)
        .sum();
    (reports.len() as u64, bytes)
}

/// Fully traced chaos campaign plus Chrome-trace and metrics export —
/// the telemetry hot path. "Wire bytes" here are the exported bytes.
fn telemetry_export(executor: &Executor) -> (u64, u64) {
    let telemetry = Telemetry::seeded(7);
    let reports = run_sbr_campaign(&ChaosConfig::default(), Some(&telemetry), executor);
    let trace = telemetry.tracer().chrome_trace_json();
    let metrics = telemetry.metrics().snapshot().to_jsonl();
    let units = reports.len() as u64 + telemetry.tracer().span_count() as u64;
    (units, (trace.len() + metrics.len()) as u64)
}

/// Fig 7 flood sweep (m = 1..=15) through the flow simulator; one unit
/// per report, bytes are the origin plus client bytes of one request
/// at each m.
fn fig7_flood(executor: &Executor) -> (u64, u64) {
    let reports = fig7_reports(executor);
    let bytes = reports
        .iter()
        .map(|r| r.origin_bytes_per_request + r.client_bytes_per_request)
        .sum();
    (reports.len() as u64, bytes)
}

/// One timed workload at one thread count.
#[derive(Debug, Clone, Serialize)]
pub struct WorkloadResult {
    /// Workload name (stable across versions: the gate joins on it).
    pub name: String,
    /// Executor threads the workload ran with.
    pub threads: usize,
    /// Untimed warmup iterations executed first.
    pub warmup_iters: u32,
    /// Timed iterations behind the numbers below.
    pub measured_iters: u32,
    /// Best (minimum) wall time of one iteration, in nanoseconds.
    pub wall_ns: u64,
    /// Mean wall time of one iteration, in nanoseconds.
    pub mean_wall_ns: u64,
    /// Executor units processed per iteration.
    pub units: u64,
    /// `units / (wall_ns / 1e9)`.
    pub units_per_sec: f64,
    /// Simulated wire bytes moved per iteration (all metered segments).
    pub simulated_wire_bytes: u64,
    /// `simulated_wire_bytes / (wall_ns / 1e9)`.
    pub wire_bytes_per_sec: f64,
}

/// The full perf report (`BENCH_campaigns.json`).
#[derive(Debug, Clone, Serialize)]
pub struct PerfReport {
    /// Always [`PERF_SCHEMA`].
    pub schema: String,
    /// The thread counts the harness swept.
    pub threads: Vec<usize>,
    /// One entry per `(workload, thread count)`.
    pub workloads: Vec<WorkloadResult>,
}

impl PerfReport {
    /// An empty report for the given thread sweep.
    pub fn new(threads: Vec<usize>) -> PerfReport {
        PerfReport {
            schema: PERF_SCHEMA.to_string(),
            threads,
            workloads: Vec::new(),
        }
    }

    /// Looks up a workload entry by `(name, threads)`.
    pub fn entry(&self, name: &str, threads: usize) -> Option<&WorkloadResult> {
        self.workloads
            .iter()
            .find(|w| w.name == name && w.threads == threads)
    }

    /// The speedup of `name` at `threads` relative to its 1-thread
    /// entry (best wall times), when both are present.
    pub fn speedup(&self, name: &str, threads: usize) -> Option<f64> {
        let base = self.entry(name, 1)?;
        let multi = self.entry(name, threads)?;
        Some(base.wall_ns as f64 / multi.wall_ns.max(1) as f64)
    }
}

/// Times one workload: `run` is called `warmup` times untimed, then
/// `iters` times timed; it must return `(units processed, simulated
/// wire bytes)` for the iteration.
pub fn time_workload(
    name: &str,
    executor: &Executor,
    warmup: u32,
    iters: u32,
    run: impl Fn(&Executor) -> (u64, u64),
) -> WorkloadResult {
    for _ in 0..warmup {
        run(executor);
    }
    let mut walls = Vec::with_capacity(iters.max(1) as usize);
    let mut units = 0u64;
    let mut bytes = 0u64;
    for _ in 0..iters.max(1) {
        let start = Instant::now();
        let (u, b) = run(executor);
        walls.push(start.elapsed().as_nanos() as u64);
        units = u;
        bytes = b;
    }
    let wall_ns = *walls.iter().min().expect("at least one iteration");
    let mean_wall_ns = walls.iter().sum::<u64>() / walls.len() as u64;
    let secs = (wall_ns.max(1)) as f64 / 1e9;
    WorkloadResult {
        name: name.to_string(),
        threads: executor.threads(),
        warmup_iters: warmup,
        measured_iters: iters.max(1),
        wall_ns,
        mean_wall_ns,
        units,
        units_per_sec: units as f64 / secs,
        simulated_wire_bytes: bytes,
        wire_bytes_per_sec: bytes as f64 / secs,
    }
}

/// Outcome of checking a fresh report against a committed baseline.
#[derive(Debug, Clone)]
pub struct BaselineCheck {
    /// Per-workload comparison lines (for the CI log).
    pub lines: Vec<String>,
    /// Workloads whose best wall time regressed beyond tolerance.
    pub regressions: Vec<String>,
}

impl BaselineCheck {
    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Compares `current` against the JSON text of a committed baseline.
/// Joins entries on `(name, threads)`; a workload regresses when its
/// best wall time exceeds the baseline's by more than `tolerance`
/// (0.15 = +15%). Returns `None` when the baseline cannot be parsed as
/// a perf report ([`gate_against_baseline`] turns that into a failure).
pub fn check_against_baseline(
    current: &PerfReport,
    baseline_json: &str,
    tolerance: f64,
) -> Option<BaselineCheck> {
    let baseline = parse_perf_report(baseline_json)?;
    let mut lines = Vec::new();
    let mut regressions = Vec::new();
    for entry in &current.workloads {
        let Some(base) = baseline
            .iter()
            .find(|b| b.name == entry.name && b.threads == entry.threads)
        else {
            lines.push(format!(
                "{} @{}t: no baseline entry (skipped)",
                entry.name, entry.threads
            ));
            continue;
        };
        let ratio = entry.wall_ns as f64 / base.wall_ns.max(1) as f64;
        let delta_pct = (ratio - 1.0) * 100.0;
        let verdict = if ratio > 1.0 + tolerance {
            regressions.push(format!(
                "{} @{}t regressed {:+.1}% ({} ns -> {} ns, tolerance +{:.0}%)",
                entry.name,
                entry.threads,
                delta_pct,
                base.wall_ns,
                entry.wall_ns,
                tolerance * 100.0
            ));
            "REGRESSED"
        } else {
            "ok"
        };
        lines.push(format!(
            "{} @{}t: {} ns vs baseline {} ns ({:+.1}%) {}",
            entry.name, entry.threads, entry.wall_ns, base.wall_ns, delta_pct, verdict
        ));
    }
    Some(BaselineCheck { lines, regressions })
}

/// The perf gate's decision on a `--baseline` file's contents. It fails
/// closed: a baseline that could not be read, or that is not a perf
/// report, is an error, never a skipped gate.
pub fn gate_against_baseline(
    current: &PerfReport,
    baseline: std::io::Result<String>,
    tolerance: f64,
) -> Result<BaselineCheck, String> {
    let text = baseline.map_err(|err| format!("is not readable ({err})"))?;
    check_against_baseline(current, &text, tolerance)
        .ok_or_else(|| "is not a perf report".to_string())
}

/// A baseline workload entry as read back from disk.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineEntry {
    /// Workload name.
    pub name: String,
    /// Thread count of the entry.
    pub threads: usize,
    /// Best wall time recorded in the baseline.
    pub wall_ns: u64,
}

/// Parses the `workloads` array out of a perf-report JSON document.
pub fn parse_perf_report(text: &str) -> Option<Vec<BaselineEntry>> {
    let value = json::parse(text)?;
    let workloads = value.get("workloads")?.as_array()?;
    let mut entries = Vec::with_capacity(workloads.len());
    for workload in workloads {
        entries.push(BaselineEntry {
            name: workload.get("name")?.as_str()?.to_string(),
            threads: workload.get("threads")?.as_u64()? as usize,
            wall_ns: workload.get("wall_ns")?.as_u64()?,
        });
    }
    Some(entries)
}

/// A minimal recursive-descent JSON reader.
///
/// The workspace's vendored `serde_json` is serialise-only, so the
/// baseline gate brings its own reader: the full value grammar
/// (objects, arrays, strings with escapes, numbers, booleans, null),
/// no trailing-comma leniency, and `f64` number semantics — exactly
/// enough to read files this harness wrote.
pub mod json {
    use std::collections::BTreeMap;

    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Any JSON number, as `f64`.
        Number(f64),
        /// A string literal, unescaped.
        String(String),
        /// An array.
        Array(Vec<Value>),
        /// An object (sorted map — key order is irrelevant here).
        Object(BTreeMap<String, Value>),
    }

    impl Value {
        /// Member lookup on an object.
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Object(map) => map.get(key),
                _ => None,
            }
        }

        /// The value as an array.
        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Array(items) => Some(items),
                _ => None,
            }
        }

        /// The value as a string slice.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::String(s) => Some(s),
                _ => None,
            }
        }

        /// The value as a non-negative integer (rounds through `f64`,
        /// exact for the magnitudes the perf schema stores).
        pub fn as_u64(&self) -> Option<u64> {
            self.as_f64().filter(|n| *n >= 0.0).map(|n| n as u64)
        }

        /// The value as a float.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Number(n) => Some(*n),
                _ => None,
            }
        }
    }

    /// Parses one JSON document; `None` on any syntax error or
    /// trailing garbage.
    pub fn parse(text: &str) -> Option<Value> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = parser.value()?;
        parser.skip_ws();
        (parser.pos == parser.bytes.len()).then_some(value)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        /// Consumes the next byte, whitespace included.
        fn byte(&mut self) -> Option<u8> {
            let byte = *self.bytes.get(self.pos)?;
            self.pos += 1;
            Some(byte)
        }

        /// Consumes the next byte after any whitespace.
        fn token(&mut self) -> Option<u8> {
            self.skip_ws();
            self.byte()
        }

        /// Consumes `byte` after any whitespace, or fails.
        fn expect(&mut self, byte: u8) -> Option<()> {
            (self.token()? == byte).then_some(())
        }

        fn value(&mut self) -> Option<Value> {
            match self.token()? {
                b'{' => {
                    let mut map = BTreeMap::new();
                    self.items(b'}', |p| {
                        p.expect(b'"')?;
                        let key = p.string()?;
                        p.expect(b':')?;
                        map.insert(key, p.value()?);
                        Some(())
                    })?;
                    Some(Value::Object(map))
                }
                b'[' => {
                    let mut items = Vec::new();
                    self.items(b']', |p| {
                        items.push(p.value()?);
                        Some(())
                    })?;
                    Some(Value::Array(items))
                }
                b'"' => self.string().map(Value::String),
                b't' => self.literal(b"rue", Value::Bool(true)),
                b'f' => self.literal(b"alse", Value::Bool(false)),
                b'n' => self.literal(b"ull", Value::Null),
                _ => self.number(self.pos - 1),
            }
        }

        /// Parses `item (',' item)* close` or a bare `close`, the opening
        /// bracket already consumed.
        fn items(
            &mut self,
            close: u8,
            mut item: impl FnMut(&mut Self) -> Option<()>,
        ) -> Option<()> {
            self.skip_ws();
            if self.bytes.get(self.pos) == Some(&close) {
                self.pos += 1;
                return Some(());
            }
            loop {
                item(self)?;
                match self.token()? {
                    b',' => {}
                    byte if byte == close => return Some(()),
                    _ => return None,
                }
            }
        }

        fn literal(&mut self, rest: &[u8], value: Value) -> Option<Value> {
            let matched = self.bytes[self.pos..].starts_with(rest);
            self.pos += rest.len();
            matched.then_some(value)
        }

        /// The rest of a string literal whose opening quote is consumed.
        fn string(&mut self) -> Option<String> {
            let mut out = Vec::new();
            loop {
                let unescaped = match self.byte()? {
                    b'"' => return String::from_utf8(out).ok(),
                    b'\\' => match self.byte()? {
                        escape @ (b'"' | b'\\' | b'/') => escape as char,
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let hex = self.bytes.get(self.pos..self.pos + 4)?;
                            self.pos += 4;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            char::from_u32(code).unwrap_or('\u{fffd}')
                        }
                        _ => return None,
                    },
                    byte => {
                        out.push(byte);
                        continue;
                    }
                };
                out.extend_from_slice(unescaped.encode_utf8(&mut [0; 4]).as_bytes());
            }
        }

        fn number(&mut self, start: usize) -> Option<Value> {
            while matches!(
                self.bytes.get(self.pos),
                Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            ) {
                self.pos += 1;
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
            text.parse().ok().map(Value::Number)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(name: &str, threads: usize, wall_ns: u64) -> WorkloadResult {
        WorkloadResult {
            name: name.to_string(),
            threads,
            warmup_iters: 1,
            measured_iters: 3,
            wall_ns,
            mean_wall_ns: wall_ns,
            units: 13,
            units_per_sec: 13.0 / (wall_ns as f64 / 1e9),
            simulated_wire_bytes: 1000,
            wire_bytes_per_sec: 1000.0 / (wall_ns as f64 / 1e9),
        }
    }

    #[test]
    fn report_roundtrips_through_own_parser() {
        let mut report = PerfReport::new(vec![1, 4]);
        report
            .workloads
            .push(result("chaos_campaign", 1, 4_000_000));
        report
            .workloads
            .push(result("chaos_campaign", 4, 1_000_000));
        let text = serde_json::to_string_pretty(&report).expect("serializable");
        let parsed = parse_perf_report(&text).expect("own output parses");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, "chaos_campaign");
        assert_eq!(parsed[0].threads, 1);
        assert_eq!(parsed[0].wall_ns, 4_000_000);
    }

    #[test]
    fn speedup_compares_against_single_thread() {
        let mut report = PerfReport::new(vec![1, 4]);
        report
            .workloads
            .push(result("chaos_campaign", 1, 4_000_000));
        report
            .workloads
            .push(result("chaos_campaign", 4, 1_000_000));
        assert_eq!(report.speedup("chaos_campaign", 4), Some(4.0));
        assert_eq!(report.speedup("missing", 4), None);
    }

    #[test]
    fn regression_gate_fires_beyond_tolerance() {
        let mut baseline = PerfReport::new(vec![1]);
        baseline.workloads.push(result("w", 1, 1_000_000));
        let baseline_json = serde_json::to_string_pretty(&baseline).expect("serializable");

        let mut ok = PerfReport::new(vec![1]);
        ok.workloads.push(result("w", 1, 1_100_000)); // +10% < 15%
        let check = check_against_baseline(&ok, &baseline_json, DEFAULT_TOLERANCE)
            .expect("baseline parses");
        assert!(check.passed(), "{:?}", check.regressions);

        let mut bad = PerfReport::new(vec![1]);
        bad.workloads.push(result("w", 1, 1_200_000)); // +20% > 15%
        let check = check_against_baseline(&bad, &baseline_json, DEFAULT_TOLERANCE)
            .expect("baseline parses");
        assert!(!check.passed());
        assert_eq!(check.regressions.len(), 1);
    }

    #[test]
    fn missing_baseline_entries_are_skipped_not_failed() {
        let baseline = PerfReport::new(vec![1]);
        let baseline_json = serde_json::to_string_pretty(&baseline).expect("serializable");
        let mut current = PerfReport::new(vec![1]);
        current.workloads.push(result("brand_new", 1, 5));
        let check = check_against_baseline(&current, &baseline_json, DEFAULT_TOLERANCE)
            .expect("baseline parses");
        assert!(check.passed());
        assert!(check.lines[0].contains("no baseline entry"));
    }

    #[test]
    fn unparseable_baseline_returns_none() {
        let current = PerfReport::new(vec![1]);
        assert!(check_against_baseline(&current, "not json", DEFAULT_TOLERANCE).is_none());
        assert!(check_against_baseline(&current, "{\"schema\":1}", DEFAULT_TOLERANCE).is_none());
    }

    #[test]
    fn gate_fails_closed_on_unreadable_or_unparseable_baseline() {
        let current = PerfReport::new(vec![1]);
        let missing = std::io::Error::new(std::io::ErrorKind::NotFound, "no such file");
        assert!(gate_against_baseline(&current, Err(missing), DEFAULT_TOLERANCE).is_err());
        let corrupt = Ok("{\"workloads\": [".to_string());
        assert!(gate_against_baseline(&current, corrupt, DEFAULT_TOLERANCE).is_err());
        let empty = serde_json::to_string_pretty(&current).expect("serializable");
        let check = gate_against_baseline(&current, Ok(empty), DEFAULT_TOLERANCE)
            .expect("a perf report gates");
        assert!(check.passed());
    }

    #[test]
    fn json_parser_covers_the_value_grammar() {
        let value = json::parse(
            r#"{"a": [1, -2.5, 1e3], "s": "x\n\"yA", "t": true, "f": false, "n": null}"#,
        )
        .expect("parses");
        assert_eq!(value.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            value.get("a").unwrap().as_array().unwrap()[2].as_f64(),
            Some(1000.0)
        );
        assert_eq!(value.get("s").unwrap().as_str(), Some("x\n\"yA"));
        assert_eq!(value.get("t"), Some(&json::Value::Bool(true)));
        assert_eq!(value.get("n"), Some(&json::Value::Null));
        assert!(json::parse("{").is_none());
        assert!(json::parse("[1,]").is_none());
        assert!(json::parse("{} trailing").is_none());
        assert_eq!(
            json::parse(r#""\u0041\/\t""#),
            Some(json::Value::String("A/\t".to_string()))
        );
    }

    #[test]
    fn time_workload_records_units_and_bytes() {
        let executor = Executor::new(2);
        let result = time_workload("demo", &executor, 1, 2, |exec| {
            let out = exec.map(0, vec![1u64, 2, 3], |_, x| x);
            (out.len() as u64, out.iter().sum())
        });
        assert_eq!(result.name, "demo");
        assert_eq!(result.threads, 2);
        assert_eq!(result.units, 3);
        assert_eq!(result.simulated_wire_bytes, 6);
        assert!(result.wall_ns > 0);
        assert!(result.units_per_sec > 0.0);
    }

    #[test]
    fn fig7_flood_reports_one_unit_per_attack_rate() {
        let (name, run) = WORKLOADS
            .iter()
            .find(|(name, _)| *name == "fig7_flood")
            .expect("perf times fig7_flood");
        let result = time_workload(name, &Executor::new(2), 0, 1, run);
        assert_eq!(result.units, 15);
        assert!(result.simulated_wire_bytes > 0);
    }
}
