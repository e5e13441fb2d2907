//! Experiment drivers for the RangeAmp benchmark harness.
//!
//! Each paper table/figure has a driver function here and a binary under
//! `src/bin/` that prints it (`cargo run -p rangeamp-bench --release
//! --bin table4`, etc.). The drivers are also reused by the `all`
//! binary, which writes machine-readable JSON into `experiments/`, and
//! by the `perf` timing harness ([`timing`]).
//!
//! Every sweep function takes the [`Executor`] to shard on; pass
//! `Executor::sequential()` to run on the calling thread. Output is
//! byte-identical at any thread count (DESIGN.md §8).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod paper;
pub mod timing;

use std::collections::BTreeMap;

use rangeamp::attack::{
    obr_combos, DroppedGetAttack, FloodExperiment, FloodReport, ObrAttack, ObrMeasurement,
    SbrAttack,
};
use rangeamp::chaos::VendorChaosReport;
use rangeamp::defense_eval::DefenseScenarioReport;
use rangeamp::executor::Executor;
use rangeamp::mitigation::{evaluate_sbr_defenses, DefenseOutcome};
use rangeamp::report::{group_digits, TextTable};
use rangeamp::scanner::{Table1Row, Table2Row, Table3Row};
use rangeamp::severity::{project_cost, AttackCost, BillingModel, CostModel};
use rangeamp::workload::{evaluate_detector, TinyRangeDetector, WorkloadGenerator};
use rangeamp::{Testbed, TARGET_PATH};
use rangeamp_cdn::Vendor;
use serde::Serialize;

/// One MiB.
pub const MB: u64 = 1024 * 1024;

/// One Table IV / Fig 6 data point.
#[derive(Debug, Clone, Serialize)]
pub struct SbrPoint {
    /// Vendor name.
    pub vendor: String,
    /// Exploited range case description.
    pub exploited_case: String,
    /// Target resource size in bytes.
    pub file_size: u64,
    /// Response bytes the attacker received (Fig 6b).
    pub client_bytes: u64,
    /// Response bytes the origin sent (Fig 6c).
    pub origin_bytes: u64,
    /// Amplification factor (Fig 6a / Table IV).
    pub amplification_factor: f64,
}

/// Runs the SBR attack for every vendor at the given sizes (Table IV
/// uses {1, 10, 25} MB; Fig 6 sweeps 1..=25 MB). Each size is one
/// executor unit, and points concatenate in input-size order — output
/// is byte-identical at any thread count.
pub fn sbr_points(sizes_mb: &[u64], executor: &Executor) -> Vec<SbrPoint> {
    executor
        .map(0, sizes_mb.to_vec(), |_, size_mb| {
            let size = size_mb * MB;
            let mut points = Vec::with_capacity(Vendor::ALL.len());
            for vendor in Vendor::ALL {
                let attack = SbrAttack::new(vendor, size);
                let bed = Testbed::builder()
                    .vendor(vendor)
                    .resource(TARGET_PATH, size)
                    .build();
                let report = attack.run_on(&bed, size_mb);
                points.push(SbrPoint {
                    vendor: vendor.name().to_string(),
                    exploited_case: report.exploited_case.clone(),
                    file_size: size,
                    client_bytes: report.traffic.attacker_response_bytes,
                    origin_bytes: report.traffic.victim_response_bytes,
                    amplification_factor: report.amplification_factor(),
                });
            }
            points
        })
        .into_iter()
        .flatten()
        .collect()
}

/// Renders Table IV (amplification factors at 1/10/25 MB) with the
/// paper's values alongside.
pub fn render_table4(points: &[SbrPoint]) -> TextTable {
    let mut table = TextTable::new(
        "Table IV — SBR amplification factor by target resource size (measured vs paper)",
        &[
            "CDN",
            "Exploited Range Case",
            "1MB",
            "paper",
            "10MB",
            "paper",
            "25MB",
            "paper",
        ],
    );
    for vendor in Vendor::ALL {
        let factor = |size_mb: u64| -> (String, String) {
            let point = points
                .iter()
                .find(|p| p.vendor == vendor.name() && p.file_size == size_mb * MB);
            let measured = point
                .map(|p| format!("{:.0}", p.amplification_factor))
                .unwrap_or_else(|| "-".to_string());
            let paper = paper::table4_factor(vendor, size_mb)
                .map(|f| f.to_string())
                .unwrap_or_else(|| "-".to_string());
            (measured, paper)
        };
        let mut cases: Vec<String> = points
            .iter()
            .filter(|p| p.vendor == vendor.name())
            .map(|p| p.exploited_case.clone())
            .collect();
        cases.dedup();
        let case = cases.join(" / ");
        let (m1, p1) = factor(1);
        let (m10, p10) = factor(10);
        let (m25, p25) = factor(25);
        table.row(vec![
            vendor.name().to_string(),
            case,
            m1,
            p1,
            m10,
            p10,
            m25,
            p25,
        ]);
    }
    table
}

/// Runs the Table V experiment: OBR with max n over all 11 combos, each
/// FCDN → BCDN cascade as one executor unit, merged back in
/// [`obr_combos`] order.
pub fn table5_measurements(executor: &Executor) -> Vec<ObrMeasurement> {
    executor.map(0, obr_combos(), |_, (fcdn, bcdn)| {
        ObrAttack::new(fcdn, bcdn).run()
    })
}

/// One point of the §IV-C OBR proportionality sweep (factor vs n).
#[derive(Debug, Clone, Serialize)]
pub struct ObrSweepPoint {
    /// Number of overlapping ranges.
    pub n: usize,
    /// Attacker request size in bytes (range header + request line).
    pub request_size: usize,
    /// Victim-link (`fcdn-bcdn`) response bytes.
    pub bcdn_to_fcdn_bytes: u64,
    /// OBR amplification factor at this n.
    pub factor: f64,
    /// Response bytes the attacker actually accepted.
    pub attacker_bytes: u64,
}

/// Runs the OBR proportionality sweep (Cloudflare → Akamai, 1 KB
/// resource): n = 16, 64, 256, … up to the cascade's header-limit max.
/// Each n is one executor unit.
pub fn obr_sweep_points(executor: &Executor) -> Vec<ObrSweepPoint> {
    let fcdn = Vendor::Cloudflare;
    let bcdn = Vendor::Akamai;
    let max_n = ObrAttack::new(fcdn, bcdn).max_n();
    let mut ns = Vec::new();
    let mut n = 16usize;
    while n < max_n {
        ns.push(n);
        n *= 4;
    }
    ns.push(max_n);
    executor.map(0, ns, |_, n| {
        let report = ObrAttack::new(fcdn, bcdn).overlapping_ranges(n).run();
        let request_size = rangeamp_cdn::ObrRangeCase::AllZeroOpen
            .header(n)
            .to_string()
            .len()
            + 64; // request line + Host
        ObrSweepPoint {
            n,
            request_size,
            bcdn_to_fcdn_bytes: report.bcdn_to_fcdn_bytes,
            factor: report.amplification_factor(),
            attacker_bytes: report.attacker_bytes,
        }
    })
}

/// Renders the OBR proportionality sweep table.
pub fn render_obr_sweep(points: &[ObrSweepPoint]) -> TextTable {
    let mut table = TextTable::new(
        "OBR amplification vs number of overlapping ranges (Cloudflare → Akamai, 1 KB resource)",
        &[
            "n",
            "request size (B)",
            "BCDN→FCDN (B)",
            "factor",
            "attacker accepted (B)",
        ],
    );
    for point in points {
        table.row(vec![
            point.n.to_string(),
            point.request_size.to_string(),
            point.bcdn_to_fcdn_bytes.to_string(),
            format!("{:.1}", point.factor),
            point.attacker_bytes.to_string(),
        ]);
    }
    table
}

/// Renders Table V with the paper's values alongside.
pub fn render_table5(measurements: &[ObrMeasurement]) -> TextTable {
    let mut table = TextTable::new(
        "Table V — OBR max amplification per cascaded combination (1 KB resource)",
        &[
            "FCDN",
            "BCDN",
            "Exploited Range Case",
            "Max n",
            "n paper",
            "Server→BCDN",
            "BCDN→FCDN",
            "Factor",
            "Factor paper",
        ],
    );
    for m in measurements {
        let (paper_n, paper_factor) = paper::table5_reference(&m.fcdn, &m.bcdn)
            .map(|(n, f)| (n.to_string(), format!("{f:.2}")))
            .unwrap_or_else(|| ("-".to_string(), "-".to_string()));
        table.row(vec![
            m.fcdn.clone(),
            m.bcdn.clone(),
            m.exploited_case.clone(),
            m.n.to_string(),
            paper_n,
            format!("{}B", m.server_to_bcdn_bytes),
            format!("{}B", m.bcdn_to_fcdn_bytes),
            format!("{:.2}", m.amplification_factor()),
            paper_factor,
        ]);
    }
    table
}

/// Runs Fig 7 for m = 1..=15, each attack rate m as one executor unit,
/// merged back in ascending-m order.
pub fn fig7_reports(executor: &Executor) -> Vec<FloodReport> {
    executor.map(0, (1..=15).collect(), |_, m| {
        FloodExperiment::paper_config(m).run()
    })
}

/// Renders the Fig 7 summary (steady origin outgoing bandwidth per m).
pub fn render_fig7_summary(reports: &[FloodReport]) -> TextTable {
    let mut table = TextTable::new(
        "Fig 7 — bandwidth consumption vs attack rate m (10 MB resource, 1000 Mbps uplink, 30 s)",
        &[
            "m (req/s)",
            "origin outgoing (steady, Mbps)",
            "client incoming peak (Kbps)",
        ],
    );
    for report in reports {
        table.row(vec![
            report.requests_per_sec.to_string(),
            format!("{:.1}", report.steady_origin_mbps()),
            format!("{:.1}", report.peak_client_kbps()),
        ]);
    }
    table
}

/// Renders scanner Table I.
pub fn render_table1(rows: &[Table1Row]) -> TextTable {
    let mut table = TextTable::new(
        "Table I — range forwarding behaviours vulnerable to the SBR attack (scanner output)",
        &["CDN", "Vulnerable Range Format", "Forwarded Range Format"],
    );
    for row in rows {
        table.row(vec![
            row.vendor.clone(),
            row.vulnerable_format.clone(),
            row.forwarded_format.clone(),
        ]);
    }
    table
}

/// Renders scanner Table II.
pub fn render_table2(rows: &[Table2Row]) -> TextTable {
    let mut table = TextTable::new(
        "Table II — range forwarding behaviours vulnerable to the OBR attack (FCDN eligibility)",
        &["CDN", "Vulnerable Range Format", "Forwarded Range Format"],
    );
    for row in rows {
        table.row(vec![
            row.vendor.clone(),
            row.vulnerable_format.clone(),
            row.forwarded_format.clone(),
        ]);
    }
    table
}

/// Renders scanner Table III.
pub fn render_table3(rows: &[Table3Row]) -> TextTable {
    let mut table = TextTable::new(
        "Table III — range replying behaviours vulnerable to the OBR attack (BCDN eligibility)",
        &["CDN", "Vulnerable Ranges Format", "Response Format"],
    );
    for row in rows {
        table.row(vec![
            row.vendor.clone(),
            row.vulnerable_format.clone(),
            row.response_format.clone(),
        ]);
    }
    table
}

/// Renders the per-vendor retry-amplification table: how much extra
/// origin-side traffic each vendor's retry policy generates when the
/// exploited SBR fetches fail and get retried.
pub fn render_retry_amp(reports: &[VendorChaosReport]) -> TextTable {
    let mut table = TextTable::new(
        "Retry amplification — SBR campaign under a flaky origin (deterministic fault schedule)",
        &[
            "CDN",
            "Attempts",
            "Retries",
            "Breaker opens",
            "Stale serves",
            "5xx to client",
            "Origin bytes",
            "Retry bytes",
            "Retry-amp",
            "Retries/req",
            "Cache h/m",
            "Cache hit",
            "Availability",
        ],
    );
    for report in reports {
        table.row(vec![
            report.vendor.name().to_string(),
            report.resilience.attempts.to_string(),
            report.resilience.retries.to_string(),
            report.breaker_opens.to_string(),
            report.resilience.stale_serves.to_string(),
            report.client_errors.to_string(),
            group_digits(report.origin.response_bytes),
            group_digits(report.resilience.retry_response_bytes),
            format!("{:.3}x", report.retry_amplification()),
            format!("{:.3}", report.retries_per_request()),
            format!("{}/{}", report.cache_hits, report.cache_misses),
            format!("{:.1}%", report.cache_hit_ratio() * 100.0),
            format!("{:.1}%", report.availability() * 100.0),
        ]);
    }
    table
}

/// Serialises retry-amplification reports as a JSON array (the report
/// structs live in crates that deliberately stay serde-free, so the
/// shape is assembled here).
pub fn retry_amp_json(reports: &[VendorChaosReport]) -> serde_json::Value {
    serde_json::Value::Array(
        reports
            .iter()
            .map(|r| {
                serde_json::json!({
                    "vendor": r.vendor.name(),
                    "rounds": r.rounds,
                    "attempts": r.resilience.attempts,
                    "retries": r.resilience.retries,
                    "breaker_opens": r.breaker_opens,
                    "stale_serves": r.resilience.stale_serves,
                    "client_errors": r.client_errors,
                    "origin_response_bytes": r.origin.response_bytes,
                    "retry_response_bytes": r.resilience.retry_response_bytes,
                    "retry_amplification": r.retry_amplification(),
                    "retries_per_request": r.retries_per_request(),
                    "cache_hits": r.cache_hits,
                    "cache_misses": r.cache_misses,
                    "cache_hit_ratio": r.cache_hit_ratio(),
                    "availability": r.availability(),
                })
            })
            .collect(),
    )
}

/// Renders the defense evaluation table: detection quality, enforcement
/// ladder outcome, and victim-link traffic with/without the layer.
pub fn render_defense_eval(reports: &[DefenseScenarioReport]) -> TextTable {
    let mut table = TextTable::new(
        "Online defense evaluation — mixed benign + attack workloads, defended vs undefended (DESIGN.md §12)",
        &[
            "scenario",
            "case",
            "detected",
            "latency (ms)",
            "precision",
            "recall",
            "benign blocked",
            "peak action",
            "victim bytes (raw)",
            "victim bytes (defended)",
            "residual amp",
        ],
    );
    for report in reports {
        table.row(vec![
            report.scenario.clone(),
            report.exploited_case.clone(),
            report.detected.to_string(),
            report
                .detection_latency_ms
                .map(|ms| ms.to_string())
                .unwrap_or_else(|| "-".to_string()),
            format!("{:.3}", report.precision),
            format!("{:.3}", report.recall),
            report.benign_requests_blocked.to_string(),
            report.peak_action.clone(),
            group_digits(report.undefended_victim_bytes),
            group_digits(report.defended_victim_bytes),
            format!("{:.2}x", report.residual_amplification),
        ]);
    }
    table
}

/// One threshold point of the §VI-C naive-detector sweep.
#[derive(Debug, Clone, Serialize)]
pub struct DetectabilityPoint {
    /// Tiny-range threshold in bytes.
    pub threshold: u64,
    /// Attack requests flagged / total attack requests.
    pub true_positive_rate: f64,
    /// Benign requests flagged / total benign requests.
    pub false_positive_rate: f64,
}

/// Sweeps the naive tiny-range detector over a mixed 2000 + 2000 stream
/// (10 MB resource). Each threshold is one executor unit regenerating
/// the same seeded stream, so points are thread-count invariant.
pub fn detectability_points(seed: u64, executor: &Executor) -> Vec<DetectabilityPoint> {
    const SIZE: u64 = 10 * MB;
    let thresholds: Vec<u64> = vec![1, 16, 64, 256, 1024, 65_536];
    executor.map(seed, thresholds, |_, threshold| {
        let mut generator = WorkloadGenerator::new(seed, SIZE);
        let stream = generator.mixed_stream(2_000, 2_000);
        let report = evaluate_detector(
            TinyRangeDetector {
                tiny_threshold: threshold,
            },
            &stream,
            SIZE,
        );
        DetectabilityPoint {
            threshold,
            true_positive_rate: report.true_positive_rate,
            false_positive_rate: report.false_positive_rate,
        }
    })
}

/// Per-vendor static-mitigation outcomes (§VI-C ablations).
#[derive(Debug, Clone, Serialize)]
pub struct MitigationRow {
    /// Vendor under attack.
    pub vendor: String,
    /// Outcomes for each defense, in evaluation order.
    pub outcomes: Vec<DefenseOutcome>,
}

/// Runs the SBR mitigation ablation for `vendors`; one vendor per
/// executor unit.
pub fn sbr_mitigation_rows(
    vendors: &[Vendor],
    resource_size: u64,
    executor: &Executor,
) -> Vec<MitigationRow> {
    executor.map(0, vendors.to_vec(), |_, vendor| MitigationRow {
        vendor: vendor.name().to_string(),
        outcomes: evaluate_sbr_defenses(vendor, resource_size),
    })
}

/// One row of the §V-E severity table.
#[derive(Debug, Clone, Serialize)]
pub struct SeverityRow {
    /// Billing model description (`$x/GB` or `flat-rate`).
    pub billing: String,
    /// Projected attack cost.
    pub cost: AttackCost,
}

/// Projects §V-E costs for every vendor (25 MB resource, one vendor per
/// executor unit).
pub fn severity_rows(
    rate: u32,
    hours: f64,
    model: &CostModel,
    executor: &Executor,
) -> Vec<SeverityRow> {
    let model = *model;
    executor.map(0, Vendor::ALL.to_vec(), |_, vendor| {
        let measurement = SbrAttack::new(vendor, 25 * MB).run();
        let billing = match BillingModel::for_vendor(vendor) {
            BillingModel::PerGb(price) => format!("${price:.3}/GB"),
            BillingModel::FlatRate => "flat-rate".to_string(),
        };
        SeverityRow {
            billing,
            cost: project_cost(vendor, &measurement, rate, hours, &model),
        }
    })
}

/// One row of the §VIII dropped-GET vs SBR comparison.
#[derive(Debug, Clone, Serialize)]
pub struct DroppedGetRow {
    /// Vendor.
    pub vendor: String,
    /// Whether the vendor keeps the back-end connection alive on abort.
    pub keeps_backend_alive: bool,
    /// Origin traffic for one dropped GET (defense in play).
    pub dropped_get_origin_bytes: u64,
    /// Whether the break-backend defense stopped the dropped GET.
    pub defense_works: bool,
    /// Origin traffic for one SBR round (defense irrelevant).
    pub sbr_origin_bytes: u64,
}

/// Runs the §VIII comparison for every vendor; one vendor per unit.
pub fn dropped_get_rows(resource_size: u64, executor: &Executor) -> Vec<DroppedGetRow> {
    executor.map(0, Vendor::ALL.to_vec(), |_, vendor| {
        let dropped = DroppedGetAttack::new(vendor, resource_size).run();
        let sbr = SbrAttack::new(vendor, resource_size).run();
        DroppedGetRow {
            vendor: vendor.name().to_string(),
            keeps_backend_alive: dropped.keeps_backend_alive,
            dropped_get_origin_bytes: dropped.origin_bytes,
            defense_works: dropped.defense_effective(resource_size),
            sbr_origin_bytes: sbr.traffic.victim_response_bytes,
        }
    })
}

/// One row of the §VI-B HTTP/2 applicability check.
#[derive(Debug, Clone, Serialize)]
pub struct H2Row {
    /// Vendor.
    pub vendor: String,
    /// SBR amplification factor under HTTP/1.1 framing.
    pub factor_h1: f64,
    /// SBR amplification factor under HTTP/2 framing.
    pub factor_h2: f64,
}

/// Runs the HTTP/2 framing comparison (10 MB resource); one vendor per
/// executor unit.
pub fn h2_rows(executor: &Executor) -> Vec<H2Row> {
    executor.map(0, Vendor::ALL.to_vec(), |_, vendor| {
        let report = SbrAttack::new(vendor, 10 * MB).run();
        H2Row {
            vendor: vendor.name().to_string(),
            factor_h1: report.amplification_factor(),
            factor_h2: report.amplification_factor_h2(),
        }
    })
}

/// Walks `args` (without the program name) once and returns each flag's
/// value, keyed by the flag as written in `known` (`"--threads"`).
///
/// Accepts both `--flag value` and `--flag=value`; a repeated flag keeps
/// its last value. An argument that is not a known flag, or a flag with
/// no value after it, is an error.
pub fn parse_flags(
    args: &[impl AsRef<str>],
    known: &[&str],
) -> Result<BTreeMap<String, String>, String> {
    let mut values = BTreeMap::new();
    let mut args = args.iter().map(AsRef::as_ref);
    while let Some(arg) = args.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, value)) => (flag, Some(value)),
            None => (arg, None),
        };
        if !known.contains(&flag) {
            return Err(format!("unknown flag `{arg}`"));
        }
        let value = match inline {
            Some(value) => value,
            None => args
                .next()
                .filter(|value| !value.starts_with("--"))
                .ok_or_else(|| format!("`{flag}` needs a value"))?,
        };
        values.insert(flag.to_string(), value.to_string());
    }
    Ok(values)
}

/// A binary's command-line flags, parsed by [`parse_flags`] from
/// `std::env::args`. Any error prints one usage line and exits with
/// status 2.
#[derive(Debug, Clone)]
pub struct Flags {
    values: BTreeMap<String, String>,
    usage: String,
}

impl Flags {
    /// Parses the process arguments against the `known` flags.
    pub fn from_env(known: &[&str]) -> Flags {
        let mut args = std::env::args();
        let program = args.next().unwrap_or_default();
        let usage: String = known.iter().map(|f| format!(" [{f} <value>]")).collect();
        let flags = Flags {
            values: BTreeMap::new(),
            usage: format!("usage: {program}{usage}"),
        };
        match parse_flags(&args.collect::<Vec<_>>(), known) {
            Ok(values) => Flags { values, ..flags },
            Err(err) => flags.fail(&err),
        }
    }

    /// The raw value of `flag`, when given.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.values.get(flag).map(String::as_str)
    }

    /// The value of `flag` parsed as `T`, when given; a value that does
    /// not parse is a usage error.
    pub fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Option<T> {
        let raw = self.get(flag)?;
        let bad = |_| self.fail(&format!("`{flag}` takes an integer, got `{raw}`"));
        Some(raw.parse().unwrap_or_else(bad))
    }

    /// Prints `err` with the usage line and exits with status 2.
    pub fn fail(&self, err: &str) -> ! {
        eprintln!("error: {err}; {}", self.usage);
        std::process::exit(2)
    }
}

/// The flag set shared by every table/figure binary, parsed once.
///
/// All harness binaries accept:
///
/// * `--json <path>` — also write the experiment's rows as pretty JSON;
/// * `--threads <n>` — shard the experiment over `n` executor threads
///   (`0` means "one per core"; output bytes are identical for any
///   value — see DESIGN.md §8);
/// * `--seed <n>` — override the campaign seed where the experiment is
///   seeded (ignored by the purely deterministic table sweeps).
///
/// A binary that takes more flags declares them to [`BenchCli::parse`]
/// and reads them from [`BenchCli::flags`].
#[derive(Debug, Clone)]
pub struct BenchCli {
    /// `--threads <n>` (default 1; 0 = one per core).
    pub threads: usize,
    /// `--seed <n>`: campaign seed override.
    pub seed: Option<u64>,
    /// Every parsed flag, the shared ones and the binary's `extra` ones.
    pub flags: Flags,
}

impl BenchCli {
    /// Parses the shared flags plus the binary's `extra` flags from
    /// `std::env::args`.
    pub fn parse(extra: &[&str]) -> BenchCli {
        let mut known = vec!["--json", "--threads", "--seed"];
        known.extend_from_slice(extra);
        let flags = Flags::from_env(&known);
        BenchCli {
            threads: flags.parsed("--threads").unwrap_or(1),
            seed: flags.parsed("--seed"),
            flags,
        }
    }

    /// The executor the flags select: `--threads 0` sizes it to the
    /// machine, anything else is an explicit shard count.
    pub fn executor(&self) -> Executor {
        if self.threads == 0 {
            Executor::available_parallelism()
        } else {
            Executor::new(self.threads)
        }
    }

    /// Writes `value` as pretty JSON to the `--json` path, when given.
    /// The printed text output is unaffected, so golden outputs stay
    /// byte-identical.
    pub fn write_json<T: Serialize>(&self, value: &T) {
        if let Some(path) = self.flags.get("--json") {
            write_json(path, value);
        }
    }
}

/// Writes `value` to `path` as pretty JSON (see [`write_output`]).
pub fn write_json<T: Serialize>(path: &str, value: &T) {
    let json = serde_json::to_string_pretty(value).expect("serializable");
    write_output(path, &json);
}

/// Writes `contents` to `path` verbatim, creating parent directories as
/// needed, and notes the write on stderr (stdout stays reserved for the
/// deterministic experiment text).
pub fn write_output(path: &str, contents: &str) {
    let path = std::path::Path::new(path);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("can create output dir");
        }
    }
    std::fs::write(path, contents).expect("output path is writable");
    eprintln!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sbr_points_cover_all_vendors() {
        let points = sbr_points(&[1], &Executor::sequential());
        assert_eq!(points.len(), 13);
        for point in &points {
            assert!(point.amplification_factor > 100.0, "{point:?}");
        }
    }

    #[test]
    fn table4_renders_13_rows() {
        let points = sbr_points(&[1], &Executor::sequential());
        let table = render_table4(&points);
        assert_eq!(table.len(), 13);
    }

    #[test]
    fn parse_flags_accepts_both_spellings() {
        let known = ["--json", "--threads"];
        let flags =
            parse_flags(&["--threads", "8", "--json=out.json"], &known).expect("known flags parse");
        assert_eq!(flags["--threads"], "8");
        assert_eq!(flags["--json"], "out.json");
        assert_eq!(flags.len(), 2);
    }

    #[test]
    fn parse_flags_rejects_unknown_and_valueless_flags() {
        let known = ["--threads", "--cases"];
        assert!(parse_flags(&["--case", "5"], &known).is_err());
        assert!(parse_flags(&["--thread=8"], &known).is_err());
        assert!(parse_flags(&["stray"], &known).is_err());
        assert!(parse_flags(&["--threads", "2", "--cases"], &known).is_err());
        assert!(parse_flags(&["--cases", "--threads", "2"], &known).is_err());
    }

    #[test]
    fn parse_flags_returns_a_declared_extra() {
        let known = ["--json", "--threads", "--seed", "--corpus-dir"];
        let flags = parse_flags(&["--seed", "42", "--corpus-dir", "/tmp/c"], &known)
            .expect("declared extra parses");
        assert_eq!(flags["--corpus-dir"], "/tmp/c");
        assert_eq!(flags["--seed"], "42");
        assert!(!flags.contains_key("--threads"));
    }

    #[test]
    fn table5_has_11_rows() {
        let measurements = table5_measurements(&Executor::sequential());
        assert_eq!(measurements.len(), 11);
        let table = render_table5(&measurements);
        assert_eq!(table.len(), 11);
    }
}
