//! `conformance_fuzz`: each op is `conformance::check_entry` on
//! `conformance::generate(index, seed)`, plus the amplification
//! monotonicity oracle on every eighth pipeline case, as `run_fuzz`
//! schedules it. The `ConformanceEnv`'s per-size origins are warmed in
//! set-up. This is the only workload that reaches every vendor's rewrite
//! branches and the HTTP wire codec on malformed input.

use rangeamp::conformance::{
    case::generate, check_entry, check_monotonicity, check_pipeline, CaseReport, ConformanceEnv,
    CorpusEntry, FuzzCase, IfRangeKind, SIZE_PALETTE,
};
use rangeamp::http::range::RangeHeader;
use rangeamp::http::{wire, Request};
use rangeamp::{TARGET_HOST, TARGET_PATH};

use crate::check::Verdict;
use crate::runner::{Fnv, OpRecord, Workload};
use crate::trace::{self, Layer};

/// `FuzzConfig::default().monotonicity_stride`.
const MONOTONICITY_STRIDE: u64 = 8;
/// Cases per cycle: a multiple of the generator's wire (4) and
/// large-size (8) strides and of the monotonicity stride.
const CYCLE: u64 = 256;

/// One generated case and the request bytes its replays use.
#[derive(Debug)]
pub struct Case {
    index: u64,
    entry: CorpusEntry,
    /// The request the case describes, as wire bytes (wire cases: the raw
    /// bytes; pipeline cases: a GET carrying the case's `Range`, when the
    /// value can be carried in a header at all).
    wire: Option<Vec<u8>>,
}

/// The workload state.
#[derive(Debug)]
pub struct ConformanceFuzz {
    seed: u64,
    env: ConformanceEnv,
}

impl ConformanceFuzz {
    /// Warms the environment's origin fixture for every palette size, then
    /// checks the generator's heaviest shape once: 16 overlapping whole-file
    /// ranges on the largest small size with a matching `If-Range`, whose
    /// multipart copies set the process's peak memory. Without it, peak RSS
    /// would depend on whether a seed happens to draw that shape.
    pub fn setup(seed: u64, _traced: bool) -> ConformanceFuzz {
        let env = ConformanceEnv::new();
        let case = |size, range: String, if_range| FuzzCase {
            size,
            range,
            expect: None,
            if_range,
            pad: 0,
        };
        for size in SIZE_PALETTE {
            let warm = case(size, "bytes=0-0".to_string(), IfRangeKind::None);
            std::hint::black_box(check_pipeline(&env, &warm));
        }
        let heaviest = case(
            SIZE_PALETTE[3],
            RangeHeader::overlapping(16).to_string(),
            IfRangeKind::MatchingEtag,
        );
        std::hint::black_box(check_pipeline(&env, &heaviest));
        ConformanceFuzz { seed, env }
    }
}

impl Workload for ConformanceFuzz {
    type Input = Case;
    type Output = CaseReport;

    fn cycle(&self) -> u64 {
        CYCLE
    }

    fn prepare(&mut self, index: u64) -> Case {
        let entry = generate(index, self.seed);
        let wire = match &entry {
            CorpusEntry::Wire(case) => Some(case.raw.clone()),
            CorpusEntry::Pipeline(case) => {
                let mut req = Request::get(TARGET_PATH)
                    .header("Host", TARGET_HOST)
                    .build();
                req.headers_mut()
                    .try_append("Range", case.range.clone())
                    .ok()
                    .map(|()| wire::encode_request(&req))
            }
        };
        Case { index, entry, wire }
    }

    fn run(&mut self, case: &Case) -> CaseReport {
        if let Some(raw) = &case.wire {
            let decoded = trace::span(Layer::WireRoundtrip, || {
                wire::decode_request(raw).map(|req| wire::encode_request(&req))
            });
            let _ = std::hint::black_box(decoded);
        }
        match &case.entry {
            CorpusEntry::Pipeline(fuzz) => {
                let _ = std::hint::black_box(trace::span(Layer::RangeParse, || {
                    RangeHeader::parse(&fuzz.range)
                }));
                let mut report =
                    trace::span(Layer::CheckPipeline, || check_entry(&self.env, &case.entry));
                if case.index % MONOTONICITY_STRIDE == 0 {
                    let mono = trace::span(Layer::CheckMonotonicity, || {
                        check_monotonicity(&self.env, fuzz)
                    });
                    report.probes += mono.probes;
                    report.violations.extend(mono.violations);
                }
                report
            }
            CorpusEntry::Wire(_) => {
                trace::span(Layer::CheckWire, || check_entry(&self.env, &case.entry))
            }
        }
    }

    fn check(&mut self, case: Case, report: CaseReport) -> OpRecord {
        let mut detail = Fnv::default();
        detail.write(format!("{}|{}", report.summary, report.probes).as_bytes());
        let verdict = match report.violations.first() {
            None => Verdict::Ok,
            Some(v) => Verdict::Wrong(format!(
                "case {}: {} oracle ({:?}): {}",
                case.index, v.oracle, v.vendor, v.detail
            )),
        };
        OpRecord {
            status: report.violations.len() as u64,
            client_bytes: 0,
            victim_bytes: 0,
            detail: detail.0,
            attack: false,
            cache: Vec::new(),
            verdict,
        }
    }
}
