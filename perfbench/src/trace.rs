//! The traced run's span recorder and the timing wrappers it puts on the
//! program's public seams.
//!
//! Nothing inside the program is instrumented. Spans are opened by
//! benchmark code around its own calls into a layer, and by two wrappers:
//! [`TimedUpstream`] (an [`UpstreamService`] in front of the origin or a
//! BCDN edge) and [`TimedDefense`] (a [`DefenseHook`] in front of a
//! `DefenseLayer`). The untraced run builds the same testbeds without the
//! wrappers and runs with the recorder off, so [`span`] is a plain call.
//!
//! Spans carry their op id and parent and stay in memory until the run
//! ends; [`summarize`] then derives each layer's inclusive and self time
//! (span time minus the time its child spans cover).

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use rangeamp::cdn::{DefenseAction, DefenseHook, RequestOutcome, UpstreamError, UpstreamService};
use rangeamp::http::{Request, Response};

/// A layer boundary the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One whole op (the root span).
    Op,
    /// Testbed wiring: store, origin, edges and segments.
    TestbedBuild,
    /// Synthetic resource fill (`ResourceStore::add_synthetic`).
    ResourceBuild,
    /// A client request through a single-edge testbed.
    Edge,
    /// A client request through a cascade's front edge.
    Fcdn,
    /// A forwarded request handled by a cascade's back edge.
    Bcdn,
    /// A request served by the origin.
    OriginServe,
    /// The header-limit solver (`ObrAttack::max_n`).
    Limits,
    /// `DefenseHook::decide`.
    DefenseDecide,
    /// `DefenseHook::observe`.
    DefenseObserve,
    /// `RangeHeader::parse` replayed on the op's request.
    RangeParse,
    /// `wire::encode_request` then `wire::decode_request` of the op's request.
    WireRoundtrip,
    /// `conformance::check_entry` on a pipeline case.
    CheckPipeline,
    /// `conformance::check_entry` on a wire case.
    CheckWire,
    /// `conformance::check_monotonicity`.
    CheckMonotonicity,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 15] = [
        Layer::Op,
        Layer::TestbedBuild,
        Layer::ResourceBuild,
        Layer::Edge,
        Layer::Fcdn,
        Layer::Bcdn,
        Layer::OriginServe,
        Layer::Limits,
        Layer::DefenseDecide,
        Layer::DefenseObserve,
        Layer::RangeParse,
        Layer::WireRoundtrip,
        Layer::CheckPipeline,
        Layer::CheckWire,
        Layer::CheckMonotonicity,
    ];

    /// The layer's name in the report (the prefix of its metrics).
    pub fn name(self) -> &'static str {
        match self {
            Layer::Op => "op",
            Layer::TestbedBuild => "core.testbed_build",
            Layer::ResourceBuild => "origin.resource_build",
            Layer::Edge => "cdn.edge",
            Layer::Fcdn => "cdn.fcdn",
            Layer::Bcdn => "cdn.bcdn",
            Layer::OriginServe => "origin.serve",
            Layer::Limits => "cdn.limits",
            Layer::DefenseDecide => "defense.decide",
            Layer::DefenseObserve => "defense.observe",
            Layer::RangeParse => "http.range_parse",
            Layer::WireRoundtrip => "http.wire_roundtrip",
            Layer::CheckPipeline => "core.conformance.check.pipeline",
            Layer::CheckWire => "core.conformance.check.wire",
            Layer::CheckMonotonicity => "core.conformance.check.monotonicity",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct SpanRec {
    op: u64,
    parent: u32,
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
    bytes: u64,
}

#[derive(Debug)]
struct Recorder {
    on: bool,
    epoch: Instant,
    op: u64,
    spans: Vec<SpanRec>,
    stack: Vec<u32>,
    actions: [u64; 4],
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        epoch: Instant::now(),
        op: 0,
        spans: Vec::new(),
        stack: Vec::new(),
        actions: [0; 4],
    });
}

/// Turns recording on or off: spans opened while it is on are kept.
pub fn record(on: bool) {
    RECORDER.with(|r| r.borrow_mut().on = on);
}

/// Tags spans opened from now on with `op`.
pub fn set_op(op: u64) {
    RECORDER.with(|r| r.borrow_mut().op = op);
}

fn is_on() -> bool {
    RECORDER.with(|r| r.borrow().on)
}

/// Runs `f` inside a span of `layer`.
pub fn span<T>(layer: Layer, f: impl FnOnce() -> T) -> T {
    span_bytes(layer, f, |_| 0)
}

/// Runs `f` inside a span of `layer` that also records `bytes(&result)`.
pub fn span_bytes<T>(layer: Layer, f: impl FnOnce() -> T, bytes: impl FnOnce(&T) -> u64) -> T {
    if !is_on() {
        return f();
    }
    let id = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let id = u32::try_from(r.spans.len()).expect("fewer than 2^32 spans per run");
        let rec = SpanRec {
            op: r.op,
            parent: r.stack.last().copied().unwrap_or(NO_PARENT),
            layer,
            start_ns: r.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            bytes: 0,
        };
        r.spans.push(rec);
        r.stack.push(id);
        id
    });
    let out = f();
    let n = bytes(&out);
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let end = r.epoch.elapsed().as_nanos() as u64;
        let rec = &mut r.spans[id as usize];
        rec.end_ns = end;
        rec.bytes = n;
        r.stack.pop();
    });
    out
}

/// Counts one defense decision (only while recording).
fn count_action(action: DefenseAction) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if r.on {
            r.actions[action as usize] += 1;
        }
    });
}

/// Per-layer totals over every recorded span.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    /// Spans recorded.
    pub calls: u64,
    /// Sum of span durations.
    pub incl_ns: u64,
    /// Sum of span durations minus their children's.
    pub self_ns: u64,
    /// Sum of recorded byte counts.
    pub bytes: u64,
}

/// What the recorder saw over the whole traced run.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Totals indexed like [`Layer::ALL`].
    pub layers: Vec<LayerTotals>,
    /// Defense decisions by action, in ladder order.
    pub actions: [u64; 4],
    /// Distinct op ids the spans carry.
    pub ops: u64,
}

impl Summary {
    /// Totals of one layer.
    pub fn layer(&self, layer: Layer) -> LayerTotals {
        self.layers[layer as usize]
    }
}

/// Aggregates the recorded spans into per-layer inclusive and self time.
pub fn summarize() -> Summary {
    RECORDER.with(|r| {
        let r = r.borrow();
        let mut child_ns = vec![0u64; r.spans.len()];
        for rec in &r.spans {
            if rec.parent != NO_PARENT {
                child_ns[rec.parent as usize] += rec.end_ns - rec.start_ns;
            }
        }
        let mut layers = vec![LayerTotals::default(); Layer::ALL.len()];
        let mut ops = 0;
        let mut last_op = None;
        for (rec, children) in r.spans.iter().zip(&child_ns) {
            let dur = rec.end_ns - rec.start_ns;
            let t = &mut layers[rec.layer as usize];
            t.calls += 1;
            t.incl_ns += dur;
            t.self_ns += dur.saturating_sub(*children);
            t.bytes += rec.bytes;
            if last_op != Some(rec.op) {
                last_op = Some(rec.op);
                ops += 1;
            }
        }
        Summary {
            layers,
            actions: r.actions,
            ops,
        }
    })
}

/// An [`UpstreamService`] that times every forwarded request as one span.
#[derive(Debug)]
pub struct TimedUpstream {
    inner: Arc<dyn UpstreamService>,
    layer: Layer,
}

impl UpstreamService for TimedUpstream {
    fn handle(&self, req: &Request) -> Result<Response, UpstreamError> {
        span_bytes(
            self.layer,
            || self.inner.handle(req),
            |resp| resp.as_ref().map_or(0, Response::wire_len),
        )
    }

    fn resource_size(&self, path: &str) -> Option<u64> {
        self.inner.resource_size(path)
    }
}

/// Wraps `inner` in a [`TimedUpstream`] when `traced`.
pub fn upstream(
    inner: Arc<dyn UpstreamService>,
    layer: Layer,
    traced: bool,
) -> Arc<dyn UpstreamService> {
    if traced {
        Arc::new(TimedUpstream { inner, layer })
    } else {
        inner
    }
}

/// A [`DefenseHook`] that times `decide` and `observe` and counts the
/// actions decided.
#[derive(Debug)]
pub struct TimedDefense {
    inner: Arc<dyn DefenseHook>,
}

impl DefenseHook for TimedDefense {
    fn decide(&self, client: &str, req: &Request, now_ms: u64) -> DefenseAction {
        let action = span(Layer::DefenseDecide, || {
            self.inner.decide(client, req, now_ms)
        });
        count_action(action);
        action
    }

    fn observe(
        &self,
        client: &str,
        req: &Request,
        action: DefenseAction,
        outcome: &RequestOutcome,
        now_ms: u64,
    ) {
        span(Layer::DefenseObserve, || {
            self.inner.observe(client, req, action, outcome, now_ms)
        });
    }
}

/// Wraps `inner` in a [`TimedDefense`] when `traced`.
pub fn defense(inner: Arc<dyn DefenseHook>, traced: bool) -> Arc<dyn DefenseHook> {
    if traced {
        Arc::new(TimedDefense { inner })
    } else {
        inner
    }
}
