//! The closed-loop runner shared by every workload: the timed op loop,
//! per-window timing statistics, per-op correctness bookkeeping and the
//! run digest.

use std::time::{Duration, Instant};

use crate::check::Verdict;
use crate::trace::{self, Layer};

/// One workload: inputs are generated in set-up, each op is prepared and
/// checked outside the timed interval, and only [`Workload::run`] is timed.
pub trait Workload {
    /// What one op needs, materialised before the timer starts.
    type Input;
    /// What one op produced, checked after the timer stops.
    type Output;

    /// Ops per stratified cycle; a run stops on a cycle boundary so every
    /// run covers the same input mix.
    fn cycle(&self) -> u64;

    /// Materialises op `op`'s input (untimed).
    fn prepare(&mut self, op: u64) -> Self::Input;

    /// Runs one op (timed).
    fn run(&mut self, input: &Self::Input) -> Self::Output;

    /// Checks one op's output (untimed).
    fn check(&mut self, input: Self::Input, output: Self::Output) -> OpRecord;

    /// Per-client defense state held at the end of the run.
    fn tracked_clients(&self) -> u64 {
        0
    }
}

/// Which cache state the client-facing edge reported (`X-Cache`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheState {
    /// Served from cache.
    Hit,
    /// Fetched upstream.
    Miss,
    /// Served an expired copy after an upstream failure.
    Stale,
    /// Answered without consulting the cache (431, 429, loops).
    Bypass,
    /// No edge answered (conformance cases).
    None,
}

impl CacheState {
    /// Reads the client-facing edge's state from a response.
    pub fn of(resp: &rangeamp::http::Response) -> CacheState {
        match resp
            .headers()
            .get_all("x-cache")
            .last()
            .and_then(|v| v.split(' ').next())
        {
            Some("HIT") => CacheState::Hit,
            Some("MISS") => CacheState::Miss,
            Some("STALE") => CacheState::Stale,
            Some(_) => CacheState::Bypass,
            None => CacheState::None,
        }
    }
}

/// The checked outcome of one op.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// Client-facing status; a probe's two rounds read as `first * 1000 +
    /// second` (for conformance ops: the violation count).
    pub status: u64,
    /// Response bytes the client received.
    pub client_bytes: u64,
    /// Response bytes on the victim link.
    pub victim_bytes: u64,
    /// Further output folded into the run digest (conformance ops: a hash
    /// of the oracle summary line and probe count).
    pub detail: u64,
    /// Whether the op was sent by an attacker.
    pub attack: bool,
    /// Client-facing responses by cache state.
    pub cache: Vec<CacheState>,
    /// The response check's verdict.
    pub verdict: Verdict,
}

impl OpRecord {
    /// Whether the op counts as failed: a wrong answer, or a refused
    /// benign request. Refused attacker requests are the defense working.
    pub fn failed(&self) -> bool {
        match &self.verdict {
            Verdict::Ok => false,
            Verdict::Refused => !self.attack,
            Verdict::Wrong(_) => true,
        }
    }
}

/// 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Statistics of one closed window of consecutive ops.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Ops in the window.
    pub ops: usize,
    /// Ops per timed second.
    pub ops_per_s: f64,
    /// Median op time, ns.
    pub p50_ns: u32,
    /// 99th-percentile op time, ns.
    pub p99_ns: u32,
    /// Samples above the p99.
    pub above_p99: usize,
}

impl Window {
    fn of(ops: &mut [u32]) -> Window {
        let busy: u64 = ops.iter().map(|&ns| u64::from(ns)).sum();
        ops.sort_unstable();
        let (p50_ns, _) = percentile(ops, 0.50);
        let (p99_ns, above_p99) = percentile(ops, 0.99);
        Window {
            ops: ops.len(),
            ops_per_s: ops.len() as f64 / (busy.max(1) as f64 / 1e9),
            p50_ns,
            p99_ns,
            above_p99,
        }
    }
}

/// Everything one pass of the op loop measured. Op times are summarised
/// per window as they arrive, so the benchmark's own memory stays flat
/// however many ops a run makes.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Ops per cycle.
    pub cycle: u64,
    /// Ops per p99 window.
    p99_window: u64,
    /// Ops run.
    pub ops: u64,
    /// Sum of timed op durations, ns.
    pub busy_ns: u64,
    /// One window per whole cycle.
    pub cycles: Vec<Window>,
    /// Windows of whole cycles holding at least 1000 ops, so each p99 has
    /// at least ten samples above it.
    pub p99s: Vec<Window>,
    cycle_buf: Vec<u32>,
    p99_buf: Vec<u32>,
    /// Peak live heap bytes from process start to the end of the first p99
    /// window, a fixed op count, so the figure does not depend on how many
    /// ops the run completes (per-client defense state grows with them).
    pub peak_heap: usize,
    /// Failed ops: wrong answers plus refused benign requests.
    pub failed: u64,
    /// Ops answered wrongly (the program's output is incorrect).
    pub wrong: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// Digest of every op's (status, client bytes, victim bytes).
    pub digest: Fnv,
    /// The same digest over the first cycle only.
    pub first_cycle_digest: Option<Fnv>,
    /// Client response bytes, all ops.
    pub client_bytes: u64,
    /// Victim-link response bytes, all ops.
    pub victim_bytes: u64,
    /// Client response bytes of attacker ops.
    pub attack_client_bytes: u64,
    /// Victim-link response bytes of attacker ops.
    pub attack_victim_bytes: u64,
    /// Client responses by [`CacheState`]: hit, miss, stale, bypass.
    pub cache: [u64; 4],
    /// Client responses carrying a cache state.
    pub responses: u64,
    /// Wall time of the whole pass, checks included.
    pub wall: Duration,
}

impl Pass {
    /// An empty pass over a workload with `cycle` ops per cycle.
    pub fn new(cycle: u64) -> Pass {
        let cycle = cycle.max(1);
        // Whole cycles, at least 1000 ops.
        let p99_window = cycle * 1000u64.div_ceil(cycle);
        Pass {
            cycle,
            p99_window,
            cycle_buf: Vec::with_capacity(cycle as usize),
            p99_buf: Vec::with_capacity(p99_window as usize),
            ..Pass::default()
        }
    }

    fn time(&mut self, ns: u32) {
        let cycle = self.cycle;
        self.ops += 1;
        self.busy_ns += u64::from(ns);
        self.cycle_buf.push(ns);
        self.p99_buf.push(ns);
        if self.ops % cycle == 0 {
            self.cycles.push(Window::of(&mut self.cycle_buf));
            self.cycle_buf.clear();
        }
        if self.ops % self.p99_window == 0 {
            self.p99s.push(Window::of(&mut self.p99_buf));
            self.p99_buf.clear();
            if self.p99s.len() == 1 {
                self.peak_heap = crate::alloc::peak_bytes();
            }
        }
    }

    /// Ends the pass; one too short for a whole window reports its
    /// partial one.
    pub fn finish(&mut self) {
        if self.cycles.is_empty() && !self.cycle_buf.is_empty() {
            self.cycles.push(Window::of(&mut self.cycle_buf));
        }
        if self.p99s.is_empty() && !self.p99_buf.is_empty() {
            self.p99s.push(Window::of(&mut self.p99_buf));
            self.peak_heap = crate::alloc::peak_bytes();
        }
    }

    fn record(&mut self, rec: &OpRecord) {
        if matches!(rec.verdict, Verdict::Wrong(_)) {
            self.wrong += 1;
        }
        if rec.failed() {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(match &rec.verdict {
                    Verdict::Wrong(why) => format!("op {}: {why}", self.ops - 1),
                    _ => format!("op {}: benign request refused", self.ops - 1),
                });
            }
        }
        self.digest.write(
            format!(
                "{}|{}|{}|{}\n",
                rec.status, rec.client_bytes, rec.victim_bytes, rec.detail
            )
            .as_bytes(),
        );
        if self.ops == self.cycle {
            self.first_cycle_digest = Some(self.digest);
        }
        self.client_bytes += rec.client_bytes;
        self.victim_bytes += rec.victim_bytes;
        if rec.attack {
            self.attack_client_bytes += rec.client_bytes;
            self.attack_victim_bytes += rec.victim_bytes;
        }
        for state in &rec.cache {
            let slot = match state {
                CacheState::Hit => 0,
                CacheState::Miss => 1,
                CacheState::Stale => 2,
                CacheState::Bypass => 3,
                CacheState::None => continue,
            };
            self.cache[slot] += 1;
            self.responses += 1;
        }
    }
}

/// When a pass stops.
#[derive(Debug, Clone, Copy)]
pub struct Limit {
    /// Stop at the first cycle boundary after this much wall time.
    pub budget: Duration,
    /// Never run more ops than this.
    pub max_ops: u64,
}

/// Runs the closed loop, one op in flight from a single thread, from op
/// `pass.ops` on: until `limit.max_ops`, or the first cycle boundary after
/// `limit.budget`.
pub fn drive<W: Workload>(w: &mut W, pass: &mut Pass, limit: Limit) {
    let cycle = pass.cycle;
    // A cycle that overruns the budget is cut here, so a run always ends.
    let hard_stop = limit.budget + limit.budget / 2;
    let start = Instant::now();
    let first = pass.ops;
    for op in first..limit.max_ops {
        let elapsed = start.elapsed();
        if op > first && ((op % cycle == 0 && elapsed >= limit.budget) || elapsed >= hard_stop) {
            break;
        }
        let input = w.prepare(op);
        trace::set_op(op);
        let t0 = Instant::now();
        let output = trace::span(Layer::Op, || w.run(&input));
        let ns = u32::try_from(t0.elapsed().as_nanos()).unwrap_or(u32::MAX);
        pass.time(ns);
        let rec = w.check(input, output);
        pass.record(&rec);
    }
    pass.wall += start.elapsed();
}

/// Nearest-rank percentile of `sorted`, with the number of samples above it.
pub fn percentile(sorted: &[u32], p: f64) -> (u32, usize) {
    if sorted.is_empty() {
        return (0, 0);
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

/// Median of a non-empty list.
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
