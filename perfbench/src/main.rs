//! Request-level benchmark of the RangeAmp emulator.
//!
//! ```text
//! rangeamp-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                    [--max-ops <n>]
//! ```
//!
//! Each invocation runs one workload in its own process as a closed loop:
//! one op in flight, from a single thread. Inputs are generated from the
//! seed during set-up; each op's output is checked outside the timed
//! interval. With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it sets the workload up twice, plain and with timing
//! wrappers on the program's seams, runs the same ops through both in
//! alternating whole cycles, and reports the per-layer metrics. The
//! last line of stdout is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod alloc;
mod bed;
mod check;
mod runner;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use runner::{drive, median, peak_rss_mb, Limit, Pass, Workload};
use trace::{Layer, Summary};
use workloads::{
    conformance_fuzz::ConformanceFuzz, defense_mix::DefenseMix, obr_cascade::ObrCascade,
    scan_probe::ScanProbe,
};

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

/// The workloads, in report order.
const WORKLOADS: [&str; 4] = [
    "scan_probe",
    "obr_cascade",
    "defense_mix",
    "conformance_fuzz",
];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    max_ops: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 15.0,
        trace: false,
        max_ops: u64::MAX,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad value {value:?} for {flag}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--max-ops" => args.max_ops = value.parse().map_err(bad)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) || args.max_ops == 0 {
        return Err("--seconds and --max-ops must be positive".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "scan_probe" => bench(&args, started, ScanProbe::setup),
        "obr_cascade" => bench(&args, started, ObrCascade::setup),
        "defense_mix" => bench(&args, started, DefenseMix::setup),
        _ => bench(&args, started, ConformanceFuzz::setup),
    };
    println!("{}", result.json());
    ExitCode::SUCCESS
}

/// One metric of the JSON result.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn bench<W: Workload>(args: &Args, started: Instant, setup: fn(u64, bool) -> W) -> Outcome {
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let budget = Duration::from_secs_f64(args.seconds);
    // Set up at least `SETUPS` times, and cheap set-ups until they have
    // taken a quarter second, so the median of a millisecond set-up is
    // not one page fault's worth of noise.
    let (reps, min_total) = if args.trace { (1, 0.0) } else { (SETUPS, 0.25) };
    let mut setup_s = Vec::new();
    let mut workload = None;
    while setup_s.len() < reps || (setup_s.iter().sum::<f64>() < min_total && setup_s.len() < 50) {
        drop(workload.take());
        let t0 = Instant::now();
        workload = Some(setup(args.seed, false));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("at least one set-up");
    let to_first_op = started.elapsed().as_secs_f64();
    let mut pass = Pass::new(workload.cycle());
    if !args.trace {
        let limit = Limit {
            budget,
            max_ops: args.max_ops,
        };
        drive(&mut workload, &mut pass, limit);
        pass.finish();
        report_pass("untraced", &pass);
        return end_to_end(&pass, &setup_s, to_first_op);
    }

    // Whole cycles alternate between the plain workload and one built with
    // the timing wrappers, so both see the same host and allocator state
    // and the overhead compares like with like.
    let mut traced = setup(args.seed, true);
    let mut traced_pass = Pass::new(traced.cycle());
    let start = Instant::now();
    while pass.ops < args.max_ops && (pass.ops == 0 || start.elapsed() < budget) {
        let limit = Limit {
            budget: Duration::from_secs(3600),
            max_ops: (pass.ops + pass.cycle).min(args.max_ops),
        };
        drive(&mut workload, &mut pass, limit);
        trace::record(true);
        drive(&mut traced, &mut traced_pass, limit);
        trace::record(false);
    }
    pass.finish();
    traced_pass.finish();
    report_pass("untraced", &pass);
    report_pass("traced", &traced_pass);
    let summary = trace::summarize();
    let same_output = traced_pass.ops == pass.ops && traced_pass.digest.0 == pass.digest.0;
    if !same_output {
        println!("  traced and untraced passes disagree: the wrappers changed program output");
    }
    let mut outcome = per_layer(&pass, &traced_pass, &summary, traced.tracked_clients());
    outcome.correct &= same_output;
    outcome
}

fn report_pass(label: &str, pass: &Pass) {
    let cycle = pass.cycle;
    let first = pass
        .first_cycle_digest
        .map_or("-".to_string(), |d| format!("{:016x}", d.0));
    println!(
        "  {label} pass: {} ops ({:.2} cycles of {cycle}) in {:.2} s wall, {:.2} s timed; \
         digest first cycle {first}, all ops {:016x}",
        pass.ops,
        pass.ops as f64 / cycle as f64,
        pass.wall.as_secs_f64(),
        pass.busy_ns as f64 / 1e9,
        pass.digest.0
    );
    println!(
        "  failed {} of {} (failed_frac {}), wrong answers {}",
        pass.failed,
        pass.ops,
        pass.failed as f64 / pass.ops.max(1) as f64,
        pass.wrong
    );
    for failure in &pass.failures {
        println!("    {failure}");
    }
}

fn attack_amp(pass: &Pass) -> f64 {
    if pass.attack_client_bytes == 0 {
        0.0
    } else {
        pass.attack_victim_bytes as f64 / pass.attack_client_bytes as f64
    }
}

fn end_to_end(pass: &Pass, setup_s: &[f64], to_first_op: f64) -> Outcome {
    // Every cycle repeats the same input mix, so the median over cycles
    // keeps a burst of host noise in a few of them out of the figure.
    let ops_per_s = median(pass.cycles.iter().map(|w| w.ops_per_s).collect());
    let p50 = median(pass.cycles.iter().map(|w| f64::from(w.p50_ns)).collect()) / 1e3;
    let p99 = median(pass.p99s.iter().map(|w| f64::from(w.p99_ns)).collect()) / 1e3;
    let above = pass.p99s.iter().map(|w| w.above_p99).min().unwrap_or(0);
    let setup = median(setup_s.to_vec());
    let mb = |bytes: usize| bytes as f64 / (1024.0 * 1024.0);
    let heap = mb(pass.peak_heap);
    println!(
        "  setup_s      {setup:.6} s  (median of {} set-ups, {:.4}-{:.4} s; process start to first timed op {to_first_op:.3} s)",
        setup_s.len(),
        setup_s.iter().copied().fold(f64::INFINITY, f64::min),
        setup_s.iter().copied().fold(0.0, f64::max)
    );
    println!(
        "  ops_per_s    {ops_per_s:.2} 1/s  (median over {} cycles of ops / timed seconds)",
        pass.cycles.len()
    );
    println!(
        "  op_p50_us    {p50:.2} us  (median over {} cycles of {} ops each)",
        pass.cycles.len(),
        pass.cycles[0].ops
    );
    println!(
        "  op_p99_us    {p99:.2} us  (median over {} windows of {} ops; at least {above} samples above each{})",
        pass.p99s.len(),
        pass.p99s[0].ops,
        if above < 10 { "; fewer than 10, treat as a maximum" } else { "" }
    );
    println!(
        "  peak_heap_mb {heap:.3} MB  (peak live heap bytes up to the end of the first p99 window; {:.3} MB by the end of the run)",
        mb(alloc::peak_bytes())
    );
    println!(
        "  peak_rss_mb  {:.2} MB  (VmHWM; includes memory the allocator keeps)",
        peak_rss_mb()
    );
    println!(
        "  residual_amp {:.4}  (attacker victim-link bytes / attacker client bytes)",
        attack_amp(pass)
    );
    Outcome {
        correct: pass.wrong == 0,
        attempted: pass.ops.max(1),
        failed: pass.failed,
        metrics: vec![
            metric("setup_s", setup, "s"),
            metric("ops_per_s", ops_per_s, "1/s"),
            metric("op_p50_us", p50, "us"),
            metric("op_p99_us", p99, "us"),
            metric("peak_heap_mb", heap, "MB"),
        ],
    }
}

fn per_layer(untraced: &Pass, pass: &Pass, summary: &Summary, tracked_clients: u64) -> Outcome {
    let ops = summary.ops.max(1) as f64;
    let us = |ns: u64| ns as f64 / 1e3 / ops;
    let per_op = |n: u64| n as f64 / ops;
    let l = |layer| summary.layer(layer);
    let share = |n: u64, of: u64| if of == 0 { 0.0 } else { n as f64 / of as f64 };
    let op = l(Layer::Op);
    let decisions = l(Layer::DefenseDecide).calls;
    let untraced_op = untraced.busy_ns as f64 / untraced.ops.max(1) as f64;
    let traced_op = pass.busy_ns as f64 / ops;

    println!("  layer self time per op (traced run, {} ops)", summary.ops);
    println!(
        "    {:<38} {:>10} {:>12} {:>8}",
        "layer", "calls/op", "self us/op", "share"
    );
    for layer in Layer::ALL.iter().skip(1) {
        let t = l(*layer);
        if t.calls > 0 {
            println!(
                "    {:<38} {:>10.3} {:>12.3} {:>7.2}%",
                layer.name(),
                per_op(t.calls),
                us(t.self_ns),
                100.0 * share(t.self_ns, op.incl_ns)
            );
        }
    }
    println!(
        "    {:<38} {:>10} {:>12.3} {:>7.2}%",
        "unattributed (benchmark glue)",
        "",
        us(op.self_ns),
        100.0 * share(op.self_ns, op.incl_ns)
    );
    println!(
        "  trace overhead: traced op {:.3} us vs untraced {:.3} us",
        traced_op / 1e3,
        untraced_op / 1e3
    );

    let xcache = |slot: usize| share(pass.cache[slot], pass.responses);
    let action = |a: A| share(summary.actions[a as usize], decisions);
    use rangeamp::cdn::DefenseAction as A;
    let metrics = vec![
        metric(
            "origin.resource_build.us",
            us(l(Layer::ResourceBuild).incl_ns),
            "us/op",
        ),
        metric(
            "origin.resource_build.bytes",
            per_op(l(Layer::ResourceBuild).bytes),
            "B/op",
        ),
        metric(
            "origin.resource_build.calls",
            per_op(l(Layer::ResourceBuild).calls),
            "calls/op",
        ),
        metric(
            "core.testbed_build.self_us",
            us(l(Layer::TestbedBuild).self_ns),
            "us/op",
        ),
        metric(
            "core.testbed_build.calls",
            per_op(l(Layer::TestbedBuild).calls),
            "calls/op",
        ),
        metric(
            "origin.serve.self_us",
            us(l(Layer::OriginServe).self_ns),
            "us/op",
        ),
        metric(
            "origin.serve.calls",
            per_op(l(Layer::OriginServe).calls),
            "calls/op",
        ),
        metric(
            "origin.serve.resp_bytes",
            per_op(l(Layer::OriginServe).bytes),
            "B/op",
        ),
        metric("cdn.edge.self_us", us(l(Layer::Edge).self_ns), "us/op"),
        metric("cdn.fcdn.self_us", us(l(Layer::Fcdn).self_ns), "us/op"),
        metric("cdn.bcdn.self_us", us(l(Layer::Bcdn).self_ns), "us/op"),
        metric("cdn.limits.us", us(l(Layer::Limits).incl_ns), "us/op"),
        metric(
            "cdn.limits.calls",
            per_op(l(Layer::Limits).calls),
            "calls/op",
        ),
        metric(
            "cdn.upstream.fetches_per_op",
            per_op(l(Layer::OriginServe).calls + l(Layer::Bcdn).calls),
            "fetches/op",
        ),
        metric("cdn.xcache.hit", xcache(0), "frac"),
        metric("cdn.xcache.miss", xcache(1), "frac"),
        metric("cdn.xcache.stale", xcache(2), "frac"),
        metric("cdn.xcache.bypass", xcache(3), "frac"),
        metric(
            "defense.decide.us",
            us(l(Layer::DefenseDecide).incl_ns),
            "us/op",
        ),
        metric(
            "defense.observe.us",
            us(l(Layer::DefenseObserve).incl_ns),
            "us/op",
        ),
        metric("defense.calls", per_op(decisions), "calls/op"),
        metric("defense.tracked_clients", tracked_clients as f64, "count"),
        metric("defense.action.allow", action(A::Allow), "frac"),
        metric("defense.action.deflate", action(A::Deflate), "frac"),
        metric("defense.action.throttle", action(A::Throttle), "frac"),
        metric("defense.action.block", action(A::Block), "frac"),
        metric(
            "core.conformance.check_us.pipeline",
            us(l(Layer::CheckPipeline).incl_ns),
            "us/op",
        ),
        metric(
            "core.conformance.check_us.wire",
            us(l(Layer::CheckWire).incl_ns),
            "us/op",
        ),
        metric(
            "core.conformance.check_us.monotonicity",
            us(l(Layer::CheckMonotonicity).incl_ns),
            "us/op",
        ),
        metric(
            "http.range_parse.us",
            us(l(Layer::RangeParse).incl_ns),
            "us/op",
        ),
        metric(
            "http.wire_roundtrip.us",
            us(l(Layer::WireRoundtrip).incl_ns),
            "us/op",
        ),
        metric("net.client_bytes_per_op", per_op(pass.client_bytes), "B/op"),
        metric("net.victim_bytes_per_op", per_op(pass.victim_bytes), "B/op"),
        metric("net.attack_amp", attack_amp(pass), "ratio"),
        metric("trace.op_us", traced_op / 1e3, "us/op"),
        metric(
            "trace.unattributed_frac",
            share(op.self_ns, op.incl_ns),
            "frac",
        ),
        metric("trace.overhead_frac", traced_op / untraced_op - 1.0, "frac"),
    ];
    Outcome {
        correct: untraced.wrong == 0 && pass.wrong == 0,
        attempted: (untraced.ops + pass.ops).max(1),
        failed: untraced.failed + pass.failed,
        metrics,
    }
}
