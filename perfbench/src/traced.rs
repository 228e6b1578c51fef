//! The traced run (`--trace 1`): per-layer metrics.
//!
//! It runs one warm-up pass on each engine traced op by op (the *count
//! pass*, the source of every count metric), one pass on a network-backend
//! engine behind a counting transport, re-runs every priced planner arm,
//! and then alternates an untraced and a traced pass on each engine in
//! turn, half the measured time each (the source of every time metric).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use aj_core::dist::distribute_db;
use aj_core::engine::QueryEngine;
use aj_core::planner::{execute_plan_dist, MaintenanceChoice::Recompute, Plan};
use aj_mpc::{Cluster, EpochStats};
use aj_obs::{Event, ObsConfig, Trace};

use crate::harness::{pass, Bench, OpDigest, Outcome, Reference, Samples};
use crate::layers::{Phases, RoundCounts};
use crate::probe::{FrameCounters, RegionCounters};
use crate::stats::{mean, ratio};
use crate::workload::{digest_dist, Inputs, P};
use crate::{bench, count_lines, Exec, Report};

/// Enable wall-clock tracing; returns the trace clock's origin on the
/// benchmark's clock.
fn start_trace(engine: &mut QueryEngine) -> Instant {
    let a = Instant::now();
    engine.enable_tracing(ObsConfig {
        capacity: 1 << 16,
        wall_clock: true,
    });
    let b = Instant::now();
    a + (b - a) / 2
}

/// One traced op: what it returned, how long it took, and its own trace
/// with the op's start on the trace clock.
struct TracedOp {
    t: Duration,
    res: Result<Outcome, String>,
    trace: Trace,
    start_us: f64,
}

fn traced_step(bench: &mut Bench) -> TracedOp {
    let origin = start_trace(&mut bench.engine);
    let (t, res) = bench.step();
    let trace = bench.engine.take_trace().expect("tracing was enabled");
    TracedOp {
        t: t.wall,
        res,
        trace,
        start_us: t.start.duration_since(origin).as_secs_f64() * 1e6,
    }
}

/// What the count pass keeps of a `run` op.
struct QueryCount {
    plan: Plan,
    planning: EpochStats,
    execution: EpochStats,
    alternatives: Vec<(Plan, f64)>,
}

/// What the count pass keeps of an `apply_update` op.
struct UpdateCount {
    recomputed: bool,
    batch: EpochStats,
    maintain_estimate: f64,
}

/// Counts of one traced pass.
#[derive(Default)]
struct PassCounts {
    ops: u64,
    rounds: RoundCounts,
    events: Vec<Vec<Event>>,
    dropped: u64,
    queries: Vec<QueryCount>,
    updates: Vec<UpdateCount>,
}

fn count_pass(bench: &mut Bench, reference: &mut Reference) -> PassCounts {
    let mut c = PassCounts::default();
    for _ in 0..bench.pass_len() {
        let op = traced_step(bench);
        reference.settle(bench, &op.res);
        c.ops += 1;
        c.rounds.add(&RoundCounts::of(&op.trace));
        c.events.push(op.trace.logical_events());
        let (dl, dp) = op.trace.dropped();
        c.dropped += dl + dp;
        match op.res {
            Ok(Outcome::Query(o)) => c.queries.push(QueryCount {
                plan: o.plan,
                planning: o.planning,
                execution: o.execution,
                alternatives: o.alternatives,
            }),
            Ok(Outcome::Update(u)) => c.updates.push(UpdateCount {
                recomputed: u.strategy == Recompute,
                batch: u.maintenance,
                maintain_estimate: u.maintain_estimate,
            }),
            Err(_) => {}
        }
    }
    c
}

/// Sums over the timed passes of one engine.
#[derive(Default)]
struct TimedLayers {
    phases: Phases,
    traced_ops: u64,
    traced_s: f64,
    untraced_s: f64,
    dropped: u64,
    regions: u64,
    region_ns: u64,
    /// Timed ops, traced and untraced, and those of them that failed.
    ops: u64,
    failed: u64,
}

/// One untraced pass, then one traced pass with the region probe, if
/// any, enabled.
fn traced_round(
    bench: &mut Bench,
    reference: &mut Reference,
    regions: Option<&RegionCounters>,
    l: &mut TimedLayers,
) {
    let mut plain = Samples::default();
    pass(bench, reference, &mut plain);
    l.untraced_s += plain.busy_s();
    l.ops += plain.ops.len() as u64;
    l.failed += plain.failed;
    if let Some(r) = regions {
        r.take();
        r.enabled.store(true, Ordering::Relaxed);
    }
    for _ in 0..bench.pass_len() {
        let op = traced_step(bench);
        if !reference.settle(bench, &op.res) {
            l.failed += 1;
        }
        let us = op.t.as_secs_f64() * 1e6;
        if op.res.is_ok() {
            l.phases
                .add(&Phases::of(&op.trace, op.start_us, op.start_us + us));
        }
        l.ops += 1;
        l.traced_ops += 1;
        l.traced_s += us / 1e6;
        let (dl, dp) = op.trace.dropped();
        l.dropped += dl + dp;
    }
    if let Some(r) = regions {
        r.enabled.store(false, Ordering::Relaxed);
        let (n, ns) = r.take();
        l.regions += n;
        l.region_ns += ns;
    }
}

/// Frame counts of one pass on the network backend.
struct WireCounts {
    frames: u64,
    empty: u64,
    header_bytes: u64,
    body_bytes: u64,
    /// Load units the pass's ops moved.
    units: u64,
}

fn wire_pass(inputs: &Inputs, reference: &mut Reference) -> WireCounts {
    let frames = Arc::new(FrameCounters::default());
    let mut net = bench(inputs, &Exec::Net(frames.clone()));
    // Only the ops count, not the views' registration.
    let counters = [
        &frames.frames,
        &frames.empty,
        &frames.header_bytes,
        &frames.body_bytes,
    ];
    for c in counters {
        c.store(0, Ordering::Relaxed);
    }
    let mut units = 0;
    for _ in 0..net.pass_len() {
        let (_, res) = net.step();
        if let Ok(o) = &res {
            units += OpDigest::of(o)
                .epochs
                .iter()
                .map(|e| e.total_messages)
                .sum::<u64>();
        }
        reference.settle(&net, &res);
    }
    reference.check_views("net", &net);
    let f = |c: &AtomicU64| c.load(Ordering::Relaxed);
    WireCounts {
        frames: f(&frames.frames),
        empty: f(&frames.empty),
        header_bytes: f(&frames.header_bytes),
        body_bytes: f(&frames.body_bytes),
        units,
    }
}

/// The traced run. Returns the count lines that must repeat.
pub fn traced(
    inputs: &Inputs,
    reference: &mut Reference,
    budget: Duration,
    report: &mut Report,
) -> String {
    let probe = Arc::new(RegionCounters::default());
    let mut seq = bench(inputs, &Exec::Seq);
    let sc = count_pass(&mut seq, reference);
    let cache_hit_ratio = ratio(seq.engine.cache_hits(), seq.engine.served());
    let mut par = bench(inputs, &Exec::ParProbe(probe.clone()));
    probe.enabled.store(true, Ordering::Relaxed);
    let pc = count_pass(&mut par, reference);
    probe.enabled.store(false, Ordering::Relaxed);
    let (pass_regions, _) = probe.take();
    if sc.events != pc.events {
        reference.fail("seq and par traces differ".into());
    }
    let wire = wire_pass(inputs, reference);
    let regret = regret(inputs, &sc, reference);

    // Timed passes on the warmed engines, half the time each.
    let (mut sl, mut pl) = (TimedLayers::default(), TimedLayers::default());
    let start = Instant::now();
    while sl.traced_ops == 0 || start.elapsed() < budget / 2 {
        traced_round(&mut seq, reference, None, &mut sl);
    }
    let start = Instant::now();
    while pl.traced_ops == 0 || start.elapsed() < budget / 2 {
        traced_round(&mut par, reference, Some(&probe), &mut pl);
    }
    let late = reference.catch_up(&mut seq);
    reference.check_views("seq", &seq);
    reference.check_views("par", &par);
    report.attempted = sl.ops + pl.ops;
    report.failed = sl.failed + pl.failed + late;
    // Every pass of a stateless workload dispatches the same regions (a
    // view's later cycles may rebuild it, so `maintain` is not compared).
    let passes = pl.traced_ops / pc.ops;
    if matches!(inputs, Inputs::Queries(_)) && pl.regions != pass_regions * passes {
        reference.fail(format!(
            "par dispatched {} regions over {passes} passes, {pass_regions} per count pass",
            pl.regions
        ));
    }

    count_metrics(report, &sc, cache_hit_ratio, pass_regions, &regret, &wire);
    let dropped = sc.dropped + pc.dropped + sl.dropped + pl.dropped;
    report.count("obs.events_dropped", dropped as f64, "count");
    time_metrics(report, &sl, &pl);

    let mut lines = vec![count_lines(reference, &seq)];
    lines.extend(report.counts.iter().cloned());
    lines.join("\n")
}

fn total(epochs: &[&EpochStats], f: fn(&EpochStats) -> u64) -> f64 {
    epochs.iter().map(|e| f(e)).sum::<u64>() as f64
}

/// The count metrics of the engine, planner, algo, cluster, executor,
/// delta and wire layers, per op of the count pass.
fn count_metrics(
    report: &mut Report,
    sc: &PassCounts,
    cache_hit_ratio: f64,
    regions: u64,
    regret: &Regret,
    wire: &WireCounts,
) {
    let ops = sc.ops as f64;
    let planning: Vec<&EpochStats> = sc.queries.iter().map(|q| &q.planning).collect();
    let batches: Vec<&EpochStats> = sc.updates.iter().map(|u| &u.batch).collect();
    let exec: Vec<&EpochStats> = sc
        .queries
        .iter()
        .map(|q| &q.execution)
        .chain(batches.iter().copied())
        .collect();
    report.count("engine.cache_hit_ratio", cache_hit_ratio, "ratio");

    let plan_rounds = total(&planning, |e| e.exchanges) / ops;
    report.count("planner.rounds_per_op", plan_rounds, "count");
    let plan_units = total(&planning, |e| e.total_messages) / ops;
    report.count("planner.units_per_op", plan_units, "count");
    report.count("planner.regret_max", regret.max, "ratio");
    report.count("planner.regret_mean", regret.mean, "ratio");
    report.count("planner.ghd_share", regret.ghd_share, "ratio");

    let exec_rounds = total(&exec, |e| e.exchanges) / ops;
    report.count("algo.rounds_per_op", exec_rounds, "count");
    let exec_units = total(&exec, |e| e.total_messages) / ops;
    report.count("algo.units_per_op", exec_units, "count");
    let max_load = exec.iter().map(|e| e.max_load).max().unwrap_or(0);
    report.count("algo.max_load", max_load as f64, "units");

    let r = &sc.rounds;
    report.count("cluster.rounds_items", r.rounds_items as f64 / ops, "count");
    report.count("cluster.rounds_rows", r.rounds_rows as f64 / ops, "count");
    report.count("cluster.units_items", r.units_items as f64 / ops, "count");
    report.count("cluster.units_rows", r.units_rows as f64 / ops, "count");
    let control = ratio(r.control_rounds, r.rounds);
    report.count("cluster.control_round_share", control, "ratio");
    report.count("executor.regions_per_op", regions as f64 / ops, "count");

    let n_batches = batches.len().max(1) as f64;
    let batch_rounds = total(&batches, |e| e.exchanges) / n_batches;
    report.count("delta.rounds_per_batch", batch_rounds, "count");
    let batch_units = total(&batches, |e| e.total_messages) / n_batches;
    report.count("delta.units_per_batch", batch_units, "count");
    let recomputes = sc.updates.iter().filter(|u| u.recomputed).count();
    report.count("delta.recomputes", recomputes as f64, "count");
    let cost_ratios: Vec<f64> = sc
        .updates
        .iter()
        .filter(|u| !u.recomputed)
        .map(|u| u.batch.max_load as f64 / u.maintain_estimate)
        .collect();
    report.count("delta.cost_ratio", mean(&cost_ratios), "ratio");

    let bytes = wire.header_bytes + wire.body_bytes;
    report.count("wire.frames_per_op", wire.frames as f64 / ops, "count");
    let empty = ratio(wire.empty, wire.frames);
    report.count("wire.empty_frame_share", empty, "ratio");
    let header = wire.header_bytes as f64 / ops;
    report.count("wire.header_bytes_per_op", header, "bytes");
    report.count(
        "wire.body_bytes_per_op",
        wire.body_bytes as f64 / ops,
        "bytes",
    );
    report.count("wire.bytes_per_unit", ratio(bytes, wire.units), "bytes");
}

/// The wall-clock metrics, per op of the traced passes, per engine.
fn time_metrics(report: &mut Report, sl: &TimedLayers, pl: &TimedLayers) {
    for (label, l) in [("seq", sl), ("par", pl)] {
        let p = &l.phases;
        let mut put_ms = |name: &str, us: f64| {
            let per_op = us / l.traced_ops as f64 / 1e3;
            report.put(&format!("{label}.{name}"), per_op, "ms");
        };
        put_ms("engine.plan_ms", p.plan);
        put_ms("engine.exec_ms", p.exec);
        put_ms("engine.other_ms", p.other);
        put_ms("engine.unattributed_ms", p.unattributed);
        put_ms("algo.round_ms", p.rounds_span);
        put_ms("algo.tail_ms", p.tail);
        let control = p.control_time / p.round_time.max(f64::MIN_POSITIVE);
        report.put(
            &format!("{label}.cluster.control_ms_share"),
            control,
            "ratio",
        );
        let per_round = p.round_time / p.rounds.max(1) as f64;
        report.put(&format!("{label}.cluster.us_per_round"), per_round, "us");
        let overhead = l.traced_s / l.untraced_s;
        report.put(&format!("{label}.obs.trace_overhead"), overhead, "ratio");
    }
    let per_region = pl.region_ns as f64 / 1e3 / pl.regions.max(1) as f64;
    report.put("par.executor.us_per_region", per_region, "us");
    let share = pl.region_ns as f64 / 1e9 / pl.traced_s;
    report.put("par.executor.region_share", share, "ratio");
}

struct Regret {
    max: f64,
    mean: f64,
    ghd_share: f64,
}

/// Re-run every priced arm of every query on a fresh sequential cluster
/// with the engine's placement and one fixed seed, check each arm's output
/// against the reference, and compare the chosen arm's load with the best
/// arm's.
fn regret(inputs: &Inputs, counts: &PassCounts, reference: &mut Reference) -> Regret {
    let Inputs::Queries(cases) = inputs else {
        return Regret {
            max: 0.0,
            mean: 0.0,
            ghd_share: 0.0,
        };
    };
    let mut regrets = Vec::new();
    let (mut cyclic, mut ghd) = (0u64, 0u64);
    for (k, (case, q)) in cases.iter().zip(&counts.queries).enumerate() {
        if !case.query.is_acyclic() {
            cyclic += 1;
            ghd += u64::from(q.plan == Plan::Ghd);
        }
        if q.alternatives.len() < 2 {
            continue;
        }
        let mut loads = Vec::new();
        for &(arm, _) in &q.alternatives {
            let mut cluster = Cluster::new(P);
            let mut seed = 0x5eed;
            let dist = distribute_db(&case.db, P);
            let out = execute_plan_dist(&mut cluster.net(), arm, &case.query, dist, &mut seed);
            if digest_dist(&out) != reference.log[k].out {
                reference.fail(format!(
                    "op {k}: arm {arm} output differs from the reference"
                ));
            }
            loads.push((arm, cluster.stats().max_load));
        }
        let best = loads.iter().map(|x| x.1).min().expect("two arms");
        let mine = loads
            .iter()
            .find(|x| x.0 == q.plan)
            .expect("chosen arm is priced");
        regrets.push((mine.1 as f64 / best.max(1) as f64, k));
    }
    if let Some((r, k)) = regrets.iter().copied().max_by(|a, b| a.0.total_cmp(&b.0)) {
        println!("worst regret {r:.3} on op {k} ({})", cases[k].label);
    }
    let regrets: Vec<f64> = regrets.iter().map(|x| x.0).collect();
    Regret {
        max: regrets.iter().copied().fold(0.0, f64::max),
        mean: mean(&regrets),
        ghd_share: ratio(ghd, cyclic),
    }
}
