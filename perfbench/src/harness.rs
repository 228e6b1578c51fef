//! Drives one engine through a workload's ops through the public
//! `QueryEngine` API, timing only the calls, and checks every outcome.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use aj_core::engine::{QueryEngine, QueryOutcome};
use aj_core::planner::MaintenanceChoice::Recompute;
use aj_core::{UpdateOutcome, ViewId};
use aj_mpc::EpochStats;

use crate::calib;
use crate::stats::{mean, median, thread_cpu};
use crate::workload::{digest_dist, digest_snapshot, Digest, Inputs};

/// What one op returned.
pub enum Outcome {
    Query(QueryOutcome),
    Update(UpdateOutcome),
}

/// The checked part of an outcome: the output digest (the view's output
/// size for updates), the plan or maintenance strategy, and the per-op
/// stats epochs. Everything here is a count and must repeat exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct OpDigest {
    pub out: Digest,
    pub choice: String,
    pub epochs: Vec<EpochStats>,
}

impl OpDigest {
    pub fn of(outcome: &Outcome) -> OpDigest {
        match outcome {
            Outcome::Query(o) => OpDigest {
                out: digest_dist(&o.output),
                choice: o.plan.to_string(),
                epochs: vec![o.planning.clone(), o.execution.clone()],
            },
            Outcome::Update(u) => OpDigest {
                out: Digest {
                    len: u.out_size,
                    sum: 0,
                },
                choice: u.strategy.to_string(),
                epochs: vec![u.maintenance.clone()],
            },
        }
    }

    pub fn render(&self) -> String {
        let epochs: Vec<String> = self
            .epochs
            .iter()
            .map(|e| format!("{}/{}/{}", e.exchanges, e.max_load, e.total_messages))
            .collect();
        format!("{} {} {}", self.out.render(), self.choice, epochs.join(","))
    }
}

/// One engine and its position in the workload's op sequence.
pub struct Bench<'a> {
    pub inputs: &'a Inputs,
    pub engine: QueryEngine,
    pub views: Vec<ViewId>,
    /// Global index of the next op.
    pub next: usize,
    /// Whether this engine's results form the [`Reference`] (the
    /// sequential engine's do).
    pub is_reference: bool,
}

impl<'a> Bench<'a> {
    /// Wrap an engine; on `maintain`, register every view first.
    pub fn new(inputs: &'a Inputs, mut engine: QueryEngine, is_reference: bool) -> Self {
        let views = match inputs {
            Inputs::Queries(_) => Vec::new(),
            Inputs::Views(vs) => vs
                .iter()
                .map(|v| engine.register_view(&v.query, &v.db))
                .collect(),
        };
        Bench {
            inputs,
            engine,
            views,
            next: 0,
            is_reference,
        }
    }

    /// Ops in one pass: every query once, or one full update cycle of
    /// every view (after which every view is back at its initial state).
    pub fn pass_len(&self) -> usize {
        match self.inputs {
            Inputs::Queries(cases) => cases.len(),
            Inputs::Views(vs) => vs.len() * vs[0].cycle_len(),
        }
    }

    /// Run op `self.next`, timing only the engine call: returns its
    /// [`Timing`] and what it returned (a caught panic is an error).
    pub fn step(&mut self) -> (Timing, Result<Outcome, String>) {
        let k = self.next;
        self.next += 1;
        let engine = &mut self.engine;
        let (timing, res) = match self.inputs {
            Inputs::Queries(cases) => {
                let c = &cases[k % cases.len()];
                let r =
                    Timing::of(|| catch_unwind(AssertUnwindSafe(|| engine.run(&c.query, &c.db))));
                (r.0, r.1.map(Outcome::Query))
            }
            Inputs::Views(vs) => {
                let v = k % vs.len();
                let batch = vs[v].batch((k / vs.len()) % vs[v].cycle_len());
                let id = self.views[v];
                let r = Timing::of(|| {
                    catch_unwind(AssertUnwindSafe(|| engine.apply_update(id, batch)))
                });
                (r.0, r.1.map(Outcome::Update))
            }
        };
        (timing, res.map_err(panic_message))
    }

    /// Digest of every view's current snapshot with the oracle state index
    /// it must match.
    pub fn view_states(&self) -> Vec<(usize, Digest)> {
        let Inputs::Views(vs) = self.inputs else {
            return Vec::new();
        };
        vs.iter()
            .enumerate()
            .map(|(v, case)| {
                // Ops this view absorbed.
                let m = self.next / vs.len() + usize::from(v < self.next % vs.len());
                let snap = self.engine.view(self.views[v]).snapshot();
                (case.applied(m), digest_snapshot(&snap))
            })
            .collect()
    }
}

/// When an op started and how long it took: in wall-clock time, and in
/// CPU time of the calling thread. On the sequential engine the whole op
/// runs on the calling thread, so its CPU time is the op's work without
/// the time it waited for a CPU on a shared host.
#[derive(Clone, Copy)]
pub struct Timing {
    pub start: Instant,
    pub wall: Duration,
    pub cpu: Duration,
}

impl Timing {
    pub fn of<R>(f: impl FnOnce() -> R) -> (Timing, R) {
        let cpu0 = thread_cpu();
        let start = Instant::now();
        let r = f();
        let wall = start.elapsed();
        let cpu = thread_cpu().saturating_sub(cpu0);
        (Timing { start, wall, cpu }, r)
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}

/// The expected digest of every op, and the failures seen so far.
///
/// On `serve` and `bulk` ops are stateless, so op `k` must repeat op
/// `k mod pass` of the reference engine's first pass, whose outputs are
/// checked against the oracle. On `maintain` the reference is the
/// sequential engine's own log by global op index, each entry's output size
/// checked against the oracle's for the view state it leaves. An op that
/// repeats a reference entry the oracle rejected fails too.
pub struct Reference {
    periodic: bool,
    /// Oracle digests: per query, or per view and state.
    oracle: Vec<Vec<Digest>>,
    /// Reference digests by slot (see [`Reference::slot`]).
    pub log: Vec<OpDigest>,
    /// Whether each logged entry passed the oracle.
    valid: Vec<bool>,
    /// Ops of other engines that ran ahead of the log (on `maintain`,
    /// where the reference engine extends its log as it goes).
    ahead: Vec<(usize, Result<OpDigest, String>)>,
    /// Every failure: an op, a view snapshot, a planner arm, a trace.
    pub failures: u64,
}

/// Failure messages printed before the rest are only counted.
const SHOWN_FAILURES: u64 = 10;

impl Reference {
    pub fn new(inputs: &Inputs, oracle: Vec<Vec<Digest>>) -> Self {
        Reference {
            periodic: matches!(inputs, Inputs::Queries(_)),
            oracle,
            log: Vec::new(),
            valid: Vec::new(),
            ahead: Vec::new(),
            failures: 0,
        }
    }

    fn slot(&self, k: usize) -> usize {
        if self.periodic {
            k % self.oracle.len()
        } else {
            k
        }
    }

    /// Whether the log already holds the reference for op `k`.
    fn covers(&self, k: usize) -> bool {
        self.slot(k) < self.log.len()
    }

    /// Check (or, on the reference engine, record) the result of the op
    /// `bench` just ran; `false` if it failed. An op the log does not cover
    /// yet is deferred to [`Reference::catch_up`].
    pub fn settle(&mut self, bench: &Bench, res: &Result<Outcome, String>) -> bool {
        let k = bench.next - 1;
        let digest = res.as_ref().map(OpDigest::of).map_err(Clone::clone);
        if bench.is_reference {
            self.record(bench.inputs, k, digest)
        } else if self.covers(k) {
            self.check(k, digest)
        } else {
            self.ahead.push((k, digest));
            true
        }
    }

    /// Run the reference engine on, untimed, until the log covers every
    /// deferred op, then check them; returns how many failed.
    pub fn catch_up(&mut self, seq: &mut Bench) -> u64 {
        let mut failed = 0;
        for (k, digest) in std::mem::take(&mut self.ahead) {
            while !self.covers(k) {
                let (_, res) = seq.step();
                self.settle(seq, &res);
            }
            failed += u64::from(!self.check(k, digest));
        }
        failed
    }

    /// Record op `k` of the reference engine: check it against the log if
    /// the log covers it, else check it against the oracle and append it.
    fn record(&mut self, inputs: &Inputs, k: usize, got: Result<OpDigest, String>) -> bool {
        if self.covers(k) {
            return self.check(k, got);
        }
        assert_eq!(
            self.slot(k),
            self.log.len(),
            "reference ops arrive in order"
        );
        let (got, ok) = match got {
            Ok(d) => {
                let ok = match inputs {
                    Inputs::Queries(_) => d.out == self.oracle[self.slot(k)][0],
                    Inputs::Views(vs) => {
                        // Op `k` is view `v`'s op number `k / len`.
                        let v = k % vs.len();
                        let state = vs[v].applied(k / vs.len() + 1);
                        d.out.len == self.oracle[v][state].len
                    }
                };
                (d, ok)
            }
            Err(msg) => {
                self.fail(format!("reference op {k} panicked: {msg}"));
                let none = OpDigest {
                    out: Digest::default(),
                    choice: "panicked".into(),
                    epochs: Vec::new(),
                };
                (none, false)
            }
        };
        self.log.push(got);
        self.valid.push(ok);
        ok || self.fail(format!("op {k}: output differs from the RAM oracle"))
    }

    /// Check op `k` of any other engine against the log, which must cover
    /// it.
    fn check(&mut self, k: usize, got: Result<OpDigest, String>) -> bool {
        let slot = self.slot(k);
        let want = &self.log[slot];
        match got {
            Err(msg) => self.fail(format!("op {k} panicked: {msg}")),
            Ok(d) if &d != want => {
                let msg = format!("op {k}: got {} want {}", d.render(), want.render());
                self.fail(msg)
            }
            Ok(_) if !self.valid[slot] => {
                self.fail(format!("op {k}: repeats an output the RAM oracle rejected"))
            }
            Ok(_) => true,
        }
    }

    /// Check a bench's view snapshots against the oracle.
    pub fn check_views(&mut self, label: &str, bench: &Bench) {
        for (v, (state, got)) in bench.view_states().into_iter().enumerate() {
            if got != self.oracle[v][state] {
                self.fail(format!(
                    "{label}: view {v} snapshot differs from the RAM oracle"
                ));
            }
        }
    }

    /// Count a failure (printing the first few); always `false`.
    pub fn fail(&mut self, msg: String) -> bool {
        self.failures += 1;
        if self.failures <= SHOWN_FAILURES {
            eprintln!("perfbench: MISMATCH {msg}");
        }
        false
    }
}

/// Latencies, output tuples and view rebuilds of a set of timed ops.
#[derive(Default)]
pub struct Samples {
    /// `(slot, wall ms, CPU ms)` of every op; op `k`'s slot is
    /// `k mod pass_len`.
    pub ops: Vec<(usize, f64, f64)>,
    /// Summed wall-clock op time of every whole pass, in ms.
    pub passes: Vec<f64>,
    /// Summed CPU op time of every whole pass, in ms.
    pub cpu_passes: Vec<f64>,
    /// CPU time of the calibration kernel measured just before each pass,
    /// in ms, where the caller measured it (the sequential timed loop).
    pub kernel_ms: Vec<f64>,
    pub out_tuples: u64,
    pub recomputes: u64,
    pub failed: u64,
}

impl Samples {
    pub fn push(&mut self, slot: usize, t: Timing, res: &Result<Outcome, String>) {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        self.ops.push((slot, ms(t.wall), ms(t.cpu)));
        match res {
            Ok(Outcome::Query(o)) => self.out_tuples += o.output.total_len() as u64,
            Ok(Outcome::Update(u)) => self.recomputes += u64::from(u.strategy == Recompute),
            Err(_) => {}
        }
    }

    /// Normalised ms of every whole pass (see `calib`).
    pub fn norm_passes(&self) -> Vec<f64> {
        let kernels = self.kernel_ms.iter();
        let pairs = self.cpu_passes.iter().zip(kernels);
        pairs.map(|(&c, &k)| calib::normalise(c, k)).collect()
    }

    pub fn busy_s(&self) -> f64 {
        self.passes.iter().sum::<f64>() / 1e3
    }

    /// Geometric mean over slots of each slot's median time on `clock`.
    pub fn gm_p50(&self, slots: usize, clock: Clock) -> f64 {
        let mut by_slot = vec![Vec::new(); slots];
        for (i, &(slot, wall, cpu)) in self.ops.iter().enumerate() {
            by_slot[slot].push(match clock {
                Clock::Wall => wall,
                Clock::Norm => calib::normalise(cpu, self.kernel_ms[i / slots]),
            });
        }
        let logs: Vec<f64> = by_slot
            .iter_mut()
            .filter(|v| !v.is_empty())
            .map(|v| median(v).ln())
            .collect();
        mean(&logs).exp()
    }
}

/// What an op's time is read on.
#[derive(Clone, Copy)]
pub enum Clock {
    /// Wall-clock ms.
    Wall,
    /// Normalised ms (see `calib`): CPU ms of the calling thread scaled
    /// by the calibration kernel measured just before the op's pass.
    Norm,
}

/// One checked pass, timing each op.
pub fn pass(bench: &mut Bench, reference: &mut Reference, samples: &mut Samples) {
    let n = bench.pass_len();
    let (mut wall, mut cpu) = (Duration::ZERO, Duration::ZERO);
    for _ in 0..n {
        let (t, res) = bench.step();
        wall += t.wall;
        cpu += t.cpu;
        samples.push((bench.next - 1) % n, t, &res);
        if !reference.settle(bench, &res) {
            samples.failed += 1;
        }
    }
    samples.passes.push(wall.as_secs_f64() * 1e3);
    samples.cpu_passes.push(cpu.as_secs_f64() * 1e3);
}
