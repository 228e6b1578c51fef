//! `perfbench`: the end-to-end and per-layer benchmark of the acyclic-joins
//! `QueryEngine`.
//!
//! ```text
//! perfbench --workload serve|bulk|maintain --seed N --seconds S --trace 0|1
//! ```
//!
//! One client thread drives a closed loop of ops through the public engine
//! API (`run`, `register_view`, `apply_update`) in whole passes, on a
//! `SeqExecutor` cluster for `2S/3` seconds and then on a `ParExecutor`
//! cluster for `S/3` (p = 8 servers each). Every op's output and per-op
//! stats epochs are checked against a reference that the RAM oracle (run
//! in a child process, so its memory stays out of `peak_rss_mb`) has
//! checked. The gated sequential times are the calling thread's CPU time,
//! normalised by a calibration kernel timed alongside (see `calib`). With
//! `--trace 1` the
//! same ops run traced, and the run reports per-layer metrics instead
//! (see `traced`). The last line of standard output is one JSON object
//! with the result; see README.md for every metric.

mod calib;
mod harness;
mod layers;
mod probe;
mod stats;
mod traced;
mod workload;

use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::{Duration, Instant};

use aj_core::engine::{EngineConfig, QueryEngine};
use aj_mpc::{ChanTransport, Cluster, ParExecutor};

use harness::{pass, Bench, Clock, OpDigest, Reference, Samples, Timing};
use probe::{FrameCounters, FrameProbe, RegionCounters, RegionProbe};
use stats::{median, quantile};
use workload::{Digest, Inputs, P};

/// Sequential set-ups per untraced run, spread over the timed loop;
/// `setup_s` is their normalised median.
const SETUPS: usize = 9;

/// Metrics the untraced run reports in its JSON line (see BENCHMARK.json).
const END_TO_END: [&str; 4] = [
    "setup_s",
    "seq.norm_gm_p50_ms",
    "seq.norm_ops_per_s",
    "peak_rss_mb",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// The work of a child process (see [`run_child`]), if this is one.
    child: Option<Child>,
}

/// What a child process of the benchmark does: run the RAM oracle, or
/// measure the sequential engine's peak memory. Each runs in a process of
/// its own so that neither the oracle's memory nor the parallel engine's
/// per-thread allocator arenas reach `peak_rss_mb`.
#[derive(Clone, Copy)]
enum Child {
    Oracle,
    Memory,
}

impl Child {
    fn name(self) -> &'static str {
        match self {
            Child::Oracle => "oracle",
            Child::Memory => "memory",
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut child) =
        (None, None, None, false, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--child" => {
                child = match value.as_str() {
                    "oracle" => Some(Child::Oracle),
                    "memory" => Some(Child::Memory),
                    _ => return Err(bad()),
                }
            }
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workload::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds = match (seconds, child) {
        (Some(s), _) if s > 0.0 => s,
        (None, Some(_)) => 0.0,
        _ => return Err("--seconds must be a positive number".into()),
    };
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        child,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload serve|bulk|maintain --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let inputs = workload::generate(&args.workload, args.seed);
    match args.child {
        Some(Child::Oracle) => {
            for line in workload::oracle_lines(&inputs) {
                println!("{line}");
            }
            return ExitCode::SUCCESS;
        }
        Some(Child::Memory) => {
            let mut seq = bench(&inputs, &Exec::Seq);
            for _ in 0..2 * seq.pass_len() {
                if let (_, Err(e)) = seq.step() {
                    eprintln!("perfbench: op panicked: {e}");
                    return ExitCode::FAILURE;
                }
            }
            println!("{}", peak_rss_mb());
            return ExitCode::SUCCESS;
        }
        None => {}
    }
    let oracle = run_child(&args, Child::Oracle).and_then(|out| {
        out.lines()
            .map(|line| line.split(' ').map(Digest::parse).collect())
            .collect()
    });
    let oracle = match oracle {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: oracle failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut reference = Reference::new(&inputs, oracle);
    let mut report = Report::default();
    let budget = Duration::from_secs_f64(args.seconds);
    let counts = if args.trace {
        traced::traced(&inputs, &mut reference, budget, &mut report)
    } else {
        let counts = untraced(&inputs, &mut reference, budget, &mut report);
        let peak = run_child(&args, Child::Memory)
            .and_then(|out| out.trim().parse().map_err(|_| format!("bad peak {out:?}")));
        match peak {
            Ok(mb) => report.put("peak_rss_mb", mb, "MB"),
            Err(e) => {
                eprintln!("perfbench: memory child failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        counts
    };
    report.print(&args, &reference);
    if let Err(e) = check_repeat(&args, &counts) {
        eprintln!("perfbench: COUNTS DIFFER from an earlier run of this build and seed: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Run this program as a child process of the given kind on the same
/// workload and seed, and return its standard output.
fn run_child(args: &Args, child: Child) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--child", child.name(), "--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("{} child exited with {}", child.name(), out.status));
    }
    String::from_utf8(out.stdout).map_err(|e| e.to_string())
}

/// Which cluster an engine runs on.
enum Exec {
    Seq,
    Par,
    ParProbe(Arc<RegionCounters>),
    Net(Arc<FrameCounters>),
}

/// A bench over a fresh engine; the sequential engine is the reference.
fn bench<'a>(inputs: &'a Inputs, exec: &Exec) -> Bench<'a> {
    let cluster = match exec {
        Exec::Seq => return Bench::new(inputs, QueryEngine::new(P), true),
        Exec::Par => return Bench::new(inputs, QueryEngine::new_parallel(P), false),
        Exec::ParProbe(c) => {
            Cluster::with_executor(P, Box::new(RegionProbe::new(ParExecutor::new(), c.clone())))
        }
        Exec::Net(c) => Cluster::new_net_with_transport(
            P,
            Arc::new(FrameProbe::new(ChanTransport::new(P), c.clone())),
        ),
    };
    let engine = QueryEngine::with_cluster(cluster, EngineConfig::default());
    Bench::new(inputs, engine, false)
}

/// Whole passes on the sequential engine for two thirds of `budget`, each
/// preceded by a calibration-kernel measurement and followed by one more
/// timed set-up of a fresh sequential engine until `setups` holds
/// [`SETUPS`]; then whole passes on the parallel engine for the last third
/// (at least one pass each). The gated metrics are all sequential, so they
/// get the larger share: on `bulk` a pass takes half a second and the
/// set-ups take a third of the sequential share. Alternating the engines
/// pass by pass lets the parallel engine's pool disturb the sequential
/// timings: their spread over seeds doubled.
fn timed_loop(
    seq: &mut Bench,
    par: &mut Bench,
    reference: &mut Reference,
    budget: Duration,
    setups: &mut Vec<SetUp>,
) -> (Samples, Samples) {
    let seq_share = budget * 2 / 3;
    let mut s = Samples::default();
    let start = Instant::now();
    while s.passes.is_empty() || start.elapsed() < seq_share {
        s.kernel_ms.push(calib::measure().as_secs_f64() * 1e3);
        pass(seq, reference, &mut s);
        if setups.len() < SETUPS {
            setups.push(set_up(seq.inputs, &Exec::Seq, reference).0);
        }
    }
    let mut p = Samples::default();
    let start = Instant::now();
    while p.passes.is_empty() || start.elapsed() < budget - seq_share {
        pass(par, reference, &mut p);
    }
    (s, p)
}

/// Measure the calibration kernel, then set up one engine: construction,
/// view registration and the warm-up pass, timing only the program's
/// calls.
fn set_up<'a>(inputs: &'a Inputs, exec: &Exec, reference: &mut Reference) -> (SetUp, Bench<'a>) {
    let kernel_s = calib::measure().as_secs_f64();
    let (t, mut bench) = Timing::of(|| bench(inputs, exec));
    let mut warm = Samples::default();
    pass(&mut bench, reference, &mut warm);
    let time = SetUp {
        wall_s: t.wall.as_secs_f64() + warm.busy_s(),
        cpu_s: t.cpu.as_secs_f64() + warm.cpu_passes[0] / 1e3,
        kernel_s,
    };
    (time, bench)
}

/// Seconds one set-up took, and the calibration kernel's CPU seconds
/// measured just before it.
struct SetUp {
    wall_s: f64,
    cpu_s: f64,
    kernel_s: f64,
}

/// The end-to-end run: returns the count lines that must repeat.
fn untraced(
    inputs: &Inputs,
    reference: &mut Reference,
    budget: Duration,
    report: &mut Report,
) -> String {
    let (first, mut seq) = set_up(inputs, &Exec::Seq, reference);
    let (par_setup, mut par) = set_up(inputs, &Exec::Par, reference);
    let mut setups = vec![first];
    let (s, p) = timed_loop(&mut seq, &mut par, reference, budget, &mut setups);
    let mut setup_norm: Vec<f64> = setups
        .iter()
        .map(|x| calib::normalise(x.cpu_s, x.kernel_s * 1e3))
        .collect();
    let mut setup_wall: Vec<f64> = setups.iter().map(|x| x.wall_s).collect();
    let late = reference.catch_up(&mut seq);
    reference.check_views("seq", &seq);
    reference.check_views("par", &par);
    report.attempted = (s.ops.len() + p.ops.len()) as u64;
    report.failed = s.failed + p.failed + late;

    // Normalised times (see `calib`): the sequential engine runs every op
    // on the calling thread, so its thread CPU time is the op's whole work.
    report.put("setup_s", median(&mut setup_norm), "s");
    let pass_len = seq.pass_len();
    let norm_gm = s.gm_p50(pass_len, Clock::Norm);
    report.put("seq.norm_gm_p50_ms", norm_gm, "ms");
    let norm_pass_ms = median(&mut s.norm_passes());
    report.put(
        "seq.norm_ops_per_s",
        pass_len as f64 / (norm_pass_ms / 1e3),
        "1/s",
    );
    // Raw times, for reading.
    report.put("seq.kernel_ms", median(&mut s.kernel_ms.clone()), "ms");
    report.put("seq.setup_wall_s", median(&mut setup_wall), "s");
    report.put("par.setup_wall_s", par_setup.wall_s, "s");
    for (label, samples) in [("seq", &s), ("par", &p)] {
        let gm = samples.gm_p50(pass_len, Clock::Wall);
        report.put(&format!("{label}.latency_gm_p50_ms"), gm, "ms");
        let mut passes = samples.passes.clone();
        let ops_per_s = pass_len as f64 / (median(&mut passes) / 1e3);
        report.put(&format!("{label}.ops_per_s"), ops_per_s, "1/s");
        let mut ms: Vec<f64> = samples.ops.iter().map(|x| x.1).collect();
        ms.sort_by(f64::total_cmp);
        let n = ms.len();
        report.note(
            &format!("{label}.latency_p50_ms"),
            quantile(&ms, 0.5),
            "ms",
            n,
        );
        if n >= 1000 {
            report.note(
                &format!("{label}.latency_p99_ms"),
                quantile(&ms, 0.99),
                "ms",
                n,
            );
        } else {
            println!("{label}.latency_p99_ms = n/a (n={n}: a p99 needs 1000 samples)");
        }
        if samples.out_tuples > 0 {
            let rate = samples.out_tuples as f64 / samples.busy_s();
            report.note(&format!("{label}.out_tuples_per_s"), rate, "1/s", n);
        }
        if !seq.views.is_empty() {
            report.note(
                &format!("{label}.recomputes"),
                samples.recomputes as f64,
                "count",
                n,
            );
        }
    }
    count_lines(reference, &seq)
}

/// The count lines of a run: every op of the first pass and every view's
/// plan.
fn count_lines(reference: &Reference, seq: &Bench) -> String {
    let first_pass = reference.log.iter().take(seq.pass_len());
    let mut lines: Vec<String> = first_pass.map(OpDigest::render).collect();
    if let Inputs::Views(cases) = seq.inputs {
        for (case, &v) in cases.iter().zip(&seq.views) {
            let line = format!("view {} plan {}", case.label, seq.engine.view(v).plan());
            println!("{line}");
            lines.push(line);
        }
    }
    lines.join("\n")
}

/// Metrics in report order, plus the op counts.
#[derive(Default)]
struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// `name value` of every count metric: they must repeat exactly.
    counts: Vec<String>,
    /// Timed ops, and those of them that failed.
    attempted: u64,
    failed: u64,
}

impl Report {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        println!("{name} = {value:.6} {unit}");
        self.metrics.push((name.to_string(), value, unit));
    }

    /// A count metric: reported, and part of the lines that must repeat.
    fn count(&mut self, name: &str, value: f64, unit: &'static str) {
        self.put(name, value, unit);
        self.counts.push(format!("{name} {value}"));
    }

    /// A metric printed for reading but not part of the JSON result.
    fn note(&self, name: &str, value: f64, unit: &str, n: usize) {
        println!("{name} = {value:.6} {unit} (n={n})");
    }

    /// Print `error_rate` and the JSON result line. `correct` also
    /// covers failures outside the timed ops (set-up, oracle, views,
    /// planner arms, traces).
    fn print(&self, args: &Args, reference: &Reference) {
        let failed = self.failed;
        println!(
            "error_rate = {:.6} ratio ({failed} failed of {} attempted)",
            failed as f64 / self.attempted.max(1) as f64,
            self.attempted
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .filter(|(name, _, _)| args.trace || END_TO_END.contains(&name.as_str()))
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            reference.failures == 0,
            self.attempted.max(1),
            metrics.join(", ")
        );
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Compare this run's counts with the first run of the same build,
/// workload, seed and mode, stored next to the executable.
fn check_repeat(args: &Args, counts: &str) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let meta = std::fs::metadata(&exe).map_err(|e| e.to_string())?;
    let built = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos());
    let dir = exe
        .parent()
        .ok_or("executable has no directory")?
        .join("perfbench-counts");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let file = dir.join(format!(
        "{}-{}-{}-{}-{built}.txt",
        args.workload,
        args.seed,
        u8::from(args.trace),
        meta.len()
    ));
    match std::fs::read_to_string(&file) {
        Ok(earlier) if earlier == counts => Ok(()),
        Ok(earlier) => {
            let first = earlier
                .lines()
                .zip(counts.lines())
                .find(|(a, b)| a != b)
                .map_or("(lengths differ)".to_string(), |(a, b)| {
                    format!("{a:?} vs {b:?}")
                });
            Err(format!("{}: first difference {first}", file.display()))
        }
        Err(_) => std::fs::write(&file, counts).map_err(|e| e.to_string()),
    }
}
