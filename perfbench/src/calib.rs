//! The calibration kernel: a fixed piece of join-like work (hash
//! partitioning, hash-table build and probe, allocation and sorting of
//! `u64` pairs) that the benchmark times next to the engine's ops.
//!
//! The kernel is the benchmark's own code and does not change with the
//! program, so its CPU time tracks only the host's speed. On a shared host
//! that speed changes by up to a half within seconds to minutes, in-core
//! (the thread's CPU time moves with its wall time), and no statistic over
//! one run removes it. Dividing an op's CPU time by the kernel's, measured
//! in the same stretch of time, removes most of it: see [`normalise`].
//! Small cache-resident ops (`serve`, `maintain`) slow down about as much
//! as the kernel does; the large joins of `bulk` slow down less, so there
//! normalising over-corrects a little, though it still halves the spread.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::hint::black_box;
use std::time::Duration;

use crate::stats::{median, thread_cpu};

/// Tuples a side.
const N: u64 = 12_000;
/// Partitions, as on a p = 8 cluster.
const PARTS: usize = 8;

/// Multiplicative hasher, the shape of the engine's own `FxHash`.
#[derive(Default)]
struct MulHasher(u64);

impl Hasher for MulHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

type Map<V> = HashMap<u64, V, BuildHasherDefault<MulHasher>>;

fn mix(x: u64) -> u64 {
    let z = x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (z ^ (z >> 29)).wrapping_mul(0xbf58_476d_1ce4_e5b9)
}

/// One run of the kernel: a partitioned hash join of two fixed relations
/// of [`N`] pairs each (fanout 4), its output sorted; returns a checksum.
fn kernel() -> u64 {
    let keys = N / 4;
    let left: Vec<(u64, u64)> = (0..N).map(|i| (mix(i) % keys, i)).collect();
    let right: Vec<(u64, u64)> = (0..N).map(|i| (mix(i + N) % keys, i)).collect();
    let mut parts = vec![(Vec::new(), Vec::new()); PARTS];
    for &(k, v) in &left {
        parts[(mix(k) % PARTS as u64) as usize].0.push((k, v));
    }
    for &(k, v) in &right {
        parts[(mix(k) % PARTS as u64) as usize].1.push((k, v));
    }
    let mut sum = 0u64;
    for (l, r) in &parts {
        let mut table: Map<Vec<u64>> = Map::default();
        for &(k, v) in l {
            table.entry(k).or_default().push(v);
        }
        let mut out = Vec::new();
        for &(k, w) in r {
            if let Some(vs) = table.get(&k) {
                out.extend(vs.iter().map(|&v| (v, w)));
            }
        }
        out.sort_unstable();
        sum = out.iter().fold(sum, |s, &(v, w)| mix(s ^ v ^ (w << 32)));
    }
    sum
}

/// The kernel's checksum, computed once: every later run must repeat it.
fn expected() -> u64 {
    static SUM: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *SUM.get_or_init(kernel)
}

/// Runs of the kernel per measurement; the measurement is their median.
const RUNS: usize = 3;

/// CPU time of one kernel measurement on the calling thread.
pub fn measure() -> Duration {
    let want = expected();
    let mut cpu: Vec<f64> = (0..RUNS)
        .map(|_| {
            let t0 = thread_cpu();
            let sum = black_box(kernel());
            let t = thread_cpu().saturating_sub(t0);
            assert_eq!(sum, want, "calibration kernel checksum changed");
            t.as_secs_f64()
        })
        .collect();
    Duration::from_secs_f64(median(&mut cpu))
}

/// The kernel's CPU time, in ms, on the host that normalised times are
/// expressed on (about the build host's, when it was quiet).
pub const REFERENCE_MS: f64 = 2.5;

/// Express `cpu`, measured next to a kernel measurement of `kernel_ms`
/// milliseconds, on the reference host: `cpu × REFERENCE_MS / kernel_ms`,
/// in `cpu`'s unit.
pub fn normalise(cpu: f64, kernel_ms: f64) -> f64 {
    cpu * REFERENCE_MS / kernel_ms
}
