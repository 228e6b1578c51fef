//! Probes that observe the executor and wire layers from outside: an
//! [`Execute`] wrapper that counts and times parallel regions, and a
//! [`Transport`] wrapper that counts frames and bytes.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use aj_mpc::{Execute, Frame, FrameKind, NetExecutor, Transport};

/// Region counters shared between a [`RegionProbe`] and the benchmark.
/// The counters are statistics that publish no other data, so every
/// access is `Relaxed`.
#[derive(Debug, Default)]
pub struct RegionCounters {
    pub enabled: AtomicBool,
    pub regions: AtomicU64,
    pub nanos: AtomicU64,
}

impl RegionCounters {
    /// `(regions, nanoseconds inside them)` since the last call.
    pub fn take(&self) -> (u64, u64) {
        (
            self.regions.swap(0, Ordering::Relaxed),
            self.nanos.swap(0, Ordering::Relaxed),
        )
    }
}

/// Wraps an executor and, while enabled, counts every `run`/`run_at`
/// region and the wall time spent inside it.
#[derive(Debug)]
pub struct RegionProbe<E> {
    inner: E,
    counters: Arc<RegionCounters>,
}

impl<E: Execute> RegionProbe<E> {
    pub fn new(inner: E, counters: Arc<RegionCounters>) -> Self {
        RegionProbe { inner, counters }
    }

    fn timed(&self, region: impl FnOnce()) {
        if !self.counters.enabled.load(Ordering::Relaxed) {
            return region();
        }
        let t0 = Instant::now();
        region();
        let ns = t0.elapsed().as_nanos() as u64;
        self.counters.regions.fetch_add(1, Ordering::Relaxed);
        self.counters.nanos.fetch_add(ns, Ordering::Relaxed);
    }
}

impl<E: Execute> Execute for RegionProbe<E> {
    fn run(&self, n: usize, task: &(dyn Fn(usize) + Sync)) {
        self.timed(|| self.inner.run(n, task));
    }

    fn run_at(
        &self,
        n: usize,
        abs: &(dyn Fn(usize) -> usize + Sync),
        task: &(dyn Fn(usize) + Sync),
    ) {
        self.timed(|| self.inner.run_at(n, abs, task));
    }

    fn is_parallel(&self) -> bool {
        self.inner.is_parallel()
    }

    fn as_net(&self) -> Option<&NetExecutor> {
        self.inner.as_net()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Frame counters of a [`FrameProbe`] (statistics only: `Relaxed`).
#[derive(Debug, Default)]
pub struct FrameCounters {
    /// Frames sent.
    pub frames: AtomicU64,
    /// Data frames whose payload holds no item or row.
    pub empty: AtomicU64,
    /// Bytes of length prefix and header.
    pub header_bytes: AtomicU64,
    /// Bytes of body.
    pub body_bytes: AtomicU64,
}

/// Wraps a transport and counts every frame it is asked to send.
pub struct FrameProbe<T> {
    inner: T,
    counters: Arc<FrameCounters>,
}

impl<T: Transport> FrameProbe<T> {
    pub fn new(inner: T, counters: Arc<FrameCounters>) -> Self {
        FrameProbe { inner, counters }
    }
}

impl<T: Transport> Transport for FrameProbe<T> {
    fn endpoints(&self) -> usize {
        self.inner.endpoints()
    }

    fn send(&self, from: usize, to: usize, frame: Frame) {
        let c = &self.counters;
        // The frame's own byte count, less its body words: the length
        // prefix and the fixed header.
        let body = 8 * frame.body.len() as u64;
        let header = frame.wire_bytes() - body;
        // A `Vec` body opens with its length; a block body with its arity
        // and row count.
        let empty = match frame.kind {
            FrameKind::Items => frame.body.first() == Some(&0),
            FrameKind::Rows => frame.body.get(1) == Some(&0),
            FrameKind::Ack => false,
        };
        c.frames.fetch_add(1, Ordering::Relaxed);
        c.empty.fetch_add(u64::from(empty), Ordering::Relaxed);
        c.header_bytes.fetch_add(header, Ordering::Relaxed);
        c.body_bytes.fetch_add(body, Ordering::Relaxed);
        self.inner.send(from, to, frame);
    }

    fn recv(&self, at: usize) -> Frame {
        self.inner.recv(at)
    }

    fn try_recv(&self, at: usize) -> Option<Frame> {
        self.inner.try_recv(at)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}
