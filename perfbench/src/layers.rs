//! Per-op breakdown of one traced engine call, read from the wall-clock
//! stamps `aj_obs` records at every epoch boundary and exchange barrier.

use aj_obs::{Event, RoundKind, Trace};

/// A round that moves at most this many units cluster-wide is a control
/// round.
pub const CONTROL_UNITS: u64 = 64;

/// Counts read from one op's trace. They are pure functions of the op and
/// must repeat exactly on every backend and run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RoundCounts {
    pub rounds_items: u64,
    pub rounds_rows: u64,
    pub units_items: u64,
    pub units_rows: u64,
    pub control_rounds: u64,
    pub rounds: u64,
}

impl RoundCounts {
    pub fn of(trace: &Trace) -> RoundCounts {
        let mut c = RoundCounts::default();
        for e in trace.logical_events() {
            if let Event::Exchange { kind, counts, .. } = e {
                let units: u64 = counts.iter().sum();
                c.rounds += 1;
                c.control_rounds += u64::from(units <= CONTROL_UNITS);
                match kind {
                    RoundKind::Items => {
                        c.rounds_items += 1;
                        c.units_items += units;
                    }
                    RoundKind::Rows => {
                        c.rounds_rows += 1;
                        c.units_rows += units;
                    }
                    RoundKind::Fence => {}
                }
            }
        }
        c
    }

    pub fn add(&mut self, o: &RoundCounts) {
        self.rounds_items += o.rounds_items;
        self.rounds_rows += o.rounds_rows;
        self.units_items += o.units_items;
        self.units_rows += o.units_rows;
        self.control_rounds += o.control_rounds;
        self.rounds += o.rounds;
    }
}

/// Wall-clock phases of one op, in microseconds. `plan + exec + other +
/// unattributed` is the op's measured time.
#[derive(Debug, Default, Clone, Copy)]
pub struct Phases {
    /// The planning epoch (`run` only): the counting pass and pricing.
    pub plan: f64,
    /// The execution epoch (`run`) or the batch epoch (`apply_update`).
    pub exec: f64,
    /// From the op's start to its first epoch boundary: signature, plan
    /// cache, placement, and on updates the maintain-vs-recompute pricing.
    pub other: f64,
    /// From the op's last stamp to its return: no event covers it.
    pub unattributed: f64,
    /// Execution epoch between its first and last exchange stamps.
    pub rounds_span: f64,
    /// Execution epoch before its first and after its last exchange stamp.
    pub tail: f64,
    /// Every exchange stamp's gap to the stamp before it, summed.
    pub round_time: f64,
    /// The same, over control rounds only.
    pub control_time: f64,
    pub rounds: u64,
}

impl Phases {
    /// Cut one op at its stamps. `start` and `end` are the op's bounds on
    /// the trace clock. A `run` op closes three epoch boundaries (open,
    /// planning closed, execution closed) and an `apply_update` op two; the
    /// last epoch is the execution (or batch) epoch and any before it count
    /// as planning.
    pub fn of(trace: &Trace, start: f64, end: f64) -> Phases {
        let stamped: Vec<(f64, &Event)> = trace
            .entries()
            .into_iter()
            .filter_map(|e| e.ts_us.map(|ts| (ts as f64, &e.event)))
            .collect();
        let bounds: Vec<usize> = stamped
            .iter()
            .enumerate()
            .filter(|(_, (_, e))| matches!(e, Event::EpochBoundary { .. }))
            .map(|(i, _)| i)
            .collect();
        assert!(
            bounds.len() >= 2,
            "an op closes at least two epoch boundaries, saw {}",
            bounds.len()
        );
        let ts = |i: usize| stamped[i].0;
        let (first, last) = (bounds[0], bounds[bounds.len() - 1]);
        let exec_open = bounds[bounds.len() - 2];
        let mut p = Phases {
            plan: ts(exec_open) - ts(first),
            exec: ts(last) - ts(exec_open),
            other: ts(first) - start,
            unattributed: end - ts(last),
            ..Phases::default()
        };
        let mut exec_rounds = Vec::new();
        for i in first + 1..=last {
            if let (t, Event::Exchange { counts, .. }) = stamped[i] {
                let gap = t - stamped[i - 1].0;
                p.rounds += 1;
                p.round_time += gap;
                if counts.iter().sum::<u64>() <= CONTROL_UNITS {
                    p.control_time += gap;
                }
                if i > exec_open {
                    exec_rounds.push(t);
                }
            }
        }
        p.rounds_span = match (exec_rounds.first(), exec_rounds.last()) {
            (Some(a), Some(b)) => b - a,
            _ => 0.0,
        };
        p.tail = p.exec - p.rounds_span;
        p
    }

    pub fn add(&mut self, o: &Phases) {
        self.plan += o.plan;
        self.exec += o.exec;
        self.other += o.other;
        self.unattributed += o.unattributed;
        self.rounds_span += o.rounds_span;
        self.tail += o.tail;
        self.round_time += o.round_time;
        self.control_time += o.control_time;
        self.rounds += o.rounds;
    }
}
