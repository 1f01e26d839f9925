//! Per-op tape profiling.
//!
//! A [`TapeProfiler`] is plain mutable state owned by whoever executes a
//! tape (the trainer — no sharing, no atomics), accumulating
//! forward/backward wall time per op kind. `wsccl-nn::Graph` drives it when
//! attached, and [`TapeProfiler::snapshot`] renders it as a [`TapeProfile`]
//! report.

use std::collections::HashMap;

/// Accumulated timings for one op kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpTiming {
    /// Forward executions (tape nodes pushed).
    pub count: u64,
    /// Total forward wall time, nanoseconds. Attributed at node-push time,
    /// so host-side glue between two pushes bills to the later op.
    pub forward_ns: u64,
    /// Total backward wall time, nanoseconds (only nodes that ran backward).
    pub backward_ns: u64,
}

/// Per-op-kind forward/backward time accumulator.
#[derive(Clone, Debug, Default)]
pub struct TapeProfiler {
    entries: HashMap<&'static str, OpTiming>,
}

impl TapeProfiler {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record_forward(&mut self, op: &'static str, ns: u64) {
        let e = self.entries.entry(op).or_default();
        e.count += 1;
        e.forward_ns += ns;
    }

    pub fn record_backward(&mut self, op: &'static str, ns: u64) {
        self.entries.entry(op).or_default().backward_ns += ns;
    }

    /// Fold another profiler into this one.
    pub fn merge(&mut self, other: &TapeProfiler) {
        for (op, t) in &other.entries {
            let e = self.entries.entry(op).or_default();
            e.count += t.count;
            e.forward_ns += t.forward_ns;
            e.backward_ns += t.backward_ns;
        }
    }

    pub fn clear(&mut self) {
        self.entries.clear();
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Render the accumulated timings, most expensive op first.
    pub fn snapshot(&self) -> TapeProfile {
        let mut ops: Vec<OpProfile> = self
            .entries
            .iter()
            .map(|(&op, &t)| OpProfile {
                op,
                count: t.count,
                forward_ns: t.forward_ns,
                backward_ns: t.backward_ns,
            })
            .collect();
        ops.sort_by(|a, b| {
            (b.forward_ns + b.backward_ns, a.op).cmp(&(a.forward_ns + a.backward_ns, b.op))
        });
        TapeProfile { ops }
    }
}

/// One row of a [`TapeProfile`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpProfile {
    pub op: &'static str,
    pub count: u64,
    pub forward_ns: u64,
    pub backward_ns: u64,
}

impl OpProfile {
    pub fn total_ms(&self) -> f64 {
        (self.forward_ns + self.backward_ns) as f64 / 1e6
    }
}

/// Sorted per-op breakdown (heaviest first).
#[derive(Clone, Debug, Default)]
pub struct TapeProfile {
    pub ops: Vec<OpProfile>,
}

impl TapeProfile {
    pub fn total_forward_ns(&self) -> u64 {
        self.ops.iter().map(|o| o.forward_ns).sum()
    }

    pub fn total_backward_ns(&self) -> u64 {
        self.ops.iter().map(|o| o.backward_ns).sum()
    }

    pub fn get(&self, op: &str) -> Option<&OpProfile> {
        self.ops.iter().find(|o| o.op == op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_merge_and_sort() {
        let mut a = TapeProfiler::new();
        a.record_forward("MatMul", 100);
        a.record_forward("MatMul", 50);
        a.record_backward("MatMul", 200);
        a.record_forward("Add", 10);

        let mut b = TapeProfiler::new();
        b.record_forward("Add", 5);
        b.record_backward("Tanh", 1000);
        a.merge(&b);

        let p = a.snapshot();
        assert_eq!(p.ops[0].op, "Tanh");
        let mm = p.get("MatMul").unwrap();
        assert_eq!((mm.count, mm.forward_ns, mm.backward_ns), (2, 150, 200));
        assert_eq!(p.get("Add").unwrap().count, 2);
        assert_eq!(p.total_forward_ns(), 165);
        assert_eq!(p.total_backward_ns(), 1200);
    }

    #[test]
    fn clear_empties_the_profiler() {
        let mut p = TapeProfiler::new();
        p.record_forward("Add", 1);
        assert!(!p.is_empty());
        p.clear();
        assert!(p.is_empty());
        assert!(p.snapshot().ops.is_empty());
    }
}
