//! Benchmark-side spans around every call into a layer.
//!
//! A span has a name, the layer (crate) it times, start and end, its parent
//! span and the op it belongs to. Spans are kept in memory and written out
//! when the run ends; a layer's self time is its spans' durations minus the
//! part covered by their child spans. When tracing is off every call is a
//! no-op, so the untraced run pays one branch per span.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::report::json_str;

/// Spans stored verbatim for the trace file; later spans still count
/// towards durations and self time.
const STORED_SPANS: usize = 20_000;

/// Op id of spans that belong to no op (set-up, direct compute).
pub const NO_OP: u64 = u64::MAX;

struct Span {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    layer: &'static str,
    op: u64,
    start_ns: u64,
    end_ns: u64,
}

struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    layer: &'static str,
    op: u64,
    start: Instant,
    child_ns: u64,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    next_id: u64,
    stack: Vec<Open>,
    spans: Vec<Span>,
    dropped: u64,
    self_ns: BTreeMap<&'static str, u64>,
    durations_us: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            t0: Instant::now(),
            next_id: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            dropped: 0,
            self_ns: BTreeMap::new(),
            durations_us: BTreeMap::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Pause or resume recording (the untraced share of a traced run).
    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggled with open spans");
        self.on = on;
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, layer: &'static str, op: u64) {
        if !self.on {
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().map(|o| o.id);
        self.stack.push(Open { id, parent, name, layer, op, start: Instant::now(), child_ns: 0 });
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let open = self.stack.pop().expect("end() without a matching begin()");
        self.close(open, Instant::now());
    }

    /// Record an already finished span as a child of the innermost open
    /// span (for intervals timed by a callback, such as training steps).
    pub fn record(
        &mut self,
        name: &'static str,
        layer: &'static str,
        op: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().map(|o| o.id);
        self.close(Open { id, parent, name, layer, op, start, child_ns: 0 }, end);
    }

    fn close(&mut self, open: Open, end: Instant) {
        let dur_ns = end.saturating_duration_since(open.start).as_nanos() as u64;
        *self.self_ns.entry(open.layer).or_default() += dur_ns.saturating_sub(open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur_ns;
        }
        self.durations_us.entry(open.name).or_default().push(dur_ns as f64 / 1e3);
        if self.spans.len() < STORED_SPANS {
            let start_ns = open.start.saturating_duration_since(self.t0).as_nanos() as u64;
            self.spans.push(Span {
                id: open.id,
                parent: open.parent,
                name: open.name,
                layer: open.layer,
                op: open.op,
                start_ns,
                end_ns: start_ns + dur_ns,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Durations (µs) of every closed span with this name, in close order.
    pub fn durations_us(&self, name: &str) -> &[f64] {
        self.durations_us.get(name).map_or(&[], Vec::as_slice)
    }

    /// Self time per layer, seconds.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        self.self_ns.iter().map(|(&l, &ns)| (l, ns as f64 / 1e9)).collect()
    }

    /// Trace file body: provenance, per-layer self time, and the stored
    /// spans.
    pub fn to_json(&self, provenance: &str) -> String {
        let mut s = format!("{{\"provenance\": {provenance}, \"self_s\": {{");
        for (i, (layer, secs)) in self.self_seconds().into_iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}{}: {secs:?}", json_str(layer));
        }
        let _ = write!(s, "}}, \"dropped_spans\": {}, \"spans\": [", self.dropped);
        for (i, sp) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let op = if sp.op == NO_OP { "null".to_string() } else { sp.op.to_string() };
            let _ = write!(
                s,
                "{sep}{{\"id\": {}, \"parent\": {parent}, \"name\": {}, \"layer\": {}, \
                 \"op\": {op}, \"start_ns\": {}, \"end_ns\": {}}}",
                sp.id,
                json_str(sp.name),
                json_str(sp.layer),
                sp.start_ns,
                sp.end_ns
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let t0 = Instant::now();
        t.begin("session", "bench", 0);
        t.record("call", "serve", 0, t0, t0 + Duration::from_millis(30));
        t.record("call", "serve", 0, t0, t0 + Duration::from_millis(20));
        std::thread::sleep(Duration::from_millis(60));
        t.end();
        let self_s = t.self_seconds();
        assert!((self_s["serve"] - 0.050).abs() < 1e-9);
        // The session lasted at least 60 ms, 50 ms of it inside children.
        assert!(self_s["bench"] >= 0.010 - 1e-9);
        assert_eq!(t.durations_us("call").len(), 2);
        let json = t.to_json("{}");
        assert!(json.contains("\"parent\": 0"), "children point at the session: {json}");
        assert!(json.contains("\"parent\": null"));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        t.begin("x", "core", NO_OP);
        t.end();
        assert!(t.self_seconds().is_empty());
        assert!(t.durations_us("x").is_empty());
    }
}
