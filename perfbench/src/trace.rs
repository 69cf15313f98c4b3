//! The traced run's span recorder.
//!
//! The benchmark opens a span around every public call it makes into a
//! layer. Each span records its name, layer, start, end, parent and the
//! id of the operation (batch, round, refresh) it belongs to. Spans are
//! kept in a bounded in-memory ring and written out when the run ends.
//! Self time (a span's duration minus the time its child spans cover) is
//! summed per layer as spans close, so it stays exact even after the
//! ring has dropped old spans.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::time::Instant;

/// The repository's layers, by module name, plus `bench` for the
/// benchmark's own code (the pass root and its bookkeeping).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark itself: the pass root span's self time.
    Bench,
    /// `geom`: calipers and polygon kernels.
    Geom,
    /// `summaries`: the adaptive hull, `builder`, `summary`.
    Summaries,
    /// `recovery` (with `parallel` underneath): supervised sharded ingest.
    Recovery,
    /// `window`: sliding-window bucket chains.
    Window,
    /// `snapshot`: the envelope codec.
    Snapshot,
    /// `tenant`: the byte-budgeted fleet governor.
    Tenant,
    /// `serving`: the cached query engine.
    Serving,
    /// `telemetry`: registry scrapes.
    Telemetry,
}

impl Layer {
    /// Every layer, in reporting order.
    pub const ALL: [Layer; 9] = [
        Layer::Bench,
        Layer::Geom,
        Layer::Summaries,
        Layer::Recovery,
        Layer::Window,
        Layer::Snapshot,
        Layer::Tenant,
        Layer::Serving,
        Layer::Telemetry,
    ];

    /// The module name used in metric names and the span file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Geom => "geom",
            Layer::Summaries => "summaries",
            Layer::Recovery => "recovery",
            Layer::Window => "window",
            Layer::Snapshot => "snapshot",
            Layer::Tenant => "tenant",
            Layer::Serving => "serving",
            Layer::Telemetry => "telemetry",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One closed span.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// Span id (1-based, in opening order).
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    /// The operation (batch, round, replay) the span belongs to.
    pub op: u64,
    /// Layer the called function belongs to.
    pub layer: Layer,
    /// The public function called.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
}

struct Open {
    id: u64,
    parent: u64,
    layer: Layer,
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
}

/// Span recorder. A disabled tracer records nothing and costs one branch
/// per call.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    ring: VecDeque<SpanRec>,
    cap: usize,
    dropped: u64,
    stack: Vec<Open>,
    self_ns: [u64; Layer::ALL.len()],
    next_id: u64,
    /// Current operation id, set by the workload loop.
    pub op: u64,
}

impl Tracer {
    /// A tracer keeping the newest `cap` spans; `on == false` makes every
    /// call a no-op.
    pub fn new(on: bool, cap: usize) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            ring: VecDeque::with_capacity(if on { cap.min(1 << 16) } else { 0 }),
            cap,
            dropped: 0,
            stack: Vec::new(),
            self_ns: [0; Layer::ALL.len()],
            next_id: 1,
            op: 0,
        }
    }

    /// `true` when spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`exit`](Tracer::exit).
    pub fn enter(&mut self, layer: Layer, name: &'static str) {
        if !self.on {
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().map_or(0, |o| o.id);
        let start_ns = self.now_ns();
        self.stack.push(Open {
            id,
            parent,
            layer,
            name,
            start_ns,
            child_ns: 0,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let Some(open) = self.stack.pop() else { return };
        let dur = end_ns.saturating_sub(open.start_ns);
        self.self_ns[open.layer.index()] += dur.saturating_sub(open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if self.ring.len() == self.cap {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(SpanRec {
            id: open.id,
            parent: open.parent,
            op: self.op,
            layer: open.layer,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
        });
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, layer: Layer, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(layer, name);
        let r = f();
        self.exit();
        r
    }

    /// Self time summed over every closed span of `layer`.
    pub fn self_ns(&self, layer: Layer) -> u64 {
        self.self_ns[layer.index()]
    }

    /// The surviving spans as JSON: one object per span, plus the count
    /// the ring dropped.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"dropped\": {}, \"spans\": [", self.dropped);
        for (i, s) in self.ring.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n{{\"id\": {}, \"parent\": {}, \"op\": {}, \"layer\": \"{}\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                if i == 0 { "" } else { "," },
                s.id,
                s.parent,
                s.op,
                s.layer.name(),
                s.name,
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_ring_is_bounded() {
        let mut t = Tracer::new(true, 2);
        t.enter(Layer::Bench, "pass");
        t.span(Layer::Tenant, "ingest_bulk", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span(Layer::Serving, "width", || ());
        t.exit();
        let total = t.ring.back().map(|s| s.end_ns - s.start_ns).unwrap();
        let sum: u64 = Layer::ALL.iter().map(|&l| t.self_ns(l)).sum();
        assert_eq!(sum, total, "self times partition the root span");
        assert!(t.self_ns(Layer::Tenant) >= 2_000_000);
        assert_eq!(t.ring.len(), 2);
        assert_eq!(t.dropped, 1);
        assert_eq!(t.ring.back().unwrap().parent, 0);
        assert_eq!(t.ring.front().unwrap().parent, 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, 8);
        assert_eq!(t.span(Layer::Geom, "width", || 3), 3);
        assert!(t.ring.is_empty());
        assert_eq!(t.self_ns(Layer::Geom), 0);
    }
}
