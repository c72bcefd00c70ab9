//! Self-time accounting over the spans of one traced pass.
//!
//! A span's self time is its duration minus the part of it that its child
//! spans cover, counted per thread: spans only nest inside spans of the
//! same thread. Every span is charged to one layer by name, so the layer
//! rows partition the traced total (the summed duration of each thread's
//! root spans) exactly, in integer nanoseconds.

use behaviot_obs::SpanRecord;

/// The layer rows, in report order. `unattributed` is last: it takes the
/// self time of the benchmark's root spans (time inside a measured pass
/// that no layer span covers) and of any span name not listed in
/// [`layer_of`].
pub const LAYERS: [&str; 12] = [
    "ingest",
    "assemble",
    "periodic",
    "dsp",
    "forest",
    "events",
    "pfsm",
    "monitor",
    "ledger",
    "store",
    "harness",
    "unattributed",
];

const UNATTRIBUTED: usize = LAYERS.len() - 1;

/// The layer row a span name is charged to.
///
/// The `bench.*` names are the benchmark's own spans around public calls;
/// the others are spans the program already records. `bench.train` wraps
/// `BehavIoT::train`: outside its `periodic.train` and `forest.fit`
/// children it prepares the user-action samples (`core::user_action`), so
/// it belongs to the forest row.
pub fn layer_of(name: &str) -> usize {
    let layer = match name {
        "bench.ingest" | "ingest.pcap" => "ingest",
        "bench.assemble" | "flows.assemble" => "assemble",
        "periodic.train" => "periodic",
        "dsp.period_detect" | "dsp.period_detect_batch" => "dsp",
        "bench.train" | "forest.fit" => "forest",
        "bench.events" | "events.infer" => "events",
        "bench.pfsm" | "system.pfsm" | "pfsm.infer" => "pfsm",
        "bench.monitor" | "monitor.window" => "monitor",
        "ledger.append" | "ledger.flush" => "ledger",
        "bench.store" | "store.save" | "store.load" => "store",
        "bench.label" | "bench.prepare" | "bench.changed" | "bench.check" => "harness",
        _ => return UNATTRIBUTED,
    };
    LAYERS
        .iter()
        .position(|&l| l == layer)
        .expect("every mapped layer is listed in LAYERS")
}

/// Self time per layer of one traced pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Accounting {
    /// Self nanoseconds per entry of [`LAYERS`].
    pub self_ns: [u64; LAYERS.len()],
    /// Summed duration of every thread's root spans.
    pub total_ns: u64,
}

impl Accounting {
    /// Charge every span's self time to its layer.
    pub fn of(spans: &[SpanRecord]) -> Self {
        let mut order: Vec<&SpanRecord> = spans.iter().collect();
        // Per thread, parents before the children they contain: by start,
        // and the longer span first when two start together.
        order.sort_by_key(|s| (s.tid, s.start_ns, std::cmp::Reverse(s.dur_ns)));
        let mut self_ns = [0u64; LAYERS.len()];
        let mut total_ns = 0u64;
        // Open ancestors of the current span, innermost last.
        let mut stack: Vec<Frame> = Vec::new();
        let mut tid = None;
        for s in order {
            let end = s.start_ns + s.dur_ns;
            if tid != Some(s.tid) {
                for f in stack.drain(..) {
                    self_ns[f.layer] += f.self_ns();
                }
                tid = Some(s.tid);
            }
            while let Some(f) = stack.pop_if(|f| f.end_ns < end) {
                self_ns[f.layer] += f.self_ns();
            }
            match stack.last_mut() {
                Some(parent) => parent.child_ns += s.dur_ns,
                None => total_ns += s.dur_ns,
            }
            stack.push(Frame {
                end_ns: end,
                dur_ns: s.dur_ns,
                child_ns: 0,
                layer: layer_of(s.name),
            });
        }
        for f in stack.drain(..) {
            self_ns[f.layer] += f.self_ns();
        }
        Self { self_ns, total_ns }
    }

    /// Self seconds of one layer row.
    pub fn self_s(&self, layer: &str) -> f64 {
        let i = LAYERS
            .iter()
            .position(|&l| l == layer)
            .expect("known layer name");
        self.self_ns[i] as f64 / 1e9
    }

    /// Do the layer rows, `unattributed` included, add up to the total?
    pub fn rows_sum_to_total(&self) -> bool {
        self.self_ns.iter().sum::<u64>() == self.total_ns
    }

    /// Share of the traced total no layer accounts for.
    pub fn unattributed_frac(&self) -> f64 {
        if self.total_ns == 0 {
            return 0.0;
        }
        self.self_ns[UNATTRIBUTED] as f64 / self.total_ns as f64
    }
}

/// An open span while its children are being charged.
struct Frame {
    end_ns: u64,
    dur_ns: u64,
    child_ns: u64,
    layer: usize,
}

impl Frame {
    /// Duration minus the children's. Children nest inside their parent
    /// on one thread, so they never cover more than its duration.
    fn self_ns(&self) -> u64 {
        self.dur_ns - self.child_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, tid: u64, start_ns: u64, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            name,
            tid,
            start_ns,
            dur_ns,
            fields: Vec::new(),
        }
    }

    #[test]
    fn children_are_subtracted_per_thread() {
        let spans = [
            // Thread 1: a root window holding ingest, and monitor with
            // events nested inside it.
            span("bench.window", 1, 0, 100),
            span("bench.ingest", 1, 0, 30),
            span("ingest.pcap", 1, 1, 28),
            span("bench.monitor", 1, 40, 50),
            span("events.infer", 1, 45, 20),
            span("ledger.append", 1, 70, 5),
            // Thread 2 overlaps thread 1 in time but nests only in itself.
            span("dsp.period_detect", 2, 10, 40),
            span("unknown.stage", 2, 60, 10),
        ];
        let acc = Accounting::of(&spans);
        let at = |l: &str| acc.self_ns[LAYERS.iter().position(|&x| x == l).unwrap()];
        assert_eq!(acc.total_ns, 150);
        assert_eq!(at("ingest"), 30);
        assert_eq!(at("monitor"), 25);
        assert_eq!(at("events"), 20);
        assert_eq!(at("ledger"), 5);
        assert_eq!(at("dsp"), 40);
        // Root self time (20) plus the unmapped span (10).
        assert_eq!(at("unattributed"), 30);
        assert!(acc.rows_sum_to_total());
        assert!((acc.unattributed_frac() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn siblings_and_equal_starts_nest_correctly() {
        let spans = [
            span("bench.pass", 1, 0, 50),
            span("bench.store", 1, 0, 50),
            span("store.save", 1, 0, 40),
            span("bench.check", 1, 50, 0),
            span("bench.pass", 1, 60, 10),
        ];
        let acc = Accounting::of(&spans);
        assert_eq!(acc.total_ns, 60);
        assert_eq!(acc.self_s("store"), 50e-9);
        assert_eq!(acc.self_s("unattributed"), 10e-9);
        assert!(acc.rows_sum_to_total());
    }
}
