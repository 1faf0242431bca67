//! In-memory spans recorded around the benchmark's calls into each
//! layer, and the self times computed from them.
//!
//! A span's layer is its name up to the first `.` (`solver.mg_solve`
//! belongs to `solver`). Spans stay in memory during the run and are
//! written out once at the end.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: Option<u64>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. A disabled tracer times calls but records nothing.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span over `[start, end]`; returns its id (`None` when
    /// disabled).
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let mut spans = self.spans.lock().expect("span list poisoned");
        spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        });
        Some(spans.len() - 1)
    }

    /// Opens a span whose end is set by [`Tracer::close`]; children may
    /// name it as their parent meanwhile.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        let now = Instant::now();
        self.record(name, now, now, parent, None)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end = self.ns(Instant::now());
            self.spans.lock().expect("span list poisoned")[id].end_ns = end;
        }
    }

    /// Runs `f`, records it as a span and returns its result and wall
    /// time. Timing happens whether or not the tracer is enabled.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, start, end, parent, None);
        (out, end - start)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span, ns: its duration minus the part of its
/// interval that its children cover (children may overlap each other,
/// e.g. when they ran on different threads).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.duration_ns() - covered(kids, s.start_ns, s.end_ns))
        .collect()
}

/// The layer a span belongs to: its name up to the first `.`.
pub fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Summed self time per layer, seconds.
pub fn layer_self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(layer(s.name)).or_insert(0.0) += t as f64 * 1e-9;
    }
    out
}

/// Renders spans (with their self times) as a JSON array.
pub fn to_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .zip(self_times(spans))
        .enumerate()
        .map(|(id, (s, self_ns))| {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            format!(
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"parent\":{},\"request\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.request)
            )
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("bench.root", 0, 100, None),
            span("solver.solve", 10, 60, Some(0)),
            span("thermal.assemble", 20, 30, Some(1)),
            span("thermal.assemble", 70, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
        let layers = layer_self_seconds(&spans);
        assert!((layers["bench"] - 30e-9).abs() < 1e-18);
        assert!((layers["solver"] - 40e-9).abs() < 1e-18);
        assert!((layers["thermal"] - 30e-9).abs() < 1e-18);
        let total: f64 = layers.values().sum();
        assert!(
            (total - 100e-9).abs() < 1e-18,
            "self times partition the root"
        );
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("serve.request", 0, 100, None),
            span("wire.encode", 10, 50, Some(0)),
            span("wire.decode", 40, 80, Some(0)),
            span("wire.decode", 90, 130, Some(0)),
        ];
        // Children cover [10, 80) and [90, 100) of the parent.
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let t = Tracer::new(false);
        let (v, d) = t.time("bench.x", None, || 7);
        assert_eq!(v, 7);
        assert!(d >= Duration::ZERO);
        assert!(t.open("bench.y", None).is_none());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn open_close_brackets_children() {
        let t = Tracer::new(true);
        let root = t.open("bench.root", None);
        let (_, _) = t.time("solver.solve", root, || std::hint::black_box(1 + 1));
        t.close(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(to_json(&spans).contains("\"name\":\"solver.solve\""));
    }
}
