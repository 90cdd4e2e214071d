//! Span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around each call it makes into a
//! layer of the program (the program itself is not instrumented). Each
//! span keeps its name, start, end, parent span and an operation id (a
//! request, job or sweep number). Spans live in memory until the run ends;
//! then they are written as Chrome trace-event JSON, which Perfetto and
//! `chrome://tracing` open, and summarised into per-name counts, total and
//! self time. A disabled tracer only runs the closure.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was made.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer is the part of the name before the first dot
    /// (`linalg.gemm` belongs to `linalg`).
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Per-name summary of the recorded spans.
#[derive(Clone, Debug, Default)]
pub struct SpanStats {
    pub count: usize,
    pub total_ms: f64,
    pub self_ms: f64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for operation `id`.
    pub fn span<T>(&self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let parent = self.stack.borrow().last().copied();
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                id,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(index);
        let out = f();
        self.stack.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[index].end_ns = end;
        out
    }

    pub fn span_count(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Durations in milliseconds of every span called `name`, in order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 * 1e-6)
            .collect()
    }

    /// Each span's self time: its duration minus the time its direct
    /// children cover.
    fn self_ns(spans: &[Span]) -> Vec<u64> {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Count, total and self time per span name.
    pub fn summary(&self) -> BTreeMap<&'static str, SpanStats> {
        let spans = self.spans.borrow();
        let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for (s, self_ns) in spans.iter().zip(Self::self_ns(&spans)) {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ms += s.dur_ns() as f64 * 1e-6;
            e.self_ms += self_ns as f64 * 1e-6;
        }
        out
    }

    /// Self time summed per layer, in milliseconds.
    pub fn layer_self_ms(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, self_ns) in spans.iter().zip(Self::self_ns(&spans)) {
            *out.entry(s.layer()).or_default() += self_ns as f64 * 1e-6;
        }
        out
    }

    /// The spans as a Chrome trace-event document (complete `X` events,
    /// microsecond timestamps, one process and thread).
    pub fn chrome_json(&self, workload: &str, seed: u64) -> String {
        let spans = self.spans.borrow();
        let mut out = String::with_capacity(64 + spans.len() * 160);
        out.push_str("{\"displayTimeUnit\":\"ms\",");
        out.push_str(&format!(
            "\"otherData\":{{\"workload\":\"{workload}\",\"seed\":{seed}}},"
        ));
        out.push_str("\"traceEvents\":[");
        out.push_str(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
             \"args\":{{\"name\":\"perfbench {workload}\"}}}}"
        ));
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            out.push_str(&format!(
                ",{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\
                 \"id\":{}}}}}",
                s.name,
                s.layer(),
                s.start_ns as f64 * 1e-3,
                s.dur_ns() as f64 * 1e-3,
                s.id
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// Cost of recording one span, in nanoseconds: the median over batches of
/// empty spans on a scratch tracer.
pub fn span_cost_ns() -> f64 {
    const BATCH: usize = 2000;
    let mut per_span = Vec::new();
    for _ in 0..9 {
        let t = Tracer::new(true);
        let start = Instant::now();
        for i in 0..BATCH {
            t.span("trace.empty", i as u64, || std::hint::black_box(i));
        }
        per_span.push(start.elapsed().as_nanos() as f64 / BATCH as f64);
    }
    crate::stats::median(&per_span)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true);
        t.span("outer.op", 1, || {
            t.span("inner.a", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            t.span("inner.b", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let s = t.summary();
        let outer = &s["outer.op"];
        assert!(outer.total_ms >= 10.0);
        assert!(outer.self_ms < outer.total_ms - 9.0);
        assert_eq!(s["inner.a"].count, 1);
        let json = t.chrome_json("w", 1);
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x.y", 0, || 7), 7);
        assert_eq!(t.span_count(), 0);
    }
}
