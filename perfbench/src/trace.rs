//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span records its name, start, end, parent span and op id. Spans are
//! kept in memory while the workload runs and written out (Chrome
//! trace-event JSON, which Perfetto opens) when the run ends. A span's
//! *self time* is its duration minus the part of its interval that its
//! children cover; per-layer times are medians of self times.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `"encoding.build"`.
    pub name: &'static str,
    /// The op (session, synthesis or request) the span belongs to.
    pub op: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, relative to the tracer's epoch.
    pub start: Duration,
    /// End, relative to the tracer's epoch.
    pub end: Duration,
}

/// The span store of one run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty store whose epoch is now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a finished interval and returns its id (for children).
    pub fn record(
        &mut self,
        name: &'static str,
        op: usize,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            op,
            parent,
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
        });
        self.spans.len() - 1
    }

    /// Opens a span that ends at [`close`](Self::close); children recorded
    /// in between can name it as their parent.
    pub fn open(&mut self, name: &'static str, op: usize, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, op, parent, now, now)
    }

    /// Ends a span opened with [`open`](Self::open).
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.epoch.elapsed();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: usize,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let value = f();
        self.record(name, op, parent, start, Instant::now());
        value
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the union of its
    /// children's intervals (clipped to the span).
    pub fn self_times(&self) -> Vec<Duration> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (id, span) in self.spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                children[parent].push(id);
            }
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(id, span)| {
                let mut covered: Vec<(Duration, Duration)> = children[id]
                    .iter()
                    .map(|&c| {
                        let child = &self.spans[c];
                        (child.start.max(span.start), child.end.min(span.end))
                    })
                    .filter(|(start, end)| start < end)
                    .collect();
                covered.sort();
                let mut union = Duration::ZERO;
                let mut reach = span.start;
                for (start, end) in covered {
                    let start = start.max(reach);
                    if end > start {
                        union += end - start;
                        reach = end;
                    }
                }
                (span.end - span.start).saturating_sub(union)
            })
            .collect()
    }

    /// Self times grouped by span name.
    pub fn self_times_by_name(&self) -> BTreeMap<&'static str, Vec<Duration>> {
        let mut groups: BTreeMap<&'static str, Vec<Duration>> = BTreeMap::new();
        for (span, self_time) in self.spans.iter().zip(self.self_times()) {
            groups.entry(span.name).or_default().push(self_time);
        }
        groups
    }

    /// The spans as Chrome trace-event JSON: one complete (`"X"`) event
    /// per span, one thread lane per op.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (id, span) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id},\"parent\":{}}}}}",
                span.name,
                span.op,
                span.start.as_secs_f64() * 1e6,
                (span.end - span.start).as_secs_f64() * 1e6,
                span.parent.map_or("null".to_string(), |p| p.to_string()),
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut tracer = Tracer::new();
        let t0 = tracer.epoch;
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let root = tracer.record("root", 0, None, at(0), at(100));
        // Two overlapping children cover [10, 40); a third covers [60, 70).
        tracer.record("child", 0, Some(root), at(10), at(30));
        tracer.record("child", 0, Some(root), at(20), at(40));
        tracer.record("child", 0, Some(root), at(60), at(70));
        let self_times = tracer.self_times();
        assert_eq!(self_times[root], Duration::from_millis(60));
        assert_eq!(self_times[1], Duration::from_millis(20));
    }
}
