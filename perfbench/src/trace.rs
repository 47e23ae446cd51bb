//! In-memory spans around the benchmark's own calls into each layer's
//! public functions.
//!
//! A span records its layer, name, the operation it belongs to, its
//! parent span and its start and end. Spans stay in memory until the
//! run ends; a layer's self time is its spans' durations minus the parts
//! their child spans cover. With tracing disabled a span is a plain call,
//! so the same replay code runs traced and untraced and the difference
//! between the two passes is the tracing overhead.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats::{self, num};

#[derive(Debug, Clone, Copy)]
struct Span {
    layer: &'static str,
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// One layer's share of a traced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub spans: usize,
    pub ops: usize,
    pub self_ms: f64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Starts the next operation: spans opened until the next call share
    /// its identifier.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span of `layer`/`name`.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[index].end_ns = end_ns;
        out
    }

    /// Durations of every span called `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Per layer: spans, distinct operations, and self time in
    /// milliseconds (each span's duration minus its direct children's).
    pub fn self_time_ms(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        let mut last_op: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            let entry = out.entry(span.layer).or_default();
            entry.spans += 1;
            entry.self_ms += own as f64 / 1e6;
            // Spans are recorded in operation order.
            if last_op.insert(span.layer, span.op) != Some(span.op) {
                entry.ops += 1;
            }
        }
        out
    }

    /// The per-layer self-time table as JSON.
    pub fn self_time_json(&self) -> String {
        let fields: Vec<(String, String)> = self
            .self_time_ms()
            .into_iter()
            .map(|(layer, l)| {
                (
                    layer.to_owned(),
                    format!(
                        "{{\"spans\": {}, \"ops\": {}, \"self_ms\": {}}}",
                        l.spans,
                        l.ops,
                        num(l.self_ms)
                    ),
                )
            })
            .collect();
        stats::object(&fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.next_op();
        t.span("outer", "a", |t| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.span("inner", "b", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let table = t.self_time_ms();
        let outer = table["outer"].self_ms;
        let inner = table["inner"].self_ms;
        assert!(inner >= 5.0, "{inner}");
        assert!((2.0..5.0).contains(&outer), "{outer}");
        assert_eq!(t.durations_ms("b").len(), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("l", "n", |_| 7), 7);
        assert!(t.self_time_ms().is_empty());
    }
}
