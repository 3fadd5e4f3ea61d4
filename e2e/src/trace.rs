//! In-memory span recorder for the traced run.
//!
//! Every span is recorded by the benchmark around a call into a layer's
//! public entry point; nothing inside the library is instrumented.
//! Parent spans wrap the real calls the workload measures (a batch,
//! `submit`, `tick`, a campaign pass). Shadow spans re-run the public
//! layer functions on a sampled operation's own inputs right after the
//! real call, so they lie outside their parent's interval: a parent's
//! self time is its duration minus its children's (weighted) time.
//! Spans are written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub type SpanId = u32;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: &'static str,
    /// The operation (batch op index, frame index, replay case) the
    /// span belongs to; spans of one request share it.
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Share of real calls that pay this cost (1 unless a shadow stands
    /// for work only some real calls do, such as a cache miss).
    pub weight: f64,
}

impl Span {
    pub fn ns(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Times `f` as a span named `name` and returns its result with the
    /// span's id.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> (R, SpanId) {
        let start_ns = self.now_ns();
        let out = std::hint::black_box(f());
        let end_ns = self.now_ns();
        (out, self.push(name, parent, req, start_ns, end_ns))
    }

    /// Records an already-timed span.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            id,
            parent,
            name,
            req,
            start_ns,
            end_ns,
            weight: 1.0,
        });
        id
    }

    /// Records a span for an interval measured from `start` to now.
    pub fn since(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        start: Instant,
    ) -> SpanId {
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        let end_ns = self.now_ns();
        self.push(name, parent, req, start_ns, end_ns)
    }

    pub fn set_weight(&mut self, id: SpanId, weight: f64) {
        self.spans[id as usize].weight = weight;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Weighted total nanoseconds of spans named `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() * s.weight)
            .sum()
    }

    /// Durations of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }

    /// Σ weighted time of direct children / Σ duration, over the spans
    /// named `parent` that have at least one child.
    pub fn coverage(&self, parent: &str) -> f64 {
        let mut child_ns: BTreeMap<SpanId, f64> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.ns() * s.weight;
            }
        }
        let (mut attributed, mut total) = (0.0, 0.0);
        for s in self.spans.iter().filter(|s| s.name == parent) {
            if let Some(c) = child_ns.get(&s.id) {
                attributed += c;
                total += s.ns();
            }
        }
        if total == 0.0 {
            0.0
        } else {
            attributed / total
        }
    }

    /// The spans as a JSON array, one span per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"req\": {}, \"start_ns\": {}, \"end_ns\": {}, \"weight\": {}}}",
                s.id, parent, s.name, s.req, s.start_ns, s.end_ns, s.weight
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_sums_weighted_direct_children() {
        let mut t = Tracer::default();
        let p = t.push("batch", None, 0, 0, 100);
        t.push("a", Some(p), 0, 100, 160);
        let b = t.push("b", Some(p), 0, 160, 200);
        t.set_weight(b, 0.5);
        // a grandchild does not count towards the parent
        t.push("a.sub", Some(b), 0, 160, 170);
        // a parent without children is not in the sample
        t.push("batch", None, 1, 200, 900);
        assert!((t.coverage("batch") - 0.8).abs() < 1e-12);
        assert_eq!(t.total_ns("b"), 20.0);
        assert!(t.to_json().contains("\"parent\": null"));
    }
}
