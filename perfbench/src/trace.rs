//! In-memory spans for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around calls into the
//! crates' public functions — never from inside them. Where such a call
//! already returns its own split (`TickMetrics`, `ClusterStats`, `/stats`),
//! the split is laid out as child spans of the call instead of being
//! re-derived. Everything stays in a `Vec` until the run ends.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Measured-op index shared by every span of one op (the request id).
    pub op: Option<u32>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, op: Option<u32>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, op });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) -> u64 {
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].dur_ns()
    }

    /// Record an already-measured interval (a split a call returned).
    pub fn add(
        &mut self,
        name: &'static str,
        start_ns: u64,
        dur_ns: u64,
        parent: Option<usize>,
        op: Option<u32>,
    ) -> usize {
        self.spans.push(Span { name, start_ns, end_ns: start_ns + dur_ns, parent, op });
        self.spans.len() - 1
    }

    /// Lay `parts` out back to back as children of `parent`, starting at the
    /// parent's start: the shape of a split that reports durations only.
    pub fn add_split(&mut self, parent: usize, parts: &[(&'static str, u64)]) {
        let (mut at, op) = (self.spans[parent].start_ns, self.spans[parent].op);
        for &(name, dur) in parts {
            self.add(name, at, dur, Some(parent), op);
            at += dur;
        }
    }

    /// Self time of span `id`: its duration minus the part of its interval
    /// that its direct children cover. Children are clipped to the parent's
    /// edges and overlapping children are counted once.
    pub fn self_ns(&self, id: usize) -> u64 {
        let p = &self.spans[id];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_unstable();
        let (mut covered, mut edge) = (0u64, p.start_ns);
        for (a, b) in kids {
            let a = a.max(edge);
            if b > a {
                covered += b - a;
                edge = b;
            }
        }
        p.dur_ns() - covered
    }

    /// Total self time per span name, descending — the "where did the run
    /// go" table printed on stderr.
    pub fn self_by_name(&self) -> Vec<(&'static str, u64, usize)> {
        let mut acc: Vec<(&'static str, u64, usize)> = Vec::new();
        for id in 0..self.spans.len() {
            let (name, ns) = (self.spans[id].name, self.self_ns(id));
            match acc.iter_mut().find(|(n, _, _)| *n == name) {
                Some(e) => {
                    e.1 += ns;
                    e.2 += 1;
                }
                None => acc.push((name, ns, 1)),
            }
        }
        acc.sort_by_key(|&(_, ns, _)| std::cmp::Reverse(ns));
        acc
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let op = s.op.map_or("null".to_string(), |o| o.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"op\":{op}}}",
                s.name, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 == self.spans.len() { "\n" } else { ",\n" });
        }
        out.push_str("]}\n");
        out
    }
}

/// A pass runs traced or not: `Some((tracer, kept state))` or `None`.
/// These open and close a span only in the first case.
pub fn begin<T>(
    trace: &mut Option<(&mut Tracer, T)>,
    name: &'static str,
    parent: Option<usize>,
    op: Option<u32>,
) -> Option<usize> {
    trace.as_mut().map(|(t, _)| t.begin(name, parent, op))
}

pub fn end<T>(trace: &mut Option<(&mut Tracer, T)>, span: Option<usize>) {
    if let (Some((t, _)), Some(span)) = (trace.as_mut(), span) {
        t.end(span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer(spans: &[(u64, u64, Option<usize>)]) -> Tracer {
        let mut t = Tracer::new();
        for &(a, b, parent) in spans {
            t.add("s", a, b - a, parent, None);
        }
        t
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = tracer(&[(100, 200, None), (110, 130, Some(0)), (150, 160, Some(0))]);
        assert_eq!(t.self_ns(0), 100 - 20 - 10);
        assert_eq!(t.self_ns(1), 20);
    }

    #[test]
    fn children_overlapping_the_parents_edges_are_clipped() {
        // One child starts before the parent, one ends after it, and two
        // overlap each other: covered = [100,120) ∪ [140,170) ∪ [190,200).
        let t = tracer(&[
            (100, 200, None),
            (80, 120, Some(0)),
            (140, 160, Some(0)),
            (150, 170, Some(0)),
            (190, 260, Some(0)),
            (300, 400, Some(0)), // wholly outside: covers nothing
        ]);
        assert_eq!(t.self_ns(0), 100 - 20 - 30 - 10);
    }

    #[test]
    fn grandchildren_do_not_count_against_the_grandparent() {
        let t = tracer(&[(0, 100, None), (10, 60, Some(0)), (20, 30, Some(1))]);
        assert_eq!(t.self_ns(0), 50);
        assert_eq!(t.self_ns(1), 40);
    }

    #[test]
    fn split_lays_parts_back_to_back() {
        let mut t = Tracer::new();
        let p = t.add("op", 1000, 500, None, Some(3));
        t.add_split(p, &[("a", 100), ("b", 250)]);
        assert_eq!((t.spans[1].start_ns, t.spans[1].end_ns), (1000, 1100));
        assert_eq!((t.spans[2].start_ns, t.spans[2].end_ns), (1100, 1350));
        assert_eq!(t.spans[2].op, Some(3));
        assert_eq!(t.self_ns(p), 150);
    }
}
