//! In-memory spans around the benchmark's calls into each layer, and the
//! self-time arithmetic that splits a request across the layers.
//!
//! A span is measured either on the request itself (the client's socket
//! round trip, with real start and end) or by a separate call into the
//! layer on the same line (the in-process `serve_session`, `Engine::respond`,
//! …). A separately measured child keeps its real duration and is placed
//! inside its parent after the parent's earlier placed children, so the
//! parent's self time is its own duration minus what its callees cost. A
//! callee cannot outlast its caller: a placed child is cut at the end of
//! its parent.

use std::collections::BTreeMap;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Start and end in nanoseconds on the benchmark's monotonic clock.
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    /// The request this span belongs to; every span of one request shares it.
    pub req: u64,
}

#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
    /// Where the next placed child of each span starts.
    cursor: Vec<u64>,
}

impl Trace {
    /// Record a span with its measured start and end.
    pub fn record(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
        req: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end: end.max(start),
            parent,
            req,
        });
        self.cursor.push(start);
        self.spans.len() - 1
    }

    /// Record a child measured by a separate call of `dur_ns`, placed
    /// after its parent's earlier placed children and cut at the parent's
    /// end.
    pub fn place(&mut self, name: &'static str, dur_ns: u64, parent: usize) -> usize {
        let start = self.cursor[parent];
        let end = (start + dur_ns).min(self.spans[parent].end);
        self.cursor[parent] = end;
        let req = self.spans[parent].req;
        self.record(name, start, end, Some(parent), req)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the part of its own
    /// interval that its children's intervals cover (overlapping children
    /// count once; a child running past its parent counts only inside).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start;
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end - s.start) - covered
            })
            .collect()
    }

    /// Self time summed per layer per request: layer name -> one value
    /// (nanoseconds) per request that has a span of that layer.
    pub fn layer_self_per_request(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut acc: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            *acc.entry((s.name, s.req)).or_default() += own;
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((name, _), ns) in acc {
            out.entry(name).or_default().push(ns as f64);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        let mut t = Trace::default();
        let root = t.record("client", 0, 100, None, 1);
        // Two overlapping children cover [10, 60): 50 ns, not 70.
        t.record("a", 10, 50, Some(root), 1);
        t.record("b", 30, 60, Some(root), 1);
        assert_eq!(t.self_times(), vec![50, 40, 30]);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let mut t = Trace::default();
        let root = t.record("transport", 100, 200, None, 1);
        t.record("serve", 150, 260, Some(root), 1);
        assert_eq!(t.self_times()[0], 50, "only [150, 200) is inside");
    }

    #[test]
    fn placed_children_run_back_to_back_and_nest() {
        let mut t = Trace::default();
        let root = t.record("transport", 1_000, 1_100, None, 9);
        let serve = t.place("serve", 30, root);
        let engine = t.place("engine", 10, serve);
        let store = t.place("store", 5, serve);
        assert_eq!(
            (t.spans()[engine].start, t.spans()[engine].end),
            (1_000, 1_010)
        );
        assert_eq!(
            (t.spans()[store].start, t.spans()[store].end),
            (1_010, 1_015)
        );
        assert_eq!(t.self_times(), vec![70, 15, 10, 5]);
        // A child longer than the room left in its parent is cut there.
        let late = t.place("exec", 500, root);
        assert_eq!((t.spans()[late].start, t.spans()[late].end), (1_030, 1_100));
        assert_eq!(t.self_times()[root], 0);
        // The layer self times of one request add back up to its root.
        let per = t.layer_self_per_request();
        let total: f64 = per.values().map(|v| v[0]).sum();
        assert_eq!(total, 100.0);
        assert!(t.spans().iter().all(|s| s.req == 9));
    }

    #[test]
    fn self_time_is_collected_per_request() {
        let mut t = Trace::default();
        for req in 0..3 {
            let root = t.record("transport", 0, 100 + req, None, req);
            t.place("serve", 40, root);
        }
        let per = t.layer_self_per_request();
        assert_eq!(per["transport"], vec![60.0, 61.0, 62.0]);
        assert_eq!(per["serve"], vec![40.0; 3]);
    }
}
