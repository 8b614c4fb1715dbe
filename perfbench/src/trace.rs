//! Spans the benchmark records around its own calls into each layer.
//!
//! A span has a name, a start and an end, the span that caused it, and the
//! operation it belongs to. Spans stay in memory while the benchmark runs
//! and are written out once at the end. A disabled tracer records nothing,
//! so the untraced run pays one branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary, e.g. `explore.reproduce`.
    pub name: &'static str,
    /// Operation (or arrival) the span belongs to; spans of one operation
    /// share it.
    pub op: u64,
    /// Index of the causing span, `None` for an operation's root.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::begin`]; `None` when tracing is off.
pub type SpanId = Option<usize>;

/// In-memory span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

/// Per-name totals over a tracer's spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed wall time.
    pub total_ns: u64,
    /// Summed self time (wall time not covered by child spans).
    pub self_ns: u64,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span now.
    pub fn begin(&mut self, name: &'static str, op: u64, parent: SpanId) -> SpanId {
        self.enabled
            .then(|| self.push(name, op, parent, Instant::now(), None))
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id {
            let now = self.ns(Instant::now());
            self.spans[i].end_ns = now;
        }
    }

    /// Records a span whose bounds were timed elsewhere (e.g. by another
    /// thread).
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.enabled
            .then(|| self.push(name, op, parent, start, Some(end)))
    }

    fn push(
        &mut self,
        name: &'static str,
        op: u64,
        parent: SpanId,
        start: Instant,
        end: Option<Instant>,
    ) -> usize {
        let start_ns = self.ns(start);
        let end_ns = end.map_or(start_ns, |e| self.ns(e));
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Self time of every span, in recording order.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| self_time((s.start_ns, s.end_ns), kids))
            .collect()
    }

    /// Count, wall time and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += self_ns;
        }
        out
    }

    /// Tab-separated dump: one line per span, then nothing else.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tname\top\tparent\tstart_ns\tend_ns\tself_ns\n");
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}\t{self_ns}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// A span's duration minus the part of its interval that its children
/// cover. Overlapping children count once; parts of a child outside the
/// parent do not count.
pub fn self_time(parent: (u64, u64), mut children: Vec<(u64, u64)>) -> u64 {
    let (p0, p1) = parent;
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = p0;
    for (c0, c1) in children {
        let lo = c0.max(reach);
        let hi = c1.min(p1);
        if hi > lo {
            covered += hi - lo;
            reach = hi;
        }
    }
    p1.saturating_sub(p0) - covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_disjoint_children() {
        assert_eq!(self_time((0, 100), vec![(10, 20), (50, 80)]), 60);
    }

    #[test]
    fn self_time_counts_overlap_once_and_clips_to_parent() {
        // [10,40) and [30,60) overlap -> covered [10,60) = 50.
        assert_eq!(self_time((0, 100), vec![(30, 60), (10, 40)]), 50);
        // A child straddling the parent's end only covers the inside part.
        assert_eq!(self_time((0, 100), vec![(90, 150)]), 90);
        // A nested grandchild-like interval inside another child adds nothing.
        assert_eq!(self_time((0, 100), vec![(0, 100), (20, 30)]), 0);
        assert_eq!(self_time((5, 5), vec![]), 0);
    }

    #[test]
    fn totals_split_wall_and_self_time() {
        let mut t = Tracer::new(true);
        let o = Instant::now();
        let at = |ms| o + Duration::from_millis(ms);
        let root = t.record("op", 1, None, at(0), at(10));
        t.record("child", 1, root, at(2), at(5));
        t.record("child", 1, root, at(6), at(7));
        let totals = t.totals();
        let ms = 1_000_000;
        assert_eq!(totals["op"].count, 1);
        assert_eq!(totals["op"].total_ns, 10 * ms);
        assert_eq!(totals["op"].self_ns, 6 * ms);
        assert_eq!(totals["child"].count, 2);
        assert_eq!(totals["child"].self_ns, 4 * ms);
        assert_eq!(t.to_tsv().lines().count(), 4);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("op", 0, None);
        assert_eq!(id, None);
        t.end(id);
        assert_eq!(t.to_tsv().lines().count(), 1, "header only");
    }
}
