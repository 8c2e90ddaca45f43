//! Virtual-time attribution over a recorded span tree.
//!
//! For each root span the whole of its interval is handed out, instant by
//! instant, to exactly one span: the deepest descendant covering that
//! instant (the latest-begun one among equals), or the root itself where
//! no descendant does. A span's share is its *self time* — its duration
//! minus what its descendants cover — and the shares of one root sum to
//! the root's duration, so layers can be compared without double counting
//! even where children overlap or outlive their parent (a `dso.exec`
//! begins after the `dso.smr_round` it hangs under has ended).

use std::collections::BTreeMap;

use simcore::{SpanKind, SpanRecord};

/// Per-root attribution, one entry per root span in allocation order.
#[derive(Debug, Default)]
pub struct Attribution {
    /// Root durations, ns.
    pub root_ns: Vec<u64>,
    /// The part of each root no descendant covers, ns.
    pub unattributed_ns: Vec<u64>,
    /// Self time per span name, ns; one value per root that has a span of
    /// that name among its descendants.
    pub self_ns: BTreeMap<String, Vec<u64>>,
}

impl Attribution {
    /// One line per span name, widest share first: how many roots have
    /// it, its mean self time per root that has it, and its share of all
    /// root time; then the uncovered remainder.
    pub fn table(&self) -> Vec<String> {
        let total: u64 = self.root_ns.iter().sum();
        let share = |ns: u64| if total == 0 { 0.0 } else { ns as f64 / total as f64 * 100.0 };
        let mut rows: Vec<(&str, usize, u64)> =
            self.self_ns.iter().map(|(n, v)| (n.as_str(), v.len(), v.iter().sum())).collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.2));
        rows.push(("(unattributed)", self.root_ns.len(), self.unattributed_ns.iter().sum()));
        rows.iter()
            .map(|(name, n, sum)| {
                let mean_us = *sum as f64 / (*n).max(1) as f64 / 1e3;
                format!(
                    "  self-time {name:<18} roots {n:>7}  mean {mean_us:>14.3} us  share {:>6.2}%",
                    share(*sum)
                )
            })
            .collect()
    }

    /// Share of all root time that named descendants cover.
    pub fn attributed_share(&self) -> f64 {
        let total: u64 = self.root_ns.iter().sum();
        if total == 0 {
            return 0.0;
        }
        1.0 - self.unattributed_ns.iter().sum::<u64>() as f64 / total as f64
    }
}

struct Piece {
    start: u64,
    end: u64,
    depth: u32,
    /// Index into the span slice; larger means begun later.
    idx: usize,
}

/// Attributes every closed interval span named `root_name` that falls in
/// `[from_ns, to_ns)` by its start.
pub fn attribute(spans: &[SpanRecord], root_name: &str, from_ns: u64, to_ns: u64) -> Attribution {
    // Span ids are allocation order starting at 1, so `id - 1` indexes.
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if !s.parent.is_none() {
            if let Some(c) = children.get_mut(s.parent.0 as usize - 1) {
                c.push(i);
            }
        }
    }
    let mut out = Attribution::default();
    let mut pieces: Vec<Piece> = Vec::new();
    let mut stack: Vec<(usize, u32)> = Vec::new();
    let mut cuts: Vec<u64> = Vec::new();
    for (r, root) in spans.iter().enumerate() {
        let (a, Some(b)) = (root.start.as_nanos(), root.end.map(|e| e.as_nanos())) else {
            continue;
        };
        if root.name != root_name || root.kind != SpanKind::Span || a < from_ns || a >= to_ns {
            continue;
        }
        pieces.clear();
        stack.clear();
        stack.extend(children[r].iter().map(|&c| (c, 1)));
        while let Some((i, depth)) = stack.pop() {
            let s = &spans[i];
            stack.extend(children[i].iter().map(|&c| (c, depth + 1)));
            let start = s.start.as_nanos().max(a);
            // An open span is treated as zero-length, as the exporters do.
            let end = s.end.map_or(start, |e| e.as_nanos()).min(b);
            if s.kind == SpanKind::Span && end > start {
                pieces.push(Piece { start, end, depth, idx: i });
            }
        }
        cuts.clear();
        cuts.extend([a, b]);
        cuts.extend(pieces.iter().flat_map(|p| [p.start, p.end]));
        cuts.sort_unstable();
        cuts.dedup();
        let mut own = 0u64;
        let mut per_name: BTreeMap<&str, u64> = BTreeMap::new();
        for w in cuts.windows(2) {
            let (x, y) = (w[0], w[1]);
            let owner = pieces
                .iter()
                .filter(|p| p.start <= x && p.end >= y)
                .max_by_key(|p| (p.depth, p.idx));
            match owner {
                Some(p) => *per_name.entry(spans[p.idx].name.as_str()).or_default() += y - x,
                None => own += y - x,
            }
        }
        // A descendant fully covered by deeper spans still gets its zero.
        for p in &pieces {
            per_name.entry(spans[p.idx].name.as_str()).or_default();
        }
        out.root_ns.push(b - a);
        out.unattributed_ns.push(own);
        for (name, ns) in per_name {
            match out.self_ns.get_mut(name) {
                Some(v) => v.push(ns),
                None => drop(out.self_ns.insert(name.to_string(), vec![ns])),
            }
        }
    }
    out
}

/// Sorted durations (ns) of every closed interval span named `name` that
/// starts in `[from_ns, to_ns)`.
pub fn durations(spans: &[SpanRecord], name: &str, from_ns: u64, to_ns: u64) -> Vec<u64> {
    let mut v: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name && s.kind == SpanKind::Span && s.end.is_some())
        .filter(|s| (from_ns..to_ns).contains(&s.start.as_nanos()))
        .map(|s| s.duration().as_nanos() as u64)
        .collect();
    v.sort_unstable();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{SimTime, SpanId, Tracer};

    fn span(t: &Tracer, parent: SpanId, name: &str, start: u64, end: u64) -> SpanId {
        let id = t.begin(SimTime::from_nanos(start), 1, "p", parent, name, "test");
        t.end(id, SimTime::from_nanos(end));
        id
    }

    #[test]
    fn self_time_on_a_tree_with_overlapping_and_overrunning_children() {
        let t = Tracer::new();
        // root [0,100]; call [10,90] under it; two overlapping children of
        // call, a [20,50] and b [40,70]; a grandchild c under a that starts
        // after a ended, [60,80]; and d under call overrunning the root,
        // [85,130].
        let root = span(&t, SpanId::NONE, "root", 0, 100);
        let call = span(&t, root, "call", 10, 90);
        let a = span(&t, call, "a", 20, 50);
        span(&t, call, "b", 40, 70);
        span(&t, a, "c", 60, 80);
        span(&t, call, "d", 85, 130);
        // A second root with nothing under it, and one outside the window.
        span(&t, SpanId::NONE, "root", 200, 230);
        span(&t, SpanId::NONE, "root", 1000, 1010);
        let at = attribute(&t.spans(), "root", 0, 1000);
        assert_eq!(at.root_ns, vec![100, 30]);
        // [0,10] is the root's own; d is clipped to [85,100] and covers
        // [90,100], which call does not.
        assert_eq!(at.unattributed_ns, vec![10, 30]);
        // a [20,40) only: b begun later wins the overlap [40,50).
        assert_eq!(at.self_ns["a"], vec![20]);
        // b [40,60): the deeper c takes [60,70).
        assert_eq!(at.self_ns["b"], vec![20]);
        assert_eq!(at.self_ns["c"], vec![20]);
        assert_eq!(at.self_ns["d"], vec![15]);
        // call keeps [10,20) and [80,85).
        assert_eq!(at.self_ns["call"], vec![15]);
        let sum: u64 = at.self_ns.values().map(|v| v[0]).sum::<u64>() + at.unattributed_ns[0];
        assert_eq!(sum, 100, "shares of a root sum to its duration");
        assert!((at.attributed_share() - (1.0 - 40.0 / 130.0)).abs() < 1e-12);
        assert_eq!(durations(&t.spans(), "root", 0, 1000), vec![30, 100]);
    }
}
