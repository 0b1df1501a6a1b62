//! Span profiling: collapsed-stack (folded) flamegraph output and top-k
//! self-time tables.
//!
//! The span tree `crates/obs/src/span.rs` collects per run is aggregated
//! two ways at run end (`nazar_bench::ObsRun` → [`crate::finish_run_full`]):
//!
//! * [`folded`] renders `parent;child;leaf self_ns` lines — the collapsed
//!   stack format `flamegraph.pl` / speedscope / inferno consume directly;
//! * [`top_self`] ranks span names by **self time** (duration minus the
//!   duration of direct children), the quantity that actually identifies
//!   hot stages rather than just deep ones.
//!
//! Both rendered forms are sorted, so output order is deterministic even
//! though timings are not.

use crate::span::SpanRecord;
use std::collections::{BTreeMap, HashMap};

/// Aggregated self-time of one span name across a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelfTime {
    /// Span name (stage).
    pub name: String,
    /// Number of spans with this name.
    pub count: u64,
    /// Total self time (duration minus direct children), ns.
    pub self_ns: u64,
    /// Total inclusive duration, ns.
    pub total_ns: u64,
}

/// Computes each span's self time: its duration minus the summed durations
/// of its direct children (clamped at zero for clock skew).
fn self_times(spans: &[SpanRecord]) -> Vec<u64> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.dur_ns;
        }
    }
    spans
        .iter()
        .map(|s| {
            s.dur_ns
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0))
        })
        .collect()
}

/// Renders the spans as collapsed stacks: one `a;b;c self_ns` line per
/// distinct root-to-span path, aggregated and sorted by path. Spans whose
/// parent is absent root their own stack.
pub fn folded(spans: &[SpanRecord]) -> String {
    let idx: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let selfs = self_times(spans);
    let mut agg: BTreeMap<String, u64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let mut path = vec![s.name.as_str()];
        let mut cursor = s.parent;
        // The parent chain is acyclic by construction (ids are unique and
        // assigned before children open); the hop cap is belt-and-braces.
        for _ in 0..spans.len() {
            let Some(p) = cursor.and_then(|p| idx.get(&p)) else {
                break;
            };
            path.push(spans[*p].name.as_str());
            cursor = spans[*p].parent;
        }
        path.reverse();
        *agg.entry(path.join(";")).or_default() += selfs[i];
    }
    let mut out = String::new();
    for (path, ns) in &agg {
        out.push_str(path);
        out.push(' ');
        out.push_str(&ns.to_string());
        out.push('\n');
    }
    out
}

/// The `k` span names with the largest total self time, descending (name
/// breaks ties, for deterministic order).
pub fn top_self(spans: &[SpanRecord], k: usize) -> Vec<SelfTime> {
    let selfs = self_times(spans);
    let mut agg: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let e = agg.entry(s.name.as_str()).or_default();
        e.0 += 1;
        e.1 += selfs[i];
        e.2 += s.dur_ns;
    }
    let mut rows: Vec<SelfTime> = agg
        .into_iter()
        .map(|(name, (count, self_ns, total_ns))| SelfTime {
            name: name.to_string(),
            count,
            self_ns,
            total_ns,
        })
        .collect();
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(&b.name)));
    rows.truncate(k);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, name: &str, start_ns: u64, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.to_string(),
            detail: None,
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn folded_aggregates_paths_with_self_time() {
        let spans = vec![
            rec(1, None, "run", 0, 100),
            rec(2, Some(1), "window", 0, 60),
            rec(3, Some(2), "detect", 0, 25),
            rec(4, Some(2), "detect", 30, 15),
            rec(5, Some(999), "orphan", 50, 5),
        ];
        let text = folded(&spans);
        // run self = 100 - 60; window self = 60 - 40; detects aggregate.
        assert_eq!(
            text,
            "orphan 5\nrun 40\nrun;window 20\nrun;window;detect 40\n"
        );
    }

    #[test]
    fn top_self_ranks_by_self_time() {
        let spans = vec![
            rec(1, None, "run", 0, 100),
            rec(2, Some(1), "window", 0, 90),
            rec(3, Some(2), "detect", 0, 80),
        ];
        let top = top_self(&spans, 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].name, "detect");
        assert_eq!(top[0].self_ns, 80);
        assert_eq!(top[0].total_ns, 80);
        assert_eq!(top[1].name, "run");
        assert_eq!(top[1].self_ns, 10);
    }
}
