//! Frequent-itemset mining with the apriori algorithm.
//!
//! Candidate root causes are sets of attribute values (at most one value per
//! attribute key, at most [`FimConfig::max_attrs`] values total). Apriori
//! grows candidates level by level: a set can only be frequent if all its
//! subsets are, and our *occurrence* metric (drifted rows containing the set
//! over all rows) is monotone non-increasing under set extension, so pruning
//! by `min_occurrence` at every level is sound.
//!
//! Counting mirrors the paper's implementation of FIM as SQL `COUNT`
//! aggregations. Level 1 is one [`DriftLog::distinct_values`] scan per
//! key. Deeper levels count each candidate from per-column row lists that
//! [`mine`] builds once per call (one CSR per column: code `c`'s ascending
//! rows are `rows[offsets[c]..offsets[c + 1]]`): a candidate walks its
//! shortest list and checks its other columns row by row, where a log scan
//! per candidate would read every row. Each level's candidate set is
//! generated sequentially (so the canonical dedup order is stable) and
//! then counted with `parallel::par_map`, one candidate at a time per
//! worker: parallelism across candidates composes better here than within
//! a count, because apriori counts many small sets per level. Results
//! merge in candidate order, so the mined table is bitwise identical at
//! any `NAZAR_NUM_THREADS`.
//!
//! Runtime note: at 50k rows over 3 low-cardinality attribute keys,
//! apriori's cost is ~40 counting scans. The
//! `nazar_analysis_fim_phase_seconds{method,phase}` histograms break a mine
//! down so a regression in one phase is visible in any run report.

use crate::metrics::{CauseStats, FimConfig};
use nazar_log::{Attribute, DriftLog, MatchCounts};
use nazar_obs::Histogram;
use nazar_tensor::parallel;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::time::Instant;

static PHASE_LEVEL1: Histogram = Histogram::new(
    "nazar_analysis_fim_phase_seconds",
    &[("method", "apriori"), ("phase", "level1")],
    nazar_obs::DURATION_BUCKETS,
);
static PHASE_EXTEND: Histogram = Histogram::new(
    "nazar_analysis_fim_phase_seconds",
    &[("method", "apriori"), ("phase", "extend")],
    nazar_obs::DURATION_BUCKETS,
);
static PHASE_RANK: Histogram = Histogram::new(
    "nazar_analysis_fim_phase_seconds",
    &[("method", "apriori"), ("phase", "rank")],
    nazar_obs::DURATION_BUCKETS,
);

/// A candidate or accepted root cause: an attribute set plus its metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankedCause {
    /// The attribute set, sorted by key for canonical form.
    pub attrs: Vec<Attribute>,
    /// The four FIM metrics and raw counts.
    pub stats: CauseStats,
}

impl RankedCause {
    /// Whether `other`'s attribute set is a proper subset of this one's.
    pub fn is_proper_superset_of(&self, other: &RankedCause) -> bool {
        self.attrs.len() > other.attrs.len() && other.attrs.iter().all(|a| self.attrs.contains(a))
    }

    /// A compact human-readable form, e.g. `{weather=snow, location=nyc}`.
    pub fn label(&self) -> String {
        let parts: Vec<String> = self.attrs.iter().map(|a| a.to_string()).collect();
        format!("{{{}}}", parts.join(", "))
    }
}

/// The output of [`mine`]: scored itemsets, ranked by risk ratio.
#[derive(Debug, Clone, PartialEq)]
pub struct FimTable {
    /// Itemsets passing all four thresholds, in rank order — the "possible
    /// root causes" handed to set reduction.
    pub causes: Vec<RankedCause>,
    /// Every scored itemset (including threshold failures), in rank order —
    /// what Table 3 of the paper displays.
    pub all: Vec<RankedCause>,
    /// Total rows in the analyzed log.
    pub total_rows: usize,
    /// Total drifted rows in the analyzed log.
    pub total_drifted: usize,
}

/// Ranks causes by the configured metric (descending), then support, then
/// occurrence, then fewer attributes, then lexicographic attribute order.
pub(crate) fn rank_order_by(
    metric: crate::metrics::RankingMetric,
    a: &RankedCause,
    b: &RankedCause,
) -> std::cmp::Ordering {
    // total_cmp keeps the ranking a deterministic total order even if a
    // metric ever goes NaN (NaN-keyed causes sink below every number under
    // the descending comparison — DESIGN.md §9).
    metric
        .key(&b.stats)
        .total_cmp(&metric.key(&a.stats))
        .then(b.stats.support.total_cmp(&a.stats.support))
        .then(b.stats.occurrence.total_cmp(&a.stats.occurrence))
        .then(a.attrs.len().cmp(&b.attrs.len()))
        .then(a.attrs.cmp(&b.attrs))
}

/// The paper-default ranking (risk ratio first).
pub(crate) fn rank_order(a: &RankedCause, b: &RankedCause) -> std::cmp::Ordering {
    rank_order_by(crate::metrics::RankingMetric::RiskRatio, a, b)
}

/// One column's rows grouped by dictionary code (CSR): code `c`'s rows,
/// ascending, are `rows[offsets[c]..offsets[c + 1]]`.
struct RowLists {
    offsets: Vec<usize>,
    rows: Vec<u32>,
}

impl RowLists {
    /// Groups `codes` (one per row, each below `dict_len`): a counting
    /// pass and a prefix sum size the lists, a second pass fills them.
    fn build(codes: &[u32], dict_len: usize) -> RowLists {
        let mut offsets = vec![0; dict_len + 1];
        for &code in codes {
            offsets[code as usize + 1] += 1;
        }
        for c in 1..offsets.len() {
            offsets[c] += offsets[c - 1];
        }
        let mut next = offsets.clone();
        let mut rows = vec![0; codes.len()];
        for (row, &code) in (0..).zip(codes) {
            let slot = &mut next[code as usize];
            rows[*slot] = row;
            *slot += 1;
        }
        RowLists { offsets, rows }
    }

    fn of(&self, code: u32) -> &[u32] {
        let c = code as usize;
        &self.rows[self.offsets[c]..self.offsets[c + 1]]
    }
}

/// `COUNT(*)` / `COUNT(*) WHERE drift` for the resolved predicates
/// `preds` (at least one): the shortest of their row lists, each row
/// checked against the other predicates' columns.
fn count_from_lists(
    preds: &[(usize, u32)],
    lists: &[RowLists],
    columns: &[&[u32]],
    drift: &[bool],
) -> MatchCounts {
    let mut counts = MatchCounts::default();
    let by_len = preds
        .iter()
        .enumerate()
        .map(|(i, &(ci, code))| (i, lists[ci].of(code)));
    let Some((shortest, rows)) = by_len.min_by_key(|(_, rows)| rows.len()) else {
        return counts;
    };
    for &row in rows {
        let row = row as usize;
        let mut others = preds.iter().enumerate().filter(|&(i, _)| i != shortest);
        if others.all(|(_, &(ci, code))| columns[ci][row] == code) {
            counts.occurrences += 1;
            counts.drifted += usize::from(drift[row]);
        }
    }
    counts
}

/// Mines frequent itemsets associated with drift from `log`.
///
/// Returns an empty table for logs with no drifted rows.
pub fn mine(log: &DriftLog, config: &FimConfig) -> FimTable {
    let total_rows = log.num_rows();
    let total_drifted = log.num_drifted();
    if total_rows == 0 || total_drifted == 0 {
        return FimTable {
            causes: Vec::new(),
            all: Vec::new(),
            total_rows,
            total_drifted,
        };
    }

    // Level 1: one candidate per (key, value) with at least one drifted row.
    let level1_start = Instant::now();
    let mut level: Vec<RankedCause> = Vec::new();
    for key in log.schema() {
        for (value, counts) in log.distinct_values(key).expect("schema key") {
            if counts.drifted == 0 {
                continue;
            }
            let stats = CauseStats::from_counts(counts, total_rows, total_drifted);
            if stats.occurrence < config.min_occurrence {
                continue;
            }
            level.push(RankedCause {
                attrs: vec![Attribute::new(key.clone(), value)],
                stats,
            });
        }
    }
    let singles = level.clone();
    let mut all = level.clone();
    PHASE_LEVEL1.observe_since(level1_start);

    // Levels 2..=max_attrs: extend by singletons on unused keys, counted
    // from row lists built once here.
    let extend_start = Instant::now();
    let columns: Vec<&[u32]> = (0..log.schema().len())
        .map(|ci| log.column_codes(ci))
        .collect();
    let lists: Vec<RowLists> = columns
        .iter()
        .enumerate()
        .map(|(ci, codes)| RowLists::build(codes, log.dict_values(ci).len()))
        .collect();
    let mut seen: HashSet<Vec<Attribute>> = all.iter().map(|c| c.attrs.clone()).collect();
    for _ in 2..=config.max_attrs {
        // Generate this level's candidate sets sequentially so the
        // canonical (sorted, deduplicated) order is stable...
        let mut candidates: Vec<Vec<Attribute>> = Vec::new();
        for base in &level {
            for single in &singles {
                let attr = &single.attrs[0];
                if base.attrs.iter().any(|a| a.key == attr.key) {
                    continue; // one value per key
                }
                let mut attrs = base.attrs.clone();
                attrs.push(attr.clone());
                attrs.sort();
                if seen.insert(attrs.clone()) {
                    candidates.push(attrs);
                }
            }
        }
        // ...then count them in parallel; par_map merges in candidate
        // order, keeping the level deterministic at any thread count.
        let next: Vec<RankedCause> = parallel::par_map(candidates, |attrs| {
            // Every value came from the log's own dictionaries.
            let preds = log.resolve_predicates(&attrs).expect("schema keys");
            let counts = preds.map_or_else(MatchCounts::default, |preds| {
                count_from_lists(&preds, &lists, &columns, log.drift_flags())
            });
            (attrs, counts)
        })
        .into_iter()
        .filter_map(|(attrs, counts)| {
            if counts.drifted == 0 {
                return None;
            }
            let stats = CauseStats::from_counts(counts, total_rows, total_drifted);
            if stats.occurrence < config.min_occurrence {
                return None;
            }
            Some(RankedCause { attrs, stats })
        })
        .collect();
        if next.is_empty() {
            break;
        }
        all.extend(next.iter().cloned());
        level = next;
    }
    PHASE_EXTEND.observe_since(extend_start);

    let rank_start = Instant::now();
    all.sort_by(rank_order);
    let causes = all
        .iter()
        .filter(|c| c.stats.passes(config))
        .cloned()
        .collect();
    PHASE_RANK.observe_since(rank_start);
    FimTable {
        causes,
        all,
        total_rows,
        total_drifted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nazar_log::DriftLogEntry;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The independent oracle for [`mine`] (it replaced an FP-growth port):
    /// every non-empty subset of every row's attributes, up to `max_attrs`
    /// of them, tallied row by row with no pruning and no index — then the
    /// two conditions that put an itemset in `FimTable::all`. Returns
    /// sorted `(attrs, rows containing the set, drifted rows containing it)`.
    fn brute_force(
        rows: &[DriftLogEntry],
        config: &FimConfig,
    ) -> Vec<(Vec<Attribute>, usize, usize)> {
        let mut tally: BTreeMap<Vec<Attribute>, (usize, usize)> = BTreeMap::new();
        for row in rows {
            for mask in 1u32..1 << row.attrs.len() {
                if mask.count_ones() as usize > config.max_attrs {
                    continue;
                }
                let mut set: Vec<Attribute> = (0..row.attrs.len())
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| row.attrs[i].clone())
                    .collect();
                set.sort();
                let counts = tally.entry(set).or_default();
                counts.0 += 1;
                counts.1 += usize::from(row.drift);
            }
        }
        tally
            .into_iter()
            .filter(|&(_, (_, drifted))| {
                drifted > 0 && drifted as f64 / rows.len() as f64 >= config.min_occurrence
            })
            .map(|(set, (occurrences, drifted))| (set, occurrences, drifted))
            .collect()
    }

    fn canonical(table: &FimTable) -> Vec<(Vec<Attribute>, usize, usize)> {
        let mut v: Vec<(Vec<Attribute>, usize, usize)> = table
            .all
            .iter()
            .map(|c| (c.attrs.clone(), c.stats.occurrences, c.stats.drifted))
            .collect();
        v.sort();
        v
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Apriori's pruned level walk, its deeper levels counted from row
        /// lists, scores exactly the itemsets exhaustive enumeration does,
        /// with the same counts — up to three keys, so level 3 checks two
        /// columns besides the list it walks.
        #[test]
        fn agrees_with_brute_force(
            rows in proptest::collection::vec(
                (0usize..3, 0usize..3, 0usize..2, any::<bool>()),
                1..200,
            ),
            max_attrs in 1usize..=3,
            prune_hard in any::<bool>(),
        ) {
            let weathers = ["clear-day", "rain", "snow"];
            let locations = ["a", "b", "c"];
            let devices = ["d0", "d1"];
            let entries: Vec<DriftLogEntry> = rows
                .iter()
                .enumerate()
                .map(|(i, &(w, l, d, drift))| {
                    DriftLogEntry::new(
                        i as u64,
                        &[
                            ("weather", weathers[w]),
                            ("location", locations[l]),
                            ("device", devices[d]),
                        ],
                        drift,
                    )
                })
                .collect();
            let mut log = DriftLog::new(&["weather", "location", "device"]);
            for entry in &entries {
                log.push(entry.clone()).unwrap();
            }
            let min_occurrence = if prune_hard { 0.1 } else { 0.01 };
            let config = FimConfig { max_attrs, min_occurrence, ..FimConfig::default() };
            prop_assert_eq!(canonical(&mine(&log, &config)), brute_force(&entries, &config));
        }
    }

    fn table() -> FimTable {
        mine(&nazar_log::paper_example_log(), &FimConfig::default())
    }

    fn find<'t>(t: &'t FimTable, attrs: &[(&str, &str)]) -> &'t RankedCause {
        let mut want: Vec<Attribute> = attrs.iter().map(|(k, v)| Attribute::new(*k, *v)).collect();
        want.sort();
        t.all
            .iter()
            .find(|c| c.attrs == want)
            .unwrap_or_else(|| panic!("missing itemset {want:?}"))
    }

    #[test]
    fn snow_is_rank_zero_with_paper_metrics() {
        let t = table();
        let top = &t.all[0];
        assert_eq!(top.attrs, vec![Attribute::new("weather", "snow")]);
        assert!((top.stats.occurrence - 0.4).abs() < 1e-9);
        assert!((top.stats.support - 2.0 / 3.0).abs() < 1e-9);
        assert!((top.stats.risk_ratio - 3.0).abs() < 1e-9);
        assert!((top.stats.confidence - 1.0).abs() < 1e-9);
    }

    #[test]
    fn table3_pairs_score_as_in_paper() {
        let t = table();
        for attrs in [
            vec![("weather", "snow"), ("device_id", "android_21")],
            vec![("weather", "snow"), ("device_id", "android_42")],
            vec![("weather", "snow"), ("location", "new-york")],
            vec![("weather", "snow"), ("location", "helsinki")],
        ] {
            let c = find(&t, &attrs);
            assert!((c.stats.occurrence - 0.2).abs() < 1e-9, "{attrs:?}");
            assert!((c.stats.support - 1.0 / 3.0).abs() < 1e-9);
            assert!((c.stats.risk_ratio - 2.0).abs() < 1e-9);
            assert!((c.stats.confidence - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn table3_medium_rows() {
        let t = table();
        for attrs in [
            vec![("device_id", "android_21")],
            vec![("location", "new-york")],
            vec![("location", "new-york"), ("device_id", "android_21")],
        ] {
            let c = find(&t, &attrs);
            assert!((c.stats.risk_ratio - 4.0 / 3.0).abs() < 1e-9, "{attrs:?}");
            assert!((c.stats.confidence - 2.0 / 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn table3_failing_rows_are_scored_but_not_causes() {
        let t = table();
        let clear = find(&t, &[("weather", "clear-day")]);
        assert!((clear.stats.risk_ratio - 1.0 / 3.0).abs() < 1e-9);
        assert!(!clear.stats.passes(&FimConfig::default()));
        assert!(!t.causes.iter().any(|c| c.attrs == clear.attrs));
    }

    #[test]
    fn passing_causes_are_the_top_of_the_ranking() {
        let t = table();
        // {snow}, its four pairs, its two triples (all conf 1, RR >= 2), and
        // the three android_21/new-york combinations (conf 0.67, RR 1.33)
        // pass; everything below fails the confidence threshold.
        assert_eq!(t.causes.len(), 10, "causes: {:#?}", t.causes);
        for (a, b) in t.all.iter().zip(t.all.iter().skip(1)) {
            assert!(
                a.stats.risk_ratio >= b.stats.risk_ratio,
                "ranking not sorted by risk ratio"
            );
        }
    }

    #[test]
    fn max_attrs_caps_itemset_size() {
        let cfg = FimConfig {
            max_attrs: 1,
            ..FimConfig::default()
        };
        let t = mine(&nazar_log::paper_example_log(), &cfg);
        assert!(t.all.iter().all(|c| c.attrs.len() == 1));
    }

    #[test]
    fn empty_and_driftless_logs_mine_nothing() {
        let empty = nazar_log::DriftLog::new(&["k"]);
        assert!(mine(&empty, &FimConfig::default()).all.is_empty());

        let mut clean = nazar_log::DriftLog::new(&["k"]);
        clean
            .push(nazar_log::DriftLogEntry::new(0, &[("k", "v")], false))
            .unwrap();
        assert!(mine(&clean, &FimConfig::default()).all.is_empty());
    }

    #[test]
    fn superset_relation() {
        let t = table();
        let snow = find(&t, &[("weather", "snow")]).clone();
        let snow_ny = find(&t, &[("weather", "snow"), ("location", "new-york")]).clone();
        assert!(snow_ny.is_proper_superset_of(&snow));
        assert!(!snow.is_proper_superset_of(&snow_ny));
        assert!(!snow.is_proper_superset_of(&snow));
    }

    #[test]
    fn label_is_human_readable() {
        let t = table();
        assert_eq!(t.all[0].label(), "{weather=snow}");
    }
}
