//! Differential query suite: every query must be *exactly* equal — values
//! and ordering — to the naive row-scan [`reference`], which shares no
//! code with the log's query engine. The log has one query path (the
//! block scans of `nazar_log::probe`), so there is no width or mode to
//! sweep; the CI `test-matrix` job re-runs the whole tier-1 suite under
//! `NAZAR_NUM_THREADS=1` and `=8` in separate processes and diffs the
//! output. Workloads reach a few hundred rows over up to four columns, so
//! every partial 64-row word of the scan kernels and sets of three and
//! four predicates are exercised.

mod reference;

use nazar_log::{Attribute, DriftLog, DriftLogEntry};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// A randomly generated log workload: schema, rows, and a drift-mask
/// override of arbitrary (possibly short or over-long) length.
#[derive(Debug, Clone)]
struct Workload {
    schema: Vec<String>,
    rows: Vec<(u64, Vec<usize>, bool)>, // (timestamp, value id per column, drift)
    mask: Vec<bool>,
}

fn value_name(v: usize) -> String {
    format!("v{v}")
}

/// Hand-rolled strategy (the vendored proptest has no `prop_flat_map`):
/// draws schema width, value cardinality, rows, and a mask whose length is
/// independent of the row count.
#[derive(Debug, Clone, Copy)]
struct WorkloadStrategy;

impl Strategy for WorkloadStrategy {
    type Value = Workload;

    fn generate(&self, rng: &mut TestRng) -> Workload {
        let n_cols = 1 + rng.below(4) as usize;
        let n_vals = 1 + rng.below(4);
        let n_rows = rng.below(260) as usize;
        let rows = (0..n_rows)
            .map(|_| {
                (
                    rng.below(50),
                    (0..n_cols).map(|_| rng.below(n_vals) as usize).collect(),
                    rng.next_u64() & 1 == 1,
                )
            })
            .collect();
        let mask_len = rng.below(280) as usize;
        let mask = (0..mask_len).map(|_| rng.next_u64() & 1 == 1).collect();
        Workload {
            schema: (0..n_cols).map(|c| format!("key{c}")).collect(),
            rows,
            mask,
        }
    }
}

fn workload() -> WorkloadStrategy {
    WorkloadStrategy
}

/// The workload's rows as raw entries — the reference's input.
fn entries(w: &Workload) -> Vec<DriftLogEntry> {
    w.rows
        .iter()
        .map(|(ts, vals, drift)| DriftLogEntry {
            timestamp: *ts,
            attrs: w
                .schema
                .iter()
                .zip(vals)
                .map(|(k, &v)| Attribute::new(k.clone(), value_name(v)))
                .collect(),
            drift: *drift,
        })
        .collect()
}

fn build_from(w: &Workload, entries: &[DriftLogEntry]) -> DriftLog {
    let keys: Vec<&str> = w.schema.iter().map(|s| s.as_str()).collect();
    let mut log = DriftLog::new(&keys);
    log.extend(entries.iter().cloned())
        .expect("workload rows match schema");
    log
}

/// Every query of the suite on `log` against the reference over `entries`.
fn assert_queries_match(
    w: &Workload,
    log: &DriftLog,
    entries: &[DriftLogEntry],
) -> Result<(), TestCaseError> {
    for set in query_sets(w) {
        prop_assert_eq!(
            log.count_matching(&set, None).expect("known keys"),
            reference::count_matching(entries, &set, None)
        );
        prop_assert_eq!(
            log.count_matching(&set, Some(&w.mask)).expect("known keys"),
            reference::count_matching(entries, &set, Some(&w.mask))
        );
        prop_assert_eq!(
            log.rows_matching(&set).expect("known keys"),
            reference::rows_matching(entries, &set)
        );
    }
    for key in &w.schema {
        // A log keeps interned values whose rows retention dropped (at zero
        // counts, in interning order); the reference only sees live rows.
        let mut live = log.distinct_values(key).expect("known key");
        live.retain(|(_, c)| c.occurrences > 0);
        live.sort_by(|a, b| a.0.cmp(&b.0));
        let mut want = reference::distinct_values(entries, key);
        want.sort_by(|a, b| a.0.cmp(&b.0));
        prop_assert_eq!(live, want);
        prop_assert_eq!(
            log.group_counts(key).expect("known key"),
            reference::group_counts(entries, key)
        );
    }
    prop_assert_eq!(
        log.num_drifted(),
        entries.iter().filter(|e| e.drift).count()
    );
    Ok(())
}

/// Query sets exercising hits, misses, multi-key intersections (two to
/// four predicates, in and out of schema order), and unknown values.
fn query_sets(w: &Workload) -> Vec<Vec<Attribute>> {
    let mut sets = vec![
        Vec::new(),
        vec![Attribute::new("key0", value_name(0))],
        vec![Attribute::new("key0", "never-interned")],
    ];
    if w.schema.len() >= 2 {
        sets.push(vec![
            Attribute::new("key0", value_name(0)),
            Attribute::new("key1", value_name(1)),
        ]);
        sets.push(vec![
            Attribute::new("key1", value_name(2)),
            Attribute::new("key0", value_name(0)),
        ]);
    }
    if w.schema.len() >= 3 {
        sets.push(vec![
            Attribute::new("key0", value_name(0)),
            Attribute::new("key1", value_name(0)),
            Attribute::new("key2", value_name(0)),
        ]);
        sets.push(vec![
            Attribute::new("key2", value_name(1)),
            Attribute::new("key0", value_name(0)),
            Attribute::new("key1", value_name(1)),
        ]);
    }
    if w.schema.len() >= 4 {
        sets.push(vec![
            Attribute::new("key0", value_name(0)),
            Attribute::new("key1", value_name(0)),
            Attribute::new("key2", value_name(0)),
            Attribute::new("key3", value_name(1)),
        ]);
        sets.push(vec![
            Attribute::new("key3", value_name(0)),
            Attribute::new("key1", value_name(1)),
            Attribute::new("key0", value_name(0)),
            Attribute::new("key2", value_name(0)),
        ]);
    }
    sets
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn indexed_queries_equal_naive_scan(w in workload()) {
        let entries = entries(&w);
        let log = build_from(&w, &entries);
        assert_queries_match(&w, &log, &entries)?;
        // Never retained: value order is first-use order, exactly.
        for key in &w.schema {
            prop_assert_eq!(
                log.distinct_values(key).expect("known key"),
                reference::distinct_values(&entries, key)
            );
        }
    }

    #[test]
    fn window_and_retention_equal_naive_scan(w in workload(), cut in (0usize..270, 0usize..270), keep in 0usize..270) {
        let entries = entries(&w);
        let log = build_from(&w, &entries);
        // Window (a random `slice`): same rows and same first-use interning
        // order as a log pushed from the reference's rows.
        let n = entries.len();
        let rows = cut.0.min(cut.1).min(n)..cut.0.max(cut.1).min(n);
        let want = &entries[rows.clone()];
        let windowed = log.slice(rows);
        prop_assert_eq!(&windowed, &build_from(&w, want));
        assert_queries_match(&w, &windowed, want)?;
        // Retention: the last `keep` rows, re-based to row 0.
        let mut retained = log.clone();
        retained.retain_last(keep);
        let want = reference::last(&entries, keep);
        prop_assert_eq!(retained.num_rows(), want.len());
        for (row, e) in want.iter().enumerate() {
            prop_assert_eq!(&retained.entry(row).expect("row in range"), e);
        }
        assert_queries_match(&w, &retained, want)?;
    }
}

/// What one step of [`queries_see_every_append`] does with its `n`.
const PUSH: u8 = 0;
const INGEST: u8 = 1;
const APPEND: u8 = 2;
const RETAIN: u8 = 3;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Queries interleaved with every kind of append — `push`,
    /// `ingest_batch`, `append_rows` by code — and with `retain_last`: a
    /// query after an append must see exactly the rows the reference holds.
    #[test]
    fn queries_see_every_append(w in workload(), ops in proptest::collection::vec((0u8..5, 0usize..80), 1..24)) {
        let all = entries(&w);
        // The rows `append_rows` copies from, by code.
        let source = build_from(&w, &all);
        let keys: Vec<&str> = w.schema.iter().map(|s| s.as_str()).collect();
        let mut log = DriftLog::new(&keys);
        let mut want: Vec<DriftLogEntry> = Vec::new();
        let mut next = 0;
        for (op, n) in ops {
            // The next `n` workload rows (fewer at the end), cycling.
            let rows = next..all.len().min(next + n);
            next = if rows.end == all.len() { 0 } else { rows.end };
            match op {
                PUSH => {
                    for e in &all[rows.clone()] {
                        log.push(e.clone()).expect("schema matches");
                    }
                }
                INGEST => {
                    let report = log.ingest_batch(all[rows.clone()].to_vec());
                    prop_assert_eq!(report.appended, rows.len());
                }
                APPEND => log.append_rows(&source, rows.clone()).expect("same schema"),
                RETAIN => {
                    log.retain_last(n);
                    want = reference::last(&want, n).to_vec();
                    continue;
                }
                _ => {
                    assert_queries_match(&w, &log, &want)?;
                    continue;
                }
            }
            want.extend_from_slice(&all[rows]);
        }
        assert_queries_match(&w, &log, &want)?;
    }
}
