//! Differential suite: a [`DriftStore`] fed a randomized op stream —
//! pushes, batch ingests with quarantined entries, flushes, retention
//! and mid-stream reopens — must answer every query *bitwise
//! identically* to an in-memory [`DriftLog`] that received the same
//! rows, and to the naive row-scan [`reference`] over the rows it
//! accepted. (These workloads are a few hundred rows, far below the
//! store's chunk fan-out threshold; `parallel_scan.rs` covers the parallel
//! branch.)
//!
//! The store and the log share one evaluator: the store scans each
//! decoded chunk (`nazar_log::probe::ColumnarBlock`) and asks its tail —
//! itself a `DriftLog` — for the rest, and the log scans its own block
//! with the same kernels. So the log pins the store's exact answer shape
//! (dictionary order, zero-count values), and the reference, which shares
//! no code with either, pins the answers themselves. Any row lost,
//! duplicated, reordered, mis-decoded or mis-scanned shows up as a
//! mismatch. Every workload runs with the chunk cache off, at one block
//! and at eight, so the scans read cold blocks, reused blocks and cached
//! ones.

#[path = "../../log/tests/reference/mod.rs"]
mod reference;

use std::sync::Arc;

use nazar_log::{Attribute, DriftLog, DriftLogEntry, MatchCounts};
use nazar_store::{DriftStore, MemoryBackend, Storage, StoreConfig, MANIFEST_KEY};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

fn schema_refs(schema: &[String]) -> Vec<&str> {
    schema.iter().map(|s| s.as_str()).collect()
}

fn value_name(v: u64) -> String {
    format!("v{v}")
}

/// One step of the randomized workload.
#[derive(Debug, Clone)]
enum Op {
    /// Batch-ingest entries; `bad` of them (at random positions) carry a
    /// wrong-arity attribute list and must be quarantined identically.
    Ingest(Vec<DriftLogEntry>),
    /// Seal the tail to the backend.
    Flush,
    /// Keep only the last `n` rows.
    Retain(usize),
    /// Drop the store and reopen it from the same backend (flushes
    /// first, so no rows are meant to be lost).
    Reopen,
}

#[derive(Debug, Clone)]
struct Workload {
    schema: Vec<String>,
    ops: Vec<Op>,
    mask: Vec<bool>,
    chunk_rows: usize,
}

/// The chunk-cache sizes every workload runs at.
const CACHE_CHUNKS: [usize; 3] = [0, 1, 8];

#[derive(Debug, Clone, Copy)]
struct WorkloadStrategy;

impl Strategy for WorkloadStrategy {
    type Value = Workload;

    fn generate(&self, rng: &mut TestRng) -> Workload {
        let n_cols = 1 + rng.below(3) as usize;
        let n_vals = 1 + rng.below(5);
        let schema: Vec<String> = (0..n_cols).map(|c| format!("key{c}")).collect();
        let n_ops = 1 + rng.below(12) as usize;
        let mut ops = Vec::with_capacity(n_ops);
        let mut total_rows = 0usize;
        for _ in 0..n_ops {
            match rng.below(10) {
                0..=5 => {
                    let n = rng.below(30) as usize;
                    let entries = (0..n)
                        .map(|_| {
                            let ts = rng.below(500);
                            let drift = rng.next_u64() & 1 == 1;
                            if rng.below(12) == 0 {
                                // Wrong arity: quarantined by both sides.
                                DriftLogEntry::new(ts, &[("bogus", "x")], drift)
                            } else {
                                let attrs: Vec<(String, String)> = schema
                                    .iter()
                                    .map(|k| (k.clone(), value_name(rng.below(n_vals))))
                                    .collect();
                                let refs: Vec<(&str, &str)> = attrs
                                    .iter()
                                    .map(|(k, v)| (k.as_str(), v.as_str()))
                                    .collect();
                                DriftLogEntry::new(ts, &refs, drift)
                            }
                        })
                        .collect::<Vec<_>>();
                    total_rows += entries.len();
                    ops.push(Op::Ingest(entries));
                }
                6 | 7 => ops.push(Op::Flush),
                8 => ops.push(Op::Retain(rng.below(total_rows.max(1) as u64 * 2) as usize)),
                _ => ops.push(Op::Reopen),
            }
        }
        let mask_len = rng.below(400) as usize;
        Workload {
            schema,
            ops,
            mask: (0..mask_len).map(|_| rng.next_u64() & 1 == 1).collect(),
            chunk_rows: 1 + rng.below(16) as usize,
        }
    }
}

fn workload() -> WorkloadStrategy {
    WorkloadStrategy
}

fn config(w: &Workload, cache_chunks: usize) -> StoreConfig {
    StoreConfig {
        dir: None,
        chunk_rows: w.chunk_rows,
        cache_chunks,
    }
}

/// The in-memory oracle and the rows the reference scans: every entry
/// the schema accepted, minus those retention dropped.
struct Oracle {
    log: DriftLog,
    entries: Vec<DriftLogEntry>,
}

/// Replays the op stream into a persistent store (on `backend`) and the
/// oracle, returning both in their final states.
fn replay(w: &Workload, cache_chunks: usize) -> (DriftStore, Oracle) {
    let refs = schema_refs(&w.schema);
    let backend = Arc::new(MemoryBackend::new());
    let config = || config(w, cache_chunks);
    let mut store = DriftStore::open(backend.clone(), &refs, config()).expect("open fresh store");
    let mut oracle = Oracle {
        log: DriftLog::new(&refs),
        entries: Vec::new(),
    };
    for op in &w.ops {
        match op {
            Op::Ingest(entries) => {
                let got = store.ingest_batch(entries.clone());
                let want = oracle.log.ingest_batch(entries.clone());
                assert_eq!(got, want, "ingest reports diverged");
                let fits = |e: &&DriftLogEntry| {
                    e.attrs.len() == w.schema.len() && w.schema.iter().all(|k| e.attr(k).is_some())
                };
                oracle.entries.extend(entries.iter().filter(fits).cloned());
            }
            Op::Flush => {
                store.flush().expect("flush");
            }
            Op::Retain(n) => {
                store.retain_last(*n).expect("retain_last");
                oracle.log.retain_last(*n);
                oracle.entries = reference::last(&oracle.entries, *n).to_vec();
            }
            Op::Reopen => {
                store.flush().expect("flush before reopen");
                drop(store);
                store = DriftStore::open(backend.clone(), &refs, config())
                    .expect("reopen from backend");
                assert!(
                    store.recovery().is_clean(),
                    "clean reopen repaired something: {:?}",
                    store.recovery()
                );
            }
        }
    }
    (store, oracle)
}

/// Query sets exercising empty sets, hits, misses, intersections of two
/// and three predicates, and never-interned values, built from the
/// oracle's actual dictionaries.
fn query_sets(oracle: &DriftLog) -> Vec<Vec<Attribute>> {
    let schema = oracle.schema();
    let val = |ci: usize, i: usize| oracle.dict_values(ci).get(i).cloned();
    let mut sets = vec![
        Vec::new(),
        vec![Attribute::new(schema[0].clone(), "never-interned")],
    ];
    if let Some(v) = val(0, 0) {
        sets.push(vec![Attribute::new(schema[0].clone(), v)]);
    }
    if schema.len() >= 2 {
        if let (Some(a), Some(b)) = (val(0, 0), val(1, 1).or_else(|| val(1, 0))) {
            sets.push(vec![
                Attribute::new(schema[0].clone(), a.clone()),
                Attribute::new(schema[1].clone(), b.clone()),
            ]);
            sets.push(vec![
                Attribute::new(schema[1].clone(), b.clone()),
                Attribute::new(schema[0].clone(), a.clone()),
            ]);
            if let Some(c) = (schema.len() >= 3).then(|| val(2, 0)).flatten() {
                sets.push(vec![
                    Attribute::new(schema[2].clone(), c),
                    Attribute::new(schema[0].clone(), a),
                    Attribute::new(schema[1].clone(), b),
                ]);
            }
        }
    }
    sets
}

fn assert_store_equals_oracle(store: &DriftStore, oracle: &Oracle, mask: &[bool]) {
    let (log, entries) = (&oracle.log, &oracle.entries[..]);
    assert_eq!(store.num_rows(), log.num_rows());
    assert_eq!(store.num_rows(), entries.len());
    assert_eq!(store.num_drifted(), log.num_drifted());
    for set in query_sets(log) {
        let count = store.count_matching(&set, None).expect("count");
        assert_eq!(count, log.count_matching(&set, None).expect("count"));
        assert_eq!(
            count,
            reference::count_matching(entries, &set, None),
            "count_matching({set:?})"
        );
        let masked = store.count_matching(&set, Some(mask)).expect("count");
        assert_eq!(masked, log.count_matching(&set, Some(mask)).expect("count"));
        assert_eq!(
            masked,
            reference::count_matching(entries, &set, Some(mask)),
            "masked count_matching({set:?})"
        );
        let rows = store.rows_matching(&set).expect("rows");
        assert_eq!(rows, log.rows_matching(&set).expect("rows"));
        assert_eq!(
            rows,
            reference::rows_matching(entries, &set),
            "rows_matching({set:?})"
        );
    }
    for key in log.schema() {
        let distinct = store.distinct_values(key).expect("distinct");
        assert_eq!(distinct, log.distinct_values(key).expect("distinct"));
        // The store keeps interned values whose rows retention dropped (at
        // zero counts, in interning order); the reference only sees live
        // rows, in first-use order.
        let mut live = distinct;
        live.retain(|(_, c)| c.occurrences > 0);
        live.sort_by(|a, b| a.0.cmp(&b.0));
        let mut want = reference::distinct_values(entries, key);
        want.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(live, want, "distinct_values({key})");
        let groups = store.group_counts(key).expect("group");
        assert_eq!(groups, log.group_counts(key).expect("group"));
        assert_eq!(
            groups,
            reference::group_counts(entries, key),
            "group_counts({key})"
        );
    }
    // Row reconstruction must agree everywhere.
    for (row, want) in entries.iter().enumerate() {
        let got = store.entry(row).expect("entry");
        assert_eq!(got, log.entry(row).expect("entry"));
        assert_eq!(&got, want, "entry({row})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn persisted_queries_equal_in_memory(w in workload()) {
        for cache_chunks in CACHE_CHUNKS {
            let (store, oracle) = replay(&w, cache_chunks);
            assert_store_equals_oracle(&store, &oracle, &w.mask);
        }
    }

    #[test]
    fn reopen_after_final_flush_preserves_everything(w in workload()) {
        for cache_chunks in CACHE_CHUNKS {
            let (mut store, oracle) = replay(&w, cache_chunks);
            store.flush().expect("final flush");
            let backend_store = store; // keep backend alive through reopen
            let refs = schema_refs(&w.schema);
            // Reopening *twice* must also be stable (open is idempotent).
            for _ in 0..2 {
                let reopened = DriftStore::open(
                    backend_store.storage_handle(),
                    &refs,
                    config(&w, cache_chunks),
                )
                .expect("reopen");
                prop_assert!(reopened.recovery().is_clean());
                assert_store_equals_oracle(&reopened, &oracle, &w.mask);
            }
        }
    }
}

/// Deterministic pin of the unflushed-loss semantics: rows pushed after
/// the last flush are gone after reopen, rows before it all survive.
#[test]
fn reopen_rolls_back_to_last_flush() {
    let backend = Arc::new(MemoryBackend::new());
    let config = StoreConfig {
        chunk_rows: 4,
        ..StoreConfig::memory()
    };
    let mut store = DriftStore::open(backend.clone(), &["k"], config.clone()).expect("open");
    for i in 0..10u64 {
        store
            .push(DriftLogEntry::new(
                i,
                &[("k", value_name(i % 3).as_str())],
                i % 2 == 0,
            ))
            .expect("push");
    }
    store.flush().expect("flush");
    assert_eq!(store.durable_rows(), 10);
    for i in 10..13u64 {
        store
            .push(DriftLogEntry::new(i, &[("k", "late")], false))
            .expect("push");
    }
    assert_eq!(store.num_rows(), 13);
    assert_eq!(store.durable_rows(), 10);
    drop(store);
    let store = DriftStore::open(backend, &["k"], config).expect("reopen");
    assert_eq!(store.num_rows(), 10);
    assert_eq!(
        store
            .count_matching(&[Attribute::new("k", "late")], None)
            .expect("count"),
        MatchCounts::default()
    );
}

/// A larger fixed-seed run against the filesystem backend: several
/// thousand rows, many chunks, a mid-run reopen — all queries equal.
#[test]
fn filesystem_backend_differential_smoke() {
    let dir = std::env::temp_dir().join(format!("nazar-store-diff-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = StoreConfig {
        chunk_rows: 256,
        cache_chunks: 2,
        ..StoreConfig::at(dir.to_string_lossy().into_owned())
    };
    let schema = ["weather", "location"];
    let mut store = DriftStore::open_config(&schema, config.clone()).expect("open");
    let mut oracle = Oracle {
        log: DriftLog::new(&schema),
        entries: Vec::new(),
    };
    let mk = |i: u64| {
        DriftLogEntry::new(
            i * 7 % 5000,
            &[
                ("weather", ["snow", "clear", "rain"][(i % 3) as usize]),
                ("location", ["nyc", "helsinki"][(i % 2) as usize]),
            ],
            i.is_multiple_of(5),
        )
    };
    for i in 0..3000 {
        let e = mk(i);
        store.push(e.clone()).expect("push");
        oracle.log.push(e.clone()).expect("push");
        oracle.entries.push(e);
        if i % 700 == 0 {
            store.flush().expect("flush");
        }
    }
    store.flush().expect("flush");
    drop(store);
    let store = DriftStore::open_config(&schema, config).expect("reopen");
    assert!(store.recovery().is_clean());
    assert!(store.num_chunks() > 5, "expected many chunks");
    let mask: Vec<bool> = (0..3000).map(|i| i % 7 == 0).collect();
    assert_store_equals_oracle(&store, &oracle, &mask);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A quarantined entry interns nothing: 1 000 entries, each with a fresh
/// leading value and a second key the schema lacks, leave every dictionary at its
/// length — in the log and in the store, by batch and by `push` — and the
/// store's next flush has no dictionary growth to write, so the manifest
/// stays byte for byte what the last flush wrote.
#[test]
fn quarantined_entries_intern_nothing() {
    let schema = ["weather", "location"];
    let good = DriftLogEntry::new(0, &[("weather", "snow"), ("location", "nyc")], true);
    let bad: Vec<DriftLogEntry> = (0..1_000)
        .map(|i| {
            let weather = format!("w{i}");
            DriftLogEntry::new(i, &[("weather", &weather), ("altitude", "high")], false)
        })
        .collect();
    let backend = Arc::new(MemoryBackend::new());
    let mut store =
        DriftStore::open(backend.clone(), &schema, StoreConfig::memory()).expect("open");
    let mut log = DriftLog::new(&schema);
    store.push(good.clone()).expect("push");
    log.push(good).expect("push");
    store.flush().expect("flush");
    let manifest = backend.get(MANIFEST_KEY).expect("read").expect("manifest");

    assert_eq!(store.ingest_batch(&bad).quarantined, bad.len());
    assert_eq!(log.ingest_batch(bad.clone()).quarantined, bad.len());
    for e in bad {
        assert!(store.push(e.clone()).is_err());
        assert!(log.push(e).is_err());
    }
    for (ci, key) in schema.iter().enumerate() {
        assert_eq!(log.dict_values(ci).len(), 1, "log dict {key}");
        assert_eq!(
            store.distinct_values(key).expect("known key").len(),
            1,
            "store dict {key}"
        );
    }
    assert_eq!(store.flush().expect("flush"), Default::default());
    assert_eq!(
        backend.get(MANIFEST_KEY).expect("read").expect("manifest"),
        manifest
    );
}
