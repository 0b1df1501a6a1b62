//! Kill-point harness for the persistent drift-log store (DESIGN.md §13).
//!
//! The flush and retention paths are multi-op storage transactions (chunk
//! puts → manifest rewrite → stale-key deletes). This suite simulates a
//! crash at *every* point in those transactions by injecting a dead-disk
//! failure at the Nth mutating storage op, then reopens the survivors and
//! asserts the store recovered to a consistent durable state — either the
//! pre-transaction rows or the post-transaction rows, never a torn mix,
//! never a panic, never a dropped-chunk loss (puts are atomic).
//!
//! The `healed` variants additionally keep using the *same live instance*
//! after an injected failure (the orchestrator deliberately outlives flush
//! errors): in-memory state must stay consistent with the durable manifest
//! so a retried flush/retention converges instead of corrupting.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use nazar_log::{DriftLog, DriftLogEntry};
use nazar_store::{DriftStore, MemoryBackend, Storage, StoreConfig, StoreError};

/// Wraps a [`MemoryBackend`] and fails mutating ops (`put`/`delete`)
/// whose index lands in `[fail_at, fail_until)`. With `fail_until` at
/// `usize::MAX` that is a disk that dies mid-transaction and stays dead
/// (how a crash looks to the bytes that survive it); with
/// `fail_until == fail_at + 1` it is a transient fault — one failed op,
/// then the disk heals and the *same live store* keeps getting used.
#[derive(Debug)]
struct FailpointStorage {
    inner: Arc<MemoryBackend>,
    fail_at: usize,
    fail_until: usize,
    ops: AtomicUsize,
}

impl FailpointStorage {
    fn new(inner: Arc<MemoryBackend>, fail_at: usize, fail_until: usize) -> FailpointStorage {
        FailpointStorage {
            inner,
            fail_at,
            fail_until,
            ops: AtomicUsize::new(0),
        }
    }

    fn mutating_ops(&self) -> usize {
        self.ops.load(Ordering::SeqCst)
    }

    fn trip(&self) -> Result<(), StoreError> {
        let op = self.ops.fetch_add(1, Ordering::SeqCst);
        if op >= self.fail_at && op < self.fail_until {
            Err(StoreError::Io {
                op: "failpoint",
                path: format!("injected failure at mutating op {op}"),
                message: "simulated crash".to_string(),
            })
        } else {
            Ok(())
        }
    }
}

impl Storage for FailpointStorage {
    fn put(&self, key: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.trip()?;
        self.inner.put(key, bytes)
    }

    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, StoreError> {
        self.inner.get(key)
    }

    fn delete(&self, key: &str) -> Result<(), StoreError> {
        self.trip()?;
        self.inner.delete(key)
    }

    fn list(&self) -> Result<Vec<String>, StoreError> {
        self.inner.list()
    }
}

const SCHEMA: [&str; 2] = ["weather", "location"];

fn entry(i: u64) -> DriftLogEntry {
    DriftLogEntry::new(
        i * 10,
        &[
            ("weather", format!("w{}", i / 4).as_str()),
            ("location", ["nyc", "helsinki", "lagos"][(i % 3) as usize]),
        ],
        i.is_multiple_of(2),
    )
}

/// An in-memory log that lived the same life as the store: saw the whole
/// stream `0..stream_len`, then retained only the last `kept` rows. (A
/// fresh log over just the suffix would differ — retention keeps the
/// dictionaries, including values the surviving rows never mention.)
fn oracle(stream_len: u64, kept: u64) -> DriftLog {
    let mut log = DriftLog::new(&SCHEMA);
    for i in 0..stream_len {
        log.push(entry(i)).expect("push");
    }
    log.retain_last(kept as usize);
    log
}

/// The reopened store must hold exactly the last `kept` rows of the
/// stream `0..stream_len` and answer every query like the in-memory log
/// with the same history.
fn assert_state(store: &DriftStore, stream_len: u64, kept: u64) {
    let oracle = oracle(stream_len, kept);
    assert_eq!(store.num_rows(), oracle.num_rows());
    assert_eq!(store.num_drifted(), oracle.num_drifted());
    for row in 0..oracle.num_rows() {
        assert_eq!(
            store.entry(row).expect("entry"),
            oracle.entry(row).expect("entry")
        );
    }
    for key in SCHEMA {
        assert_eq!(
            store.distinct_values(key).expect("distinct"),
            oracle.distinct_values(key).expect("distinct")
        );
    }
}

/// Seeds a backend with `durable` rows flushed at `chunk_rows`, then
/// pushes `extra` more unflushed rows into a store handle over a
/// failpoint wrapper failing mutating ops `[fail_at, fail_until)`.
/// Returns the inner backend and the store handle (pre-crash).
fn seeded_with_failpoint(
    durable: u64,
    extra: u64,
    chunk_rows: usize,
    fail_at: usize,
    fail_until: usize,
) -> (Arc<MemoryBackend>, Arc<FailpointStorage>, DriftStore) {
    let inner = Arc::new(MemoryBackend::new());
    let config = StoreConfig {
        chunk_rows,
        ..StoreConfig::memory()
    };
    let mut seed = DriftStore::open(inner.clone(), &SCHEMA, config.clone()).expect("open");
    for i in 0..durable {
        seed.push(entry(i)).expect("push");
    }
    seed.flush().expect("seed flush");
    drop(seed);

    let failpoint = Arc::new(FailpointStorage::new(inner.clone(), fail_at, fail_until));
    let mut store =
        DriftStore::open(failpoint.clone() as Arc<dyn Storage>, &SCHEMA, config).expect("reopen");
    for i in durable..durable + extra {
        store.push(entry(i)).expect("push");
    }
    (inner, failpoint, store)
}

#[test]
fn flush_killed_at_every_op_recovers_to_a_consistent_state() {
    // 10 durable rows (3 chunks of 4, 4, 2 — the last partial) plus 7 new
    // rows: the flush must replace the partial chunk and write new ones.
    let (durable, extra, chunk_rows) = (10u64, 7u64, 4usize);

    // Dry run to learn how many mutating ops a full flush takes.
    let (_, failpoint, mut store) =
        seeded_with_failpoint(durable, extra, chunk_rows, usize::MAX, usize::MAX);
    store.flush().expect("unimpeded flush");
    let total_ops = failpoint.mutating_ops();
    assert!(total_ops >= 3, "flush should put chunks + manifest");

    for fail_at in 0..total_ops {
        let (inner, _, mut store) =
            seeded_with_failpoint(durable, extra, chunk_rows, fail_at, usize::MAX);
        let result = store.flush();
        assert!(
            result.is_err(),
            "kill-point {fail_at} should surface the injected error"
        );
        drop(store); // the crash

        let reopened = DriftStore::open(
            inner,
            &SCHEMA,
            StoreConfig {
                chunk_rows,
                ..StoreConfig::memory()
            },
        )
        .expect("recovery open never fails on a killed transaction");
        // Atomic puts mean no chunk is ever torn by a kill-point; at worst
        // un-referenced keys get swept.
        assert_eq!(
            reopened.recovery().dropped_chunks,
            0,
            "kill-point {fail_at}"
        );
        let rows = reopened.num_rows() as u64;
        assert!(
            rows == durable || rows == durable + extra,
            "kill-point {fail_at}: {rows} rows is neither the pre- nor \
             post-flush durable state"
        );
        assert_state(&reopened, rows, rows);
    }
}

#[test]
fn retention_killed_at_every_op_recovers_to_a_consistent_state() {
    // Retention drops head chunks and re-slices the boundary chunk: puts a
    // replacement key, rewrites the manifest, deletes the stale keys.
    let (durable, chunk_rows, keep) = (14u64, 4usize, 5usize);

    let (_, failpoint, mut store) =
        seeded_with_failpoint(durable, 0, chunk_rows, usize::MAX, usize::MAX);
    store.retain_last(keep).expect("unimpeded retain");
    let total_ops = failpoint.mutating_ops();
    assert!(total_ops >= 2, "retention should rewrite and delete");

    for fail_at in 0..total_ops {
        let (inner, _, mut store) =
            seeded_with_failpoint(durable, 0, chunk_rows, fail_at, usize::MAX);
        assert!(store.retain_last(keep).is_err(), "kill-point {fail_at}");
        drop(store);

        let reopened = DriftStore::open(
            inner,
            &SCHEMA,
            StoreConfig {
                chunk_rows,
                ..StoreConfig::memory()
            },
        )
        .expect("recovery open");
        assert_eq!(
            reopened.recovery().dropped_chunks,
            0,
            "kill-point {fail_at}"
        );
        let rows = reopened.num_rows() as u64;
        assert!(
            rows == durable || rows == keep as u64,
            "kill-point {fail_at}: {rows} rows"
        );
        assert_state(&reopened, durable, rows);
    }
}

/// A flush that fails mid-transaction must leave the *live* instance
/// consistent, not just the bytes a reopen would recover: the orchestrator
/// deliberately keeps running after flush errors, so a later flush on the
/// same `DriftStore` (once the disk heals) must not pop a full data chunk
/// as the "old partial", delete its key, or write an overlapping manifest.
#[test]
fn live_store_stays_usable_after_a_healed_flush_failure_at_every_op() {
    let (durable, extra, chunk_rows) = (10u64, 7u64, 4usize);

    let (_, failpoint, mut store) =
        seeded_with_failpoint(durable, extra, chunk_rows, usize::MAX, usize::MAX);
    store.flush().expect("unimpeded flush");
    let total_ops = failpoint.mutating_ops();

    for fail_at in 0..total_ops {
        // Fail exactly one mutating op, then heal.
        let (inner, _, mut store) =
            seeded_with_failpoint(durable, extra, chunk_rows, fail_at, fail_at + 1);
        assert!(store.flush().is_err(), "kill-point {fail_at}");
        // The live store still answers every query over all its rows.
        assert_state(&store, durable + extra, durable + extra);

        // Keep using the same instance: push one more row and re-flush.
        store.push(entry(durable + extra)).expect("push");
        store.flush().expect("healed flush must succeed");
        let total = durable + extra + 1;
        assert_state(&store, total, total);
        drop(store);

        // The durable state must hold everything — no chunk lost to the
        // failed attempt, no manifest with overlapping row ranges (which
        // would fail open with ManifestCorrupt).
        let reopened = DriftStore::open(
            inner,
            &SCHEMA,
            StoreConfig {
                chunk_rows,
                ..StoreConfig::memory()
            },
        )
        .expect("reopen after healed failure");
        assert_eq!(
            reopened.recovery().dropped_chunks,
            0,
            "kill-point {fail_at}"
        );
        assert_state(&reopened, total, total);
    }
}

/// Same discipline for retention: a mid-transaction failure must leave the
/// live store either fully pre- or fully post-retention, and a retried
/// `retain_last` on the same instance must converge without losing any
/// durable chunk.
#[test]
fn live_store_stays_usable_after_a_healed_retention_failure_at_every_op() {
    let (durable, chunk_rows, keep) = (14u64, 4usize, 5usize);

    let (_, failpoint, mut store) =
        seeded_with_failpoint(durable, 0, chunk_rows, usize::MAX, usize::MAX);
    store.retain_last(keep).expect("unimpeded retain");
    let total_ops = failpoint.mutating_ops();

    for fail_at in 0..total_ops {
        let (inner, _, mut store) =
            seeded_with_failpoint(durable, 0, chunk_rows, fail_at, fail_at + 1);
        assert!(store.retain_last(keep).is_err(), "kill-point {fail_at}");
        // Never a torn middle on the live instance: all rows or `keep`.
        let rows = store.num_rows() as u64;
        assert!(
            rows == durable || rows == keep as u64,
            "kill-point {fail_at}: live store holds {rows} rows"
        );
        assert_state(&store, durable, rows);

        // Healed retry converges, and the store keeps flushing new rows.
        store.retain_last(keep).expect("healed retain");
        assert_state(&store, durable, keep as u64);
        store.push(entry(durable)).expect("push");
        store.flush().expect("flush after retention");
        drop(store);

        let reopened = DriftStore::open(
            inner,
            &SCHEMA,
            StoreConfig {
                chunk_rows,
                ..StoreConfig::memory()
            },
        )
        .expect("reopen after healed retention failure");
        assert_eq!(
            reopened.recovery().dropped_chunks,
            0,
            "kill-point {fail_at}"
        );
        assert_state(&reopened, durable + 1, keep as u64 + 1);
    }
}

#[test]
fn degenerate_store_shapes_hold_up() {
    // chunk_rows = 1: every row its own chunk, partial tails impossible.
    let backend = Arc::new(MemoryBackend::new());
    let config = StoreConfig {
        chunk_rows: 1,
        ..StoreConfig::memory()
    };
    let mut store = DriftStore::open(backend.clone(), &SCHEMA, config.clone()).expect("open");
    for i in 0..5 {
        store.push(entry(i)).expect("push");
    }
    store.flush().expect("flush");
    assert_eq!(store.num_chunks(), 5);
    drop(store);
    let store = DriftStore::open(backend, &SCHEMA, config).expect("reopen");
    assert_state(&store, 5, 5);

    // Flushing an empty store, twice, is a durable no-op.
    let backend = Arc::new(MemoryBackend::new());
    let mut store =
        DriftStore::open(backend.clone(), &SCHEMA, StoreConfig::memory()).expect("open");
    let report = store.flush().expect("flush");
    assert_eq!(report.chunks_written, 0);
    assert_eq!(store.flush().expect("flush again").chunks_written, 0);
    assert!(store.is_empty());

    // A schema-less store: zero columns, only timestamps and drift flags.
    let backend = Arc::new(MemoryBackend::new());
    let config = StoreConfig {
        chunk_rows: 2,
        ..StoreConfig::memory()
    };
    let mut store = DriftStore::open(backend.clone(), &[], config.clone()).expect("open");
    for t in 0..5u64 {
        store
            .push(DriftLogEntry::new(t, &[], t % 2 == 0))
            .expect("push");
    }
    store.flush().expect("flush");
    drop(store);
    let store = DriftStore::open(backend, &[], config).expect("reopen");
    assert_eq!(store.num_rows(), 5);
    assert_eq!(store.num_drifted(), 3);
    let counts = store.count_matching(&[], None).expect("count");
    assert_eq!((counts.occurrences, counts.drifted), (5, 3));
    let last = store.entry(4).expect("entry");
    assert_eq!(last, DriftLogEntry::new(4, &[], true));

    // Retention down through every count to empty, reopening each time.
    let backend = Arc::new(MemoryBackend::new());
    let config = StoreConfig {
        chunk_rows: 3,
        ..StoreConfig::memory()
    };
    let mut store = DriftStore::open(backend.clone(), &SCHEMA, config.clone()).expect("open");
    for i in 0..9 {
        store.push(entry(i)).expect("push");
    }
    store.flush().expect("flush");
    for keep in (0..=9usize).rev() {
        store.retain_last(keep).expect("retain");
        store.flush().expect("flush");
        drop(store);
        store = DriftStore::open(backend.clone(), &SCHEMA, config.clone()).expect("reopen");
        assert!(store.recovery().is_clean(), "keep {keep}");
        assert_state(&store, 9, keep as u64);
    }
}
