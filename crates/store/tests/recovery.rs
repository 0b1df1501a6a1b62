//! Crash-safety suite: mutate bytes on the backend — torn writes,
//! truncations, bit flips, vanished chunks, hostile manifests — and
//! assert the store recovers by *dropping* (typed, counted, never a
//! panic), with every query over the survivors still bitwise identical
//! to an in-memory log that saw only the surviving rows.

use std::sync::Arc;

use nazar_log::{Attribute, DriftLog, DriftLogEntry};
use nazar_store::{DriftStore, MemoryBackend, Storage, StoreConfig, StoreError, MANIFEST_KEY};

fn entry(i: u64) -> DriftLogEntry {
    // Later rows keep interning fresh values, so dictionary truncation on
    // recovery is actually exercised (dropped chunks carry codes the
    // survivors never interned).
    DriftLogEntry::new(
        i * 10,
        &[
            ("weather", format!("w{}", i / 3).as_str()),
            ("location", ["nyc", "helsinki"][(i % 2) as usize]),
        ],
        i.is_multiple_of(3),
    )
}

/// A store with `rows` rows flushed at `chunk_rows` per chunk, plus the
/// backend it lives on and the matching full in-memory oracle.
fn seeded(rows: u64, chunk_rows: usize) -> (Arc<MemoryBackend>, StoreConfig, DriftLog) {
    let backend = Arc::new(MemoryBackend::new());
    let config = StoreConfig {
        chunk_rows,
        ..StoreConfig::memory()
    };
    let mut store =
        DriftStore::open(backend.clone(), &["weather", "location"], config.clone()).expect("open");
    let mut oracle = DriftLog::new(&["weather", "location"]);
    for i in 0..rows {
        store.push(entry(i)).expect("push");
        oracle.push(entry(i)).expect("push");
    }
    store.flush().expect("flush");
    (backend, config, oracle)
}

/// The oracle for "only the first `n` rows survived".
fn oracle_prefix(n: u64) -> DriftLog {
    let mut oracle = DriftLog::new(&["weather", "location"]);
    for i in 0..n {
        oracle.push(entry(i)).expect("push");
    }
    oracle
}

fn chunk_keys(backend: &MemoryBackend) -> Vec<String> {
    backend
        .list()
        .expect("list")
        .into_iter()
        .filter(|k| k != MANIFEST_KEY)
        .collect()
}

fn assert_equals_oracle(store: &DriftStore, oracle: &DriftLog) {
    assert_eq!(store.num_rows(), oracle.num_rows());
    assert_eq!(store.num_drifted(), oracle.num_drifted());
    for key in ["weather", "location"] {
        assert_eq!(
            store.distinct_values(key).expect("distinct"),
            oracle.distinct_values(key).expect("distinct")
        );
    }
    let probe = [Attribute::new("location", "nyc")];
    assert_eq!(
        store.count_matching(&probe, None).expect("count"),
        oracle.count_matching(&probe, None).expect("count")
    );
    assert_eq!(
        store.rows_matching(&probe).expect("rows"),
        oracle.rows_matching(&probe).expect("rows")
    );
    for row in 0..oracle.num_rows() {
        assert_eq!(
            store.entry(row).expect("entry"),
            oracle.entry(row).expect("entry")
        );
    }
}

#[test]
fn corrupted_checksum_drops_chunk_and_suffix() {
    // 10 rows at 4/chunk: chunks of 4, 4, 2 rows.
    let (backend, config, _) = seeded(10, 4);
    let keys = chunk_keys(&backend);
    assert_eq!(keys.len(), 3);
    // Flip one payload byte in the second chunk.
    let mut bytes = backend.get(&keys[1]).expect("get").expect("exists");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    backend.put(&keys[1], &bytes).expect("put");

    let store =
        DriftStore::open(backend.clone(), &["weather", "location"], config).expect("reopen");
    // Chunk 1 and its successor chunk 2 are gone; chunk 0's 4 rows live.
    assert_eq!(store.recovery().dropped_chunks, 2);
    assert_eq!(store.recovery().swept_orphans, 2);
    assert_equals_oracle(&store, &oracle_prefix(4));
}

#[test]
fn truncated_chunk_is_dropped() {
    let (backend, config, _) = seeded(8, 4);
    let keys = chunk_keys(&backend);
    let bytes = backend.get(&keys[1]).expect("get").expect("exists");
    backend
        .put(&keys[1], &bytes[..bytes.len() / 3])
        .expect("put");
    let store = DriftStore::open(backend, &["weather", "location"], config).expect("reopen");
    assert_eq!(store.recovery().dropped_chunks, 1);
    assert_equals_oracle(&store, &oracle_prefix(4));
}

#[test]
fn missing_chunk_is_dropped() {
    let (backend, config, _) = seeded(12, 4);
    let keys = chunk_keys(&backend);
    backend.delete(&keys[0]).expect("delete");
    let store = DriftStore::open(backend, &["weather", "location"], config).expect("reopen");
    // The *first* chunk died, so everything goes.
    assert_eq!(store.recovery().dropped_chunks, 3);
    assert_eq!(store.num_rows(), 0);
    assert_equals_oracle(&store, &oracle_prefix(0));
}

#[test]
fn recovered_store_keeps_working_after_new_writes() {
    let (backend, config, _) = seeded(10, 4);
    let keys = chunk_keys(&backend);
    backend.delete(&keys[2]).expect("delete");
    let mut store = DriftStore::open(backend.clone(), &["weather", "location"], config.clone())
        .expect("reopen");
    assert_eq!(store.recovery().dropped_chunks, 1);
    // Continue the stream where the survivors left off (rows 8..14), then
    // flush, reopen, and compare against the matching oracle.
    let mut oracle = oracle_prefix(8);
    for i in 8..14 {
        store.push(entry(i)).expect("push");
        oracle.push(entry(i)).expect("push");
    }
    store.flush().expect("flush");
    drop(store);
    let store = DriftStore::open(backend, &["weather", "location"], config).expect("reopen");
    assert!(store.recovery().is_clean());
    assert_equals_oracle(&store, &oracle);
}

#[test]
fn every_single_byte_flip_recovers_without_panicking() {
    let (backend, config, _) = seeded(6, 4);
    let keys = chunk_keys(&backend);
    let original = backend.get(&keys[1]).expect("get").expect("exists");
    let manifest = backend.get(MANIFEST_KEY).expect("get").expect("exists");
    for i in 0..original.len() {
        // Each recovery legitimately rewrites the manifest and sweeps the
        // torn chunk; restore both before the next injected flip.
        backend.put(MANIFEST_KEY, &manifest).expect("put");
        let mut mutated = original.clone();
        mutated[i] ^= 0x80;
        backend.put(&keys[1], &mutated).expect("put");
        let store = DriftStore::open(backend.clone(), &["weather", "location"], config.clone())
            .expect("open never fails on a torn chunk");
        assert_eq!(
            store.recovery().dropped_chunks,
            1,
            "flip at byte {i} was not detected"
        );
        assert_eq!(store.num_rows(), 4);
    }
    // Restore and confirm the clean path still has everything.
    backend.put(MANIFEST_KEY, &manifest).expect("put");
    backend.put(&keys[1], &original).expect("put");
    let store = DriftStore::open(backend, &["weather", "location"], config).expect("open");
    assert!(store.recovery().is_clean());
    assert_equals_oracle(&store, &oracle_prefix(6));
}

#[test]
fn narrower_chunk_with_valid_crc_is_dropped_at_open_not_a_panic() {
    use nazar_store::chunk::{decode_chunk, encode_chunk};
    use nazar_store::codec::crc32;
    use nazar_store::Manifest;

    let (backend, config, _) = seeded(10, 4);
    let keys = chunk_keys(&backend);
    // Re-encode chunk 1's rows with one column dropped: the chunk's own
    // CRC footer is valid, rows/drifted/ts bounds all match the manifest —
    // and the manifest's cross-check crc32 is forged to match too (the
    // manifest has no integrity protection of its own). Only the column
    // arity gives it away; without that check this panics on a
    // by-schema-position column index.
    let bytes = backend.get(&keys[1]).expect("get").expect("exists");
    let mut data = decode_chunk(&keys[1], &bytes).expect("decode");
    data.columns.pop();
    let (narrow, _) = encode_chunk(&data);
    backend.put(&keys[1], &narrow).expect("put");
    let mut manifest = Manifest::read_from(&*backend)
        .expect("read manifest")
        .expect("present");
    let meta = manifest
        .chunks
        .iter_mut()
        .find(|m| m.key == keys[1])
        .expect("chunk listed");
    meta.crc32 = crc32(&narrow[..narrow.len() - 4]);
    manifest.write_to(&*backend).expect("write manifest");

    let store =
        DriftStore::open(backend.clone(), &["weather", "location"], config).expect("reopen");
    // Chunk 1 and its successor are dropped like any other torn chunk.
    assert_eq!(store.recovery().dropped_chunks, 2);
    assert_equals_oracle(&store, &oracle_prefix(4));
}

#[test]
fn narrower_chunk_swapped_under_a_live_store_is_a_typed_error() {
    use nazar_store::chunk::{decode_chunk, encode_chunk};

    let (backend, config, _) = seeded(10, 4);
    let store = DriftStore::open(backend.clone(), &["weather", "location"], config).expect("open");
    // Swap a full chunk for a narrower (but checksum-valid, same-row-count)
    // one after open: queries must surface a typed error, never index past
    // the decoded columns.
    let keys = chunk_keys(&backend);
    let bytes = backend.get(&keys[0]).expect("get").expect("exists");
    let mut data = decode_chunk(&keys[0], &bytes).expect("decode");
    data.columns.pop();
    let (narrow, _) = encode_chunk(&data);
    backend.put(&keys[0], &narrow).expect("put");

    let err = store
        .count_matching(&[Attribute::new("location", "nyc")], None)
        .expect_err("narrower chunk must not probe");
    assert!(matches!(err, StoreError::Corrupt { .. }), "got {err:?}");
}

#[test]
fn corrupt_manifest_is_a_typed_error_not_a_panic() {
    let (backend, config, _) = seeded(6, 4);
    for garbage in [
        &b"not json at all"[..],
        br#"{"version": 999}"#,
        br#"{"version": 1, "schema": ["weather","location"], "dicts": [[]], "chunks": [], "next_chunk_id": 0}"#,
        &[0xFF, 0xFE, 0x00][..],
    ] {
        backend.put(MANIFEST_KEY, garbage).expect("put");
        let err = DriftStore::open(
            backend.clone(),
            &["weather", "location"],
            config.clone(),
        )
        .expect_err("hostile manifest must error");
        assert!(
            matches!(err, StoreError::ManifestCorrupt { .. }),
            "got {err:?}"
        );
    }
}

#[test]
fn schema_mismatch_is_refused() {
    let (backend, config, _) = seeded(6, 4);
    let err = DriftStore::open(backend, &["weather"], config).expect_err("schema differs");
    assert!(
        matches!(err, StoreError::SchemaMismatch { .. }),
        "got {err:?}"
    );
}

#[test]
fn orphan_chunks_are_swept_at_open() {
    let (backend, config, oracle) = seeded(6, 4);
    backend
        .put("chunk-zzzzzz.nzc", b"stray bytes")
        .expect("put");
    let store = DriftStore::open(backend.clone(), &["weather", "location"], config).expect("open");
    assert_eq!(store.recovery().swept_orphans, 1);
    assert_eq!(store.recovery().dropped_chunks, 0);
    assert!(!backend
        .list()
        .expect("list")
        .contains(&"chunk-zzzzzz.nzc".to_string()));
    assert_equals_oracle(&store, &oracle);
}

#[test]
fn fresh_directory_with_stray_files_starts_empty() {
    let backend = Arc::new(MemoryBackend::new());
    backend.put("chunk-unknown.nzc", b"junk").expect("put");
    let store =
        DriftStore::open(backend, &["weather", "location"], StoreConfig::memory()).expect("open");
    assert_eq!(store.recovery().swept_orphans, 1);
    assert!(store.is_empty());
}
