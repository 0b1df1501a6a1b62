//! Chunk codes outside their dictionaries: a checksum-valid chunk whose
//! codes break the manifest's bounds is corrupt, and says so with a typed
//! [`StoreError::Corrupt`] instead of answering queries from a partial
//! index. The chunks are built with `encode_chunk` and listed in a
//! hand-written manifest, so their CRCs are sound and only the codes lie.

use std::sync::Arc;

use nazar_log::Attribute;
use nazar_store::chunk::{encode_chunk, ChunkData};
use nazar_store::{
    ChunkMeta, DriftStore, Manifest, MemoryBackend, Storage, StoreConfig, StoreError,
};

const SCHEMA: [&str; 2] = ["weather", "location"];
const KEY: &str = "chunk-00000000.nzc";

/// A backend holding one 4-row chunk of `weather` codes `codes` under a
/// manifest whose weather dictionary has four values and whose chunk entry
/// records `dict_lens`.
fn backend_with_chunk(codes: [u32; 4], dict_lens: [u64; 2]) -> Arc<MemoryBackend> {
    let data = ChunkData {
        columns: vec![codes.to_vec(), vec![0; 4]],
        drift: vec![true, false, true, false],
        timestamps: vec![10, 20, 30, 40],
    };
    let (bytes, stats) = encode_chunk(&data);
    let backend = Arc::new(MemoryBackend::new());
    backend.put(KEY, &bytes).expect("put chunk");
    let crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4-byte footer"));
    let mut manifest = Manifest::new(&SCHEMA.map(String::from));
    manifest.dicts = vec![
        ["snow", "rain", "fog", "clear"].map(String::from).to_vec(),
        vec!["nyc".to_string()],
    ];
    manifest.chunks.push(ChunkMeta {
        key: KEY.to_string(),
        start_row: 0,
        rows: 4,
        drifted: 2,
        ts_min: 10,
        ts_max: 40,
        crc32: crc,
        encoded_bytes: bytes.len() as u64,
        raw_bytes: stats.raw_total(),
        dict_lens: dict_lens.to_vec(),
    });
    manifest.next_chunk_id = 1;
    manifest.write_to(&*backend).expect("write manifest");
    backend
}

fn open(backend: Arc<MemoryBackend>, chunk_rows: usize) -> nazar_store::Result<DriftStore> {
    let config = StoreConfig {
        chunk_rows,
        ..StoreConfig::memory()
    };
    DriftStore::open(backend, &SCHEMA, config)
}

fn is_corrupt<T: std::fmt::Debug>(result: nazar_store::Result<T>) -> bool {
    matches!(result, Err(StoreError::Corrupt { ref key, .. }) if key == KEY)
}

#[test]
fn a_full_chunk_code_past_its_dict_lens_fails_every_query() {
    // Code 2 (`fog`) is inside the four-value dictionary but at the chunk's
    // recorded high-water mark of 2: the chunk claims rows it cannot hold.
    let backend = backend_with_chunk([0, 1, 2, 1], [2, 1]);
    let store = open(backend, 4).expect("the chunk's bytes and header are sound");
    assert!(store.recovery().is_clean());
    let rain = [Attribute::new("weather", "rain")];
    assert!(is_corrupt(store.count_matching(&rain, None)));
    assert!(is_corrupt(store.count_matching(&[], None)));
    assert!(is_corrupt(store.rows_matching(&rain)));
    assert!(is_corrupt(store.distinct_values("weather")));
    assert!(is_corrupt(store.group_counts("location")));
    assert!(is_corrupt(store.entry(0)));

    // The same chunk under bounds that hold answers normally.
    let store = open(backend_with_chunk([0, 1, 2, 1], [3, 1]), 4).expect("open");
    let counts = store.count_matching(&rain, None).expect("count");
    assert_eq!((counts.occurrences, counts.drifted), (2, 0));
    assert_eq!(store.rows_matching(&rain).expect("rows"), vec![1, 3]);
}

#[test]
fn a_partial_tail_chunk_code_outside_the_dictionary_fails_reopen() {
    // Code 4 is past the four-value dictionary. At 8 rows per chunk the
    // 4-row chunk is the partial tail chunk, replayed into the tail at
    // open. (`dict_lens` stays within the manifest's dictionaries, as
    // manifest validation requires.)
    let backend = backend_with_chunk([0, 1, 4, 1], [4, 1]);
    assert!(is_corrupt(open(backend.clone(), 8)));
    // Read as a full chunk instead, the same code fails its first query.
    let store = open(backend, 4).expect("open");
    assert!(is_corrupt(store.distinct_values("weather")));
}

#[test]
fn a_partial_tail_chunk_code_past_its_dict_lens_fails_reopen() {
    // Code 2 is inside the four-value dictionary but at the chunk's
    // recorded high-water mark of 2. At 8 rows per chunk the 4-row chunk
    // is the partial tail chunk; its bytes are as corrupt there as they
    // are read as a full chunk, whatever the configured chunk size.
    let backend = backend_with_chunk([0, 1, 2, 1], [2, 1]);
    assert!(is_corrupt(open(backend, 8)));
    // Under bounds that hold, the same partial chunk reopens into the tail.
    let store = open(backend_with_chunk([0, 1, 2, 1], [3, 1]), 8).expect("open");
    assert!(store.recovery().is_clean());
    assert_eq!(store.tail_rows(), 4);
    let fog = store
        .count_matching(&[Attribute::new("weather", "fog")], None)
        .expect("count");
    assert_eq!((fog.occurrences, fog.drifted), (1, 1));
}
