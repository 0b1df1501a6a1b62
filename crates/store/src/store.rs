//! The persistent drift log: tail buffer, flush, recovery, queries.
//!
//! # Layout
//!
//! A [`DriftStore`] is an in-memory tail [`DriftLog`] (holding the global
//! dictionaries plus every not-yet-sealed row) in front of a row-ordered
//! list of immutable chunks on a [`Storage`] backend:
//!
//! ```text
//! rows:    [ chunk 0 ][ chunk 1 ]...[ partial tail chunk ?? ]
//!                                   [        tail (in memory)         ]
//!          ^0                       ^tail_start               ^num_rows
//! ```
//!
//! Full chunks cover `[0, tail_start)`. When the tail does not divide
//! evenly into chunks, [`DriftStore::flush`] also seals its leading
//! remainder as one *partial* chunk starting at `tail_start` — those rows
//! stay in the tail too, and the next flush replaces the partial chunk
//! with a fuller one (new key → atomic manifest rewrite → delete old
//! key), which is what makes every crash point recoverable.
//!
//! # Equivalence contract
//!
//! Chunks store *global* dictionary codes, and every query reads "each
//! full chunk's block, then the tail, merged in row order": each decoded
//! block and the tail's own block are scanned by the same kernels
//! ([`nazar_log::probe`]), the merge rules are the in-memory log's, and
//! the chunk map is the order-preserving
//! [`par_map_with`](nazar_tensor::parallel::par_map_with) — so every query
//! result equals an in-memory [`DriftLog`] holding the same rows, at any
//! `NAZAR_NUM_THREADS`. The differential tests in `tests/` compare the
//! store with such a log and with a naive row scan, on both sides of the
//! fan-out threshold.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use nazar_log::probe::{self, ColumnarBlock};
use nazar_log::{Attribute, DriftLog, DriftLogEntry, IngestReport, LogError, MatchCounts};
use nazar_obs::{Counter, Histogram};
use nazar_tensor::parallel;

use crate::chunk::{decode_chunk, encode_chunk, verify_chunk, ChunkData, EncodeStats};
use crate::codec::crc32;
use crate::config::StoreConfig;
use crate::manifest::{self, ChunkMeta, Manifest, MANIFEST_KEY};
use crate::storage::{FsBackend, MemoryBackend, Storage};
use crate::{Result, StoreError};

static CHUNKS_WRITTEN: Counter = Counter::new("nazar_store_chunks_written_total", &[]);

static BYTES_RAW: Counter = Counter::new("nazar_store_bytes_raw_total", &[]);

static BYTES_ENCODED: Counter = Counter::new("nazar_store_bytes_encoded_total", &[]);

static MANIFEST_REWRITES: Counter = Counter::new("nazar_store_manifest_rewrites_total", &[]);

static RECOVERY_DROPPED_TORN: Counter =
    Counter::new("nazar_store_recovery_dropped_total", &[("reason", "torn")]);

static RECOVERY_DROPPED_ORPHAN: Counter = Counter::new(
    "nazar_store_recovery_dropped_total",
    &[("reason", "orphan")],
);

// Which chunks are decoded from the backend (vs served from cache)
// depends on eviction order, hence on thread scheduling — volatile, like
// every cache hit/miss split (PR 7 telemetry rules).
static CHUNKS_READ: Counter = Counter::new_volatile("nazar_store_chunks_read_total", &[]);

static CACHE_HITS: Counter =
    Counter::new_volatile("nazar_store_chunk_cache_total", &[("result", "hit")]);

static CACHE_MISSES: Counter =
    Counter::new_volatile("nazar_store_chunk_cache_total", &[("result", "miss")]);

static FLUSH_SECONDS: Histogram = Histogram::new(
    "nazar_store_flush_seconds",
    &[],
    nazar_obs::DURATION_BUCKETS,
);

/// Rows of chunk work per parallel task: decoding + probing a chunk costs
/// tens of ns per row, so below this the fan-out overhead dominates and
/// queries stay sequential.
const ROWS_PER_TASK: usize = 1 << 15;

fn fanout_width(threads: usize, total_rows: usize) -> usize {
    if threads <= 1 {
        1
    } else {
        threads.min((total_rows / ROWS_PER_TASK).max(1))
    }
}

/// Outcome of one [`DriftStore::flush`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlushReport {
    /// Chunks written (including a replaced partial tail chunk).
    pub chunks_written: usize,
    /// Rows newly made durable by this flush.
    pub rows_sealed: usize,
    /// Whether a previous partial tail chunk was replaced.
    pub replaced_tail_chunk: bool,
    /// Raw/encoded byte accounting across the written chunks.
    pub stats: EncodeStats,
}

/// What [`DriftStore::open`] found and repaired on the backend.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Rows recovered from surviving chunks.
    pub rows_recovered: usize,
    /// Manifest-listed chunks dropped (torn, corrupt, missing, or
    /// following one that was).
    pub dropped_chunks: usize,
    /// Unreferenced keys swept from the backend.
    pub swept_orphans: usize,
}

impl RecoveryReport {
    /// True when open found a perfectly clean store.
    pub fn is_clean(&self) -> bool {
        self.dropped_chunks == 0 && self.swept_orphans == 0
    }
}

/// Decoded-chunk cache (keyed by chunk storage key), ordered from the
/// least recently used entry at the front to the most recent at the back.
///
/// A hit moves its entry to the back. A miss enters at the *front*,
/// evicting whatever was there, so a scan wider than the cache churns one
/// slot and keeps the other `cap - 1`: every query of an in-order mix
/// over `cap + k` chunks finds `cap - 1` of them cached, where an LRU
/// would have evicted each chunk before its next read.
#[derive(Debug, Default)]
struct ChunkCache {
    entries: VecDeque<(String, Arc<ColumnarBlock>)>,
}

impl ChunkCache {
    fn get(&mut self, key: &str) -> Option<Arc<ColumnarBlock>> {
        let pos = self.entries.iter().position(|(k, _)| k == key)?;
        let entry = self.entries.remove(pos)?;
        let block = entry.1.clone();
        self.entries.push_back(entry);
        Some(block)
    }

    fn put(&mut self, cap: usize, key: &str, block: Arc<ColumnarBlock>) {
        if cap == 0 {
            return;
        }
        self.entries.retain(|(k, _)| k != key);
        if self.entries.len() >= cap {
            self.entries.pop_front();
        }
        self.entries.push_front((key.to_string(), block));
    }

    fn evict(&mut self, key: &str) {
        self.entries.retain(|(k, _)| k != key);
    }
}

/// Checks a decoded chunk against its manifest entry: its row count, its
/// column count against the schema width `columns`, and every code below
/// its column's `dict_lens`. `dict_lens` records the dictionaries after
/// the chunk's rows, so a code under it resolves through the global
/// dictionaries; manifest validation pins its arity to the schema width.
/// Block loads and the partial tail chunk at reopen both go through here.
fn check_against_meta(meta: &ChunkMeta, data: &ChunkData, columns: usize) -> Result<()> {
    let corrupt = |reason: String| StoreError::Corrupt {
        key: meta.key.clone(),
        reason,
    };
    if data.rows() as u64 != meta.rows {
        return Err(corrupt("row count disagrees with manifest".to_string()));
    }
    if data.columns.len() != columns {
        return Err(corrupt(format!(
            "chunk has {} columns, schema has {columns}",
            data.columns.len()
        )));
    }
    for ((ci, column), &len) in data.columns.iter().enumerate().zip(&meta.dict_lens) {
        if let Some(code) = column
            .iter()
            .copied()
            .max()
            .filter(|&c| u64::from(c) >= len)
        {
            return Err(corrupt(format!(
                "column {ci} code {code} at or past its dict_lens {len}"
            )));
        }
    }
    Ok(())
}

/// A tail log over the dictionaries `dicts`, holding no rows yet.
fn empty_tail(schema: &[String], dicts: Vec<Vec<String>>) -> Result<DriftLog> {
    let columns = vec![Vec::new(); schema.len()];
    Ok(DriftLog::with_dict_values(
        schema,
        dicts,
        columns,
        Vec::new(),
        Vec::new(),
    )?)
}

/// The persistent chunked drift log. See the crate docs for the layout.
#[derive(Debug)]
pub struct DriftStore {
    storage: Arc<dyn Storage>,
    config: StoreConfig,
    /// Live chunks in row order; the last one is the partial tail chunk
    /// iff `tail_sealed > 0`.
    chunks: Vec<ChunkMeta>,
    next_chunk_id: u64,
    /// Global dictionaries + all rows from `tail_start` on.
    tail: DriftLog,
    /// Global row index of `tail`'s first row.
    tail_start: usize,
    /// Leading tail rows that are also in the partial tail chunk.
    tail_sealed: usize,
    /// Per-column dictionary lengths at the last manifest write, to
    /// detect dictionary growth that must reach the manifest.
    manifest_dict_lens: Vec<usize>,
    /// The buffer each manifest is written into, kept between writes.
    manifest_json: String,
    recovery: RecoveryReport,
    cache: Mutex<ChunkCache>,
}

impl DriftStore {
    /// Opens (or creates) a store over `schema` on `storage`, running
    /// crash recovery: manifest-listed chunks are verified in row order,
    /// the first torn/corrupt/missing chunk and everything after it are
    /// dropped (dictionaries truncated back to the last survivor's
    /// high-water marks), unreferenced keys are swept, and — when
    /// anything was repaired — the manifest is rewritten atomically.
    ///
    /// # Errors
    ///
    /// I/O failures, a corrupt manifest, or a schema mismatch with an
    /// existing store. Torn *chunks* are never errors: they are dropped
    /// and reported via [`DriftStore::recovery`].
    pub fn open(
        storage: Arc<dyn Storage>,
        schema: &[&str],
        config: StoreConfig,
    ) -> Result<DriftStore> {
        let schema_strings: Vec<String> = schema.iter().map(|s| s.to_string()).collect();
        let manifest = Manifest::read_from(&*storage)?;
        let mut store = match manifest {
            None => DriftStore {
                storage,
                tail: empty_tail(&schema_strings, vec![Vec::new(); schema_strings.len()])?,
                chunks: Vec::new(),
                next_chunk_id: 0,
                tail_start: 0,
                tail_sealed: 0,
                manifest_dict_lens: vec![0; schema_strings.len()],
                manifest_json: String::new(),
                recovery: RecoveryReport::default(),
                cache: Mutex::new(ChunkCache::default()),
                config,
            },
            Some(manifest) => {
                if manifest.schema != schema_strings {
                    return Err(StoreError::SchemaMismatch {
                        expected: schema_strings,
                        found: manifest.schema,
                    });
                }
                Self::recover(storage, schema_strings, manifest, config)?
            }
        };
        store.sweep_orphans()?;
        if store.recovery.dropped_chunks > 0 {
            store.write_manifest()?;
        }
        Ok(store)
    }

    /// [`DriftStore::open`] with the backend built from the config:
    /// [`FsBackend`] at `config.dir` when set (interrupted temp files
    /// swept), [`MemoryBackend`] otherwise.
    pub fn open_config(schema: &[&str], config: StoreConfig) -> Result<DriftStore> {
        let storage: Arc<dyn Storage> = match &config.dir {
            Some(dir) => {
                let fs = FsBackend::open(dir)?;
                fs.sweep_temp_files()?;
                Arc::new(fs)
            }
            None => Arc::new(MemoryBackend::new()),
        };
        DriftStore::open(storage, schema, config)
    }

    /// Rebuilds store state from a parsed manifest, dropping the suffix
    /// of chunks starting at the first one that fails verification.
    fn recover(
        storage: Arc<dyn Storage>,
        schema: Vec<String>,
        manifest: Manifest,
        config: StoreConfig,
    ) -> Result<DriftStore> {
        let mut survivors: Vec<ChunkMeta> = Vec::with_capacity(manifest.chunks.len());
        let mut last_bytes: Option<Vec<u8>> = None;
        let mut dropped = 0usize;
        for meta in manifest.chunks {
            if dropped > 0 {
                // Everything after the first bad chunk goes too: rows must
                // stay contiguous, and later dictionary codes may depend
                // on values interned by the bad chunk's rows.
                dropped += 1;
                continue;
            }
            match Self::verify_against_meta(&*storage, &meta)? {
                Some(bytes) => {
                    last_bytes = Some(bytes);
                    survivors.push(meta);
                }
                None => dropped += 1,
            }
        }
        RECOVERY_DROPPED_TORN.add(dropped as u64);

        // Truncate dictionaries to the last survivor's high-water marks:
        // dictionaries only grow, so this reproduces the first-use
        // interning state of a log that saw only the surviving rows. A
        // fully intact store keeps the manifest's dictionaries verbatim
        // (they may include values interned after the last seal).
        let dicts: Vec<Vec<String>> = if dropped == 0 {
            manifest.dicts
        } else {
            let lens: Vec<usize> = match survivors.last() {
                Some(meta) => meta.dict_lens.iter().map(|&l| l as usize).collect(),
                None => vec![0; schema.len()],
            };
            manifest
                .dicts
                .into_iter()
                .zip(&lens)
                .map(|(mut values, &len)| {
                    values.truncate(len);
                    values
                })
                .collect()
        };

        // An undersized last chunk is the partial tail chunk: its rows
        // load back into the tail, by their codes, so the next flush can
        // replace it with a fuller one. (After retention resizes chunks
        // this is heuristic — loading a full-size last chunk into the tail
        // would be equally correct, just pointless memory.)
        let total_rows: usize = survivors.iter().map(|m| m.rows as usize).sum();
        let partial = match (survivors.last(), &last_bytes) {
            (Some(meta), Some(bytes)) if (meta.rows as usize) < config.chunk_rows_clamped() => {
                let data = decode_chunk(&meta.key, bytes)?;
                check_against_meta(meta, &data, schema.len())?;
                Some((meta, data))
            }
            _ => None,
        };
        let (tail, tail_start, tail_sealed) = match partial {
            Some((meta, data)) => {
                let rows = data.rows();
                let tail = DriftLog::with_dict_values(
                    &schema,
                    dicts,
                    data.columns,
                    data.drift,
                    data.timestamps,
                )
                .map_err(|e| StoreError::Corrupt {
                    key: meta.key.clone(),
                    reason: e.to_string(),
                })?;
                (tail, meta.start_row as usize, rows)
            }
            None => (empty_tail(&schema, dicts)?, total_rows, 0),
        };
        let manifest_dict_lens = (0..schema.len())
            .map(|ci| tail.dict_values(ci).len())
            .collect();

        Ok(DriftStore {
            storage,
            config,
            chunks: survivors,
            next_chunk_id: manifest.next_chunk_id,
            tail,
            tail_start,
            tail_sealed,
            manifest_dict_lens,
            manifest_json: String::new(),
            recovery: RecoveryReport {
                rows_recovered: total_rows,
                dropped_chunks: dropped,
                swept_orphans: 0,
            },
            cache: Mutex::new(ChunkCache::default()),
        })
    }

    /// Reads and verifies one manifest-listed chunk. `Ok(None)` means the
    /// chunk is torn/missing/inconsistent and must be dropped; `Err` is
    /// reserved for backend I/O failures.
    fn verify_against_meta(storage: &dyn Storage, meta: &ChunkMeta) -> Result<Option<Vec<u8>>> {
        let Some(bytes) = storage.get(&meta.key)? else {
            return Ok(None);
        };
        let Ok(header) = verify_chunk(&meta.key, &bytes) else {
            return Ok(None);
        };
        // `dict_lens` arity equals the schema width (manifest validation),
        // so this also pins the chunk's column count to the schema —
        // without it a checksum-valid chunk of the wrong width would panic
        // downstream code that indexes columns by schema position.
        // `verify_chunk` has checked the footer CRC against the bytes, so
        // comparing the footer with the manifest's CRC covers the bytes.
        let matches = header.columns == meta.dict_lens.len()
            && header.rows as u64 == meta.rows
            && header.drifted as u64 == meta.drifted
            && (header.rows == 0 || (header.ts_min, header.ts_max) == (meta.ts_min, meta.ts_max))
            && header.crc32 == meta.crc32;
        Ok(matches.then_some(bytes))
    }

    /// Deletes backend keys no live chunk (nor the manifest) references —
    /// residue of a crash between a chunk write and the manifest rewrite.
    fn sweep_orphans(&mut self) -> Result<()> {
        for key in self.storage.list()? {
            let live = key == MANIFEST_KEY || self.chunks.iter().any(|m| m.key == key);
            if !live {
                self.storage.delete(&key)?;
                self.recovery.swept_orphans += 1;
                RECOVERY_DROPPED_ORPHAN.inc();
            }
        }
        Ok(())
    }

    // -- introspection ------------------------------------------------------

    /// The attribute schema, in column order.
    pub fn schema(&self) -> &[String] {
        self.tail.schema()
    }

    /// The store's configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// A shared handle to the underlying storage backend (what tests and
    /// the fault-injection harness reopen stores from).
    pub fn storage_handle(&self) -> Arc<dyn Storage> {
        self.storage.clone()
    }

    /// What [`DriftStore::open`] found and repaired.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Total rows (chunked + tail).
    pub fn num_rows(&self) -> usize {
        self.tail_start + self.tail.num_rows()
    }

    /// True when the store holds no rows.
    pub fn is_empty(&self) -> bool {
        self.num_rows() == 0
    }

    /// Total drift-flagged rows.
    pub fn num_drifted(&self) -> usize {
        self.full_chunks()
            .map(|m| m.drifted as usize)
            .sum::<usize>()
            + self.tail.num_drifted()
    }

    /// Live chunks on the backend (including the partial tail chunk).
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Rows currently buffered in the in-memory tail.
    pub fn tail_rows(&self) -> usize {
        self.tail.num_rows()
    }

    /// Rows that would survive a crash right now.
    pub fn durable_rows(&self) -> usize {
        self.tail_start + self.tail_sealed
    }

    /// Chunks whose rows are *not* duplicated in the tail.
    fn full_chunks(&self) -> impl Iterator<Item = &ChunkMeta> {
        let tail_start = self.tail_start as u64;
        self.chunks.iter().filter(move |m| m.start_row < tail_start)
    }

    // -- ingest -------------------------------------------------------------

    /// Appends one entry (into the in-memory tail; durable after the
    /// next [`DriftStore::flush`]).
    ///
    /// # Errors
    ///
    /// Exactly [`DriftLog::push`]'s errors, wrapped in
    /// [`StoreError::Log`].
    pub fn push(&mut self, entry: DriftLogEntry) -> Result<()> {
        self.tail.push(entry).map_err(StoreError::from)
    }

    /// Appends a batch, quarantining invalid entries — delegates to
    /// [`DriftLog::ingest_entries`] on the tail. The rows are only read:
    /// pass a slice, or anything that lends one.
    pub fn ingest_batch(&mut self, entries: impl AsRef<[DriftLogEntry]>) -> IngestReport {
        self.tail.ingest_entries(entries.as_ref())
    }

    /// Appends rows `rows` of `src` by their codes — delegates to
    /// [`DriftLog::append_rows`] on the tail, so the store ends where
    /// ingesting those rows' entries would leave it.
    ///
    /// # Errors
    ///
    /// [`StoreError::Log`] when `src`'s schema is not the store's.
    pub fn append_rows(&mut self, src: &DriftLog, rows: std::ops::Range<usize>) -> Result<()> {
        Ok(self.tail.append_rows(src, rows)?)
    }

    // -- flush --------------------------------------------------------------

    /// Seals the tail into chunks and rewrites the manifest.
    ///
    /// Full `chunk_rows`-sized chunks are written for as much of the tail
    /// as divides evenly; the remainder becomes the new partial tail
    /// chunk (replacing the previous one *after* the manifest rewrite, so
    /// every crash point recovers to either the old or the new state).
    /// Rows sealed into full chunks leave the tail; partial-chunk rows
    /// stay, to be resealed by the next flush.
    ///
    /// A no-op when nothing changed since the last flush.
    ///
    /// # Errors
    ///
    /// Backend I/O failures. All changes are staged in locals and the
    /// in-memory state is committed only after every backend write
    /// succeeded, so a failed flush leaves the store exactly as it was
    /// (just less durable) — callers may keep using it and retry; at
    /// worst the failed attempt leaves unreferenced keys behind, swept
    /// at the next open.
    pub fn flush(&mut self) -> Result<FlushReport> {
        let start = std::time::Instant::now();
        let chunk_rows = self.config.chunk_rows_clamped();
        let tail_rows = self.tail.num_rows();
        let dicts_grew = (0..self.schema().len())
            .any(|ci| self.tail.dict_values(ci).len() != self.manifest_dict_lens[ci]);
        if tail_rows == self.tail_sealed && !dicts_grew {
            return Ok(FlushReport::default());
        }
        let mut report = FlushReport {
            rows_sealed: tail_rows - self.tail_sealed,
            ..FlushReport::default()
        };

        if tail_rows > self.tail_sealed {
            // Seal the whole tail as fresh chunks (replacing the old
            // partial chunk, whose rows are the tail's leading rows). The
            // new chunk list is built in a local: a put or manifest write
            // can fail mid-transaction (ENOSPC, dead disk) and the live
            // store must still describe exactly the durable state the old
            // manifest does.
            let mut new_chunks = self.chunks.clone();
            let old_partial = if self.tail_sealed > 0 {
                new_chunks.pop()
            } else {
                None
            };
            // Per-chunk dictionary high-water marks: the running max code
            // used by rows *up through each chunk* (codes are assigned
            // densely in first-use order, so `max code + 1` is exactly
            // the dictionary length after those rows). Recovery relies on
            // this to truncate dictionaries when it drops a chunk suffix.
            let mut running_lens: Vec<u64> = new_chunks
                .last()
                .map(|m| m.dict_lens.clone())
                .unwrap_or_else(|| vec![0; self.schema().len()]);
            let mut start_local = 0usize;
            while start_local < tail_rows {
                let n = (tail_rows - start_local).min(chunk_rows);
                let data = ChunkData {
                    columns: (0..self.schema().len())
                        .map(|ci| self.tail.column_codes(ci)[start_local..start_local + n].to_vec())
                        .collect(),
                    drift: self.tail.drift_flags()[start_local..start_local + n].to_vec(),
                    timestamps: self.tail.timestamps()[start_local..start_local + n].to_vec(),
                };
                for (ci, column) in data.columns.iter().enumerate() {
                    for &code in column {
                        running_lens[ci] = running_lens[ci].max(u64::from(code) + 1);
                    }
                }
                let (meta, stats) = self.write_chunk(
                    &data,
                    (self.tail_start + start_local) as u64,
                    running_lens.clone(),
                )?;
                report.stats.add(&stats);
                report.chunks_written += 1;
                new_chunks.push(meta);
                start_local += n;
            }
            self.write_manifest_for(&new_chunks)?;
            // Commit: every chunk and the manifest landed. Only the stale
            // partial-chunk delete remains, and if it fails the key is
            // merely an unreferenced orphan.
            self.chunks = new_chunks;
            let new_tail_sealed = tail_rows % chunk_rows;
            let dropped = tail_rows - new_tail_sealed;
            self.tail.retain_last(new_tail_sealed);
            self.tail_start += dropped;
            self.tail_sealed = new_tail_sealed;
            if let Some(old) = old_partial {
                report.replaced_tail_chunk = true;
                self.lock_cache().evict(&old.key);
                self.storage.delete(&old.key)?;
            }
        } else {
            // Dictionary growth without new rows: manifest rewrite only,
            // so the manifest never lags the dictionaries.
            self.write_manifest()?;
        }
        FLUSH_SECONDS.observe_since(start);
        Ok(report)
    }

    /// Encodes and writes one chunk, returning its manifest entry and
    /// the per-family byte accounting.
    fn write_chunk(
        &mut self,
        data: &ChunkData,
        start_row: u64,
        dict_lens: Vec<u64>,
    ) -> Result<(ChunkMeta, EncodeStats)> {
        let (bytes, stats) = encode_chunk(data);
        let key = format!("chunk-{:08}.nzc", self.next_chunk_id);
        self.next_chunk_id += 1;
        self.storage.put(&key, &bytes)?;
        CHUNKS_WRITTEN.inc();
        BYTES_RAW.add(stats.raw_total());
        BYTES_ENCODED.add(stats.encoded_total());
        let (ts_min, ts_max) = data.ts_range();
        let meta = ChunkMeta {
            crc32: crc32(&bytes[..bytes.len() - 4]),
            key,
            start_row,
            rows: data.rows() as u64,
            drifted: data.drifted() as u64,
            ts_min,
            ts_max,
            encoded_bytes: bytes.len() as u64,
            raw_bytes: stats.raw_total(),
            dict_lens,
        };
        Ok((meta, stats))
    }

    /// Atomically writes the current manifest (schema, dictionaries,
    /// chunk list) and records the dictionary high-water marks.
    fn write_manifest(&mut self) -> Result<()> {
        let chunks = self.chunks.clone();
        self.write_manifest_for(&chunks)
    }

    /// [`Self::write_manifest`] over an explicit (staged, not yet
    /// committed) chunk list — the transactional paths write the manifest
    /// from locals and assign `self.chunks` only once it has landed.
    fn write_manifest_for(&mut self, chunks: &[ChunkMeta]) -> Result<()> {
        let tail = &self.tail;
        manifest::write_json(
            &mut self.manifest_json,
            manifest::MANIFEST_VERSION,
            tail.schema(),
            (0..tail.schema().len()).map(|ci| tail.dict_values(ci)),
            chunks,
            self.next_chunk_id,
        );
        self.storage
            .put(MANIFEST_KEY, self.manifest_json.as_bytes())?;
        MANIFEST_REWRITES.inc();
        self.manifest_dict_lens = (0..self.schema().len())
            .map(|ci| self.tail.dict_values(ci).len())
            .collect();
        Ok(())
    }

    // -- retention ----------------------------------------------------------

    /// Drops all rows except the most recent `n` (by insertion order) —
    /// the same retention policy as [`DriftLog::retain_last`], applied
    /// out-of-core: whole head chunks are deleted, at most one boundary
    /// chunk is re-sliced and rewritten under a new key, and survivors'
    /// row ranges shift down. The manifest is rewritten before any old
    /// key is deleted.
    ///
    /// # Errors
    ///
    /// Backend I/O failures or a corrupt boundary chunk. As with
    /// [`DriftStore::flush`], in-memory state only moves after every
    /// backend write succeeded, so a failed retention leaves the live
    /// store (and its manifest) untouched and retryable.
    pub fn retain_last(&mut self, n: usize) -> Result<()> {
        let total = self.num_rows();
        if total <= n {
            return Ok(());
        }
        let cut = total - n;
        if cut >= self.tail_start {
            // Every chunk dies; the tail holds all surviving rows (since
            // cut >= tail_start). Manifest first: if that write fails,
            // nothing — durable or in-memory — has moved.
            self.write_manifest_for(&[])?;
            let old = std::mem::take(&mut self.chunks);
            self.tail.retain_last(n);
            self.tail_start = 0;
            self.tail_sealed = 0;
            for meta in old {
                self.lock_cache().evict(&meta.key);
                self.storage.delete(&meta.key)?;
            }
            return Ok(());
        }
        // The cut lands strictly below the tail: the tail (and the partial
        // tail chunk, which starts at tail_start) is untouched; head
        // chunks are dropped or re-sliced. The survivor list is staged in
        // a local and committed only after the manifest lands.
        let mut new_chunks: Vec<ChunkMeta> = Vec::with_capacity(self.chunks.len());
        let mut doomed: Vec<String> = Vec::new();
        for meta in self.chunks.clone() {
            let end = meta.start_row as usize + meta.rows as usize;
            if end <= cut {
                doomed.push(meta.key);
            } else if meta.start_row as usize >= cut {
                new_chunks.push(ChunkMeta {
                    start_row: meta.start_row - cut as u64,
                    ..meta
                });
            } else {
                // The one boundary chunk straddling the cut: re-slice its
                // surviving rows into a fresh chunk under a new key.
                let block = self.read_chunk_data(&meta)?;
                let keep = meta.start_row as usize + meta.rows as usize - cut;
                let from = meta.rows as usize - keep;
                let data = ChunkData {
                    columns: block.columns.iter().map(|c| c[from..].to_vec()).collect(),
                    drift: block.drift[from..].to_vec(),
                    timestamps: block.timestamps[from..].to_vec(),
                };
                let (replacement, _) = self.write_chunk(&data, 0, meta.dict_lens.clone())?;
                new_chunks.push(replacement);
                doomed.push(meta.key);
            }
        }
        self.write_manifest_for(&new_chunks)?;
        self.chunks = new_chunks;
        self.tail_start -= cut;
        for key in doomed {
            self.lock_cache().evict(&key);
            self.storage.delete(&key)?;
        }
        Ok(())
    }

    /// Amortized [`DriftStore::retain_last`] for hot ingest paths: a
    /// no-op until the store overshoots `n` by more than one chunk's
    /// worth of rows, so repeated calls pay the boundary-chunk re-slice
    /// and full manifest rewrite at most once per `chunk_rows` ingested
    /// rows instead of on every batch. Returns whether retention ran.
    ///
    /// # Errors
    ///
    /// Exactly [`DriftStore::retain_last`]'s errors.
    pub fn retain_last_amortized(&mut self, n: usize) -> Result<bool> {
        if self.num_rows() > n + self.config.chunk_rows_clamped() {
            self.retain_last(n)?;
            return Ok(true);
        }
        Ok(false)
    }

    // -- chunk loading ------------------------------------------------------

    fn lock_cache(&self) -> std::sync::MutexGuard<'_, ChunkCache> {
        // Poisoning only means a panic elsewhere mid-lookup; the cache is
        // a plain map and stays consistent.
        self.cache.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Fetches and decodes a chunk's raw columnar data (uncached), checked
    /// against its manifest entry ([`check_against_meta`]).
    fn read_chunk_data(&self, meta: &ChunkMeta) -> Result<ChunkData> {
        let bytes = self
            .storage
            .get(&meta.key)?
            .ok_or_else(|| StoreError::MissingChunk {
                key: meta.key.clone(),
            })?;
        CHUNKS_READ.inc();
        let data = decode_chunk(&meta.key, &bytes)?;
        check_against_meta(meta, &data, self.schema().len())?;
        Ok(data)
    }

    /// Fetches a chunk as a block to scan, through the chunk cache.
    fn load_block(&self, meta: &ChunkMeta) -> Result<Arc<ColumnarBlock>> {
        if self.config.cache_chunks > 0 {
            if let Some(block) = self.lock_cache().get(&meta.key) {
                CACHE_HITS.inc();
                return Ok(block);
            }
            CACHE_MISSES.inc();
        }
        let data = self.read_chunk_data(meta)?;
        let block = Arc::new(ColumnarBlock::build(
            data.columns,
            data.drift,
            data.timestamps,
        ));
        self.lock_cache()
            .put(self.config.cache_chunks, &meta.key, block.clone());
        Ok(block)
    }

    /// Streams the full chunks (those not duplicated in the tail) through
    /// `probe`, fanned out over [`parallel::num_threads`] workers once the
    /// chunks hold enough rows ([`fanout_width`]); partial results come
    /// back in chunk (= row) order, so merging them is bitwise independent
    /// of the width.
    fn scan_chunks<R, F>(&self, probe: F) -> Result<Vec<R>>
    where
        R: Send,
        F: Fn(&ChunkMeta, &ColumnarBlock) -> R + Sync,
    {
        let metas: Vec<&ChunkMeta> = self.full_chunks().collect();
        let total_rows: usize = metas.iter().map(|m| m.rows as usize).sum();
        let width = fanout_width(parallel::num_threads(), total_rows);
        let results = parallel::par_map_with(metas, width, |meta| {
            let block = self.load_block(meta)?;
            Ok(probe(meta, &block))
        });
        results.into_iter().collect()
    }

    // -- queries ------------------------------------------------------------

    /// `COUNT(*)` / `COUNT(*) WHERE drift` over rows containing every
    /// attribute of `set` — bitwise identical to
    /// [`DriftLog::count_matching`] on the same rows. `mask` (indexed by
    /// global row) overrides stored drift flags, with rows beyond its
    /// length counting as not drifted.
    ///
    /// # Errors
    ///
    /// [`StoreError::Log`] for unknown keys; backend/decode failures.
    pub fn count_matching(&self, set: &[Attribute], mask: Option<&[bool]>) -> Result<MatchCounts> {
        let Some(preds) = self.tail.resolve_predicates(set)? else {
            return Ok(MatchCounts::default());
        };
        // The mask seen by rows starting at global row `start`.
        let mask_from = |start: usize| mask.map(|m| m.get(start..).unwrap_or(&[]));
        let partials = self.scan_chunks(|meta, block| {
            block.count_matching(&preds, mask_from(meta.start_row as usize))
        })?;
        let mut out = MatchCounts::default();
        for part in partials {
            out += part;
        }
        out += self.tail.count_matching(set, mask_from(self.tail_start))?;
        Ok(out)
    }

    /// Global indices of rows containing every attribute of `set`, in
    /// ascending order — bitwise identical to
    /// [`DriftLog::rows_matching`] on the same rows.
    ///
    /// # Errors
    ///
    /// [`StoreError::Log`] for unknown keys; backend/decode failures.
    pub fn rows_matching(&self, set: &[Attribute]) -> Result<Vec<usize>> {
        let Some(preds) = self.tail.resolve_predicates(set)? else {
            return Ok(Vec::new());
        };
        let partials = self.scan_chunks(|meta, block| {
            let mut rows = Vec::new();
            block.rows_matching(&preds, meta.start_row as usize, &mut rows);
            rows
        })?;
        let mut out: Vec<usize> = partials.into_iter().flatten().collect();
        let tail_rows = self.tail.rows_matching(set)?;
        out.extend(tail_rows.into_iter().map(|row| self.tail_start + row));
        Ok(out)
    }

    /// Per-value `(occurrences, drifted)` counts for every dictionary
    /// value of `key`, in dictionary (first-use) order — bitwise
    /// identical to [`DriftLog::distinct_values`] on the same rows.
    ///
    /// # Errors
    ///
    /// [`StoreError::Log`] for unknown keys; backend/decode failures.
    pub fn distinct_values(&self, key: &str) -> Result<Vec<(String, MatchCounts)>> {
        let ci =
            self.schema()
                .iter()
                .position(|k| k == key)
                .ok_or_else(|| LogError::UnknownKey {
                    key: key.to_string(),
                })?;
        // The tail carries the global dictionaries, so its result already
        // has one slot per value; chunk contributions add in.
        let mut out = self.tail.distinct_values(key)?;
        let partials = self.scan_chunks(|_, block| {
            let mut counts = vec![MatchCounts::default(); out.len()];
            block.accumulate_value_counts(ci, &mut counts);
            counts
        })?;
        for counts in partials {
            for ((_, slot), part) in out.iter_mut().zip(counts) {
                *slot += part;
            }
        }
        Ok(out)
    }

    /// `GROUP BY key` with zero-occurrence values dropped and rows sorted
    /// by occurrence (descending, ties by value) — bitwise identical to
    /// [`DriftLog::group_counts`] on the same rows.
    ///
    /// # Errors
    ///
    /// [`StoreError::Log`] for unknown keys; backend/decode failures.
    pub fn group_counts(&self, key: &str) -> Result<Vec<(String, MatchCounts)>> {
        Ok(probe::group_counts(self.distinct_values(key)?))
    }

    /// Reconstructs global row `row` as an entry.
    ///
    /// # Errors
    ///
    /// [`LogError::RowOutOfRange`] (wrapped) past the end;
    /// backend/decode failures.
    pub fn entry(&self, row: usize) -> Result<DriftLogEntry> {
        if row >= self.num_rows() {
            return Err(StoreError::Log(LogError::RowOutOfRange {
                row,
                rows: self.num_rows(),
            }));
        }
        if row >= self.tail_start {
            return Ok(self.tail.entry(row - self.tail_start)?);
        }
        // Full chunks are contiguous from row 0, so the owning chunk is
        // the last one starting at or before `row`.
        let idx = self
            .chunks
            .partition_point(|m| m.start_row as usize <= row)
            .saturating_sub(1);
        let meta = self.chunks[idx].clone();
        let block = self.load_block(&meta)?;
        self.block_entry(&meta, &block, row - meta.start_row as usize)
    }

    /// Builds the entry for `local_row` of a decoded block, resolving
    /// codes through the global dictionaries.
    fn block_entry(
        &self,
        meta: &ChunkMeta,
        block: &ColumnarBlock,
        local_row: usize,
    ) -> Result<DriftLogEntry> {
        let mut attrs = Vec::with_capacity(self.schema().len());
        for (ci, name) in self.schema().iter().enumerate() {
            let code = block.column_codes(ci)[local_row] as usize;
            let value = self
                .tail
                .dict_values(ci)
                .get(code)
                .ok_or_else(|| StoreError::Corrupt {
                    key: meta.key.clone(),
                    reason: format!("column {ci} code {code} outside dictionary"),
                })?;
            attrs.push(Attribute::new(name.clone(), value.clone()));
        }
        Ok(DriftLogEntry {
            timestamp: block.timestamps()[local_row],
            attrs,
            drift: block.drift_flags()[local_row],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One pass of an in-order scan over `keys` through `cache`, as
    /// `load_block` drives it; returns the hits.
    fn scan(cache: &mut ChunkCache, cap: usize, keys: &[String]) -> usize {
        let mut hits = 0;
        for key in keys {
            if cache.get(key).is_some() {
                hits += 1;
            } else {
                let block = ColumnarBlock::build(Vec::new(), Vec::new(), Vec::new());
                cache.put(cap, key, Arc::new(block));
            }
        }
        hits
    }

    #[test]
    fn an_in_order_scan_wider_than_the_cache_keeps_all_but_one_slot() {
        for cap in [1, 2, 8] {
            let keys: Vec<String> = (0..cap + 5).map(|i| format!("chunk-{i}")).collect();
            let mut cache = ChunkCache::default();
            assert_eq!(scan(&mut cache, cap, &keys), 0);
            for pass in 1..4 {
                assert_eq!(
                    scan(&mut cache, cap, &keys),
                    cap - 1,
                    "cap {cap} pass {pass}"
                );
                assert_eq!(cache.entries.len(), cap);
            }
        }
    }

    #[test]
    fn a_hot_entry_survives_a_scan() {
        let cap = 4;
        let keys: Vec<String> = (0..20).map(|i| format!("chunk-{i}")).collect();
        let hot = "hot".to_string();
        let mut cache = ChunkCache::default();
        scan(&mut cache, cap, std::slice::from_ref(&hot));
        for key in &keys {
            scan(&mut cache, cap, std::slice::from_ref(key));
            assert_eq!(
                scan(&mut cache, cap, std::slice::from_ref(&hot)),
                1,
                "after {key}"
            );
        }
        // A disabled cache keeps nothing.
        let mut off = ChunkCache::default();
        assert_eq!(scan(&mut off, 0, &keys[..3]), 0);
        assert_eq!(scan(&mut off, 0, &keys[..3]), 0);
    }
}
