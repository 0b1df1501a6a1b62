//! Columnar drift-log store with dictionary encoding and a sharded,
//! posting-list query index built where queries read it.
//!
//! # Segment layout (DESIGN.md §10)
//!
//! The log keeps its columnar source of truth — one dictionary-encoded
//! `Vec<u32>` per attribute key, plus drift flags and timestamps — and
//! shards *the query index* over it: fixed-size row-range `Segment`s, each
//! carrying
//!
//! * per-column **posting lists**: for every dict code present in the
//!   segment, the sorted list of segment-local row offsets holding it,
//!   built in bulk by the first query that reads them;
//! * a **drifted-row bitmap** (`u64` words, LSB-first) with a cached
//!   popcount.
//!
//! Every query (`count_matching`, `rows_matching`, `distinct_values`,
//! `group_counts`) is a plain in-order loop over the segments,
//! each answered by posting-list intersection and merged in segment order
//! (pinned against a naive row scan by `tests/query_equivalence.rs`).
//! Appends never touch a posting list: `push`, `ingest_batch` and
//! `append_rows` extend the tail segment's row count and drift bitmap and
//! drop its postings, and `retain_last` drops whole head segments and
//! re-counts at most one partial head segment. The postings
//! of a segment are built once per run of appends into it: one counting
//! pass per column sizes each list exactly before it is filled.
//!
//! The segments cover every row at all times: a log built from coded
//! rows ([`DriftLog::with_dict_values`], the store's reopen path) counts
//! its segments (and the [`Dict`] interning maps) on the way in.

use crate::entry::{Attribute, DriftLogEntry};
use nazar_obs::{LazyCounter, LazyGauge, LazyHistogram};
use nazar_tensor::parallel;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::OnceLock;

static INGEST_ROWS: LazyCounter = LazyCounter::new(
    "nazar_log_ingest_rows_total",
    "Rows appended to the drift log",
    &[],
);
static INGEST_DRIFTED: LazyCounter = LazyCounter::new(
    "nazar_log_ingest_drifted_total",
    "Drift-flagged rows appended to the drift log",
    &[],
);
static QUERY_COUNT: LazyCounter = LazyCounter::new(
    "nazar_log_queries_total",
    "Counting/scan queries served by the drift log",
    &[("op", "count_matching")],
);
static QUERY_ROWS: LazyCounter = LazyCounter::new(
    "nazar_log_queries_total",
    "Counting/scan queries served by the drift log",
    &[("op", "rows_matching")],
);
static QUERY_DISTINCT: LazyCounter = LazyCounter::new(
    "nazar_log_queries_total",
    "Counting/scan queries served by the drift log",
    &[("op", "distinct_values")],
);
static SEGMENTS: LazyGauge = LazyGauge::new(
    "nazar_log_segments",
    "Row-range segments currently indexing the drift log",
    &[],
);
static SEGMENTS_PRUNED: LazyCounter = LazyCounter::new(
    "nazar_log_segments_pruned_total",
    "Segments skipped whole by a posting-list miss",
    &[],
);
static INGEST_QUARANTINED: LazyCounter = LazyCounter::new(
    "nazar_log_ingest_quarantined_total",
    "Batch-ingested entries rejected for schema mismatch",
    &[],
);
static INGEST_BATCH_ROWS: LazyHistogram = LazyHistogram::new(
    "nazar_log_ingest_batch_rows",
    "Entries per ingest_batch call",
    &[],
    nazar_obs::pow2_buckets,
);

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, LogError>;

/// Errors raised by drift-log operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogError {
    /// An entry's attributes do not cover the log's schema.
    SchemaMismatch {
        /// The missing or unexpected key.
        key: String,
    },
    /// A query referenced an attribute key absent from the schema.
    UnknownKey {
        /// The offending key.
        key: String,
    },
    /// A row index was out of range.
    RowOutOfRange {
        /// The offending row.
        row: usize,
        /// Number of rows in the log.
        rows: usize,
    },
    /// Rows handed over as code columns do not fit the log: a column of
    /// the wrong length, or a code outside its dictionary.
    CorruptColumn {
        /// The column's key (`timestamps` for the timestamp column).
        key: String,
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::SchemaMismatch { key } => {
                write!(f, "entry does not match log schema at key `{key}`")
            }
            LogError::UnknownKey { key } => write!(f, "unknown attribute key `{key}`"),
            LogError::RowOutOfRange { row, rows } => {
                write!(f, "row {row} out of range for log of {rows} rows")
            }
            LogError::CorruptColumn { key, reason } => write!(f, "column `{key}`: {reason}"),
        }
    }
}

impl std::error::Error for LogError {}

/// Result of a counting query over the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MatchCounts {
    /// Rows whose attributes contain the queried set.
    pub occurrences: usize,
    /// Of those, rows flagged as drift.
    pub drifted: usize,
}

/// The merge rule of every counting query: partial counts over disjoint row
/// ranges (index segments, storage chunks, the store's tail) add up.
impl std::ops::AddAssign for MatchCounts {
    fn add_assign(&mut self, part: MatchCounts) {
        self.occurrences += part.occurrences;
        self.drifted += part.drifted;
    }
}

/// Outcome of one [`DriftLog::ingest_batch`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestReport {
    /// Entries appended to the log.
    pub appended: usize,
    /// Entries rejected for schema mismatch (counted, not appended).
    pub quarantined: usize,
}

/// Per-column dictionary of attribute values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Dict {
    values: Vec<String>,
    index: HashMap<String, u32>,
}

impl Dict {
    fn intern(&mut self, value: &str) -> u32 {
        if let Some(&id) = self.index.get(value) {
            return id;
        }
        let id = self.values.len() as u32;
        self.values.push(value.to_string());
        self.index.insert(value.to_string(), id);
        id
    }

    fn lookup(&self, value: &str) -> Option<u32> {
        self.index.get(value).copied()
    }

    fn rebuild_index(&mut self) {
        self.index = self
            .values
            .iter()
            .enumerate()
            .map(|(i, v)| (v.clone(), i as u32))
            .collect();
    }
}

/// Default rows per index segment. Small enough that tail maintenance and
/// partial-head rebuilds stay cheap, large enough that posting lists
/// amortize their per-code overhead; the `fleet_scale` bench sweeps sizes
/// around this choice.
pub const DEFAULT_SEGMENT_ROWS: usize = 4096;

/// Entries per parallel encode task in [`DriftLog::ingest_batch`]; batches
/// below one task's worth encode serially.
const INGEST_ROWS_PER_TASK: usize = 4096;

/// First-slot marker of a batch row phase A could not pre-code. No
/// dictionary reaches this many values.
const NOT_CODED: u32 = u32::MAX;

/// One column's posting lists: `(dict code, sorted local rows)` pairs,
/// sorted by code.
type Postings = Vec<(u32, Vec<u32>)>;

/// One row-range shard of the query index (see the module docs).
///
/// Covers global rows `start..start + rows`; its postings hold
/// segment-local offsets (`global = start + local`), which is what lets
/// [`DriftLog::retain_last`] shift surviving segments by adjusting `start`
/// alone.
#[derive(Debug, Clone, Default)]
struct Segment {
    /// Global row id of local row 0.
    start: usize,
    /// Rows covered.
    rows: usize,
    /// Per column, the segment's posting lists: built by the first query
    /// that reads them, dropped by an append.
    postings: OnceLock<Vec<Postings>>,
    /// Bitmap of drifted local rows, LSB-first `u64` words, ending at the
    /// word of the last drifted row.
    drifted: Vec<u64>,
    /// Popcount of `drifted`.
    drifted_count: usize,
}

/// Equal rows and drift bitmap. The postings follow from the log's
/// columns, so whether a query has built them yet does not count.
impl PartialEq for Segment {
    fn eq(&self, other: &Self) -> bool {
        let key = |s: &Segment| (s.start, s.rows, s.drifted_count);
        key(self) == key(other) && self.drifted == other.drifted
    }
}

impl Segment {
    fn new(start: usize) -> Self {
        Segment {
            start,
            ..Segment::default()
        }
    }

    /// Counts global rows `rows` of `drift` in one go: the segment
    /// [`Segment::push_row`] would build row by row.
    fn build(rows: Range<usize>, drift: &[bool]) -> Segment {
        let mut seg = Segment::new(rows.start);
        for &d in &drift[rows] {
            seg.push_row(d);
        }
        seg
    }

    /// Appends the next local row and drops the postings, which no longer
    /// cover the segment.
    fn push_row(&mut self, drift: bool) {
        self.postings = OnceLock::new();
        if drift {
            let word = self.rows / 64;
            if word >= self.drifted.len() {
                self.drifted.resize(word + 1, 0);
            }
            self.drifted[word] |= 1 << (self.rows % 64);
            self.drifted_count += 1;
        }
        self.rows += 1;
    }

    fn range(&self) -> Range<usize> {
        self.start..self.start + self.rows
    }

    /// The segment's posting lists over the log's `columns`, built on the
    /// first call since the last append.
    fn postings(&self, columns: &[Vec<u32>]) -> &[Postings] {
        self.postings.get_or_init(|| {
            let mut counts = Vec::new();
            let codes = columns.iter().map(|column| &column[self.range()]);
            codes.map(|codes| postings(codes, &mut counts)).collect()
        })
    }

    /// The sorted local rows holding `code` in column `ci`, if any.
    fn posting<'s>(&'s self, columns: &[Vec<u32>], ci: usize, code: u32) -> Option<&'s [u32]> {
        let column = &self.postings(columns)[ci];
        column
            .binary_search_by_key(&code, |(c, _)| *c)
            .ok()
            .map(|pos| column[pos].1.as_slice())
    }
}

/// Whether bit `local` of the LSB-first bitmap `bits` is set. Queries read
/// a segment's bitmap through this, as a slice taken before their loops:
/// the postings' `OnceLock` makes `Segment` interior-mutable, so a field
/// read through `&Segment` would be reloaded on every row.
fn bit(bits: &[u64], local: u32) -> bool {
    let i = local as usize;
    bits.get(i / 64).is_some_and(|w| (w >> (i % 64)) & 1 == 1)
}

/// One column's posting lists over `codes` (local rows), sorted by code,
/// each allocated at its exact length: one counting pass sizes the lists,
/// a second fills them in ascending row order. `counts` is scratch with a
/// zero slot per code (grown to fit), and goes out zeroed.
fn postings(codes: &[u32], counts: &mut Vec<u32>) -> Postings {
    let len = codes.iter().max().map_or(0, |&c| c as usize + 1);
    if counts.len() < len {
        counts.resize(len, 0);
    }
    let mut lists: Postings = Vec::new();
    for &code in codes {
        let n = &mut counts[code as usize];
        if *n == 0 {
            lists.push((code, Vec::new()));
        }
        *n += 1;
    }
    lists.sort_unstable_by_key(|&(code, _)| code);
    // Each touched slot now holds its list's position instead of its count.
    for (pos, (code, list)) in lists.iter_mut().enumerate() {
        let slot = &mut counts[*code as usize];
        *list = Vec::with_capacity(*slot as usize);
        *slot = pos as u32;
    }
    for (local, &code) in codes.iter().enumerate() {
        lists[counts[code as usize] as usize].1.push(local as u32);
    }
    for &(code, _) in &lists {
        counts[code as usize] = 0;
    }
    lists
}

/// The global drift log: one dictionary-encoded column per attribute key,
/// plus the drift flags and timestamps (DESIGN.md substitution S7 for the
/// paper's Aurora table), sharded into row-range index `Segment`s.
///
/// Queries run as per-segment posting-list intersections merged in segment
/// order — sublinear in rows for selective predicates once a segment's
/// postings are built. The segments cover every row at all times, so
/// there is no other query path.
#[derive(Debug, Clone, Default)]
pub struct DriftLog {
    schema: Vec<String>,
    columns: Vec<Vec<u32>>,
    dicts: Vec<Dict>,
    drift: Vec<bool>,
    timestamps: Vec<u64>,
    segments: Vec<Segment>,
    /// Configured rows per segment; 0 means [`DEFAULT_SEGMENT_ROWS`].
    segment_rows: usize,
}

/// Logical equality: two logs are equal when they hold the same schema and
/// rows, regardless of segment size or dictionary-map internals.
impl PartialEq for DriftLog {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && self.columns == other.columns
            && self.dicts.len() == other.dicts.len()
            && self
                .dicts
                .iter()
                .zip(&other.dicts)
                .all(|(a, b)| a.values == b.values)
            && self.drift == other.drift
            && self.timestamps == other.timestamps
    }
}

impl DriftLog {
    /// Creates an empty log over the given attribute keys.
    pub fn new(schema: &[&str]) -> Self {
        DriftLog {
            schema: schema.iter().map(|s| s.to_string()).collect(),
            columns: vec![Vec::new(); schema.len()],
            dicts: vec![Dict::default(); schema.len()],
            drift: Vec::new(),
            timestamps: Vec::new(),
            segments: Vec::new(),
            segment_rows: 0,
        }
    }

    /// Creates a log whose per-column dictionaries are pre-seeded with
    /// `dict_values` (one value list per schema key, code = position) and
    /// whose rows are given already coded: `columns` (one code column per
    /// schema key), `drift` and `timestamps`, all of one length.
    ///
    /// This is the reopen path of the persistent store (`nazar-store`): the
    /// manifest records the dictionaries interned so far, the partial tail
    /// chunk's rows come back by their codes, and the tail log must
    /// resolve and intern against *exactly* those codes so persisted
    /// chunks and fresh rows share one code space. The rows count as
    /// appended rows; their postings wait for the first query.
    ///
    /// # Errors
    ///
    /// [`LogError::SchemaMismatch`] when `dict_values` or `columns` does
    /// not provide exactly one entry per schema key;
    /// [`LogError::CorruptColumn`] when a column's length differs from
    /// `drift`'s or a code lies outside its dictionary.
    pub fn with_dict_values(
        schema: &[String],
        dict_values: Vec<Vec<String>>,
        columns: Vec<Vec<u32>>,
        drift: Vec<bool>,
        timestamps: Vec<u64>,
    ) -> Result<Self> {
        let dicts = dict_values
            .into_iter()
            .map(|values| Dict {
                values,
                index: HashMap::new(),
            })
            .collect();
        let log = DriftLog::from_parts(schema.to_vec(), columns, dicts, drift, timestamps)?;
        INGEST_ROWS.add(log.num_rows() as u64);
        INGEST_DRIFTED.add(log.num_drifted() as u64);
        Ok(log)
    }

    /// A log over coded rows, checked first (every column as long as
    /// `drift`, every code inside its dictionary), with its dictionaries'
    /// lookup maps and its segments counted.
    fn from_parts(
        schema: Vec<String>,
        columns: Vec<Vec<u32>>,
        mut dicts: Vec<Dict>,
        drift: Vec<bool>,
        timestamps: Vec<u64>,
    ) -> Result<Self> {
        if columns.len() != schema.len() || dicts.len() != schema.len() {
            let key = schema
                .get(columns.len().min(dicts.len()))
                .cloned()
                .unwrap_or_else(|| "<extra column>".to_string());
            return Err(LogError::SchemaMismatch { key });
        }
        let corrupt = |key: &str, reason: String| LogError::CorruptColumn {
            key: key.to_string(),
            reason,
        };
        if timestamps.len() != drift.len() {
            let reason = format!("{} timestamps for {} rows", timestamps.len(), drift.len());
            return Err(corrupt("timestamps", reason));
        }
        for ((key, column), dict) in schema.iter().zip(&columns).zip(&dicts) {
            if column.len() != drift.len() {
                let reason = format!("{} codes for {} rows", column.len(), drift.len());
                return Err(corrupt(key, reason));
            }
            let len = dict.values.len();
            if let Some(code) = column.iter().find(|&&c| c as usize >= len) {
                let reason = format!("code {code} outside its {len}-value dictionary");
                return Err(corrupt(key, reason));
            }
        }
        dicts.iter_mut().for_each(Dict::rebuild_index);
        let mut log = DriftLog {
            schema,
            columns,
            dicts,
            drift,
            timestamps,
            segments: Vec::new(),
            segment_rows: 0,
        };
        log.rebuild_index();
        Ok(log)
    }

    /// Sets the index segment size (rows per segment, clamped to at
    /// least one) and rebuilds the index. Exists for tests and benches
    /// that need segment boundaries at small row counts; production code
    /// keeps [`DEFAULT_SEGMENT_ROWS`].
    pub fn with_segment_rows(mut self, rows: usize) -> Self {
        self.segment_rows = rows.max(1);
        self.rebuild_index();
        self
    }

    /// Number of row-range segments indexing the log.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// The effective rows-per-segment setting.
    pub fn segment_rows(&self) -> usize {
        if self.segment_rows == 0 {
            DEFAULT_SEGMENT_ROWS
        } else {
            self.segment_rows
        }
    }

    /// The attribute keys (column names).
    pub fn schema(&self) -> &[String] {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.drift.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.drift.is_empty()
    }

    /// Number of rows flagged as drift.
    pub fn num_drifted(&self) -> usize {
        self.segments.iter().map(|s| s.drifted_count).sum()
    }

    /// The drift flags as a mask (row-indexed). Counterfactual analysis
    /// clones this, clears the bits covered by an accepted cause, and
    /// re-runs counting queries with the modified mask.
    pub fn drift_mask(&self) -> Vec<bool> {
        self.drift.clone()
    }

    fn rebuild_index(&mut self) {
        let rows = self.num_rows();
        let step = self.segment_rows();
        self.segments = (0..rows)
            .step_by(step)
            .map(|start| self.build_segment(start..rows.min(start + step)))
            .collect();
        SEGMENTS.set(self.segments.len() as f64);
    }

    /// Builds one segment over global rows `rows` from the columnar store.
    fn build_segment(&self, rows: Range<usize>) -> Segment {
        Segment::build(rows, &self.drift)
    }

    /// Appends an already-encoded row to the columns and the tail segment,
    /// starting a fresh segment when the tail is full.
    fn append_coded(&mut self, codes: &[u32], drift: bool, timestamp: u64) {
        for (column, &code) in self.columns.iter_mut().zip(codes) {
            column.push(code);
        }
        self.drift.push(drift);
        self.timestamps.push(timestamp);
        INGEST_ROWS.inc();
        if drift {
            INGEST_DRIFTED.inc();
        }
        let full = self.segment_rows();
        if self.segments.last().is_none_or(|s| s.rows >= full) {
            self.segments.push(Segment::new(self.num_rows() - 1));
            SEGMENTS.set(self.segments.len() as f64);
        }
        if let Some(seg) = self.segments.last_mut() {
            seg.push_row(drift);
        }
    }

    /// Appends one entry.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::SchemaMismatch`] if the entry does not provide a
    /// value for every schema key (extra keys are also rejected).
    pub fn push(&mut self, entry: DriftLogEntry) -> Result<()> {
        // A row's codes live on the stack at any schema width this system
        // builds; only a wider one allocates.
        let mut inline = [0u32; 8];
        let mut spilled = Vec::new();
        let codes = match inline.get_mut(..self.schema.len()) {
            Some(codes) => codes,
            None => {
                spilled.resize(self.schema.len(), 0);
                &mut spilled[..]
            }
        };
        self.intern_row(&entry, codes)?;
        self.append_coded(codes, entry.drift, entry.timestamp);
        Ok(())
    }

    /// Resolves `entry`'s values in schema order into `codes` (one slot per
    /// column), interning new ones. Borrows the entry: interning copies the
    /// one string it keeps. Every key is resolved before anything is
    /// interned, so an entry that fails interns nothing.
    fn intern_row(&mut self, entry: &DriftLogEntry, codes: &mut [u32]) -> Result<()> {
        if entry.attrs.len() != self.schema.len() {
            let key = entry
                .attrs
                .iter()
                .map(|a| a.key.clone())
                .find(|k| !self.schema.contains(k))
                .unwrap_or_else(|| "<missing>".to_string());
            return Err(LogError::SchemaMismatch { key });
        }
        // First pass: each slot holds the position of its column's value.
        for (key, code) in self.schema.iter().zip(codes.iter_mut()) {
            let Some(at) = entry.attrs.iter().position(|a| &a.key == key) else {
                return Err(LogError::SchemaMismatch { key: key.clone() });
            };
            *code = at as u32;
        }
        for (dict, code) in self.dicts.iter_mut().zip(codes) {
            *code = dict.intern(&entry.attrs[*code as usize].value);
        }
        Ok(())
    }

    /// Appends many entries.
    ///
    /// # Errors
    ///
    /// Fails on the first mismatching entry; earlier entries stay appended.
    pub fn extend(&mut self, entries: impl IntoIterator<Item = DriftLogEntry>) -> Result<()> {
        for e in entries {
            self.push(e)?;
        }
        Ok(())
    }

    /// [`DriftLog::ingest_batch_with_threads`] at the `NAZAR_NUM_THREADS`
    /// width, for a caller that owns its rows. The parameter stays a
    /// concrete `Vec` because `benchmark/src/measure.rs` (frozen) hands it
    /// an unannotated `collect()`, which only a concrete type can infer;
    /// the rows are borrowed all the same.
    pub fn ingest_batch(&mut self, entries: Vec<DriftLogEntry>) -> IngestReport {
        self.ingest_batch_with_threads(entries, parallel::num_threads())
    }

    /// Batch ingest for window uploads: encodes entries against the
    /// dictionaries on up to `threads` workers, then appends sequentially.
    /// The rows are only read — pass a slice, or anything that lends one.
    ///
    /// Equivalent to `for e in entries { let _ = self.push(e); }` — entries
    /// that fail the schema check are quarantined (counted, not appended,
    /// nothing interned) instead of aborting the batch, and the final log
    /// state (rows *and* dictionaries) is byte-identical to that loop at
    /// any thread count. `tests` pin this differentially.
    pub fn ingest_batch_with_threads(
        &mut self,
        entries: impl AsRef<[DriftLogEntry]>,
        threads: usize,
    ) -> IngestReport {
        let entries = entries.as_ref();
        INGEST_BATCH_ROWS.observe(entries.len() as f64);
        // Phase A: pure encode into one flat `rows × stride` code buffer.
        // Read-only dictionary lookups, so row bands shard freely across
        // workers; a row whose values are all already interned gets its
        // codes, anything else (new value, schema mismatch) gets
        // `NOT_CODED` in its first slot and falls through to the
        // sequential path.
        let stride = self.schema.len().max(1);
        let width = threads.min((entries.len() / INGEST_ROWS_PER_TASK).max(1));
        let mut coded = vec![0u32; entries.len() * stride];
        {
            let schema = &self.schema;
            let dicts = &self.dicts;
            let encode = |e: &DriftLogEntry, codes: &mut [u32]| -> Option<()> {
                if e.attrs.len() != schema.len() {
                    return None;
                }
                for ((key, dict), code) in schema.iter().zip(dicts).zip(codes) {
                    let value = e.attrs.iter().find(|a| &a.key == key)?;
                    *code = dict.lookup(&value.value)?;
                }
                Some(())
            };
            parallel::par_row_bands(
                &mut coded,
                entries.len(),
                stride,
                width,
                |first_row, band| {
                    let rows = &entries[first_row..];
                    for (e, codes) in rows.iter().zip(band.chunks_exact_mut(stride)) {
                        if encode(e, codes).is_none() {
                            codes[0] = NOT_CODED;
                        }
                    }
                },
            );
        }
        // Phase B: sequential append, in arrival order. Pre-coded entries
        // skip straight to the columnar append; the rest replay `push` so
        // first-use interning order matches the naive loop exactly, writing
        // their codes into the row's own slots.
        let mut report = IngestReport::default();
        let columns = self.schema.len();
        for (entry, codes) in entries.iter().zip(coded.chunks_exact_mut(stride)) {
            if codes[0] == NOT_CODED && self.intern_row(entry, &mut codes[..columns]).is_err() {
                INGEST_QUARANTINED.inc();
                report.quarantined += 1;
                continue;
            }
            self.append_coded(&codes[..columns], entry.drift, entry.timestamp);
            report.appended += 1;
        }
        report
    }

    /// Reconstructs row `row` as an entry.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::RowOutOfRange`] for invalid rows.
    pub fn entry(&self, row: usize) -> Result<DriftLogEntry> {
        if row >= self.num_rows() {
            return Err(LogError::RowOutOfRange {
                row,
                rows: self.num_rows(),
            });
        }
        let attrs = self
            .schema
            .iter()
            .enumerate()
            .map(|(ci, key)| {
                Attribute::new(
                    key.clone(),
                    self.dicts[ci].values[self.columns[ci][row] as usize].clone(),
                )
            })
            .collect();
        Ok(DriftLogEntry {
            timestamp: self.timestamps[row],
            attrs,
            drift: self.drift[row],
        })
    }

    /// Distinct values of column `key`, with per-value `(occurrences,
    /// drifted)` counts — the first stage of apriori.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::UnknownKey`] for keys outside the schema.
    pub fn distinct_values(&self, key: &str) -> Result<Vec<(String, MatchCounts)>> {
        QUERY_DISTINCT.inc();
        let ci = self.column_index(key)?;
        let values = &self.dicts[ci].values;
        let mut counts = vec![MatchCounts::default(); values.len()];
        for seg in &self.segments {
            let drifted = seg.drifted.as_slice();
            for (code, rows) in &seg.postings(&self.columns)[ci] {
                if let Some(c) = counts.get_mut(*code as usize) {
                    c.occurrences += rows.len();
                    c.drifted += rows.iter().filter(|&&l| bit(drifted, l)).count();
                }
            }
        }
        Ok(values.iter().cloned().zip(counts).collect())
    }

    /// `COUNT(*)` and `COUNT(*) WHERE drift` for rows containing every
    /// attribute in `set`. A `mask` overrides the stored drift flags
    /// (counterfactual analysis); `None` uses the stored flags.
    ///
    /// Attributes whose value never occurs in the log yield zero counts.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::UnknownKey`] if an attribute key is not in the
    /// schema.
    pub fn count_matching(&self, set: &[Attribute], mask: Option<&[bool]>) -> Result<MatchCounts> {
        QUERY_COUNT.inc();
        let mut counts = MatchCounts::default();
        if let Some(preds) = self.resolve_predicates(set)? {
            for seg in &self.segments {
                counts += segment_count(&self.columns, seg, &preds, mask);
            }
        }
        Ok(counts)
    }

    /// Row indices of entries containing every attribute in `set`,
    /// ascending.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::UnknownKey`] for keys outside the schema.
    pub fn rows_matching(&self, set: &[Attribute]) -> Result<Vec<usize>> {
        QUERY_ROWS.inc();
        let mut rows = Vec::new();
        if let Some(preds) = self.resolve_predicates(set)? {
            for seg in &self.segments {
                segment_rows(&self.columns, seg, &preds, &mut rows);
            }
        }
        Ok(rows)
    }

    /// Rows `rows` of this log as a log of their own (the original is
    /// untouched), copied code to code ([`DriftLog::append_rows`]).
    ///
    /// # Panics
    ///
    /// Panics if `rows` reaches past the last row.
    pub fn slice(&self, rows: Range<usize>) -> DriftLog {
        let mut out = DriftLog {
            schema: self.schema.clone(),
            columns: vec![Vec::new(); self.schema.len()],
            dicts: vec![Dict::default(); self.schema.len()],
            segment_rows: self.segment_rows,
            ..DriftLog::default()
        };
        out.copy_rows(self, rows);
        out
    }

    /// Appends rows `rows` of `src`, a log over the same schema, copying
    /// them code to code: each value is interned here at its first use, so
    /// this log ends exactly where ingesting those rows' entries would
    /// leave it, dictionaries included.
    ///
    /// # Errors
    ///
    /// [`LogError::SchemaMismatch`] (and nothing appended) when `src`'s
    /// schema is not this log's.
    ///
    /// # Panics
    ///
    /// Panics if a row lies past `src`'s last row.
    pub fn append_rows(&mut self, src: &DriftLog, rows: Range<usize>) -> Result<()> {
        if src.schema != self.schema {
            let mut keys = src.schema.iter().chain(&self.schema);
            let key = keys.find(|k| !(src.schema.contains(k) && self.schema.contains(k)));
            let key = key.cloned().unwrap_or_else(|| "<column order>".to_string());
            return Err(LogError::SchemaMismatch { key });
        }
        self.copy_rows(src, rows);
        Ok(())
    }

    /// [`DriftLog::append_rows`] without the schema check: the one
    /// code-to-code remap, a per-column memo from `src`'s codes to ours.
    fn copy_rows(&mut self, src: &DriftLog, rows: Range<usize>) {
        let mut remaps: Vec<Vec<Option<u32>>> = src
            .dicts
            .iter()
            .map(|d| vec![None; d.values.len()])
            .collect();
        let mut codes = vec![0; self.schema.len()];
        for row in rows {
            for (ci, (remap, code)) in remaps.iter_mut().zip(&mut codes).enumerate() {
                let old = src.columns[ci][row] as usize;
                let dict = &mut self.dicts[ci];
                *code = *remap[old].get_or_insert_with(|| dict.intern(&src.dicts[ci].values[old]));
            }
            self.append_coded(&codes, src.drift[row], src.timestamps[row]);
        }
    }

    /// Per-value `(occurrences, drifted)` counts of `key`, grouped — the
    /// `GROUP BY` companion to [`DriftLog::distinct_values`] that skips
    /// zero-occurrence values and sorts by occurrence (descending), which is
    /// what an ops dashboard renders.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::UnknownKey`] for keys outside the schema.
    pub fn group_counts(&self, key: &str) -> Result<Vec<(String, MatchCounts)>> {
        Ok(crate::probe::group_counts(self.distinct_values(key)?))
    }

    /// Drops all rows except the most recent `n` (by insertion order) —
    /// the retention policy a production drift log needs to bound storage.
    ///
    /// Index maintenance is segment-granular: head segments whose rows are
    /// all dropped are removed, survivors shift their `start` (and keep any
    /// postings built), and at most one partially-dropped boundary segment
    /// is re-counted from the retained rows.
    pub fn retain_last(&mut self, n: usize) {
        let rows = self.num_rows();
        if rows <= n {
            return;
        }
        let drop = rows - n;
        for column in &mut self.columns {
            column.drain(0..drop);
        }
        self.drift.drain(0..drop);
        self.timestamps.drain(0..drop);
        let old_segments = std::mem::take(&mut self.segments);
        let mut segments = Vec::with_capacity(old_segments.len());
        for mut seg in old_segments {
            let end = seg.start + seg.rows;
            if end <= drop {
                continue; // fully dropped head segment
            }
            if seg.start >= drop {
                seg.start -= drop;
                segments.push(seg);
            } else {
                // The one boundary segment that straddles the cut: re-count
                // it over the retained prefix rows.
                segments.push(self.build_segment(0..end - drop));
            }
        }
        self.segments = segments;
        SEGMENTS.set(self.segments.len() as f64);
    }

    /// The dictionary codes of column `ci` (schema order), one per row.
    ///
    /// This is the zero-copy view `nazar-store` seals chunks from and
    /// resolves rows against, without materializing per-row `String`s.
    ///
    /// # Panics
    ///
    /// Panics if `ci` is out of range for the schema.
    pub fn column_codes(&self, ci: usize) -> &[u32] {
        &self.columns[ci]
    }

    /// The dictionary (distinct value strings) of column `ci`, indexed by
    /// code.
    ///
    /// # Panics
    ///
    /// Panics if `ci` is out of range for the schema.
    pub fn dict_values(&self, ci: usize) -> &[String] {
        &self.dicts[ci].values
    }

    /// The stored per-row drift flags, row-indexed (a borrowed view; see
    /// [`DriftLog::drift_mask`] for an owned copy).
    pub fn drift_flags(&self) -> &[bool] {
        &self.drift
    }

    /// The per-row timestamps, row-indexed. The persistent store reads
    /// these when sealing rows into chunks.
    pub fn timestamps(&self) -> &[u64] {
        &self.timestamps
    }

    /// Resolves a query attribute set against this log's schema and
    /// dictionaries into `(column index, dict code)` predicates — the form
    /// [`crate::probe::ColumnarBlock`] scans take. `Ok(None)` means some
    /// value was never interned, so the query trivially matches nothing.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::UnknownKey`] for keys outside the schema.
    pub fn resolve_predicates(&self, set: &[Attribute]) -> Result<Option<Vec<(usize, u32)>>> {
        let mut preds = Vec::with_capacity(set.len());
        for attr in set {
            let ci = self.column_index(&attr.key)?;
            match self.dicts[ci].lookup(&attr.value) {
                Some(vid) => preds.push((ci, vid)),
                None => return Ok(None),
            }
        }
        Ok(Some(preds))
    }

    fn column_index(&self, key: &str) -> Result<usize> {
        self.schema
            .iter()
            .position(|k| k == key)
            .ok_or_else(|| LogError::UnknownKey {
                key: key.to_string(),
            })
    }
}

/// Walks the smallest posting list of `preds` in `seg`, verifying the
/// remaining predicates by direct lookup in the dictionary-encoded
/// `columns` — `O(smallest list × preds)` with no merge or allocation —
/// and calls `emit(local, global)` for each matching row, in ascending
/// row order. `preds` must be non-empty.
fn probe_segment<F: FnMut(u32, usize)>(
    columns: &[Vec<u32>],
    seg: &Segment,
    preds: &[(usize, u32)],
    mut emit: F,
) {
    let mut best: Option<(usize, &[u32])> = None;
    for (pi, &(ci, vid)) in preds.iter().enumerate() {
        let Some(list) = seg.posting(columns, ci, vid) else {
            // A code absent from the segment: nothing here matches.
            SEGMENTS_PRUNED.inc();
            return;
        };
        if best.is_none_or(|(_, b)| list.len() < b.len()) {
            best = Some((pi, list));
        }
    }
    let Some((pi, list)) = best else {
        return;
    };
    let start = seg.start;
    if preds.len() == 1 {
        // The posting list alone answers a single-predicate query.
        for &local in list {
            emit(local, start + local as usize);
        }
        return;
    }
    'locals: for &local in list {
        let row = start + local as usize;
        for (k, &(ci, vid)) in preds.iter().enumerate() {
            if k != pi && columns[ci][row] != vid {
                continue 'locals;
            }
        }
        emit(local, row);
    }
}

/// One segment's contribution to `rows_matching`: appends its matching rows
/// to `out`, ascending. Segments are ascending row ranges, so appending
/// segment by segment is the ordered merge.
fn segment_rows(columns: &[Vec<u32>], seg: &Segment, preds: &[(usize, u32)], out: &mut Vec<usize>) {
    if preds.is_empty() {
        // Every row matches the empty set.
        out.extend(seg.range());
        return;
    }
    probe_segment(columns, seg, preds, |_, row| out.push(row));
}

/// One segment's contribution to `count_matching`.
fn segment_count(
    columns: &[Vec<u32>],
    seg: &Segment,
    preds: &[(usize, u32)],
    mask: Option<&[bool]>,
) -> MatchCounts {
    if preds.is_empty() {
        // Every row matches the empty set.
        let drifted = match mask {
            None => seg.drifted_count,
            Some(mask) => seg
                .range()
                .filter(|&row| mask.get(row).copied().unwrap_or(false))
                .count(),
        };
        return MatchCounts {
            occurrences: seg.rows,
            drifted,
        };
    }
    let mut counts = MatchCounts::default();
    let bits = seg.drifted.as_slice();
    probe_segment(columns, seg, preds, |local, row| {
        counts.occurrences += 1;
        let drifted = match mask {
            None => bit(bits, local),
            Some(mask) => mask.get(row).copied().unwrap_or(false),
        };
        if drifted {
            counts.drifted += 1;
        }
    });
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> DriftLog {
        crate::paper_example_log()
    }

    #[test]
    fn push_rejects_schema_mismatch() {
        let mut log = DriftLog::new(&["weather"]);
        let bad = DriftLogEntry::new(0, &[("location", "x")], false);
        assert!(matches!(
            log.push(bad),
            Err(LogError::SchemaMismatch { .. })
        ));
        let too_many = DriftLogEntry::new(0, &[("weather", "x"), ("extra", "y")], false);
        assert!(log.push(too_many).is_err());
        assert_eq!(log.num_rows(), 0);
    }

    #[test]
    fn ingest_batch_matches_push_loop() {
        let make_entries = || -> Vec<DriftLogEntry> {
            let mut v = Vec::new();
            for i in 0..500u64 {
                let weather = ["clear", "snow", "rain"][(i % 3) as usize];
                let loc = ["nyc", "helsinki"][(i % 2) as usize];
                v.push(DriftLogEntry::new(
                    i,
                    &[("weather", weather), ("location", loc)],
                    i % 5 == 0,
                ));
            }
            // A mismatching entry with a valid leading column: push()
            // fails before interning "fog", and so must the batch path
            // when it quarantines the entry.
            v.insert(
                250,
                DriftLogEntry::new(999, &[("weather", "fog"), ("altitude", "high")], true),
            );
            // Wrong arity: rejected before any interning.
            v.insert(100, DriftLogEntry::new(998, &[("weather", "clear")], false));
            v
        };
        let mut by_push = DriftLog::new(&["weather", "location"]).with_segment_rows(64);
        let mut failures = 0;
        for e in make_entries() {
            if by_push.push(e).is_err() {
                failures += 1;
            }
        }
        let entries = make_entries();
        for threads in [1, 2, 8] {
            let mut by_batch = DriftLog::new(&["weather", "location"]).with_segment_rows(64);
            let report = by_batch.ingest_batch_with_threads(&entries, threads);
            assert_eq!(
                report,
                IngestReport {
                    appended: 500,
                    quarantined: failures,
                }
            );
            // Log equality covers rows *and* dictionary contents, so the
            // quarantined entry interning nothing is part of the check;
            // make it explicit too.
            assert_eq!(by_batch, by_push, "threads={threads}");
            assert!(!by_batch.dict_values(0).iter().any(|v| v == "fog"));
            let snow = [Attribute::new("weather", "snow")];
            assert_eq!(
                by_batch.count_matching(&snow, None).unwrap(),
                by_push.count_matching(&snow, None).unwrap(),
            );
        }

        // A schema without columns still has a slot per row for the marker.
        let mut bare = DriftLog::new(&[]);
        let rows = [
            DriftLogEntry::new(1, &[], true),
            DriftLogEntry::new(2, &[("weather", "fog")], false),
        ];
        let report = bare.ingest_batch_with_threads(rows, 2);
        assert_eq!((report.appended, report.quarantined), (1, 1));
        assert_eq!(bare.num_rows(), 1);
    }

    #[test]
    fn ingest_batch_encodes_in_parallel_when_dicts_are_warm() {
        // Enough entries to clear INGEST_ROWS_PER_TASK so phase A actually
        // fans out, with values pre-interned so every entry takes the
        // pre-coded fast path; the result must still match the push loop.
        let n = 2 * INGEST_ROWS_PER_TASK as u64;
        let entries: Vec<DriftLogEntry> = (0..n)
            .map(|i| {
                DriftLogEntry::new(
                    i,
                    &[("weather", ["clear", "snow"][(i % 2) as usize])],
                    i % 3 == 0,
                )
            })
            .collect();
        let mut by_push = DriftLog::new(&["weather"]);
        for e in entries.clone() {
            by_push.push(e).unwrap();
        }
        let mut by_batch = DriftLog::new(&["weather"]);
        // Warm the dictionaries first, as steady-state window ingest does.
        by_batch.push(entries[0].clone()).unwrap();
        by_batch.push(entries[1].clone()).unwrap();
        let report = by_batch.ingest_batch_with_threads(&entries[2..], 4);
        assert_eq!(report.appended, n as usize - 2);
        assert_eq!(report.quarantined, 0);
        assert_eq!(by_batch, by_push);
    }

    #[test]
    fn entry_round_trip() {
        let log = sample_log();
        let e = log.entry(3).unwrap();
        assert_eq!(e.attr("weather"), Some("snow"));
        assert_eq!(e.attr("location"), Some("new-york"));
        assert!(e.drift);
        assert!(log.entry(99).is_err());
    }

    #[test]
    fn count_matching_reproduces_paper_counts() {
        let log = sample_log();
        // {snow}: 2 occurrences, both drifted (Table 3 row 0 inputs).
        let c = log
            .count_matching(&[Attribute::new("weather", "snow")], None)
            .unwrap();
        assert_eq!((c.occurrences, c.drifted), (2, 2));
        // {new-york}: 3 occurrences, 2 drifted (Table 3 rank 6).
        let c = log
            .count_matching(&[Attribute::new("location", "new-york")], None)
            .unwrap();
        assert_eq!((c.occurrences, c.drifted), (3, 2));
        // {snow, new-york}: 1 occurrence, drifted.
        let c = log
            .count_matching(
                &[
                    Attribute::new("weather", "snow"),
                    Attribute::new("location", "new-york"),
                ],
                None,
            )
            .unwrap();
        assert_eq!((c.occurrences, c.drifted), (1, 1));
    }

    #[test]
    fn count_matching_with_mask_override() {
        let log = sample_log();
        let mut mask = log.drift_mask();
        mask.iter_mut().for_each(|m| *m = false);
        let c = log
            .count_matching(&[Attribute::new("weather", "snow")], Some(&mask))
            .unwrap();
        assert_eq!((c.occurrences, c.drifted), (2, 0));
    }

    #[test]
    fn count_matching_unknown_value_is_zero_unknown_key_errors() {
        let log = sample_log();
        let c = log
            .count_matching(&[Attribute::new("weather", "hail")], None)
            .unwrap();
        assert_eq!(c, MatchCounts::default());
        assert!(matches!(
            log.count_matching(&[Attribute::new("nope", "x")], None),
            Err(LogError::UnknownKey { .. })
        ));
    }

    #[test]
    fn distinct_values_counts() {
        let log = sample_log();
        let values = log.distinct_values("weather").unwrap();
        let snow = values.iter().find(|(v, _)| v == "snow").unwrap();
        assert_eq!((snow.1.occurrences, snow.1.drifted), (2, 2));
        let clear = values.iter().find(|(v, _)| v == "clear-day").unwrap();
        assert_eq!((clear.1.occurrences, clear.1.drifted), (3, 1));
    }

    #[test]
    fn rows_matching_returns_indices() {
        let log = sample_log();
        let rows = log
            .rows_matching(&[Attribute::new("device_id", "android_21")])
            .unwrap();
        assert_eq!(rows, vec![1, 2, 3]);
    }

    #[test]
    fn group_counts_sorts_by_occurrence() {
        let log = sample_log();
        let groups = log.group_counts("weather").unwrap();
        assert_eq!(groups[0].0, "clear-day");
        assert_eq!(groups[0].1.occurrences, 3);
        assert_eq!(groups[1].0, "snow");
        for pair in groups.windows(2) {
            assert!(pair[0].1.occurrences >= pair[1].1.occurrences);
        }
    }

    #[test]
    fn retain_last_keeps_newest_rows() {
        let mut log = sample_log();
        log.retain_last(2);
        assert_eq!(log.num_rows(), 2);
        // The two snow rows (the most recent) survive.
        let c = log
            .count_matching(&[Attribute::new("weather", "snow")], None)
            .unwrap();
        assert_eq!(c.occurrences, 2);
        // Retaining more than present is a no-op.
        log.retain_last(10);
        assert_eq!(log.num_rows(), 2);
    }

    #[test]
    fn with_dict_values_indexes_coded_rows_and_checks_them() {
        // The paper log, handed over by its codes, is the log `push` built.
        let log = sample_log();
        let schema = log.schema().to_vec();
        let parts = |log: &DriftLog| {
            let dicts = (0..3).map(|ci| log.dict_values(ci).to_vec()).collect();
            let columns = (0..3).map(|ci| log.column_codes(ci).to_vec()).collect();
            (dicts, columns)
        };
        let (dicts, columns) = parts(&log);
        let back = DriftLog::with_dict_values(
            &schema,
            dicts,
            columns,
            log.drift_mask(),
            log.timestamps().to_vec(),
        )
        .unwrap();
        assert_eq!(back, log);
        assert_eq!(back.num_drifted(), 3);
        let snow = [Attribute::new("weather", "snow")];
        assert_eq!(back.rows_matching(&snow).unwrap(), vec![3, 4]);

        // A code outside its dictionary, a short column, short timestamps,
        // a missing column: typed errors.
        let mut bad = Vec::new();
        let (dicts, mut columns) = parts(&log);
        columns[2][4] = 2;
        bad.push((dicts, columns, log.timestamps().to_vec()));
        let (dicts, mut columns) = parts(&log);
        columns[1].pop();
        bad.push((dicts, columns, log.timestamps().to_vec()));
        let (dicts, columns) = parts(&log);
        bad.push((dicts, columns, log.timestamps()[1..].to_vec()));
        for (dicts, columns, ts) in bad {
            let err = DriftLog::with_dict_values(&schema, dicts, columns, log.drift_mask(), ts);
            assert!(
                matches!(err, Err(LogError::CorruptColumn { .. })),
                "{err:?}"
            );
        }
        let (dicts, mut columns) = parts(&log);
        columns.pop();
        assert!(matches!(
            DriftLog::with_dict_values(
                &schema,
                dicts,
                columns,
                log.drift_mask(),
                log.timestamps().to_vec()
            ),
            Err(LogError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn queries_cross_segment_boundaries() {
        // 10 rows at 3 rows/segment: segments of 3, 3, 3, 1.
        let mut log = DriftLog::new(&["k", "j"]).with_segment_rows(3);
        for i in 0..10u64 {
            log.push(DriftLogEntry::new(
                i,
                &[
                    ("k", if i % 2 == 0 { "even" } else { "odd" }),
                    ("j", if i % 3 == 0 { "fizz" } else { "buzz" }),
                ],
                i % 4 == 0,
            ))
            .unwrap();
        }
        assert_eq!(log.num_segments(), 4);
        let counts = |occurrences, drifted| MatchCounts {
            occurrences,
            drifted,
        };
        // (set, matching rows, of which drifted — rows 0, 4, 8 are).
        let odd_fizz = vec![Attribute::new("k", "odd"), Attribute::new("j", "fizz")];
        for (set, rows, drifted) in [
            (vec![], (0..10).collect::<Vec<usize>>(), 3),
            (vec![Attribute::new("k", "even")], vec![0, 2, 4, 6, 8], 3),
            (odd_fizz, vec![3, 9], 0),
            (vec![Attribute::new("k", "nope")], vec![], 0),
        ] {
            assert_eq!(
                log.count_matching(&set, None).unwrap(),
                counts(rows.len(), drifted),
                "set {set:?}"
            );
            assert_eq!(log.rows_matching(&set).unwrap(), rows, "set {set:?}");
        }
        assert_eq!(
            log.distinct_values("j").unwrap(),
            vec![
                ("fizz".to_string(), counts(4, 1)),
                ("buzz".to_string(), counts(6, 2)),
            ]
        );
        assert_eq!(log.num_drifted(), 3);
    }

    #[test]
    fn retain_last_rebuilds_boundary_segment() {
        let mut log = DriftLog::new(&["k"]).with_segment_rows(4);
        for i in 0..10u64 {
            log.push(DriftLogEntry::new(
                i,
                &[("k", if i < 5 { "a" } else { "b" })],
                i >= 8,
            ))
            .unwrap();
        }
        // Drop 3 rows: head segment [0,4) straddles the cut and rebuilds.
        log.retain_last(7);
        assert_eq!(log.num_rows(), 7);
        let c = log
            .count_matching(&[Attribute::new("k", "a")], None)
            .unwrap();
        assert_eq!(c.occurrences, 2); // rows 3, 4 survive
        assert_eq!(
            log.rows_matching(&[Attribute::new("k", "b")]).unwrap(),
            vec![2, 3, 4, 5, 6]
        );
        assert_eq!(log.num_drifted(), 2);
    }

    /// The oracle for a segment's postings over `rows`: per column, each
    /// code's local rows, gathered one row at a time into an ordered map.
    fn naive_postings(rows: Range<usize>, columns: &[Vec<u32>]) -> Vec<Postings> {
        let lists = |column: &Vec<u32>| {
            let mut lists = std::collections::BTreeMap::<u32, Vec<u32>>::new();
            for (local, &code) in column[rows.clone()].iter().enumerate() {
                lists.entry(code).or_default().push(local as u32);
            }
            lists.into_iter().collect()
        };
        columns.iter().map(lists).collect()
    }

    /// Counts `rows` in bulk and row by row: the segments must be equal
    /// whether or not a query has built their postings, the postings a
    /// query builds must equal the oracle's (twice: the second read reuses
    /// the first build), and an append must drop them.
    fn assert_build_equals_push(rows: Range<usize>, columns: &[Vec<u32>], drift: &[bool]) {
        let mut pushed = Segment::new(rows.start);
        for row in rows.clone() {
            pushed.push_row(drift[row]);
        }
        let built = Segment::build(rows.clone(), drift);
        let oracle = naive_postings(rows.clone(), columns);
        for _ in 0..2 {
            assert_eq!(built.postings(columns), oracle, "rows {rows:?}");
            assert_eq!(built, pushed, "rows {rows:?}");
        }
        assert_eq!(pushed.postings(columns), oracle, "rows {rows:?}");
        if rows.end < drift.len() {
            pushed.push_row(drift[rows.end]);
            let grown = naive_postings(rows.start..rows.end + 1, columns);
            assert_eq!(pushed.postings(columns), grown, "rows {rows:?} + 1");
        }
    }

    #[test]
    fn segment_build_equals_push_row_loop_on_edge_cases() {
        let n = 300;
        let drift_at =
            |rows: &[usize]| -> Vec<bool> { (0..n).map(|r| rows.contains(&r)).collect() };
        let some_drift = drift_at(&[0, 5, 64, 65, 199, 250]);
        let mixed: Vec<Vec<u32>> = vec![
            (0..n as u32).map(|r| r % 7).collect(),
            (0..n as u32).map(|r| (r * r) % 11).collect(),
        ];
        // No rows, at 0 and mid-column.
        assert_build_equals_push(0..0, &mixed, &some_drift);
        assert_build_equals_push(120..120, &mixed, &some_drift);
        // One code only, a different one per column.
        let single = vec![vec![3; n], vec![0; n]];
        assert_build_equals_push(0..n, &single, &some_drift);
        // Sparse codes in a large dictionary.
        let sparse = vec![(0..n as u32)
            .map(|r| [0, 97, 4_999, 1_000][r as usize % 4])
            .collect()];
        assert_build_equals_push(0..n, &sparse, &some_drift);
        // No drifted rows; drift only at the end.
        assert_build_equals_push(0..n, &mixed, &vec![false; n]);
        assert_build_equals_push(0..150, &mixed, &drift_at(&[140, 149]));
        // Row ranges that do not start at 0, each followed by an append.
        assert_build_equals_push(64..256, &mixed, &some_drift);
        assert_build_equals_push(37..200, &mixed, &some_drift);
    }

    proptest::proptest! {
        #[test]
        fn segment_build_equals_push_row_loop(
            seed in 0u64..u64::MAX,
            n in 0usize..400,
            dict in 1u32..60,
            width in 1usize..4,
            drift_per_mille in 0u64..=1000,
            cut in (0usize..400, 0usize..400),
        ) {
            // A xorshift stream stands in for random columns.
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let columns: Vec<Vec<u32>> = (0..width)
                .map(|_| (0..n).map(|_| (next() % u64::from(dict)) as u32).collect())
                .collect();
            let drift: Vec<bool> = (0..n).map(|_| next() % 1000 < drift_per_mille).collect();
            let (lo, hi) = (cut.0.min(cut.1).min(n), cut.0.max(cut.1).min(n));
            assert_build_equals_push(lo..hi, &columns, &drift);
        }

        #[test]
        fn counts_never_exceed_rows(drifts in proptest::collection::vec(proptest::bool::ANY, 1..60)) {
            let mut log = DriftLog::new(&["k"]);
            for (i, d) in drifts.iter().enumerate() {
                log.push(DriftLogEntry::new(i as u64, &[("k", if i % 3 == 0 { "a" } else { "b" })], *d)).unwrap();
            }
            let c = log.count_matching(&[Attribute::new("k", "a")], None).unwrap();
            proptest::prop_assert!(c.drifted <= c.occurrences);
            proptest::prop_assert!(c.occurrences <= log.num_rows());
        }
    }
}
