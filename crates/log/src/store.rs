//! The in-memory drift log: dictionary-encoded columns scanned by every
//! query (DESIGN.md §10).
//!
//! The log keeps one dictionary-encoded `Vec<u32>` per attribute key, plus
//! drift flags and timestamps, in one [`ColumnarBlock`]; `count_matching`,
//! `rows_matching`, `distinct_values` and `group_counts` scan it with the
//! block's kernels, the same ones the persistent store (`nazar-store`)
//! runs over its decoded chunks (pinned against a naive row scan by
//! `tests/query_equivalence.rs`). Appends push onto the columns and
//! `retain_last` drains their heads; there is no index to maintain.

use crate::entry::{Attribute, DriftLogEntry};
use crate::probe::ColumnarBlock;
use crate::rows::{CodedRows, RowBatch};
use nazar_obs::{Counter, Histogram};
use std::fmt;
use std::hash::{BuildHasher, RandomState};
use std::ops::Range;

static INGEST_ROWS: Counter = Counter::new("nazar_log_ingest_rows_total", &[]);
static INGEST_DRIFTED: Counter = Counter::new("nazar_log_ingest_drifted_total", &[]);
static QUERY_COUNT: Counter = Counter::new("nazar_log_queries_total", &[("op", "count_matching")]);
static QUERY_ROWS: Counter = Counter::new("nazar_log_queries_total", &[("op", "rows_matching")]);
static QUERY_DISTINCT: Counter =
    Counter::new("nazar_log_queries_total", &[("op", "distinct_values")]);
static INGEST_QUARANTINED: Counter = Counter::new("nazar_log_ingest_quarantined_total", &[]);
static INGEST_BATCH_ROWS: Histogram =
    Histogram::new("nazar_log_ingest_batch_rows", &[], nazar_obs::POW2_BUCKETS);

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
/// ranges (storage chunks, the store's tail) add up.
impl std::ops::AddAssign for MatchCounts {
    fn add_assign(&mut self, part: MatchCounts) {
        self.occurrences += part.occurrences;
        self.drifted += part.drifted;
    }
}

/// Outcome of one batch ingest ([`DriftLog::ingest_rows`],
/// [`DriftLog::ingest_batch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestReport {
    /// Entries appended to the log.
    pub appended: usize,
    /// Entries rejected for schema mismatch (counted, not appended).
    pub quarantined: usize,
}

/// The merge rule of ingest reports: batches ingested one after another
/// report their sum.
impl std::ops::AddAssign for IngestReport {
    fn add_assign(&mut self, other: IngestReport) {
        self.appended += other.appended;
        self.quarantined += other.quarantined;
    }
}

/// Per-column dictionary of attribute values. Each value is stored once,
/// in `values`; the index is an open-addressing table of codes into it,
/// probed by the value's hash and compared against `values`.
#[derive(Debug, Clone, Default)]
struct Dict {
    values: Vec<String>,
    /// `code + 1` per occupied slot, `0` for an empty one; a power of two
    /// long and at most half full, or empty before the first value.
    slots: Vec<u32>,
    hasher: RandomState,
}

impl Dict {
    /// A dictionary holding `values`, code = position. Of equal values the
    /// last one's code is the one looked up.
    fn from_values(values: Vec<String>) -> Self {
        let mut dict = Dict {
            values,
            ..Dict::default()
        };
        dict.rebuild(dict.values.len());
        dict
    }

    /// Sizes the table for `len` values and re-enters every value.
    fn rebuild(&mut self, len: usize) {
        self.slots.clear();
        self.slots.resize((2 * len).next_power_of_two().max(16), 0);
        for code in 0..self.values.len() {
            let at = self.probe(&self.values[code]);
            self.slots[at] = code as u32 + 1;
        }
    }

    /// The slot holding `value`, or the empty slot it would take.
    fn probe(&self, value: &str) -> usize {
        let mask = self.slots.len() - 1;
        let mut at = self.hasher.hash_one(value) as usize & mask;
        loop {
            match self.slots[at] {
                0 => return at,
                code if self.values[code as usize - 1] == value => return at,
                _ => at = (at + 1) & mask,
            }
        }
    }

    fn intern(&mut self, value: &str) -> u32 {
        if self.slots.is_empty() {
            self.rebuild(0);
        }
        let mut at = self.probe(value);
        if let Some(code) = self.slots[at].checked_sub(1) {
            return code;
        }
        if 2 * (self.values.len() + 1) > self.slots.len() {
            self.rebuild(self.values.len() + 1);
            at = self.probe(value);
        }
        let code = self.values.len() as u32;
        self.values.push(value.to_string());
        self.slots[at] = code + 1;
        code
    }

    fn lookup(&self, value: &str) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        self.slots[self.probe(value)].checked_sub(1)
    }
}

/// Entries [`DriftLog::ingest_entries`] codes onto one page.
const ENTRIES_PER_PAGE: usize = 1024;

/// A `(column, page code)` not yet mapped to its dictionary code. No
/// dictionary reaches this many values.
const NOT_CODED: u32 = u32::MAX;

/// Rows as the ingest core reads them: a page, `codes.len() / drift.len()`
/// page codes per row, and the rows' flags and timestamps.
struct Paged<'a, S> {
    page: &'a [S],
    codes: &'a [u32],
    drift: &'a [bool],
    timestamps: &'a [u64],
}

/// `n` slots of `fill`: the first `n` of `inline` when it is long enough
/// (every schema and device page this system builds), else `spill`.
fn slots<'a, T: Copy, const N: usize>(
    inline: &'a mut [T; N],
    spill: &'a mut Vec<T>,
    n: usize,
    fill: T,
) -> &'a mut [T] {
    match inline.get_mut(..n) {
        Some(slots) => {
            slots.fill(fill);
            slots
        }
        None => {
            spill.clear();
            spill.resize(n, fill);
            spill
        }
    }
}

/// The global drift log: one dictionary-encoded column per attribute key,
/// plus the drift flags and timestamps (DESIGN.md substitution S7 for the
/// paper's Aurora table), held as one [`ColumnarBlock`].
///
/// Every query scans the block (see the module docs); there is no index
/// and no other query path.
#[derive(Debug, Clone)]
pub struct DriftLog {
    schema: Vec<String>,
    dicts: Vec<Dict>,
    /// The coded rows.
    rows: ColumnarBlock,
}

/// Logical equality: two logs are equal when they hold the same schema,
/// rows and dictionary values, regardless of dictionary-map internals.
impl PartialEq for DriftLog {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && self.rows == other.rows
            && self.dicts.len() == other.dicts.len()
            && self
                .dicts
                .iter()
                .zip(&other.dicts)
                .all(|(a, b)| a.values == b.values)
    }
}

impl DriftLog {
    /// Creates an empty log over the given attribute keys.
    pub fn new(schema: &[&str]) -> Self {
        DriftLog {
            schema: schema.iter().map(|s| s.to_string()).collect(),
            dicts: vec![Dict::default(); schema.len()],
            rows: ColumnarBlock::empty(schema.len()),
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
    /// appended rows.
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
        if columns.len() != schema.len() || dict_values.len() != schema.len() {
            let key = schema
                .get(columns.len().min(dict_values.len()))
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
        for ((key, column), values) in schema.iter().zip(&columns).zip(&dict_values) {
            if column.len() != drift.len() {
                let reason = format!("{} codes for {} rows", column.len(), drift.len());
                return Err(corrupt(key, reason));
            }
            let len = values.len();
            if let Some(code) = column.iter().find(|&&c| c as usize >= len) {
                let reason = format!("code {code} outside its {len}-value dictionary");
                return Err(corrupt(key, reason));
            }
        }
        let dicts = dict_values.into_iter().map(Dict::from_values).collect();
        let log = DriftLog {
            schema: schema.to_vec(),
            dicts,
            rows: ColumnarBlock::build(columns, drift, timestamps),
        };
        INGEST_ROWS.add(log.num_rows() as u64);
        INGEST_DRIFTED.add(log.num_drifted() as u64);
        Ok(log)
    }

    /// The attribute keys (column names).
    pub fn schema(&self) -> &[String] {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows.rows()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.num_rows() == 0
    }

    /// Number of rows flagged as drift.
    pub fn num_drifted(&self) -> usize {
        self.drift_flags().iter().filter(|&&d| d).count()
    }

    /// The drift flags as a mask (row-indexed). Counterfactual analysis
    /// clones this, clears the bits covered by an accepted cause, and
    /// re-runs counting queries with the modified mask.
    pub fn drift_mask(&self) -> Vec<bool> {
        self.drift_flags().to_vec()
    }

    /// Appends an already-encoded row.
    fn append_coded(&mut self, codes: &[u32], drift: bool, timestamp: u64) {
        self.rows.push_row(codes, drift, timestamp);
        INGEST_ROWS.inc();
        if drift {
            INGEST_DRIFTED.inc();
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
        let (mut inline, mut spilled) = ([0u32; 8], Vec::new());
        let codes = slots(&mut inline, &mut spilled, self.schema.len(), 0);
        // Every key resolves before anything is interned, so an entry that
        // fails interns nothing; then each slot's position becomes its
        // value's code, in schema order, as the ingest core interns.
        self.schema_positions(&entry, codes)?;
        for (dict, code) in self.dicts.iter_mut().zip(codes.iter_mut()) {
            *code = dict.intern(&entry.attrs[*code as usize].value);
        }
        self.append_coded(codes, entry.drift, entry.timestamp);
        Ok(())
    }

    /// Where each schema key's value sits in `entry.attrs`, written into
    /// `at` (one slot per column).
    fn schema_positions(&self, entry: &DriftLogEntry, at: &mut [u32]) -> Result<()> {
        if entry.attrs.len() != self.schema.len() {
            let key = entry
                .attrs
                .iter()
                .map(|a| a.key.clone())
                .find(|k| !self.schema.contains(k))
                .unwrap_or_else(|| "<missing>".to_string());
            return Err(LogError::SchemaMismatch { key });
        }
        for (key, at) in self.schema.iter().zip(at) {
            let Some(i) = entry.attrs.iter().position(|a| &a.key == key) else {
                return Err(LogError::SchemaMismatch { key: key.clone() });
            };
            *at = i as u32;
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

    /// [`DriftLog::ingest_entries`] for a caller that owns its rows. The
    /// parameter stays a concrete `Vec` because `benchmark/src/measure.rs`
    /// (frozen) hands it an unannotated `collect()`, which only a concrete
    /// type can infer; the rows are borrowed all the same.
    pub fn ingest_batch(&mut self, entries: Vec<DriftLogEntry>) -> IngestReport {
        self.ingest_entries(&entries)
    }

    /// Batch ingest of keyed entries: the adapter from strings to
    /// [`DriftLog::ingest_rows`]. Each entry that names every schema key
    /// once becomes one coded row of a page that borrows its strings (a
    /// value equal to the previous row's in its column reuses that code);
    /// the rest are quarantined — counted, not appended, nothing interned.
    ///
    /// Equivalent to `for e in entries { let _ = self.push(e); }`: the
    /// final log state, rows *and* dictionaries, is byte-identical to that
    /// loop. `tests` pin this differentially.
    pub fn ingest_entries(&mut self, entries: &[DriftLogEntry]) -> IngestReport {
        INGEST_BATCH_ROWS.observe(entries.len() as f64);
        let columns = self.schema.len();
        let mut report = IngestReport::default();
        let (mut page, mut codes, mut drift, mut timestamps) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let (mut at, mut spilled) = ([0u32; 8], Vec::new());
        let at = slots(&mut at, &mut spilled, columns, 0);
        // A slice of entries a page, so the page, its codes and the core's
        // memo stay small however many entries come in.
        for chunk in entries.chunks(ENTRIES_PER_PAGE) {
            page.clear();
            codes.clear();
            drift.clear();
            timestamps.clear();
            for entry in chunk {
                if self.schema_positions(entry, at).is_err() {
                    report.quarantined += 1;
                    continue;
                }
                let previous = codes.len().checked_sub(columns);
                for (ci, &i) in at.iter().enumerate() {
                    let value = entry.attrs[i as usize].value.as_str();
                    let code = match previous.map(|p| codes[p + ci]) {
                        Some(code) if page[code as usize] == value => code,
                        _ => {
                            page.push(value);
                            (page.len() - 1) as u32
                        }
                    };
                    codes.push(code);
                }
                drift.push(entry.drift);
                timestamps.push(entry.timestamp);
            }
            let rows = Paged {
                page: &page,
                codes: &codes,
                drift: &drift,
                timestamps: &timestamps,
            };
            self.append_paged(&rows, &|ci| ci);
            report.appended += drift.len();
        }
        INGEST_QUARANTINED.add(report.quarantined as u64);
        report
    }

    /// Appends a batch of coded rows — the upload path's ingest (DESIGN.md
    /// §8). The batch's page is mapped onto the log's dictionaries once:
    /// each `(column, page code)` is interned at its first use, in row
    /// order, so rows, dictionaries and the report equal
    /// [`DriftLog::ingest_batch`] over `rows.to_entries()`.
    ///
    /// The batch's keys may be the schema's in any order. A batch whose
    /// keys are not the schema's has every row quarantined, as each of its
    /// entries would be.
    pub fn ingest_rows<S: AsRef<str>>(&mut self, rows: &RowBatch<S>) -> IngestReport {
        self.ingest_coded(rows.coded())
    }

    /// [`DriftLog::ingest_rows`] over rows borrowed from buffers kept
    /// elsewhere — how the cloud ingests the rows it parsed out of each
    /// accepted upload frame.
    pub fn ingest_coded<S: AsRef<str>>(&mut self, rows: CodedRows<'_, S>) -> IngestReport {
        INGEST_BATCH_ROWS.observe(rows.len() as f64);
        let keys = rows.keys();
        let (mut col_of, mut spilled) = ([0usize; 8], Vec::new());
        let col_of = slots(&mut col_of, &mut spilled, self.schema.len(), 0);
        let mut fits = keys.len() == self.schema.len();
        for (key, col) in self.schema.iter().zip(col_of.iter_mut()) {
            match keys.iter().position(|k| k == key) {
                Some(at) => *col = at,
                None => fits = false,
            }
        }
        if !fits {
            INGEST_QUARANTINED.add(rows.len() as u64);
            return IngestReport {
                appended: 0,
                quarantined: rows.len(),
            };
        }
        let paged = Paged {
            page: rows.page(),
            codes: rows.codes(),
            drift: rows.drift_flags(),
            timestamps: rows.timestamps(),
        };
        self.append_paged(&paged, &|ci| col_of[ci]);
        IngestReport {
            appended: rows.len(),
            quarantined: 0,
        }
    }

    /// The one ingest core: appends `rows`, whose row `r` holds the value
    /// of schema column `ci` at page code `codes[r * width + col_of(ci)]`,
    /// interning each `(column, page code)` once, at its first use.
    fn append_paged<S: AsRef<str>>(
        &mut self,
        rows: &Paged<'_, S>,
        col_of: &dyn Fn(usize) -> usize,
    ) {
        let columns = self.schema.len();
        let n = rows.drift.len();
        if n == 0 {
            return;
        }
        let width = rows.codes.len() / n;
        let page_len = rows.page.len();
        let (mut memo, mut spilled) = ([NOT_CODED; 64], Vec::new());
        let memo = slots(&mut memo, &mut spilled, columns * page_len, NOT_CODED);
        let (mut codes, mut spilled) = ([0u32; 8], Vec::new());
        let codes = slots(&mut codes, &mut spilled, columns, 0);
        for r in 0..n {
            let row = &rows.codes[r * width..(r + 1) * width];
            for (ci, (dict, code)) in self.dicts.iter_mut().zip(codes.iter_mut()).enumerate() {
                let p = row[col_of(ci)] as usize;
                let slot = &mut memo[ci * page_len + p];
                if *slot == NOT_CODED {
                    *slot = dict.intern(rows.page[p].as_ref());
                }
                *code = *slot;
            }
            self.append_coded(codes, rows.drift[r], rows.timestamps[r]);
        }
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
                    self.dicts[ci].values[self.column_codes(ci)[row] as usize].clone(),
                )
            })
            .collect();
        Ok(DriftLogEntry {
            timestamp: self.timestamps()[row],
            attrs,
            drift: self.drift_flags()[row],
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
        self.rows.accumulate_value_counts(ci, &mut counts);
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
        let Some(preds) = self.resolve_predicates(set)? else {
            return Ok(MatchCounts::default());
        };
        Ok(self.rows.count_matching(&preds, mask))
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
            self.rows.rows_matching(&preds, 0, &mut rows);
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
            dicts: vec![Dict::default(); self.schema.len()],
            rows: ColumnarBlock::empty(self.schema.len()),
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
                let old = src.column_codes(ci)[row] as usize;
                let dict = &mut self.dicts[ci];
                *code = *remap[old].get_or_insert_with(|| dict.intern(&src.dicts[ci].values[old]));
            }
            self.append_coded(&codes, src.drift_flags()[row], src.timestamps()[row]);
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
    /// The dictionaries keep every value interned so far.
    pub fn retain_last(&mut self, n: usize) {
        self.rows.drop_head(self.num_rows().saturating_sub(n));
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
        self.rows.column_codes(ci)
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
        self.rows.drift_flags()
    }

    /// The per-row timestamps, row-indexed. The persistent store reads
    /// these when sealing rows into chunks.
    pub fn timestamps(&self) -> &[u64] {
        self.rows.timestamps()
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
            // Past one page of entries, with values first seen late.
            let mut v = Vec::new();
            for i in 0..2_500u64 {
                let weather = ["clear", "snow", "rain", "hail"][(i % 3 + i / 2_000) as usize];
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
            v.insert(
                1_500,
                DriftLogEntry::new(997, &[("location", "oslo")], false),
            );
            v
        };
        let mut by_push = DriftLog::new(&["weather", "location"]);
        let mut failures = 0;
        for e in make_entries() {
            if by_push.push(e).is_err() {
                failures += 1;
            }
        }
        let entries = make_entries();
        let mut by_batch = DriftLog::new(&["weather", "location"]);
        let report = by_batch.ingest_batch(entries.clone());
        assert_eq!(
            report,
            IngestReport {
                appended: 2_500,
                quarantined: failures,
            }
        );
        // Log equality covers rows *and* dictionary contents, so the
        // quarantined entry interning nothing is part of the check; make
        // it explicit too.
        assert_eq!(by_batch, by_push);
        assert!(!by_batch.dict_values(0).iter().any(|v| v == "fog"));
        let snow = [Attribute::new("weather", "snow")];
        assert_eq!(
            by_batch.count_matching(&snow, None).unwrap(),
            by_push.count_matching(&snow, None).unwrap(),
        );

        // A schema without columns still appends its rows.
        let mut bare = DriftLog::new(&[]);
        let rows = [
            DriftLogEntry::new(1, &[], true),
            DriftLogEntry::new(2, &[("weather", "fog")], false),
        ];
        let report = bare.ingest_entries(&rows);
        assert_eq!((report.appended, report.quarantined), (1, 1));
        assert_eq!(bare.num_rows(), 1);
        assert!(bare.push(DriftLogEntry::new(3, &[], false)).is_ok());
        assert_eq!(bare.num_rows(), 2);
    }

    #[test]
    fn ingest_batch_with_warm_dicts_matches_push_loop() {
        // Values pre-interned, as in steady-state window ingest: every
        // row's codes come from the dictionaries' existing entries.
        let n = 8192u64;
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
        by_batch.push(entries[0].clone()).unwrap();
        by_batch.push(entries[1].clone()).unwrap();
        let report = by_batch.ingest_batch(entries[2..].to_vec());
        assert_eq!(report.appended, n as usize - 2);
        assert_eq!(report.quarantined, 0);
        assert_eq!(by_batch, by_push);
    }

    /// `ingest_rows` over a coded batch ends where `ingest_batch` over its
    /// entries does: rows, dictionaries (first-use order included) and
    /// report — with the batch's keys in schema order or permuted, a page
    /// string named in two columns, strings no row names, and keys that
    /// are not the schema's.
    #[test]
    fn ingest_rows_equals_ingest_batch_of_its_entries() {
        const SCHEMA: [&str; 3] = ["weather", "location", "device_id"];
        const PERMUTED: [&str; 3] = ["device_id", "weather", "location"];
        let batch = |keys: &'static [&'static str], salt: usize| {
            let mut rows: RowBatch = RowBatch::new(keys);
            rows.intern("unused");
            for i in 0..40usize {
                let weather = ["snow", "clear", "oslo"][(i + salt) % 3];
                let location = ["oslo", "quebec"][(i / 7) % 2];
                let device = ["d0", "d1", "snow"][(i * salt) % 3];
                let values = match keys[0] {
                    "weather" => [weather, location, device],
                    _ => [device, weather, location],
                };
                rows.push_values(i as u64 * 3, i % 4 == 0, &values);
            }
            rows
        };
        let mut by_rows = DriftLog::new(&SCHEMA);
        let mut by_batch = DriftLog::new(&SCHEMA);
        for (keys, salt) in [(&SCHEMA, 1), (&PERMUTED, 2), (&SCHEMA, 5)] {
            let rows = batch(keys, salt);
            let report = by_rows.ingest_rows(&rows);
            assert_eq!(report, by_batch.ingest_batch(rows.to_entries()));
            assert_eq!(report.appended, 40);
            assert_eq!(by_rows, by_batch);
        }
        assert_eq!(by_rows.dict_values(0), ["clear", "oslo", "snow"]);

        const WRONG: [&str; 3] = ["weather", "location", "altitude"];
        const SHORT: [&str; 2] = ["weather", "location"];
        for keys in [&WRONG[..], &SHORT[..]] {
            let mut rows: RowBatch = RowBatch::new(keys);
            let values = ["fog", "lima", "x"];
            rows.push_values(1, true, &values[..keys.len()]);
            let report = by_rows.ingest_rows(&rows);
            assert_eq!(report, by_batch.ingest_batch(rows.to_entries()));
            assert_eq!((report.appended, report.quarantined), (0, 1));
            assert_eq!(by_rows, by_batch);
        }
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

    proptest::proptest! {
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
