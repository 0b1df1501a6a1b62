//! Low-level probe API over decoded columnar row blocks.
//!
//! The persistent chunked store (`nazar-store`, DESIGN.md §13) holds drift
//! logs larger than RAM: rows live in compressed columnar chunks on a
//! storage backend, and queries stream one decoded chunk at a time. This
//! module is the bridge that lets those streamed chunks run through
//! *exactly* the same per-segment probe machinery the in-memory
//! [`DriftLog`](crate::DriftLog) index uses — posting-list selection,
//! smallest-list walks, direct column verification, LSB-first drift
//! bitmaps — so out-of-core results are bitwise identical to in-memory
//! ones by construction, not by parallel reimplementation.
//!
//! A [`ColumnarBlock`] is built from a decoded chunk's raw columns and
//! indexes them once, in bulk (one `Segment` worth of posting lists, each
//! sized by a counting pass before it is filled); each probe
//! then answers `count`/`rows`/`value_counts` questions against the block.
//! All row offsets inside the block are local; callers carry the block's
//! global start row and pass it to the probes that return rows, which is
//! what lets the store shift whole chunks during retention without
//! touching their bytes. The merge rules that combine per-block answers
//! (`MatchCounts += part`, appended offset rows, accumulated per-code
//! counts, [`group_counts`]) live in this crate too, so the in-memory log
//! over its segments and the store over chunks + tail cannot disagree.

use crate::store::{code_counts, segment_count, segment_rows, MatchCounts, Segment};

/// One decoded block of dictionary-encoded rows plus its probe index.
///
/// Equivalent to one [`DriftLog`](crate::DriftLog) index segment, except
/// the columnar data is owned by the block (a decoded storage chunk)
/// instead of borrowed from the log's global columns.
#[derive(Debug, Clone)]
pub struct ColumnarBlock {
    /// Per-column dict codes, one `Vec<u32>` per schema column, all of the
    /// same length (the block's row count).
    columns: Vec<Vec<u32>>,
    /// Per-row timestamps.
    timestamps: Vec<u64>,
    /// The posting-list index over the block (local rows, `start == 0`).
    seg: Segment,
}

impl ColumnarBlock {
    /// Builds a block (and its probe index) over decoded columnar data.
    /// `columns` must all have the same length as `drift` and `timestamps`;
    /// rows beyond the shortest column are ignored. `dict_lens` gives, per
    /// column, a bound every code lies below (the dictionary length at the
    /// chunk's seal); it sizes the index build's scratch.
    ///
    /// # Panics
    ///
    /// Panics if a code is not below its column's `dict_lens` entry, or a
    /// column has no entry: callers check decoded codes first.
    pub fn build(
        columns: Vec<Vec<u32>>,
        drift: &[bool],
        timestamps: &[u64],
        dict_lens: impl IntoIterator<Item = usize>,
    ) -> ColumnarBlock {
        let rows = columns
            .iter()
            .map(Vec::len)
            .chain([drift.len(), timestamps.len()])
            .min()
            .unwrap_or(0);
        let mut counts = code_counts(dict_lens);
        let seg = Segment::build(0..rows, &columns, drift, timestamps, &mut counts);
        ColumnarBlock {
            columns,
            timestamps: timestamps[..rows].to_vec(),
            seg,
        }
    }

    /// Rows in the block.
    pub fn rows(&self) -> usize {
        self.timestamps.len()
    }

    /// Drift-flagged rows in the block.
    pub fn drifted(&self) -> usize {
        self.seg.drifted_count()
    }

    /// The block's per-row timestamps (local row order).
    pub fn timestamps(&self) -> &[u64] {
        &self.timestamps
    }

    /// The dict codes of column `ci`, one per local row.
    ///
    /// # Panics
    ///
    /// Panics if `ci` is out of range for the block's columns.
    pub fn column_codes(&self, ci: usize) -> &[u32] {
        &self.columns[ci]
    }

    /// Whether local row `row` is drift-flagged (false out of range).
    pub fn drift_flag(&self, row: usize) -> bool {
        row < self.rows() && self.seg.drifted_bit(row as u32)
    }

    /// `COUNT(*)` / `COUNT(*) WHERE drift` over the block for resolved
    /// predicates. `mask` (when given) is indexed by *local* row and
    /// overrides the stored drift flags, exactly as
    /// [`DriftLog::count_matching`](crate::DriftLog::count_matching) treats
    /// its mask; rows beyond the mask's length count as not drifted.
    pub fn count_matching(&self, preds: &[(usize, u32)], mask: Option<&[bool]>) -> MatchCounts {
        segment_count(&self.columns, &self.seg, preds, mask)
    }

    /// Appends the rows matching every predicate to `out` as global row
    /// indices (`start` is the block's first global row), in ascending
    /// order. An empty predicate set matches every row.
    pub fn rows_matching(&self, preds: &[(usize, u32)], start: usize, out: &mut Vec<usize>) {
        segment_rows(&self.columns, &self.seg, preds, start, out);
    }

    /// Adds the block's per-value `(occurrences, drifted)` contributions
    /// for column `ci` into `counts` (indexed by dict code). Codes beyond
    /// `counts.len()` are ignored.
    pub fn accumulate_value_counts(&self, ci: usize, counts: &mut [MatchCounts]) {
        self.seg.accumulate_value_counts(ci, counts);
    }
}

/// The `GROUP BY` view of a `distinct_values` result: zero-occurrence
/// values dropped, the rest sorted by occurrence (descending, ties by
/// value). Shared by [`DriftLog::group_counts`](crate::DriftLog::group_counts)
/// and the persistent store's.
pub fn group_counts(mut values: Vec<(String, MatchCounts)>) -> Vec<(String, MatchCounts)> {
    values.retain(|(_, c)| c.occurrences > 0);
    values.sort_by(|a, b| b.1.occurrences.cmp(&a.1.occurrences).then(a.0.cmp(&b.0)));
    values
}
