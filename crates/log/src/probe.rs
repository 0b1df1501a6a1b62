//! Low-level scan API over decoded columnar row blocks.
//!
//! The persistent chunked store (`nazar-store`, DESIGN.md §13) holds drift
//! logs larger than RAM: rows live in compressed columnar chunks on a
//! storage backend, and queries stream one decoded chunk at a time. A
//! decoded chunk is read about once, so it gets no index: a
//! [`ColumnarBlock`] answers `count`/`rows`/`value_counts` questions by
//! scanning its code columns, where the in-memory
//! [`DriftLog`](crate::DriftLog) walks posting lists it builds on first
//! read. The store's out-of-core answers and the log's in-memory ones come
//! from two evaluators; the store's differential suite compares them.
//!
//! All row offsets inside a block are local; callers carry the block's
//! global start row and pass it to the scans that return rows, which is
//! what lets the store shift whole chunks during retention without
//! touching their bytes. The merge rules that combine per-block answers
//! (`MatchCounts += part`, appended offset rows, accumulated per-code
//! counts, [`group_counts`]) live in this crate, so the in-memory log over
//! its segments and the store over chunks + tail merge alike.

use crate::store::MatchCounts;

/// One decoded block of dictionary-encoded rows.
///
/// Holds the columnar data of one storage chunk; every query is a scan
/// over it.
#[derive(Debug, Clone)]
pub struct ColumnarBlock {
    /// Per-column dict codes, one `Vec<u32>` per schema column, all of the
    /// same length (the block's row count).
    columns: Vec<Vec<u32>>,
    /// Per-row drift flags.
    drift: Vec<bool>,
    /// Per-row timestamps.
    timestamps: Vec<u64>,
}

impl ColumnarBlock {
    /// Builds a block over decoded columnar data. `columns` should all have
    /// the same length as `drift` and `timestamps`; rows beyond the
    /// shortest of them are dropped.
    pub fn build(
        mut columns: Vec<Vec<u32>>,
        mut drift: Vec<bool>,
        mut timestamps: Vec<u64>,
    ) -> ColumnarBlock {
        let lens = columns.iter().map(Vec::len);
        let rows = lens.chain([drift.len(), timestamps.len()]).min();
        let rows = rows.unwrap_or(0);
        columns.iter_mut().for_each(|column| column.truncate(rows));
        drift.truncate(rows);
        timestamps.truncate(rows);
        ColumnarBlock {
            columns,
            drift,
            timestamps,
        }
    }

    /// Rows in the block.
    pub fn rows(&self) -> usize {
        self.timestamps.len()
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
        self.drift.get(row).copied().unwrap_or(false)
    }

    /// The local rows matching every predicate, ascending. An empty
    /// predicate set matches every row.
    fn matching<'a>(&'a self, preds: &'a [(usize, u32)]) -> impl Iterator<Item = usize> + 'a {
        (0..self.rows()).filter(move |&row| {
            preds
                .iter()
                .all(|&(ci, code)| self.columns[ci][row] == code)
        })
    }

    /// `COUNT(*)` / `COUNT(*) WHERE drift` over the block for resolved
    /// predicates. `mask` (when given) is indexed by *local* row and
    /// overrides the stored drift flags, exactly as
    /// [`DriftLog::count_matching`](crate::DriftLog::count_matching) treats
    /// its mask; rows beyond the mask's length count as not drifted.
    pub fn count_matching(&self, preds: &[(usize, u32)], mask: Option<&[bool]>) -> MatchCounts {
        let flags = mask.unwrap_or(&self.drift);
        let mut counts = MatchCounts::default();
        for row in self.matching(preds) {
            counts.occurrences += 1;
            counts.drifted += usize::from(flags.get(row).copied().unwrap_or(false));
        }
        counts
    }

    /// Appends the rows matching every predicate to `out` as global row
    /// indices (`start` is the block's first global row), in ascending
    /// order. An empty predicate set matches every row.
    pub fn rows_matching(&self, preds: &[(usize, u32)], start: usize, out: &mut Vec<usize>) {
        out.extend(self.matching(preds).map(|row| start + row));
    }

    /// Adds the block's per-value `(occurrences, drifted)` contributions
    /// for column `ci` into `counts` (indexed by dict code). Codes beyond
    /// `counts.len()` are ignored.
    pub fn accumulate_value_counts(&self, ci: usize, counts: &mut [MatchCounts]) {
        for (&code, &drifted) in self.columns[ci].iter().zip(&self.drift) {
            if let Some(c) = counts.get_mut(code as usize) {
                c.occurrences += 1;
                c.drifted += usize::from(drifted);
            }
        }
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
