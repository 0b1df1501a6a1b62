//! The one evaluator of drift-log queries: scans over columnar row blocks.
//!
//! Every counting query in the workspace is answered here. The in-memory
//! [`DriftLog`](crate::DriftLog) keeps its coded rows in one
//! [`ColumnarBlock`]; the persistent chunked store (`nazar-store`,
//! DESIGN.md §13) keeps its unsealed tail as such a log and decodes each
//! compressed chunk into another block. No block carries an index: a query
//! scans its code columns, comparing the first two predicates a 64-row
//! word at a time with no branch per row and checking any further
//! predicate only on those hits (DESIGN.md §10).
//!
//! All row offsets inside a block are local; callers carry the block's
//! global start row and pass it to the scans that return rows, which is
//! what lets the store shift whole chunks during retention without
//! touching their bytes. The merge rules that combine per-block answers
//! (`MatchCounts += part`, appended offset rows, accumulated per-code
//! counts, [`group_counts`]) live in this crate, so the store over chunks
//! + tail merges exactly as one block would answer.

use crate::store::MatchCounts;

/// One block of dictionary-encoded rows: a decoded storage chunk, or the
/// rows of a [`DriftLog`](crate::DriftLog).
///
/// Holds the columnar data; every query is a scan over it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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

    /// An empty block of `width` columns.
    pub(crate) fn empty(width: usize) -> ColumnarBlock {
        ColumnarBlock {
            columns: vec![Vec::new(); width],
            ..ColumnarBlock::default()
        }
    }

    /// Appends one row: a code per column, its drift flag and timestamp.
    pub(crate) fn push_row(&mut self, codes: &[u32], drift: bool, timestamp: u64) {
        for (column, &code) in self.columns.iter_mut().zip(codes) {
            column.push(code);
        }
        self.drift.push(drift);
        self.timestamps.push(timestamp);
    }

    /// Drops the first `n` rows (at most all of them).
    pub(crate) fn drop_head(&mut self, n: usize) {
        let n = n.min(self.rows());
        for column in &mut self.columns {
            column.drain(..n);
        }
        self.drift.drain(..n);
        self.timestamps.drain(..n);
    }

    /// Rows in the block.
    pub fn rows(&self) -> usize {
        self.timestamps.len()
    }

    /// The block's per-row timestamps (local row order).
    pub fn timestamps(&self) -> &[u64] {
        &self.timestamps
    }

    /// The block's per-row drift flags (local row order).
    pub fn drift_flags(&self) -> &[bool] {
        &self.drift
    }

    /// The dict codes of column `ci`, one per local row.
    ///
    /// # Panics
    ///
    /// Panics if `ci` is out of range for the block's columns.
    pub fn column_codes(&self, ci: usize) -> &[u32] {
        &self.columns[ci]
    }

    /// The first two predicates as `(column, code)` slices — one predicate
    /// stands twice — for the kernels that zip two column slices and
    /// compare with no branch per row. `None` for the empty set.
    fn pair(&self, preds: &[(usize, u32)]) -> Option<[(&[u32], u32); 2]> {
        let [(a, x), (b, y)] = match *preds {
            [] => return None,
            [p] => [p, p],
            [p, q, ..] => [p, q],
        };
        Some([(&self.columns[a], x), (&self.columns[b], y)])
    }

    /// Calls `hit` with each local row matching every predicate, in
    /// ascending order; the empty set matches every row. Each 64-row
    /// stretch of the first two predicates becomes a word of hit bits,
    /// compared with no branch per row; only the hits are walked, and any
    /// further predicate is checked on them alone.
    fn for_each_match(&self, preds: &[(usize, u32)], mut hit: impl FnMut(usize)) {
        let Some([(a, x), (b, y)]) = self.pair(preds) else {
            (0..self.rows()).for_each(hit);
            return;
        };
        let rest = &preds[preds.len().min(2)..];
        for (i, (a, b)) in a.chunks(64).zip(b.chunks(64)).enumerate() {
            let mut hits = 0u64;
            for (j, (&u, &v)) in a.iter().zip(b).enumerate() {
                hits |= u64::from((u == x) & (v == y)) << j;
            }
            while hits != 0 {
                let row = 64 * i + hits.trailing_zeros() as usize;
                hits &= hits - 1;
                if rest.iter().all(|&(ci, code)| self.columns[ci][row] == code) {
                    hit(row);
                }
            }
        }
    }

    /// `COUNT(*)` / `COUNT(*) WHERE drift` over the block for resolved
    /// predicates. `mask` (when given) is indexed by *local* row and
    /// overrides the stored drift flags, exactly as
    /// [`DriftLog::count_matching`](crate::DriftLog::count_matching) treats
    /// its mask; rows beyond the mask's length count as not drifted.
    pub fn count_matching(&self, preds: &[(usize, u32)], mask: Option<&[bool]>) -> MatchCounts {
        let flags = mask.unwrap_or(&self.drift);
        // Rows past the flags' end count as not drifted: split there once.
        let flags = &flags[..flags.len().min(self.rows())];
        let mut counts = MatchCounts::default();
        let pair = match self.pair(preds) {
            Some(pair) if preds.len() <= 2 => pair,
            // The empty set, or three or more predicates.
            _ => {
                self.for_each_match(preds, |row| {
                    counts.occurrences += 1;
                    counts.drifted += usize::from(flags.get(row).copied().unwrap_or(false));
                });
                return counts;
            }
        };
        let [(a, x), (b, y)] = pair;
        let (a, a_rest) = a.split_at(flags.len());
        let (b, b_rest) = b.split_at(flags.len());
        for ((&u, &v), &flag) in a.iter().zip(b).zip(flags) {
            let hit = (u == x) & (v == y);
            counts.occurrences += usize::from(hit);
            counts.drifted += usize::from(hit & flag);
        }
        for (&u, &v) in a_rest.iter().zip(b_rest) {
            counts.occurrences += usize::from((u == x) & (v == y));
        }
        counts
    }

    /// Appends the rows matching every predicate to `out` as global row
    /// indices (`start` is the block's first global row), in ascending
    /// order. An empty predicate set matches every row.
    pub fn rows_matching(&self, preds: &[(usize, u32)], start: usize, out: &mut Vec<usize>) {
        self.for_each_match(preds, |row| out.push(start + row));
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The general filter: the local rows matching every predicate,
    /// tested row by row.
    fn matching(block: &ColumnarBlock, preds: &[(usize, u32)]) -> Vec<usize> {
        (0..block.rows())
            .filter(|&row| {
                preds
                    .iter()
                    .all(|&(ci, code)| block.columns[ci][row] == code)
            })
            .collect()
    }

    /// [`ColumnarBlock::count_matching`] through the general filter.
    fn filtered_counts(
        block: &ColumnarBlock,
        preds: &[(usize, u32)],
        mask: Option<&[bool]>,
    ) -> MatchCounts {
        let flags = mask.unwrap_or(&block.drift);
        let mut counts = MatchCounts::default();
        for row in matching(block, preds) {
            counts.occurrences += 1;
            counts.drifted += usize::from(flags.get(row).copied().unwrap_or(false));
        }
        counts
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn block_scans_equal_the_general_filter(
            seed in 0u64..u64::MAX,
            rows in 0usize..300,
            dict in 1u32..12,
            preds in proptest::collection::vec((0usize..3, 0u32..14), 0..5),
            mask_len in 0usize..320,
            counts_len in 0usize..14,
            start in 0usize..1000,
        ) {
            // A xorshift stream stands in for random columns.
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            // Codes below `dict`; predicates may name codes up to 13, which
            // the block then lacks, and may name one column twice.
            let columns: Vec<Vec<u32>> = (0..3)
                .map(|_| (0..rows).map(|_| (next() % u64::from(dict)) as u32).collect())
                .collect();
            let drift: Vec<bool> = (0..rows).map(|_| next() % 3 == 0).collect();
            let timestamps: Vec<u64> = (0..rows as u64).collect();
            let block = ColumnarBlock::build(columns.clone(), drift.clone(), timestamps);
            // Masks shorter than, equal to and longer than the block.
            let mask: Vec<bool> = (0..mask_len).map(|_| next() % 2 == 0).collect();
            let masks = [None, Some(&mask[..]), Some(&mask[..mask_len.min(rows)])];
            for mask in masks {
                proptest::prop_assert_eq!(
                    block.count_matching(&preds, mask),
                    filtered_counts(&block, &preds, mask)
                );
            }
            let mut rows_out = vec![usize::MAX];
            block.rows_matching(&preds, start, &mut rows_out);
            let expected: Vec<usize> = std::iter::once(usize::MAX)
                .chain(matching(&block, &preds).into_iter().map(|row| start + row))
                .collect();
            proptest::prop_assert_eq!(rows_out, expected);
            // `counts` may be shorter than the largest code: those codes
            // are ignored.
            for (ci, column) in columns.iter().enumerate() {
                let mut counts = vec![MatchCounts { occurrences: 1, drifted: 1 }; counts_len];
                block.accumulate_value_counts(ci, &mut counts);
                let mut expected = vec![MatchCounts { occurrences: 1, drifted: 1 }; counts_len];
                for (&code, &drifted) in column.iter().zip(&drift) {
                    if let Some(c) = expected.get_mut(code as usize) {
                        c.occurrences += 1;
                        c.drifted += usize::from(drifted);
                    }
                }
                proptest::prop_assert_eq!(counts, expected);
            }
        }
    }
}
