//! [`RowBatch`]: drift-log rows as codes into a batch-local string page —
//! the one row type between a device's inference loop and the log
//! (DESIGN.md §8, §11).

use crate::entry::{Attribute, DriftLogEntry};

/// A batch of drift-log rows over fixed keys, each value a code into a
/// batch-local string page.
///
/// A fleet's worker writes one per window, reused from window to window:
/// each device's rows follow the previous device's, under a segment of
/// the page that holds the device id first, then each distinct location
/// and weather name once ([`RowBatch::push_values_from`]); a row is a
/// timestamp, a drift flag and one page code per key, and the page
/// borrows the stream items' strings, so emitting a row allocates
/// nothing. An upload frame carries a range of it, so the cloud parses
/// one in place into a `RowBatch<&str>` that borrows the frame's page
/// strings, and [`DriftLog::ingest_rows`](crate::DriftLog::ingest_rows)
/// (or [`DriftLog::ingest_coded`](crate::DriftLog::ingest_coded), over
/// [`CodedRows`] kept elsewhere) maps the page onto the log's
/// dictionaries once per batch.
///
/// The batch is flat — row-major codes, not per-key columns — because a
/// fleet device's window is a couple of rows. `S` is the page's string
/// type: borrowed from the stream items on a device, from the frame on
/// the cloud, owned where a batch outlives both. Equality is logical: two
/// batches are equal when they hold the same keys and rows, whatever
/// their pages look like.
#[derive(Debug, Clone)]
pub struct RowBatch<S = String> {
    keys: &'static [&'static str],
    page: Vec<S>,
    /// `keys.len()` page codes per row, row after row.
    codes: Vec<u32>,
    drift: Vec<bool>,
    timestamps: Vec<u64>,
}

/// A batch over no keys.
impl<S> Default for RowBatch<S> {
    fn default() -> Self {
        RowBatch::new(&[])
    }
}

impl<S> RowBatch<S> {
    /// An empty batch whose rows carry one value per key of `keys`, in
    /// that order.
    pub fn new(keys: &'static [&'static str]) -> Self {
        RowBatch::with_capacity(keys, 0, 0)
    }

    /// [`RowBatch::new`] with room for `rows` rows and `page` page strings,
    /// so a batch of known size grows no buffer.
    pub fn with_capacity(keys: &'static [&'static str], rows: usize, page: usize) -> Self {
        RowBatch {
            keys,
            page: Vec::with_capacity(page),
            codes: Vec::with_capacity(rows * keys.len()),
            drift: Vec::with_capacity(rows),
            timestamps: Vec::with_capacity(rows),
        }
    }

    /// The keys every row carries a value for, in value order.
    pub fn keys(&self) -> &'static [&'static str] {
        self.keys
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.timestamps.len()
    }

    /// Whether the batch holds no row.
    pub fn is_empty(&self) -> bool {
        self.timestamps.is_empty()
    }

    /// The page: every string a row's code can name, by code.
    pub fn page(&self) -> &[S] {
        &self.page
    }

    /// Row `row`'s page codes, one per key.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not below [`RowBatch::len`].
    pub fn row_codes(&self, row: usize) -> &[u32] {
        let width = self.keys.len();
        &self.codes[row * width..(row + 1) * width]
    }

    /// Every row's codes, row after row.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The batch's rows, borrowed.
    pub fn coded(&self) -> CodedRows<'_, S> {
        CodedRows {
            keys: self.keys,
            page: &self.page,
            codes: &self.codes,
            drift: &self.drift,
            timestamps: &self.timestamps,
        }
    }

    /// The per-row drift flags.
    pub fn drift_flags(&self) -> &[bool] {
        &self.drift
    }

    /// The per-row timestamps.
    pub fn timestamps(&self) -> &[u64] {
        &self.timestamps
    }

    /// Empties the batch and gives it `keys`, keeping its buffers.
    pub fn reset(&mut self, keys: &'static [&'static str]) {
        self.keys = keys;
        self.page.clear();
        self.codes.clear();
        self.drift.clear();
        self.timestamps.clear();
    }

    /// Appends `s` to the page without looking for an equal string, and
    /// returns its code. A frame parser uses it to take a page verbatim.
    pub fn push_page(&mut self, s: S) -> u32 {
        self.page.push(s);
        (self.page.len() - 1) as u32
    }

    /// Appends a row given as page codes, one per key.
    ///
    /// # Panics
    ///
    /// Panics if `codes` does not hold one code per key, or a code names no
    /// page string.
    pub fn push_coded(&mut self, timestamp: u64, drift: bool, codes: &[u32]) {
        assert_eq!(codes.len(), self.keys.len(), "one code per key");
        assert!(
            codes.iter().all(|&c| (c as usize) < self.page.len()),
            "codes name page strings"
        );
        self.codes.extend_from_slice(codes);
        self.drift.push(drift);
        self.timestamps.push(timestamp);
    }
}

impl<S: AsRef<str>> RowBatch<S> {
    /// The value row `row` holds for key `col`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    pub fn value(&self, row: usize, col: usize) -> &str {
        self.coded().value(row, col)
    }

    /// The code of `s` among the page strings from `first` on, if they
    /// hold it.
    fn code_from(&self, first: usize, s: &str) -> Option<u32> {
        let at = self.page[first..].iter().position(|p| p.as_ref() == s)?;
        Some((first + at) as u32)
    }

    /// The code of `s`, appending it to the page when the page lacks it.
    pub fn intern<'s>(&mut self, s: &'s str) -> u32
    where
        S: From<&'s str>,
    {
        self.intern_from(0, s)
    }

    /// [`RowBatch::intern`] looking among the page strings from `first` on
    /// only.
    fn intern_from<'s>(&mut self, first: usize, s: &'s str) -> u32
    where
        S: From<&'s str>,
    {
        match self.code_from(first, s) {
            Some(code) => code,
            None => self.push_page(S::from(s)),
        }
    }

    /// Appends a row given as its values, one per key, interning each.
    ///
    /// # Panics
    ///
    /// Panics if `values` does not hold one value per key.
    pub fn push_values<'s>(&mut self, timestamp: u64, drift: bool, values: &[&'s str])
    where
        S: From<&'s str>,
    {
        self.push_values_from(0, timestamp, drift, values);
    }

    /// [`RowBatch::push_values`] interning each value among the page
    /// strings from `first` on only. A batch that holds several devices'
    /// rows gives each device a run of the page — its segment, from
    /// `first` to the end — so that a device's values are found among its
    /// own few strings.
    ///
    /// # Panics
    ///
    /// Panics if `values` does not hold one value per key, or `first` is
    /// past the page.
    pub fn push_values_from<'s>(
        &mut self,
        first: usize,
        timestamp: u64,
        drift: bool,
        values: &[&'s str],
    ) where
        S: From<&'s str>,
    {
        assert_eq!(values.len(), self.keys.len(), "one value per key");
        for value in values {
            let code = self.intern_from(first, value);
            self.codes.push(code);
        }
        self.drift.push(drift);
        self.timestamps.push(timestamp);
    }

    /// Row `row` as a drift-log entry, its attributes in key order.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn entry(&self, row: usize) -> DriftLogEntry {
        self.coded().entry(row)
    }

    /// Every row as a drift-log entry, in order.
    pub fn to_entries(&self) -> Vec<DriftLogEntry> {
        self.coded().to_entries()
    }

    /// Appends `other`'s rows, which carry the same keys, after this
    /// batch's. Its page is appended whole, so no string is compared.
    ///
    /// # Panics
    ///
    /// Panics if `other`'s keys are not this batch's.
    pub fn append(&mut self, other: RowBatch<S>) {
        assert_eq!(self.keys, other.keys, "batches carry the same keys");
        let offset = self.page.len() as u32;
        self.page.extend(other.page);
        self.codes.extend(other.codes.iter().map(|c| c + offset));
        self.drift.extend(other.drift);
        self.timestamps.extend(other.timestamps);
    }
}

impl RowBatch<&str> {
    /// Empties the batch and ends its borrow of the strings its page named,
    /// keeping every buffer (the page's too: collecting an emptied vector
    /// into one of the same layout reuses its allocation), so one batch
    /// can be filled window after window.
    pub fn recycle<'b>(mut self) -> RowBatch<&'b str> {
        self.reset(self.keys);
        RowBatch {
            keys: self.keys,
            page: self.page.into_iter().map(|_| "").collect(),
            codes: self.codes,
            drift: self.drift,
            timestamps: self.timestamps,
        }
    }
}

/// Coded rows borrowed from buffers kept elsewhere: a [`RowBatch`]'s
/// shape without its ownership. The cloud keeps every accepted upload
/// frame's parsed rows in shared window buffers and hands each frame's
/// share to [`DriftLog::ingest_coded`](crate::DriftLog::ingest_coded) as
/// one of these.
#[derive(Debug, Clone, Copy)]
pub struct CodedRows<'a, S> {
    keys: &'static [&'static str],
    page: &'a [S],
    codes: &'a [u32],
    drift: &'a [bool],
    timestamps: &'a [u64],
}

impl<'a, S> CodedRows<'a, S> {
    /// Rows over `keys`: `keys.len()` codes into `page` per row, row after
    /// row, and each row's drift flag and timestamp.
    ///
    /// # Panics
    ///
    /// Panics if the slices disagree on the row count, or a code names no
    /// page string.
    pub fn new(
        keys: &'static [&'static str],
        page: &'a [S],
        codes: &'a [u32],
        drift: &'a [bool],
        timestamps: &'a [u64],
    ) -> Self {
        assert_eq!(
            codes.len(),
            drift.len() * keys.len(),
            "one code per key a row"
        );
        assert_eq!(timestamps.len(), drift.len(), "one timestamp a row");
        assert!(
            codes.iter().all(|&c| (c as usize) < page.len()),
            "codes name page strings"
        );
        CodedRows {
            keys,
            page,
            codes,
            drift,
            timestamps,
        }
    }

    /// The keys every row carries a value for, in value order.
    pub fn keys(&self) -> &'static [&'static str] {
        self.keys
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.drift.len()
    }

    /// Whether there is no row.
    pub fn is_empty(&self) -> bool {
        self.drift.is_empty()
    }

    /// The page every code names a string of.
    pub fn page(&self) -> &'a [S] {
        self.page
    }

    /// Every row's codes, row after row.
    pub fn codes(&self) -> &'a [u32] {
        self.codes
    }

    /// The per-row drift flags.
    pub fn drift_flags(&self) -> &'a [bool] {
        self.drift
    }

    /// The per-row timestamps.
    pub fn timestamps(&self) -> &'a [u64] {
        self.timestamps
    }
}

impl<'a, S: AsRef<str>> CodedRows<'a, S> {
    /// The value row `row` holds for key `col`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    pub fn value(&self, row: usize, col: usize) -> &'a str {
        let width = self.keys.len();
        assert!(col < width, "column within the keys");
        self.page[self.codes[row * width + col] as usize].as_ref()
    }

    /// Row `row` as a drift-log entry, its attributes in key order.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn entry(&self, row: usize) -> DriftLogEntry {
        let attrs = (self.keys.iter().enumerate())
            .map(|(col, key)| Attribute::new(*key, self.value(row, col)))
            .collect();
        DriftLogEntry {
            timestamp: self.timestamps[row],
            attrs,
            drift: self.drift[row],
        }
    }

    /// Every row as a drift-log entry, in order.
    pub fn to_entries(&self) -> Vec<DriftLogEntry> {
        (0..self.len()).map(|row| self.entry(row)).collect()
    }
}

impl<S: AsRef<str>, T: AsRef<str>> PartialEq<RowBatch<T>> for RowBatch<S> {
    fn eq(&self, other: &RowBatch<T>) -> bool {
        self.keys == other.keys
            && self.timestamps == other.timestamps
            && self.drift == other.drift
            && (0..self.len()).all(|row| {
                (0..self.keys.len()).all(|col| self.value(row, col) == other.value(row, col))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEYS: [&str; 3] = ["weather", "location", "device_id"];

    #[test]
    fn values_are_interned_once_and_read_back_as_entries() {
        let mut rows: RowBatch = RowBatch::new(&KEYS);
        assert_eq!(rows.intern("dev-0"), 0);
        rows.push_values(5, true, &["snow", "quebec", "dev-0"]);
        rows.push_values(6, false, &["clear", "quebec", "dev-0"]);
        rows.push_values(7, false, &["snow", "quebec", "dev-0"]);
        assert_eq!(rows.page(), ["dev-0", "snow", "quebec", "clear"]);
        assert_eq!(rows.row_codes(1), [3, 2, 0]);
        assert_eq!(rows.len(), 3);
        let e = rows.entry(0);
        assert_eq!(
            e,
            DriftLogEntry::new(
                5,
                &[
                    ("weather", "snow"),
                    ("location", "quebec"),
                    ("device_id", "dev-0")
                ],
                true
            )
        );
        assert_eq!(rows.to_entries().len(), 3);
    }

    #[test]
    fn equality_is_logical_and_append_keeps_rows() {
        let mut a: RowBatch = RowBatch::new(&KEYS);
        a.push_values(1, true, &["snow", "oslo", "d1"]);
        let mut b: RowBatch<&str> = RowBatch::new(&KEYS);
        b.push_page("unused");
        b.push_values(1, true, &["snow", "oslo", "d1"]);
        assert_eq!(a, b);
        b.push_values(2, false, &["fog", "oslo", "d1"]);
        assert_ne!(a, b);

        let mut c: RowBatch = RowBatch::new(&KEYS);
        c.push_values(2, false, &["fog", "oslo", "d1"]);
        a.append(c);
        assert_eq!(a, b);
        assert_eq!(a.to_entries(), b.to_entries());
    }

    #[test]
    fn a_segment_interns_among_its_own_strings() {
        let mut rows: RowBatch<&str> = RowBatch::new(&KEYS);
        rows.push_page("d1");
        rows.push_values_from(0, 1, false, &["snow", "oslo", "d1"]);
        let second = rows.page().len();
        rows.push_page("d2");
        rows.push_values_from(second, 2, true, &["snow", "oslo", "d2"]);
        rows.push_values_from(second, 3, false, &["fog", "oslo", "d2"]);
        assert_eq!(
            rows.page(),
            ["d1", "snow", "oslo", "d2", "snow", "oslo", "fog"]
        );
        assert_eq!(rows.row_codes(1), [4, 5, 3]);
        assert_eq!(rows.row_codes(2), [6, 5, 3]);
        let values = [
            ("weather", "fog"),
            ("location", "oslo"),
            ("device_id", "d2"),
        ];
        assert_eq!(rows.entry(2), DriftLogEntry::new(3, &values, false));
    }

    #[test]
    fn recycling_keeps_the_buffers() {
        let frame = String::from("abc");
        let mut rows: RowBatch<&str> = RowBatch::with_capacity(&KEYS, 4, 8);
        rows.push_page(&frame);
        rows.push_coded(1, false, &[0, 0, 0]);
        let page = rows.page().as_ptr() as usize;
        let rows: RowBatch<&'static str> = rows.recycle();
        drop(frame);
        assert!(rows.is_empty() && rows.page().is_empty());
        assert_eq!(rows.page().as_ptr() as usize, page);
        assert!(rows.page.capacity() >= 8 && rows.codes.capacity() >= 12);
    }
}
