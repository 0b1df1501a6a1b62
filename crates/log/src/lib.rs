//! The drift log: schema, columnar store and mini query engine.
//!
//! In the paper the drift log is an Amazon Aurora table; every on-device
//! inference appends one row of metadata (time, device id, weather,
//! location, ...) plus the boolean drift-detection result, and the
//! root-cause analysis Lambda runs SQL `COUNT` aggregations over it
//! (DESIGN.md substitution S7).
//!
//! This crate reproduces exactly that interface:
//!
//! * [`DriftLogEntry`] — one row: timestamp, attribute values, drift flag.
//! * [`RowBatch`] — rows as codes into a batch-local string page: what a
//!   device emits, an upload frame carries and [`DriftLog::ingest_rows`]
//!   appends without a string per row.
//! * [`DriftLog`] — a columnar, dictionary-encoded store over a fixed
//!   attribute schema, supporting the counting queries frequent-itemset
//!   mining needs (`COUNT(*) WHERE attr1 = v1 AND attr2 = v2 [AND drift]`),
//!   row-range slices (a window's log), and drift-mask overrides for
//!   counterfactual analysis. Its durable form is the chunk store
//!   `nazar-store`; the log itself has no serde form.
//! * [`varint`] and [`crc`] — the workspace's LEB128 and CRC-32, here
//!   because both crates that serialise rows (`nazar-store` to disk,
//!   `nazar-net` to the wire) already depend on this one.
//!
//! # Example
//!
//! ```
//! use nazar_log::{Attribute, DriftLog, DriftLogEntry};
//!
//! let mut log = DriftLog::new(&["weather", "location"]);
//! log.push(DriftLogEntry::new(0, &[("weather", "snow"), ("location", "nyc")], true))?;
//! log.push(DriftLogEntry::new(1, &[("weather", "clear"), ("location", "nyc")], false))?;
//! let snow = Attribute::new("weather", "snow");
//! let counts = log.count_matching(&[snow], None)?;
//! assert_eq!((counts.occurrences, counts.drifted), (1, 1));
//! # Ok::<(), nazar_log::LogError>(())
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod crc;
mod entry;
pub mod probe;
mod rows;
mod store;
pub mod varint;

pub use entry::{Attribute, DriftLogEntry};
pub use rows::{CodedRows, RowBatch};
pub use store::{DriftLog, IngestReport, LogError, MatchCounts, Result};

/// Builds the example drift log of Table 2 in the paper (two devices, New
/// York and Helsinki, five entries, snow as the true root cause and one
/// false-positive detection).
///
/// Used by the root-cause-analysis tests and the `table3` harness, which
/// must reproduce the paper's FIM metrics *exactly*.
pub fn paper_example_log() -> DriftLog {
    let mut log = DriftLog::new(&["weather", "location", "device_id"]);
    let rows: [(u64, &str, &str, &str, bool); 5] = [
        (
            6 * 3600 + 2 * 60 + 1,
            "clear-day",
            "helsinki",
            "android_42",
            false,
        ),
        (
            6 * 3600 + 2 * 60 + 23,
            "clear-day",
            "new-york",
            "android_21",
            false,
        ),
        (
            6 * 3600 + 4 * 60 + 55,
            "clear-day",
            "new-york",
            "android_21",
            true,
        ),
        (
            8 * 3600 + 3 * 60 + 32,
            "snow",
            "new-york",
            "android_21",
            true,
        ),
        (
            11 * 3600 + 5 * 60 + 1,
            "snow",
            "helsinki",
            "android_42",
            true,
        ),
    ];
    for (ts, weather, location, device, drift) in rows {
        log.push(DriftLogEntry::new(
            ts,
            &[
                ("weather", weather),
                ("location", location),
                ("device_id", device),
            ],
            drift,
        ))
        .expect("schema matches");
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_has_five_rows_three_drifted() {
        let log = paper_example_log();
        assert_eq!(log.num_rows(), 5);
        assert_eq!(log.num_drifted(), 3);
    }
}
