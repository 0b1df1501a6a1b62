//! The naive reference the query suites compare against: straight row
//! scans over the raw entries a log was built from, sharing no code with
//! the log's query engine (no dictionaries, no code columns, no scan
//! kernels). The store's differential suite shares it by `#[path]`.

use nazar_log::{Attribute, DriftLogEntry, MatchCounts};

fn row_matches(entry: &DriftLogEntry, set: &[Attribute]) -> bool {
    set.iter()
        .all(|attr| entry.attr(&attr.key) == Some(attr.value.as_str()))
}

pub fn count_matching(
    entries: &[DriftLogEntry],
    set: &[Attribute],
    mask: Option<&[bool]>,
) -> MatchCounts {
    let mut counts = MatchCounts::default();
    for (row, entry) in entries.iter().enumerate() {
        if !row_matches(entry, set) {
            continue;
        }
        counts.occurrences += 1;
        let drifted = match mask {
            Some(m) => m.get(row).copied().unwrap_or(false),
            None => entry.drift,
        };
        if drifted {
            counts.drifted += 1;
        }
    }
    counts
}

pub fn rows_matching(entries: &[DriftLogEntry], set: &[Attribute]) -> Vec<usize> {
    (0..entries.len())
        .filter(|&row| row_matches(&entries[row], set))
        .collect()
}

/// Distinct values of a column in first-occurrence order (the dict
/// interning order of a log that saw exactly `entries`), with counts.
pub fn distinct_values(entries: &[DriftLogEntry], key: &str) -> Vec<(String, MatchCounts)> {
    let mut out: Vec<(String, MatchCounts)> = Vec::new();
    for entry in entries {
        let name = entry.attr(key).expect("entry carries the key");
        let pos = out.iter().position(|(v, _)| v == name).unwrap_or_else(|| {
            out.push((name.to_string(), MatchCounts::default()));
            out.len() - 1
        });
        out[pos].1.occurrences += 1;
        if entry.drift {
            out[pos].1.drifted += 1;
        }
    }
    out
}

pub fn group_counts(entries: &[DriftLogEntry], key: &str) -> Vec<(String, MatchCounts)> {
    let mut values = distinct_values(entries, key);
    values.sort_by(|a, b| b.1.occurrences.cmp(&a.1.occurrences).then(a.0.cmp(&b.0)));
    values
}

/// The last `n` entries — what `retain_last(n)` keeps.
pub fn last(entries: &[DriftLogEntry], n: usize) -> &[DriftLogEntry] {
    &entries[entries.len().saturating_sub(n)..]
}
