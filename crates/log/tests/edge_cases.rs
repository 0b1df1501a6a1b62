//! Edge cases for windowing and retention — the paths that cut rows out
//! of a log or drop its head. A window here is a run of rows cut out by
//! [`DriftLog::slice`], as the orchestrator cuts its window log. Where a case needs an oracle it is the naive [`reference`]
//! over the raw entries.

mod reference;

use nazar_log::{Attribute, DriftLog, DriftLogEntry, MatchCounts};

fn entries_with(rows: usize) -> Vec<DriftLogEntry> {
    (0..rows)
        .map(|i| {
            DriftLogEntry::new(
                i as u64,
                &[("k", if i % 2 == 0 { "even" } else { "odd" })],
                i % 3 == 0,
            )
        })
        .collect()
}

fn log_of(entries: &[DriftLogEntry]) -> DriftLog {
    let mut log = DriftLog::new(&["k"]);
    log.extend(entries.iter().cloned()).expect("schema matches");
    log
}

fn log_with(rows: usize) -> DriftLog {
    log_of(&entries_with(rows))
}

/// Counts, rows and per-value counts of both values, against the reference.
fn assert_matches_reference(log: &DriftLog, entries: &[DriftLogEntry]) {
    assert_eq!(log.num_rows(), entries.len());
    for (row, e) in entries.iter().enumerate() {
        assert_eq!(&log.entry(row).expect("row in range"), e);
    }
    for value in ["even", "odd"] {
        let set = [Attribute::new("k", value)];
        assert_eq!(
            count(log, value),
            reference::count_matching(entries, &set, None)
        );
        assert_eq!(
            log.rows_matching(&set).expect("known key"),
            reference::rows_matching(entries, &set)
        );
    }
    assert_eq!(
        log.group_counts("k").expect("known key"),
        reference::group_counts(entries, "k")
    );
}

fn count(log: &DriftLog, value: &str) -> MatchCounts {
    log.count_matching(&[Attribute::new("k", value)], None)
        .expect("known key")
}

#[test]
fn window_of_empty_log_is_empty() {
    let log = DriftLog::new(&["k"]);
    let w = log.slice(0..0);
    assert!(w.is_empty());
    assert_eq!(w.schema(), log.schema());
}

#[test]
fn window_covering_everything_copies_everything() {
    let log = log_with(10);
    let w = log.slice(0..10);
    assert_eq!(w, log);
    assert_eq!(w.num_drifted(), log.num_drifted());
    assert_eq!(count(&w, "even"), count(&log, "even"));
}

#[test]
fn window_boundaries_are_half_open() {
    let log = log_with(10);
    // 3..7 keeps rows 3..=6.
    let w = log.slice(3..7);
    assert_eq!(w.num_rows(), 4);
    let rows = w
        .rows_matching(&[Attribute::new("k", "odd")])
        .expect("known key");
    // Original rows 3, 5 land at window rows 0, 2.
    assert_eq!(rows, vec![0, 2]);
}

#[test]
fn window_agrees_with_naive_reference() {
    let entries = entries_with(30);
    let log = log_of(&entries);
    for rows in [0..30, 5..25, 29..30, 30..30, 7..7, 3..9] {
        let want = &entries[rows.clone()];
        let got = log.slice(rows.clone());
        // Equal to a log pushed from the reference's rows: same rows and
        // the same first-use dictionary order.
        assert_eq!(got, log_of(want), "rows {rows:?}");
        assert_matches_reference(&got, want);
    }
}

#[test]
fn retain_last_zero_clears_the_log() {
    let mut log = log_with(10);
    log.retain_last(0);
    assert!(log.is_empty());
    assert_eq!(log.num_drifted(), 0);
    assert_eq!(count(&log, "even"), MatchCounts::default());
    // The emptied log still accepts new rows and re-indexes them.
    log.push(DriftLogEntry::new(99, &[("k", "even")], true))
        .expect("schema matches");
    assert_eq!(count(&log, "even").occurrences, 1);
}

#[test]
fn retain_last_at_least_num_rows_is_a_noop() {
    let mut log = log_with(10);
    let before = log.clone();
    log.retain_last(10);
    assert_eq!(log, before);
    log.retain_last(11);
    assert_eq!(log, before);
}

#[test]
fn repeated_retention_and_pushes_stay_consistent() {
    let mut log = DriftLog::new(&["k"]);
    let mut entries = Vec::new();
    for round in 0..5u64 {
        for i in 0..7u64 {
            let entry = DriftLogEntry::new(
                round * 100 + i,
                &[("k", if i % 2 == 0 { "even" } else { "odd" })],
                i == 0,
            );
            entries.push(entry.clone());
            log.push(entry).expect("schema matches");
        }
        log.retain_last(10);
        assert_matches_reference(&log, reference::last(&entries, 10));
    }
    assert_eq!(log.num_rows(), 10);
}

#[test]
fn retain_last_on_a_reopened_log_rebuilds_cleanly() {
    let log = log_with(10);
    // The store's reopen path: the log handed over by its codes.
    let mut back = DriftLog::with_dict_values(
        log.schema(),
        vec![log.dict_values(0).to_vec()],
        vec![log.column_codes(0).to_vec()],
        log.drift_flags().to_vec(),
        log.timestamps().to_vec(),
    )
    .expect("well-formed parts");
    back.retain_last(6);
    assert_eq!(back.num_rows(), 6);
    let mut expect = log.clone();
    expect.retain_last(6);
    assert_eq!(back, expect);
    assert_eq!(count(&back, "odd"), count(&expect, "odd"));
}

#[test]
fn window_then_retain_compose() {
    let log = log_with(20);
    let mut w = log.slice(5..15);
    assert_eq!(w.num_rows(), 10);
    w.retain_last(4); // original rows 11..15
    assert_eq!(w.num_rows(), 4);
    assert_eq!(
        w.rows_matching(&[Attribute::new("k", "odd")])
            .expect("known key"),
        vec![0, 2]
    );
}

#[test]
fn slice_and_append_rows_copy_rows_by_code() {
    let entries = entries_with(11);
    let log = log_of(&entries);
    // A slice is the string ingest of its rows, dictionaries included:
    // rows 1..6 start at "odd", so "odd" takes code 0.
    let sliced = log.slice(1..6);
    assert_eq!(sliced, log_of(&entries[1..6]));
    assert_eq!(sliced.dict_values(0), ["odd", "even"]);
    assert_matches_reference(&sliced, &entries[1..6]);
    assert!(log.slice(3..3).is_empty());
    // Appending onto rows already there continues in their code space.
    let mut grown = log_of(&entries[..2]);
    grown.append_rows(&log, 2..11).expect("same schema");
    assert_eq!(grown, log);
    assert_matches_reference(&grown, &entries);
    // Another schema appends nothing.
    let other = DriftLog::new(&["j"]);
    assert!(grown.append_rows(&other, 0..0).is_err());
    let mut wider = DriftLog::new(&["k", "j"]);
    assert!(wider.append_rows(&log, 0..1).is_err());
    assert!(wider.is_empty());
}
