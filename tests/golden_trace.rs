//! Golden-trace regression test: a reduced-scale end-to-end orchestrator
//! run pinned to a checked-in snapshot (ISSUE 5 satellite).
//!
//! The trace covers the whole detect → analyze → adapt → deploy loop:
//! [`RunResult::summary`], per-window accuracy/detection numbers, the
//! causes adapted each window, and the deployed version counts. Any
//! numerical drift in a future refactor shows up as a line diff here.
//!
//! Regenerate intentionally with:
//!
//! ```text
//! NAZAR_BLESS=1 cargo test -q --test golden_trace
//! ```
//!
//! Wall-clock fields (`analysis_time`, `adapt_time`) are deliberately not
//! part of the trace. The CI `test-matrix` job runs this under
//! `NAZAR_NUM_THREADS=1` and `=8`, which makes the snapshot a
//! cross-thread-count determinism check too.
//!
//! The run goes through the one fleet engine, `FleetSim`; its bitwise
//! reference is the per-item lockstep oracle of `nazar-device`'s test
//! suite (`crates/device/tests/oracle/mod.rs`), which
//! `scheduler_determinism.rs` compares it against window by window —
//! broadcast, targeted and device-by-device deployments included.

use nazar::prelude::*;
use nazar_store::{DriftStore, StoreConfig};

const SNAPSHOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/run_summary.txt");

fn run(persist: Option<StoreConfig>) -> RunResult {
    let config = AnimalsConfig {
        classes: 6,
        dim: 24,
        train_per_class: 30,
        val_per_class: 8,
        devices_per_location: 2,
        arrivals_per_day: 1.0,
        ..AnimalsConfig::default()
    };
    let dataset = AnimalsDataset::generate(&config);
    let system = NazarSystem::train(
        &dataset.train,
        &dataset.val,
        ModelArch::resnet18_analog(config.dim, config.classes),
        4,
    )
    .with_config(CloudConfig {
        windows: 4,
        min_samples_per_cause: 12,
        persist,
        ..CloudConfig::default()
    });
    system.run(&dataset.streams, Strategy::Nazar)
}

fn trace(result: &RunResult) -> String {
    let mut out = String::new();
    out.push_str(&format!("summary: {}\n", result.summary()));
    for (i, w) in result.per_window.iter().enumerate() {
        out.push_str(&format!(
            "window {i}: total={} correct={} drifted={} drifted_correct={} detected={} \
             accuracy={:.4} detection_rate={:.4}\n",
            w.total,
            w.correct,
            w.drifted_total,
            w.drifted_correct,
            w.flagged,
            w.accuracy(),
            w.detection_rate(),
        ));
    }
    for (i, causes) in result.causes_per_window.iter().enumerate() {
        out.push_str(&format!("causes {i}: [{}]\n", causes.join(", ")));
    }
    out.push_str(&format!("versions: {:?}\n", result.version_counts));
    out.push_str(&format!("log_rows: {}\n", result.log_rows));
    out
}

/// A readable unified-ish diff for snapshot mismatches.
fn diff(want: &str, got: &str) -> String {
    let mut out = String::new();
    let (want_lines, got_lines): (Vec<&str>, Vec<&str>) =
        (want.lines().collect(), got.lines().collect());
    for i in 0..want_lines.len().max(got_lines.len()) {
        match (want_lines.get(i), got_lines.get(i)) {
            (Some(w), Some(g)) if w == g => {}
            (w, g) => {
                if let Some(w) = w {
                    out.push_str(&format!("  line {:>3} - {w}\n", i + 1));
                }
                if let Some(g) = g {
                    out.push_str(&format!("  line {:>3} + {g}\n", i + 1));
                }
            }
        }
    }
    out
}

fn assert_matches_snapshot(got: &str, mode: &str) {
    let want = std::fs::read_to_string(SNAPSHOT)
        .expect("snapshot missing; run with NAZAR_BLESS=1 to create it");
    assert!(
        got == want,
        "golden trace ({mode}) diverged from {SNAPSHOT} \
         (re-bless with NAZAR_BLESS=1 if the change is intentional):\n{}",
        diff(&want, got)
    );
}

#[test]
fn golden_trace_matches_snapshot() {
    let got = trace(&run(None));
    if std::env::var("NAZAR_BLESS").is_ok_and(|v| v == "1") {
        std::fs::write(SNAPSHOT, &got).expect("write blessed snapshot");
        eprintln!("blessed {SNAPSHOT}");
        return;
    }
    assert_matches_snapshot(&got, "in-memory");
}

/// Durable drift-log persistence (ISSUE 8) must be invisible to the run:
/// the same snapshot with a store mirroring every ingest into a tempdir,
/// then again mid-history against the reopened store — a restart between
/// runs neither loses rows nor perturbs a single traced number.
#[test]
fn golden_trace_with_persistence_matches_same_snapshot() {
    if std::env::var("NAZAR_BLESS").is_ok_and(|v| v == "1") {
        return; // `golden_trace_matches_snapshot` owns blessing
    }
    let dir = std::env::temp_dir().join(format!("nazar-golden-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let persist = StoreConfig::at(dir.to_string_lossy().into_owned());

    let result = run(Some(persist.clone()));
    assert_matches_snapshot(&trace(&result), "persisted");
    // Mid-run reopen: the store holds exactly the rows the run ingested.
    let store = DriftStore::open_config(&nazar_device::LOG_SCHEMA, persist.clone())
        .expect("reopen persisted store");
    assert!(store.recovery().is_clean());
    assert_eq!(store.num_rows(), result.log_rows);
    assert_eq!(
        store.durable_rows(),
        result.log_rows,
        "flushed at window boundaries"
    );
    drop(store);

    // Second run against the pre-populated store: history accumulates,
    // results do not move.
    let result = run(Some(persist.clone()));
    assert_matches_snapshot(&trace(&result), "persisted-reopen");
    let store = DriftStore::open_config(&nazar_device::LOG_SCHEMA, persist).expect("reopen again");
    assert_eq!(store.num_rows(), 2 * result.log_rows);
    let _ = std::fs::remove_dir_all(&dir);
}
