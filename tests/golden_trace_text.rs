//! Golden-trace regression test for the drifting-text workload (ISSUE 10).
//!
//! Mirrors `tests/golden_trace.rs` for [`TextDataset`]: a reduced-scale
//! end-to-end orchestrator run — detect → FIM → adapt → deploy, under the
//! default event-driven scheduler — pinned to a checked-in snapshot.
//!
//! Regenerate intentionally with:
//!
//! ```text
//! NAZAR_BLESS=1 cargo test -q --test golden_trace_text
//! ```

use nazar::prelude::*;

const SNAPSHOT: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/run_summary_text.txt"
);

fn text_system() -> (TextDataset, NazarSystem) {
    let config = TextConfig {
        topics: 6,
        vocab: 24,
        tokens_per_doc: 48,
        train_per_topic: 30,
        val_per_topic: 8,
        devices_per_location: 2,
        arrivals_per_day: 1.0,
        ..TextConfig::default()
    };
    let dataset = TextDataset::generate(&config);
    let system = NazarSystem::train(
        &dataset.train,
        &dataset.val,
        ModelArch::resnet18_analog(config.vocab, config.topics),
        4,
    )
    .with_config(CloudConfig {
        windows: 4,
        min_samples_per_cause: 12,
        ..CloudConfig::default()
    });
    (dataset, system)
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

#[test]
fn text_golden_trace_matches_snapshot() {
    let (dataset, system) = text_system();
    let got = trace(&system.run(&dataset.streams, Strategy::Nazar));
    if std::env::var("NAZAR_BLESS").is_ok_and(|v| v == "1") {
        std::fs::write(SNAPSHOT, &got).expect("write blessed snapshot");
        eprintln!("blessed {SNAPSHOT}");
        return;
    }
    let want = std::fs::read_to_string(SNAPSHOT)
        .expect("snapshot missing; run with NAZAR_BLESS=1 to create it");
    assert!(
        got == want,
        "text golden trace diverged from {SNAPSHOT} \
         (re-bless with NAZAR_BLESS=1 if the change is intentional):\n{}",
        diff(&want, &got)
    );
}
