//! Transport fault sweep: end-to-end Nazar runs over a loss × latency grid.
//!
//! For each grid point the full pipeline (detect → upload → analyze →
//! adapt → deploy) runs over the simulated network with that fault model,
//! reporting what the cloud actually received, how much the retry machinery
//! worked, and how gracefully accuracy/recall degrade as the link worsens.
//!
//! The network simulation runs on a virtual clock, so the lossiest grid
//! point costs the same wall clock as the perfect one. Every printed column
//! is deterministic (no wall-clock times), so two runs with the same seed —
//! including runs with different `NAZAR_NUM_THREADS` — must produce
//! byte-identical output; CI diffs exactly that against
//! `results/net_sweep.txt`.

use nazar_bench::report::{num, pct, Table};
use nazar_bench::{animals_model, tent_method};
use nazar_cloud::experiment::run_strategy;
use nazar_cloud::{CloudConfig, LinkConfig, NetConfig, RunResult, Strategy};
use nazar_data::AnimalsConfig;

fn mean_recall(r: &RunResult) -> f32 {
    let v: Vec<f32> = r.per_window.iter().map(|w| w.recall()).collect();
    v.iter().sum::<f32>() / v.len().max(1) as f32
}

fn main() {
    let _obs = nazar_bench::ObsRun::start("net_sweep");
    let losses = [0.0, 0.1, 0.2];
    let latencies_ms = [0u64, 50];

    let config = AnimalsConfig::small();
    let setup = animals_model("tiny", &config);
    let windows = 4;

    let mut t = Table::new(
        "Transport sweep: Nazar end-to-end over loss x latency",
        &[
            "loss",
            "latency (ms)",
            "acc (last)",
            "recall",
            "log rows",
            "frames lost",
            "retries",
            "dropped",
            "wire KiB",
        ],
    );

    let mut baseline_recall = None;
    let mut worst_recall_drop: f32 = 0.0;
    for loss in losses {
        for lat_ms in latencies_ms {
            let cloud = CloudConfig {
                windows,
                method: tent_method(),
                min_samples_per_cause: 8,
                net: Some(NetConfig {
                    link: LinkConfig {
                        latency_us: lat_ms * 1000,
                        jitter_us: lat_ms * 200,
                        loss,
                        duplicate: loss / 4.0,
                        reorder: loss / 2.0,
                        ..LinkConfig::perfect()
                    },
                    ..NetConfig::default()
                }),
                ..CloudConfig::default()
            };
            let r = run_strategy(
                &setup.model,
                &setup.dataset.streams,
                Strategy::Nazar,
                &cloud,
            );
            assert_eq!(
                r.per_window.len(),
                windows,
                "every window must complete even at loss={loss}"
            );
            let recall = mean_recall(&r);
            let base = *baseline_recall.get_or_insert(recall);
            if base > 0.0 {
                worst_recall_drop = worst_recall_drop.max((base - recall) / base);
            }
            t.row(&[
                num(loss, 2),
                lat_ms.to_string(),
                pct(r.mean_accuracy_last(1)),
                pct(recall),
                r.log_rows.to_string(),
                r.net.frames_lost.to_string(),
                r.net.retries.to_string(),
                (r.net.outbox_dropped + r.net.upload_failures).to_string(),
                num(r.net.wire_bytes() as f64 / 1024.0, 1),
            ]);
        }
    }
    t.print();

    println!(
        "worst recall degradation across the grid: {}",
        pct(worst_recall_drop)
    );
    assert!(
        worst_recall_drop <= 0.10,
        "recall must stay within 10% of the lossless baseline (got {worst_recall_drop})"
    );
    println!("graceful-degradation check passed.");
}
