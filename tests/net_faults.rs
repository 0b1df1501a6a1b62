//! End-to-end tests of the transport subsystem inside the full pipeline:
//! the default perfect link is bitwise identical to the legacy direct-call
//! path, injected loss degrades gracefully, and runs are deterministic per
//! seed.

use nazar_cloud::experiment::{run_strategy, train_base_model};
use nazar_cloud::{CloudConfig, LinkConfig, NetConfig, RunResult, Strategy};
use nazar_data::{AnimalsConfig, AnimalsDataset};
use nazar_nn::{MlpResNet, ModelArch};

fn small_world() -> (AnimalsDataset, MlpResNet) {
    let cfg = AnimalsConfig {
        devices_per_location: 2,
        arrivals_per_day: 1.0,
        ..AnimalsConfig::small()
    };
    let data = AnimalsDataset::generate(&cfg);
    let base = train_base_model(
        &data.train,
        &data.val,
        ModelArch::tiny(cfg.dim, cfg.classes),
        1,
    );
    (data, base.model)
}

fn small_config() -> CloudConfig {
    CloudConfig {
        windows: 4,
        min_samples_per_cause: 8,
        ..CloudConfig::default()
    }
}

/// The deterministic portion of a run result (time fields excluded).
type DeterministicView<'a> = (
    &'a Vec<nazar_device::WindowStats>,
    &'a Vec<usize>,
    &'a Vec<Vec<String>>,
    usize,
    u64,
    u64,
    u64,
);

fn deterministic_view(r: &RunResult) -> DeterministicView<'_> {
    (
        &r.per_window,
        &r.version_counts,
        &r.causes_per_window,
        r.log_rows,
        r.patch_bytes_shipped,
        r.patch_scalar_bytes,
        r.full_model_bytes_equivalent,
    )
}

#[test]
fn perfect_link_transport_is_bitwise_identical_to_direct_path() {
    let (data, base) = small_world();
    for strategy in [Strategy::Nazar, Strategy::AdaptAll] {
        let mut broadcast_bytes = 0;
        // Broadcast deploys, then targeted ones: each cause version ships
        // only to the devices whose attributes can select it.
        for targeted_deployment in [false, true] {
            let cfg = CloudConfig {
                targeted_deployment,
                ..small_config()
            };
            let direct_cfg = CloudConfig {
                net: None,
                ..cfg.clone()
            };
            let net_cfg = CloudConfig {
                net: Some(NetConfig::default()),
                ..cfg
            };
            let direct = run_strategy(&base, &data.streams, strategy, &direct_cfg);
            let net = run_strategy(&base, &data.streams, strategy, &net_cfg);
            assert_eq!(
                deterministic_view(&direct),
                deterministic_view(&net),
                "{strategy:?}, targeted {targeted_deployment}: a perfect link must \
                 reproduce the direct path bitwise"
            );
            // The transport did run: frames actually crossed the (perfect) wire.
            assert!(net.net.frames_sent > 0);
            assert_eq!(net.net.frames_lost, 0);
            assert_eq!(
                direct.net.frames_sent, 0,
                "direct path never touches the wire"
            );
            if targeted_deployment {
                assert!(
                    net.patch_bytes_shipped <= broadcast_bytes,
                    "{strategy:?}: targeted deploys shipped {} bytes, broadcast {broadcast_bytes}",
                    net.patch_bytes_shipped
                );
            } else {
                broadcast_bytes = net.patch_bytes_shipped;
            }
        }
    }
}

#[test]
fn twenty_percent_loss_completes_all_windows_with_recall_intact() {
    let (data, base) = small_world();
    let lossless = run_strategy(&base, &data.streams, Strategy::Nazar, &small_config());
    let lossy_cfg = CloudConfig {
        net: Some(NetConfig {
            link: LinkConfig {
                latency_us: 50_000,
                jitter_us: 10_000,
                loss: 0.2,
                duplicate: 0.02,
                reorder: 0.05,
                ..LinkConfig::perfect()
            },
            ..NetConfig::default()
        }),
        ..small_config()
    };
    let lossy = run_strategy(&base, &data.streams, Strategy::Nazar, &lossy_cfg);

    // Every window completes despite the faults.
    assert_eq!(lossy.per_window.len(), lossless.per_window.len());
    assert!(lossy.net.frames_lost > 0, "the loss model must have fired");
    assert!(lossy.net.retries > 0, "retries must have recovered frames");

    // Detection runs on-device, so detector recall is measured before the
    // lossy uplink and must stay within 10% of the lossless run.
    let mean_recall = |r: &RunResult| {
        let v: Vec<f32> = r.per_window.iter().map(|w| w.recall()).collect();
        v.iter().sum::<f32>() / v.len() as f32
    };
    let (clean, faulty) = (mean_recall(&lossless), mean_recall(&lossy));
    assert!(
        (clean - faulty).abs() <= 0.10 * clean.max(1e-6),
        "recall drifted too far under loss: lossless {clean}, lossy {faulty}"
    );
}

#[test]
fn lossy_runs_are_deterministic_per_seed() {
    let (data, base) = small_world();
    let cfg = CloudConfig {
        net: Some(NetConfig {
            link: LinkConfig {
                latency_us: 30_000,
                loss: 0.15,
                duplicate: 0.05,
                reorder: 0.1,
                ..LinkConfig::perfect()
            },
            seed: 99,
            ..NetConfig::default()
        }),
        ..small_config()
    };
    let a = run_strategy(&base, &data.streams, Strategy::Nazar, &cfg);
    let b = run_strategy(&base, &data.streams, Strategy::Nazar, &cfg);
    assert_eq!(deterministic_view(&a), deterministic_view(&b));
    assert_eq!(a.net, b.net, "wire statistics must replay identically");
}

#[test]
fn run_summary_reports_both_ledger_accountings() {
    let (data, base) = small_world();
    let result = run_strategy(&base, &data.streams, Strategy::Nazar, &small_config());
    assert!(
        result.patch_bytes_shipped > result.patch_scalar_bytes,
        "encoded size includes framing on top of raw scalars"
    );
    let summary = result.summary();
    assert!(summary.contains(&result.patch_bytes_shipped.to_string()));
    assert!(summary.contains(&result.patch_scalar_bytes.to_string()));
    assert!(summary.contains("savings"));
}
