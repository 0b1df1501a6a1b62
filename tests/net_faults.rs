//! Tests of the transport subsystem: at its own layer a perfect link
//! delivers exactly what direct `FleetSim` calls produce; inside the full
//! pipeline injected loss degrades gracefully and runs are deterministic
//! per seed.

use nazar_cloud::experiment::{run_strategy, train_base_model};
use nazar_cloud::{CloudConfig, LinkConfig, NetConfig, RunResult, Strategy};
use nazar_data::{AnimalsConfig, AnimalsDataset};
use nazar_device::{DeviceConfig, FleetSim, WindowStats};
use nazar_log::Attribute;
use nazar_net::Exchange;
use nazar_nn::{BnPatch, MlpResNet, Mode, ModelArch};
use nazar_registry::VersionMeta;
use nazar_tensor::Tensor;
use rand::rngs::SmallRng;
use rand::SeedableRng;

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

/// A donor BN patch for `base`'s architecture: batch statistics of a
/// freshly drawn model on random inputs.
fn donor_patch(base: &MlpResNet, seed: u64) -> BnPatch {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut donor = MlpResNet::new(base.arch().clone(), &mut rng);
    let x = Tensor::rand_uniform(&mut rng, &[8, base.arch().input_dim], -1.0, 1.0);
    let _ = donor.logits(&x, Mode::Train);
    BnPatch::extract(&mut donor)
}

/// A fleet's whole state as its `Debug` text, less the virtual clock.
fn state(fleet: &FleetSim) -> String {
    let clock = format!("clock_us: {},", fleet.clock_us());
    let text = format!("{fleet:?}");
    assert_eq!(text.matches(&clock).count(), 1, "one clock field");
    text.replacen(&clock, "", 1)
}

/// The transport checked at its own layer: one fleet driven by direct
/// `FleetSim` calls, its twin through a perfect-link `Exchange` (the
/// orchestrator's path), with a cause-scoped and a clean deploy between
/// windows, broadcast and targeted.
#[test]
fn perfect_link_transport_is_bitwise_identical_to_direct_path() {
    let (data, base) = small_world();
    let (device, windows) = (DeviceConfig::default(), 4);
    for targeted in [false, true] {
        let mut direct = FleetSim::from_streams(&data.streams, &base, &device);
        let mut wired = FleetSim::from_streams(&data.streams, &base, &device);
        let mut exchange = Exchange::new(wired.device_ids(), NetConfig::default());
        let mut rng_direct = SmallRng::seed_from_u64(7);
        let mut rng_wired = SmallRng::seed_from_u64(7);
        for w in 0..windows {
            let out = direct.process_window(&data.streams, w, windows, &mut rng_direct);
            let parts = wired.process_window_parts(&data.streams, w, windows, &mut rng_wired);
            // The link's own virtual time (acks, chunked downloads) moves
            // only the wired twin's clock, and a window boundary absorbs it.
            assert_eq!(wired.clock_us(), direct.clock_us(), "window {w}: clock");
            let mut stats = WindowStats::default();
            let mut batches = Vec::new();
            for (id, part) in parts {
                stats.merge(&part.stats);
                batches.push((id, part.entries, part.uploads));
            }
            exchange.advance_clock_to(wired.clock_us());
            let delivery = exchange.upload_window(batches);
            wired.advance_clock_to(exchange.clock_us());
            assert_eq!(
                delivery.entries,
                out.entries.to_entries(),
                "window {w}: entries"
            );
            assert_eq!(delivery.uploads, out.uploads, "window {w}: uploads");
            assert_eq!(stats, out.stats, "window {w}: stats");

            let cause = vec![Attribute::new(
                "location",
                data.streams[w % 2].location.clone(),
            )];
            let deploys = [
                (VersionMeta::new(cause, 2.0), donor_patch(&base, w as u64)),
                (VersionMeta::clean(), donor_patch(&base, 100 + w as u64)),
            ];
            for (meta, patch) in &deploys {
                if targeted {
                    // The orchestrator's path: device indices end to end.
                    let installed = direct.deploy_targeted(meta, patch);
                    let targets = wired.target_indices(meta);
                    let delivery = exchange.deploy_to(&targets, meta, patch);
                    let named: Vec<u32> = delivery.delivered.iter().map(|d| d.0).collect();
                    assert_eq!(named, targets, "window {w}: delivered to every target");
                    let copies = delivery.delivered.iter();
                    let wired_installed =
                        wired.install_at(copies.map(|(d, meta, patch)| (*d, &**meta, &**patch)));
                    assert_eq!(wired_installed, installed, "window {w}: installs");
                } else {
                    // The public edge: ids in, ids out.
                    direct.deploy(meta, patch);
                    let delivery = exchange.deploy(&wired.device_ids(), meta, patch);
                    assert_eq!(delivery.delivered.len(), direct.len(), "window {w}");
                    for (id, meta, patch) in &delivery.delivered {
                        assert!(wired.install_on(id, meta, patch));
                    }
                }
                wired.advance_clock_to(exchange.clock_us());
            }
            assert_eq!(wired.max_versions(), direct.max_versions(), "window {w}");
            // Exactly the devices the deliveries named hold each version:
            // but for the link's clock, the two fleets are the same state.
            assert_eq!(state(&wired), state(&direct), "window {w}");
        }
        assert!(direct.max_versions() >= 2, "both deploys landed");
        assert_eq!(exchange.report().frames_lost, 0);
    }
}

#[test]
fn perfect_link_loop_ships_frames_and_targets_no_more_than_broadcast() {
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
            let net = run_strategy(&base, &data.streams, strategy, &cfg);
            // The transport did run: frames actually crossed the (perfect) wire.
            assert!(net.net.frames_sent > 0);
            assert_eq!(net.net.frames_lost, 0);
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
