//! Figure 8: the Cityscapes end-to-end workload.
//!
//! * 8a — average accuracy over the last 7 of 8 windows, three model
//!   architectures × {Nazar, adapt-all, no-adapt}. Paper: Nazar wins by
//!   10.1–19.4% over adapt-all.
//! * 8b — the same restricted to drifted data (paper: up to +49.5% on the
//!   smallest model).
//! * 8c — number of BN versions stored on devices per window, FIM-only vs
//!   the full analysis pipeline, with the version cap disabled (paper: the
//!   full pipeline holds steady at ~3).
//! * 8d — cumulative accuracy traces over windows (all data and drifted).
//!
//! `--windows 4` reruns with 4 adaptation windows (the §5.7 adaptation-
//! frequency ablation; paper: +1.2–3.8% average accuracy).

use nazar_analysis::AnalysisVariant;
use nazar_bench::report::{pct, Table};
use nazar_bench::setup::{arch_by_name, data_digest, load_cached_model, store_cached_model};
use nazar_bench::tent_method;
use nazar_cloud::experiment::{run_strategy, train_base_model};
use nazar_cloud::{CloudConfig, Strategy};
use nazar_data::{CityscapesConfig, CityscapesDataset, CITYSCAPES_CLASSES};
use nazar_device::DeviceConfig;

fn main() {
    let _obs = nazar_bench::ObsRun::start("fig8");
    let windows: usize = std::env::args()
        .skip_while(|a| a != "--windows")
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);

    let data_config = CityscapesConfig {
        total_images: 16_000,
        ..CityscapesConfig::default()
    };
    let dataset = CityscapesDataset::generate(&data_config);
    let classes = CITYSCAPES_CLASSES.len();
    println!(
        "cityscapes-like workload: {} stream images, {} cities, {} windows",
        dataset.stream_len(),
        data_config.cities,
        windows
    );

    let cloud = CloudConfig {
        windows,
        method: tent_method(),
        min_samples_per_cause: 24,
        device: DeviceConfig {
            sample_rate: 0.45,
            ..DeviceConfig::default()
        },
        ..CloudConfig::default()
    };

    let mut t8a = Table::new(
        "Figure 8a: average accuracy, last 7 windows (all data)",
        &["model", "nazar", "adapt-all", "no-adapt"],
    );
    let mut t8b = Table::new(
        "Figure 8b: average accuracy, drifted data only",
        &["model", "nazar", "adapt-all", "no-adapt"],
    );

    // The training split's digest keys the cache: a model trained on
    // other data cannot load.
    let data = data_digest(&dataset.train);
    let mut nazar_r50 = None;
    for arch_name in ["resnet18", "resnet34", "resnet50"] {
        let tag = format!("cityscapes-{arch_name}-s{}-{data:016x}", data_config.seed);
        let (model, val_acc) = match load_cached_model(&tag) {
            Some(m) => m,
            None => {
                let arch = arch_by_name(arch_name, data_config.dim, classes);
                let trained =
                    train_base_model(&dataset.train, &dataset.val, arch, data_config.seed);
                store_cached_model(&tag, &trained.model, trained.val_accuracy);
                (trained.model, trained.val_accuracy)
            }
        };
        println!("{arch_name}-analog val accuracy: {}", pct(val_acc));

        let mut row_a = vec![format!("{arch_name}-analog")];
        let mut row_b = vec![format!("{arch_name}-analog")];
        for strategy in [Strategy::Nazar, Strategy::AdaptAll, Strategy::NoAdapt] {
            let result = run_strategy(&model, &dataset.streams, strategy, &cloud);
            row_a.push(pct(
                result.mean_accuracy_last(windows.saturating_sub(1).max(1))
            ));
            row_b.push(pct(
                result.mean_drifted_accuracy_last(windows.saturating_sub(1).max(1))
            ));
            if strategy == Strategy::Nazar && arch_name == "resnet50" {
                nazar_r50 = Some(result);
            }
        }
        t8a.row(&row_a);
        t8b.row(&row_b);
    }
    t8a.print();
    t8b.print();

    // 8c: BN version growth, FIM-only vs full pipeline, no version cap.
    let tag = format!("cityscapes-resnet18-s{}-{data:016x}", data_config.seed);
    let (r18, _) = load_cached_model(&tag).expect("cached above");
    let uncapped = CloudConfig {
        device: DeviceConfig {
            pool_capacity: None,
            sample_rate: 0.45,
            ..DeviceConfig::default()
        },
        // A lower adaptation floor lets FIM-only's redundant causes actually
        // deploy, exposing the version growth the full pipeline avoids.
        min_samples_per_cause: 12,
        ..cloud.clone()
    };
    let full = run_strategy(&r18, &dataset.streams, Strategy::Nazar, &uncapped);
    let fim_only = run_strategy(
        &r18,
        &dataset.streams,
        Strategy::Nazar,
        &CloudConfig {
            analysis_variant: AnalysisVariant::FimOnly,
            ..uncapped.clone()
        },
    );
    let mut t8c = Table::new(
        "Figure 8c: stored BN versions per window (uncapped pool, resnet18-analog)",
        &["window", "FIM only", "full Nazar"],
    );
    for w in 0..windows {
        t8c.row(&[
            (w + 1).to_string(),
            fim_only
                .version_counts
                .get(w)
                .copied()
                .unwrap_or(0)
                .to_string(),
            full.version_counts.get(w).copied().unwrap_or(0).to_string(),
        ]);
    }
    t8c.print();
    println!(
        "paper shape: full Nazar steady around 3 versions; FIM-only grows with redundant causes.\n"
    );

    // 8d: cumulative accuracy trace of Nazar on the resnet50-analog.
    if let Some(result) = nazar_r50 {
        let mut t8d = Table::new(
            "Figure 8d: Nazar cumulative accuracy per window (resnet50-analog)",
            &["window", "all data", "drifted data", "causes adapted"],
        );
        for (w, (all, drifted)) in result.cumulative_accuracy().into_iter().enumerate() {
            t8d.row(&[
                (w + 1).to_string(),
                pct(all),
                pct(drifted),
                result.causes_per_window[w].join(" "),
            ]);
        }
        t8d.print();
    }
}
