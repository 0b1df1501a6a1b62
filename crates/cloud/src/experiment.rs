//! End-to-end experiment helpers: base-model training and strategy sweeps.

use crate::orchestrator::{CloudConfig, Orchestrator, RunResult, Strategy};
use nazar_data::{LabeledSet, LocationStream};
use nazar_nn::{train, MlpResNet, ModelArch, Sgd};
use nazar_tensor::Tensor;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Converts a labeled split into the `(inputs, targets)` pair the training
/// harness consumes.
///
/// # Panics
///
/// Panics if the set is empty or rows have inconsistent widths.
pub fn to_matrix(set: &LabeledSet) -> (Tensor, Vec<usize>) {
    let xs = Tensor::stack_rows(&set.features).expect("non-empty, uniform-width split");
    (xs, set.labels.clone())
}

/// A base model trained "from scratch until convergence" (§5.2).
#[derive(Debug, Clone)]
pub struct TrainedBase {
    /// The trained classifier.
    pub model: MlpResNet,
    /// Best validation accuracy reached.
    pub val_accuracy: f32,
}

/// Trains a base model on a dataset's train/val splits with early stopping.
pub fn train_base_model(
    train_set: &LabeledSet,
    val_set: &LabeledSet,
    arch: ModelArch,
    seed: u64,
) -> TrainedBase {
    let mut rng = SmallRng::seed_from_u64(seed);
    let (train_x, train_y) = to_matrix(train_set);
    let (val_x, val_y) = to_matrix(val_set);
    let mut model = MlpResNet::new(arch, &mut rng);
    // Weight decay keeps the classifier's confidence calibrated (the
    // detector's operating regime in the paper: clean MSP near the 0.9
    // threshold rather than saturated at 1.0).
    let mut opt = Sgd::with_momentum(0.05, 0.9).with_weight_decay(4e-4);
    let val_accuracy = train::train_until_converged(
        &mut model, &mut opt, &train_x, &train_y, &val_x, &val_y, 64, 90, 8, &mut rng,
    );
    TrainedBase {
        model,
        val_accuracy,
    }
}

/// Runs one strategy end-to-end over the given streams.
pub fn run_strategy(
    base: &MlpResNet,
    streams: &[LocationStream],
    strategy: Strategy,
    config: &CloudConfig,
) -> RunResult {
    Orchestrator::new(base.clone(), streams, strategy, config.clone()).run(streams)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OperationMode, Orchestrator};
    use nazar_adapt::{AdaptMethod, TentConfig};
    use nazar_data::{AnimalsConfig, AnimalsDataset};

    fn small_setup() -> (AnimalsDataset, TrainedBase) {
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
        (data, base)
    }

    /// `windows` windows of the small world: 8 samples gate a cause, TENT
    /// adapts in batches of 16.
    fn small_config(windows: usize) -> CloudConfig {
        CloudConfig {
            windows,
            min_samples_per_cause: 8,
            method: AdaptMethod::Tent(TentConfig {
                batch_size: 16,
                ..TentConfig::default()
            }),
            ..CloudConfig::default()
        }
    }

    #[test]
    fn base_model_trains_to_reasonable_accuracy() {
        let (_, base) = small_setup();
        assert!(
            base.val_accuracy > 0.5,
            "val accuracy {}",
            base.val_accuracy
        );
    }

    #[test]
    fn nazar_run_produces_window_results_and_versions() {
        let (data, base) = small_setup();
        let config = small_config(4);
        let result = run_strategy(&base.model, &data.streams, Strategy::Nazar, &config);
        assert_eq!(result.per_window.len(), 4);
        assert_eq!(result.version_counts.len(), 4);
        assert!(result.log_rows > 0);
        // Weather drifts exist in the stream, so at least one window should
        // have discovered at least one cause.
        let total_causes: usize = result.causes_per_window.iter().map(Vec::len).sum();
        assert!(
            total_causes > 0,
            "no causes found: {:?}",
            result.causes_per_window
        );
    }

    #[test]
    fn no_adapt_never_deploys_versions() {
        let (data, base) = small_setup();
        let config = CloudConfig {
            windows: 3,
            ..CloudConfig::default()
        };
        let result = run_strategy(&base.model, &data.streams, Strategy::NoAdapt, &config);
        assert!(result.version_counts.iter().all(|&c| c == 0));
        assert_eq!(result.adapt_time.as_nanos(), 0);
    }

    #[test]
    fn adapt_all_deploys_a_single_universal_version() {
        let (data, base) = small_setup();
        let config = small_config(3);
        let result = run_strategy(&base.model, &data.streams, Strategy::AdaptAll, &config);
        assert!(result.version_counts.iter().all(|&c| c <= 1));
        assert!(result.version_counts.last().copied().unwrap_or(0) == 1);
    }

    #[test]
    fn cumulative_accuracy_is_monotone_in_window_count() {
        let (data, base) = small_setup();
        let config = CloudConfig {
            windows: 3,
            ..CloudConfig::default()
        };
        let result = run_strategy(&base.model, &data.streams, Strategy::NoAdapt, &config);
        let cum = result.cumulative_accuracy();
        assert_eq!(cum.len(), 3);
        for (all, drifted) in cum {
            assert!((0.0..=1.0).contains(&all));
            assert!((0.0..=1.0).contains(&drifted));
        }
    }

    #[test]
    fn manual_mode_raises_alerts_instead_of_adapting() {
        let (data, base) = small_setup();
        let config = CloudConfig {
            windows: 4,
            min_samples_per_cause: 8,
            mode: OperationMode::Manual,
            method: AdaptMethod::Tent(TentConfig {
                batch_size: 16,
                ..TentConfig::default()
            }),
            ..CloudConfig::default()
        };
        let mut orch =
            Orchestrator::new(base.model.clone(), &data.streams, Strategy::Nazar, config);
        let result = orch.run(&data.streams);

        // No automatic by-cause deployments (only the clean fallback).
        let adapted: usize = result.causes_per_window.iter().map(Vec::len).sum();
        assert_eq!(adapted, 0, "manual mode must not auto-adapt");
        assert!(!orch.pending_alerts().is_empty(), "expected alerts");
        let summary = orch.pending_alerts()[0].summary();
        assert!(summary.contains("risk ratio"), "summary: {summary}");

        // Approving an alert deploys a version for its cause.
        let before = result.patch_bytes_shipped;
        let cause = orch.approve_alert(0).expect("alert 0 is pending");
        assert!(!cause.attrs.is_empty());
        let _ = before;

        // Dismissal removes without deploying.
        if !orch.pending_alerts().is_empty() {
            let n = orch.pending_alerts().len();
            orch.dismiss_alert(0).expect("alert 0 is pending");
            assert_eq!(orch.pending_alerts().len(), n - 1);
        }

        // Out-of-range indices are an error, not a panic.
        let oob = orch.pending_alerts().len() + 3;
        assert!(orch.approve_alert(oob).is_err());
        assert!(orch.dismiss_alert(oob).is_err());
    }

    #[test]
    fn manual_approval_between_windows_serves_the_next_window() {
        let (data, base) = small_setup();
        let config = CloudConfig {
            mode: OperationMode::Manual,
            adapt_clean: false,
            ..small_config(4)
        };
        // Resolves alert 0 right after the first window that raised one, and
        // returns the version count the next window reports.
        let next_window_versions = |approve: bool| {
            let mut orch = Orchestrator::new(
                base.model.clone(),
                &data.streams,
                Strategy::Nazar,
                config.clone(),
            );
            while let Some(report) = orch.step(&data.streams) {
                assert_eq!(report.max_versions, 0, "nothing deploys unapproved");
                if orch.pending_alerts().is_empty() {
                    continue;
                }
                if approve {
                    orch.approve_alert(0).expect("alert 0 is pending");
                } else {
                    orch.dismiss_alert(0).expect("alert 0 is pending");
                }
                let next = orch.step(&data.streams).expect("a next window");
                return next.max_versions;
            }
            panic!("no window raised an alert");
        };
        assert!(next_window_versions(true) >= 1);
        assert_eq!(next_window_versions(false), 0);
    }

    #[test]
    fn transfer_ledger_shows_patch_savings() {
        let (data, base) = small_setup();
        let config = small_config(3);
        let result = run_strategy(&base.model, &data.streams, Strategy::Nazar, &config);
        if result.patch_bytes_shipped > 0 {
            // BN patches must be far smaller than full-model pushes (§3.4).
            assert!(
                result.transfer_savings() > 5.0,
                "savings only {:.1}x",
                result.transfer_savings()
            );
        }
    }
}
