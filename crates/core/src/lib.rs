//! Nazar: monitoring and adapting ML models on mobile devices.
//!
//! A from-scratch Rust reproduction of *Nazar: Monitoring and Adapting ML
//! Models on Mobile Devices* (ASPLOS 2025). This facade crate re-exports
//! every subsystem and offers [`NazarSystem`], a one-stop entry point that
//! trains a base model on a workload and runs the full end-to-end loop:
//!
//! * [`tensor`] / [`nn`] — the numeric and neural-network substrate;
//! * [`data`] — synthetic datasets, the 16-corruption suite, weather traces;
//! * [`detect`] — the on-device drift detectors of Table 1;
//! * [`log`] — the drift log (columnar store + counting queries);
//! * [`analysis`] — FIM, set reduction, counterfactual analysis, FMS;
//! * [`adapt`] — TENT / MEMO self-supervised adaptation, BN patches;
//! * [`registry`] — model version pools and on-device selection;
//! * [`device`] — the simulated device fleet;
//! * [`cloud`] — the orchestrator and experiment harness.
//!
//! # Quickstart
//!
//! ```
//! use nazar::prelude::*;
//!
//! // A small animal-classification workload with weather drift.
//! let dataset = AnimalsDataset::generate(&AnimalsConfig::small());
//! let system = NazarSystem::train(
//!     &dataset.train,
//!     &dataset.val,
//!     ModelArch::tiny(dataset.config.dim, dataset.config.classes),
//!     42,
//! );
//! let result = system.run(&dataset.streams, Strategy::Nazar);
//! assert_eq!(result.per_window.len(), system.config().windows);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use nazar_adapt as adapt;
pub use nazar_analysis as analysis;
pub use nazar_cloud as cloud;
pub use nazar_data as data;
pub use nazar_detect as detect;
pub use nazar_device as device;
pub use nazar_log as log;
pub use nazar_nn as nn;
pub use nazar_registry as registry;
pub use nazar_tensor as tensor;

/// The most common types, importable in one line.
pub mod prelude {
    pub use crate::NazarSystem;
    pub use nazar_adapt::{adapt_to_patch, AdaptMethod, MemoConfig, TentConfig};
    pub use nazar_analysis::{
        analyze, AnalysisVariant, FimAlgorithm, FimConfig, RankedCause, RankingMetric,
    };
    pub use nazar_cloud::experiment::{run_all_strategies, run_strategy, train_base_model};
    pub use nazar_cloud::{
        CloudConfig, DriftAlert, OperationMode, Orchestrator, RunResult, Strategy,
    };
    pub use nazar_data::{
        AnimalsConfig, AnimalsDataset, CityscapesConfig, CityscapesDataset, Corruption, LabeledSet,
        Severity, SimDate, StreamItem, TextConfig, TextDataset, Weather, WeatherModel,
    };
    pub use nazar_detect::{DriftDetector, KsTestDetector, MspThreshold};
    pub use nazar_device::{DeviceConfig, WindowStats};
    pub use nazar_log::{Attribute, DriftLog, DriftLogEntry};
    pub use nazar_nn::{BnPatch, MlpResNet, ModelArch};
    pub use nazar_registry::{ModelPool, VersionMeta};
    pub use nazar_tensor::{Tape, Tensor};
}

use nazar_cloud::experiment::{run_strategy, train_base_model};
use nazar_cloud::{CloudConfig, RunResult, Strategy};
use nazar_data::{LabeledSet, LocationStream};
use nazar_nn::{MlpResNet, ModelArch};

/// A trained Nazar deployment: base model plus cloud configuration.
///
/// Thin convenience wrapper over [`nazar_cloud::experiment`]; see the
/// crate-level example.
#[derive(Debug, Clone)]
pub struct NazarSystem {
    base_model: MlpResNet,
    val_accuracy: f32,
    config: CloudConfig,
}

impl NazarSystem {
    /// Trains a base model on the given splits with default cloud settings.
    pub fn train(train: &LabeledSet, val: &LabeledSet, arch: ModelArch, seed: u64) -> Self {
        let trained = train_base_model(train, val, arch, seed);
        NazarSystem {
            base_model: trained.model,
            val_accuracy: trained.val_accuracy,
            config: CloudConfig::default(),
        }
    }

    /// Replaces the cloud configuration.
    pub fn with_config(mut self, config: CloudConfig) -> Self {
        self.config = config;
        self
    }

    /// The trained base model.
    pub fn base_model(&self) -> &MlpResNet {
        &self.base_model
    }

    /// Validation accuracy of the base model.
    pub fn val_accuracy(&self) -> f32 {
        self.val_accuracy
    }

    /// The active cloud configuration.
    pub fn config(&self) -> &CloudConfig {
        &self.config
    }

    /// Runs the end-to-end loop over `streams` under `strategy`.
    pub fn run(&self, streams: &[LocationStream], strategy: Strategy) -> RunResult {
        run_strategy(&self.base_model, streams, strategy, &self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_builds_and_runs_tiny_workload() {
        let cfg = AnimalsConfig {
            devices_per_location: 1,
            arrivals_per_day: 0.5,
            ..AnimalsConfig::small()
        };
        let dataset = AnimalsDataset::generate(&cfg);
        let system = NazarSystem::train(
            &dataset.train,
            &dataset.val,
            ModelArch::tiny(cfg.dim, cfg.classes),
            1,
        )
        .with_config(CloudConfig {
            windows: 2,
            ..CloudConfig::default()
        });
        assert!(system.val_accuracy() > 0.3);
        let result = system.run(&dataset.streams, Strategy::NoAdapt);
        assert_eq!(result.per_window.len(), 2);
    }
}
