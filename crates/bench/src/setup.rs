//! Workload construction with on-disk model caching.
//!
//! Several experiment binaries need the same trained base model (e.g. the
//! ResNet50-analog on the Animals workload). Training takes tens of seconds,
//! so trained models are cached as JSON under `results/.cache/` (not
//! tracked), keyed by the dataset configuration, the architecture and a
//! digest of the training split: a model trained on other data — the
//! generator's output changed, say — cannot load under the key.

use nazar_cloud::experiment::train_base_model;
use nazar_data::{AnimalsConfig, AnimalsDataset, LabeledSet};
use nazar_nn::{MlpResNet, ModelArch};
use std::fs;
use std::path::PathBuf;

/// A generated Animals workload plus a trained base model.
#[derive(Debug, Clone)]
pub struct AnimalsSetup {
    /// The generated dataset.
    pub dataset: AnimalsDataset,
    /// The trained base model.
    pub model: MlpResNet,
    /// Validation accuracy of the base model.
    pub val_accuracy: f32,
}

/// Builds the named architecture over a dataset's dimensions.
///
/// # Panics
///
/// Panics on unknown architecture names; valid names are `"tiny"`,
/// `"resnet18"`, `"resnet34"` and `"resnet50"`.
pub fn arch_by_name(name: &str, input_dim: usize, classes: usize) -> ModelArch {
    match name {
        "tiny" => ModelArch::tiny(input_dim, classes),
        "resnet18" => ModelArch::resnet18_analog(input_dim, classes),
        "resnet34" => ModelArch::resnet34_analog(input_dim, classes),
        "resnet50" => ModelArch::resnet50_analog(input_dim, classes),
        other => panic!("unknown architecture `{other}`"),
    }
}

/// FNV-1a over a training split's feature bits and labels, the part of a
/// cache tag that names the data a model was trained on.
pub fn data_digest(set: &LabeledSet) -> u64 {
    let words = set
        .features
        .iter()
        .flatten()
        .map(|v| u64::from(v.to_bits()))
        .chain(set.labels.iter().map(|&l| l as u64));
    words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    })
}

fn cache_path(tag: &str) -> PathBuf {
    PathBuf::from("results/.cache").join(format!("{tag}.json"))
}

/// Loads a cached trained model, if present and parseable.
pub fn load_cached_model(tag: &str) -> Option<(MlpResNet, f32)> {
    let bytes = fs::read(cache_path(tag)).ok()?;
    serde_json::from_slice::<(MlpResNet, f32)>(&bytes).ok()
}

/// Stores a trained model in the cache (best-effort; failures are ignored).
pub fn store_cached_model(tag: &str, model: &MlpResNet, val_accuracy: f32) {
    let path = cache_path(tag);
    if let Some(dir) = path.parent() {
        let _ = fs::create_dir_all(dir);
    }
    if let Ok(json) = serde_json::to_vec(&(model, val_accuracy)) {
        let _ = fs::write(path, json);
    }
}

/// Generates the Animals workload and trains (or loads) the base model of
/// the named architecture.
pub fn animals_model(arch_name: &str, config: &AnimalsConfig) -> AnimalsSetup {
    let dataset = AnimalsDataset::generate(config);
    let tag = format!(
        "animals-{arch_name}-d{}c{}t{}s{}-{:016x}",
        config.dim,
        config.classes,
        config.train_per_class,
        config.seed,
        data_digest(&dataset.train)
    );
    if let Some((model, val_accuracy)) = load_cached_model(&tag) {
        if model.arch().input_dim == config.dim && model.arch().num_classes == config.classes {
            return AnimalsSetup {
                dataset,
                model,
                val_accuracy,
            };
        }
    }
    let arch = arch_by_name(arch_name, config.dim, config.classes);
    let trained = train_base_model(&dataset.train, &dataset.val, arch, config.seed ^ 0xbeef);
    store_cached_model(&tag, &trained.model, trained.val_accuracy);
    AnimalsSetup {
        dataset,
        model: trained.model,
        val_accuracy: trained.val_accuracy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arch_by_name_resolves_all_presets() {
        for name in ["tiny", "resnet18", "resnet34", "resnet50"] {
            let arch = arch_by_name(name, 16, 4);
            assert_eq!(arch.input_dim, 16);
            assert_eq!(arch.num_classes, 4);
        }
    }

    #[test]
    fn the_data_digest_sees_every_feature_and_label() {
        let set = LabeledSet {
            features: vec![vec![0.5, -1.0], vec![2.0, 0.0]],
            labels: vec![0, 1],
        };
        let base = data_digest(&set);
        let mut feature = set.clone();
        feature.features[1][1] = -0.0;
        let mut label = set.clone();
        label.labels[0] = 2;
        assert_ne!(data_digest(&feature), base);
        assert_ne!(data_digest(&label), base);
        assert_eq!(data_digest(&set.clone()), base);
    }

    #[test]
    #[should_panic(expected = "unknown architecture")]
    fn arch_by_name_rejects_unknown() {
        let _ = arch_by_name("resnet101", 16, 4);
    }
}
