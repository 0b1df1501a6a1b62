//! Self-supervised model adaptation: TENT, MEMO, and by-cause patches.
//!
//! Nazar adapts models to drift *without labels* (§3.4 of the paper):
//!
//! * [`tent_adapt`] — TENT (Wang et al. 2021): minimize the mean prediction
//!   entropy (Eq. 2) over batches of unlabeled inputs, updating **only the
//!   batch-normalization layers** (affine parameters by gradient, running
//!   statistics by exposure to the drifted batches). Nazar's default.
//! * [`memo_adapt`] — MEMO (Zhang et al. 2022): minimize the entropy of the
//!   *marginal* prediction over a set of random augmentations of each input
//!   (Eq. 3), likewise restricted to BN layers.
//! * [`adapt_to_patch`] — the deployment-facing entry point: clone the base
//!   model, adapt it on a cause's sampled data, and return the compact
//!   [`BnPatch`] that Nazar ships to devices. It skips the entropy report
//!   the two functions above compute.
//!
//! The by-cause vs. adapt-all comparison (Table 4 / Fig. 7) is a matter of
//! *which data* these functions receive; the grouping logic lives in the
//! cloud orchestrator crate.
//!
//! # Example
//!
//! ```
//! use nazar_adapt::{tent_adapt, TentConfig};
//! use nazar_nn::{MlpResNet, ModelArch};
//! use nazar_tensor::Tensor;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let mut rng = SmallRng::seed_from_u64(0);
//! let mut model = MlpResNet::new(ModelArch::tiny(8, 3), &mut rng);
//! let drifted = Tensor::randn(&mut rng, &[32, 8], 0.5, 1.0);
//! let report = tent_adapt(&mut model, &drifted, &TentConfig::default());
//! assert!(report.steps > 0);
//! assert!(report.entropy_after.is_finite());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod augment;
pub mod federated;
mod memo;
mod tent;

pub use augment::Augmentation;
pub use federated::{average_patches, federated_round, local_tent_round, LocalUpdate};
pub use memo::{memo_adapt, MemoConfig};
pub use tent::{tent_adapt, TentConfig};

use nazar_nn::{entropy_of_logits, BnPatch, MlpResNet, Mode};
use nazar_tensor::Tensor;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Drops rows of an `[n, d]` matrix that contain any non-finite feature.
///
/// Adaptation runs batch statistics over whole batches, so a single NaN row
/// would poison the BN running state for every row in its batch — and from
/// there every future prediction of the patched model. The policy
/// (DESIGN.md §9) is to adapt on the finite subset and report `None` when
/// nothing usable remains, which callers turn into a no-op report.
///
/// # Panics
///
/// Panics if `data` is not an `[n, d]` matrix (a shape contract, not a data
/// condition).
pub fn sanitize_rows(data: &Tensor) -> Option<Tensor> {
    finite_rows(data).map(Cow::into_owned)
}

/// [`sanitize_rows`] without the copy when every row is finite: rows are
/// copied only once a row is dropped.
fn finite_rows(data: &Tensor) -> Option<Cow<'_, Tensor>> {
    let n = data.nrows().expect("adaptation data is [n, d]");
    let d = data.ncols().expect("adaptation data is [n, d]");
    let raw = data.data();
    let finite = |row: &[f32]| row.iter().all(|v| v.is_finite());
    let rows = || (0..n).map(|i| &raw[i * d..(i + 1) * d]);
    let kept = rows().filter(|row| finite(row)).count();
    if kept == 0 {
        return None;
    }
    if kept == n {
        return Some(Cow::Borrowed(data));
    }
    let mut out = Vec::with_capacity(kept * d);
    for row in rows().filter(|row| finite(row)) {
        out.extend_from_slice(row);
    }
    Some(Cow::Owned(
        Tensor::from_vec(out, &[kept, d]).expect("kept rows form a matrix"),
    ))
}

/// The frame of every adaptation routine: drop non-finite rows, run
/// `steps` on the rest with only the BN affine parameters trainable, and
/// roll back a result that left the BN state non-finite. Returns the step
/// count; `0` leaves the model's BN state as it was.
fn adapt_bn(
    model: &mut MlpResNet,
    data: &Tensor,
    steps: impl FnOnce(&mut MlpResNet, &Tensor) -> usize,
) -> usize {
    let Some(data) = finite_rows(data) else {
        return 0;
    };
    let snapshot = BnPatch::extract(model);
    model.set_all_trainable(false);
    model.set_bn_affine_trainable(true);
    let steps = steps(model, &data);
    model.set_all_trainable(true);
    // Finite-but-extreme inputs can overflow the batch statistics and leave
    // NaN/Inf in the BN state even though every input row was finite. A
    // poisoned model must never leave an adaptation (DESIGN.md §9): roll
    // back to the pre-adaptation snapshot and count zero effective steps.
    if !BnPatch::extract(model).is_finite() {
        let _ = snapshot.apply(model);
        return 0;
    }
    steps
}

/// Runs `adapt` (an adaptation routine returning its step count) and
/// reports the model's mean eval-mode entropy on the finite rows of `data`
/// before and after. With no finite row the report is
/// [`AdaptReport::noop`].
fn reported(
    model: &mut MlpResNet,
    data: &Tensor,
    adapt: impl FnOnce(&mut MlpResNet, &Tensor) -> usize,
) -> AdaptReport {
    let Some(clean) = finite_rows(data) else {
        // Still run it: it checks its configuration, then adapts nothing.
        adapt(model, data);
        return AdaptReport::noop();
    };
    let entropy_before = mean_entropy_of(model, &clean);
    let steps = adapt(model, &clean);
    // Zero steps left the BN state, and so the entropy, as it was.
    let entropy_after = match steps {
        0 => entropy_before,
        _ => mean_entropy_of(model, &clean),
    };
    AdaptReport {
        entropy_before,
        entropy_after,
        steps,
    }
}

/// Mean prediction entropy of `model` on `data` (eval mode, no adaptation).
fn mean_entropy_of(model: &mut MlpResNet, data: &Tensor) -> f32 {
    let logits = model.logits(data, Mode::Eval);
    let h = entropy_of_logits(&logits);
    h.iter().sum::<f32>() / h.len().max(1) as f32
}

/// Summary of one adaptation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptReport {
    /// Mean prediction entropy (nats) before adaptation.
    pub entropy_before: f32,
    /// Mean prediction entropy (nats) after adaptation.
    pub entropy_after: f32,
    /// Number of gradient steps taken.
    pub steps: usize,
}

impl AdaptReport {
    /// The report for a run that had no usable data: zero steps, zero
    /// entropy delta, and the model untouched.
    pub fn noop() -> Self {
        AdaptReport {
            entropy_before: 0.0,
            entropy_after: 0.0,
            steps: 0,
        }
    }
}

/// The self-supervised adaptation objective to use.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AdaptMethod {
    /// Entropy minimization on batches (the paper's default).
    Tent(TentConfig),
    /// Marginal-entropy minimization over augmentations.
    Memo(MemoConfig),
}

impl Default for AdaptMethod {
    fn default() -> Self {
        AdaptMethod::Tent(TentConfig::default())
    }
}

impl AdaptMethod {
    /// Short method name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            AdaptMethod::Tent(_) => "tent",
            AdaptMethod::Memo(_) => "memo",
        }
    }
}

/// Clones `base`, adapts the clone on `data` with `method`, and returns the
/// resulting BN patch with the number of gradient steps taken.
///
/// This is what Nazar's cloud side runs once per root cause: the patch is
/// tagged with the cause's attributes and deployed to matching devices. It
/// runs the adaptation [`tent_adapt`] and [`memo_adapt`] report on, without
/// their two eval passes for the entropy report.
pub fn adapt_to_patch<R: Rng + ?Sized>(
    base: &MlpResNet,
    data: &Tensor,
    method: &AdaptMethod,
    rng: &mut R,
) -> (BnPatch, usize) {
    let mut model = base.clone();
    let steps = match method {
        AdaptMethod::Tent(cfg) => tent::adapt(&mut model, data, cfg),
        AdaptMethod::Memo(cfg) => memo::adapt(&mut model, data, cfg, rng),
    };
    (BnPatch::extract(&mut model), steps)
}

#[cfg(test)]
pub(crate) mod test_support {
    use nazar_data::{ClassSpace, Corruption, Severity};
    use nazar_nn::{train, MlpResNet, ModelArch, Sgd};
    use nazar_tensor::Tensor;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[allow(dead_code)]
    pub struct AdaptBed {
        pub model: MlpResNet,
        pub space: ClassSpace,
        pub clean_x: Tensor,
        pub clean_y: Vec<usize>,
    }

    /// Trains a small model on a moderately hard synthetic task.
    pub fn trained_bed() -> AdaptBed {
        let mut rng = SmallRng::seed_from_u64(23);
        let space = ClassSpace::new(&mut rng, 32, 6, 0.8, 0.5);
        let samples = space.sample_balanced(&mut rng, 80);
        let xs = Tensor::stack_rows(
            &samples
                .iter()
                .map(|s| s.features.clone())
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let ys: Vec<usize> = samples.iter().map(|s| s.label).collect();
        let mut model = MlpResNet::new(ModelArch::tiny(32, 6), &mut rng);
        let mut opt = Sgd::with_momentum(0.04, 0.9);
        for _ in 0..20 {
            train::train_epoch(&mut model, &mut opt, &xs, &ys, 32, &mut rng);
        }
        let eval = space.sample_balanced(&mut rng, 40);
        let clean_x =
            Tensor::stack_rows(&eval.iter().map(|s| s.features.clone()).collect::<Vec<_>>())
                .unwrap();
        let clean_y: Vec<usize> = eval.iter().map(|s| s.label).collect();
        AdaptBed {
            model,
            space,
            clean_x,
            clean_y,
        }
    }

    /// Applies a corruption to every row of a matrix.
    pub fn corrupt(x: &Tensor, c: Corruption, severity: u8, seed: u64) -> Tensor {
        let mut rng = SmallRng::seed_from_u64(seed);
        let sev = Severity::new(severity).unwrap();
        let rows: Vec<Vec<f32>> = (0..x.nrows().unwrap())
            .map(|i| c.apply(x.row(i).unwrap(), sev, &mut rng))
            .collect();
        Tensor::stack_rows(&rows).unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::{corrupt, trained_bed};
    use super::*;
    use nazar_data::Corruption;
    use nazar_nn::train;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn tent_patch_recovers_accuracy_on_drifted_data() {
        // The paper's core adaptation claim: TENT on a drift cause's data
        // substantially improves accuracy on that cause.
        let bed = trained_bed();
        let drifted = corrupt(&bed.clean_x, Corruption::Fog, 3, 1);
        let mut rng = SmallRng::seed_from_u64(2);

        let mut base = bed.model.clone();
        let before = train::evaluate(&mut base, &drifted, &bed.clean_y).accuracy;

        let config = TentConfig {
            epochs: 3,
            ..TentConfig::default()
        };
        let (patch, steps) = adapt_to_patch(
            &bed.model,
            &drifted,
            &AdaptMethod::Tent(config.clone()),
            &mut rng,
        );
        let mut adapted = bed.model.clone();
        patch.apply(&mut adapted).unwrap();
        let after = train::evaluate(&mut adapted, &drifted, &bed.clean_y).accuracy;

        // `tent_adapt` runs the same adaptation and reports on it.
        let mut reported = bed.model.clone();
        let report = tent_adapt(&mut reported, &drifted, &config);
        assert_eq!(report.steps, steps);
        assert_eq!(nazar_nn::BnPatch::extract(&mut reported), patch);
        assert!(report.entropy_after < report.entropy_before);
        assert!(
            after > before + 0.05,
            "adapted accuracy {after} should beat non-adapted {before}"
        );
    }

    #[test]
    fn patch_only_changes_bn_state() {
        let bed = trained_bed();
        let drifted = corrupt(&bed.clean_x, Corruption::Contrast, 3, 3);
        let mut rng = SmallRng::seed_from_u64(4);
        let (patch, _) = adapt_to_patch(&bed.model, &drifted, &AdaptMethod::default(), &mut rng);

        // Applying the patch to a clone and re-extracting must be lossless,
        // and the patch must carry the full BN layout of the model.
        let mut receiver = bed.model.clone();
        patch.apply(&mut receiver).unwrap();
        let re_extracted = nazar_nn::BnPatch::extract(&mut receiver);
        assert_eq!(re_extracted, patch);
        let mut model = bed.model.clone();
        assert_eq!(patch.num_layers(), model.num_bn_layers());
    }

    #[test]
    fn sanitize_rows_keeps_only_finite_rows() {
        use nazar_tensor::Tensor;
        let x = Tensor::from_vec(
            vec![1.0, 2.0, f32::NAN, 3.0, 4.0, 5.0, f32::INFINITY, 6.0],
            &[4, 2],
        )
        .unwrap();
        let kept = sanitize_rows(&x).unwrap();
        assert_eq!(kept.dims(), &[2, 2]);
        assert_eq!(kept.data(), &[1.0, 2.0, 4.0, 5.0]);

        assert!(sanitize_rows(&Tensor::zeros(&[0, 2])).is_none());
        assert!(sanitize_rows(&Tensor::from_vec(vec![f32::NAN; 4], &[2, 2]).unwrap()).is_none());

        // A fully-finite matrix passes through unchanged.
        let clean = Tensor::from_vec(vec![1.0; 6], &[3, 2]).unwrap();
        assert_eq!(sanitize_rows(&clean).unwrap(), clean);
    }

    #[test]
    fn method_names() {
        assert_eq!(AdaptMethod::default().name(), "tent");
        assert_eq!(AdaptMethod::Memo(MemoConfig::default()).name(), "memo");
    }
}
