//! TENT: fully test-time adaptation by entropy minimization.

use crate::AdaptReport;
use nazar_nn::{mean_entropy, Adam, Layer, MlpResNet, Mode, Optimizer};
use nazar_tensor::{Tape, Tensor};
use serde::{Deserialize, Serialize};

/// Configuration for [`tent_adapt`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TentConfig {
    /// Adam learning rate for the BN affine parameters.
    pub lr: f32,
    /// Batch size for entropy minimization. TENT requires batches > 1:
    /// optimizing a single prediction has the trivial solution of assigning
    /// probability 1 to the argmax class (§3.4).
    pub batch_size: usize,
    /// Number of passes over the adaptation data.
    pub epochs: usize,
}

impl Default for TentConfig {
    fn default() -> Self {
        TentConfig {
            lr: 1e-2,
            batch_size: 64,
            epochs: 1,
        }
    }
}

/// Adapts `model` to unlabeled `data` by entropy minimization on its BN
/// layers (affine parameters via gradient; running statistics via exposure
/// to the adaptation batches in [`Mode::Adapt`]), and reports the mean
/// prediction entropy before and after.
///
/// All non-BN parameters are frozen for the duration and their trainability
/// flags restored afterwards.
///
/// Rows containing non-finite features are dropped before adaptation
/// (DESIGN.md §9): one NaN row would poison the batch statistics — and
/// thus the shipped patch — for everyone. With no usable rows (including
/// an empty `data`) the model is left untouched and a zero-step
/// [`AdaptReport::noop`] is returned.
///
/// # Panics
///
/// Panics if `data` is not an `[n, d]` matrix or the batch size is smaller
/// than 2 (configuration contracts, not data conditions).
pub fn tent_adapt(model: &mut MlpResNet, data: &Tensor, config: &TentConfig) -> AdaptReport {
    crate::reported(model, data, |model, data| adapt(model, data, config))
}

/// The adaptation [`tent_adapt`] reports on and [`crate::adapt_to_patch`]
/// ships: one Adam step per batch of `data`'s finite rows, every epoch.
/// Returns the step count (0 after a rollback).
pub(crate) fn adapt(model: &mut MlpResNet, data: &Tensor, config: &TentConfig) -> usize {
    assert!(
        config.batch_size >= 2,
        "tent requires batches of at least 2 inputs"
    );
    crate::adapt_bn(model, data, |model, data, pool| {
        let n = data.nrows().expect("adaptation data is [n, d]");
        let mut opt = Adam::new(config.lr);
        let mut steps = 0;
        for _ in 0..config.epochs {
            for start in (0..n).step_by(config.batch_size) {
                let end = (start + config.batch_size).min(n);
                if end - start < 2 {
                    break; // a trailing singleton batch has the trivial optimum
                }
                let tape = Tape::with_pool(pool);
                let xv = tape.constant_rows(data, start..end);
                let logits = model.forward(&tape, &xv, Mode::Adapt);
                let grads = mean_entropy(&logits).backward();
                model.collect_grads(&grads);
                opt.step(model);
                model.zero_grads();
                steps += 1;
            }
        }
        steps
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{corrupt, trained_bed};
    use nazar_data::Corruption;
    use nazar_nn::train;

    #[test]
    fn tent_reduces_entropy_on_drifted_data() {
        let bed = trained_bed();
        let drifted = corrupt(&bed.clean_x, Corruption::GaussianNoise, 3, 7);
        let mut model = bed.model.clone();
        let report = tent_adapt(&mut model, &drifted, &TentConfig::default());
        assert!(report.entropy_after < report.entropy_before, "{report:?}");
        assert!(report.steps > 0);
    }

    #[test]
    fn tent_improves_accuracy_on_average_across_causes() {
        // TENT is not guaranteed to help on every single corruption (the
        // paper's Fig. 7 also shows near-ties), but on average over causes
        // it must win, and it must never collapse accuracy.
        let bed = trained_bed();
        let mut gain_sum = 0.0f32;
        for cause in [
            Corruption::Fog,
            Corruption::Contrast,
            Corruption::DefocusBlur,
        ] {
            let drifted = corrupt(&bed.clean_x, cause, 3, 11);
            let mut base = bed.model.clone();
            let before = train::evaluate(&mut base, &drifted, &bed.clean_y).accuracy;
            let mut adapted = bed.model.clone();
            tent_adapt(
                &mut adapted,
                &drifted,
                &TentConfig {
                    epochs: 3,
                    ..TentConfig::default()
                },
            );
            let after = train::evaluate(&mut adapted, &drifted, &bed.clean_y).accuracy;
            assert!(
                after >= before - 0.05,
                "{cause}: adapted {after} collapsed below non-adapted {before}"
            );
            gain_sum += after - before;
        }
        assert!(gain_sum > 0.0, "mean TENT gain {gain_sum} not positive");
    }

    #[test]
    fn tent_leaves_linear_weights_untouched() {
        let bed = trained_bed();
        let drifted = corrupt(&bed.clean_x, Corruption::Frost, 3, 13);
        let mut model = bed.model.clone();
        let patch_before = nazar_nn::BnPatch::extract(&mut model);
        tent_adapt(&mut model, &drifted, &TentConfig::default());
        let patch_after = nazar_nn::BnPatch::extract(&mut model);
        assert_ne!(patch_before, patch_after, "bn state must change");

        // Zero out the BN difference: applying the pre-adaptation patch must
        // fully restore the original predictions, proving nothing outside
        // BN changed.
        patch_before.apply(&mut model).unwrap();
        let mut original = bed.model.clone();
        let probe = corrupt(&bed.clean_x, Corruption::Frost, 2, 14);
        let a = model.logits(&probe, Mode::Eval);
        let b = original.logits(&probe, Mode::Eval);
        assert!(
            a.approx_eq(&b, 1e-4),
            "non-BN parameters drifted during TENT"
        );
    }

    #[test]
    fn tent_patch_equals_the_all_leaves_loop() {
        // `tent_adapt` binds frozen weights and its batches as constants,
        // so the tape computes γ/β gradients only. The reference runs the
        // same loop with every parameter and the batch bound as leaves —
        // a full backward — and filters at collect time.
        let bed = trained_bed();
        let drifted = corrupt(&bed.clean_x, Corruption::Fog, 3, 17);
        let config = TentConfig {
            batch_size: 50,
            epochs: 2,
            ..TentConfig::default()
        };
        let mut adapted = bed.model.clone();
        let report = tent_adapt(&mut adapted, &drifted, &config);

        let mut reference = bed.model.clone();
        let mut opt = Adam::new(config.lr);
        let n = drifted.nrows().unwrap();
        let mut steps = 0;
        for _ in 0..config.epochs {
            for start in (0..n).step_by(config.batch_size) {
                let end = (start + config.batch_size).min(n);
                let tape = Tape::new();
                let xv = tape.leaf(drifted.slice_rows(start, end).unwrap());
                let logits = reference.forward(&tape, &xv, Mode::Adapt);
                let grads = mean_entropy(&logits).backward();
                assert!(grads.get(&xv).is_some(), "the reference prunes nothing");
                reference.set_all_trainable(false);
                reference.set_bn_affine_trainable(true);
                reference.collect_grads(&grads);
                opt.step(&mut reference);
                reference.zero_grads();
                reference.set_all_trainable(true);
                steps += 1;
            }
        }
        assert_eq!(report.steps, steps);
        let bits = |model: &mut MlpResNet| -> Vec<Vec<u32>> {
            let patch = nazar_nn::BnPatch::extract(model);
            let tensors = |l: &nazar_nn::BnLayerState| {
                [&l.gamma, &l.beta, &l.running_mean, &l.running_var]
                    .map(|t| t.data().iter().map(|v| v.to_bits()).collect())
            };
            patch.layers().iter().flat_map(tensors).collect()
        };
        assert_eq!(bits(&mut adapted), bits(&mut reference));
    }

    #[test]
    fn trainability_flags_are_restored() {
        let bed = trained_bed();
        let mut model = bed.model.clone();
        let drifted = corrupt(&bed.clean_x, Corruption::Snow, 3, 15);
        tent_adapt(&mut model, &drifted, &TentConfig::default());
        let mut all_trainable = true;
        model.visit_params(&mut |p| all_trainable &= p.trainable());
        assert!(all_trainable);
    }

    #[test]
    fn empty_and_fully_poisoned_windows_are_noops() {
        // Regression (satellite 3): zero-sample windows and windows whose
        // every row is non-finite previously panicked; they must leave the
        // model untouched and report zero steps.
        let bed = trained_bed();
        let mut model = bed.model.clone();
        let before = nazar_nn::BnPatch::extract(&mut model);

        let empty = Tensor::zeros(&[0, 32]);
        let report = tent_adapt(&mut model, &empty, &TentConfig::default());
        assert_eq!(report, crate::AdaptReport::noop());

        let poisoned = Tensor::from_vec(vec![f32::NAN; 3 * 32], &[3, 32]).unwrap();
        let report = tent_adapt(&mut model, &poisoned, &TentConfig::default());
        assert_eq!(report, crate::AdaptReport::noop());

        assert_eq!(nazar_nn::BnPatch::extract(&mut model), before);
    }

    #[test]
    fn poisoned_rows_are_dropped_not_propagated() {
        // A handful of NaN rows inside an otherwise-good window must not
        // leak NaN into the adapted model's BN state or predictions.
        let bed = trained_bed();
        let drifted = corrupt(&bed.clean_x, Corruption::GaussianNoise, 3, 7);
        let mut data = drifted.data().to_vec();
        let d = drifted.ncols().unwrap();
        data[0] = f32::NAN;
        data[5 * d + 2] = f32::INFINITY;
        let poisoned = Tensor::from_vec(data, drifted.dims()).unwrap();

        let mut model = bed.model.clone();
        let report = tent_adapt(&mut model, &poisoned, &TentConfig::default());
        assert!(report.steps > 0);
        assert!(report.entropy_after.is_finite(), "{report:?}");
        let probe = model.logits(&bed.clean_x, Mode::Eval);
        assert!(probe.data().iter().all(|v| v.is_finite()));
        assert!(nazar_nn::BnPatch::extract(&mut model).is_finite());
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn tiny_batches_rejected() {
        let bed = trained_bed();
        let mut model = bed.model.clone();
        let _ = tent_adapt(
            &mut model,
            &bed.clean_x,
            &TentConfig {
                batch_size: 1,
                ..TentConfig::default()
            },
        );
    }
}
