//! MEMO: test-time robustness via adaptation over augmentations.

use crate::augment::Augmentation;
use crate::AdaptReport;
use nazar_nn::{entropy_of_logits, Adam, Layer, MlpResNet, Mode, Optimizer};
use nazar_tensor::{Tape, Tensor, Var};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration for [`memo_adapt`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoConfig {
    /// Adam learning rate for the BN affine parameters.
    pub lr: f32,
    /// Number of augmented copies per batch (the paper's `B`).
    pub augmentations: usize,
    /// Batch size. Like our TENT setup, MEMO here adapts BN layers on small
    /// batches (§3.4: "we adopt it using the setups similar to TENT").
    pub batch_size: usize,
    /// Number of passes over the adaptation data.
    pub epochs: usize,
}

impl Default for MemoConfig {
    fn default() -> Self {
        MemoConfig {
            lr: 1e-2,
            augmentations: 4,
            batch_size: 64,
            epochs: 1,
        }
    }
}

/// Adapts `model` to unlabeled `data` by minimizing the entropy of the
/// marginal prediction over random augmentations (Eq. 3 of the paper),
/// restricted to BN layers.
///
/// Rows containing non-finite features are dropped before adaptation, and
/// with no usable rows the model is left untouched and a zero-step
/// [`AdaptReport::noop`] is returned (DESIGN.md §9, same policy as
/// [`crate::tent_adapt`]).
///
/// # Panics
///
/// Panics if `data` is not an `[n, d]` matrix or `augmentations` is zero
/// (configuration contracts, not data conditions).
pub fn memo_adapt<R: Rng + ?Sized>(
    model: &mut MlpResNet,
    data: &Tensor,
    config: &MemoConfig,
    rng: &mut R,
) -> AdaptReport {
    assert!(
        config.augmentations > 0,
        "memo requires at least one augmentation"
    );
    let Some(data) = crate::sanitize_rows(data) else {
        return AdaptReport::noop();
    };
    let data = &data;
    let n = data.nrows().expect("adaptation data is [n, d]");

    let snapshot = nazar_nn::BnPatch::extract(model);
    let entropy_before = mean_entropy_of(model, data);
    model.set_all_trainable(false);
    model.set_bn_affine_trainable(true);

    let mut opt = Adam::new(config.lr);
    let mut steps = 0;
    for _ in 0..config.epochs {
        let mut start = 0;
        while start < n {
            let end = (start + config.batch_size).min(n);
            let idx: Vec<usize> = (start..end).collect();
            let batch = data.select_rows(&idx).expect("rows in range");
            let rows = end - start;

            let tape = Tape::new();
            // Marginal probability: p̄ = (1/B) Σ_b softmax(f(aug_b(x))).
            let mut marginal: Option<Var> = None;
            for _ in 0..config.augmentations {
                let aug = Augmentation::random(rng).apply(&batch, rng);
                let xv = tape.constant(aug);
                let logits = model.forward(&tape, &xv, Mode::Adapt);
                let p = logits.log_softmax().exp();
                marginal = Some(match marginal {
                    Some(acc) => acc.add(&p),
                    None => p,
                });
            }
            let p_bar = marginal
                .expect("at least one augmentation")
                .scale(1.0 / config.augmentations as f32);
            // H(p̄) averaged over the batch; clamp via +ε inside the log to
            // keep gradients finite when a class probability hits zero.
            let loss = p_bar
                .mul(&p_bar.add_scalar(1e-8).ln())
                .sum_all()
                .scale(-1.0 / rows as f32);
            let grads = loss.backward();
            model.collect_grads(&grads);
            opt.step(model);
            model.zero_grads();
            steps += 1;
            start = end;
        }
    }

    model.set_all_trainable(true);
    // Same overflow rollback as `tent_adapt` (DESIGN.md §9): never hand
    // back a model whose BN state went non-finite.
    if !nazar_nn::BnPatch::extract(model).is_finite() {
        let _ = snapshot.apply(model);
        return AdaptReport {
            entropy_before,
            entropy_after: entropy_before,
            steps: 0,
        };
    }
    let entropy_after = mean_entropy_of(model, data);
    AdaptReport {
        entropy_before,
        entropy_after,
        steps,
    }
}

fn mean_entropy_of(model: &mut MlpResNet, data: &Tensor) -> f32 {
    let logits = model.logits(data, Mode::Eval);
    let h = entropy_of_logits(&logits);
    h.iter().sum::<f32>() / h.len().max(1) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{corrupt, trained_bed};
    use nazar_data::Corruption;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn memo_reduces_entropy_on_drifted_data() {
        let bed = trained_bed();
        let drifted = corrupt(&bed.clean_x, Corruption::Fog, 3, 21);
        let mut model = bed.model.clone();
        let mut rng = SmallRng::seed_from_u64(0);
        let report = memo_adapt(
            &mut model,
            &drifted,
            &MemoConfig {
                epochs: 2,
                ..MemoConfig::default()
            },
            &mut rng,
        );
        assert!(
            report.entropy_after < report.entropy_before + 0.05,
            "{report:?}"
        );
        assert!(report.steps > 0);
    }

    #[test]
    fn memo_restores_trainability() {
        let bed = trained_bed();
        let mut model = bed.model.clone();
        let mut rng = SmallRng::seed_from_u64(1);
        memo_adapt(&mut model, &bed.clean_x, &MemoConfig::default(), &mut rng);
        let mut all = true;
        model.visit_params(&mut |p| all &= p.trainable());
        assert!(all);
    }

    #[test]
    fn memo_empty_and_poisoned_windows_are_noops() {
        // Regression (satellite 3): same policy as TENT — no usable rows
        // means no adaptation, not a panic.
        let bed = trained_bed();
        let mut model = bed.model.clone();
        let before = nazar_nn::BnPatch::extract(&mut model);
        let mut rng = SmallRng::seed_from_u64(3);

        let empty = Tensor::zeros(&[0, 32]);
        let report = memo_adapt(&mut model, &empty, &MemoConfig::default(), &mut rng);
        assert_eq!(report, crate::AdaptReport::noop());

        let poisoned = Tensor::from_vec(vec![f32::INFINITY; 2 * 32], &[2, 32]).unwrap();
        let report = memo_adapt(&mut model, &poisoned, &MemoConfig::default(), &mut rng);
        assert_eq!(report, crate::AdaptReport::noop());

        assert_eq!(nazar_nn::BnPatch::extract(&mut model), before);
    }

    #[test]
    fn memo_gradients_are_finite() {
        let bed = trained_bed();
        let drifted = corrupt(&bed.clean_x, Corruption::ImpulseNoise, 5, 22);
        let mut model = bed.model.clone();
        let mut rng = SmallRng::seed_from_u64(2);
        memo_adapt(&mut model, &drifted, &MemoConfig::default(), &mut rng);
        let probe = model.logits(&drifted, Mode::Eval);
        assert!(probe.data().iter().all(|v| v.is_finite()));
    }
}
