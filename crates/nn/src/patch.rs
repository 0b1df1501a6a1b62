//! Batch-normalization patches — the unit of model deployment in Nazar.
//!
//! The paper (§3.4) ships only adapted BN layers to devices: "In ResNet50
//! the BN layer is 217× smaller than the full model (0.4MB vs. 92MB)".
//! A [`BnPatch`] captures the affine parameters *and* running statistics of
//! every BN layer; applying it to a copy of the base model reconstructs the
//! adapted model.

use crate::error::{NnError, Result};
use crate::model::MlpResNet;
use nazar_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Snapshot of one BN layer: affine parameters plus running statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BnLayerState {
    /// Scale (γ).
    pub gamma: Tensor,
    /// Shift (β).
    pub beta: Tensor,
    /// Running mean.
    pub running_mean: Tensor,
    /// Running variance.
    pub running_var: Tensor,
}

/// A BN-only model delta, extracted from an adapted model and applied to a
/// base model on the device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BnPatch {
    layers: Vec<BnLayerState>,
}

impl BnPatch {
    /// Builds a patch directly from per-layer states (used by federated
    /// aggregation, which averages patches without touching a model).
    pub fn from_layers(layers: Vec<BnLayerState>) -> Self {
        BnPatch { layers }
    }

    /// Extracts the BN state of `model`.
    pub fn extract(model: &mut MlpResNet) -> Self {
        let mut layers = Vec::new();
        model.visit_bn(&mut |bn| {
            layers.push(BnLayerState {
                gamma: bn.gamma().value().clone(),
                beta: bn.beta().value().clone(),
                running_mean: bn.running_mean().clone(),
                running_var: bn.running_var().clone(),
            });
        });
        BnPatch { layers }
    }

    /// Whether every layer's state is usable: all four tensors finite and
    /// the running variance non-negative. A patch failing this check would
    /// poison every inference of the receiving model, so `apply` rejects it
    /// and the cloud refuses to deploy it (DESIGN.md §9).
    pub fn is_finite(&self) -> bool {
        self.layers.iter().all(|s| {
            let finite = |t: &Tensor| t.data().iter().all(|v| v.is_finite());
            finite(&s.gamma)
                && finite(&s.beta)
                && finite(&s.running_mean)
                && finite(&s.running_var)
                && s.running_var.data().iter().all(|&v| v >= 0.0)
        })
    }

    /// Applies the patch to `model`, overwriting its BN state.
    ///
    /// # Errors
    ///
    /// Returns an error if the patch layout (layer count or widths) does not
    /// match the model, or if a layer carries non-finite values or negative
    /// running variance ([`NnError::PatchNotFinite`]); the model is left
    /// unmodified in either case.
    pub fn apply(&self, model: &mut MlpResNet) -> Result<()> {
        // Validate before mutating anything.
        let (mut layers, mut width_mismatch) = (0, None);
        model.visit_bn(&mut |bn| {
            if let Some(state) = self.layers.get(layers) {
                if state.gamma.len() != bn.width() && width_mismatch.is_none() {
                    width_mismatch = Some(NnError::PatchWidthMismatch {
                        layer: layers,
                        patch_width: state.gamma.len(),
                        model_width: bn.width(),
                    });
                }
            }
            layers += 1;
        });
        if layers != self.layers.len() {
            return Err(NnError::PatchLayoutMismatch {
                patch_layers: self.layers.len(),
                model_layers: layers,
            });
        }
        if let Some(err) = width_mismatch {
            return Err(err);
        }
        for (i, state) in self.layers.iter().enumerate() {
            let finite = |t: &Tensor| t.data().iter().all(|v| v.is_finite());
            if !(finite(&state.gamma)
                && finite(&state.beta)
                && finite(&state.running_mean)
                && finite(&state.running_var)
                && state.running_var.data().iter().all(|&v| v >= 0.0))
            {
                return Err(NnError::PatchNotFinite { layer: i });
            }
        }
        // Copied into the model's own tensors, so applying allocates
        // nothing when the shapes agree (they always do for a patch
        // extracted from a model of this architecture).
        let mut i = 0;
        model.visit_bn(&mut |bn| {
            let s = &self.layers[i];
            assign(bn.gamma_mut().value_mut(), &s.gamma);
            assign(bn.beta_mut().value_mut(), &s.beta);
            let (mean, var) = bn.running_stats_mut();
            assign(mean, &s.running_mean);
            assign(var, &s.running_var);
            i += 1;
        });
        Ok(())
    }

    /// Number of BN layers in the patch.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Total number of scalars in the patch (γ, β, mean, var per layer).
    pub fn num_scalars(&self) -> usize {
        self.layers.iter().map(|l| l.gamma.len() * 4).sum()
    }

    /// The patch's exact length in bytes on the `nazar-net` wire: a `u16`
    /// layer count, then per layer four length-prefixed (`u32`) vectors of
    /// raw-bit `f32`s (γ, β, running mean, running variance).
    ///
    /// This is what one deployment actually costs the network per device —
    /// the transfer ledger charges it instead of the idealized
    /// `num_scalars() * 4` — and `nazar-net` asserts its encoder produces
    /// exactly this many bytes.
    pub fn encoded_len(&self) -> usize {
        2 + self
            .layers
            .iter()
            .map(|l| {
                4 * 4
                    + 4 * (l.gamma.len()
                        + l.beta.len()
                        + l.running_mean.len()
                        + l.running_var.len())
            })
            .sum::<usize>()
    }

    /// The per-layer states.
    pub fn layers(&self) -> &[BnLayerState] {
        &self.layers
    }
}

/// Overwrites `dst` with `src`: in place when their shapes agree.
fn assign(dst: &mut Tensor, src: &Tensor) {
    if dst.shape() == src.shape() {
        dst.data_mut().copy_from_slice(src.data());
    } else {
        *dst = src.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Mode;
    use crate::model::ModelArch;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn model(seed: u64) -> MlpResNet {
        MlpResNet::new(ModelArch::tiny(4, 3), &mut SmallRng::seed_from_u64(seed))
    }

    #[test]
    fn extract_apply_round_trip_transfers_bn_state() {
        let mut donor = model(0);
        // Shift the donor's BN stats by running a train-mode batch.
        let x = Tensor::from_vec((0..32).map(|i| i as f32).collect(), &[8, 4]).unwrap();
        let _ = donor.logits(&x, Mode::Train);
        let patch = BnPatch::extract(&mut donor);

        let mut receiver = model(0);
        patch.apply(&mut receiver).unwrap();
        let test = Tensor::from_vec(vec![0.5, -0.5, 1.0, 2.0], &[1, 4]).unwrap();
        let a = donor.logits(&test, Mode::Eval);
        let b = receiver.logits(&test, Mode::Eval);
        assert!(a.approx_eq(&b, 1e-6));
    }

    #[test]
    fn apply_rejects_wrong_layout() {
        let mut small = model(0);
        let patch = BnPatch::extract(&mut small);
        let mut bigger = MlpResNet::new(
            ModelArch::resnet18_analog(4, 3),
            &mut SmallRng::seed_from_u64(1),
        );
        assert!(matches!(
            patch.apply(&mut bigger),
            Err(NnError::PatchLayoutMismatch { .. })
        ));
    }

    #[test]
    fn apply_rejects_wrong_width() {
        let mut m = model(0);
        let mut patch = BnPatch::extract(&mut m);
        patch.layers[0].gamma = Tensor::ones(&[99]);
        assert!(matches!(
            patch.apply(&mut m),
            Err(NnError::PatchWidthMismatch { .. })
        ));
    }

    #[test]
    fn apply_rejects_non_finite_patches() {
        let mut m = model(0);
        let clean = BnPatch::extract(&mut m);
        let before = m.logits(
            &Tensor::from_vec(vec![0.5, -0.5, 1.0, 2.0], &[1, 4]).unwrap(),
            Mode::Eval,
        );

        let mut nan_gamma = clean.clone();
        let w = nan_gamma.layers[0].gamma.len();
        nan_gamma.layers[0].gamma = Tensor::from_vec(vec![f32::NAN; w], &[w]).unwrap();
        assert!(!nan_gamma.is_finite());
        assert_eq!(
            nan_gamma.apply(&mut m),
            Err(NnError::PatchNotFinite { layer: 0 })
        );

        let mut neg_var = clean.clone();
        let w = neg_var.layers[1].running_var.len();
        neg_var.layers[1].running_var = Tensor::from_vec(vec![-1.0; w], &[w]).unwrap();
        assert!(!neg_var.is_finite());
        assert_eq!(
            neg_var.apply(&mut m),
            Err(NnError::PatchNotFinite { layer: 1 })
        );

        // The model was left untouched by the rejected patches.
        let after = m.logits(
            &Tensor::from_vec(vec![0.5, -0.5, 1.0, 2.0], &[1, 4]).unwrap(),
            Mode::Eval,
        );
        assert!(before.approx_eq(&after, 1e-9));
        assert!(clean.is_finite());
    }

    #[test]
    fn patch_is_much_smaller_than_model() {
        let mut m = MlpResNet::new(
            ModelArch::resnet50_analog(64, 40),
            &mut SmallRng::seed_from_u64(0),
        );
        let patch = BnPatch::extract(&mut m);
        use crate::layers::Layer;
        assert!(patch.num_scalars() * 10 < m.num_params());
    }

    #[test]
    fn encoded_len_is_scalars_plus_framing() {
        let mut m = model(0);
        let patch = BnPatch::extract(&mut m);
        // 2-byte layer count + 4 length prefixes per layer + 4 bytes/scalar.
        let expected = 2 + patch.num_layers() * 16 + patch.num_scalars() * 4;
        assert_eq!(patch.encoded_len(), expected);
        assert!(patch.encoded_len() > patch.num_scalars() * 4);
    }

    #[test]
    fn serde_round_trip() {
        let mut m = model(7);
        let patch = BnPatch::extract(&mut m);
        let json = serde_json::to_string(&patch).unwrap();
        let back: BnPatch = serde_json::from_str(&json).unwrap();
        assert_eq!(back, patch);
    }
}
