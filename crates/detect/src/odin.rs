//! ODIN and Generalized-ODIN: input-perturbation detectors.
//!
//! ODIN (Liang et al. 2018) sharpens the in/out-of-distribution separation
//! by (a) temperature-scaling the softmax and (b) nudging the input a small
//! step in the direction that *increases* the predicted class's probability
//! before re-scoring. Both the perturbation step (a backward pass through
//! the network) and the second forward pass are why the paper rules this
//! family out for on-device use — it "triples the inference time" (§3.2.1).
//!
//! Generalized ODIN (Hsu et al. 2020) removes the need for drift data when
//! tuning: here [`GOdin::fit`] selects the perturbation magnitude purely on
//! clean data (the magnitude that maximizes mean clean confidence), a
//! simplification of the paper's decomposed-confidence head that keeps the
//! same capability profile (backprop yes, secondary dataset no).

use crate::capabilities::DetectorCapabilities;
use crate::{msp_of_logits, DriftDetector};
use nazar_nn::{Layer, MlpResNet, Mode};
use nazar_tensor::{Tape, Tensor};
use serde::{Deserialize, Serialize};

/// The ODIN detector: temperature scaling plus adversarial-style input
/// perturbation. Requires tuning `epsilon` on drifted data (Table 1 marks
/// ODIN as needing a secondary dataset) — see [`Odin::calibrate_epsilon`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Odin {
    /// Softmax temperature (the original paper uses values up to 1000).
    pub temperature: f32,
    /// Input perturbation magnitude.
    pub epsilon: f32,
    /// Flag inputs whose perturbed, temperature-scaled MSP is below this.
    pub threshold: f32,
}

impl Default for Odin {
    fn default() -> Self {
        Odin {
            temperature: 10.0,
            epsilon: 0.05,
            threshold: 0.9,
        }
    }
}

/// Computes perturbed, temperature-scaled MSP scores — the machinery shared
/// by ODIN and Generalized ODIN. Returns `1 - MSP'` per row.
///
/// Numeric policy (DESIGN.md §9): when the perturbation step cannot be
/// computed — an empty batch, or a gradient that never reached the input —
/// the function falls back to scoring the *unperturbed* input instead of
/// panicking mid-detection. A NaN gradient component contributes a zero
/// step for that feature (the sign test is NaN-false), and any non-finite
/// resulting MSP is already mapped to zero confidence by
/// [`msp_of_logits`].
fn perturbed_scores(model: &mut MlpResNet, x: &Tensor, temperature: f32, epsilon: f32) -> Vec<f32> {
    // Forward pass with the input as the tape's only differentiable leaf:
    // every parameter is frozen while it is bound, so the backward pass
    // computes ∂loss/∂input and no weight gradient.
    let mut trainable = Vec::new();
    model.visit_params(&mut |p| trainable.push(p.trainable()));
    model.set_all_trainable(false);
    let tape = Tape::new();
    let xv = tape.leaf(x.clone());
    let (_, logits) = model.forward_with_features(&tape, &xv, Mode::Eval);
    let mut restore = trainable.into_iter();
    model.visit_params(&mut |p| p.set_trainable(restore.next().unwrap_or(true)));
    let scaled = logits.scale(1.0 / temperature);
    let x_prime = match scaled.value().argmax_axis1() {
        Ok(predicted) => {
            // Loss whose negative input-gradient increases predicted-class
            // probability: the NLL of the predicted class.
            let loss = scaled.log_softmax().nll_loss(&predicted);
            let grads = loss.backward();
            match grads.get(&xv) {
                Some(g) => {
                    // x' = x - ε · sign(∇ₓ loss): toward higher confidence.
                    let step = g.map(|v| {
                        if v > 0.0 {
                            epsilon
                        } else if v < 0.0 {
                            -epsilon
                        } else {
                            0.0
                        }
                    });
                    x.sub(&step).unwrap_or_else(|_| x.clone())
                }
                None => x.clone(),
            }
        }
        Err(_) => x.clone(),
    };

    // Second forward pass on the perturbed input.
    let logits2 = model.logits(&x_prime, Mode::Eval).scale(1.0 / temperature);
    msp_of_logits(&logits2)
        .into_iter()
        .map(|p| 1.0 - p)
        .collect()
}

impl Odin {
    /// Picks the `(epsilon, threshold)` pair maximizing F1 on a labeled
    /// clean/drifted calibration split — the "secondary dataset" ODIN needs.
    pub fn calibrate_epsilon(
        model: &mut MlpResNet,
        clean: &Tensor,
        drifted: &Tensor,
        temperature: f32,
        candidates: &[f32],
    ) -> Odin {
        let mut best = Odin {
            temperature,
            ..Odin::default()
        };
        let mut best_f1 = -1.0f32;
        for &epsilon in candidates {
            let mut scores = perturbed_scores(model, drifted, temperature, epsilon);
            let n_drift = scores.len();
            scores.extend(perturbed_scores(model, clean, temperature, epsilon));
            let truth: Vec<bool> = (0..scores.len()).map(|i| i < n_drift).collect();
            let sweep = crate::eval::sweep_msp_thresholds(
                &scores,
                &truth,
                &(50..=99).map(|t| t as f32 / 100.0).collect::<Vec<_>>(),
            );
            if let Some(point) = sweep.best() {
                if point.eval.f1() > best_f1 {
                    best_f1 = point.eval.f1();
                    best = Odin {
                        temperature,
                        epsilon,
                        threshold: point.threshold,
                    };
                }
            }
        }
        best
    }
}

impl DriftDetector for Odin {
    fn name(&self) -> &'static str {
        "odin"
    }

    fn capabilities(&self) -> DetectorCapabilities {
        DetectorCapabilities {
            needs_secondary_dataset: true,
            needs_backprop: true,
            ..DetectorCapabilities::NONE
        }
    }

    fn scores(&mut self, model: &mut MlpResNet, x: &Tensor) -> Vec<f32> {
        perturbed_scores(model, x, self.temperature, self.epsilon)
    }

    fn detect(&mut self, model: &mut MlpResNet, x: &Tensor) -> Vec<bool> {
        self.scores(model, x)
            .into_iter()
            .map(|s| s > 1.0 - self.threshold)
            .collect()
    }
}

/// Generalized ODIN: the same perturb-and-rescore machinery, with the
/// perturbation magnitude selected on *clean data only*.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GOdin {
    /// Softmax temperature.
    pub temperature: f32,
    /// Input perturbation magnitude (fit on clean data).
    pub epsilon: f32,
    /// Flag inputs whose perturbed MSP is below this.
    pub threshold: f32,
}

impl Default for GOdin {
    fn default() -> Self {
        GOdin {
            temperature: 10.0,
            epsilon: 0.05,
            threshold: 0.9,
        }
    }
}

impl GOdin {
    /// Selects the epsilon that maximizes mean confidence on clean inputs —
    /// no drifted data involved.
    pub fn fit(model: &mut MlpResNet, clean: &Tensor, candidates: &[f32]) -> GOdin {
        let temperature = 10.0;
        let mut best_eps = candidates.first().copied().unwrap_or(0.05);
        let mut best_conf = f32::NEG_INFINITY;
        for &epsilon in candidates {
            let scores = perturbed_scores(model, clean, temperature, epsilon);
            let mean_conf =
                scores.iter().map(|s| 1.0 - s).sum::<f32>() / scores.len().max(1) as f32;
            if mean_conf > best_conf {
                best_conf = mean_conf;
                best_eps = epsilon;
            }
        }
        GOdin {
            temperature,
            epsilon: best_eps,
            threshold: 0.9,
        }
    }
}

impl DriftDetector for GOdin {
    fn name(&self) -> &'static str {
        "generalized-odin"
    }

    fn capabilities(&self) -> DetectorCapabilities {
        DetectorCapabilities {
            needs_backprop: true,
            ..DetectorCapabilities::NONE
        }
    }

    fn scores(&mut self, model: &mut MlpResNet, x: &Tensor) -> Vec<f32> {
        perturbed_scores(model, x, self.temperature, self.epsilon)
    }

    fn detect(&mut self, model: &mut MlpResNet, x: &Tensor) -> Vec<bool> {
        self.scores(model, x)
            .into_iter()
            .map(|s| s > 1.0 - self.threshold)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::test_support::{trained_model_and_data, TestBed};

    #[test]
    fn perturbation_increases_clean_confidence() {
        let TestBed {
            mut model, clean, ..
        } = trained_model_and_data();
        let base: f32 = {
            let logits = model.logits(&clean, Mode::Eval).scale(1.0 / 10.0);
            let msp = msp_of_logits(&logits);
            msp.iter().sum::<f32>() / msp.len() as f32
        };
        let scores = perturbed_scores(&mut model, &clean, 10.0, 0.05);
        let perturbed: f32 = scores.iter().map(|s| 1.0 - s).sum::<f32>() / scores.len() as f32;
        assert!(
            perturbed > base - 1e-4,
            "perturbed confidence {perturbed} fell below base {base}"
        );
    }

    #[test]
    fn odin_separates_clean_from_drifted() {
        let TestBed {
            mut model,
            clean,
            drifted,
            ..
        } = trained_model_and_data();
        let mut odin = Odin::default();
        let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
        let sc = mean(&odin.scores(&mut model, &clean));
        let sd = mean(&odin.scores(&mut model, &drifted));
        assert!(sd > sc, "drift {sd} !> clean {sc}");
    }

    #[test]
    fn calibrated_odin_beats_or_matches_arbitrary_epsilon() {
        let TestBed {
            mut model,
            clean,
            drifted,
            ..
        } = trained_model_and_data();
        let calibrated =
            Odin::calibrate_epsilon(&mut model, &clean, &drifted, 10.0, &[0.0, 0.02, 0.05, 0.1]);
        let eval =
            crate::eval::evaluate_detector(&mut calibrated.clone(), &mut model, &clean, &drifted);
        assert!(eval.f1() > 0.6, "calibrated odin f1 {}", eval.f1());
    }

    #[test]
    fn godin_fits_without_drift_data() {
        let TestBed {
            mut model,
            clean,
            drifted,
            ..
        } = trained_model_and_data();
        let mut godin = GOdin::fit(&mut model, &clean, &[0.0, 0.02, 0.05]);
        let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
        let sc = mean(&godin.scores(&mut model, &clean));
        let sd = mean(&godin.scores(&mut model, &drifted));
        assert!(sd > sc);
        assert!(!godin.capabilities().needs_secondary_dataset);
        assert!(godin.capabilities().needs_backprop);
    }

    #[test]
    fn capability_profile_matches_table1() {
        let odin = Odin::default();
        assert!(odin.capabilities().needs_secondary_dataset);
        assert!(odin.capabilities().needs_backprop);
        assert!(!odin.capabilities().needs_secondary_model);
        assert!(!odin.capabilities().needs_batching);
    }
}
