//! Detectors needing secondary datasets or models: OE, SSL, CSI-like.
//!
//! These are the Table 1 families the paper rules out for on-device use:
//! Outlier Exposure needs a drift dataset at training time, and the
//! self-supervised detectors (SSL rotation-prediction, CSI) need an
//! auxiliary model running next to the deployed one. They are implemented
//! here so the comparison is executable, with the image-specific transforms
//! replaced by their feature-vector analogs (cyclic shifts instead of
//! rotations — same group structure, see DESIGN.md S4).

use crate::capabilities::DetectorCapabilities;
use crate::policy::{sanitize_score, DetectError};
use crate::{msp_of_logits, DriftDetector};
use nazar_nn::{cross_entropy, Layer, MlpResNet, Mode, ModelArch, Optimizer, Sgd};
use nazar_tensor::{Tape, Tensor};
use rand::Rng;

/// Outlier Exposure (Hendrycks et al. 2019): fine-tune a copy of the model
/// to be *uncertain* on a provided outlier dataset, then detect with an MSP
/// threshold on the fine-tuned model.
#[derive(Debug, Clone)]
pub struct OutlierExposure {
    exposed_model: MlpResNet,
    /// MSP threshold on the exposed model.
    pub threshold: f32,
}

impl OutlierExposure {
    /// Fine-tunes a copy of `base` with the OE objective:
    /// `CE(clean) + λ · CE(outliers → uniform)`.
    ///
    /// # Errors
    ///
    /// [`DetectError::EmptyTrainingSet`] when either the clean or the
    /// outlier dataset has no rows.
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent (a programming error).
    pub fn fit<R: Rng + ?Sized>(
        base: &MlpResNet,
        train_x: &Tensor,
        train_y: &[usize],
        outliers: &Tensor,
        epochs: usize,
        rng: &mut R,
    ) -> Result<Self, DetectError> {
        let mut model = base.clone();
        let mut opt = Sgd::with_momentum(0.01, 0.9);
        let n = train_x.nrows().unwrap_or(0);
        let m = outliers.nrows().unwrap_or(0);
        if n == 0 || m == 0 {
            return Err(DetectError::EmptyTrainingSet {
                detector: "outlier-exposure",
            });
        }
        let batch = 32usize;
        for _ in 0..epochs {
            let mut start = 0;
            while start < n {
                let end = (start + batch).min(n);
                let idx: Vec<usize> = (start..end).collect();
                let bx = train_x.select_rows(&idx).expect("rows");
                let by: Vec<usize> = idx.iter().map(|&i| train_y[i]).collect();
                // A random outlier slice of the same size.
                let oidx: Vec<usize> = (0..(end - start)).map(|_| rng.gen_range(0..m)).collect();
                let ox = outliers.select_rows(&oidx).expect("rows");

                let tape = Tape::new();
                let xv = tape.constant(bx);
                let logits = model.forward(&tape, &xv, Mode::Train);
                let clean_loss = cross_entropy(&logits, &by);

                let ov = tape.constant(ox);
                let o_logits = model.forward(&tape, &ov, Mode::Train);
                // Cross-entropy to the uniform distribution: -(1/C)Σ log p.
                let uniform_loss = o_logits.log_softmax().mean_all().scale(-1.0);

                let loss = clean_loss.add(&uniform_loss.scale(0.5));
                let grads = loss.backward();
                model.collect_grads(&grads);
                opt.step(&mut model);
                model.zero_grads();
                start = end;
            }
        }
        Ok(OutlierExposure {
            exposed_model: model,
            threshold: 0.9,
        })
    }

    /// The fine-tuned model used for scoring.
    pub fn exposed_model(&mut self) -> &mut MlpResNet {
        &mut self.exposed_model
    }
}

impl DriftDetector for OutlierExposure {
    fn name(&self) -> &'static str {
        "outlier-exposure"
    }

    fn capabilities(&self) -> DetectorCapabilities {
        DetectorCapabilities {
            needs_secondary_dataset: true,
            ..DetectorCapabilities::NONE
        }
    }

    /// Scores with the *exposed* model; the deployed `model` argument is
    /// unused because OE replaces the scoring model entirely.
    fn scores(&mut self, _model: &mut MlpResNet, x: &Tensor) -> Vec<f32> {
        let logits = self.exposed_model.logits(x, Mode::Eval);
        msp_of_logits(&logits)
            .into_iter()
            .map(|p| 1.0 - p)
            .collect()
    }

    fn detect(&mut self, model: &mut MlpResNet, x: &Tensor) -> Vec<bool> {
        let t = self.threshold;
        self.scores(model, x)
            .into_iter()
            .map(|s| s > 1.0 - t)
            .collect()
    }
}

/// Cyclically shifts every row of `x` by `offset` positions.
fn shift_rows(x: &Tensor, offset: usize) -> Tensor {
    let n = x.nrows().unwrap_or(0);
    let d = x.ncols().unwrap_or(0);
    let data = x.data();
    let mut out = Vec::with_capacity(n * d);
    for i in 0..n {
        let row = &data[i * d..(i + 1) * d];
        for j in 0..d {
            out.push(row[(j + offset) % d]);
        }
    }
    Tensor::from_vec(out, &[n, d]).expect("same size")
}

/// SSL rotation-prediction detector (Hendrycks et al. 2019 / SSL row of
/// Table 1): an auxiliary model is trained to identify which of four
/// transforms was applied; on drifted data its confidence collapses.
/// Rotations become cyclic feature shifts in our vector domain.
#[derive(Debug, Clone)]
pub struct SslRotation {
    aux: MlpResNet,
    /// Flag inputs whose mean aux-confidence deficit exceeds this.
    pub threshold: f32,
}

impl SslRotation {
    /// Number of transform classes (quarter shifts).
    pub const TRANSFORMS: usize = 4;

    /// Trains the auxiliary shift classifier on clean data.
    ///
    /// # Errors
    ///
    /// [`DetectError::EmptyTrainingSet`] when `train_x` has no rows.
    pub fn fit<R: Rng + ?Sized>(
        train_x: &Tensor,
        epochs: usize,
        rng: &mut R,
    ) -> Result<Self, DetectError> {
        let n = train_x.nrows().unwrap_or(0);
        let d = train_x.ncols().unwrap_or(0);
        if n == 0 {
            return Err(DetectError::EmptyTrainingSet {
                detector: "ssl-rotation",
            });
        }
        // Build the 4-way shift-classification dataset.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for k in 0..Self::TRANSFORMS {
            let shifted = shift_rows(train_x, k * d / Self::TRANSFORMS);
            let sdata = shifted.data();
            for i in 0..n {
                xs.push(sdata[i * d..(i + 1) * d].to_vec());
                ys.push(k);
            }
        }
        let xs = Tensor::stack_rows(&xs).expect("uniform rows");
        let mut aux = MlpResNet::new(ModelArch::tiny(d, Self::TRANSFORMS), rng);
        let mut opt = Sgd::with_momentum(0.03, 0.9);
        for _ in 0..epochs {
            nazar_nn::train::train_epoch(&mut aux, &mut opt, &xs, &ys, 64, rng);
        }
        Ok(SslRotation {
            aux,
            threshold: 0.45,
        })
    }
}

impl DriftDetector for SslRotation {
    fn name(&self) -> &'static str {
        "ssl-rotation"
    }

    fn capabilities(&self) -> DetectorCapabilities {
        DetectorCapabilities {
            needs_secondary_model: true,
            ..DetectorCapabilities::NONE
        }
    }

    fn scores(&mut self, _model: &mut MlpResNet, x: &Tensor) -> Vec<f32> {
        let n = x.nrows().unwrap_or(0);
        let d = x.ncols().unwrap_or(0);
        let mut deficit = vec![0.0f32; n];
        for k in 0..Self::TRANSFORMS {
            let shifted = shift_rows(x, k * d / Self::TRANSFORMS);
            let proba = self.aux.predict_proba(&shifted);
            let c = proba.ncols().unwrap_or(0);
            if c <= k {
                continue;
            }
            for (i, deficit_i) in deficit.iter_mut().enumerate() {
                // Confidence assigned to the *correct* transform class k.
                *deficit_i += (1.0 - proba.data()[i * c + k]) / Self::TRANSFORMS as f32;
            }
        }
        // A non-finite aux probability (degenerate input) becomes the
        // max-drift sentinel rather than leaking NaN.
        deficit.into_iter().map(sanitize_score).collect()
    }

    fn detect(&mut self, model: &mut MlpResNet, x: &Tensor) -> Vec<bool> {
        let t = self.threshold;
        self.scores(model, x).into_iter().map(|s| s > t).collect()
    }
}

/// CSI-style novelty detection (Tack et al. 2020), simplified: the score is
/// `-(max cosine similarity to a training-feature bank × feature norm)` —
/// the detection score CSI computes with its contrastively-trained encoder,
/// here taken over the deployed model's feature space with a stored bank
/// standing in for the auxiliary model.
#[derive(Debug, Clone)]
pub struct CsiLike {
    bank: Vec<Vec<f32>>, // normalized training features
    norm_scale: f32,
    /// Flag inputs whose score exceeds this.
    pub threshold: f32,
}

impl CsiLike {
    /// Builds the feature bank from (a subsample of) the training data.
    ///
    /// Training rows whose features are not finite are excluded from the
    /// bank (DESIGN.md §9).
    ///
    /// # Errors
    ///
    /// [`DetectError::InvalidParameter`] when `max_bank` is zero;
    /// [`DetectError::EmptyTrainingSet`] when `train_x` has no rows with
    /// finite features.
    pub fn fit(
        model: &mut MlpResNet,
        train_x: &Tensor,
        max_bank: usize,
    ) -> Result<Self, DetectError> {
        if max_bank == 0 {
            return Err(DetectError::InvalidParameter {
                detector: "csi-like",
                reason: "bank size must be nonzero",
            });
        }
        let features = model.features(train_x);
        let n = features.nrows().unwrap_or(0);
        let d = features.ncols().unwrap_or(0);
        if n == 0 {
            return Err(DetectError::EmptyTrainingSet {
                detector: "csi-like",
            });
        }
        let data = features.data();
        let stride = (n / max_bank).max(1);
        let mut bank: Vec<Vec<f32>> = Vec::new();
        let mut norm_sum = 0.0f32;
        for i in (0..n).step_by(stride) {
            let row = &data[i * d..(i + 1) * d];
            if !row.iter().all(|v| v.is_finite()) {
                continue;
            }
            let norm = row.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-6);
            if !norm.is_finite() {
                continue; // finite values can still overflow the norm
            }
            norm_sum += norm;
            bank.push(row.iter().map(|&v| v / norm).collect());
        }
        if bank.is_empty() {
            return Err(DetectError::EmptyTrainingSet {
                detector: "csi-like",
            });
        }
        let norm_scale = (norm_sum / bank.len() as f32).max(1e-6);
        Ok(CsiLike {
            bank,
            norm_scale,
            threshold: -0.5,
        })
    }
}

impl DriftDetector for CsiLike {
    fn name(&self) -> &'static str {
        "csi-like"
    }

    fn capabilities(&self) -> DetectorCapabilities {
        DetectorCapabilities {
            needs_secondary_model: true,
            ..DetectorCapabilities::NONE
        }
    }

    fn scores(&mut self, model: &mut MlpResNet, x: &Tensor) -> Vec<f32> {
        let features = model.features(x);
        let n = features.nrows().unwrap_or(0);
        let d = features.ncols().unwrap_or(0);
        let data = features.data();
        (0..n)
            .map(|i| {
                let row = &data[i * d..(i + 1) * d];
                let norm = row.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-6);
                let max_sim = self
                    .bank
                    .iter()
                    .map(|b| row.iter().zip(b).map(|(&v, &bv)| v * bv).sum::<f32>() / norm)
                    .fold(f32::NEG_INFINITY, f32::max);
                // NaN similarities are skipped by the max-fold; a row with
                // no usable similarity scores as maximally drifted.
                sanitize_score(-(max_sim * norm / self.norm_scale))
            })
            .collect()
    }

    fn detect(&mut self, model: &mut MlpResNet, x: &Tensor) -> Vec<bool> {
        let t = self.threshold;
        self.scores(model, x).into_iter().map(|s| s > t).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::test_support::{trained_model_and_data, TestBed};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn shift_rows_is_cyclic() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 4]).unwrap();
        assert_eq!(shift_rows(&x, 1).data(), &[2.0, 3.0, 4.0, 1.0]);
        assert_eq!(shift_rows(&x, 4).data(), x.data());
    }

    #[test]
    fn outlier_exposure_sharpens_separation() {
        let bed: TestBed = trained_model_and_data();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut model = bed.model.clone();
        let mut oe = OutlierExposure::fit(
            &bed.model.clone(),
            &bed.train_x,
            &bed.train_y,
            &bed.drifted,
            3,
            &mut rng,
        )
        .unwrap();
        let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
        let sc = mean(&oe.scores(&mut model, &bed.clean));
        let sd = mean(&oe.scores(&mut model, &bed.drifted));
        assert!(sd > sc, "drift {sd} !> clean {sc}");
        assert!(oe.capabilities().needs_secondary_dataset);
    }

    #[test]
    fn ssl_rotation_confidence_collapses_on_drift() {
        let bed = trained_model_and_data();
        let mut rng = SmallRng::seed_from_u64(4);
        let mut ssl = SslRotation::fit(&bed.train_x, 12, &mut rng).unwrap();
        let mut model = bed.model.clone();
        let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
        let sc = mean(&ssl.scores(&mut model, &bed.clean));
        let sd = mean(&ssl.scores(&mut model, &bed.drifted));
        assert!(sd > sc, "drift {sd} !> clean {sc}");
        assert!(ssl.capabilities().needs_secondary_model);
    }

    #[test]
    fn csi_like_scores_drift_higher() {
        let bed = trained_model_and_data();
        let mut model = bed.model.clone();
        let mut csi = CsiLike::fit(&mut model, &bed.train_x, 128).unwrap();
        let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
        let sc = mean(&csi.scores(&mut model, &bed.clean));
        let sd = mean(&csi.scores(&mut model, &bed.drifted));
        assert!(sd > sc, "drift {sd} !> clean {sc}");
    }

    #[test]
    fn detectors_report_expected_names() {
        let bed = trained_model_and_data();
        let mut model = bed.model.clone();
        let csi = CsiLike::fit(&mut model, &bed.train_x, 16).unwrap();
        assert_eq!(csi.name(), "csi-like");
    }

    #[test]
    fn fits_reject_empty_training_data() {
        let bed = trained_model_and_data();
        let mut rng = SmallRng::seed_from_u64(5);
        let mut model = bed.model.clone();
        let empty = Tensor::zeros(&[0, 32]);
        assert!(matches!(
            OutlierExposure::fit(&bed.model.clone(), &empty, &[], &bed.drifted, 1, &mut rng),
            Err(DetectError::EmptyTrainingSet { .. })
        ));
        assert!(matches!(
            SslRotation::fit(&empty, 1, &mut rng),
            Err(DetectError::EmptyTrainingSet { .. })
        ));
        assert!(matches!(
            CsiLike::fit(&mut model, &empty, 16),
            Err(DetectError::EmptyTrainingSet { .. })
        ));
        assert!(matches!(
            CsiLike::fit(&mut model, &bed.train_x, 0),
            Err(DetectError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn csi_handles_poisoned_rows_without_nan_leakage() {
        // Poisoned training and query rows (NaN features) must neither
        // panic the fit nor leak NaN into the scores. (The network's ReLU
        // absorbs NaN inputs to finite activations; feature-level NaN is
        // caught by the bank filter and sanitize_score.)
        let bed = trained_model_and_data();
        let mut model = bed.model.clone();
        let mut data = bed.train_x.data().to_vec();
        data[0] = f32::NAN;
        let poisoned = Tensor::from_vec(data, bed.train_x.dims()).unwrap();
        let mut csi = CsiLike::fit(&mut model, &poisoned, 128).unwrap();
        let query = Tensor::from_vec(vec![f32::NAN; 32], &[1, 32]).unwrap();
        let scores = csi.scores(&mut model, &query);
        assert_eq!(scores.len(), 1);
        assert!(!scores[0].is_nan(), "{scores:?}");
    }
}
