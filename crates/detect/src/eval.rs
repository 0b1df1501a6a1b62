//! Detector evaluation: precision / recall / F1 and threshold sweeps.
//!
//! The paper grades detectors with the F1 score over an equal split of
//! clean and drifted images (Eq. 1, §3.2.2); this module regenerates those
//! measurements (Figures 2 and 5a).

use crate::DriftDetector;
use nazar_nn::MlpResNet;
use nazar_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Confusion-matrix summary of a detection run.
///
/// "Positive" means *drifted*: a true positive is a drifted input flagged as
/// drifted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DetectionEval {
    /// Drifted inputs flagged as drifted.
    pub tp: usize,
    /// Clean inputs flagged as drifted.
    pub fp: usize,
    /// Drifted inputs missed.
    pub fn_: usize,
    /// Clean inputs passed as clean.
    pub tn: usize,
}

impl DetectionEval {
    /// Builds the confusion matrix from parallel decision/truth slices.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn from_decisions(decisions: &[bool], truth: &[bool]) -> Self {
        assert_eq!(decisions.len(), truth.len(), "one truth label per decision");
        let mut eval = DetectionEval::default();
        for (&d, &t) in decisions.iter().zip(truth) {
            match (d, t) {
                (true, true) => eval.tp += 1,
                (true, false) => eval.fp += 1,
                (false, true) => eval.fn_ += 1,
                (false, false) => eval.tn += 1,
            }
        }
        eval
    }

    /// Precision `TP / (TP + FP)`; 0 when undefined.
    pub fn precision(&self) -> f32 {
        ratio(self.tp, self.tp + self.fp)
    }

    /// Recall `TP / (TP + FN)`; 0 when undefined.
    pub fn recall(&self) -> f32 {
        ratio(self.tp, self.tp + self.fn_)
    }

    /// F1 score `2TP / (2TP + FP + FN)` (Eq. 1 of the paper).
    pub fn f1(&self) -> f32 {
        ratio(2 * self.tp, 2 * self.tp + self.fp + self.fn_)
    }

    /// Fraction of all inputs flagged as drifted (the "detection rate" of
    /// Figures 5c and 6).
    pub fn detection_rate(&self) -> f32 {
        ratio(self.tp + self.fp, self.tp + self.fp + self.fn_ + self.tn)
    }
}

fn ratio(num: usize, den: usize) -> f32 {
    if den == 0 {
        0.0
    } else {
        num as f32 / den as f32
    }
}

/// Runs a detector over a labeled clean/drifted pair of batches and returns
/// the confusion summary.
pub fn evaluate_detector(
    detector: &mut dyn DriftDetector,
    model: &mut MlpResNet,
    clean: &Tensor,
    drifted: &Tensor,
) -> DetectionEval {
    let mut decisions = detector.detect(model, drifted);
    let mut truth = vec![true; decisions.len()];
    let clean_decisions = detector.detect(model, clean);
    truth.extend(std::iter::repeat_n(false, clean_decisions.len()));
    decisions.extend(clean_decisions);
    DetectionEval::from_decisions(&decisions, &truth)
}

/// One point of a threshold sweep: the threshold and its confusion summary.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// The threshold evaluated.
    pub threshold: f32,
    /// The resulting confusion summary.
    pub eval: DetectionEval,
}

/// F1-vs-threshold sweep results (Figure 5a).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ThresholdSweep {
    /// Sweep points in threshold order.
    pub points: Vec<SweepPoint>,
}

impl ThresholdSweep {
    /// The point with the highest F1. F1 comes from integer confusion
    /// counts and is always finite; `total_cmp` keeps the selection a total
    /// order regardless.
    pub fn best(&self) -> Option<&SweepPoint> {
        self.points
            .iter()
            .max_by(|a, b| a.eval.f1().total_cmp(&b.eval.f1()))
    }
}

/// Sweeps MSP thresholds over precomputed `1 - MSP` drift scores.
///
/// `scores` and `truth` label each input; a threshold `θ` flags inputs with
/// `score > 1 - θ` (i.e. MSP below `θ`).
pub fn sweep_msp_thresholds(scores: &[f32], truth: &[bool], thresholds: &[f32]) -> ThresholdSweep {
    let points = thresholds
        .iter()
        .map(|&threshold| {
            let decisions: Vec<bool> = scores.iter().map(|&s| s > 1.0 - threshold).collect();
            SweepPoint {
                threshold,
                eval: DetectionEval::from_decisions(&decisions, truth),
            }
        })
        .collect();
    ThresholdSweep { points }
}

/// Shared fixtures for this crate's detector tests: a model trained on a
/// small synthetic task plus matched clean and drifted batches.
#[cfg(test)]
pub(crate) mod test_support {
    use nazar_data::{ClassSpace, Corruption, Severity};
    use nazar_nn::{train, MlpResNet, ModelArch, Sgd};
    use nazar_tensor::Tensor;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// A trained model plus evaluation batches, shared across tests.
    /// Some fields exist for tests that only need a subset.
    #[derive(Debug, Clone)]
    #[allow(dead_code)]
    pub struct TestBed {
        pub model: MlpResNet,
        pub space: ClassSpace,
        pub clean: Tensor,
        pub clean_labels: Vec<usize>,
        pub drifted: Tensor,
        pub drifted_labels: Vec<usize>,
        pub train_x: Tensor,
        pub train_y: Vec<usize>,
    }

    /// Builds the deterministic test bed (models hold tape handles and are
    /// not `Sync`, so each test constructs its own copy — the model is tiny
    /// and this takes milliseconds).
    pub fn trained_model_and_data() -> TestBed {
        build()
    }

    fn build() -> TestBed {
        let mut rng = SmallRng::seed_from_u64(17);
        let space = ClassSpace::new(&mut rng, 32, 6, 0.85, 0.6);
        let train_samples = space.sample_balanced(&mut rng, 60);
        let train_x = Tensor::stack_rows(
            &train_samples
                .iter()
                .map(|s| s.features.clone())
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let train_y: Vec<usize> = train_samples.iter().map(|s| s.label).collect();

        let mut model = MlpResNet::new(ModelArch::tiny(32, 6), &mut rng);
        let mut opt = Sgd::with_momentum(0.04, 0.9);
        for _ in 0..14 {
            train::train_epoch(&mut model, &mut opt, &train_x, &train_y, 32, &mut rng);
        }

        let eval_samples = space.sample_balanced(&mut rng, 25);
        let clean_rows: Vec<Vec<f32>> = eval_samples.iter().map(|s| s.features.clone()).collect();
        let clean_labels: Vec<usize> = eval_samples.iter().map(|s| s.label).collect();
        let drifted_rows: Vec<Vec<f32>> = clean_rows
            .iter()
            .map(|r| Corruption::GaussianNoise.apply(r, Severity::new(4).unwrap(), &mut rng))
            .collect();
        TestBed {
            model,
            space,
            clean: Tensor::stack_rows(&clean_rows).unwrap(),
            clean_labels: clean_labels.clone(),
            drifted: Tensor::stack_rows(&drifted_rows).unwrap(),
            drifted_labels: clean_labels,
            train_x,
            train_y,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confusion_matrix_counts() {
        let decisions = [true, true, false, false, true];
        let truth = [true, false, true, false, true];
        let e = DetectionEval::from_decisions(&decisions, &truth);
        assert_eq!((e.tp, e.fp, e.fn_, e.tn), (2, 1, 1, 1));
        assert!((e.precision() - 2.0 / 3.0).abs() < 1e-6);
        assert!((e.recall() - 2.0 / 3.0).abs() < 1e-6);
        assert!((e.f1() - 2.0 / 3.0).abs() < 1e-6);
        assert!((e.detection_rate() - 0.6).abs() < 1e-6);
    }

    #[test]
    fn perfect_detection_scores_one() {
        let truth = [true, false, true];
        let e = DetectionEval::from_decisions(&truth, &truth);
        assert_eq!(e.f1(), 1.0);
        assert_eq!(e.precision(), 1.0);
        assert_eq!(e.recall(), 1.0);
    }

    #[test]
    fn degenerate_cases_are_zero_not_nan() {
        let e = DetectionEval::from_decisions(&[false, false], &[false, false]);
        assert_eq!(e.f1(), 0.0);
        assert_eq!(e.precision(), 0.0);
        assert_eq!(e.recall(), 0.0);
    }

    #[test]
    fn sweep_finds_a_nontrivial_best_threshold() {
        // Clean inputs have low scores, drifted high; midway threshold wins.
        let scores = [0.02, 0.05, 0.08, 0.6, 0.7, 0.9];
        let truth = [false, false, false, true, true, true];
        let thresholds: Vec<f32> = (50..100).map(|t| t as f32 / 100.0).collect();
        let sweep = sweep_msp_thresholds(&scores, &truth, &thresholds);
        let best = sweep.best().unwrap();
        assert_eq!(best.eval.f1(), 1.0);
        assert!(best.threshold < 0.95);
    }

    #[test]
    fn evaluate_detector_combines_batches() {
        use crate::MspThreshold;
        let test_support::TestBed {
            mut model,
            clean,
            drifted,
            ..
        } = test_support::trained_model_and_data();
        let mut det = MspThreshold::default();
        let e = evaluate_detector(&mut det, &mut model, &clean, &drifted);
        assert_eq!(e.tp + e.fn_, drifted.nrows().unwrap());
        assert_eq!(e.fp + e.tn, clean.nrows().unwrap());
        assert!(e.f1() > 0.5, "f1 {}", e.f1());
    }
}
