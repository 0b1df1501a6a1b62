//! Two-sample Kolmogorov–Smirnov drift detection over batched MSP scores.
//!
//! Following Rabanser et al. ("Failing Loudly") and §3.2 of the paper: the
//! detector keeps a reference sample of MSP scores collected on clean
//! validation data; at inference time it batches the deployed model's MSP
//! scores and runs a two-sample KS test per batch, assigning the boolean
//! verdict to every input in the batch. The batch-size sensitivity this
//! introduces is exactly what Figure 2 measures.

use crate::capabilities::DetectorCapabilities;
use crate::policy::{nan_last_cmp, DetectError};
use crate::{msp_of_logits, DriftDetector};
use nazar_nn::{MlpResNet, Mode};
use nazar_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Batched KS-test detector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KsTestDetector {
    batch_size: usize,
    alpha: f64,
    reference: Vec<f32>,
}

impl KsTestDetector {
    /// Fits the detector by collecting reference MSP scores on clean data.
    ///
    /// # Errors
    ///
    /// [`DetectError::InvalidParameter`] when `batch_size` is zero or
    /// `alpha` is not in `(0, 1)`; [`DetectError::EmptyTrainingSet`] when
    /// the reference batch has no rows.
    pub fn fit(
        model: &mut MlpResNet,
        clean: &Tensor,
        batch_size: usize,
        alpha: f64,
    ) -> Result<Self, DetectError> {
        if batch_size == 0 {
            return Err(DetectError::InvalidParameter {
                detector: "ks-test",
                reason: "batch size must be nonzero",
            });
        }
        if !(alpha > 0.0 && alpha < 1.0) {
            return Err(DetectError::InvalidParameter {
                detector: "ks-test",
                reason: "alpha must be in (0, 1)",
            });
        }
        let logits = model.logits(clean, Mode::Eval);
        let mut reference = msp_of_logits(&logits);
        if reference.is_empty() {
            return Err(DetectError::EmptyTrainingSet {
                detector: "ks-test",
            });
        }
        // MSP is sanitized (never NaN); the policy comparator keeps the sort
        // total under any future change.
        reference.sort_by(nan_last_cmp);
        Ok(KsTestDetector {
            batch_size,
            alpha,
            reference,
        })
    }

    /// The configured batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Two-sample KS statistic between two sorted samples.
    pub fn ks_statistic(a_sorted: &[f32], b_sorted: &[f32]) -> f64 {
        let (n, m) = (a_sorted.len(), b_sorted.len());
        if n == 0 || m == 0 {
            return 0.0;
        }
        let (mut i, mut j) = (0usize, 0usize);
        let mut d: f64 = 0.0;
        while i < n && j < m {
            // Advance past ties in both samples together so equal values
            // never contribute a spurious ECDF gap.
            let v = a_sorted[i].min(b_sorted[j]);
            while i < n && a_sorted[i] <= v {
                i += 1;
            }
            while j < m && b_sorted[j] <= v {
                j += 1;
            }
            let fa = i as f64 / n as f64;
            let fb = j as f64 / m as f64;
            d = d.max((fa - fb).abs());
        }
        d
    }

    /// The critical KS value for the configured `alpha` and sample sizes.
    pub fn critical_value(&self, n: usize, m: usize) -> f64 {
        // c(alpha) = sqrt(-ln(alpha/2) / 2); c(0.05) ≈ 1.358.
        let c = (-(self.alpha / 2.0).ln() / 2.0).sqrt();
        c * (((n + m) as f64) / ((n * m) as f64)).sqrt()
    }

    /// Per-batch verdicts: `(statistic, drifted)` for each batch of rows.
    fn batch_verdicts(&self, model: &mut MlpResNet, x: &Tensor) -> Vec<(usize, f64, bool)> {
        let n = x.nrows().expect("detector input is [n, d]");
        let mut out = Vec::new();
        let mut start = 0;
        while start < n {
            let end = (start + self.batch_size).min(n);
            let idx: Vec<usize> = (start..end).collect();
            let batch = x.select_rows(&idx).expect("rows in range");
            let mut msp = msp_of_logits(&model.logits(&batch, Mode::Eval));
            msp.sort_by(nan_last_cmp);
            let d = Self::ks_statistic(&msp, &self.reference);
            let crit = self.critical_value(msp.len(), self.reference.len());
            out.push((end - start, d, d > crit));
            start = end;
        }
        out
    }
}

impl DriftDetector for KsTestDetector {
    fn name(&self) -> &'static str {
        "ks-test"
    }

    fn capabilities(&self) -> DetectorCapabilities {
        DetectorCapabilities {
            needs_batching: true,
            ..DetectorCapabilities::NONE
        }
    }

    fn scores(&mut self, model: &mut MlpResNet, x: &Tensor) -> Vec<f32> {
        self.batch_verdicts(model, x)
            .into_iter()
            .flat_map(|(len, d, _)| std::iter::repeat_n(d as f32, len))
            .collect()
    }

    fn detect(&mut self, model: &mut MlpResNet, x: &Tensor) -> Vec<bool> {
        self.batch_verdicts(model, x)
            .into_iter()
            .flat_map(|(len, _, drift)| std::iter::repeat_n(drift, len))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::test_support::{trained_model_and_data, TestBed};

    #[test]
    fn ks_statistic_identical_samples_is_zero() {
        let a = [0.1, 0.2, 0.3, 0.4];
        assert!(KsTestDetector::ks_statistic(&a, &a) < 1e-9);
    }

    #[test]
    fn ks_statistic_disjoint_samples_is_one() {
        let a = [0.0, 0.1, 0.2];
        let b = [0.8, 0.9, 1.0];
        assert!((KsTestDetector::ks_statistic(&a, &b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ks_statistic_known_value() {
        // a = {1,2}, b = {1.5}: ECDFs differ by 0.5 at most.
        let a = [1.0, 2.0];
        let b = [1.5];
        assert!((KsTestDetector::ks_statistic(&a, &b) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn detects_drifted_batches_not_clean_ones() {
        let TestBed {
            mut model,
            clean,
            drifted,
            ..
        } = trained_model_and_data();
        let mut det = KsTestDetector::fit(&mut model, &clean, 16, 0.05).unwrap();
        let clean_flags = det
            .detect(&mut model, &clean)
            .iter()
            .filter(|&&d| d)
            .count();
        let drift_flags = det
            .detect(&mut model, &drifted)
            .iter()
            .filter(|&&d| d)
            .count();
        assert!(drift_flags > clean_flags, "{drift_flags} !> {clean_flags}");
    }

    #[test]
    fn verdicts_cover_every_row_including_ragged_tail() {
        let TestBed {
            mut model,
            clean,
            drifted,
            ..
        } = trained_model_and_data();
        let mut det = KsTestDetector::fit(&mut model, &clean, 7, 0.05).unwrap();
        let n = drifted.nrows().unwrap();
        assert_eq!(det.detect(&mut model, &drifted).len(), n);
        assert_eq!(det.scores(&mut model, &drifted).len(), n);
    }

    #[test]
    fn requires_batching_capability() {
        let TestBed {
            mut model, clean, ..
        } = trained_model_and_data();
        let det = KsTestDetector::fit(&mut model, &clean, 8, 0.05).unwrap();
        assert!(det.capabilities().needs_batching);
        assert!(!det.capabilities().deployable_on_device());
        assert_eq!(det.batch_size(), 8);
    }

    #[test]
    fn fit_rejects_degenerate_configuration() {
        let TestBed {
            mut model, clean, ..
        } = trained_model_and_data();
        assert!(matches!(
            KsTestDetector::fit(&mut model, &clean, 0, 0.05),
            Err(DetectError::InvalidParameter { .. })
        ));
        assert!(matches!(
            KsTestDetector::fit(&mut model, &clean, 8, 1.5),
            Err(DetectError::InvalidParameter { .. })
        ));
        let empty = Tensor::zeros(&[0, 32]);
        assert!(matches!(
            KsTestDetector::fit(&mut model, &empty, 8, 0.05),
            Err(DetectError::EmptyTrainingSet { .. })
        ));
    }

    #[test]
    fn critical_value_shrinks_with_sample_size() {
        let TestBed {
            mut model, clean, ..
        } = trained_model_and_data();
        let det = KsTestDetector::fit(&mut model, &clean, 8, 0.05).unwrap();
        assert!(det.critical_value(64, 100) < det.critical_value(4, 100));
    }
}
