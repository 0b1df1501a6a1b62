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

/// Kolmogorov's asymptotic survival function
/// `Q(λ) = 2 Σ_{k≥1} (-1)^{k-1} exp(-2 k² λ²)`.
///
/// This is the limiting distribution of `√(nm/(n+m)) · D` under the null;
/// the classic critical values are its quantiles (`Q(1.22) ≈ 0.10`,
/// `Q(1.36) ≈ 0.05`, `Q(1.63) ≈ 0.01` — pinned against the published
/// Kolmogorov table in `tests/stat_references.rs`). Non-positive `λ`
/// returns `1.0`; the alternating series is summed until the terms fall
/// below `1e-12` and the result is clamped to `[0, 1]`.
pub fn kolmogorov_q(lambda: f64) -> f64 {
    // NaN is no drift evidence, like a non-positive λ: p = 1.
    if lambda.is_nan() || lambda <= 0.0 {
        return 1.0;
    }
    let mut sum = 0.0f64;
    let mut sign = 1.0f64;
    for k in 1..=100u32 {
        let k = f64::from(k);
        let term = (-2.0 * k * k * lambda * lambda).exp();
        sum += sign * term;
        if term < 1e-12 {
            break;
        }
        sign = -sign;
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

/// Asymptotic two-sample KS p-value: `Q(√(nm/(n+m)) · d)`.
///
/// Accurate for moderate-to-large samples; for tiny samples prefer
/// [`ks_p_exact`] (or [`ks_p_value`], which picks automatically).
pub fn ks_p_asymptotic(d: f64, n: usize, m: usize) -> f64 {
    if n == 0 || m == 0 {
        return 1.0;
    }
    let ne = (n as f64) * (m as f64) / ((n + m) as f64);
    kolmogorov_q(ne.sqrt() * d)
}

/// Exact two-sample KS p-value `P(D ≥ d)` by lattice-path counting.
///
/// Under the null (continuous distributions, no ties) every interleaving of
/// the pooled sample is equally likely; a merge order corresponds to a
/// monotone lattice path from `(0, 0)` to `(n, m)`, and the KS statistic of
/// that order is `max |i/n − j/m|` over the path. The p-value is therefore
/// `1 − (paths with every point strictly inside the band |i·m − j·n| < d·n·m)
/// / C(n+m, n)`, computed by dynamic programming in `O(n·m)` time with `f64`
/// path counts (exact to well below the documented `1e-9` comparison slack
/// for the gated sample sizes). Points *on* the band boundary count as
/// outside, so a path attaining exactly `d` contributes to `P(D ≥ d)`.
///
/// Reference pin (`tests/stat_references.rs`): full separation `d = 1`
/// leaves exactly the two axis-hugging paths outside the band, giving
/// `p = 2 / C(n+m, n)`; tiny cases are cross-checked against brute-force
/// enumeration of every interleaving.
///
/// Returns `1.0` when `d ≤ 0` and `0.0`-free guarantees otherwise; empty
/// samples give `1.0` (no evidence).
pub fn ks_p_exact(d: f64, n: usize, m: usize) -> f64 {
    if n == 0 || m == 0 || d.is_nan() || d <= 0.0 {
        return 1.0;
    }
    // Band half-width in integer lattice units, with slack so that the
    // rational ECDF gaps |i·m − j·n| (exact integers) attaining d·n·m are
    // classified "on the boundary" despite f64 rounding in d.
    let band = d * (n as f64) * (m as f64) - 1e-9;
    if band <= 0.0 {
        return 1.0;
    }
    // dp[j] = number of in-band paths reaching (i, j), rolled over i.
    let mut dp = vec![0.0f64; m + 1];
    dp[0] = 1.0;
    let inside = |i: usize, j: usize| {
        let gap = (i as f64) * (m as f64) - (j as f64) * (n as f64);
        gap.abs() < band
    };
    for j in 1..=m {
        dp[j] = if inside(0, j) { dp[j - 1] } else { 0.0 };
    }
    for i in 1..=n {
        dp[0] = if inside(i, 0) { dp[0] } else { 0.0 };
        for j in 1..=m {
            dp[j] = if inside(i, j) { dp[j] + dp[j - 1] } else { 0.0 };
        }
    }
    // C(n+m, n) via incremental products stays finite for the gated sizes.
    let mut total = 1.0f64;
    for k in 1..=n {
        total *= ((m + k) as f64) / (k as f64);
    }
    (1.0 - dp[m] / total).clamp(0.0, 1.0)
}

/// Largest `n·m` for which [`ks_p_value`] uses the exact lattice-path count.
pub const KS_EXACT_LIMIT: usize = 10_000;

/// Two-sample KS p-value, exact for small samples and asymptotic otherwise.
///
/// Uses [`ks_p_exact`] when `n·m ≤` [`KS_EXACT_LIMIT`] (where the
/// asymptotic approximation is weakest and the `O(n·m)` count is cheap) and
/// [`ks_p_asymptotic`] above it.
pub fn ks_p_value(d: f64, n: usize, m: usize) -> f64 {
    if n == 0 || m == 0 {
        return 1.0;
    }
    if n.saturating_mul(m) <= KS_EXACT_LIMIT {
        ks_p_exact(d, n, m)
    } else {
        ks_p_asymptotic(d, n, m)
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
    fn kolmogorov_q_is_monotone_and_bounded() {
        assert_eq!(kolmogorov_q(0.0), 1.0);
        assert_eq!(kolmogorov_q(-1.0), 1.0);
        assert_eq!(kolmogorov_q(f64::NAN), 1.0);
        let mut prev = 1.0;
        for i in 1..=50 {
            let q = kolmogorov_q(i as f64 * 0.1);
            assert!((0.0..=1.0).contains(&q));
            assert!(q <= prev + 1e-12, "Q not monotone at λ={}", i as f64 * 0.1);
            prev = q;
        }
        assert!(kolmogorov_q(5.0) < 1e-9);
    }

    #[test]
    fn exact_p_full_separation_is_two_over_binomial() {
        // Disjoint samples: D = 1 and only the two axis-hugging merge
        // orders attain it, so p = 2 / C(n+m, n).
        for (n, m) in [(3usize, 3usize), (4, 2), (5, 5), (6, 3)] {
            let c: f64 = (1..=n).map(|k| ((m + k) as f64) / k as f64).product();
            let p = ks_p_exact(1.0, n, m);
            assert!(
                (p - 2.0 / c).abs() < 1e-9,
                "n={n} m={m}: p={p}, want {}",
                2.0 / c
            );
        }
    }

    #[test]
    fn exact_p_degenerate_inputs_are_one() {
        assert_eq!(ks_p_exact(0.0, 5, 5), 1.0);
        assert_eq!(ks_p_exact(-0.5, 5, 5), 1.0);
        assert_eq!(ks_p_exact(f64::NAN, 5, 5), 1.0);
        assert_eq!(ks_p_exact(0.5, 0, 5), 1.0);
        assert_eq!(ks_p_value(0.5, 5, 0), 1.0);
        assert_eq!(ks_p_asymptotic(0.5, 0, 0), 1.0);
    }

    #[test]
    fn p_value_routes_exact_below_limit_and_asymptotic_above() {
        // At the boundary the two must agree closely anyway.
        let d = 0.08;
        let exact = ks_p_exact(d, 100, 100);
        let asym = ks_p_asymptotic(d, 100, 100);
        assert!((exact - asym).abs() < 0.02, "exact {exact} vs asym {asym}");
        assert_eq!(ks_p_value(d, 100, 100), exact);
        assert_eq!(ks_p_value(d, 200, 200), ks_p_asymptotic(d, 200, 200));
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
