//! The crate's numeric robustness policy: NaN ordering, score
//! sanitization, and the typed error for detector construction.
//!
//! Deployed detectors meet inputs the lab never saw — NaN/Inf logits from a
//! poisoned upload, zero-variance features, empty calibration splits. The
//! policy (DESIGN.md §9) is:
//!
//! * **NaN sorts last.** Every score ordering in this crate uses
//!   [`nan_last_cmp`], which places all NaNs (either sign) after every
//!   number. A NaN score can therefore never abort a calibration sort, and
//!   quantile/threshold selection over the finite prefix is unaffected.
//! * **Degenerate rows score as maximally drifted.** An input row the model
//!   cannot score meaningfully (non-finite logits or features) gets the
//!   most-drifted representable score ([`sanitize_score`] maps any
//!   non-finite score to [`f32::MAX`]; MSP-style confidences map to `0.0`),
//!   so one poisoned row degrades one decision instead of poisoning
//!   downstream state with NaN.
//! * **Construction failures are typed.** Fitting a detector on data that
//!   cannot support it (empty training set, out-of-range labels, invalid
//!   hyper-parameters) returns a [`DetectError`] instead of panicking.

use std::cmp::Ordering;
use std::fmt;

/// Total order over `f32` with every NaN (either sign) sorted *after* every
/// number; finite values and infinities compare via [`f32::total_cmp`].
///
/// This is the crate-wide comparator for score sorts: a raw
/// [`f32::total_cmp`] would place negative NaN *before* every number, which
/// breaks the "thresholds come from the finite prefix" invariant.
///
/// # Example
///
/// ```
/// use nazar_detect::nan_last_cmp;
///
/// let mut v = [f32::NAN, 1.0, -f32::NAN, f32::NEG_INFINITY, 0.5];
/// v.sort_by(nan_last_cmp);
/// assert_eq!(&v[..3], &[f32::NEG_INFINITY, 0.5, 1.0]);
/// assert!(v[3].is_nan() && v[4].is_nan());
/// ```
pub fn nan_last_cmp(a: &f32, b: &f32) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => a.total_cmp(b),
    }
}

/// Maps a non-finite drift score to [`f32::MAX`] — the "maximally drifted"
/// sentinel of the numeric policy. Finite scores pass through unchanged.
///
/// Higher always means more drifted in this crate, so an unscorable input
/// is flagged by every threshold rather than silently passed or leaked as
/// NaN into calibration state.
pub fn sanitize_score(score: f32) -> f32 {
    if score.is_finite() {
        score
    } else {
        f32::MAX
    }
}

/// Typed error for detector construction and calibration.
///
/// Follows the workspace error taxonomy (DESIGN.md §9): conditions a caller
/// can plausibly hit with degenerate-but-reachable data are typed errors;
/// violations of the API's documented shape contract remain documented
/// panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DetectError {
    /// A detector was fit on an empty training/reference set.
    EmptyTrainingSet {
        /// The detector that rejected the data.
        detector: &'static str,
    },
    /// A training label was outside `0..num_classes`.
    LabelOutOfRange {
        /// The offending label.
        label: usize,
        /// The declared class count.
        classes: usize,
    },
    /// A hyper-parameter was outside its valid range.
    InvalidParameter {
        /// The detector that rejected the parameter.
        detector: &'static str,
        /// What was wrong.
        reason: &'static str,
    },
}

impl fmt::Display for DetectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DetectError::EmptyTrainingSet { detector } => {
                write!(f, "{detector}: training data must be non-empty")
            }
            DetectError::LabelOutOfRange { label, classes } => {
                write!(f, "label {label} out of range for {classes} classes")
            }
            DetectError::InvalidParameter { detector, reason } => {
                write!(f, "{detector}: {reason}")
            }
        }
    }
}

impl std::error::Error for DetectError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nan_last_cmp_sorts_both_nan_signs_last() {
        let neg_nan = f32::from_bits(0xFFC0_0000);
        assert!(neg_nan.is_nan() && neg_nan.is_sign_negative());
        let mut v = [1.0, neg_nan, f32::INFINITY, f32::NAN, -2.0];
        v.sort_by(nan_last_cmp);
        assert_eq!(&v[..3], &[-2.0, 1.0, f32::INFINITY]);
        assert!(v[3].is_nan() && v[4].is_nan());
    }

    #[test]
    fn nan_last_cmp_is_a_total_order_on_samples() {
        // Antisymmetry + transitivity spot checks over a degenerate sample.
        let vals = [
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            1.5,
            f32::MIN_POSITIVE / 2.0, // subnormal
        ];
        for &a in &vals {
            for &b in &vals {
                assert_eq!(nan_last_cmp(&a, &b), nan_last_cmp(&b, &a).reverse());
            }
        }
    }

    #[test]
    fn sanitize_score_maps_only_non_finite() {
        assert_eq!(sanitize_score(0.25), 0.25);
        assert_eq!(sanitize_score(f32::NAN), f32::MAX);
        assert_eq!(sanitize_score(f32::INFINITY), f32::MAX);
        assert_eq!(sanitize_score(f32::NEG_INFINITY), f32::MAX);
    }

    #[test]
    fn detect_error_displays() {
        let e = DetectError::EmptyTrainingSet { detector: "x" };
        assert!(e.to_string().contains("non-empty"));
        let e = DetectError::LabelOutOfRange {
            label: 9,
            classes: 4,
        };
        assert!(e.to_string().contains('9'));
        let e = DetectError::InvalidParameter {
            detector: "ks-test",
            reason: "alpha must be in (0, 1)",
        };
        assert!(e.to_string().contains("alpha"));
    }
}
