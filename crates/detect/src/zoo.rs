//! The per-device streaming detector zoo.
//!
//! Every device in the fleet runs one [`StreamDetector`], selected by
//! [`DetectorKind`] in its `DeviceConfig`. The default ([`DetectorKind::Msp`])
//! is the paper's stateless MSP threshold — bitwise identical to the
//! original hard-coded comparison. The statistical members keep per-device
//! state:
//!
//! * [`StreamingKs`] / [`StreamingPsi`] / [`StreamingMmd`] self-fit a
//!   reference window from the first `ref_size` observations, then slide a
//!   window of recent MSP scores and run the two-sample test (KS p-value,
//!   PSI index, linear-time MMD) against the frozen reference each step.
//!   Until the reference and window fill, they fall back to the plain MSP
//!   threshold so early items still get a sane verdict.
//! * [`StreamingDdm`] / [`StreamingEddm`] wrap the sequential monitors from
//!   [`crate::sequential`] over the binary error stream
//!   `msp < threshold`, flagging items while the monitor is out of its
//!   stable region (warning or drift).
//!
//! All state machines are plain sequential `f64`/`f32` arithmetic with no
//! internal parallelism or wall-clock inputs, so verdicts are bitwise
//! reproducible across `NAZAR_NUM_THREADS` settings and across the lockstep
//! and columnar fleet engines (both feed a device's detector its MSP
//! scores in stream order).
//!
//! Zoo activity is observable through the self-gated `nazar_detect_*`
//! counters (observations, alarms, reference fits — labeled per detector).

use crate::kstest::{ks_p_value, KsTestDetector};
use crate::mmd::{median_heuristic_gamma, mmd2_linear};
use crate::policy::{nan_last_cmp, DetectError};
use crate::psi::{bin_proportions, psi, psi_noise_floor, quantile_bin_edges};
use crate::sequential::{Ddm, DriftLevel, Eddm};
use crate::DetectorCapabilities;
use nazar_obs::LazyCounter;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Which drift detector a device runs over its MSP stream.
///
/// Serializes by variant name (`"Msp"`, `"KsTest"`, …) — the vendored serde
/// derive has no rename support; [`DetectorKind::name`] provides the
/// kebab-case spelling used in reports and metric labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum DetectorKind {
    /// Stateless MSP threshold (the paper's default).
    #[default]
    Msp,
    /// Sliding-window two-sample Kolmogorov–Smirnov test.
    KsTest,
    /// Sliding-window Population Stability Index.
    Psi,
    /// Sliding-window linear-time MMD with a median-heuristic RBF kernel.
    Mmd,
    /// Sequential Drift Detection Method over the error stream.
    Ddm,
    /// Sequential Early Drift Detection Method over the error stream.
    Eddm,
}

impl DetectorKind {
    /// Every zoo member, in shootout/report order.
    pub const ALL: [DetectorKind; 6] = [
        DetectorKind::Msp,
        DetectorKind::KsTest,
        DetectorKind::Psi,
        DetectorKind::Mmd,
        DetectorKind::Ddm,
        DetectorKind::Eddm,
    ];

    /// Stable name (matches the serde/kebab-case spelling and the
    /// `detector` label on `nazar_detect_*` metrics).
    pub fn name(self) -> &'static str {
        match self {
            DetectorKind::Msp => "msp",
            DetectorKind::KsTest => "ks-test",
            DetectorKind::Psi => "psi",
            DetectorKind::Mmd => "mmd",
            DetectorKind::Ddm => "ddm",
            DetectorKind::Eddm => "eddm",
        }
    }

    /// Table-1-style capabilities of the streaming variant: the windowed
    /// two-sample tests amortize one verdict over a batch of inferences;
    /// the sequential monitors (like plain MSP) decide per inference.
    pub fn capabilities(self) -> DetectorCapabilities {
        match self {
            DetectorKind::KsTest | DetectorKind::Psi | DetectorKind::Mmd => DetectorCapabilities {
                needs_batching: true,
                ..DetectorCapabilities::NONE
            },
            _ => DetectorCapabilities::NONE,
        }
    }

    fn index(self) -> usize {
        match self {
            DetectorKind::Msp => 0,
            DetectorKind::KsTest => 1,
            DetectorKind::Psi => 2,
            DetectorKind::Mmd => 3,
            DetectorKind::Ddm => 4,
            DetectorKind::Eddm => 5,
        }
    }
}

/// Default reference-window size for the windowed streaming detectors.
pub const DEFAULT_REF_SIZE: usize = 64;
/// Default sliding-window size for the windowed streaming detectors.
pub const DEFAULT_WINDOW: usize = 32;
/// Default significance level for the streaming KS and MMD tests.
pub const DEFAULT_ALPHA: f64 = 0.05;
/// Default PSI alarm threshold ("significant shift" convention), applied
/// above the small-sample noise floor (`crate::psi_noise_floor`).
pub const DEFAULT_PSI_THRESHOLD: f64 = 0.2;
/// Quantile bins for the streaming PSI detector — few enough that the
/// noise floor at the default window stays well below the alarm threshold.
pub const DEFAULT_PSI_BINS: usize = 4;

const HELP_OBS: &str = "MSP observations fed to per-device drift detectors";
const HELP_ALARM: &str = "Per-item drift alarms raised by per-device detectors";
const HELP_FIT: &str = "Reference windows frozen by streaming detectors";

static OBSERVED: [LazyCounter; 6] = [
    LazyCounter::new(
        "nazar_detect_observations_total",
        HELP_OBS,
        &[("detector", "msp")],
    ),
    LazyCounter::new(
        "nazar_detect_observations_total",
        HELP_OBS,
        &[("detector", "ks-test")],
    ),
    LazyCounter::new(
        "nazar_detect_observations_total",
        HELP_OBS,
        &[("detector", "psi")],
    ),
    LazyCounter::new(
        "nazar_detect_observations_total",
        HELP_OBS,
        &[("detector", "mmd")],
    ),
    LazyCounter::new(
        "nazar_detect_observations_total",
        HELP_OBS,
        &[("detector", "ddm")],
    ),
    LazyCounter::new(
        "nazar_detect_observations_total",
        HELP_OBS,
        &[("detector", "eddm")],
    ),
];
static ALARMS: [LazyCounter; 6] = [
    LazyCounter::new(
        "nazar_detect_alarms_total",
        HELP_ALARM,
        &[("detector", "msp")],
    ),
    LazyCounter::new(
        "nazar_detect_alarms_total",
        HELP_ALARM,
        &[("detector", "ks-test")],
    ),
    LazyCounter::new(
        "nazar_detect_alarms_total",
        HELP_ALARM,
        &[("detector", "psi")],
    ),
    LazyCounter::new(
        "nazar_detect_alarms_total",
        HELP_ALARM,
        &[("detector", "mmd")],
    ),
    LazyCounter::new(
        "nazar_detect_alarms_total",
        HELP_ALARM,
        &[("detector", "ddm")],
    ),
    LazyCounter::new(
        "nazar_detect_alarms_total",
        HELP_ALARM,
        &[("detector", "eddm")],
    ),
];
static FITS: [LazyCounter; 6] = [
    LazyCounter::new("nazar_detect_fits_total", HELP_FIT, &[("detector", "msp")]),
    LazyCounter::new(
        "nazar_detect_fits_total",
        HELP_FIT,
        &[("detector", "ks-test")],
    ),
    LazyCounter::new("nazar_detect_fits_total", HELP_FIT, &[("detector", "psi")]),
    LazyCounter::new("nazar_detect_fits_total", HELP_FIT, &[("detector", "mmd")]),
    LazyCounter::new("nazar_detect_fits_total", HELP_FIT, &[("detector", "ddm")]),
    LazyCounter::new("nazar_detect_fits_total", HELP_FIT, &[("detector", "eddm")]),
];

/// A fixed-capacity sliding window over the MSP stream, in arrival order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Ring {
    cap: usize,
    pos: usize,
    buf: Vec<f32>,
}

impl Ring {
    fn new(cap: usize) -> Self {
        Ring {
            cap,
            pos: 0,
            buf: Vec::with_capacity(cap),
        }
    }

    fn push(&mut self, v: f32) {
        if self.buf.len() < self.cap {
            self.buf.push(v);
        } else {
            self.buf[self.pos] = v;
            self.pos = (self.pos + 1) % self.cap;
        }
    }

    fn full(&self) -> bool {
        self.buf.len() == self.cap
    }

    /// Window contents oldest-first.
    fn ordered(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.pos..]);
        out.extend_from_slice(&self.buf[..self.pos]);
        out
    }
}

fn sanitize_msp(msp: f32) -> f32 {
    // Numeric policy: a non-finite confidence is zero confidence.
    if msp.is_finite() {
        msp.clamp(0.0, 1.0)
    } else {
        0.0
    }
}

fn validate_window(
    detector: &'static str,
    threshold: f32,
    ref_size: usize,
    window: usize,
) -> Result<(), DetectError> {
    if !(threshold > 0.0 && threshold <= 1.0) {
        return Err(DetectError::InvalidParameter {
            detector,
            reason: "fallback threshold must be in (0, 1]",
        });
    }
    if window < 2 {
        return Err(DetectError::InvalidParameter {
            detector,
            reason: "window must hold at least two observations",
        });
    }
    if ref_size < 2 * window {
        return Err(DetectError::InvalidParameter {
            detector,
            reason: "reference must hold at least two windows",
        });
    }
    Ok(())
}

/// Streaming two-sample KS detector: sliding window vs self-fit reference,
/// alarming when the exact/asymptotic p-value drops below `alpha`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamingKs {
    threshold: f32,
    ref_size: usize,
    alpha: f64,
    reference: Vec<f32>,
    window: Ring,
}

impl StreamingKs {
    /// Creates the monitor.
    ///
    /// # Errors
    ///
    /// [`DetectError::InvalidParameter`] when `threshold` is outside
    /// `(0, 1]`, `window < 2`, `ref_size < 2·window`, or `alpha` outside
    /// `(0, 1)`.
    pub fn new(
        threshold: f32,
        ref_size: usize,
        window: usize,
        alpha: f64,
    ) -> Result<Self, DetectError> {
        validate_window("ks-test", threshold, ref_size, window)?;
        if !(alpha > 0.0 && alpha < 1.0) {
            return Err(DetectError::InvalidParameter {
                detector: "ks-test",
                reason: "alpha must be in (0, 1)",
            });
        }
        Ok(StreamingKs {
            threshold,
            ref_size,
            alpha,
            reference: Vec::new(),
            window: Ring::new(window),
        })
    }

    /// Feeds one MSP; returns `(score, alarmed)` where the score is `1 − p`
    /// once the test is active and `1 − msp` during warmup.
    pub fn observe_scored(&mut self, msp: f32) -> (f64, bool) {
        let msp = sanitize_msp(msp);
        if self.reference.len() < self.ref_size {
            self.reference.push(msp);
            if self.reference.len() == self.ref_size {
                self.reference.sort_by(nan_last_cmp);
                FITS[DetectorKind::KsTest.index()].inc();
            }
            return (f64::from(1.0 - msp), msp < self.threshold);
        }
        self.window.push(msp);
        if !self.window.full() {
            return (f64::from(1.0 - msp), msp < self.threshold);
        }
        let mut win = self.window.ordered();
        win.sort_by(nan_last_cmp);
        let d = KsTestDetector::ks_statistic(&win, &self.reference);
        let p = ks_p_value(d, win.len(), self.reference.len());
        (1.0 - p, p < self.alpha)
    }
}

/// Streaming PSI detector: sliding window binned against self-fit quantile
/// bins, alarming when the index exceeds the threshold plus the
/// small-sample noise floor for the window/reference sizes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamingPsi {
    threshold: f32,
    ref_size: usize,
    bins: usize,
    psi_threshold: f64,
    floor: f64,
    reference: Vec<f32>,
    edges: Vec<f32>,
    expected: Vec<f64>,
    window: Ring,
}

impl StreamingPsi {
    /// Creates the monitor.
    ///
    /// # Errors
    ///
    /// [`DetectError::InvalidParameter`] for the window/threshold conditions
    /// of [`StreamingKs::new`], `bins < 2`, or a non-positive PSI threshold.
    pub fn new(
        threshold: f32,
        ref_size: usize,
        window: usize,
        bins: usize,
        psi_threshold: f64,
    ) -> Result<Self, DetectError> {
        validate_window("psi", threshold, ref_size, window)?;
        if bins < 2 {
            return Err(DetectError::InvalidParameter {
                detector: "psi",
                reason: "bin count must be at least 2",
            });
        }
        if !(psi_threshold > 0.0 && psi_threshold.is_finite()) {
            return Err(DetectError::InvalidParameter {
                detector: "psi",
                reason: "threshold must be finite and positive",
            });
        }
        // Alarm line = PSI threshold + null mean + 2 null standard
        // deviations. Under H0 the index behaves like a scaled
        // χ²_{bins−1}: mean (bins−1)·s and std √(2(bins−1))·s with
        // s = 1/window + 1/ref — the mean alone (psi_noise_floor) leaves
        // the sliding window's correlated tail well above nominal FPR at
        // window sizes this small.
        let s = 1.0 / window as f64 + 1.0 / ref_size as f64;
        let pad = psi_noise_floor(bins, window, ref_size)
            + 2.0 * (2.0 * bins.saturating_sub(1) as f64).sqrt() * s;
        Ok(StreamingPsi {
            threshold,
            ref_size,
            bins,
            psi_threshold,
            floor: pad,
            reference: Vec::new(),
            edges: Vec::new(),
            expected: Vec::new(),
            window: Ring::new(window),
        })
    }

    /// Feeds one MSP; the score is the PSI index once active.
    pub fn observe_scored(&mut self, msp: f32) -> (f64, bool) {
        let msp = sanitize_msp(msp);
        if self.reference.len() < self.ref_size {
            self.reference.push(msp);
            if self.reference.len() == self.ref_size {
                self.reference.sort_by(nan_last_cmp);
                // Sanitized reference is finite, so the edge rule cannot
                // fail; a constant reference just yields duplicate edges.
                if let Ok(edges) = quantile_bin_edges(&self.reference, self.bins) {
                    self.expected = bin_proportions(&edges, &self.reference);
                    self.edges = edges;
                }
                FITS[DetectorKind::Psi.index()].inc();
            }
            return (f64::from(1.0 - msp), msp < self.threshold);
        }
        self.window.push(msp);
        if !self.window.full() || self.edges.is_empty() {
            return (f64::from(1.0 - msp), msp < self.threshold);
        }
        let actual = bin_proportions(&self.edges, &self.window.ordered());
        let index = psi(&self.expected, &actual).unwrap_or(f64::MAX);
        (index, index > self.psi_threshold + self.floor)
    }
}

/// Streaming MMD detector: linear-time MMD between the sliding window and
/// the head of the self-fit reference, with a seeded-resampling null
/// threshold frozen at fit time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamingMmd {
    threshold: f32,
    ref_size: usize,
    alpha: f64,
    reference: Vec<f32>,
    gamma: f64,
    mmd_threshold: f64,
    window: Ring,
}

impl StreamingMmd {
    /// Null resamples drawn when freezing the reference.
    pub const NULL_DRAWS: usize = 32;

    /// Creates the monitor.
    ///
    /// # Errors
    ///
    /// As [`StreamingKs::new`].
    pub fn new(
        threshold: f32,
        ref_size: usize,
        window: usize,
        alpha: f64,
    ) -> Result<Self, DetectError> {
        validate_window("mmd", threshold, ref_size, window)?;
        if !(alpha > 0.0 && alpha < 1.0) {
            return Err(DetectError::InvalidParameter {
                detector: "mmd",
                reason: "alpha must be in (0, 1)",
            });
        }
        Ok(StreamingMmd {
            threshold,
            ref_size,
            alpha,
            reference: Vec::new(),
            gamma: 0.0,
            mmd_threshold: f64::INFINITY,
            window: Ring::new(window),
        })
    }

    fn freeze(&mut self) {
        // A constant reference leaves the median heuristic undefined; fall
        // back to unit bandwidth (any bandwidth is equivalent there) so the
        // stream keeps flowing — streaming monitors must not error mid-run.
        self.gamma = median_heuristic_gamma(&self.reference, 1).unwrap_or(1.0);
        let w = self.window.cap;
        let mut rng = SmallRng::seed_from_u64(0x7a6f_6f2d_6d6d_6432);
        let mut order: Vec<usize> = (0..self.reference.len()).collect();
        let mut nulls = Vec::with_capacity(Self::NULL_DRAWS);
        for _ in 0..Self::NULL_DRAWS {
            order.shuffle(&mut rng);
            let a: Vec<f32> = order[..w].iter().map(|&i| self.reference[i]).collect();
            let b: Vec<f32> = order[w..2 * w].iter().map(|&i| self.reference[i]).collect();
            if let Ok(v) = mmd2_linear(&a, &b, 1, self.gamma) {
                nulls.push(v);
            }
        }
        nulls.sort_by(f64::total_cmp);
        let rank = (((1.0 - self.alpha) * nulls.len() as f64).ceil() as usize)
            .clamp(1, nulls.len().max(1))
            - 1;
        // The without-replacement null splits underestimate the variance of
        // a *fresh* window against the reference (their two halves are
        // negatively correlated), so pad the quantile by the null's
        // interquartile spread to keep the live false-alarm rate near the
        // nominal level.
        let pad = if nulls.len() >= 4 {
            nulls[(3 * nulls.len()) / 4] - nulls[nulls.len() / 4]
        } else {
            0.0
        };
        self.mmd_threshold = nulls
            .get(rank)
            .map(|q| q + pad.max(0.0))
            .unwrap_or(f64::INFINITY);
        FITS[DetectorKind::Mmd.index()].inc();
    }

    /// Feeds one MSP; the score is the linear MMD² estimate once active.
    pub fn observe_scored(&mut self, msp: f32) -> (f64, bool) {
        let msp = sanitize_msp(msp);
        if self.reference.len() < self.ref_size {
            self.reference.push(msp);
            if self.reference.len() == self.ref_size {
                self.freeze();
            }
            return (f64::from(1.0 - msp), msp < self.threshold);
        }
        self.window.push(msp);
        if !self.window.full() {
            return (f64::from(1.0 - msp), msp < self.threshold);
        }
        let win = self.window.ordered();
        let v = mmd2_linear(&win, &self.reference[..win.len()], 1, self.gamma).unwrap_or(0.0);
        (v, v > self.mmd_threshold)
    }
}

/// Streaming DDM wrapper: feeds `msp < threshold` as the binary error.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamingDdm {
    threshold: f32,
    inner: Ddm,
}

impl StreamingDdm {
    /// Creates the monitor with the published DDM defaults.
    ///
    /// # Errors
    ///
    /// [`DetectError::InvalidParameter`] when `threshold` is outside `(0, 1]`.
    pub fn new(threshold: f32) -> Result<Self, DetectError> {
        if !(threshold > 0.0 && threshold <= 1.0) {
            return Err(DetectError::InvalidParameter {
                detector: "ddm",
                reason: "threshold must be in (0, 1]",
            });
        }
        Ok(StreamingDdm {
            threshold,
            inner: Ddm::default(),
        })
    }

    /// Feeds one MSP; the score is DDM's deviation statistic, and the item
    /// is flagged only at the drift level — the 2σ warning zone buffers
    /// evidence without raising alarms, as in Gama et al.
    pub fn observe_scored(&mut self, msp: f32) -> (f64, bool) {
        let error = sanitize_msp(msp) < self.threshold;
        let level = self.inner.observe(error);
        (self.inner.statistic(), level == DriftLevel::Drift)
    }
}

/// Streaming EDDM wrapper: feeds `msp < threshold` as the binary error.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamingEddm {
    threshold: f32,
    inner: Eddm,
}

impl StreamingEddm {
    /// Creates the monitor with the published EDDM defaults.
    ///
    /// # Errors
    ///
    /// [`DetectError::InvalidParameter`] when `threshold` is outside `(0, 1]`.
    pub fn new(threshold: f32) -> Result<Self, DetectError> {
        if !(threshold > 0.0 && threshold <= 1.0) {
            return Err(DetectError::InvalidParameter {
                detector: "eddm",
                reason: "threshold must be in (0, 1]",
            });
        }
        Ok(StreamingEddm {
            threshold,
            inner: Eddm::default(),
        })
    }

    /// Feeds one MSP; the score is EDDM's ratio statistic, and the item is
    /// flagged only at the drift level — the warning zone buffers evidence
    /// without raising alarms, as in Baena-García et al.
    pub fn observe_scored(&mut self, msp: f32) -> (f64, bool) {
        let error = sanitize_msp(msp) < self.threshold;
        let level = self.inner.observe(error);
        (self.inner.statistic(), level == DriftLevel::Drift)
    }
}

/// The per-device detector state machine: one MSP in, one verdict out.
///
/// [`DetectorKind::Msp`] reproduces the original `msp < threshold`
/// comparison bit-for-bit (including its NaN behavior), so the default
/// configuration's golden traces are unchanged by the zoo.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StreamDetector {
    /// Stateless MSP threshold.
    Msp {
        /// Flag items whose MSP falls below this value.
        threshold: f32,
    },
    /// Streaming KS test.
    Ks(StreamingKs),
    /// Streaming PSI.
    Psi(StreamingPsi),
    /// Streaming MMD.
    Mmd(StreamingMmd),
    /// Sequential DDM.
    Ddm(StreamingDdm),
    /// Sequential EDDM.
    Eddm(StreamingEddm),
}

impl StreamDetector {
    /// Builds the detector a device runs, from its configured kind and MSP
    /// detection threshold, using the zoo's default window parameters.
    ///
    /// # Panics
    ///
    /// Panics when `threshold` is outside `(0, 1]` (a configuration error,
    /// matching `MspThreshold::new`).
    pub fn new(kind: DetectorKind, threshold: f32) -> Self {
        assert!(
            threshold > 0.0 && threshold <= 1.0,
            "detection threshold must be in (0, 1]"
        );
        let valid = "default zoo parameters are valid";
        match kind {
            DetectorKind::Msp => StreamDetector::Msp { threshold },
            DetectorKind::KsTest => StreamDetector::Ks(
                StreamingKs::new(threshold, DEFAULT_REF_SIZE, DEFAULT_WINDOW, DEFAULT_ALPHA)
                    .expect(valid),
            ),
            DetectorKind::Psi => StreamDetector::Psi(
                StreamingPsi::new(
                    threshold,
                    DEFAULT_REF_SIZE,
                    DEFAULT_WINDOW,
                    DEFAULT_PSI_BINS,
                    DEFAULT_PSI_THRESHOLD,
                )
                .expect(valid),
            ),
            DetectorKind::Mmd => StreamDetector::Mmd(
                StreamingMmd::new(threshold, DEFAULT_REF_SIZE, DEFAULT_WINDOW, DEFAULT_ALPHA)
                    .expect(valid),
            ),
            DetectorKind::Ddm => StreamDetector::Ddm(StreamingDdm::new(threshold).expect(valid)),
            DetectorKind::Eddm => StreamDetector::Eddm(StreamingEddm::new(threshold).expect(valid)),
        }
    }

    /// Which zoo member this is.
    pub fn kind(&self) -> DetectorKind {
        match self {
            StreamDetector::Msp { .. } => DetectorKind::Msp,
            StreamDetector::Ks(_) => DetectorKind::KsTest,
            StreamDetector::Psi(_) => DetectorKind::Psi,
            StreamDetector::Mmd(_) => DetectorKind::Mmd,
            StreamDetector::Ddm(_) => DetectorKind::Ddm,
            StreamDetector::Eddm(_) => DetectorKind::Eddm,
        }
    }

    /// Feeds one inference's MSP; returns `(score, drifted)` where higher
    /// scores mean more drift evidence (detector-specific units).
    pub fn observe_scored(&mut self, msp: f32) -> (f64, bool) {
        let idx = self.kind().index();
        OBSERVED[idx].inc();
        let (score, drifted) = match self {
            // Exactly the original comparison — NaN compares false — so the
            // default path is bit-identical to the pre-zoo behavior.
            StreamDetector::Msp { threshold } => {
                (f64::from(1.0 - sanitize_msp(msp)), msp < *threshold)
            }
            StreamDetector::Ks(d) => d.observe_scored(msp),
            StreamDetector::Psi(d) => d.observe_scored(msp),
            StreamDetector::Mmd(d) => d.observe_scored(msp),
            StreamDetector::Ddm(d) => d.observe_scored(msp),
            StreamDetector::Eddm(d) => d.observe_scored(msp),
        };
        if drifted {
            ALARMS[idx].inc();
        }
        (score, drifted)
    }

    /// Feeds one inference's MSP; returns the boolean drift verdict.
    pub fn observe(&mut self, msp: f32) -> bool {
        self.observe_scored(msp).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn msp_stream(rng: &mut SmallRng, center: f32, n: usize) -> Vec<f32> {
        (0..n)
            .map(|_| (center + rng.gen_range(-0.05f32..0.05)).clamp(0.0, 1.0))
            .collect()
    }

    #[test]
    fn msp_kind_matches_raw_comparison_bitwise() {
        let mut det = StreamDetector::new(DetectorKind::Msp, 0.9);
        for msp in [0.0f32, 0.5, 0.899_999, 0.9, 0.900_001, 1.0, f32::NAN] {
            assert_eq!(det.observe(msp), msp < 0.9, "msp={msp}");
        }
    }

    #[test]
    fn every_kind_round_trips_serde_and_reports_name() {
        let mut names = std::collections::BTreeSet::new();
        for kind in DetectorKind::ALL {
            let json = serde_json::to_string(&kind).unwrap();
            let back: DetectorKind = serde_json::from_str(&json).unwrap();
            assert_eq!(back, kind);
            assert!(names.insert(kind.name()), "duplicate name {}", kind.name());
        }
        let cfg: DetectorKind = serde_json::from_str("\"KsTest\"").unwrap();
        assert_eq!(cfg, DetectorKind::KsTest);
        assert_eq!(DetectorKind::default(), DetectorKind::Msp);
    }

    #[test]
    fn windowed_detectors_alarm_on_confidence_collapse() {
        let mut rng = SmallRng::seed_from_u64(3);
        let high = msp_stream(&mut rng, 0.95, 200);
        let low = msp_stream(&mut rng, 0.55, 200);
        for kind in [DetectorKind::KsTest, DetectorKind::Psi, DetectorKind::Mmd] {
            let mut det = StreamDetector::new(kind, 0.9);
            for &m in &high {
                det.observe(m);
            }
            let alarms = low.iter().filter(|&&m| det.observe(m)).count();
            assert!(
                alarms > 100,
                "{}: only {alarms}/200 post-collapse alarms",
                kind.name()
            );
        }
    }

    #[test]
    fn windowed_detectors_stay_mostly_quiet_on_stationary_streams() {
        let mut rng = SmallRng::seed_from_u64(5);
        let stream = msp_stream(&mut rng, 0.95, 600);
        for kind in [DetectorKind::KsTest, DetectorKind::Psi, DetectorKind::Mmd] {
            let mut det = StreamDetector::new(kind, 0.9);
            let alarms = stream.iter().filter(|&&m| det.observe(m)).count();
            assert!(
                alarms < 60,
                "{}: {alarms}/600 alarms on a stationary stream",
                kind.name()
            );
        }
    }

    #[test]
    fn sequential_kinds_alarm_on_error_burst() {
        for kind in [DetectorKind::Ddm, DetectorKind::Eddm] {
            let mut det = StreamDetector::new(kind, 0.9);
            // Mostly confident with sparse errors, then a collapse.
            for i in 0..600 {
                det.observe(if i % 10 == 0 { 0.5 } else { 0.95 });
            }
            let mut alarms = 0;
            for _ in 0..400 {
                alarms += usize::from(det.observe(0.5));
            }
            assert!(alarms > 0, "{}: no alarms after collapse", kind.name());
        }
    }

    #[test]
    fn verdicts_are_deterministic_replays() {
        // Same stream, fresh detector → identical verdict sequence (the
        // property the fleet engines rely on when threading state).
        let mut rng = SmallRng::seed_from_u64(9);
        let mut stream = msp_stream(&mut rng, 0.9, 300);
        stream.extend(msp_stream(&mut rng, 0.6, 300));
        for kind in DetectorKind::ALL {
            let run = |s: &[f32]| {
                let mut det = StreamDetector::new(kind, 0.9);
                s.iter().map(|&m| det.observe_scored(m)).collect::<Vec<_>>()
            };
            let a = run(&stream);
            let b = run(&stream);
            assert_eq!(a, b, "{}", kind.name());
        }
    }

    #[test]
    fn non_finite_msp_never_poisons_state() {
        for kind in DetectorKind::ALL {
            let mut det = StreamDetector::new(kind, 0.9);
            for _ in 0..100 {
                det.observe(f32::NAN);
                det.observe(f32::INFINITY);
                det.observe(f32::NEG_INFINITY);
            }
            let (score, _) = det.observe_scored(0.95);
            assert!(score.is_finite() || score == f64::MAX, "{}", kind.name());
        }
    }

    #[test]
    fn streaming_constructors_reject_degenerate_parameters() {
        assert!(StreamingKs::new(0.0, 64, 32, 0.05).is_err());
        assert!(StreamingKs::new(0.9, 64, 1, 0.05).is_err());
        assert!(StreamingKs::new(0.9, 32, 32, 0.05).is_err());
        assert!(StreamingKs::new(0.9, 64, 32, 1.5).is_err());
        assert!(StreamingPsi::new(0.9, 64, 32, 1, 0.2).is_err());
        assert!(StreamingPsi::new(0.9, 64, 32, 8, f64::NAN).is_err());
        assert!(StreamingMmd::new(0.9, 64, 32, 0.0).is_err());
        assert!(StreamingDdm::new(1.5).is_err());
        assert!(StreamingEddm::new(-0.1).is_err());
    }

    #[test]
    fn capabilities_match_the_windowing_story() {
        assert!(!DetectorKind::Msp.capabilities().needs_batching);
        assert!(DetectorKind::KsTest.capabilities().needs_batching);
        assert!(DetectorKind::Psi.capabilities().needs_batching);
        assert!(DetectorKind::Mmd.capabilities().needs_batching);
        assert!(!DetectorKind::Ddm.capabilities().needs_batching);
        assert!(DetectorKind::Eddm.capabilities().deployable_on_device());
    }
}
