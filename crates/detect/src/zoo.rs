//! The on-device streaming detector: one threshold on the softmax
//! confidence, per input.
//!
//! Every device of the fleet feeds each inference's MSP to a
//! [`StreamDetector`] and logs the verdict. The
//! detector keeps nothing between inputs: drift on a device comes and goes
//! with the weather, a drifted run is a handful of items long, and the
//! drift log's consumer (FIM) reads the flag row by row. DESIGN.md §15
//! records the measurement behind that: every windowed or sequential
//! monitor tried here ranked below chance once it answered with its own
//! statistic.
//!
//! [`DetectorKind`] names the one kind there is; it stays an enum because
//! the repository benchmark constructs the detector through it.
//!
//! Activity is observable through the self-gated `nazar_detect_*` counters
//! (observations, alarms).

use nazar_obs::LazyCounter;
use serde::{Deserialize, Serialize};

/// Which drift detector a device runs over its MSP stream.
///
/// Serializes by variant name (`"Msp"`); any other name is refused.
/// [`DetectorKind::name`] provides the spelling used in reports and metric
/// labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum DetectorKind {
    /// Stateless MSP threshold (the paper's detector).
    #[default]
    Msp,
}

impl DetectorKind {
    /// Stable name (the `detector` label on `nazar_detect_*` metrics).
    pub const fn name(self) -> &'static str {
        match self {
            DetectorKind::Msp => "msp",
        }
    }
}

static OBSERVED: LazyCounter = LazyCounter::new(
    "nazar_detect_observations_total",
    "MSP observations fed to per-device drift detectors",
    &[("detector", DetectorKind::Msp.name())],
);
static ALARMS: LazyCounter = LazyCounter::new(
    "nazar_detect_alarms_total",
    "Per-item drift alarms raised by per-device detectors",
    &[("detector", DetectorKind::Msp.name())],
);

/// The on-device detector: one MSP in, one verdict out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamDetector {
    /// Flag items whose MSP falls below this value.
    threshold: f32,
}

impl StreamDetector {
    /// Builds the detector a device runs from its MSP detection threshold.
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
        match kind {
            DetectorKind::Msp => StreamDetector { threshold },
        }
    }

    /// Feeds one inference's MSP; returns the drift verdict
    /// `msp < threshold`. A NaN confidence compares false.
    pub fn observe(&mut self, msp: f32) -> bool {
        OBSERVED.inc();
        let drifted = msp < self.threshold;
        if drifted {
            ALARMS.inc();
        }
        drifted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msp_kind_matches_raw_comparison_bitwise() {
        let mut det = StreamDetector::new(DetectorKind::Msp, 0.9);
        for msp in [0.0f32, 0.5, 0.899_999, 0.9, 0.900_001, 1.0, f32::NAN] {
            assert_eq!(det.observe(msp), msp < 0.9, "msp={msp}");
        }
    }

    #[test]
    fn kind_round_trips_serde_and_removed_members_are_refused() {
        let json = serde_json::to_string(&DetectorKind::Msp).unwrap();
        assert_eq!(json, "\"Msp\"");
        let back: DetectorKind = serde_json::from_str(&json).unwrap();
        assert_eq!(back, DetectorKind::Msp);
        assert_eq!(DetectorKind::default().name(), "msp");
        // A removed member must fail to load, never fall back to `Msp`.
        for gone in ["\"KsTest\"", "\"Ddm\""] {
            assert!(
                serde_json::from_str::<DetectorKind>(gone).is_err(),
                "{gone}"
            );
        }
    }
}
