//! What a fleet window produces: per-device outputs and their statistics.

use crate::device::UploadedSample;
use nazar_data::StreamItem;
use nazar_log::DriftLogEntry;
use nazar_obs::LazyCounter;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Accuracy and volume statistics of one processed window.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WindowStats {
    /// Inference requests processed.
    pub total: usize,
    /// Correct predictions.
    pub correct: usize,
    /// Requests whose input was drifted in the ground truth.
    pub drifted_total: usize,
    /// Correct predictions among drifted inputs.
    pub drifted_correct: usize,
    /// Requests the on-device detector flagged as drift.
    pub flagged: usize,
    /// Flagged requests whose input was *not* drifted in the ground truth
    /// (detector false positives).
    #[serde(default)]
    pub false_positives: usize,
    /// Drifted requests the detector did *not* flag (detector misses).
    #[serde(default)]
    pub misses: usize,
    /// Per-cause `(correct, total)` tallies, keyed by corruption name.
    pub per_cause: BTreeMap<String, (usize, usize)>,
}

impl WindowStats {
    /// Overall accuracy in `[0, 1]`.
    pub fn accuracy(&self) -> f32 {
        ratio(self.correct, self.total)
    }

    /// Accuracy restricted to drifted inputs.
    pub fn drifted_accuracy(&self) -> f32 {
        ratio(self.drifted_correct, self.drifted_total)
    }

    /// Fraction of inputs flagged as drift by the on-device detector.
    pub fn detection_rate(&self) -> f32 {
        ratio(self.flagged, self.total)
    }

    /// Detector precision: of the flagged requests, the fraction that were
    /// actually drifted. `0` when nothing was flagged.
    pub fn precision(&self) -> f32 {
        ratio(self.flagged - self.false_positives, self.flagged)
    }

    /// Detector recall: of the drifted requests, the fraction the detector
    /// flagged. `0` when nothing was drifted.
    pub fn recall(&self) -> f32 {
        ratio(self.drifted_total - self.misses, self.drifted_total)
    }

    /// Merges another window's statistics into this one.
    pub fn merge(&mut self, other: &WindowStats) {
        self.total += other.total;
        self.correct += other.correct;
        self.drifted_total += other.drifted_total;
        self.drifted_correct += other.drifted_correct;
        self.flagged += other.flagged;
        self.false_positives += other.false_positives;
        self.misses += other.misses;
        for (k, &(c, t)) in &other.per_cause {
            let e = self.per_cause.entry(k.clone()).or_insert((0, 0));
            e.0 += c;
            e.1 += t;
        }
    }
}

fn ratio(num: usize, den: usize) -> f32 {
    if den == 0 {
        0.0
    } else {
        num as f32 / den as f32
    }
}

/// The result of replaying one window through the fleet.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowOutput {
    /// Drift-log entries emitted by all devices.
    pub entries: Vec<DriftLogEntry>,
    /// Inputs sampled for upload.
    pub uploads: Vec<UploadedSample>,
    /// Aggregated accuracy statistics.
    pub stats: WindowStats,
}

static INFERENCES: LazyCounter = LazyCounter::new(
    "nazar_device_inferences_total",
    "Inference requests processed by the fleet",
    &[],
);
static CORRECT: LazyCounter = LazyCounter::new(
    "nazar_device_correct_total",
    "Correct predictions across the fleet",
    &[],
);
static DRIFTED: LazyCounter = LazyCounter::new(
    "nazar_device_drifted_total",
    "Requests whose input was drifted in the ground truth",
    &[],
);
static FLAGGED: LazyCounter = LazyCounter::new(
    "nazar_device_flagged_total",
    "Requests the on-device detector flagged as drift",
    &[],
);
static FALSE_POSITIVES: LazyCounter = LazyCounter::new(
    "nazar_device_false_positives_total",
    "Flagged requests that were not drifted (detector false positives)",
    &[],
);
static MISSES: LazyCounter = LazyCounter::new(
    "nazar_device_misses_total",
    "Drifted requests the detector did not flag (detector misses)",
    &[],
);
static UPLOADS: LazyCounter = LazyCounter::new(
    "nazar_device_uploads_total",
    "Inputs sampled for upload to the cloud",
    &[],
);

/// Exports one window's aggregated statistics as fleet-wide counters.
pub(crate) fn record_stats(out: &WindowOutput) {
    if !nazar_obs::enabled() {
        return;
    }
    INFERENCES.add(out.stats.total as u64);
    CORRECT.add(out.stats.correct as u64);
    DRIFTED.add(out.stats.drifted_total as u64);
    FLAGGED.add(out.stats.flagged as u64);
    FALSE_POSITIVES.add(out.stats.false_positives as u64);
    MISSES.add(out.stats.misses as u64);
    UPLOADS.add(out.uploads.len() as u64);
}

/// Folds one processed item — its prediction and what the device emitted
/// for it — into a window output.
pub(crate) fn tally(
    out: &mut WindowOutput,
    item: &StreamItem,
    prediction: usize,
    entry: DriftLogEntry,
    sample: Option<UploadedSample>,
) {
    let correct = prediction == item.label;
    out.stats.total += 1;
    if correct {
        out.stats.correct += 1;
    }
    if entry.drift {
        out.stats.flagged += 1;
        if item.true_cause.is_none() {
            out.stats.false_positives += 1;
        }
    } else if item.true_cause.is_some() {
        out.stats.misses += 1;
    }
    if let Some(cause) = item.true_cause {
        out.stats.drifted_total += 1;
        if correct {
            out.stats.drifted_correct += 1;
        }
        // Look up before inserting: the key is allocated once per cause,
        // not once per drifted item.
        let hit = (usize::from(correct), 1);
        if let Some(e) = out.stats.per_cause.get_mut(cause.name()) {
            e.0 += hit.0;
            e.1 += hit.1;
        } else {
            out.stats.per_cause.insert(cause.name().to_string(), hit);
        }
    }
    out.entries.push(entry);
    if let Some(sample) = sample {
        out.uploads.push(sample);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeviceConfig, FleetSim};
    use nazar_data::{AnimalsConfig, AnimalsDataset};
    use nazar_log::Attribute;
    use nazar_nn::{BnPatch, MlpResNet, ModelArch};
    use nazar_registry::VersionMeta;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    fn small_world() -> (AnimalsDataset, FleetSim) {
        let cfg = AnimalsConfig {
            devices_per_location: 2,
            arrivals_per_day: 0.5,
            ..AnimalsConfig::small()
        };
        let data = AnimalsDataset::generate(&cfg);
        let mut rng = SmallRng::seed_from_u64(0);
        let model = MlpResNet::new(ModelArch::tiny(cfg.dim, cfg.classes), &mut rng);
        let fleet = FleetSim::from_streams(&data.streams, &model, &DeviceConfig::default());
        (data, fleet)
    }

    fn patch() -> BnPatch {
        BnPatch::extract(&mut MlpResNet::new(
            ModelArch::tiny(32, 8),
            &mut SmallRng::seed_from_u64(0),
        ))
    }

    #[test]
    fn fleet_builds_one_device_per_id() {
        let (data, fleet) = small_world();
        let items = data.streams.iter().flat_map(|s| &s.items);
        let ids: BTreeSet<&String> = items.map(|item| &item.device_id).collect();
        assert_eq!(fleet.len(), ids.len());
    }

    #[test]
    fn window_outputs_cover_all_items_in_window() {
        let (data, mut fleet) = small_world();
        let expected: usize = data
            .streams
            .iter()
            .map(|s| s.window_items(0, 8).count())
            .sum();
        let out = fleet.process_window(&data.streams, 0, 8, &mut SmallRng::seed_from_u64(1));
        assert_eq!(out.stats.total, expected);
        assert_eq!(out.entries.len(), expected);
        assert!(out.stats.correct <= out.stats.total);
        assert!(out.stats.drifted_correct <= out.stats.drifted_total);
    }

    #[test]
    fn precision_and_recall_follow_confusion_counts() {
        let stats = WindowStats {
            total: 100,
            drifted_total: 40,
            flagged: 50,
            false_positives: 20, // 30 true positives of 50 flagged
            misses: 10,          // 30 caught of 40 drifted
            ..WindowStats::default()
        };
        assert!((stats.precision() - 0.6).abs() < 1e-6);
        assert!((stats.recall() - 0.75).abs() < 1e-6);
        // Degenerate windows divide by zero into 0, not NaN.
        let empty = WindowStats::default();
        assert_eq!(empty.precision(), 0.0);
        assert_eq!(empty.recall(), 0.0);
    }

    #[test]
    fn tally_classifies_false_positives_and_misses() {
        let (data, mut fleet) = small_world();
        let out = fleet.process_window(&data.streams, 0, 8, &mut SmallRng::seed_from_u64(1));
        // Confusion counts partition consistently.
        assert!(out.stats.false_positives <= out.stats.flagged);
        assert!(out.stats.misses <= out.stats.drifted_total);
        let true_positives = out.stats.flagged - out.stats.false_positives;
        assert_eq!(
            true_positives + out.stats.misses,
            out.stats.drifted_total,
            "drifted inputs split into caught + missed"
        );
    }

    #[test]
    fn stats_merge_adds_counts() {
        let mut a = WindowStats {
            total: 10,
            correct: 5,
            ..WindowStats::default()
        };
        a.per_cause.insert("fog".into(), (1, 2));
        let mut b = WindowStats {
            total: 6,
            correct: 3,
            ..WindowStats::default()
        };
        b.per_cause.insert("fog".into(), (2, 3));
        a.merge(&b);
        assert_eq!(a.total, 16);
        assert_eq!(a.per_cause["fog"], (3, 5));
        assert!((a.accuracy() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn targeted_deploy_installs_only_on_matching_devices() {
        let (data, mut fleet) = small_world();
        // A cause scoped to one location reaches only that location's devices.
        let stream = &data.streams[0];
        let cause = vec![
            Attribute::new("weather", "snow"),
            Attribute::new("location", stream.location.clone()),
        ];
        let installed = fleet.deploy_targeted(&VersionMeta::new(cause, 2.0), &patch());
        let local: BTreeSet<&String> = stream.items.iter().map(|item| &item.device_id).collect();
        assert_eq!(installed, local.len());
        assert!(installed < fleet.len(), "must not broadcast");
        // A location-free cause broadcasts.
        let broad = VersionMeta::new(vec![Attribute::new("weather", "fog")], 2.0);
        assert_eq!(fleet.deploy_targeted(&broad, &patch()), fleet.len());
    }

    #[test]
    fn deploy_reaches_every_device() {
        let (_data, mut fleet) = small_world();
        let meta = VersionMeta::new(vec![Attribute::new("weather", "fog")], 2.0);
        fleet.deploy(&meta, &patch());
        assert!((0..fleet.len()).all(|d| fleet.pools.slots(d).len() == 1));
        assert_eq!(fleet.max_versions(), 1);
    }
}
