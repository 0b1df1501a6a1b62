//! A fleet of devices replaying the generated streams.

use crate::device::{Device, DeviceConfig, DeviceOutput, UploadedSample};
use nazar_data::{Corruption, LocationStream, SimDate, StreamItem};
use nazar_log::DriftLogEntry;
use nazar_nn::{BnPatch, MlpResNet};
use nazar_obs::LazyCounter;
use nazar_registry::VersionMeta;
use nazar_tensor::parallel;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
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

    /// Accuracy on one cause, if observed.
    pub fn cause_accuracy(&self, cause: Corruption) -> Option<f32> {
        self.per_cause.get(cause.name()).map(|&(c, t)| ratio(c, t))
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

/// A fleet of simulated devices, one per distinct `device_id` in the
/// streams.
#[derive(Debug, Clone)]
pub struct Fleet {
    devices: BTreeMap<String, Device>,
}

impl Fleet {
    /// Builds one device per distinct device id in `streams`, each holding a
    /// clone of `base_model`.
    pub fn from_streams(
        streams: &[LocationStream],
        base_model: &MlpResNet,
        config: &DeviceConfig,
    ) -> Self {
        let mut devices = BTreeMap::new();
        for stream in streams {
            for item in &stream.items {
                devices.entry(item.device_id.clone()).or_insert_with(|| {
                    Device::new(
                        item.device_id.clone(),
                        item.location.clone(),
                        base_model.clone(),
                        config.clone(),
                    )
                });
            }
        }
        Fleet { devices }
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Maximum number of model versions stored on any device.
    pub fn max_versions(&self) -> usize {
        self.devices
            .values()
            .map(|d| d.num_versions())
            .max()
            .unwrap_or(0)
    }

    /// All device ids, sorted.
    pub fn device_ids(&self) -> Vec<String> {
        self.devices.keys().cloned().collect()
    }

    /// Pushes a model version to every device (the cloud's deployment step).
    pub fn deploy(&mut self, meta: &VersionMeta, patch: &BnPatch) {
        for device in self.devices.values_mut() {
            device.install(meta.clone(), patch.clone());
        }
    }

    /// Installs a model version on one specific device (the transport
    /// layer's per-device delivery path). Returns `false` for unknown ids.
    pub fn install_on(&mut self, device_id: &str, meta: &VersionMeta, patch: &BnPatch) -> bool {
        match self.devices.get_mut(device_id) {
            Some(device) => {
                device.install(meta.clone(), patch.clone());
                true
            }
            None => false,
        }
    }

    /// The devices a version's cause can ever match, sorted by id: if the
    /// cause names a `location` or `device_id`, other devices never select
    /// the version, so shipping it to them wastes network and pool slots.
    pub fn target_ids(&self, meta: &VersionMeta) -> Vec<String> {
        let location = meta
            .attrs
            .iter()
            .find(|a| a.key == "location")
            .map(|a| a.value.clone());
        let device_id = meta
            .attrs
            .iter()
            .find(|a| a.key == "device_id")
            .map(|a| a.value.clone());
        self.devices
            .values()
            .filter(|device| {
                let location_ok = location.as_deref().is_none_or(|l| device.location() == l);
                let device_ok = device_id.as_deref().is_none_or(|d| device.id() == d);
                location_ok && device_ok
            })
            .map(|device| device.id().to_string())
            .collect()
    }

    /// Pushes a model version only to the devices [`Fleet::target_ids`]
    /// selects. Returns how many devices received the version.
    pub fn deploy_targeted(&mut self, meta: &VersionMeta, patch: &BnPatch) -> usize {
        let targets = self.target_ids(meta);
        let mut installed = 0;
        for id in &targets {
            if self.install_on(id, meta, patch) {
                installed += 1;
            }
        }
        installed
    }

    /// Replays window `w` of `windows` from all streams through the fleet.
    ///
    /// Devices are independent, so each device's items run on a scoped
    /// worker thread (see [`nazar_tensor::parallel`]). Every participating
    /// device draws a dedicated RNG seed from `rng` in sorted device order
    /// and the per-device outputs are merged back in that same order, so
    /// the result is independent of thread count and scheduling.
    pub fn process_window<R: Rng + ?Sized>(
        &mut self,
        streams: &[LocationStream],
        w: usize,
        windows: usize,
        rng: &mut R,
    ) -> WindowOutput {
        let parts = self.process_window_parts(streams, w, windows, rng);
        let mut out = WindowOutput::default();
        for (_, part) in parts {
            out.stats.merge(&part.stats);
            out.entries.extend(part.entries);
            out.uploads.extend(part.uploads);
        }
        out
    }

    /// Like [`Fleet::process_window`], but returns each participating
    /// device's output separately (sorted by device id) instead of a merged
    /// whole — the shape the transport layer needs, since every device
    /// uploads its own batch. Concatenating the parts in the returned order
    /// reproduces [`Fleet::process_window`] exactly.
    pub fn process_window_parts<R: Rng + ?Sized>(
        &mut self,
        streams: &[LocationStream],
        w: usize,
        windows: usize,
        rng: &mut R,
    ) -> Vec<(String, WindowOutput)> {
        let _span = nazar_obs::span_detail("detect", || format!("w={w}"));
        // Group this window's items per device, keeping stream order.
        let mut per_device: BTreeMap<&str, Vec<&StreamItem>> = BTreeMap::new();
        for stream in streams {
            for item in stream.window_items(w, windows) {
                per_device
                    .entry(item.device_id.as_str())
                    .or_default()
                    .push(item);
            }
        }

        let mut jobs = Vec::with_capacity(per_device.len());
        for (id, device) in self.devices.iter_mut() {
            if let Some(items) = per_device.remove(id.as_str()) {
                jobs.push((device, items, SmallRng::seed_from_u64(rng.next_u64())));
            }
        }

        let parts = parallel::par_map(jobs, |(device, items, mut device_rng)| {
            let mut part = WindowOutput::default();
            for item in items {
                let result = device.process(item, &mut device_rng);
                tally(&mut part, item, result);
            }
            (device.id().to_string(), part)
        });
        for (_, part) in &parts {
            record_stats(part);
        }
        // Window-close telemetry snapshot, stamped with the virtual time
        // `FleetSim` closes this window at (the lockstep engine has no
        // clock of its own) — same trigger, same timeline.
        if nazar_obs::enabled() {
            let (_, end_day) = SimDate::window_range(w, windows);
            nazar_obs::telemetry::snapshot(
                u64::from(end_day) * crate::scheduler::DAY_US,
                "window_close",
            );
        }
        parts
    }
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

/// Exports one window's aggregated statistics as fleet-wide counters
/// (shared with [`crate::FleetSim`]).
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

/// Folds one processed item into a window output (shared with
/// [`crate::FleetSim`]).
pub(crate) fn tally(out: &mut WindowOutput, item: &StreamItem, result: DeviceOutput) {
    out.stats.total += 1;
    if result.correct {
        out.stats.correct += 1;
    }
    if result.entry.drift {
        out.stats.flagged += 1;
        if item.true_cause.is_none() {
            out.stats.false_positives += 1;
        }
    } else if item.true_cause.is_some() {
        out.stats.misses += 1;
    }
    if let Some(cause) = item.true_cause {
        out.stats.drifted_total += 1;
        if result.correct {
            out.stats.drifted_correct += 1;
        }
        // Look up before inserting: the key is allocated once per cause,
        // not once per drifted item.
        let hit = (usize::from(result.correct), 1);
        if let Some(e) = out.stats.per_cause.get_mut(cause.name()) {
            e.0 += hit.0;
            e.1 += hit.1;
        } else {
            out.stats.per_cause.insert(cause.name().to_string(), hit);
        }
    }
    out.entries.push(result.entry);
    if let Some(sample) = result.sample {
        out.uploads.push(sample);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nazar_data::{AnimalsConfig, AnimalsDataset};
    use nazar_nn::ModelArch;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn small_world() -> (AnimalsDataset, Fleet) {
        let cfg = AnimalsConfig {
            devices_per_location: 2,
            arrivals_per_day: 0.5,
            ..AnimalsConfig::small()
        };
        let data = AnimalsDataset::generate(&cfg);
        let mut rng = SmallRng::seed_from_u64(0);
        let model = MlpResNet::new(ModelArch::tiny(cfg.dim, cfg.classes), &mut rng);
        let fleet = Fleet::from_streams(&data.streams, &model, &DeviceConfig::default());
        (data, fleet)
    }

    #[test]
    fn fleet_builds_one_device_per_id() {
        let (data, fleet) = small_world();
        let mut ids = std::collections::HashSet::new();
        for s in &data.streams {
            for item in &s.items {
                ids.insert(item.device_id.clone());
            }
        }
        assert_eq!(fleet.len(), ids.len());
    }

    #[test]
    fn window_outputs_cover_all_items_in_window() {
        let (data, mut fleet) = small_world();
        let mut rng = SmallRng::seed_from_u64(1);
        let expected: usize = data
            .streams
            .iter()
            .map(|s| s.window_items(0, 8).count())
            .sum();
        let out = fleet.process_window(&data.streams, 0, 8, &mut rng);
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
        let mut rng = SmallRng::seed_from_u64(1);
        let out = fleet.process_window(&data.streams, 0, 8, &mut rng);
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
        let patch = {
            let mut rng = SmallRng::seed_from_u64(0);
            let mut m = MlpResNet::new(ModelArch::tiny(32, 8), &mut rng);
            nazar_nn::BnPatch::extract(&mut m)
        };
        // A cause scoped to one location reaches only that location's devices.
        let location = data.streams[0].location.clone();
        let meta = VersionMeta::new(
            vec![
                nazar_log::Attribute::new("weather", "snow"),
                nazar_log::Attribute::new("location", location.clone()),
            ],
            2.0,
        );
        let installed = fleet.deploy_targeted(&meta, &patch);
        let expected = fleet
            .devices
            .values()
            .filter(|d| d.location() == location)
            .count();
        assert_eq!(installed, expected);
        assert!(installed < fleet.len(), "must not broadcast");
        // A location-free cause broadcasts.
        let broad = VersionMeta::new(vec![nazar_log::Attribute::new("weather", "fog")], 2.0);
        assert_eq!(fleet.deploy_targeted(&broad, &patch), fleet.len());
    }

    #[test]
    fn deploy_reaches_every_device() {
        let (_data, mut fleet) = small_world();
        let patch = {
            let mut rng = SmallRng::seed_from_u64(0);
            let mut m = MlpResNet::new(ModelArch::tiny(32, 8), &mut rng);
            nazar_nn::BnPatch::extract(&mut m)
        };
        fleet.deploy(
            &VersionMeta::new(vec![nazar_log::Attribute::new("weather", "fog")], 2.0),
            &patch,
        );
        assert!(fleet.devices.values().all(|d| d.num_versions() == 1));
        assert_eq!(fleet.max_versions(), 1);
    }
}
