//! What a fleet window produces: per-device outputs and their statistics.

use crate::device::UploadedSample;
use crate::LOG_SCHEMA;
use nazar_data::{Corruption, StreamItem};
use nazar_log::RowBatch;
use nazar_obs::Counter;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::ops::Range;

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
#[derive(Debug, Clone, PartialEq)]
pub struct WindowOutput {
    /// Drift-log rows emitted by all devices, over [`LOG_SCHEMA`].
    pub entries: RowBatch,
    /// Inputs sampled for upload.
    pub uploads: Vec<UploadedSample>,
    /// Aggregated accuracy statistics.
    pub stats: WindowStats,
}

/// No rows yet, over [`LOG_SCHEMA`].
impl Default for WindowOutput {
    fn default() -> Self {
        WindowOutput {
            entries: RowBatch::new(&LOG_SCHEMA),
            uploads: Vec::new(),
            stats: WindowStats::default(),
        }
    }
}

static INFERENCES: Counter = Counter::new("nazar_device_inferences_total", &[]);
static CORRECT: Counter = Counter::new("nazar_device_correct_total", &[]);
static DRIFTED: Counter = Counter::new("nazar_device_drifted_total", &[]);
static FLAGGED: Counter = Counter::new("nazar_device_flagged_total", &[]);
static FALSE_POSITIVES: Counter = Counter::new("nazar_device_false_positives_total", &[]);
static MISSES: Counter = Counter::new("nazar_device_misses_total", &[]);
static UPLOADS: Counter = Counter::new("nazar_device_uploads_total", &[]);

/// Exports one window's statistics and upload count as fleet-wide
/// counters.
pub(crate) fn record_stats(stats: &Tally, uploads: usize) {
    if !nazar_obs::enabled() {
        return;
    }
    INFERENCES.add(stats.total as u64);
    CORRECT.add(stats.correct as u64);
    DRIFTED.add(stats.drifted_total as u64);
    FLAGGED.add(stats.flagged as u64);
    FALSE_POSITIVES.add(stats.false_positives as u64);
    MISSES.add(stats.misses as u64);
    UPLOADS.add(uploads as u64);
}

/// What a pass keeps of one processed item for the statistics, which are
/// counted when they are read rather than item by item.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Outcome {
    correct: bool,
    drift: bool,
    cause: Option<Corruption>,
}

impl Outcome {
    /// An item's outcome: its prediction against its label, its drift
    /// verdict and its ground-truth cause.
    pub(crate) fn of(item: &StreamItem, prediction: usize, drift: bool) -> Self {
        Outcome {
            correct: prediction == item.label,
            drift,
            cause: item.true_cause,
        }
    }
}

/// [`WindowStats`] as fixed counters — per-cause tallies by
/// [`Corruption::ALL`] position — so that counting allocates nothing until
/// the tally is read out.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Tally {
    total: usize,
    correct: usize,
    drifted_total: usize,
    drifted_correct: usize,
    flagged: usize,
    false_positives: usize,
    misses: usize,
    /// `(correct, total)` per corruption, by `Corruption::ALL` position.
    per_cause: [(usize, usize); Corruption::ALL.len()],
}

impl Tally {
    /// The tally of `outcomes`.
    pub(crate) fn of(outcomes: &[Outcome]) -> Self {
        let mut tally = Tally::default();
        for o in outcomes {
            tally.total += 1;
            tally.correct += usize::from(o.correct);
            if o.drift {
                tally.flagged += 1;
                tally.false_positives += usize::from(o.cause.is_none());
            } else if o.cause.is_some() {
                tally.misses += 1;
            }
            if let Some(cause) = o.cause {
                tally.drifted_total += 1;
                tally.drifted_correct += usize::from(o.correct);
                let e = &mut tally.per_cause[cause as usize];
                e.0 += usize::from(o.correct);
                e.1 += 1;
            }
        }
        tally
    }

    /// The counts as [`WindowStats`]: a cause is keyed once one of its
    /// items was counted.
    pub(crate) fn stats(&self) -> WindowStats {
        let per_cause = (Corruption::ALL.iter().zip(&self.per_cause))
            .filter(|(_, &(_, total))| total > 0)
            .map(|(cause, &counts)| (cause.name().to_string(), counts))
            .collect();
        WindowStats {
            total: self.total,
            correct: self.correct,
            drifted_total: self.drifted_total,
            drifted_correct: self.drifted_correct,
            flagged: self.flagged,
            false_positives: self.false_positives,
            misses: self.misses,
            per_cause,
        }
    }
}

/// One participating device's place in a window: ranges into the
/// window's buffers, and what its pass needs.
#[derive(Debug, Clone, Default)]
pub(crate) struct Slot {
    pub(crate) device: u32,
    /// The worker chunk whose batch and uploads hold its rows and samples.
    pub(crate) chunk: usize,
    /// Its arrivals and their outcomes: a range of the window's.
    pub(crate) arrivals: Range<usize>,
    /// Where its segment of the chunk's page starts: its id.
    pub(crate) page: usize,
    /// Its samples in the chunk's uploads.
    pub(crate) uploads: Range<usize>,
    /// The seed of the device's RNG for this window.
    pub(crate) seed: u64,
    /// The device's drift-log sequence number, advanced item by item.
    pub(crate) seq: u64,
}

/// The rows and samples of one worker chunk's devices, device after
/// device.
#[derive(Debug, Clone)]
pub(crate) struct ChunkOut<'s> {
    /// Every device's rows over [`LOG_SCHEMA`]; each device's page strings
    /// are a segment of the page, its id first, borrowed from the items.
    pub(crate) rows: RowBatch<&'s str>,
    pub(crate) uploads: Vec<UploadedSample>,
    /// The window position of the chunk's first arrival, which is its
    /// first row.
    pub(crate) first: usize,
}

impl Default for ChunkOut<'_> {
    fn default() -> Self {
        ChunkOut {
            rows: RowBatch::new(&LOG_SCHEMA),
            uploads: Vec::new(),
            first: 0,
        }
    }
}

/// One window's output, device by device, in ascending device order: what
/// [`crate::FleetSim::run_window`] fills. Its buffers — one row batch per
/// worker chunk, the devices' places, the items' outcomes — are kept from
/// window to window ([`crate::FleetSim::recycle`] takes them back), so a
/// warm window allocates nothing per device. Row pages borrow the stream
/// items' strings, for the lifetime `'s` of the streams.
#[derive(Debug, Clone, Default)]
pub struct WindowParts<'s> {
    pub(crate) slots: Vec<Slot>,
    pub(crate) chunks: Vec<ChunkOut<'s>>,
    /// Per arrival of the window, in window order.
    pub(crate) outcomes: Vec<Outcome>,
}

impl<'s> WindowParts<'s> {
    /// The participating devices' shares, ascending by device.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = DevicePart<'_, 's>> {
        self.slots.iter().map(|slot| DevicePart {
            slot,
            chunk: &self.chunks[slot.chunk],
            outcomes: &self.outcomes[slot.arrivals.clone()],
        })
    }

    /// The window's statistics, over all its devices.
    pub fn stats(&self) -> WindowStats {
        Tally::of(&self.outcomes).stats()
    }

    /// Empties every buffer and ends the borrow of the streams, keeping
    /// every allocation.
    pub(crate) fn recycle<'b>(mut self) -> WindowParts<'b> {
        self.slots.clear();
        self.outcomes.clear();
        // Same layout on both sides, so the vector is reused in place.
        let chunks = (self.chunks.into_iter())
            .map(|mut chunk| {
                chunk.uploads.clear();
                ChunkOut {
                    rows: chunk.rows.recycle(),
                    uploads: chunk.uploads,
                    first: 0,
                }
            })
            .collect();
        WindowParts {
            slots: self.slots,
            chunks,
            outcomes: self.outcomes,
        }
    }
}

/// One participating device's share of a window, borrowed from its
/// [`WindowParts`].
#[derive(Debug, Clone, Copy)]
pub struct DevicePart<'p, 's> {
    slot: &'p Slot,
    chunk: &'p ChunkOut<'s>,
    outcomes: &'p [Outcome],
}

impl<'p, 's> DevicePart<'p, 's> {
    /// The device's index in [`crate::FleetSim::device_ids`].
    pub fn device(&self) -> u32 {
        self.slot.device
    }

    /// The batch holding the device's rows — among its chunk's other
    /// devices' — at [`DevicePart::rows`].
    pub fn batch(&self) -> &'p RowBatch<&'s str> {
        &self.chunk.rows
    }

    /// The device's rows in [`DevicePart::batch`], in stream order.
    pub fn rows(&self) -> Range<usize> {
        let first = self.chunk.first;
        self.slot.arrivals.start - first..self.slot.arrivals.end - first
    }

    /// The inputs the device sampled for upload.
    pub fn uploads(&self) -> &'p [UploadedSample] {
        &self.chunk.uploads[self.slot.uploads.clone()]
    }

    /// The share as an owned [`WindowOutput`]: its rows on a page of their
    /// own, the device id first, as a device alone would have emitted
    /// them, and its statistics.
    pub(crate) fn to_output(self) -> WindowOutput {
        let batch = self.batch();
        let rows = self.rows();
        let mut entries = RowBatch::with_capacity(&LOG_SCHEMA, rows.len(), 3);
        entries.intern(batch.page()[self.slot.page]);
        for row in rows {
            let values: [&str; LOG_SCHEMA.len()] = std::array::from_fn(|col| batch.value(row, col));
            let (timestamp, drift) = (batch.timestamps()[row], batch.drift_flags()[row]);
            entries.push_values(timestamp, drift, &values);
        }
        WindowOutput {
            entries,
            uploads: self.uploads().to_vec(),
            stats: Tally::of(self.outcomes).stats(),
        }
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
