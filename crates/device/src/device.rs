//! A single simulated mobile device.

use crate::item_attributes;
use nazar_data::{Corruption, SimDate, StreamItem};
use nazar_detect::{msp_of_row, DetectorKind, StreamDetector};
use nazar_log::{Attribute, DriftLogEntry};
use nazar_nn::{BnPatch, MlpResNet};
use nazar_obs::LazyCounter;
use nazar_registry::{DeployOutcome, ModelPool, VersionMeta};
use nazar_tensor::{kernels, simd, Workspace};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Per-device configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceConfig {
    /// Fraction of inputs uploaded to the cloud for adaptation (§3.1: "the
    /// device samples a percentage of the actual input data").
    pub sample_rate: f64,
    /// MSP detection threshold (paper default 0.9).
    pub detection_threshold: f32,
    /// Maximum stored model versions (`None` disables the cap, as in the
    /// Fig. 8c experiment).
    pub pool_capacity: Option<usize>,
}

impl DeviceConfig {
    /// The detector every device of a fleet under this configuration runs.
    pub(crate) fn detector(&self) -> StreamDetector {
        StreamDetector::new(DetectorKind::Msp, self.detection_threshold)
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig {
            sample_rate: 0.3,
            detection_threshold: 0.9,
            pool_capacity: Some(8),
        }
    }
}

/// An input sampled for upload, tagged with its metadata.
///
/// `label` and `true_cause` ride along for evaluation only — Nazar itself
/// never reads them (its adaptation is self-supervised).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UploadedSample {
    /// The raw input features.
    pub features: Vec<f32>,
    /// Metadata attributes in schema order.
    pub attrs: Vec<Attribute>,
    /// Capture date.
    pub date: SimDate,
    /// Ground-truth label (evaluation only).
    pub label: usize,
    /// Ground-truth drift cause (evaluation only).
    pub true_cause: Option<Corruption>,
}

/// The result of processing one inference request.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceOutput {
    /// The drift-log entry to ship to the cloud.
    pub entry: DriftLogEntry,
    /// The sampled upload, if this input was selected.
    pub sample: Option<UploadedSample>,
    /// The model's prediction.
    pub prediction: usize,
    /// Whether the prediction matched the ground-truth label.
    pub correct: bool,
    /// Id of the model version used (`None` = base model).
    pub version_used: Option<u64>,
}

/// A simulated mobile device running Nazar's on-device loop.
#[derive(Debug, Clone)]
pub struct Device {
    id: String,
    location: String,
    base_patch: BnPatch,
    active_model: MlpResNet,
    active_version: Option<u64>,
    pool: ModelPool<BnPatch>,
    detector: StreamDetector,
    config: DeviceConfig,
    seq: u64,
}

impl Device {
    /// Creates a device with the given base model.
    pub fn new(
        id: impl Into<String>,
        location: impl Into<String>,
        mut base_model: MlpResNet,
        config: DeviceConfig,
    ) -> Self {
        let base_patch = BnPatch::extract(&mut base_model);
        Device {
            id: id.into(),
            location: location.into(),
            base_patch,
            active_model: base_model,
            active_version: None,
            pool: ModelPool::new(config.pool_capacity),
            detector: config.detector(),
            config,
            seq: 0,
        }
    }

    /// The device identifier.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The device's location attribute.
    pub fn location(&self) -> &str {
        &self.location
    }

    /// Number of stored model versions.
    pub fn num_versions(&self) -> usize {
        self.pool.len()
    }

    /// Installs a new model version pushed from the cloud.
    pub fn install(&mut self, meta: VersionMeta, patch: BnPatch) -> DeployOutcome {
        let outcome = self.pool.deploy(meta, patch);
        // The active version may have been evicted or replaced; force a
        // re-selection on the next inference.
        self.activate_base();
        outcome
    }

    fn activate_base(&mut self) {
        self.base_patch
            .apply(&mut self.active_model)
            .expect("base patch fits its own model");
        self.active_version = None;
    }

    fn activate(&mut self, attrs: &[Attribute]) {
        let selected = self.pool.select(attrs).map(|v| (v.id, v.payload.clone()));
        match selected {
            Some((id, patch)) => {
                if self.active_version != Some(id) {
                    patch
                        .apply(&mut self.active_model)
                        .expect("pool patches fit the base model");
                    self.active_version = Some(id);
                }
            }
            None => {
                if self.active_version.is_some() {
                    self.activate_base();
                }
            }
        }
    }

    /// Runs the full on-device loop for one inference request.
    pub fn process<R: Rng + ?Sized>(&mut self, item: &StreamItem, rng: &mut R) -> DeviceOutput {
        let attrs = item_attributes(item);
        self.activate(&attrs);
        let (prediction, msp) = forward_item(&self.active_model, item);
        self.seq += 1;
        let drift = self.detector.observe(msp);
        let (entry, sample) =
            emit_outputs(item, attrs, drift, self.config.sample_rate, self.seq, rng);
        DeviceOutput {
            entry,
            sample,
            prediction,
            correct: prediction == item.label,
            version_used: self.active_version,
        }
    }
}

static FORWARD_CALLS: LazyCounter = LazyCounter::new_volatile(
    "nazar_device_forward_calls_total",
    "Eval forward passes issued by the fleet (one per batched group, so it varies with the worker count)",
    &[],
);
static FORWARD_ROWS: LazyCounter = LazyCounter::new(
    "nazar_device_forward_rows_total",
    "Feature rows carried by the fleet's eval forward passes",
    &[],
);

/// One eval forward over `n` stacked feature rows (`x: [n, input_dim]`,
/// row-major), handing `each` every row's `(row index, prediction, MSP)`.
/// One pass serves both the prediction and the MSP detector — the reason
/// the paper picks this detector ("the logit scores are computed by the
/// inference anyways"). A row's result does not depend on the rows stacked
/// with it ([`MlpResNet::infer_into`]), which is what lets
/// [`crate::FleetSim`] batch what [`Device::process`] runs one item at a
/// time and still match it bit for bit. The matmuls stay on the calling thread: the
/// fleet's parallelism is across devices, not inside a forward.
pub(crate) fn forward_rows(
    model: &MlpResNet,
    x: &[f32],
    n: usize,
    ws: &mut Workspace,
    mut each: impl FnMut(usize, usize, f32),
) {
    FORWARD_CALLS.inc();
    FORWARD_ROWS.add(n as u64);
    let classes = model.arch().num_classes;
    let mut logits = ws.take_filled_later(n * classes);
    model.infer_into_with(x, n, &mut logits, ws, 1, simd::env_tier());
    for (i, row) in logits.chunks_exact(classes).enumerate() {
        each(i, kernels::argmax(row), msp_of_row(row));
    }
    ws.recycle(logits);
}

/// [`forward_rows`] for one stream item: `(prediction, MSP)`.
fn forward_item(model: &MlpResNet, item: &StreamItem) -> (usize, f32) {
    let mut out = (0, 0.0);
    Workspace::with_thread_local(|ws| {
        forward_rows(model, &item.features, 1, ws, |_, prediction, msp| {
            out = (prediction, msp);
        });
    });
    out
}

/// The emission half of the on-device loop: drift-log entry and the sampled
/// upload (one RNG draw per item). The drift verdict is the caller's
/// [`StreamDetector`]'s. `seq` is the device's entry sequence number
/// *after* incrementing for this item. Shared by [`Device::process`] and
/// [`crate::FleetSim`].
pub(crate) fn emit_outputs<R: Rng + ?Sized>(
    item: &StreamItem,
    attrs: Vec<Attribute>,
    drift: bool,
    sample_rate: f64,
    seq: u64,
    rng: &mut R,
) -> (DriftLogEntry, Option<UploadedSample>) {
    // The sampling draw comes first so that the attributes are cloned only
    // for the fraction of items that is uploaded.
    let sample = (rng.gen_range(0.0f64..1.0) < sample_rate).then(|| UploadedSample {
        features: item.features.clone(),
        attrs: attrs.clone(),
        date: item.date,
        label: item.label,
        true_cause: item.true_cause,
    });
    let entry = DriftLogEntry {
        timestamp: u64::from(item.date.day_index()) * 86_400 + seq % 86_400,
        attrs,
        drift,
    };
    (entry, sample)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nazar_data::{Severity, Weather};
    use nazar_nn::ModelArch;
    use nazar_tensor::Tensor;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn item(weather: Weather, device: &str) -> StreamItem {
        StreamItem {
            features: vec![0.1; 8],
            label: 0,
            date: SimDate::new(5),
            location: "quebec".into(),
            device_id: device.into(),
            weather,
            true_cause: weather.corruption(),
            severity: if weather.is_drifting() {
                Severity::DEFAULT
            } else {
                Severity::NONE
            },
        }
    }

    fn device() -> Device {
        let mut rng = SmallRng::seed_from_u64(0);
        let model = MlpResNet::new(ModelArch::tiny(8, 3), &mut rng);
        Device::new("quebec-dev00", "quebec", model, DeviceConfig::default())
    }

    #[test]
    fn process_emits_schema_conformant_entries() {
        let mut d = device();
        let mut rng = SmallRng::seed_from_u64(1);
        let out = d.process(&item(Weather::Snow, "quebec-dev00"), &mut rng);
        assert_eq!(out.entry.attr("weather"), Some("snow"));
        assert_eq!(out.entry.attr("location"), Some("quebec"));
        assert_eq!(out.entry.attr("device_id"), Some("quebec-dev00"));
        assert!(out.version_used.is_none(), "no versions installed yet");
    }

    #[test]
    fn installed_version_is_used_for_matching_inputs_only() {
        let mut d = device();
        let mut rng = SmallRng::seed_from_u64(2);
        // Manufacture a distinct snow patch by perturbing the base state.
        let mut donor = {
            let mut r = SmallRng::seed_from_u64(0);
            MlpResNet::new(ModelArch::tiny(8, 3), &mut r)
        };
        let x = Tensor::rand_uniform(&mut rng, &[16, 8], -1.0, 1.0);
        let _ = donor.logits(&x, nazar_nn::Mode::Train);
        let patch = BnPatch::extract(&mut donor);

        let meta = VersionMeta::new(vec![Attribute::new("weather", "snow")], 3.0);
        d.install(meta, patch);

        let snow_out = d.process(&item(Weather::Snow, "quebec-dev00"), &mut rng);
        assert!(snow_out.version_used.is_some());
        let clear_out = d.process(&item(Weather::Clear, "quebec-dev00"), &mut rng);
        assert!(clear_out.version_used.is_none());
        // Switching back must restore base behaviour exactly.
        let again = d.process(&item(Weather::Snow, "quebec-dev00"), &mut rng);
        assert_eq!(again.version_used, snow_out.version_used);
    }

    #[test]
    fn sampling_rate_is_respected() {
        let mut rng = SmallRng::seed_from_u64(3);
        let model = MlpResNet::new(ModelArch::tiny(8, 3), &mut rng);
        let mut d = Device::new(
            "x",
            "quebec",
            model,
            DeviceConfig {
                sample_rate: 0.5,
                ..DeviceConfig::default()
            },
        );
        let n = 400;
        let sampled = (0..n)
            .filter(|_| {
                d.process(&item(Weather::Clear, "x"), &mut rng)
                    .sample
                    .is_some()
            })
            .count();
        let frac = sampled as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.1, "sampled fraction {frac}");
    }

    #[test]
    fn zero_sample_rate_uploads_nothing() {
        let mut rng = SmallRng::seed_from_u64(4);
        let model = MlpResNet::new(ModelArch::tiny(8, 3), &mut rng);
        let mut d = Device::new(
            "x",
            "quebec",
            model,
            DeviceConfig {
                sample_rate: 0.0,
                ..DeviceConfig::default()
            },
        );
        for _ in 0..50 {
            assert!(d
                .process(&item(Weather::Rain, "x"), &mut rng)
                .sample
                .is_none());
        }
    }

    #[test]
    fn pool_capacity_bounds_versions() {
        let mut d = device();
        let patch = {
            let mut r = SmallRng::seed_from_u64(0);
            let mut m = MlpResNet::new(ModelArch::tiny(8, 3), &mut r);
            BnPatch::extract(&mut m)
        };
        for i in 0..20 {
            d.install(
                VersionMeta::new(vec![Attribute::new("device_id", format!("d{i}"))], 1.0),
                patch.clone(),
            );
        }
        assert!(d.num_versions() <= DeviceConfig::default().pool_capacity.unwrap());
    }
}
