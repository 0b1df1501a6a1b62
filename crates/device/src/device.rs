//! The per-device half of the on-device loop: configuration, the eval
//! forward that serves both prediction and MSP, and emission.

use crate::item_attributes;
use nazar_data::{Corruption, SimDate, StreamItem};
use nazar_detect::{msp_of_row, DetectorKind, StreamDetector};
use nazar_log::{Attribute, RowBatch};
use nazar_nn::MlpResNet;
use nazar_obs::Counter;
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

static FORWARD_CALLS: Counter = Counter::new_volatile("nazar_device_forward_calls_total", &[]);
static FORWARD_ROWS: Counter = Counter::new("nazar_device_forward_rows_total", &[]);

/// One eval forward over `n` stacked feature rows (`x: [n, input_dim]`,
/// row-major), handing `each` every row's `(row index, prediction, MSP)`.
/// One pass serves both the prediction and the MSP detector — the reason
/// the paper picks this detector ("the logit scores are computed by the
/// inference anyways"). A row's result does not depend on the rows stacked
/// with it ([`MlpResNet::infer_into`]), which is what lets
/// [`crate::FleetSim`] batch a window's items and still match a device that
/// runs them one at a time bit for bit. The matmuls stay on the calling
/// thread: the fleet's parallelism is across devices, not inside a forward.
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

/// The emission half of the on-device loop: the item's drift-log row,
/// pushed as page codes onto `rows` under the device's page segment,
/// which starts at `segment` (the page borrows the item's strings, so a
/// row allocates nothing), and the sampled upload (one RNG draw per item),
/// which alone builds attribute strings. The drift verdict is the caller's
/// [`StreamDetector`]'s. `seq` is the device's entry sequence number
/// *after* incrementing for this item.
pub(crate) fn emit_outputs<'s, R: Rng + ?Sized>(
    item: &'s StreamItem,
    drift: bool,
    sample_rate: f64,
    seq: u64,
    rng: &mut R,
    rows: &mut RowBatch<&'s str>,
    segment: usize,
) -> Option<UploadedSample> {
    let sample = (rng.gen_range(0.0f64..1.0) < sample_rate).then(|| UploadedSample {
        features: item.features.clone(),
        attrs: item_attributes(item),
        date: item.date,
        label: item.label,
        true_cause: item.true_cause,
    });
    let timestamp = u64::from(item.date.day_index()) * 86_400 + seq % 86_400;
    let values = [item.weather.name(), &item.location, &item.device_id];
    rows.push_values_from(segment, timestamp, drift, &values);
    sample
}

/// The on-device loop's contract, checked on a one-device [`crate::FleetSim`].
#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FleetSim, WindowOutput};
    use nazar_data::{LocationStream, Severity, Weather};
    use nazar_nn::{BnPatch, ModelArch};
    use nazar_registry::VersionMeta;
    use nazar_tensor::Tensor;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    const ID: &str = "quebec-dev00";

    /// `n` inputs to the one device, with varied features.
    fn items(weather: Weather, n: usize) -> Vec<StreamItem> {
        let rows = Tensor::rand_uniform(&mut SmallRng::seed_from_u64(9), &[n, 8], -1.0, 1.0);
        (0..n)
            .map(|i| StreamItem {
                features: rows.row(i).expect("row").to_vec(),
                label: i % 3,
                date: SimDate::new(5),
                location: "quebec".into(),
                device_id: ID.into(),
                weather,
                true_cause: weather.corruption(),
                severity: Severity::NONE,
            })
            .collect()
    }

    fn model() -> MlpResNet {
        MlpResNet::new(ModelArch::tiny(8, 3), &mut SmallRng::seed_from_u64(0))
    }

    fn device(config: &DeviceConfig) -> FleetSim {
        FleetSim::new([(ID.to_string(), "quebec".to_string())], &model(), config)
    }

    /// Replays `items` as one window on `sim`'s device.
    fn process(sim: &mut FleetSim, items: Vec<StreamItem>, seed: u64) -> WindowOutput {
        let stream = LocationStream {
            location: "quebec".into(),
            items,
        };
        sim.process_window(&[stream], 0, 1, &mut SmallRng::seed_from_u64(seed))
    }

    #[test]
    fn process_emits_schema_conformant_entries() {
        let mut d = device(&DeviceConfig::default());
        let out = process(&mut d, items(Weather::Snow, 1), 1);
        let entry = out.entries.entry(0);
        assert_eq!(entry.attr("weather"), Some("snow"));
        assert_eq!(entry.attr("location"), Some("quebec"));
        assert_eq!(entry.attr("device_id"), Some(ID));
        assert_eq!(d.max_versions(), 0, "no versions installed yet");
    }

    /// A version is used exactly when the output differs from the same
    /// device without it.
    #[test]
    fn installed_version_is_used_for_matching_inputs_only() {
        // Manufacture a distinct snow patch by perturbing the base state.
        let mut donor = model();
        let x = Tensor::rand_uniform(&mut SmallRng::seed_from_u64(2), &[16, 8], -1.0, 1.0);
        let _ = donor.logits(&x, nazar_nn::Mode::Train);
        let meta = VersionMeta::new(vec![Attribute::new("weather", "snow")], 3.0);
        let mut with = device(&DeviceConfig::default());
        with.deploy(&meta, &BnPatch::extract(&mut donor));
        let mut without = device(&DeviceConfig::default());
        let mut run = |weather: Weather, seed: u64| {
            let a = process(&mut with, items(weather, 32), seed);
            (a, process(&mut without, items(weather, 32), seed))
        };

        let (snow, snow_base) = run(Weather::Snow, 3);
        assert_ne!(snow, snow_base, "snow inputs must use the version");
        let (clear, clear_base) = run(Weather::Clear, 4);
        assert_eq!(clear, clear_base, "clear inputs must use the base");
        // Switching back must select the version again.
        let (again, again_base) = run(Weather::Snow, 3);
        assert_eq!(again.stats, snow.stats);
        assert_ne!(again, again_base);
    }

    #[test]
    fn sampling_rate_is_respected() {
        let mut d = device(&DeviceConfig {
            sample_rate: 0.5,
            ..DeviceConfig::default()
        });
        let out = process(&mut d, items(Weather::Clear, 400), 3);
        let frac = out.uploads.len() as f64 / 400.0;
        assert!((frac - 0.5).abs() < 0.1, "sampled fraction {frac}");
    }

    #[test]
    fn zero_sample_rate_uploads_nothing() {
        let mut d = device(&DeviceConfig {
            sample_rate: 0.0,
            ..DeviceConfig::default()
        });
        let out = process(&mut d, items(Weather::Rain, 50), 4);
        assert_eq!(out.entries.len(), 50);
        assert!(out.uploads.is_empty());
    }

    #[test]
    fn pool_capacity_bounds_versions() {
        let mut d = device(&DeviceConfig::default());
        let patch = BnPatch::extract(&mut model());
        for i in 0..20 {
            let cause = vec![Attribute::new("device_id", format!("d{i}"))];
            d.install_on(ID, &VersionMeta::new(cause, 1.0), &patch);
        }
        assert!(d.max_versions() <= DeviceConfig::default().pool_capacity.unwrap());
    }
}
