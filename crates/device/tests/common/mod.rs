//! The synthetic fleet the scheduler suites share: twelve devices over
//! three locations, a tiny model, donor BN patches, and a workload whose
//! days mix the base model with four deployed versions.

// Each suite uses its own subset.
#![allow(dead_code)]

use nazar_data::{LocationStream, Severity, SimDate, StreamItem, Weather};
use nazar_log::Attribute;
use nazar_nn::{BnPatch, MlpResNet, Mode, ModelArch};
use nazar_registry::VersionMeta;
use nazar_tensor::Tensor;
use rand::rngs::SmallRng;
use rand::SeedableRng;

pub const DIM: usize = 6;
pub const CLASSES: usize = 4;
pub const LOCATIONS: usize = 3;

pub fn location_of(device: usize) -> String {
    format!("loc-{}", device % LOCATIONS)
}

pub fn device_id(device: usize) -> String {
    format!("loc-{}-dev{device:02}", device % LOCATIONS)
}

/// Deterministic features — proptest varies the stream *shape*; giving it
/// the float values too only slows case generation without adding coverage.
pub fn features(device: usize, day: u16) -> Vec<f32> {
    (0..DIM)
        .map(|j| ((device * 31 + j * 7 + day as usize * 13) % 89) as f32 / 89.0 - 0.5)
        .collect()
}

/// Builds one stream per location from raw `(device, day, label, weather)`
/// tuples.
pub fn streams_from(raw: &[(usize, u16, usize, usize)]) -> Vec<LocationStream> {
    let mut streams: Vec<LocationStream> = (0..LOCATIONS)
        .map(|l| LocationStream {
            location: format!("loc-{l}"),
            items: Vec::new(),
        })
        .collect();
    for &(d, day, label, w) in raw {
        let weather = [Weather::Clear, Weather::Rain, Weather::Snow, Weather::Fog][w % 4];
        let day = day % SimDate::TOTAL_DAYS;
        streams[d % LOCATIONS].items.push(StreamItem {
            features: features(d, day),
            label: label % CLASSES,
            date: SimDate::new(day),
            location: location_of(d),
            device_id: device_id(d),
            weather,
            true_cause: weather.corruption(),
            severity: if weather.is_drifting() {
                Severity::DEFAULT
            } else {
                Severity::NONE
            },
        });
    }
    streams
}

pub fn base_model() -> MlpResNet {
    MlpResNet::new(
        ModelArch::tiny(DIM, CLASSES),
        &mut SmallRng::seed_from_u64(11),
    )
}

pub fn donor_patch(seed: u64) -> BnPatch {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut donor = MlpResNet::new(ModelArch::tiny(DIM, CLASSES), &mut rng);
    let x = Tensor::rand_uniform(&mut rng, &[8, DIM], -1.0, 1.0);
    let _ = donor.logits(&x, Mode::Train);
    BnPatch::extract(&mut donor)
}

/// A two-day workload in which every day's arrivals select the base model
/// and four deployed versions, interleaved across the sorted device order:
/// devices 0, 4 and 8 (one per location) carry a version of their own, a
/// broadcast `weather=snow` version serves the snow inputs of every other
/// device, and clear / rain / fog inputs elsewhere fall back to the base.
/// Returns the streams and the `(cause, patch seed)` deployments.
pub fn mixed_version_world() -> (Vec<LocationStream>, Vec<(VersionMeta, u64)>) {
    let mut raw = Vec::new();
    for (day, per_device) in [(3u16, 3usize), (4, 2)] {
        for device in 0..12 {
            for k in 0..per_device {
                raw.push((device, day, device + k, device + k));
            }
        }
    }
    let mut deployments = vec![(
        VersionMeta::new(vec![Attribute::new("weather", "snow")], 1.0),
        100,
    )];
    for device in [0usize, 4, 8] {
        deployments.push((
            VersionMeta::new(vec![Attribute::new("device_id", device_id(device))], 3.0),
            101 + device as u64,
        ));
    }
    (streams_from(&raw), deployments)
}
