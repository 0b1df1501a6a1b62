//! The lockstep reference the fleet suites compare `FleetSim` against: the
//! on-device loop one item at a time, one device after another, with a
//! payload-owning `ModelPool` per device. It is built only from public
//! APIs (a batch-1 `MlpResNet::infer_into_with`, `kernels::argmax`,
//! `msp_of_row`, `StreamDetector`, `ModelPool`, `BnPatch`,
//! `item_attributes`) and shares no code with the fleet: no columns, no
//! arena, no batching, and its own emission, tally and clock.

use nazar_data::{LocationStream, SimDate, StreamItem};
use nazar_detect::{msp_of_row, DetectorKind, StreamDetector};
use nazar_device::{item_attributes, DeviceConfig, UploadedSample, WindowOutput, DAY_US};
use nazar_log::DriftLogEntry;
use nazar_nn::{BnPatch, MlpResNet};
use nazar_registry::{ModelPool, VersionMeta};
use nazar_tensor::{kernels, simd, Workspace};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::BTreeMap;

/// Virtual microseconds between consecutive arrivals on one device.
const ITEM_SPACING_US: u64 = 2;

struct Device {
    location: String,
    pool: ModelPool<BnPatch>,
    seq: u64,
}

pub struct Oracle {
    devices: BTreeMap<String, Device>,
    /// Patched before every item with the selected version or the base.
    model: MlpResNet,
    base_patch: BnPatch,
    detector: StreamDetector,
    sample_rate: f64,
    clock_us: u64,
}

impl Oracle {
    /// One device per distinct id in `streams`, at its first location.
    pub fn from_streams(
        streams: &[LocationStream],
        base: &MlpResNet,
        config: &DeviceConfig,
    ) -> Self {
        let mut devices = BTreeMap::new();
        for item in streams.iter().flat_map(|s| &s.items) {
            devices
                .entry(item.device_id.clone())
                .or_insert_with(|| Device {
                    location: item.location.clone(),
                    pool: ModelPool::new(config.pool_capacity),
                    seq: 0,
                });
        }
        let mut model = base.clone();
        Oracle {
            devices,
            base_patch: BnPatch::extract(&mut model),
            model,
            detector: StreamDetector::new(DetectorKind::Msp, config.detection_threshold),
            sample_rate: config.sample_rate,
            clock_us: 0,
        }
    }

    pub fn device_ids(&self) -> Vec<String> {
        self.devices.keys().cloned().collect()
    }

    pub fn max_versions(&self) -> usize {
        self.devices
            .values()
            .map(|d| d.pool.len())
            .max()
            .unwrap_or(0)
    }

    pub fn clock_us(&self) -> u64 {
        self.clock_us
    }

    pub fn deploy(&mut self, meta: &VersionMeta, patch: &BnPatch) {
        for id in self.device_ids() {
            self.install_on(&id, meta, patch);
        }
    }

    pub fn install_on(&mut self, id: &str, meta: &VersionMeta, patch: &BnPatch) -> bool {
        let Some(device) = self.devices.get_mut(id) else {
            return false;
        };
        device.pool.deploy(meta.clone(), patch.clone());
        true
    }

    /// Installs on every device a cause naming a `location` or `device_id`
    /// can match; returns how many.
    pub fn deploy_targeted(&mut self, meta: &VersionMeta, patch: &BnPatch) -> usize {
        let scoped = |key: &str| meta.attrs.iter().find(|a| a.key == key).map(|a| &a.value);
        let mut installed = 0;
        for (id, device) in &mut self.devices {
            if scoped("location").is_none_or(|l| *l == device.location)
                && scoped("device_id").is_none_or(|d| d == id)
            {
                device.pool.deploy(meta.clone(), patch.clone());
                installed += 1;
            }
        }
        installed
    }

    /// Window `w` of `windows`, per participating device in id order.
    pub fn process_window_parts(
        &mut self,
        streams: &[LocationStream],
        w: usize,
        windows: usize,
        rng: &mut SmallRng,
    ) -> Vec<(String, WindowOutput)> {
        let mut per_device: BTreeMap<&str, Vec<&StreamItem>> = BTreeMap::new();
        for item in streams.iter().flat_map(|s| s.window_items(w, windows)) {
            per_device.entry(&item.device_id).or_default().push(item);
        }
        let start_us = self.clock_us;
        let mut last_at = start_us;
        let mut parts = Vec::new();
        let mut ws = Workspace::new();
        for (id, items) in per_device {
            let Some(device) = self.devices.get_mut(id) else {
                continue;
            };
            let mut device_rng = SmallRng::seed_from_u64(rng.next_u64());
            let mut part = WindowOutput::default();
            let mut next_free = start_us;
            for (k, item) in items.into_iter().enumerate() {
                let nominal =
                    u64::from(item.date.day_index()) * DAY_US + ITEM_SPACING_US * k as u64;
                let at = nominal.max(next_free);
                next_free = at + ITEM_SPACING_US;
                last_at = last_at.max(at);

                let attrs = item_attributes(item);
                let patch = device
                    .pool
                    .select(&attrs)
                    .map_or(&self.base_patch, |v| &v.payload);
                patch
                    .apply(&mut self.model)
                    .expect("patches fit the base model");
                let mut logits = vec![0.0; self.model.arch().num_classes];
                self.model.infer_into_with(
                    &item.features,
                    1,
                    &mut logits,
                    &mut ws,
                    1,
                    simd::env_tier(),
                );
                let correct = kernels::argmax(&logits) == item.label;
                device.seq += 1;
                let drift = self.detector.observe(msp_of_row(&logits));

                let sample = (device_rng.gen_range(0.0f64..1.0) < self.sample_rate).then(|| {
                    UploadedSample {
                        features: item.features.clone(),
                        attrs: attrs.clone(),
                        date: item.date,
                        label: item.label,
                        true_cause: item.true_cause,
                    }
                });
                part.entries.push(DriftLogEntry {
                    timestamp: u64::from(item.date.day_index()) * 86_400 + device.seq % 86_400,
                    attrs,
                    drift,
                });
                part.uploads.extend(sample);

                let stats = &mut part.stats;
                stats.total += 1;
                stats.correct += usize::from(correct);
                stats.flagged += usize::from(drift);
                stats.false_positives += usize::from(drift && item.true_cause.is_none());
                stats.misses += usize::from(!drift && item.true_cause.is_some());
                if let Some(cause) = item.true_cause {
                    stats.drifted_total += 1;
                    stats.drifted_correct += usize::from(correct);
                    let tally = stats.per_cause.entry(cause.name().to_string()).or_default();
                    tally.0 += usize::from(correct);
                    tally.1 += 1;
                }
            }
            parts.push((id.to_string(), part));
        }
        let (_, end_day) = SimDate::window_range(w, windows);
        self.clock_us = (u64::from(end_day) * DAY_US).max(last_at + ITEM_SPACING_US);
        parts
    }
}
