//! Fleet engine selection: the columnar fleet vs legacy lockstep.
//!
//! The orchestrator drives its fleet through this thin dispatch layer so
//! the two simulation engines stay interchangeable:
//!
//! * [`SchedulerMode::EventDriven`] (the default) runs
//!   [`nazar_device::FleetSim`] — one batched pass per window over
//!   struct-of-arrays device state and registry-pooled model versions,
//!   with a clock on the exchange's virtual timeline, built to hold 1M+
//!   devices in memory (`fleet_million` bench). The variant keeps the name
//!   of the event queue `FleetSim` replayed windows through until ISSUE 19.
//! * [`SchedulerMode::Lockstep`] keeps the original
//!   [`nazar_device::Fleet`] of whole `Device` structs, each window
//!   replayed as one parallel sweep.
//!
//! The two produce bitwise-identical windows (pinned by the golden trace in
//! both modes and by `FleetBackend`'s own differential test), so the flag
//! is purely an engine choice, not a semantics choice.

use nazar_data::LocationStream;
use nazar_device::{DeviceConfig, Fleet, FleetSim, WindowOutput};
use nazar_nn::{BnPatch, MlpResNet};
use nazar_registry::VersionMeta;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Which fleet engine the orchestrator runs (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SchedulerMode {
    /// The columnar virtual-time fleet ([`FleetSim`]).
    #[default]
    EventDriven,
    /// Legacy lockstep window sweep ([`Fleet`]).
    Lockstep,
}

/// The fleet behind the orchestrator: one of the two engines, same API.
#[derive(Debug)]
pub enum FleetBackend {
    /// Legacy lockstep engine.
    Lockstep(Fleet),
    /// The columnar virtual-time engine.
    Event(Box<FleetSim>),
}

impl FleetBackend {
    /// Builds the engine `mode` selects over the devices in `streams`.
    pub fn from_streams(
        mode: SchedulerMode,
        streams: &[LocationStream],
        base_model: &MlpResNet,
        config: &DeviceConfig,
    ) -> Self {
        match mode {
            SchedulerMode::Lockstep => {
                FleetBackend::Lockstep(Fleet::from_streams(streams, base_model, config))
            }
            SchedulerMode::EventDriven => FleetBackend::Event(Box::new(FleetSim::from_streams(
                streams, base_model, config,
            ))),
        }
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        match self {
            FleetBackend::Lockstep(f) => f.len(),
            FleetBackend::Event(f) => f.len(),
        }
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of model versions stored on any device.
    pub fn max_versions(&self) -> usize {
        match self {
            FleetBackend::Lockstep(f) => f.max_versions(),
            FleetBackend::Event(f) => f.max_versions(),
        }
    }

    /// All device ids, sorted.
    pub fn device_ids(&self) -> Vec<String> {
        match self {
            FleetBackend::Lockstep(f) => f.device_ids(),
            FleetBackend::Event(f) => f.device_ids(),
        }
    }

    /// Pushes a model version to every device.
    pub fn deploy(&mut self, meta: &VersionMeta, patch: &BnPatch) {
        match self {
            FleetBackend::Lockstep(f) => f.deploy(meta, patch),
            FleetBackend::Event(f) => f.deploy(meta, patch),
        }
    }

    /// Installs a model version on one device; `false` for unknown ids.
    pub fn install_on(&mut self, device_id: &str, meta: &VersionMeta, patch: &BnPatch) -> bool {
        match self {
            FleetBackend::Lockstep(f) => f.install_on(device_id, meta, patch),
            FleetBackend::Event(f) => f.install_on(device_id, meta, patch),
        }
    }

    /// The devices a version's cause can ever match, sorted by id.
    pub fn target_ids(&self, meta: &VersionMeta) -> Vec<String> {
        match self {
            FleetBackend::Lockstep(f) => f.target_ids(meta),
            FleetBackend::Event(f) => f.target_ids(meta),
        }
    }

    /// Pushes a model version to [`FleetBackend::target_ids`] only;
    /// returns how many devices received it.
    pub fn deploy_targeted(&mut self, meta: &VersionMeta, patch: &BnPatch) -> usize {
        match self {
            FleetBackend::Lockstep(f) => f.deploy_targeted(meta, patch),
            FleetBackend::Event(f) => f.deploy_targeted(meta, patch),
        }
    }

    /// Replays window `w` of `windows`, merged across devices.
    pub fn process_window<R: Rng + ?Sized>(
        &mut self,
        streams: &[LocationStream],
        w: usize,
        windows: usize,
        rng: &mut R,
    ) -> WindowOutput {
        match self {
            FleetBackend::Lockstep(f) => f.process_window(streams, w, windows, rng),
            FleetBackend::Event(f) => f.process_window(streams, w, windows, rng),
        }
    }

    /// Replays window `w` of `windows`, per participating device (sorted).
    pub fn process_window_parts<R: Rng + ?Sized>(
        &mut self,
        streams: &[LocationStream],
        w: usize,
        windows: usize,
        rng: &mut R,
    ) -> Vec<(String, WindowOutput)> {
        match self {
            FleetBackend::Lockstep(f) => f.process_window_parts(streams, w, windows, rng),
            FleetBackend::Event(f) => f.process_window_parts(streams, w, windows, rng),
        }
    }

    /// The fleet's virtual time, µs (always 0 for the lockstep engine,
    /// which has no clock).
    pub fn clock_us(&self) -> u64 {
        match self {
            FleetBackend::Lockstep(_) => 0,
            FleetBackend::Event(f) => f.clock_us(),
        }
    }

    /// Advances the fleet's virtual clock to `t_us` (no-op for lockstep) —
    /// how the orchestrator keeps fleet and transport on one timeline after
    /// the exchange's delivery events have moved its own clock.
    pub fn advance_clock_to(&mut self, t_us: u64) {
        if let FleetBackend::Event(f) = self {
            f.advance_clock_to(t_us);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nazar_data::{AnimalsConfig, AnimalsDataset};
    use nazar_log::Attribute;
    use nazar_nn::ModelArch;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn backends_agree_window_for_window() {
        let cfg = AnimalsConfig {
            devices_per_location: 2,
            arrivals_per_day: 0.5,
            ..AnimalsConfig::small()
        };
        let data = AnimalsDataset::generate(&cfg);
        let model = MlpResNet::new(
            ModelArch::tiny(cfg.dim, cfg.classes),
            &mut SmallRng::seed_from_u64(3),
        );
        let config = DeviceConfig::default();
        let mut lockstep =
            FleetBackend::from_streams(SchedulerMode::Lockstep, &data.streams, &model, &config);
        let mut event =
            FleetBackend::from_streams(SchedulerMode::EventDriven, &data.streams, &model, &config);
        assert_eq!(lockstep.device_ids(), event.device_ids());
        let windows = 3;
        for w in 0..windows {
            let mut rng_a = SmallRng::seed_from_u64(w as u64);
            let mut rng_b = SmallRng::seed_from_u64(w as u64);
            let a = lockstep.process_window_parts(&data.streams, w, windows, &mut rng_a);
            let b = event.process_window_parts(&data.streams, w, windows, &mut rng_b);
            assert_eq!(a, b, "window {w}");
            // Interleave a broadcast deploy through the common API.
            let meta = VersionMeta::new(vec![Attribute::new("weather", "snow")], 2.0);
            let patch = {
                let mut m = model.clone();
                nazar_nn::BnPatch::extract(&mut m)
            };
            lockstep.deploy(&meta, &patch);
            event.deploy(&meta, &patch);
            assert_eq!(lockstep.max_versions(), event.max_versions());
        }
        assert_eq!(event.clock_us() % nazar_device::DAY_US, 0);
        assert_eq!(lockstep.clock_us(), 0);
    }
}
