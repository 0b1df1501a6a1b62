//! [`FleetBackend`], [`SchedulerMode`] and `CloudConfig::scheduler` survive
//! only because the benchmark's staged replay (`benchmark/src/replay.rs`)
//! builds its fleet through them; the orchestrator holds a [`FleetSim`].

use nazar_data::LocationStream;
use nazar_device::{DeviceConfig, FleetSim};
use nazar_nn::MlpResNet;
use serde::{Deserialize, Serialize};

/// The fleet engine: [`FleetSim`] is the only one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SchedulerMode {
    /// The columnar virtual-time fleet ([`FleetSim`]).
    #[default]
    EventDriven,
}

/// A [`FleetSim`] under the name the benchmark's replay builds it by.
#[derive(Debug)]
pub struct FleetBackend(FleetSim);

impl FleetBackend {
    /// Builds the fleet over the devices in `streams`.
    pub fn from_streams(
        _: SchedulerMode,
        streams: &[LocationStream],
        base_model: &MlpResNet,
        config: &DeviceConfig,
    ) -> Self {
        FleetBackend(FleetSim::from_streams(streams, base_model, config))
    }
}

impl std::ops::Deref for FleetBackend {
    type Target = FleetSim;
    fn deref(&self) -> &FleetSim {
        &self.0
    }
}

impl std::ops::DerefMut for FleetBackend {
    fn deref_mut(&mut self) -> &mut FleetSim {
        &mut self.0
    }
}
