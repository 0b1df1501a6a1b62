//! The simulated mobile-device fleet (DESIGN.md substitution S9).
//!
//! Every device runs the on-device half of Nazar for every inference
//! request it receives:
//!
//! 1. **select** the stored model version whose attributes best match the
//!    input's metadata (the pool semantics of
//!    [`nazar_registry::ModelPool`]), falling back to the base model;
//! 2. **infer** with the selected model;
//! 3. **detect** drift with the lightweight MSP threshold on the inference
//!    output;
//! 4. **emit** a drift-log row with the detection verdict and metadata
//!    (weather, location, device id) onto its worker's window
//!    [`nazar_log::RowBatch`], as codes into the device's segment of its
//!    string page, and
//! 5. **sample** a configurable fraction of raw inputs for upload to the
//!    cloud (the data by-cause adaptation trains on).
//!
//! One engine runs that loop: [`FleetSim`] replays pre-generated
//! [`nazar_data::StreamItem`]s through every device over columnar state
//! and aggregates accuracy statistics per window — the measurement loop
//! behind every end-to-end figure (Fig. 8 / 9). Its bitwise reference is a
//! per-item lockstep oracle in test support (`tests/oracle/mod.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod device;
mod fleet;
mod scheduler;
mod state;

pub use device::{DeviceConfig, UploadedSample};
pub use fleet::{DevicePart, WindowOutput, WindowParts, WindowStats};
pub use scheduler::{peak_rss_bytes, FleetSim, DAY_US, FORWARD_ROWS_CAP};

use nazar_data::StreamItem;
use nazar_log::Attribute;
use nazar_registry::VersionMeta;

/// The drift-log schema every device reports under.
pub const LOG_SCHEMA: [&str; 3] = ["weather", "location", "device_id"];

/// Builds the metadata attributes of a stream item, in schema order.
pub fn item_attributes(item: &StreamItem) -> Vec<Attribute> {
    vec![
        Attribute::new("weather", item.weather.name()),
        Attribute::new("location", item.location.clone()),
        Attribute::new("device_id", item.device_id.clone()),
    ]
}

/// `meta.matches(&item_attributes(item))` without building the attributes:
/// version selection runs once per inference request and only compares.
pub(crate) fn item_matches(meta: &VersionMeta, item: &StreamItem) -> bool {
    meta.attrs.iter().all(|a| {
        let value = match a.key.as_str() {
            "weather" => item.weather.name(),
            "location" => item.location.as_str(),
            "device_id" => item.device_id.as_str(),
            _ => return false,
        };
        a.value == value
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nazar_data::{Severity, SimDate, Weather};

    fn snow_item() -> StreamItem {
        StreamItem {
            features: vec![0.0],
            label: 0,
            date: SimDate::new(0),
            location: "quebec".into(),
            device_id: "quebec-dev01".into(),
            weather: Weather::Snow,
            true_cause: None,
            severity: Severity::NONE,
        }
    }

    #[test]
    fn item_matches_is_meta_matches_on_the_item_attributes() {
        let item = snow_item();
        let attrs = item_attributes(&item);
        let pairs = [
            ("weather", "snow"),
            ("weather", "fog"),
            ("location", "quebec"),
            ("location", "snow"),
            ("device_id", "quebec-dev01"),
            ("device_id", "quebec"),
            ("altitude", "snow"),
        ];
        // Every subset of the probe pairs, the empty (clean) cause included.
        for mask in 0u32..1 << pairs.len() {
            let cause = pairs
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, (k, v))| Attribute::new(*k, *v))
                .collect();
            let meta = VersionMeta::new(cause, 1.0);
            assert_eq!(item_matches(&meta, &item), meta.matches(&attrs), "{meta:?}");
        }
    }

    #[test]
    fn item_attributes_follow_schema_order() {
        let item = snow_item();
        let attrs = item_attributes(&item);
        let keys: Vec<&str> = attrs.iter().map(|a| a.key.as_str()).collect();
        assert_eq!(keys, LOG_SCHEMA);
        assert_eq!(attrs[0].value, "snow");
    }
}
