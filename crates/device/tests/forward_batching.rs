//! Counted, clock-free proof that the fleet batches: a window's arrivals
//! cost one forward per selected model version and
//! [`FORWARD_ROWS_CAP`]-row piece — never one per item, nor one per day.
//!
//! The two counters are process-wide, so this suite is a test binary of
//! its own with a single test: nothing else in the process runs forwards.

mod common;

use common::{base_model, donor_patch, mixed_version_world, streams_from};
use nazar_device::{DeviceConfig, FleetSim, FORWARD_ROWS_CAP};
use nazar_obs::metrics::SnapshotValue;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn counter(name: &str) -> u64 {
    nazar_obs::registry()
        .snapshot()
        .into_iter()
        .find(|m| m.name == name)
        .map_or(0, |m| match m.value {
            SnapshotValue::Counter(v) => v,
            other => panic!("{name} is not a counter: {other:?}"),
        })
}

fn forwards() -> (u64, u64) {
    (
        counter("nazar_device_forward_calls_total"),
        counter("nazar_device_forward_rows_total"),
    )
}

#[test]
fn a_window_pass_issues_one_forward_per_version_and_piece() {
    nazar_obs::testing::enable_memory_sink();
    let model = base_model();
    let config = DeviceConfig::default();

    // Days 3 and 4 of the mixed world in one window: 36 and 24 arrivals,
    // each day over the base model and four versions.
    let (streams, deployments) = mixed_version_world();
    let groups = deployments.len() as u64 + 1;
    let mut sim = FleetSim::from_streams(&streams, &model, &config);
    for (meta, seed) in &deployments {
        sim.deploy_targeted(meta, &donor_patch(*seed));
    }
    let (calls_0, rows_0) = forwards();
    let parts =
        sim.process_window_at_with_threads(&streams, 0, 1, &mut SmallRng::seed_from_u64(5), 1);
    let (calls_1, rows_1) = forwards();
    let items: usize = parts.iter().map(|(_, p)| p.entries.len()).sum();
    assert_eq!(items, 60);
    assert_eq!(
        rows_1 - rows_0,
        60,
        "every arrival rides in exactly one forward"
    );
    assert_eq!(
        calls_1 - calls_0,
        groups,
        "one forward per selected version over both days"
    );

    // The base model alone: 12 devices x 50 arrivals is 600 rows, three
    // pieces at the row cap.
    let busy: Vec<_> = (0..600).map(|i| (i % 12, 7u16, i, 0usize)).collect();
    let streams = streams_from(&busy);
    let mut sim = FleetSim::from_streams(&streams, &model, &config);
    let (calls_0, rows_0) = forwards();
    sim.process_window_at_with_threads(&streams, 0, 1, &mut SmallRng::seed_from_u64(5), 1);
    let (calls_1, rows_1) = forwards();
    assert_eq!(rows_1 - rows_0, 600);
    assert_eq!(calls_1 - calls_0, 600u64.div_ceil(FORWARD_ROWS_CAP as u64));

    // Split over four chunks the bound is per chunk — each holds three
    // devices, 150 rows, one piece — and still far from one per item.
    let mut sim = FleetSim::from_streams(&streams, &model, &config);
    let (calls_0, _) = forwards();
    sim.process_window_at_with_threads(&streams, 0, 1, &mut SmallRng::seed_from_u64(5), 4);
    let (calls_1, _) = forwards();
    assert_eq!(calls_1 - calls_0, 4);

    nazar_obs::testing::disable();
}
