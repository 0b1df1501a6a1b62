//! A window's rows cost no allocation of their own from device to drift
//! log, and a device costs at most three: emitting a row, framing it,
//! parsing the frame and ingesting its rows reuse buffers kept from window
//! to window, so a warm window allocates per frame and per window, not per
//! row and hardly per device.
//!
//! This test binary installs the counting global allocator of
//! `tests/support/counting_alloc.rs`, which counts every allocation and
//! reallocation on the thread that asked for it. One window — the fleet's
//! pass on one worker, the upload phase over a perfect link, and ingest
//! into the drift log — runs once to warm every buffer that outlives it,
//! then once counted, at one and at 32 rows per device. The 31 extra rows
//! a device may cost only what growing a vector costs (a doubling now and
//! then), never an allocation per row.

use nazar_data::{LocationStream, Severity, SimDate, StreamItem, Weather};
use nazar_device::{DeviceConfig, FleetSim, LOG_SCHEMA};
use nazar_log::DriftLog;
use nazar_net::{Exchange, FrameDelivery, NetConfig};
use nazar_nn::{MlpResNet, ModelArch};
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

const DEVICES: usize = 8;

/// Windows a count runs: a cumulative log's columns double now and then,
/// so one window alone would read that growth whole or not at all.
const WINDOWS: usize = 8;

/// The allocations of [`WINDOWS`] warm windows with `rows` items on each
/// device.
fn window_allocations(rows: usize) -> usize {
    let id = |d: usize| format!("quebec-dev{d:02}");
    let items = (0..DEVICES * rows)
        .map(|i| StreamItem {
            features: vec![(i % 7) as f32 * 0.25; 8],
            label: i % 3,
            date: SimDate::new(0),
            location: "quebec".to_string(),
            device_id: id(i % DEVICES),
            weather: Weather::Snow,
            true_cause: Weather::Snow.corruption(),
            severity: Severity::DEFAULT,
        })
        .collect();
    let streams = [LocationStream {
        location: "quebec".to_string(),
        items,
    }];
    let model = MlpResNet::new(ModelArch::tiny(8, 3), &mut SmallRng::seed_from_u64(0));
    let config = DeviceConfig {
        sample_rate: 0.0,
        ..DeviceConfig::default()
    };
    let mut fleet = FleetSim::from_streams(&streams, &model, &config);
    let mut exchange = Exchange::new(fleet.device_ids(), NetConfig::default());
    let mut log = DriftLog::new(&LOG_SCHEMA);
    let mut delivery = FrameDelivery::default();
    let mut rng = SmallRng::seed_from_u64(1);
    // The orchestrator's window: the device pass, the upload phase into a
    // reused delivery, the parts handed back, the ingest.
    let mut window = || {
        let parts = fleet.run_window_with_threads(&streams, 0, 1, &mut rng, 1);
        let batches = (parts.iter()).map(|p| (p.device(), p.batch(), p.rows(), p.uploads()));
        exchange.upload_window_into(batches, &mut delivery);
        fleet.recycle(parts);
        delivery.ingest_into(&mut log)
    };
    assert_eq!(window().appended, DEVICES * rows, "the warm-up window");
    let mut appended = 0;
    let counted = counting_alloc::count([0, 0], || {
        for _ in 0..WINDOWS {
            appended += window().appended;
        }
    });
    assert_eq!(appended, WINDOWS * DEVICES * rows);
    counted.all
}

#[test]
fn rows_allocate_nothing_of_their_own_from_device_to_log() {
    let one = window_allocations(1);
    let many = window_allocations(32);
    let extra_rows = WINDOWS * DEVICES * 31;
    // Growing the window's shared vectors (the arrivals' buffers, the
    // forward's rows, the log's columns) doubles each a handful of times.
    let growth = many.saturating_sub(one);
    assert!(
        growth <= WINDOWS * 64,
        "{extra_rows} more rows cost {growth} more allocations ({one} at one row a device, \
         {many} at 32)"
    );
}

/// Each device window costs at most two allocations, window-wide ones
/// included: a warm one-row window of eight devices makes one frame a
/// device (the shared copy of its bytes), one acknowledgement frame, the
/// worker-chunk list of the device pass, and now and then a doubling of
/// one of the log's columns (100 for the 64 device windows; the event
/// queue keeps its buffers from phase to phase, and the forward's
/// workspace finds each buffer it asks for).
#[test]
fn a_device_window_costs_at_most_two_allocations() {
    let one = window_allocations(1);
    let device_windows = WINDOWS * DEVICES;
    assert!(
        one <= 2 * device_windows,
        "{device_windows} one-row device windows cost {one} allocations"
    );
}
