//! A window's rows cost no allocation of their own from device to drift
//! log: emitting a row, framing it, parsing the frame and ingesting its
//! rows allocate per device and per frame, not per row.
//!
//! This test binary installs a counting global allocator that counts, on
//! the thread that asked for it only, every allocation and reallocation.
//! One window — the fleet's pass on one worker, the upload phase over a
//! perfect link, and ingest into the drift log — runs once to warm every
//! buffer that outlives it, then once counted, at one and at 32 rows per
//! device. The 31 extra rows a device may cost only what growing a
//! vector costs (a doubling now and then), never an allocation per row.

use nazar_data::{LocationStream, Severity, SimDate, StreamItem, Weather};
use nazar_device::{DeviceConfig, FleetSim, LOG_SCHEMA};
use nazar_log::DriftLog;
use nazar_net::{Exchange, NetConfig};
use nazar_nn::{MlpResNet, ModelArch};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations on this thread since counting began, if it has.
    static ALLOCS: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note() {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down, when there is nothing left to count into.
    let _ = ALLOCS.try_with(|cell| {
        if let Some(n) = cell.get() {
            cell.set(Some(n + 1));
        }
    });
}

struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counting touches only a `Cell` in a const-initialised thread-local,
// which allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> usize {
    ALLOCS.with(|cell| cell.set(Some(0)));
    f();
    ALLOCS
        .with(|cell| cell.replace(None))
        .expect("counting was on")
}

const DEVICES: usize = 8;

/// The allocations of one warm window with `rows` items on each device.
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
    let mut rng = SmallRng::seed_from_u64(1);
    let mut window = || {
        let parts = fleet.process_window_at_with_threads(&streams, 0, 1, &mut rng, 1);
        let batches = parts
            .into_iter()
            .map(|(d, part)| (d, part.entries, part.uploads))
            .collect();
        let delivery = exchange.upload_window_at(batches);
        delivery.ingest_into(&mut log)
    };
    assert_eq!(window().appended, DEVICES * rows, "the warm-up window");
    let mut appended = 0;
    let counted = allocations(|| appended = window().appended);
    assert_eq!(appended, DEVICES * rows);
    counted
}

#[test]
fn rows_allocate_nothing_of_their_own_from_device_to_log() {
    let one = window_allocations(1);
    let many = window_allocations(32);
    let extra_rows = DEVICES * 31;
    // Growing the window's shared vectors (the arrivals, the forward's
    // rows, the log's columns) doubles each a handful of times.
    let growth = many.saturating_sub(one);
    assert!(
        growth <= 64,
        "{extra_rows} more rows cost {growth} more allocations ({one} at one row a device, \
         {many} at 32)"
    );
}
