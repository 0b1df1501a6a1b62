//! Property tests for the columnar fleet's determinism contract: for any
//! randomized stream shape and seed, the fleet output and the virtual
//! clock are identical at every worker count, and `FleetSim` reproduces
//! the lockstep oracle (`oracle/mod.rs`) bit-for-bit.
//!
//! The unit tests in `src/scheduler.rs` pin the clock on one fixed
//! dataset; here proptest varies the device set, arrival days, labels and
//! weather mix, the RNG seed, the worker count, and which deployment lands
//! between windows.

mod common;
mod oracle;

use common::{base_model, donor_patch, mixed_version_world, streams_from, CLASSES, DIM};
use nazar_data::{AnimalsConfig, AnimalsDataset, SimDate};
use nazar_device::{DeviceConfig, FleetSim};
use nazar_log::Attribute;
use nazar_registry::VersionMeta;
use oracle::Oracle;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const WINDOWS: usize = 2;

/// Arrivals per drawn tuple in the engine differential, on consecutive
/// days: a device's run of items crosses the window boundary (its sequence
/// numbers and the deployment between the windows land mid-run), and seven
/// tuples in a window push one version's stacked forward past
/// `FORWARD_ROWS_CAP` into a second piece.
const BURST: usize = 40;

/// The core contract on a generated dataset: the columnar fleet
/// reproduces the oracle bit-for-bit across windows and deployments.
#[test]
fn event_fleet_matches_lockstep_across_windows_and_deploys() {
    let data = AnimalsDataset::generate(&AnimalsConfig {
        dim: DIM,
        classes: CLASSES,
        devices_per_location: 2,
        arrivals_per_day: 0.5,
        ..AnimalsConfig::small()
    });
    let (model, config) = (base_model(), DeviceConfig::default());
    let mut lockstep = Oracle::from_streams(&data.streams, &model, &config);
    let mut event = FleetSim::from_streams(&data.streams, &model, &config);
    assert_eq!(lockstep.device_ids(), event.device_ids());

    let windows = 4;
    let mut rng_a = SmallRng::seed_from_u64(42);
    let mut rng_b = SmallRng::seed_from_u64(42);
    for w in 0..windows {
        let a = lockstep.process_window_parts(&data.streams, w, windows, &mut rng_a);
        let b = event.process_window_parts(&data.streams, w, windows, &mut rng_b);
        assert_eq!(a, b, "window {w}: per-device outputs");
        assert_eq!(lockstep.clock_us(), event.clock_us(), "window {w}: clock");
        // Interleave deployments exactly as the orchestrator does:
        // broadcast one window, target the next.
        let patch = donor_patch(w as u64);
        let mut cause = vec![Attribute::new("weather", "snow")];
        if w % 2 == 0 {
            let meta = VersionMeta::new(cause, 2.0 + w as f64);
            lockstep.deploy(&meta, &patch);
            event.deploy(&meta, &patch);
        } else {
            cause.push(Attribute::new("location", data.streams[0].location.clone()));
            let meta = VersionMeta::new(cause, 1.0 + w as f64);
            let installed = lockstep.deploy_targeted(&meta, &patch);
            assert_eq!(
                installed,
                event.deploy_targeted(&meta, &patch),
                "window {w}"
            );
        }
        assert_eq!(lockstep.max_versions(), event.max_versions(), "window {w}");
    }
}

/// The fleet reads each window's arrivals through an index it builds once
/// and reuses while the same item buffers come back. Streams out of date
/// order, released window buffers, an item handed to another device in
/// place between windows, a fresh copy of the streams and another window
/// count must each read as the oracle, which scans the streams every
/// window, reads them.
#[test]
fn edited_and_replaced_streams_match_lockstep() {
    let data = AnimalsDataset::generate(&AnimalsConfig {
        dim: DIM,
        classes: CLASSES,
        devices_per_location: 2,
        arrivals_per_day: 0.5,
        ..AnimalsConfig::small()
    });
    // Newest first: a stream does not promise date order.
    let mut streams = data.streams.clone();
    for stream in &mut streams {
        stream.items.reverse();
    }
    let (model, config) = (base_model(), DeviceConfig::default());
    let mut lockstep = Oracle::from_streams(&streams, &model, &config);
    let mut event = FleetSim::from_streams(&streams, &model, &config);
    let ids = event.device_ids();
    let (mut rng_a, mut rng_b) = (SmallRng::seed_from_u64(8), SmallRng::seed_from_u64(8));
    let windows = 4;
    for w in 0..windows {
        if w == 1 {
            event.release_window_buffers();
        }
        if w == 2 {
            // In place: an item of this window moves to another device,
            // and one of the next window's moves into this one.
            let stream = &mut streams[0];
            let here = (stream.items.iter()).position(|i| i.date.window(windows) == 2);
            let next = (stream.items.iter()).position(|i| i.date.window(windows) == 3);
            let (here, next) = (here.expect("an item in window 2"), next.expect("one in 3"));
            let other = ids.iter().find(|id| **id != stream.items[here].device_id);
            stream.items[here].device_id = other.expect("two devices").clone();
            stream.items[next].date = stream.items[here].date;
        }
        if w == 3 {
            streams = streams.clone();
        }
        let a = lockstep.process_window_parts(&streams, w, windows, &mut rng_a);
        let b = event.process_window_parts(&streams, w, windows, &mut rng_b);
        assert_eq!(a, b, "window {w}: per-device outputs");
        assert_eq!(lockstep.clock_us(), event.clock_us(), "window {w}: clock");
    }
    let a = lockstep.process_window_parts(&streams, 1, 2, &mut rng_a);
    let b = event.process_window_parts(&streams, 1, 2, &mut rng_b);
    assert_eq!(a, b, "window 1 of 2: per-device outputs");
}

/// Each day of the window mixes the base and four versions; whatever the
/// chunk count, the batched pass must hand back the oracle's window byte
/// for byte.
#[test]
fn mixed_versions_in_one_day_match_lockstep_at_every_chunk_count() {
    let (streams, deployments) = mixed_version_world();
    let model = base_model();
    let config = DeviceConfig::default();

    let mut lockstep = Oracle::from_streams(&streams, &model, &config);
    for (meta, seed) in &deployments {
        lockstep.deploy_targeted(meta, &donor_patch(*seed));
    }
    let expected = lockstep.process_window_parts(&streams, 0, 1, &mut SmallRng::seed_from_u64(5));
    assert_eq!(expected.len(), 12, "every device takes part");
    let entries: usize = expected.iter().map(|(_, p)| p.entries.len()).sum();
    assert_eq!(entries, 12 * 5);

    for chunks in [1usize, 2, 4] {
        let mut event = FleetSim::from_streams(&streams, &model, &config);
        for (meta, seed) in &deployments {
            event.deploy_targeted(meta, &donor_patch(*seed));
        }
        assert_eq!(event.arena_versions(), deployments.len());
        let got: Vec<_> = event
            .process_window_at_with_threads(&streams, 0, 1, &mut SmallRng::seed_from_u64(5), chunks)
            .into_iter()
            .map(|(d, part)| (event.device_id(d as usize).to_string(), part))
            .collect();
        assert_eq!(got, expected, "{chunks} chunk(s)");
        assert_eq!(
            format!("{got:?}"),
            format!("{expected:?}"),
            "{chunks} chunk(s)"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Same seed ⇒ identical fleet output — every device's items in its
    /// own arrival order — *and* identical virtual clock at 1 worker vs N
    /// workers, across both windows and an optional mid-run broadcast
    /// deployment.
    #[test]
    fn event_order_and_output_are_thread_invariant(
        seed in 0u64..1_000_000,
        threads in 2usize..=8,
        raw in proptest::collection::vec(
            (0usize..12, 0u16..SimDate::TOTAL_DAYS, 0usize..CLASSES, 0usize..4),
            1..40,
        ),
        do_deploy in any::<bool>(),
    ) {
        let streams = streams_from(&raw);
        let model = base_model();
        let config = DeviceConfig::default();
        let run = |workers: usize| {
            let mut sim = FleetSim::from_streams(&streams, &model, &config);
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut all = Vec::new();
            for w in 0..WINDOWS {
                all.push(sim.process_window_at_with_threads(
                    &streams, w, WINDOWS, &mut rng, workers,
                ));
                if do_deploy && w == 0 {
                    let meta =
                        VersionMeta::new(vec![Attribute::new("weather", "snow")], 2.0);
                    sim.deploy(&meta, &donor_patch(seed));
                }
            }
            (all, sim.clock_us())
        };
        let (parts_1, clock_1) = run(1);
        let (parts_n, clock_n) = run(threads);
        prop_assert_eq!(parts_1, parts_n);
        prop_assert_eq!(clock_1, clock_n);
    }

    /// `FleetSim` reproduces the oracle bit-for-bit — parts, clock and
    /// stored versions — on any randomized stream shape, with no
    /// deployment, a broadcast one, or one `(meta, patch)` installed device
    /// by device on a drawn subset of devices (the transport's delivery
    /// shape, which reuses one interned arena version).
    #[test]
    fn event_engine_matches_lockstep_engine(
        seed in 0u64..1_000_000,
        raw in proptest::collection::vec(
            (0usize..10, 0u16..SimDate::TOTAL_DAYS, 0usize..CLASSES, 0usize..4),
            1..30,
        ),
        deploy in 0usize..3,
        subset in 0u32..1 << 10,
    ) {
        let raw: Vec<_> = raw
            .iter()
            .flat_map(|&(d, day, label, w)| (0..BURST).map(move |k| (d, day + k as u16, label, w)))
            .collect();
        let streams = streams_from(&raw);
        let model = base_model();
        let config = DeviceConfig::default();
        let mut lockstep = Oracle::from_streams(&streams, &model, &config);
        let mut event = FleetSim::from_streams(&streams, &model, &config);
        let ids = event.device_ids();
        prop_assert_eq!(lockstep.device_ids(), ids.clone());

        let mut rng_a = SmallRng::seed_from_u64(seed);
        let mut rng_b = SmallRng::seed_from_u64(seed);
        for w in 0..WINDOWS {
            let a = lockstep.process_window_parts(&streams, w, WINDOWS, &mut rng_a);
            let b = event.process_window_parts(&streams, w, WINDOWS, &mut rng_b);
            prop_assert_eq!(a, b);
            prop_assert_eq!(lockstep.clock_us(), event.clock_us());
            if w == 0 {
                let patch = donor_patch(seed ^ 1);
                let meta = VersionMeta::new(vec![Attribute::new("weather", "fog")], 1.5);
                match deploy {
                    1 => {
                        lockstep.deploy(&meta, &patch);
                        event.deploy(&meta, &patch);
                    }
                    2 => {
                        let drawn = ids.iter().enumerate().filter(|(d, _)| subset & (1 << d) != 0);
                        for (_, id) in drawn {
                            prop_assert!(lockstep.install_on(id, &meta, &patch));
                            prop_assert!(event.install_on(id, &meta, &patch));
                        }
                    }
                    _ => {}
                }
            }
        }
        prop_assert_eq!(lockstep.max_versions(), event.max_versions());
    }
}
