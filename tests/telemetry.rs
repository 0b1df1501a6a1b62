//! Virtual-time telemetry invariants: the time-series pipeline layered on
//! top of `nazar-obs` must be deterministic, delta-consistent, and free
//! when observability is off.
//!
//! Three guarantees are asserted here:
//!
//! 1. the series a fleet run records is **bitwise identical** across worker
//!    thread counts — snapshots are stamped with virtual time and volatile
//!    (thread-dependent) metric families are excluded;
//! 2. each snapshot's counter deltas sum to the run totals in the closing
//!    `telemetry_summary` line (delta consistency);
//! 3. with observability disabled the recorder is inert: no snapshots, no
//!    series, and experiment outputs untouched.
//!
//! Observability state is process-global, so every test takes [`obs_lock`].

use nazar_data::{AnimalsConfig, AnimalsDataset};
use nazar_device::{DeviceConfig, FleetSim};
use nazar_nn::{MlpResNet, ModelArch};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Value;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serializes tests that toggle the global observability state. Poison
/// only records that another test failed while holding the lock; the `()`
/// it guards cannot be left inconsistent, so one failure stays one failure.
fn obs_lock() -> MutexGuard<'static, ()> {
    static OBS_LOCK: Mutex<()> = Mutex::new(());
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A small fleet world (untrained model — telemetry does not care about
/// accuracy), built once and shared across tests.
fn small_world() -> &'static (AnimalsDataset, MlpResNet) {
    static WORLD: OnceLock<(AnimalsDataset, MlpResNet)> = OnceLock::new();
    WORLD.get_or_init(|| {
        let config = AnimalsConfig::small();
        let dataset = AnimalsDataset::generate(&config);
        let model = MlpResNet::new(
            ModelArch::tiny(config.dim, config.classes),
            &mut SmallRng::seed_from_u64(3),
        );
        (dataset, model)
    })
}

/// Replays `windows` windows through the event-driven fleet with an
/// explicit worker count and returns the recorded series text.
fn run_series(threads: usize, windows: usize) -> String {
    let (data, model) = small_world();
    nazar_obs::telemetry::begin_run();
    let mut sim = FleetSim::from_streams(&data.streams, model, &DeviceConfig::default());
    let mut rng = SmallRng::seed_from_u64(5);
    for w in 0..windows {
        sim.process_window_at_with_threads(&data.streams, w, windows, &mut rng, threads);
    }
    nazar_obs::telemetry::snapshot_final();
    nazar_obs::telemetry::series_jsonl()
}

fn parse_line(line: &str) -> Vec<(String, Value)> {
    match serde_json::from_str::<Value>(line).expect("series line parses as JSON") {
        Value::Map(entries) => entries,
        other => panic!("series line is not an object: {other:?}"),
    }
}

fn get<'v>(entries: &'v [(String, Value)], key: &str) -> &'v Value {
    serde::value_get(entries, key).unwrap_or_else(|| panic!("missing key {key}"))
}

#[test]
fn series_is_bitwise_identical_across_thread_counts() {
    let _guard = obs_lock();
    nazar_obs::testing::enable_memory_sink();
    let one = run_series(1, 3);
    let eight = run_series(8, 3);
    nazar_obs::testing::disable();

    assert!(!one.is_empty(), "series must be recorded while obs is on");
    assert_eq!(
        one, eight,
        "telemetry series must not depend on worker thread count"
    );

    let snapshots = one
        .lines()
        .filter(|l| l.contains("\"type\":\"telemetry\""))
        .count();
    assert!(
        snapshots >= 3,
        "expected >= 3 snapshots (window closes + run_end), got {snapshots}"
    );
    assert_eq!(
        one.lines()
            .filter(|l| l.contains("\"type\":\"telemetry_summary\""))
            .count(),
        1,
        "exactly one closing summary line"
    );
}

#[test]
fn snapshot_deltas_sum_to_summary_totals() {
    let _guard = obs_lock();
    nazar_obs::testing::enable_memory_sink();
    let series = run_series(2, 3);
    nazar_obs::testing::disable();

    // Accumulate per-(name, labels-json) counter deltas across snapshots.
    let mut delta_sums: std::collections::BTreeMap<String, f64> = std::collections::BTreeMap::new();
    let mut last_totals: std::collections::BTreeMap<String, f64> =
        std::collections::BTreeMap::new();
    let mut summary_totals: std::collections::BTreeMap<String, f64> =
        std::collections::BTreeMap::new();
    let mut prev_t = 0u64;
    for line in series.lines() {
        let entries = parse_line(line);
        match get(&entries, "type") {
            Value::Str(t) if t == "telemetry" => {
                let Value::Num(t_us) = get(&entries, "t_us") else {
                    panic!("t_us must be numeric")
                };
                assert!(
                    *t_us >= prev_t as f64,
                    "virtual snapshot times must be non-decreasing"
                );
                prev_t = *t_us as u64;
                let Value::Seq(metrics) = get(&entries, "metrics") else {
                    panic!("metrics must be an array")
                };
                for m in metrics {
                    let Value::Map(m) = m else {
                        panic!("metric entry must be an object")
                    };
                    let Value::Str(name) = get(m, "name") else {
                        panic!("metric name must be a string")
                    };
                    let labels = serde::value_get(m, "labels")
                        .map(|l| serde_json::to_string(l).expect("labels serialize"))
                        .unwrap_or_default();
                    let key = format!("{name}|{labels}");
                    if let Some(Value::Num(d)) = serde::value_get(m, "delta") {
                        *delta_sums.entry(key.clone()).or_insert(0.0) += d;
                        if let Some(Value::Num(total)) = serde::value_get(m, "total") {
                            last_totals.insert(key, *total);
                        }
                    }
                }
            }
            Value::Str(t) if t == "telemetry_summary" => {
                let Value::Seq(totals) = get(&entries, "totals") else {
                    panic!("totals must be an array")
                };
                for m in totals {
                    let Value::Map(m) = m else {
                        panic!("totals entry must be an object")
                    };
                    let Value::Str(name) = get(m, "name") else {
                        panic!("totals name must be a string")
                    };
                    let labels = serde::value_get(m, "labels")
                        .map(|l| serde_json::to_string(l).expect("labels serialize"))
                        .unwrap_or_default();
                    if let Some(Value::Num(total)) = serde::value_get(m, "total") {
                        summary_totals.insert(format!("{name}|{labels}"), *total);
                    }
                }
            }
            other => panic!("unexpected series record type {other:?}"),
        }
    }

    assert!(
        delta_sums
            .keys()
            .any(|k| k.starts_with("nazar_device_inferences_total")),
        "fleet counters must appear in the series"
    );
    for (key, sum) in &delta_sums {
        let total = summary_totals
            .get(key)
            .unwrap_or_else(|| panic!("summary missing counter {key}"));
        assert!(
            (sum - total).abs() < 1e-6,
            "{key}: snapshot deltas sum to {sum}, summary total is {total}"
        );
        assert!(
            (last_totals[key] - total).abs() < 1e-6,
            "{key}: last cumulative total {} != summary total {total}",
            last_totals[key]
        );
    }
}

#[test]
fn disabled_recorder_takes_no_snapshots_and_changes_nothing() {
    let _guard = obs_lock();
    nazar_obs::testing::disable();

    let (data, model) = small_world();
    nazar_obs::telemetry::begin_run();
    let mut sim = FleetSim::from_streams(&data.streams, model, &DeviceConfig::default());
    let mut rng = SmallRng::seed_from_u64(5);
    let parts_off = sim.process_window_at_with_threads(&data.streams, 0, 2, &mut rng, 2);
    nazar_obs::telemetry::snapshot_final();

    assert_eq!(nazar_obs::telemetry::series_jsonl(), "");
    assert_eq!(nazar_obs::telemetry::snapshot_count(), 0);
    assert_eq!(nazar_obs::telemetry::retained_count(), 0);

    // Same seed with telemetry on: identical window output — the recorder
    // observes the pipeline, never steers it.
    nazar_obs::testing::enable_memory_sink();
    nazar_obs::telemetry::begin_run();
    let mut sim = FleetSim::from_streams(&data.streams, model, &DeviceConfig::default());
    let mut rng = SmallRng::seed_from_u64(5);
    let parts_on = sim.process_window_at_with_threads(&data.streams, 0, 2, &mut rng, 2);
    assert!(nazar_obs::telemetry::snapshot_count() > 0);
    nazar_obs::testing::disable();
    // Enabled-then-disabled in one body (the order other tests impose on
    // this one by running first): the finished run must not leak out of a
    // disabled recorder.
    assert_eq!(nazar_obs::telemetry::snapshot_count(), 0);
    assert_eq!(nazar_obs::telemetry::retained_count(), 0);

    assert_eq!(
        parts_off, parts_on,
        "telemetry must not perturb fleet outputs"
    );
}
