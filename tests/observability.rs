//! Observability invariants: the `nazar-obs` layer must not perturb the
//! system it measures.
//!
//! Three guarantees are asserted here:
//!
//! 1. with `NAZAR_OBS` unset the instrumentation is a no-op that can sit
//!    on kernel hot paths: a call stops at the enabled gate, so it
//!    registers no series, records no span and moves no counter, and
//!    instrumented operations return the same bits and count alike with
//!    observability on and off (no wall-clock bound is asserted here; the
//!    <5 % overhead gate runs in CI's telemetry job);
//! 2. experiment *outputs* are bitwise identical with observability on and
//!    off — monitoring reads the pipeline, never steers it;
//! 3. counters and histograms stay exact under the workspace's own
//!    [`nazar_tensor::parallel`] fan-out at 1–8 threads.
//!
//! Observability state is process-global, so every test takes `OBS_LOCK`.

use nazar_cloud::experiment::{run_strategy, train_base_model};
use nazar_cloud::{CloudConfig, RunResult, Strategy};
use nazar_data::{AnimalsConfig, AnimalsDataset};
use nazar_device::{DeviceConfig, FleetSim};
use nazar_nn::{MlpResNet, ModelArch};
use nazar_obs::metrics::SnapshotValue;
use nazar_tensor::parallel::{par_map, par_row_bands};
use nazar_tensor::Tensor;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

/// Serializes tests that toggle the global observability state.
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// A small trained workload, built once and shared across tests.
fn small_world() -> &'static (AnimalsDataset, MlpResNet) {
    static WORLD: OnceLock<(AnimalsDataset, MlpResNet)> = OnceLock::new();
    WORLD.get_or_init(|| {
        let config = AnimalsConfig::small();
        let dataset = AnimalsDataset::generate(&config);
        let trained = train_base_model(
            &dataset.train,
            &dataset.val,
            ModelArch::tiny(config.dim, config.classes),
            7,
        );
        (dataset, trained.model)
    })
}

static PROBE_COUNTER: nazar_obs::LazyCounter =
    nazar_obs::LazyCounter::new("nazar_test_probe_total", "Disabled-path probe", &[]);
static PROBE_HIST: nazar_obs::LazyHistogram = nazar_obs::LazyHistogram::new(
    "nazar_test_probe_width",
    "Disabled-path probe",
    &[],
    nazar_obs::pow2_buckets,
);

#[test]
fn disabled_instrumentation_costs_nanoseconds_per_call() {
    let _guard = OBS_LOCK.lock().unwrap();
    nazar_obs::testing::disable();
    assert!(!nazar_obs::enabled());

    for i in 0..1_000_000u64 {
        PROBE_COUNTER.inc();
        PROBE_HIST.observe(i as f64);
        let _span = nazar_obs::span("noop");
    }
    // Nothing ran behind the gate: the lazily registered probe series do
    // not exist and no span was opened, so a disabled call is the relaxed
    // load and the return — a cost no timer is needed to bound.
    let probes: Vec<String> = nazar_obs::registry()
        .snapshot()
        .into_iter()
        .map(|m| m.name)
        .filter(|name| name.starts_with("nazar_test_probe"))
        .collect();
    assert!(probes.is_empty(), "disabled calls registered {probes:?}");
    assert!(
        nazar_obs::span::drain().is_empty(),
        "a disabled span must not be recorded"
    );
}

/// Every deterministic counter series, by name and label set.
fn counters() -> BTreeMap<String, u64> {
    nazar_obs::registry()
        .snapshot()
        .into_iter()
        .filter(|m| !m.volatile)
        .filter_map(|m| match m.value {
            SnapshotValue::Counter(v) => Some((format!("{}{:?}", m.name, m.labels), v)),
            _ => None,
        })
        .collect()
}

/// What moved between two [`counters`] snapshots.
fn deltas(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>) -> BTreeMap<String, u64> {
    after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0)))
        .filter(|(_, d)| *d > 0)
        .collect()
}

/// The structural form of "instrumented operations run the same with
/// observability on and off" (the name is the one the suite has always
/// had; the wall-clock comparison it once made is CI's <5 % telemetry
/// overhead gate and the benchmark's `obs.trace_overhead_pct`): a matmul
/// and a fleet window return the same bits in either mode, a disabled run
/// moves no counter, and every enabled run moves the same counters by the
/// same amounts.
#[test]
fn matmul_and_process_window_time_the_same_with_obs_on_and_off() {
    let _guard = OBS_LOCK.lock().unwrap();
    let (dataset, model) = small_world();
    let mut rng = SmallRng::seed_from_u64(3);
    let a = Tensor::randn(&mut rng, &[256, 256], 0.0, 1.0);
    let b = Tensor::randn(&mut rng, &[256, 256], 0.0, 1.0);
    let run = || {
        let before = counters();
        let product = a.matmul(&b).expect("shapes match");
        let mut fleet = FleetSim::from_streams(&dataset.streams, model, &DeviceConfig::default());
        let window = fleet.process_window(&dataset.streams, 0, 4, &mut SmallRng::seed_from_u64(11));
        (product, window, deltas(&before, &counters()))
    };

    nazar_obs::testing::disable();
    let (product, window, moved) = run();
    assert!(moved.is_empty(), "a disabled run moved {moved:?}");

    nazar_obs::testing::enable_memory_sink();
    let (product_on, window_on, moved_on) = run();
    assert_eq!(product_on, product, "observability changed a matmul");
    assert_eq!(window_on, window, "observability changed a fleet window");
    let inferences = "nazar_device_inferences_total[]";
    assert_eq!(moved_on.get(inferences), Some(&(window.stats.total as u64)));
    assert_eq!(
        moved_on.get("nazar_device_forward_rows_total[]"),
        Some(&(window.stats.total as u64)),
        "one forward row per inference"
    );

    nazar_obs::testing::disable();
    let (product_off, window_off, moved_off) = run();
    assert_eq!((&product_off, &window_off), (&product, &window));
    assert!(moved_off.is_empty(), "a disabled run moved {moved_off:?}");

    nazar_obs::testing::enable_memory_sink();
    let (_, _, moved_again) = run();
    nazar_obs::testing::disable();
    assert_eq!(moved_again, moved_on, "enabled runs must count alike");
}

/// Serializes the parts of a [`RunResult`] that experiment tables are built
/// from (everything except the wall-clock timing fields).
fn output_fingerprint(r: &RunResult) -> String {
    format!(
        "{}|{}|{}|{}|{}|{}",
        serde_json::to_string(&r.per_window).expect("serialize"),
        serde_json::to_string(&r.version_counts).expect("serialize"),
        serde_json::to_string(&r.causes_per_window).expect("serialize"),
        r.log_rows,
        r.patch_bytes_shipped,
        r.full_model_bytes_equivalent,
    )
}

#[test]
fn experiment_outputs_are_bitwise_identical_with_obs_on_and_off() {
    let _guard = OBS_LOCK.lock().unwrap();
    let (dataset, model) = small_world();
    let config = CloudConfig {
        windows: 3,
        min_samples_per_cause: 8,
        ..CloudConfig::default()
    };

    nazar_obs::testing::disable();
    let off = run_strategy(model, &dataset.streams, Strategy::Nazar, &config);
    nazar_obs::testing::enable_memory_sink();
    let on = run_strategy(model, &dataset.streams, Strategy::Nazar, &config);
    nazar_obs::testing::disable();

    assert_eq!(
        output_fingerprint(&off),
        output_fingerprint(&on),
        "observability changed experiment outputs"
    );
}

#[test]
fn concurrent_counter_and_histogram_updates_are_exact() {
    let _guard = OBS_LOCK.lock().unwrap();
    nazar_obs::testing::enable_memory_sink();
    let registry = nazar_obs::registry();

    // par_row_bands pins the fan-out width explicitly: exercise 1–8 threads.
    for threads in 1..=8usize {
        let label = threads.to_string();
        let labels = [("threads", label.as_str())];
        let counter =
            registry.counter("nazar_test_band_updates_total", "Concurrency test", &labels);
        let hist = registry.histogram(
            "nazar_test_band_width",
            "Concurrency test",
            &labels,
            &[1.0, 8.0, 64.0],
        );
        let rows = 64usize;
        let mut buf = vec![0.0f32; rows * 4];
        par_row_bands(&mut buf, rows, 4, threads, |first_row, band| {
            for r in 0..band.len() / 4 {
                counter.inc();
                hist.observe((first_row + r) as f64);
            }
        });
        assert_eq!(counter.get(), rows as u64, "threads={threads}");
        assert_eq!(hist.count(), rows as u64, "threads={threads}");
        let expected_sum = (rows * (rows - 1) / 2) as f64;
        assert!(
            (hist.sum() - expected_sum).abs() < 1e-9,
            "threads={threads}: sum {} != {expected_sum}",
            hist.sum()
        );
        assert_eq!(
            hist.bucket_counts().iter().sum::<u64>(),
            rows as u64,
            "threads={threads}"
        );
    }

    // par_map picks its own width; the totals must still be exact.
    let counter = registry.counter("nazar_test_map_updates_total", "Concurrency test", &[]);
    let n = 10_000usize;
    let out = par_map((0..n).collect::<Vec<usize>>(), |i| {
        counter.add(2);
        i
    });
    assert_eq!(out.len(), n);
    assert_eq!(counter.get(), 2 * n as u64);
    nazar_obs::testing::disable();
}
