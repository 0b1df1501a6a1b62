//! End-to-end integration: the full monitor → analyze → adapt → deploy loop
//! on a miniature workload, comparing all three strategies.

use nazar::prelude::*;

fn workload() -> (AnimalsDataset, NazarSystem) {
    let config = AnimalsConfig {
        classes: 10,
        dim: 40,
        train_per_class: 50,
        val_per_class: 10,
        devices_per_location: 3,
        arrivals_per_day: 1.0,
        ..AnimalsConfig::default()
    };
    let dataset = AnimalsDataset::generate(&config);
    let system = NazarSystem::train(
        &dataset.train,
        &dataset.val,
        ModelArch::resnet18_analog(config.dim, config.classes),
        5,
    )
    .with_config(CloudConfig {
        windows: 6,
        min_samples_per_cause: 16,
        ..CloudConfig::default()
    });
    (dataset, system)
}

#[test]
fn nazar_discovers_weather_causes_and_deploys_versions() {
    let (dataset, system) = workload();
    let result = system.run(&dataset.streams, Strategy::Nazar);

    assert_eq!(result.per_window.len(), 6);
    let all_causes: Vec<&String> = result.causes_per_window.iter().flatten().collect();
    assert!(!all_causes.is_empty(), "no causes found");
    assert!(
        all_causes.iter().any(|c| c.contains("weather=")),
        "expected weather causes, got {all_causes:?}"
    );
    // Versions were deployed and stayed within the device pool capacity.
    let max = *result.version_counts.iter().max().unwrap();
    assert!(max >= 1, "no versions deployed");
    assert!(max <= 8, "pool capacity violated: {max}");
}

#[test]
fn nazar_beats_no_adapt_on_drifted_data() {
    let (dataset, system) = workload();
    let nazar = system.run(&dataset.streams, Strategy::Nazar);
    let no_adapt = system.run(&dataset.streams, Strategy::NoAdapt);

    let nazar_drift = nazar.mean_drifted_accuracy_last(5);
    let no_adapt_drift = no_adapt.mean_drifted_accuracy_last(5);
    assert!(
        nazar_drift > no_adapt_drift,
        "nazar {nazar_drift} !> no-adapt {no_adapt_drift} on drifted data"
    );
}

#[test]
fn detection_rate_declines_as_nazar_adapts() {
    // The evolving-detector property (§5.6): once causes are adapted,
    // Nazar's detector flags less of the stream than the static model's.
    let (dataset, system) = workload();
    let nazar = system.run(&dataset.streams, Strategy::Nazar);
    let no_adapt = system.run(&dataset.streams, Strategy::NoAdapt);
    let late = |r: &RunResult| {
        r.per_window
            .iter()
            .rev()
            .take(3)
            .map(|w| w.detection_rate())
            .sum::<f32>()
            / 3.0
    };
    assert!(
        late(&nazar) < late(&no_adapt) + 0.02,
        "nazar late detection {} should not exceed static {}",
        late(&nazar),
        late(&no_adapt)
    );
}

#[test]
fn strategies_share_the_same_stream_volume() {
    let (dataset, system) = workload();
    let a = system.run(&dataset.streams, Strategy::Nazar);
    let b = system.run(&dataset.streams, Strategy::AdaptAll);
    let totals = |r: &RunResult| r.per_window.iter().map(|w| w.total).collect::<Vec<_>>();
    assert_eq!(totals(&a), totals(&b));
    assert_eq!(a.log_rows, b.log_rows);
}

#[test]
fn step_fold_equals_run() {
    let (dataset, system) = workload();
    let run = system.run(&dataset.streams, Strategy::Nazar);
    let (base, config) = (system.base_model().clone(), system.config().clone());
    let mut orch = Orchestrator::new(base, &dataset.streams, Strategy::Nazar, config);
    let mut reports = Vec::new();
    while let Some(report) = orch.step(&dataset.streams) {
        reports.push(report);
    }
    assert!(orch.step(&dataset.streams).is_none(), "past the end");
    let windows: Vec<usize> = reports.iter().map(|r| r.window).collect();
    assert_eq!(windows, (0..run.per_window.len()).collect::<Vec<_>>());
    let stats: Vec<WindowStats> = reports.iter().map(|r| r.stats.clone()).collect();
    assert_eq!(stats, run.per_window);
    let versions: Vec<usize> = reports.iter().map(|r| r.max_versions).collect();
    assert_eq!(versions, run.version_counts);
    let causes: Vec<Vec<String>> = reports
        .iter()
        .map(|r| r.causes.iter().map(RankedCause::label).collect())
        .collect();
    assert_eq!(causes, run.causes_per_window);
    assert_eq!(reports.last().map(|r| r.log_rows), Some(run.log_rows));
    // The ledger and the wire totals are the rest of the run's result.
    let rest = orch.run(&dataset.streams);
    assert!(rest.per_window.is_empty());
    assert_eq!(rest.patch_bytes_shipped, run.patch_bytes_shipped);
    assert_eq!(rest.net, run.net);
}
