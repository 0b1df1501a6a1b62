//! Manual mode: the ML-ops team in the loop (§3.1 "Modes of operation").
//!
//! By default Nazar runs on autopilot. This example runs the same workload
//! in manual mode: analysis raises alerts; after every window a (simulated)
//! operator reviews that window's alerts, approves the convincing causes and
//! dismisses the rest; only approved causes are adapted and deployed, in
//! time to serve the next window.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example manual_ops
//! ```

use nazar::prelude::*;

fn main() {
    let data_config = AnimalsConfig {
        // 20+ classes keep the classifier's confidence in the MSP
        // detector's operating regime (see DESIGN.md).
        classes: 24,
        dim: 48,
        train_per_class: 60,
        devices_per_location: 4,
        ..AnimalsConfig::default()
    };
    let dataset = AnimalsDataset::generate(&data_config);
    let trained = train_base_model(
        &dataset.train,
        &dataset.val,
        ModelArch::resnet18_analog(data_config.dim, data_config.classes),
        42,
    );
    println!(
        "base model: {:.1}% validation accuracy\n",
        trained.val_accuracy * 100.0
    );

    let config = CloudConfig {
        windows: 6,
        min_samples_per_cause: 16,
        mode: OperationMode::Manual,
        ..CloudConfig::default()
    };
    let mut orchestrator =
        Orchestrator::new(trained.model, &dataset.streams, Strategy::Nazar, config);

    // The operator reviews each window's alerts as soon as the window
    // closes, so an approved cause is served from the next window on. The
    // review policy: approve causes with risk ratio above 1.5 and at least
    // 24 samples; dismiss the rest.
    let (mut raised, mut approved) = (0, Vec::new());
    while let Some(report) = orchestrator.step(&dataset.streams) {
        println!(
            "window {}: {:.1}% accuracy; model versions per device, max: {}",
            report.window + 1,
            report.stats.accuracy() * 100.0,
            report.max_versions,
        );
        while let Some(alert) = orchestrator.pending_alerts().first() {
            raised += 1;
            let convincing = alert.cause.stats.risk_ratio > 1.5 && alert.sample_count >= 24;
            println!(
                "  {} -> {}",
                alert.summary(),
                if convincing { "APPROVE" } else { "dismiss" }
            );
            if convincing {
                approved.push(orchestrator.approve_alert(0).expect("alert 0 is pending"));
            } else {
                orchestrator.dismiss_alert(0).expect("alert 0 is pending");
            }
        }
    }
    println!(
        "\nrun finished: {} drift-log rows, {raised} alerts raised",
        orchestrator.drift_log().num_rows(),
    );
    println!(
        "approved and deployed {} causes: {:?}",
        approved.len(),
        approved.iter().map(RankedCause::label).collect::<Vec<_>>()
    );
}
