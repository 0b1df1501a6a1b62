//! Integration of the detection and analysis stages: noisy per-inference
//! MSP verdicts, aggregated in the drift log, must still yield the correct
//! root cause — the system-level noise-robustness claim of §3.3.

use nazar::data::LocationStream;
use nazar::detect::{msp_of_logits, DriftDetector, MspThreshold};
use nazar::device::FleetSim;
use nazar::nn::Mode;
use nazar::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Trains a small model over a fresh class space.
fn trained_world() -> (nazar::data::ClassSpace, MlpResNet) {
    // The seed picks a class geometry where heavy fog lands far from every
    // prototype, so the corruption degrades confidence instead of
    // accidentally collapsing onto a confidently-predicted class.
    let mut rng = SmallRng::seed_from_u64(5);
    // 20+ classes put the classifier's confidence in the detector's
    // operating regime (see DESIGN.md on the MSP threshold).
    let space = nazar::data::ClassSpace::new(&mut rng, 32, 20, 0.75, 0.6);
    let train: LabeledSet = space.sample_balanced(&mut rng, 60).into_iter().collect();
    let val: LabeledSet = space.sample_balanced(&mut rng, 12).into_iter().collect();
    let trained = train_base_model(&train, &val, ModelArch::resnet18_analog(32, 20), 2);
    (space, trained.model)
}

#[test]
fn noisy_detection_still_pins_the_planted_cause() {
    let (space, mut model) = trained_world();
    let mut rng = SmallRng::seed_from_u64(3);

    // Build a drift log: fog images from two locations, clean elsewhere.
    let mut log = DriftLog::new(&["weather", "location", "device_id"]);
    let mut ts = 0u64;
    for i in 0..600 {
        let location = ["quebec", "tibet", "beijing"][i % 3];
        let foggy = i % 3 != 2 && i % 2 == 0; // fog only in quebec/tibet
        let sample = space.sample(&mut rng, i % 20);
        let features = if foggy {
            Corruption::Fog.apply(&sample.features, Severity::new(4).unwrap(), &mut rng)
        } else {
            sample.features
        };
        let x = Tensor::from_vec(features, &[1, 32]).expect("row");
        let msp = msp_of_logits(&model.logits(&x, Mode::Eval))[0];
        ts += 1;
        log.push(DriftLogEntry::new(
            ts,
            &[
                ("weather", if foggy { "fog" } else { "clear-day" }),
                ("location", location),
                ("device_id", &format!("d{}", i % 6)),
            ],
            msp < 0.9,
        ))
        .expect("schema");
    }

    let causes = analyze(&log, &FimConfig::default());
    assert!(!causes.is_empty(), "no causes found");
    assert_eq!(
        causes[0].attrs,
        vec![Attribute::new("weather", "fog")],
        "top cause should be fog, got {causes:?}"
    );
}

#[test]
fn detector_trait_and_device_loop_agree() {
    // The device's inlined MSP check must agree with the MspThreshold
    // detector on the same inputs.
    let (space, model) = trained_world();
    let mut rng = SmallRng::seed_from_u64(4);
    let mut det = MspThreshold::default();
    let mut standalone = model.clone();

    let mut items = Vec::new();
    let mut expected = Vec::new();
    for i in 0..40 {
        let sample = space.sample(&mut rng, i % 20);
        let features = if i % 2 == 0 {
            Corruption::Snow.apply(&sample.features, Severity::DEFAULT, &mut rng)
        } else {
            sample.features
        };
        let x = Tensor::from_vec(features.clone(), &[1, 32]).expect("row");
        expected.push(det.detect(&mut standalone, &x)[0]);
        items.push(StreamItem {
            features,
            label: sample.label,
            date: SimDate::new(1),
            location: "quebec".into(),
            device_id: "dev-x".into(),
            weather: Weather::Clear,
            true_cause: None,
            severity: Severity::NONE,
        });
    }
    let streams = [LocationStream {
        location: "quebec".into(),
        items,
    }];
    let mut device = FleetSim::from_streams(&streams, &model, &DeviceConfig::default());
    let out = device.process_window(&streams, 0, 1, &mut rng);
    assert_eq!(out.entries.len(), expected.len());
    for (i, (entry, expected)) in out.entries.to_entries().iter().zip(&expected).enumerate() {
        assert_eq!(entry.drift, *expected, "item {i}");
    }
}

#[test]
fn analysis_handles_all_clean_logs() {
    let mut log = DriftLog::new(&["weather", "location", "device_id"]);
    for i in 0..100u64 {
        log.push(DriftLogEntry::new(
            i,
            &[
                ("weather", "clear-day"),
                ("location", "quebec"),
                ("device_id", "d0"),
            ],
            false,
        ))
        .expect("schema");
    }
    assert!(analyze(&log, &FimConfig::default()).is_empty());
}
