//! Integration of adaptation and deployment: patches produced by TENT must
//! flow through the registry onto devices and change their predictions on
//! matching inputs only.

use nazar::adapt::{adapt_to_patch, AdaptMethod, TentConfig};
use nazar::data::LocationStream;
use nazar::device::{FleetSim, WindowOutput};
use nazar::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn trained_world() -> (nazar::data::ClassSpace, MlpResNet) {
    let mut rng = SmallRng::seed_from_u64(9);
    let space = nazar::data::ClassSpace::new(&mut rng, 32, 8, 0.75, 0.5);
    let train: LabeledSet = space.sample_balanced(&mut rng, 60).into_iter().collect();
    let val: LabeledSet = space.sample_balanced(&mut rng, 12).into_iter().collect();
    let trained = train_base_model(&train, &val, ModelArch::tiny(32, 8), 6);
    (space, trained.model)
}

fn corrupt_matrix(
    space: &nazar::data::ClassSpace,
    c: Corruption,
    n: usize,
    seed: u64,
) -> (Tensor, Vec<usize>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for i in 0..n {
        let s = space.sample(&mut rng, i % space.num_classes());
        rows.push(c.apply(&s.features, Severity::DEFAULT, &mut rng));
        labels.push(s.label);
    }
    (Tensor::stack_rows(&rows).expect("rows"), labels)
}

/// Replays `items` as one window on a fresh one-device fleet holding
/// `versions`.
fn serve(
    base: &MlpResNet,
    versions: &[(VersionMeta, BnPatch)],
    items: &[StreamItem],
) -> WindowOutput {
    let streams = [LocationStream {
        location: "quebec".into(),
        items: items.to_vec(),
    }];
    let mut fleet = FleetSim::from_streams(&streams, base, &DeviceConfig::default());
    for (meta, patch) in versions {
        fleet.deploy(meta, patch);
    }
    fleet.process_window(&streams, 0, 1, &mut SmallRng::seed_from_u64(0))
}

#[test]
fn by_cause_patch_beats_cross_cause_patch_via_device_selection() {
    let (space, base) = trained_world();
    let mut rng = SmallRng::seed_from_u64(1);
    let method = AdaptMethod::Tent(TentConfig {
        epochs: 3,
        batch_size: 32,
        ..TentConfig::default()
    });

    // Two divergent causes with their own patches.
    let (fog_x, fog_y) = corrupt_matrix(&space, Corruption::Fog, 96, 11);
    let (contrast_x, _) = corrupt_matrix(&space, Corruption::Contrast, 96, 12);
    let (fog_patch, _) = adapt_to_patch(&base, &fog_x, &method, &mut rng);
    let (contrast_patch, _) = adapt_to_patch(&base, &contrast_x, &method, &mut rng);

    // Evaluate on fog with each patch applied.
    let acc_with = |patch: &BnPatch| -> f32 {
        let mut m = base.clone();
        patch.apply(&mut m).expect("same arch");
        nazar::nn::train::evaluate(&mut m, &fog_x, &fog_y).accuracy
    };
    let fog_acc = acc_with(&fog_patch);
    let cross_acc = acc_with(&contrast_patch);
    assert!(
        fog_acc > cross_acc,
        "matching patch {fog_acc} !> cross-cause patch {cross_acc}"
    );
}

#[test]
fn device_serves_matching_inputs_with_the_matching_version() {
    let (space, base) = trained_world();
    let mut rng = SmallRng::seed_from_u64(2);
    let method = AdaptMethod::default();
    let (fog_x, fog_y) = corrupt_matrix(&space, Corruption::Fog, 64, 13);
    let (fog_patch, _) = adapt_to_patch(&base, &fog_x, &method, &mut rng);
    let fog_version = [(
        VersionMeta::new(vec![Attribute::new("weather", "fog")], 2.5),
        fog_patch,
    )];

    let foggy: Vec<StreamItem> = (0..16)
        .map(|i| StreamItem {
            features: fog_x.row(i).expect("row").to_vec(),
            label: fog_y[i],
            date: SimDate::new(3),
            location: "quebec".into(),
            device_id: "d0".into(),
            weather: Weather::Fog,
            true_cause: Some(Corruption::Fog),
            severity: Severity::DEFAULT,
        })
        .collect();
    // A version is used exactly when the output differs from the same
    // device without it.
    assert_ne!(
        serve(&base, &fog_version, &foggy),
        serve(&base, &[], &foggy),
        "fog inputs should use the fog version"
    );

    let clear: Vec<StreamItem> = foggy
        .into_iter()
        .map(|item| StreamItem {
            weather: Weather::Clear,
            ..item
        })
        .collect();
    assert_eq!(
        serve(&base, &fog_version, &clear),
        serve(&base, &[], &clear),
        "clear inputs should use the base model"
    );
}

#[test]
fn consolidation_keeps_fleet_pools_bounded_under_version_churn() {
    let (_, base) = trained_world();
    let config = DeviceConfig {
        pool_capacity: Some(3),
        ..DeviceConfig::default()
    };
    let fleet = FleetSim::from_streams(
        &[LocationStream {
            location: "quebec".into(),
            items: Vec::new(),
        }],
        &base,
        &config,
    );
    // No devices (empty stream) — build one from an explicit id instead.
    assert!(fleet.is_empty());
    assert_eq!(fleet.max_versions(), 0);
    let mut device = FleetSim::new([("d1".to_string(), "quebec".to_string())], &base, &config);
    let patch = {
        let mut m = base.clone();
        BnPatch::extract(&mut m)
    };
    for i in 0..12 {
        device.install_on(
            "d1",
            &VersionMeta::new(
                vec![
                    Attribute::new("weather", ["rain", "snow", "fog"][i % 3].to_string()),
                    Attribute::new("location", format!("loc{i}")),
                ],
                1.0 + i as f64,
            ),
            &patch,
        );
    }
    assert!(device.max_versions() <= 3);
}
