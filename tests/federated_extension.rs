//! Integration of the federated-adaptation extension (§6 future work) with
//! the rest of the system: locally adapted patches must aggregate, deploy
//! through the registry, and serve matching inputs on devices.

use nazar::adapt::federated::{average_patches, federated_round, local_tent_round};
use nazar::adapt::TentConfig;
use nazar::data::LocationStream;
use nazar::device::FleetSim;
use nazar::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn trained_world() -> (nazar::data::ClassSpace, MlpResNet) {
    let mut rng = SmallRng::seed_from_u64(77);
    let space = nazar::data::ClassSpace::new(&mut rng, 32, 8, 0.75, 0.5);
    let train: LabeledSet = space.sample_balanced(&mut rng, 60).into_iter().collect();
    let val: LabeledSet = space.sample_balanced(&mut rng, 12).into_iter().collect();
    let trained = train_base_model(&train, &val, ModelArch::tiny(32, 8), 4);
    (space, trained.model)
}

fn drifted(space: &nazar::data::ClassSpace, n: usize, seed: u64) -> (Tensor, Vec<usize>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for i in 0..n {
        let s = space.sample(&mut rng, i % space.num_classes());
        rows.push(Corruption::Fog.apply(&s.features, Severity::DEFAULT, &mut rng));
        labels.push(s.label);
    }
    (Tensor::stack_rows(&rows).expect("rows"), labels)
}

#[test]
fn federated_patch_deploys_and_serves_on_devices() {
    let (space, base) = trained_world();
    let cfg = TentConfig {
        epochs: 3,
        batch_size: 32,
        ..TentConfig::default()
    };
    let shards: Vec<Tensor> = (0..4).map(|d| drifted(&space, 64, 100 + d).0).collect();
    let (patch, reports) = federated_round(&base, &shards, &cfg);
    assert_eq!(reports.len(), 4);
    assert!(reports.iter().all(|r| r.steps > 0));

    // Deploy the aggregated patch to a one-device fleet and verify
    // selection: fog inputs are served differently than without it.
    let (test_x, test_y) = drifted(&space, 16, 999);
    let items = (0..16)
        .map(|i| StreamItem {
            features: test_x.row(i).expect("row").to_vec(),
            label: test_y[i],
            date: SimDate::new(2),
            location: "quebec".into(),
            device_id: "d0".into(),
            weather: Weather::Fog,
            true_cause: Some(Corruption::Fog),
            severity: Severity::DEFAULT,
        })
        .collect();
    let streams = [LocationStream {
        location: "quebec".into(),
        items,
    }];
    let serve = |version: Option<&BnPatch>| {
        let mut fleet = FleetSim::from_streams(&streams, &base, &DeviceConfig::default());
        if let Some(patch) = version {
            let meta = VersionMeta::new(vec![Attribute::new("weather", "fog")], 2.0);
            fleet.deploy(&meta, patch);
        }
        fleet.process_window(&streams, 0, 1, &mut SmallRng::seed_from_u64(0))
    };
    assert_ne!(
        serve(Some(&patch)),
        serve(None),
        "federated version must serve fog inputs"
    );
}

#[test]
fn federated_aggregate_beats_no_adapt_and_each_single_device() {
    let (space, base) = trained_world();
    let cfg = TentConfig {
        epochs: 3,
        batch_size: 32,
        ..TentConfig::default()
    };
    let (test_x, test_y) = drifted(&space, 160, 500);
    let shards: Vec<Tensor> = (0..4).map(|d| drifted(&space, 48, 200 + d).0).collect();

    let accuracy_with = |patch: &BnPatch| -> f32 {
        let mut m = base.clone();
        patch.apply(&mut m).expect("same architecture");
        nazar::nn::train::evaluate(&mut m, &test_x, &test_y).accuracy
    };

    let mut plain = base.clone();
    let no_adapt = nazar::nn::train::evaluate(&mut plain, &test_x, &test_y).accuracy;

    let singles: Vec<f32> = shards
        .iter()
        .map(|s| accuracy_with(&local_tent_round(&base, s, &cfg).patch))
        .collect();
    let (fed_patch, _) = federated_round(&base, &shards, &cfg);
    let federated = accuracy_with(&fed_patch);

    assert!(
        federated > no_adapt,
        "federated {federated} !> no-adapt {no_adapt}"
    );
    let best_single = singles.iter().copied().fold(f32::MIN, f32::max);
    // Aggregation over more total data should be competitive with the best
    // single-device patch (allow a small tolerance for averaging loss).
    assert!(
        federated > best_single - 0.08,
        "federated {federated} far below best single {best_single}"
    );
}

#[test]
fn aggregation_weights_are_respected_in_the_mix() {
    let (space, base) = trained_world();
    let cfg = TentConfig {
        epochs: 2,
        batch_size: 32,
        ..TentConfig::default()
    };
    let (fog, _) = drifted(&space, 64, 1);
    let a = local_tent_round(&base, &fog, &cfg);
    assert_eq!(a.samples, 64);
    // Equal-weight average of a patch with itself is itself.
    let avg = average_patches(&[(a.patch.clone(), 1), (a.patch.clone(), 1)]);
    assert_eq!(avg, a.patch);
}
