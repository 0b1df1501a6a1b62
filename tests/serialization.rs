//! Serialization round trips across crate boundaries — the artifacts Nazar
//! ships between cloud and devices (models, BN patches, model pools,
//! configurations) must survive serde. The drift log has no serde form:
//! its durable form is the chunk store (`nazar-store`).

use nazar::prelude::*;
use nazar_net::NetConfig;
use nazar_store::StoreConfig;
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[test]
fn model_round_trip_preserves_inference() {
    let mut rng = SmallRng::seed_from_u64(1);
    let mut model = MlpResNet::new(ModelArch::resnet18_analog(16, 5), &mut rng);
    let x = Tensor::randn(&mut rng, &[3, 16], 0.0, 1.0);
    let before = model.logits(&x, nazar::nn::Mode::Eval);
    let json = serde_json::to_string(&model).expect("serialize model");
    let mut back: MlpResNet = serde_json::from_str(&json).expect("deserialize model");
    assert!(back
        .logits(&x, nazar::nn::Mode::Eval)
        .approx_eq(&before, 1e-6));
}

#[test]
fn bn_patch_round_trip() {
    let mut rng = SmallRng::seed_from_u64(2);
    let mut model = MlpResNet::new(ModelArch::tiny(8, 3), &mut rng);
    let patch = BnPatch::extract(&mut model);
    let json = serde_json::to_string(&patch).expect("serialize patch");
    let back: BnPatch = serde_json::from_str(&json).expect("deserialize patch");
    assert_eq!(back, patch);
}

#[test]
fn configs_round_trip() {
    let cloud = CloudConfig::default();
    let json = serde_json::to_string(&cloud).expect("serialize config");
    let back: CloudConfig = serde_json::from_str(&json).expect("deserialize config");
    assert_eq!(back, cloud);

    let animals = AnimalsConfig::default();
    let json = serde_json::to_string(&animals).expect("serialize config");
    let back: AnimalsConfig = serde_json::from_str(&json).expect("deserialize config");
    assert_eq!(back, animals);
}

/// Config files written while `StoreConfig` had a `codec` field (each
/// value picked the dict-code codec) still load, the key ignored: the
/// store writes the smaller of bitpack and RLE, as `"Auto"` did. Both a
/// bare `StoreConfig` and a `CloudConfig` whose `persist` carries one.
#[test]
fn configs_with_the_removed_codec_key_still_load() {
    for (json, want) in [
        (
            r#"{"dir":null,"chunk_rows":8192,"cache_chunks":8,"codec":"Auto"}"#,
            StoreConfig::default(),
        ),
        (
            r#"{"dir":"/tmp/x","chunk_rows":8192,"cache_chunks":8,"codec":"Rle"}"#,
            StoreConfig::at("/tmp/x"),
        ),
    ] {
        let back: StoreConfig = serde_json::from_str(json).expect("unknown keys ignored");
        assert_eq!(back, want, "{json}");
    }
    let cloud = CloudConfig {
        persist: Some(StoreConfig::at("/tmp/x")),
        ..CloudConfig::default()
    };
    let json = serde_json::to_string(&cloud).expect("serialize config");
    let old = json.replacen(
        r#""cache_chunks":8}"#,
        r#""cache_chunks":8,"codec":"Rle"}"#,
        1,
    );
    assert_ne!(old, json, "persist serializes with cache_chunks last");
    let back: CloudConfig = serde_json::from_str(&old).expect("unknown keys ignored");
    assert_eq!(back, cloud);
}

/// Config files written while `NetConfig` had a `retry` policy, outbox
/// and batch bounds and a straggler cutoff still load, those keys ignored:
/// the backoff, outbox and batch values are constants at their old
/// defaults, and the cutoff is gone. An old `retry.max_attempts` is ignored
/// as well: such a file has no top-level `max_attempts`, so the default of
/// 6 applies.
#[test]
fn configs_with_the_removed_net_keys_still_load() {
    let cloud = CloudConfig {
        net: Some(NetConfig {
            chunk_bytes: 64,
            seed: 7,
            ..NetConfig::default()
        }),
        ..CloudConfig::default()
    };
    let json = serde_json::to_string(&cloud).expect("serialize config");
    let old = json.replacen(
        r#""max_attempts":6,"chunk_bytes":64,"#,
        concat!(
            r#""retry":{"max_attempts":3,"base_us":50000,"max_us":800000,"jitter_frac":0.0},"#,
            r#""outbox_frames":8,"max_batch_entries":10,"max_batch_samples":4,"#,
            r#""chunk_bytes":64,"straggler_cutoff_us":250000,"#,
        ),
        1,
    );
    assert_ne!(old, json, "net serializes max_attempts before chunk_bytes");
    let back: CloudConfig = serde_json::from_str(&old).expect("unknown keys ignored");
    assert_eq!(back, cloud);
    assert_eq!(back.net.map(|net| net.max_attempts), Some(6));
}

#[test]
fn model_pool_round_trip() {
    let mut pool: ModelPool<String> = ModelPool::new(Some(4));
    pool.deploy(
        VersionMeta::new(vec![Attribute::new("weather", "snow")], 3.0),
        "patch-1".to_string(),
    );
    let json = serde_json::to_string(&pool).expect("serialize pool");
    let back: ModelPool<String> = serde_json::from_str(&json).expect("deserialize pool");
    assert_eq!(back.len(), 1);
    assert_eq!(
        back.select(&[Attribute::new("weather", "snow")])
            .map(|v| v.payload.clone()),
        Some("patch-1".to_string())
    );
}

#[test]
fn dataset_round_trip_is_stable() {
    let cfg = AnimalsConfig {
        devices_per_location: 1,
        ..AnimalsConfig::small()
    };
    let dataset = AnimalsDataset::generate(&cfg);
    let json = serde_json::to_string(&dataset).expect("serialize dataset");
    let back: AnimalsDataset = serde_json::from_str(&json).expect("deserialize dataset");
    assert_eq!(back.stream_len(), dataset.stream_len());
    assert_eq!(back.train, dataset.train);
}
