//! Deterministic end-to-end tests of the exchange under injected faults:
//! retries recover lossy uploads, chunked deploys resume through loss, and
//! failed or unknown targets are reported.

use nazar_log::RowBatch;
use nazar_net::exchange::Exchange;
use nazar_net::{LinkConfig, NetConfig};
use nazar_nn::{BnPatch, MlpResNet, ModelArch};
use nazar_registry::VersionMeta;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// `n` one-key rows, timestamps `0..n`.
fn rows(n: u64) -> RowBatch {
    let mut rows = RowBatch::new(&["weather"]);
    for ts in 0..n {
        rows.push_values(ts, ts.is_multiple_of(2), &["fog"]);
    }
    rows
}

fn lossy(loss: f64) -> NetConfig {
    NetConfig {
        link: LinkConfig {
            latency_us: 50_000,
            jitter_us: 10_000,
            loss,
            duplicate: 0.05,
            reorder: 0.05,
            ..LinkConfig::perfect()
        },
        seed: 42,
        ..NetConfig::default()
    }
}

fn test_patch() -> (VersionMeta, BnPatch) {
    let mut rng = SmallRng::seed_from_u64(0);
    let mut model = MlpResNet::new(ModelArch::tiny(32, 8), &mut rng);
    let patch = BnPatch::extract(&mut model);
    let meta = VersionMeta::new(vec![nazar_log::Attribute::new("weather", "fog")], 2.5);
    (meta, patch)
}

#[test]
fn retries_recover_uploads_through_twenty_percent_loss() {
    let ids: Vec<String> = (0..4).map(|i| format!("dev{i}")).collect();
    let mut ex = Exchange::new(ids.iter().cloned(), lossy(0.2));
    let batches: Vec<(String, RowBatch, Vec<_>)> = ids
        .iter()
        .map(|id| (id.clone(), rows(100), vec![]))
        .collect();
    let sent: usize = batches.iter().map(|(_, e, _)| e.len()).sum();
    let delivery = ex.upload_window(batches);
    assert_eq!(
        delivery.entries.len(),
        sent,
        "bounded retry must recover every batch at 20% loss (report: {:?})",
        ex.report()
    );
    let r = ex.report();
    assert!(r.frames_lost > 0, "the loss model must actually fire");
    assert!(r.retries > 0, "recovery must come from retransmissions");
    assert_eq!(r.upload_failures, 0);
}

#[test]
fn chunked_deploy_resumes_through_loss_and_installs_exact_payload() {
    let ids: Vec<String> = (0..3).map(|i| format!("dev{i}")).collect();
    let mut cfg = lossy(0.2);
    cfg.chunk_bytes = 64; // force a many-chunk transfer
    let mut ex = Exchange::new(ids.iter().cloned(), cfg);
    let (meta, patch) = test_patch();
    let delivery = ex.deploy(&ids, &meta, &patch);
    assert_eq!(
        delivery.delivered.len(),
        ids.len(),
        "all transfers must complete (failed: {:?}, report: {:?})",
        delivery.failed,
        ex.report()
    );
    for (_, got_meta, got_patch) in &delivery.delivered {
        assert_eq!(**got_meta, meta, "meta must survive the wire bit-exactly");
        assert_eq!(
            **got_patch, patch,
            "patch must survive the wire bit-exactly"
        );
    }
    assert!(
        delivery.payload_len > 2 * 64,
        "test must exercise multiple chunks"
    );
    assert!(ex.report().chunk_resends > 0, "loss must force resends");
}

#[test]
fn total_deploy_loss_reports_failed_devices() {
    let ids: Vec<String> = vec!["dev0".into()];
    let cfg = NetConfig {
        link: LinkConfig {
            loss: 1.0,
            ..LinkConfig::perfect()
        },
        seed: 3,
        ..NetConfig::default()
    };
    let mut ex = Exchange::new(ids.iter().cloned(), cfg);
    let (meta, patch) = test_patch();
    let delivery = ex.deploy(&ids, &meta, &patch);
    assert!(delivery.delivered.is_empty());
    assert_eq!(delivery.failed, ids);
    assert_eq!(ex.report().deploy_failures, 1);
}

#[test]
fn unknown_target_fails_without_a_panic_or_a_frame() {
    let ids: Vec<String> = (0..3).map(|i| format!("dev{i}")).collect();
    let mut ex = Exchange::new(ids.iter().cloned(), NetConfig::default());
    let (meta, patch) = test_patch();
    let targets = vec![
        "dev1".to_string(),
        "ghost".to_string(),
        "dev0".to_string(),
        "aaa-also-unknown".to_string(),
    ];
    let delivery = ex.deploy(&targets, &meta, &patch);
    let delivered: Vec<&str> = delivery
        .delivered
        .iter()
        .map(|(d, _, _)| d.as_str())
        .collect();
    assert_eq!(delivered, ["dev0", "dev1"]);
    assert_eq!(delivery.failed, ["aaa-also-unknown", "ghost"]);
    let r = ex.report();
    assert_eq!(r.deploy_failures, 2);
    // One chunk down and one ack up per known target, nothing for the rest.
    assert_eq!(r.frames_sent, 4);
}

#[test]
fn a_target_named_twice_gets_one_transfer() {
    let ids: Vec<String> = (0..2).map(|i| format!("dev{i}")).collect();
    let (meta, patch) = test_patch();
    let mut once = Exchange::new(ids.iter().cloned(), lossy(0.2));
    let want = once.deploy(&ids, &meta, &patch);

    let mut twice = Exchange::new(ids.iter().cloned(), lossy(0.2));
    let doubled: Vec<String> = ids.iter().chain(ids.iter()).cloned().collect();
    let got = twice.deploy(&doubled, &meta, &patch);
    let names = |d: &nazar_net::DeployDelivery| -> Vec<String> {
        d.delivered.iter().map(|(id, _, _)| id.clone()).collect()
    };
    assert_eq!(names(&got), names(&want));
    assert_eq!(got.delivered.len(), ids.len(), "one install per device");
    assert_eq!(got.failed, want.failed);
    assert_eq!(twice.report(), once.report());
    assert_eq!(twice.clock_us(), once.clock_us());
}

#[test]
fn deploy_to_sorts_and_dedups_indices_and_fails_one_past_the_fleet() {
    let ids: Vec<String> = (0..3).map(|i| format!("dev{i}")).collect();
    let (meta, patch) = test_patch();
    let mut by_id = Exchange::new(ids.iter().cloned(), lossy(0.2));
    let want = by_id.deploy(
        &["dev2".into(), "dev0".into(), "dev2".into()],
        &meta,
        &patch,
    );

    let mut by_index = Exchange::new(ids.iter().cloned(), lossy(0.2));
    let got = by_index.deploy_to(&[2, 0, 2], &meta, &patch);
    let named: Vec<&str> = got
        .delivered
        .iter()
        .map(|(d, _, _)| by_index.device_ids()[*d as usize].as_str())
        .collect();
    let want_named: Vec<&str> = want.delivered.iter().map(|(d, _, _)| d.as_str()).collect();
    assert_eq!(named, want_named);
    assert_eq!(by_index.report(), by_id.report());
    assert_eq!(by_index.clock_us(), by_id.clock_us());

    // An index past the fleet is a failed target that costs no frame.
    let mut ex = Exchange::new(ids.iter().cloned(), NetConfig::default());
    let delivery = ex.deploy_to(&[1, 3], &meta, &patch);
    let delivered: Vec<u32> = delivery.delivered.iter().map(|(d, _, _)| *d).collect();
    assert_eq!(delivered, [1]);
    assert_eq!(delivery.failed, [3]);
    assert_eq!(ex.report().deploy_failures, 1);
    assert_eq!(ex.report().frames_sent, 2);
}
