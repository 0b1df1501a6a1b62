//! Deterministic end-to-end tests of the exchange under injected faults:
//! retries recover lossy uploads, chunked deploys resume through loss, and
//! failed or unknown targets are reported.
//!
//! The `*_phases_are_unchanged` scripts pin where each upload and deploy
//! phase ends: the virtual clock, the cumulative `NetReport`, the rows
//! delivered (count and digest) or the devices delivered and failed. They
//! were recorded by running [`run_phases`] at commit a9efff0, whose phases
//! popped every event — retry timers of settled frames and transfers
//! included — off a binary heap. A phase that stops once nothing is live
//! and nothing is in flight must leave all of it where that full drain
//! did: over a perfect link, 20 % loss, duplication and reordering (with
//! latency, and at zero latency under an overflowing outbox), a bandwidth
//! cap and a one-attempt budget.

use nazar_data::SimDate;
use nazar_device::{UploadedSample, LOG_SCHEMA};
use nazar_log::{Attribute, RowBatch};
use nazar_net::exchange::Exchange;
use nazar_net::{LinkConfig, NetConfig, NetReport};
use nazar_nn::{BnPatch, MlpResNet, ModelArch};
use nazar_registry::VersionMeta;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use Outcome::{Deploy, Upload};

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

/// What one phase of [`run_phases`] leaves visible.
#[derive(Debug, PartialEq)]
struct Phase {
    clock_us: u64,
    /// The cumulative [`NetReport`] in field order (see [`counts`]).
    counts: [u64; 14],
    outcome: Outcome,
}

#[derive(Debug, PartialEq)]
enum Outcome {
    /// Rows and samples delivered, and an FNV-1a digest of both, in order.
    Upload {
        rows: usize,
        samples: usize,
        digest: u64,
    },
    /// Device indices delivered, in delivery order, and failed.
    Deploy {
        delivered: Vec<u32>,
        failed: Vec<u32>,
    },
}

/// `report`'s fields in declaration order.
fn counts(r: &NetReport) -> [u64; 14] {
    [
        r.frames_sent,
        r.frames_delivered,
        r.frames_lost,
        r.frames_duplicated,
        r.frames_reordered,
        r.wire_bytes_up,
        r.wire_bytes_down,
        r.retries,
        r.outbox_dropped,
        r.upload_failures,
        r.ingest_duplicates,
        r.decode_errors,
        r.chunk_resends,
        r.deploy_failures,
    ]
}

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

const PHASE_DEVICES: usize = 10;

/// Window `w` of the scripted fleet: device `d` sends up to 149 rows over
/// [`LOG_SCHEMA`] (device 3 none) and `d % 4` samples; `big` gives device
/// 5 enough rows to overflow its outbox.
fn phase_window(ids: &[String], w: u64, big: bool) -> Vec<(String, RowBatch, Vec<UploadedSample>)> {
    const WEATHERS: [&str; 3] = ["fog", "snow", "clear"];
    ids.iter()
        .enumerate()
        .map(|(d, id)| {
            let n = match d {
                3 => 0,
                5 if big => 17_000,
                _ => (d as u64 * 37 + w * 11) % 150,
            };
            let mut rows = RowBatch::new(&LOG_SCHEMA);
            for t in 0..n {
                let weather = WEATHERS[((t + w) % 3) as usize];
                rows.push_values(
                    w * 100_000 + t,
                    (t + d as u64).is_multiple_of(4),
                    &[weather, "oslo", id],
                );
            }
            let samples = (0..d % 4)
                .map(|s| UploadedSample {
                    features: vec![d as f32 + s as f32 * 0.5, w as f32],
                    attrs: vec![Attribute::new("weather", WEATHERS[s % 3])],
                    date: SimDate::new(w as u16),
                    label: s,
                    true_cause: None,
                })
                .collect();
            (id.clone(), rows, samples)
        })
        .collect()
}

/// Two rounds of an upload window and a deploy — the first to the whole
/// fleet, the second to three devices and one index past it — observed
/// after each phase.
fn run_phases(cfg: NetConfig, big: bool) -> Vec<Phase> {
    let ids: Vec<String> = (0..PHASE_DEVICES).map(|i| format!("dev{i}")).collect();
    let mut ex = Exchange::new(ids.iter().cloned(), cfg);
    let (meta, patch) = test_patch();
    let targets: [Vec<u32>; 2] = [
        (0..PHASE_DEVICES as u32).collect(),
        vec![7, 1, 4, PHASE_DEVICES as u32],
    ];
    let mut phases = Vec::new();
    for (w, targets) in targets.iter().enumerate() {
        let up = ex.upload_window(phase_window(&ids, w as u64, big && w == 0));
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for entry in &up.entries {
            fnv(&mut digest, format!("{entry:?}").as_bytes());
        }
        for sample in &up.uploads {
            fnv(&mut digest, format!("{sample:?}").as_bytes());
        }
        phases.push(Phase {
            clock_us: ex.clock_us(),
            counts: counts(ex.report()),
            outcome: Outcome::Upload {
                rows: up.entries.len(),
                samples: up.uploads.len(),
                digest,
            },
        });
        let delivery = ex.deploy_to(targets, &meta, &patch);
        phases.push(Phase {
            clock_us: ex.clock_us(),
            counts: counts(ex.report()),
            outcome: Outcome::Deploy {
                delivered: delivery.delivered.iter().map(|d| d.0).collect(),
                failed: delivery.failed,
            },
        });
    }
    phases
}

fn phase_link(link: LinkConfig, chunk_bytes: usize) -> NetConfig {
    NetConfig {
        link,
        chunk_bytes,
        seed: 2020,
        ..NetConfig::default()
    }
}

fn perfect_phases() -> NetConfig {
    phase_link(LinkConfig::perfect(), 4096)
}

fn lossy_phases() -> NetConfig {
    phase_link(
        LinkConfig {
            latency_us: 50_000,
            jitter_us: 10_000,
            loss: 0.2,
            ..LinkConfig::perfect()
        },
        64,
    )
}

/// A duplicate or reordered copy often lands after the last frame of a
/// phase is acknowledged: the phase must go on popping deliveries after
/// nothing is live.
fn dup_reorder_phases() -> NetConfig {
    phase_link(
        LinkConfig {
            latency_us: 20_000,
            jitter_us: 5_000,
            duplicate: 0.3,
            reorder: 0.3,
            ..LinkConfig::perfect()
        },
        256,
    )
}

/// No latency: each first copy arrives when it is sent, a duplicate or a
/// reordered copy later.
fn instant_dup_reorder_phases() -> NetConfig {
    phase_link(
        LinkConfig {
            duplicate: 0.3,
            reorder: 0.3,
            ..LinkConfig::perfect()
        },
        256,
    )
}

fn bandwidth_phases() -> NetConfig {
    phase_link(
        LinkConfig {
            latency_us: 5_000,
            bandwidth_bps: Some(200_000),
            ..LinkConfig::perfect()
        },
        512,
    )
}

/// One attempt: every lost upload frame is given up, every transfer that
/// loses a frame fails.
fn one_attempt_phases() -> NetConfig {
    NetConfig {
        max_attempts: 1,
        ..lossy_phases()
    }
}

#[test]
fn perfect_link_phases_are_unchanged() {
    let want = [
        Phase {
            clock_us: 119373,
            counts: [32, 32, 0, 0, 0, 5537, 352, 0, 0, 0, 0, 0, 0, 0],
            outcome: Upload {
                rows: 654,
                samples: 13,
                digest: 5411821449955668735,
            },
        },
        Phase {
            clock_us: 238984,
            counts: [52, 52, 0, 0, 0, 5797, 9172, 0, 0, 0, 0, 0, 0, 0],
            outcome: Deploy {
                delivered: vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
                failed: vec![],
            },
        },
        Phase {
            clock_us: 358255,
            counts: [78, 78, 0, 0, 0, 10351, 9458, 0, 0, 0, 0, 0, 0, 0],
            outcome: Upload {
                rows: 453,
                samples: 13,
                digest: 15730050319254250306,
            },
        },
        Phase {
            clock_us: 472690,
            counts: [84, 84, 0, 0, 0, 10429, 12104, 0, 0, 0, 0, 0, 0, 1],
            outcome: Deploy {
                delivered: vec![1, 4, 7],
                failed: vec![10],
            },
        },
    ];
    assert_eq!(run_phases(perfect_phases(), false), want);
}

#[test]
fn lossy_link_phases_are_unchanged() {
    let want = [
        Phase {
            clock_us: 770834,
            counts: [52, 42, 10, 0, 0, 10483, 528, 12, 0, 0, 8, 0, 0, 0],
            outcome: Upload {
                rows: 654,
                samples: 13,
                digest: 5411821449955668735,
            },
        },
        Phase {
            clock_us: 2428975,
            counts: [645, 499, 146, 0, 0, 17347, 31474, 12, 0, 0, 8, 0, 17, 0],
            outcome: Deploy {
                delivered: vec![9, 8, 0, 4, 6, 2, 1, 7, 3, 5],
                failed: vec![],
            },
        },
        Phase {
            clock_us: 5805447,
            counts: [685, 531, 154, 0, 0, 24455, 31848, 22, 0, 0, 12, 0, 17, 0],
            outcome: Upload {
                rows: 453,
                samples: 13,
                digest: 15730050319254250306,
            },
        },
        Phase {
            clock_us: 6132885,
            counts: [830, 644, 186, 0, 0, 26171, 39302, 22, 0, 0, 12, 0, 20, 1],
            outcome: Deploy {
                delivered: vec![7, 4, 1],
                failed: vec![10],
            },
        },
    ];
    assert_eq!(run_phases(lossy_phases(), false), want);
}

#[test]
fn duplicating_reordering_link_phases_are_unchanged() {
    let want = [
        Phase {
            clock_us: 344182,
            counts: [39, 50, 0, 11, 13, 6636, 462, 2, 0, 0, 5, 0, 0, 0],
            outcome: Upload {
                rows: 654,
                samples: 13,
                digest: 5411821449955668735,
            },
        },
        Phase {
            clock_us: 559358,
            counts: [132, 173, 0, 41, 40, 8014, 10302, 2, 0, 0, 5, 0, 0, 0],
            outcome: Deploy {
                delivered: vec![4, 3, 8, 7, 0, 9, 2, 1, 5, 6],
                failed: vec![],
            },
        },
        Phase {
            clock_us: 898673,
            counts: [166, 221, 0, 55, 52, 12649, 10742, 3, 0, 0, 12, 0, 0, 0],
            outcome: Upload {
                rows: 453,
                samples: 13,
                digest: 15730050319254250306,
            },
        },
        Phase {
            clock_us: 1018118,
            counts: [195, 260, 0, 65, 60, 13091, 13694, 3, 0, 0, 12, 0, 0, 1],
            outcome: Deploy {
                delivered: vec![7, 4, 1],
                failed: vec![10],
            },
        },
    ];
    assert_eq!(run_phases(dup_reorder_phases(), false), want);
}

#[test]
fn bandwidth_capped_link_phases_are_unchanged() {
    let want = [
        Phase {
            clock_us: 119373,
            counts: [32, 32, 0, 0, 0, 5537, 352, 0, 0, 0, 0, 0, 0, 0],
            outcome: Upload {
                rows: 654,
                samples: 13,
                digest: 5411821449955668735,
            },
        },
        Phase {
            clock_us: 238984,
            counts: [72, 72, 0, 0, 0, 6057, 9512, 0, 0, 0, 0, 0, 0, 0],
            outcome: Deploy {
                delivered: vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
                failed: vec![],
            },
        },
        Phase {
            clock_us: 358255,
            counts: [98, 98, 0, 0, 0, 10611, 9798, 0, 0, 0, 0, 0, 0, 0],
            outcome: Upload {
                rows: 453,
                samples: 13,
                digest: 15730050319254250306,
            },
        },
        Phase {
            clock_us: 472690,
            counts: [110, 110, 0, 0, 0, 10767, 12546, 0, 0, 0, 0, 0, 0, 1],
            outcome: Deploy {
                delivered: vec![1, 4, 7],
                failed: vec![10],
            },
        },
    ];
    assert_eq!(run_phases(bandwidth_phases(), false), want);
}

#[test]
fn one_attempt_phases_are_unchanged() {
    let want = [
        Phase {
            clock_us: 119373,
            counts: [28, 22, 6, 0, 0, 5537, 264, 0, 0, 11, 0, 0, 0, 0],
            outcome: Upload {
                rows: 473,
                samples: 10,
                digest: 9841524215824341684,
            },
        },
        Phase {
            clock_us: 238984,
            counts: [281, 217, 64, 0, 0, 8475, 13504, 0, 0, 11, 0, 0, 0, 10],
            outcome: Deploy {
                delivered: vec![],
                failed: vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
            },
        },
        Phase {
            clock_us: 358255,
            counts: [301, 228, 73, 0, 0, 13029, 13658, 0, 0, 23, 0, 0, 0, 10],
            outcome: Upload {
                rows: 254,
                samples: 7,
                digest: 5014782484642518214,
            },
        },
        Phase {
            clock_us: 477820,
            counts: [376, 286, 90, 0, 0, 13887, 17630, 0, 0, 23, 0, 0, 0, 14],
            outcome: Deploy {
                delivered: vec![],
                failed: vec![1, 4, 7, 10],
            },
        },
    ];
    assert_eq!(run_phases(one_attempt_phases(), false), want);
}

#[test]
fn outbox_overflow_phases_are_unchanged() {
    let want = [
        Phase {
            clock_us: 119998,
            counts: [624, 822, 0, 198, 175, 98603, 7766, 0, 10, 0, 82, 0, 0, 0],
            outcome: Upload {
                rows: 16979,
                samples: 12,
                digest: 8721025764291136040,
            },
        },
        Phase {
            clock_us: 239995,
            counts: [722, 953, 0, 231, 199, 100111, 17606, 0, 10, 0, 82, 0, 0, 0],
            outcome: Deploy {
                delivered: vec![0, 5, 9, 3, 2, 7, 1, 8, 6, 4],
                failed: vec![],
            },
        },
        Phase {
            clock_us: 359291,
            counts: [752, 993, 0, 241, 207, 104666, 17980, 0, 10, 0, 86, 0, 0, 0],
            outcome: Upload {
                rows: 453,
                samples: 13,
                digest: 15730050319254250306,
            },
        },
        Phase {
            clock_us: 475857,
            counts: [782, 1037, 0, 255, 210, 105134, 20932, 0, 10, 0, 86, 0, 0, 1],
            outcome: Deploy {
                delivered: vec![1, 7, 4],
                failed: vec![10],
            },
        },
    ];
    assert_eq!(run_phases(instant_dup_reorder_phases(), true), want);
}
