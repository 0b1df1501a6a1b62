//! Behaviour pinned across commits.
//!
//! The constants of the four `*_script_is_unchanged` tests were recorded
//! by running [`run_script`] on the per-device-frame exchange (commit
//! 71fd742, the last before a deploy framed each chunk once): the same
//! frame lengths, the same fault draws, the same deliveries in the same
//! order, the same virtual clock. A transport change that moves one of
//! them changed behaviour, not just speed. The four `wire_bytes_up`
//! values alone were re-recorded on the commit after c57c940, where wire
//! protocol v2 shortened the upload frames; nothing else moved.
//!
//! Each script runs twice: once through [`Exchange::deploy`], by id, and
//! once through [`Exchange::deploy_to`], by device index; both must give
//! the recorded outcome.
//!
//! Beside them: the pieces the shared-frame deploy is built from are equal,
//! byte for byte and rejection for rejection, to the general codec they
//! replace on the hot path.

use nazar_data::SimDate;
use nazar_device::UploadedSample;
use nazar_log::{Attribute, RowBatch};
use nazar_net::wire::{self, Message};
use nazar_net::{
    ClientAction, DeployDelivery, DeviceClient, Exchange, LinkConfig, NetConfig, NetReport,
};
use nazar_nn::{BnPatch, MlpResNet, ModelArch};
use nazar_registry::VersionMeta;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const DEVICES: usize = 64;

fn ids() -> Vec<String> {
    (0..DEVICES).map(|i| format!("dev{i:02}")).collect()
}

/// The tiny model's BN state with every running mean set to `mean`, so two
/// patches differ in content and agree in encoded length.
fn patch(mean: f32) -> BnPatch {
    let mut rng = SmallRng::seed_from_u64(0);
    let mut model = MlpResNet::new(ModelArch::tiny(32, 8), &mut rng);
    let mut layers = BnPatch::extract(&mut model).layers().to_vec();
    for layer in &mut layers {
        layer.running_mean = layer.running_mean.map(|_| mean);
    }
    BnPatch::from_layers(layers)
}

fn window(ids: &[String]) -> Vec<(String, RowBatch, Vec<UploadedSample>)> {
    ids.iter()
        .enumerate()
        .map(|(d, id)| {
            // 70 rows: two frames at the default 64-entry batch cap. Their
            // keys are not the device schema's, so each frame is keyed.
            let mut entries = RowBatch::new(&["weather", "device_id"]);
            for t in 0..70u64 {
                entries.push_values(t + d as u64, t % 3 == 0, &["fog", id]);
            }
            let samples = (0..3)
                .map(|s| UploadedSample {
                    features: (0..8).map(|f| (d * 8 + f + s) as f32 * 0.25).collect(),
                    attrs: vec![Attribute::new("weather", "fog")],
                    date: SimDate::new((d % 7) as u16),
                    label: s,
                    true_cause: None,
                })
                .collect();
            (id.clone(), entries, samples)
        })
        .collect()
}

/// Everything the script lets the outside see.
#[derive(Debug, PartialEq)]
struct Observed {
    report: NetReport,
    clock_us: u64,
    rows_delivered: usize,
    samples_delivered: usize,
    /// Per deploy: device numbers in `DeployDelivery::delivered` order.
    delivered: [Vec<usize>; 2],
    /// Per deploy: device numbers in `DeployDelivery::failed` order.
    failed: [Vec<usize>; 2],
}

/// How a script addresses its deploy targets.
#[derive(Debug, Clone, Copy)]
enum Targets {
    /// By id, through [`Exchange::deploy`].
    Ids,
    /// By index in [`Exchange::device_ids`], through
    /// [`Exchange::deploy_to`].
    Indices,
}

/// Runs the script both ways and checks each against `want`.
fn assert_script(cfg: NetConfig, want: &Observed) {
    for targets in [Targets::Ids, Targets::Indices] {
        assert_eq!(&run_script(cfg.clone(), targets), want, "{targets:?}");
    }
}

/// One upload window, then two deploys (a cause version, then the clean
/// one) to the whole fleet, built in reverse id order.
fn run_script(cfg: NetConfig, targets: Targets) -> Observed {
    let ids = ids();
    let number = |id: &str| ids.iter().position(|x| x == id).expect("known id");
    let mut ex = Exchange::new(ids.iter().rev().cloned(), cfg);
    let up = ex.upload_window(window(&ids));

    let versions = [
        (
            VersionMeta::new(vec![Attribute::new("weather", "fog")], 2.5),
            patch(0.25),
        ),
        (VersionMeta::clean(), patch(-1.5)),
    ];
    let mut delivered = [Vec::new(), Vec::new()];
    let mut failed = [Vec::new(), Vec::new()];
    for (i, (meta, patch)) in versions.iter().enumerate() {
        let delivery = match targets {
            Targets::Ids => ex.deploy(&ids, meta, patch),
            Targets::Indices => {
                let index = |id: &String| {
                    let d = ex.device_ids().iter().position(|x| x == id);
                    d.expect("known id") as u32
                };
                let indices: Vec<u32> = ids.iter().map(index).collect();
                let delivery = ex.deploy_to(&indices, meta, patch);
                let id = |d: u32| ex.device_ids()[d as usize].clone();
                DeployDelivery {
                    delivered: (delivery.delivered.into_iter())
                        .map(|(d, meta, patch)| (id(d), meta, patch))
                        .collect(),
                    failed: delivery.failed.into_iter().map(id).collect(),
                    payload_len: delivery.payload_len,
                }
            }
        };
        assert_eq!(
            delivery.payload_len,
            wire::encode_deploy_payload(meta, patch).len()
        );
        for (device, got_meta, got_patch) in &delivery.delivered {
            let (got_meta, got_patch): (&VersionMeta, &BnPatch) = (got_meta, got_patch);
            assert_eq!(got_meta, meta, "meta must survive the wire exactly");
            assert_eq!(got_patch, patch, "patch must survive the wire exactly");
            delivered[i].push(number(device));
        }
        failed[i] = delivery.failed.iter().map(|d| number(d)).collect();
    }
    Observed {
        report: *ex.report(),
        clock_us: ex.clock_us(),
        rows_delivered: up.entries.len(),
        samples_delivered: up.uploads.len(),
        delivered,
        failed,
    }
}

fn perfect_cfg() -> NetConfig {
    NetConfig {
        seed: 2020,
        ..NetConfig::default()
    }
}

/// `fleet_lossy`'s link (benchmark/src/workloads.rs) with many-chunk
/// transfers.
fn lossy_cfg() -> NetConfig {
    NetConfig {
        link: LinkConfig {
            latency_us: 50_000,
            jitter_us: 10_000,
            bandwidth_bps: None,
            loss: 0.2,
            duplicate: 0.05,
            reorder: 0.05,
        },
        chunk_bytes: 64,
        seed: 2020,
        ..NetConfig::default()
    }
}

fn blackout_cfg() -> NetConfig {
    NetConfig {
        link: LinkConfig {
            loss: 1.0,
            ..LinkConfig::perfect()
        },
        max_attempts: 3,
        seed: 2020,
        ..NetConfig::default()
    }
}

/// `lossy_cfg` with a two-attempt budget: some transfers are abandoned,
/// and a few of those still complete from frames already in flight.
fn starved_cfg() -> NetConfig {
    NetConfig {
        max_attempts: 2,
        ..lossy_cfg()
    }
}

fn all_devices() -> Vec<usize> {
    (0..DEVICES).collect()
}

#[test]
fn perfect_link_script_is_unchanged() {
    let want = Observed {
        report: NetReport {
            frames_sent: 512,
            frames_delivered: 512,
            wire_bytes_up: 48_384,
            wire_bytes_down: 114_560,
            ..NetReport::default()
        },
        clock_us: 359_441,
        rows_delivered: 4480,
        samples_delivered: 192,
        delivered: [all_devices(), all_devices()],
        failed: [vec![], vec![]],
    };
    assert_script(perfect_cfg(), &want);
}

#[test]
fn lossy_link_script_is_unchanged() {
    let want = Observed {
        report: NetReport {
            frames_sent: 7434,
            frames_delivered: 6270,
            frames_lost: 1448,
            frames_duplicated: 284,
            frames_reordered: 288,
            wire_bytes_up: 173_486,
            wire_bytes_down: 366_266,
            retries: 132,
            ingest_duplicates: 79,
            chunk_resends: 193,
            ..NetReport::default()
        },
        clock_us: 8_792_278,
        rows_delivered: 4480,
        samples_delivered: 192,
        delivered: [
            vec![
                11, 9, 63, 27, 7, 52, 37, 53, 39, 57, 5, 4, 58, 47, 61, 25, 40, 62, 14, 13, 15, 45,
                59, 36, 42, 1, 23, 20, 12, 29, 44, 51, 17, 43, 2, 3, 50, 10, 31, 54, 33, 28, 19,
                55, 60, 49, 30, 6, 0, 26, 35, 24, 46, 41, 18, 16, 32, 8, 56, 38, 48, 21, 22, 34,
            ],
            vec![
                34, 0, 14, 54, 61, 25, 60, 5, 46, 49, 38, 2, 58, 15, 51, 31, 44, 21, 11, 55, 27,
                13, 20, 39, 8, 1, 16, 12, 50, 42, 48, 57, 43, 6, 36, 47, 29, 22, 62, 4, 59, 30, 17,
                53, 3, 40, 63, 52, 19, 32, 23, 10, 26, 45, 28, 24, 7, 37, 56, 35, 18, 41, 9, 33,
            ],
        ],
        failed: [vec![], vec![]],
    };
    assert_script(lossy_cfg(), &want);
}

#[test]
fn blackout_script_is_unchanged() {
    let want = Observed {
        report: NetReport {
            frames_sent: 768,
            frames_lost: 768,
            wire_bytes_up: 135_168,
            wire_bytes_down: 335_232,
            retries: 256,
            upload_failures: 128,
            chunk_resends: 256,
            deploy_failures: 128,
            ..NetReport::default()
        },
        clock_us: 2_449_346,
        rows_delivered: 0,
        samples_delivered: 0,
        delivered: [vec![], vec![]],
        failed: [all_devices(), all_devices()],
    };
    assert_script(blackout_cfg(), &want);
}

#[test]
fn starved_retry_script_is_unchanged() {
    let want = Observed {
        report: NetReport {
            frames_sent: 6405,
            frames_delivered: 5367,
            frames_lost: 1274,
            frames_duplicated: 236,
            frames_reordered: 255,
            wire_bytes_up: 150_318,
            wire_bytes_down: 316_950,
            retries: 98,
            upload_failures: 26,
            ingest_duplicates: 57,
            chunk_resends: 125,
            // Two more than the `failed` lists hold: abandoned transfers
            // that a frame already in flight completed afterwards.
            deploy_failures: 49,
            ..NetReport::default()
        },
        clock_us: 1_459_598,
        rows_delivered: 4090,
        samples_delivered: 174,
        delivered: [
            vec![
                11, 53, 37, 20, 23, 44, 43, 61, 49, 47, 58, 39, 50, 40, 7, 0, 17, 15, 25, 5, 42,
                62, 4, 12, 8, 13, 63, 51, 26, 9, 34, 18, 27, 2, 3, 10, 45, 35, 19,
            ],
            vec![
                46, 44, 18, 7, 41, 20, 10, 55, 58, 42, 54, 29, 60, 0, 16, 1, 50, 49, 12, 21, 24,
                15, 35, 25, 51, 11, 43, 6, 39, 48, 32, 34, 57, 8, 40, 13, 5, 2, 14, 22, 47, 19,
            ],
        ],
        failed: [
            vec![
                1, 6, 14, 16, 21, 22, 24, 28, 29, 30, 31, 32, 33, 36, 38, 41, 46, 48, 52, 54, 55,
                56, 57, 59, 60,
            ],
            vec![
                3, 4, 9, 17, 23, 26, 27, 28, 30, 31, 33, 36, 37, 38, 45, 52, 53, 56, 59, 61, 62, 63,
            ],
        ],
    };
    assert_script(starved_cfg(), &want);
}

// -- the pieces of the shared-frame deploy ----------------------------------

fn chunk_message() -> Message {
    Message::DeployChunk {
        transfer_id: 0x0102_0304_0506_0708,
        offset: 128,
        total_len: 1000,
        data: (0..61u8).collect(),
    }
}

#[test]
fn once_framed_chunk_equals_the_general_encoder_and_the_documented_layout() {
    let Message::DeployChunk {
        transfer_id,
        offset,
        total_len,
        data,
    } = chunk_message()
    else {
        unreachable!()
    };
    let frame = wire::encode_deploy_chunk(transfer_id, offset, total_len, &data);
    assert_eq!(frame, wire::encode_frame(&chunk_message()));

    let mut by_hand = Vec::new();
    by_hand.extend_from_slice(b"NZRF");
    by_hand.push(2); // protocol version
    by_hand.push(3); // DeployChunk
    by_hand.extend_from_slice(&(20 + data.len() as u32).to_le_bytes());
    by_hand.extend_from_slice(&transfer_id.to_le_bytes());
    by_hand.extend_from_slice(&offset.to_le_bytes());
    by_hand.extend_from_slice(&total_len.to_le_bytes());
    by_hand.extend_from_slice(&(data.len() as u32).to_le_bytes());
    by_hand.extend_from_slice(&data);
    let crc = wire::crc32(&by_hand[4..]);
    by_hand.extend_from_slice(&crc.to_le_bytes());
    assert_eq!(frame, by_hand);
}

/// The client's borrowed path over a chunk frame.
fn parse_borrowed(bytes: &[u8]) -> nazar_net::Result<Message> {
    let (msg_type, payload) = wire::open_frame(bytes)?;
    if msg_type != wire::TYPE_DEPLOY_CHUNK {
        return wire::decode_message(msg_type, payload);
    }
    let chunk = wire::parse_deploy_chunk(payload)?;
    Ok(Message::DeployChunk {
        transfer_id: chunk.transfer_id,
        offset: chunk.offset,
        total_len: chunk.total_len,
        data: chunk.data.to_vec(),
    })
}

#[test]
fn borrowed_chunk_parser_rejects_what_decode_frame_rejects() {
    let clean = wire::encode_frame(&chunk_message());
    assert_eq!(parse_borrowed(&clean), Ok(chunk_message()));
    for i in 0..clean.len() {
        for bit in 0..8 {
            let mut bad = clean.clone();
            bad[i] ^= 1 << bit;
            let owned = wire::decode_frame(&bad);
            assert!(owned.is_err(), "flip of bit {bit} at byte {i} accepted");
            assert_eq!(parse_borrowed(&bad), owned);
        }
    }
    for cut in 0..clean.len() {
        let owned = wire::decode_frame(&clean[..cut]);
        assert!(owned.is_err(), "truncation to {cut} bytes accepted");
        assert_eq!(parse_borrowed(&clean[..cut]), owned);
    }
    // A payload that lies about its chunk length, under a valid CRC.
    let mut forged = clean[..clean.len() - 4].to_vec();
    forged[10 + 16] ^= 0x01;
    let crc = wire::crc32(&forged[4..]);
    forged.extend_from_slice(&crc.to_le_bytes());
    let owned = wire::decode_frame(&forged);
    assert!(owned.is_err());
    assert_eq!(parse_borrowed(&forged), owned);
}

/// Feeds `payload` to `client` as 64-byte chunks of transfer 7.
fn download(
    client: &mut DeviceClient,
    memo: &mut nazar_net::DecodeMemo,
    payload: &[u8],
) -> nazar_net::Result<ClientAction> {
    let mut last = Ok(ClientAction::None);
    for (i, data) in payload.chunks(64).enumerate() {
        let frame = wire::encode_deploy_chunk(7, i as u32 * 64, payload.len() as u32, data);
        last = client.on_frame(&frame, memo);
    }
    last
}

#[test]
fn decode_memo_is_keyed_by_the_reassembled_bytes() {
    let meta = VersionMeta::new(vec![Attribute::new("weather", "fog")], 2.5);
    let (first, other) = (patch(0.25), patch(-1.5));
    let payload = wire::encode_deploy_payload(&meta, &first);
    let other_payload = wire::encode_deploy_payload(&meta, &other);
    assert_ne!(payload, other_payload);
    let mut memo = nazar_net::DecodeMemo::default();
    let installed = |action| match action {
        Ok(ClientAction::InstallPatch { meta, patch, .. }) => (meta, patch),
        other => panic!("transfer must complete, got {other:?}"),
    };

    let (meta_a, patch_a) = installed(download(&mut DeviceClient::new("a"), &mut memo, &payload));
    let (meta_b, patch_b) = installed(download(&mut DeviceClient::new("b"), &mut memo, &payload));
    assert_eq!((&*meta_a, &*patch_a), (&meta, &first));
    assert!(
        std::sync::Arc::ptr_eq(&meta_a, &meta_b) && std::sync::Arc::ptr_eq(&patch_a, &patch_b),
        "equal bytes share one decoded version"
    );

    // Different bytes under the same transfer id decode on their own.
    let (_, patch_c) = installed(download(
        &mut DeviceClient::new("c"),
        &mut memo,
        &other_payload,
    ));
    assert_eq!(&*patch_c, &other);

    // A buffer that does not decode is this client's error — the exchange
    // counts it in `decode_errors` — and leaves the memo usable.
    let mut corrupt = payload.clone();
    let cut = corrupt.len() - 3;
    corrupt.truncate(cut);
    assert!(download(&mut DeviceClient::new("d"), &mut memo, &corrupt).is_err());
    let (_, patch_e) = installed(download(&mut DeviceClient::new("e"), &mut memo, &payload));
    assert_eq!(&*patch_e, &first);
}
