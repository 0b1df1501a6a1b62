//! Property-based tests of the wire protocol and the transport fabric:
//! round trips are exact, ingest is idempotent under duplication and
//! reordering, and the whole exchange is deterministic per seed.

use nazar_data::{Corruption, SimDate};
use nazar_device::UploadedSample;
use nazar_log::{Attribute, DriftLogEntry, RowBatch};
use nazar_net::exchange::Exchange;
use nazar_net::{IngestServer, LinkConfig, Message, NetConfig};
use proptest::prelude::*;

static KEYS: [&str; 3] = ["weather", "location", "device_id"];
const VALUES: [&str; 4] = ["snow", "rain", "quebec", "dev03"];

fn entry_from(ts: u64, k: usize, v: usize, drift: bool) -> DriftLogEntry {
    DriftLogEntry::new(ts, &[(KEYS[k % 3], VALUES[v % 4])], drift)
}

/// The rows `entry_from(t, i, i, drift(t))` builds for `t` in `0..n`, as
/// one coded batch.
fn rows_from(i: usize, n: u64, drift: impl Fn(u64) -> bool) -> RowBatch {
    let k = i % 3;
    let mut rows = RowBatch::new(&KEYS[k..=k]);
    for t in 0..n {
        rows.push_values(t, drift(t), &[VALUES[i % 4]]);
    }
    rows
}

fn sample_from(feats: Vec<f32>, day: u16, label: usize, cause: usize) -> UploadedSample {
    UploadedSample {
        features: feats,
        attrs: vec![Attribute::new(KEYS[label % 3], VALUES[cause % 4])],
        date: SimDate::new(day % SimDate::TOTAL_DAYS),
        label,
        true_cause: if cause.is_multiple_of(3) {
            None
        } else {
            Some(Corruption::ALL[cause % Corruption::ALL.len()])
        },
    }
}

/// Applies a deterministic pseudo-permutation of `0..n` driven by `keys`.
fn permuted<T: Clone>(items: &[T], keys: &[u64]) -> Vec<T> {
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by_key(|&i| (keys.get(i).copied().unwrap_or(0), i));
    order.iter().map(|&i| items[i].clone()).collect()
}

/// A row's attributes drawn from `bits`: schema rows (the three
/// `LOG_SCHEMA` keys in order, one of 64 device ids) or, unless
/// `schema_only`, a quarter of the time 0–5 attributes from pools that
/// hold foreign keys, repeated keys and empty strings.
fn attrs_from(bits: u64, schema_only: bool) -> Vec<Attribute> {
    const WEATHER: [&str; 4] = ["clear-day", "snow", "rain", ""];
    const LOCATIONS: [&str; 3] = ["quebec", "new-york", "snow"];
    const STRAY_KEYS: [&str; 6] = ["weather", "altitude", "", "weather", "device_id", "snow"];
    let pick = |shift: u32, n: usize| (bits >> shift) as usize % n;
    if schema_only || !bits.is_multiple_of(4) {
        return vec![
            Attribute::new(KEYS[0], WEATHER[pick(2, 4)]),
            Attribute::new(KEYS[1], LOCATIONS[pick(4, 3)]),
            Attribute::new(KEYS[2], format!("quebec-dev{:02}", pick(8, 64))),
        ];
    }
    (0..pick(2, 6))
        .map(|i| {
            let shift = 8 + 6 * i as u32;
            Attribute::new(STRAY_KEYS[pick(shift, 6)], WEATHER[pick(shift + 3, 4)])
        })
        .collect()
}

/// Arbitrary feature bits, with the non-finite values made common.
fn feature_from(bits: u32) -> f32 {
    match bits % 8 {
        0 => f32::NAN,
        1 => f32::INFINITY,
        2 => f32::NEG_INFINITY,
        _ => f32::from_bits(bits),
    }
}

/// A message with its sample features as raw bits: `PartialEq` on floats
/// would call a faithfully delivered NaN unequal to itself.
fn bitwise(msg: &Message) -> (Message, Vec<Vec<u32>>) {
    let mut msg = msg.clone();
    let mut bits = Vec::new();
    if let Message::UploadBatch { samples, .. } = &mut msg {
        for s in samples {
            bits.push(s.features.drain(..).map(f32::to_bits).collect());
        }
    }
    (msg, bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every representable upload batch survives encode → decode exactly
    /// (floats travel as raw bits, so equality is bitwise): schema rows from
    /// up to 64 devices in one frame, off-schema rows of 0–5 attributes
    /// with foreign, duplicate and empty keys and values, timestamps in any
    /// order up to `u64::MAX`, arbitrary feature bits. A batch of schema
    /// rows alone travels without its keys, so it is strictly shorter than
    /// the same rows written keyed.
    #[test]
    fn upload_batch_round_trips(
        seq in 0u64..u64::MAX,
        schema_only in any::<bool>(),
        raw_entries in proptest::collection::vec(
            (0u64..u64::MAX, 0u64..u64::MAX, any::<bool>()), 0..24),
        raw_samples in proptest::collection::vec(
            (proptest::collection::vec(0u32..=u32::MAX, 0..12), 0u64..u64::MAX, 0u16..112),
            0..6),
    ) {
        let msg = Message::UploadBatch {
            device_id: "quebec-dev07".into(),
            seq: if seq.is_multiple_of(5) { u64::MAX } else { seq },
            entries: raw_entries
                .iter()
                .map(|&(ts, bits, drift)| DriftLogEntry {
                    timestamp: match ts % 4 {
                        0 => u64::MAX,
                        1 => ts >> 44,
                        _ => ts,
                    },
                    attrs: attrs_from(bits, schema_only),
                    drift,
                })
                .collect(),
            samples: raw_samples
                .iter()
                .map(|(feats, bits, day)| UploadedSample {
                    features: feats.iter().map(|&b| feature_from(b)).collect(),
                    attrs: attrs_from(*bits, schema_only),
                    date: SimDate::new(*day),
                    label: (bits >> 50) as usize,
                    true_cause: match bits % 3 {
                        0 => None,
                        _ => Some(Corruption::ALL[(bits >> 8) as usize % Corruption::ALL.len()]),
                    },
                })
                .collect(),
        };
        let bytes = nazar_net::wire::encode_frame(&msg);
        let decoded = nazar_net::wire::decode_frame(&bytes).unwrap();
        prop_assert_eq!(bitwise(&decoded), bitwise(&msg));

        let Message::UploadBatch { device_id, seq, mut entries, mut samples } = msg else {
            unreachable!()
        };
        if schema_only && !(entries.is_empty() && samples.is_empty()) {
            // The same rows with their attributes in another order: no
            // longer schema rows, so keys travel too.
            entries.iter_mut().for_each(|e| e.attrs.reverse());
            samples.iter_mut().for_each(|s| s.attrs.reverse());
            let keyed = Message::UploadBatch { device_id, seq, entries, samples };
            let keyed_bytes = nazar_net::wire::encode_frame(&keyed);
            prop_assert!(bytes.len() < keyed_bytes.len());
            let decoded = nazar_net::wire::decode_frame(&keyed_bytes).unwrap();
            prop_assert_eq!(bitwise(&decoded), bitwise(&keyed));
        }
    }

    /// Degenerate floats — NaN, ±Inf, signed zero, subnormals, the extreme
    /// normals — travel the wire bit-exactly and pass through ingest intact
    /// (satellite 4). The transport neither normalizes nor rejects them;
    /// quarantining non-finite payloads is the cloud's job
    /// (`nazar_cloud::sanitize_uploads`), and it can only do that job if
    /// the wire delivers the poison faithfully instead of laundering it.
    /// `PartialEq` on messages would compare NaN != NaN, so this asserts on
    /// raw bit patterns.
    #[test]
    fn degenerate_floats_round_trip_bitwise(
        seq in 0u64..1_000_000,
        picks in proptest::collection::vec(0usize..8, 1..12),
        day in 0u16..112,
    ) {
        const SPECIALS: [f32; 8] = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            1.0e-40, // subnormal
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
        ];
        let feats: Vec<f32> = picks.iter().map(|&i| SPECIALS[i]).collect();
        let bits: Vec<u32> = feats.iter().map(|f| f.to_bits()).collect();
        let msg = Message::UploadBatch {
            device_id: "quebec-dev07".into(),
            seq,
            entries: vec![entry_from(seq, 0, 1, true)],
            samples: vec![sample_from(feats, day, 0, 1)],
        };
        let bytes = nazar_net::wire::encode_frame(&msg);
        let decoded = nazar_net::wire::decode_frame(&bytes).unwrap();
        let Message::UploadBatch { samples, entries, .. } = decoded else {
            return Err(TestCaseError::fail("decoded to a different message kind"));
        };
        prop_assert_eq!(entries.len(), 1);
        prop_assert_eq!(samples.len(), 1);
        let decoded_bits: Vec<u32> = samples[0].features.iter().map(|f| f.to_bits()).collect();
        prop_assert_eq!(&decoded_bits, &bits);

        // Ingest passes the payload through unmodified as well.
        let mut server = IngestServer::for_devices(1);
        server.on_upload(0, seq, samples);
        let uploads = server.take_window().concat();
        prop_assert_eq!(uploads.len(), 1);
        let ingested_bits: Vec<u32> = uploads[0].features.iter().map(|f| f.to_bits()).collect();
        prop_assert_eq!(ingested_bits, bits);
    }

    /// Ingest is idempotent: any delivery schedule built from a batch set by
    /// duplicating and reordering drains to exactly the in-order ingest of
    /// the unique batches, in `(device index, seq)` order.
    #[test]
    fn ingest_tolerates_duplication_and_reordering(
        batches in proptest::collection::vec((0usize..4, 0u64..6, 0u64..10_000), 1..24),
        dup_flags in proptest::collection::vec(any::<bool>(), 24),
        perm_keys in proptest::collection::vec(0u64..1_000_000, 48),
    ) {
        // Unique (device, seq) batches, each carrying a distinguishable entry.
        let mut unique: Vec<(usize, u64, DriftLogEntry)> = Vec::new();
        for &(device, seq, ts) in &batches {
            if !unique.iter().any(|(d, s, _)| *d == device && *s == seq) {
                unique.push((device, seq, entry_from(ts, device, seq as usize, true)));
            }
        }

        // Reference: exactly-once delivery in (device, seq) order.
        let mut in_order = unique.clone();
        in_order.sort_by_key(|(device, seq, _)| (*device, *seq));
        let expected: Vec<DriftLogEntry> = in_order.into_iter().map(|(_, _, e)| e).collect();

        // Adversarial schedule: duplicate some batches, then permute all.
        let mut schedule: Vec<(usize, u64, DriftLogEntry)> = unique.clone();
        for (i, (device, seq, e)) in unique.iter().enumerate() {
            if dup_flags.get(i).copied().unwrap_or(false) {
                schedule.push((*device, *seq, e.clone()));
            }
        }
        let schedule = permuted(&schedule, &perm_keys);
        let mut server = IngestServer::for_devices(4);
        let mut dups = 0u64;
        for (device, seq, e) in &schedule {
            if server.on_upload(*device, *seq, vec![e.clone()]).duplicate {
                dups += 1;
            }
        }
        prop_assert_eq!(dups, (schedule.len() - unique.len()) as u64);
        prop_assert_eq!(server.take_window().concat(), expected);
    }

    /// The exchange is a pure function of (config, inputs): the same seed
    /// under the same fault model produces byte-identical deliveries and
    /// wire statistics.
    #[test]
    fn exchange_same_seed_same_outcome(
        loss in 0.0f64..0.4,
        duplicate in 0.0f64..0.3,
        reorder in 0.0f64..0.3,
        seed in 0u64..1_000,
    ) {
        let cfg = NetConfig {
            link: LinkConfig {
                latency_us: 20_000,
                jitter_us: 5_000,
                loss,
                duplicate,
                reorder,
                ..LinkConfig::perfect()
            },
            seed,
            ..NetConfig::default()
        };
        let ids = ["a-0".to_string(), "b-1".to_string(), "c-2".to_string()];
        let batches: Vec<(String, RowBatch, Vec<UploadedSample>)> = ids
            .iter()
            .enumerate()
            .map(|(i, id)| {
                let entries = rows_from(i, 10, |t| t.is_multiple_of(2));
                (id.clone(), entries, vec![])
            })
            .collect();

        let mut a = Exchange::new(ids.iter().cloned(), cfg.clone());
        let mut b = Exchange::new(ids.iter().cloned(), cfg);
        let da = a.upload_window(batches.clone());
        let db = b.upload_window(batches);
        prop_assert_eq!(da.entries, db.entries);
        prop_assert_eq!(a.report(), b.report());
        prop_assert_eq!(a.clock_us(), b.clock_us());
    }

    /// Without loss, duplication and reordering alone can neither drop nor
    /// double-count anything: delivery equals the direct-path concatenation
    /// exactly, in sorted-device order.
    #[test]
    fn lossless_faults_deliver_exactly_once_in_order(
        duplicate in 0.0f64..0.5,
        reorder in 0.0f64..0.5,
        seed in 0u64..1_000,
    ) {
        let cfg = NetConfig {
            link: LinkConfig {
                latency_us: 10_000,
                jitter_us: 3_000,
                duplicate,
                reorder,
                ..LinkConfig::perfect()
            },
            seed,
            ..NetConfig::default()
        };
        let ids = ["a-0".to_string(), "b-1".to_string()];
        let batches: Vec<(String, RowBatch, Vec<UploadedSample>)> = ids
            .iter()
            .enumerate()
            .map(|(i, id)| {
                // Enough entries to split into several frames (batch cap 64).
                (id.clone(), rows_from(i, 150, |t| t % 3 == 0), vec![])
            })
            .collect();
        let expected: Vec<DriftLogEntry> = batches
            .iter()
            .flat_map(|(_, e, _)| e.to_entries())
            .collect();

        let mut ex = Exchange::new(ids.iter().cloned(), cfg);
        let delivery = ex.upload_window(batches);
        prop_assert_eq!(delivery.entries, expected);
        prop_assert_eq!(ex.report().frames_lost, 0);
    }
}
