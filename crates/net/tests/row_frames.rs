//! The coded upload path against the string codec it replaced.
//!
//! * Frames encoded from a `RowBatch` are byte-identical to
//!   `encode_frame(Message::UploadBatch)` of the same rows, split as a
//!   device client splits a window (64 rows, 32 samples a frame) — also
//!   when the batch's page is ordered unlike any frame's, holds strings no
//!   row names, or a sample's weather first appears in a later frame's
//!   rows.
//! * `DriftLog::ingest_rows` over every frame parsed in place ends where
//!   `DriftLog::ingest_batch` over `decode_frame`'s entries does: rows,
//!   dictionaries and report; the samples parse to the decoded ones.
//! * Keyed rows with wrong, missing or duplicate keys quarantine the same
//!   count on both paths, through the wire and through the exchange.

use nazar_data::{Corruption, SimDate};
use nazar_device::{UploadedSample, LOG_SCHEMA};
use nazar_log::{Attribute, DriftLog, IngestReport, RowBatch};
use nazar_net::wire::{self, Message};
use nazar_net::{Exchange, NetConfig};
use proptest::prelude::*;

const DEVICE: &str = "oslo-dev07";
const WEATHERS: [&str; 5] = ["snow", "clear", "fog", "rain", "oslo"];
const LOCATIONS: [&str; 2] = ["oslo", "lima"];

/// A sample over `keys` (the schema's unless told otherwise), its weather
/// `WEATHERS[w]`.
fn sample(w: usize, schema: bool, cause: usize) -> UploadedSample {
    let attrs = if schema {
        vec![
            Attribute::new("weather", WEATHERS[w % 5]),
            Attribute::new("location", "oslo"),
            Attribute::new("device_id", DEVICE),
        ]
    } else {
        vec![Attribute::new("altitude", WEATHERS[w % 5])]
    };
    UploadedSample {
        features: vec![w as f32 * 0.5, -0.0, f32::MIN_POSITIVE],
        attrs,
        date: SimDate::new((w % 40) as u16),
        label: w % 4,
        true_cause: (cause > 0).then(|| Corruption::ALL[cause % Corruption::ALL.len()]),
    }
}

/// Frames `seq`, `seq + 1`, … of a device's window as its client cuts
/// them: `(row range, sample range)` per frame.
fn splits(rows: usize, samples: usize) -> Vec<(std::ops::Range<usize>, std::ops::Range<usize>)> {
    let (mut e, mut s, mut out) = (0, 0, Vec::new());
    while e < rows || s < samples {
        let (e_end, s_end) = ((e + 64).min(rows), (s + 32).min(samples));
        out.push((e..e_end, s..s_end));
        (e, s) = (e_end, s_end);
    }
    out
}

/// Encodes `rows` + `samples` both ways, frame by frame, checks the bytes
/// agree, then ingests each frame both ways and checks the logs agree.
fn check_both_paths(rows: &RowBatch, samples: &[UploadedSample]) -> Result<(), TestCaseError> {
    let entries = rows.to_entries();
    let mut by_rows = DriftLog::new(&LOG_SCHEMA);
    let mut by_entries = DriftLog::new(&LOG_SCHEMA);
    for (seq, (e, s)) in splits(rows.len(), samples.len()).into_iter().enumerate() {
        let seq = seq as u64;
        let coded = wire::encode_upload_rows(DEVICE, seq, rows, e.clone(), &samples[s.clone()]);
        let message = Message::UploadBatch {
            device_id: DEVICE.to_string(),
            seq,
            entries: entries[e].to_vec(),
            samples: samples[s].to_vec(),
        };
        prop_assert!(
            coded == wire::encode_frame(&message),
            "frame {} differs",
            seq
        );

        let Ok(Message::UploadBatch {
            entries: decoded,
            samples: decoded_samples,
            ..
        }) = wire::decode_frame(&coded)
        else {
            return Err(TestCaseError::fail("the frame decodes as an upload batch"));
        };
        let (_, payload) = wire::open_frame(&coded).expect("a sound envelope");
        let mut parsed = RowBatch::default();
        let upload = wire::parse_upload(payload, &mut parsed).expect("the frame parses");
        prop_assert_eq!(upload.seq, seq);
        prop_assert_eq!(upload.device_id, DEVICE);
        let samples_in_place = upload.samples(parsed.page()).expect("its samples parse");
        prop_assert_eq!(
            format!("{samples_in_place:?}"),
            format!("{decoded_samples:?}")
        );
        let report = match &upload.keyed {
            Some(keyed) => by_rows.ingest_entries(keyed),
            None => by_rows.ingest_rows(&parsed),
        };
        prop_assert_eq!(report, by_entries.ingest_batch(decoded));
        prop_assert_eq!(&by_rows, &by_entries);
    }
    // Rows over other keys are quarantined, whatever layout carried them.
    let fits = rows.keys() == LOG_SCHEMA;
    prop_assert_eq!(by_rows.num_rows(), if fits { entries.len() } else { 0 });
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn coded_frames_equal_string_frames_and_ingest_alike(
        raw_rows in proptest::collection::vec((0usize..5, 0usize..2, any::<bool>(), 0u64..3), 0..200),
        raw_samples in proptest::collection::vec((0usize..5, 0usize..4), 0..80),
        other_keys in 0u8..5,
        keyed_samples in 0u8..5,
        unused in proptest::collection::vec(0usize..5, 0..4),
    ) {
        const OTHER: [&str; 3] = ["weather", "location", "altitude"];
        let keys: &'static [&'static str] = if other_keys == 0 { &OTHER } else { &LOG_SCHEMA };
        // The device id first, then strings in an order no frame uses,
        // some of which no row names.
        let mut rows: RowBatch = RowBatch::new(keys);
        rows.intern(DEVICE);
        for &w in &unused {
            rows.intern(WEATHERS[(w + 2) % 5]);
            rows.intern("never-named");
        }
        let mut ts = 86_400u64;
        for &(w, l, drift, step) in &raw_rows {
            ts += step;
            rows.push_values(ts, drift, &[WEATHERS[w], LOCATIONS[l], DEVICE]);
        }
        let samples: Vec<UploadedSample> = raw_samples
            .iter()
            .map(|&(w, cause)| sample(w, keyed_samples != 0, cause))
            .collect();
        check_both_paths(&rows, &samples)?;
    }
}

/// A sample in the first frame whose weather only rows of the second frame
/// name: the first frame pages it among the samples, the second among its
/// rows.
#[test]
fn a_samples_weather_first_named_by_a_later_frames_rows() {
    let mut rows: RowBatch = RowBatch::new(&LOG_SCHEMA);
    rows.intern(DEVICE);
    for t in 0..100u64 {
        let weather = if t < 64 { "snow" } else { "fog" };
        rows.push_values(t, t % 2 == 0, &[weather, "oslo", DEVICE]);
    }
    let samples: Vec<UploadedSample> = (0..40).map(|i| sample(2 * (i % 2), true, i)).collect();
    assert_eq!(samples[1].attrs[0].value, "fog");
    check_both_paths(&rows, &samples).expect("both paths agree");
}

/// Keyed rows — a wrong key, a missing one, a duplicate — quarantine the
/// same count whether their frame is decoded to strings or parsed in
/// place, and whether they cross the exchange or not.
#[test]
fn keyed_rows_quarantine_alike_on_every_path() {
    const WRONG: [&str; 3] = ["weather", "location", "altitude"];
    const MISSING: [&str; 2] = ["weather", "device_id"];
    const DUPLICATE: [&str; 3] = ["weather", "weather", "location"];
    const PERMUTED: [&str; 3] = ["device_id", "location", "weather"];
    let batch = |keys: &'static [&'static str], n: u64| {
        let mut rows: RowBatch = RowBatch::new(keys);
        for t in 0..n {
            let values = ["fog", "oslo", "dev", "x"];
            rows.push_values(t, t % 3 == 0, &values[..keys.len()]);
        }
        rows
    };
    let ids: Vec<String> = (0..5).map(|d| format!("dev{d}")).collect();
    let batches = |ids: &[String]| {
        let keyed = [&WRONG[..], &MISSING, &DUPLICATE, &PERMUTED, &LOG_SCHEMA];
        (ids.iter().cloned().zip(keyed))
            .enumerate()
            .map(|(d, (id, keys))| (id, batch(keys, 3 + d as u64), Vec::new()))
            .collect::<Vec<_>>()
    };

    // Through the wire codec, frame by frame.
    let mut by_parse = DriftLog::new(&LOG_SCHEMA);
    let mut by_decode = DriftLog::new(&LOG_SCHEMA);
    let mut quarantined = 0;
    for (id, rows, samples) in batches(&ids) {
        let mut parsed = RowBatch::default();
        let frame = wire::encode_upload_rows(&id, 0, &rows, 0..rows.len(), &samples);
        let Ok(Message::UploadBatch { entries, .. }) = wire::decode_frame(&frame) else {
            panic!("the frame decodes");
        };
        let (_, payload) = wire::open_frame(&frame).expect("a sound envelope");
        let upload = wire::parse_upload(payload, &mut parsed).expect("the frame parses");
        let report = match &upload.keyed {
            Some(keyed) => by_parse.ingest_entries(keyed),
            None => by_parse.ingest_rows(&parsed),
        };
        assert_eq!(report, by_decode.ingest_batch(entries), "{id}");
        // And the batch straight into a log, no wire between.
        let mut direct = DriftLog::new(&LOG_SCHEMA);
        let mut strings = DriftLog::new(&LOG_SCHEMA);
        assert_eq!(
            direct.ingest_rows(&rows),
            strings.ingest_batch(rows.to_entries())
        );
        assert_eq!(direct, strings);
        quarantined += report.quarantined;
    }
    assert_eq!(by_parse, by_decode);
    assert_eq!(
        quarantined,
        3 + 4 + 5,
        "the wrong, missing and duplicate keys"
    );
    assert_eq!(by_parse.num_rows(), 6 + 7);

    // Through the exchange: the delivery ingests as its entries do.
    let mut exchange = Exchange::new(ids.iter().cloned(), NetConfig::default());
    let indexed = (batches(&ids).into_iter().enumerate())
        .map(|(d, (_, rows, samples))| (d as u32, rows, samples))
        .collect();
    let delivery = exchange.upload_window_at(indexed);
    let mut by_frames = DriftLog::new(&LOG_SCHEMA);
    let report = delivery.ingest_into(&mut by_frames);
    let mut by_strings = DriftLog::new(&LOG_SCHEMA);
    assert_eq!(report, by_strings.ingest_batch(delivery.to_entries()));
    assert_eq!(
        report,
        IngestReport {
            appended: 13,
            quarantined: 12
        }
    );
    assert_eq!(by_frames, by_strings);
    assert_eq!(by_frames, by_decode);
}
