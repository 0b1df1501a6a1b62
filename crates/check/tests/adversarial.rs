//! The adversarial-input correctness suite (DESIGN.md §9).
//!
//! Every public detect/analysis/adapt/registry/device/cloud entry point is
//! driven with the degenerate-but-reachable inputs from `nazar_check`'s
//! generators. The contract under test is uniform: **return a value or a
//! typed error — never panic, never emit NaN into downstream state.**
//! Sanitized sentinels (`f32::MAX` = "maximally drifted") and zero
//! confidence are the two permitted answers to poisoned numerics.

use nazar_adapt::{
    adapt_to_patch, memo_adapt, sanitize_rows, tent_adapt, AdaptMethod, AdaptReport, MemoConfig,
    TentConfig,
};
use nazar_analysis::{analyze_variant_with, AnalysisVariant, FimAlgorithm, FimConfig};
use nazar_check::{
    assert_all_finite, assert_no_nan, degenerate_logits, degenerate_matrices, POISON_VALUES,
};
use nazar_cloud::{sanitize_uploads, CloudConfig, Orchestrator, Strategy};
use nazar_detect::eval::sweep_msp_thresholds;
use nazar_detect::{
    msp_of_logits, CsiLike, DetectError, DetectorKind, DriftDetector, EnergyScore,
    EntropyThreshold, GOdin, KsTestDetector, Mahalanobis, MaxLogitScore, MspThreshold, Odin,
    OutlierExposure, SslRotation, StreamDetector,
};
use nazar_device::{DeviceConfig, FleetSim, UploadedSample, WindowStats, LOG_SCHEMA};
use nazar_log::{DriftLog, DriftLogEntry};
use nazar_net::wire::{self, Message, Writer};
use nazar_net::{ClientAction, DecodeMemo, DeviceClient, NetError};
use nazar_nn::{entropy_of_logits, BnPatch, MlpResNet, ModelArch, NnError};
use nazar_registry::{ModelPool, VersionMeta};
use nazar_tensor::Tensor;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const DIM: usize = 8;
const CLASSES: usize = 4;

fn model() -> MlpResNet {
    MlpResNet::new(
        ModelArch::tiny(DIM, CLASSES),
        &mut SmallRng::seed_from_u64(0),
    )
}

/// A small healthy training set for detectors that need one.
fn healthy() -> (Tensor, Vec<usize>) {
    let n = 24;
    let data: Vec<f32> = (0..n * DIM)
        .map(|k| ((k * 13 + 5) % 23) as f32 * 0.08 - 0.9)
        .collect();
    let labels: Vec<usize> = (0..n).map(|i| i % CLASSES).collect();
    (Tensor::from_vec(data, &[n, DIM]).unwrap(), labels)
}

#[test]
fn msp_of_degenerate_logits_stays_in_unit_interval() {
    let (case, logits) = degenerate_logits(CLASSES);
    let msp = msp_of_logits(&logits);
    assert_eq!(msp.len(), 5);
    assert_all_finite(&case, &msp);
    assert!(msp.iter().all(|p| (0.0..=1.0).contains(p)), "{msp:?}");
    // The NaN and all--Inf rows have no defined softmax: zero confidence.
    assert_eq!(msp[1], 0.0);
    assert_eq!(msp[3], 0.0);
}

#[test]
fn entropy_of_degenerate_logits_is_finite() {
    let (case, logits) = degenerate_logits(CLASSES);
    let h = entropy_of_logits(&logits);
    assert_all_finite(&case, &h);
    let ln_c = (CLASSES as f32).ln();
    assert!(h.iter().all(|&v| (0.0..=ln_c + 1e-5).contains(&v)), "{h:?}");
}

#[test]
fn unfitted_detectors_never_panic_or_emit_nan() {
    // Every detector constructible without training data, across every
    // degenerate input matrix. ODIN runs backprop through the poison;
    // the threshold detectors run softmax over it.
    let mut m = model();
    for (case, x) in degenerate_matrices(6, DIM) {
        let n = x.nrows().unwrap();
        let mut detectors: Vec<Box<dyn DriftDetector>> = vec![
            Box::new(MspThreshold::default()),
            Box::new(EntropyThreshold::default()),
            Box::new(EnergyScore::default()),
            Box::new(MaxLogitScore::default()),
            Box::new(Odin::default()),
            Box::new(GOdin::default()),
        ];
        for det in &mut detectors {
            let scores = det.scores(&mut m, &x);
            assert_eq!(scores.len(), n, "case {case:?}: {} scores", det.name());
            assert_no_nan(&format!("{case}/{}", det.name()), &scores);
            assert_eq!(det.detect(&mut m, &x).len(), n);
        }
    }
}

#[test]
fn fits_reject_degenerate_training_sets_with_typed_errors() {
    let mut m = model();
    let empty = Tensor::zeros(&[0, DIM]);
    let mut rng = SmallRng::seed_from_u64(1);

    assert!(matches!(
        Mahalanobis::fit(&mut m, &empty, &[], CLASSES),
        Err(DetectError::EmptyTrainingSet { .. })
    ));
    assert!(matches!(
        KsTestDetector::fit(&mut m, &empty, 8, 0.05),
        Err(DetectError::EmptyTrainingSet { .. })
    ));
    let (x, y) = healthy();
    assert!(matches!(
        KsTestDetector::fit(&mut m, &x, 0, 0.05),
        Err(DetectError::InvalidParameter { .. })
    ));
    assert!(matches!(
        KsTestDetector::fit(&mut m, &x, 8, 1.5),
        Err(DetectError::InvalidParameter { .. })
    ));
    assert!(matches!(
        CsiLike::fit(&mut m, &x, 0),
        Err(DetectError::InvalidParameter { .. })
    ));
    assert!(matches!(
        CsiLike::fit(&mut m, &empty, 16),
        Err(DetectError::EmptyTrainingSet { .. })
    ));
    assert!(matches!(
        SslRotation::fit(&empty, 1, &mut rng),
        Err(DetectError::EmptyTrainingSet { .. })
    ));
    assert!(matches!(
        OutlierExposure::fit(&m, &empty, &[], &empty, 1, &mut rng),
        Err(DetectError::EmptyTrainingSet { .. })
    ));
    assert!(matches!(
        Mahalanobis::fit(&mut m, &x, &vec![CLASSES + 3; y.len()], CLASSES),
        Err(DetectError::LabelOutOfRange { .. })
    ));
    // An all-NaN *input* matrix is absorbed to finite features by the
    // network's ReLU (`f32::max(NaN, 0.0) == 0.0`), so the fit legitimately
    // succeeds — the contract is a finite threshold, not an error.
    let all_nan = Tensor::from_vec(vec![f32::NAN; 4 * DIM], &[4, DIM]).unwrap();
    let det = Mahalanobis::fit(&mut m, &all_nan, &[0, 1, 2, 3], CLASSES).unwrap();
    assert!(det.threshold.is_finite());
}

#[test]
fn single_class_and_singular_covariance_fits_stay_finite() {
    let mut m = model();
    let (x, _) = healthy();
    // Single-class label set: every other class mean is empty.
    let single = vec![0usize; x.nrows().unwrap()];
    let mut det = Mahalanobis::fit(&mut m, &x, &single, CLASSES).unwrap();
    assert!(det.threshold.is_finite());
    for (case, q) in degenerate_matrices(5, DIM) {
        let scores = det.scores(&mut m, &q);
        assert_no_nan(&format!("mahalanobis-single-class/{case}"), &scores);
    }
    // Zero-variance columns: the singular diagonal covariance must be
    // regularized, not inverted to Inf.
    let constant = Tensor::from_vec(vec![0.3; 6 * DIM], &[6, DIM]).unwrap();
    let labels = vec![0, 0, 1, 1, 2, 2];
    let mut det = Mahalanobis::fit(&mut m, &constant, &labels, CLASSES).unwrap();
    let scores = det.scores(&mut m, &x);
    assert_all_finite("mahalanobis-singular", &scores);
}

#[test]
fn fitted_detectors_survive_every_degenerate_query() {
    let mut m = model();
    let (x, y) = healthy();
    let mut rng = SmallRng::seed_from_u64(2);
    let mut detectors: Vec<Box<dyn DriftDetector>> = vec![
        Box::new(Mahalanobis::fit(&mut m, &x, &y, CLASSES).unwrap()),
        Box::new(KsTestDetector::fit(&mut m, &x, 8, 0.05).unwrap()),
        Box::new(CsiLike::fit(&mut m, &x, 16).unwrap()),
        Box::new(SslRotation::fit(&x, 1, &mut rng).unwrap()),
        Box::new(OutlierExposure::fit(&m, &x, &y, &x, 1, &mut rng).unwrap()),
    ];
    for (case, q) in degenerate_matrices(6, DIM) {
        let n = q.nrows().unwrap();
        for det in &mut detectors {
            let scores = det.scores(&mut m, &q);
            assert_eq!(scores.len(), n, "case {case:?}: {}", det.name());
            assert_no_nan(&format!("{case}/{}", det.name()), &scores);
            assert_eq!(det.detect(&mut m, &q).len(), n);
        }
    }
}

#[test]
fn calibrations_survive_poisoned_splits() {
    let mut m = model();
    let (x, _) = healthy();
    for (case, poisoned) in degenerate_matrices(6, DIM) {
        if poisoned.nrows().unwrap() == 0 {
            continue; // calibration needs at least one candidate score
        }
        let energy = EnergyScore::calibrated(&mut m, &x, &poisoned);
        assert!(!energy.threshold.is_nan(), "case {case:?}");
        let mut maha = Mahalanobis::fit(&mut m, &x, &healthy().1, CLASSES).unwrap();
        maha.calibrate(&mut m, &x, &poisoned);
        assert!(maha.threshold.is_finite(), "case {case:?}");
    }
    // GOdin fits on clean data only; poisoned "clean" data must not panic.
    let (_, logit_poison) = degenerate_logits(CLASSES);
    let _ = logit_poison;
    let poisoned = Tensor::from_vec(vec![f32::NAN; 4 * DIM], &[4, DIM]).unwrap();
    let g = GOdin::fit(&mut m, &poisoned, &[0.0, 0.05, 0.1]);
    assert!(g.epsilon.is_finite());
}

#[test]
fn stream_detector_answers_poisoned_msp_with_the_plain_comparison() {
    // The on-device detector is one comparison: no poison value may panic
    // it or get any verdict other than `v < threshold` (NaN compares false).
    let mut det = StreamDetector::new(DetectorKind::Msp, 0.9);
    for v in POISON_VALUES {
        assert_eq!(det.observe(v), v < 0.9, "poison {v}");
    }
}

#[test]
fn eval_primitives_handle_degenerate_score_streams() {
    let sweep = sweep_msp_thresholds(
        &[f32::NAN, 0.5, f32::NEG_INFINITY],
        &[true, false, true],
        &[0.1, 0.5, 0.9],
    );
    let best = sweep.best().expect("non-empty sweep");
    assert!(best.eval.f1().is_finite());
    assert!(sweep_msp_thresholds(&[], &[], &[]).best().is_none());
}

#[test]
fn analysis_of_empty_and_driftless_logs_is_empty() {
    // Empty FIM transaction set (satellite 3): no rows, and rows with no
    // drift flags, both yield "no causes" rather than a panic.
    let empty = DriftLog::new(&LOG_SCHEMA);
    let cfg = FimConfig::default();
    for variant in [AnalysisVariant::Full, AnalysisVariant::FimOnly] {
        assert!(analyze_variant_with(&empty, &cfg, variant, FimAlgorithm::Apriori).is_empty());
    }

    let mut driftless = DriftLog::new(&["weather"]);
    for t in 0..10 {
        driftless
            .push(DriftLogEntry::new(t, &[("weather", "sunny")], false))
            .unwrap();
    }
    assert!(analyze_variant_with(
        &driftless,
        &cfg,
        AnalysisVariant::Full,
        FimAlgorithm::Apriori
    )
    .is_empty());
}

#[test]
fn log_queries_survive_degenerate_schemas_and_drift_extremes() {
    // The log's scans (DESIGN.md §10) on hostile shapes: a one-column
    // one-value schema, a wide schema where every column holds the same
    // interned string, all-drifted and zero-drifted logs.
    let wide: Vec<String> = (0..12).map(|c| format!("col{c}")).collect();
    let wide_keys: Vec<&str> = wide.iter().map(|s| s.as_str()).collect();
    for (schema, drift_every) in [
        (vec!["only"], 1),          // all drifted
        (vec!["only"], usize::MAX), // none drifted
        (wide_keys.as_slice().to_vec(), 2),
    ] {
        let mut log = DriftLog::new(&schema);
        for t in 0..9u64 {
            let attrs: Vec<(&str, &str)> = schema.iter().map(|k| (*k, "same")).collect();
            log.push(DriftLogEntry::new(
                t,
                &attrs,
                (t as usize).is_multiple_of(drift_every),
            ))
            .unwrap();
        }
        // Every row holds "same" in every column, so every predicate set
        // matches all 9 rows; the every-column set compares twelve equal
        // columns.
        let drifted = (0..9usize)
            .filter(|t| t.is_multiple_of(drift_every))
            .count();
        let all_cols: Vec<nazar_log::Attribute> = schema
            .iter()
            .map(|k| nazar_log::Attribute::new(*k, "same"))
            .collect();
        for set in [&[][..], &all_cols[..1], &all_cols[..]] {
            let counts = log.count_matching(set, None).unwrap();
            assert_eq!((counts.occurrences, counts.drifted), (9, drifted));
            assert_eq!(
                log.rows_matching(set).unwrap(),
                (0..9).collect::<Vec<usize>>()
            );
        }
        assert_eq!(log.num_drifted(), drifted);
        // Retention through every row count down to empty.
        for keep in (0..=9).rev() {
            let mut l = log.clone();
            l.retain_last(keep);
            assert_eq!(l.num_rows(), keep.min(9));
            assert_eq!(
                l.count_matching(&all_cols, None).unwrap().occurrences,
                keep.min(9)
            );
        }
    }

    // A schema-less log: no columns to scan, but counting the empty set
    // and slicing must still hold up.
    let mut empty_schema = DriftLog::new(&[]);
    for t in 0..5u64 {
        empty_schema.push(DriftLogEntry::new(t, &[], true)).unwrap();
    }
    let counts = empty_schema.count_matching(&[], None).unwrap();
    assert_eq!((counts.occurrences, counts.drifted), (5, 5));
    assert_eq!(empty_schema.slice(1..3).num_rows(), 2);
}

#[test]
fn counterfactual_masks_of_wrong_length_never_panic() {
    // Mask-override semantics: shorter masks treat missing rows as
    // non-drifted, longer masks ignore the excess.
    let mut log = DriftLog::new(&["k"]);
    for t in 0..100u64 {
        log.push(DriftLogEntry::new(t, &[("k", "v")], true))
            .unwrap();
    }
    let set = [nazar_log::Attribute::new("k", "v")];
    for mask_len in [0, 1, 5, 64, 70, 100, 1000] {
        let mask = vec![true; mask_len];
        for set in [&set[..], &[]] {
            let counts = log.count_matching(set, Some(&mask)).unwrap();
            assert_eq!(
                (counts.occurrences, counts.drifted),
                (100, mask_len.min(100)),
                "mask_len {mask_len}"
            );
        }
    }
}

#[test]
fn zero_capacity_pool_accepts_deploys_without_panicking() {
    let mut pool: ModelPool<u32> = ModelPool::new(Some(0));
    for i in 0..4 {
        let outcome = pool.deploy(VersionMeta::clean(), i);
        assert!(outcome.evicted.contains(&outcome.id), "immediate eviction");
    }
    assert!(pool.is_empty());
    assert!(pool.select(&[]).is_none());
}

#[test]
fn nan_risk_ratios_keep_pool_selection_total() {
    let mut pool: ModelPool<u32> = ModelPool::new(None);
    pool.deploy(VersionMeta::new(vec![], f64::NAN), 1);
    pool.deploy(VersionMeta::new(vec![], 0.5), 2);
    pool.deploy(VersionMeta::new(vec![], f64::INFINITY), 3);
    // total_cmp makes the ordering deterministic; selection must succeed.
    assert!(pool.select(&[]).is_some());
}

#[test]
fn adaptation_is_a_noop_on_unusable_windows_and_survives_partial_poison() {
    let base = model();
    let mut rng = SmallRng::seed_from_u64(3);
    for (case, data) in degenerate_matrices(8, DIM) {
        let mut m = base.clone();
        let report = tent_adapt(&mut m, &data, &TentConfig::default());
        assert!(
            report.entropy_after.is_finite(),
            "tent case {case:?}: {report:?}"
        );
        assert!(
            BnPatch::extract(&mut m).is_finite(),
            "tent case {case:?} poisoned the model"
        );

        let mut m = base.clone();
        let report = memo_adapt(&mut m, &data, &MemoConfig::default(), &mut rng);
        assert!(
            report.entropy_after.is_finite(),
            "memo case {case:?}: {report:?}"
        );

        let (patch, _) = adapt_to_patch(&base, &data, &AdaptMethod::default(), &mut rng);
        assert!(patch.is_finite(), "patch case {case:?}");
    }
    // Fully-unusable windows are explicit no-ops.
    let mut m = base.clone();
    let all_nan = Tensor::from_vec(vec![f32::NAN; 2 * DIM], &[2, DIM]).unwrap();
    assert_eq!(
        tent_adapt(&mut m, &all_nan, &TentConfig::default()),
        AdaptReport::noop()
    );
    assert!(sanitize_rows(&all_nan).is_none());
}

#[test]
fn non_finite_patches_are_rejected_before_touching_a_model() {
    let mut m = model();
    let mut patch = BnPatch::extract(&mut m);
    let w = patch.layers()[0].gamma.len();
    let layers = patch.layers().to_vec();
    let mut bad = layers;
    bad[0].running_var = Tensor::from_vec(vec![f32::NAN; w], &[w]).unwrap();
    patch = BnPatch::from_layers(bad);
    assert!(!patch.is_finite());
    assert_eq!(
        patch.apply(&mut m),
        Err(NnError::PatchNotFinite { layer: 0 })
    );
}

#[test]
fn empty_fleet_windows_produce_identity_statistics() {
    let fleet_model = model();
    let mut fleet = FleetSim::from_streams(&[], &fleet_model, &DeviceConfig::default());
    let mut rng = SmallRng::seed_from_u64(4);
    let out = fleet.process_window(&[], 0, 8, &mut rng);
    assert_eq!(out.stats, WindowStats::default());
    assert!(out.entries.is_empty() && out.uploads.is_empty());

    // Zero-denominator ratios are defined as zero, not NaN (satellite 3).
    let zero = WindowStats::default();
    for v in [
        zero.accuracy(),
        zero.drifted_accuracy(),
        zero.detection_rate(),
        zero.precision(),
        zero.recall(),
    ] {
        assert_eq!(v, 0.0);
    }
}

#[test]
fn cloud_quarantines_poisoned_uploads() {
    let uploads: Vec<UploadedSample> = POISON_VALUES
        .iter()
        .map(|&v| UploadedSample {
            features: vec![v; DIM],
            attrs: Vec::new(),
            date: nazar_data::SimDate::new(0),
            label: 0,
            true_cause: None,
        })
        .collect();
    let kept = sanitize_uploads(uploads);
    // Exactly the finite poison values (−0.0, subnormal, MIN_POSITIVE,
    // MAX, MIN) survive; NaN and the infinities are quarantined.
    assert_eq!(kept.len(), 5);
    for u in &kept {
        assert_all_finite("kept upload", &u.features);
    }
}

/// Uploads whose width is not the model's reach the cloud intact (the wire
/// takes any per-sample feature count); the orchestrator quarantines them
/// instead of panicking on an unstackable adaptation set, and adapts on
/// the rest.
#[test]
fn cloud_quarantines_wrong_width_uploads() {
    // Per day a wide and a narrow sample beside two good ones: the fleet
    // stacks a window's rows, so together they still fill whole rows of
    // its forward, and every sample is uploaded at its own width.
    let items = (0..8u16)
        .flat_map(|day| {
            [DIM, DIM, DIM + 1, DIM - 1].map(|width| nazar_data::StreamItem {
                features: vec![0.25; width],
                label: 0,
                date: nazar_data::SimDate::new(day),
                location: "quebec".into(),
                device_id: "quebec-dev00".into(),
                weather: nazar_data::Weather::Clear,
                true_cause: None,
                severity: nazar_data::Severity::NONE,
            })
        })
        .collect();
    let streams = [nazar_data::LocationStream {
        location: "quebec".into(),
        items,
    }];
    let config = CloudConfig {
        windows: 1,
        min_samples_per_cause: 4,
        device: DeviceConfig {
            sample_rate: 1.0,
            ..DeviceConfig::default()
        },
        ..CloudConfig::default()
    };
    let result = Orchestrator::new(model(), &streams, Strategy::Nazar, config).run(&streams);
    assert_eq!(result.log_rows, 32);
    assert!(
        result.patch_bytes_shipped > 0,
        "the clean job adapts on the 16 well-formed samples"
    );
}

/// A frame of `msg_type` under protocol `version` around `payload`, with a
/// valid length and CRC — so what is under test is the payload decoder,
/// not the checksum.
fn framed(version: u8, msg_type: u8, payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::with_capacity(payload.len() + 14);
    w.put_bytes(b"NZRF");
    w.put_u8(version);
    w.put_u8(msg_type);
    w.put_u32(payload.len() as u32);
    w.put_bytes(payload);
    let mut bytes = w.into_bytes();
    let crc = wire::crc32(&bytes[4..]);
    bytes.extend_from_slice(&crc.to_le_bytes());
    bytes
}

const UPLOAD_BATCH: u8 = 1;

/// An upload-batch payload written field by field: `seq` 7, the given
/// layout byte and page, then `tail` (rows and samples).
fn upload_payload(layout: u8, page: &[&str], tail: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::with_capacity(64);
    w.put_varint(7);
    w.put_u8(layout);
    w.put_varint(page.len() as u64);
    for s in page {
        w.put_varint(s.len() as u64);
        w.put_bytes(s.as_bytes());
    }
    tail(&mut w);
    w.into_bytes()
}

/// An upload payload read by the cloud's in-place parser: its page and
/// rows into a batch borrowing the payload, then its samples.
fn parse_in_place(payload: &[u8]) -> Result<(), NetError> {
    let mut rows = nazar_log::RowBatch::default();
    let upload = wire::parse_upload(payload, &mut rows)?;
    upload.samples(rows.page()).map(drop)
}

#[test]
fn upload_frames_fail_closed_with_typed_errors() {
    let valid = Message::UploadBatch {
        device_id: "quebec-dev00".into(),
        seq: 7,
        entries: vec![
            DriftLogEntry::new(
                5,
                &[
                    ("weather", "snow"),
                    ("location", "quebec"),
                    ("device_id", "quebec-dev00"),
                ],
                true,
            ),
            // Off-schema: the batch travels as keyed rows.
            DriftLogEntry::new(2, &[("weather", ""), ("weather", "snow")], false),
        ],
        samples: vec![UploadedSample {
            features: vec![f32::NAN, -0.0, 1.5],
            attrs: vec![nazar_log::Attribute::new("altitude", "high")],
            date: nazar_data::SimDate::new(3),
            label: 9,
            true_cause: Some(nazar_data::Corruption::ALL[0]),
        }],
    };
    let frame = wire::encode_frame(&valid);
    let Ok((UPLOAD_BATCH, payload)) = wire::open_frame(&frame) else {
        panic!("a valid frame opens as an upload batch");
    };

    // Every strict prefix, of the frame and of the payload inside a sound
    // envelope, is refused.
    for cut in 0..frame.len() {
        assert!(
            matches!(
                wire::decode_frame(&frame[..cut]),
                Err(NetError::Truncated { .. })
            ),
            "frame prefix {cut}"
        );
    }
    assert_eq!(parse_in_place(payload), Ok(()));
    for cut in 0..payload.len() {
        let err = wire::decode_frame(&framed(wire::VERSION, UPLOAD_BATCH, &payload[..cut]));
        assert_eq!(parse_in_place(&payload[..cut]), err.clone().map(drop));
        assert!(
            matches!(
                err,
                Err(NetError::Truncated { .. } | NetError::Malformed(_))
            ),
            "payload prefix {cut}: {err:?}"
        );
    }
    // Any flipped payload bit is caught by the checksum, slack by `finish`.
    for i in 10..frame.len() - 4 {
        let mut bad = frame.clone();
        bad[i] ^= 0x10;
        assert!(matches!(
            wire::decode_frame(&bad),
            Err(NetError::ChecksumMismatch { .. })
        ));
    }
    let mut slack = payload.to_vec();
    slack.push(0);
    assert_eq!(
        parse_in_place(&slack),
        Err(NetError::Malformed("trailing bytes after message"))
    );
    assert_eq!(
        wire::decode_frame(&framed(wire::VERSION, UPLOAD_BATCH, &slack)),
        Err(NetError::Malformed("trailing bytes after message"))
    );
    // Protocol v1 is refused outright, whatever it carries.
    assert_eq!(
        wire::decode_frame(&framed(1, UPLOAD_BATCH, payload)),
        Err(NetError::UnsupportedVersion(1))
    );

    // Every forged payload below is refused alike by the string decoder
    // and by the in-place parser the cloud runs on arrival.
    let decode = |payload: Vec<u8>| {
        let err = wire::decode_frame(&framed(wire::VERSION, UPLOAD_BATCH, &payload)).unwrap_err();
        assert_eq!(parse_in_place(&payload), Err(err.clone()), "{payload:?}");
        err
    };
    let no_rows = |w: &mut Writer| {
        w.put_varint(0);
        w.put_varint(0);
    };
    let page = ["dev", "fog", "nyc"];
    assert!(wire::decode_frame(&framed(
        wire::VERSION,
        UPLOAD_BATCH,
        &upload_payload(1, &page, no_rows)
    ))
    .is_ok());
    assert_eq!(
        decode(upload_payload(2, &page, no_rows)),
        NetError::Malformed("upload layout must be 0 or 1")
    );
    assert_eq!(
        decode(upload_payload(1, &[], no_rows)),
        NetError::Malformed("empty string page")
    );
    // A schema row whose third code is the page length.
    let bad_code = |w: &mut Writer| {
        w.put_varint(1);
        w.put_varint(5);
        w.put_u8(0);
        for code in [1, 2, 3] {
            w.put_varint(code);
        }
        w.put_varint(0);
    };
    assert_eq!(
        decode(upload_payload(1, &page, bad_code)),
        NetError::Malformed("page code outside the page")
    );
    // A keyed row whose key code, and a sample whose cause, leave the page.
    let bad_key = |w: &mut Writer| {
        w.put_varint(1);
        w.put_varint(5);
        w.put_u8(1);
        w.put_varint(1);
        w.put_varint(u64::MAX);
        w.put_varint(0);
        w.put_varint(0);
    };
    assert_eq!(
        decode(upload_payload(0, &page, bad_key)),
        NetError::Malformed("page code outside the page")
    );
    let sample_with = |cause: u64, day: u16| {
        move |w: &mut Writer| {
            w.put_varint(0);
            w.put_varint(1);
            w.put_varint(1);
            w.put_f32(0.5);
            w.put_varint(0);
            w.put_u16(day);
            w.put_varint(3);
            w.put_varint(cause);
        }
    };
    assert!(wire::decode_frame(&framed(
        wire::VERSION,
        UPLOAD_BATCH,
        &upload_payload(0, &page, sample_with(0, 3))
    ))
    .is_ok());
    assert_eq!(
        decode(upload_payload(0, &page, sample_with(4, 3))),
        NetError::Malformed("page code outside the page")
    );
    assert_eq!(
        decode(upload_payload(0, &page, sample_with(3, 3))),
        NetError::Malformed("unknown corruption name")
    );
    assert_eq!(
        decode(upload_payload(0, &page, sample_with(0, u16::MAX))),
        NetError::Malformed("sample date outside simulated range")
    );
    // An eleven-byte varint where the row count belongs.
    let long_varint = |w: &mut Writer| {
        w.put_bytes(&[0x80; 10]);
        w.put_u8(0);
    };
    assert_eq!(
        decode(upload_payload(1, &page, long_varint)),
        NetError::Malformed("varint overflows u64")
    );
    // Counts past the element cap are refused before anything is sized by
    // them; counts under it that the bytes cannot back run out of bytes.
    let rows = |n: u64| move |w: &mut Writer| w.put_varint(n);
    assert_eq!(
        decode(upload_payload(1, &page, rows((1 << 24) + 1))),
        NetError::Malformed("entry count")
    );
    assert!(matches!(
        decode(upload_payload(1, &page, rows(1 << 24))),
        NetError::Truncated { .. }
    ));
    let features = |n: u64| {
        move |w: &mut Writer| {
            w.put_varint(0);
            w.put_varint(1);
            w.put_varint(n);
        }
    };
    assert_eq!(
        decode(upload_payload(1, &page, features(u64::MAX))),
        NetError::Malformed("feature count")
    );
    assert!(matches!(
        decode(upload_payload(1, &page, features(1 << 24))),
        NetError::Truncated { .. }
    ));
    let mut huge_page = Writer::with_capacity(8);
    huge_page.put_varint(7);
    huge_page.put_u8(1);
    huge_page.put_varint(u64::MAX);
    assert_eq!(
        decode(huge_page.into_bytes()),
        NetError::Malformed("page length")
    );
    let mut bad_utf8 = Writer::with_capacity(8);
    bad_utf8.put_varint(7);
    bad_utf8.put_u8(1);
    bad_utf8.put_varint(1);
    bad_utf8.put_varint(2);
    bad_utf8.put_bytes(&[0xC3, 0x28]);
    assert_eq!(decode(bad_utf8.into_bytes()), NetError::Utf8);
}

/// A CRC-valid deploy chunk whose `total_len` is past the protocol bound
/// is refused before the device sizes a reassembly buffer from it: the
/// client returns the typed error and holds no download. The bound itself
/// is accepted.
#[test]
fn forged_deploy_chunk_length_is_refused_with_a_typed_error() {
    let chunk = |total_len: u32| {
        wire::encode_frame(&Message::DeployChunk {
            transfer_id: 1,
            offset: 0,
            total_len,
            data: vec![0xAB; 16],
        })
    };
    let mut memo = DecodeMemo::default();
    for declared in [wire::MAX_DEPLOY_PAYLOAD + 1, u32::MAX] {
        let frame = chunk(declared);
        let want = NetError::PayloadTooLarge {
            declared,
            max: wire::MAX_DEPLOY_PAYLOAD,
        };
        assert_eq!(wire::decode_frame(&frame), Err(want.clone()));
        let mut client = DeviceClient::new("quebec-dev00");
        assert_eq!(client.on_frame(&frame, &mut memo), Err(want));
    }
    // At the bound the chunk parses and opens a download.
    let frame = chunk(wire::MAX_DEPLOY_PAYLOAD);
    assert!(wire::decode_frame(&frame).is_ok());
    let mut client = DeviceClient::new("quebec-dev00");
    assert_eq!(
        client.on_frame(&frame, &mut memo),
        Ok(ClientAction::SendChunkAck {
            transfer_id: 1,
            received: 16
        })
    );
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

    /// Randomly poisoning any subset of cells of a healthy batch never
    /// produces NaN scores from the batteries-included detectors.
    #[test]
    fn random_poison_injection_never_leaks_nan(
        cells in proptest::collection::vec((0usize..24 * DIM, 0usize..POISON_VALUES.len()), 0..12),
    ) {
        let (x, _) = healthy();
        let mut data = x.data().to_vec();
        let len = data.len();
        for &(cell, which) in &cells {
            data[cell % len] = POISON_VALUES[which];
        }
        let q = Tensor::from_vec(data, x.dims()).unwrap();
        let mut m = model();
        let n = q.nrows().unwrap();
        let mut detectors: Vec<Box<dyn DriftDetector>> = vec![
            Box::new(MspThreshold::default()),
            Box::new(EnergyScore::default()),
            Box::new(MaxLogitScore::default()),
        ];
        for det in &mut detectors {
            let scores = det.scores(&mut m, &q);
            proptest::prop_assert_eq!(scores.len(), n);
            proptest::prop_assert!(scores.iter().all(|s| !s.is_nan()));
        }
    }

    /// `sanitize_rows` output is always fully finite, whatever poison went in.
    #[test]
    fn sanitize_rows_output_is_always_finite(
        cells in proptest::collection::vec((0usize..6 * DIM, 0usize..POISON_VALUES.len()), 0..20),
    ) {
        let mut data: Vec<f32> = (0..6 * DIM).map(|k| (k % 7) as f32 * 0.1).collect();
        for &(cell, which) in &cells {
            data[cell % (6 * DIM)] = POISON_VALUES[which];
        }
        let x = Tensor::from_vec(data, &[6, DIM]).unwrap();
        if let Some(kept) = sanitize_rows(&x) {
            proptest::prop_assert!(kept.data().iter().all(|v| v.is_finite()));
            proptest::prop_assert_eq!(kept.ncols().unwrap(), DIM);
        }
    }
}
