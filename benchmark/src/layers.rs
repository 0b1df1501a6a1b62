//! Single-layer measurements taken beside the traced run: each isolates
//! one layer's unit of work on the workload's own model and data, so a
//! layer row can explain its share of a span.

use crate::measure::MixKeys;
use crate::stats::{median, percentile};
use crate::workloads::{Setup, Spec};
use nazar_data::StreamItem;
use nazar_detect::{msp_of_logits, DetectorKind, StreamDetector};
use nazar_device::{item_attributes, UploadedSample, LOG_SCHEMA};
use nazar_log::DriftLog;
use nazar_net::wire::{encode_frame, Message};
use nazar_nn::Mode;
use nazar_registry::{ModelPool, VersionMeta};
use nazar_store::{DriftStore, StoreConfig};
use nazar_tensor::Tensor;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

const FORWARD_ITEMS: usize = 2000;
const BATCH: usize = 160;

/// The first `n` stream items, round-robin over locations.
fn sample_items(setup: &Setup, n: usize) -> Vec<&StreamItem> {
    let streams = &setup.data.streams;
    let longest = streams.iter().map(|s| s.items.len()).max().unwrap_or(0);
    (0..longest)
        .flat_map(|i| streams.iter().filter_map(move |s| s.items.get(i)))
        .take(n)
        .collect()
}

/// `nazar-nn` and `nazar-detect`: the forward pass the device runs per
/// item, the same items batched, and the detector step on their MSPs.
pub struct ModelMicro {
    pub forward_b1_us: f64,
    pub forward_b160_us_per_item: f64,
    pub detect_step_ns: f64,
}

pub fn model_micro(setup: &Setup) -> ModelMicro {
    let items = sample_items(setup, FORWARD_ITEMS);
    let mut model = setup.model.clone();
    let dim = items[0].features.len();

    // Exactly `forward_item`: a fresh [1, d] tensor and one eval forward.
    let mut confidences = Vec::with_capacity(items.len());
    let t0 = Instant::now();
    for item in &items {
        let x = Tensor::from_vec(item.features.clone(), &[1, dim]).expect("one feature row");
        let logits = model.logits(&x, Mode::Eval);
        confidences.push(msp_of_logits(&logits)[0]);
    }
    let forward_b1_us = t0.elapsed().as_secs_f64() * 1e6 / items.len() as f64;

    let rows: Vec<Vec<f32>> = items.iter().map(|i| i.features.clone()).collect();
    let all = Tensor::stack_rows(&rows).expect("uniform feature width");
    let t0 = Instant::now();
    let mut start = 0;
    while start < rows.len() {
        let end = (start + BATCH).min(rows.len());
        let batch = all.slice_rows(start, end).expect("valid rows");
        black_box(model.logits(&batch, Mode::Eval));
        start = end;
    }
    let forward_b160_us_per_item = t0.elapsed().as_secs_f64() * 1e6 / rows.len() as f64;

    let mut detector = StreamDetector::new(DetectorKind::Msp, 0.9);
    let passes = 200;
    let t0 = Instant::now();
    let mut alarms = 0usize;
    for _ in 0..passes {
        for &msp in &confidences {
            alarms += usize::from(detector.observe(black_box(msp)));
        }
    }
    black_box(alarms);
    let detect_step_ns = t0.elapsed().as_secs_f64() * 1e9 / (passes * confidences.len()) as f64;

    ModelMicro {
        forward_b1_us,
        forward_b160_us_per_item,
        detect_step_ns,
    }
}

/// `nazar-registry`: version selection against a full 8-version pool,
/// causes and inputs taken from the workload's own attribute values.
pub fn registry_select_ns(setup: &Setup) -> f64 {
    let items = sample_items(setup, 256);
    let mut pool: ModelPool<u32> = ModelPool::new(Some(8));
    pool.deploy(VersionMeta::clean(), 0);
    for (i, item) in items.iter().enumerate() {
        if pool.len() >= 8 {
            break;
        }
        // Alternate weather-only and weather+location causes.
        let mut attrs = item_attributes(item);
        attrs.truncate(1 + i % 2);
        pool.deploy(VersionMeta::new(attrs, 2.0 + i as f64), i as u32 + 1);
    }
    let inputs: Vec<_> = items.iter().map(|i| item_attributes(i)).collect();
    let passes = 400;
    let t0 = Instant::now();
    let mut hits = 0usize;
    for _ in 0..passes {
        for attrs in &inputs {
            hits += usize::from(pool.select(black_box(attrs)).is_some());
        }
    }
    black_box(hits);
    t0.elapsed().as_secs_f64() * 1e9 / (passes * inputs.len()) as f64
}

/// `nazar-tensor`: the matmul TENT spends its time in — one adaptation
/// batch (64 rows) through a hidden-by-hidden layer of the workload's
/// model. Returns `(µs per matmul, GFLOP/s)`.
pub fn matmul_micro(setup: &Setup) -> (f64, f64) {
    let hidden = setup.model.arch().hidden;
    let fill = |n: usize| {
        (0..n)
            .map(|i| ((i * 37) % 101) as f32 / 101.0 - 0.5)
            .collect()
    };
    let a = Tensor::from_vec(fill(64 * hidden), &[64, hidden]).expect("a");
    let b = Tensor::from_vec(fill(hidden * hidden), &[hidden, hidden]).expect("b");
    let reps = 2000;
    let t0 = Instant::now();
    for _ in 0..reps {
        black_box(black_box(&a).matmul(black_box(&b)).expect("shapes agree"));
    }
    let us = t0.elapsed().as_secs_f64() * 1e6 / reps as f64;
    let flops = 2.0 * 64.0 * (hidden * hidden) as f64;
    (us, flops / (us * 1e3))
}

/// `nazar-net`: encoding one upload frame — up to 64 of the run's log
/// entries with the samples the workload's rate would attach.
pub fn encode_us_per_frame(setup: &Setup, log: &DriftLog, sample_rate: f64) -> f64 {
    let items = sample_items(setup, 64);
    let samples: Vec<UploadedSample> = items
        .iter()
        .take((64.0 * sample_rate).ceil() as usize)
        .map(|item| UploadedSample {
            features: item.features.clone(),
            attrs: item_attributes(item),
            date: item.date,
            label: item.label,
            true_cause: item.true_cause,
        })
        .collect();
    let frames: Vec<Message> = (0..log.num_rows().min(64 * 200))
        .step_by(64)
        .enumerate()
        .map(|(seq, start)| Message::UploadBatch {
            device_id: items[0].device_id.clone(),
            seq: seq as u64,
            entries: (start..(start + 64).min(log.num_rows()))
                .map(|r| log.entry(r).expect("row exists"))
                .collect(),
            samples: samples.clone(),
        })
        .collect();
    let t0 = Instant::now();
    for frame in &frames {
        black_box(encode_frame(black_box(frame)));
    }
    t0.elapsed().as_secs_f64() * 1e6 / frames.len() as f64
}

/// `nazar-log` and `nazar-store` read side: the query mix in memory, on a
/// store with its decode cache off, and on a warm default store.
pub struct ReadMicro {
    pub log_mix_ms: f64,
    pub reopen_ms: f64,
    pub cold_mix_ms: f64,
    pub warm_mix_ms: f64,
    pub warm_mix_p90_ms: f64,
    pub read_mb_s: f64,
}

pub fn read_micro(spec: &Spec, dir: &Path, oracle: &DriftLog, keys: &MixKeys) -> ReadMicro {
    let time_ms = |reps: usize, f: &mut dyn FnMut()| {
        let samples: Vec<f64> = (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                f();
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        median(&samples)
    };
    let log_mix_ms = time_ms(15, &mut || {
        black_box(keys.in_memory(oracle));
    });

    let t0 = Instant::now();
    let warm =
        DriftStore::open_config(&LOG_SCHEMA, spec.store_config(dir)).expect("reopen the store");
    let reopen_ms = t0.elapsed().as_secs_f64() * 1e3;
    let cold = DriftStore::open_config(
        &LOG_SCHEMA,
        StoreConfig {
            cache_chunks: 0,
            ..spec.store_config(dir)
        },
    )
    .expect("reopen the store uncached");
    let cold_mix_ms = time_ms(5, &mut || {
        black_box(keys.out_of_core(&cold).expect("cold mix"));
    });
    black_box(keys.out_of_core(&warm).expect("warming mix"));
    // Up to 40 mixes or two seconds: the p90 leaves few samples beyond it
    // and is a layer row for that reason, not an end-to-end metric.
    let started = Instant::now();
    let mut warm_ms = Vec::new();
    while warm_ms.len() < 7 || (warm_ms.len() < 40 && started.elapsed().as_secs_f64() < 2.0) {
        let t0 = Instant::now();
        black_box(keys.out_of_core(&warm).expect("warm mix"));
        warm_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let warm_mix_ms = median(&warm_ms);
    // Every query of the cold mix reads and decodes every chunk.
    let chunk_bytes = crate::measure::dir_bytes(dir) as f64;
    let read_mb_s = crate::measure::MIX_QUERIES as f64 * chunk_bytes / 1e6 / (cold_mix_ms / 1e3);
    ReadMicro {
        log_mix_ms,
        reopen_ms,
        cold_mix_ms,
        warm_mix_ms,
        warm_mix_p90_ms: percentile(&warm_ms, 90.0),
        read_mb_s,
    }
}
