//! Criterion microbenchmarks for the performance-sensitive paths.
//!
//! These back the paper's systems claims quantitatively:
//!
//! * `detector_overhead` — Table 1's "negligible computational overhead"
//!   for output-score detectors vs the backprop cost of ODIN;
//! * `analysis_scaling` — Fig. 9d's linear root-cause-analysis runtime;
//! * `adaptation_step` — §3.4's BN-only adaptation efficiency (one BN-only
//!   TENT step against one full-parameter step and the tape-free eval
//!   forward, same model and batch);
//! * `wire` and `log/ingest_batch_30k` — what one upload frame and one
//!   window's ingest cost at the shapes the fleet workloads send (these
//!   rows also join `BENCH_fleet.json`, beside the runs they explain);
//! * plus substrate benchmarks (matmul, inference, log ingest, FIM,
//!   version selection).

use criterion::{criterion_group, BenchmarkId, Criterion};
use nazar_analysis::{analyze, mine, FimConfig};
use nazar_cloud::timing::synthetic_drift_log;
use nazar_data::{ClassSpace, Corruption, SimDate};
use nazar_detect::{DriftDetector, EnergyScore, EntropyThreshold, MspThreshold, Odin};
use nazar_device::{UploadedSample, LOG_SCHEMA};
use nazar_log::{Attribute, DriftLog, DriftLogEntry};
use nazar_net::wire;
use nazar_nn::{Adam, Layer, MlpResNet, Mode, ModelArch, Optimizer};
use nazar_registry::{ModelPool, VersionMeta};
use nazar_tensor::{kernels, SimdTier, Tape, TapePool, Tensor, Workspace};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;

fn trained_world() -> (MlpResNet, Tensor) {
    let mut rng = SmallRng::seed_from_u64(0);
    let space = ClassSpace::new(&mut rng, 64, 40, 0.68, 1.0);
    let samples = space.sample_balanced(&mut rng, 4);
    let x = Tensor::stack_rows(
        &samples
            .iter()
            .map(|s| s.features.clone())
            .collect::<Vec<_>>(),
    )
    .expect("rows");
    let model = MlpResNet::new(ModelArch::resnet50_analog(64, 40), &mut rng);
    (model, x)
}

/// The seed's textbook matmul loop, kept as the in-tree baseline the
/// kernel speedups are measured against.
fn naive_matmul(a: &Tensor, b: &Tensor) -> Vec<f32> {
    let (n, k) = (a.nrows().unwrap(), a.ncols().unwrap());
    let m = b.ncols().unwrap();
    let (ad, bd) = (a.data(), b.data());
    let mut out = vec![0.0f32; n * m];
    for i in 0..n {
        for p in 0..k {
            let av = ad[i * k + p];
            for j in 0..m {
                out[i * m + j] += av * bd[p * m + j];
            }
        }
    }
    out
}

fn bench_tensor_ops(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(1);
    let a128 = Tensor::randn(&mut rng, &[128, 128], 0.0, 1.0);
    let b128 = Tensor::randn(&mut rng, &[128, 128], 0.0, 1.0);
    let a256 = Tensor::randn(&mut rng, &[256, 256], 0.0, 1.0);
    let b256 = Tensor::randn(&mut rng, &[256, 256], 0.0, 1.0);
    let mut group = c.benchmark_group("tensor_ops");
    group.bench_function("matmul_128", |bencher| {
        bencher.iter(|| black_box(a128.matmul(&b128).expect("shapes match")))
    });
    group.bench_function("matmul_256", |bencher| {
        bencher.iter(|| black_box(a256.matmul(&b256).expect("shapes match")))
    });
    group.bench_function("matmul_256_naive_baseline", |bencher| {
        bencher.iter(|| black_box(naive_matmul(&a256, &b256)))
    });
    // Explicit SIMD tiers on the 256³ shape (the default env tier is
    // `exact`, so `matmul_256` above already runs the AVX-512 path when
    // the host supports it; these rows isolate each tier).
    let mut ws = Workspace::new();
    let mut out256 = vec![0.0f32; 256 * 256];
    for (name, tier) in [
        ("matmul_256_simd_off", SimdTier::Off),
        ("matmul_256_simd_exact", SimdTier::Exact),
        ("matmul_256_simd_fast", SimdTier::Fast),
    ] {
        group.bench_function(name, |bencher| {
            bencher.iter(|| {
                kernels::matmul_into_tier(
                    a256.data(),
                    b256.data(),
                    256,
                    256,
                    256,
                    &mut out256,
                    &mut ws,
                    1,
                    tier,
                );
                black_box(out256[0])
            })
        });
    }
    // One `Linear` of the `vision_loop` model at TENT's batch size: the
    // forward product and the two backward products (dX, dW) of one tape
    // matmul node, kernel policy and env tier as the tape runs them.
    let (n, k, m) = (64, 96, 96);
    let x = Tensor::randn(&mut rng, &[n, k], 0.0, 1.0);
    let w = Tensor::randn(&mut rng, &[k, m], 0.0, 1.0);
    let g = Tensor::randn(&mut rng, &[n, m], 0.0, 1.0);
    let mut out = vec![0.0f32; n * m];
    group.bench_function("matmul_64x96x96", |bencher| {
        bencher.iter(|| {
            kernels::matmul_into(x.data(), w.data(), n, k, m, &mut out, &mut ws);
            black_box(out[0])
        })
    });
    let mut dx = vec![0.0f32; n * k];
    group.bench_function("matmul_a_bt_64x96x96", |bencher| {
        bencher.iter(|| {
            kernels::matmul_a_bt_into(g.data(), w.data(), n, m, k, &mut dx, &mut ws);
            black_box(dx[0])
        })
    });
    let mut dw = vec![0.0f32; k * m];
    group.bench_function("matmul_at_b_64x96x96", |bencher| {
        bencher.iter(|| {
            kernels::matmul_at_b_into(x.data(), g.data(), n, k, m, &mut dw);
            black_box(dw[0])
        })
    });
    group.bench_function("softmax_rows_128", |bencher| {
        bencher.iter(|| black_box(a128.softmax_rows().expect("matrix")))
    });
    group.finish();
}

fn bench_inference(c: &mut Criterion) {
    let (mut model, x) = trained_world();
    let mut group = c.benchmark_group("inference_latency");
    group.bench_function("forward_resnet50_analog_b160", |bencher| {
        bencher.iter(|| black_box(model.logits(&x, Mode::Eval)))
    });
    let row = x.select_rows(&[0]).expect("row");
    group.bench_function("forward_resnet50_analog_b1", |bencher| {
        bencher.iter(|| black_box(model.logits(&row, Mode::Eval)))
    });
    group.finish();
}

fn bench_detectors(c: &mut Criterion) {
    let (mut model, x) = trained_world();
    let mut group = c.benchmark_group("detector_overhead");
    let mut msp = MspThreshold::default();
    group.bench_function("msp_threshold", |b| {
        b.iter(|| black_box(msp.scores(&mut model, &x)))
    });
    let mut entropy = EntropyThreshold::default();
    group.bench_function("entropy", |b| {
        b.iter(|| black_box(entropy.scores(&mut model, &x)))
    });
    let mut energy = EnergyScore::default();
    group.bench_function("energy", |b| {
        b.iter(|| black_box(energy.scores(&mut model, &x)))
    });
    let mut odin = Odin::default();
    group.bench_function("odin_backprop", |b| {
        b.iter(|| black_box(odin.scores(&mut model, &x)))
    });
    group.finish();
}

fn bench_drift_log(c: &mut Criterion) {
    c.bench_function("log/ingest_10k", |b| {
        b.iter(|| {
            let mut log = DriftLog::new(&["weather", "location", "device_id"]);
            for i in 0..10_000u64 {
                log.push(DriftLogEntry::new(
                    i,
                    &[
                        ("weather", if i % 4 == 0 { "snow" } else { "clear-day" }),
                        ("location", "quebec"),
                        ("device_id", "d1"),
                    ],
                    i % 5 == 0,
                ))
                .expect("schema");
            }
            black_box(log.num_rows())
        })
    });
    let log = synthetic_drift_log(50_000, 3);
    c.bench_function("log/count_matching_50k", |b| {
        b.iter(|| {
            black_box(
                log.count_matching(&[Attribute::new("weather", "snow")], None)
                    .expect("schema"),
            )
        })
    });
}

/// A drift-log row as a device emits it: the three schema columns.
fn fleet_row(ts: u64, device: usize) -> DriftLogEntry {
    const WEATHER: [&str; 4] = ["clear-day", "snow", "rain", "fog"];
    const LOCATIONS: [&str; 7] = [
        "quebec", "new-york", "helsinki", "tokyo", "cairo", "lima", "oslo",
    ];
    let location = LOCATIONS[device % 7];
    DriftLogEntry::new(
        ts,
        &[
            ("weather", WEATHER[(ts as usize / 3 + device) % 4]),
            ("location", location),
            ("device_id", &format!("{location}-dev{device:04}")),
        ],
        ts.is_multiple_of(4),
    )
}

/// One window's ingest as the orchestrator runs it: a fresh log (the
/// per-window analysis log starts empty, so most rows intern a device id)
/// over rows borrowed from the delivery.
fn bench_batch_ingest(c: &mut Criterion) {
    let entries: Vec<DriftLogEntry> = (0..30_000u64)
        .map(|i| fleet_row(i, i as usize * 2_800 / 30_000))
        .collect();
    c.bench_function("log/ingest_batch_30k", |b| {
        b.iter(|| {
            let mut log = DriftLog::new(&LOG_SCHEMA);
            black_box(log.ingest_batch_with_threads(&entries, 1))
        })
    });
}

/// Upload-frame encode and decode at the two shapes the benchmark's
/// workloads send: a fleet device's window (2 rows, no sample) and an
/// Animals device's (28 rows, 8 sampled 64-d inputs).
fn bench_wire(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire");
    for (shape, rows, n_samples) in [("fleet", 2u64, 0usize), ("animals", 28, 8)] {
        let entries: Vec<DriftLogEntry> = (0..rows).map(|t| fleet_row(86_400 + t, 17)).collect();
        let device_id = entries[0]
            .attr("device_id")
            .expect("schema row")
            .to_string();
        let samples: Vec<UploadedSample> = (0..n_samples)
            .map(|s| UploadedSample {
                features: (0..64).map(|f| (f * 7 + s) as f32 * 0.125 - 3.0).collect(),
                attrs: entries[s].attrs.clone(),
                date: SimDate::new(1),
                label: s % 40,
                true_cause: (s % 2 == 1).then_some(Corruption::ALL[s % Corruption::ALL.len()]),
            })
            .collect();
        group.bench_function(format!("upload_frame_encode_{shape}"), |b| {
            b.iter(|| black_box(wire::encode_upload_batch(&device_id, 3, &entries, &samples)))
        });
        let frame = wire::encode_upload_batch(&device_id, 3, &entries, &samples);
        group.bench_function(format!("upload_frame_decode_{shape}"), |b| {
            b.iter(|| black_box(wire::decode_frame(&frame).expect("valid frame")))
        });
    }
    group.finish();
}

fn bench_analysis(c: &mut Criterion) {
    let mut group = c.benchmark_group("analysis_scaling");
    group.sample_size(10);
    for rows in [10_000usize, 40_000, 160_000] {
        let log = synthetic_drift_log(rows, 7);
        group.bench_with_input(BenchmarkId::from_parameter(rows), &log, |b, log| {
            b.iter(|| black_box(analyze(log, &FimConfig::default())))
        });
    }
    group.finish();
}

fn bench_fim_algorithms(c: &mut Criterion) {
    // Apriori (the paper's SQL implementation) on the synthetic fleet log.
    let log = synthetic_drift_log(50_000, 9);
    let config = FimConfig::default();
    let mut group = c.benchmark_group("fim_algorithms");
    group.sample_size(10);
    group.bench_function("apriori_50k", |b| b.iter(|| black_box(mine(&log, &config))));
    group.finish();
}

/// One entropy-minimisation step on `x`: Adapt-mode forward, backward,
/// collect, Adam. What `tent_adapt` runs per batch, on the tape pool its
/// earlier steps filled; which parameters it trains is the model's
/// trainability flags.
fn tent_step(model: &mut MlpResNet, opt: &mut Adam, x: &Tensor, pool: &TapePool) {
    let tape = Tape::with_pool(pool);
    let xv = tape.constant(x);
    let logits = model.forward(&tape, &xv, Mode::Adapt);
    let grads = nazar_nn::mean_entropy(&logits).backward();
    model.collect_grads(&grads);
    opt.step(model);
    model.zero_grads();
}

fn bench_adaptation(c: &mut Criterion) {
    // The two step rows time the same step on the same model and the same
    // batch, from a fresh clone each iteration so the weights never drift;
    // the clone (~0.6 MB) is in both. Only the freeze differs.
    // `eval_forward` is the tape-free eval forward of that model and batch,
    // the floor a BN-only step is measured against.
    let (all_params, x) = trained_world();
    let mut bn_only = all_params.clone();
    bn_only.set_all_trainable(false);
    bn_only.set_bn_affine_trainable(true);
    let mut group = c.benchmark_group("adaptation_step");
    group.sample_size(10);
    // Ablation: `tent_all_params` is full-parameter entropy minimization
    // (what Nazar avoids — every adaptation would ship the whole model).
    for (name, model) in [("tent_bn_only", &bn_only), ("tent_all_params", &all_params)] {
        let mut opt = Adam::new(1e-2);
        let pool = TapePool::new();
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut m = model.clone();
                tent_step(&mut m, &mut opt, &x, &pool);
                black_box(m)
            })
        });
    }
    let mut model = all_params;
    group.bench_function("eval_forward", |b| {
        b.iter(|| black_box(model.logits(&x, Mode::Eval)))
    });
    group.finish();
}

fn bench_registry(c: &mut Criterion) {
    let mut pool: ModelPool<u32> = ModelPool::new(None);
    for i in 0..64 {
        pool.deploy(
            VersionMeta::new(
                vec![
                    Attribute::new("weather", format!("w{}", i % 4)),
                    Attribute::new("location", format!("loc{}", i % 16)),
                ],
                1.0 + i as f64,
            ),
            i,
        );
    }
    let input = [
        Attribute::new("weather", "w1"),
        Attribute::new("location", "loc5"),
        Attribute::new("device_id", "d9"),
    ];
    c.bench_function("registry/select_from_64_versions", |b| {
        b.iter(|| black_box(pool.select(&input)))
    });
}

criterion_group!(
    benches,
    bench_tensor_ops,
    bench_inference,
    bench_detectors,
    bench_drift_log,
    bench_batch_ingest,
    bench_wire,
    bench_analysis,
    bench_fim_algorithms,
    bench_adaptation,
    bench_registry
);
/// Runs every group and writes `BENCH_tensor.json` under a header naming
/// what shaped the numbers: commit, host, thread width and SIMD tier.
fn main() {
    let mut criterion = Criterion::default();
    for (key, value) in nazar_bench::report::run_header() {
        criterion.header(key, value);
    }
    benches(&mut criterion);
    criterion.finalize();

    // The transport rows explain the fleet runs, so a full recording (not
    // one redirected to a scratch file) also files them in that report.
    if std::env::var_os("NAZAR_BENCH_OUT").is_none() {
        let fleet_report = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json");
        for prefix in ["wire/", "log/ingest_batch"] {
            let rows: Vec<_> = criterion
                .results()
                .iter()
                .filter(|r| r.id.starts_with(prefix))
                .map(|r| {
                    let fields = [("median_ns", r.median_ns), ("samples", r.samples as f64)];
                    nazar_bench::bench_row(&r.id, &fields)
                })
                .collect();
            if !rows.is_empty() {
                nazar_bench::merge_bench_json(fleet_report, prefix, rows)
                    .expect("BENCH_fleet.json is writable");
            }
        }
    }
}
