//! Criterion microbenchmarks for the performance-sensitive paths.
//!
//! These back the paper's systems claims quantitatively:
//!
//! * `detector_overhead` — Table 1's "negligible computational overhead"
//!   for output-score detectors vs the backprop cost of ODIN;
//! * `analysis_scaling` — Fig. 9d's linear root-cause-analysis runtime;
//! * `adaptation_step` — §3.4's BN-only adaptation efficiency (BN-only vs
//!   full-parameter TENT step);
//! * plus substrate benchmarks (matmul, inference, log ingest, FIM,
//!   version selection).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nazar_adapt::{tent_adapt, TentConfig};
use nazar_analysis::{analyze, mine, mine_fpgrowth, FimConfig};
use nazar_cloud::timing::synthetic_drift_log;
use nazar_data::ClassSpace;
use nazar_detect::{DriftDetector, EnergyScore, EntropyThreshold, MspThreshold, Odin};
use nazar_log::{Attribute, DriftLog, DriftLogEntry};
use nazar_nn::{Layer, MlpResNet, Mode, ModelArch};
use nazar_registry::{ModelPool, VersionMeta};
use nazar_tensor::{kernels, SimdTier, Tape, Tensor, Workspace};
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
    let wide = Tensor::randn(&mut rng, &[512, 512], 0.0, 1.0);
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
    group.bench_function("transpose_512", |bencher| {
        bencher.iter(|| black_box(wide.transpose().expect("matrix")))
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
    // Apriori (the paper's SQL implementation) vs FP-growth on the same log.
    let log = synthetic_drift_log(50_000, 9);
    let config = FimConfig::default();
    let mut group = c.benchmark_group("fim_algorithms");
    group.sample_size(10);
    group.bench_function("apriori_50k", |b| b.iter(|| black_box(mine(&log, &config))));
    group.bench_function("fpgrowth_50k", |b| {
        b.iter(|| black_box(mine_fpgrowth(&log, &config)))
    });
    group.finish();
}

fn bench_adaptation(c: &mut Criterion) {
    let (model, x) = trained_world();
    let mut group = c.benchmark_group("adaptation_step");
    group.sample_size(10);
    group.bench_function("tent_bn_only", |b| {
        b.iter(|| {
            let mut m = model.clone();
            black_box(tent_adapt(
                &mut m,
                &x,
                &TentConfig {
                    epochs: 1,
                    ..TentConfig::default()
                },
            ))
        })
    });
    // Ablation: full-parameter entropy minimization (what Nazar avoids —
    // every adaptation would ship the whole model).
    group.bench_function("tent_all_params", |b| {
        b.iter(|| {
            let mut m = model.clone();
            // Same loop as TENT but with everything trainable.
            let mut opt = nazar_nn::Adam::new(1e-2);
            let tape = Tape::new();
            let xv = tape.leaf(x.clone());
            let logits = m.forward(&tape, &xv, Mode::Adapt);
            let loss = nazar_nn::mean_entropy(&logits);
            let grads = loss.backward();
            m.collect_grads(&grads);
            nazar_nn::Optimizer::step(&mut opt, &mut m);
            m.zero_grads();
            black_box(m.num_params())
        })
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
    bench_analysis,
    bench_fim_algorithms,
    bench_adaptation,
    bench_registry
);
criterion_main!(benches);
