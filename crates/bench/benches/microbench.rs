//! Microbenchmarks for the performance-sensitive paths.
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
//!
//! Every row is timed by [`nazar_bench::median_ns`] and written to
//! `BENCH_tensor.json` by [`nazar_bench::merge_bench_json`].
//! `NAZAR_BENCH_FILTER` runs only the ids that contain it, and such a run
//! replaces only the rows it measured.

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

/// Samples per row, unless a group below sets fewer.
const SAMPLES: usize = 20;

/// The rows one run measures, in the order it measures them.
struct Suite {
    /// `NAZAR_BENCH_FILTER`: only ids that contain it run.
    filter: String,
    /// `(id, report row)`.
    rows: Vec<(String, serde::Value)>,
}

impl Suite {
    /// Times `routine` under `id`, unless the filter skips it.
    fn bench<O>(&mut self, id: &str, samples: usize, routine: impl FnMut() -> O) {
        if !id.contains(self.filter.as_str()) {
            return;
        }
        let ns = nazar_bench::median_ns(samples, routine);
        println!("bench {id:<48} median {ns:>12.1} ns/iter");
        let fields = [("median_ns", ns), ("samples", samples as f64)];
        self.rows
            .push((id.to_string(), nazar_bench::bench_row(id, &fields)));
    }

    /// The measured rows whose id `keep` accepts, as report rows.
    fn report_rows(&self, keep: impl Fn(&str) -> bool) -> Vec<serde::Value> {
        self.rows
            .iter()
            .filter(|(id, _)| keep(id))
            .map(|(_, row)| row.clone())
            .collect()
    }
}

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

fn bench_tensor_ops(suite: &mut Suite) {
    let mut rng = SmallRng::seed_from_u64(1);
    let a128 = Tensor::randn(&mut rng, &[128, 128], 0.0, 1.0);
    let b128 = Tensor::randn(&mut rng, &[128, 128], 0.0, 1.0);
    let a256 = Tensor::randn(&mut rng, &[256, 256], 0.0, 1.0);
    let b256 = Tensor::randn(&mut rng, &[256, 256], 0.0, 1.0);
    suite.bench("tensor_ops/matmul_128", SAMPLES, || {
        a128.matmul(&b128).expect("shapes match")
    });
    suite.bench("tensor_ops/matmul_256", SAMPLES, || {
        a256.matmul(&b256).expect("shapes match")
    });
    suite.bench("tensor_ops/matmul_256_naive_baseline", SAMPLES, || {
        naive_matmul(&a256, &b256)
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
        suite.bench(&format!("tensor_ops/{name}"), SAMPLES, || {
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
            out256[0]
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
    suite.bench("tensor_ops/matmul_64x96x96", SAMPLES, || {
        kernels::matmul_into(x.data(), w.data(), n, k, m, &mut out, &mut ws);
        out[0]
    });
    let mut dx = vec![0.0f32; n * k];
    suite.bench("tensor_ops/matmul_a_bt_64x96x96", SAMPLES, || {
        kernels::matmul_a_bt_into(g.data(), w.data(), n, m, k, &mut dx, &mut ws);
        dx[0]
    });
    let mut dw = vec![0.0f32; k * m];
    suite.bench("tensor_ops/matmul_at_b_64x96x96", SAMPLES, || {
        kernels::matmul_at_b_into(x.data(), g.data(), n, k, m, &mut dw);
        dw[0]
    });
    suite.bench("tensor_ops/softmax_rows_128", SAMPLES, || {
        a128.softmax_rows().expect("matrix")
    });
}

fn bench_inference(suite: &mut Suite) {
    let (mut model, x) = trained_world();
    suite.bench(
        "inference_latency/forward_resnet50_analog_b160",
        SAMPLES,
        || model.logits(&x, Mode::Eval),
    );
    let row = x.select_rows(&[0]).expect("row");
    suite.bench(
        "inference_latency/forward_resnet50_analog_b1",
        SAMPLES,
        || model.logits(&row, Mode::Eval),
    );
}

fn bench_detectors(suite: &mut Suite) {
    let (mut model, x) = trained_world();
    let mut msp = MspThreshold::default();
    suite.bench("detector_overhead/msp_threshold", SAMPLES, || {
        msp.scores(&mut model, &x)
    });
    let mut entropy = EntropyThreshold::default();
    suite.bench("detector_overhead/entropy", SAMPLES, || {
        entropy.scores(&mut model, &x)
    });
    let mut energy = EnergyScore::default();
    suite.bench("detector_overhead/energy", SAMPLES, || {
        energy.scores(&mut model, &x)
    });
    let mut odin = Odin::default();
    suite.bench("detector_overhead/odin_backprop", SAMPLES, || {
        odin.scores(&mut model, &x)
    });
}

fn bench_drift_log(suite: &mut Suite) {
    suite.bench("log/ingest_10k", SAMPLES, || {
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
        log.num_rows()
    });
    let log = synthetic_drift_log(50_000, 3);
    suite.bench("log/count_matching_50k", SAMPLES, || {
        log.count_matching(&[Attribute::new("weather", "snow")], None)
            .expect("schema")
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
fn bench_batch_ingest(suite: &mut Suite) {
    let entries: Vec<DriftLogEntry> = (0..30_000u64)
        .map(|i| fleet_row(i, i as usize * 2_800 / 30_000))
        .collect();
    suite.bench("log/ingest_batch_30k", SAMPLES, || {
        let mut log = DriftLog::new(&LOG_SCHEMA);
        log.ingest_batch_with_threads(&entries, 1)
    });
}

/// Upload-frame encode and decode at the two shapes the benchmark's
/// workloads send: a fleet device's window (2 rows, no sample) and an
/// Animals device's (28 rows, 8 sampled 64-d inputs).
fn bench_wire(suite: &mut Suite) {
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
        suite.bench(
            &format!("wire/upload_frame_encode_{shape}"),
            SAMPLES,
            || wire::encode_upload_batch(&device_id, 3, &entries, &samples),
        );
        let frame = wire::encode_upload_batch(&device_id, 3, &entries, &samples);
        suite.bench(
            &format!("wire/upload_frame_decode_{shape}"),
            SAMPLES,
            || wire::decode_frame(&frame).expect("valid frame"),
        );
    }
}

fn bench_analysis(suite: &mut Suite) {
    for rows in [10_000usize, 40_000, 160_000] {
        let log = synthetic_drift_log(rows, 7);
        suite.bench(&format!("analysis_scaling/{rows}"), 10, || {
            analyze(&log, &FimConfig::default())
        });
    }
}

fn bench_fim_algorithms(suite: &mut Suite) {
    // Apriori (the paper's SQL implementation) on the synthetic fleet log.
    let log = synthetic_drift_log(50_000, 9);
    let config = FimConfig::default();
    suite.bench("fim_algorithms/apriori_50k", 10, || mine(&log, &config));
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

fn bench_adaptation(suite: &mut Suite) {
    // The two step rows time the same step on the same model and the same
    // batch, from a fresh clone each iteration so the weights never drift;
    // the clone (~0.6 MB) is in both. Only the freeze differs.
    // `eval_forward` is the tape-free eval forward of that model and batch,
    // the floor a BN-only step is measured against.
    let (all_params, x) = trained_world();
    let mut bn_only = all_params.clone();
    bn_only.set_all_trainable(false);
    bn_only.set_bn_affine_trainable(true);
    // Ablation: `tent_all_params` is full-parameter entropy minimization
    // (what Nazar avoids — every adaptation would ship the whole model).
    for (name, model) in [("tent_bn_only", &bn_only), ("tent_all_params", &all_params)] {
        let mut opt = Adam::new(1e-2);
        let pool = TapePool::new();
        suite.bench(&format!("adaptation_step/{name}"), 10, || {
            let mut m = model.clone();
            tent_step(&mut m, &mut opt, &x, &pool);
            m
        });
    }
    let mut model = all_params;
    suite.bench("adaptation_step/eval_forward", 10, || {
        model.logits(&x, Mode::Eval)
    });
}

fn bench_registry(suite: &mut Suite) {
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
    suite.bench("registry/select_from_64_versions", SAMPLES, || {
        pool.select(&input)
    });
}

/// Runs every bench the filter keeps, then merges the rows into
/// `BENCH_tensor.json` under a header naming what shaped the numbers:
/// commit, host, thread width and SIMD tier.
fn main() {
    let mut suite = Suite {
        filter: std::env::var("NAZAR_BENCH_FILTER").unwrap_or_default(),
        rows: Vec::new(),
    };
    bench_tensor_ops(&mut suite);
    bench_inference(&mut suite);
    bench_detectors(&mut suite);
    bench_drift_log(&mut suite);
    bench_batch_ingest(&mut suite);
    bench_wire(&mut suite);
    bench_analysis(&mut suite);
    bench_fim_algorithms(&mut suite);
    bench_adaptation(&mut suite);
    bench_registry(&mut suite);

    // Every id that contains the filter was measured, so a stale row is
    // one that contains it and was not.
    let filter = suite.filter.as_str();
    nazar_bench::merge_bench_json(
        &nazar_bench::bench_out("BENCH_tensor.json"),
        |id| id.contains(filter),
        suite.report_rows(|_| true),
    )
    .expect("the tensor bench report is writable");

    // The transport rows explain the fleet runs, so they also join that
    // report (the same file when `NAZAR_BENCH_OUT` redirects the run).
    let transport = |id: &str| id.starts_with("wire/") || id.starts_with("log/ingest_batch");
    nazar_bench::merge_bench_json(
        &nazar_bench::bench_out("BENCH_fleet.json"),
        |id| transport(id) && id.contains(filter),
        suite.report_rows(transport),
    )
    .expect("the fleet bench report is writable");
}
