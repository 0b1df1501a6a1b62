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
//! * `train_step` — one batch of the base-model training that most of
//!   `vision_loop`'s set-up time is;
//! * `wire`, `net/deploy_broadcast_2800` and `log/ingest_{batch,rows}_30k`
//!   — what one upload frame, one device's deploy-chunk check, one
//!   fleet-wide push and one window's ingest cost at the shapes the fleet
//!   workloads send;
//! * `device/window_fleet_2800` and `net/upload_window_fleet_2800` — one
//!   `fleet_wide` window's device stage, and its upload phase plus ingest;
//! * plus substrate benchmarks (matmul, inference, log ingest, version
//!   selection).
//!
//! Every row is timed by [`nazar_bench::median_ns`] and written by
//! [`nazar_bench::merge_bench_json`] to one file: the transport and
//! fleet-window rows above to `BENCH_fleet.json`, beside the runs they
//! explain, the rest to `BENCH_tensor.json`.
//! `NAZAR_BENCH_FILTER` runs only the ids that contain it, and such a run
//! replaces only the rows it measured.

use nazar_adapt::{adapt_to_patch, AdaptMethod, TentConfig};
use nazar_analysis::{analyze, FimConfig};
use nazar_cloud::timing::synthetic_drift_log;
use nazar_data::{AnimalsConfig, AnimalsDataset, ClassSpace, Corruption, SimDate};
use nazar_detect::{DriftDetector, EnergyScore, EntropyThreshold, MspThreshold, Odin};
use nazar_device::{DeviceConfig, FleetSim, UploadedSample, LOG_SCHEMA};
use nazar_log::{Attribute, DriftLog, DriftLogEntry, RowBatch};
use nazar_net::wire;
use nazar_nn::{train, Adam, BnPatch, Layer, MlpResNet, Mode, ModelArch, Optimizer, Sgd};
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
    // The `vision_loop` head at the same batch size: 40 columns, one full
    // 32-column panel and an 8-column tail.
    let classes = 40;
    let head = Tensor::randn(&mut rng, &[k, classes], 0.0, 1.0);
    let mut logits = vec![0.0f32; n * classes];
    suite.bench("tensor_ops/matmul_64x96x40", SAMPLES, || {
        kernels::matmul_into(x.data(), head.data(), n, k, classes, &mut logits, &mut ws);
        logits[0]
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
    // The head's dW: one full 32-column tile panel and an 8-column tail.
    let g_head = Tensor::randn(&mut rng, &[n, classes], 0.0, 1.0);
    let mut dw_head = vec![0.0f32; k * classes];
    suite.bench("tensor_ops/matmul_at_b_64x96x40", SAMPLES, || {
        kernels::matmul_at_b_into(x.data(), g_head.data(), n, k, classes, &mut dw_head);
        dw_head[0]
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

/// Entries as one coded batch a device, the device id first on each page,
/// as devices emit them: a run of equal device ids is one device's rows.
fn device_batches(entries: &[DriftLogEntry]) -> Vec<RowBatch> {
    let device_of = |e: &DriftLogEntry| e.attr("device_id").map(str::to_string);
    let runs = entries.chunk_by(|a, b| device_of(a) == device_of(b));
    runs.map(|run| {
        let mut rows = RowBatch::with_capacity(&LOG_SCHEMA, run.len(), 3);
        rows.intern(run[0].attr("device_id").expect("schema row"));
        for e in run {
            let values: Vec<&str> = e.attrs.iter().map(|a| a.value.as_str()).collect();
            rows.push_values(e.timestamp, e.drift, &values);
        }
        rows
    })
    .collect()
}

/// One window's ingest as the orchestrator runs it: a fresh log (the
/// per-window analysis log starts empty, so most rows intern a device id).
/// `log/ingest_batch_30k` ingests the rows as borrowed entries (the string
/// adapter), `log/ingest_rows_30k` as the coded batches devices emit, one
/// `ingest_rows` call a device (the upload path).
fn bench_batch_ingest(suite: &mut Suite) {
    let entries: Vec<DriftLogEntry> = (0..30_000u64)
        .map(|i| fleet_row(i, i as usize * 2_800 / 30_000))
        .collect();
    suite.bench("log/ingest_batch_30k", SAMPLES, || {
        let mut log = DriftLog::new(&LOG_SCHEMA);
        log.ingest_entries(&entries)
    });
    let batches = device_batches(&entries);
    suite.bench("log/ingest_rows_30k", SAMPLES, || {
        let mut log = DriftLog::new(&LOG_SCHEMA);
        for rows in &batches {
            log.ingest_rows(rows);
        }
        log.num_rows()
    });
}

/// Upload-frame encode, decode and in-place parse at the two shapes the
/// benchmark's workloads send: a fleet device's window (2 rows, no
/// sample) and an Animals device's (28 rows, 8 sampled 64-d inputs); and
/// one device's check of a deploy chunk at the two chunk sizes they ship.
/// Encoding starts from the device's coded batch and writes into reused
/// buffers, as the exchange does (the copy the exchange then shares the
/// frame as is not timed); decoding builds the strings the frame names
/// (the string adapter); parsing is what the cloud does with an arriving
/// frame — envelope, page, rows into a reused batch, samples.
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
        let batch = &device_batches(&entries)[0];
        let range = 0..batch.len();
        let mut bufs = wire::FrameBuffers::default();
        suite.bench(
            &format!("wire/upload_frame_encode_{shape}"),
            SAMPLES,
            || {
                wire::encode_upload_rows_with(
                    &mut bufs,
                    &device_id,
                    3,
                    batch,
                    range.clone(),
                    &samples,
                )
                .len()
            },
        );
        let frame = wire::encode_upload_rows(&device_id, 3, batch, range.clone(), &samples);
        suite.bench(
            &format!("wire/upload_frame_decode_{shape}"),
            SAMPLES,
            || wire::decode_frame(&frame).expect("valid frame"),
        );
        let mut parsed = RowBatch::default();
        suite.bench(&format!("wire/upload_frame_parse_{shape}"), SAMPLES, || {
            let (_, payload) = wire::open_frame(&frame).expect("valid frame");
            let upload = wire::parse_upload(payload, &mut parsed).expect("valid upload");
            upload.samples(parsed.page()).expect("valid samples").len()
        });
    }
    // What every target device does first with a deploy chunk: verify its
    // envelope and CRC. The fleets send their 830-byte patch payload as one
    // 864-byte frame; `vision_loop`'s ≈ 11 KB patch goes in 4 KiB chunks.
    let payload: Vec<u8> = (0..11_000u32).map(|i| (i * 31 + 7) as u8).collect();
    for (shape, chunk, total) in [("fleet", 830, 830), ("animals", 4096, 11_000)] {
        let frame = wire::encode_deploy_chunk(0, 0, total, &payload[..chunk]);
        suite.bench(&format!("wire/deploy_chunk_open_{shape}"), SAMPLES, || {
            wire::open_frame(&frame).expect("valid frame").1.len()
        });
    }
}

/// One warm window at the `fleet_wide` workload's shape, on one thread:
/// 2 800 devices (400 a location; at seed 2020, the benchmark's default,
/// 2 799 of them get an item), 0.1 arrivals a day, the tiny model,
/// eight windows, 2 % of inputs sampled. `device/window_fleet_2800` is the
/// orchestrator's device stage — `FleetSim::run_window` into the last
/// window's buffers, then handing them back; `net/upload_window_fleet_2800`
/// is that window's upload phase over a perfect link into a reused
/// delivery, then `FrameDelivery::ingest_into` the run's cumulative log.
/// Both rows go to `BENCH_fleet.json` only.
fn bench_fleet_window(suite: &mut Suite) {
    const WINDOWS: usize = 8;
    const WINDOW: usize = 3;
    let cfg = AnimalsConfig {
        devices_per_location: 400,
        arrivals_per_day: 0.1,
        seed: 2020,
        ..AnimalsConfig::small()
    };
    let data = AnimalsDataset::generate(&cfg);
    let mut rng = SmallRng::seed_from_u64(7);
    let model = MlpResNet::new(ModelArch::tiny(cfg.dim, cfg.classes), &mut rng);
    let config = DeviceConfig {
        sample_rate: 0.02,
        ..DeviceConfig::default()
    };
    let mut fleet = FleetSim::from_streams(&data.streams, &model, &config);
    suite.bench("device/window_fleet_2800", SAMPLES, || {
        let parts = fleet.run_window_with_threads(&data.streams, WINDOW, WINDOWS, &mut rng, 1);
        let devices = parts.iter().len();
        fleet.recycle(parts);
        devices
    });
    let parts = fleet.run_window_with_threads(&data.streams, WINDOW, WINDOWS, &mut rng, 1);
    let mut exchange =
        nazar_net::Exchange::new(fleet.device_ids(), nazar_net::NetConfig::default());
    let mut delivery = nazar_net::FrameDelivery::default();
    let mut log = DriftLog::new(&LOG_SCHEMA);
    suite.bench("net/upload_window_fleet_2800", SAMPLES, || {
        let batches = (parts.iter()).map(|p| (p.device(), p.batch(), p.rows(), p.uploads()));
        exchange.upload_window_into(batches, &mut delivery);
        delivery.ingest_into(&mut log).appended
    });
}

/// One broadcast push as the fleets run it: the 830-byte deploy payload
/// of their model to 2 800 devices over a perfect link, each transfer one
/// chunk down and one acknowledgement up, every delivery decoded off the
/// wire. The devices are named by index, as the orchestrator names them.
fn bench_net(suite: &mut Suite) {
    const DEVICES: u32 = 2_800;
    let ids = (0..DEVICES).map(|d| format!("dev{d:04}"));
    let mut ex = nazar_net::Exchange::new(ids, nazar_net::NetConfig::default());
    let mut rng = SmallRng::seed_from_u64(5);
    let patch = BnPatch::extract(&mut MlpResNet::new(ModelArch::tiny(64, 40), &mut rng));
    let meta = VersionMeta::clean();
    assert_eq!(wire::encode_deploy_payload(&meta, &patch).len(), 830);
    let targets: Vec<u32> = (0..DEVICES).collect();
    suite.bench("net/deploy_broadcast_2800", SAMPLES, || {
        ex.deploy_to(&targets, &meta, &patch).delivered.len()
    });
}

fn bench_analysis(suite: &mut Suite) {
    for rows in [10_000usize, 40_000, 160_000] {
        let log = synthetic_drift_log(rows, 7);
        suite.bench(&format!("analysis_scaling/{rows}"), 10, || {
            analyze(&log, &FimConfig::default())
        });
    }
}

/// One full-parameter entropy-minimisation step on `x` on the tape:
/// Adapt-mode forward, backward, collect, Adam, on the tape pool the
/// earlier steps filled.
fn tent_all_params_step(model: &mut MlpResNet, opt: &mut Adam, x: &Tensor, pool: &TapePool) {
    let tape = Tape::with_pool(pool);
    let xv = tape.constant(x);
    let logits = model.forward(&tape, &xv, Mode::Adapt);
    let grads = nazar_nn::mean_entropy(&logits).backward();
    model.collect_grads(&grads);
    opt.step(model);
    model.zero_grads();
}

fn bench_adaptation(suite: &mut Suite) {
    // The two step rows time one step on the same model and the same
    // 160-row batch, from a fresh clone each iteration so the weights
    // never drift; the clone (~0.6 MB) is in both. `tent_bn_only` is
    // production TENT: `adapt_to_patch` with one epoch of one
    // 160-row batch is one tape-free step, with its job's frame (the
    // finite-row scan, packing the frozen weights, the BN snapshot and the
    // patch extract). Ablation: `tent_all_params` is full-parameter entropy
    // minimization on the tape (what Nazar avoids — every adaptation would
    // ship the whole model). `eval_forward` is the tape-free eval forward
    // of that model and batch, the floor a BN-only step is measured
    // against.
    let (model, x) = trained_world();
    assert_eq!(x.nrows().expect("a batch"), 160, "one 160-row batch");
    let tent = AdaptMethod::Tent(TentConfig {
        batch_size: 160,
        epochs: 1,
        ..TentConfig::default()
    });
    let mut rng = SmallRng::seed_from_u64(3);
    suite.bench("adaptation_step/tent_bn_only", 10, || {
        adapt_to_patch(&model, &x, &tent, &mut rng)
    });
    let mut opt = Adam::new(1e-2);
    let pool = TapePool::new();
    suite.bench("adaptation_step/tent_all_params", 10, || {
        let mut m = model.clone();
        tent_all_params_step(&mut m, &mut opt, &x, &pool);
        m
    });
    let mut model = model;
    suite.bench("adaptation_step/eval_forward", 10, || {
        model.logits(&x, Mode::Eval)
    });
}

fn bench_training(suite: &mut Suite) {
    // One batch of the base-model training `vision_loop` sets up: a
    // `train_epoch` over 64 rows in one 64-row batch (the shuffle, the
    // row gather, the tape-free cross-entropy step and SGD with momentum
    // and weight decay) on its resnet34 analog, 64-d and 40 classes.
    let mut rng = SmallRng::seed_from_u64(5);
    let x = Tensor::randn(&mut rng, &[64, 64], 0.0, 1.0);
    let y: Vec<usize> = (0..64).map(|i| i % 40).collect();
    let mut model = MlpResNet::new(ModelArch::resnet34_analog(64, 40), &mut rng);
    let mut opt = Sgd::with_momentum(0.05, 0.9).with_weight_decay(4e-4);
    suite.bench("train_step/resnet34_analog_b64", SAMPLES, || {
        train::train_epoch(&mut model, &mut opt, &x, &y, 64, &mut rng)
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

/// Runs every bench the filter keeps, then merges each row into its
/// report, `BENCH_tensor.json` or `BENCH_fleet.json`, under a header
/// naming what shaped the numbers: commit, host, thread width and SIMD
/// tier.
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
    bench_net(&mut suite);
    bench_fleet_window(&mut suite);
    bench_analysis(&mut suite);
    bench_adaptation(&mut suite);
    bench_training(&mut suite);
    bench_registry(&mut suite);

    // Every id that contains the filter was measured, so a stale row is
    // one that contains it and was not. The transport rows explain the
    // fleet runs, so they live in that report alone (the same file as the
    // rest when `NAZAR_BENCH_OUT` redirects the run).
    let filter = suite.filter.as_str();
    let transport = |id: &str| {
        ["wire/", "net/", "log/ingest_batch", "log/ingest_rows"]
            .iter()
            .any(|prefix| id.starts_with(prefix))
            || id.ends_with("_window_fleet_2800")
    };
    nazar_bench::merge_bench_json(
        &nazar_bench::bench_out("BENCH_tensor.json"),
        |id| !transport(id) && id.contains(filter),
        suite.report_rows(|id| !transport(id)),
    )
    .expect("the tensor bench report is writable");
    nazar_bench::merge_bench_json(
        &nazar_bench::bench_out("BENCH_fleet.json"),
        |id| transport(id) && id.contains(filter),
        suite.report_rows(transport),
    )
    .expect("the fleet bench report is writable");
}
