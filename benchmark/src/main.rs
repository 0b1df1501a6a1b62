//! The repository's benchmark: four workloads through the whole
//! monitor -> analyse -> adapt -> deploy loop. See README.md.
//!
//! `--workload W --seed N --seconds S --trace 0` measures the end-to-end
//! metrics on the real `Orchestrator` with no tracing; `--trace 1` runs
//! the staged replay and reports the per-layer metrics. The last line of
//! standard output is one JSON object; everything else goes to standard
//! error and to files under `benchmark/out/`.

mod aa;
mod calibrate;
mod contract;
mod layers;
mod measure;
mod replay;
mod stats;
mod trace;
mod workloads;

use calibrate::Calibrator;
use contract::{END_TO_END, PER_LAYER};
use measure::{
    audit_oracle, audit_run, check_run, dir_bytes, entries_emitted, result_digest, run_once,
    without_timers, Checks, Expected, MixKeys,
};
use nazar_cloud::Strategy;
use serde::Value;
use stats::{median, percentile, quartiles};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use workloads::{Scratch, Setup, Spec};

/// Widest thread pool the layers may use. One core is always left to the
/// operating system and whatever drives the benchmark: with every core
/// taken, each fork-join waits for whichever worker was preempted, and
/// run-to-run spread on a two-core host was several times larger.
const MAX_THREADS: usize = 4;

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    aa: bool,
    print_contract: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 2020,
        seconds: contract::RUN_SECONDS as f64,
        trace: false,
        quick: false,
        aa: false,
        print_contract: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => args.quick = true,
            "--aa" => args.aa = true,
            "--print-contract" => args.print_contract = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(args)
}

/// Removes every `NAZAR_*` variable (the crates' configuration fall back
/// to them) and pins the thread width. Must run before any other thread
/// exists and before any crate latches its environment.
fn hermetic_env() -> usize {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("NAZAR_") {
            std::env::remove_var(key);
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = nproc.saturating_sub(1).clamp(1, MAX_THREADS);
    std::env::set_var("NAZAR_NUM_THREADS", threads.to_string());
    threads
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let threads = hermetic_env();
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("{err}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--quick]\n\
                 \x20      --aa [--workload <name>]     two sets of runs per workload, checked against the bounds\n\
                 \x20      --print-contract             BENCHMARK.json, from the metric tables",
                workloads::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.print_contract {
        print!("{}", contract::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if args.aa {
        return aa::run(&args.workload, args.seconds);
    }
    let Some(spec) = args
        .workload
        .as_deref()
        .and_then(|w| workloads::spec(w, args.quick))
    else {
        eprintln!(
            "--workload must be one of {}",
            workloads::WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    if let Err(err) = std::fs::create_dir_all(out_dir()) {
        eprintln!("cannot create {}: {err}", out_dir().display());
        return ExitCode::from(1);
    }

    let started = Instant::now();
    let mut checks = Checks::default();
    let (metrics, digest) = if args.trace {
        per_layer(&spec, &args, threads, &mut checks)
    } else {
        end_to_end(&spec, &args, &mut checks)
    };
    let wall_s = started.elapsed().as_secs_f64();

    let expected: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.0, m.1)).collect()
    };
    let mut reported = Vec::with_capacity(expected.len());
    for (name, unit) in expected {
        let value = metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .filter(|v| v.is_finite());
        match value {
            Some(v) => reported.push((name, v, unit)),
            None => {
                eprintln!("metric {name} was not measured");
                return ExitCode::from(1);
            }
        }
    }

    let header = header(&args, threads, wall_s, digest);
    eprintln!("{}", serde_json::to_string(&header).expect("header"));
    for (name, value, unit) in &reported {
        eprintln!("  {name:<32} {value:>16.6} {unit}");
    }
    eprintln!(
        "  attempted_ops {} failed_ops {} result_digest {digest:016x}",
        checks.attempted, checks.failed
    );
    let line = result_line(&checks, &reported);
    let kind = if args.trace { "layers" } else { "e2e" };
    let report = Value::Map(vec![
        ("header".to_string(), header),
        ("result".to_string(), line.clone()),
    ]);
    let report_path = out_dir().join(format!("{}.{kind}.json", spec.name));
    if let Err(err) = std::fs::write(
        &report_path,
        serde_json::to_string(&report).expect("report") + "\n",
    ) {
        eprintln!("cannot write {}: {err}", report_path.display());
    }
    println!("{}", serde_json::to_string(&line).expect("result line"));
    ExitCode::SUCCESS
}

fn result_line(checks: &Checks, reported: &[(&str, f64, &str)]) -> Value {
    let metrics = reported
        .iter()
        .map(|(name, value, unit)| {
            (
                name.to_string(),
                Value::Map(vec![
                    ("value".to_string(), Value::Num(*value)),
                    ("unit".to_string(), Value::Str(unit.to_string())),
                ]),
            )
        })
        .collect();
    Value::Map(vec![
        ("correct".to_string(), Value::Bool(checks.failed == 0)),
        ("attempted".to_string(), Value::Num(checks.attempted as f64)),
        ("failed".to_string(), Value::Num(checks.failed as f64)),
        ("metrics".to_string(), Value::Map(metrics)),
    ])
}

/// What shaped this run: commit, host, thread width, SIMD tier, compiler.
fn header(args: &Args, threads: usize, wall_s: f64, digest: u64) -> Value {
    let capture = |program: &str, argv: &[&str]| {
        Command::new(program)
            .args(argv)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let simd = nazar_tensor::simd::effective(nazar_tensor::simd::env_tier());
    let text = |s: String| Value::Str(s);
    Value::Map(vec![
        (
            "workload".to_string(),
            text(args.workload.clone().unwrap_or_default()),
        ),
        ("seed".to_string(), Value::Num(args.seed as f64)),
        ("seconds".to_string(), Value::Num(args.seconds)),
        ("trace".to_string(), Value::Bool(args.trace)),
        ("quick".to_string(), Value::Bool(args.quick)),
        (
            "commit".to_string(),
            text(capture("git", &["rev-parse", "HEAD"])),
        ),
        ("cpu".to_string(), text(cpu)),
        ("nproc".to_string(), Value::Num(nproc as f64)),
        ("threads".to_string(), Value::Num(threads as f64)),
        ("simd".to_string(), text(simd.as_str().to_string())),
        ("rustc".to_string(), text(capture("rustc", &["--version"]))),
        ("result_digest".to_string(), text(format!("{digest:016x}"))),
        ("wall_s".to_string(), Value::Num(wall_s)),
    ])
}

fn peak_rss_mb() -> f64 {
    nazar_device::peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / (1024.0 * 1024.0))
}

/// `--trace 0`: timed set-ups, a discarded warm-up run, then cycles of
/// one timed run of the real orchestrator and an audit of the directory
/// it wrote, until `--seconds` have passed. Interleaving spreads every
/// metric's samples over the whole window, so a burst of host noise
/// cannot cover all samples of one metric.
fn end_to_end(spec: &Spec, args: &Args, checks: &mut Checks) -> (Vec<(&'static str, f64)>, u64) {
    let scratch = Scratch::new(&out_dir(), spec.name);
    let (min_setups, min_cycles, min_restarts) = if args.quick { (1, 1, 2) } else { (3, 3, 4) };

    let mut cal = Calibrator::new();
    let mut setup_cal = vec![cal.kernel_ms()];
    let mut setup_raw = Vec::new();
    let mut setup = None;
    // At least three set-ups; cheap ones repeat (up to nine, for two
    // seconds) so that their median is as steady as a dear one's.
    let started = Instant::now();
    while setup_raw.len() < min_setups
        || (!args.quick && setup_raw.len() < 9 && started.elapsed().as_secs_f64() < 2.0)
    {
        drop(setup.take());
        let t0 = Instant::now();
        setup = Some(spec.set_up(args.seed, &scratch.root));
        setup_raw.push(t0.elapsed().as_secs_f64());
        setup_cal.extend([cal.kernel_ms(), cal.kernel_ms()]);
    }
    let setup: Setup = setup.expect("at least one set-up");

    // The non-adapted fleet over the same streams: what the loop's
    // accuracy is a gain over.
    let dir = setup.fresh_run_dir(&scratch.root, "baseline");
    let baseline = run_once(spec, &setup, Strategy::NoAdapt, args.seed, &dir).result;

    // Warm-up, discarded for timing. Every later run must reproduce its
    // result, so its log and store also define the audit's oracle.
    let dir = setup.fresh_run_dir(&scratch.root, "run");
    let warm = run_once(spec, &setup, Strategy::Nazar, args.seed, &dir);
    let digest = result_digest(&warm.result);
    let result = warm.result;
    let store = warm.orch.drift_store().expect("the run's store opened");
    let (store_rows, durable_rows) = (store.num_rows(), store.durable_rows());
    let oracle = audit_oracle(&setup, warm.orch.drift_log(), store_rows);
    drop(warm.orch);
    let expected = Expected::from_oracle(&oracle).expect("no audit query is empty on the oracle");
    drop(oracle);
    let bytes_per_row = dir_bytes(&dir) as f64 / durable_rows.max(1) as f64;

    let window = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let (mut walls, mut cycles) = (Vec::new(), Vec::new());
    let mut restarts = Vec::new();
    let mut cal_ms = vec![cal.kernel_ms()];
    while walls.len() < min_cycles || (!args.quick && started.elapsed() < window) {
        let dir = setup.fresh_run_dir(&scratch.root, "run");
        let outcome = run_once(spec, &setup, Strategy::Nazar, args.seed, &dir);
        cal_ms.push(cal.kernel_ms());
        check_run(checks, spec, &setup, &outcome.result);
        if result_digest(&outcome.result) != digest {
            checks.fail("two runs at one seed gave different results".to_string());
        }
        walls.push(outcome.wall_s);
        let cloud = outcome.result.analysis_time + outcome.result.adapt_time;
        cycles.push(cloud.as_secs_f64() * 1e3 / spec.windows as f64);
        drop(outcome);
        audit_run(
            checks,
            spec,
            &dir,
            &expected,
            min_restarts,
            Duration::from_secs_f64(0.4 * walls[walls.len() - 1]),
            &mut restarts,
        );
        cal_ms.push(cal.kernel_ms());
    }
    let rss_mb = peak_rss_mb();
    let scale = Calibrator::scale(&cal_ms);
    let setup_scale = Calibrator::scale(&setup_cal);

    let run_s = median(&walls) * scale;
    let items = setup.items as f64;
    let (q1, q3) = if walls.len() >= 2 {
        quartiles(&walls)
    } else {
        (walls[0], walls[0])
    };
    eprintln!(
        "{}: {} items, {} devices, base model val accuracy {:.3}",
        spec.name,
        setup.items,
        device_count(&setup),
        setup.val_accuracy,
    );
    eprintln!(
        "  host speed: calibration kernel median {:.2} ms over {} readings (quartiles {:.2}..{:.2}; \
         nominal {} ms), so medians are scaled by {scale:.3} (set-up: {setup_scale:.3})",
        median(&cal_ms),
        cal_ms.len(),
        quartiles(&cal_ms).0,
        quartiles(&cal_ms).1,
        calibrate::NOMINAL_MS,
    );
    eprintln!("  set-up, raw: {setup_raw:.3?} s");
    eprintln!(
        "  {} timed runs, raw: median {:.4} s, quartiles {q1:.4}..{q3:.4}, p90 {:.4}",
        walls.len(),
        median(&walls),
        percentile(&walls, 90.0)
    );
    eprintln!(
        "  audit, raw: {} restarts (cold reopen + first six-query mix) over {store_rows} rows: \
         median {:.4} ms, p90 {:.4} ms; all reads served from the OS page cache",
        restarts.len(),
        median(&restarts),
        percentile(&restarts, 90.0),
    );
    eprintln!(
        "  accuracy last 7 windows: {:.4} against {:.4} not adapted; on drifted inputs {:.4} against {:.4}",
        result.mean_accuracy_last(7),
        baseline.mean_accuracy_last(7),
        result.mean_drifted_accuracy_last(7),
        baseline.mean_drifted_accuracy_last(7),
    );
    eprintln!(
        "  per item on the wire: {:.1} B in all, {:.1} B up",
        result.net.wire_bytes() as f64 / items,
        result.net.wire_bytes_up as f64 / items,
    );
    let metrics = vec![
        ("setup_s", median(&setup_raw) * setup_scale),
        ("run_s", run_s),
        ("items_per_s", items / run_s),
        ("cloud_cycle_ms", median(&cycles) * scale),
        ("restart_to_query_ms", median(&restarts) * scale),
        ("peak_rss_mb", rss_mb),
        ("store_bytes_per_row", bytes_per_row),
        (
            "upload_bytes_per_item",
            result.net.wire_bytes_up as f64 / items,
        ),
        (
            "delivered_ratio",
            result.log_rows as f64 / entries_emitted(&result).max(1) as f64,
        ),
        ("accuracy_last7", f64::from(result.mean_accuracy_last(7))),
        (
            "drifted_accuracy_gain",
            f64::from(
                result.mean_drifted_accuracy_last(7) / baseline.mean_drifted_accuracy_last(7),
            ),
        ),
    ];
    (metrics, digest)
}

fn device_count(setup: &Setup) -> usize {
    setup.data.config.devices_per_location * setup.data.streams.len()
}

/// `--trace 1`: untraced runs and staged replays alternate for 60% of
/// `--seconds`; the last replay's spans and counts, plus single-layer
/// measurements on the same model and data, give the layer rows.
fn per_layer(
    spec: &Spec,
    args: &Args,
    threads: usize,
    checks: &mut Checks,
) -> (Vec<(&'static str, f64)>, u64) {
    let scratch = Scratch::new(&out_dir(), spec.name);
    let setup = spec.set_up(args.seed, &scratch.root);
    let min_pairs = if args.quick { 1 } else { 2 };

    let dir = setup.fresh_run_dir(&scratch.root, "run");
    drop(run_once(spec, &setup, Strategy::Nazar, args.seed, &dir));

    let budget = Duration::from_secs_f64(args.seconds * 0.6);
    let started = Instant::now();
    let (mut run_walls, mut new_walls, mut replay_walls) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    let mut digest = 0;
    while run_walls.len() < min_pairs || (!args.quick && started.elapsed() < budget) {
        drop(last.take());
        let dir = setup.fresh_run_dir(&scratch.root, "run");
        let outcome = run_once(spec, &setup, Strategy::Nazar, args.seed, &dir);
        check_run(checks, spec, &setup, &outcome.result);
        run_walls.push(outcome.wall_s);
        new_walls.push(outcome.new_s * 1e3);
        let untraced = without_timers(&outcome.result);
        digest = result_digest(&untraced);
        drop(outcome);

        let dir = setup.fresh_run_dir(&scratch.root, "replay");
        let config = spec.cloud_config(args.seed, &dir);
        let replayed = replay::replay(&setup.model, &setup.data.streams, &config);
        checks.op(without_timers(&replayed.result) == untraced, || {
            "the staged replay's RunResult differs from the untraced run's".to_string()
        });
        replay_walls.push(replayed.wall_s);
        last = Some((replayed, dir));
    }
    let (replayed, dir) = last.expect("at least one replay");
    let (tr, c, result) = (&replayed.tracer, &replayed.counters, &replayed.result);
    let run_s = median(&run_walls);
    let replay_s = median(&replay_walls);

    let trace_path = out_dir().join(format!("{}.trace.jsonl", spec.name));
    if let Err(err) = tr.write_jsonl(&trace_path) {
        checks.fail(format!("cannot write {}: {err}", trace_path.display()));
    }

    let store_rows = replayed.store.num_rows();
    let durable_rows = replayed.store.durable_rows();
    let chunks = replayed.store.num_chunks();
    let oracle = audit_oracle(&setup, &replayed.drift_log, store_rows);
    let keys = MixKeys::from_log(&oracle);
    let model = layers::model_micro(&setup);
    let select_ns = layers::registry_select_ns(&setup);
    let (matmul_us, matmul_gflops) = layers::matmul_micro(&setup);
    let encode_us = layers::encode_us_per_frame(&setup, &replayed.drift_log, spec.sample_rate);
    let read = layers::read_micro(spec, &dir, &oracle, &keys);
    let on_disk = dir_bytes(&dir) as f64;

    let by_layer = tr.self_by_layer_s();
    let layer_sum: f64 = by_layer.values().sum();
    let job_ms = tr.durations_ms("adapt.job");
    let cause_busy_s = job_ms.iter().fold(0.0, |sum, ms| sum + ms) / 1e3;
    let adapt_busy_s = tr.busy_s("adapt.jobs") + tr.busy_s("adapt.clean");
    let device_busy_s = tr.busy_s("device.window");
    let item_us = device_busy_s * 1e6 / c.items.max(1) as f64;
    let log_busy_s = tr.busy_s("log.ingest") + tr.busy_s("log.window_ingest");
    let analysis_busy_s = tr.busy_s("analysis.run");
    let emitted = entries_emitted(result).max(1) as f64;
    let glue_s = by_layer.get("nazar-cloud").copied().unwrap_or(0.0) - tr.busy_s("cloud.install");
    let per_s = |count: u64, busy_s: f64| {
        if busy_s > 0.0 {
            count as f64 / busy_s
        } else {
            0.0
        }
    };

    eprintln!(
        "{}: replay {replay_s:.4} s against run {run_s:.4} s over {} pairs; spans in {}",
        spec.name,
        run_walls.len(),
        trace_path.display()
    );
    eprintln!("  self time by layer (share of the replay's wall):");
    for (layer, own_s) in &by_layer {
        eprintln!(
            "    {layer:<16} {own_s:>9.4} s {:>6.1} %",
            100.0 * own_s / replayed.wall_s
        );
    }
    eprintln!("  self time by span:");
    for (name, own_s) in tr.self_by_name_s() {
        eprintln!(
            "    {name:<18} {own_s:>9.4} s {:>6.1} %",
            100.0 * own_s / replayed.wall_s
        );
    }
    eprintln!(
        "  reconciliation: layer self times sum to {layer_sum:.4} s, the replay's wall is {:.4} s \
         ({:+.2} %); adapt jobs busy {cause_busy_s:.4} s inside a {:.4} s group",
        replayed.wall_s,
        100.0 * (layer_sum - replayed.wall_s) / replayed.wall_s,
        tr.busy_s("adapt.jobs"),
    );

    let metrics = vec![
        ("device.busy_s", device_busy_s),
        ("device.items", c.items as f64),
        ("device.item_us", item_us),
        (
            "device.flagged_ratio",
            c.flagged as f64 / c.items.max(1) as f64,
        ),
        (
            "device.upload_ratio",
            c.uploads_sampled as f64 / c.items.max(1) as f64,
        ),
        // The device loop fans items out over the pinned thread width, so
        // its wall per item is its CPU per item over that width.
        (
            "device.forward_share",
            model.forward_b1_us / (item_us * threads as f64),
        ),
        ("nn.forward_b1_us", model.forward_b1_us),
        (
            "nn.forward_b160_us_per_item",
            model.forward_b160_us_per_item,
        ),
        ("nn.train_s", setup.train_s),
        ("detect.step_ns", model.detect_step_ns),
        ("registry.select_ns", select_ns),
        (
            "registry.max_versions",
            result.version_counts.iter().copied().max().unwrap_or(0) as f64,
        ),
        ("tensor.matmul_us", matmul_us),
        ("tensor.matmul_gflops", matmul_gflops),
        ("adapt.busy_s", adapt_busy_s),
        ("adapt.cause_busy_s", cause_busy_s),
        ("adapt.clean_busy_s", tr.busy_s("adapt.clean")),
        ("adapt.jobs", c.adapt_jobs as f64),
        (
            "adapt.job_ms_p50",
            if job_ms.is_empty() {
                0.0
            } else {
                median(&job_ms)
            },
        ),
        ("adapt.rows", c.adapt_rows as f64),
        (
            "adapt.rows_per_s",
            per_s(c.adapt_rows, cause_busy_s + tr.busy_s("adapt.clean")),
        ),
        ("analysis.busy_s", analysis_busy_s),
        ("analysis.rows", c.analysis_rows as f64),
        (
            "analysis.rows_per_s",
            per_s(c.analysis_rows, analysis_busy_s),
        ),
        ("analysis.causes", c.analysis_causes as f64),
        ("net.upload_busy_s", tr.busy_s("net.upload")),
        ("net.upload_frames", c.upload_frames as f64),
        ("net.upload_bytes", c.upload_bytes as f64),
        ("net.deploy_busy_s", tr.busy_s("net.deploy")),
        ("net.deploy_bytes", c.deploy_bytes as f64),
        ("net.encode_us_per_frame", encode_us),
        ("net.retries", result.net.retries as f64),
        ("net.frames_lost", result.net.frames_lost as f64),
        (
            "net.entries_dropped",
            emitted - c.log_rows as f64 - c.log_quarantined as f64,
        ),
        (
            "net.delivered_ratio",
            (c.log_rows + c.log_quarantined) as f64 / emitted,
        ),
        ("log.ingest_busy_s", log_busy_s),
        ("log.rows", c.log_rows as f64),
        (
            "log.ingest_rows_per_s",
            per_s(c.log_rows + c.analysis_rows, log_busy_s),
        ),
        ("log.quarantined", c.log_quarantined as f64),
        ("log.mix_ms", read.log_mix_ms),
        ("store.ingest_busy_s", tr.busy_s("store.ingest")),
        ("store.flush_busy_s", tr.busy_s("store.flush")),
        ("store.flush_chunks", c.flush_chunks as f64),
        ("store.retain_busy_s", tr.busy_s("store.retain")),
        ("store.bytes_written", c.store_bytes_written as f64),
        (
            "store.write_amp",
            c.store_bytes_written as f64 / on_disk.max(1.0),
        ),
        ("store.bytes_per_row", on_disk / durable_rows.max(1) as f64),
        ("store.chunks", chunks as f64),
        ("store.reopen_ms", read.reopen_ms),
        ("store.cold_mix_ms", read.cold_mix_ms),
        ("store.warm_mix_ms", read.warm_mix_ms),
        ("store.warm_mix_p90_ms", read.warm_mix_p90_ms),
        ("store.read_mb_s", read.read_mb_s),
        ("store.mix_vs_memory", read.warm_mix_ms / read.log_mix_ms),
        ("cloud.new_ms", median(&new_walls)),
        ("cloud.install_busy_s", tr.busy_s("cloud.install")),
        ("cloud.glue_s", glue_s),
        ("cloud.replay_s", replay_s),
        ("cloud.replay_vs_run", replay_s / run_s),
        (
            "cloud.wire_bytes_per_item",
            result.net.wire_bytes() as f64 / c.items.max(1) as f64,
        ),
        (
            "cloud.accuracy_last7",
            f64::from(result.mean_accuracy_last(7)),
        ),
        (
            "cloud.drifted_accuracy_last7",
            f64::from(result.mean_drifted_accuracy_last(7)),
        ),
        ("obs.trace_overhead_pct", 100.0 * (replay_s - run_s) / run_s),
        ("data.generate_s", setup.generate_s),
        ("data.items", setup.items as f64),
        ("data.devices", device_count(&setup) as f64),
        ("data.history_rows", spec.history_rows as f64),
    ];
    (metrics, digest)
}
