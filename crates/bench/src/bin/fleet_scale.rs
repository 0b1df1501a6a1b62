//! Fleet-scale drift-log benchmark: the per-window analysis query mix over
//! the log's column scans.
//!
//! Sweeps log sizes (5k → 500k rows, the "millions of devices, one row per
//! upload" regime the ROADMAP targets) over a representative analysis
//! query mix — the single/pair counting, counterfactual-masked counting,
//! `distinct_values`, and `rows_matching` calls that FIM, set reduction,
//! and counterfactual analysis issue per window. Each size reports the
//! median wall time of one mix ([`nazar_bench::median_ns`]); results land
//! in `BENCH_fleet.json` at the workspace root (override with
//! `NAZAR_BENCH_OUT`), in the same `{"benches": [...]}` shape as
//! `BENCH_tensor.json`.
//!
//! The answers go to stdout and the timings to stderr, so stdout is
//! deterministic: CI diffs it against `results/fleet_scale.txt` at
//! `NAZAR_NUM_THREADS=1` and `=4`. The log has one query path, so there
//! is one row per size. The ids keep their historical `_1t` suffix so the
//! committed history stays comparable; DESIGN.md §10 has the history of
//! the query paths these rows timed. Correctness is pinned by
//! `crates/log/tests/query_equivalence.rs`, not here.

use nazar_cloud::timing::synthetic_drift_log;
use nazar_log::{Attribute, DriftLog, MatchCounts};

/// Everything the query mix produces.
struct MixResult {
    single: MatchCounts,
    pair: MatchCounts,
    masked: MatchCounts,
    distinct: Vec<(String, MatchCounts)>,
    rows: Vec<usize>,
}

/// The per-window analysis query mix.
fn query_mix(log: &DriftLog, mask: &[bool]) -> MixResult {
    let single = log
        .count_matching(&[Attribute::new("weather", "snow")], None)
        .expect("schema key");
    let pair = log
        .count_matching(
            &[
                Attribute::new("weather", "rain"),
                Attribute::new("location", "loc-3"),
            ],
            None,
        )
        .expect("schema keys");
    let masked = log
        .count_matching(&[Attribute::new("weather", "fog")], Some(mask))
        .expect("schema key");
    let distinct = log.distinct_values("device_id").expect("schema key");
    let rows = log
        .rows_matching(&[
            Attribute::new("weather", "snow"),
            Attribute::new("location", "loc-7"),
        ])
        .expect("schema keys");
    MixResult {
        single,
        pair,
        masked,
        distinct,
        rows,
    }
}

fn main() {
    let _obs = nazar_bench::ObsRun::start("fleet_scale");
    let row_counts = [5_000usize, 50_000, 500_000];
    let samples = 15;

    let mut benches = Vec::new();
    for rows in row_counts {
        let log = synthetic_drift_log(rows, 7);
        // Counterfactual-style mask: the stored flags with the planted
        // "snow" rows cleared, as set reduction would produce.
        let mut mask = log.drift_mask();
        for r in log
            .rows_matching(&[Attribute::new("weather", "snow")])
            .expect("schema key")
        {
            mask[r] = false;
        }
        let out = query_mix(&log, &mask);
        let ns = nazar_bench::median_ns(samples, || query_mix(std::hint::black_box(&log), &mask));
        let fields = [("median_ns", ns), ("samples", samples as f64)];
        let id = format!("fleet_scale/queries_{rows}r_1t");
        benches.push(nazar_bench::bench_row(&id, &fields));
        println!(
            "{rows:>7} rows: snow={} rain&loc-3={} fog-masked={} distinct-devices={} \
             snow&loc-7-rows={}",
            out.single.occurrences,
            out.pair.occurrences,
            out.masked.drifted,
            out.distinct.len(),
            out.rows.len()
        );
        eprintln!("{rows:>7} rows: mix {:8.3} ms", ns / 1e6);
    }

    nazar_bench::merge_bench_json(
        &nazar_bench::bench_out("BENCH_fleet.json"),
        |id| id.starts_with("fleet_scale/"),
        benches,
    )
    .expect("write bench JSON");
}
