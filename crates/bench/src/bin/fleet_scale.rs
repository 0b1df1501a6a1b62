//! Fleet-scale drift-log benchmark: the per-window analysis query mix over
//! the segment index.
//!
//! Sweeps log sizes (5k → 500k rows, the "millions of devices, one row per
//! upload" regime the ROADMAP targets) over a representative analysis
//! query mix — the single/pair counting, counterfactual-masked counting,
//! `distinct_values`, and `rows_matching` calls that FIM, set reduction,
//! and counterfactual analysis issue per window. Each size reports the
//! median wall time; results land in `BENCH_fleet.json` at the workspace
//! root (override with `NAZAR_BENCH_OUT`), in the same `{"benches": [...]}`
//! shape as `BENCH_tensor.json`.
//!
//! The log has one query path, so there is one row per size. The ids keep
//! their historical `_1t` suffix so the committed history stays
//! comparable: the deleted cost-aware fan-out ran every recorded size at
//! width 1, and the deleted full-scan rows (`_scan`, 9.2x slower at 500k
//! rows) are in DESIGN.md §10. Correctness is pinned by
//! `crates/log/tests/query_equivalence.rs`, not here.

use nazar_cloud::timing::synthetic_drift_log;
use nazar_log::{Attribute, DriftLog, MatchCounts};
use std::time::Instant;

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

/// Median wall time of `f` over `samples` runs, in nanoseconds.
fn median_ns<F: FnMut()>(samples: usize, mut f: F) -> f64 {
    let mut times: Vec<u128> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    let mid = times.len() / 2;
    if times.len().is_multiple_of(2) {
        (times[mid - 1] + times[mid]) as f64 / 2.0
    } else {
        times[mid] as f64
    }
}

fn main() {
    let _obs = nazar_bench::ObsRun::start("fleet_scale");
    let row_counts = [5_000usize, 50_000, 500_000];
    let samples = 15;

    let mut benches: Vec<(String, f64)> = Vec::new();
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
        let ns = median_ns(samples, || {
            std::hint::black_box(query_mix(std::hint::black_box(&log), &mask));
        });
        benches.push((format!("fleet_scale/queries_{rows}r_1t"), ns));
        println!(
            "{rows:>7} rows ({} segments): mix {:8.3} ms | snow={} rain&loc-3={} \
             fog-masked={} distinct-devices={} snow&loc-7-rows={}",
            log.num_segments(),
            ns / 1e6,
            out.single.occurrences,
            out.pair.occurrences,
            out.masked.drifted,
            out.distinct.len(),
            out.rows.len()
        );
    }

    let out_path = std::env::var("NAZAR_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json").to_string()
    });
    nazar_bench::merge_bench_json(
        &out_path,
        "fleet_scale/",
        benches
            .iter()
            .map(|(id, ns)| {
                nazar_bench::bench_row(id, &[("median_ns", *ns), ("samples", samples as f64)])
            })
            .collect(),
    )
    .expect("write bench JSON");
    println!("merged fleet_scale rows into {out_path}");
}
