//! Persistent drift-log store benchmark: columnar codecs and out-of-core
//! queries against the in-memory `DriftLog` reference.
//!
//! Streams a synthetic fleet log (20k rows quick, 500k full) through a
//! filesystem-backed [`nazar_store::DriftStore`] with windowed flushes,
//! then reopens it cold and drives the per-window analysis query mix
//! (single/pair counting, counterfactual-masked counting,
//! `distinct_values`, `group_counts`, `rows_matching`) out of core.
//! Results land in `BENCH_store.json` at the workspace root (override
//! with `NAZAR_BENCH_OUT`).
//!
//! Two invariants are asserted, not just measured:
//!
//! * every out-of-core query result is **bitwise identical** to the
//!   in-memory log at this run's `NAZAR_NUM_THREADS` (the full run is above
//!   the store's chunk fan-out threshold, the quick run below it;
//!   `crates/store/tests/{differential,parallel_scan}.rs` pin the same
//!   property on both sides);
//! * the dictionary-code columns compress at least **2×** against their
//!   raw 4-bytes-per-code layout (the ISSUE 8 acceptance bar).
//!
//! Stdout carries only data-deterministic facts (row counts, chunk
//! counts, compression ratios, query results), so two runs under
//! different `NAZAR_NUM_THREADS` must produce byte-identical stdout —
//! CI diffs them. Timings go to stderr and the JSON report.
//!
//! `NAZAR_STORE_QUICK=1` shrinks the run for smoke tests; the equality
//! and compression assertions still apply. The quick run seals 1 024-row
//! chunks, so its ≈ 20 chunks overflow the 8-chunk decode cache and the
//! warm mix exercises the cache's insertion policy.

use nazar_cloud::timing::synthetic_drift_log;
use nazar_log::{Attribute, DriftLog, MatchCounts};
use nazar_store::{chunk::EncodeStats, DriftStore, StoreConfig, DEFAULT_CHUNK_ROWS};
use std::time::Instant;

/// Everything the query mix produces, for bitwise comparison.
#[derive(PartialEq, Debug)]
struct MixResult {
    single: MatchCounts,
    pair: MatchCounts,
    masked: MatchCounts,
    distinct: Vec<(String, MatchCounts)>,
    groups: Vec<(String, MatchCounts)>,
    rows: Vec<usize>,
}

/// The per-window analysis query mix against the in-memory reference.
fn mix_in_memory(log: &DriftLog, mask: &[bool]) -> MixResult {
    MixResult {
        single: log
            .count_matching(&[Attribute::new("weather", "snow")], None)
            .expect("schema key"),
        pair: log
            .count_matching(
                &[
                    Attribute::new("weather", "rain"),
                    Attribute::new("location", "loc-3"),
                ],
                None,
            )
            .expect("schema keys"),
        masked: log
            .count_matching(&[Attribute::new("weather", "fog")], Some(mask))
            .expect("schema key"),
        distinct: log.distinct_values("device_id").expect("schema key"),
        groups: log.group_counts("weather").expect("schema key"),
        rows: log
            .rows_matching(&[
                Attribute::new("weather", "snow"),
                Attribute::new("location", "loc-7"),
            ])
            .expect("schema keys"),
    }
}

/// Queries in the mix; out of core, each one scans every full chunk.
const MIX_QUERIES: usize = 6;

/// The same mix, streamed out of the persistent store.
fn mix_out_of_core(store: &DriftStore, mask: &[bool]) -> MixResult {
    MixResult {
        single: store
            .count_matching(&[Attribute::new("weather", "snow")], None)
            .expect("schema key"),
        pair: store
            .count_matching(
                &[
                    Attribute::new("weather", "rain"),
                    Attribute::new("location", "loc-3"),
                ],
                None,
            )
            .expect("schema keys"),
        masked: store
            .count_matching(&[Attribute::new("weather", "fog")], Some(mask))
            .expect("schema key"),
        distinct: store.distinct_values("device_id").expect("schema key"),
        groups: store.group_counts("weather").expect("schema key"),
        rows: store
            .rows_matching(&[
                Attribute::new("weather", "snow"),
                Attribute::new("location", "loc-7"),
            ])
            .expect("schema keys"),
    }
}

fn ratio(raw: u64, encoded: u64) -> f64 {
    raw as f64 / encoded.max(1) as f64
}

fn main() {
    let _obs = nazar_bench::ObsRun::start("store_scale");
    let quick = std::env::var("NAZAR_STORE_QUICK").is_ok_and(|v| v == "1");
    let rows = if quick { 20_000 } else { 500_000 };
    let flush_every = if quick { 4_096 } else { 65_536 };
    let samples = if quick { 3 } else { 7 };

    let oracle = synthetic_drift_log(rows, 7);
    let mut mask = oracle.drift_mask();
    for r in oracle
        .rows_matching(&[Attribute::new("weather", "snow")])
        .expect("schema key")
    {
        mask[r] = false;
    }

    let dir = std::env::temp_dir().join(format!("nazar-store-scale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = StoreConfig {
        chunk_rows: if quick { 1_024 } else { DEFAULT_CHUNK_ROWS },
        ..StoreConfig::at(dir.to_string_lossy().into_owned())
    };
    let schema = ["weather", "location", "device_id"];

    // ----- write path: windowed pushes + flushes, as the orchestrator does.
    let mut store = DriftStore::open_config(&schema, config.clone()).expect("open");
    let mut stats = EncodeStats::default();
    let mut chunks_written = 0usize;
    let t0 = Instant::now();
    for row in 0..rows {
        store
            .push(oracle.entry(row).expect("row exists"))
            .expect("schema matches");
        if (row + 1) % flush_every == 0 {
            let report = store.flush().expect("flush");
            stats.add(&report.stats);
            chunks_written += report.chunks_written;
        }
    }
    let report = store.flush().expect("final flush");
    stats.add(&report.stats);
    chunks_written += report.chunks_written;
    let write_secs = t0.elapsed().as_secs_f64();
    assert_eq!(store.num_rows(), rows);
    assert_eq!(store.durable_rows(), rows);

    let dict_ratio = ratio(stats.dict_raw, stats.dict_encoded);
    let flag_ratio = ratio(stats.flag_raw, stats.flag_encoded);
    let ts_ratio = ratio(stats.ts_raw, stats.ts_encoded);
    let total_ratio = ratio(stats.raw_total(), stats.encoded_total());
    println!(
        "{rows} rows, {} chunks on disk ({chunks_written} chunk writes incl. replaced tails)",
        store.num_chunks()
    );
    println!(
        "compression: dict {dict_ratio:.2}x | flags {flag_ratio:.2}x | \
         timestamps {ts_ratio:.2}x | overall {total_ratio:.2}x \
         ({} raw -> {} encoded bytes)",
        stats.raw_total(),
        stats.encoded_total()
    );
    assert!(
        dict_ratio >= 2.0,
        "dict-code columns must compress at least 2x against raw u32s \
         (got {dict_ratio:.2}x)"
    );
    let write_mb_s = stats.raw_total() as f64 / 1e6 / write_secs.max(1e-9);
    eprintln!("write: {write_secs:.3}s ({write_mb_s:.1} MB/s of raw rows)");
    drop(store);

    // ----- cold reopen + read path.
    let t0 = Instant::now();
    let store = DriftStore::open_config(&schema, config.clone()).expect("reopen");
    let open_secs = t0.elapsed().as_secs_f64();
    assert!(
        store.recovery().is_clean(),
        "clean shutdown must reopen clean"
    );
    assert_eq!(store.num_rows(), rows);
    eprintln!("reopen: {open_secs:.3}s");

    // Cache-cold full scan: every chunk read, checksummed, and decoded.
    let cold = DriftStore::open_config(
        &schema,
        StoreConfig {
            cache_chunks: 0,
            ..config.clone()
        },
    )
    .expect("cold open");
    let reference = mix_in_memory(&oracle, &mask);
    let cold_ns = nazar_bench::median_ns(samples, || {
        let out = mix_out_of_core(&cold, &mask);
        assert_eq!(out.single.occurrences, reference.single.occurrences);
    });
    let read_mb_s = stats.encoded_total() as f64 / 1e6 / (cold_ns / 1e9).max(1e-9);
    // The raw row bytes the cold mix decodes, in `write_mb_s`'s units (4
    // bytes a code, 1 a drift flag, 8 a timestamp): with the cache off,
    // each query loads every full chunk.
    let full_chunk_rows = cold.num_rows() - cold.tail_rows();
    let decoded_raw = MIX_QUERIES * full_chunk_rows * (schema.len() * 4 + 1 + 8);
    let read_raw_mb_s = decoded_raw as f64 / 1e6 / (cold_ns / 1e9).max(1e-9);
    eprintln!(
        "cold query mix: {:.3} ms ({read_mb_s:.1} MB/s of encoded chunks, \
         {read_raw_mb_s:.1} MB/s of raw rows decoded)",
        cold_ns / 1e6
    );

    // ----- equivalence: out-of-core == in-memory, then the warm mix.
    assert_eq!(
        mix_out_of_core(&store, &mask),
        reference,
        "out-of-core mix must be bitwise identical to the in-memory log ({rows} rows)"
    );
    let warm_ns = nazar_bench::median_ns(samples, || {
        let out = mix_out_of_core(&store, &mask);
        assert_eq!(out.single.occurrences, reference.single.occurrences);
    });
    // The store fans its chunk scans out over `NAZAR_NUM_THREADS` workers,
    // so the query row carries the width this run measured at; the
    // committed snapshot's `_1t` row is a `NAZAR_NUM_THREADS=1` run.
    let threads = nazar_tensor::parallel::num_threads();
    eprintln!("warm query mix @ {threads}t: {:.3} ms", warm_ns / 1e6);
    let benches: Vec<(String, f64)> = vec![
        ("store_scale/write_mb_s".to_string(), write_mb_s),
        ("store_scale/read_mb_s".to_string(), read_mb_s),
        ("store_scale/read_raw_mb_s".to_string(), read_raw_mb_s),
        ("store_scale/dict_ratio".to_string(), dict_ratio),
        ("store_scale/flag_ratio".to_string(), flag_ratio),
        ("store_scale/ts_ratio".to_string(), ts_ratio),
        ("store_scale/open_ns".to_string(), open_secs * 1e9),
        (format!("store_scale/queries_{rows}r_{threads}t"), warm_ns),
    ];
    println!(
        "query mix: snow={} rain&loc-3={} fog-masked={} distinct-devices={} \
         snow&loc-7-rows={} (bitwise identical to the in-memory log)",
        reference.single.occurrences,
        reference.pair.occurrences,
        reference.masked.drifted,
        reference.distinct.len(),
        reference.rows.len()
    );

    nazar_bench::merge_bench_json(
        &nazar_bench::bench_out("BENCH_store.json"),
        |id| id.starts_with("store_scale/"),
        benches
            .iter()
            .map(|(id, v)| {
                nazar_bench::bench_row(id, &[("value", *v), ("samples", samples as f64)])
            })
            .collect(),
    )
    .expect("write bench JSON");
    let _ = std::fs::remove_dir_all(&dir);
}
