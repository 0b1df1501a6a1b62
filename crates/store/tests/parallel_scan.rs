//! The chunk fan-out, exercised: `DriftStore` queries map their full
//! chunks over `NAZAR_NUM_THREADS` workers once those chunks hold at
//! least two tasks' worth of rows (65,536), and every other suite in this
//! crate stays far below that. This file builds a store above the
//! threshold, proves through `nazar_tensor_parallel_fanout_width` that the
//! queries really took the parallel branch, and compares every result
//! with the (single-threaded) in-memory [`DriftLog`] and with counts
//! taken straight from the entries.
//!
//! It is the only test in its binary on purpose: the thread count latches
//! on first read, so the test pins `NAZAR_NUM_THREADS` before anything
//! reads it, whatever the host or the CI matrix set.

use std::sync::Arc;

use nazar_log::{Attribute, DriftLog, DriftLogEntry, MatchCounts};
use nazar_obs::metrics::SnapshotValue;
use nazar_store::{DriftStore, MemoryBackend, StoreConfig};

const WIDTH: usize = 4;
const CHUNK_ROWS: usize = 8192;
/// Four tasks' worth of full-chunk rows, plus a tail that is not a whole
/// number of chunks (so the partial chunk and the in-memory tail take part).
const ROWS: u64 = 4 * 32_768 + 5_000;

const WEATHER: [&str; 4] = ["clear", "rain", "snow", "fog"];

fn entry(i: u64) -> DriftLogEntry {
    // A cheap LCG keeps the columns uncorrelated with the chunk grid.
    let h = i
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    let weather = WEATHER[(h >> 33) as usize % WEATHER.len()];
    let location = format!("loc-{}", (h >> 40) % 11);
    let device = format!("dev-{}", (h >> 20) % 257);
    DriftLogEntry::new(
        i,
        &[
            ("weather", weather),
            ("location", location.as_str()),
            ("device_id", device.as_str()),
        ],
        (h >> 50) % 3 == 1,
    )
}

/// `(sum, count)` of the widths `par_map_with` has recorded so far.
fn par_map_widths() -> (f64, u64) {
    nazar_obs::registry()
        .snapshot()
        .into_iter()
        .find(|m| {
            m.name == "nazar_tensor_parallel_fanout_width"
                && m.labels.iter().any(|(k, v)| k == "op" && v == "par_map")
        })
        .map_or((0.0, 0), |m| match m.value {
            SnapshotValue::Histogram { sum, count, .. } => (sum, count),
            _ => (0.0, 0),
        })
}

#[test]
fn queries_above_the_fanout_threshold_equal_in_memory() {
    std::env::set_var("NAZAR_NUM_THREADS", WIDTH.to_string());
    nazar_obs::testing::enable_memory_sink();

    let schema = ["weather", "location", "device_id"];
    let config = StoreConfig {
        chunk_rows: CHUNK_ROWS,
        // Smaller than the chunk count: workers decode and evict
        // concurrently instead of reading a warm cache.
        cache_chunks: 3,
        ..StoreConfig::memory()
    };
    let mut store =
        DriftStore::open(Arc::new(MemoryBackend::new()), &schema, config).expect("open");
    let mut oracle = DriftLog::new(&schema);
    let entries: Vec<DriftLogEntry> = (0..ROWS).map(entry).collect();
    for batch in entries.chunks(40_000) {
        assert_eq!(
            store.ingest_batch(batch),
            oracle.ingest_batch(batch.to_vec())
        );
        store.flush().expect("flush");
    }
    assert!(store.num_chunks() > 2 * WIDTH, "several chunks per worker");
    // The flush timing is volatile by its `_seconds` suffix alone.
    let flush = nazar_obs::registry()
        .snapshot()
        .into_iter()
        .find(|m| m.name == "nazar_store_flush_seconds")
        .expect("the flushes were timed");
    assert!(
        flush.volatile,
        "a wall-clock timing must stay out of series.jsonl"
    );
    let mask: Vec<bool> = (0..ROWS - 777).map(|i| i % 5 == 0).collect();

    let (sum_before, count_before) = par_map_widths();

    let sets = [
        vec![],
        vec![Attribute::new("weather", "snow")],
        vec![
            Attribute::new("location", "loc-3"),
            Attribute::new("weather", "rain"),
        ],
        vec![Attribute::new("weather", "never-interned")],
    ];
    for set in &sets {
        assert_eq!(
            store.count_matching(set, None).expect("count"),
            oracle.count_matching(set, None).expect("count"),
            "count_matching({set:?})"
        );
        assert_eq!(
            store.count_matching(set, Some(&mask)).expect("count"),
            oracle.count_matching(set, Some(&mask)).expect("count"),
            "masked count_matching({set:?})"
        );
        assert_eq!(
            store.rows_matching(set).expect("rows"),
            oracle.rows_matching(set).expect("rows"),
            "rows_matching({set:?})"
        );
    }
    for key in schema {
        assert_eq!(
            store.distinct_values(key).expect("distinct"),
            oracle.distinct_values(key).expect("distinct"),
            "distinct_values({key})"
        );
        assert_eq!(
            store.group_counts(key).expect("group"),
            oracle.group_counts(key).expect("group"),
            "group_counts({key})"
        );
    }

    // The oracle shares the per-block probes with the store, so pin one
    // plain and one masked count against the entries themselves.
    let rain_at_loc3 = |e: &&DriftLogEntry| {
        let has = |k: &str, v: &str| e.attrs.iter().any(|a| a.key == k && a.value == v);
        has("weather", "rain") && has("location", "loc-3")
    };
    let naive = MatchCounts {
        occurrences: entries.iter().filter(rain_at_loc3).count(),
        drifted: entries
            .iter()
            .filter(rain_at_loc3)
            .filter(|e| e.drift)
            .count(),
    };
    assert_eq!(store.count_matching(&sets[2], None).expect("count"), naive);
    let naive_masked = entries
        .iter()
        .zip(mask.iter().chain(std::iter::repeat(&false)))
        .filter(|(e, &m)| m && rain_at_loc3(e))
        .count();
    assert_eq!(
        store
            .count_matching(&sets[2], Some(&mask))
            .expect("count")
            .drifted,
        naive_masked
    );

    // Every chunk map above ran at the pinned width, not serially.
    let (sum_after, count_after) = par_map_widths();
    nazar_obs::testing::disable();
    let maps = count_after - count_before;
    assert!(maps > 0, "no chunk map was recorded");
    assert_eq!(
        sum_after - sum_before,
        (maps as usize * WIDTH) as f64,
        "{maps} chunk maps did not all fan out over {WIDTH} workers"
    );
}
