//! Virtual-time telemetry: delta-encoded registry snapshots in a bounded
//! ring buffer.
//!
//! A run's metrics are no longer a single end-of-run aggregate: the
//! [`TelemetryRecorder`] (one per process, behind [`snapshot`]) freezes the
//! whole metrics registry at *virtual-time* points — the fleet schedulers
//! call [`snapshot`] at every window-close event, the orchestrator after
//! each `window_complete`, and `nazar_bench::ObsRun` once more at run end —
//! and stores one delta-encoded record per point in a bounded ring.
//!
//! Determinism contract: records are stamped with the simulation's virtual
//! clock (µs), metrics are emitted in sorted `(name, labels)` order, and
//! **volatile** families (wall-clock `_seconds` histograms, thread-dependent
//! cache/fan-out counts — see [`crate::metrics`]) are excluded, so the
//! rendered series is bitwise identical across `NAZAR_NUM_THREADS`.
//! Volatile families still appear in the final run report.
//!
//! Record schema (one JSON object per line, see README "Telemetry series"):
//!
//! ```text
//! {"type":"telemetry","seq":0,"t_us":86400000000,"trigger":"window_close",
//!  "metrics":[{"name":"...","labels":{...},"kind":"counter","delta":4,"total":4}, ...]}
//! {"type":"telemetry_summary","snapshots":3,"retained":3,"evicted":0,
//!  "last_t_us":...,"totals":[...]}
//! ```
//!
//! Only series that changed since the previous snapshot are listed; `total`
//! (and histogram `count`/`sum`) are cumulative since [`begin_run`]'s
//! baseline, so summing `delta` over all snapshots reproduces the summary's
//! `totals` exactly — and, for a fresh process, the final registry values.
//!
//! The ring holds [`DEFAULT_SERIES_CAP`] records. When it overflows, the
//! oldest records are dropped and counted in the summary's `evicted`
//! field; delta-consistency then holds only over the retained suffix.
//!
//! Everything is a no-op while observability is disabled: [`snapshot`]
//! costs one relaxed atomic load, the same zero-cost contract as the rest
//! of the crate.

use crate::json;
use crate::metrics::{quantile_from_buckets, registry, MetricSnapshot, SnapshotValue};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Mutex, OnceLock};

/// Ring capacity of a [`begin_run`] run.
pub const DEFAULT_SERIES_CAP: usize = 512;

/// Identity of one metric series: family name plus sorted-in label set.
pub type SeriesKey = (String, Vec<(String, String)>);

/// The process-wide telemetry recorder state (see the module docs).
#[derive(Debug, Default)]
pub struct TelemetryRecorder {
    capacity: usize,
    ring: VecDeque<String>,
    evicted: u64,
    seq: u64,
    last_t_us: u64,
    started: bool,
    /// Registry values at [`begin_run`] — cancels cumulative registry
    /// state from earlier runs in the same process.
    baseline: BTreeMap<SeriesKey, SnapshotValue>,
    /// Registry values at the previous snapshot (delta encoding).
    prev: BTreeMap<SeriesKey, SnapshotValue>,
    /// Family names flagged volatile, excluded from rendered series.
    volatile_names: std::collections::BTreeSet<String>,
}

fn recorder() -> &'static Mutex<TelemetryRecorder> {
    static RECORDER: OnceLock<Mutex<TelemetryRecorder>> = OnceLock::new();
    RECORDER.get_or_init(|| Mutex::new(TelemetryRecorder::default()))
}

fn keyed(snap: Vec<MetricSnapshot>) -> BTreeMap<SeriesKey, SnapshotValue> {
    snap.into_iter()
        .map(|m| ((m.name, m.labels), m.value))
        .collect()
}

/// Starts (or restarts) a telemetry run: clears the ring and re-baselines
/// the recorder on the registry's current values, so deltas and totals are
/// scoped to this run even though the registry itself is cumulative.
///
/// No-op while observability is disabled.
pub fn begin_run() {
    begin_run_with_capacity(DEFAULT_SERIES_CAP);
}

/// [`begin_run`] with an explicit ring capacity (tests, embedders).
pub fn begin_run_with_capacity(capacity: usize) {
    if !crate::enabled() {
        return;
    }
    let snap = registry().snapshot();
    let volatile_names = snap
        .iter()
        .filter(|m| m.volatile)
        .map(|m| m.name.clone())
        .collect();
    let base = keyed(snap);
    let mut rec = recorder().lock().expect("telemetry recorder poisoned");
    rec.capacity = capacity;
    rec.ring.clear();
    rec.evicted = 0;
    rec.seq = 0;
    rec.last_t_us = 0;
    rec.started = true;
    rec.prev = base.clone();
    rec.baseline = base;
    rec.volatile_names = volatile_names;
}

/// Drops everything recorded so far (ring, counts, baselines), back to the
/// never-started state. Disabling observability calls this, so a disabled
/// recorder reports nothing from the run before it.
pub(crate) fn reset() {
    // Overwrites the whole state, so a poisoned lock is safe to recover.
    *recorder().lock().unwrap_or_else(|e| e.into_inner()) = TelemetryRecorder::default();
}

/// Takes one snapshot of the metrics registry at virtual time `t_us` and
/// appends a delta-encoded record to the ring. `trigger` names the cause
/// (`"window_close"`, `"window_complete"`, `"run_end"`).
///
/// No-op while observability is disabled.
pub fn snapshot(t_us: u64, trigger: &str) {
    if !crate::enabled() {
        return;
    }
    let snap = registry().snapshot();
    let mut rec = recorder().lock().expect("telemetry recorder poisoned");
    if !rec.started {
        // No explicit begin_run (library embedders): baseline at zero so
        // the first snapshot carries the full cumulative values.
        rec.capacity = DEFAULT_SERIES_CAP;
        rec.started = true;
    }
    let mut line = String::with_capacity(256);
    line.push_str("{\"type\":\"telemetry\",\"seq\":");
    line.push_str(&rec.seq.to_string());
    line.push_str(",\"t_us\":");
    line.push_str(&t_us.to_string());
    line.push_str(",\"trigger\":");
    json::write_str(&mut line, trigger);
    line.push_str(",\"metrics\":[");
    let mut first = true;
    // Sorted (name, labels) order — registration order can race across
    // worker threads, the sorted view cannot.
    let mut stable: Vec<&MetricSnapshot> = snap.iter().filter(|m| !m.volatile).collect();
    stable.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
    for m in stable {
        let key = (m.name.clone(), m.labels.clone());
        // A gauge is a level, not a delta: the run's first snapshot states
        // it even when an earlier run in this process left the same value.
        let restate = rec.seq == 0 && matches!(m.value, SnapshotValue::Gauge(_));
        let prev = rec.prev.get(&key).filter(|_| !restate);
        let base = rec.baseline.get(&key);
        let mut entry = String::new();
        if write_delta_entry(&mut entry, m, prev, base) {
            if !first {
                line.push(',');
            }
            first = false;
            line.push_str(&entry);
        }
    }
    line.push_str("]}");

    for m in snap.iter().filter(|m| m.volatile) {
        if !rec.volatile_names.contains(&m.name) {
            rec.volatile_names.insert(m.name.clone());
        }
    }
    rec.prev = keyed(snap);
    rec.last_t_us = rec.last_t_us.max(t_us);
    rec.seq += 1;
    if rec.capacity == 0 {
        rec.evicted += 1;
    } else {
        while rec.ring.len() >= rec.capacity {
            rec.ring.pop_front();
            rec.evicted += 1;
        }
        rec.ring.push_back(line);
    }
}

/// Takes the run's closing snapshot, stamped at the last snapshot's virtual
/// time (the clock does not advance after the final window).
pub fn snapshot_final() {
    if !crate::enabled() {
        return;
    }
    let t_us = recorder()
        .lock()
        .expect("telemetry recorder poisoned")
        .last_t_us;
    snapshot(t_us, "run_end");
}

/// Renders one changed series into `out`; returns `false` (emitting
/// nothing) when the series is unchanged since the previous snapshot.
fn write_delta_entry(
    out: &mut String,
    m: &MetricSnapshot,
    prev: Option<&SnapshotValue>,
    base: Option<&SnapshotValue>,
) -> bool {
    let prev_counter = |v: Option<&SnapshotValue>| match v {
        Some(SnapshotValue::Counter(c)) => *c,
        _ => 0,
    };
    let header = |out: &mut String| {
        out.push_str("{\"name\":");
        json::write_str(out, &m.name);
        if !m.labels.is_empty() {
            out.push_str(",\"labels\":{");
            for (j, (k, v)) in m.labels.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                json::write_str(out, k);
                out.push(':');
                json::write_str(out, v);
            }
            out.push('}');
        }
        out.push_str(",\"kind\":");
        json::write_str(out, m.kind.as_str());
    };
    match &m.value {
        SnapshotValue::Counter(cur) => {
            let p = prev_counter(prev);
            if *cur == p {
                return false;
            }
            header(out);
            out.push_str(",\"delta\":");
            out.push_str(&cur.saturating_sub(p).to_string());
            out.push_str(",\"total\":");
            out.push_str(&cur.saturating_sub(prev_counter(base)).to_string());
            out.push('}');
            true
        }
        SnapshotValue::Gauge(cur) => {
            let changed = match prev {
                Some(SnapshotValue::Gauge(p)) => p.to_bits() != cur.to_bits(),
                _ => true,
            };
            if !changed {
                return false;
            }
            header(out);
            out.push_str(",\"value\":");
            json::write_f64(out, *cur);
            out.push('}');
            true
        }
        SnapshotValue::Histogram {
            bounds,
            counts,
            sum,
            count,
        } => {
            let (_p_counts, p_sum, p_count) = hist_parts(prev, counts.len());
            if *count == p_count {
                return false;
            }
            let (b_counts, b_sum, b_count) = hist_parts(base, counts.len());
            let run_counts: Vec<u64> = counts
                .iter()
                .zip(&b_counts)
                .map(|(c, b)| c.saturating_sub(*b))
                .collect();
            header(out);
            out.push_str(",\"delta_count\":");
            out.push_str(&count.saturating_sub(p_count).to_string());
            out.push_str(",\"delta_sum\":");
            json::write_f64(out, sum - p_sum);
            out.push_str(",\"count\":");
            out.push_str(&count.saturating_sub(b_count).to_string());
            out.push_str(",\"sum\":");
            json::write_f64(out, sum - b_sum);
            for (label, q) in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)] {
                out.push_str(",\"");
                out.push_str(label);
                out.push_str("\":");
                json::write_f64(out, quantile_from_buckets(bounds, &run_counts, q));
            }
            out.push('}');
            true
        }
    }
}

fn hist_parts(v: Option<&SnapshotValue>, len: usize) -> (Vec<u64>, f64, u64) {
    match v {
        Some(SnapshotValue::Histogram {
            counts, sum, count, ..
        }) if counts.len() == len => (counts.clone(), *sum, *count),
        _ => (vec![0; len], 0.0, 0),
    }
}

fn summary_line(rec: &TelemetryRecorder) -> String {
    let mut line = String::from("{\"type\":\"telemetry_summary\",\"snapshots\":");
    line.push_str(&rec.seq.to_string());
    line.push_str(",\"retained\":");
    line.push_str(&rec.ring.len().to_string());
    line.push_str(",\"evicted\":");
    line.push_str(&rec.evicted.to_string());
    line.push_str(",\"last_t_us\":");
    line.push_str(&rec.last_t_us.to_string());
    line.push_str(",\"totals\":[");
    let mut first = true;
    // Run-scoped totals: values at the last snapshot minus the baseline,
    // stable families only — by construction equal to the sum of the
    // per-snapshot deltas.
    for ((name, labels), cur) in &rec.prev {
        if rec.volatile_names.contains(name) {
            continue;
        }
        let key = (name.clone(), labels.clone());
        let base = rec.baseline.get(&key);
        let mut entry = String::new();
        entry.push_str("{\"name\":");
        json::write_str(&mut entry, name);
        if !labels.is_empty() {
            entry.push_str(",\"labels\":{");
            for (j, (k, v)) in labels.iter().enumerate() {
                if j > 0 {
                    entry.push(',');
                }
                json::write_str(&mut entry, k);
                entry.push(':');
                json::write_str(&mut entry, v);
            }
            entry.push('}');
        }
        match cur {
            SnapshotValue::Counter(c) => {
                let b = match base {
                    Some(SnapshotValue::Counter(b)) => *b,
                    _ => 0,
                };
                entry.push_str(",\"kind\":\"counter\",\"total\":");
                entry.push_str(&c.saturating_sub(b).to_string());
            }
            SnapshotValue::Gauge(g) => {
                entry.push_str(",\"kind\":\"gauge\",\"value\":");
                json::write_f64(&mut entry, *g);
            }
            SnapshotValue::Histogram {
                counts, sum, count, ..
            } => {
                let (_, b_sum, b_count) = hist_parts(base, counts.len());
                entry.push_str(",\"kind\":\"histogram\",\"count\":");
                entry.push_str(&count.saturating_sub(b_count).to_string());
                entry.push_str(",\"sum\":");
                json::write_f64(&mut entry, sum - b_sum);
            }
        }
        entry.push('}');
        if !first {
            line.push(',');
        }
        first = false;
        line.push_str(&entry);
    }
    line.push_str("]}");
    line
}

/// Renders the retained series as JSON lines — one `telemetry` record per
/// snapshot plus a closing `telemetry_summary` line. Empty string while
/// observability is disabled or before the first snapshot.
pub fn series_jsonl() -> String {
    if !crate::enabled() {
        return String::new();
    }
    let rec = recorder().lock().expect("telemetry recorder poisoned");
    if !rec.started {
        return String::new();
    }
    let mut out = String::new();
    for line in &rec.ring {
        out.push_str(line);
        out.push('\n');
    }
    out.push_str(&summary_line(&rec));
    out.push('\n');
    out
}

/// Number of snapshots taken since [`begin_run`] (including evicted ones).
pub fn snapshot_count() -> u64 {
    recorder().lock().expect("telemetry recorder poisoned").seq
}

/// Number of records dropped by ring-buffer eviction.
pub fn evicted_count() -> u64 {
    recorder()
        .lock()
        .expect("telemetry recorder poisoned")
        .evicted
}

/// Number of records currently retained in the ring.
pub fn retained_count() -> usize {
    recorder()
        .lock()
        .expect("telemetry recorder poisoned")
        .ring
        .len()
}

/// The virtual timestamp of the most recent snapshot, µs.
pub fn last_t_us() -> u64 {
    recorder()
        .lock()
        .expect("telemetry recorder poisoned")
        .last_t_us
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::TEST_LOCK;

    static C: crate::Counter = crate::Counter::new("nazar_test_telemetry_total", &[]);
    static G: crate::Gauge = crate::Gauge::new("nazar_test_telemetry_level", &[]);

    #[test]
    fn disabled_recorder_is_inert() {
        let _guard = TEST_LOCK.lock().unwrap();
        crate::testing::disable();
        begin_run();
        snapshot(1, "window_close");
        assert!(series_jsonl().is_empty());
    }

    #[test]
    fn disabling_after_a_run_leaves_nothing_to_report() {
        let _guard = TEST_LOCK.lock().unwrap();
        crate::testing::enable_memory_sink();
        begin_run_with_capacity(16);
        C.add(1);
        snapshot(1_000_000, "window_close");
        assert_eq!((snapshot_count(), retained_count()), (1, 1));
        // Disabling drops the finished run's ring and counts...
        crate::testing::disable();
        assert_eq!((snapshot_count(), retained_count()), (0, 0));
        assert_eq!((evicted_count(), last_t_us()), (0, 0));
        assert!(series_jsonl().is_empty());
        // ...and a disabled run records nothing on top.
        begin_run();
        snapshot(2_000_000, "window_close");
        snapshot_final();
        assert_eq!((snapshot_count(), retained_count()), (0, 0));
    }

    #[test]
    fn deltas_and_totals_are_run_scoped() {
        let _guard = TEST_LOCK.lock().unwrap();
        crate::testing::enable_memory_sink();
        // Pollute the registry before the run: begin_run must cancel it —
        // the counter's 7, and the gauge level an earlier run left behind.
        C.add(7);
        G.set(21.0);
        begin_run_with_capacity(16);
        C.add(2);
        G.set(21.0);
        snapshot(1_000_000, "window_close");
        C.add(3);
        snapshot(2_000_000, "window_close");
        snapshot_final();
        let text = series_jsonl();
        // Stated by the run's first snapshot, then only when it moves (the
        // second hit is the closing summary).
        let level = "\"name\":\"nazar_test_telemetry_level\",\"kind\":\"gauge\",\"value\":21";
        assert_eq!(text.lines().filter(|l| l.contains(level)).count(), 2);
        assert!(text.lines().next().is_some_and(|l| l.contains(level)));
        assert!(text.contains(
            "\"name\":\"nazar_test_telemetry_total\",\"kind\":\"counter\",\"delta\":2,\"total\":2"
        ));
        assert!(text.contains("\"delta\":3,\"total\":5"));
        // run_end snapshot carries no change for this counter.
        assert!(text.contains("\"trigger\":\"run_end\""));
        assert!(text.contains("\"snapshots\":3"));
        assert!(text
            .contains("\"name\":\"nazar_test_telemetry_total\",\"kind\":\"counter\",\"total\":5"));
        assert_eq!(last_t_us(), 2_000_000);
        crate::testing::disable();
    }

    #[test]
    fn ring_retention_edge_cases() {
        let _guard = TEST_LOCK.lock().unwrap();
        crate::testing::enable_memory_sink();
        // Capacity 0: every record evicted immediately.
        begin_run_with_capacity(0);
        snapshot(1, "a");
        snapshot(2, "b");
        assert_eq!(retained_count(), 0);
        assert_eq!(evicted_count(), 2);
        assert_eq!(snapshot_count(), 2);
        // Capacity 1: only the newest survives.
        begin_run_with_capacity(1);
        snapshot(1, "a");
        snapshot(2, "b");
        assert_eq!(retained_count(), 1);
        assert_eq!(evicted_count(), 1);
        assert!(series_jsonl().contains("\"trigger\":\"b\""));
        assert!(!series_jsonl().contains("\"trigger\":\"a\""));
        // Exact capacity: nothing evicted.
        begin_run_with_capacity(3);
        snapshot(1, "a");
        snapshot(2, "b");
        snapshot(3, "c");
        assert_eq!(retained_count(), 3);
        assert_eq!(evicted_count(), 0);
        crate::testing::disable();
    }
}
