//! Thread-safe metrics: labeled counters, gauges and fixed-bucket
//! histograms, all backed by atomics.
//!
//! A metric is a `static` declared once at its call site by name and
//! labels (a histogram also names its bucket bounds). The static holds its
//! own atomics and adds itself to the [`registry`] on its first enabled
//! use, so recording is lock-free: the registry mutex is only taken then
//! and when snapshotting. Statics sharing a name form one *family*, one
//! series per label set. README's "Metrics reference" table describes each
//! metric; a declaration carries no description of its own.
//!
//! Naming scheme (see DESIGN.md §7): `nazar_<crate>_<noun>[_<unit>|_total]`,
//! snake case, with Prometheus conventions — `_total` for counters, base
//! units (seconds, bytes) for histograms. Labels are closed sets (`op`,
//! `stage`, `phase`, `method`, `keys`), never raw attribute values, to keep
//! cardinality bounded.

use crate::json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, Once};

/// A series' label set: `(key, value)` pairs, fixed at the declaration.
pub type Labels = &'static [(&'static str, &'static str)];

/// What every metric static carries besides its atomics.
#[derive(Debug)]
struct Meta {
    name: &'static str,
    labels: Labels,
    /// Wall-clock- or thread-count-dependent: excluded from the
    /// deterministic telemetry series (see [`crate::telemetry`]).
    volatile: bool,
    registered: Once,
}

impl Meta {
    const fn new(name: &'static str, labels: Labels, volatile: bool) -> Self {
        Meta {
            name,
            labels,
            volatile,
            registered: Once::new(),
        }
    }

    /// Adds `series` (whose meta this is) to the registry on first use.
    #[inline]
    fn register(&self, series: Series) {
        self.registered.call_once(|| registry().add(series));
    }
}

/// A monotonically increasing counter.
#[derive(Debug)]
pub struct Counter {
    meta: Meta,
    value: AtomicU64,
}

impl Counter {
    /// Declares a counter series.
    pub const fn new(name: &'static str, labels: Labels) -> Self {
        Counter {
            meta: Meta::new(name, labels, false),
            value: AtomicU64::new(0),
        }
    }

    /// Declares a volatile counter series — one whose value depends on
    /// thread scheduling (cache hit/miss splits, fan-out widths), excluded
    /// from the deterministic telemetry series.
    pub const fn new_volatile(name: &'static str, labels: Labels) -> Self {
        Counter {
            meta: Meta::new(name, labels, true),
            value: AtomicU64::new(0),
        }
    }

    /// Adds `n` when observability is enabled.
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !crate::enabled() {
            return;
        }
        self.meta.register(Series::Counter(self));
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one when observability is enabled.
    #[inline]
    pub fn inc(&'static self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge holding one `f64` value (stored as bits in an atomic).
#[derive(Debug)]
pub struct Gauge {
    meta: Meta,
    bits: AtomicU64,
}

impl Gauge {
    /// Declares a gauge series.
    pub const fn new(name: &'static str, labels: Labels) -> Self {
        Gauge {
            meta: Meta::new(name, labels, false),
            bits: AtomicU64::new(0),
        }
    }

    /// Declares a volatile gauge series (host- or wall-clock-dependent,
    /// e.g. peak RSS), excluded from the deterministic telemetry series.
    pub const fn new_volatile(name: &'static str, labels: Labels) -> Self {
        Gauge {
            meta: Meta::new(name, labels, true),
            bits: AtomicU64::new(0),
        }
    }

    /// Sets the gauge when observability is enabled.
    #[inline]
    pub fn set(&'static self, v: f64) {
        if !crate::enabled() {
            return;
        }
        self.meta.register(Series::Gauge(self));
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// The most bounds a histogram may declare (its `+Inf` bucket is one more).
const MAX_BOUNDS: usize = 15;

/// A histogram over fixed, ascending bucket bounds.
///
/// Observations count into the first bucket whose upper bound is `>=` the
/// value (Prometheus `le` semantics), plus an implicit `+Inf` bucket, a
/// running sum and a count.
#[derive(Debug)]
pub struct Histogram {
    meta: Meta,
    bounds: &'static [f64],
    /// One per bound, then the `+Inf` bucket; the slots after it stay 0.
    buckets: [AtomicU64; MAX_BOUNDS + 1],
    count: AtomicU64,
    sum_bits: AtomicU64,
}

impl Histogram {
    /// Declares a histogram series over `bounds`.
    ///
    /// # Panics
    ///
    /// Panics (at compile time, for a `static`) if `bounds` is not strictly
    /// ascending or holds more than 15 bounds.
    pub const fn new(name: &'static str, labels: Labels, bounds: &'static [f64]) -> Self {
        Self::declare(Meta::new(name, labels, false), bounds)
    }

    /// Declares a volatile histogram series (thread-count-dependent, e.g.
    /// fan-out widths), excluded from the deterministic telemetry series.
    /// `_seconds` histograms are volatile without it.
    pub const fn new_volatile(name: &'static str, labels: Labels, bounds: &'static [f64]) -> Self {
        Self::declare(Meta::new(name, labels, true), bounds)
    }

    const fn declare(meta: Meta, bounds: &'static [f64]) -> Self {
        assert!(bounds.len() <= MAX_BOUNDS, "histogram has too many bounds");
        let mut i = 1;
        while i < bounds.len() {
            assert!(
                bounds[i - 1] < bounds[i],
                "histogram bounds must be strictly ascending"
            );
            i += 1;
        }
        Histogram {
            meta,
            bounds,
            buckets: [const { AtomicU64::new(0) }; MAX_BOUNDS + 1],
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0),
        }
    }

    /// Records `v` when observability is enabled.
    #[inline]
    pub fn observe(&'static self, v: f64) {
        if !crate::enabled() {
            return;
        }
        self.meta.register(Series::Histogram(self));
        self.record(v);
    }

    /// Records the seconds elapsed since `start` when observability is
    /// enabled.
    #[inline]
    pub fn observe_since(&'static self, start: std::time::Instant) {
        if !crate::enabled() {
            return;
        }
        self.observe(start.elapsed().as_secs_f64());
    }

    fn record(&self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let _ = self
            .sum_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + v).to_bits())
            });
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Per-bucket observation counts (non-cumulative), `+Inf` last.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets[..=self.bounds.len()]
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

/// Estimates a quantile from fixed histogram buckets, Prometheus-style:
/// linear interpolation inside the bucket holding the target rank, with the
/// first bucket's lower edge taken as 0 and the `+Inf` bucket clamped to the
/// last finite bound. An empty histogram yields `0.0`.
///
/// The estimate is a pure function of the (deterministic) bucket counts, so
/// it is itself deterministic — unlike a sampled quantile.
pub fn quantile_from_buckets(bounds: &[f64], counts: &[u64], q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = q.clamp(0.0, 1.0) * total as f64;
    let mut cum = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        cum += c;
        if cum as f64 >= rank && c > 0 {
            if i >= bounds.len() {
                // Target falls in +Inf: the best finite estimate is the
                // largest bound (or 0 for a bound-less histogram).
                return bounds.last().copied().unwrap_or(0.0);
            }
            let lower = if i == 0 { 0.0 } else { bounds[i - 1] };
            let upper = bounds[i];
            let prev_cum = (cum - c) as f64;
            let frac = ((rank - prev_cum) / c as f64).clamp(0.0, 1.0);
            return lower + (upper - lower) * frac;
        }
    }
    bounds.last().copied().unwrap_or(0.0)
}

/// Default duration buckets in seconds: 1µs to 60s, roughly geometric.
pub const DURATION_BUCKETS: &[f64] = &[
    1e-6, 1e-5, 1e-4, 2.5e-4, 1e-3, 2.5e-3, 1e-2, 2.5e-2, 0.1, 0.25, 1.0, 2.5, 10.0, 60.0,
];

/// Power-of-two buckets for small cardinalities (fan-out widths, level
/// sizes): 1 to 1024.
pub const POW2_BUCKETS: &[f64] = &[
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
];

/// What a metric family measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic count.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Distribution over fixed buckets.
    Histogram,
}

impl MetricKind {
    /// The `kind` field of a run report's or a telemetry record's metric.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One registered metric static.
#[derive(Debug, Clone, Copy)]
enum Series {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

impl Series {
    fn meta(self) -> &'static Meta {
        match self {
            Series::Counter(c) => &c.meta,
            Series::Gauge(g) => &g.meta,
            Series::Histogram(h) => &h.meta,
        }
    }

    fn kind(self) -> MetricKind {
        match self {
            Series::Counter(_) => MetricKind::Counter,
            Series::Gauge(_) => MetricKind::Gauge,
            Series::Histogram(_) => MetricKind::Histogram,
        }
    }

    fn value(self) -> SnapshotValue {
        match self {
            Series::Counter(c) => SnapshotValue::Counter(c.get()),
            Series::Gauge(g) => SnapshotValue::Gauge(g.get()),
            Series::Histogram(h) => SnapshotValue::Histogram {
                bounds: h.bounds.to_vec(),
                counts: h.bucket_counts(),
                sum: h.sum(),
                count: h.count(),
            },
        }
    }
}

/// The value of one series at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram state: bounds, per-bucket counts (`+Inf` last), sum, count.
    Histogram {
        /// Bucket upper bounds.
        bounds: Vec<f64>,
        /// Non-cumulative per-bucket counts, `+Inf` last.
        counts: Vec<u64>,
        /// Sum of observations.
        sum: f64,
        /// Number of observations.
        count: u64,
    },
}

/// One series of one family, frozen at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Family name.
    pub name: String,
    /// Family kind.
    pub kind: MetricKind,
    /// Whether the family is volatile (wall-clock- or thread-dependent);
    /// volatile series are excluded from the deterministic telemetry
    /// series but stay in run reports.
    pub volatile: bool,
    /// The series' label set.
    pub labels: Vec<(String, String)>,
    /// The frozen value.
    pub value: SnapshotValue,
}

/// The process-wide metric registry: every series that has recorded,
/// grouped by family.
#[derive(Debug, Default)]
pub struct Registry {
    /// Families in first-registration order, each family's series in
    /// first-use order.
    series: Mutex<Vec<Series>>,
}

impl Registry {
    /// Adds `series` after the last of its family (a new family goes last).
    ///
    /// # Panics
    ///
    /// Panics if the family is already registered with another kind, or
    /// another static already declares the same name and labels.
    fn add(&self, series: Series) {
        let Meta { name, labels, .. } = *series.meta();
        let mut list = self.series.lock().expect("metrics registry poisoned");
        assert!(
            !list
                .iter()
                .any(|s| s.meta().name == name && s.meta().labels == labels),
            "metric `{name}` {labels:?} declared twice"
        );
        let at = match list.iter().rposition(|s| s.meta().name == name) {
            Some(last) => {
                let kind = list[last].kind();
                assert!(
                    kind == series.kind(),
                    "metric `{name}` registered as {kind:?}, requested as {:?}",
                    series.kind()
                );
                last + 1
            }
            None => list.len(),
        };
        list.insert(at, series);
    }

    /// Freezes every series of every family.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let list = self.series.lock().expect("metrics registry poisoned");
        let mut out = Vec::with_capacity(list.len());
        for family in list.chunk_by(|a, b| a.meta().name == b.meta().name) {
            // Wall-clock timings are volatile by construction: the
            // `_seconds` suffix (DESIGN.md §7 naming) marks every duration
            // histogram. One volatile series makes its whole family so.
            let name = family[0].meta().name;
            let volatile = name.ends_with("_seconds") || family.iter().any(|s| s.meta().volatile);
            for &series in family {
                out.push(MetricSnapshot {
                    name: name.to_string(),
                    kind: series.kind(),
                    volatile,
                    labels: series
                        .meta()
                        .labels
                        .iter()
                        .map(|&(k, v)| (k.to_string(), v.to_string()))
                        .collect(),
                    value: series.value(),
                });
            }
        }
        out
    }

    /// Renders the snapshot as a JSON array (for run reports).
    pub fn snapshot_json(&self) -> String {
        let mut out = String::from("[");
        for (i, m) in self.snapshot().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json::write_str(&mut out, &m.name);
            out.push_str(",\"kind\":");
            json::write_str(&mut out, m.kind.as_str());
            if !m.labels.is_empty() {
                out.push_str(",\"labels\":{");
                for (j, (k, v)) in m.labels.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    json::write_str(&mut out, k);
                    out.push(':');
                    json::write_str(&mut out, v);
                }
                out.push('}');
            }
            match &m.value {
                SnapshotValue::Counter(v) => {
                    out.push_str(",\"value\":");
                    out.push_str(&v.to_string());
                }
                SnapshotValue::Gauge(v) => {
                    out.push_str(",\"value\":");
                    json::write_f64(&mut out, *v);
                }
                SnapshotValue::Histogram {
                    bounds,
                    counts,
                    sum,
                    count,
                } => {
                    out.push_str(",\"bounds\":[");
                    for (j, b) in bounds.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        json::write_f64(&mut out, *b);
                    }
                    out.push_str("],\"counts\":[");
                    for (j, c) in counts.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        out.push_str(&c.to_string());
                    }
                    out.push_str("],\"sum\":");
                    json::write_f64(&mut out, *sum);
                    out.push_str(",\"count\":");
                    out.push_str(&count.to_string());
                    for (label, q) in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)] {
                        out.push_str(",\"");
                        out.push_str(label);
                        out.push_str("\":");
                        json::write_f64(&mut out, quantile_from_buckets(bounds, counts, q));
                    }
                }
            }
            out.push('}');
        }
        out.push(']');
        out
    }
}

/// The process-wide registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: Registry = Registry {
        series: Mutex::new(Vec::new()),
    };
    &REGISTRY
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::TEST_LOCK;

    #[test]
    fn counter_and_gauge_basics() {
        static C: Counter = Counter::new("nazar_test_basics_total", &[]);
        static G: Gauge = Gauge::new("nazar_test_basics_level", &[]);
        let _guard = TEST_LOCK.lock().unwrap();
        crate::testing::enable_memory_sink();
        C.inc();
        C.add(4);
        G.set(2.5);
        crate::testing::disable();
        // Disabled calls stop at the gate.
        C.inc();
        G.set(1.0);
        assert_eq!(C.get(), 5);
        assert_eq!(G.get(), 2.5);
    }

    #[test]
    fn histogram_buckets_and_sum() {
        static H: Histogram = Histogram::new("h", &[], &[1.0, 10.0]);
        H.record(0.5); // bucket 0
        H.record(1.0); // bucket 0 (le semantics)
        H.record(5.0); // bucket 1
        H.record(100.0); // +Inf
        assert_eq!(H.bucket_counts(), vec![2, 1, 1]);
        assert_eq!(H.count(), 4);
        assert!((H.sum() - 106.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn histogram_rejects_unsorted_bounds() {
        let _ = Histogram::new("h", &[], &[2.0, 1.0]);
    }

    #[test]
    fn registry_reuses_series_and_checks_kinds() {
        static A: Counter = Counter::new("nazar_test_reuse_total", &[("op", "a")]);
        static B: Counter = Counter::new("nazar_test_reuse_total", &[("op", "b")]);
        let _guard = TEST_LOCK.lock().unwrap();
        crate::testing::enable_memory_sink();
        A.inc();
        A.inc();
        B.add(0);
        crate::testing::disable();
        assert_eq!(A.get(), 2);
        assert_eq!(B.get(), 0);
        // Each static registered once, on its first use.
        let snap: Vec<MetricSnapshot> = registry()
            .snapshot()
            .into_iter()
            .filter(|m| m.name == "nazar_test_reuse_total")
            .collect();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].labels, vec![("op".to_string(), "a".to_string())]);
        assert_eq!(snap[0].value, SnapshotValue::Counter(2));
    }

    #[test]
    #[should_panic(expected = "registered as")]
    fn registry_panics_on_kind_mismatch() {
        static C: Counter = Counter::new("y_total", &[]);
        static G: Gauge = Gauge::new("y_total", &[("op", "a")]);
        let r = Registry::default();
        r.add(Series::Counter(&C));
        r.add(Series::Gauge(&G));
    }

    #[test]
    #[should_panic(expected = "declared twice")]
    fn registry_panics_on_a_second_static_with_the_same_labels() {
        static A: Counter = Counter::new("z_total", &[("op", "a")]);
        static B: Counter = Counter::new("z_total", &[("op", "a")]);
        let r = Registry::default();
        r.add(Series::Counter(&A));
        r.add(Series::Counter(&B));
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        static H: Histogram = Histogram::new("h", &[], &[1.0, 2.0, 4.0]);
        static LOW: Histogram = Histogram::new("low", &[], &[10.0]);
        let quantile = |h: &Histogram, q| quantile_from_buckets(h.bounds, &h.bucket_counts(), q);
        // Empty histogram: all quantiles are 0.
        assert_eq!(quantile(&H, 0.5), 0.0);
        for _ in 0..10 {
            H.record(1.5); // bucket (1, 2]
        }
        // All mass in one bucket: the median sits mid-bucket.
        assert!((quantile(&H, 0.5) - 1.5).abs() < 1e-9);
        assert!((quantile(&H, 1.0) - 2.0).abs() < 1e-9);
        // Mass in +Inf clamps to the last finite bound.
        for _ in 0..90 {
            H.record(100.0);
        }
        assert!((quantile(&H, 0.99) - 4.0).abs() < 1e-9);
        // First bucket interpolates down from lower edge 0.
        LOW.record(3.0);
        LOW.record(3.0);
        assert!((quantile(&LOW, 0.5) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn volatile_flags_propagate_to_snapshots() {
        static STABLE: Counter = Counter::new("stable_total", &[]);
        static SHAKY: Counter = Counter::new_volatile("shaky_total", &[]);
        static AUTO: Histogram = Histogram::new("auto_seconds", &[], &[1.0]);
        static MIXED_A: Counter = Counter::new("mixed_total", &[("op", "a")]);
        static MIXED_B: Counter = Counter::new_volatile("mixed_total", &[("op", "b")]);
        let r = Registry::default();
        for series in [
            Series::Counter(&STABLE),
            Series::Counter(&SHAKY),
            // `_seconds` histograms are volatile regardless of the flag.
            Series::Histogram(&AUTO),
            // One volatile series makes its whole family volatile.
            Series::Counter(&MIXED_A),
            Series::Counter(&MIXED_B),
        ] {
            r.add(series);
        }
        let volatile: Vec<(String, bool)> = r
            .snapshot()
            .into_iter()
            .map(|m| (m.name, m.volatile))
            .collect();
        assert_eq!(
            volatile,
            vec![
                ("stable_total".to_string(), false),
                ("shaky_total".to_string(), true),
                ("auto_seconds".to_string(), true),
                ("mixed_total".to_string(), true),
                ("mixed_total".to_string(), true),
            ]
        );
    }

    #[test]
    fn snapshot_json_is_valid_shape() {
        static C: Counter = Counter::new("c_total", &[]);
        static H: Histogram = Histogram::new("h_seconds", &[("stage", "fim")], &[0.1, 1.0]);
        let r = Registry::default();
        r.add(Series::Counter(&C));
        r.add(Series::Histogram(&H));
        C.value.fetch_add(3, Ordering::Relaxed);
        H.record(0.5);
        let json = r.snapshot_json();
        assert!(json.starts_with('['));
        assert!(json.contains("\"name\":\"c_total\""));
        assert!(json.contains("\"value\":3"));
        assert!(json.contains("\"labels\":{\"stage\":\"fim\"}"));
        assert!(json.contains("\"counts\":[0,1,0]"));
    }
}
