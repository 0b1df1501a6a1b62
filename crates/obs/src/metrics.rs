//! Thread-safe metrics: labeled counters, gauges and fixed-bucket
//! histograms, all backed by atomics.
//!
//! Metric *families* are keyed by name; each family holds one series per
//! distinct label set. Hot paths hold an `Arc` to their series (cached in a
//! [`LazyCounter`]/[`LazyGauge`]/[`LazyHistogram`] static at the call site),
//! so recording is lock-free: the registry mutex is only taken on first use
//! of a series and when snapshotting.
//!
//! Naming scheme (see DESIGN.md §7): `nazar_<crate>_<noun>[_<unit>|_total]`,
//! snake case, with Prometheus conventions — `_total` for counters, base
//! units (seconds, bytes) for histograms. Labels are closed sets (`op`,
//! `stage`, `phase`, `method`, `keys`), never raw attribute values, to keep
//! cardinality bounded.

use crate::json;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge holding one `f64` value (stored as bits in an atomic).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `v` to the gauge (compare-and-swap loop).
    pub fn add(&self, v: f64) {
        let _ = self
            .bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + v).to_bits())
            });
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A histogram over fixed, ascending bucket bounds.
///
/// Observations count into the first bucket whose upper bound is `>=` the
/// value (Prometheus `le` semantics), plus an implicit `+Inf` bucket, a
/// running sum and a count.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// One per bound, plus the trailing `+Inf` bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
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

    /// Records a duration in seconds since `start`.
    pub fn observe_since(&self, start: std::time::Instant) {
        self.observe(start.elapsed().as_secs_f64());
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// The bucket upper bounds (without the implicit `+Inf`).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket observation counts (non-cumulative), `+Inf` last.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) from the fixed buckets —
    /// see [`quantile_from_buckets`] for the interpolation contract.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_from_buckets(&self.bounds, &self.bucket_counts(), q)
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
pub fn duration_buckets() -> &'static [f64] {
    &[
        1e-6, 1e-5, 1e-4, 2.5e-4, 1e-3, 2.5e-3, 1e-2, 2.5e-2, 0.1, 0.25, 1.0, 2.5, 10.0, 60.0,
    ]
}

/// Power-of-two buckets for small cardinalities (fan-out widths, level
/// sizes): 1 to 1024.
pub fn pow2_buckets() -> &'static [f64] {
    &[
        1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
    ]
}

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

#[derive(Debug)]
enum Series {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

#[derive(Debug)]
struct Family {
    name: String,
    help: String,
    kind: MetricKind,
    /// Wall-clock- or thread-count-dependent: excluded from the
    /// deterministic telemetry series (see [`crate::telemetry`]).
    volatile: bool,
    /// Label sets in first-seen order, each with its series.
    series: Vec<(Vec<(String, String)>, Series)>,
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
    /// Family help text.
    pub help: String,
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

/// The process-wide metric registry.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

#[derive(Debug, Default)]
struct RegistryInner {
    families: Vec<Family>,
    index: HashMap<String, usize>,
}

fn labels_key(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|&(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

impl Registry {
    #[allow(clippy::too_many_arguments)]
    fn family_series<T, F, G>(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        volatile: bool,
        labels: &[(&str, &str)],
        make: F,
        as_t: G,
    ) -> Arc<T>
    where
        F: FnOnce() -> Series,
        G: Fn(&Series) -> Option<Arc<T>>,
    {
        // Wall-clock timings are volatile by construction: the `_seconds`
        // suffix (DESIGN.md §7 naming) marks every duration histogram.
        let volatile = volatile || name.ends_with("_seconds");
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        let idx = match inner.index.get(name) {
            Some(&i) => i,
            None => {
                let i = inner.families.len();
                inner.families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind,
                    volatile,
                    series: Vec::new(),
                });
                inner.index.insert(name.to_string(), i);
                i
            }
        };
        let family = &mut inner.families[idx];
        family.volatile |= volatile;
        assert!(
            family.kind == kind,
            "metric `{name}` registered as {:?}, requested as {kind:?}",
            family.kind
        );
        let key = labels_key(labels);
        if let Some((_, s)) = family.series.iter().find(|(k, _)| *k == key) {
            return as_t(s).expect("kind checked above");
        }
        let series = make();
        let out = as_t(&series).expect("just constructed with matching kind");
        family.series.push((key, series));
        out
    }

    /// The counter series for `(name, labels)`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with a different kind.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.counter_with(name, help, false, labels)
    }

    /// [`Registry::counter`] with an explicit volatility flag; mark series
    /// whose values depend on thread count or the wall clock so the
    /// deterministic telemetry series can skip them.
    pub fn counter_with(
        &self,
        name: &str,
        help: &str,
        volatile: bool,
        labels: &[(&str, &str)],
    ) -> Arc<Counter> {
        self.family_series(
            name,
            help,
            MetricKind::Counter,
            volatile,
            labels,
            || Series::Counter(Arc::new(Counter::default())),
            |s| match s {
                Series::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
        )
    }

    /// The gauge series for `(name, labels)`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with a different kind.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.gauge_with(name, help, false, labels)
    }

    /// [`Registry::gauge`] with an explicit volatility flag.
    pub fn gauge_with(
        &self,
        name: &str,
        help: &str,
        volatile: bool,
        labels: &[(&str, &str)],
    ) -> Arc<Gauge> {
        self.family_series(
            name,
            help,
            MetricKind::Gauge,
            volatile,
            labels,
            || Series::Gauge(Arc::new(Gauge::default())),
            |s| match s {
                Series::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
        )
    }

    /// The histogram series for `(name, labels)`, created on first use with
    /// the given bucket bounds.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with a different kind, or if
    /// `bounds` is not strictly ascending.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Arc<Histogram> {
        self.histogram_with(name, help, false, labels, bounds)
    }

    /// [`Registry::histogram`] with an explicit volatility flag (`_seconds`
    /// names are volatile regardless).
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        volatile: bool,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Arc<Histogram> {
        self.family_series(
            name,
            help,
            MetricKind::Histogram,
            volatile,
            labels,
            || Series::Histogram(Arc::new(Histogram::new(bounds))),
            |s| match s {
                Series::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
        )
    }

    /// Freezes every series of every family.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        let mut out = Vec::new();
        for family in &inner.families {
            for (labels, series) in &family.series {
                let value = match series {
                    Series::Counter(c) => SnapshotValue::Counter(c.get()),
                    Series::Gauge(g) => SnapshotValue::Gauge(g.get()),
                    Series::Histogram(h) => SnapshotValue::Histogram {
                        bounds: h.bounds().to_vec(),
                        counts: h.bucket_counts(),
                        sum: h.sum(),
                        count: h.count(),
                    },
                };
                out.push(MetricSnapshot {
                    name: family.name.clone(),
                    help: family.help.clone(),
                    kind: family.kind,
                    volatile: family.volatile,
                    labels: labels.clone(),
                    value,
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
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// A call-site static caching one counter series.
///
/// `inc`/`add` are no-ops while observability is disabled; the series is
/// registered on first enabled use.
#[derive(Debug)]
pub struct LazyCounter {
    name: &'static str,
    help: &'static str,
    labels: &'static [(&'static str, &'static str)],
    volatile: bool,
    cell: OnceLock<Arc<Counter>>,
}

impl LazyCounter {
    /// Declares a counter series (registered lazily).
    pub const fn new(
        name: &'static str,
        help: &'static str,
        labels: &'static [(&'static str, &'static str)],
    ) -> Self {
        LazyCounter {
            name,
            help,
            labels,
            volatile: false,
            cell: OnceLock::new(),
        }
    }

    /// Declares a volatile counter series — one whose value depends on
    /// thread scheduling (cache hit/miss splits, fan-out widths), excluded
    /// from the deterministic telemetry series.
    pub const fn new_volatile(
        name: &'static str,
        help: &'static str,
        labels: &'static [(&'static str, &'static str)],
    ) -> Self {
        LazyCounter {
            name,
            help,
            labels,
            volatile: true,
            cell: OnceLock::new(),
        }
    }

    fn series(&self) -> &Arc<Counter> {
        self.cell.get_or_init(|| {
            registry().counter_with(self.name, self.help, self.volatile, self.labels)
        })
    }

    /// Adds `n` when observability is enabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if !crate::enabled() {
            return;
        }
        self.series().add(n);
    }

    /// Adds one when observability is enabled.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }
}

/// A call-site static caching one gauge series.
#[derive(Debug)]
pub struct LazyGauge {
    name: &'static str,
    help: &'static str,
    labels: &'static [(&'static str, &'static str)],
    volatile: bool,
    cell: OnceLock<Arc<Gauge>>,
}

impl LazyGauge {
    /// Declares a gauge series (registered lazily).
    pub const fn new(
        name: &'static str,
        help: &'static str,
        labels: &'static [(&'static str, &'static str)],
    ) -> Self {
        LazyGauge {
            name,
            help,
            labels,
            volatile: false,
            cell: OnceLock::new(),
        }
    }

    /// Declares a volatile gauge series (host- or wall-clock-dependent,
    /// e.g. peak RSS), excluded from the deterministic telemetry series.
    pub const fn new_volatile(
        name: &'static str,
        help: &'static str,
        labels: &'static [(&'static str, &'static str)],
    ) -> Self {
        LazyGauge {
            name,
            help,
            labels,
            volatile: true,
            cell: OnceLock::new(),
        }
    }

    /// Sets the gauge when observability is enabled.
    #[inline]
    pub fn set(&self, v: f64) {
        if !crate::enabled() {
            return;
        }
        self.cell
            .get_or_init(|| registry().gauge_with(self.name, self.help, self.volatile, self.labels))
            .set(v);
    }
}

/// A call-site static caching one histogram series.
#[derive(Debug)]
pub struct LazyHistogram {
    name: &'static str,
    help: &'static str,
    labels: &'static [(&'static str, &'static str)],
    volatile: bool,
    bounds: fn() -> &'static [f64],
    cell: OnceLock<Arc<Histogram>>,
}

impl LazyHistogram {
    /// Declares a histogram series (registered lazily) over `bounds`.
    pub const fn new(
        name: &'static str,
        help: &'static str,
        labels: &'static [(&'static str, &'static str)],
        bounds: fn() -> &'static [f64],
    ) -> Self {
        LazyHistogram {
            name,
            help,
            labels,
            volatile: false,
            bounds,
            cell: OnceLock::new(),
        }
    }

    /// Declares a volatile histogram series (thread-count-dependent, e.g.
    /// fan-out widths), excluded from the deterministic telemetry series.
    pub const fn new_volatile(
        name: &'static str,
        help: &'static str,
        labels: &'static [(&'static str, &'static str)],
        bounds: fn() -> &'static [f64],
    ) -> Self {
        LazyHistogram {
            name,
            help,
            labels,
            volatile: true,
            bounds,
            cell: OnceLock::new(),
        }
    }

    /// Records `v` when observability is enabled.
    #[inline]
    pub fn observe(&self, v: f64) {
        if !crate::enabled() {
            return;
        }
        self.cell
            .get_or_init(|| {
                registry().histogram_with(
                    self.name,
                    self.help,
                    self.volatile,
                    self.labels,
                    (self.bounds)(),
                )
            })
            .observe(v);
    }

    /// Records the seconds elapsed since `start` when observability is
    /// enabled.
    #[inline]
    pub fn observe_since(&self, start: std::time::Instant) {
        if !crate::enabled() {
            return;
        }
        self.observe(start.elapsed().as_secs_f64());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::default();
        g.set(2.5);
        g.add(0.5);
        assert!((g.get() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_and_sum() {
        let h = Histogram::new(&[1.0, 10.0]);
        h.observe(0.5); // bucket 0
        h.observe(1.0); // bucket 0 (le semantics)
        h.observe(5.0); // bucket 1
        h.observe(100.0); // +Inf
        assert_eq!(h.bucket_counts(), vec![2, 1, 1]);
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 106.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn histogram_rejects_unsorted_bounds() {
        let _ = Histogram::new(&[2.0, 1.0]);
    }

    #[test]
    fn registry_reuses_series_and_checks_kinds() {
        let r = Registry::default();
        let a = r.counter("x_total", "help", &[("op", "a")]);
        let b = r.counter("x_total", "help", &[("op", "a")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        let other = r.counter("x_total", "help", &[("op", "b")]);
        assert_eq!(other.get(), 0);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].labels, vec![("op".to_string(), "a".to_string())]);
    }

    #[test]
    #[should_panic(expected = "registered as")]
    fn registry_panics_on_kind_mismatch() {
        let r = Registry::default();
        let _ = r.counter("y_total", "help", &[]);
        let _ = r.gauge("y_total", "help", &[]);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        // Empty histogram: all quantiles are 0.
        assert_eq!(h.quantile(0.5), 0.0);
        for _ in 0..10 {
            h.observe(1.5); // bucket (1, 2]
        }
        // All mass in one bucket: the median sits mid-bucket.
        assert!((h.quantile(0.5) - 1.5).abs() < 1e-9);
        assert!((h.quantile(1.0) - 2.0).abs() < 1e-9);
        // Mass in +Inf clamps to the last finite bound.
        for _ in 0..90 {
            h.observe(100.0);
        }
        assert!((h.quantile(0.99) - 4.0).abs() < 1e-9);
        // First bucket interpolates down from lower edge 0.
        let low = Histogram::new(&[10.0]);
        low.observe(3.0);
        low.observe(3.0);
        assert!((low.quantile(0.5) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn volatile_flags_propagate_to_snapshots() {
        let r = Registry::default();
        r.counter("stable_total", "help", &[]).inc();
        r.counter_with("shaky_total", "help", true, &[]).inc();
        // `_seconds` histograms are volatile regardless of the flag.
        r.histogram("auto_seconds", "help", &[], &[1.0])
            .observe(0.5);
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
            ]
        );
    }

    #[test]
    fn snapshot_json_is_valid_shape() {
        let r = Registry::default();
        r.counter("c_total", "counts", &[]).add(3);
        r.histogram("h_seconds", "times", &[("stage", "fim")], &[0.1, 1.0])
            .observe(0.5);
        let json = r.snapshot_json();
        assert!(json.starts_with('['));
        assert!(json.contains("\"name\":\"c_total\""));
        assert!(json.contains("\"value\":3"));
        assert!(json.contains("\"labels\":{\"stage\":\"fim\"}"));
        assert!(json.contains("\"counts\":[0,1,0]"));
    }
}
