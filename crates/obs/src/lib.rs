//! `nazar-obs`: zero-dependency observability for the Nazar pipeline.
//!
//! The paper's core claim is operational — continuously *monitoring* drifting
//! models in production — so the reproduction carries its own measurement
//! substrate. This crate provides, with no dependencies beyond `std`:
//!
//! * **metrics** ([`metrics`]): labeled counters, gauges and fixed-bucket
//!   histograms, each a `static` at its call site holding its own atomics,
//!   so hot paths (kernel workspaces, log ingest, version selection)
//!   record without locks; a static joins the process-wide [`registry`]
//!   on its first enabled use, and README's "Metrics reference" table
//!   describes it;
//! * **scoped span timers** ([`span()`]) that assemble a hierarchical span tree
//!   per pipeline run — device inference → detection → log ingest → FIM →
//!   set reduction → counterfactual analysis → per-cause adaptation →
//!   version distribution;
//! * **structured events** ([`event_fields`] / the [`event!`] macro), the
//!   replacement for ad-hoc `println!` diagnostics in library crates;
//! * a **sink** ([`sink`]): a JSONL event/span writer, or in-memory
//!   retention, selected by the `NAZAR_OBS` environment variable.
//!
//! The registry is rendered in two places: the JSON `metrics` block of the
//! run report ([`finish_run`]) and the virtual-time [`telemetry`] series.
//!
//! # The `NAZAR_OBS` environment variable
//!
//! Observability is **off by default**: every instrumentation call first
//! checks [`enabled`], which is a single relaxed atomic load, so the
//! instrumented hot paths cost nothing measurable when monitoring is not
//! requested (asserted by `tests/observability.rs`).
//!
//! Syntax — one or more comma-separated directives:
//!
//! ```text
//! NAZAR_OBS=jsonl:/tmp/run.jsonl   # stream events/spans as JSON lines
//! NAZAR_OBS=mem                    # collect in memory only (tests, ad-hoc probes)
//! ```
//!
//! Unset, empty, `0` or `off` disable everything. So does a directive that
//! is none of the above, or a JSONL file that cannot be created, after one
//! stderr line naming it.
//!
//! # Example
//!
//! ```
//! nazar_obs::testing::enable_memory_sink();
//! static REQS: nazar_obs::Counter = nazar_obs::Counter::new("nazar_example_requests_total", &[]);
//! {
//!     let _span = nazar_obs::span("window");
//!     let _inner = nazar_obs::span("fim");
//!     REQS.inc();
//! }
//! let report = nazar_obs::finish_run("example");
//! assert!(report.contains("\"name\":\"window\""));
//! assert!(report.contains("\"nazar_example_requests_total\",\"kind\":\"counter\",\"value\":1"));
//! # nazar_obs::testing::disable();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod profile;
pub mod sink;
pub mod span;
pub mod telemetry;

pub use metrics::{
    registry, Counter, Gauge, Histogram, MetricKind, MetricSnapshot, Registry, DURATION_BUCKETS,
    POW2_BUCKETS,
};
pub use sink::flush;
pub use span::{current_span_id, span, span_child, span_detail, SpanGuard, SpanRecord};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Process-wide observability state, initialized once.
struct State {
    enabled: AtomicBool,
    epoch: Instant,
}

static STATE: OnceLock<State> = OnceLock::new();

fn state() -> &'static State {
    STATE.get_or_init(|| State {
        enabled: AtomicBool::new(open_sinks(&std::env::var("NAZAR_OBS").unwrap_or_default())),
        epoch: Instant::now(),
    })
}

/// Parses a `NAZAR_OBS` value and installs its sink; returns whether
/// observability is on. A bad directive, or a sink that cannot be opened,
/// leaves it off after one stderr line.
fn open_sinks(spec: &str) -> bool {
    let opened = sink::SinkConfig::parse(spec).and_then(|config| match config {
        Some(config) => sink::install(config).map(|()| true),
        None => Ok(false),
    });
    opened.unwrap_or_else(|e| {
        eprintln!("nazar-obs: NAZAR_OBS: {e}; observability stays off");
        false
    })
}

/// Whether observability is active.
///
/// This is the no-op fast path: one lazy-init check plus one relaxed atomic
/// load. Every instrumentation helper in this crate calls it first and
/// returns immediately when it is `false`.
#[inline]
pub fn enabled() -> bool {
    state().enabled.load(Ordering::Relaxed)
}

/// Nanoseconds since the observability epoch (first touch of the crate).
///
/// Timestamps in emitted records are relative to this epoch, which keeps the
/// output deterministic in shape (monotonic, starting near zero) without
/// needing a wall clock.
pub fn now_ns() -> u64 {
    u64::try_from(state().epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Emits one structured event with pre-rendered field values.
///
/// Prefer the [`event!`] macro, which skips field rendering entirely when
/// observability is disabled.
pub fn event_fields(name: &str, fields: &[(&str, String)]) {
    if !enabled() {
        return;
    }
    let mut line = String::with_capacity(64);
    line.push_str("{\"type\":\"event\",\"ts_ns\":");
    line.push_str(&now_ns().to_string());
    line.push_str(",\"name\":");
    json::write_str(&mut line, name);
    if !fields.is_empty() {
        line.push_str(",\"fields\":{");
        for (i, (k, v)) in fields.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            json::write_str(&mut line, k);
            line.push(':');
            json::write_str(&mut line, v);
        }
        line.push('}');
    }
    line.push('}');
    sink::write_line(&line);
}

/// Emits a structured event: `event!("deploy", cause = label, devices = n)`.
///
/// Field values are rendered with `to_string()` only when observability is
/// enabled, so call sites are free on the disabled path.
#[macro_export]
macro_rules! event {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::event_fields($name, &[$((stringify!($key), $value.to_string())),*]);
        }
    };
}

/// Finishes one pipeline run: drains the collected spans, assembles the span
/// tree, snapshots the metrics registry, and emits a `run_report` record.
///
/// The report is appended to the sink and the rendered report JSON is
/// returned for programmatic use. Returns an empty string when
/// observability is disabled.
pub fn finish_run(name: &str) -> String {
    finish_run_full(name).report
}

/// Everything [`finish_run_full`] assembles from one pipeline run.
#[derive(Debug, Default, Clone)]
pub struct RunOutput {
    /// The `run_report` JSONL line (what [`finish_run`] returns).
    pub report: String,
    /// Collapsed-stack flamegraph text ([`profile::folded`]).
    pub folded: String,
    /// Span names ranked by self time ([`profile::top_self`], top 10).
    pub top_self: Vec<profile::SelfTime>,
}

/// [`finish_run`] plus the span-profile aggregates: the drained spans are
/// also rendered as collapsed flamegraph stacks and a top-self-time table,
/// so callers (the bench `ObsRun` guard) can write profiling artifacts
/// without re-draining. Returns an empty [`RunOutput`] when observability
/// is disabled.
pub fn finish_run_full(name: &str) -> RunOutput {
    if !enabled() {
        return RunOutput::default();
    }
    let spans = span::drain();
    let folded = profile::folded(&spans);
    let top_self = profile::top_self(&spans, 10);
    let tree = span::render_tree(&spans);
    let metrics = registry().snapshot_json();
    let mut line = String::with_capacity(256);
    line.push_str("{\"type\":\"run_report\",\"ts_ns\":");
    line.push_str(&now_ns().to_string());
    line.push_str(",\"name\":");
    json::write_str(&mut line, name);
    line.push_str(",\"spans\":");
    line.push_str(&tree);
    line.push_str(",\"metrics\":");
    line.push_str(&metrics);
    line.push('}');
    sink::write_line(&line);
    sink::flush();
    RunOutput {
        report: line,
        folded,
        top_self,
    }
}

/// Test and embedding hooks: enable/disable observability programmatically.
///
/// Global observability state is shared across the process; tests that use
/// these helpers must serialize themselves (see `tests/observability.rs`).
pub mod testing {
    use super::*;

    /// Enables observability with in-memory collection only (no files).
    pub fn enable_memory_sink() {
        let opened = sink::install(sink::SinkConfig::default());
        state().enabled.store(opened.is_ok(), Ordering::SeqCst);
    }

    /// Enables observability streaming JSONL records to `path`.
    ///
    /// # Errors
    ///
    /// Names a `path` that cannot be created; observability is off then.
    pub fn enable_jsonl_sink(path: &std::path::Path) -> Result<(), String> {
        let opened = sink::install(sink::SinkConfig {
            jsonl: Some(path.to_path_buf()),
        });
        state().enabled.store(opened.is_ok(), Ordering::SeqCst);
        opened
    }

    /// Disables observability and clears collected spans and the telemetry
    /// recorder, so a disabled process reports nothing from an earlier run
    /// (metrics persist; they are cumulative by design).
    pub fn disable() {
        state().enabled.store(false, Ordering::SeqCst);
        let _ = span::drain();
        telemetry::reset();
        sink::uninstall();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that toggle the global enabled flag.
    pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_by_default_and_event_is_noop() {
        let _guard = TEST_LOCK.lock().unwrap();
        testing::disable();
        assert!(!enabled());
        event!("ignored", value = 1);
        event_fields("also-ignored", &[]);
        assert!(finish_run("nothing").is_empty());
    }

    #[test]
    fn event_macro_renders_fields() {
        let _guard = TEST_LOCK.lock().unwrap();
        testing::enable_memory_sink();
        event!("deploy", cause = "{weather=snow}", devices = 12);
        let lines = sink::memory_lines();
        let line = lines
            .iter()
            .find(|l| l.contains("\"name\":\"deploy\""))
            .expect("event recorded");
        assert!(line.contains("\"cause\":\"{weather=snow}\""));
        assert!(line.contains("\"devices\":\"12\""));
        testing::disable();
    }

    #[test]
    fn finish_run_emits_tree_and_metrics() {
        let _guard = TEST_LOCK.lock().unwrap();
        testing::enable_memory_sink();
        static RUNS: Counter = Counter::new("nazar_test_lib_runs_total", &[]);
        {
            let _outer = span("window");
            let _inner = span("fim");
            RUNS.inc();
        }
        let report = finish_run("unit");
        assert!(report.contains("\"type\":\"run_report\""));
        assert!(report.contains("\"name\":\"window\""));
        assert!(report.contains("\"name\":\"fim\""));
        assert!(report.contains("\"name\":\"nazar_test_lib_runs_total\""));
        assert!(!report.contains("\"prometheus\""));
        testing::disable();
    }

    #[test]
    fn a_jsonl_sink_that_cannot_open_leaves_observability_off() {
        let _guard = TEST_LOCK.lock().unwrap();
        // Under a regular file, neither the directory nor the file can be
        // created.
        let blocker =
            std::env::temp_dir().join(format!("nazar-obs-blocker-{}", std::process::id()));
        std::fs::write(&blocker, b"").unwrap();
        let path = blocker.join("x").join("run.jsonl");
        assert!(!open_sinks(&format!("jsonl:{}", path.display())));
        testing::enable_memory_sink();
        assert!(testing::enable_jsonl_sink(&path).is_err());
        assert!(!enabled());
        for i in 0..1000 {
            event!("dropped", i = i);
        }
        assert!(sink::memory_lines().is_empty());
        testing::disable();
        let _ = std::fs::remove_file(&blocker);
    }

    #[test]
    fn now_ns_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
