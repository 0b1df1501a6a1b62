//! Output sinks: JSONL record streaming and Prometheus text snapshots.
//!
//! The JSONL sink appends one JSON object per line — `event`, `span` and
//! `run_report` records — to the file named by `NAZAR_OBS=jsonl:<path>`.
//! The Prometheus sink writes the full registry in text exposition format
//! to `NAZAR_OBS=prom:<path>` on every [`flush`]. With `NAZAR_OBS=mem`,
//! records are retained in memory (tests, ad-hoc probes).

use crate::metrics::{registry, SnapshotValue};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};

/// Parsed `NAZAR_OBS` directives.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SinkConfig {
    /// Target of `jsonl:<path>`, if given.
    pub jsonl: Option<PathBuf>,
    /// Target of `prom:<path>`, if given.
    pub prom: Option<PathBuf>,
}

impl SinkConfig {
    /// Parses the `NAZAR_OBS` value. `Ok(None)` means observability stays
    /// disabled; `Ok(Some(default))` (no paths) means in-memory collection.
    ///
    /// # Errors
    ///
    /// Names the first directive that is not `jsonl:<path>`, `prom:<path>`,
    /// `mem`, `on` or `1`.
    pub fn parse(spec: &str) -> Result<Option<SinkConfig>, String> {
        let spec = spec.trim();
        if spec.is_empty() || spec == "0" || spec.eq_ignore_ascii_case("off") {
            return Ok(None);
        }
        let mut config = SinkConfig::default();
        for directive in spec.split(',') {
            let directive = directive.trim();
            if let Some(path) = directive.strip_prefix("jsonl:") {
                config.jsonl = Some(PathBuf::from(path));
            } else if let Some(path) = directive.strip_prefix("prom:") {
                config.prom = Some(PathBuf::from(path));
            } else if !matches!(directive, "mem" | "on" | "1") {
                return Err(format!(
                    "{directive:?} is not one of jsonl:<path>, prom:<path>, mem"
                ));
            }
        }
        Ok(Some(config))
    }
}

struct Sink {
    jsonl: Option<BufWriter<File>>,
    prom: Option<PathBuf>,
    /// Line retention for `mem` mode (only when no JSONL file is set, so
    /// long streaming runs don't accumulate unbounded memory).
    memory: Vec<String>,
}

fn sink_slot() -> &'static Mutex<Option<Sink>> {
    static SINK: OnceLock<Mutex<Option<Sink>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(None))
}

/// Installs sinks from a parsed config (replacing any previous sinks).
pub(crate) fn install(config: SinkConfig) {
    let jsonl = config.jsonl.and_then(|path| {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match File::create(&path) {
            Ok(f) => Some(BufWriter::new(f)),
            Err(e) => {
                eprintln!("nazar-obs: cannot open jsonl sink {}: {e}", path.display());
                None
            }
        }
    });
    *sink_slot().lock().expect("sink poisoned") = Some(Sink {
        jsonl,
        prom: config.prom,
        memory: Vec::new(),
    });
}

/// Removes all sinks (test teardown).
pub(crate) fn uninstall() {
    *sink_slot().lock().expect("sink poisoned") = None;
}

/// Appends one pre-rendered JSON line to the active sink.
pub(crate) fn write_line(line: &str) {
    let mut slot = sink_slot().lock().expect("sink poisoned");
    let Some(sink) = slot.as_mut() else {
        return;
    };
    match sink.jsonl.as_mut() {
        Some(w) => {
            let _ = writeln!(w, "{line}");
        }
        None => sink.memory.push(line.to_string()),
    }
}

/// Lines retained by the in-memory sink (empty when a JSONL file is set).
pub fn memory_lines() -> Vec<String> {
    sink_slot()
        .lock()
        .expect("sink poisoned")
        .as_ref()
        .map(|s| s.memory.clone())
        .unwrap_or_default()
}

/// Flushes the JSONL sink and (re)writes the Prometheus snapshot file.
pub fn flush() {
    let prom_path = {
        let mut slot = sink_slot().lock().expect("sink poisoned");
        let Some(sink) = slot.as_mut() else {
            return;
        };
        if let Some(w) = sink.jsonl.as_mut() {
            let _ = w.flush();
        }
        sink.prom.clone()
    };
    // Render outside the sink lock: the registry has its own lock.
    if let Some(path) = prom_path {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let _ = std::fs::write(&path, render_prometheus());
    }
}

fn write_label_value(out: &mut String, v: &str) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

fn write_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        write_label_value(out, v);
        out.push('"');
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        write_label_value(out, v);
        out.push('"');
    }
    out.push('}');
}

/// Renders every registered metric in Prometheus text exposition format.
pub fn render_prometheus() -> String {
    let snapshot = registry().snapshot();
    let mut out = String::new();
    for (i, m) in snapshot.iter().enumerate() {
        let new_family = i == 0 || snapshot[i - 1].name != m.name;
        if new_family {
            out.push_str("# HELP ");
            out.push_str(&m.name);
            out.push(' ');
            out.push_str(&m.help);
            out.push('\n');
            out.push_str("# TYPE ");
            out.push_str(&m.name);
            out.push(' ');
            out.push_str(m.kind.as_str());
            out.push('\n');
        }
        match &m.value {
            SnapshotValue::Counter(v) => {
                out.push_str(&m.name);
                write_labels(&mut out, &m.labels, None);
                out.push(' ');
                out.push_str(&v.to_string());
                out.push('\n');
            }
            SnapshotValue::Gauge(v) => {
                out.push_str(&m.name);
                write_labels(&mut out, &m.labels, None);
                out.push(' ');
                out.push_str(&format!("{v}"));
                out.push('\n');
            }
            SnapshotValue::Histogram {
                bounds,
                counts,
                sum,
                count,
            } => {
                let mut cumulative = 0u64;
                for (i, c) in counts.iter().enumerate() {
                    cumulative += c;
                    let le = if i < bounds.len() {
                        format!("{}", bounds[i])
                    } else {
                        "+Inf".to_string()
                    };
                    out.push_str(&m.name);
                    out.push_str("_bucket");
                    write_labels(&mut out, &m.labels, Some(("le", &le)));
                    out.push(' ');
                    out.push_str(&cumulative.to_string());
                    out.push('\n');
                }
                out.push_str(&m.name);
                out.push_str("_sum");
                write_labels(&mut out, &m.labels, None);
                out.push(' ');
                out.push_str(&format!("{sum}"));
                out.push('\n');
                out.push_str(&m.name);
                out.push_str("_count");
                write_labels(&mut out, &m.labels, None);
                out.push(' ');
                out.push_str(&count.to_string());
                out.push('\n');
                // Summary-style quantile estimates, interpolated from the
                // fixed buckets (advisory; scrapers that recompute
                // histogram_quantile can ignore them).
                for (label, q) in [("0.5", 0.5), ("0.95", 0.95), ("0.99", 0.99)] {
                    let v = crate::metrics::quantile_from_buckets(bounds, counts, q);
                    out.push_str(&m.name);
                    write_labels(&mut out, &m.labels, Some(("quantile", label)));
                    out.push(' ');
                    out.push_str(&format!("{v}"));
                    out.push('\n');
                }
            }
        }
    }
    out
}

/// Alias of [`render_prometheus`] under the name used by the public API.
pub fn prometheus_snapshot() -> String {
    render_prometheus()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::TEST_LOCK;

    #[test]
    fn parse_recognizes_directives() {
        assert_eq!(SinkConfig::parse(""), Ok(None));
        assert_eq!(SinkConfig::parse("0"), Ok(None));
        assert_eq!(SinkConfig::parse("off"), Ok(None));
        let both = SinkConfig::parse("jsonl:/tmp/a.jsonl, prom:/tmp/b.prom")
            .unwrap()
            .unwrap();
        assert_eq!(
            both.jsonl.as_deref(),
            Some(std::path::Path::new("/tmp/a.jsonl"))
        );
        assert_eq!(
            both.prom.as_deref(),
            Some(std::path::Path::new("/tmp/b.prom"))
        );
        assert_eq!(SinkConfig::parse("mem"), Ok(Some(SinkConfig::default())));
        // A misspelt sink is an error, not a silent in-memory run.
        let err = SinkConfig::parse("prom:/tmp/b.prom,json:/tmp/x").unwrap_err();
        assert!(err.contains("\"json:/tmp/x\""), "{err}");
    }

    #[test]
    fn prometheus_rendering_has_help_type_and_cumulative_buckets() {
        let _guard = TEST_LOCK.lock().unwrap();
        crate::testing::enable_memory_sink();
        let h = registry().histogram(
            "nazar_test_sink_seconds",
            "Sink test timings",
            &[("stage", "x")],
            &[0.1, 1.0],
        );
        h.observe(0.05);
        h.observe(0.5);
        h.observe(10.0);
        let text = render_prometheus();
        assert!(text.contains("# HELP nazar_test_sink_seconds Sink test timings"));
        assert!(text.contains("# TYPE nazar_test_sink_seconds histogram"));
        assert!(text.contains("nazar_test_sink_seconds_bucket{stage=\"x\",le=\"0.1\"} 1"));
        assert!(text.contains("nazar_test_sink_seconds_bucket{stage=\"x\",le=\"1\"} 2"));
        assert!(text.contains("nazar_test_sink_seconds_bucket{stage=\"x\",le=\"+Inf\"} 3"));
        assert!(text.contains("nazar_test_sink_seconds_count{stage=\"x\"} 3"));
        assert!(text.contains("nazar_test_sink_seconds{stage=\"x\",quantile=\"0.5\"}"));
        assert!(text.contains("nazar_test_sink_seconds{stage=\"x\",quantile=\"0.99\"}"));
        crate::testing::disable();
    }

    #[test]
    fn jsonl_sink_writes_lines_to_disk() {
        let _guard = TEST_LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join("nazar-obs-sink-test");
        let path = dir.join("out.jsonl");
        crate::testing::enable_jsonl_sink(&path);
        crate::event_fields("hello", &[("k", "v".to_string())]);
        flush();
        let text = std::fs::read_to_string(&path).expect("sink file written");
        assert!(text.contains("\"name\":\"hello\""));
        crate::testing::disable();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
