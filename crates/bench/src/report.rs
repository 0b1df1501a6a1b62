//! Plain-text table rendering and run-report emission for experiment output.

use std::fmt::Write as _;

/// RAII guard that wraps one experiment binary in an observability run.
///
/// On construction it opens the root `run` span, emits a `run_start` event,
/// and re-baselines the telemetry recorder ([`nazar_obs::telemetry::begin_run`]);
/// on drop it closes the span, takes the run's final telemetry snapshot,
/// assembles the span tree + metrics snapshot via
/// [`nazar_obs::finish_run_full`], flushes the configured sinks, and writes
/// the telemetry series (`results/obs/<name>.series.jsonl`, override with
/// `NAZAR_OBS_SERIES`) and the collapsed-stack flamegraph
/// (`results/obs/<name>.folded`, override with `NAZAR_OBS_FOLDED`). If SLO
/// rules are armed (`NAZAR_OBS_SLO`) and any breached during the run, the
/// breaches are printed and the process exits with status 2 — the CI gate.
/// Everything is a no-op unless `NAZAR_OBS` selects a sink, so the guard is
/// unconditionally placed at the top of every bin's `main`.
pub struct ObsRun {
    name: &'static str,
    root: Option<nazar_obs::SpanGuard>,
}

impl ObsRun {
    /// Starts an observability run named after the binary (e.g. `"fig9d"`).
    pub fn start(name: &'static str) -> ObsRun {
        nazar_obs::telemetry::begin_run();
        nazar_obs::event!("run_start", bin = name);
        ObsRun {
            name,
            root: Some(nazar_obs::span("run")),
        }
    }
}

/// Resolves an artifact path from `env_var`, defaulting to
/// `results/obs/<name>.<ext>`, and makes sure its parent directory exists.
fn artifact_path(env_var: &str, name: &str, ext: &str) -> std::path::PathBuf {
    let path = std::env::var(env_var)
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| std::path::PathBuf::from(format!("results/obs/{name}.{ext}")));
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    path
}

impl Drop for ObsRun {
    fn drop(&mut self) {
        // Close the root span before draining so it appears in the tree.
        drop(self.root.take());
        if !nazar_obs::enabled() {
            return;
        }
        nazar_obs::telemetry::snapshot_final();
        let output = nazar_obs::finish_run_full(self.name);
        eprintln!("obs: run report emitted for {}", self.name);

        let series = nazar_obs::telemetry::series_jsonl();
        if !series.is_empty() {
            let path = artifact_path("NAZAR_OBS_SERIES", self.name, "series.jsonl");
            match std::fs::write(&path, &series) {
                Ok(()) => eprintln!(
                    "obs: telemetry series ({} snapshots) written to {}",
                    nazar_obs::telemetry::snapshot_count(),
                    path.display()
                ),
                Err(e) => eprintln!("obs: failed to write {}: {e}", path.display()),
            }
        }

        if !output.folded.is_empty() {
            let path = artifact_path("NAZAR_OBS_FOLDED", self.name, "folded");
            match std::fs::write(&path, &output.folded) {
                Ok(()) => eprintln!("obs: folded flamegraph written to {}", path.display()),
                Err(e) => eprintln!("obs: failed to write {}: {e}", path.display()),
            }
        }

        if !output.top_self.is_empty() {
            eprintln!("obs: top self-time spans for {}:", self.name);
            eprintln!(
                "obs:   {:<18} {:>8} {:>14} {:>14}",
                "span", "count", "self_ms", "total_ms"
            );
            for s in &output.top_self {
                eprintln!(
                    "obs:   {:<18} {:>8} {:>14.3} {:>14.3}",
                    s.name,
                    s.count,
                    s.self_ns as f64 / 1e6,
                    s.total_ns as f64 / 1e6
                );
            }
        }

        if nazar_obs::slo::armed() {
            let breaches = nazar_obs::slo::breaches();
            if breaches.is_empty() {
                eprintln!("obs: slo ok ({})", self.name);
            } else {
                for b in &breaches {
                    eprintln!(
                        "obs: slo breach: rule '{}' value {:.6} vs threshold {:.6} at t_us={}",
                        b.rule, b.value, b.threshold, b.t_us
                    );
                }
                eprintln!(
                    "obs: slo gate FAILED for {}: {} breach(es)",
                    self.name,
                    breaches.len()
                );
                std::process::exit(2);
            }
        }
    }
}

/// A simple aligned text table, printed to stdout by the experiment bins and
/// pasted into EXPERIMENTS.md.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        self.rows.push(cells.to_vec());
        self
    }

    /// Convenience: appends a row of `&str` cells.
    pub fn row_str(&mut self, cells: &[&str]) -> &mut Self {
        self.rows
            .push(cells.iter().map(|s| s.to_string()).collect());
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self
            .headers
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(display_width(h));
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(display_width(c));
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                let pad = widths[i].saturating_sub(display_width(c));
                let _ = write!(line, "{}{}  ", c, " ".repeat(pad));
            }
            line.trim_end().to_string()
        };
        if !self.headers.is_empty() {
            let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
            let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
            let _ = writeln!(out, "{}", "-".repeat(total.min(120)));
        }
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// Approximate display width (counts chars; the check/cross marks used in
/// Table 1 are single-width).
fn display_width(s: &str) -> usize {
    s.chars().count()
}

/// Builds one `{"id": ..., <field>: <num>, ...}` bench row for
/// [`merge_bench_json`].
pub fn bench_row(id: &str, fields: &[(&str, f64)]) -> serde::Value {
    let mut entries = vec![("id".to_string(), serde::Value::Str(id.to_string()))];
    for &(k, v) in fields {
        entries.push((k.to_string(), serde::Value::Num(v)));
    }
    serde::Value::Map(entries)
}

/// What shaped a bench run's numbers, as `(key, value)` lines for the
/// report's `header` object: commit, host CPU, core count, thread width,
/// SIMD tier and compiler. A value that cannot be read is `"unknown"`.
pub fn run_header() -> Vec<(&'static str, String)> {
    let capture = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        (
            "commit",
            capture("git", &["describe", "--always", "--dirty"]),
        ),
        ("cpu", cpu),
        ("nproc", nproc.to_string()),
        ("threads", nazar_tensor::parallel::num_threads().to_string()),
        ("simd", nazar_tensor::simd::env_tier().as_str().to_string()),
        ("rustc", capture("rustc", &["--version"])),
    ]
}

/// Merges bench rows into the `{"header": {...}, "benches": [...]}` JSON
/// file at `path`: existing rows whose `id` starts with `prefix` are
/// replaced by `rows`, everything else is preserved. This is how
/// `fleet_scale` and `fleet_million` share `BENCH_fleet.json` without
/// clobbering each other's sections. A missing or unparsable file starts
/// fresh. The header is this run's [`run_header`] — a file has one, so
/// re-record all of its sections in one session.
///
/// # Errors
///
/// Returns the I/O error if the final write fails.
pub fn merge_bench_json(path: &str, prefix: &str, rows: Vec<serde::Value>) -> std::io::Result<()> {
    let mut benches: Vec<serde::Value> = std::fs::read_to_string(path)
        .ok()
        .and_then(|s| serde_json::from_str::<serde::Value>(&s).ok())
        .and_then(|v| match v {
            serde::Value::Map(entries) => entries
                .into_iter()
                .find(|(k, _)| k == "benches")
                .map(|(_, v)| v),
            _ => None,
        })
        .and_then(|v| match v {
            serde::Value::Seq(items) => Some(items),
            _ => None,
        })
        .unwrap_or_default();
    benches.retain(|b| match b {
        serde::Value::Map(entries) => !matches!(
            serde::value_get(entries, "id"),
            Some(serde::Value::Str(id)) if id.starts_with(prefix)
        ),
        _ => true,
    });
    benches.extend(rows);
    let header = run_header()
        .into_iter()
        .map(|(key, value)| (key.to_string(), serde::Value::Str(value)))
        .collect();
    let doc = serde::Value::Map(vec![
        ("header".to_string(), serde::Value::Map(header)),
        ("benches".to_string(), serde::Value::Seq(benches)),
    ]);
    let json = serde_json::to_string(&doc).expect("bench JSON serializes");
    std::fs::write(path, json + "\n")
}

#[cfg(test)]
mod merge_tests {
    use super::*;

    #[test]
    fn merge_replaces_own_prefix_and_keeps_the_rest() {
        let dir = std::env::temp_dir().join("nazar_merge_bench_json_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("BENCH_fleet.json");
        let path = path.to_str().expect("utf-8 temp path");
        let _ = std::fs::remove_file(path);

        merge_bench_json(path, "a/", vec![bench_row("a/x", &[("median_ns", 1.0)])])
            .expect("fresh write");
        merge_bench_json(path, "b/", vec![bench_row("b/y", &[("value", 2.0)])])
            .expect("merge write");
        // Re-running section "a/" replaces its old rows, keeps "b/".
        merge_bench_json(path, "a/", vec![bench_row("a/z", &[("median_ns", 3.0)])])
            .expect("replace write");

        let text = std::fs::read_to_string(path).expect("read back");
        assert!(text.contains("a/z") && text.contains("b/y"));
        assert!(text.contains("\"header\"") && text.contains("\"rustc\""));
        assert!(!text.contains("a/x"), "old section rows must be replaced");
        let _ = std::fs::remove_file(path);
    }
}

/// Formats a ratio as a percentage with one decimal.
pub fn pct(x: f32) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a float with the given number of decimals.
pub fn num(x: f64, decimals: usize) -> String {
    format!("{x:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row_str(&["a", "1"]).row_str(&["longer-name", "22"]);
        let r = t.render();
        assert!(r.contains("== demo =="));
        assert!(r.contains("longer-name"));
        let lines: Vec<&str> = r.lines().collect();
        // Header, separator, two rows, plus the title line.
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn pct_and_num_format() {
        assert_eq!(pct(0.615), "61.5%");
        assert_eq!(num(2.46801, 2), "2.47");
    }
}
