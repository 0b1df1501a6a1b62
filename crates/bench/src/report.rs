//! Plain-text table rendering, run-report emission, and the bench harness:
//! one timing loop, one output-path rule and one `BENCH_*.json` writer.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

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

/// Median wall-clock nanoseconds per call of `routine` over `samples`
/// timed batches: the bench harness's one timing loop.
///
/// Warm-up makes at least 3 calls and runs for at least 20 ms (at most
/// 1 000 calls), which also estimates one call's cost. Each sample then
/// times a batch sized to about 2 ms, so a fast routine is measured over
/// many calls and a slow one over one. With an even `samples` the median
/// is the upper of the two middle batches.
///
/// # Panics
///
/// Panics if `samples` is zero.
pub fn median_ns<O>(samples: usize, mut routine: impl FnMut() -> O) -> f64 {
    let mut estimate = Duration::ZERO;
    let mut warmup_calls = 0u32;
    let warmup_start = Instant::now();
    while warmup_calls < 1000
        && (warmup_calls < 3 || warmup_start.elapsed() < Duration::from_millis(20))
    {
        let t = Instant::now();
        black_box(routine());
        estimate += t.elapsed();
        warmup_calls += 1;
    }
    let per_call = estimate / warmup_calls;
    let batch = if per_call.is_zero() {
        1000
    } else {
        (Duration::from_millis(2).as_nanos() / per_call.as_nanos()).clamp(1, 1_000_000) as u64
    };
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            t.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[samples / 2]
}

/// The file a bench run writes its rows to: `NAZAR_BENCH_OUT` if it is
/// set, otherwise `default_file` (a `BENCH_*.json` name) at the workspace
/// root. A redirected run writes every section it measured to that path.
pub fn bench_out(default_file: &str) -> String {
    std::env::var("NAZAR_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../{default_file}", env!("CARGO_MANIFEST_DIR")))
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

fn row_id(row: &serde::Value) -> Option<&str> {
    match row {
        serde::Value::Map(entries) => match serde::value_get(entries, "id") {
            Some(serde::Value::Str(id)) => Some(id),
            _ => None,
        },
        _ => None,
    }
}

/// What shaped a bench run's numbers, as `(key, value)` lines for the
/// report's `header` object: commit, host CPU, core count, thread width,
/// SIMD tier and compiler. A value that cannot be read is `"unknown"`.
fn run_header() -> Vec<(&'static str, String)> {
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
    // A bench run's own reports are its output, not the code that produced
    // it, so they do not make the commit stamp `-dirty`.
    let reports = ":(top,exclude)BENCH_*.json";
    let diff = capture("git", &["diff", "--quiet", "HEAD", "--", ":/", reports]);
    let dirty = if diff.is_empty() { "" } else { "-dirty" };
    vec![
        ("commit", capture("git", &["describe", "--always"]) + dirty),
        ("cpu", cpu),
        ("nproc", nproc.to_string()),
        ("threads", nazar_tensor::parallel::num_threads().to_string()),
        ("simd", nazar_tensor::simd::env_tier().as_str().to_string()),
        ("rustc", capture("rustc", &["--version"])),
    ]
}

/// Merges bench rows into the `{"header": {...}, "benches": [...]}` JSON
/// file at `path`; every `BENCH_*.json` row is written here. A row of
/// `rows` whose id the file already holds takes that row's place, and the
/// others are appended. An existing row whose id is `stale`, and that
/// `rows` does not re-measure, is dropped. A bin passes its own section's
/// prefix, so ids it no longer produces go and the other bins' sections
/// stay; a filtered `microbench` run passes its filter, so it replaces
/// only what it measured. A missing or unparsable file starts fresh, and
/// an empty `rows` leaves the file alone. The header is this run's commit,
/// host and settings — a file has one, so re-record all of its sections
/// in one session. Each row is written on a line of its own, and the path
/// goes to stderr.
///
/// # Errors
///
/// Returns the I/O error if the final write fails.
pub fn merge_bench_json(
    path: &str,
    stale: impl Fn(&str) -> bool,
    rows: Vec<serde::Value>,
) -> std::io::Result<()> {
    if rows.is_empty() {
        return Ok(());
    }
    let old = std::fs::read_to_string(path).ok();
    let mut benches = match old.and_then(|s| serde_json::from_str(&s).ok()) {
        Some(serde::Value::Map(doc)) => match serde::value_get(&doc, "benches") {
            Some(serde::Value::Seq(items)) => items.clone(),
            _ => Vec::new(),
        },
        _ => Vec::new(),
    };
    benches.retain(|b| {
        row_id(b).is_none_or(|id| !stale(id) || rows.iter().any(|r| row_id(r) == Some(id)))
    });
    for row in rows {
        match benches.iter().position(|b| row_id(b) == row_id(&row)) {
            Some(i) => benches[i] = row,
            None => benches.push(row),
        }
    }
    let header = run_header()
        .into_iter()
        .map(|(key, value)| (key.to_string(), serde::Value::Str(value)))
        .collect();
    let json = |v: &serde::Value| serde_json::to_string(v).map_err(std::io::Error::other);
    let lines = benches
        .iter()
        .map(json)
        .collect::<std::io::Result<Vec<_>>>()?;
    let text = format!(
        "{{\"header\": {},\n\"benches\": [\n{}\n]}}\n",
        json(&serde::Value::Map(header))?,
        lines.join(",\n")
    );
    std::fs::write(path, text)?;
    eprintln!("bench rows merged into {path}");
    Ok(())
}

#[cfg(test)]
mod merge_tests {
    use super::*;

    /// A fresh path for one test's report, in the temp directory.
    fn scratch_report(test: &str) -> String {
        let path = std::env::temp_dir().join(format!("{test}.json"));
        let _ = std::fs::remove_file(&path);
        path.to_str().expect("utf-8 temp path").to_string()
    }

    #[test]
    fn merge_replaces_own_prefix_and_keeps_the_rest() {
        let path = &scratch_report("nazar_merge_bench_json_test");
        let a = |id: &str| id.starts_with("a/");
        let b = |id: &str| id.starts_with("b/");
        merge_bench_json(path, a, vec![bench_row("a/x", &[("median_ns", 1.0)])])
            .expect("fresh write");
        merge_bench_json(path, b, vec![bench_row("b/y", &[("value", 2.0)])]).expect("merge write");
        // Re-running section "a/" replaces its old rows, keeps "b/".
        merge_bench_json(path, a, vec![bench_row("a/z", &[("median_ns", 3.0)])])
            .expect("replace write");

        let text = std::fs::read_to_string(path).expect("read back");
        assert!(text.contains("a/z") && text.contains("b/y"));
        assert!(text.contains("\"header\"") && text.contains("\"rustc\""));
        assert!(!text.contains("a/x"), "old section rows must be replaced");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn a_filtered_write_keeps_the_rows_it_did_not_measure() {
        let path = &scratch_report("nazar_filtered_bench_json_test");
        let rows = |path: &str| -> Vec<String> {
            let text = std::fs::read_to_string(path).expect("read back");
            assert!(text.starts_with("{\"header\": {\"commit\":"));
            text.lines()
                .filter(|l| l.starts_with("{\"id\""))
                .map(|l| l.trim_end_matches(',').to_string())
                .collect()
        };
        let all = |_: &str| true;
        let full = ["g/a", "g/b", "h/c"].map(|id| bench_row(id, &[("median_ns", 1.0)]));
        merge_bench_json(path, all, full.to_vec()).expect("full write");
        // A run filtered to "b" re-measures g/b alone: the other rows keep
        // their values, and every row keeps its place.
        let filter = |id: &str| id.contains('b');
        merge_bench_json(path, filter, vec![bench_row("g/b", &[("median_ns", 2.5)])])
            .expect("filtered write");
        assert_eq!(
            rows(path),
            [
                r#"{"id":"g/a","median_ns":1}"#,
                r#"{"id":"g/b","median_ns":2.5}"#,
                r#"{"id":"h/c","median_ns":1}"#,
            ]
        );
        // An unfiltered run replaces the rows wholesale: stale ids go.
        merge_bench_json(path, all, vec![bench_row("h/c", &[("median_ns", 3.0)])])
            .expect("unfiltered write");
        assert_eq!(rows(path), [r#"{"id":"h/c","median_ns":3}"#]);
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

    #[test]
    fn median_ns_times_a_cheap_closure_and_honours_the_sample_count() {
        let mut acc = 0u64;
        let ns = median_ns(5, || {
            acc = acc.wrapping_add(black_box(1));
            acc
        });
        assert!(ns > 0.0, "median {ns}");
        // A 7 ms call ends the warm-up after exactly 3 calls (21 ms ≥ 20 ms)
        // and is over the 2 ms batch target, so each sample is one call.
        let mut calls = 0;
        median_ns(3, || {
            calls += 1;
            std::thread::sleep(std::time::Duration::from_millis(7));
        });
        assert_eq!(calls, 3 + 3);
    }
}
