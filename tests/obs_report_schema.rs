//! Schema validation for `nazar-obs` run reports.
//!
//! CI runs `fig9d` at reduced scale with `NAZAR_OBS=jsonl:...` and points
//! `NAZAR_OBS_REPORT` at the resulting file before running this test; the
//! test then checks that the report is well-formed JSONL, that its span tree
//! covers every pipeline stage, and that every entry of its `metrics` block
//! is complete and self-consistent. Without the environment variable the
//! test generates its own report from a miniature pipeline run, so it is
//! self-contained locally.
//!
//! The vendored `serde_json` stand-in has no dynamic `Value` type, so the
//! test carries a small recursive-descent parser.

use std::path::PathBuf;

/// One parsed JSON value.
#[derive(Debug)]
enum Json {
    Null,
    Bool,
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses `s` as one complete JSON value (no trailing bytes). Panics
    /// (failing the test) on malformed input.
    fn parse(s: &str) -> Json {
        let bytes = s.as_bytes();
        let (value, end) = parse_value(bytes, skip_ws(bytes, 0));
        assert_eq!(
            skip_ws(bytes, end),
            bytes.len(),
            "trailing bytes after JSON value"
        );
        value
    }

    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn str(&self, key: &str) -> Option<&str> {
        match self.get(key) {
            Some(Json::Str(s)) => Some(s),
            _ => None,
        }
    }

    fn num(&self, key: &str) -> Option<f64> {
        match self.get(key) {
            Some(Json::Num(v)) => Some(*v),
            _ => None,
        }
    }

    fn arr(&self, key: &str) -> Option<&[Json]> {
        match self.get(key) {
            Some(Json::Arr(items)) => Some(items),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], mut i: usize) -> usize {
    while i < b.len() && matches!(b[i], b' ' | b'\t' | b'\n' | b'\r') {
        i += 1;
    }
    i
}

/// Parses one JSON value starting at `i`, returning it and the index after it.
fn parse_value(b: &[u8], i: usize) -> (Json, usize) {
    assert!(i < b.len(), "unexpected end of JSON");
    match b[i] {
        b'{' => parse_object(b, i),
        b'[' => parse_array(b, i),
        b'"' => {
            let (s, end) = parse_string(b, i);
            (Json::Str(s), end)
        }
        b't' => (Json::Bool, parse_literal(b, i, b"true")),
        b'f' => (Json::Bool, parse_literal(b, i, b"false")),
        b'n' => (Json::Null, parse_literal(b, i, b"null")),
        b'-' | b'0'..=b'9' => parse_number(b, i),
        c => panic!("unexpected byte {:?} at offset {i}", c as char),
    }
}

fn parse_object(b: &[u8], mut i: usize) -> (Json, usize) {
    let mut fields = Vec::new();
    i = skip_ws(b, i + 1);
    if b.get(i) == Some(&b'}') {
        return (Json::Obj(fields), i + 1);
    }
    loop {
        let (key, after_key) = parse_string(b, skip_ws(b, i));
        i = skip_ws(b, after_key);
        assert_eq!(b.get(i), Some(&b':'), "expected ':' at offset {i}");
        let (value, after_value) = parse_value(b, skip_ws(b, i + 1));
        fields.push((key, value));
        i = skip_ws(b, after_value);
        match b.get(i) {
            Some(&b',') => i += 1,
            Some(&b'}') => return (Json::Obj(fields), i + 1),
            other => panic!("expected ',' or '}}' at offset {i}, got {other:?}"),
        }
    }
}

fn parse_array(b: &[u8], mut i: usize) -> (Json, usize) {
    let mut items = Vec::new();
    i = skip_ws(b, i + 1);
    if b.get(i) == Some(&b']') {
        return (Json::Arr(items), i + 1);
    }
    loop {
        let (value, after_value) = parse_value(b, skip_ws(b, i));
        items.push(value);
        i = skip_ws(b, after_value);
        match b.get(i) {
            Some(&b',') => i += 1,
            Some(&b']') => return (Json::Arr(items), i + 1),
            other => panic!("expected ',' or ']' at offset {i}, got {other:?}"),
        }
    }
}

/// Parses a string literal, decoding the escapes the obs writer emits.
fn parse_string(b: &[u8], i: usize) -> (String, usize) {
    assert_eq!(b.get(i), Some(&b'"'), "expected string at offset {i}");
    let mut out = Vec::new();
    let mut i = i + 1;
    while i < b.len() {
        match b[i] {
            b'"' => {
                let s = String::from_utf8(out).expect("utf-8 string");
                return (s, i + 1);
            }
            b'\\' => {
                assert!(i + 1 < b.len(), "dangling escape");
                match b[i + 1] {
                    b'u' => {
                        let hex = std::str::from_utf8(&b[i + 2..i + 6]).expect("ascii escape");
                        let c = u32::from_str_radix(hex, 16).expect("hex escape");
                        let c = char::from_u32(c).expect("scalar escape");
                        out.extend_from_slice(c.to_string().as_bytes());
                        i += 6;
                        continue;
                    }
                    b'n' => out.push(b'\n'),
                    b'r' => out.push(b'\r'),
                    b't' => out.push(b'\t'),
                    c @ (b'"' | b'\\' | b'/') => out.push(c),
                    c => panic!("bad escape \\{} at offset {i}", c as char),
                }
                i += 2;
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    panic!("unterminated string");
}

fn parse_literal(b: &[u8], i: usize, lit: &[u8]) -> usize {
    assert_eq!(
        b.get(i..i + lit.len()),
        Some(lit),
        "bad literal at offset {i}"
    );
    i + lit.len()
}

fn parse_number(b: &[u8], mut i: usize) -> (Json, usize) {
    let start = i;
    while i < b.len() && matches!(b[i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
        i += 1;
    }
    let s = std::str::from_utf8(&b[start..i]).expect("ascii number");
    let v = s
        .parse::<f64>()
        .unwrap_or_else(|_| panic!("bad number {s:?}"));
    (Json::Num(v), i)
}

/// Validates one report file's lines; returns the `run_report` record.
fn validate_report_lines(lines: &[String]) -> Json {
    assert!(!lines.is_empty(), "report is empty");
    let mut reports = Vec::new();
    for line in lines {
        let record = Json::parse(line);
        match record.str("type").expect("record has a type") {
            "event" | "run_report" => assert!(
                record.num("ts_ns").is_some(),
                "record missing timestamp: {line}"
            ),
            "span" => assert!(
                record.num("start_ns").is_some() && record.num("dur_ns").is_some(),
                "span record missing timing: {line}"
            ),
            other => panic!("unknown record type {other:?}"),
        }
        if record.str("type") == Some("run_report") {
            reports.push(record);
        }
    }
    assert_eq!(reports.len(), 1, "expected exactly one run_report");
    reports.pop().expect("one report")
}

/// Checks every entry of the run report's `metrics` block: it carries
/// exactly its kind's documented keys, in order (`name`, `kind`, optional
/// `labels`, then the value keys); a counter or gauge carries its `value`;
/// a histogram carries `bounds`, one more `counts` entry than bounds (the
/// `+Inf` bucket) summing to `count`, a `sum`, and finite
/// `p50`/`p95`/`p99` estimates.
fn assert_metrics_block(report: &Json) {
    let metrics = report
        .arr("metrics")
        .expect("run_report has a metrics array");
    assert!(!metrics.is_empty(), "run_report metrics block is empty");
    for m in metrics {
        let name = m.str("name").expect("metric has a name");
        let Json::Obj(fields) = m else {
            panic!("{name}: metric is not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        let value_keys: &[&str] = match m.str("kind") {
            Some("histogram") => &["bounds", "counts", "sum", "count", "p50", "p95", "p99"],
            _ => &["value"],
        };
        let mut expected = vec!["name", "kind"];
        if m.get("labels").is_some() {
            expected.push("labels");
        }
        expected.extend_from_slice(value_keys);
        assert_eq!(keys, expected, "{name}: keys");
        match m.str("kind").expect("metric has a kind") {
            "counter" | "gauge" => {
                assert!(m.get("value").is_some(), "{name}: no value");
            }
            "histogram" => {
                let bounds = m.arr("bounds").expect("histogram bounds");
                let counts = m.arr("counts").expect("histogram counts");
                assert_eq!(counts.len(), bounds.len() + 1, "{name}: bucket count");
                let total: f64 = counts
                    .iter()
                    .map(|c| match c {
                        Json::Num(c) => *c,
                        other => panic!("{name}: bucket count {other:?}"),
                    })
                    .sum();
                assert_eq!(Some(total), m.num("count"), "{name}: Σ counts != count");
                assert!(m.num("sum").is_some(), "{name}: no sum");
                for q in ["p50", "p95", "p99"] {
                    let v = m.num(q);
                    assert!(v.is_some_and(f64::is_finite), "{name}: {q} is {v:?}");
                }
            }
            other => panic!("{name}: unknown metric kind {other:?}"),
        }
    }
}

/// Every span name in a rendered span tree, depth first.
fn span_names<'a>(spans: &'a [Json], out: &mut Vec<&'a str>) {
    for span in spans {
        out.push(span.str("name").expect("span has a name"));
        span_names(span.arr("children").unwrap_or_default(), out);
    }
}

/// The pipeline stages a full Nazar round must cover (ISSUE acceptance).
const REQUIRED_STAGES: &[&str] = &[
    "detect",
    "log_ingest",
    "fim",
    "reduction",
    "counterfactual",
    "adapt",
];

#[test]
fn run_report_schema_and_stage_coverage() {
    let (lines, external) = match std::env::var("NAZAR_OBS_REPORT") {
        Ok(path) => {
            let text = std::fs::read_to_string(PathBuf::from(&path))
                .unwrap_or_else(|e| panic!("NAZAR_OBS_REPORT={path}: {e}"));
            (text.lines().map(str::to_string).collect::<Vec<_>>(), true)
        }
        Err(_) => (self_generated_report(), false),
    };

    let report = validate_report_lines(&lines);

    let mut names = Vec::new();
    span_names(
        report.arr("spans").expect("run_report has a span tree"),
        &mut names,
    );
    for stage in REQUIRED_STAGES {
        assert!(
            names.contains(stage),
            "span tree missing stage {stage:?} (have {names:?})"
        );
    }
    if external {
        // fig9d's end-to-end round also exercises the window/deploy spans.
        for extra in ["run", "window", "analysis"] {
            assert!(names.contains(&extra), "report missing {extra:?} span");
        }
    }

    assert_metrics_block(&report);
}

/// Runs a miniature pipeline with the JSONL sink and returns its lines.
fn self_generated_report() -> Vec<String> {
    let dir = std::env::temp_dir().join("nazar-obs-schema-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("report-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    nazar_obs::testing::enable_jsonl_sink(&path).expect("open the jsonl sink");

    {
        let _run = nazar_obs::span("run");
        let log = nazar_log::paper_example_log();
        {
            let _ingest = nazar_obs::span("log_ingest");
        }
        {
            let _detect = nazar_obs::span("detect");
        }
        let causes = nazar_analysis::analyze(&log, &nazar_analysis::FimConfig::default());
        assert!(!causes.is_empty());
        let _adapt = nazar_obs::span("adapt");
    }
    nazar_obs::finish_run("schema-test");
    nazar_obs::testing::disable();

    let text = std::fs::read_to_string(&path).expect("report written");
    let _ = std::fs::remove_file(&path);
    text.lines().map(str::to_string).collect()
}
