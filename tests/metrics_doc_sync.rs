//! Metric and environment-knob ↔ documentation sync lint.
//!
//! The README's "Metrics reference" table and the metric names the runtime
//! actually registers must agree **bidirectionally**:
//!
//! * every `nazar_*` metric name declared in non-test library code appears
//!   in the README table,
//! * every name the README documents still exists in the code, and
//! * each row's Kind and label keys are those of every `Counter`, `Gauge`
//!   or `Histogram` static that declares the name — the table is the
//!   only description a metric has.
//!
//! Scanned source is cut at the first `#[cfg(test)]` line per file and
//! `//` comment lines are skipped, so test-only probe metrics
//! (`nazar_test_*`, which are additionally excluded by prefix) and doc
//! examples never leak into the contract.
//!
//! The same holds for the README's "Environment" table and the quoted
//! `"NAZAR_*"` literals anywhere under `crates/`, `tests/`, `examples/` and
//! `src/` (tests included: two knobs are test-only), of which there are at
//! most [`MAX_KNOBS`]. The files under `crates/*/src` that read the
//! environment at all are exactly [`ENV_READERS`] — configuration is a
//! value the caller passes, so a new `env::var` is a change to that list,
//! made on purpose.
//!
//! Last, every `[dependencies]` edge of a `crates/*/Cargo.toml` is named
//! by some file under that crate's `src/` or `benches/`: a crate links
//! only what it uses.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Metric names allowed in code without a README row: doc examples.
const CODE_EXCEPTIONS: &[&str] = &["nazar_example_requests_total"];

/// Every file under `crates/*/src` allowed to contain `env::var`: the two
/// execution switches, the obs sinks, the bench artifact paths, and the
/// three bins that read a scale.
const ENV_READERS: &[&str] = &[
    "crates/bench/src/bin/fig9d.rs",
    "crates/bench/src/bin/fleet_million.rs",
    "crates/bench/src/bin/store_scale.rs",
    "crates/bench/src/report.rs",
    "crates/obs/src/lib.rs",
    "crates/tensor/src/parallel.rs",
    "crates/tensor/src/simd.rs",
];

/// The most `NAZAR_*` variables the workspace may read.
const MAX_KNOBS: usize = 12;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `repo_root()/top`, as `(repo-relative path, text)`.
fn rust_sources(top: &str) -> Vec<(String, String)> {
    let mut found = Vec::new();
    let mut stack = vec![repo_root().join(top)];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("read source dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path.strip_prefix(repo_root()).expect("under the repo root");
                let text = std::fs::read_to_string(&path).expect("read source file");
                found.push((rel.to_string_lossy().replace('\\', "/"), text));
            }
        }
    }
    found
}

/// The workspace's library sources, one string per file, cut at the
/// first `#[cfg(test)]` and without `//` comment lines.
fn library_code() -> Vec<String> {
    let mut found = Vec::new();
    for (path, text) in rust_sources("crates") {
        // Unit tests live in `#[cfg(test)]` modules inside src;
        // integration tests live in per-crate `tests/` dirs.
        if !path.split('/').any(|c| c == "src") || path.split('/').any(|c| c == "tests") {
            continue;
        }
        let body = text
            .split("#[cfg(test)]")
            .next()
            .expect("split returns at least one part");
        let code: Vec<&str> = body
            .lines()
            .filter(|line| !line.trim_start().starts_with("//"))
            .collect();
        found.push(code.join("\n"));
    }
    found
}

/// Collects `"nazar_..."` string literals from the library code.
fn metric_names_in_code() -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for code in library_code() {
        collect_quoted_names(&code, "nazar_", &mut names);
    }
    names.retain(|n| !n.starts_with("nazar_test_"));
    for e in CODE_EXCEPTIONS {
        names.remove(*e);
    }
    names
}

/// Pushes every `"<prefix><name>"` string literal in `line` into `out`,
/// where `<name>` is one or more of `[A-Za-z0-9_]`.
fn collect_quoted_names(line: &str, prefix: &str, out: &mut BTreeSet<String>) {
    let opener = format!("\"{prefix}");
    let mut rest = line;
    while let Some(start) = rest.find(&opener) {
        let tail = &rest[start + 1..];
        let end = tail
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(tail.len());
        // Only a closing quote makes it a complete string literal.
        if end > prefix.len() && tail[end..].starts_with('"') {
            out.insert(tail[..end].to_string());
        }
        rest = &tail[end..];
    }
}

/// The first backtick-quoted `<prefix>*` token of each README table row.
fn readme_table_names(prefix: &str) -> BTreeSet<String> {
    let text = std::fs::read_to_string(repo_root().join("README.md")).expect("read README");
    let row_start = format!("| `{prefix}");
    let mut names = BTreeSet::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix(&row_start) else {
            continue;
        };
        let Some(end) = rest.find('`') else {
            continue;
        };
        names.insert(format!("{prefix}{}", &rest[..end]));
    }
    names
}

#[test]
fn every_registered_metric_is_documented() {
    let code = metric_names_in_code();
    let docs = readme_table_names("nazar_");
    assert!(
        !code.is_empty() && !docs.is_empty(),
        "scanners must find metrics on both sides"
    );
    let undocumented: Vec<&String> = code.difference(&docs).collect();
    assert!(
        undocumented.is_empty(),
        "metrics registered in code but missing from the README table \
         (add a row to 'Metrics reference'): {undocumented:?}"
    );
}

#[test]
fn every_documented_metric_still_exists() {
    let code = metric_names_in_code();
    let docs = readme_table_names("nazar_");
    let stale: Vec<&String> = docs.difference(&code).collect();
    assert!(
        stale.is_empty(),
        "metrics documented in the README table but no longer registered \
         in code (drop the row or restore the metric): {stale:?}"
    );
}

/// Every metric static in non-test library code, as `(name, kind, label
/// keys)`: the `Counter`/`Gauge`/`Histogram` constructor call, its quoted
/// name and the keys of its `&[("key", value), ..]` label slice.
fn metric_declarations() -> Vec<(String, String, Vec<String>)> {
    let mut found = Vec::new();
    for body in library_code() {
        for kind in ["Counter", "Gauge", "Histogram"] {
            for (at, _) in body.match_indices(&format!("{kind}::new")) {
                let call = &body[at..];
                let Some(open) = call.find('(') else { continue };
                let args = call[open + 1..].trim_start();
                let Some(rest) = args.strip_prefix("\"nazar_") else {
                    continue;
                };
                let name_end = rest.find('"').expect("closed name literal");
                let name = format!("nazar_{}", &rest[..name_end]);
                let labels = rest[name_end..]
                    .split_once("&[")
                    .and_then(|(_, tail)| tail.split_once(']'))
                    .expect("a label slice follows the name")
                    .0;
                // `("key", value)` pairs: the key is the first literal.
                let keys = labels
                    .split('(')
                    .filter_map(|pair| pair.split('"').nth(1))
                    .map(str::to_string)
                    .collect::<BTreeSet<_>>();
                found.push((name, kind.to_lowercase(), keys.into_iter().collect()));
            }
        }
    }
    found
}

/// Each README "Metrics reference" row as `name → (kind, label keys)`.
fn readme_metric_rows() -> BTreeMap<String, (String, Vec<String>)> {
    let text = std::fs::read_to_string(repo_root().join("README.md")).expect("read README");
    let mut rows = BTreeMap::new();
    for line in text.lines().filter(|l| l.starts_with("| `nazar_")) {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        let name = cells[1].trim_matches('`').to_string();
        let keys = cells[3]
            .split('`')
            .skip(1)
            .step_by(2)
            .map(str::to_string)
            .collect();
        rows.insert(name, (cells[2].to_string(), keys));
    }
    rows
}

#[test]
fn readme_kinds_and_label_keys_match_the_declarations() {
    let rows = readme_metric_rows();
    let declared = metric_declarations();
    let names: BTreeSet<String> = declared.iter().map(|(n, _, _)| n.clone()).collect();
    assert_eq!(
        names,
        metric_names_in_code(),
        "the declaration scanner must see every metric name in the code"
    );
    let mut drift = Vec::new();
    for (name, kind, keys) in &declared {
        let documented = rows.get(name).map(|(k, l)| (k.as_str(), l));
        if documented != Some((kind.as_str(), keys)) {
            drift.push(format!(
                "{name}: code {kind} {keys:?}, README {documented:?}"
            ));
        }
    }
    assert!(
        drift.is_empty(),
        "README 'Metrics reference' rows whose Kind or label keys differ \
         from the declaring statics: {drift:?}"
    );
}

#[test]
fn environment_knobs_and_the_readme_table_agree() {
    let mut code = BTreeSet::new();
    for top in ["crates", "tests", "examples", "src"] {
        for (_, text) in rust_sources(top) {
            for line in text.lines() {
                collect_quoted_names(line, "NAZAR_", &mut code);
            }
        }
    }
    let docs = readme_table_names("NAZAR_");
    assert!(
        !code.is_empty() && !docs.is_empty(),
        "scanners must find knobs on both sides"
    );
    assert_eq!(
        code, docs,
        "left: quoted NAZAR_* literals in the sources; right: rows of the \
         README's Environment table"
    );
    assert!(
        code.len() <= MAX_KNOBS,
        "{} NAZAR_* variables are read, the bar is {MAX_KNOBS}: {code:?}",
        code.len()
    );
}

#[test]
fn environment_reads_stay_on_the_allow_list() {
    let mut readers: Vec<String> = rust_sources("crates")
        .into_iter()
        .filter(|(path, text)| path.split('/').nth(2) == Some("src") && text.contains("env::var"))
        .map(|(path, _)| path)
        .collect();
    readers.sort();
    assert_eq!(
        readers, ENV_READERS,
        "files under crates/*/src that call env::var (left) against the \
         allow-list (right): configuration is a value the caller passes"
    );
}

/// The `[dependencies]` entries of a manifest (dev- and build-dependencies
/// excluded).
fn dependency_names(manifest: &str) -> Vec<String> {
    let mut section = "";
    manifest
        .lines()
        .map(str::trim)
        .filter_map(|line| {
            if line.starts_with('[') {
                section = line;
                return None;
            }
            let (name, _) = line.split_once('=')?;
            (section == "[dependencies]").then(|| name.trim().to_string())
        })
        .collect()
}

/// Whether `ident` appears in `text` as a whole identifier (a doc link
/// counts: rustdoc resolves it through the edge).
fn names_identifier(text: &str, ident: &str) -> bool {
    let is_ident = |c: Option<char>| c.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
    text.match_indices(ident).any(|(at, _)| {
        !is_ident(text[..at].chars().next_back())
            && !is_ident(text[at + ident.len()..].chars().next())
    })
}

#[test]
fn dependency_edges_are_used() {
    let mut checked = 0;
    let mut dead = Vec::new();
    for entry in std::fs::read_dir(repo_root().join("crates")).expect("read crates/") {
        let name = entry
            .expect("dir entry")
            .file_name()
            .to_string_lossy()
            .into_owned();
        let crate_dir = format!("crates/{name}");
        let Ok(manifest) = std::fs::read_to_string(repo_root().join(&crate_dir).join("Cargo.toml"))
        else {
            continue;
        };
        let sources: Vec<String> = ["src", "benches"]
            .iter()
            .map(|sub| format!("{crate_dir}/{sub}"))
            .filter(|dir| repo_root().join(dir).is_dir())
            .flat_map(|dir| rust_sources(&dir))
            .map(|(_, text)| text)
            .collect();
        for dependency in dependency_names(&manifest) {
            checked += 1;
            let ident = dependency.replace('-', "_");
            if !sources.iter().any(|text| names_identifier(text, &ident)) {
                dead.push(format!("{crate_dir} -> {dependency}"));
            }
        }
    }
    assert!(checked > 0, "the scanner must find dependency edges");
    dead.sort();
    assert!(
        dead.is_empty(),
        "[dependencies] edges no file under the crate's src/ or benches/ \
         names (drop them from the manifest): {dead:?}"
    );
}
