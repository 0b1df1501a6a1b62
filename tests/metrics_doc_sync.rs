//! Metric and environment-knob ↔ documentation sync lint.
//!
//! The README's "Metrics reference" table and the metric names the runtime
//! actually registers must agree **bidirectionally**:
//!
//! * every `nazar_*` metric name declared in non-test library code appears
//!   in the README table, and
//! * every name the README documents still exists in the code.
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

use std::collections::BTreeSet;
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

/// Collects `"nazar_..."` string literals from every non-test line of the
/// workspace's library sources.
fn metric_names_in_code() -> BTreeSet<String> {
    let mut names = BTreeSet::new();
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
        for line in body.lines() {
            if line.trim_start().starts_with("//") {
                continue;
            }
            collect_quoted_names(line, "nazar_", &mut names);
        }
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
