//! Smoke test: every workload in `--quick` mode, end to end and traced,
//! must report every contracted metric — present, finite, unit-tagged,
//! named within the contract's charset — with no failed operation; and
//! `BENCHMARK.json` at the repository root must be what the metric tables
//! render.

use serde::{value_get, Value};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_nazar-benchmark");

fn contract() -> Value {
    let out = Command::new(BIN)
        .arg("--print-contract")
        .output()
        .expect("run --print-contract");
    assert!(out.status.success());
    serde_json::from_slice(&out.stdout).expect("the contract is JSON")
}

fn field<'v>(v: &'v Value, key: &str) -> &'v Value {
    value_get(v.as_map().expect("object"), key).unwrap_or_else(|| panic!("no `{key}`"))
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn name_conforms(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Runs one quick invocation and checks its result line against the
/// metric list `section` of the contract.
fn check(workload: &str, trace: &str, section: &str) {
    let started = std::time::Instant::now();
    let out = Command::new(BIN)
        .args([
            "--quick",
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
        ])
        .args(["--trace", trace])
        .output()
        .expect("run the benchmark");
    assert!(
        out.status.success(),
        "{workload} --trace {trace}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        started.elapsed().as_secs() < 60,
        "{workload} quick run took too long"
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let line: Value = serde_json::from_str(stdout.lines().last().expect("a result line"))
        .expect("the result line is JSON");
    let keys: Vec<&str> = line
        .as_map()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(field(&line, "correct"), &Value::Bool(true), "{workload}");
    assert_eq!(field(&line, "failed"), &Value::Num(0.0), "{workload}");
    assert!(matches!(field(&line, "attempted"), Value::Num(n) if *n >= 1.0));

    let contract = contract();
    let expected = field(&contract, section).as_seq().expect("metric list");
    let metrics = field(&line, "metrics").as_map().expect("metrics object");
    assert_eq!(metrics.len(), expected.len(), "{workload} --trace {trace}");
    for metric in expected {
        let name = text(field(metric, "name"));
        assert!(name_conforms(name), "{name}");
        let got = value_get(metrics, name).unwrap_or_else(|| panic!("{workload}: no {name}"));
        assert_eq!(field(got, "unit"), field(metric, "unit"), "{name}");
        match field(got, "value") {
            Value::Num(v) => assert!(v.is_finite(), "{workload}: {name} = {v}"),
            other => panic!("{workload}: {name} = {other:?}"),
        }
    }
}

#[test]
fn vision_loop_quick() {
    check("vision_loop", "0", "end_to_end");
    check("vision_loop", "1", "per_layer");
}

#[test]
fn fleet_wide_quick() {
    check("fleet_wide", "0", "end_to_end");
    check("fleet_wide", "1", "per_layer");
}

#[test]
fn fleet_lossy_quick() {
    check("fleet_lossy", "0", "end_to_end");
    check("fleet_lossy", "1", "per_layer");
}

#[test]
fn long_history_quick() {
    check("long_history", "0", "end_to_end");
    check("long_history", "1", "per_layer");
}

#[test]
fn committed_contract_matches_the_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let committed: Value = serde_json::from_str(&committed).expect("BENCHMARK.json is JSON");
    assert_eq!(committed, contract(), "regenerate with --print-contract");
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let out = Command::new(BIN)
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("run the benchmark");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
