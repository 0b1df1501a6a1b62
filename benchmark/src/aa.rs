//! `--aa`: the benchmark judging itself. Two sets of ten end-to-end runs
//! per workload on one build — each run another seed, the second set ten
//! seeds the first did not use — checked the way the benchmark's driver
//! checks them: each metric's spread (interquartile range over median)
//! within its bound, and the second set's median not worse than the
//! first's by more than the bound. Exits non-zero on any breach.

use crate::contract::{Better, END_TO_END};
use crate::stats::{median, quartiles};
use crate::workloads::WORKLOADS;
use serde::Value;
use std::process::{Command, ExitCode};

const SEEDS_PER_SET: u64 = 10;

/// Runs this executable once and returns its end-to-end metrics.
fn child_metrics(workload: &str, seed: u64, seconds: f64) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("no output")?;
    let doc: Value = serde_json::from_str(line).map_err(|e| format!("result line: {e}"))?;
    let fields = doc.as_map().ok_or("result line is not an object")?;
    match serde::value_get(fields, "failed") {
        Some(Value::Num(failed)) if *failed == 0.0 => {}
        other => return Err(format!("{workload} seed {seed}: failed = {other:?}")),
    }
    let metrics = serde::value_get(fields, "metrics")
        .and_then(Value::as_map)
        .ok_or("no metrics")?;
    metrics
        .iter()
        .map(
            |(name, entry)| match entry.as_map().and_then(|m| serde::value_get(m, "value")) {
                Some(Value::Num(v)) => Ok((name.clone(), *v)),
                _ => Err(format!("metric {name} has no value")),
            },
        )
        .collect()
}

fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

pub fn run(only: &Option<String>, seconds: f64) -> ExitCode {
    let mut breaches = 0;
    for workload in WORKLOADS {
        if only.as_deref().is_some_and(|w| w != workload) {
            continue;
        }
        let mut sets: [Vec<Vec<(String, f64)>>; 2] = [Vec::new(), Vec::new()];
        for (set, runs) in sets.iter_mut().enumerate() {
            for i in 0..SEEDS_PER_SET {
                let seed = 1 + set as u64 * SEEDS_PER_SET + i;
                match child_metrics(workload, seed, seconds) {
                    Ok(metrics) => runs.push(metrics),
                    Err(err) => {
                        eprintln!("{err}");
                        return ExitCode::from(1);
                    }
                }
                eprintln!("{workload}: set {} seed {seed} done", set + 1);
            }
        }
        println!("{workload}");
        println!(
            "  {:<24} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}",
            "metric", "median A", "median B", "B worse", "spread A", "spread B", "bound"
        );
        for (name, _, better, bound) in END_TO_END {
            let column = |set: &Vec<Vec<(String, f64)>>| -> Vec<f64> {
                set.iter()
                    .filter_map(|run| run.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
                    .collect()
            };
            let (a, b) = (column(&sets[0]), column(&sets[1]));
            let (ma, mb) = (median(&a), median(&b));
            let worse = match better {
                Better::Lower => (mb - ma) / ma.abs(),
                Better::Higher => (ma - mb) / ma.abs(),
            };
            let (sa, sb) = (spread(&a), spread(&b));
            // The set-up time's spread is reported but not judged.
            let spread_ok = name == "setup_s" || (sa <= bound && sb <= bound);
            let ok = spread_ok && worse <= bound;
            let steady = sa.max(sb) <= bound / 3.0;
            println!(
                "  {name:<24} {ma:>12.5} {mb:>12.5} {:>7.2}% {:>7.2}% {:>7.2}% {:>5.1}% {}",
                100.0 * worse,
                100.0 * sa,
                100.0 * sb,
                100.0 * bound,
                if !ok {
                    "BREACH"
                } else if steady {
                    "ok"
                } else {
                    "ok (spread above a third of the bound)"
                }
            );
            breaches += usize::from(!ok);
        }
    }
    if breaches > 0 {
        println!("{breaches} breach(es)");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
