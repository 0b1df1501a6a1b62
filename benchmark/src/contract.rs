//! The benchmark's contract: its workloads, every metric's name, unit and
//! direction, and the regression bound of each end-to-end metric. The
//! program reports exactly these names; `BENCHMARK.json` at the repository
//! root is rendered from this table (`--write-contract`) and the smoke
//! test fails when the two disagree.

use crate::workloads::{spec, WORKLOADS};
use serde::Value;

/// Seconds one run measures for (`run_seconds`).
pub const RUN_SECONDS: u64 = 15;

pub const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// `(name, unit, better, bound)`: what a user of the system sees. The
/// bound is the share of the parent's median by which the metric may get
/// worse. Wall-clock metrics carry the widest bound the contract allows:
/// on the two-core sandbox ten runs of one build spread by 5..16 % even
/// after host-speed scaling (README.md has the measured spreads); the
/// byte counts and ratios are functions of the seed alone and are bounded
/// by their spread across seeds.
pub const END_TO_END: [(&str, &str, Better, f64); 11] = [
    ("setup_s", "s", Lower, 0.25),
    ("run_s", "s", Lower, 0.25),
    ("items_per_s", "1/s", Higher, 0.25),
    ("cloud_cycle_ms", "ms", Lower, 0.25),
    ("restart_to_query_ms", "ms", Lower, 0.25),
    ("peak_rss_mb", "MB", Lower, 0.10),
    ("store_bytes_per_row", "B", Lower, 0.03),
    ("upload_bytes_per_item", "B", Lower, 0.05),
    ("delivered_ratio", "ratio", Higher, 0.001),
    ("accuracy_last7", "ratio", Higher, 0.25),
    ("drifted_accuracy_gain", "ratio", Higher, 0.25),
];

/// `(name, unit, better)`: single-layer rows from the traced replay and
/// the micro-measurements beside it. The prefix names the layer's crate.
pub const PER_LAYER: [(&str, &str, Better); 67] = [
    // nazar-device
    ("device.busy_s", "s", Lower),
    ("device.items", "count", Higher),
    ("device.item_us", "us", Lower),
    ("device.flagged_ratio", "ratio", Lower),
    ("device.upload_ratio", "ratio", Lower),
    ("device.forward_share", "ratio", Lower),
    // nazar-nn
    ("nn.forward_b1_us", "us", Lower),
    ("nn.forward_b160_us_per_item", "us", Lower),
    ("nn.train_s", "s", Lower),
    // nazar-detect, nazar-registry
    ("detect.step_ns", "ns", Lower),
    ("registry.select_ns", "ns", Lower),
    ("registry.max_versions", "count", Lower),
    // nazar-tensor
    ("tensor.matmul_us", "us", Lower),
    ("tensor.matmul_gflops", "GFLOP/s", Higher),
    // nazar-adapt
    ("adapt.busy_s", "s", Lower),
    ("adapt.cause_busy_s", "s", Lower),
    ("adapt.clean_busy_s", "s", Lower),
    ("adapt.jobs", "count", Higher),
    ("adapt.job_ms_p50", "ms", Lower),
    ("adapt.rows", "count", Higher),
    ("adapt.rows_per_s", "1/s", Higher),
    // nazar-analysis
    ("analysis.busy_s", "s", Lower),
    ("analysis.rows", "count", Higher),
    ("analysis.rows_per_s", "1/s", Higher),
    ("analysis.causes", "count", Higher),
    // nazar-net
    ("net.upload_busy_s", "s", Lower),
    ("net.upload_frames", "count", Lower),
    ("net.upload_bytes", "B", Lower),
    ("net.deploy_busy_s", "s", Lower),
    ("net.deploy_bytes", "B", Lower),
    ("net.encode_us_per_frame", "us", Lower),
    ("net.retries", "count", Lower),
    ("net.frames_lost", "count", Lower),
    ("net.entries_dropped", "count", Lower),
    ("net.delivered_ratio", "ratio", Higher),
    // nazar-log
    ("log.ingest_busy_s", "s", Lower),
    ("log.rows", "count", Higher),
    ("log.ingest_rows_per_s", "1/s", Higher),
    ("log.quarantined", "count", Lower),
    ("log.mix_ms", "ms", Lower),
    // nazar-store
    ("store.ingest_busy_s", "s", Lower),
    ("store.flush_busy_s", "s", Lower),
    ("store.flush_chunks", "count", Lower),
    ("store.retain_busy_s", "s", Lower),
    ("store.bytes_written", "B", Lower),
    ("store.write_amp", "ratio", Lower),
    ("store.bytes_per_row", "B", Lower),
    ("store.chunks", "count", Lower),
    ("store.reopen_ms", "ms", Lower),
    ("store.cold_mix_ms", "ms", Lower),
    ("store.warm_mix_ms", "ms", Lower),
    ("store.warm_mix_p90_ms", "ms", Lower),
    ("store.read_mb_s", "MB/s", Higher),
    ("store.mix_vs_memory", "ratio", Lower),
    // nazar-cloud, nazar-obs, nazar-data
    ("cloud.new_ms", "ms", Lower),
    ("cloud.install_busy_s", "s", Lower),
    ("cloud.glue_s", "s", Lower),
    ("cloud.replay_s", "s", Lower),
    ("cloud.replay_vs_run", "ratio", Lower),
    ("cloud.wire_bytes_per_item", "B", Lower),
    ("cloud.accuracy_last7", "ratio", Higher),
    ("cloud.drifted_accuracy_last7", "ratio", Higher),
    ("obs.trace_overhead_pct", "%", Lower),
    ("data.generate_s", "s", Lower),
    ("data.items", "count", Higher),
    ("data.devices", "count", Higher),
    ("data.history_rows", "count", Higher),
];

fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

fn object(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let workloads = WORKLOADS
        .iter()
        .map(|name| {
            let spec = spec(name, false).expect("listed workload");
            object(vec![("name", text(name)), ("why", text(spec.why))])
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|&(name, unit, better, bound)| {
            object(vec![
                ("name", text(name)),
                ("unit", text(unit)),
                ("better", text(better.as_str())),
                ("bound", Value::Num(bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|&(name, unit, better)| {
            object(vec![
                ("name", text(name)),
                ("unit", text(unit)),
                ("better", text(better.as_str())),
            ])
        })
        .collect();
    let doc = object(vec![
        (
            "command",
            Value::Seq(COMMAND.iter().map(|s| text(s)).collect()),
        ),
        ("paths", Value::Seq(vec![text("benchmark")])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        ("workloads", Value::Seq(workloads)),
        ("end_to_end", Value::Seq(end_to_end)),
        ("per_layer", Value::Seq(per_layer)),
    ]);
    let Value::Map(entries) = doc else {
        unreachable!("object() builds a map")
    };
    // One top-level key per line group; the small objects inside the
    // lists stay on one line each.
    let body: Vec<String> = entries
        .iter()
        .map(|(key, value)| match value {
            Value::Seq(items) if items.iter().any(|i| matches!(i, Value::Map(_))) => {
                let rows: Vec<String> =
                    items.iter().map(|i| format!("    {}", inline(i))).collect();
                format!("  \"{key}\": [\n{}\n  ]", rows.join(",\n"))
            }
            other => format!("  \"{key}\": {}", inline(other)),
        })
        .collect();
    format!("{{\n{}\n}}\n", body.join(",\n"))
}

/// JSON on one line, with a space after each `:` and `,`.
fn inline(v: &Value) -> String {
    match v {
        Value::Map(entries) => {
            let fields: Vec<String> = entries
                .iter()
                .map(|(k, v)| format!("{}: {}", inline(&Value::Str(k.clone())), inline(v)))
                .collect();
            format!("{{{}}}", fields.join(", "))
        }
        Value::Seq(items) => {
            let items: Vec<String> = items.iter().map(inline).collect();
            format!("[{}]", items.join(", "))
        }
        scalar => serde_json::to_string(scalar).expect("a scalar serialises"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conforms(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_follow_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.0, m.1))
            .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
            .chain(WORKLOADS.iter().map(|w| (*w, "s")));
        for (name, unit) in names {
            assert!(conforms(name), "name {name}");
            assert!(seen.insert(name), "duplicate name {name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit {unit}"
            );
        }
        assert!(END_TO_END.iter().all(|m| m.3 > 0.0 && m.3 <= 0.25));
        assert!(END_TO_END.contains(&("setup_s", "s", Lower, 0.25)));
        assert!((1..=16).contains(&END_TO_END.len()) && PER_LAYER.len() <= 128);
        for w in WORKLOADS {
            assert!(spec(w, false).expect("spec").why.len() <= 200);
        }
    }

    #[test]
    fn rendered_contract_parses_back() {
        let doc: Value = serde_json::from_str(&benchmark_json()).expect("valid JSON");
        let keys: Vec<&str> = doc
            .as_map()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
