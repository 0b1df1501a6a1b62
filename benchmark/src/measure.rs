//! The untraced end-to-end measurement: timed orchestrator runs, then the
//! audit phase (cold restarts and the out-of-core query mix), with every
//! output checked against an oracle rather than a pinned value.

use crate::workloads::{Setup, Spec};
use nazar_cloud::{Orchestrator, RunResult, Strategy};
use nazar_device::LOG_SCHEMA;
use nazar_log::{Attribute, DriftLog, MatchCounts};
use nazar_store::DriftStore;
use std::path::Path;
use std::time::{Duration, Instant};

/// Operations attempted and failed; each failure is reported on standard
/// error as it happens.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Counts one operation; records `what` when it failed.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records a failure of something that is not an operation of its own
    /// (a whole-run invariant).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        eprintln!("CHECK FAILED: {what}");
    }
}

/// One `Orchestrator::new` + `run`, timed as a user would see it.
pub struct RunOutcome {
    pub result: RunResult,
    pub new_s: f64,
    pub wall_s: f64,
    pub orch: Orchestrator,
}

pub fn run_once(
    spec: &Spec,
    setup: &Setup,
    strategy: Strategy,
    seed: u64,
    dir: &Path,
) -> RunOutcome {
    let config = spec.cloud_config(seed, dir);
    let t0 = Instant::now();
    let mut orch = Orchestrator::new(setup.model.clone(), &setup.data.streams, strategy, config);
    let new_s = t0.elapsed().as_secs_f64();
    let result = orch.run(&setup.data.streams);
    let wall_s = t0.elapsed().as_secs_f64();
    RunOutcome {
        result,
        new_s,
        wall_s,
        orch,
    }
}

/// FNV-1a over the result's debug form with the two wall-clock timers
/// zeroed: equal digests mean equal results.
pub fn result_digest(result: &RunResult) -> u64 {
    let text = format!("{:?}", without_timers(result));
    text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub fn without_timers(result: &RunResult) -> RunResult {
    RunResult {
        analysis_time: Duration::ZERO,
        adapt_time: Duration::ZERO,
        ..result.clone()
    }
}

/// Entries the devices emitted: one per processed item.
pub fn entries_emitted(result: &RunResult) -> usize {
    result.per_window.iter().map(|w| w.total).sum()
}

/// Per-window and whole-run invariants of one run; each window is an op.
pub fn check_run(checks: &mut Checks, spec: &Spec, setup: &Setup, result: &RunResult) {
    if result.per_window.len() != spec.windows {
        checks.fail(format!(
            "{} windows reported, {} configured",
            result.per_window.len(),
            spec.windows
        ));
    }
    for (w, stats) in result.per_window.iter().enumerate() {
        checks.op(
            stats.total > 0
                && stats.correct <= stats.total
                && stats.flagged <= stats.total
                && stats.drifted_total <= stats.total,
            || format!("window {w} statistics are inconsistent: {stats:?}"),
        );
    }
    let emitted = entries_emitted(result);
    if emitted != setup.items {
        checks.fail(format!(
            "windows processed {emitted} items, the streams hold {}",
            setup.items
        ));
    }
    if result.log_rows > emitted {
        checks.fail(format!(
            "{} log rows from {emitted} emitted entries",
            result.log_rows
        ));
    }
}

/// The six-query analysis mix; every field compares bitwise.
#[derive(Debug, PartialEq)]
pub struct MixResult {
    single: MatchCounts,
    pair: MatchCounts,
    masked: MatchCounts,
    distinct: Vec<(String, MatchCounts)>,
    groups: Vec<(String, MatchCounts)>,
    rows: Vec<usize>,
}

impl MixResult {
    fn no_query_is_empty(&self) -> bool {
        self.single.occurrences > 0
            && self.pair.occurrences > 0
            && self.masked.occurrences > 0
            && !self.distinct.is_empty()
            && !self.groups.is_empty()
            && !self.rows.is_empty()
    }
}

pub const MIX_QUERIES: u64 = 6;

/// Attribute values for the mix, taken from the log itself so no query
/// comes back empty: its two most frequent drifting weathers and its most
/// frequent location.
#[derive(Debug, Clone)]
pub struct MixKeys {
    single: [Attribute; 1],
    pair: [Attribute; 2],
    masked: [Attribute; 1],
    rows: [Attribute; 2],
    /// Drift flags with the `single` weather's rows cleared — the
    /// counterfactual "had this cause not drifted" mask.
    mask: Vec<bool>,
}

impl MixKeys {
    pub fn from_log(log: &DriftLog) -> MixKeys {
        let top = |key: &str, skip: &str| -> Vec<String> {
            let mut groups = log.group_counts(key).expect("schema key");
            groups.retain(|(value, counts)| value != skip && counts.occurrences > 0);
            groups.sort_by(|a, b| b.1.occurrences.cmp(&a.1.occurrences).then(a.0.cmp(&b.0)));
            groups.into_iter().map(|(value, _)| value).collect()
        };
        let weathers = top("weather", "clear-day");
        let weather_a = weathers.first().cloned().expect("a drifting weather");
        let weather_b = weathers
            .get(1)
            .cloned()
            .unwrap_or_else(|| weather_a.clone());
        let weather = |w: &String| Attribute::new("weather", w);
        // The location must co-occur with both weathers, or the pair and
        // row queries would be empty.
        let location = top("location", "")
            .into_iter()
            .find(|loc| {
                [&weather_a, &weather_b].iter().all(|w| {
                    log.count_matching(&[weather(w), Attribute::new("location", loc)], None)
                        .is_ok_and(|c| c.occurrences > 0)
                })
            })
            .expect("a location seeing both weathers");
        let location = Attribute::new("location", location);
        let single = [weather(&weather_a)];
        let mut mask = log.drift_mask();
        for row in log.rows_matching(&single).expect("schema key") {
            mask[row] = false;
        }
        MixKeys {
            single,
            pair: [weather(&weather_b), location.clone()],
            masked: [weather(&weather_b)],
            rows: [weather(&weather_a), location],
            mask,
        }
    }

    pub fn in_memory(&self, log: &DriftLog) -> MixResult {
        MixResult {
            single: log.count_matching(&self.single, None).expect("single"),
            pair: log.count_matching(&self.pair, None).expect("pair"),
            masked: log
                .count_matching(&self.masked, Some(&self.mask))
                .expect("masked"),
            distinct: log.distinct_values("device_id").expect("distinct"),
            groups: log.group_counts("weather").expect("groups"),
            rows: log.rows_matching(&self.rows).expect("rows"),
        }
    }

    pub fn out_of_core(&self, store: &DriftStore) -> nazar_store::Result<MixResult> {
        Ok(MixResult {
            single: store.count_matching(&self.single, None)?,
            pair: store.count_matching(&self.pair, None)?,
            masked: store.count_matching(&self.masked, Some(&self.mask))?,
            distinct: store.distinct_values("device_id")?,
            groups: store.group_counts("weather")?,
            rows: store.rows_matching(&self.rows)?,
        })
    }
}

/// The in-memory log holding exactly the rows the store retained: the
/// preloaded history (if any), then the run's rows, trimmed to the
/// store's row count (its retention is amortised, so it may hold more
/// than the configured bound).
pub fn audit_oracle(setup: &Setup, run_log: &DriftLog, store_rows: usize) -> DriftLog {
    let Some(history) = &setup.history else {
        return run_log.clone();
    };
    let mut oracle = history.log.clone();
    let rows = (0..run_log.num_rows())
        .map(|r| run_log.entry(r).expect("row exists"))
        .collect();
    oracle.ingest_batch(rows);
    oracle.retain_last(store_rows);
    oracle
}

/// What every audit of a run's directory must find: the oracle's row
/// count and its answer to the query mix.
#[derive(Debug)]
pub struct Expected {
    rows: usize,
    keys: MixKeys,
    reference: MixResult,
}

impl Expected {
    /// Answers the mix on the in-memory oracle; `None` when a query comes
    /// back empty there (the mix would then prove nothing).
    pub fn from_oracle(oracle: &DriftLog) -> Option<Expected> {
        let keys = MixKeys::from_log(oracle);
        let reference = keys.in_memory(oracle);
        reference.no_query_is_empty().then_some(Expected {
            rows: oracle.num_rows(),
            keys,
            reference,
        })
    }
}

/// Restarts per audited run, at most (a small store restarts in a millisecond).
const MAX_RESTARTS_PER_RUN: usize = 40;

/// Audits the directory a run just wrote, as a crashed cloud would meet
/// it: a cold `DriftStore::open_config`, then the six-query mix on the
/// freshly opened store (empty decode cache, so every chunk the mix
/// touches is read, checksummed and decoded). One sample, in ms, is the
/// reopen plus that first mix — restart to first answers. Repeats until
/// `budget` is spent (at least `min_restarts`). Every reopen must be
/// clean and hold the oracle's rows; every mix must equal the oracle's
/// bitwise. Reads are served from the OS page cache: this process wrote
/// the files a moment ago.
pub fn audit_run(
    checks: &mut Checks,
    spec: &Spec,
    dir: &Path,
    expected: &Expected,
    min_restarts: usize,
    budget: Duration,
    restart_ms: &mut Vec<f64>,
) {
    let started = Instant::now();
    let mut restarts = 0;
    while restarts < min_restarts || (started.elapsed() < budget && restarts < MAX_RESTARTS_PER_RUN)
    {
        restarts += 1;
        let t0 = Instant::now();
        let opened = DriftStore::open_config(&LOG_SCHEMA, spec.store_config(dir));
        let mix = opened
            .as_ref()
            .ok()
            .map(|store| expected.keys.out_of_core(store));
        restart_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        match &opened {
            Ok(store) => checks.op(
                store.recovery().is_clean() && store.num_rows() == expected.rows,
                || {
                    format!(
                        "reopen not clean: {:?}, {} rows against {} in the oracle",
                        store.recovery(),
                        store.num_rows(),
                        expected.rows
                    )
                },
            ),
            Err(err) => checks.op(false, || format!("reopen failed: {err}")),
        }
        let ok = matches!(&mix, Some(Ok(mix)) if *mix == expected.reference);
        for _ in 0..MIX_QUERIES {
            checks.op(ok, || "out-of-core mix differs from the oracle".to_string());
        }
    }
}

/// Bytes of the regular files directly under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
