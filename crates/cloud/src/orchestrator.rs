//! The windowed monitor → analyze → adapt → deploy loop.

use crate::backend::{FleetBackend, SchedulerMode};
use nazar_adapt::{adapt_to_patch, AdaptMethod};
use nazar_analysis::{analyze_variant_with, AnalysisVariant, FimAlgorithm, FimConfig, RankedCause};
use nazar_device::{DeviceConfig, UploadedSample, WindowStats, LOG_SCHEMA};
use nazar_log::{DriftLog, DriftLogEntry};
use nazar_net::{Exchange, NetConfig, NetReport};
use nazar_nn::MlpResNet;
use nazar_nn::{BnPatch, Layer};
use nazar_obs::{event, LazyCounter, LazyHistogram};
use nazar_registry::VersionMeta;
use nazar_store::{DriftStore, StoreConfig};
use nazar_tensor::{parallel, Tensor};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Which system variant drives the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Strategy {
    /// Full Nazar: root-cause analysis plus by-cause adaptation.
    Nazar,
    /// The adapt-all baseline: one model continuously adapted on every
    /// sampled input (what Ekya and prior self-supervised methods do).
    AdaptAll,
    /// The non-adapted pretrained model.
    NoAdapt,
}

impl Strategy {
    /// Human-readable name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Nazar => "nazar",
            Strategy::AdaptAll => "adapt-all",
            Strategy::NoAdapt => "no-adapt",
        }
    }
}

/// How much the ML-ops team is in the loop (§3.1 "Modes of operation").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum OperationMode {
    /// Monitoring, analysis and adaptation all run automatically.
    #[default]
    Autopilot,
    /// Analysis raises [`DriftAlert`]s; adaptation waits for the ML-ops
    /// team to approve each cause ([`Orchestrator::approve_alert`]).
    Manual,
}

/// Referencing a pending alert that does not exist (wrong index, or it was
/// already approved/dismissed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlertIndexError {
    /// The index that was requested.
    pub index: usize,
    /// How many alerts were actually pending.
    pub pending: usize,
}

impl std::fmt::Display for AlertIndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "alert index {} out of range ({} pending)",
            self.index, self.pending
        )
    }
}

impl std::error::Error for AlertIndexError {}

/// An alert raised for the ML-ops team in [`OperationMode::Manual`]:
/// a discovered root cause with the evidence behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftAlert {
    /// The window in which the cause was discovered.
    pub window: usize,
    /// The discovered cause and its metrics.
    pub cause: RankedCause,
    /// Number of sampled inputs available for adaptation.
    pub sample_count: usize,
    /// The retained samples (consumed on approval).
    samples: Vec<Vec<f32>>,
}

impl DriftAlert {
    /// A one-line human-readable description.
    pub fn summary(&self) -> String {
        format!(
            "window {}: {} (risk ratio {:.2}, confidence {:.2}, {} samples)",
            self.window + 1,
            self.cause.label(),
            self.cause.stats.risk_ratio,
            self.cause.stats.confidence,
            self.sample_count
        )
    }
}

/// Cloud-side configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CloudConfig {
    /// Number of equal time windows (the paper defaults to 8, ablates 4).
    pub windows: usize,
    /// FIM thresholds for the root-cause analysis.
    pub fim: FimConfig,
    /// Self-supervised adaptation objective.
    pub method: AdaptMethod,
    /// Which prefix of the analysis pipeline to run (Table 5 / Fig. 8c
    /// ablations use [`AnalysisVariant::FimOnly`]).
    pub analysis_variant: AnalysisVariant,
    /// Minimum sampled inputs a cause needs before adaptation is attempted.
    pub min_samples_per_cause: usize,
    /// Upper bound on causes adapted per window (keeps FIM-only ablations
    /// from exploding).
    pub max_causes_per_window: usize,
    /// Whether to maintain a continuously-adapted "clean" fallback model.
    pub adapt_clean: bool,
    /// On-device configuration.
    pub device: DeviceConfig,
    /// Seed for the cloud's RNG (sampling, adaptation augmentation).
    pub seed: u64,
    /// Autopilot (default) or manual approval of adaptations.
    #[serde(default)]
    pub mode: OperationMode,
    /// Ship location/device-scoped versions only to the devices that can
    /// match them, instead of broadcasting to the whole fleet.
    #[serde(default)]
    pub targeted_deployment: bool,
    /// Which FIM algorithm powers the analysis (apriori by default).
    #[serde(default)]
    pub algorithm: FimAlgorithm,
    /// Device↔cloud transport. `Some` routes every upload and deployment
    /// through the `nazar-net` wire protocol and link simulator (the
    /// default, over a perfect link); `None` keeps the legacy direct
    /// in-process path.
    #[serde(default)]
    pub net: Option<NetConfig>,
    /// Retention bound on the global drift log: after each window's ingest,
    /// keep only the most recent `n` rows (`None` keeps everything — the
    /// paper-faithful default for the short benchmark streams; a production
    /// fleet sets this to bound storage). Enforced with
    /// [`DriftLog::retain_last`], which drops whole head index segments.
    #[serde(default)]
    pub log_retention: Option<usize>,
    /// Which fleet engine runs the devices: the columnar virtual-time
    /// fleet (default) or the legacy lockstep window sweep. The two are
    /// bitwise equivalent (golden-trace pinned); lockstep survives as the
    /// differential oracle.
    #[serde(default)]
    pub scheduler: SchedulerMode,
    /// Durable drift-log persistence. `Some` mirrors every ingested entry
    /// into a [`DriftStore`] (re-opened at startup, so history survives
    /// orchestrator restarts) and flushes sealed chunks at each window
    /// boundary. `None` (the default) keeps the log purely in-memory.
    /// Store failures are observability events, never fatal to the run.
    #[serde(default)]
    pub persist: Option<StoreConfig>,
}

impl Default for CloudConfig {
    fn default() -> Self {
        CloudConfig {
            windows: 8,
            fim: FimConfig::default(),
            method: AdaptMethod::default(),
            analysis_variant: AnalysisVariant::Full,
            min_samples_per_cause: 24,
            max_causes_per_window: 16,
            adapt_clean: true,
            device: DeviceConfig::default(),
            seed: 7,
            mode: OperationMode::default(),
            targeted_deployment: false,
            algorithm: FimAlgorithm::default(),
            net: Some(NetConfig::default()),
            log_retention: None,
            scheduler: SchedulerMode::default(),
            persist: None,
        }
    }
}

/// The outcome of an end-to-end run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Per-window accuracy/detection statistics.
    pub per_window: Vec<WindowStats>,
    /// Maximum number of model versions on any device, after each window.
    pub version_counts: Vec<usize>,
    /// Labels of the causes adapted in each window.
    pub causes_per_window: Vec<Vec<String>>,
    /// Total wall-clock time spent in root-cause analysis.
    pub analysis_time: Duration,
    /// Total wall-clock time spent in model adaptation.
    pub adapt_time: Duration,
    /// Total drift-log rows ingested.
    pub log_rows: usize,
    /// Bytes shipped to devices as BN patches, at the encoded wire size
    /// ([`BnPatch::encoded_len`]: scalars plus per-layer framing).
    pub patch_bytes_shipped: u64,
    /// The same deployments accounted at raw scalar width (4 bytes per
    /// scalar, no framing) — the paper's own accounting, kept for
    /// comparability.
    #[serde(default)]
    pub patch_scalar_bytes: u64,
    /// Bytes the same deployments would have cost as full model pushes —
    /// the §3.4 efficiency argument ("the BN layer is 217× smaller").
    pub full_model_bytes_equivalent: u64,
    /// Wire-level transport statistics (all zeros on the legacy direct
    /// path, which never touches the simulated network).
    #[serde(default)]
    pub net: NetReport,
}

impl RunResult {
    /// Mean accuracy over the last `k` windows (the paper reports the last 7).
    pub fn mean_accuracy_last(&self, k: usize) -> f32 {
        mean(
            self.per_window
                .iter()
                .rev()
                .take(k)
                .map(WindowStats::accuracy),
        )
    }

    /// Mean drifted-data accuracy over the last `k` windows.
    pub fn mean_drifted_accuracy_last(&self, k: usize) -> f32 {
        mean(
            self.per_window
                .iter()
                .rev()
                .take(k)
                .map(WindowStats::drifted_accuracy),
        )
    }

    /// Network savings factor of BN-patch deployment over full-model pushes.
    pub fn transfer_savings(&self) -> f64 {
        if self.patch_bytes_shipped == 0 {
            return 1.0;
        }
        self.full_model_bytes_equivalent as f64 / self.patch_bytes_shipped as f64
    }

    /// A one-paragraph human-readable summary of the transfer ledger,
    /// reporting both accountings: encoded wire size (what the transport
    /// actually ships) and raw scalar width (the paper's 4-bytes-per-scalar
    /// figure).
    pub fn summary(&self) -> String {
        format!(
            "shipped {} patch bytes encoded ({} as raw scalars) vs {} full-model bytes \
             ({:.1}x savings); {} log rows; {} wire bytes on the simulated network",
            self.patch_bytes_shipped,
            self.patch_scalar_bytes,
            self.full_model_bytes_equivalent,
            self.transfer_savings(),
            self.log_rows,
            self.net.wire_bytes(),
        )
    }

    /// Cumulative (all data, drifted data) accuracy after each window —
    /// the traces of Fig. 8d.
    pub fn cumulative_accuracy(&self) -> Vec<(f32, f32)> {
        let mut acc = WindowStats::default();
        self.per_window
            .iter()
            .map(|w| {
                acc.merge(w);
                (acc.accuracy(), acc.drifted_accuracy())
            })
            .collect()
    }
}

static ADAPT_JOB_SECONDS: LazyHistogram = LazyHistogram::new(
    "nazar_cloud_adapt_job_seconds",
    "Wall-clock duration of one per-cause adaptation job",
    &[],
    nazar_obs::duration_buckets,
);

static QUARANTINED_UPLOADS: LazyCounter = LazyCounter::new(
    "nazar_cloud_quarantined_uploads_total",
    "Uploaded samples dropped for carrying non-finite features",
    &[],
);

static QUARANTINED_ENTRIES: LazyCounter = LazyCounter::new(
    "nazar_cloud_quarantined_entries_total",
    "Drift-log entries dropped at ingest for violating the schema",
    &[],
);

static REJECTED_PATCHES: LazyCounter = LazyCounter::new(
    "nazar_cloud_rejected_patches_total",
    "Adapted patches refused deployment for non-finite BN state",
    &[],
);

fn mean(values: impl Iterator<Item = f32>) -> f32 {
    let v: Vec<f32> = values.collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f32>() / v.len() as f32
    }
}

/// The cloud orchestrator: owns the fleet, the drift log, and the adaptation
/// state for one strategy.
#[derive(Debug)]
pub struct Orchestrator {
    strategy: Strategy,
    config: CloudConfig,
    base_model: MlpResNet,
    /// The continuously-adapted model used by the adapt-all baseline and the
    /// optional clean fallback of Nazar.
    rolling_model: MlpResNet,
    fleet: FleetBackend,
    /// Cumulative drift log (all windows), as the paper's Aurora table.
    drift_log: DriftLog,
    rng: SmallRng,
    /// Alerts awaiting ML-ops approval (manual mode only).
    pending_alerts: Vec<DriftAlert>,
    /// Scalar weights in the full model (for the transfer ledger).
    model_scalars: u64,
    /// Running transfer ledger (encoded patch bytes, full-model-equivalent
    /// bytes).
    ledger: (u64, u64),
    /// The same deployments accounted at raw scalar width (no framing).
    scalar_ledger: u64,
    /// The simulated device↔cloud network (`None` = legacy direct path).
    exchange: Option<Exchange>,
    /// Durable mirror of the drift log (`None` = in-memory only).
    store: Option<DriftStore>,
}

impl Orchestrator {
    /// Creates an orchestrator over a fleet built from `streams`.
    pub fn new(
        base_model: MlpResNet,
        streams: &[nazar_data::LocationStream],
        strategy: Strategy,
        config: CloudConfig,
    ) -> Self {
        let fleet =
            FleetBackend::from_streams(config.scheduler, streams, &base_model, &config.device);
        let mut sizer = base_model.clone();
        let model_scalars = sizer.num_params() as u64;
        let exchange = config
            .net
            .clone()
            .map(|net| Exchange::new(fleet.device_ids(), net));
        let store = config.persist.clone().and_then(open_store);
        Orchestrator {
            strategy,
            rolling_model: base_model.clone(),
            base_model,
            fleet,
            drift_log: DriftLog::new(&LOG_SCHEMA),
            rng: SmallRng::seed_from_u64(config.seed),
            config,
            pending_alerts: Vec::new(),
            model_scalars,
            ledger: (0, 0),
            scalar_ledger: 0,
            exchange,
            store,
        }
    }

    /// Alerts awaiting approval (manual mode).
    pub fn pending_alerts(&self) -> &[DriftAlert] {
        &self.pending_alerts
    }

    /// Approves pending alert `index`: adapts to its cause on the retained
    /// samples and deploys the patch. Returns the adapted cause.
    ///
    /// # Errors
    ///
    /// Returns [`AlertIndexError`] (and changes nothing) if `index` does not
    /// name a pending alert — an ML-ops console racing a concurrent
    /// approval must not crash the orchestrator.
    pub fn approve_alert(&mut self, index: usize) -> Result<RankedCause, AlertIndexError> {
        if index >= self.pending_alerts.len() {
            return Err(AlertIndexError {
                index,
                pending: self.pending_alerts.len(),
            });
        }
        let alert = self.pending_alerts.remove(index);
        // Retained samples with inconsistent widths cannot be stacked; the
        // approval then resolves the alert without deploying anything
        // (DESIGN.md §9) rather than crashing the console.
        let Some(data) = Tensor::stack_rows(&alert.samples).ok() else {
            event!("alert_samples_unusable", cause = alert.cause.label());
            return Ok(alert.cause);
        };
        let (patch, _) =
            adapt_to_patch(&self.base_model, &data, &self.config.method, &mut self.rng);
        let meta = VersionMeta::new(alert.cause.attrs.clone(), alert.cause.stats.risk_ratio);
        self.deploy(&meta, &patch);
        Ok(alert.cause)
    }

    /// Dismisses pending alert `index` without adapting.
    ///
    /// # Errors
    ///
    /// Returns [`AlertIndexError`] if `index` does not name a pending alert.
    pub fn dismiss_alert(&mut self, index: usize) -> Result<(), AlertIndexError> {
        if index >= self.pending_alerts.len() {
            return Err(AlertIndexError {
                index,
                pending: self.pending_alerts.len(),
            });
        }
        self.pending_alerts.remove(index);
        Ok(())
    }

    /// Deploys a patch (targeted or broadcast) and charges the ledger.
    ///
    /// With a transport configured, the patch crosses the simulated network
    /// as a chunked, resumable download and only the devices whose transfer
    /// completed install it — each installing the copy it decoded off the
    /// wire. The ledger charges the devices that actually received it.
    fn deploy(&mut self, meta: &VersionMeta, patch: &BnPatch) {
        let _span = nazar_obs::span("deploy");
        // Last line of defense (DESIGN.md §9): a patch with NaN/Inf BN state
        // would poison every prediction on every receiving device, so it is
        // refused here no matter which path produced it.
        if !patch.is_finite() {
            REJECTED_PATCHES.inc();
            event!(
                "patch_rejected",
                cause = meta
                    .attrs
                    .iter()
                    .map(|a| a.to_string())
                    .collect::<Vec<_>>()
                    .join(","),
            );
            return;
        }
        let devices = match self.exchange.as_mut() {
            Some(exchange) => {
                let targets = if self.config.targeted_deployment {
                    self.fleet.target_ids(meta)
                } else {
                    self.fleet.device_ids()
                };
                let delivery = exchange.deploy(&targets, meta, patch);
                let delivered = delivery.delivered.len() as u64;
                {
                    let _install_span = nazar_obs::span("install");
                    for (device, meta, patch) in delivery.delivered {
                        self.fleet.install_on(&device, &meta, &patch);
                    }
                }
                self.fleet.advance_clock_to(exchange.clock_us());
                delivered
            }
            None => {
                if self.config.targeted_deployment {
                    self.fleet.deploy_targeted(meta, patch) as u64
                } else {
                    self.fleet.deploy(meta, patch);
                    self.fleet.len() as u64
                }
            }
        };
        self.ledger.0 += devices * patch.encoded_len() as u64;
        self.ledger.1 += devices * self.model_scalars * 4;
        self.scalar_ledger += devices * patch.num_scalars() as u64 * 4;
        event!(
            "deploy",
            cause = meta
                .attrs
                .iter()
                .map(|a| a.to_string())
                .collect::<Vec<_>>()
                .join(","),
            devices = devices,
            patch_bytes = patch.encoded_len(),
        );
    }

    /// The cumulative drift log (for inspection and scaling measurements).
    pub fn drift_log(&self) -> &DriftLog {
        &self.drift_log
    }

    /// The durable drift-log store, when [`CloudConfig::persist`] is set
    /// and the store opened successfully.
    pub fn drift_store(&self) -> Option<&DriftStore> {
        self.store.as_ref()
    }

    /// Runs all windows of the workload and returns the collected results.
    pub fn run(&mut self, streams: &[nazar_data::LocationStream]) -> RunResult {
        // The run's whole configuration, in its own header: the caller's
        // `CloudConfig` plus the two process-wide execution switches.
        event!(
            "run_start",
            strategy = self.strategy.name(),
            windows = self.config.windows,
            devices = self.fleet.len(),
            config = format!("{:?}", self.config),
            threads = nazar_tensor::parallel::num_threads(),
            simd = nazar_tensor::simd::env_tier().as_str(),
        );
        let mut result = RunResult::default();
        for w in 0..self.config.windows {
            let _window_span = nazar_obs::span_detail("window", || format!("w={w}"));
            // Replay the window on-device; with a transport configured, the
            // entries and uploads the cloud sees are only what survived the
            // link (stats stay ground truth — they are measured on-device).
            let (stats, entries, uploads) = if let Some(exchange) = &mut self.exchange {
                let parts =
                    self.fleet
                        .process_window_parts(streams, w, self.config.windows, &mut self.rng);
                let mut stats = WindowStats::default();
                let mut batches = Vec::with_capacity(parts.len());
                for (id, part) in parts {
                    stats.merge(&part.stats);
                    batches.push((id, part.entries, part.uploads));
                }
                let _net_span = nazar_obs::span_detail("net_upload", || format!("w={w}"));
                // Fleet and transport share one virtual timeline: the
                // window's events have moved the fleet clock past the
                // window boundary, so the uploads' link events start there,
                // and the fleet resumes no earlier than the last delivery.
                exchange.advance_clock_to(self.fleet.clock_us());
                let delivery = exchange.upload_window(batches);
                self.fleet.advance_clock_to(exchange.clock_us());
                (stats, delivery.entries, delivery.uploads)
            } else {
                let output =
                    self.fleet
                        .process_window(streams, w, self.config.windows, &mut self.rng);
                (output.stats, output.entries, output.uploads)
            };
            self.ingest(&entries);
            let uploads = sanitize_uploads(uploads);
            result.log_rows = self.drift_log.num_rows();

            let causes = match self.strategy {
                Strategy::NoAdapt => Vec::new(),
                Strategy::AdaptAll => {
                    let t0 = Instant::now();
                    self.adapt_all(&uploads);
                    result.adapt_time += t0.elapsed();
                    Vec::new()
                }
                Strategy::Nazar => {
                    let (causes, analysis_d, adapt_d) = self.nazar_window(w, &entries, &uploads);
                    result.analysis_time += analysis_d;
                    result.adapt_time += adapt_d;
                    causes
                }
            };

            // Make the window's rows durable before declaring it complete:
            // a crash after this point replays no ingested entry. Flush
            // failures degrade to an event — the analysis loop must outlive
            // a full disk.
            if let Some(store) = self.store.as_mut() {
                let _flush_span = nazar_obs::span_detail("store_flush", || format!("w={w}"));
                match store.flush() {
                    Ok(report) => {
                        if report.chunks_written > 0 {
                            event!(
                                "store_flush",
                                window = w,
                                chunks = report.chunks_written,
                                rows_sealed = report.rows_sealed,
                            );
                        }
                    }
                    Err(err) => event!("store_flush_failed", error = err.to_string()),
                }
            }
            event!(
                "window_complete",
                window = w,
                accuracy = stats.accuracy(),
                flagged = stats.flagged,
                causes = causes.len(),
            );
            if nazar_obs::enabled() {
                // Second snapshot per window, after the cloud side (ingest,
                // analysis, adaptation, deploy) has run — captures the
                // metrics the window_close snapshot can't see. Stamped with
                // the fleet clock; the lockstep engine has no clock (always
                // 0), so fall back to the window's day boundary.
                let (_, end_day) = nazar_data::SimDate::window_range(w, self.config.windows);
                let t_us = self
                    .fleet
                    .clock_us()
                    .max(u64::from(end_day) * nazar_device::DAY_US);
                nazar_obs::telemetry::snapshot(t_us, "window_complete");
            }
            result
                .causes_per_window
                .push(causes.iter().map(RankedCause::label).collect());
            result.version_counts.push(self.fleet.max_versions());
            result.per_window.push(stats);
        }
        result.patch_bytes_shipped = self.ledger.0;
        result.patch_scalar_bytes = self.scalar_ledger;
        result.full_model_bytes_equivalent = self.ledger.1;
        if let Some(exchange) = &self.exchange {
            result.net = *exchange.report();
        }
        result
    }

    fn ingest(&mut self, entries: &[DriftLogEntry]) {
        let _span = nazar_obs::span_detail("log_ingest", || format!("rows={}", entries.len()));
        // Batch ingest: entries are encoded against the dictionaries in
        // parallel, then appended in arrival order. Malformed entries
        // (schema drift, a corrupted upload that decoded to the wrong
        // shape) are quarantined, not fatal: one bad device must not take
        // down the fleet's analysis pipeline.
        let report = self
            .drift_log
            .ingest_batch_with_threads(entries, parallel::num_threads());
        if report.quarantined > 0 {
            QUARANTINED_ENTRIES.add(report.quarantined as u64);
            event!("entries_quarantined", count = report.quarantined);
        }
        if let Some(store) = self.store.as_mut() {
            // The durable mirror applies the same quarantine (same schema,
            // same ingest path), so it stays row-for-row identical to the
            // in-memory log for the rows ingested this process lifetime.
            store.ingest_batch(entries);
        }
        if let Some(limit) = self.config.log_retention {
            self.drift_log.retain_last(limit);
            if let Some(store) = self.store.as_mut() {
                // Out-of-core retention re-slices the boundary chunk and
                // rewrites the full manifest — too heavy for every ingest
                // batch, so the durable mirror is allowed to overshoot by
                // up to one chunk of rows between trims.
                if let Err(err) = store.retain_last_amortized(limit) {
                    event!("store_retention_failed", error = err.to_string());
                }
            }
        }
    }

    /// The adapt-all baseline: continuously adapt one model on all uploads
    /// and deploy it as the universal (empty-attribute) version.
    fn adapt_all(&mut self, uploads: &[UploadedSample]) {
        let _span = nazar_obs::span_detail("adapt", || "adapt_all".to_string());
        let Some(data) = stack_features(uploads) else {
            return;
        };
        if data.nrows().unwrap_or(0) < self.config.min_samples_per_cause {
            return;
        }
        let (patch, _) = adapt_to_patch(
            &self.rolling_model,
            &data,
            &self.config.method,
            &mut self.rng,
        );
        patch
            .apply(&mut self.rolling_model)
            .expect("patch from same architecture");
        self.deploy(&VersionMeta::clean(), &patch);
    }

    /// One Nazar analysis + by-cause adaptation round.
    fn nazar_window(
        &mut self,
        window: usize,
        entries: &[DriftLogEntry],
        uploads: &[UploadedSample],
    ) -> (Vec<RankedCause>, Duration, Duration) {
        // Root-cause analysis over this window's entries (the Lambda run).
        let t0 = Instant::now();
        let window_log = window_log(entries);
        let mut causes = analyze_variant_with(
            &window_log,
            &self.config.fim,
            self.config.analysis_variant,
            self.config.algorithm,
        );
        causes.truncate(self.config.max_causes_per_window);
        let analysis_time = t0.elapsed();

        // By-cause adaptation on the sampled inputs matching each cause.
        // Gating, covered-marking, alert-raising and seed-drawing run
        // sequentially in cause order; the adaptation jobs themselves are
        // independent (each starts from the immutable base model with its
        // own pre-drawn RNG), so they fan out across scoped threads and
        // deploy back in cause order.
        let t1 = Instant::now();
        let adapt_span = nazar_obs::span("adapt");
        let adapt_parent = adapt_span.id();
        let mut adapted = Vec::new();
        let mut covered = vec![false; uploads.len()];
        let mut jobs: Vec<(RankedCause, Tensor, u64)> = Vec::new();
        for cause in causes {
            let matching: Vec<usize> = uploads
                .iter()
                .enumerate()
                .filter(|(_, u)| cause.attrs.iter().all(|a| u.attrs.contains(a)))
                .map(|(i, _)| i)
                .collect();
            if matching.len() < self.config.min_samples_per_cause {
                continue;
            }
            for &i in &matching {
                covered[i] = true;
            }
            let rows: Vec<Vec<f32>> = matching
                .iter()
                .map(|&i| uploads[i].features.clone())
                .collect();
            if self.config.mode == OperationMode::Manual {
                // Raise an alert and wait for the ML-ops team instead of
                // adapting automatically (§3.1).
                event!(
                    "alert",
                    window = window,
                    cause = cause.label(),
                    samples = rows.len(),
                );
                self.pending_alerts.push(DriftAlert {
                    window,
                    sample_count: rows.len(),
                    samples: rows,
                    cause,
                });
                continue;
            }
            let data = Tensor::stack_rows(&rows).expect("uniform feature width");
            jobs.push((cause, data, self.rng.next_u64()));
        }
        let base_model = &self.base_model;
        let method = &self.config.method;
        let patches = parallel::par_map(jobs, |(cause, data, seed)| {
            let mut job_span = nazar_obs::span_child("adapt_job", adapt_parent);
            job_span.set_detail(cause.label());
            let job_start = Instant::now();
            let mut job_rng = SmallRng::seed_from_u64(seed);
            let (patch, _) = adapt_to_patch(base_model, &data, method, &mut job_rng);
            ADAPT_JOB_SECONDS.observe_since(job_start);
            (cause, patch)
        });
        for (cause, patch) in patches {
            let meta = VersionMeta::new(cause.attrs.clone(), cause.stats.risk_ratio);
            self.deploy(&meta, &patch);
            adapted.push(cause);
        }

        // The continuously-adapted clean fallback: inputs not covered by any
        // adapted cause (§3.3: Nazar "filters a set of images that are
        // 'clean' when they are not associated with previously discovered
        // root causes").
        if self.config.adapt_clean {
            let _clean_span = nazar_obs::span_child("adapt_clean", adapt_parent);
            let clean_rows: Vec<Vec<f32>> = uploads
                .iter()
                .zip(&covered)
                .filter(|(_, &c)| !c)
                .map(|(u, _)| u.features.clone())
                .collect();
            if clean_rows.len() >= self.config.min_samples_per_cause {
                let data = Tensor::stack_rows(&clean_rows).expect("uniform feature width");
                let (patch, _) = adapt_to_patch(
                    &self.rolling_model,
                    &data,
                    &self.config.method,
                    &mut self.rng,
                );
                patch
                    .apply(&mut self.rolling_model)
                    .expect("same architecture");
                self.deploy(&VersionMeta::clean(), &patch);
            }
        }
        let adapt_time = t1.elapsed();
        (adapted, analysis_time, adapt_time)
    }
}

/// Opens the durable drift store, degrading to `None` (with an event) on
/// failure: persistence must never keep the fleet from running. A store
/// that opened by dropping torn chunks reports what recovery salvaged.
fn open_store(config: StoreConfig) -> Option<DriftStore> {
    match DriftStore::open_config(&LOG_SCHEMA, config) {
        Ok(store) => {
            if !store.recovery().is_clean() {
                event!(
                    "store_recovered",
                    rows = store.num_rows(),
                    dropped_chunks = store.recovery().dropped_chunks,
                    swept_orphans = store.recovery().swept_orphans,
                );
            } else if store.num_rows() > 0 {
                event!("store_reopened", rows = store.num_rows());
            }
            Some(store)
        }
        Err(err) => {
            event!("store_open_failed", error = err.to_string());
            None
        }
    }
}

/// Drops uploaded samples that carry any non-finite feature, counting the
/// quarantined ones in `nazar_cloud_quarantined_uploads_total`.
///
/// Non-finite uploads reach the cloud from sensor faults or corrupted
/// transfers; adapting on them would bake NaN into BN patches shipped
/// fleet-wide, so they are quarantined at the door (DESIGN.md §9).
pub fn sanitize_uploads(uploads: Vec<UploadedSample>) -> Vec<UploadedSample> {
    let before = uploads.len();
    let kept: Vec<UploadedSample> = uploads
        .into_iter()
        .filter(|u| u.features.iter().all(|v| v.is_finite()))
        .collect();
    let dropped = (before - kept.len()) as u64;
    if dropped > 0 {
        QUARANTINED_UPLOADS.add(dropped);
        event!("uploads_quarantined", count = dropped);
    }
    kept
}

/// Stacks upload features into a matrix; `None` when empty.
fn stack_features(uploads: &[UploadedSample]) -> Option<Tensor> {
    if uploads.is_empty() {
        return None;
    }
    let rows: Vec<Vec<f32>> = uploads.iter().map(|u| u.features.clone()).collect();
    Tensor::stack_rows(&rows).ok()
}

/// The log one window's analysis runs over: exactly this window's rows.
fn window_log(entries: &[DriftLogEntry]) -> DriftLog {
    let mut log = DriftLog::new(&LOG_SCHEMA);
    log.ingest_batch_with_threads(entries, parallel::num_threads());
    log
}

#[cfg(test)]
mod tests {
    use super::*;
    use nazar_data::SimDate;

    fn upload(features: Vec<f32>) -> UploadedSample {
        UploadedSample {
            features,
            attrs: Vec::new(),
            date: SimDate::new(5),
            label: 0,
            true_cause: None,
        }
    }

    #[test]
    fn sanitize_uploads_quarantines_non_finite_samples() {
        // Regression (tentpole): a single NaN upload previously flowed into
        // adaptation and poisoned the deployed patch.
        let uploads = vec![
            upload(vec![1.0, 2.0]),
            upload(vec![f32::NAN, 0.0]),
            upload(vec![0.5, f32::NEG_INFINITY]),
            upload(vec![3.0, 4.0]),
        ];
        let kept = sanitize_uploads(uploads);
        assert_eq!(kept.len(), 2);
        assert!(kept
            .iter()
            .all(|u| u.features.iter().all(|v| v.is_finite())));
        assert!(sanitize_uploads(Vec::new()).is_empty());
    }

    #[test]
    fn ingest_quarantines_schema_violations() {
        // Regression (tentpole): a malformed drift-log entry panicked the
        // whole orchestrator; it must be dropped while good rows land.
        use nazar_nn::ModelArch;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let model = MlpResNet::new(ModelArch::tiny(4, 3), &mut SmallRng::seed_from_u64(0));
        let mut orch = Orchestrator::new(model, &[], Strategy::NoAdapt, CloudConfig::default());

        let good = DriftLogEntry::new(
            0,
            &LOG_SCHEMA.iter().map(|&k| (k, "v")).collect::<Vec<_>>(),
            false,
        );
        let bad = DriftLogEntry::new(0, &[("no-such-column", "x")], false);
        orch.ingest(&[good, bad]);
        assert_eq!(orch.drift_log().num_rows(), 1);
    }

    #[test]
    fn persisted_log_mirrors_ingest_and_survives_restart() {
        use nazar_nn::ModelArch;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let dir = std::env::temp_dir().join(format!("nazar-cloud-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = CloudConfig {
            windows: 1,
            persist: Some(StoreConfig::at(dir.to_string_lossy().into_owned())),
            ..CloudConfig::default()
        };
        let model = MlpResNet::new(ModelArch::tiny(4, 3), &mut SmallRng::seed_from_u64(0));
        let mut orch = Orchestrator::new(model.clone(), &[], Strategy::NoAdapt, config.clone());

        let good = DriftLogEntry::new(
            7,
            &LOG_SCHEMA.iter().map(|&k| (k, "v")).collect::<Vec<_>>(),
            true,
        );
        let bad = DriftLogEntry::new(0, &[("no-such-column", "x")], false);
        orch.ingest(&[good, bad]);
        // The durable mirror quarantined the same entry the in-memory log did.
        let store = orch.drift_store().expect("store open");
        assert_eq!(store.num_rows(), orch.drift_log().num_rows());
        // An (empty) run flushes at the window boundary, sealing the row.
        orch.run(&[]);
        assert_eq!(orch.drift_store().expect("store").durable_rows(), 1);
        drop(orch);

        // A restarted orchestrator re-opens the same history.
        let orch2 = Orchestrator::new(model, &[], Strategy::NoAdapt, config);
        let store = orch2.drift_store().expect("store reopen");
        assert!(store.recovery().is_clean());
        assert_eq!(store.num_rows(), 1);
        assert_eq!(store.entry(0).expect("entry").timestamp, 7);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn borrowed_ingest_equals_three_cloned_ingests() {
        // The cumulative log, the durable mirror and the window log all
        // read one borrowed slice; each must end up where handing it its
        // own clone of the batch (and where pushing row by row) left it,
        // including what a quarantined row interned before it failed.
        use nazar_nn::ModelArch;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let dir = std::env::temp_dir().join(format!("nazar-cloud-borrow-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = CloudConfig {
            persist: Some(StoreConfig::at(dir.to_string_lossy().into_owned())),
            ..CloudConfig::default()
        };
        let model = MlpResNet::new(ModelArch::tiny(4, 3), &mut SmallRng::seed_from_u64(0));
        let mut orch = Orchestrator::new(model, &[], Strategy::NoAdapt, config);

        let row = |ts: u64, weather: &str, device: &str| {
            DriftLogEntry::new(
                ts,
                &[
                    ("weather", weather),
                    ("location", "quebec"),
                    ("device_id", device),
                ],
                ts.is_multiple_of(2),
            )
        };
        let entries = vec![
            row(1, "snow", "d0"),
            row(2, "snow", "d0"),
            // Interns "hail" into the weather column, then fails.
            DriftLogEntry::new(
                3,
                &[("weather", "hail"), ("location", "x"), ("altitude", "y")],
                true,
            ),
            DriftLogEntry::new(4, &[("weather", "fog")], false),
            row(5, "rain", "d1"),
            row(6, "snow", "d1"),
        ];
        orch.ingest(&entries);
        orch.ingest(&entries[..2]);

        let mut cloned = DriftLog::new(&LOG_SCHEMA);
        let mut pushed = DriftLog::new(&LOG_SCHEMA);
        for (batch, quarantined) in [(&entries[..], 2), (&entries[..2], 0)] {
            let report = cloned.ingest_batch(batch.to_vec());
            assert_eq!(report.quarantined, quarantined);
            for e in batch {
                let _ = pushed.push(e.clone());
            }
        }
        assert_eq!(cloned, pushed);
        assert_eq!(orch.drift_log(), &cloned);
        assert_eq!(orch.drift_log().num_rows(), 6);
        assert!(orch
            .drift_log()
            .dict_values(0)
            .contains(&"hail".to_string()));

        let store = orch.drift_store().expect("store open");
        assert_eq!(store.num_rows(), cloned.num_rows());
        for r in 0..cloned.num_rows() {
            assert_eq!(store.entry(r).expect("row"), cloned.entry(r).expect("row"));
        }

        let mut window = DriftLog::new(&LOG_SCHEMA);
        window.ingest_batch(entries.clone());
        assert_eq!(window_log(&entries), window);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
