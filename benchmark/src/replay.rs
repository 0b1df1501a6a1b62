//! The staged replay: `Orchestrator::new` + `Orchestrator::run`, composed
//! again from the layers' public functions with a span around each call.
//!
//! It follows `crates/cloud/src/orchestrator.rs` statement by statement for
//! the configuration every workload uses (Nazar strategy, autopilot,
//! broadcast deploys, exchange and store present): same seeds, same RNG
//! draw order, same call order. Its `RunResult` must equal the untraced
//! run's with the two timers excluded — checked by the caller — which is
//! what licenses reading its spans as the real loop's time budget.

use crate::trace::Tracer;
use nazar_adapt::adapt_to_patch;
use nazar_analysis::{analyze_variant_with, RankedCause};
use nazar_cloud::{sanitize_uploads, CloudConfig, FleetBackend, RunResult};
use nazar_data::LocationStream;
use nazar_device::{UploadedSample, WindowStats, LOG_SCHEMA};
use nazar_log::DriftLog;
use nazar_net::Exchange;
use nazar_nn::{BnPatch, Layer, MlpResNet};
use nazar_registry::VersionMeta;
use nazar_store::DriftStore;
use nazar_tensor::{parallel, Tensor};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

/// Counts taken at the same boundaries as the spans.
#[derive(Debug, Default)]
pub struct Counters {
    pub items: u64,
    pub flagged: u64,
    pub uploads_sampled: u64,
    pub upload_frames: u64,
    pub upload_bytes: u64,
    pub deploy_bytes: u64,
    pub log_rows: u64,
    pub log_quarantined: u64,
    pub flush_chunks: u64,
    pub store_bytes_written: u64,
    pub analysis_rows: u64,
    pub analysis_causes: u64,
    pub adapt_jobs: u64,
    pub adapt_rows: u64,
}

/// The replayed run: its result, its spans and counts, and the state the
/// audit needs.
pub struct Replay {
    pub result: RunResult,
    pub tracer: Tracer,
    pub counters: Counters,
    pub wall_s: f64,
    pub drift_log: DriftLog,
    pub store: DriftStore,
}

struct Cloud<'a> {
    config: &'a CloudConfig,
    base_model: &'a MlpResNet,
    fleet: FleetBackend,
    exchange: Exchange,
    model_scalars: u64,
    ledger: (u64, u64),
    scalar_ledger: u64,
}

impl Cloud<'_> {
    /// `Orchestrator::deploy` for the broadcast, exchange-present case.
    fn deploy(
        &mut self,
        tr: &mut Tracer,
        c: &mut Counters,
        w: i64,
        meta: &VersionMeta,
        patch: &BnPatch,
    ) {
        if !patch.is_finite() {
            return;
        }
        let targets = self.fleet.device_ids();
        let down_before = self.exchange.report().wire_bytes_down;
        let delivery = tr.span("net.deploy", w, || {
            self.exchange.deploy(&targets, meta, patch)
        });
        c.deploy_bytes += self.exchange.report().wire_bytes_down - down_before;
        let delivered = delivery.delivered.len() as u64;
        tr.span("cloud.install", w, || {
            for (device, meta, patch) in delivery.delivered {
                self.fleet.install_on(&device, &meta, &patch);
            }
        });
        self.fleet.advance_clock_to(self.exchange.clock_us());
        self.ledger.0 += delivered * patch.encoded_len() as u64;
        self.ledger.1 += delivered * self.model_scalars * 4;
        self.scalar_ledger += delivered * patch.num_scalars() as u64 * 4;
    }
}

/// Replays the whole run under `tr`'s root span.
///
/// # Panics
///
/// Panics if `config` has no transport or no store: every workload has both.
pub fn replay(base_model: &MlpResNet, streams: &[LocationStream], config: &CloudConfig) -> Replay {
    let mut tr = Tracer::new();
    let mut c = Counters::default();
    let root = tr.enter("replay", -1);

    // -- Orchestrator::new -------------------------------------------------
    let new_span = tr.enter("cloud.new", -1);
    let fleet = tr.span("device.build", -1, || {
        FleetBackend::from_streams(config.scheduler, streams, base_model, &config.device)
    });
    let model_scalars = base_model.clone().num_params() as u64;
    let net = config.net.clone().expect("workloads configure a transport");
    let exchange = tr.span("net.new", -1, || Exchange::new(fleet.device_ids(), net));
    let persist = config.persist.clone().expect("workloads configure a store");
    let mut store = tr.span("store.open", -1, || {
        DriftStore::open_config(&LOG_SCHEMA, persist).expect("open the run's store")
    });
    let mut rolling_model = base_model.clone();
    let mut drift_log = DriftLog::new(&LOG_SCHEMA);
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut cloud = Cloud {
        config,
        base_model,
        fleet,
        exchange,
        model_scalars,
        ledger: (0, 0),
        scalar_ledger: 0,
    };
    tr.exit(new_span);

    // -- Orchestrator::run -------------------------------------------------
    let mut result = RunResult::default();
    for w in 0..config.windows {
        let wi = w as i64;
        let window_span = tr.enter("window", wi);

        let parts = tr.span("device.window", wi, || {
            cloud
                .fleet
                .process_window_parts(streams, w, config.windows, &mut rng)
        });
        let mut stats = WindowStats::default();
        let mut batches = Vec::with_capacity(parts.len());
        for (id, part) in parts {
            stats.merge(&part.stats);
            c.uploads_sampled += part.uploads.len() as u64;
            batches.push((id, part.entries, part.uploads));
        }
        c.items += stats.total as u64;
        c.flagged += stats.flagged as u64;

        cloud.exchange.advance_clock_to(cloud.fleet.clock_us());
        let before = *cloud.exchange.report();
        let delivery = tr.span("net.upload", wi, || cloud.exchange.upload_window(batches));
        let after = *cloud.exchange.report();
        c.upload_frames += after.frames_sent - before.frames_sent;
        c.upload_bytes += after.wire_bytes() - before.wire_bytes();
        cloud.fleet.advance_clock_to(cloud.exchange.clock_us());
        let entries = delivery.entries;

        // Orchestrator::ingest
        let report = tr.span("log.ingest", wi, || {
            drift_log.ingest_batch(entries.to_vec())
        });
        c.log_rows += report.appended as u64;
        c.log_quarantined += report.quarantined as u64;
        tr.span("store.ingest", wi, || store.ingest_batch(entries.to_vec()));
        if let Some(limit) = config.log_retention {
            tr.span("log.retain", wi, || drift_log.retain_last(limit));
            // A failed trim degrades to an event in the orchestrator too.
            let _ = tr.span("store.retain", wi, || store.retain_last_amortized(limit));
        }
        let uploads = sanitize_uploads(delivery.uploads);
        result.log_rows = drift_log.num_rows();

        let causes = nazar_window(
            &mut tr,
            &mut c,
            &mut cloud,
            &mut rolling_model,
            &mut rng,
            wi,
            &entries,
            &uploads,
        );

        if let Ok(report) = tr.span("store.flush", wi, || store.flush()) {
            c.flush_chunks += report.chunks_written as u64;
            c.store_bytes_written += report.stats.encoded_total();
            // A flush that sealed anything also rewrote the whole manifest.
            if report.chunks_written > 0 {
                c.store_bytes_written += manifest_bytes(config);
            }
        }
        result
            .causes_per_window
            .push(causes.iter().map(RankedCause::label).collect());
        result.version_counts.push(cloud.fleet.max_versions());
        result.per_window.push(stats);
        tr.exit(window_span);
    }
    result.patch_bytes_shipped = cloud.ledger.0;
    result.patch_scalar_bytes = cloud.scalar_ledger;
    result.full_model_bytes_equivalent = cloud.ledger.1;
    result.net = *cloud.exchange.report();
    tr.exit(root);

    let wall_s = tr.spans()[0].duration_ns() as f64 / 1e9;
    Replay {
        result,
        tracer: tr,
        counters: c,
        wall_s,
        drift_log,
        store,
    }
}

fn manifest_bytes(config: &CloudConfig) -> u64 {
    let dir = config.persist.as_ref().and_then(|p| p.dir.as_deref());
    dir.and_then(|d| {
        std::fs::metadata(std::path::Path::new(d).join(nazar_store::MANIFEST_KEY)).ok()
    })
    .map_or(0, |m| m.len())
}

/// `Orchestrator::nazar_window` in autopilot mode.
#[allow(clippy::too_many_arguments)]
fn nazar_window(
    tr: &mut Tracer,
    c: &mut Counters,
    cloud: &mut Cloud<'_>,
    rolling_model: &mut MlpResNet,
    rng: &mut SmallRng,
    wi: i64,
    entries: &[nazar_log::DriftLogEntry],
    uploads: &[UploadedSample],
) -> Vec<RankedCause> {
    let config = cloud.config;
    let window_log = tr.span("log.window_ingest", wi, || {
        let mut window_log = DriftLog::new(&LOG_SCHEMA);
        window_log.ingest_batch(entries.to_vec());
        window_log
    });
    c.analysis_rows += window_log.num_rows() as u64;
    let mut causes = tr.span("analysis.run", wi, || {
        analyze_variant_with(
            &window_log,
            &config.fim,
            config.analysis_variant,
            config.algorithm,
        )
    });
    causes.truncate(config.max_causes_per_window);
    c.analysis_causes += causes.len() as u64;

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
        if matching.len() < config.min_samples_per_cause {
            continue;
        }
        for &i in &matching {
            covered[i] = true;
        }
        let rows: Vec<Vec<f32>> = matching
            .iter()
            .map(|&i| uploads[i].features.clone())
            .collect();
        c.adapt_rows += rows.len() as u64;
        let data = Tensor::stack_rows(&rows).expect("uniform feature width");
        jobs.push((cause, data, rng.next_u64()));
    }
    c.adapt_jobs += jobs.len() as u64;

    // The jobs run concurrently: the group span is charged by its wall,
    // each job's own start and end are recorded beside it.
    let group = tr.enter("adapt.jobs", wi);
    let base_model = cloud.base_model;
    let method = &config.method;
    let clock: &Tracer = tr;
    let patches = parallel::par_map(jobs, |(cause, data, seed)| {
        let start_ns = clock.now_ns();
        let mut job_rng = SmallRng::seed_from_u64(seed);
        let (patch, _) = adapt_to_patch(base_model, &data, method, &mut job_rng);
        (cause, patch, start_ns, clock.now_ns())
    });
    for (_, _, start_ns, end_ns) in &patches {
        tr.add_parallel("adapt.job", wi, *start_ns, *end_ns);
    }
    tr.exit(group);
    for (cause, patch, _, _) in patches {
        let meta = VersionMeta::new(cause.attrs.clone(), cause.stats.risk_ratio);
        cloud.deploy(tr, c, wi, &meta, &patch);
        adapted.push(cause);
    }

    if config.adapt_clean {
        let clean_rows: Vec<Vec<f32>> = uploads
            .iter()
            .zip(&covered)
            .filter(|(_, &c)| !c)
            .map(|(u, _)| u.features.clone())
            .collect();
        if clean_rows.len() >= config.min_samples_per_cause {
            c.adapt_rows += clean_rows.len() as u64;
            let data = Tensor::stack_rows(&clean_rows).expect("uniform feature width");
            let (patch, _) = tr.span("adapt.clean", wi, || {
                adapt_to_patch(rolling_model, &data, &config.method, rng)
            });
            patch.apply(rolling_model).expect("same architecture");
            cloud.deploy(tr, c, wi, &VersionMeta::clean(), &patch);
        }
    }
    adapted
}
