//! The columnar virtual-time fleet.
//!
//! The paper's evaluation loop steps every device once per window, one
//! item at a time; a device object per device (a model clone and a version
//! pool each) caps a single-process fleet at tens of thousands of devices.
//! [`FleetSim`] runs the *same* algorithm over columns:
//!
//! * device state lives in struct-of-arrays columns
//!   ([`crate::state::FleetState`], [`crate::state::DevicePools`]) and
//!   model payloads are interned once in a
//!   [`nazar_registry::VersionArena`], so a million devices fit in memory
//!   (see [`crate::state`] for the bytes per device);
//! * a window is **one pass**: its items are grouped per device in stream
//!   order, the participating devices are cut into contiguous chunks that
//!   fan out over [`nazar_tensor::parallel`] with one scratch model per
//!   chunk, and a chunk groups *all* of its window's items by the model
//!   version each device selected and runs **one** stacked forward per
//!   group (a row's logits do not depend on its batch-mates, see
//!   [`nazar_nn::MlpResNet::infer_into`]) before walking every device's
//!   items in order through the detector and emission; per-device outcomes
//!   are merged back in ascending device order, which keeps results
//!   independent of thread count and scheduling;
//! * the fleet keeps a clock on the `nazar-net` virtual-microsecond
//!   timeline so the orchestrator can hand the exchange one shared time:
//!   a window's items land at their stream day, [`ITEM_SPACING_US`] apart
//!   per device and never before the clock the window started from, and
//!   the window closes — and snapshots its telemetry — at its last day's
//!   boundary or after the last arrival, whichever is later.
//!
//! Nothing inside a window depends on the order in which *different*
//! devices run, so no event queue is needed to decide it; the only
//! event-driven part of the system is the `nazar-net` exchange.
//!
//! `tests/scheduler_determinism.rs` pins [`FleetSim`] bit for bit — parts,
//! clock and stored versions — against `tests/oracle/mod.rs`, a per-item
//! lockstep fleet built only from public APIs that shares no code with
//! this one, and pins output and clock determinism across thread counts.

use crate::device::{emit_outputs, forward_rows, DeviceConfig};
use crate::fleet::{record_stats, tally, WindowOutput};
use crate::state::{DevicePools, FleetState};
use crate::{item_matches, LOG_SCHEMA};
use nazar_data::{LocationStream, SimDate, StreamItem};
use nazar_detect::StreamDetector;
use nazar_log::RowBatch;
use nazar_nn::{BnPatch, MlpResNet};
use nazar_obs::{Gauge, Histogram};
use nazar_registry::{VersionArena, VersionMeta};
use nazar_tensor::{parallel, Workspace};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One virtual day in virtual microseconds (the `nazar-net` clock unit).
pub const DAY_US: u64 = 86_400_000_000;

/// Virtual microseconds between consecutive arrivals on one device.
const ITEM_SPACING_US: u64 = 2;

/// Most feature rows one stacked forward carries. Caps a chunk's
/// activation scratch (three `[rows, hidden]` buffers) however many
/// arrivals a window brings — at a million devices as at forty — while
/// leaving the per-call overhead a 256th of a batch-1 pass's.
pub const FORWARD_ROWS_CAP: usize = 256;

static FLEET_DEVICES: Gauge = Gauge::new("nazar_fleet_devices", &[]);
static BATCH_SECONDS: Histogram = Histogram::new(
    "nazar_fleet_batch_seconds",
    &[],
    nazar_obs::DURATION_BUCKETS,
);
static PEAK_RSS: Gauge = Gauge::new_volatile("nazar_fleet_peak_rss_bytes", &[]);

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`); `None` where the proc filesystem is unavailable.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// Samples peak RSS into the (volatile) `nazar_fleet_peak_rss_bytes` gauge.
fn record_peak_rss() {
    if !nazar_obs::enabled() {
        return;
    }
    if let Some(bytes) = peak_rss_bytes() {
        PEAK_RSS.set(bytes as f64);
    }
}

/// A window item tagged with the index of the device it arrives on.
type Arrival<'a> = (u32, &'a StreamItem);

/// A worker chunk's scratch model and buffers, kept from window to window
/// so that a pass finds them already sized.
#[derive(Debug)]
struct Scratch {
    /// A base-model clone; every version group patches it before its
    /// forwards (arena ids may be reused across deployments, so nothing
    /// about the last pass's patch is remembered).
    model: MlpResNet,
    /// Activation and packing buffers of the chunk's forwards.
    ws: Workspace,
    /// Stacked feature rows of the forward in flight, `[rows, input_dim]`.
    rows: Vec<f32>,
    /// Per chunk item: the arena id of the selected version, `None` for
    /// the base model.
    selected: Vec<Option<u32>>,
    /// Chunk item indices grouped by selected arena version.
    order: Vec<usize>,
    /// Per chunk item: `(prediction, MSP)` of its forward pass.
    passes: Vec<(usize, f32)>,
}

impl Scratch {
    fn new(base_model: &MlpResNet) -> Self {
        Scratch {
            model: base_model.clone(),
            ws: Workspace::new(),
            rows: Vec::new(),
            selected: Vec::new(),
            order: Vec::new(),
            passes: Vec::new(),
        }
    }
}

/// A device's share of one window: its items in stream order, its own RNG
/// and its sequence number, borrowed in place.
struct DeviceJob<'a> {
    device: u32,
    items: &'a [Arrival<'a>],
    rng: SmallRng,
    /// The device's drift-log entry sequence number.
    seq: &'a mut u64,
}

/// A contiguous run of device jobs plus the worker scratch it uses.
struct Chunk<'w, 'a> {
    jobs: &'w mut [DeviceJob<'a>],
    /// The jobs' items, concatenated in job order.
    items: &'a [Arrival<'a>],
    scratch: &'w mut Scratch,
}

/// Shared read-only context of one window's pass.
struct WindowCtx<'a> {
    arena: &'a VersionArena<BnPatch>,
    pools: &'a DevicePools,
    base_patch: &'a BnPatch,
    config: &'a DeviceConfig,
    /// The fleet's detector; it keeps no state, so each chunk runs a copy.
    detector: StreamDetector,
    /// The window's span, parent of the chunks' spans on worker threads.
    span: Option<u64>,
}

/// The columnar fleet, scaling to 1M+ devices (see the module docs).
#[derive(Debug)]
pub struct FleetSim {
    state: FleetState,
    pub(crate) pools: DevicePools,
    arena: VersionArena<BnPatch>,
    base_model: MlpResNet,
    base_patch: BnPatch,
    config: DeviceConfig,
    clock_us: u64,
    /// The one detector every device's items pass through.
    detector: StreamDetector,
    /// One per worker chunk, grown on demand.
    scratches: Vec<Scratch>,
    /// Arena id of the last interned deployment, reused when the cloud
    /// installs the same `(meta, patch)` on many devices one call at a time
    /// (the transport delivery path). Holds one arena reference of its own,
    /// which is what keeps the id from being freed and reused under it.
    last_install: Option<u32>,
}

impl FleetSim {
    /// Builds a fleet over explicit `(device id, location)` pairs, each
    /// device starting from a shared clone of `base_model`. Duplicate ids
    /// keep the first occurrence's location.
    pub fn new(
        devices: impl IntoIterator<Item = (String, String)>,
        base_model: &MlpResNet,
        config: &DeviceConfig,
    ) -> Self {
        let state = FleetState::new(devices);
        let pools = DevicePools::new(state.len(), config.pool_capacity);
        let mut base_model = base_model.clone();
        let base_patch = BnPatch::extract(&mut base_model);
        FLEET_DEVICES.set(state.len() as f64);
        FleetSim {
            detector: config.detector(),
            state,
            pools,
            arena: VersionArena::new(),
            base_model,
            base_patch,
            config: config.clone(),
            clock_us: 0,
            scratches: Vec::new(),
            last_install: None,
        }
    }

    /// Builds one device per distinct device id in `streams`.
    pub fn from_streams(
        streams: &[LocationStream],
        base_model: &MlpResNet,
        config: &DeviceConfig,
    ) -> Self {
        let devices = streams.iter().flat_map(|s| {
            s.items
                .iter()
                .map(|item| (item.device_id.clone(), item.location.clone()))
        });
        Self::new(devices, base_model, config)
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.state.len()
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.state.is_empty()
    }

    /// All device ids, sorted.
    pub fn device_ids(&self) -> Vec<String> {
        self.state.ids().to_vec()
    }

    /// The id of the device at index `d` of [`FleetSim::device_ids`].
    ///
    /// # Panics
    ///
    /// Panics if `d` is not below [`FleetSim::len`].
    pub fn device_id(&self, d: usize) -> &str {
        self.state.id(d)
    }

    /// Maximum number of model versions stored on any device.
    pub fn max_versions(&self) -> usize {
        self.pools.max_len()
    }

    /// Distinct model versions alive in the shared arena.
    pub fn arena_versions(&self) -> usize {
        self.arena.len()
    }

    /// Current virtual time in microseconds.
    pub fn clock_us(&self) -> u64 {
        self.clock_us
    }

    /// Advances the virtual clock to `t_us` (never backwards) — the hook
    /// the orchestrator uses to keep this clock and the `nazar-net`
    /// exchange clock on one shared timeline.
    pub fn advance_clock_to(&mut self, t_us: u64) {
        self.clock_us = self.clock_us.max(t_us);
    }

    /// Interns `(meta, patch)` in the arena, reusing the previous insertion
    /// when the cloud re-installs the identical version device by device.
    fn intern(&mut self, meta: &VersionMeta, patch: &BnPatch) -> u32 {
        if let Some(version) = self.last_install {
            if self.arena.meta(version) == meta && self.arena.payload(version) == patch {
                return version;
            }
        }
        let version = self.arena.insert(meta.clone(), patch.clone());
        self.arena.acquire(version);
        if let Some(old) = self.last_install.replace(version) {
            self.arena.release(old);
        }
        version
    }

    /// Pushes a model version to every device (the cloud's broadcast
    /// deployment): one interned payload, one pool reference per device.
    pub fn deploy(&mut self, meta: &VersionMeta, patch: &BnPatch) {
        let version = self.intern(meta, patch);
        for d in 0..self.state.len() {
            self.pools.deploy(&mut self.arena, d, version);
        }
    }

    /// Installs a model version on one specific device (the transport
    /// layer's per-device delivery path). Returns `false` for unknown ids.
    pub fn install_on(&mut self, device_id: &str, meta: &VersionMeta, patch: &BnPatch) -> bool {
        self.state
            .index_of(device_id)
            .is_some_and(|d| self.install_at([(d as u32, meta, patch)]) == 1)
    }

    /// Installs each `(device index, meta, patch)` in order (the
    /// transport's delivery path, indices as [`FleetSim::device_ids`]
    /// orders them). A run of deliveries that borrow the same `meta` and
    /// `patch` — devices that decoded one shared copy — interns the version
    /// once; each device then takes one pool reference. Indices past the
    /// fleet are skipped. Returns how many devices installed a version.
    /// Leaves the same state as [`FleetSim::install_on`] called delivery by
    /// delivery.
    pub fn install_at<'a>(
        &mut self,
        deliveries: impl IntoIterator<Item = (u32, &'a VersionMeta, &'a BnPatch)>,
    ) -> usize {
        let mut last: Option<(&VersionMeta, &BnPatch, u32)> = None;
        let mut installed = 0;
        for (d, meta, patch) in deliveries {
            let d = d as usize;
            if d >= self.state.len() {
                continue;
            }
            let version = match last {
                Some((m, p, v)) if std::ptr::eq(m, meta) && std::ptr::eq(p, patch) => v,
                _ => {
                    let v = self.intern(meta, patch);
                    last = Some((meta, patch, v));
                    v
                }
            };
            self.pools.deploy(&mut self.arena, d, version);
            installed += 1;
        }
        installed
    }

    /// The indices of the devices a version's cause can ever match,
    /// ascending (which is id order): if the cause names a `location` or
    /// `device_id`, other devices never select the version, so shipping it
    /// to them wastes network and pool slots.
    pub fn target_indices(&self, meta: &VersionMeta) -> Vec<u32> {
        self.state.target_indices(meta)
    }

    /// Pushes a model version only to the devices
    /// [`FleetSim::target_indices`] selects. Returns how many devices
    /// received the version.
    pub fn deploy_targeted(&mut self, meta: &VersionMeta, patch: &BnPatch) -> usize {
        let targets = self.state.target_indices(meta);
        let version = self.intern(meta, patch);
        for &d in &targets {
            self.pools.deploy(&mut self.arena, d as usize, version);
        }
        targets.len()
    }

    /// Replays window `w` of `windows` and merges the per-device parts.
    pub fn process_window<R: Rng + ?Sized>(
        &mut self,
        streams: &[LocationStream],
        w: usize,
        windows: usize,
        rng: &mut R,
    ) -> WindowOutput {
        let parts = self.process_window_at(streams, w, windows, rng);
        let mut out = WindowOutput::default();
        for (_, part) in parts {
            out.stats.merge(&part.stats);
            out.entries.append(part.entries);
            out.uploads.extend(part.uploads);
        }
        out
    }

    /// Replays window `w` of `windows`, returning each participating
    /// device's output separately, sorted by device id — the shape the
    /// transport needs, since every device uploads its own batch.
    /// Concatenating the parts reproduces [`FleetSim::process_window`].
    /// [`FleetSim::process_window_at`] with each device named by its id.
    pub fn process_window_parts<R: Rng + ?Sized>(
        &mut self,
        streams: &[LocationStream],
        w: usize,
        windows: usize,
        rng: &mut R,
    ) -> Vec<(String, WindowOutput)> {
        let parts = self.process_window_at(streams, w, windows, rng);
        let id = |d: u32| self.state.id(d as usize).to_string();
        parts.into_iter().map(|(d, part)| (id(d), part)).collect()
    }

    /// Replays window `w` of `windows`, returning each participating
    /// device's output separately under its index in
    /// [`FleetSim::device_ids`], ascending — the shape the transport
    /// needs, since every device uploads its own batch, and the one the
    /// orchestrator hands the exchange without naming a device.
    pub fn process_window_at<R: Rng + ?Sized>(
        &mut self,
        streams: &[LocationStream],
        w: usize,
        windows: usize,
        rng: &mut R,
    ) -> Vec<(u32, WindowOutput)> {
        self.process_window_at_with_threads(streams, w, windows, rng, parallel::num_threads())
    }

    /// [`FleetSim::process_window_at`] with an explicit worker count.
    pub fn process_window_at_with_threads<R: Rng + ?Sized>(
        &mut self,
        streams: &[LocationStream],
        w: usize,
        windows: usize,
        rng: &mut R,
        threads: usize,
    ) -> Vec<(u32, WindowOutput)> {
        let span = nazar_obs::span_detail("detect", || format!("w={w} scheduler=event"));
        let started = std::time::Instant::now();
        let schedule_span = nazar_obs::span("detect.schedule");

        // The window's items, tagged with their device. The sort is stable,
        // so it groups them per device in ascending device order and keeps
        // stream order inside a device. Items of devices the fleet does not
        // know are skipped.
        let mut items: Vec<Arrival<'_>> = Vec::new();
        for stream in streams {
            for item in stream.window_items(w, windows) {
                if let Some(d) = self.state.index_of(&item.device_id) {
                    items.push((d as u32, item));
                }
            }
        }
        items.sort_by_key(|&(d, _)| d);

        // One job per participating device, ascending: a dedicated RNG
        // drawn from `rng` in that order — so no device's draws depend on
        // another's — and the device's sequence number, which `iter_mut`
        // walks in that order.
        // On the virtual timeline item `k` of a device lands at its stream
        // day, `ITEM_SPACING_US` after item `k-1` — clamped forward so time
        // never runs backwards after the clock synced with the network
        // exchange; `last_at` is the window's latest arrival.
        let start_us = self.clock_us;
        let mut last_at = start_us;
        let mut jobs: Vec<DeviceJob<'_>> = Vec::new();
        let mut runs = items.chunk_by(|a, b| a.0 == b.0).peekable();
        for (d, seq) in self.state.seqs_mut().iter_mut().enumerate() {
            let Some(run) = runs.next_if(|run| run[0].0 as usize == d) else {
                continue;
            };
            let mut next_free = start_us;
            for (k, (_, item)) in run.iter().enumerate() {
                let nominal =
                    u64::from(item.date.day_index()) * DAY_US + ITEM_SPACING_US * k as u64;
                let at = nominal.max(next_free);
                next_free = at + ITEM_SPACING_US;
                last_at = last_at.max(at);
            }
            jobs.push(DeviceJob {
                device: d as u32,
                items: run,
                rng: SmallRng::seed_from_u64(rng.next_u64()),
                seq,
            });
        }

        // Contiguous chunks, one scratch per chunk. Chunk boundaries depend
        // on the thread count but per-device results do not, so the merged
        // outcome is thread-count invariant.
        let participants = jobs.len();
        let chunk_count = threads.clamp(1, participants.max(1));
        while self.scratches.len() < chunk_count {
            self.scratches.push(Scratch::new(&self.base_model));
        }
        let per_chunk = participants.div_ceil(chunk_count).max(1);
        let mut rest = items.as_slice();
        let chunks: Vec<Chunk<'_, '_>> = jobs
            .chunks_mut(per_chunk)
            .zip(&mut self.scratches)
            .map(|(jobs, scratch)| {
                let rows = jobs.iter().map(|job| job.items.len()).sum();
                let (chunk_items, tail) = rest.split_at(rows);
                rest = tail;
                Chunk {
                    jobs,
                    items: chunk_items,
                    scratch,
                }
            })
            .collect();
        drop(schedule_span);

        let ctx = WindowCtx {
            arena: &self.arena,
            pools: &self.pools,
            base_patch: &self.base_patch,
            config: &self.config,
            detector: self.detector,
            span: span.id(),
        };
        let results = parallel::par_map_with(chunks, threads, |chunk| run_chunk(chunk, &ctx));

        // Chunks are contiguous and ascending, so the parts arrive — and
        // their counters are recorded — in ascending device order.
        let merge_span = nazar_obs::span("detect.merge");
        let mut parts: Vec<(u32, WindowOutput)> = Vec::with_capacity(participants);
        for part in results.into_iter().flatten() {
            record_stats(&part.1);
            parts.push(part);
        }
        drop(merge_span);

        // The window closes at its last day's boundary, or right after its
        // latest arrival where the exchange had pushed the clock past that;
        // the registry now holds the window's complete counts, so snapshot
        // them at the close's virtual timestamp.
        let (_, end_day) = SimDate::window_range(w, windows);
        self.clock_us = (u64::from(end_day) * DAY_US).max(last_at + ITEM_SPACING_US);
        BATCH_SECONDS.observe_since(started);
        record_peak_rss();
        nazar_obs::telemetry::snapshot(self.clock_us, "window_close");
        parts
    }
}

/// Runs one chunk of device jobs on a worker thread: resolves every item's
/// model version, runs one stacked forward per selected version (in
/// [`FORWARD_ROWS_CAP`]-row pieces) over the whole chunk, then walks each
/// device's items in stream order through the detector and emission.
fn run_chunk(chunk: Chunk<'_, '_>, ctx: &WindowCtx<'_>) -> Vec<(u32, WindowOutput)> {
    let _span = nazar_obs::span_child("detect.chunk", ctx.span);
    let Scratch {
        model,
        ws,
        rows,
        selected,
        order,
        passes,
    } = chunk.scratch;

    selected.clear();
    selected.extend(chunk.items.iter().map(|&(d, item)| {
        ctx.pools
            .select(ctx.arena, d as usize, |meta| item_matches(meta, item))
            .map(|(_, arena)| arena)
    }));

    // Forward passes, one group per selected version. The sort is stable
    // and `order` starts in item order, but neither matters to the result:
    // a row's `(prediction, msp)` is the same in any batch.
    let forward_span = nazar_obs::span("detect.forward");
    let arena_of = |i: usize| selected[i];
    order.clear();
    order.extend(0..selected.len());
    order.sort_by_key(|&i| arena_of(i));
    passes.clear();
    passes.resize(selected.len(), (0, 0.0));
    for group in order.chunk_by(|&a, &b| arena_of(a) == arena_of(b)) {
        let patch = match arena_of(group[0]) {
            Some(version) => ctx.arena.payload(version),
            None => ctx.base_patch,
        };
        patch.apply(model).expect("pool patches fit the base model");
        for piece in group.chunks(FORWARD_ROWS_CAP) {
            rows.clear();
            for &i in piece {
                rows.extend_from_slice(&chunk.items[i].1.features);
            }
            forward_rows(model, rows, piece.len(), ws, |row, prediction, msp| {
                passes[piece[row]] = (prediction, msp);
            });
        }
    }
    drop(forward_span);

    // A device's items are walked in stream order: its RNG draws and its
    // sequence numbers follow that order, as on a device serving them one
    // at a time.
    let mut detector = ctx.detector;
    let mut parts = Vec::with_capacity(chunk.jobs.len());
    let mut first = 0; // chunk position of the job's first item
    for job in chunk.jobs {
        // Sized for the device's items and its page's usual three strings
        // (id, location, one weather), the id first; a job has an item.
        let mut rows = RowBatch::with_capacity(&LOG_SCHEMA, job.items.len(), 3);
        if let Some((_, item)) = job.items.first() {
            rows.intern(&item.device_id);
        }
        let mut part = WindowOutput {
            entries: rows,
            ..WindowOutput::default()
        };
        let results = &passes[first..];
        first += job.items.len();
        for (&(_, item), &(prediction, msp)) in job.items.iter().zip(results) {
            *job.seq += 1;
            let drift = detector.observe(msp);
            let sample = emit_outputs(
                item,
                drift,
                ctx.config.sample_rate,
                *job.seq,
                &mut job.rng,
                &mut part.entries,
            );
            tally(&mut part.stats, item, prediction, drift);
            part.uploads.extend(sample);
        }
        parts.push((job.device, part));
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use nazar_data::{AnimalsConfig, AnimalsDataset};
    use nazar_log::Attribute;
    use nazar_nn::{Mode, ModelArch};
    use nazar_tensor::Tensor;
    use std::collections::BTreeMap;

    fn small_world() -> (AnimalsDataset, MlpResNet) {
        let cfg = AnimalsConfig {
            devices_per_location: 2,
            arrivals_per_day: 0.5,
            ..AnimalsConfig::small()
        };
        let data = AnimalsDataset::generate(&cfg);
        let mut rng = SmallRng::seed_from_u64(0);
        let model = MlpResNet::new(ModelArch::tiny(cfg.dim, cfg.classes), &mut rng);
        (data, model)
    }

    fn donor_patch(dim: usize, classes: usize, seed: u64) -> BnPatch {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut donor = MlpResNet::new(ModelArch::tiny(dim, classes), &mut rng);
        let x = Tensor::rand_uniform(&mut rng, &[16, dim], -1.0, 1.0);
        let _ = donor.logits(&x, Mode::Train);
        BnPatch::extract(&mut donor)
    }

    #[test]
    fn broadcast_stores_one_arena_version() {
        let (data, model) = small_world();
        let mut event = FleetSim::from_streams(&data.streams, &model, &DeviceConfig::default());
        let dim = data.streams[0].items[0].features.len();
        let patch = donor_patch(dim, 6, 7);
        let meta = VersionMeta::new(vec![Attribute::new("weather", "snow")], 2.0);
        event.deploy(&meta, &patch);
        assert_eq!(event.max_versions(), 1);
        assert_eq!(
            event.arena_versions(),
            1,
            "a broadcast must intern exactly one shared payload"
        );
    }

    /// Installing one `(meta, patch)` device by device — the transport's
    /// delivery path — interns it once: the memo keeps the arena id, not a
    /// second copy of the payload to compare against.
    #[test]
    fn reinstalling_one_version_device_by_device_interns_it_once() {
        let (data, model) = small_world();
        let mut sim = FleetSim::from_streams(&data.streams, &model, &DeviceConfig::default());
        let dim = data.streams[0].items[0].features.len();
        let patch = donor_patch(dim, 6, 7);
        let meta = VersionMeta::new(vec![Attribute::new("weather", "snow")], 2.0);
        let ids = sim.device_ids();
        for id in &ids {
            assert!(sim.install_on(id, &meta, &patch));
        }
        assert_eq!(sim.arena_versions(), 1);
        let first = sim.last_install.expect("the memo holds the version");
        assert_eq!(
            sim.arena.ref_count(first),
            ids.len() as u64 + 1,
            "one reference per device plus the memo's"
        );

        // A different patch under the same cause is a different version: it
        // replaces the first on this device and takes the memo with it.
        assert!(sim.install_on(&ids[0], &meta, &donor_patch(dim, 6, 8)));
        assert_eq!(sim.arena_versions(), 2);
        assert_ne!(sim.last_install, Some(first));
        assert_eq!(sim.arena.ref_count(first), ids.len() as u64 - 1);
        assert_eq!(sim.max_versions(), 1);

        // `install_at` over the same deliveries leaves the same state as
        // `install_on` device by device: arena versions, reference counts,
        // pool contents and the memo. Indices past the fleet are skipped
        // and not counted.
        let mut many = FleetSim::from_streams(&data.streams, &model, &DeviceConfig::default());
        let n = ids.len() as u32;
        let (unknown, other) = (n, donor_patch(dim, 6, 8));
        let rest_then_unknown = (1..=n).map(|d| (d, &meta, &patch));
        assert_eq!(many.install_at(rest_then_unknown), ids.len() - 1);
        assert_eq!(many.install_at([(0, &meta, &patch)]), 1);
        assert_eq!(many.install_at([(unknown, &meta, &patch)]), 0);
        assert_eq!(many.install_at([(0, &meta, &other)]), 1);
        let mut one = FleetSim::from_streams(&data.streams, &model, &DeviceConfig::default());
        for id in ids[1..].iter().chain([&ids[0]]) {
            assert!(one.install_on(id, &meta, &patch));
        }
        assert!(!one.install_on("no-such-device", &meta, &patch));
        assert!(one.install_on(&ids[0], &meta, &other));
        assert_eq!(many.arena_versions(), one.arena_versions());
        assert_eq!(many.last_install, one.last_install);
        let live = many.last_install.expect("the memo holds the version");
        assert_eq!(many.arena.ref_count(live), one.arena.ref_count(live));
        assert_eq!(many.arena.ref_count(first), one.arena.ref_count(first));
        for d in 0..ids.len() {
            assert_eq!(many.pools.slots(d), one.pools.slots(d), "device {d}");
        }
        assert_eq!(format!("{:?}", many.arena), format!("{:?}", one.arena));
        assert_eq!(format!("{:?}", many.pools), format!("{:?}", one.pools));
    }

    /// The clock without a queue: a window closes at its last day's
    /// boundary; once the exchange has pushed the clock past that, every
    /// arrival clamps forward to the clock, a device's items land
    /// `ITEM_SPACING_US` apart from there, and the window closes one
    /// spacing after the longest per-device run. Output and clock are the
    /// same at any worker count.
    #[test]
    fn clock_follows_the_arrival_arithmetic_at_any_worker_count() {
        let (data, model) = small_world();
        let windows = 4;
        let boundary = |w: usize| u64::from(SimDate::window_range(w, windows).1) * DAY_US;
        let longest_run = |w: usize| {
            let mut per_device: BTreeMap<&str, u64> = BTreeMap::new();
            for item in data.streams.iter().flat_map(|s| s.window_items(w, windows)) {
                *per_device.entry(item.device_id.as_str()).or_default() += 1;
            }
            per_device.values().copied().max().unwrap_or(0)
        };
        // What the exchange does when an upload runs long: the clock is
        // past window 2's last day before window 2 starts.
        let pushed = boundary(2) + 12_345;
        let run = |threads: usize| {
            let mut sim = FleetSim::from_streams(&data.streams, &model, &DeviceConfig::default());
            let mut rng = SmallRng::seed_from_u64(9);
            let mut all = Vec::new();
            for w in 0..windows {
                if w == 2 {
                    sim.advance_clock_to(pushed);
                }
                let parts = sim.process_window_at_with_threads(
                    &data.streams,
                    w,
                    windows,
                    &mut rng,
                    threads,
                );
                all.push((parts, sim.clock_us()));
            }
            all
        };
        let run_1 = run(1);
        assert_eq!(run_1, run(8), "output and clock must not depend on threads");

        assert!(longest_run(2) > 1, "window 2 must queue items on a device");
        let closes: Vec<u64> = run_1.iter().map(|(_, clock)| *clock).collect();
        let late_close = pushed + ITEM_SPACING_US * longest_run(2);
        assert!(late_close < boundary(3));
        assert_eq!(
            closes,
            [boundary(0), boundary(1), late_close, boundary(3)],
            "windows 0, 1 and 3 close at their last day; window 2 after its clamped arrivals"
        );
    }

    #[test]
    fn clock_advances_monotonically_across_windows() {
        let (data, model) = small_world();
        let mut sim = FleetSim::from_streams(&data.streams, &model, &DeviceConfig::default());
        let mut rng = SmallRng::seed_from_u64(3);
        let mut last = sim.clock_us();
        for w in 0..4 {
            sim.process_window_parts(&data.streams, w, 4, &mut rng);
            assert!(sim.clock_us() >= last, "window {w} moved time backwards");
            last = sim.clock_us();
        }
        // External sync can only move the clock forward.
        sim.advance_clock_to(last.saturating_sub(1));
        assert_eq!(sim.clock_us(), last);
        sim.advance_clock_to(last + 5);
        assert_eq!(sim.clock_us(), last + 5);
    }
}
