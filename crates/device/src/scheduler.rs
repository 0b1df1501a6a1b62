//! Event-driven virtual-time fleet scheduler (ISSUE 6 tentpole).
//!
//! [`crate::Fleet`] steps every device in lockstep once per window, which is
//! faithful to the paper's evaluation loop but caps single-process fleets at
//! tens of thousands of devices (one boxed [`crate::Device`] each, one model
//! clone each). [`FleetSim`] replays the *same* workload as a discrete-event
//! simulation on the `nazar-net` virtual-microsecond timeline:
//!
//! * a central binary-heap event queue carries **sample-arrival**,
//!   **detect**, **upload-flush**, **deploy-receipt** and **window-close**
//!   events, popped earliest-first with the deterministic tie-break
//!   `(time, device, seq)` — `seq` is a global monotonically increasing
//!   push counter, so two events at the same instant on the same device
//!   pop in creation order and runs are bitwise reproducible at any
//!   `NAZAR_NUM_THREADS`;
//! * device state lives in struct-of-arrays columns
//!   ([`crate::state::FleetState`], [`crate::state::DevicePools`]) and
//!   model payloads are interned once in a
//!   [`nazar_registry::VersionArena`], so a million devices fit in memory
//!   (~150 bytes of state per device instead of a model clone each);
//! * inference work is drained in per-virtual-day batches that fan out
//!   over [`nazar_tensor::parallel`] with one scratch model per worker
//!   chunk; a chunk groups its arrivals by the model version each device
//!   selected and runs **one** stacked forward per group (a row's logits
//!   do not depend on its batch-mates, see
//!   [`nazar_nn::MlpResNet::infer_into`]); per-device outcomes are merged
//!   back in ascending device order, which keeps results independent of
//!   thread count and scheduling.
//!
//! The golden trace (`tests/golden_trace.rs`) pins that a full
//! orchestrator run through [`FleetSim`] is *identical* to the lockstep
//! [`crate::Fleet`] path, and the proptests in
//! `tests/scheduler_determinism.rs` pin event-order and output determinism
//! across thread counts.

use crate::device::{emit_outputs, forward_rows, DeviceConfig, DeviceOutput};
use crate::fleet::{record_stats, tally, WindowOutput};
use crate::state::{DevicePools, FleetState};
use crate::{item_attributes, item_matches};
use nazar_data::{LocationStream, SimDate, StreamItem};
use nazar_detect::StreamDetector;
use nazar_nn::{BnPatch, MlpResNet};
use nazar_obs::{LazyCounter, LazyGauge, LazyHistogram};
use nazar_registry::{VersionArena, VersionMeta};
use nazar_tensor::{parallel, Workspace};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BinaryHeap};

/// One virtual day in virtual microseconds (the `nazar-net` clock unit).
pub const DAY_US: u64 = 86_400_000_000;

/// Virtual microseconds between consecutive arrivals on one device.
const ITEM_SPACING_US: u64 = 2;

/// Sentinel device for fleet-wide events ([`EventKind::WindowClose`]);
/// `u32::MAX` sorts after every real device at the same instant.
const FLEET_DEVICE: u32 = u32::MAX;

/// Sentinel for "base model" in [`EventKind::Detect::version`].
const BASE_VERSION: u32 = u32::MAX;

/// Most feature rows one stacked forward carries. Caps a chunk's
/// activation scratch (three `[rows, hidden]` buffers) however many
/// arrivals a day brings — at a million devices as at forty — while
/// leaving the per-call overhead a 256th of a batch-1 pass's.
pub const FORWARD_ROWS_CAP: usize = 256;

static EV_ARRIVAL: LazyCounter = LazyCounter::new(
    "nazar_fleet_events_total",
    "Scheduler events processed by type",
    &[("type", "sample_arrival")],
);
static EV_DETECT: LazyCounter = LazyCounter::new(
    "nazar_fleet_events_total",
    "Scheduler events processed by type",
    &[("type", "detect")],
);
static EV_FLUSH: LazyCounter = LazyCounter::new(
    "nazar_fleet_events_total",
    "Scheduler events processed by type",
    &[("type", "upload_flush")],
);
static EV_RECEIPT: LazyCounter = LazyCounter::new(
    "nazar_fleet_events_total",
    "Scheduler events processed by type",
    &[("type", "deploy_receipt")],
);
static EV_CLOSE: LazyCounter = LazyCounter::new(
    "nazar_fleet_events_total",
    "Scheduler events processed by type",
    &[("type", "window_close")],
);
static QUEUE_DEPTH: LazyGauge = LazyGauge::new(
    "nazar_fleet_queue_depth",
    "High-water mark of the scheduler event queue in the last window",
    &[],
);
static FLEET_DEVICES: LazyGauge = LazyGauge::new(
    "nazar_fleet_devices",
    "Simulated devices in the event-driven fleet",
    &[],
);
static BATCH_ARRIVALS: LazyHistogram = LazyHistogram::new(
    "nazar_fleet_batch_events",
    "Events per drained parallel batch, by type",
    &[("type", "sample_arrival")],
    nazar_obs::pow2_buckets_wide,
);
static BATCH_DETECTS: LazyHistogram = LazyHistogram::new(
    "nazar_fleet_batch_events",
    "Events per drained parallel batch, by type",
    &[("type", "detect")],
    nazar_obs::pow2_buckets_wide,
);
static BATCH_SECONDS: LazyHistogram = LazyHistogram::new(
    "nazar_fleet_batch_seconds",
    "Wall-clock seconds spent draining one parallel batch",
    &[],
    nazar_obs::duration_buckets,
);
static PEAK_RSS: LazyGauge = LazyGauge::new_volatile(
    "nazar_fleet_peak_rss_bytes",
    "Peak resident set size of the host process (VmHWM), sampled at window close",
    &[],
);

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

/// What a scheduler event does when popped.
#[derive(Debug, Clone, Copy, PartialEq)]
enum EventKind {
    /// An inference request reaches the device; runs select + forward pass.
    SampleArrival {
        /// Index into the window's item table.
        item: u32,
    },
    /// The detector consumes a finished forward pass; emits the drift-log
    /// entry and (maybe) an upload sample. Carries the pass's results so the
    /// event is self-contained.
    Detect {
        /// Index into the window's item table.
        item: u32,
        /// Predicted class.
        prediction: u32,
        /// Maximum softmax probability of the pass.
        msp: f32,
        /// Device-local id of the version used ([`BASE_VERSION`] = base).
        version: u32,
    },
    /// The device hands its accumulated window output to the uplink.
    UploadFlush,
    /// A deployed version reaches the device and enters its pool. The
    /// receipt owns one arena reference, dropped after installation.
    DeployReceipt {
        /// Arena id of the delivered version.
        version: u32,
    },
    /// End of the simulated window; the drain loop stops here.
    WindowClose,
}

impl EventKind {
    fn name(self) -> &'static str {
        match self {
            EventKind::SampleArrival { .. } => "sample_arrival",
            EventKind::Detect { .. } => "detect",
            EventKind::UploadFlush => "upload_flush",
            EventKind::DeployReceipt { .. } => "deploy_receipt",
            EventKind::WindowClose => "window_close",
        }
    }

    fn counter(self) -> &'static LazyCounter {
        match self {
            EventKind::SampleArrival { .. } => &EV_ARRIVAL,
            EventKind::Detect { .. } => &EV_DETECT,
            EventKind::UploadFlush => &EV_FLUSH,
            EventKind::DeployReceipt { .. } => &EV_RECEIPT,
            EventKind::WindowClose => &EV_CLOSE,
        }
    }
}

/// A queued scheduler event, ordered by `(at, device, seq)` ascending.
#[derive(Debug, Clone, Copy)]
struct Event {
    /// Virtual time in microseconds.
    at: u64,
    /// Device index (or [`FLEET_DEVICE`]).
    device: u32,
    /// Global push counter — the final deterministic tie-break.
    seq: u64,
    kind: EventKind,
}

impl Event {
    fn key(&self) -> (u64, u32, u64) {
        (self.at, self.device, self.seq)
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Inverted: `BinaryHeap` is a max-heap, we pop earliest first.
        other.key().cmp(&self.key())
    }
}

/// One popped event, recorded when tracing is enabled (determinism tests
/// compare these across thread counts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time in microseconds.
    pub at: u64,
    /// Device index ([`u32::MAX`] for fleet-wide events).
    pub device: u32,
    /// Global push sequence number.
    pub seq: u64,
    /// Event type name.
    pub kind: &'static str,
}

/// A worker's scratch model: the base clone plus a memo of which arena
/// patch is currently applied (`Some(None)` = base patch, `None` = unknown).
#[derive(Debug)]
struct Scratch {
    model: MlpResNet,
    applied: Option<Option<u32>>,
    /// Deploy epoch the memo was taken in; arena ids may be reused across
    /// deployments, so a stale epoch invalidates the memo.
    epoch: u64,
    /// Activation and packing buffers of the chunk's forwards, kept from
    /// batch to batch so that a [`FORWARD_ROWS_CAP`]-row group finds its
    /// buffers already sized.
    ws: Workspace,
    /// Stacked feature rows of the forward in flight, `[rows, input_dim]`.
    rows: Vec<f32>,
}

impl Scratch {
    fn ensure(&mut self, sel: Option<u32>, arena: &VersionArena<BnPatch>, base_patch: &BnPatch) {
        if self.applied == Some(sel) {
            return;
        }
        let patch = match sel {
            Some(vid) => arena.payload(vid),
            None => base_patch,
        };
        patch
            .apply(&mut self.model)
            .expect("pool patches fit the base model");
        self.applied = Some(sel);
    }
}

/// A device's share of one parallel batch: its popped events (in pop order)
/// plus the mutable state checked out for the job.
struct DeviceJob {
    device: u32,
    seq: u64,
    rng: SmallRng,
    /// The device's streaming drift detector, checked out for the batch
    /// (stateful for the windowed/sequential zoo kinds; exactly
    /// `msp < threshold` for the default MSP kind).
    detector: StreamDetector,
    events: Vec<Event>,
}

/// What a device job hands back to the sequential merge.
struct JobResult {
    device: u32,
    seq: u64,
    rng: SmallRng,
    /// The detector handed back after observing the batch's detects.
    detector: StreamDetector,
    /// MSP per detect, in item order (feeds the confidence-history ring).
    confs: Vec<f32>,
    /// Detect events generated by arrivals, to enqueue at merge time.
    detects: Vec<Event>,
    /// Finished outputs per detect: `(item index, output)`.
    outputs: Vec<(u32, DeviceOutput)>,
}

/// A sample arrival whose version is resolved and whose forward pass is
/// still to run.
struct Arrival {
    /// Index of the owning device's [`JobResult`] in the chunk.
    job: usize,
    /// Virtual time of the arrival event.
    at: u64,
    /// Index into the window's item table.
    item: u32,
    /// Arena id of the selected version (`None` = base): the forward's
    /// grouping key.
    arena: Option<u32>,
    /// Device-local id of the selected version ([`BASE_VERSION`] = base),
    /// as the detect event reports it.
    version: u32,
}

/// A contiguous run of device jobs plus the worker scratch model it uses.
struct Chunk {
    index: usize,
    jobs: Vec<DeviceJob>,
    scratch: Option<Scratch>,
}

/// Shared read-only context for one parallel batch.
struct BatchCtx<'a> {
    items: &'a [&'a StreamItem],
    arena: &'a VersionArena<BnPatch>,
    pools: &'a DevicePools,
    base_model: &'a MlpResNet,
    base_patch: &'a BnPatch,
    config: &'a DeviceConfig,
    epoch: u64,
    /// The batch's span, parent of the chunks' spans on worker threads.
    span: Option<u64>,
}

/// The last interned deployment, reused when the cloud installs the same
/// `(meta, patch)` on many devices one call at a time (the transport
/// delivery path). Holds one arena reference of its own.
#[derive(Debug)]
struct InstallMemo {
    meta: VersionMeta,
    patch: BnPatch,
    version: u32,
}

/// The event-driven fleet: drop-in replacement for [`crate::Fleet`] that
/// scales to 1M+ devices (see the module docs).
#[derive(Debug)]
pub struct FleetSim {
    state: FleetState,
    pools: DevicePools,
    arena: VersionArena<BnPatch>,
    base_model: MlpResNet,
    base_patch: BnPatch,
    config: DeviceConfig,
    heap: BinaryHeap<Event>,
    clock_us: u64,
    next_seq: u64,
    depth_watermark: usize,
    deploy_epoch: u64,
    /// Per-device streaming detector state, checked out into batch jobs
    /// like the per-device RNGs ([`None`] while a job holds it).
    detectors: Vec<Option<StreamDetector>>,
    scratches: Vec<Option<Scratch>>,
    last_install: Option<InstallMemo>,
    trace: Option<Vec<TraceEvent>>,
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
        let detectors = (0..state.len())
            .map(|_| {
                Some(StreamDetector::new(
                    config.detector,
                    config.detection_threshold,
                ))
            })
            .collect();
        FleetSim {
            state,
            pools,
            arena: VersionArena::new(),
            base_model,
            base_patch,
            config: config.clone(),
            heap: BinaryHeap::new(),
            clock_us: 0,
            next_seq: 0,
            depth_watermark: 0,
            deploy_epoch: 0,
            detectors,
            scratches: Vec::new(),
            last_install: None,
            trace: None,
        }
    }

    /// Builds one device per distinct device id in `streams`, mirroring
    /// [`crate::Fleet::from_streams`].
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

    /// Maximum number of model versions stored on any device.
    pub fn max_versions(&self) -> usize {
        self.pools.max_len()
    }

    /// Distinct model versions alive in the shared arena.
    pub fn arena_versions(&self) -> usize {
        self.arena.len()
    }

    /// The per-device state columns (read-only; benches checksum these).
    pub fn state(&self) -> &FleetState {
        &self.state
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

    /// Starts or stops recording popped events (see [`TraceEvent`]).
    pub fn set_trace(&mut self, on: bool) {
        self.trace = if on { Some(Vec::new()) } else { None };
    }

    /// Takes the recorded trace, leaving recording enabled if it was.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        match &mut self.trace {
            Some(t) => std::mem::take(t),
            None => Vec::new(),
        }
    }

    fn push_event(&mut self, at: u64, device: u32, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event {
            at,
            device,
            seq,
            kind,
        });
        self.depth_watermark = self.depth_watermark.max(self.heap.len());
    }

    fn record_pop(&mut self, ev: &Event) {
        self.clock_us = self.clock_us.max(ev.at);
        ev.kind.counter().inc();
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEvent {
                at: ev.at,
                device: ev.device,
                seq: ev.seq,
                kind: ev.kind.name(),
            });
        }
    }

    /// Interns `(meta, patch)` in the arena, reusing the previous insertion
    /// when the cloud re-installs the identical version device by device.
    fn intern(&mut self, meta: &VersionMeta, patch: &BnPatch) -> u32 {
        if let Some(memo) = &self.last_install {
            if memo.meta == *meta && memo.patch == *patch {
                return memo.version;
            }
        }
        let version = self.arena.insert(meta.clone(), patch.clone());
        self.arena.acquire(version);
        if let Some(old) = self.last_install.take() {
            self.arena.release(old.version);
        }
        self.last_install = Some(InstallMemo {
            meta: meta.clone(),
            patch: patch.clone(),
            version,
        });
        version
    }

    /// Drains pending deploy receipts. Install paths pump synchronously so
    /// the cloud's next `max_versions()` read observes the deployment, the
    /// contract the lockstep [`crate::Fleet`] provides implicitly.
    fn pump(&mut self) {
        while let Some(ev) = self.heap.pop() {
            self.record_pop(&ev);
            match ev.kind {
                EventKind::DeployReceipt { version } => self.apply_receipt(ev.device, version),
                other => unreachable!(
                    "only deploy receipts may be pending between windows, found {}",
                    other.name()
                ),
            }
        }
    }

    fn apply_receipt(&mut self, device: u32, version: u32) {
        self.pools.deploy(&mut self.arena, device as usize, version);
        // Drop the receipt's own reference; the pool holds its own now.
        self.arena.release(version);
        // Arena ids can be freed and reused by the eviction above, so every
        // worker scratch memo keyed on an id is now suspect.
        self.deploy_epoch += 1;
    }

    /// Pushes a model version to every device (the cloud's broadcast
    /// deployment): one interned payload, one receipt event per device.
    pub fn deploy(&mut self, meta: &VersionMeta, patch: &BnPatch) {
        let version = self.intern(meta, patch);
        for d in 0..self.state.len() as u32 {
            self.arena.acquire(version);
            self.push_event(self.clock_us, d, EventKind::DeployReceipt { version });
        }
        self.pump();
    }

    /// Installs a model version on one specific device (the transport
    /// layer's per-device delivery path). Returns `false` for unknown ids.
    pub fn install_on(&mut self, device_id: &str, meta: &VersionMeta, patch: &BnPatch) -> bool {
        let Some(d) = self.state.index_of(device_id) else {
            return false;
        };
        let version = self.intern(meta, patch);
        self.arena.acquire(version);
        self.push_event(
            self.clock_us,
            d as u32,
            EventKind::DeployReceipt { version },
        );
        self.pump();
        true
    }

    /// The devices a version's cause can ever match, sorted by id
    /// (see [`crate::Fleet::target_ids`]).
    pub fn target_ids(&self, meta: &VersionMeta) -> Vec<String> {
        self.state
            .target_indices(meta)
            .into_iter()
            .map(|d| self.state.id(d).to_string())
            .collect()
    }

    /// Pushes a model version only to the devices [`FleetSim::target_ids`]
    /// selects. Returns how many devices received the version.
    pub fn deploy_targeted(&mut self, meta: &VersionMeta, patch: &BnPatch) -> usize {
        let targets = self.state.target_indices(meta);
        let version = self.intern(meta, patch);
        for &d in &targets {
            self.arena.acquire(version);
            self.push_event(
                self.clock_us,
                d as u32,
                EventKind::DeployReceipt { version },
            );
        }
        self.pump();
        targets.len()
    }

    /// Replays window `w` of `windows` through the event queue and merges
    /// the per-device parts, mirroring [`crate::Fleet::process_window`].
    pub fn process_window<R: Rng + ?Sized>(
        &mut self,
        streams: &[LocationStream],
        w: usize,
        windows: usize,
        rng: &mut R,
    ) -> WindowOutput {
        let parts = self.process_window_parts(streams, w, windows, rng);
        let mut out = WindowOutput::default();
        for (_, part) in parts {
            out.stats.merge(&part.stats);
            out.entries.extend(part.entries);
            out.uploads.extend(part.uploads);
        }
        out
    }

    /// Replays window `w` of `windows`, returning each participating
    /// device's output separately, sorted by device id — byte-identical to
    /// [`crate::Fleet::process_window_parts`] for the same seed.
    pub fn process_window_parts<R: Rng + ?Sized>(
        &mut self,
        streams: &[LocationStream],
        w: usize,
        windows: usize,
        rng: &mut R,
    ) -> Vec<(String, WindowOutput)> {
        self.process_window_parts_with_threads(streams, w, windows, rng, parallel::num_threads())
    }

    /// [`FleetSim::process_window_parts`] with an explicit worker count.
    pub fn process_window_parts_with_threads<R: Rng + ?Sized>(
        &mut self,
        streams: &[LocationStream],
        w: usize,
        windows: usize,
        rng: &mut R,
        threads: usize,
    ) -> Vec<(String, WindowOutput)> {
        let _span = nazar_obs::span_detail("detect", || format!("w={w} scheduler=event"));
        self.depth_watermark = self.heap.len();
        let schedule_span = nazar_obs::span("detect.schedule");

        // Item table and per-device item lists, in stream order — the same
        // grouping the lockstep path builds.
        let mut items: Vec<&StreamItem> = Vec::new();
        let mut participants: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for stream in streams {
            for item in stream.window_items(w, windows) {
                let Some(d) = self.state.index_of(&item.device_id) else {
                    continue;
                };
                participants.entry(d as u32).or_default().push(
                    u32::try_from(items.len()).expect("window item table exceeds u32 indices"),
                );
                items.push(item);
            }
        }

        // One dedicated RNG per participating device, drawn from `rng` in
        // sorted device order — the lockstep path's exact seeding contract.
        let mut rngs: BTreeMap<u32, Option<SmallRng>> = BTreeMap::new();
        for &d in participants.keys() {
            rngs.insert(d, Some(SmallRng::seed_from_u64(rng.next_u64())));
        }

        // Schedule arrivals on the virtual timeline: item `k` of a device
        // lands `ITEM_SPACING_US` after item `k-1`, at its stream day —
        // clamped forward so virtual time never runs backwards after the
        // clock synced with the network exchange.
        let mut max_at = self.clock_us;
        for (&d, item_idxs) in &participants {
            let mut next_free = self.clock_us;
            for (k, &item) in item_idxs.iter().enumerate() {
                let day = u64::from(items[item as usize].date.day_index());
                let nominal = day * DAY_US + ITEM_SPACING_US * k as u64;
                let at = nominal.max(next_free);
                next_free = at + ITEM_SPACING_US;
                max_at = max_at.max(at);
                self.push_event(at, d, EventKind::SampleArrival { item });
            }
        }

        // Window close (and every device's upload flush) after the last
        // detect of the window's final day.
        let (_, end_day) = SimDate::window_range(w, windows);
        let t_end = (u64::from(end_day) * DAY_US)
            .max(max_at + ITEM_SPACING_US)
            .max(self.clock_us);
        for &d in participants.keys() {
            self.push_event(t_end, d, EventKind::UploadFlush);
        }
        self.push_event(t_end, FLEET_DEVICE, EventKind::WindowClose);
        drop(schedule_span);

        // Drain. Inference events sharing a virtual day drain as one
        // parallel batch; everything else is sequential.
        let mut parts: BTreeMap<u32, WindowOutput> = BTreeMap::new();
        let mut parts_out: Vec<(String, WindowOutput)> = Vec::new();
        while let Some(ev) = self.heap.pop() {
            self.record_pop(&ev);
            match ev.kind {
                EventKind::WindowClose => {
                    // Every upload flush of the window popped before this
                    // (same instant, real device ids sort first), so the
                    // registry now holds the window's complete counts —
                    // snapshot them at the close's virtual timestamp.
                    QUEUE_DEPTH.set(self.depth_watermark as f64);
                    record_peak_rss();
                    nazar_obs::telemetry::snapshot(ev.at, "window_close");
                    break;
                }
                EventKind::UploadFlush => {
                    let d = ev.device as usize;
                    let part = parts.remove(&ev.device).unwrap_or_default();
                    self.state.advance_outbox(d, part.entries.len() as u64);
                    record_stats(&part);
                    parts_out.push((self.state.id(d).to_string(), part));
                }
                EventKind::DeployReceipt { version } => self.apply_receipt(ev.device, version),
                EventKind::SampleArrival { .. } | EventKind::Detect { .. } => {
                    let day = ev.at / DAY_US;
                    let mut batch: BTreeMap<u32, Vec<Event>> = BTreeMap::new();
                    batch.entry(ev.device).or_default().push(ev);
                    while let Some(peek) = self.heap.peek() {
                        let inference = matches!(
                            peek.kind,
                            EventKind::SampleArrival { .. } | EventKind::Detect { .. }
                        );
                        if !inference || peek.at / DAY_US != day {
                            break;
                        }
                        let ev = self.heap.pop().expect("peeked event exists");
                        self.record_pop(&ev);
                        batch.entry(ev.device).or_default().push(ev);
                    }
                    self.process_batch(batch, &items, &mut rngs, &mut parts, threads);
                }
            }
        }
        QUEUE_DEPTH.set(self.depth_watermark as f64);
        debug_assert!(
            self.heap.is_empty(),
            "window close must drain the event queue"
        );
        parts_out
    }

    /// Fans one day's inference events out over worker chunks and merges
    /// the results back in ascending device order.
    fn process_batch(
        &mut self,
        batch: BTreeMap<u32, Vec<Event>>,
        items: &[&StreamItem],
        rngs: &mut BTreeMap<u32, Option<SmallRng>>,
        parts: &mut BTreeMap<u32, WindowOutput>,
        threads: usize,
    ) {
        let started = std::time::Instant::now();
        let batch_span = nazar_obs::span("detect.batch");
        let threads = threads.max(1);
        let mut arrivals = 0u64;
        let mut detects = 0u64;

        // Check out each device's mutable state (ascending device order).
        let mut jobs: Vec<DeviceJob> = Vec::with_capacity(batch.len());
        for (device, events) in batch {
            for ev in &events {
                match ev.kind {
                    EventKind::SampleArrival { .. } => arrivals += 1,
                    _ => detects += 1,
                }
            }
            let rng = rngs
                .get_mut(&device)
                .expect("inference event for a non-participating device")
                .take()
                .expect("device rng checked out twice");
            let detector = self.detectors[device as usize]
                .take()
                .expect("device detector checked out twice");
            jobs.push(DeviceJob {
                device,
                seq: self.state.seq(device as usize),
                rng,
                detector,
                events,
            });
        }

        // Contiguous chunks, one scratch model per chunk. Chunk boundaries
        // depend on the thread count but per-device results do not, so the
        // merged outcome is thread-count invariant.
        let chunk_count = threads.min(jobs.len()).max(1);
        if self.scratches.len() < chunk_count {
            self.scratches.resize_with(chunk_count, || None);
        }
        let per_chunk = jobs.len().div_ceil(chunk_count);
        let mut chunks: Vec<Chunk> = Vec::with_capacity(chunk_count);
        let mut jobs = jobs.into_iter();
        for index in 0..chunk_count {
            let chunk_jobs: Vec<DeviceJob> = jobs.by_ref().take(per_chunk).collect();
            if chunk_jobs.is_empty() {
                break;
            }
            let mut scratch = self.scratches[index].take();
            if let Some(s) = &mut scratch {
                if s.epoch != self.deploy_epoch {
                    s.applied = None;
                    s.epoch = self.deploy_epoch;
                }
            }
            chunks.push(Chunk {
                index,
                jobs: chunk_jobs,
                scratch,
            });
        }

        let ctx = BatchCtx {
            items,
            arena: &self.arena,
            pools: &self.pools,
            base_model: &self.base_model,
            base_patch: &self.base_patch,
            config: &self.config,
            epoch: self.deploy_epoch,
            span: batch_span.id(),
        };
        let results = parallel::par_map_with(chunks, threads, |chunk| run_chunk(chunk, &ctx));
        let _merge_span = nazar_obs::span("detect.merge");

        // Sequential merge: chunks are contiguous and ascending, so results
        // arrive in ascending device order; new detect events enqueue here,
        // giving every push a deterministic global sequence number.
        for (index, chunk_results, scratch) in results {
            self.scratches[index] = Some(scratch);
            for res in chunk_results {
                let d = res.device as usize;
                self.state.set_seq(d, res.seq);
                *rngs.get_mut(&res.device).expect("participant rng slot") = Some(res.rng);
                self.detectors[d] = Some(res.detector);
                for msp in res.confs {
                    self.state.record_conf(d, msp);
                }
                for ev in res.detects {
                    self.push_event(ev.at, ev.device, ev.kind);
                }
                if !res.outputs.is_empty() {
                    let part = parts.entry(res.device).or_default();
                    for (item, out) in res.outputs {
                        tally(part, items[item as usize], out);
                    }
                }
            }
        }
        BATCH_ARRIVALS.observe(arrivals as f64);
        BATCH_DETECTS.observe(detects as f64);
        BATCH_SECONDS.observe_since(started);
    }
}

/// Runs one chunk of device jobs on a worker thread: resolves every
/// arrival's model version, runs one stacked forward per selected version
/// (in [`FORWARD_ROWS_CAP`]-row pieces) and hands each device its detect
/// events in its own event order; detect events need no forward and are
/// finished where they stand.
fn run_chunk(chunk: Chunk, ctx: &BatchCtx<'_>) -> (usize, Vec<JobResult>, Scratch) {
    let _span = nazar_obs::span_child("detect.chunk", ctx.span);
    let mut scratch = chunk.scratch.unwrap_or_else(|| Scratch {
        model: ctx.base_model.clone(),
        applied: None,
        epoch: ctx.epoch,
        ws: Workspace::new(),
        rows: Vec::new(),
    });
    let mut results: Vec<JobResult> = Vec::with_capacity(chunk.jobs.len());
    let mut arrivals: Vec<Arrival> = Vec::new();
    for job in chunk.jobs {
        let d = job.device as usize;
        let mut res = JobResult {
            device: job.device,
            seq: job.seq,
            rng: job.rng,
            detector: job.detector,
            confs: Vec::new(),
            detects: Vec::new(),
            outputs: Vec::new(),
        };
        for ev in &job.events {
            match ev.kind {
                EventKind::SampleArrival { item } => {
                    let it = ctx.items[item as usize];
                    let sel = ctx
                        .pools
                        .select(ctx.arena, d, |meta| item_matches(meta, it));
                    arrivals.push(Arrival {
                        job: results.len(),
                        at: ev.at,
                        item,
                        arena: sel.map(|(_, arena)| arena),
                        version: match sel {
                            Some((local_id, _)) => {
                                u32::try_from(local_id).expect("device-local version ids fit u32")
                            }
                            None => BASE_VERSION,
                        },
                    });
                }
                EventKind::Detect {
                    item,
                    prediction,
                    msp,
                    version,
                } => {
                    let it = ctx.items[item as usize];
                    res.seq += 1;
                    // Detect events pop in item order per device, so the
                    // streaming detector observes the same MSP sequence as
                    // the lockstep device.
                    let drift = res.detector.observe(msp);
                    let (entry, sample) = emit_outputs(
                        it,
                        item_attributes(it),
                        drift,
                        ctx.config.sample_rate,
                        res.seq,
                        &mut res.rng,
                    );
                    let prediction = prediction as usize;
                    res.confs.push(msp);
                    res.outputs.push((
                        item,
                        DeviceOutput {
                            entry,
                            sample,
                            prediction,
                            correct: prediction == it.label,
                            version_used: (version != BASE_VERSION).then_some(u64::from(version)),
                        },
                    ));
                }
                other => unreachable!("{} events never reach batch jobs", other.name()),
            }
        }
        results.push(res);
    }

    // Forward passes, one group per selected version. The sort is stable
    // and `order` starts in event order, but neither matters to the
    // result: a row's `(prediction, msp)` is the same in any batch.
    let forward_span = nazar_obs::span("detect.forward");
    let mut order: Vec<usize> = (0..arrivals.len()).collect();
    order.sort_by_key(|&i| arrivals[i].arena);
    let mut passes: Vec<(usize, f32)> = vec![(0, 0.0); arrivals.len()];
    for group in order.chunk_by(|&a, &b| arrivals[a].arena == arrivals[b].arena) {
        scratch.ensure(arrivals[group[0]].arena, ctx.arena, ctx.base_patch);
        for piece in group.chunks(FORWARD_ROWS_CAP) {
            scratch.rows.clear();
            for &i in piece {
                let item = ctx.items[arrivals[i].item as usize];
                scratch.rows.extend_from_slice(&item.features);
            }
            forward_rows(
                &scratch.model,
                &scratch.rows,
                piece.len(),
                &mut scratch.ws,
                |row, prediction, msp| passes[piece[row]] = (prediction, msp),
            );
        }
    }
    drop(forward_span);

    // Scatter back in event order: `arrivals` still is.
    for (arrival, (prediction, msp)) in arrivals.iter().zip(passes) {
        let res = &mut results[arrival.job];
        res.detects.push(Event {
            at: arrival.at + 1,
            device: res.device,
            seq: 0, // assigned at merge time
            kind: EventKind::Detect {
                item: arrival.item,
                prediction: prediction as u32,
                msp,
                version: arrival.version,
            },
        });
    }
    (chunk.index, results, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::Fleet;
    use nazar_data::{AnimalsConfig, AnimalsDataset};
    use nazar_log::Attribute;
    use nazar_nn::{Mode, ModelArch};
    use nazar_tensor::Tensor;

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

    /// The core tentpole contract: the event-driven fleet reproduces the
    /// lockstep fleet bit-for-bit across windows and deployments.
    #[test]
    fn event_fleet_matches_lockstep_across_windows_and_deploys() {
        let (data, model) = small_world();
        let config = DeviceConfig::default();
        let mut lockstep = Fleet::from_streams(&data.streams, &model, &config);
        let mut event = FleetSim::from_streams(&data.streams, &model, &config);
        assert_eq!(lockstep.len(), event.len());
        assert_eq!(lockstep.device_ids(), event.device_ids());

        let windows = 4;
        let dim = data.streams[0].items[0].features.len();
        let classes = 6; // AnimalsConfig::small() class count
        let mut rng_a = SmallRng::seed_from_u64(42);
        let mut rng_b = SmallRng::seed_from_u64(42);
        for w in 0..windows {
            let a = lockstep.process_window_parts(&data.streams, w, windows, &mut rng_a);
            let b = event.process_window_parts(&data.streams, w, windows, &mut rng_b);
            assert_eq!(a.len(), b.len(), "window {w}: participant count");
            for ((id_a, part_a), (id_b, part_b)) in a.iter().zip(&b) {
                assert_eq!(id_a, id_b, "window {w}: device order");
                assert_eq!(part_a, part_b, "window {w}: output of {id_a}");
            }
            // Interleave deployments exactly as the orchestrator does:
            // broadcast one window, target the next.
            let patch = donor_patch(dim, classes, w as u64);
            if w % 2 == 0 {
                let meta =
                    VersionMeta::new(vec![Attribute::new("weather", "snow")], 2.0 + w as f64);
                lockstep.deploy(&meta, &patch);
                event.deploy(&meta, &patch);
            } else {
                let location = data.streams[0].location.clone();
                let meta = VersionMeta::new(
                    vec![
                        Attribute::new("weather", "fog"),
                        Attribute::new("location", location),
                    ],
                    1.0 + w as f64,
                );
                let na = lockstep.deploy_targeted(&meta, &patch);
                let nb = event.deploy_targeted(&meta, &patch);
                assert_eq!(na, nb, "window {w}: targeted install count");
            }
            assert_eq!(
                lockstep.max_versions(),
                event.max_versions(),
                "window {w}: max stored versions"
            );
        }
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

    #[test]
    fn trace_records_deterministic_event_order() {
        let (data, model) = small_world();
        let run = |threads: usize| {
            let mut sim = FleetSim::from_streams(&data.streams, &model, &DeviceConfig::default());
            sim.set_trace(true);
            let mut rng = SmallRng::seed_from_u64(9);
            let parts =
                sim.process_window_parts_with_threads(&data.streams, 0, 8, &mut rng, threads);
            (sim.take_trace(), parts)
        };
        let (trace_1, parts_1) = run(1);
        let (trace_8, parts_8) = run(8);
        assert!(!trace_1.is_empty());
        assert_eq!(
            trace_1, trace_8,
            "event pop order must not depend on threads"
        );
        assert_eq!(parts_1, parts_8, "fleet output must not depend on threads");
        // Virtual time advances day by day (detects generated by a day's
        // arrivals pop within the same day), and the close event is last.
        let days: Vec<u64> = trace_1.iter().map(|e| e.at / DAY_US).collect();
        assert!(
            days.windows(2).all(|w| w[0] <= w[1]),
            "virtual days must be non-decreasing in pop order"
        );
        assert_eq!(trace_1.last().map(|e| e.kind), Some("window_close"));
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
