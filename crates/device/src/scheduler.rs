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
//! * a window is **one pass**: its items, grouped per device in stream
//!   order, are one slice of an arrival index built once per run (each
//!   item's device is found while the fleet is built from the streams, so
//!   no window scans the streams or looks an id up); the participating
//!   devices are cut into contiguous chunks that fan out over
//!   [`nazar_tensor::parallel`] with one scratch model per chunk, and a
//!   chunk groups *all* of its window's items by the model version each
//!   device selected and runs **one** stacked forward per group (a row's
//!   logits do not depend on its batch-mates, see
//!   [`nazar_nn::MlpResNet::infer_into`]) before walking every device's
//!   items in order through the detector and emission, into a
//!   [`WindowParts`] whose buffers are reused from window to window;
//!   parts stay in ascending device order, which keeps results
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
use crate::fleet::{record_stats, ChunkOut, Outcome, Slot, Tally, WindowOutput, WindowParts};
use crate::state::{DevicePools, FleetState};
use crate::{item_matches, LOG_SCHEMA};
use nazar_data::{LocationStream, SimDate, StreamItem};
use nazar_detect::StreamDetector;
use nazar_nn::{BnPatch, MlpResNet};
use nazar_obs::{Gauge, Histogram};
use nazar_registry::{VersionArena, VersionMeta};
use nazar_tensor::{parallel, Workspace};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

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

/// One stream item as an arrival: where it is among the streams, and the
/// index of the device it lands on.
#[derive(Debug, Clone, Copy, Default)]
struct Arrival {
    device: u32,
    stream: u32,
    item: u32,
}

/// Marks an item whose device the fleet does not know.
const NO_DEVICE: u32 = u32::MAX;

/// The streams' items as arrivals, grouped by window and, inside a window,
/// by ascending device, stream order kept inside a device — the order a
/// pass walks them in. Built once per run and cut once per window count,
/// so a window finds its arrivals as one slice without scanning the
/// streams or looking an id up.
///
/// It is reused while the same item buffers come back (each stream's items
/// at the same address, with the same count); every arrival a window takes
/// from it is checked against its item (device id and window), and a
/// mismatch rebuilds it from the items. An edit in place that moves an
/// item into a window, leaving every arrival already there intact, is the
/// one change the checks do not see.
#[derive(Debug, Default)]
struct ArrivalIndex {
    /// Per stream: its items' address and count.
    streams: Vec<(usize, usize)>,
    /// Per item, streams concatenated: its device, or [`NO_DEVICE`];
    /// emptied by the cut, which is all that reads it.
    device_of: Vec<u32>,
    /// The window count `arrivals` is cut for; `0` before the first cut.
    windows: usize,
    /// Window `w`'s arrivals are `arrivals[starts[w]..starts[w + 1]]`.
    starts: Vec<usize>,
    arrivals: Vec<Arrival>,
}

impl ArrivalIndex {
    /// An index over `streams` whose items land on `device_of`.
    fn new(streams: &[LocationStream], device_of: Vec<u32>) -> Self {
        ArrivalIndex {
            streams: streams
                .iter()
                .map(|s| (s.items.as_ptr() as usize, s.items.len()))
                .collect(),
            device_of,
            ..ArrivalIndex::default()
        }
    }

    /// Whether the index was built over these item buffers.
    fn covers(&self, streams: &[LocationStream]) -> bool {
        self.streams.len() == streams.len()
            && (self.streams.iter().zip(streams))
                .all(|(&key, s)| key == (s.items.as_ptr() as usize, s.items.len()))
    }

    /// Groups the items by window of `windows`, then by device: two stable
    /// counting sorts, the second over the first's output.
    fn cut(&mut self, streams: &[LocationStream], devices: usize, windows: usize) {
        let device_of = std::mem::take(&mut self.device_of);
        let mut by_device = Vec::with_capacity(device_of.len());
        let mut devices_of = device_of.iter();
        for (s, stream) in streams.iter().enumerate() {
            for (i, &device) in (0..stream.items.len()).zip(&mut devices_of) {
                if device != NO_DEVICE {
                    let (stream, item) = (s as u32, i as u32);
                    by_device.push(Arrival {
                        device,
                        stream,
                        item,
                    });
                }
            }
        }
        let (by_device, _) = counting_sort(&by_device, devices, |a| a.device as usize);
        let window_of = |a: &Arrival| {
            let item = &streams[a.stream as usize].items[a.item as usize];
            item.date.window(windows)
        };
        let (arrivals, starts) = counting_sort(&by_device, windows, window_of);
        self.arrivals = arrivals;
        self.starts = starts;
        self.windows = windows;
    }

    /// Window `w`'s arrivals, when the index is cut for `windows` and
    /// every one of them still matches its item.
    fn window(
        &self,
        streams: &[LocationStream],
        state: &FleetState,
        w: usize,
        windows: usize,
    ) -> Option<Range<usize>> {
        if self.windows != windows {
            return None;
        }
        let range = self.starts[w]..self.starts[w + 1];
        let fits = self.arrivals[range.clone()].iter().all(|a| {
            let item = &streams[a.stream as usize].items[a.item as usize];
            item.date.window(windows) == w && state.id(a.device as usize) == item.device_id
        });
        fits.then_some(range)
    }
}

/// `items` stably reordered by `key` (below `keys`), and where each key's
/// run starts: `keys + 1` offsets.
fn counting_sort(
    items: &[Arrival],
    keys: usize,
    key: impl Fn(&Arrival) -> usize,
) -> (Vec<Arrival>, Vec<usize>) {
    let mut starts = vec![0usize; keys + 1];
    for a in items {
        starts[key(a) + 1] += 1;
    }
    for k in 0..keys {
        starts[k + 1] += starts[k];
    }
    let mut next = starts.clone();
    let mut sorted = vec![Arrival::default(); items.len()];
    for a in items {
        let k = key(a);
        sorted[next[k]] = *a;
        next[k] += 1;
    }
    (sorted, starts)
}

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

/// A contiguous run of participating devices, the buffers their output
/// goes to, and the worker scratch it uses.
struct Chunk<'w, 's> {
    slots: &'w mut [Slot],
    out: &'w mut ChunkOut<'s>,
    /// The devices' arrivals, concatenated in device order, and their
    /// outcomes.
    arrivals: &'w [Arrival],
    outcomes: &'w mut [Outcome],
    scratch: &'w mut Scratch,
}

/// Shared read-only context of one window's pass.
struct WindowCtx<'a, 's> {
    streams: &'s [LocationStream],
    arena: &'a VersionArena<BnPatch>,
    pools: &'a DevicePools,
    base_patch: &'a BnPatch,
    config: &'a DeviceConfig,
    /// The fleet's detector; it keeps no state, so each chunk runs a copy.
    detector: StreamDetector,
    /// The window's span, parent of the chunks' spans on worker threads.
    span: Option<u64>,
}

impl<'s> WindowCtx<'_, 's> {
    fn item(&self, a: &Arrival) -> &'s StreamItem {
        &self.streams[a.stream as usize].items[a.item as usize]
    }
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
    /// Where each window's arrivals are among the streams' items.
    index: ArrivalIndex,
    /// Per-device output buffers handed back by [`FleetSim::recycle`].
    spare: WindowParts<'static>,
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
        let devices: Vec<(String, String)> = devices.into_iter().collect();
        let pairs = devices.iter().map(|(id, loc)| (id.as_str(), loc.as_str()));
        let (state, _) = FleetState::new(pairs);
        Self::with_state(state, ArrivalIndex::default(), base_model, config)
    }

    /// Builds one device per distinct device id in `streams`, at the
    /// location of its first item. The pass that finds the devices also
    /// records the device of every item, so [`FleetSim::run_window`] over
    /// these streams looks no id up.
    pub fn from_streams(
        streams: &[LocationStream],
        base_model: &MlpResNet,
        config: &DeviceConfig,
    ) -> Self {
        let pairs = streams.iter().flat_map(|s| {
            s.items
                .iter()
                .map(|item| (item.device_id.as_str(), item.location.as_str()))
        });
        let (state, device_of) = FleetState::new(pairs);
        let index = ArrivalIndex::new(streams, device_of);
        Self::with_state(state, index, base_model, config)
    }

    fn with_state(
        state: FleetState,
        index: ArrivalIndex,
        base_model: &MlpResNet,
        config: &DeviceConfig,
    ) -> Self {
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
            index,
            spare: WindowParts::default(),
        }
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
        let mut out = WindowOutput::default();
        for (_, part) in self.process_window_at(streams, w, windows, rng) {
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
    /// device's output separately, as owned values under its index in
    /// [`FleetSim::device_ids`], ascending: [`FleetSim::run_window`] copied
    /// out.
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
        let parts = self.run_window_with_threads(streams, w, windows, rng, threads);
        let outputs = parts.iter().map(|p| (p.device(), p.to_output())).collect();
        self.recycle(parts);
        outputs
    }

    /// Hands a window's parts back, so the next window writes into their
    /// buffers.
    pub fn recycle(&mut self, parts: WindowParts<'_>) {
        self.spare = parts.recycle();
    }

    /// Drops what the fleet keeps only for its next window — the last
    /// parts' buffers and the arrival index — once no window follows. A
    /// later window rebuilds both.
    pub fn release_window_buffers(&mut self) {
        self.spare = WindowParts::default();
        self.index = ArrivalIndex::default();
    }

    /// Replays window `w` of `windows` into per-device parts, ascending by
    /// device index — the shape the transport needs, since every device
    /// uploads its own batch, and the one the orchestrator hands the
    /// exchange without naming a device. The parts reuse the buffers of
    /// the last parts handed to [`FleetSim::recycle`], and their rows
    /// borrow the streams' strings.
    pub fn run_window<'s, R: Rng + ?Sized>(
        &mut self,
        streams: &'s [LocationStream],
        w: usize,
        windows: usize,
        rng: &mut R,
    ) -> WindowParts<'s> {
        self.run_window_with_threads(streams, w, windows, rng, parallel::num_threads())
    }

    /// [`FleetSim::run_window`] with an explicit worker count.
    pub fn run_window_with_threads<'s, R: Rng + ?Sized>(
        &mut self,
        streams: &'s [LocationStream],
        w: usize,
        windows: usize,
        rng: &mut R,
        threads: usize,
    ) -> WindowParts<'s> {
        let span = nazar_obs::span_detail("detect", || format!("w={w} scheduler=event"));
        let started = std::time::Instant::now();
        let schedule_span = nazar_obs::span("detect.schedule");

        // The window's arrivals, device-major: a slice of the index, which
        // is rebuilt when it does not cover these streams or an arrival no
        // longer matches its item.
        let window = match self.arrivals(streams, w, windows) {
            Some(range) => range,
            None => {
                self.rebuild_index(streams);
                self.arrivals(streams, w, windows).unwrap_or(0..0)
            }
        };
        let arrivals = &self.index.arrivals[window];

        // One slot per participating device, ascending: a dedicated RNG
        // seed drawn from `rng` in that order — so no device's draws
        // depend on another's — and the device's sequence number.
        // On the virtual timeline item `k` of a device lands at its stream
        // day, `ITEM_SPACING_US` after item `k-1` — clamped forward so time
        // never runs backwards after the clock synced with the network
        // exchange; `last_at` is the window's latest arrival.
        let start_us = self.clock_us;
        let mut last_at = start_us;
        let mut parts: WindowParts<'s> = std::mem::take(&mut self.spare);
        let WindowParts {
            slots,
            chunks,
            outcomes,
        } = &mut parts;
        let seqs = self.state.seqs_mut();
        let mut first = 0;
        for run in arrivals.chunk_by(|a, b| a.device == b.device) {
            let mut next_free = start_us;
            for (k, a) in run.iter().enumerate() {
                let item = &streams[a.stream as usize].items[a.item as usize];
                let nominal =
                    u64::from(item.date.day_index()) * DAY_US + ITEM_SPACING_US * k as u64;
                let at = nominal.max(next_free);
                next_free = at + ITEM_SPACING_US;
                last_at = last_at.max(at);
            }
            let device = run[0].device;
            slots.push(Slot {
                device,
                arrivals: first..first + run.len(),
                seed: rng.next_u64(),
                seq: seqs[device as usize],
                ..Slot::default()
            });
            first += run.len();
        }
        outcomes.resize(arrivals.len(), Outcome::default());

        // Contiguous chunks, one scratch per chunk. Chunk boundaries depend
        // on the thread count but per-device results do not, so the merged
        // outcome is thread-count invariant.
        let participants = slots.len();
        let chunk_count = threads.clamp(1, participants.max(1));
        while self.scratches.len() < chunk_count {
            self.scratches.push(Scratch::new(&self.base_model));
        }
        if chunks.len() < chunk_count {
            chunks.resize_with(chunk_count, ChunkOut::default);
        }
        let per_chunk = participants.div_ceil(chunk_count).max(1);
        let mut rest = &mut outcomes[..];
        let chunks: Vec<Chunk<'_, 's>> = (slots.chunks_mut(per_chunk).enumerate())
            .zip(chunks.iter_mut().zip(&mut self.scratches))
            .map(|((c, slots), (out, scratch))| {
                let first = slots[0].arrivals.start;
                let end = slots[slots.len() - 1].arrivals.end;
                let (outcomes, tail) = std::mem::take(&mut rest).split_at_mut(end - first);
                rest = tail;
                for slot in slots.iter_mut() {
                    slot.chunk = c;
                }
                out.first = first;
                Chunk {
                    slots,
                    out,
                    arrivals: &arrivals[first..end],
                    outcomes,
                    scratch,
                }
            })
            .collect();
        drop(schedule_span);

        let ctx = WindowCtx {
            streams,
            arena: &self.arena,
            pools: &self.pools,
            base_patch: &self.base_patch,
            config: &self.config,
            detector: self.detector,
            span: span.id(),
        };
        parallel::par_map_with(chunks, threads, |chunk| run_chunk(chunk, &ctx));

        // Write the devices' sequence numbers back and count the window.
        let merge_span = nazar_obs::span("detect.merge");
        let seqs = self.state.seqs_mut();
        let mut uploads = 0;
        for slot in &parts.slots {
            seqs[slot.device as usize] = slot.seq;
            uploads += slot.uploads.len();
        }
        record_stats(&Tally::of(&parts.outcomes), uploads);
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

    /// Window `w`'s arrivals in the index, when the index covers `streams`,
    /// is cut for `windows` (cutting it if not) and still matches them.
    fn arrivals(
        &mut self,
        streams: &[LocationStream],
        w: usize,
        windows: usize,
    ) -> Option<Range<usize>> {
        if !self.index.covers(streams) {
            return None;
        }
        if w >= windows {
            return Some(0..0);
        }
        if self.index.windows != windows {
            if self.index.windows != 0 {
                // Cut for another window count, so its devices are gone.
                return None;
            }
            self.index.cut(streams, self.state.len(), windows);
        }
        self.index.window(streams, &self.state, w, windows)
    }

    /// Rebuilds the arrival index over `streams`, looking each item's
    /// device up by id.
    fn rebuild_index(&mut self, streams: &[LocationStream]) {
        let device_of = (streams.iter().flat_map(|s| &s.items))
            .map(|item| {
                let d = self.state.index_of(&item.device_id);
                d.map_or(NO_DEVICE, |d| d as u32)
            })
            .collect();
        self.index = ArrivalIndex::new(streams, device_of);
    }
}

/// Runs one chunk of devices on a worker thread: resolves every item's
/// model version, runs one stacked forward per selected version (in
/// [`FORWARD_ROWS_CAP`]-row pieces) over the whole chunk, then walks each
/// device's items in stream order through the detector and emission.
fn run_chunk<'s>(chunk: Chunk<'_, 's>, ctx: &WindowCtx<'_, 's>) {
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
    selected.extend(chunk.arrivals.iter().map(|a| {
        let item = ctx.item(a);
        (ctx.pools)
            .select(ctx.arena, a.device as usize, |meta| {
                item_matches(meta, item)
            })
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
                rows.extend_from_slice(&ctx.item(&chunk.arrivals[i]).features);
            }
            forward_rows(model, rows, piece.len(), ws, |row, prediction, msp| {
                passes[piece[row]] = (prediction, msp);
            });
        }
    }
    drop(forward_span);

    // A device's items are walked in stream order: its RNG draws and its
    // sequence numbers follow that order, as on a device serving them one
    // at a time. Its rows go onto the chunk's batch under a page segment
    // of its own, its id first; the page borrows the items' strings.
    let mut detector = ctx.detector;
    let out = chunk.out;
    out.rows.reset(&LOG_SCHEMA);
    out.uploads.clear();
    let mut i = 0; // chunk position of the device's first item
    for slot in chunk.slots {
        let arrivals = &chunk.arrivals[i..i + slot.arrivals.len()];
        slot.page = out.rows.page().len();
        out.rows.push_page(&ctx.item(&arrivals[0]).device_id);
        let uploads = out.uploads.len();
        let mut rng = SmallRng::seed_from_u64(slot.seed);
        for a in arrivals {
            let item = ctx.item(a);
            let (prediction, msp) = passes[i];
            slot.seq += 1;
            let drift = detector.observe(msp);
            let sample = emit_outputs(
                item,
                drift,
                ctx.config.sample_rate,
                slot.seq,
                &mut rng,
                &mut out.rows,
                slot.page,
            );
            chunk.outcomes[i] = Outcome::of(item, prediction, drift);
            out.uploads.extend(sample);
            i += 1;
        }
        slot.uploads = uploads..out.uploads.len();
    }
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
