//! The deterministic device↔cloud exchange: a single-threaded discrete-event
//! simulation on a virtual clock.
//!
//! [`Exchange`] owns one [`DeviceClient`] and one uplink/downlink
//! `SimLink` pair per device — plain columns indexed by a device's
//! position in the sorted id list — plus the cloud's [`IngestServer`].
//! Frames in flight are shared immutable bytes: a delivery, a link-level
//! duplicate and a retransmission are reference-count bumps. The
//! orchestrator drives it in two synchronous phases per window:
//!
//! 1. [`Exchange::upload_window_into`] — every device batches its coded
//!    drift-log rows and sampled inputs into sequence-numbered frames,
//!    each written once into the exchange's reused buffers and shared,
//!    and retransmits with bounded exponential backoff until acknowledged
//!    or abandoned (retry budget); the cloud parses each arriving frame
//!    once, its coded rows and page strings straight into the window's
//!    [`FrameDelivery`], whose buffers are reused from window to window
//!    and which [`FrameDelivery::ingest_into`] hands to the drift log.
//!    [`Exchange::upload_window_at`] takes owned batches, and
//!    [`Exchange::upload_window`] names them by id and returns the rows
//!    as entries;
//! 2. [`Exchange::deploy_to`] — the cloud pushes one encoded `VersionMeta` +
//!    `BnPatch` payload to each target device as chunked, resumable
//!    transfers with cumulative acknowledgements (go-back-N resume from the
//!    device's contiguous prefix). One transfer id names the pushed
//!    version, each chunk is framed and checksummed once, and every target
//!    and every resend gets those same frames; each device still verifies
//!    and acknowledges its own download, and reassembles it unless one
//!    chunk carries the whole payload. Equal acknowledgements share one
//!    frame too, and the cloud decodes each copy that arrives. Targets are
//!    device indices; [`Exchange::deploy`] is the same push addressed by
//!    id.
//!
//! Determinism: events are processed in `(virtual time, insertion id)`
//! order — an `EventQueue` keeps the events due now in a FIFO and later
//! ones in a binary heap, and pops the smaller front — all randomness
//! comes from `SmallRng`s seeded by the configured master seed and a
//! stable per-device hash, and nothing here touches wall clocks or
//! threads — so a run is bit-identical for a given seed across machines
//! and `NAZAR_NUM_THREADS` settings, and a perfect link delivers exactly
//! what direct `FleetSim` calls produce. A phase ends once nothing it
//! sent is live or in flight: the retry timers left then are dead, and
//! the clock moves to the latest of them, where popping each would have
//! left it.

use crate::client::{ClientAction, DecodeMemo, DeviceClient};
use crate::clock::VirtualClock;
use crate::config::{backoff_us, NetConfig};
use crate::link::{stable_hash, SimLink, Transmission};
use crate::server::IngestServer;
use crate::wire::{self, FrameBuffers, Message, UploadRef, UploadSink};
use nazar_device::{UploadedSample, LOG_SCHEMA};
use nazar_log::{CodedRows, DriftLog, DriftLogEntry, IngestReport, RowBatch};
use nazar_nn::BnPatch;
use nazar_obs::{Counter, Gauge};
use nazar_registry::VersionMeta;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::ops::Range;
use std::sync::Arc;

static FRAMES_SENT_UP: Counter = Counter::new("nazar_net_frames_sent_total", &[("dir", "up")]);
static FRAMES_SENT_DOWN: Counter = Counter::new("nazar_net_frames_sent_total", &[("dir", "down")]);
static FRAMES_LOST_UP: Counter = Counter::new("nazar_net_frames_lost_total", &[("dir", "up")]);
static FRAMES_LOST_DOWN: Counter = Counter::new("nazar_net_frames_lost_total", &[("dir", "down")]);
static WIRE_BYTES_UP: Counter = Counter::new("nazar_net_wire_bytes_total", &[("dir", "up")]);
static WIRE_BYTES_DOWN: Counter = Counter::new("nazar_net_wire_bytes_total", &[("dir", "down")]);
static RETRIES: Counter = Counter::new("nazar_net_retries_total", &[]);
static OUTBOX_DROPPED: Counter = Counter::new("nazar_net_outbox_dropped_total", &[]);
static UPLOAD_FAILURES: Counter = Counter::new("nazar_net_upload_failures_total", &[]);
static INGEST_DUPLICATES: Counter = Counter::new("nazar_net_ingest_duplicates_total", &[]);
static DECODE_ERRORS: Counter = Counter::new("nazar_net_decode_errors_total", &[]);
static CHUNK_RESENDS: Counter = Counter::new("nazar_net_chunk_resends_total", &[]);
static DEPLOY_FAILURES: Counter = Counter::new("nazar_net_deploy_failures_total", &[]);
static OUTBOX_DEPTH: Gauge = Gauge::new("nazar_net_outbox_depth", &[]);

/// Cumulative wire-level statistics of one exchange (one orchestrator run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetReport {
    /// Frames put on the wire, retransmissions included.
    pub frames_sent: u64,
    /// Frame copies that arrived (duplicates count separately).
    pub frames_delivered: u64,
    /// Frames dropped by the loss model.
    pub frames_lost: u64,
    /// Extra copies generated by the duplication model.
    pub frames_duplicated: u64,
    /// Frames delayed past their natural slot by the reorder model.
    pub frames_reordered: u64,
    /// Device→cloud bytes on the wire (lost frames included).
    pub wire_bytes_up: u64,
    /// Cloud→device bytes on the wire (lost frames included).
    pub wire_bytes_down: u64,
    /// Upload frame retransmissions.
    pub retries: u64,
    /// Upload batches dropped by outbox backpressure.
    pub outbox_dropped: u64,
    /// Upload batches abandoned after the retry budget.
    pub upload_failures: u64,
    /// Redelivered batches suppressed by idempotent ingest.
    pub ingest_duplicates: u64,
    /// Frames rejected by the wire decoder.
    pub decode_errors: u64,
    /// Deploy chunks retransmitted on stalls.
    pub chunk_resends: u64,
    /// Per-device deploy transfers abandoned after the retry budget, plus
    /// deploy targets the exchange was not built with.
    pub deploy_failures: u64,
}

impl NetReport {
    /// Total bytes on the wire, both directions.
    pub fn wire_bytes(&self) -> u64 {
        self.wire_bytes_up + self.wire_bytes_down
    }
}

/// What one window's upload phase delivered to the cloud, as strings:
/// [`FrameDelivery`]'s rows materialised by [`Exchange::upload_window`].
#[derive(Debug, Clone, Default)]
pub struct WindowDelivery {
    /// Drift-log rows that made it through, in `(device, seq)` order.
    pub entries: Vec<DriftLogEntry>,
    /// Sampled inputs that made it through, same order.
    pub uploads: Vec<UploadedSample>,
}

/// The rows of one accepted upload frame, as [`FrameDelivery`] keeps them.
#[derive(Debug, Clone)]
enum AcceptedRows {
    /// A layout-1 frame's rows as it parsed them: its page strings are
    /// strings `page` of the delivery's text, its rows `rows` of the
    /// delivery's row columns.
    Coded {
        page: Range<usize>,
        rows: Range<usize>,
    },
    /// A layout-0 frame's rows, materialised when it arrived.
    Keyed(Vec<DriftLogEntry>),
}

/// One accepted upload frame, as the ingest server queues it.
#[derive(Debug, Clone)]
struct Accepted {
    rows: AcceptedRows,
    samples: Vec<UploadedSample>,
}

/// What one window's upload phase delivered to the cloud: the rows of the
/// accepted upload frames in `(device, seq)` order and their sampled
/// inputs. Each frame is parsed once, as it arrives, its coded rows and a
/// copy of its page strings straight into buffers here that the window's
/// frames share, where they stay until they are ingested. A delivery
/// handed back to [`Exchange::upload_window_into`] keeps its buffers for
/// the next window.
#[derive(Debug, Clone, Default)]
pub struct FrameDelivery {
    /// In `(device, seq)` order.
    frames: Vec<AcceptedRows>,
    /// The coded frames' page strings, back to back.
    text: String,
    /// String `k` of `text` is `text[bounds[k]..bounds[k + 1]]`.
    bounds: Vec<usize>,
    /// The coded frames' rows: [`LOG_SCHEMA`] codes into their frame's
    /// page, row after row, with each row's flag and timestamp.
    codes: Vec<u32>,
    drift: Vec<bool>,
    timestamps: Vec<u64>,
    /// Sampled inputs that made it through, in `(device, seq)` order.
    pub uploads: Vec<UploadedSample>,
}

/// Page strings a frame's ingest resolves without a spill vector.
const INLINE_PAGE: usize = 16;

/// An arriving frame's parse target: its page strings borrowed, for its
/// sender, samples and keyed rows, and copied with its layout-1 rows
/// straight into the delivery's buffers.
struct FrameSink<'d, 'a> {
    page: &'d mut Vec<&'a str>,
    delivery: &'d mut FrameDelivery,
}

impl<'a> UploadSink<'a> for FrameSink<'_, 'a> {
    fn push_page(&mut self, s: &'a str) {
        self.page.push(s);
        let delivery = &mut *self.delivery;
        delivery.text.push_str(s);
        delivery.bounds.push(delivery.text.len());
    }

    fn page(&self) -> &[&'a str] {
        self.page
    }

    fn push_coded(&mut self, timestamp: u64, drift: bool, codes: &[u32]) {
        let delivery = &mut *self.delivery;
        delivery.codes.extend_from_slice(codes);
        delivery.drift.push(drift);
        delivery.timestamps.push(timestamp);
    }
}

impl FrameDelivery {
    /// Empties the delivery, keeping its buffers.
    fn clear(&mut self) {
        self.frames.clear();
        self.text.clear();
        self.bounds.clear();
        self.bounds.push(0);
        self.codes.clear();
        self.drift.clear();
        self.timestamps.clear();
        self.uploads.clear();
    }

    /// Where the next frame's page strings and rows will start, after
    /// [`FrameDelivery::clear`].
    fn end(&self) -> (usize, usize) {
        (self.bounds.len() - 1, self.drift.len())
    }

    /// The page strings and rows appended since `start`, an
    /// [`FrameDelivery::end`], as one coded frame.
    fn coded_since(&self, start: (usize, usize)) -> AcceptedRows {
        let (page, rows) = self.end();
        AcceptedRows::Coded {
            page: start.0..page,
            rows: start.1..rows,
        }
    }

    /// Drops the page strings and rows appended since `start`.
    fn truncate(&mut self, (page, rows): (usize, usize)) {
        self.bounds.truncate(page + 1);
        self.text.truncate(self.bounds[page]);
        self.codes.truncate(rows * LOG_SCHEMA.len());
        self.drift.truncate(rows);
        self.timestamps.truncate(rows);
    }

    /// Hands each frame's rows to `f`, in order: a coded frame's as rows
    /// over its page strings, a keyed frame's as entries.
    fn for_each_rows(&self, mut f: impl FnMut(Result<CodedRows<'_, &str>, &[DriftLogEntry]>)) {
        let (mut inline, mut spill) = ([""; INLINE_PAGE], Vec::new());
        for frame in &self.frames {
            let (page, rows) = match frame {
                AcceptedRows::Keyed(entries) => {
                    f(Err(entries));
                    continue;
                }
                AcceptedRows::Coded { page, rows } => (page, rows),
            };
            let strings: &mut [&str] = match inline.get_mut(..page.len()) {
                Some(strings) => strings,
                None => {
                    spill.resize(page.len(), "");
                    &mut spill[..page.len()]
                }
            };
            let bounds = &self.bounds[page.start..=page.end];
            for (string, bound) in strings.iter_mut().zip(bounds.windows(2)) {
                *string = &self.text[bound[0]..bound[1]];
            }
            let width = LOG_SCHEMA.len();
            f(Ok(CodedRows::new(
                &LOG_SCHEMA,
                strings,
                &self.codes[rows.start * width..rows.end * width],
                &self.drift[rows.clone()],
                &self.timestamps[rows.clone()],
            )));
        }
    }

    /// Appends every delivered row to `log`, frame by frame: coded rows
    /// through [`DriftLog::ingest_coded`], keyed rows through
    /// [`DriftLog::ingest_entries`] (which quarantines those the schema
    /// does not fit). Equals `log.ingest_batch(self.to_entries())`.
    pub fn ingest_into(&self, log: &mut DriftLog) -> IngestReport {
        let mut report = IngestReport::default();
        self.for_each_rows(|rows| {
            report += match rows {
                Ok(coded) => log.ingest_coded(coded),
                Err(entries) => log.ingest_entries(entries),
            };
        });
        report
    }

    /// Every delivered row as a drift-log entry, in order.
    pub fn to_entries(&self) -> Vec<DriftLogEntry> {
        let mut entries = Vec::new();
        self.for_each_rows(|rows| match rows {
            Ok(coded) => entries.extend(coded.to_entries()),
            Err(keyed) => entries.extend_from_slice(keyed),
        });
        entries
    }
}

/// The result of pushing one version to a set of target devices, each
/// named by `D`: its id ([`Exchange::deploy`]) or its index
/// ([`Exchange::deploy_to`]).
#[derive(Debug, Clone, Default)]
pub struct DeployDelivery<D = String> {
    /// Devices whose transfer completed, with the payload each decoded —
    /// installing the *device-decoded* copy keeps the simulation honest
    /// (it is bit-identical to the sent patch; the wire codec is exact).
    /// Devices whose reassembled bytes are equal share one decoded copy.
    pub delivered: Vec<(D, Arc<VersionMeta>, Arc<BnPatch>)>,
    /// Targets whose transfer was abandoned or that this exchange does not
    /// know, in id order (which is index order).
    pub failed: Vec<D>,
    /// Encoded deploy payload length (meta + patch), bytes.
    pub payload_len: usize,
}

#[derive(Debug)]
enum EventKind {
    /// A frame copy arrives at the cloud.
    DeliverUp { device: u32, frame: Arc<[u8]> },
    /// A frame copy arrives at a device.
    DeliverDown { device: u32, frame: Arc<[u8]> },
    /// Retry timer for an unacked upload frame.
    UploadRetry { device: u32, seq: u64 },
    /// Retry timer for a device's stalled deploy transfer.
    DeployRetry { device: u32 },
}

impl EventKind {
    fn is_delivery(&self) -> bool {
        matches!(
            self,
            EventKind::DeliverUp { .. } | EventKind::DeliverDown { .. }
        )
    }
}

#[derive(Debug)]
struct Event {
    at: u64,
    id: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.id == other.id
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
        // BinaryHeap is a max-heap; invert for earliest-first.
        (other.at, other.id).cmp(&(self.at, self.id))
    }
}

/// The pending events of one phase, popped in `(at, id)` order. An event
/// due at the current clock — every delivery over a zero-latency link — is
/// appended to `due`; a later one goes to `unsorted`, and from there to the
/// heap `later` when the next pop from `later` needs it. The clock never
/// goes back and ids only grow, so `due` is sorted as it is appended and
/// every unsorted event is later than the clock, hence than all of `due`;
/// a pop takes the smaller front of `due` and `later`: the order one
/// binary heap of every event gives. A retry timer that settles before
/// the clock moves — every timer of a perfect link's phase — is never
/// sifted.
#[derive(Debug, Default)]
struct EventQueue {
    due: VecDeque<Event>,
    later: BinaryHeap<Event>,
    unsorted: Vec<Event>,
    next_id: u64,
    /// Deliveries queued and not yet popped.
    in_flight: usize,
    /// The latest time an event was queued for.
    last_at: u64,
}

impl EventQueue {
    /// Queues `kind` at `at`, at or after `now`, the current clock.
    fn push(&mut self, now: u64, at: u64, kind: EventKind) {
        let id = self.next_id;
        self.next_id += 1;
        self.last_at = self.last_at.max(at);
        self.in_flight += kind.is_delivery() as usize;
        let event = Event { at, id, kind };
        if at == now {
            self.due.push_back(event);
        } else {
            self.unsorted.push(event);
        }
    }

    fn pop(&mut self) -> Option<Event> {
        let due_first = match (self.due.front(), self.later.peek()) {
            (Some(due), Some(later)) => (due.at, due.id) < (later.at, later.id),
            (due, _) => due.is_some(),
        };
        let event = if due_first {
            self.due.pop_front()
        } else {
            self.later.extend(self.unsorted.drain(..));
            self.later.pop()
        }?;
        self.in_flight -= event.kind.is_delivery() as usize;
        Some(event)
    }

    /// Whether a frame copy is still on its way.
    fn in_flight(&self) -> bool {
        self.in_flight > 0
    }

    /// Ends the phase: drops what is left — retry timers of frames and
    /// transfers that have settled, once nothing is in flight — and
    /// returns the latest time ever queued, where popping every event
    /// would have left the clock.
    fn finish(&mut self) -> u64 {
        self.due.clear();
        self.later.clear();
        self.unsorted.clear();
        (self.next_id, self.in_flight) = (0, 0);
        std::mem::take(&mut self.last_at)
    }
}

/// Cloud-side progress of one target's transfer.
#[derive(Debug)]
struct DeployXfer {
    target: u32,
    /// Contiguous bytes acknowledged by the device.
    acked: u32,
    attempts: u32,
    done: bool,
    failed: bool,
}

impl DeployXfer {
    /// Whether the transfer is neither done nor failed.
    fn is_live(&self) -> bool {
        !self.done && !self.failed
    }
}

/// One pushed version on the wire: what every target's transfer shares.
struct Push {
    transfer_id: u64,
    chunk: u32,
    /// The payload's chunks, each framed once; chunk `i` starts at byte
    /// `i * chunk`.
    frames: Vec<Arc<[u8]>>,
    /// The acknowledgements devices have sent, each framed once, by
    /// `(transfer_id, received)`.
    acks: BTreeMap<(u64, u32), Arc<[u8]>>,
    /// In target index order.
    xfers: Vec<DeployXfer>,
    /// Per device: its index in `xfers` (`NO_XFER` for a non-target).
    xfer_of: Vec<u32>,
}

const NO_XFER: u32 = u32::MAX;

impl Push {
    fn xfer_mut(&mut self, device: u32) -> Option<&mut DeployXfer> {
        self.xfers.get_mut(self.xfer_of[device as usize] as usize)
    }

    /// The frame acknowledging `received` bytes of `transfer_id`, framed
    /// once per push and shared by every device that sends it.
    fn ack_frame(&mut self, transfer_id: u64, received: u32) -> Arc<[u8]> {
        let frame = self.acks.entry((transfer_id, received)).or_insert_with(|| {
            let ack = Message::ChunkAck {
                transfer_id,
                received,
            };
            wire::encode_frame(&ack).into()
        });
        Arc::clone(frame)
    }
}

/// The device↔cloud transport fabric for one orchestrator run.
#[derive(Debug)]
pub struct Exchange {
    cfg: NetConfig,
    clock: VirtualClock,
    /// The running phase's events, taken for the phase; kept between
    /// phases for their buffers.
    events: EventQueue,
    next_transfer_id: u64,
    /// Device ids, sorted; a device's position here indexes `clients`,
    /// `up` and `down` and names it in every event.
    ids: Vec<String>,
    clients: Vec<DeviceClient>,
    server: IngestServer<Accepted>,
    /// The page of the upload frame being parsed, its buffer kept from
    /// frame to frame.
    page: Vec<&'static str>,
    /// The buffers every frame the exchange writes is written in.
    frames: FrameBuffers,
    /// The upload acknowledgements framed this window, by seq, ascending.
    acks: Vec<(u64, Arc<[u8]>)>,
    up: Vec<SimLink>,
    down: Vec<SimLink>,
    /// Decoded deploy payloads, shared by the clients of a broadcast.
    decoded: DecodeMemo,
    /// Jitter source for retry backoff (exchange-global: the event loop is
    /// deterministic, so one stream suffices).
    rng: SmallRng,
    report: NetReport,
}

impl Exchange {
    /// Builds the fabric for `device_ids` (sorted internally; insertion
    /// order does not matter).
    pub fn new(device_ids: impl IntoIterator<Item = String>, cfg: NetConfig) -> Self {
        let mut ids: Vec<String> = device_ids.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        let link = |id: &String, salt: u64| {
            SimLink::new(cfg.link, cfg.seed ^ stable_hash(id.as_bytes()) ^ salt)
        };
        Exchange {
            rng: SmallRng::seed_from_u64(cfg.seed ^ 0x9E37_79B9_7F4A_7C15),
            clock: VirtualClock::new(),
            events: EventQueue::default(),
            next_transfer_id: 0,
            clients: ids.iter().map(DeviceClient::new).collect(),
            server: IngestServer::for_devices(ids.len()),
            page: Vec::new(),
            frames: FrameBuffers::default(),
            acks: Vec::new(),
            up: ids.iter().map(|id| link(id, 0x5550)).collect(),
            down: ids.iter().map(|id| link(id, 0x444E)).collect(),
            decoded: DecodeMemo::default(),
            ids,
            cfg,
            report: NetReport::default(),
        }
    }

    /// The device ids, sorted and deduplicated: device `d` of
    /// [`Exchange::deploy_to`] is `device_ids()[d]`.
    pub fn device_ids(&self) -> &[String] {
        &self.ids
    }

    /// Cumulative wire statistics so far.
    pub fn report(&self) -> &NetReport {
        &self.report
    }

    /// The current virtual time, µs.
    pub fn clock_us(&self) -> u64 {
        self.clock.now_us()
    }

    /// Advances the virtual clock to `t_us` (never backwards). The
    /// orchestrator uses this to keep the exchange on the same timeline as
    /// the fleet: fleet windows advance the fleet
    /// clock, uploads and deployments advance this one, and each side syncs
    /// the other forward before handing work over.
    pub fn advance_clock_to(&mut self, t_us: u64) {
        self.clock.advance_to(t_us);
    }

    /// Frees the event queue's buffers, which the exchange keeps from
    /// phase to phase; a later phase allocates them again.
    pub fn release_event_buffers(&mut self) {
        self.events = EventQueue::default();
    }

    fn index_of(&self, id: &str) -> Option<u32> {
        self.ids
            .binary_search_by(|probe| probe.as_str().cmp(id))
            .ok()
            .map(|d| d as u32)
    }

    fn account_tx(&mut self, t: &Transmission, len: usize, upward: bool) {
        self.report.frames_sent += 1;
        if upward {
            self.report.wire_bytes_up += len as u64;
            FRAMES_SENT_UP.inc();
            WIRE_BYTES_UP.add(len as u64);
            if t.lost {
                FRAMES_LOST_UP.inc();
            }
        } else {
            self.report.wire_bytes_down += len as u64;
            FRAMES_SENT_DOWN.inc();
            WIRE_BYTES_DOWN.add(len as u64);
            if t.lost {
                FRAMES_LOST_DOWN.inc();
            }
        }
        if t.lost {
            self.report.frames_lost += 1;
        }
        if t.duplicated {
            self.report.frames_duplicated += 1;
        }
        if t.reordered {
            self.report.frames_reordered += 1;
        }
        self.report.frames_delivered += t.deliveries().len() as u64;
    }

    fn count_decode_error(&mut self) {
        self.report.decode_errors += 1;
        DECODE_ERRORS.inc();
    }

    fn send_up(&mut self, events: &mut EventQueue, device: u32, frame: Arc<[u8]>) {
        let now = self.clock.now_us();
        let t = self.up[device as usize].transmit(now, frame.len());
        self.account_tx(&t, frame.len(), true);
        for &at in t.deliveries() {
            let frame = Arc::clone(&frame);
            events.push(now, at, EventKind::DeliverUp { device, frame });
        }
    }

    fn send_down(&mut self, events: &mut EventQueue, device: u32, frame: Arc<[u8]>) {
        let now = self.clock.now_us();
        let t = self.down[device as usize].transmit(now, frame.len());
        self.account_tx(&t, frame.len(), false);
        for &at in t.deliveries() {
            let frame = Arc::clone(&frame);
            events.push(now, at, EventKind::DeliverDown { device, frame });
        }
    }

    /// Transmits upload frame `seq` of `device` and arms its retry timer.
    fn send_upload_frame(&mut self, events: &mut EventQueue, device: u32, seq: u64) {
        let Some((attempt, frame)) = self.clients[device as usize].transmit(seq) else {
            return; // acked or dropped in the meantime
        };
        if attempt > 1 {
            self.report.retries += 1;
            RETRIES.inc();
        }
        self.send_up(events, device, frame);
        let now = self.clock.now_us();
        let backoff = backoff_us(attempt, &mut self.rng);
        events.push(now, now + backoff, EventKind::UploadRetry { device, seq });
    }

    /// Runs one window's upload phase for batches named by device id: the
    /// string adapter over [`Exchange::upload_window_at`], returning the
    /// delivered rows as entries.
    ///
    /// # Panics
    ///
    /// Panics if a batch names a device this exchange was not built with.
    pub fn upload_window(
        &mut self,
        batches: Vec<(String, RowBatch, Vec<UploadedSample>)>,
    ) -> WindowDelivery {
        let mut by_index = Vec::with_capacity(batches.len());
        for (id, rows, samples) in batches {
            let Some(device) = self.index_of(&id) else {
                panic!("unknown device {id}");
            };
            by_index.push((device, rows, samples));
        }
        let delivery = self.upload_window_at(by_index);
        WindowDelivery {
            entries: delivery.to_entries(),
            uploads: delivery.uploads,
        }
    }

    /// Runs one window's upload phase: `batches` is the per-device window
    /// output `(device index, rows, samples)`, the device at its position
    /// in [`Exchange::device_ids`], in any order. Returns the frames the
    /// cloud accepted.
    ///
    /// # Panics
    ///
    /// Panics if an index is past the fleet.
    pub fn upload_window_at<S: AsRef<str>>(
        &mut self,
        mut batches: Vec<(u32, RowBatch<S>, Vec<UploadedSample>)>,
    ) -> FrameDelivery {
        batches.sort_by_key(|batch| batch.0);
        let mut delivery = FrameDelivery::default();
        let borrowed =
            (batches.iter()).map(|(d, rows, samples)| (*d, rows, 0..rows.len(), &samples[..]));
        self.upload_window_into(borrowed, &mut delivery);
        delivery
    }

    /// Runs one window's upload phase into `delivery`, emptied first and
    /// its buffers reused: `batches` is the per-device window output
    /// `(device index, batch, the device's rows of it, samples)`,
    /// ascending by device as `nazar_device::WindowParts` holds it — the
    /// order frames are queued and first sent in. A device's frames are written into the
    /// exchange's buffers and copied once into the bytes every copy in
    /// flight shares; the cloud parses each arriving frame once, and
    /// `delivery` keeps what an accepted one holds.
    ///
    /// # Panics
    ///
    /// Panics if an index is past the fleet.
    pub fn upload_window_into<'r, S: AsRef<str> + 'r>(
        &mut self,
        batches: impl IntoIterator<Item = (u32, &'r RowBatch<S>, Range<usize>, &'r [UploadedSample])>,
        delivery: &mut FrameDelivery,
    ) {
        delivery.clear();
        let mut events = std::mem::take(&mut self.events);

        // Queue and first-transmit in the given (device) order: a device's
        // frames go out before the next device queues, which sends what
        // queueing every device first would, in the same order. `live`
        // counts the frames on the outboxes: queued, and not yet acked,
        // given up or dropped by backpressure.
        let (mut max_depth, mut live) = (0usize, 0usize);
        for (device, batch, rows, samples) in batches {
            let client = &mut self.clients[device as usize];
            let (before, depth) = (client.dropped, client.outbox_depth());
            let seqs = client.queue_upload(&mut self.frames, batch, rows, samples);
            let newly_dropped = client.dropped - before;
            live += client.outbox_depth() - depth;
            max_depth = max_depth.max(client.outbox_depth());
            if newly_dropped > 0 {
                self.report.outbox_dropped += newly_dropped;
                OUTBOX_DROPPED.add(newly_dropped);
            }
            for seq in seqs {
                self.send_upload_frame(&mut events, device, seq);
            }
        }
        OUTBOX_DEPTH.set(max_depth as f64);

        // Run until every outbox is empty and no frame is in flight: every
        // queued seq keeps a retry timer until it is acknowledged or given
        // up, so the timers left then are all dead.
        while live > 0 || events.in_flight() {
            let Some(ev) = events.pop() else { break };
            self.clock.advance_to(ev.at);
            match ev.kind {
                EventKind::DeliverUp { device, frame } => {
                    let Some((seq, duplicate)) = self.accept_upload(device, &frame, delivery)
                    else {
                        continue;
                    };
                    if duplicate {
                        self.report.ingest_duplicates += 1;
                        INGEST_DUPLICATES.inc();
                    }
                    // Always (re-)ack so the client stops retrying.
                    let ack = self.ack_frame(seq);
                    self.send_down(&mut events, device, ack);
                }
                EventKind::DeliverDown { device, frame } => {
                    let client = &mut self.clients[device as usize];
                    match client.on_frame(&frame, &mut self.decoded) {
                        Ok(ClientAction::UploadAcked { .. }) => live -= 1,
                        Ok(_) => {}
                        Err(_) => self.count_decode_error(),
                    }
                }
                EventKind::UploadRetry { device, seq } => {
                    let client = &mut self.clients[device as usize];
                    let Some(attempts) = client.attempts_of(seq) else {
                        continue; // acked or dropped in the meantime
                    };
                    if attempts >= self.cfg.max_attempts {
                        client.give_up(seq);
                        live -= 1;
                        self.report.upload_failures += 1;
                        UPLOAD_FAILURES.inc();
                    } else {
                        self.send_upload_frame(&mut events, device, seq);
                    }
                }
                EventKind::DeployRetry { .. } => {} // only a deploy arms one
            }
        }
        self.clock.advance_to(events.finish());
        self.events = events;
        self.acks.clear();

        self.server.drain_window(|accepted| {
            delivery.frames.push(accepted.rows);
            delivery.uploads.extend(accepted.samples);
        });
    }

    /// The frame acknowledging upload `seq`, framed once a window and
    /// shared by every device that is sent it.
    fn ack_frame(&mut self, seq: u64) -> Arc<[u8]> {
        let at = match self.acks.binary_search_by_key(&seq, |ack| ack.0) {
            Ok(at) => at,
            Err(at) => {
                let frame = wire::encode_frame_with(&mut self.frames, &Message::UploadAck { seq });
                self.acks.insert(at, (seq, Arc::from(frame)));
                at
            }
        };
        Arc::clone(&self.acks[at].1)
    }

    /// Parses an upload-phase frame that reached the cloud over `device`'s
    /// uplink, whole and once, and hands an upload batch to the ingest
    /// server, its page and coded rows parsed straight into `delivery`'s
    /// buffers. Returns its seq, and whether the server had accepted it
    /// before, when it was an upload batch the cloud acks; a frame that
    /// does not parse, or names a sender this fabric was not built with,
    /// is counted as a decode error and leaves `delivery` as it was. A
    /// duplicate's rows stay in `delivery`'s buffers, named by no frame,
    /// until the next window empties them.
    fn accept_upload(
        &mut self,
        device: u32,
        frame: &[u8],
        delivery: &mut FrameDelivery,
    ) -> Option<(u64, bool)> {
        let mut page: Vec<&str> = std::mem::take(&mut self.page);
        let start = delivery.end();
        let sink = &mut FrameSink {
            page: &mut page,
            delivery,
        };
        let arrival = match parse_arrival(frame, sink) {
            // Not an upload-phase message; ignored.
            Ok(None) => None,
            Ok(Some((upload, samples))) => {
                // The frame names its sender: the device whose uplink
                // carried it, unless something forged the id. A name this
                // fabric was not built with has no ingest slot.
                let sender = if self.ids[device as usize] == upload.device_id {
                    Some(device)
                } else {
                    self.index_of(upload.device_id)
                };
                Some(sender.map(|sender| {
                    let rows = match upload.keyed {
                        // Keyed rows are entries: the page copy goes.
                        Some(entries) => {
                            delivery.truncate(start);
                            AcceptedRows::Keyed(entries)
                        }
                        None => delivery.coded_since(start),
                    };
                    (sender, upload.seq, Accepted { rows, samples })
                }))
            }
            Err(_) => Some(None),
        };
        // An emptied vector collected into one of the same layout keeps
        // its allocation.
        page.clear();
        self.page = page.into_iter().map(|_| "").collect();
        let Some((sender, seq, accepted)) = arrival? else {
            delivery.truncate(start);
            self.count_decode_error();
            return None;
        };
        let outcome = self.server.on_upload(sender as usize, seq, accepted);
        Some((seq, outcome.duplicate))
    }

    /// Pushes one version (meta + patch) to the devices named by
    /// `targets` as chunked resumable transfers; returns which devices
    /// completed the download (with the payload each decoded) and which
    /// were abandoned, by id. A device named twice gets one transfer; a
    /// target this exchange was not built with fails without a frame being
    /// sent. The ids are resolved once, then [`Exchange::deploy_to`] runs
    /// the push.
    pub fn deploy(
        &mut self,
        targets: &[String],
        meta: &VersionMeta,
        patch: &BnPatch,
    ) -> DeployDelivery {
        let mut known = Vec::with_capacity(targets.len());
        let mut unknown: Vec<&String> = Vec::new();
        for target in targets {
            match self.index_of(target) {
                Some(device) => known.push(device),
                None => unknown.push(target),
            }
        }
        unknown.sort_unstable();
        unknown.dedup();
        for _ in &unknown {
            self.count_deploy_failure();
        }
        let by_index = self.deploy_to(&known, meta, patch);

        let id = |device: u32| self.ids[device as usize].clone();
        let mut failed: Vec<String> = by_index.failed.into_iter().map(id).collect();
        failed.extend(unknown.into_iter().cloned());
        failed.sort_unstable();
        DeployDelivery {
            delivered: (by_index.delivered.into_iter())
                .map(|(device, meta, patch)| (id(device), meta, patch))
                .collect(),
            failed,
            payload_len: by_index.payload_len,
        }
    }

    /// Pushes one version (meta + patch) to the devices at `targets` (their
    /// positions in [`Exchange::device_ids`]) as chunked resumable
    /// transfers; returns which devices completed the download (with the
    /// payload each decoded) and which were abandoned, by index. A device
    /// named twice gets one transfer; an index past the fleet fails
    /// without a frame being sent.
    pub fn deploy_to(
        &mut self,
        targets: &[u32],
        meta: &VersionMeta,
        patch: &BnPatch,
    ) -> DeployDelivery<u32> {
        let payload = wire::encode_deploy_payload(meta, patch);
        let total = payload.len() as u32;
        let chunk = self.cfg.chunk_bytes.max(1) as u32;
        let transfer_id = self.next_transfer_id;
        self.next_transfer_id += 1;

        let mut sorted_targets = targets.to_vec();
        sorted_targets.sort_unstable();
        sorted_targets.dedup();
        let mut push = Push {
            transfer_id,
            chunk,
            frames: payload
                .chunks(chunk as usize)
                .enumerate()
                .map(|(i, data)| {
                    wire::encode_deploy_chunk(transfer_id, i as u32 * chunk, total, data).into()
                })
                .collect(),
            acks: BTreeMap::new(),
            xfers: Vec::with_capacity(sorted_targets.len()),
            xfer_of: vec![NO_XFER; self.ids.len()],
        };

        let mut events = std::mem::take(&mut self.events);
        let mut delivered = Vec::new();
        // Transfers neither done nor failed.
        let mut live = 0usize;
        for target in sorted_targets {
            let known = (target as usize) < self.ids.len();
            push.xfers.push(DeployXfer {
                target,
                acked: 0,
                attempts: 0,
                done: false,
                failed: !known,
            });
            if known {
                push.xfer_of[target as usize] = (push.xfers.len() - 1) as u32;
                live += 1;
                self.start_deploy_attempt(&mut events, &mut push, target);
            } else {
                self.count_deploy_failure();
            }
        }

        // Run until every transfer is done or failed and no frame is in
        // flight: the retry timers left then are all dead.
        while live > 0 || events.in_flight() {
            let Some(ev) = events.pop() else { break };
            self.clock.advance_to(ev.at);
            match ev.kind {
                EventKind::DeliverDown { device, frame } => {
                    let client = &mut self.clients[device as usize];
                    let ack = match client.on_frame(&frame, &mut self.decoded) {
                        Ok(ClientAction::SendChunkAck {
                            transfer_id,
                            received,
                        }) => push.ack_frame(transfer_id, received),
                        Ok(ClientAction::InstallPatch {
                            transfer_id,
                            meta,
                            patch,
                        }) => {
                            delivered.push((device, meta, patch));
                            if let Some(x) = push.xfer_mut(device) {
                                live -= x.is_live() as usize;
                                x.done = true;
                            }
                            push.ack_frame(transfer_id, total)
                        }
                        Ok(_) => continue,
                        Err(_) => {
                            self.count_decode_error();
                            continue;
                        }
                    };
                    self.send_up(&mut events, device, ack);
                }
                EventKind::DeliverUp { device, frame } => match wire::decode_frame(&frame) {
                    Ok(Message::ChunkAck {
                        transfer_id,
                        received,
                    }) if transfer_id == push.transfer_id => {
                        if let Some(x) = push.xfer_mut(device) {
                            x.acked = x.acked.max(received);
                            if x.acked >= total {
                                live -= x.is_live() as usize;
                                x.done = true;
                            }
                        }
                    }
                    Ok(_) => {}
                    Err(_) => self.count_decode_error(),
                },
                EventKind::DeployRetry { device } => {
                    let max_attempts = self.cfg.max_attempts;
                    match push.xfer_mut(device) {
                        Some(x) if x.is_live() => {
                            if x.attempts >= max_attempts {
                                x.failed = true;
                                live -= 1;
                                self.count_deploy_failure();
                            } else {
                                self.report.chunk_resends += 1;
                                CHUNK_RESENDS.inc();
                                self.start_deploy_attempt(&mut events, &mut push, device);
                            }
                        }
                        _ => {}
                    }
                }
                EventKind::UploadRetry { .. } => {} // only an upload arms one
            }
        }
        self.clock.advance_to(events.finish());
        self.events = events;

        let failed = push
            .xfers
            .iter()
            .filter(|x| !x.done)
            .map(|x| x.target)
            .collect();
        DeployDelivery {
            delivered,
            failed,
            payload_len: payload.len(),
        }
    }

    fn count_deploy_failure(&mut self) {
        self.report.deploy_failures += 1;
        DEPLOY_FAILURES.inc();
    }

    /// Sends `device` every chunk frame from its acknowledged prefix on
    /// and arms the transfer's retry timer.
    fn start_deploy_attempt(&mut self, events: &mut EventQueue, push: &mut Push, device: u32) {
        let Some(x) = push.xfer_mut(device) else {
            return;
        };
        x.attempts += 1;
        let attempt = x.attempts;
        // The chunk holding the first unacknowledged byte (realigned to its
        // boundary), then everything after it.
        let first = ((x.acked / push.chunk) as usize).min(push.frames.len());
        for frame in &push.frames[first..] {
            self.send_down(events, device, Arc::clone(frame));
        }
        let now = self.clock.now_us();
        let backoff = backoff_us(attempt, &mut self.rng);
        events.push(now, now + backoff, EventKind::DeployRetry { device });
    }
}

/// Parses an upload-phase frame whole — envelope, page, rows and samples
/// — with `sink` taking its page and coded rows: `Ok(None)` for a valid
/// frame of another message type.
fn parse_arrival<'a>(
    frame: &'a [u8],
    sink: &mut FrameSink<'_, 'a>,
) -> crate::error::Result<Option<(UploadRef<'a>, Vec<UploadedSample>)>> {
    let (msg_type, payload) = wire::open_frame(frame)?;
    if msg_type != wire::TYPE_UPLOAD_BATCH {
        return wire::decode_message(msg_type, payload).map(|_| None);
    }
    let upload = wire::parse_upload_into(payload, sink)?;
    let samples = upload.samples(sink.page)?;
    Ok(Some((upload, samples)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use nazar_log::Attribute;
    use nazar_nn::{MlpResNet, ModelArch};
    use proptest::prelude::*;

    fn version(risk: f64) -> (VersionMeta, BnPatch) {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut model = MlpResNet::new(ModelArch::tiny(32, 8), &mut rng);
        let meta = VersionMeta::new(vec![Attribute::new("weather", "fog")], risk);
        (meta, BnPatch::extract(&mut model))
    }

    fn set_links(ex: &mut Exchange, up: LinkConfig, down: LinkConfig) {
        for d in 0..ex.ids.len() {
            ex.up[d] = SimLink::new(up, d as u64);
            ex.down[d] = SimLink::new(down, 0x1000 + d as u64);
        }
    }

    /// Pushes version `risk` to every device; checks that each delivered
    /// payload is the one sent and returns the transfer id and length.
    fn push_all(ex: &mut Exchange, risk: f64) -> (u64, u32, usize) {
        let (meta, patch) = version(risk);
        let all: Vec<u32> = (0..ex.ids.len() as u32).collect();
        let transfer_id = ex.next_transfer_id;
        let delivery = ex.deploy_to(&all, &meta, &patch);
        for (_, got_meta, got_patch) in &delivery.delivered {
            assert_eq!((&**got_meta, &**got_patch), (&meta, &patch));
        }
        (
            transfer_id,
            delivery.payload_len as u32,
            delivery.delivered.len(),
        )
    }

    proptest! {
        /// Pushes at or after a clock that pops move forward, interleaved
        /// with pops, come out of an `EventQueue` in the order a binary
        /// heap of the same events gives; the queue counts the deliveries
        /// it holds, and ends at the latest time pushed.
        #[test]
        fn event_queue_pops_in_heap_order(
            ops in proptest::collection::vec((0u8..3, 0u64..4), 0..300)
        ) {
            let kind = |delivery: bool| match delivery {
                true => EventKind::DeliverUp { device: 0, frame: Arc::from(&[][..]) },
                false => EventKind::DeployRetry { device: 0 },
            };
            let mut queue = EventQueue::default();
            let mut heap = BinaryHeap::new();
            let (mut now, mut latest) = (0u64, 0u64);
            let pop_both = |queue: &mut EventQueue, heap: &mut BinaryHeap<Event>| {
                let got = queue.pop().map(|e| (e.at, e.id, e.kind.is_delivery()));
                let want = heap.pop().map(|e| (e.at, e.id, e.kind.is_delivery()));
                assert_eq!(got, want);
                got
            };
            for (op, delay) in ops {
                if op == 0 {
                    if let Some((at, ..)) = pop_both(&mut queue, &mut heap) {
                        now = now.max(at);
                    }
                    continue;
                }
                // Half the pushes are deliveries; a quarter are due now,
                // and the rest tie often.
                let at = now + delay;
                latest = latest.max(at);
                heap.push(Event { at, id: queue.next_id, kind: kind(op == 1) });
                queue.push(now, at, kind(op == 1));
                let deliveries = heap.iter().filter(|e| e.kind.is_delivery()).count();
                prop_assert_eq!(queue.in_flight, deliveries);
            }
            while pop_both(&mut queue, &mut heap).is_some() {}
            prop_assert!(!queue.in_flight());
            prop_assert_eq!(queue.finish(), latest);
        }
    }

    /// A clean push, a push whose acknowledgements are all lost while most
    /// chunks are too (every device is left holding part of it, or all),
    /// then a clean push, through one exchange: each client keeps only
    /// the transfer in progress and the last completed one, so the second
    /// push's partial downloads are gone once the third completes, and
    /// every delivered payload is the one sent.
    #[test]
    fn clients_keep_one_download_and_the_last_completed_transfer() {
        let ids: Vec<String> = (0..16).map(|i| format!("dev{i:02}")).collect();
        let cfg = NetConfig {
            chunk_bytes: 64,
            seed: 11,
            ..NetConfig::default()
        };
        let mut ex = Exchange::new(ids, cfg);

        let (first, len, delivered) = push_all(&mut ex, 1.5);
        assert_eq!(delivered, 16);
        assert!(len > 4 * 64, "the payload spans many chunks");
        for c in &ex.clients {
            assert_eq!(c.transfers(), (None, Some((first, len))));
        }

        let lossy = |loss| LinkConfig {
            loss,
            ..LinkConfig::perfect()
        };
        set_links(&mut ex, lossy(1.0), lossy(0.8));
        let (second, _, _) = push_all(&mut ex, 2.5);
        let open: Vec<Option<u64>> = ex.clients.iter().map(|c| c.transfers().0).collect();
        assert!(open.contains(&Some(second)), "some transfers are abandoned");
        assert!(open.iter().all(|&d| d.is_none() || d == Some(second)));

        set_links(&mut ex, LinkConfig::perfect(), LinkConfig::perfect());
        let (third, len, delivered) = push_all(&mut ex, 3.5);
        assert_eq!(delivered, 16);
        for c in &ex.clients {
            assert_eq!(c.transfers(), (None, Some((third, len))));
        }
    }
}
