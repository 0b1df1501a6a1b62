//! The versioned binary wire protocol.
//!
//! Every message travels as one **frame**:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "NZRF"
//! 4       1     protocol version (currently 2; any other is refused)
//! 5       1     message type
//! 6       4     payload length (u32 LE)
//! 10      n     payload
//! 10+n    4     CRC-32 (IEEE) over bytes [4, 10+n) — version, type, length, payload
//! ```
//!
//! All integers are little-endian; `f32`/`f64` travel as their raw LE bit
//! patterns, so numeric round trips are *exact* (bitwise), which is what
//! keeps a perfect link bit-identical to direct in-process `FleetSim`
//! calls. Decoding never panics: every violation surfaces as a
//! [`NetError`].
//!
//! Downward payloads (`UploadAck`, `DeployChunk`, the deploy payload) and
//! `ChunkAck` use fixed-width fields and `u32` length + UTF-8 strings. The
//! upload batch — the one message a data plan pays for per inference — is
//! compact instead: LEB128 varints, and every string written once into a
//! **batch-local page** that rows and samples point into by code.
//!
//! ```text
//! upload-batch payload
//!   varint   seq
//!   u8       layout: 1 = schema rows, 0 = keyed rows
//!   page     varint count (>= 1), then count x (varint length, UTF-8 bytes);
//!            entry 0 is the sending device's id
//!   rows     varint count, then per row:
//!              varint  timestamp - previous row's (wrapping; first from 0)
//!              u8      drift flag, 0 or 1
//!              attrs   (below)
//!   samples  varint count, then per sample:
//!              varint  feature count, then raw LE `f32` bits
//!              attrs   (below)
//!              u16     day index
//!              varint  label
//!              varint  cause: 0 = none, else 1 + page code of its name
//!   attrs    layout 1: one varint page code per `LOG_SCHEMA` column, in
//!                      order; no key is written
//!            layout 0: varint count, then count x (key code, value code)
//! ```
//!
//! Layout 1 is what devices send: every row's and sample's keys are exactly
//! [`nazar_device::LOG_SCHEMA`], so a row is a timestamp delta, a flag and
//! three one-byte codes. Layout 0 exists because the codec must round-trip
//! *every* [`DriftLogEntry`] exactly — a wrong key, a missing column, a
//! duplicate key or an empty string has to reach the cloud's quarantine,
//! not die on the wire. The encoder picks the layout from the rows it is
//! handed.
//!
//! One encoder, one parser. A device's rows reach the encoder as a range
//! of a coded [`RowBatch`] ([`encode_upload_rows`]), the string path's as
//! entries ([`encode_upload_batch`]); both run the same encoder and write
//! the same bytes. A sender that keeps a [`FrameBuffers`] writes every
//! frame into it ([`encode_upload_rows_with`], [`encode_frame_with`]) and
//! allocates only the copy it shares the frame as. The cloud reads an
//! upload payload in place with one parser, which hands the page and
//! layout-1 rows to a sink: a `RowBatch<&str>` that borrows the frame's
//! strings ([`parse_upload`]), or the exchange's window buffers, which
//! keep them. [`decode_frame`] is that parser plus string
//! materialisation, so both refuse a frame with the same [`NetError`].

use crate::error::{NetError, Result};
use nazar_data::{Corruption, SimDate};
use nazar_device::{UploadedSample, LOG_SCHEMA};
pub use nazar_log::crc::crc32;
use nazar_log::varint::{self, VarintError};
use nazar_log::{Attribute, DriftLogEntry, RowBatch};
use nazar_nn::{BnLayerState, BnPatch};
use nazar_registry::VersionMeta;
use nazar_tensor::Tensor;
use std::collections::HashMap;
use std::ops::Range;

/// The frame magic.
pub const MAGIC: [u8; 4] = *b"NZRF";
/// The protocol version this build speaks.
pub const VERSION: u8 = 2;
/// Fixed per-frame overhead: magic + version + type + length + CRC trailer.
pub const FRAME_OVERHEAD: usize = 4 + 1 + 1 + 4 + 4;

/// Hard cap on decoded collection sizes, so a corrupt length field cannot
/// ask the decoder to allocate gigabytes.
const MAX_ELEMS: usize = 1 << 24;

// ---------------------------------------------------------------------------
// Byte-level writer / reader
// ---------------------------------------------------------------------------

/// Append-only little-endian byte writer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A writer with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Consumes the writer, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16` LE.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32` LE.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` LE.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f32` as its raw LE bits.
    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its raw LE bits.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an unsigned LEB128 varint.
    pub fn put_varint(&mut self, v: u64) {
        varint::put_varint(&mut self.buf, v);
    }

    /// Appends raw bytes (no length prefix).
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v.as_bytes());
    }
}

/// Bounds-checked little-endian reader over a byte slice.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(NetError::Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let Some((head, _)) = self.buf[self.pos..].split_first_chunk::<N>() else {
            return Err(NetError::Truncated {
                needed: N,
                remaining: self.remaining(),
            });
        };
        self.pos += N;
        Ok(*head)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(u8::from_le_bytes(self.take_array()?))
    }

    /// Reads a `u16` LE.
    pub fn get_u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take_array()?))
    }

    /// Reads a `u32` LE.
    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    /// Reads a `u64` LE.
    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// Reads an `f32` from raw LE bits.
    pub fn get_f32(&mut self) -> Result<f32> {
        Ok(f32::from_le_bytes(self.take_array()?))
    }

    /// Reads an `f64` from raw LE bits.
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take_array()?))
    }

    /// Reads an unsigned LEB128 varint (at most ten bytes, no overflow).
    pub fn get_varint(&mut self) -> Result<u64> {
        varint::get_varint(self.buf, &mut self.pos).map_err(|err| match err {
            VarintError::Truncated => NetError::Truncated {
                needed: 1,
                remaining: 0,
            },
            VarintError::Overflow => NetError::Malformed("varint overflows u64"),
        })
    }

    /// Reads `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String> {
        let n = self.get_u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| NetError::Utf8)
    }

    fn get_count(&mut self, what: &'static str) -> Result<usize> {
        let n = self.get_u32()? as usize;
        if n > MAX_ELEMS {
            return Err(NetError::Malformed(what));
        }
        Ok(n)
    }

    /// A varint collection size, capped like [`Reader::get_count`].
    fn get_varint_count(&mut self, what: &'static str) -> Result<usize> {
        match self.get_varint()? {
            n if n <= MAX_ELEMS as u64 => Ok(n as usize),
            _ => Err(NetError::Malformed(what)),
        }
    }

    /// A varint-length string of the upload page, borrowed from the frame.
    fn get_page_str(&mut self) -> Result<&'a str> {
        let n = self.get_varint_count("page string length")?;
        std::str::from_utf8(self.take(n)?).map_err(|_| NetError::Utf8)
    }

    /// A varint code into `page`, resolved.
    fn get_paged<'p>(&mut self, page: &[&'p str]) -> Result<&'p str> {
        paged(page, self.get_varint()?)
    }

    /// Errors unless every byte was consumed (frames must not carry slack).
    pub fn finish(&self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(NetError::Malformed("trailing bytes after message"));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

/// One device→cloud or cloud→device message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Device→cloud: a batch of drift-log entries and sampled inputs,
    /// identified by a per-device sequence number (idempotency key).
    UploadBatch {
        /// Sender device id.
        device_id: String,
        /// Per-device monotonically increasing batch number.
        seq: u64,
        /// Drift-log rows in this batch.
        entries: Vec<DriftLogEntry>,
        /// Sampled inputs riding along for adaptation.
        samples: Vec<UploadedSample>,
    },
    /// Cloud→device: acknowledges an [`Message::UploadBatch`] by seq.
    UploadAck {
        /// Acknowledged batch number.
        seq: u64,
    },
    /// Cloud→device: one chunk of a deploy payload
    /// (`encode_deploy_payload`), resumable by offset.
    DeployChunk {
        /// Transfer identifier: one per pushed version, shared by every
        /// target device (a download is identified by device + transfer).
        transfer_id: u64,
        /// Byte offset of this chunk within the payload.
        offset: u32,
        /// Total payload length, repeated on every chunk so any one chunk
        /// can start a transfer.
        total_len: u32,
        /// The chunk bytes.
        data: Vec<u8>,
    },
    /// Device→cloud: cumulative acknowledgement of a deploy transfer —
    /// `received` is the contiguous prefix length held by the device, the
    /// resume point after a lost chunk.
    ChunkAck {
        /// Transfer identifier being acknowledged.
        transfer_id: u64,
        /// Contiguous bytes received from offset 0.
        received: u32,
    },
}

// -- field codecs -----------------------------------------------------------

fn put_attrs(w: &mut Writer, attrs: &[Attribute]) {
    w.put_u32(attrs.len() as u32);
    for a in attrs {
        w.put_str(&a.key);
        w.put_str(&a.value);
    }
}

fn get_attrs(r: &mut Reader<'_>) -> Result<Vec<Attribute>> {
    let n = r.get_count("attribute count")?;
    let mut attrs = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        let key = r.get_str()?;
        let value = r.get_str()?;
        attrs.push(Attribute { key, value });
    }
    Ok(attrs)
}

/// Encodes version metadata into `w`.
pub fn put_meta(w: &mut Writer, m: &VersionMeta) {
    put_attrs(w, &m.attrs);
    w.put_f64(m.risk_ratio);
}

/// Decodes version metadata.
pub fn get_meta(r: &mut Reader<'_>) -> Result<VersionMeta> {
    let attrs = get_attrs(r)?;
    let risk_ratio = r.get_f64()?;
    // Re-canonicalize through the constructor so a hand-forged frame cannot
    // smuggle an unsorted attribute set past pool consolidation.
    Ok(VersionMeta::new(attrs, risk_ratio))
}

fn put_bn_vec(w: &mut Writer, t: &Tensor) {
    w.put_u32(t.len() as u32);
    for &v in t.data() {
        w.put_f32(v);
    }
}

fn get_bn_vec(r: &mut Reader<'_>) -> Result<Tensor> {
    let n = r.get_count("bn vector length")?;
    let mut data = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        data.push(r.get_f32()?);
    }
    Tensor::from_vec(data, &[n]).map_err(|_| NetError::Malformed("bn vector shape"))
}

/// Encodes a BN patch into `w`.
///
/// The layout is the contract behind [`BnPatch::encoded_len`]: a `u16`
/// layer count, then per layer four length-prefixed `f32` vectors
/// (γ, β, running mean, running variance).
pub fn put_patch(w: &mut Writer, p: &BnPatch) {
    w.put_u16(p.num_layers() as u16);
    for l in p.layers() {
        put_bn_vec(w, &l.gamma);
        put_bn_vec(w, &l.beta);
        put_bn_vec(w, &l.running_mean);
        put_bn_vec(w, &l.running_var);
    }
}

/// Decodes a BN patch.
pub fn get_patch(r: &mut Reader<'_>) -> Result<BnPatch> {
    let layers = r.get_u16()? as usize;
    let mut out = Vec::with_capacity(layers.min(256));
    for _ in 0..layers {
        let gamma = get_bn_vec(r)?;
        let beta = get_bn_vec(r)?;
        let running_mean = get_bn_vec(r)?;
        let running_var = get_bn_vec(r)?;
        out.push(BnLayerState {
            gamma,
            beta,
            running_mean,
            running_var,
        });
    }
    Ok(BnPatch::from_layers(out))
}

/// Encodes the full deploy payload (meta + patch) that the chunked
/// transfer ships.
pub fn encode_deploy_payload(meta: &VersionMeta, patch: &BnPatch) -> Vec<u8> {
    let mut w = Writer::with_capacity(64 + patch.encoded_len());
    put_meta(&mut w, meta);
    put_patch(&mut w, patch);
    w.into_bytes()
}

/// Decodes a reassembled deploy payload.
pub fn decode_deploy_payload(bytes: &[u8]) -> Result<(VersionMeta, BnPatch)> {
    let mut r = Reader::new(bytes);
    let meta = get_meta(&mut r)?;
    let patch = get_patch(&mut r)?;
    r.finish()?;
    Ok((meta, patch))
}

// -- frame codec ------------------------------------------------------------

/// The message-type byte of a [`Message::UploadBatch`] frame.
pub const TYPE_UPLOAD_BATCH: u8 = 1;
const TYPE_UPLOAD_ACK: u8 = 2;
/// The message-type byte of a [`Message::DeployChunk`] frame.
pub const TYPE_DEPLOY_CHUNK: u8 = 3;
const TYPE_CHUNK_ACK: u8 = 4;

/// Offset of the payload within a frame (magic + version + type + length).
const PAYLOAD_AT: usize = 10;

/// Starts a frame of `msg_type` in `w`, emptied first: the header with
/// its length left open, and room for `payload_cap` payload bytes.
fn begin_frame(w: &mut Writer, msg_type: u8, payload_cap: usize) {
    w.buf.clear();
    w.buf.reserve(FRAME_OVERHEAD + payload_cap);
    w.put_bytes(&MAGIC);
    w.put_u8(VERSION);
    w.put_u8(msg_type);
    w.put_u32(0);
}

/// Closes a frame begun by [`begin_frame`]: fills in the payload length
/// and appends the CRC trailer.
fn seal_frame(w: &mut Writer) {
    let bytes = &mut w.buf;
    let payload_len = (bytes.len() - PAYLOAD_AT) as u32;
    bytes[6..PAYLOAD_AT].copy_from_slice(&payload_len.to_le_bytes());
    let crc = crc32(&bytes[4..]);
    bytes.extend_from_slice(&crc.to_le_bytes());
}

/// The encoder's buffers, kept from frame to frame: a frame is written
/// into them and never grows a buffer of its own, so a sender that keeps
/// one pays one allocation a frame — the copy it shares the bytes as.
#[derive(Debug, Default)]
pub struct FrameBuffers {
    /// The frame being written.
    frame: Writer,
    /// An upload's rows and samples, written before the page they fill.
    body: Writer,
    /// An upload's page under construction, emptied between frames.
    page: Vec<&'static str>,
}

impl FrameBuffers {
    /// The last frame written.
    pub fn frame(&self) -> &[u8] {
        &self.frame.buf
    }

    /// The last frame written, taken out of the buffers.
    fn take_frame(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.frame.buf)
    }
}

/// Past this many strings the upload page is probed through a map instead
/// of scanned: a device's own batch holds a handful, a frame mixing many
/// devices' rows does not.
const PAGE_SCAN_MAX: usize = 16;

/// The string page of one upload batch under construction: each distinct
/// string gets the next code, in first-use order.
struct PageBuilder<'a> {
    strings: Vec<&'a str>,
    /// Complete exactly while `strings` is longer than [`PAGE_SCAN_MAX`].
    index: HashMap<&'a str, u32>,
    /// The code each of the first attribute slots resolved to last: a
    /// column mostly repeats its previous row's value.
    hints: [u32; 8],
}

impl<'a> PageBuilder<'a> {
    /// A page that starts with `device_id`, built in `strings` (emptied).
    fn new(device_id: &'a str, mut strings: Vec<&'a str>) -> Self {
        strings.clear();
        strings.push(device_id);
        PageBuilder {
            strings,
            index: HashMap::new(),
            hints: [0; 8],
        }
    }

    fn code(&mut self, s: &'a str) -> u32 {
        let next = self.strings.len() as u32;
        let code = if self.strings.len() > PAGE_SCAN_MAX {
            *self.index.entry(s).or_insert(next)
        } else {
            let found = self.strings.iter().position(|p| *p == s);
            found.map_or(next, |i| i as u32)
        };
        if code == next {
            self.strings.push(s);
            if self.strings.len() == PAGE_SCAN_MAX + 1 {
                // Sized for a full frame of distinct strings, so the map
                // never rehashes.
                self.index.reserve(8 * PAGE_SCAN_MAX);
                self.index
                    .extend((0..).zip(&self.strings).map(|(i, p)| (*p, i)));
            }
        }
        code
    }

    /// [`PageBuilder::code`], trying what `slot` resolved to last first.
    fn code_at(&mut self, slot: usize, s: &'a str) -> u32 {
        let Some(&hint) = self.hints.get(slot) else {
            return self.code(s);
        };
        if self.strings[hint as usize] == s {
            return hint;
        }
        let code = self.code(s);
        self.hints[slot] = code;
        code
    }
}

/// The page string `code` names.
fn paged<'p>(page: &[&'p str], code: u64) -> Result<&'p str> {
    usize::try_from(code)
        .ok()
        .and_then(|code| page.get(code).copied())
        .ok_or(NetError::Malformed("page code outside the page"))
}

/// Whether `attrs` carries exactly the [`LOG_SCHEMA`] keys, in order.
fn is_schema_row(attrs: &[Attribute]) -> bool {
    attrs.len() == LOG_SCHEMA.len() && attrs.iter().zip(LOG_SCHEMA).all(|(a, key)| a.key == key)
}

/// An attribute list as the encoder reads it: `(key, value)` in order.
fn pairs(attrs: &[Attribute]) -> impl ExactSizeIterator<Item = (&str, &str)> {
    attrs.iter().map(|a| (a.key.as_str(), a.value.as_str()))
}

fn put_paged_attrs<'a>(
    w: &mut Writer,
    page: &mut PageBuilder<'a>,
    attrs: impl ExactSizeIterator<Item = (&'a str, &'a str)>,
    schema_rows: bool,
) {
    if !schema_rows {
        w.put_varint(attrs.len() as u64);
    }
    for (i, (key, value)) in attrs.enumerate() {
        if !schema_rows {
            w.put_varint(u64::from(page.code_at(2 * i + 1, key)));
        }
        w.put_varint(u64::from(page.code_at(2 * i, value)));
    }
}

fn get_paged_attrs(r: &mut Reader<'_>, page: &[&str], schema_rows: bool) -> Result<Vec<Attribute>> {
    if schema_rows {
        return LOG_SCHEMA
            .iter()
            .map(|key| Ok(Attribute::new(*key, r.get_paged(page)?)))
            .collect();
    }
    let n = r.get_varint_count("attribute count")?;
    let mut attrs = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        let key = r.get_paged(page)?;
        attrs.push(Attribute::new(key, r.get_paged(page)?));
    }
    Ok(attrs)
}

/// The rows of one upload frame as the one encoder reads them: keyed
/// entries, or a range of a coded batch.
trait FrameRows {
    /// Number of rows.
    fn count(&self) -> usize;
    /// Row `i`'s timestamp and drift flag.
    fn head(&self, i: usize) -> (u64, bool);
    /// Row `i`'s attributes, `(key, value)` in order.
    fn attrs(&self, i: usize) -> impl ExactSizeIterator<Item = (&str, &str)>;
    /// Whether every row carries exactly the [`LOG_SCHEMA`] keys, in order.
    fn schema_rows(&self) -> bool;
}

impl FrameRows for [DriftLogEntry] {
    fn count(&self) -> usize {
        self.len()
    }

    fn head(&self, i: usize) -> (u64, bool) {
        (self[i].timestamp, self[i].drift)
    }

    fn attrs(&self, i: usize) -> impl ExactSizeIterator<Item = (&str, &str)> {
        pairs(&self[i].attrs)
    }

    fn schema_rows(&self) -> bool {
        self.iter().all(|e| is_schema_row(&e.attrs))
    }
}

/// Rows `range` of a coded batch.
struct BatchRows<'r, S> {
    rows: &'r RowBatch<S>,
    range: Range<usize>,
}

impl<S: AsRef<str>> FrameRows for BatchRows<'_, S> {
    fn count(&self) -> usize {
        self.range.len()
    }

    fn head(&self, i: usize) -> (u64, bool) {
        let row = self.range.start + i;
        (self.rows.timestamps()[row], self.rows.drift_flags()[row])
    }

    fn attrs(&self, i: usize) -> impl ExactSizeIterator<Item = (&str, &str)> {
        let (page, codes) = (self.rows.page(), self.rows.row_codes(self.range.start + i));
        let keys = self.rows.keys().iter().zip(codes);
        keys.map(move |(key, &code)| (*key, page[code as usize].as_ref()))
    }

    fn schema_rows(&self) -> bool {
        // A frame of samples alone carries none of the batch's keys.
        self.range.is_empty() || self.rows.keys() == LOG_SCHEMA
    }
}

/// The one upload-frame encoder (payload layout in the module docs),
/// writing into `bufs`. The page is numbered per frame in first-use order
/// — the device id, then rows' and samples' strings as the body meets
/// them — whatever page the rows came from.
fn encode_upload<'a, R: FrameRows + ?Sized>(
    bufs: &mut FrameBuffers,
    device_id: &'a str,
    seq: u64,
    rows: &'a R,
    samples: &'a [UploadedSample],
) {
    let schema_rows = rows.schema_rows() && samples.iter().all(|s| is_schema_row(&s.attrs));
    // Rows and samples first, into the body buffer: the page they fill
    // goes on the wire ahead of them.
    let mut page = PageBuilder::new(device_id, std::mem::take(&mut bufs.page));
    let body = &mut bufs.body;
    body.buf.clear();
    body.put_varint(rows.count() as u64);
    let mut previous = 0u64;
    for i in 0..rows.count() {
        let (timestamp, drift) = rows.head(i);
        body.put_varint(timestamp.wrapping_sub(previous));
        previous = timestamp;
        body.put_u8(drift as u8);
        put_paged_attrs(body, &mut page, rows.attrs(i), schema_rows);
    }
    body.put_varint(samples.len() as u64);
    for s in samples {
        body.put_varint(s.features.len() as u64);
        for &f in &s.features {
            body.put_f32(f);
        }
        put_paged_attrs(body, &mut page, pairs(&s.attrs), schema_rows);
        body.put_u16(s.date.day_index());
        body.put_varint(s.label as u64);
        body.put_varint(match s.true_cause {
            None => 0,
            Some(c) => 1 + u64::from(page.code(c.name())),
        });
    }

    let page_bytes: usize = page.strings.iter().map(|p| p.len() + 2).sum();
    let w = &mut bufs.frame;
    begin_frame(w, TYPE_UPLOAD_BATCH, 16 + page_bytes + body.len());
    w.put_varint(seq);
    w.put_u8(schema_rows as u8);
    w.put_varint(page.strings.len() as u64);
    for p in &page.strings {
        w.put_varint(p.len() as u64);
        w.put_bytes(p.as_bytes());
    }
    w.put_bytes(&body.buf);
    seal_frame(w);
    // The page's vector goes back emptied; the same layout on both sides,
    // so it is reused in place.
    let mut strings = page.strings;
    strings.clear();
    bufs.page = strings.into_iter().map(|_| "").collect();
}

/// Encodes a [`Message::UploadBatch`] frame from borrowed entries: the
/// string adapter over the one encoder.
pub fn encode_upload_batch(
    device_id: &str,
    seq: u64,
    entries: &[DriftLogEntry],
    samples: &[UploadedSample],
) -> Vec<u8> {
    let mut bufs = FrameBuffers::default();
    encode_upload(&mut bufs, device_id, seq, entries, samples);
    bufs.take_frame()
}

/// Encodes an upload frame from rows `range` of a coded batch: the bytes
/// [`encode_upload_batch`] writes for those rows' entries. A batch over
/// [`LOG_SCHEMA`] with schema-keyed samples travels as layout 1; any other
/// keys as layout 0, each row naming them.
///
/// # Panics
///
/// Panics if `range` reaches past the batch's rows.
pub fn encode_upload_rows<S: AsRef<str>>(
    device_id: &str,
    seq: u64,
    rows: &RowBatch<S>,
    range: Range<usize>,
    samples: &[UploadedSample],
) -> Vec<u8> {
    let mut bufs = FrameBuffers::default();
    encode_upload_rows_with(&mut bufs, device_id, seq, rows, range, samples);
    bufs.take_frame()
}

/// [`encode_upload_rows`] into `bufs`, whose buffers it reuses; the frame
/// is [`FrameBuffers::frame`] until the next one is written.
///
/// # Panics
///
/// Panics if `range` reaches past the batch's rows.
pub fn encode_upload_rows_with<'b, S: AsRef<str>>(
    bufs: &'b mut FrameBuffers,
    device_id: &str,
    seq: u64,
    rows: &RowBatch<S>,
    range: Range<usize>,
    samples: &[UploadedSample],
) -> &'b [u8] {
    assert!(range.end <= rows.len(), "rows within the batch");
    encode_upload(bufs, device_id, seq, &BatchRows { rows, range }, samples);
    bufs.frame()
}

/// An upload-batch payload parsed in place by [`parse_upload`] or the
/// exchange: its page and its schema rows went into the batch or buffers
/// handed to the parser; its samples are read on demand.
#[derive(Debug, Clone)]
pub struct UploadRef<'a> {
    /// Per-device batch number.
    pub seq: u64,
    /// The sender's id: page entry 0.
    pub device_id: &'a str,
    /// The rows of a layout-0 frame, materialised: keyed rows carry keys of
    /// their own, so they reach the cloud's quarantine as entries. `None`
    /// for layout 1, whose rows are in the batch.
    pub keyed: Option<Vec<DriftLogEntry>>,
    schema_rows: bool,
    /// The payload from its samples section on.
    samples: Reader<'a>,
}

impl<'a> UploadRef<'a> {
    /// The frame's sampled inputs, materialised against `page` — the page
    /// the parser handed over.
    ///
    /// # Errors
    ///
    /// The errors of [`decode_frame`] on a malformed sample, and trailing
    /// bytes after the last one.
    pub fn samples(&self, page: &[&'a str]) -> Result<Vec<UploadedSample>> {
        let r = &mut self.samples.clone();
        let n_samples = r.get_varint_count("sample count")?;
        let mut samples = Vec::with_capacity(n_samples.min(1024));
        for _ in 0..n_samples {
            let n = r.get_varint_count("feature count")?;
            let features = r
                .take(n * 4)?
                .chunks_exact(4)
                .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                .collect();
            let attrs = get_paged_attrs(r, page, self.schema_rows)?;
            let day = r.get_u16()?;
            if day >= SimDate::TOTAL_DAYS {
                return Err(NetError::Malformed("sample date outside simulated range"));
            }
            let label = usize::try_from(r.get_varint()?)
                .map_err(|_| NetError::Malformed("sample label overflows usize"))?;
            let true_cause = match r.get_varint()? {
                0 => None,
                code => Some(
                    Corruption::from_name(paged(page, code - 1)?)
                        .ok_or(NetError::Malformed("unknown corruption name"))?,
                ),
            };
            samples.push(UploadedSample {
                features,
                attrs,
                date: SimDate::new(day),
                label,
                true_cause,
            });
        }
        r.finish()?;
        Ok(samples)
    }
}

/// Where [`parse_upload_into`] puts what an upload frame holds: its page,
/// string by string, then its layout-1 rows.
pub(crate) trait UploadSink<'a> {
    /// Appends the frame's next page string.
    fn push_page(&mut self, s: &'a str);
    /// The frame's page strings so far.
    fn page(&self) -> &[&'a str];
    /// Appends one layout-1 row: its timestamp, its drift flag and one
    /// code into the page per [`LOG_SCHEMA`] column.
    fn push_coded(&mut self, timestamp: u64, drift: bool, codes: &[u32]);
}

/// The batch takes the frame's strings borrowed and its rows as they are.
impl<'a> UploadSink<'a> for RowBatch<&'a str> {
    fn push_page(&mut self, s: &'a str) {
        RowBatch::push_page(self, s);
    }

    fn page(&self) -> &[&'a str] {
        RowBatch::page(self)
    }

    fn push_coded(&mut self, timestamp: u64, drift: bool, codes: &[u32]) {
        RowBatch::push_coded(self, timestamp, drift, codes);
    }
}

/// Reads an upload-batch payload (as returned by [`open_frame`]) in
/// place: `rows` is emptied and given the frame's page verbatim — entry 0
/// the sender's id — and, for a layout-1 frame, its rows as the frame's
/// own page codes over [`LOG_SCHEMA`]; no string is copied. The samples
/// stay unread until [`UploadRef::samples`].
///
/// # Errors
///
/// The errors of [`decode_frame`] up to the samples section.
pub fn parse_upload<'a>(payload: &'a [u8], rows: &mut RowBatch<&'a str>) -> Result<UploadRef<'a>> {
    rows.reset(&LOG_SCHEMA);
    parse_upload_into(payload, rows)
}

/// The one upload parser: [`parse_upload`] into any sink, whose page
/// starts empty. On an error `sink` may hold part of the frame.
///
/// # Errors
///
/// The errors of [`decode_frame`] up to the samples section.
pub(crate) fn parse_upload_into<'a>(
    payload: &'a [u8],
    sink: &mut impl UploadSink<'a>,
) -> Result<UploadRef<'a>> {
    let mut r = Reader::new(payload);
    let seq = r.get_varint()?;
    let schema_rows = match r.get_u8()? {
        0 => false,
        1 => true,
        _ => return Err(NetError::Malformed("upload layout must be 0 or 1")),
    };
    let n_page = r.get_varint_count("page length")?;
    for _ in 0..n_page {
        sink.push_page(r.get_page_str()?);
    }
    let Some(&device_id) = sink.page().first() else {
        return Err(NetError::Malformed("empty string page"));
    };

    let n_entries = r.get_varint_count("entry count")?;
    let mut keyed = (!schema_rows).then(|| Vec::with_capacity(n_entries.min(1024)));
    let mut codes = [0u32; LOG_SCHEMA.len()];
    let mut timestamp = 0u64;
    for _ in 0..n_entries {
        timestamp = timestamp.wrapping_add(r.get_varint()?);
        let drift = match r.get_u8()? {
            0 => false,
            1 => true,
            _ => return Err(NetError::Malformed("drift flag must be 0 or 1")),
        };
        let Some(entries) = keyed.as_mut() else {
            for code in &mut codes {
                let at = r.get_varint()?;
                paged(sink.page(), at)?;
                *code = at as u32;
            }
            sink.push_coded(timestamp, drift, &codes);
            continue;
        };
        entries.push(DriftLogEntry {
            timestamp,
            attrs: get_paged_attrs(&mut r, sink.page(), false)?,
            drift,
        });
    }
    Ok(UploadRef {
        seq,
        device_id,
        keyed,
        schema_rows,
        samples: r,
    })
}

/// Decodes an upload-batch payload into an owned message: the string
/// adapter over [`parse_upload`].
fn decode_upload_batch(payload: &[u8]) -> Result<Message> {
    let mut rows = RowBatch::default();
    let upload = parse_upload(payload, &mut rows)?;
    let samples = upload.samples(rows.page())?;
    Ok(Message::UploadBatch {
        device_id: upload.device_id.to_string(),
        seq: upload.seq,
        entries: upload.keyed.unwrap_or_else(|| rows.to_entries()),
        samples,
    })
}

/// Encodes a [`Message::DeployChunk`] frame from a borrowed slice of the
/// deploy payload. The frame depends on nothing but its arguments, so one
/// encoding serves every device and every retransmission of a transfer.
pub fn encode_deploy_chunk(transfer_id: u64, offset: u32, total_len: u32, data: &[u8]) -> Vec<u8> {
    let mut w = Writer::default();
    write_deploy_chunk(&mut w, transfer_id, offset, total_len, data);
    w.into_bytes()
}

fn write_deploy_chunk(w: &mut Writer, transfer_id: u64, offset: u32, total_len: u32, data: &[u8]) {
    begin_frame(w, TYPE_DEPLOY_CHUNK, 20 + data.len());
    w.put_u64(transfer_id);
    w.put_u32(offset);
    w.put_u32(total_len);
    w.put_u32(data.len() as u32);
    w.put_bytes(data);
    seal_frame(w);
}

/// Encodes one message as a wire frame.
pub fn encode_frame(msg: &Message) -> Vec<u8> {
    let mut bufs = FrameBuffers::default();
    encode_frame_with(&mut bufs, msg);
    bufs.take_frame()
}

/// [`encode_frame`] into `bufs`, whose buffers it reuses; the frame is
/// [`FrameBuffers::frame`] until the next one is written.
pub fn encode_frame_with<'b>(bufs: &'b mut FrameBuffers, msg: &Message) -> &'b [u8] {
    match msg {
        Message::UploadBatch {
            device_id,
            seq,
            entries,
            samples,
        } => encode_upload(bufs, device_id, *seq, entries.as_slice(), samples),
        Message::UploadAck { seq } => {
            let w = &mut bufs.frame;
            begin_frame(w, TYPE_UPLOAD_ACK, 8);
            w.put_u64(*seq);
            seal_frame(w);
        }
        Message::DeployChunk {
            transfer_id,
            offset,
            total_len,
            data,
        } => write_deploy_chunk(&mut bufs.frame, *transfer_id, *offset, *total_len, data),
        Message::ChunkAck {
            transfer_id,
            received,
        } => {
            let w = &mut bufs.frame;
            begin_frame(w, TYPE_CHUNK_ACK, 12);
            w.put_u64(*transfer_id);
            w.put_u32(*received);
            seal_frame(w);
        }
    }
    bufs.frame()
}

/// Verifies a frame's envelope — magic, protocol version, declared length
/// and CRC — and returns its message-type byte and its payload, borrowed.
pub fn open_frame(bytes: &[u8]) -> Result<(u8, &[u8])> {
    let mut r = Reader::new(bytes);
    let magic: [u8; 4] = r.take_array()?;
    if magic != MAGIC {
        return Err(NetError::BadMagic(magic));
    }
    let version = r.get_u8()?;
    if version != VERSION {
        return Err(NetError::UnsupportedVersion(version));
    }
    let msg_type = r.get_u8()?;
    let payload_len = r.get_u32()? as usize;
    if r.remaining() != payload_len + 4 {
        return Err(NetError::Truncated {
            needed: payload_len + 4,
            remaining: r.remaining(),
        });
    }
    let payload = r.get_bytes(payload_len)?;
    let expected = r.get_u32()?;
    let actual = crc32(&bytes[4..PAYLOAD_AT + payload_len]);
    if expected != actual {
        return Err(NetError::ChecksumMismatch { expected, actual });
    }
    Ok((msg_type, payload))
}

/// One deploy chunk, its data borrowed from the frame it arrived in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkRef<'a> {
    /// Transfer identifier.
    pub transfer_id: u64,
    /// Byte offset of this chunk within the payload.
    pub offset: u32,
    /// Total payload length.
    pub total_len: u32,
    /// The chunk bytes.
    pub data: &'a [u8],
}

/// The largest deploy payload a chunk may declare, bytes (1 MiB).
///
/// A device sizes its reassembly buffer from the first chunk's
/// `total_len`, so the bound is what one CRC-valid frame can make it
/// allocate. The largest `ModelArch` preset, `resnet50_analog`, encodes
/// 9 BN layers of 4 × 128 `f32`s: an 18 578-byte patch plus a few dozen
/// bytes of version metadata, whatever the input width or class count.
/// 1 MiB is 56 times that: at four blocks, a hidden width of 7 282 would
/// be needed to reach it.
pub const MAX_DEPLOY_PAYLOAD: u32 = 1 << 20;

/// Parses the payload of a [`TYPE_DEPLOY_CHUNK`] frame (as returned by
/// [`open_frame`]) without copying the chunk data.
///
/// # Errors
///
/// [`NetError::PayloadTooLarge`] when the chunk declares a total length
/// above [`MAX_DEPLOY_PAYLOAD`]; the usual decode errors otherwise.
pub fn parse_deploy_chunk(payload: &[u8]) -> Result<ChunkRef<'_>> {
    let mut r = Reader::new(payload);
    let transfer_id = r.get_u64()?;
    let offset = r.get_u32()?;
    let total_len = r.get_u32()?;
    if total_len > MAX_DEPLOY_PAYLOAD {
        return Err(NetError::PayloadTooLarge {
            declared: total_len,
            max: MAX_DEPLOY_PAYLOAD,
        });
    }
    let n = r.get_count("chunk length")?;
    let data = r.get_bytes(n)?;
    r.finish()?;
    Ok(ChunkRef {
        transfer_id,
        offset,
        total_len,
        data,
    })
}

/// Decodes the payload of a frame of `msg_type` (as returned by
/// [`open_frame`]) into an owned message.
pub fn decode_message(msg_type: u8, payload: &[u8]) -> Result<Message> {
    let mut r = Reader::new(payload);
    let msg = match msg_type {
        TYPE_UPLOAD_BATCH => return decode_upload_batch(payload),
        TYPE_UPLOAD_ACK => Message::UploadAck { seq: r.get_u64()? },
        TYPE_DEPLOY_CHUNK => {
            let chunk = parse_deploy_chunk(payload)?;
            return Ok(Message::DeployChunk {
                transfer_id: chunk.transfer_id,
                offset: chunk.offset,
                total_len: chunk.total_len,
                data: chunk.data.to_vec(),
            });
        }
        TYPE_CHUNK_ACK => Message::ChunkAck {
            transfer_id: r.get_u64()?,
            received: r.get_u32()?,
        },
        t => return Err(NetError::UnknownMessageType(t)),
    };
    r.finish()?;
    Ok(msg)
}

/// Decodes one wire frame back into a message.
pub fn decode_frame(bytes: &[u8]) -> Result<Message> {
    let (msg_type, payload) = open_frame(bytes)?;
    decode_message(msg_type, payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE CRC-32 check value, and the empty input.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);

        // A sealed frame's trailer is that same CRC over everything after
        // the magic.
        let bytes = encode_frame(&Message::UploadAck { seq: 42 });
        let (body, trailer) = bytes.split_at(bytes.len() - 4);
        assert_eq!(trailer, crc32(&body[4..]).to_le_bytes());
    }

    #[test]
    fn frame_round_trip_upload_ack() {
        let msg = Message::UploadAck { seq: 42 };
        let bytes = encode_frame(&msg);
        assert_eq!(decode_frame(&bytes).unwrap(), msg);
        assert_eq!(bytes.len(), FRAME_OVERHEAD + 8);
    }

    #[test]
    fn corrupt_byte_is_an_error_not_a_panic() {
        let msg = Message::UploadBatch {
            device_id: "quebec-dev00".into(),
            seq: 7,
            entries: vec![DriftLogEntry::new(5, &[("weather", "snow")], true)],
            samples: vec![],
        };
        let clean = encode_frame(&msg);
        for i in 0..clean.len() {
            for flip in [0x01u8, 0x80] {
                let mut bad = clean.clone();
                bad[i] ^= flip;
                assert!(decode_frame(&bad).is_err(), "flip at byte {i} accepted");
            }
        }
    }

    #[test]
    fn truncated_frame_is_truncated_error() {
        let bytes = encode_frame(&Message::UploadAck { seq: 1 });
        for cut in 0..bytes.len() {
            assert!(decode_frame(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn unknown_message_type_is_typed() {
        let mut w = Writer::with_capacity(16);
        w.put_bytes(&MAGIC);
        w.put_u8(VERSION);
        w.put_u8(99);
        w.put_u32(0);
        let mut bytes = w.into_bytes();
        let crc = crc32(&bytes[4..]);
        bytes.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(decode_frame(&bytes), Err(NetError::UnknownMessageType(99)));
    }

    fn schema_row(ts: u64, weather: &str) -> DriftLogEntry {
        DriftLogEntry::new(
            ts,
            &[
                ("weather", weather),
                ("location", "quebec"),
                ("device_id", "quebec-dev00"),
            ],
            ts.is_multiple_of(2),
        )
    }

    #[test]
    fn schema_row_costs_a_delta_a_flag_and_three_codes() {
        let rows: Vec<DriftLogEntry> = (0..3).map(|i| schema_row(1_000_000 + i, "snow")).collect();
        let len = |n: usize| encode_upload_batch("quebec-dev00", 7, &rows[..n], &[]).len();
        // Envelope, seq, layout, page of three strings, two counts, and a
        // first row whose timestamp is a three-byte delta from zero.
        let page = 1 + (1 + 12) + (1 + 4) + (1 + 6);
        assert_eq!(len(1), FRAME_OVERHEAD + 1 + 1 + page + 1 + (3 + 1 + 3) + 1);
        // Each further row: one-byte delta, flag, three one-byte codes.
        assert_eq!(len(2) - len(1), 5);
        assert_eq!(len(3) - len(2), 5);
        // A keyed batch of the same rows pays for the keys once in the
        // page and two codes an attribute after that.
        let mut keyed = rows.clone();
        keyed[0].attrs.reverse();
        let keyed_len = encode_upload_batch("quebec-dev00", 7, &keyed, &[]).len();
        assert_eq!(
            keyed_len - len(3),
            (1 + 7) + (1 + 8) + (1 + 9) + 3 * (1 + 3)
        );
    }

    #[test]
    fn other_protocol_versions_are_refused() {
        let msg = Message::UploadBatch {
            device_id: "quebec-dev00".into(),
            seq: 7,
            entries: vec![schema_row(5, "snow")],
            samples: vec![],
        };
        let clean = encode_frame(&msg);
        assert_eq!(decode_frame(&clean).unwrap(), msg);
        for version in [0u8, 1, 3] {
            let mut frame = clean.clone();
            frame[4] = version;
            let crc = crc32(&frame[4..frame.len() - 4]);
            let at = frame.len() - 4;
            frame[at..].copy_from_slice(&crc.to_le_bytes());
            assert_eq!(
                decode_frame(&frame),
                Err(NetError::UnsupportedVersion(version))
            );
        }
    }
}
