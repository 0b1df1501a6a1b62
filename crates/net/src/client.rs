//! The device-side transport endpoint.
//!
//! Owns the bounded upload outbox (drop-oldest backpressure), per-device
//! sequence numbering, and the reassembly state of chunked, resumable
//! patch downloads (a chunk that is the whole payload needs none: it
//! decodes straight from its frame). All *timing* (when to transmit, when
//! to retry) lives in [`crate::exchange::Exchange`]; the client is pure
//! state, which keeps it trivially deterministic.

use crate::config::{MAX_BATCH_ENTRIES, MAX_BATCH_SAMPLES, OUTBOX_FRAMES};
use crate::error::Result;
use crate::wire::{self, ChunkRef, FrameBuffers, Message};
use nazar_device::UploadedSample;
use nazar_log::RowBatch;
use nazar_nn::BnPatch;
use nazar_registry::VersionMeta;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;

/// One frame awaiting acknowledgement.
#[derive(Debug, Clone)]
struct OutFrame {
    seq: u64,
    /// Shared with every copy in flight: a (re)transmission or a link-level
    /// duplicate is a reference-count bump.
    bytes: Arc<[u8]>,
    /// Transmission attempts so far (0 = not yet sent).
    attempts: u32,
}

/// Reassembly state of one in-progress deploy download.
#[derive(Debug, Clone)]
struct Download {
    total_len: u32,
    buf: Vec<u8>,
    /// Received byte ranges `[start, end)`, kept merged and sorted.
    ranges: Vec<(u32, u32)>,
}

impl Download {
    fn new(total_len: u32) -> Self {
        Download {
            total_len,
            buf: vec![0; total_len as usize],
            ranges: Vec::new(),
        }
    }

    fn insert(&mut self, offset: u32, data: &[u8]) {
        let start = offset.min(self.total_len);
        let end = (offset as usize + data.len()).min(self.total_len as usize) as u32;
        if start >= end {
            return;
        }
        self.buf[start as usize..end as usize].copy_from_slice(&data[..(end - start) as usize]);
        // `ranges[lo..hi]` are the ranges the chunk overlaps or touches;
        // their union with it replaces them (in order that is the last
        // range, extended in place).
        let lo = self.ranges.partition_point(|r| r.1 < start);
        let hi = lo + self.ranges[lo..].partition_point(|r| r.0 <= end);
        let union = self.ranges[lo..hi]
            .iter()
            .fold((start, end), |u, r| (u.0.min(r.0), u.1.max(r.1)));
        self.ranges.splice(lo..hi, [union]);
    }

    /// Contiguous bytes received from offset 0 — the resume point.
    fn contiguous(&self) -> u32 {
        match self.ranges.first() {
            Some(&(0, end)) => end,
            _ => 0,
        }
    }
}

/// The last deploy payload decoded, keyed by its bytes.
///
/// Decoding is a pure function of the payload bytes, so every client of a
/// broadcast whose payload equals the remembered one shares its decoded
/// version; a payload that differs decodes on its own. Only a miss copies
/// the bytes.
#[derive(Debug, Default)]
pub struct DecodeMemo {
    last: Option<(Vec<u8>, Arc<VersionMeta>, Arc<BnPatch>)>,
}

impl DecodeMemo {
    fn decode(&mut self, payload: &[u8]) -> Result<(Arc<VersionMeta>, Arc<BnPatch>)> {
        if let Some((bytes, meta, patch)) = &self.last {
            if bytes == payload {
                return Ok((Arc::clone(meta), Arc::clone(patch)));
            }
        }
        let (meta, patch) = wire::decode_deploy_payload(payload)?;
        let (meta, patch) = (Arc::new(meta), Arc::new(patch));
        self.last = Some((payload.to_vec(), Arc::clone(&meta), Arc::clone(&patch)));
        Ok((meta, patch))
    }
}

/// What a received frame asks the device to do next.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientAction {
    /// Nothing further (e.g. a duplicate ack).
    None,
    /// An upload batch was acknowledged; stop retrying it.
    UploadAcked {
        /// The acknowledged sequence number.
        seq: u64,
    },
    /// Send a cumulative chunk acknowledgement back to the cloud.
    SendChunkAck {
        /// The transfer being acknowledged.
        transfer_id: u64,
        /// Contiguous prefix bytes now held.
        received: u32,
    },
    /// A transfer completed and decoded into a deployable version.
    InstallPatch {
        /// The completed transfer.
        transfer_id: u64,
        /// Decoded version metadata.
        meta: Arc<VersionMeta>,
        /// Decoded BN patch.
        patch: Arc<BnPatch>,
    },
}

/// Per-device transport endpoint state.
#[derive(Debug, Clone)]
pub struct DeviceClient {
    device_id: String,
    next_seq: u64,
    outbox: VecDeque<OutFrame>,
    /// The transfer being reassembled, by id. A chunk of another transfer
    /// replaces it: the exchange drains every frame of a push before the
    /// next push starts, so an earlier transfer never resumes.
    download: Option<(u64, Download)>,
    /// The last completed transfer and its length, so duplicate chunks
    /// after completion still elicit a final ack instead of a fresh
    /// download.
    completed: Option<(u64, u32)>,
    /// Batches dropped by outbox backpressure.
    pub(crate) dropped: u64,
}

impl DeviceClient {
    /// A fresh endpoint for `device_id`.
    pub fn new(device_id: impl Into<String>) -> Self {
        DeviceClient {
            device_id: device_id.into(),
            next_seq: 0,
            outbox: VecDeque::new(),
            download: None,
            completed: None,
            dropped: 0,
        }
    }

    /// The device this endpoint belongs to.
    pub fn device_id(&self) -> &str {
        &self.device_id
    }

    /// Frames queued and not yet acknowledged.
    pub(crate) fn outbox_depth(&self) -> usize {
        self.outbox.len()
    }

    /// The id of the transfer being reassembled, and the last completed
    /// transfer with its length.
    #[cfg(test)]
    pub(crate) fn transfers(&self) -> (Option<u64>, Option<(u64, u32)>) {
        (self.download.as_ref().map(|d| d.0), self.completed)
    }

    /// Batches and coalesces rows `range` of `rows` + `samples` into sequence-numbered
    /// upload frames on the outbox, at most 64 rows and 32 samples a
    /// frame, each written in `bufs` and copied once into the bytes every
    /// transmission shares. When the outbox would grow past 256 frames,
    /// the *oldest* queued frame is dropped (fresh telemetry beats stale
    /// telemetry on a congested uplink). Returns the seqs of the newly
    /// queued frames still on the outbox.
    pub(crate) fn queue_upload<S: AsRef<str>>(
        &mut self,
        bufs: &mut FrameBuffers,
        rows: &RowBatch<S>,
        range: Range<usize>,
        samples: &[UploadedSample],
    ) -> Range<u64> {
        let first = self.next_seq;
        let mut e = range.start;
        let mut s = 0usize;
        while e < range.end || s < samples.len() {
            let e_end = (e + MAX_BATCH_ENTRIES).min(range.end);
            let s_end = (s + MAX_BATCH_SAMPLES).min(samples.len());
            let seq = self.next_seq;
            self.next_seq += 1;
            let (range, samples) = (e..e_end, &samples[s..s_end]);
            let frame =
                wire::encode_upload_rows_with(bufs, &self.device_id, seq, rows, range, samples);
            e = e_end;
            s = s_end;
            self.outbox.push_back(OutFrame {
                seq,
                bytes: Arc::from(frame),
                attempts: 0,
            });
            let excess = self.outbox.len().saturating_sub(OUTBOX_FRAMES);
            self.dropped += self.outbox.drain(..excess).len() as u64;
        }
        // Drop-oldest leaves the outbox a run of seqs ending in this call's
        // last: its new frames are the ones from `first` on.
        let kept = self.outbox.front().map_or(self.next_seq, |f| f.seq);
        kept.max(first)..self.next_seq
    }

    /// Records a transmission attempt for `seq`; returns the attempt number
    /// (1-based) and the frame to put on the wire, or `None` if the frame
    /// is no longer queued.
    pub(crate) fn transmit(&mut self, seq: u64) -> Option<(u32, Arc<[u8]>)> {
        let f = self.outbox.iter_mut().find(|f| f.seq == seq)?;
        f.attempts += 1;
        Some((f.attempts, Arc::clone(&f.bytes)))
    }

    /// Whether `seq` is still awaiting acknowledgement.
    pub(crate) fn is_pending(&self, seq: u64) -> bool {
        self.outbox.iter().any(|f| f.seq == seq)
    }

    /// Transmission attempts recorded for `seq`, if still queued.
    pub(crate) fn attempts_of(&self, seq: u64) -> Option<u32> {
        self.outbox
            .iter()
            .find(|f| f.seq == seq)
            .map(|f| f.attempts)
    }

    /// Abandons `seq` after exhausting its retry budget.
    pub(crate) fn give_up(&mut self, seq: u64) {
        self.outbox.retain(|f| f.seq != seq);
    }

    /// Handles one frame arriving from the cloud. A transfer this frame
    /// completes is decoded through `memo`, which the caller shares among
    /// the clients of one broadcast.
    ///
    /// # Errors
    ///
    /// Returns the decode error for corrupt frames (the caller counts it
    /// and drops the frame; a flaky link must never panic the device).
    pub fn on_frame(&mut self, bytes: &[u8], memo: &mut DecodeMemo) -> Result<ClientAction> {
        let (msg_type, payload) = wire::open_frame(bytes)?;
        if msg_type == wire::TYPE_DEPLOY_CHUNK {
            return self.on_chunk(wire::parse_deploy_chunk(payload)?, memo);
        }
        match wire::decode_message(msg_type, payload)? {
            Message::UploadAck { seq } if self.is_pending(seq) => {
                self.outbox.retain(|f| f.seq != seq);
                Ok(ClientAction::UploadAcked { seq })
            }
            // A stale ack — or a message client-bound links never carry,
            // tolerated quietly.
            _ => Ok(ClientAction::None),
        }
    }

    fn on_chunk(&mut self, chunk: ChunkRef<'_>, memo: &mut DecodeMemo) -> Result<ClientAction> {
        let transfer_id = chunk.transfer_id;
        if let Some((_, len)) = self.completed.filter(|c| c.0 == transfer_id) {
            // Late duplicate after completion: re-ack so the cloud stops
            // resending.
            return Ok(ClientAction::SendChunkAck {
                transfer_id,
                received: len,
            });
        }
        let open = self.download.take().filter(|d| d.0 == transfer_id);
        let whole = chunk.offset == 0 && chunk.data.len() == chunk.total_len as usize;
        let (meta, patch) = match open {
            // The chunk is the whole payload: it completes the transfer
            // straight from the frame, with no reassembly buffer.
            None if whole => {
                self.completed = Some((transfer_id, chunk.total_len));
                memo.decode(chunk.data)?
            }
            open => {
                let (_, mut dl) =
                    open.unwrap_or_else(|| (transfer_id, Download::new(chunk.total_len)));
                dl.insert(chunk.offset, chunk.data);
                let received = dl.contiguous();
                if received < dl.total_len {
                    self.download = Some((transfer_id, dl));
                    return Ok(ClientAction::SendChunkAck {
                        transfer_id,
                        received,
                    });
                }
                self.completed = Some((transfer_id, dl.total_len));
                memo.decode(&dl.buf)?
            }
        };
        Ok(ClientAction::InstallPatch {
            transfer_id,
            meta,
            patch,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `n` one-key rows.
    fn rows(n: u64) -> RowBatch {
        let mut rows = RowBatch::new(&["weather"]);
        for i in 0..n {
            rows.push_values(i, i.is_multiple_of(2), &["snow"]);
        }
        rows
    }

    fn sample(label: usize) -> UploadedSample {
        UploadedSample {
            features: vec![label as f32; 4],
            attrs: vec![],
            date: nazar_data::SimDate::new(0),
            label,
            true_cause: None,
        }
    }

    /// The entry and sample counts of queued frame `seq`.
    fn frame_rows(c: &mut DeviceClient, seq: u64) -> (usize, usize) {
        let (_, bytes) = c.transmit(seq).expect("queued");
        match wire::decode_frame(&bytes).unwrap() {
            Message::UploadBatch {
                entries, samples, ..
            } => (entries.len(), samples.len()),
            other => panic!("unexpected message {other:?}"),
        }
    }

    #[test]
    fn batching_splits_large_windows() {
        let mut c = DeviceClient::new("d0");
        let entries = rows(2 * MAX_BATCH_ENTRIES as u64 + 1);
        let samples: Vec<_> = (0..MAX_BATCH_SAMPLES + 8).map(sample).collect();
        let seqs = c.queue_upload(
            &mut FrameBuffers::default(),
            &entries,
            0..entries.len(),
            &samples,
        );
        assert_eq!(seqs, 0..3);
        assert_eq!(c.outbox_depth(), 3);
        assert_eq!(
            frame_rows(&mut c, 0),
            (MAX_BATCH_ENTRIES, MAX_BATCH_SAMPLES)
        );
        assert_eq!(frame_rows(&mut c, 1), (MAX_BATCH_ENTRIES, 8));
        assert_eq!(frame_rows(&mut c, 2), (1, 0));
    }

    #[test]
    fn outbox_backpressure_drops_oldest() {
        let mut c = DeviceClient::new("d0");
        let frames = OUTBOX_FRAMES as u64 + 2;
        let entries = rows(frames * MAX_BATCH_ENTRIES as u64);
        let seqs = c.queue_upload(
            &mut FrameBuffers::default(),
            &entries,
            0..entries.len(),
            &[],
        );
        // Seqs 0 and 1 were dropped to make room for the last two.
        assert_eq!(seqs, 2..frames);
        assert_eq!(c.outbox_depth(), OUTBOX_FRAMES);
        assert_eq!(c.dropped, 2);
        assert!(!c.is_pending(1) && c.is_pending(2) && c.is_pending(frames - 1));
    }

    #[test]
    fn ack_clears_pending_frame_once() {
        let mut c = DeviceClient::new("d0");
        let seqs = c.queue_upload(&mut FrameBuffers::default(), &rows(1), 0..1, &[]);
        let ack = wire::encode_frame(&Message::UploadAck { seq: seqs.start });
        let mut memo = DecodeMemo::default();
        assert_eq!(
            c.on_frame(&ack, &mut memo).unwrap(),
            ClientAction::UploadAcked { seq: seqs.start }
        );
        assert_eq!(c.on_frame(&ack, &mut memo).unwrap(), ClientAction::None);
        assert_eq!(c.outbox_depth(), 0);
    }

    /// A clean version's meta, its BN patch and their deploy payload.
    fn deploy_payload() -> (VersionMeta, BnPatch, Vec<u8>) {
        use nazar_nn::{MlpResNet, ModelArch};
        use rand::rngs::SmallRng;
        use rand::SeedableRng;

        let mut rng = SmallRng::seed_from_u64(0);
        let mut model = MlpResNet::new(ModelArch::tiny(8, 3), &mut rng);
        let patch = BnPatch::extract(&mut model);
        let meta = VersionMeta::clean();
        let payload = wire::encode_deploy_payload(&meta, &patch);
        (meta, patch, payload)
    }

    fn chunk_frame(transfer_id: u64, payload: &[u8], range: std::ops::Range<usize>) -> Vec<u8> {
        wire::encode_frame(&Message::DeployChunk {
            transfer_id,
            offset: range.start as u32,
            total_len: payload.len() as u32,
            data: payload[range].to_vec(),
        })
    }

    /// A chunk that is the whole payload installs on its first frame
    /// without opening a download; a duplicate after that re-acks the
    /// full length.
    #[test]
    fn whole_payload_chunk_installs_without_a_download() {
        let (meta, patch, payload) = deploy_payload();
        let total = payload.len() as u32;
        let frame = chunk_frame(4, &payload, 0..payload.len());
        let mut c = DeviceClient::new("d0");
        let mut memo = DecodeMemo::default();
        let installed = match c.on_frame(&frame, &mut memo).unwrap() {
            ClientAction::InstallPatch {
                transfer_id,
                meta: m,
                patch: p,
            } => {
                assert_eq!(transfer_id, 4);
                assert_eq!(*m, meta);
                assert_eq!(*p, patch);
                p
            }
            other => panic!("unexpected action {other:?}"),
        };
        assert!(c.download.is_none());
        assert_eq!(
            c.on_frame(&frame, &mut memo).unwrap(),
            ClientAction::SendChunkAck {
                transfer_id: 4,
                received: total
            }
        );
        assert!(c.download.is_none());

        // Another client of the broadcast shares the first one's decode.
        match DeviceClient::new("d1").on_frame(&frame, &mut memo).unwrap() {
            ClientAction::InstallPatch { patch: p, .. } => assert!(Arc::ptr_eq(&p, &installed)),
            other => panic!("unexpected action {other:?}"),
        }
    }

    /// A chunk at offset 0 shorter than the payload opens a download; the
    /// whole payload arriving while that download is open completes it
    /// through the reassembly buffer.
    #[test]
    fn partial_chunk_at_offset_zero_reassembles() {
        let (_, patch, payload) = deploy_payload();
        let half = payload.len() / 2;
        let mut c = DeviceClient::new("d0");
        let mut memo = DecodeMemo::default();
        assert_eq!(
            c.on_frame(&chunk_frame(5, &payload, 0..half), &mut memo)
                .unwrap(),
            ClientAction::SendChunkAck {
                transfer_id: 5,
                received: half as u32
            }
        );
        assert!(c.download.is_some());
        match c
            .on_frame(&chunk_frame(5, &payload, 0..payload.len()), &mut memo)
            .unwrap()
        {
            ClientAction::InstallPatch { patch: p, .. } => assert_eq!(*p, patch),
            other => panic!("unexpected action {other:?}"),
        }
        assert!(c.download.is_none());
        assert_eq!(c.completed, Some((5, payload.len() as u32)));
    }

    #[test]
    fn download_reassembles_out_of_order_chunks() {
        let (meta, patch, payload) = deploy_payload();
        let total = payload.len() as u32;

        let mut c = DeviceClient::new("d0");
        let mut memo = DecodeMemo::default();
        let chunk = 16usize;
        let mut offsets: Vec<usize> = (0..payload.len()).step_by(chunk).collect();
        offsets.reverse(); // worst-case reordering
        let mut installed = None;
        for off in offsets {
            let end = (off + chunk).min(payload.len());
            let frame = wire::encode_frame(&Message::DeployChunk {
                transfer_id: 9,
                offset: off as u32,
                total_len: total,
                data: payload[off..end].to_vec(),
            });
            match c.on_frame(&frame, &mut memo).unwrap() {
                ClientAction::InstallPatch {
                    meta: m, patch: p, ..
                } => installed = Some((m, p)),
                ClientAction::SendChunkAck { received, .. } => {
                    assert!(received < total);
                }
                other => panic!("unexpected action {other:?}"),
            }
        }
        let (m, p) = installed.expect("download completed");
        assert_eq!(*m, meta);
        assert_eq!(*p, patch);

        // A duplicate chunk after completion re-acks the full length.
        let dup = wire::encode_frame(&Message::DeployChunk {
            transfer_id: 9,
            offset: 0,
            total_len: total,
            data: payload[..chunk].to_vec(),
        });
        assert_eq!(
            c.on_frame(&dup, &mut memo).unwrap(),
            ClientAction::SendChunkAck {
                transfer_id: 9,
                received: total
            }
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any arrival order of a payload's chunks, duplicates and partial
        /// deliveries included, leaves the range list equal to the runs of
        /// a per-byte coverage map, with `contiguous()` its first run and
        /// the reassembled bytes the payload wherever covered.
        #[test]
        fn reassembly_is_arrival_order_independent(
            len in 1usize..400,
            chunk in 1usize..48,
            order in proptest::collection::vec((0usize..1_000, 0usize..8), 1..64),
        ) {
            let payload: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            let offsets: Vec<usize> = (0..len).step_by(chunk).collect();
            let mut dl = Download::new(len as u32);
            let mut covered = vec![false; len];
            for &(pick, overhang) in &order {
                let off = offsets[pick % offsets.len()];
                // Overhanging chunks overlap their successor's range.
                let end = (off + chunk + overhang).min(len);
                dl.insert(off as u32, &payload[off..end]);
                covered[off..end].iter_mut().for_each(|c| *c = true);

                let mut runs: Vec<(u32, u32)> = Vec::new();
                for (i, _) in covered.iter().enumerate().filter(|(_, &c)| c) {
                    match runs.last_mut() {
                        Some(last) if last.1 == i as u32 => last.1 += 1,
                        _ => runs.push((i as u32, i as u32 + 1)),
                    }
                }
                prop_assert_eq!(&dl.ranges, &runs);
                let prefix = covered.iter().take_while(|&&c| c).count();
                prop_assert_eq!(dl.contiguous() as usize, prefix);
            }
            for (i, &c) in covered.iter().enumerate() {
                prop_assert_eq!(dl.buf[i], if c { payload[i] } else { 0 });
            }
        }
    }
}
