//! The cloud-side ingest endpoint: duplicate/reorder-tolerant batch intake.
//!
//! Every upload batch carries a per-device sequence number. A device
//! numbers its batches 0, 1, 2, …, so the server keeps, per device, a
//! **low-water mark** — every seq below it was accepted — plus the set of
//! accepted seqs above a gap (empty unless batches arrive out of order or
//! one was lost for good). Redelivery of an already-accepted batch (a retry
//! whose first copy *did* arrive, or a link-level duplicate) is
//! acknowledged but not re-ingested, which makes ingest **idempotent** —
//! the property the round-trip proptests pin down — in state that does not
//! grow with the run. Batches are drained in `(device id, seq)` order, so
//! frame reordering on the wire cannot change the drift log's row order.

use nazar_device::UploadedSample;
use nazar_log::DriftLogEntry;
use std::collections::BTreeSet;

/// Outcome of one batch arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestOutcome {
    /// Whether the batch had been accepted before (and was ignored now).
    pub duplicate: bool,
}

/// What the cloud remembers about one device's uploads.
#[derive(Debug, Clone, Default)]
struct DeviceIngest {
    /// Every seq below this one was accepted.
    low_water: u64,
    /// Seqs accepted at or above `low_water`, i.e. past a gap.
    above: BTreeSet<u64>,
    /// Batches accepted since the last [`IngestServer::take_window`] drain,
    /// in arrival order.
    pending: Vec<(u64, Vec<DriftLogEntry>, Vec<UploadedSample>)>,
}

impl DeviceIngest {
    /// Queues batch `seq` unless it was accepted before; returns whether it
    /// was new.
    fn accept(
        &mut self,
        seq: u64,
        entries: Vec<DriftLogEntry>,
        samples: Vec<UploadedSample>,
    ) -> bool {
        if seq < self.low_water {
            return false;
        }
        if seq > self.low_water {
            if !self.above.insert(seq) {
                return false;
            }
        } else {
            // The gap's first seq: the mark rises over it and over every
            // accepted seq that now adjoins it.
            self.low_water += 1;
            while self.above.remove(&self.low_water) {
                self.low_water += 1;
            }
        }
        self.pending.push((seq, entries, samples));
        true
    }
}

/// Cloud-side ingest state.
#[derive(Debug, Clone, Default)]
pub struct IngestServer {
    /// Device ids, sorted; `devices[i]` belongs to `ids[i]`. Iterating
    /// devices, then each one's pending batches by seq, drains in
    /// `(device id, seq)` order whatever the arrival order was.
    ids: Vec<String>,
    devices: Vec<DeviceIngest>,
    duplicates: u64,
}

impl IngestServer {
    /// A fresh ingest endpoint; devices register on their first upload.
    pub fn new() -> Self {
        IngestServer::default()
    }

    /// An endpoint for the devices of `ids`, which must be sorted and free
    /// of duplicates: device `i` of [`IngestServer::on_upload_from`] is
    /// `ids[i]`.
    pub(crate) fn for_devices(ids: &[String]) -> Self {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]));
        IngestServer {
            ids: ids.to_vec(),
            devices: vec![DeviceIngest::default(); ids.len()],
            duplicates: 0,
        }
    }

    /// Accepts one upload batch; duplicates are detected by `(device, seq)`
    /// and ignored.
    pub fn on_upload(
        &mut self,
        device_id: &str,
        seq: u64,
        entries: Vec<DriftLogEntry>,
        samples: Vec<UploadedSample>,
    ) -> IngestOutcome {
        let probe = self.ids.binary_search_by(|id| id.as_str().cmp(device_id));
        let device = probe.unwrap_or_else(|at| {
            self.ids.insert(at, device_id.to_string());
            self.devices.insert(at, DeviceIngest::default());
            at
        });
        self.on_upload_from(device, seq, entries, samples)
    }

    /// [`IngestServer::on_upload`] for the device at position `device` of
    /// the sorted id list.
    pub(crate) fn on_upload_from(
        &mut self,
        device: usize,
        seq: u64,
        entries: Vec<DriftLogEntry>,
        samples: Vec<UploadedSample>,
    ) -> IngestOutcome {
        let fresh = self.devices[device].accept(seq, entries, samples);
        if !fresh {
            self.duplicates += 1;
        }
        IngestOutcome { duplicate: !fresh }
    }

    /// Total duplicate deliveries suppressed so far.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Drains everything accepted this window, concatenated in
    /// `(device id, seq)` order — independent of arrival order.
    pub fn take_window(&mut self) -> (Vec<DriftLogEntry>, Vec<UploadedSample>) {
        let mut entries = Vec::new();
        let mut samples = Vec::new();
        for device in &mut self.devices {
            device.pending.sort_unstable_by_key(|batch| batch.0);
            for (_, e, s) in device.pending.drain(..) {
                entries.extend(e);
                samples.extend(s);
            }
        }
        (entries, samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(i: u64) -> DriftLogEntry {
        DriftLogEntry::new(i, &[("weather", "fog")], true)
    }

    #[test]
    fn redelivery_is_idempotent() {
        let mut s = IngestServer::new();
        let first = s.on_upload("d0", 0, vec![entry(1)], vec![]);
        assert!(!first.duplicate);
        let again = s.on_upload("d0", 0, vec![entry(1)], vec![]);
        assert!(again.duplicate);
        assert_eq!(s.duplicates(), 1);
        let (entries, _) = s.take_window();
        assert_eq!(entries.len(), 1, "duplicate must not double-ingest");
    }

    #[test]
    fn drain_order_is_device_then_seq_regardless_of_arrival() {
        let mut s = IngestServer::new();
        s.on_upload("b", 1, vec![entry(31)], vec![]);
        s.on_upload("a", 1, vec![entry(21)], vec![]);
        s.on_upload("b", 0, vec![entry(30)], vec![]);
        s.on_upload("a", 0, vec![entry(20)], vec![]);
        let (entries, _) = s.take_window();
        let ts: Vec<u64> = entries.iter().map(|e| e.timestamp).collect();
        assert_eq!(ts, vec![20, 21, 30, 31]);
    }

    #[test]
    fn seen_set_survives_window_drains() {
        let mut s = IngestServer::new();
        s.on_upload("d0", 0, vec![entry(1)], vec![]);
        let _ = s.take_window();
        // A late duplicate from a previous window is still suppressed.
        assert!(s.on_upload("d0", 0, vec![entry(1)], vec![]).duplicate);
        let (entries, _) = s.take_window();
        assert!(entries.is_empty());
    }

    #[test]
    fn in_order_uploads_keep_no_per_batch_state() {
        let mut s = IngestServer::new();
        for seq in 0..10_000u64 {
            assert!(!s.on_upload("d0", seq, vec![entry(seq)], vec![]).duplicate);
            if seq % 100 == 99 {
                assert_eq!(s.take_window().0.len(), 100);
            }
        }
        assert_eq!(s.devices[0].low_water, 10_000);
        assert!(s.devices[0].above.is_empty());
        assert!(s.devices[0].pending.is_empty());
        // Duplicates far below and just below the mark are suppressed.
        assert!(s.on_upload("d0", 3, vec![entry(3)], vec![]).duplicate);
        assert!(
            s.on_upload("d0", 9_999, vec![entry(9_999)], vec![])
                .duplicate
        );

        // A gap parks later seqs above the mark until it closes.
        assert!(!s.on_upload("d0", 10_002, vec![entry(2)], vec![]).duplicate);
        assert!(!s.on_upload("d0", 10_001, vec![entry(1)], vec![]).duplicate);
        assert!(s.on_upload("d0", 10_002, vec![entry(2)], vec![]).duplicate);
        assert_eq!(s.devices[0].above.len(), 2);
        assert!(!s.on_upload("d0", 10_000, vec![entry(0)], vec![]).duplicate);
        assert_eq!(s.devices[0].low_water, 10_003);
        assert!(s.devices[0].above.is_empty());
        let ts: Vec<u64> = s.take_window().0.iter().map(|e| e.timestamp).collect();
        assert_eq!(ts, vec![0, 1, 2]);
        assert_eq!(s.duplicates(), 3);
    }
}
