//! The cloud-side ingest endpoint: duplicate/reorder-tolerant batch intake.
//!
//! Every upload batch carries a per-device sequence number. The server
//! keeps, per device, the set of sequence numbers ever accepted; redelivery
//! of an already-seen batch (a retry whose first copy *did* arrive, or a
//! link-level duplicate) is acknowledged but not re-ingested, which makes
//! ingest **idempotent** — the property the round-trip proptests pin down.
//! Batches are drained in `(device id, seq)` order, so frame reordering on
//! the wire cannot change the drift log's row order.

use nazar_device::UploadedSample;
use nazar_log::DriftLogEntry;
use std::collections::{BTreeMap, BTreeSet};

/// Outcome of one batch arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestOutcome {
    /// Whether the batch had been accepted before (and was ignored now).
    pub duplicate: bool,
}

/// What the cloud remembers about one device's uploads.
#[derive(Debug, Clone, Default)]
struct DeviceIngest {
    /// Seqs ever accepted (the idempotency filter).
    seen: BTreeSet<u64>,
    /// Batches accepted since the last [`IngestServer::take_window`] drain,
    /// by seq.
    pending: BTreeMap<u64, (Vec<DriftLogEntry>, Vec<UploadedSample>)>,
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
        let fresh = self.seen.insert(seq);
        if fresh {
            self.pending.insert(seq, (entries, samples));
        }
        fresh
    }
}

/// Cloud-side ingest state.
#[derive(Debug, Clone, Default)]
pub struct IngestServer {
    /// Per device id; iterating devices, then each one's pending seqs,
    /// drains in `(device, seq)` order whatever the arrival order was.
    devices: BTreeMap<String, DeviceIngest>,
    duplicates: u64,
}

impl IngestServer {
    /// A fresh ingest endpoint.
    pub fn new() -> Self {
        IngestServer::default()
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
        // Probe by `&str`: only a device's first batch ever allocates its key.
        let fresh = match self.devices.get_mut(device_id) {
            Some(device) => device.accept(seq, entries, samples),
            None => self
                .devices
                .entry(device_id.to_string())
                .or_default()
                .accept(seq, entries, samples),
        };
        if !fresh {
            self.duplicates += 1;
        }
        IngestOutcome { duplicate: !fresh }
    }

    /// Batches currently awaiting a window drain.
    pub fn pending_batches(&self) -> usize {
        self.devices.values().map(|d| d.pending.len()).sum()
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
        for device in self.devices.values_mut() {
            for (_, (e, s)) in std::mem::take(&mut device.pending) {
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
}
