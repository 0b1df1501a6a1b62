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
//! grow with the run. Batches are drained in `(device, seq)` order, so
//! frame reordering on the wire cannot change the drift log's row order.

use std::collections::BTreeSet;

/// Outcome of one batch arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestOutcome {
    /// Whether the batch had been accepted before (and was ignored now).
    pub duplicate: bool,
}

/// What the cloud remembers about one device's uploads.
#[derive(Debug, Clone)]
struct DeviceIngest<T> {
    /// Every seq below this one was accepted.
    low_water: u64,
    /// Seqs accepted at or above `low_water`, i.e. past a gap.
    above: BTreeSet<u64>,
    /// Batches accepted since the last [`IngestServer::take_window`] drain,
    /// in arrival order.
    pending: Vec<(u64, T)>,
}

impl<T> DeviceIngest<T> {
    fn new() -> Self {
        DeviceIngest {
            low_water: 0,
            above: BTreeSet::new(),
            pending: Vec::new(),
        }
    }

    /// Queues batch `seq` unless it was accepted before; returns whether it
    /// was new.
    fn accept(&mut self, seq: u64, batch: T) -> bool {
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
        self.pending.push((seq, batch));
        true
    }
}

/// Cloud-side ingest state over batches of type `T` — what the exchange
/// keeps of an accepted frame; the server only orders and deduplicates.
#[derive(Debug, Clone)]
pub struct IngestServer<T> {
    /// Per device, by index. Iterating devices, then each one's pending
    /// batches by seq, drains in `(device, seq)` order whatever the arrival
    /// order was.
    devices: Vec<DeviceIngest<T>>,
    duplicates: u64,
}

impl<T> IngestServer<T> {
    /// An endpoint for `devices` devices, named by index `0..devices`; the
    /// exchange numbers them in sorted id order, so a drain is in
    /// `(device id, seq)` order.
    pub fn for_devices(devices: usize) -> Self {
        IngestServer {
            devices: (0..devices).map(|_| DeviceIngest::new()).collect(),
            duplicates: 0,
        }
    }

    /// Accepts one upload batch from the device at index `device`;
    /// duplicates are detected by `(device, seq)` and ignored.
    ///
    /// # Panics
    ///
    /// Panics if `device` is not below the count the server was built for.
    pub fn on_upload(&mut self, device: usize, seq: u64, batch: T) -> IngestOutcome {
        let fresh = self.devices[device].accept(seq, batch);
        if !fresh {
            self.duplicates += 1;
        }
        IngestOutcome { duplicate: !fresh }
    }

    /// Total duplicate deliveries suppressed so far.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Drains everything accepted this window in `(device, seq)` order —
    /// independent of arrival order.
    pub fn take_window(&mut self) -> Vec<T> {
        let mut batches = Vec::new();
        self.drain_window(|batch| batches.push(batch));
        batches
    }

    /// [`IngestServer::take_window`], handing each batch to `f` in turn.
    pub fn drain_window(&mut self, mut f: impl FnMut(T)) {
        for device in &mut self.devices {
            device.pending.sort_unstable_by_key(|batch| batch.0);
            for (_, batch) in device.pending.drain(..) {
                f(batch);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nazar_log::DriftLogEntry;

    /// Drains a window of entry batches, concatenated.
    fn drain(s: &mut IngestServer<Vec<DriftLogEntry>>) -> Vec<DriftLogEntry> {
        s.take_window().concat()
    }

    fn entry(i: u64) -> DriftLogEntry {
        DriftLogEntry::new(i, &[("weather", "fog")], true)
    }

    #[test]
    fn redelivery_is_idempotent() {
        let mut s = IngestServer::for_devices(1);
        let first = s.on_upload(0, 0, vec![entry(1)]);
        assert!(!first.duplicate);
        let again = s.on_upload(0, 0, vec![entry(1)]);
        assert!(again.duplicate);
        assert_eq!(s.duplicates(), 1);
        let entries = drain(&mut s);
        assert_eq!(entries.len(), 1, "duplicate must not double-ingest");
    }

    #[test]
    fn drain_order_is_device_then_seq_regardless_of_arrival() {
        let mut s = IngestServer::for_devices(2);
        s.on_upload(1, 1, vec![entry(31)]);
        s.on_upload(0, 1, vec![entry(21)]);
        s.on_upload(1, 0, vec![entry(30)]);
        s.on_upload(0, 0, vec![entry(20)]);
        let entries = drain(&mut s);
        let ts: Vec<u64> = entries.iter().map(|e| e.timestamp).collect();
        assert_eq!(ts, vec![20, 21, 30, 31]);
    }

    #[test]
    fn seen_set_survives_window_drains() {
        let mut s = IngestServer::for_devices(1);
        s.on_upload(0, 0, vec![entry(1)]);
        let _ = drain(&mut s);
        // A late duplicate from a previous window is still suppressed.
        assert!(s.on_upload(0, 0, vec![entry(1)]).duplicate);
        let entries = drain(&mut s);
        assert!(entries.is_empty());
    }

    #[test]
    fn in_order_uploads_keep_no_per_batch_state() {
        let mut s = IngestServer::for_devices(1);
        for seq in 0..10_000u64 {
            assert!(!s.on_upload(0, seq, vec![entry(seq)]).duplicate);
            if seq % 100 == 99 {
                assert_eq!(drain(&mut s).len(), 100);
            }
        }
        assert_eq!(s.devices[0].low_water, 10_000);
        assert!(s.devices[0].above.is_empty());
        assert!(s.devices[0].pending.is_empty());
        // Duplicates far below and just below the mark are suppressed.
        assert!(s.on_upload(0, 3, vec![entry(3)]).duplicate);
        assert!(s.on_upload(0, 9_999, vec![entry(9_999)]).duplicate);

        // A gap parks later seqs above the mark until it closes.
        assert!(!s.on_upload(0, 10_002, vec![entry(2)]).duplicate);
        assert!(!s.on_upload(0, 10_001, vec![entry(1)]).duplicate);
        assert!(s.on_upload(0, 10_002, vec![entry(2)]).duplicate);
        assert_eq!(s.devices[0].above.len(), 2);
        assert!(!s.on_upload(0, 10_000, vec![entry(0)]).duplicate);
        assert_eq!(s.devices[0].low_water, 10_003);
        assert!(s.devices[0].above.is_empty());
        let ts: Vec<u64> = drain(&mut s).iter().map(|e| e.timestamp).collect();
        assert_eq!(ts, vec![0, 1, 2]);
        assert_eq!(s.duplicates(), 3);
    }
}
