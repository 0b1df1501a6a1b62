//! Deterministic per-device link models on a virtual clock.
//!
//! All time in this crate is **virtual microseconds**: the simulator never
//! sleeps, so a 20%-loss, 200ms-latency fleet round costs the same wall
//! clock as a perfect one. Each device owns one `SimLink` per direction,
//! seeded from the master seed and a stable hash of the device id, so a
//! run is bit-reproducible for a given seed regardless of device insertion
//! order or host thread count.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Fault and delay model of one direction of a device↔cloud link.
///
/// The default is a **perfect link** — zero latency, unlimited bandwidth,
/// no loss/duplication/reordering — under which the transport subsystem is
/// bitwise-equivalent to direct in-process calls.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkConfig {
    /// Base one-way propagation delay, µs.
    pub latency_us: u64,
    /// Uniform extra delay in `[0, jitter_us]`, µs.
    pub jitter_us: u64,
    /// Serialization bandwidth in bytes/second (`None` = unlimited).
    pub bandwidth_bps: Option<u64>,
    /// Probability a frame is silently dropped.
    pub loss: f64,
    /// Probability a delivered frame is delivered twice.
    pub duplicate: f64,
    /// Probability a delivered frame is held back long enough to be
    /// overtaken by later frames.
    pub reorder: f64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig::perfect()
    }
}

impl LinkConfig {
    /// The perfect link: instant, lossless, in-order.
    pub fn perfect() -> Self {
        LinkConfig {
            latency_us: 0,
            jitter_us: 0,
            bandwidth_bps: None,
            loss: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
        }
    }

    /// Whether this link can never drop, delay, duplicate or reorder.
    pub fn is_perfect(&self) -> bool {
        self.latency_us == 0
            && self.jitter_us == 0
            && self.bandwidth_bps.is_none()
            && self.loss == 0.0
            && self.duplicate == 0.0
            && self.reorder == 0.0
    }
}

/// What happened to one transmitted frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Transmission {
    /// Arrival times of the frame's copies; the first `copies` are set and
    /// the rest stay 0. A frame arrives at most twice, so they live inline.
    arrivals: [u64; 2],
    copies: usize,
    /// Whether the frame was dropped by the loss model.
    pub(crate) lost: bool,
    /// Whether an extra copy was generated.
    pub(crate) duplicated: bool,
    /// Whether the reorder model delayed the frame past its natural slot.
    pub(crate) reordered: bool,
}

impl Transmission {
    /// Virtual times at which copies of the frame arrive (empty = lost;
    /// two entries = duplicated).
    pub(crate) fn deliveries(&self) -> &[u64] {
        &self.arrivals[..self.copies]
    }

    fn deliver_at(&mut self, at: u64) {
        self.arrivals[self.copies] = at;
        self.copies += 1;
    }
}

/// One direction of a simulated link: applies bandwidth serialization,
/// latency/jitter, loss, duplication and reordering to frames.
#[derive(Debug, Clone)]
pub(crate) struct SimLink {
    config: LinkConfig,
    rng: SmallRng,
    /// Virtual time at which the link's serializer frees up.
    busy_until: u64,
}

/// FNV-1a over a byte string; used to derive stable per-device seeds.
pub(crate) fn stable_hash(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl SimLink {
    /// A link with the given fault model, seeded deterministically.
    pub(crate) fn new(config: LinkConfig, seed: u64) -> Self {
        SimLink {
            config,
            rng: SmallRng::seed_from_u64(seed),
            busy_until: 0,
        }
    }

    /// Transmits a frame of `len` bytes at virtual time `now`, returning
    /// when (and whether) copies arrive at the far end.
    ///
    /// Even lost frames consume serialization time and wire bytes — the
    /// radio transmitted them; the far end just never saw them.
    pub(crate) fn transmit(&mut self, now: u64, len: usize) -> Transmission {
        let mut t = Transmission::default();
        let start = now.max(self.busy_until);
        let tx_us = match self.config.bandwidth_bps {
            Some(bps) if bps > 0 => (len as u64).saturating_mul(1_000_000) / bps.max(1),
            _ => 0,
        };
        self.busy_until = start + tx_us;
        let mut arrival = self.busy_until + self.config.latency_us;
        if self.config.jitter_us > 0 {
            arrival += self.rng.gen_range(0..=self.config.jitter_us);
        }

        // Loss, duplication and reorder draws happen unconditionally so the
        // RNG stream (and therefore the whole run) is identical across
        // configurations that only change probabilities.
        let lost = self.rng.gen_range(0.0f64..1.0) < self.config.loss;
        let duplicated = self.rng.gen_range(0.0f64..1.0) < self.config.duplicate;
        let reordered = self.rng.gen_range(0.0f64..1.0) < self.config.reorder;
        let reorder_extra = self
            .rng
            .gen_range(0..=(4 * self.config.latency_us + self.config.jitter_us + 1_000));

        if lost {
            t.lost = true;
            return t;
        }
        if reordered {
            t.reordered = true;
            arrival += reorder_extra;
        }
        t.deliver_at(arrival);
        if duplicated {
            t.duplicated = true;
            t.deliver_at(arrival + 1 + reorder_extra / 2);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_link_delivers_instantly_in_order() {
        let mut link = SimLink::new(LinkConfig::perfect(), 1);
        for now in [0u64, 5, 9] {
            let t = link.transmit(now, 1500);
            assert_eq!(t.deliveries(), [now]);
            assert!(!t.lost && !t.duplicated && !t.reordered);
        }
    }

    #[test]
    fn bandwidth_serializes_back_to_back_frames() {
        let cfg = LinkConfig {
            bandwidth_bps: Some(1_000_000), // 1 MB/s => 1 µs per byte
            ..LinkConfig::perfect()
        };
        let mut link = SimLink::new(cfg, 1);
        let a = link.transmit(0, 1000);
        let b = link.transmit(0, 1000);
        assert_eq!(a.deliveries(), [1000]);
        assert_eq!(b.deliveries(), [2000], "second frame queues behind first");
    }

    #[test]
    fn a_duplicated_frame_arrives_twice() {
        let cfg = LinkConfig {
            duplicate: 1.0,
            latency_us: 100,
            ..LinkConfig::perfect()
        };
        let mut link = SimLink::new(cfg, 5);
        let t = link.transmit(0, 100);
        assert!(t.duplicated && !t.lost);
        let &[first, second] = t.deliveries() else {
            panic!("two copies expected, got {:?}", t.deliveries());
        };
        assert!(first >= 100 && second > first);
    }

    #[test]
    fn full_loss_drops_everything_and_counts_it() {
        let cfg = LinkConfig {
            loss: 1.0,
            ..LinkConfig::perfect()
        };
        let mut link = SimLink::new(cfg, 3);
        for _ in 0..32 {
            let t = link.transmit(0, 100);
            assert!(t.lost);
            assert!(t.deliveries().is_empty());
        }
    }

    #[test]
    fn same_seed_same_fault_schedule() {
        let cfg = LinkConfig {
            loss: 0.3,
            duplicate: 0.2,
            reorder: 0.2,
            latency_us: 1000,
            jitter_us: 500,
            ..LinkConfig::perfect()
        };
        let mut a = SimLink::new(cfg, 77);
        let mut b = SimLink::new(cfg, 77);
        for i in 0..64 {
            assert_eq!(a.transmit(i * 10, 200), b.transmit(i * 10, 200));
        }
    }
}
