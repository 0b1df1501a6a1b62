//! The shared virtual timeline.
//!
//! Every component of the simulation — per-link delivery events inside
//! [`crate::Exchange`] and the fleet's sample arrivals and window closes
//! — runs on one monotone virtual clock counted in microseconds. The clock never sleeps and never reads
//! wall time, so simulated 200 ms RTTs cost nothing, results are
//! bit-reproducible, and a million-device day replays in however long the
//! arithmetic takes.
//!
//! [`VirtualClock`] is deliberately minimal: it only moves **forward**.
//! Components that exchange work (fleet ↔ exchange) synchronise by handing
//! each other their `now_us` and calling [`VirtualClock::advance_to`],
//! which makes "clock skew" between subsystems impossible by construction.

use serde::{Deserialize, Serialize};

/// A monotone virtual clock, in microseconds since simulation start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VirtualClock {
    now_us: u64,
}

impl VirtualClock {
    /// A clock at virtual time zero.
    pub fn new() -> Self {
        VirtualClock { now_us: 0 }
    }

    /// Current virtual time, µs.
    pub fn now_us(self) -> u64 {
        self.now_us
    }

    /// Moves the clock forward to `t_us`. Earlier times are ignored — the
    /// clock is monotone, so syncing against another component's clock can
    /// never rewind local time.
    pub fn advance_to(&mut self, t_us: u64) {
        self.now_us = self.now_us.max(t_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotone() {
        let mut c = VirtualClock::new();
        assert_eq!(c.now_us(), 0);
        c.advance_to(100);
        assert_eq!(c.now_us(), 100);
        c.advance_to(40);
        assert_eq!(c.now_us(), 100, "advance_to must never rewind");
    }
}
