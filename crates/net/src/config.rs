//! Transport configuration, and the retry/backoff schedule it does not
//! expose.

use crate::link::LinkConfig;
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Backoff before the first retry, µs (100 ms).
const BACKOFF_BASE_US: u64 = 100_000;
/// Backoff ceiling, µs (3.2 s).
const BACKOFF_MAX_US: u64 = 3_200_000;
/// Jitter as a fraction of the computed backoff: a skew drawn uniformly
/// from `[0, 0.2 * backoff]` is added.
const BACKOFF_JITTER: f64 = 0.2;

/// Bounded client outbox, in frames; the oldest unsent frame is dropped
/// when a new batch would overflow it (backpressure).
pub(crate) const OUTBOX_FRAMES: usize = 256;
/// Upload batching: at most this many drift-log entries per frame.
pub(crate) const MAX_BATCH_ENTRIES: usize = 64;
/// Upload batching: at most this many sampled inputs per frame (their
/// feature payloads dominate frame size).
pub(crate) const MAX_BATCH_SAMPLES: usize = 32;

/// The backoff to wait after attempt number `attempt` (1-based) fails:
/// exponential from [`BACKOFF_BASE_US`], capped at [`BACKOFF_MAX_US`],
/// plus deterministic jitter drawn from `rng`.
pub(crate) fn backoff_us(attempt: u32, rng: &mut SmallRng) -> u64 {
    let exp = attempt.saturating_sub(1).min(20);
    let base = (BACKOFF_BASE_US << exp).min(BACKOFF_MAX_US);
    let jitter_bound = (base as f64 * BACKOFF_JITTER) as u64;
    base + rng.gen_range(0..=jitter_bound)
}

/// Top-level transport configuration.
///
/// The default routes every exchange through the wire protocol over a
/// **perfect** simulated link (instant, lossless), which delivers bitwise
/// what direct `FleetSim` calls produce; fault injection is opt-in via
/// `link`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetConfig {
    /// Fault/delay model, applied to both directions.
    pub link: LinkConfig,
    /// Total transmission attempts per upload frame and per deploy
    /// transfer, the first try included. Config files written before this
    /// was a top-level key carry it inside a `retry` object, which is
    /// ignored: they load with the default of 6.
    #[serde(default = "default_max_attempts")]
    pub max_attempts: u32,
    /// Chunk size for resumable patch downloads, bytes.
    pub chunk_bytes: usize,
    /// Master seed for link fault schedules and backoff jitter.
    pub seed: u64,
}

fn default_max_attempts() -> u32 {
    6
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            link: LinkConfig::perfect(),
            max_attempts: default_max_attempts(),
            chunk_bytes: 4096,
            seed: 0x6E61_7A61, // "naza"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Attempt `attempt`'s backoff before jitter.
    fn unjittered(attempt: u32) -> u64 {
        (BACKOFF_BASE_US << (attempt - 1).min(20)).min(BACKOFF_MAX_US)
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let mut rng = SmallRng::seed_from_u64(0);
        let within = |b: u64, base: u64| b >= base && b <= base + base / 5;
        let b1 = backoff_us(1, &mut rng);
        let b2 = backoff_us(2, &mut rng);
        let b3 = backoff_us(3, &mut rng);
        assert!(within(b1, BACKOFF_BASE_US), "{b1}");
        assert!(within(b2, 2 * BACKOFF_BASE_US), "{b2}");
        assert!(within(b3, 4 * BACKOFF_BASE_US), "{b3}");
        assert_eq!(unjittered(6), BACKOFF_MAX_US);
        let b_many = backoff_us(30, &mut rng);
        assert!(within(b_many, BACKOFF_MAX_US), "{b_many}");
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let mut a = SmallRng::seed_from_u64(9);
        let mut b = SmallRng::seed_from_u64(9);
        for attempt in 1..6 {
            let x = backoff_us(attempt, &mut a);
            let y = backoff_us(attempt, &mut b);
            assert_eq!(x, y);
            let base = unjittered(attempt);
            assert!(x >= base && x <= base + (base as f64 * BACKOFF_JITTER) as u64);
        }
    }

    #[test]
    fn default_config_is_perfect_link() {
        assert!(NetConfig::default().link.is_perfect());
    }
}
