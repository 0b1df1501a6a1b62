//! Transport configuration: retry/backoff policy and the top-level knobs.

use crate::link::LinkConfig;
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Bounded exponential backoff with jitter.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total transmission attempts per frame/transfer (first try included).
    pub max_attempts: u32,
    /// Backoff before the first retry, µs.
    pub base_us: u64,
    /// Backoff ceiling, µs.
    pub max_us: u64,
    /// Jitter as a fraction of the computed backoff (`0.2` = ±20% skew
    /// drawn uniformly from `[0, 0.2 * backoff]` and added).
    pub jitter_frac: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 6,
            base_us: 100_000,  // 100 ms
            max_us: 3_200_000, // 3.2 s
            jitter_frac: 0.2,
        }
    }
}

impl RetryPolicy {
    /// The backoff to wait after attempt number `attempt` (1-based) fails,
    /// with deterministic jitter drawn from `rng`.
    pub fn backoff_us(&self, attempt: u32, rng: &mut SmallRng) -> u64 {
        let exp = attempt.saturating_sub(1).min(20);
        let base = self
            .base_us
            .saturating_mul(1u64 << exp)
            .min(self.max_us.max(self.base_us));
        let jitter_bound = (base as f64 * self.jitter_frac) as u64;
        // Draw unconditionally so the RNG stream does not depend on the
        // jitter setting.
        let jitter = rng.gen_range(0..=jitter_bound.max(1));
        if jitter_bound == 0 {
            base
        } else {
            base + jitter
        }
    }
}

/// Top-level transport configuration.
///
/// The default routes every exchange through the wire protocol over a
/// **perfect** simulated link (instant, lossless), which delivers bitwise
/// what direct `FleetSim` calls produce; fault injection is opt-in via the
/// fields here.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetConfig {
    /// Fault/delay model, applied to both directions.
    pub link: LinkConfig,
    /// Retry/backoff for unacked uploads and stalled downloads.
    pub retry: RetryPolicy,
    /// Bounded client outbox, in frames; the oldest unsent frame is dropped
    /// when a new batch would overflow it (backpressure).
    pub outbox_frames: usize,
    /// Upload batching: at most this many drift-log entries per frame.
    pub max_batch_entries: usize,
    /// Upload batching: at most this many sampled inputs per frame (their
    /// feature payloads dominate frame size).
    pub max_batch_samples: usize,
    /// Chunk size for resumable patch downloads, bytes.
    pub chunk_bytes: usize,
    /// Per-round straggler cutoff in virtual µs: uploads still undelivered
    /// this long after the round opens are abandoned (`None` = wait for
    /// retries to resolve).
    pub straggler_cutoff_us: Option<u64>,
    /// Master seed for link fault schedules and backoff jitter.
    pub seed: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            link: LinkConfig::perfect(),
            retry: RetryPolicy::default(),
            outbox_frames: 256,
            max_batch_entries: 64,
            max_batch_samples: 32,
            chunk_bytes: 4096,
            straggler_cutoff_us: None,
            seed: 0x6E61_7A61, // "naza"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy {
            jitter_frac: 0.0,
            ..RetryPolicy::default()
        };
        let mut rng = SmallRng::seed_from_u64(0);
        let b1 = p.backoff_us(1, &mut rng);
        let b2 = p.backoff_us(2, &mut rng);
        let b3 = p.backoff_us(3, &mut rng);
        assert_eq!(b1, p.base_us);
        assert_eq!(b2, 2 * p.base_us);
        assert_eq!(b3, 4 * p.base_us);
        let b_many = p.backoff_us(30, &mut rng);
        assert_eq!(b_many, p.max_us);
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let p = RetryPolicy::default();
        let mut a = SmallRng::seed_from_u64(9);
        let mut b = SmallRng::seed_from_u64(9);
        for attempt in 1..6 {
            let x = p.backoff_us(attempt, &mut a);
            let y = p.backoff_us(attempt, &mut b);
            assert_eq!(x, y);
            let base = (p.base_us << (attempt - 1)).min(p.max_us);
            assert!(x >= base && x <= base + (base as f64 * p.jitter_frac) as u64 + 1);
        }
    }

    #[test]
    fn default_config_is_perfect_link() {
        assert!(NetConfig::default().link.is_perfect());
    }
}
