//! A small buffer pool for intermediate `f32` scratch space.
//!
//! The kernels in [`crate::kernels`] take their scratch (packed operand
//! panels, temporary rows) from a [`Workspace`] instead of allocating,
//! so tight loops — autograd backward sweeps, TENT adaptation steps —
//! recycle the same buffers across calls. The allocating [`crate::Tensor`]
//! methods route through a thread-local workspace, which keeps the public
//! API unchanged while still amortizing allocations.

use nazar_obs::{LazyCounter, LazyGauge};
use std::cell::RefCell;
use std::sync::atomic::{AtomicIsize, Ordering};

/// How many returned buffers a workspace keeps before dropping the rest.
const MAX_POOLED: usize = 16;

/// Shrink trigger: a buffer returned with more than `HIGH_WATER_RATIO`
/// times the recent peak request size is considered a burst leftover and
/// is shrunk before pooling, so one huge adaptation job cannot pin
/// peak-sized scratch for the rest of the run.
const HIGH_WATER_RATIO: usize = 4;

/// Per-recycle decay divisor of the recent-peak request tracker. Each
/// recycle leaks `1/16` of the remembered peak, so the watermark follows
/// demand down within a few dozen recycles of a burst ending.
const PEAK_DECAY_DIVISOR: usize = 16;

/// Buffers at or below this capacity (in elements) are never shrunk —
/// small scratch is cheap to keep and reallocation-churn-prone.
const SHRINK_FLOOR: usize = 1024;

static POOL_HITS: LazyCounter = LazyCounter::new_volatile(
    "nazar_tensor_workspace_pool_total",
    "Workspace buffer requests by outcome",
    &[("result", "hit")],
);
static POOL_MISSES: LazyCounter = LazyCounter::new_volatile(
    "nazar_tensor_workspace_pool_total",
    "Workspace buffer requests by outcome",
    &[("result", "miss")],
);
static POOL_BYTES: LazyGauge = LazyGauge::new_volatile(
    "nazar_tensor_workspace_pool_bytes",
    "Bytes currently held by workspace buffer pools (all threads)",
    &[],
);

/// Process-wide pooled-bytes total backing the gauge (workspaces are
/// per-thread, the gauge is global, so each pool publishes deltas).
static POOL_BYTES_TOTAL: AtomicIsize = AtomicIsize::new(0);

fn note_pool_bytes(delta: isize) {
    if delta == 0 {
        return;
    }
    let now = POOL_BYTES_TOTAL.fetch_add(delta, Ordering::Relaxed) + delta;
    POOL_BYTES.set(now.max(0) as f64);
}

/// A recycling pool of `Vec<f32>` scratch buffers.
#[derive(Debug, Default)]
pub struct Workspace {
    pool: Vec<Vec<f32>>,
    /// Decayed high-water mark of recent request sizes (elements).
    recent_peak: usize,
}

impl Workspace {
    /// An empty workspace.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Number of buffers currently pooled (diagnostics/tests).
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }

    /// Bytes currently held by this pool's buffers.
    pub fn pooled_bytes(&self) -> usize {
        self.pool
            .iter()
            .map(|b| b.capacity() * std::mem::size_of::<f32>())
            .sum()
    }

    /// Takes a buffer of exactly `len` elements, all zero.
    ///
    /// Reuses a pooled buffer when one has sufficient capacity; callers
    /// return buffers with [`Workspace::recycle`] when done.
    pub fn take_zeroed(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.take_buffer(len);
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }

    /// Takes a buffer of exactly `len` elements with unspecified contents.
    ///
    /// Cheaper than [`Workspace::take_zeroed`]; use only when every element
    /// is written before being read.
    pub fn take_filled_later(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.take_buffer(len);
        // Contents are about to be overwritten; only the length matters.
        // (Zero-fill still happens for the freshly grown tail — safe code
        // cannot hand out uninitialized memory.)
        buf.resize(len, 0.0);
        buf.truncate(len);
        buf
    }

    fn take_buffer(&mut self, len: usize) -> Vec<f32> {
        self.recent_peak = self.recent_peak.max(len);
        match self
            .pool
            .iter()
            .position(|b| b.capacity() >= len)
            .map(|i| self.pool.swap_remove(i))
        {
            Some(buf) => {
                POOL_HITS.inc();
                note_pool_bytes(-((buf.capacity() * std::mem::size_of::<f32>()) as isize));
                buf
            }
            None => {
                POOL_MISSES.inc();
                Vec::with_capacity(len)
            }
        }
    }

    /// Returns a buffer to the pool for reuse.
    ///
    /// Shrink/cap policy: the pool remembers a decayed high-water mark of
    /// recent request sizes; a returned buffer whose capacity exceeds
    /// `HIGH_WATER_RATIO` (4) times that mark is shrunk to the mark before
    /// pooling. A one-off burst (a single large adaptation job) therefore
    /// stops pinning peak-sized scratch once steady-state requests drop
    /// back down — the regression test below drives exactly that shape.
    pub fn recycle(&mut self, mut buf: Vec<f32>) {
        if buf.capacity() == 0 {
            return;
        }
        // Decay the watermark toward current demand before judging `buf`.
        self.recent_peak -= self.recent_peak / PEAK_DECAY_DIVISOR;
        let cap_target = self.recent_peak.max(SHRINK_FLOOR);
        if buf.capacity() > cap_target.saturating_mul(HIGH_WATER_RATIO) {
            buf.truncate(cap_target);
            buf.shrink_to(cap_target);
        }
        if self.pool.len() >= MAX_POOLED {
            // Keep the larger buffer: evict the smallest pooled one.
            if let Some((i, _)) = self
                .pool
                .iter()
                .enumerate()
                .min_by_key(|(_, b)| b.capacity())
            {
                if self.pool[i].capacity() < buf.capacity() {
                    let evicted = std::mem::replace(&mut self.pool[i], buf);
                    let delta = self.pool[i].capacity() as isize - evicted.capacity() as isize;
                    note_pool_bytes(delta * std::mem::size_of::<f32>() as isize);
                }
            }
            return;
        }
        note_pool_bytes((buf.capacity() * std::mem::size_of::<f32>()) as isize);
        self.pool.push(buf);
    }

    /// Runs `f` with this thread's shared workspace.
    ///
    /// The allocating [`crate::Tensor`] wrappers use this so repeated calls
    /// on one thread recycle scratch buffers without any API change.
    pub fn with_thread_local<R>(f: impl FnOnce(&mut Workspace) -> R) -> R {
        thread_local! {
            static WS: RefCell<Workspace> = RefCell::new(Workspace::new());
        }
        WS.with(|ws| f(&mut ws.borrow_mut()))
    }
}

impl Drop for Workspace {
    fn drop(&mut self) {
        // Keep the process-wide pooled-bytes gauge honest when short-lived
        // workspaces (tests, one-shot jobs) die with buffers still pooled.
        note_pool_bytes(-(self.pooled_bytes() as isize));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_zeroed_returns_zeroes_even_after_recycle() {
        let mut ws = Workspace::new();
        let mut buf = ws.take_zeroed(8);
        buf.iter_mut().for_each(|v| *v = 9.0);
        ws.recycle(buf);
        assert_eq!(ws.pooled(), 1);
        let again = ws.take_zeroed(4);
        assert!(again.iter().all(|&v| v == 0.0));
        assert_eq!(again.len(), 4);
        assert_eq!(ws.pooled(), 0);
    }

    #[test]
    fn buffers_are_reused_not_reallocated() {
        let mut ws = Workspace::new();
        let buf = ws.take_zeroed(1024);
        let ptr = buf.as_ptr();
        ws.recycle(buf);
        let buf2 = ws.take_zeroed(512);
        assert_eq!(buf2.as_ptr(), ptr, "pooled buffer should be reused");
    }

    #[test]
    fn pool_is_bounded() {
        let mut ws = Workspace::new();
        for i in 0..(MAX_POOLED + 8) {
            ws.recycle(vec![0.0; i + 1]);
        }
        assert!(ws.pooled() <= MAX_POOLED);
    }

    #[test]
    fn burst_footprint_decays_back_to_steady_state() {
        // Regression (PR 9 satellite 2): a single peak-sized matmul used to
        // pin its scratch capacity in the pool forever. Drive one large
        // burst, then a steady small workload, and require the pool's
        // footprint to decay to within the shrink policy's envelope.
        let mut ws = Workspace::new();
        const BURST: usize = 1 << 20; // 1M elements = 4 MiB
        const STEADY: usize = 2048;

        let big = ws.take_filled_later(BURST);
        ws.recycle(big);
        let burst_bytes = ws.pooled_bytes();
        assert!(burst_bytes >= BURST * 4, "burst retained: {burst_bytes}");

        // Steady-state small requests; the decayed watermark must fall and
        // the oversized buffer must be shrunk on some return.
        for _ in 0..200 {
            let buf = ws.take_filled_later(STEADY);
            ws.recycle(buf);
        }
        let settled = ws.pooled_bytes();
        let envelope = STEADY * 4 * HIGH_WATER_RATIO * 4 + SHRINK_FLOOR * 4 * MAX_POOLED;
        assert!(
            settled <= envelope,
            "pool footprint failed to decay: {settled} bytes (envelope {envelope})"
        );
        assert!(settled < burst_bytes / 8, "no meaningful decay: {settled}");
    }

    #[test]
    fn pooled_bytes_tracks_pool_contents() {
        let mut ws = Workspace::new();
        assert_eq!(ws.pooled_bytes(), 0);
        let buf = ws.take_filled_later(100);
        let cap = buf.capacity();
        ws.recycle(buf);
        assert_eq!(ws.pooled_bytes(), cap * 4);
        let _ = ws.take_filled_later(10);
        assert_eq!(ws.pooled_bytes(), 0);
    }

    #[test]
    fn thread_local_workspace_is_shared_within_a_thread() {
        let ptr = Workspace::with_thread_local(|ws| {
            let buf = ws.take_zeroed(256);
            let p = buf.as_ptr();
            ws.recycle(buf);
            p
        });
        let ptr2 = Workspace::with_thread_local(|ws| {
            let buf = ws.take_zeroed(128);
            let p = buf.as_ptr();
            ws.recycle(buf);
            p
        });
        assert_eq!(ptr, ptr2);
    }
}
