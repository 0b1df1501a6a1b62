//! Host-speed calibration.
//!
//! The sandbox this benchmark runs in is a small virtual machine whose
//! speed drifts by a quarter or more over minutes (a fixed interpreter
//! loop, timed for a minute, read 104..183 ms with CPU time tracking wall
//! time — contention for the core, not scheduling). Ten runs of one
//! unchanged program therefore spread by 10..25 % on every wall-clock
//! metric, which no regression bound the contract allows can sit on.
//!
//! So a fixed kernel — arithmetic over a cache-resident array plus
//! dependent loads over a few megabytes, none of it the repository's code
//! — is timed between the timed sections, all through the measuring
//! window, and the window's median times are scaled by `NOMINAL_MS /
//! median kernel time`: what they would have read with the host at its
//! nominal speed. One reading of a 30 ms kernel is itself noisy, so single
//! samples are never scaled, only medians by a median. The raw medians are
//! printed beside the scaled ones. A change to the program moves its
//! samples and not the kernel's, so it shows in the scaled time exactly as
//! in the raw one.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the reference host when nothing contends, ms.
/// Only a scale: it makes scaled times read like seconds on that host.
pub const NOMINAL_MS: f64 = 25.0;

const SMALL: usize = 32 * 1024; // 128 KiB of f32: stays in L2
const LARGE: usize = 1024 * 1024; // 4 MiB of u32: past L2, small beside the workloads' RSS

/// Scratch buffers for the kernel, allocated once per process.
pub struct Calibrator {
    small: Vec<f32>,
    chain: Vec<u32>,
}

impl Calibrator {
    pub fn new() -> Self {
        let small = (0..SMALL).map(|i| (i % 97) as f32 * 0.01).collect();
        // One cycle through the buffer with a large odd stride: each load's
        // address depends on the previous load.
        let stride = 4_099_usize * 16 + 1;
        let mut chain = vec![0u32; LARGE];
        let mut at = 0usize;
        for _ in 0..LARGE {
            let next = (at + stride) % LARGE;
            chain[at] = next as u32;
            at = next;
        }
        Calibrator { small, chain }
    }

    /// Runs the kernel once; returns its wall time in ms.
    pub fn kernel_ms(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut acc = 0.0f32;
        for pass in 0..400 {
            let k = 1.0 + pass as f32 * 1e-3;
            for v in self.small.iter_mut() {
                *v = *v * k + 0.5;
                acc += *v;
            }
            for v in self.small.iter_mut() {
                *v *= 0.25;
            }
        }
        let mut at = 0u32;
        for _ in 0..2_400_000 {
            at = self.chain[at as usize];
        }
        black_box((acc, at));
        t0.elapsed().as_secs_f64() * 1e3
    }

    /// The factor that scales medians taken while the kernel read
    /// `readings_ms` to nominal host speed.
    pub fn scale(readings_ms: &[f64]) -> f64 {
        NOMINAL_MS / crate::stats::median(readings_ms)
    }
}
