//! A TENT job allocates its step buffers once: after the first step, a
//! step allocates no block of 4 KiB or more; and after the first job, a
//! job allocates no block as large as its data.
//!
//! This test binary installs the counting global allocator of
//! `tests/support/counting_alloc.rs`, which counts, on the thread that
//! asked for it only, every allocation or reallocation of at least 4 KiB,
//! and of at least a given size. After a first job, one
//! job of one step and one job of four steps on the same 64-row batch
//! differ only in the three extra steps, so their counts must be equal.
//! Neither copies its all-finite data nor allocates step state: the
//! finite-row filter borrows data it drops nothing from, and the step
//! state, weight panels and all, waits on an idle list between jobs.

use nazar_adapt::{tent_adapt, TentConfig};
use nazar_nn::{MlpResNet, ModelArch};
use nazar_tensor::Tensor;
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

const LARGE: usize = 4096;

/// Allocations counted on one thread: of at least [`LARGE`] bytes, and of
/// at least `huge` bytes.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Counts {
    large: usize,
    huge: usize,
}

/// The allocations of at least 4 KiB, and of at least `huge` bytes, `f`
/// makes on this thread.
fn allocations(huge: usize, f: impl FnOnce()) -> Counts {
    let [large, huge] = counting_alloc::count([LARGE, huge], f).at_least;
    Counts { large, huge }
}

#[test]
fn tent_steps_after_the_first_allocate_no_large_block() {
    let mut rng = SmallRng::seed_from_u64(11);
    let model = MlpResNet::new(ModelArch::resnet34_analog(64, 40), &mut rng);
    let batch = Tensor::randn(&mut rng, &[64, 64], 0.0, 1.0);
    let data_bytes = batch.len() * std::mem::size_of::<f32>();
    let job = |epochs: usize| {
        let mut model = model.clone();
        let config = TentConfig {
            epochs,
            ..TentConfig::default()
        };
        let mut steps = 0;
        let counts = allocations(data_bytes, || {
            steps = tent_adapt(&mut model, &batch, &config).steps
        });
        assert_eq!(steps, epochs, "one step per epoch on one batch");
        counts
    };
    // The first job fills the idle step state, this thread's matmul
    // scratch and its eval workspace.
    let first = job(1);
    assert!(first.huge > 0, "the first job allocates its step state");
    let one_step = job(1);
    let four_steps = job(4);
    assert_eq!(
        four_steps.large,
        one_step.large,
        "steps 2-4 allocated {} blocks of 4 KiB or more",
        four_steps.large.saturating_sub(one_step.large)
    );
    for (what, counts) in [("one-step", one_step), ("four-step", four_steps)] {
        assert_eq!(
            counts.huge, 0,
            "a {what} job after the first allocated {} blocks of {data_bytes} B or more",
            counts.huge
        );
    }
}
