//! A TENT job allocates its step buffers once: after the first step, a
//! step allocates no block of 4 KiB or more.
//!
//! This test binary installs a counting global allocator that counts, on
//! the thread that asked for it only, every allocation or reallocation of
//! at least 4 KiB. After a first job, one job of one step and one job of
//! four steps on the same 64-row batch differ only in the three extra
//! steps, so their counts must be equal.

use nazar_adapt::{tent_adapt, TentConfig};
use nazar_nn::{MlpResNet, ModelArch};
use nazar_tensor::Tensor;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

const LARGE: usize = 4096;

thread_local! {
    /// Large allocations on this thread since counting began, if it has.
    static LARGE_ALLOCS: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note(size: usize) {
    if size >= LARGE {
        // `try_with`: the allocator also runs while thread-locals are torn
        // down, when there is nothing left to count into.
        let _ = LARGE_ALLOCS.try_with(|count| {
            if let Some(n) = count.get() {
                count.set(Some(n + 1));
            }
        });
    }
}

struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counting touches only a `Cell` in a const-initialised thread-local,
// which allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The number of allocations of at least 4 KiB `f` makes on this thread.
fn large_allocations(f: impl FnOnce()) -> usize {
    LARGE_ALLOCS.with(|count| count.set(Some(0)));
    f();
    LARGE_ALLOCS
        .with(|count| count.replace(None))
        .expect("counting was on")
}

#[test]
fn tent_steps_after_the_first_allocate_no_large_block() {
    let mut rng = SmallRng::seed_from_u64(11);
    let model = MlpResNet::new(ModelArch::resnet34_analog(64, 40), &mut rng);
    let batch = Tensor::randn(&mut rng, &[64, 64], 0.0, 1.0);
    let job = |epochs: usize| {
        let mut model = model.clone();
        let config = TentConfig {
            epochs,
            ..TentConfig::default()
        };
        let mut steps = 0;
        let large = large_allocations(|| steps = tent_adapt(&mut model, &batch, &config).steps);
        assert_eq!(steps, epochs, "one step per epoch on one batch");
        large
    };
    // The first job fills this thread's tape pool and matmul scratch.
    let first = job(1);
    assert!(first > 0, "the first step allocates its buffers");
    let one_step = job(1);
    let four_steps = job(4);
    assert_eq!(
        four_steps,
        one_step,
        "steps 2-4 allocated {} blocks of 4 KiB or more",
        four_steps.saturating_sub(one_step)
    );
}
