//! A counting global allocator for the allocation tests.
//!
//! A test binary that includes this module (by `#[path]`) installs it as
//! its global allocator. It counts, on the thread that asked for it only,
//! every allocation and reallocation, and separately those of at least
//! each of two sizes; every call forwards to [`System`].

// Each test binary reads its own subset of the counts.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations (and reallocations) one thread made while counting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counts {
    /// All of them.
    pub all: usize,
    /// Those of at least the first and the second size [`count`] was
    /// given, bytes.
    pub at_least: [usize; 2],
}

thread_local! {
    /// The two sizes and the counts on this thread since counting began,
    /// if it has.
    static COUNTING: Cell<Option<([usize; 2], Counts)>> = const { Cell::new(None) };
}

fn note(size: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down, when there is nothing left to count into.
    let _ = COUNTING.try_with(|cell| {
        if let Some((sizes, mut counts)) = cell.get() {
            counts.all += 1;
            for (n, &min) in counts.at_least.iter_mut().zip(&sizes) {
                *n += usize::from(size >= min);
            }
            cell.set(Some((sizes, counts)));
        }
    });
}

/// The allocator: [`System`], counting.
pub struct Counting;

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

/// The allocations `f` makes on this thread: all of them, and those of at
/// least `sizes[0]` and `sizes[1]` bytes.
pub fn count(sizes: [usize; 2], f: impl FnOnce()) -> Counts {
    let zero = Counts {
        all: 0,
        at_least: [0; 2],
    };
    COUNTING.with(|cell| cell.set(Some((sizes, zero))));
    f();
    COUNTING
        .with(|cell| cell.replace(None))
        .expect("counting was on")
        .1
}
