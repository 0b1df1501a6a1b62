//! A process-wide list of idle step scratch.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// The scratch of the jobs not running: TENT's step states, MEMO's tape
/// pools, a training epoch's step state. A job takes one, or starts an
/// empty one, and puts it back when it ends, so there are as many as jobs
/// ever ran at once, each holding one job's buffers. Scratch per job would
/// hand a step's buffers back to the allocator at each job's end, and
/// glibc, in some processes, trims them off the heap for the next job to
/// fault back in. Scratch per thread would do the same wherever jobs run
/// on threads spawned for one fan-out and joined after it, as the
/// orchestrator's are.
#[derive(Debug, Default)]
pub struct Idle<T>(Mutex<Vec<T>>);

impl<T: Default> Idle<T> {
    /// An empty list, for a `static`.
    pub const fn new() -> Self {
        Idle(Mutex::new(Vec::new()))
    }

    /// An idle one, or a new one. A job holds the lock only to pop or
    /// push one, so the list is whole even if the lock was poisoned.
    pub fn take(&self) -> T {
        self.lock().pop().unwrap_or_default()
    }

    /// Hands `scratch` back for the next job.
    pub fn put(&self, scratch: T) {
        self.lock().push(scratch);
    }

    fn lock(&self) -> MutexGuard<'_, Vec<T>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}
