//! Refcounted shared-version arena for million-device fleets.
//!
//! [`crate::ModelPool`] stores a payload clone per device, which is exactly
//! right for the on-device view (each phone owns its bytes) and exactly
//! wrong for simulating a million of them in one process: a broadcast
//! deployment would clone one BN patch a million times. [`VersionArena`]
//! is the host-side fix — every deployed version's `(VersionMeta, payload)`
//! is interned **once**, and device pools hold `u32` references with
//! explicit refcounts. A slot is freed when the last referencing pool
//! evicts it, so long-running fleets do not leak evicted versions.
//!
//! Slot ids are reused (free-list), so holders must balance every
//! [`VersionArena::acquire`] with one [`VersionArena::release`]; the
//! fleet-state differential proptests pin that the arena-backed pools
//! stay byte-equivalent to per-device [`crate::ModelPool`]s.

use crate::VersionMeta;
use nazar_obs::Gauge;

static ARENA_VERSIONS: Gauge = Gauge::new("nazar_registry_arena_versions", &[]);

/// One interned version: metadata, payload, and the number of device pools
/// referencing it.
#[derive(Debug, Clone)]
struct ArenaSlot<P> {
    meta: VersionMeta,
    payload: P,
    refs: u64,
}

/// A refcounted store of deployed model versions, shared by every simulated
/// device (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct VersionArena<P> {
    slots: Vec<Option<ArenaSlot<P>>>,
    free: Vec<u32>,
    live: usize,
}

impl<P> VersionArena<P> {
    /// An empty arena.
    pub fn new() -> Self {
        VersionArena {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Number of live (referenced or not-yet-released) versions.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the arena holds no live versions.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Interns a version with an initial refcount of zero and returns its
    /// id. Callers [`VersionArena::acquire`] it once per holding pool; a
    /// version released back to zero references is freed and its id reused.
    pub fn insert(&mut self, meta: VersionMeta, payload: P) -> u32 {
        let slot = ArenaSlot {
            meta,
            payload,
            refs: 0,
        };
        self.live += 1;
        ARENA_VERSIONS.set(self.live as f64);
        match self.free.pop() {
            Some(id) => {
                self.slots[id as usize] = Some(slot);
                id
            }
            None => {
                self.slots.push(Some(slot));
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Adds one reference to version `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a live version (a use-after-free in the
    /// simulator, which must fail loudly).
    pub fn acquire(&mut self, id: u32) {
        self.slot_mut(id).refs += 1;
    }

    /// Drops one reference to version `id`, freeing the slot when the count
    /// reaches zero. A version still at zero references (inserted but never
    /// acquired) is freed immediately.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a live version.
    pub fn release(&mut self, id: u32) {
        let slot = self.slot_mut(id);
        slot.refs = slot.refs.saturating_sub(1);
        if slot.refs == 0 {
            self.slots[id as usize] = None;
            self.free.push(id);
            self.live -= 1;
            ARENA_VERSIONS.set(self.live as f64);
        }
    }

    /// The metadata of live version `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a live version.
    pub fn meta(&self, id: u32) -> &VersionMeta {
        &self.slot(id).meta
    }

    /// The payload of live version `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a live version.
    pub fn payload(&self, id: u32) -> &P {
        &self.slot(id).payload
    }

    /// The reference count of live version `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a live version.
    pub fn ref_count(&self, id: u32) -> u64 {
        self.slot(id).refs
    }

    fn slot(&self, id: u32) -> &ArenaSlot<P> {
        self.slots
            .get(id as usize)
            .and_then(Option::as_ref)
            .unwrap_or_else(|| panic!("arena version {id} is not live"))
    }

    fn slot_mut(&mut self, id: u32) -> &mut ArenaSlot<P> {
        self.slots
            .get_mut(id as usize)
            .and_then(Option::as_mut)
            .unwrap_or_else(|| panic!("arena version {id} is not live"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nazar_log::Attribute;

    fn meta(v: &str) -> VersionMeta {
        VersionMeta::new(vec![Attribute::new("weather", v)], 2.0)
    }

    #[test]
    fn insert_acquire_release_lifecycle() {
        let mut arena: VersionArena<&'static str> = VersionArena::new();
        let id = arena.insert(meta("snow"), "patch");
        assert_eq!(arena.len(), 1);
        arena.acquire(id);
        arena.acquire(id);
        assert_eq!(arena.ref_count(id), 2);
        assert_eq!(*arena.payload(id), "patch");
        arena.release(id);
        assert_eq!(arena.len(), 1, "one holder left");
        arena.release(id);
        assert!(arena.is_empty(), "last release frees the slot");
    }

    #[test]
    fn freed_slots_are_reused() {
        let mut arena: VersionArena<u32> = VersionArena::new();
        let a = arena.insert(meta("snow"), 1);
        arena.acquire(a);
        arena.release(a);
        let b = arena.insert(meta("fog"), 2);
        assert_eq!(a, b, "free-list must recycle ids");
        assert_eq!(arena.meta(b).attrs[0].value, "fog");
        assert_eq!(*arena.payload(b), 2);
    }

    #[test]
    fn unacquired_version_frees_on_release() {
        let mut arena: VersionArena<u32> = VersionArena::new();
        let id = arena.insert(meta("rain"), 7);
        // A deploy that reached zero devices releases its insertion.
        arena.release(id);
        assert!(arena.is_empty());
    }

    #[test]
    #[should_panic(expected = "not live")]
    fn stale_id_access_panics() {
        let mut arena: VersionArena<u32> = VersionArena::new();
        let id = arena.insert(meta("snow"), 1);
        arena.release(id);
        let _ = arena.payload(id);
    }

    #[test]
    fn shared_payload_is_stored_once() {
        // The point of the arena: a broadcast to N pools costs one payload.
        let mut arena: VersionArena<Vec<u8>> = VersionArena::new();
        let id = arena.insert(meta("snow"), vec![0u8; 1024]);
        for _ in 0..1_000 {
            arena.acquire(id);
        }
        assert_eq!(arena.len(), 1);
        assert_eq!(arena.ref_count(id), 1_000);
    }
}
