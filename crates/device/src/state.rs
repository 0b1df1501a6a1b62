//! Struct-of-arrays device state for million-device fleets.
//!
//! One object per device — a model clone, a payload-owning
//! [`nazar_registry::ModelPool`], strings — caps a single-process
//! simulation at tens of thousands of devices. The columnar fleet
//! ([`crate::FleetSim`]) instead keeps *columns*:
//!
//! * [`FleetState`] — parallel per-device columns (sorted ids, interned
//!   location codes, entry sequence numbers);
//! * [`DevicePools`] — per-device model-version pools as flat slot columns
//!   whose payloads live **once** in a shared
//!   [`nazar_registry::VersionArena`] and are referenced by id.
//!
//! That is about 240 bytes of resident memory a device at the default
//! configuration, instead of a model clone each — 237 measured right
//! after [`crate::FleetSim::new`] over `fleet_million`'s 1 000 000
//! devices and 17-character ids: a 24-byte id header plus the id's
//! characters in an allocation of their own (32 bytes for those ids), 12
//! bytes of location code and sequence number and 108 of pool (eight
//! 12-byte slots and three counters), and what the allocator keeps of the
//! maps the constructor builds and drops (measured before the constructor
//! found devices from borrowed strings). Nothing
//! per-device belongs to the detector: the fleet holds one 4-byte
//! [`nazar_detect::StreamDetector`].
//!
//! [`DevicePools`] reimplements [`nazar_registry::ModelPool`]'s
//! consolidation and selection semantics *exactly* (same-attrs replace,
//! subsumption eviction, first-minimum LRU, last-maximum selection
//! tie-break) over arena references; `tests/scheduler_determinism.rs`
//! pins the byte-equivalence differentially against real `ModelPool`s.

use nazar_registry::{VersionArena, VersionMeta};
use std::collections::HashMap;

/// Parallel per-device state columns (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct FleetState {
    /// Device ids, sorted; the device index used by every other column is
    /// the position in this vector.
    ids: Vec<String>,
    /// Interned location strings.
    locations: Vec<String>,
    /// Per device: index into `locations`.
    location_of: Vec<u32>,
    /// Per device: drift-log entry sequence number (drives timestamps).
    seq: Vec<u64>,
}

impl FleetState {
    /// Builds the columns for `devices` (`(id, location)` pairs). Duplicate
    /// ids keep the first occurrence's location; ids are sorted internally.
    /// Also returns, for each pair in order, the index of its device — a
    /// by-product of the one lookup a pair costs to deduplicate. Each
    /// distinct id and location is copied once.
    pub(crate) fn new<'a>(
        devices: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> (Self, Vec<u32>) {
        // Distinct devices in first-occurrence order, and each pair's
        // position among them.
        let mut first: HashMap<&'a str, u32> = HashMap::new();
        let mut distinct: Vec<(&'a str, &'a str)> = Vec::new();
        let mut device_of: Vec<u32> = Vec::new();
        for (id, location) in devices {
            let next = distinct.len() as u32;
            let at = *first.entry(id).or_insert_with(|| {
                distinct.push((id, location));
                next
            });
            device_of.push(at);
        }
        drop(first);
        let mut order: Vec<u32> = (0..distinct.len() as u32).collect();
        order.sort_unstable_by_key(|&i| distinct[i as usize].0);
        let mut rank = vec![0u32; distinct.len()];
        for (sorted, &i) in order.iter().enumerate() {
            rank[i as usize] = sorted as u32;
        }
        for d in &mut device_of {
            *d = rank[*d as usize];
        }

        // Locations are coded in sorted-id order.
        let mut locations: Vec<String> = Vec::new();
        let mut location_code: HashMap<&'a str, u32> = HashMap::new();
        let mut ids = Vec::with_capacity(order.len());
        let mut location_of = Vec::with_capacity(order.len());
        for &i in &order {
            let (id, location) = distinct[i as usize];
            ids.push(id.to_string());
            location_of.push(*location_code.entry(location).or_insert_with(|| {
                locations.push(location.to_string());
                (locations.len() - 1) as u32
            }));
        }
        let n = ids.len();
        let state = FleetState {
            ids,
            locations,
            location_of,
            seq: vec![0; n],
        };
        (state, device_of)
    }

    /// Number of devices.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the fleet is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The sorted device ids.
    pub(crate) fn ids(&self) -> &[String] {
        &self.ids
    }

    /// The device index of `id`, if known.
    pub(crate) fn index_of(&self, id: &str) -> Option<usize> {
        self.ids
            .binary_search_by(|probe| probe.as_str().cmp(id))
            .ok()
    }

    /// The id of device `d`.
    pub(crate) fn id(&self, d: usize) -> &str {
        &self.ids[d]
    }

    /// The location of device `d`.
    pub(crate) fn location(&self, d: usize) -> &str {
        &self.locations[self.location_of[d] as usize]
    }

    /// The entry sequence number column, one per device in index order.
    pub(crate) fn seqs_mut(&mut self) -> &mut [u64] {
        &mut self.seq
    }

    /// Device indices a version's cause can ever match (ascending): a cause
    /// naming a `location` or `device_id` only matches those devices.
    pub(crate) fn target_indices(&self, meta: &VersionMeta) -> Vec<u32> {
        let location = meta.attrs.iter().find(|a| a.key == "location");
        let device_id = meta.attrs.iter().find(|a| a.key == "device_id");
        (0..self.len())
            .filter(|&d| {
                let location_ok = location.is_none_or(|a| self.location(d) == a.value);
                let device_ok = device_id.is_none_or(|a| self.id(d) == a.value);
                location_ok && device_ok
            })
            .map(|d| d as u32)
            .collect()
    }
}

/// One stored version in a device's pool: an arena reference plus the
/// device-local bookkeeping [`nazar_registry::ModelPool`] keeps per
/// [`nazar_registry::ModelVersion`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PoolSlot {
    /// The shared version in the fleet's [`VersionArena`].
    pub(crate) arena: u32,
    /// Device-local version id (mirrors `ModelVersion::id`).
    pub(crate) local_id: u32,
    /// Device-local logical deploy time (mirrors `ModelVersion::updated_at`).
    pub(crate) updated_at: u32,
}

/// Per-device slot storage: one flat stride-`capacity` column when the pool
/// is capped, jagged rows when uncapped (the Fig. 8c configuration).
#[derive(Debug, Clone)]
enum SlotStorage {
    Flat { stride: usize, slots: Vec<PoolSlot> },
    Jagged(Vec<Vec<PoolSlot>>),
}

/// Every device's model-version pool, as columns over a shared arena.
#[derive(Debug, Clone)]
pub(crate) struct DevicePools {
    capacity: Option<usize>,
    storage: SlotStorage,
    /// Per device: live slots (insertion order is slot order).
    lens: Vec<u32>,
    /// Per device: logical clock (mirrors `ModelPool::clock`).
    clocks: Vec<u32>,
    /// Per device: next local version id (mirrors `ModelPool::next_id`).
    next_ids: Vec<u32>,
}

impl DevicePools {
    /// Pools for `n` devices with the given per-device capacity (`None`
    /// disables the LRU bound, as in [`nazar_registry::ModelPool::new`]).
    pub(crate) fn new(n: usize, capacity: Option<usize>) -> Self {
        let storage = match capacity {
            Some(cap) => SlotStorage::Flat {
                stride: cap,
                slots: vec![
                    PoolSlot {
                        arena: 0,
                        local_id: 0,
                        updated_at: 0
                    };
                    n * cap
                ],
            },
            None => SlotStorage::Jagged(vec![Vec::new(); n]),
        };
        DevicePools {
            capacity,
            storage,
            lens: vec![0; n],
            clocks: vec![0; n],
            next_ids: vec![0; n],
        }
    }

    /// Live slots of device `d`, in insertion order.
    pub(crate) fn slots(&self, d: usize) -> &[PoolSlot] {
        let len = self.lens[d] as usize;
        match &self.storage {
            SlotStorage::Flat { stride, slots } => &slots[d * stride..d * stride + len],
            SlotStorage::Jagged(rows) => &rows[d][..len],
        }
    }

    /// Maximum stored versions on any device.
    pub(crate) fn max_len(&self) -> usize {
        self.lens.iter().copied().max().unwrap_or(0) as usize
    }

    /// Installs arena version `version` on device `d`, applying
    /// [`nazar_registry::ModelPool::deploy`]'s consolidation rules
    /// byte-for-byte: same-attrs replacement, subsumption eviction, then
    /// first-minimum LRU eviction beyond capacity. Acquires one arena
    /// reference for the stored slot and releases one per evicted slot.
    pub(crate) fn deploy<P>(&mut self, arena: &mut VersionArena<P>, d: usize, version: u32) {
        self.clocks[d] += 1;
        let stored = PoolSlot {
            arena: version,
            local_id: self.next_ids[d],
            updated_at: self.clocks[d],
        };
        self.next_ids[d] += 1;
        // Hold the new version before a release below can free it.
        arena.acquire(version);
        if self.capacity == Some(0) {
            // Nothing fits: the version is stored and evicted at once.
            arena.release(version);
            return;
        }
        let len = self.lens[d] as usize;
        let row: &mut [PoolSlot] = match &mut self.storage {
            SlotStorage::Flat { stride, slots } => &mut slots[d * *stride..d * *stride + len],
            SlotStorage::Jagged(rows) => &mut rows[d][..len],
        };
        // Stable partition in place: the slots that stay, then the replaced
        // and subsumed ones, both in slot order.
        let meta = arena.meta(version);
        let mut kept = 0usize;
        for i in 0..len {
            let v_attrs = &arena.meta(row[i].arena).attrs;
            let same = *v_attrs == meta.attrs;
            let subsumed = !meta.attrs.is_empty()
                && v_attrs.len() > meta.attrs.len()
                && meta.attrs.iter().all(|a| v_attrs.contains(a));
            if !(same || subsumed) {
                row[kept..=i].rotate_right(1);
                kept += 1;
            }
        }
        for slot in &row[kept..] {
            arena.release(slot.arena);
        }
        if let Some(cap) = self.capacity {
            // `stored` carries the row's largest `updated_at`, so the LRU
            // is the first minimum among the kept slots.
            while kept + 1 > cap {
                let mut lru = 0usize;
                for i in 1..kept {
                    if row[i].updated_at < row[lru].updated_at {
                        lru = i;
                    }
                }
                arena.release(row[lru].arena);
                row[lru..kept].rotate_left(1);
                kept -= 1;
            }
        }
        match &mut self.storage {
            SlotStorage::Flat { stride, slots } => slots[d * *stride + kept] = stored,
            SlotStorage::Jagged(rows) => {
                rows[d].truncate(kept);
                rows[d].push(stored);
            }
        }
        self.lens[d] = (kept + 1) as u32;
    }

    /// Picks the version device `d` uses for an input whose attributes
    /// `matches` tests a cause against, mirroring
    /// [`nazar_registry::ModelPool::select`]: most matching attributes,
    /// then risk ratio, then recency — with the *last* maximal slot
    /// winning full ties, as `Iterator::max_by` resolves them.
    /// Returns `(local version id, arena id)`.
    pub(crate) fn select<P>(
        &self,
        arena: &VersionArena<P>,
        d: usize,
        matches: impl Fn(&VersionMeta) -> bool,
    ) -> Option<(u64, u32)> {
        let mut best: Option<&PoolSlot> = None;
        for slot in self.slots(d) {
            let meta = arena.meta(slot.arena);
            if !matches(meta) {
                continue;
            }
            let replace = match best {
                None => true,
                Some(cur) => {
                    let cur_meta = arena.meta(cur.arena);
                    meta.attrs
                        .len()
                        .cmp(&cur_meta.attrs.len())
                        .then(meta.risk_ratio.total_cmp(&cur_meta.risk_ratio))
                        .then(slot.updated_at.cmp(&cur.updated_at))
                        .is_ge()
                }
            };
            if replace {
                best = Some(slot);
            }
        }
        best.map(|slot| (u64::from(slot.local_id), slot.arena))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nazar_log::Attribute;
    use nazar_registry::ModelPool;

    fn attr(k: &str, v: &str) -> Attribute {
        Attribute::new(k, v)
    }

    #[test]
    fn state_sorts_and_dedups_devices() {
        let (state, device_of) = FleetState::new([
            ("b-dev", "boston"),
            ("a-dev", "austin"),
            ("b-dev", "elsewhere"),
        ]);
        assert_eq!(state.len(), 2);
        assert_eq!(device_of, [1, 0, 1], "each pair's device, by sorted id");
        assert_eq!(state.ids(), ["a-dev", "b-dev"]);
        assert_eq!(state.index_of("b-dev"), Some(1));
        assert_eq!(state.index_of("zzz"), None);
        // First occurrence's location wins.
        assert_eq!(state.location(1), "boston");
    }

    #[test]
    fn target_indices_filter_by_location_and_device() {
        let (state, _) = FleetState::new([("a", "nyc"), ("b", "sf"), ("c", "nyc")]);
        let broad = VersionMeta::new(vec![attr("weather", "snow")], 2.0);
        assert_eq!(state.target_indices(&broad), vec![0, 1, 2]);
        let nyc = VersionMeta::new(vec![attr("location", "nyc")], 2.0);
        assert_eq!(state.target_indices(&nyc), vec![0, 2]);
        let one = VersionMeta::new(vec![attr("device_id", "b")], 2.0);
        assert_eq!(state.target_indices(&one), vec![1]);
    }

    /// Replays the same deploy/select script through a real [`ModelPool`]
    /// and through [`DevicePools`] + [`VersionArena`], asserting identical
    /// pool contents and selections at every step. The proptest suite
    /// extends this differentially with random scripts.
    fn check_mirror(capacity: Option<usize>, script: &[VersionMeta]) {
        let mut reference: ModelPool<u32> = ModelPool::new(capacity);
        let mut arena: VersionArena<u32> = VersionArena::new();
        let mut pools = DevicePools::new(1, capacity);
        for (payload, meta) in script.iter().enumerate() {
            reference.deploy(meta.clone(), payload as u32);
            let vid = arena.insert(meta.clone(), payload as u32);
            arena.acquire(vid);
            pools.deploy(&mut arena, 0, vid);
            arena.release(vid);

            assert_eq!(reference.len(), pools.slots(0).len(), "pool sizes diverged");
            for (v, slot) in reference.versions().iter().zip(pools.slots(0)) {
                assert_eq!(v.id, u64::from(slot.local_id));
                assert_eq!(v.updated_at, u64::from(slot.updated_at));
                assert_eq!(v.meta, *arena.meta(slot.arena));
                assert_eq!(v.payload, *arena.payload(slot.arena));
            }
            for probe in [
                vec![attr("weather", "snow")],
                vec![attr("weather", "snow"), attr("location", "nyc")],
                vec![attr("weather", "fog"), attr("location", "nyc")],
                vec![attr("device_id", "d9")],
            ] {
                let want = reference.select(&probe).map(|v| (v.id, v.payload));
                let got = pools
                    .select(&arena, 0, |meta| meta.matches(&probe))
                    .map(|(id, vid)| (id, *arena.payload(vid)));
                assert_eq!(want, got, "selection diverged on {probe:?}");
            }
        }
    }

    #[test]
    fn device_pools_mirror_model_pool_semantics() {
        let script = vec![
            VersionMeta::new(vec![attr("weather", "snow"), attr("location", "nyc")], 2.0),
            VersionMeta::new(vec![attr("weather", "fog")], 1.5),
            VersionMeta::new(vec![attr("weather", "snow")], 3.0), // subsumes #0
            VersionMeta::clean(),
            VersionMeta::new(vec![attr("weather", "fog")], 4.0), // replaces #1
            VersionMeta::new(vec![attr("location", "nyc")], 3.0),
            VersionMeta::new(vec![attr("device_id", "d9")], 1.0),
            VersionMeta::new(vec![attr("weather", "snow")], 2.0), // replace again
        ];
        for capacity in [None, Some(8), Some(3), Some(1), Some(0)] {
            check_mirror(capacity, &script);
        }
    }

    #[test]
    fn evicted_versions_release_their_arena_refs() {
        let mut arena: VersionArena<u32> = VersionArena::new();
        let mut pools = DevicePools::new(2, Some(1));
        let a = arena.insert(VersionMeta::new(vec![attr("weather", "snow")], 1.0), 1);
        let b = arena.insert(VersionMeta::new(vec![attr("weather", "fog")], 1.0), 2);
        for d in 0..2 {
            pools.deploy(&mut arena, d, a);
        }
        assert_eq!(arena.ref_count(a), 2);
        // Capacity 1: deploying b evicts a everywhere; a's slot frees.
        for d in 0..2 {
            pools.deploy(&mut arena, d, b);
        }
        assert_eq!(arena.len(), 1, "evicted version must be freed");
        assert_eq!(arena.ref_count(b), 2);
        assert_eq!(pools.max_len(), 1);
    }
}
