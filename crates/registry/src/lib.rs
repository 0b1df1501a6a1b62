//! Model version pool: consolidation and on-device version selection.
//!
//! By-cause adaptation produces one BN patch per root cause, and patches
//! accumulate over time. Nazar bounds the number of versions a device
//! stores (§3.4 "Consolidating model versions"):
//!
//! * a new version with the *exact same* attribute set replaces the old one;
//! * a new version whose coverage subsumes an older version's (its attribute
//!   set is a subset — e.g. `{snow}` arriving when `{snow, new-york}` is
//!   stored) evicts the older one, mirroring set reduction;
//! * beyond that, a least-recently-updated (LRU) policy evicts the oldest
//!   versions when the pool exceeds its capacity.
//!
//! For inference (§3.4 "Picking which version to use"), the device picks the
//! stored version with the most attributes matching the input's metadata,
//! breaking ties by risk-ratio rank and then by recency; a version with no
//! attributes (the continuously-adapted "clean" model) matches everything
//! and therefore acts as the fallback. Selection runs entirely on-device.
//!
//! # Example
//!
//! ```
//! use nazar_log::Attribute;
//! use nazar_registry::{ModelPool, VersionMeta};
//!
//! let mut pool: ModelPool<&'static str> = ModelPool::new(Some(3));
//! pool.deploy(
//!     VersionMeta::new(vec![Attribute::new("weather", "snow")], 3.0),
//!     "snow-patch",
//! );
//! let input = [Attribute::new("weather", "snow"), Attribute::new("location", "nyc")];
//! let chosen = pool.select(&input).unwrap();
//! assert_eq!(chosen.payload, "snow-patch");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;

pub use arena::VersionArena;

use nazar_log::Attribute;
use nazar_obs::Counter;
use serde::{Deserialize, Serialize};

static DEPLOYS: Counter = Counter::new("nazar_registry_deploys_total", &[]);
static EVICT_REPLACED: Counter =
    Counter::new("nazar_registry_evictions_total", &[("reason", "replaced")]);
static EVICT_SUBSUMED: Counter =
    Counter::new("nazar_registry_evictions_total", &[("reason", "subsumed")]);
static EVICT_LRU: Counter = Counter::new("nazar_registry_evictions_total", &[("reason", "lru")]);
static SELECT_HITS: Counter = Counter::new("nazar_registry_selects_total", &[("result", "hit")]);
static SELECT_MISSES: Counter = Counter::new("nazar_registry_selects_total", &[("result", "miss")]);

/// Metadata of a model version: the root cause it was adapted to and the
/// cause's risk-ratio rank.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VersionMeta {
    /// Attribute set of the root cause (empty for the "clean" model).
    pub attrs: Vec<Attribute>,
    /// Risk ratio of the cause, used to break selection ties.
    pub risk_ratio: f64,
}

impl VersionMeta {
    /// Creates version metadata; the attribute set is canonicalized (sorted).
    pub fn new(mut attrs: Vec<Attribute>, risk_ratio: f64) -> Self {
        attrs.sort();
        VersionMeta { attrs, risk_ratio }
    }

    /// Metadata of the clean (matches-everything fallback) model.
    pub fn clean() -> Self {
        VersionMeta {
            attrs: Vec::new(),
            risk_ratio: 0.0,
        }
    }

    /// Whether every attribute of this version appears in `input_attrs`.
    pub fn matches(&self, input_attrs: &[Attribute]) -> bool {
        self.attrs.iter().all(|a| input_attrs.contains(a))
    }
}

/// One deployed model version: metadata plus an opaque payload (a BN patch
/// in the real system; generic so tests and simulations can store anything).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelVersion<P> {
    /// Unique id within the pool.
    pub id: u64,
    /// Cause metadata.
    pub meta: VersionMeta,
    /// The deployable artifact (e.g. [`nazar_nn::BnPatch`]).
    pub payload: P,
    /// Logical time of the last deployment/update of this version.
    pub updated_at: u64,
}

/// Outcome of a deployment: the new version's id and any evicted ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeployOutcome {
    /// Id assigned to the deployed version.
    pub id: u64,
    /// Ids evicted to make room (same-cause replacement, subsumption, LRU).
    pub evicted: Vec<u64>,
}

/// The per-device (and cloud-side master) pool of model versions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelPool<P> {
    capacity: Option<usize>,
    versions: Vec<ModelVersion<P>>,
    clock: u64,
    next_id: u64,
}

impl<P> ModelPool<P> {
    /// Creates a pool; `capacity = None` disables the LRU bound (used by the
    /// Fig. 8c experiment, which counts uncapped version growth).
    pub fn new(capacity: Option<usize>) -> Self {
        ModelPool {
            capacity,
            versions: Vec::new(),
            clock: 0,
            next_id: 0,
        }
    }

    /// Number of stored versions.
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// The stored versions, in insertion order.
    pub fn versions(&self) -> &[ModelVersion<P>] {
        &self.versions
    }

    /// Looks up a version by id.
    pub fn get(&self, id: u64) -> Option<&ModelVersion<P>> {
        self.versions.iter().find(|v| v.id == id)
    }

    /// Deploys a new version, applying the consolidation rules.
    pub fn deploy(&mut self, meta: VersionMeta, payload: P) -> DeployOutcome {
        self.clock += 1;
        let mut evicted = Vec::new();

        // Rule 1 & 2: evict same-cause versions and versions this cause
        // subsumes (their attribute set strictly contains the incoming one).
        self.versions.retain(|v| {
            let same = v.meta.attrs == meta.attrs;
            let subsumed = !meta.attrs.is_empty()
                && v.meta.attrs.len() > meta.attrs.len()
                && meta.attrs.iter().all(|a| v.meta.attrs.contains(a));
            if same || subsumed {
                if same {
                    EVICT_REPLACED.inc();
                } else {
                    EVICT_SUBSUMED.inc();
                }
                evicted.push(v.id);
                false
            } else {
                true
            }
        });

        let id = self.next_id;
        self.next_id += 1;
        self.versions.push(ModelVersion {
            id,
            meta,
            payload,
            updated_at: self.clock,
        });

        // Rule 3: LRU eviction beyond capacity.
        if let Some(cap) = self.capacity {
            while self.versions.len() > cap {
                let Some((idx, _)) = self
                    .versions
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, v)| v.updated_at)
                else {
                    break;
                };
                evicted.push(self.versions[idx].id);
                self.versions.remove(idx);
                EVICT_LRU.inc();
            }
        }
        DEPLOYS.inc();
        if !evicted.is_empty() {
            nazar_obs::event!(
                "pool_evict",
                version = id,
                evicted = evicted
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(","),
                pool_size = self.versions.len(),
            );
        }
        DeployOutcome { id, evicted }
    }

    /// Picks the version to use for an input with the given metadata
    /// attributes, or `None` if the pool is empty or nothing matches
    /// (callers then fall back to the base model).
    pub fn select(&self, input_attrs: &[Attribute]) -> Option<&ModelVersion<P>> {
        let chosen = self
            .versions
            .iter()
            .filter(|v| v.meta.matches(input_attrs))
            .max_by(|a, b| {
                a.meta
                    .attrs
                    .len()
                    .cmp(&b.meta.attrs.len())
                    .then(a.meta.risk_ratio.total_cmp(&b.meta.risk_ratio))
                    .then(a.updated_at.cmp(&b.updated_at))
            });
        if chosen.is_some() {
            SELECT_HITS.inc();
        } else {
            SELECT_MISSES.inc();
        }
        chosen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attr(k: &str, v: &str) -> Attribute {
        Attribute::new(k, v)
    }

    fn pool(cap: Option<usize>) -> ModelPool<u32> {
        ModelPool::new(cap)
    }

    #[test]
    fn same_cause_replaces_old_version() {
        let mut p = pool(Some(4));
        let first = p.deploy(VersionMeta::new(vec![attr("weather", "snow")], 3.0), 1);
        let second = p.deploy(VersionMeta::new(vec![attr("weather", "snow")], 3.5), 2);
        assert_eq!(second.evicted, vec![first.id]);
        assert_eq!(p.len(), 1);
        assert_eq!(p.versions()[0].payload, 2);
    }

    #[test]
    fn coarser_cause_evicts_finer_versions() {
        let mut p = pool(Some(4));
        let fine = p.deploy(
            VersionMeta::new(vec![attr("weather", "snow"), attr("location", "nyc")], 2.0),
            1,
        );
        let other = p.deploy(VersionMeta::new(vec![attr("weather", "fog")], 2.0), 2);
        let coarse = p.deploy(VersionMeta::new(vec![attr("weather", "snow")], 3.0), 3);
        assert_eq!(coarse.evicted, vec![fine.id]);
        assert!(p.get(other.id).is_some());
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn finer_cause_does_not_evict_coarser() {
        let mut p = pool(Some(4));
        p.deploy(VersionMeta::new(vec![attr("weather", "snow")], 3.0), 1);
        let fine = p.deploy(
            VersionMeta::new(vec![attr("weather", "snow"), attr("location", "nyc")], 2.0),
            2,
        );
        assert!(fine.evicted.is_empty());
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn lru_evicts_least_recently_updated() {
        let mut p = pool(Some(2));
        let a = p.deploy(VersionMeta::new(vec![attr("weather", "snow")], 1.0), 1);
        let _b = p.deploy(VersionMeta::new(vec![attr("weather", "fog")], 1.0), 2);
        let c = p.deploy(VersionMeta::new(vec![attr("weather", "rain")], 1.0), 3);
        assert_eq!(c.evicted, vec![a.id]);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn uncapped_pool_grows_freely() {
        let mut p = pool(None);
        for i in 0..10 {
            p.deploy(
                VersionMeta::new(vec![attr("device", &format!("d{i}"))], 1.0),
                i,
            );
        }
        assert_eq!(p.len(), 10);
    }

    #[test]
    fn select_prefers_most_matching_attributes() {
        let mut p = pool(None);
        p.deploy(VersionMeta::new(vec![attr("weather", "rain")], 5.0), 1);
        p.deploy(
            VersionMeta::new(vec![attr("weather", "rain"), attr("location", "nyc")], 2.0),
            2,
        );
        let input = [
            attr("weather", "rain"),
            attr("location", "nyc"),
            attr("device", "d1"),
        ];
        // {rain, nyc} has more matching attributes than {rain}, despite the
        // lower risk ratio — exactly the paper's example.
        assert_eq!(p.select(&input).unwrap().payload, 2);
    }

    #[test]
    fn select_breaks_ties_by_risk_ratio() {
        let mut p = pool(None);
        p.deploy(VersionMeta::new(vec![attr("weather", "rain")], 1.5), 1);
        p.deploy(VersionMeta::new(vec![attr("location", "nyc")], 4.0), 2);
        let input = [attr("weather", "rain"), attr("location", "nyc")];
        assert_eq!(p.select(&input).unwrap().payload, 2);
    }

    #[test]
    fn clean_version_is_the_fallback() {
        let mut p = pool(None);
        p.deploy(VersionMeta::clean(), 0);
        p.deploy(VersionMeta::new(vec![attr("weather", "rain")], 3.0), 1);
        // Input matching no cause still matches the clean (empty) version.
        let chosen = p.select(&[attr("weather", "snow")]).unwrap();
        assert_eq!(chosen.payload, 0);
        // Input matching rain prefers the rain version.
        assert_eq!(p.select(&[attr("weather", "rain")]).unwrap().payload, 1);
    }

    #[test]
    fn empty_pool_selects_nothing() {
        let p = pool(None);
        assert!(p.select(&[attr("weather", "rain")]).is_none());
        assert!(p.is_empty());
    }

    #[test]
    fn select_ignores_non_matching_versions() {
        let mut p = pool(None);
        p.deploy(VersionMeta::new(vec![attr("weather", "rain")], 3.0), 1);
        assert!(p.select(&[attr("weather", "snow")]).is_none());
    }

    #[test]
    fn meta_canonicalizes_attribute_order() {
        let a = VersionMeta::new(vec![attr("b", "2"), attr("a", "1")], 1.0);
        let b = VersionMeta::new(vec![attr("a", "1"), attr("b", "2")], 1.0);
        assert_eq!(a.attrs, b.attrs);
    }

    #[test]
    fn zero_capacity_pool_stores_nothing_but_never_panics() {
        let mut p = pool(Some(0));
        let out = p.deploy(VersionMeta::new(vec![attr("weather", "snow")], 3.0), 1);
        // The just-deployed version is itself LRU-evicted immediately.
        assert_eq!(out.evicted, vec![out.id]);
        assert!(p.is_empty());
        assert!(p.select(&[attr("weather", "snow")]).is_none());
        // Repeated deploys keep working and keep assigning fresh ids.
        let again = p.deploy(VersionMeta::new(vec![attr("weather", "fog")], 1.0), 2);
        assert!(again.id > out.id);
        assert!(p.is_empty());
    }

    #[test]
    fn capacity_one_pool_holds_exactly_the_newest_version() {
        let mut p = pool(Some(1));
        let a = p.deploy(VersionMeta::new(vec![attr("weather", "snow")], 3.0), 1);
        assert_eq!(p.len(), 1);
        // A different cause LRU-evicts the previous sole occupant.
        let b = p.deploy(VersionMeta::new(vec![attr("weather", "fog")], 1.0), 2);
        assert_eq!(b.evicted, vec![a.id]);
        assert_eq!(p.len(), 1);
        assert_eq!(p.versions()[0].payload, 2);
        // Selection only ever sees the survivor.
        assert!(p.select(&[attr("weather", "snow")]).is_none());
        assert_eq!(p.select(&[attr("weather", "fog")]).unwrap().payload, 2);
    }

    #[test]
    fn redeploying_identical_attrs_replaces_not_accumulates() {
        let mut p = pool(Some(4));
        let meta = || VersionMeta::new(vec![attr("weather", "snow"), attr("location", "nyc")], 2.0);
        let mut last_id = None;
        for payload in 0..5u32 {
            let out = p.deploy(meta(), payload);
            if let Some(prev) = last_id {
                assert_eq!(out.evicted, vec![prev], "same attrs must replace");
            }
            last_id = Some(out.id);
            assert_eq!(
                p.len(),
                1,
                "identical-cause redeploys must not grow the pool"
            );
        }
        assert_eq!(p.versions()[0].payload, 4, "newest payload wins");
        // The replacement also refreshes recency: a subsequent LRU squeeze
        // evicts an older *other* cause first.
        let other = p.deploy(VersionMeta::new(vec![attr("weather", "fog")], 1.0), 10);
        let mut small = pool(Some(2));
        let stale = small.deploy(VersionMeta::new(vec![attr("weather", "fog")], 1.0), 0);
        small.deploy(meta(), 1);
        small.deploy(meta(), 2); // refresh, still 2 versions
        let squeezed = small.deploy(VersionMeta::new(vec![attr("weather", "rain")], 1.0), 3);
        assert_eq!(squeezed.evicted, vec![stale.id]);
        let _ = other;
    }

    #[test]
    fn select_tie_break_is_deterministic_and_prefers_recency() {
        // Two versions with equal attribute count AND equal risk ratio:
        // the final tie-breaker is updated_at (recency), which is a total
        // order, so selection is deterministic.
        let mut p = pool(None);
        p.deploy(VersionMeta::new(vec![attr("weather", "rain")], 2.0), 1);
        p.deploy(VersionMeta::new(vec![attr("location", "nyc")], 2.0), 2);
        let input = [attr("weather", "rain"), attr("location", "nyc")];
        for _ in 0..8 {
            assert_eq!(
                p.select(&input).unwrap().payload,
                2,
                "equal score must resolve to the most recently updated version"
            );
        }
        // Refreshing the older version flips the winner — recency is live,
        // not insertion order.
        p.deploy(VersionMeta::new(vec![attr("weather", "rain")], 2.0), 3);
        assert_eq!(p.select(&input).unwrap().payload, 3);
    }
}
