//! Cached topology distance oracles and hierarchy factorizations.
//!
//! Every map request names its machine by spec string. Parsing the spec
//! is cheap, but the mapping kernels then issue O(p²)–O(p³) distance
//! queries, and a hierarchy request additionally pays an O(p·levels)
//! factorization. [`OracleCaches`] amortizes both across requests:
//!
//! * a `DistOracle` — the dense all-pairs distance matrix of the parsed
//!   machine — keyed by the trimmed topology spec;
//! * a [`HierPlan`] (validated hierarchy + machine block layout) keyed by
//!   the trimmed (topology, hierarchy, dist) specs.
//!
//! The specs are the keys themselves, not a hash of them, so two machines
//! can never share an entry. Both caches hand out `Arc`s, so a hit costs
//! a pointer bump while the matrix itself is shared between all in-flight
//! requests.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use topomap_topology::{CachedTopology, Topology};

use crate::cache::LruCache;
use crate::specs::{parse_hier_plan, parse_topology, HierPlan};

/// The all-pairs distance oracle of a parsed machine: `distance`,
/// `sum_distance_from`, `diameter` and `distances_into` are table
/// lookups; name and node coordinates come from the machine itself.
pub(crate) type DistOracle = CachedTopology<Box<dyn Topology>>;

/// Key of a hierarchy plan: trimmed (topology, hierarchy, dist) specs.
/// An omitted spec is `None`, distinct from every explicit spelling — an
/// explicit `--hierarchy 4:4:4` never aliases the auto-chosen plan even
/// when the two coincide.
type PlanKey = (String, Option<String>, Option<String>);

/// The server-side cache pair with interior locking. Lock scope covers
/// the build, so concurrent requests for the same cold key build once
/// and the rest hit.
pub struct OracleCaches {
    oracles: Mutex<LruCache<String, Arc<DistOracle>>>,
    plans: Mutex<LruCache<PlanKey, Arc<HierPlan>>>,
}

/// Lock one of the caches, taking it back from a poisoned mutex. A build
/// that panics under the lock leaves the LRU consistent: every fallible
/// step (spec parse, oracle or plan build) runs before the LRU is written,
/// so the worst left behind is a counted miss and, for the oracle, a
/// victim evicted ahead of an insert that never came. Without it, one
/// panicking build would fail every later request.
fn lock<T>(cache: &Mutex<T>) -> MutexGuard<'_, T> {
    cache.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Hit/miss counters for both caches, as sampled by `Stats` requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CacheCounters {
    pub(crate) oracle_hits: u64,
    pub(crate) oracle_misses: u64,
    pub(crate) hier_hits: u64,
    pub(crate) hier_misses: u64,
}

impl OracleCaches {
    /// `cap` bounds each cache independently (a serve deployment sees a
    /// handful of machine shapes; default 32 is generous).
    pub fn new(cap: usize) -> Self {
        OracleCaches {
            oracles: Mutex::new(LruCache::new(cap)),
            plans: Mutex::new(LruCache::new(cap)),
        }
    }

    /// Fetch (or parse + build) the distance oracle for a topology spec.
    /// Returns the oracle and whether it was a cache hit. A malformed
    /// spec caches nothing and fails with the parser's message.
    pub fn oracle(&self, topo_spec: &str) -> Result<(Arc<DistOracle>, bool), String> {
        let spec = topo_spec.trim().to_string();
        let mut oracles = lock(&self.oracles);
        if let Some(hit) = oracles.get(&spec) {
            return Ok((hit, true));
        }
        // The parse is the only step that can fail, and it comes first: a
        // bad spec evicts nothing. The victim then goes before the new
        // matrix is allocated, so the cache never holds `cap + 1` of them
        // and the allocator can hand the freed block straight back.
        let machine = parse_topology(&spec)?.into_topology();
        oracles.make_room();
        let oracle = Arc::new(DistOracle::new(machine));
        oracles.insert(spec, Arc::clone(&oracle));
        Ok((oracle, false))
    }

    /// Fetch (or derive) the hierarchy plan for a (topology, hierarchy,
    /// dist) spec triple, factoring over the given oracle's metric.
    pub fn hier_plan(
        &self,
        topo_spec: &str,
        oracle: &DistOracle,
        hier_spec: Option<&str>,
        dist_spec: Option<&str>,
    ) -> Result<(Arc<HierPlan>, bool), String> {
        let own = |spec: &str| spec.trim().to_string();
        let key = (own(topo_spec), hier_spec.map(own), dist_spec.map(own));
        let mut plans = lock(&self.plans);
        plans.try_get_or_insert_with(key, |(topo, hier, dist)| {
            let plan = parse_hier_plan(topo, oracle, hier.as_deref(), dist.as_deref())?;
            Ok(Arc::new(plan))
        })
    }

    /// Snapshot the hit/miss counters of both caches.
    pub(crate) fn counters(&self) -> CacheCounters {
        let o = lock(&self.oracles);
        let p = lock(&self.plans);
        CacheCounters {
            oracle_hits: o.hits(),
            oracle_misses: o.misses(),
            hier_hits: p.hits(),
            hier_misses: p.misses(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_matches_source_topology() {
        let parsed = parse_topology("torus:4x4").unwrap();
        let t = parsed.as_topology();
        let o = DistOracle::new(parse_topology("torus:4x4").unwrap().into_topology());
        assert_eq!(o.num_nodes(), 16);
        assert_eq!(o.name(), t.name());
        assert_eq!(o.diameter(), t.diameter());
        for a in 0..16 {
            assert_eq!(o.sum_distance_from(a), t.sum_distance_from(a));
            for b in 0..16 {
                assert_eq!(o.distance(a, b), t.distance(a, b), "d({a},{b})");
            }
        }
        assert_eq!(o.cache_bytes(), 16 * 16 * 4 + 16 * 8);
        // Geometry must survive the oracle: SFC/RCB mappers read node
        // coordinates through the same `Topology` handle.
        for a in 0..16 {
            assert_eq!(o.node_coords(a), t.node_coords(a), "coords({a})");
        }
        assert!(o.node_coords(5).is_some());
    }

    #[test]
    fn oracle_reports_no_coords_when_machine_has_none() {
        let o = DistOracle::new(parse_topology("fattree:2:3").unwrap().into_topology());
        assert_eq!(o.node_coords(0), None);
    }

    #[test]
    fn caches_hit_on_repeat_and_share_storage() {
        let caches = OracleCaches::new(8);
        let (o1, hit1) = caches.oracle("fattree:2:3").unwrap();
        let (o2, hit2) = caches.oracle("fattree:2:3").unwrap();
        assert!(!hit1 && hit2);
        assert!(Arc::ptr_eq(&o1, &o2), "hit must share the same matrix");
        // Whitespace-insensitive keying.
        let (_, hit3) = caches.oracle("  fattree:2:3 ").unwrap();
        assert!(hit3);
        let c = caches.counters();
        assert_eq!((c.oracle_hits, c.oracle_misses), (2, 1));
    }

    #[test]
    fn bad_specs_fail_loud_and_cache_nothing() {
        let caches = OracleCaches::new(8);
        assert!(caches.oracle("nope:3").is_err());
        assert!(caches.oracle("nope:3").is_err(), "still an error on retry");
        let c = caches.counters();
        assert_eq!(c.oracle_hits, 0);

        let (o, _) = caches.oracle("torus:8x8").unwrap();
        let err = caches
            .hier_plan("torus:8x8", &o, Some("4:0:8"), None)
            .unwrap_err();
        assert!(err.contains("zero children"), "{err}");
    }

    #[test]
    fn full_cache_evicts_the_lru_machine_but_not_for_a_bad_spec() {
        let caches = OracleCaches::new(2);
        caches.oracle("torus:2x2").unwrap();
        caches.oracle("torus:3x3").unwrap();
        assert!(caches.oracle("nope:3").is_err());
        assert!(caches.oracle("torus:2x2").unwrap().1, "still cached");
        assert!(caches.oracle("torus:3x3").unwrap().1, "still cached");
        // A third machine takes the place of the least recently used one.
        assert!(!caches.oracle("torus:4x4").unwrap().1);
        assert!(caches.oracle("torus:3x3").unwrap().1);
        assert!(!caches.oracle("torus:2x2").unwrap().1, "was evicted");
    }

    #[test]
    fn a_build_that_panics_under_the_lock_disables_nothing() {
        let caches = OracleCaches::new(8);
        caches.oracle("torus:2x2").unwrap();
        let poisoned = std::panic::catch_unwind(|| {
            let _held = caches.oracles.lock().unwrap();
            let _also = caches.plans.lock().unwrap();
            panic!("builder panicked");
        });
        assert!(poisoned.is_err() && caches.oracles.is_poisoned());
        assert!(caches.oracle("torus:2x2").unwrap().1, "entry survived");
        let (o, hit) = caches.oracle("mesh:2x2").unwrap();
        assert!(!hit);
        assert!(caches.hier_plan("mesh:2x2", &o, None, None).is_ok());
        assert_eq!(caches.counters().oracle_hits, 1);
    }

    #[test]
    fn hier_plans_key_on_all_three_specs() {
        let caches = OracleCaches::new(8);
        let (o, _) = caches.oracle("torus:8x8").unwrap();
        let (p1, hit1) = caches
            .hier_plan("torus:8x8", &o, Some("4:4:4"), None)
            .unwrap();
        let (p2, hit2) = caches
            .hier_plan("torus:8x8", &o, Some("4:4:4"), None)
            .unwrap();
        assert!(!hit1 && hit2);
        assert!(Arc::ptr_eq(&p1, &p2));
        // Auto arities are a distinct key even if they coincide in value.
        let (_, hit3) = caches.hier_plan("torus:8x8", &o, None, None).unwrap();
        assert!(!hit3);
        let (_, hit4) = caches
            .hier_plan("torus:8x8", &o, Some("4:4:4"), Some("1:2:3"))
            .unwrap();
        assert!(!hit4, "explicit dist ladder is a different plan");
    }
}
