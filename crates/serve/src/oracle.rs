//! Cached machines and hierarchy factorizations.
//!
//! Every map request names its machine by spec string. Building the
//! machine costs O(p) or more (a torus tabulates its coordinates, a
//! graph machine runs one BFS per node), and a hierarchy request
//! additionally pays an O(p·levels) factorization. [`OracleCaches`]
//! amortizes both across requests:
//!
//! * the parsed machine, keyed by the trimmed topology spec. Every
//!   family the spec parser builds answers `distance` from its own
//!   tables or a closed form, so the entry is the machine itself, not a
//!   p × p copy of it;
//! * a [`HierPlan`] (validated hierarchy + machine block layout) keyed by
//!   the trimmed (topology, hierarchy, dist) specs.
//!
//! The specs are the keys themselves, not a hash of them, so two machines
//! can never share an entry. Both caches hand out `Arc`s, so a hit costs
//! a pointer bump while the machine itself is shared between all
//! in-flight requests.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use topomap_topology::Topology;

use crate::cache::LruCache;
use crate::specs::{parse_hier_plan, parse_topology, HierPlan};

/// Key of a hierarchy plan: trimmed (topology, hierarchy, dist) specs.
/// An omitted spec is `None`, distinct from every explicit spelling — an
/// explicit `--hierarchy 4:4:4` never aliases the auto-chosen plan even
/// when the two coincide.
type PlanKey = (String, Option<String>, Option<String>);

/// The server-side cache pair with interior locking. Lock scope covers
/// the build, so concurrent requests for the same cold key build once
/// and the rest hit.
pub struct OracleCaches {
    oracles: Mutex<LruCache<String, Arc<dyn Topology>>>,
    plans: Mutex<LruCache<PlanKey, Arc<HierPlan>>>,
}

/// Lock one of the caches, taking it back from a poisoned mutex. A build
/// that panics under the lock leaves the LRU consistent: every fallible
/// step (spec parse, machine or plan build) runs before the LRU is
/// written, so the worst left behind is a counted miss. Without it, one
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

    /// Fetch (or parse and build) the machine for a topology spec.
    /// Returns the machine and whether it was a cache hit. A malformed
    /// spec caches nothing and fails with the parser's message.
    pub fn oracle(&self, topo_spec: &str) -> Result<(Arc<dyn Topology>, bool), String> {
        let mut oracles = lock(&self.oracles);
        oracles.try_get_or_insert_with(topo_spec.trim().to_string(), |spec| {
            Ok(Arc::from(parse_topology(spec)?.into_topology()))
        })
    }

    /// Fetch (or derive) the hierarchy plan for a (topology, hierarchy,
    /// dist) spec triple, factoring over the machine [`Self::oracle`]
    /// returned for that topology spec.
    pub fn hier_plan(
        &self,
        topo_spec: &str,
        machine: &Arc<dyn Topology>,
        hier_spec: Option<&str>,
        dist_spec: Option<&str>,
    ) -> Result<(Arc<HierPlan>, bool), String> {
        let own = |spec: &str| spec.trim().to_string();
        let key = (own(topo_spec), hier_spec.map(own), dist_spec.map(own));
        let mut plans = lock(&self.plans);
        plans.try_get_or_insert_with(key, |(topo, hier, dist)| {
            let plan = parse_hier_plan(topo, machine.as_ref(), hier.as_deref(), dist.as_deref())?;
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
        let (o, _) = OracleCaches::new(8).oracle("torus:4x4").unwrap();
        assert_eq!(o.num_nodes(), 16);
        assert_eq!(o.name(), t.name());
        assert_eq!(o.diameter(), t.diameter());
        for a in 0..16 {
            assert_eq!(o.sum_distance_from(a), t.sum_distance_from(a));
            for b in 0..16 {
                assert_eq!(o.distance(a, b), t.distance(a, b), "d({a},{b})");
            }
        }
        // Geometry must survive the cache: SFC/RCB mappers read node
        // coordinates through the same `Topology` handle.
        for a in 0..16 {
            assert_eq!(o.node_coords(a), t.node_coords(a), "coords({a})");
        }
        assert!(o.node_coords(5).is_some());
    }

    #[test]
    fn oracle_reports_no_coords_when_machine_has_none() {
        let (o, _) = OracleCaches::new(8).oracle("fattree:2:3").unwrap();
        assert_eq!(o.node_coords(0), None);
    }

    /// The largest machine a spec may name is served from its own tables:
    /// the lookup allocates O(p), not a p × p matrix (1 GiB here).
    #[test]
    fn largest_torus_answers_like_its_closed_form() {
        let (o, hit) = OracleCaches::new(8).oracle("torus:128x128").unwrap();
        assert!(!hit);
        let t = topomap_topology::Torus::torus_2d(128, 128);
        assert_eq!(o.num_nodes(), 16_384);
        assert_eq!(o.diameter(), t.diameter());
        let mut x = 1u64;
        for _ in 0..1000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let (a, b) = ((x >> 33) as usize % 16_384, (x >> 7) as usize % 16_384);
            assert_eq!(o.distance(a, b), t.distance(a, b), "d({a},{b})");
        }
    }

    #[test]
    fn caches_hit_on_repeat_and_share_storage() {
        let caches = OracleCaches::new(8);
        let (o1, hit1) = caches.oracle("fattree:2:3").unwrap();
        let (o2, hit2) = caches.oracle("fattree:2:3").unwrap();
        assert!(!hit1 && hit2);
        assert!(Arc::ptr_eq(&o1, &o2), "hit must share the same machine");
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
