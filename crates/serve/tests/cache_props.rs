//! Property tests for the LRU cache (checked against a naive
//! recency-list model) and the exact spec keys of the server's caches.

use std::sync::Arc;

use proptest::prelude::*;
use topomap_serve::cache::LruCache;
use topomap_serve::oracle::OracleCaches;

/// Reference model: a plain vector ordered least-recent first.
struct Model {
    cap: usize,
    entries: Vec<(u32, u32)>,
}

impl Model {
    fn new(cap: usize) -> Self {
        Model {
            cap,
            entries: Vec::new(),
        }
    }

    fn get(&mut self, k: u32) -> Option<u32> {
        let pos = self.entries.iter().position(|&(key, _)| key == k)?;
        let e = self.entries.remove(pos);
        self.entries.push(e);
        Some(e.1)
    }

    fn insert(&mut self, k: u32, v: u32) {
        if self.cap == 0 {
            return;
        }
        if let Some(pos) = self.entries.iter().position(|&(key, _)| key == k) {
            self.entries.remove(pos);
        } else if self.entries.len() >= self.cap {
            self.entries.remove(0); // least-recently-used
        }
        self.entries.push((k, v));
    }

    /// Most-recently-used first, like `LruCache::keys_by_recency`.
    fn keys_by_recency(&self) -> Vec<u32> {
        self.entries.iter().rev().map(|&(k, _)| k).collect()
    }
}

/// One randomized operation: `get` (false) or `insert` (true).
fn arb_ops() -> impl Strategy<Value = Vec<(bool, u32, u32)>> {
    proptest::collection::vec((any::<bool>(), 0u32..8, any::<u32>()), 1..80)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every interleaving of gets and inserts leaves the cache exactly
    /// where the reference model says: same lookup results, same
    /// eviction victims, same recency order, never above capacity.
    #[test]
    fn lru_matches_reference_model(cap in 1usize..5, ops in arb_ops()) {
        let mut cache: LruCache<u32, u32> = LruCache::new(cap);
        let mut model = Model::new(cap);
        let (mut hits, mut misses) = (0u64, 0u64);
        for (is_insert, k, v) in ops {
            if is_insert {
                cache.insert(k, v);
                model.insert(k, v);
            } else {
                let got = cache.get(&k);
                prop_assert_eq!(got, model.get(k), "get({})", k);
                if got.is_some() { hits += 1 } else { misses += 1 }
            }
            prop_assert!(cache.len() <= cap, "over capacity");
            prop_assert_eq!(cache.len(), model.entries.len());
            prop_assert_eq!(cache.is_empty(), model.entries.is_empty());
            prop_assert_eq!(cache.keys_by_recency(), model.keys_by_recency());
        }
        prop_assert_eq!((cache.hits(), cache.misses()), (hits, misses));
    }

    /// A `get` refreshes recency: afterwards the key survives exactly
    /// `cap - 1` inserts of fresh keys.
    #[test]
    fn get_refreshes_recency(cap in 2usize..6, probe in 0u32..4) {
        let mut cache: LruCache<u32, u32> = LruCache::new(cap);
        for k in 0..cap as u32 {
            cache.insert(k, k);
        }
        let probe = probe % cap as u32;
        prop_assert!(cache.get(&probe).is_some());
        // cap-1 fresh keys evict everything *except* the refreshed one.
        for k in 0..(cap - 1) as u32 {
            cache.insert(100 + k, 0);
        }
        prop_assert!(cache.get(&probe).is_some(), "refreshed key was evicted");
    }
}

/// The caches key on the trimmed specs themselves: surrounding
/// whitespace hits the same entry, any differing spec misses.
#[test]
fn exact_spec_keys_hit_across_whitespace_and_miss_across_specs() {
    let caches = OracleCaches::new(8);
    let (o, hit) = caches.oracle("torus:4x4").unwrap();
    assert!(!hit);
    let (o2, hit) = caches.oracle(" torus:4x4\t\n").unwrap();
    assert!(hit && Arc::ptr_eq(&o, &o2));
    for other in ["torus:4x4x1", "mesh:4x4", "torus:4x2x2"] {
        let (o3, hit) = caches.oracle(other).unwrap();
        assert!(!hit && !Arc::ptr_eq(&o, &o3), "{other} is another machine");
    }

    let plan = |h: Option<&str>, d: Option<&str>| caches.hier_plan("torus:4x4", &o, h, d).unwrap();
    let (p, hit) = plan(Some("4:4"), None);
    assert!(!hit);
    let (p2, hit) = caches
        .hier_plan("  torus:4x4", &o, Some(" 4:4 "), None)
        .unwrap();
    assert!(hit && Arc::ptr_eq(&p, &p2));
    assert!(!plan(Some("2:2:4"), None).1, "other arities");
    assert!(!plan(None, None).1, "omitted is not any explicit spelling");
    assert!(!plan(Some("4:4"), Some("1:2")).1, "explicit dist ladder");
    assert!(plan(Some("4:4"), Some(" 1:2 ")).1);
}
