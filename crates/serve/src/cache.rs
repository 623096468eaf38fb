//! Dependency-free LRU cache.
//!
//! The server amortizes two artifacts across requests: the parsed
//! machine of each topology spec and the hierarchy factorization of each
//! (topology, hierarchy) pair. Both are keyed by
//! the trimmed spec strings themselves (`crate::oracle`).
//!
//! The cache is a plain `HashMap` plus a monotonic recency stamp;
//! eviction scans for the minimum stamp. That is O(len) per insert at
//! capacity, which is the right trade for the handful-of-dozens entries
//! a mapping server holds (each worth megabytes), and it keeps the
//! structure simple enough to property-test exhaustively against a
//! reference model (`tests/cache_props.rs`).

use std::collections::HashMap;
use std::hash::Hash;

/// A least-recently-used cache with hit/miss counters.
///
/// Values are handed out by clone; callers store `Arc<V>` for anything
/// heavy. Capacity 0 degenerates to a pass-through (nothing is retained).
#[derive(Debug)]
pub struct LruCache<K: Eq + Hash + Clone, V: Clone> {
    cap: usize,
    tick: u64,
    map: HashMap<K, (V, u64)>,
    hits: u64,
    misses: u64,
}

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    pub fn new(cap: usize) -> Self {
        LruCache {
            cap,
            tick: 0,
            map: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn hits(&self) -> u64 {
        self.hits
    }

    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Look up `k`, refreshing its recency and counting a hit or miss.
    pub fn get(&mut self, k: &K) -> Option<V> {
        self.tick += 1;
        match self.map.get_mut(k) {
            Some((v, stamp)) => {
                *stamp = self.tick;
                self.hits += 1;
                Some(v.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert `k → v` as most-recent, evicting the least-recently-used
    /// entry if the cache is at capacity and `k` is not already present.
    pub fn insert(&mut self, k: K, v: V) {
        if self.cap == 0 {
            return;
        }
        self.tick += 1;
        if !self.map.contains_key(&k) {
            self.make_room();
        }
        self.map.insert(k, (v, self.tick));
    }

    /// Evict the least-recently-used entry if the cache is at capacity,
    /// so that a new key can go in without another eviction.
    fn make_room(&mut self) {
        if self.cap > 0 && self.map.len() >= self.cap {
            if let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&victim);
            }
        }
    }

    /// `get`, or build the value from its key and insert it. Returns the
    /// value and whether it was a cache hit; a failed build caches
    /// nothing and counts only the miss.
    pub(crate) fn try_get_or_insert_with<E>(
        &mut self,
        k: K,
        build: impl FnOnce(&K) -> Result<V, E>,
    ) -> Result<(V, bool), E> {
        if let Some(v) = self.get(&k) {
            return Ok((v, true));
        }
        let v = build(&k)?;
        self.insert(k, v.clone());
        Ok((v, false))
    }

    /// Keys ordered most-recently-used first (tests and introspection).
    pub fn keys_by_recency(&self) -> Vec<K> {
        let mut entries: Vec<(&K, u64)> = self.map.iter().map(|(k, (_, s))| (k, *s)).collect();
        entries.sort_by_key(|e| std::cmp::Reverse(e.1));
        entries.into_iter().map(|(k, _)| k.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(1)); // refresh a; b is now LRU
        c.insert("c", 3);
        assert_eq!(c.get(&"b"), None, "b was evicted");
        assert_eq!(c.get(&"a"), Some(1));
        assert_eq!(c.get(&"c"), Some(3));
        assert_eq!(c.len(), 2);
        assert_eq!((c.hits(), c.misses()), (3, 1)); // gets: a, b(miss), a, c
    }

    #[test]
    fn reinsert_refreshes_not_grows() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("a", 10); // refresh + overwrite; b becomes LRU
        c.insert("c", 3);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&"a"), Some(10));
        assert_eq!(c.get(&"b"), None);
    }

    #[test]
    fn make_room_evicts_the_lru_entry_only_at_capacity() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.make_room();
        assert_eq!(c.len(), 1, "below capacity: nothing to evict");
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(1)); // b is now LRU
        c.make_room();
        assert_eq!(c.keys_by_recency(), ["a"]);
        c.insert("c", 3); // goes into the room made: no second eviction
        assert_eq!(c.keys_by_recency(), ["c", "a"]);
    }

    #[test]
    fn zero_capacity_retains_nothing() {
        let mut c = LruCache::new(0);
        c.insert("a", 1);
        assert_eq!(c.get(&"a"), None);
        assert!(c.is_empty());
        let r: Result<_, ()> = c.try_get_or_insert_with("a", |_| Ok(7));
        assert_eq!(r, Ok((7, false)));
    }

    #[test]
    fn get_or_insert_counts_hit_second_time() {
        let mut c = LruCache::new(4);
        let r: Result<_, ()> = c.try_get_or_insert_with("k", |_| Ok(5));
        assert_eq!(r, Ok((5, false)));
        let r: Result<_, ()> = c.try_get_or_insert_with("k", |_| unreachable!());
        assert_eq!(r, Ok((5, true)));
    }

    #[test]
    fn failed_build_caches_nothing() {
        let mut c: LruCache<&str, i32> = LruCache::new(4);
        let r: Result<_, String> = c.try_get_or_insert_with("k", |_| Err("nope".into()));
        assert!(r.is_err());
        assert!(c.is_empty());
        let r: Result<_, String> = c.try_get_or_insert_with("k", |_| Ok(3));
        assert_eq!(r.unwrap(), (3, false));
    }
}
