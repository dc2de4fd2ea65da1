//! A sharded LRU cache for resident query state.
//!
//! The serving layer keeps two of these per engine: integrated query
//! graphs and ranked score vectors. Sharding by key hash keeps lock
//! contention bounded under concurrent batches — each shard is an
//! independent `Mutex<LruShard>`, so two workers touching different
//! queries almost never serialize on the same lock.
//!
//! The LRU list is intrusive: entries live in a slab (`Vec`) and carry
//! `prev`/`next` indices, so promotion and eviction are O(1) with no
//! per-operation allocation beyond the slab growth itself.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

const NIL: usize = usize::MAX;

struct Entry<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// One shard: a classic slab-backed LRU list + hash index.
struct LruShard<K, V> {
    map: HashMap<K, usize>,
    slab: Vec<Entry<K, V>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    capacity: usize,
}

impl<K: Hash + Eq + Clone, V: Clone> LruShard<K, V> {
    fn new(capacity: usize) -> Self {
        LruShard {
            map: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slab[i].prev, self.slab[i].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slab[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slab[next].prev = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slab[i].prev = NIL;
        self.slab[i].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn get(&mut self, key: &K) -> Option<V> {
        let &i = self.map.get(key)?;
        self.unlink(i);
        self.push_front(i);
        Some(self.slab[i].value.clone())
    }

    /// Entries in most-recently-used order (head → tail walk of the
    /// intrusive list).
    fn entries_mru(&self) -> Vec<(K, V)> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut i = self.head;
        while i != NIL {
            out.push((self.slab[i].key.clone(), self.slab[i].value.clone()));
            i = self.slab[i].next;
        }
        out
    }

    fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&i) = self.map.get(&key) {
            self.slab[i].value = value;
            self.unlink(i);
            self.push_front(i);
            return;
        }
        if self.map.len() >= self.capacity {
            let victim = self.tail;
            self.unlink(victim);
            self.map.remove(&self.slab[victim].key);
            self.free.push(victim);
        }
        let entry = Entry {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slab[i] = entry;
                i
            }
            None => {
                self.slab.push(entry);
                self.slab.len() - 1
            }
        };
        self.map.insert(key, i);
        self.push_front(i);
    }
}

/// Cache hit/miss counters, cheap enough to sample per request.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Entries currently resident across all shards.
    pub entries: usize,
    /// Writes accepted (plain inserts plus guarded inserts whose
    /// predicate approved the replacement).
    pub inserts: u64,
    /// Guarded inserts declined because the resident entry was at
    /// least as strong ([`ShardedLru::insert_if`]).
    pub rejected: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]` (0 when the cache was never queried).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A thread-safe LRU cache split into independently locked shards.
pub struct ShardedLru<K, V> {
    shards: Vec<Mutex<LruShard<K, V>>>,
    hasher: RandomState,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    rejected: AtomicU64,
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedLru<K, V> {
    /// Creates a cache holding at most `capacity` entries, spread over
    /// `shards` locks. A zero `capacity` disables caching entirely
    /// (every lookup misses) — used by the uncached benchmark baseline.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1).min(capacity.max(1));
        let per_shard = capacity.div_ceil(shards);
        ShardedLru {
            shards: (0..shards)
                .map(|_| Mutex::new(LruShard::new(per_shard)))
                .collect(),
            hasher: RandomState::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &K) -> &Mutex<LruShard<K, V>> {
        let mut h = self.hasher.build_hasher();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Looks up `key`, promoting it to most-recently-used on a hit.
    pub fn get(&self, key: &K) -> Option<V> {
        let got = self.shard(key).lock().expect("cache shard").get(key);
        match got {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        got
    }

    /// Inserts (or refreshes) an entry, evicting the least recently
    /// used entry of the target shard when it is full.
    pub fn insert(&self, key: K, value: V) {
        self.inserts.fetch_add(1, Ordering::Relaxed);
        self.shard(&key)
            .lock()
            .expect("cache shard")
            .insert(key, value);
    }

    /// Inserts `value` unless a resident entry for `key` exists and
    /// `replace(&resident)` says to keep it. The predicate runs under
    /// the shard lock, so the decision and the write are atomic — two
    /// racing computations cannot interleave a weaker value over the
    /// stronger one the predicate just approved against.
    pub fn insert_if(&self, key: K, value: V, replace: impl FnOnce(&V) -> bool) {
        let mut shard = self.shard(&key).lock().expect("cache shard");
        if let Some(&i) = shard.map.get(&key) {
            if !replace(&shard.slab[i].value) {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        self.inserts.fetch_add(1, Ordering::Relaxed);
        shard.insert(key, value);
    }

    /// Every resident entry (a clone of each value), hottest
    /// (approximately most-recently-used) first — the export order of
    /// a snapshot.
    ///
    /// Recency is tracked per shard, so the global order is an
    /// interleaving of per-shard MRU lists — position `i` of every
    /// shard before position `i + 1` of any. An importing cache hashes
    /// keys to shards differently, so this order, not the shard
    /// layout, is what carries recency across a restore.
    pub fn hot_entries(&self) -> Vec<(K, V)> {
        let lists: Vec<Vec<(K, V)>> = self
            .shards
            .iter()
            .map(|s| s.lock().expect("cache shard").entries_mru())
            .collect();
        let mut out = Vec::with_capacity(lists.iter().map(Vec::len).sum());
        let longest = lists.iter().map(Vec::len).max().unwrap_or(0);
        for rank in 0..longest {
            for list in &lists {
                if let Some(entry) = list.get(rank) {
                    out.push(entry.clone());
                }
            }
        }
        out
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.lock().expect("cache shard").map.len())
                .sum(),
            inserts: self.inserts.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_miss_then_hit() {
        let c: ShardedLru<u32, String> = ShardedLru::new(8, 2);
        assert_eq!(c.get(&1), None);
        c.insert(1, "one".into());
        assert_eq!(c.get(&1).as_deref(), Some("one"));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn eviction_is_lru_order() {
        let c: ShardedLru<u32, u32> = ShardedLru::new(2, 1);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.get(&1), Some(10)); // promote 1
        c.insert(3, 30); // evicts 2
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.get(&3), Some(30));
    }

    #[test]
    fn insert_if_keeps_resident_when_predicate_declines() {
        let c: ShardedLru<u32, u32> = ShardedLru::new(4, 1);
        c.insert_if(1, 10, |_| unreachable!("no resident yet"));
        assert_eq!(c.get(&1), Some(10));
        c.insert_if(1, 5, |&resident| 5 > resident);
        assert_eq!(c.get(&1), Some(10), "weaker value must not replace");
        c.insert_if(1, 99, |&resident| 99 > resident);
        assert_eq!(c.get(&1), Some(99), "stronger value replaces");
        let s = c.stats();
        assert_eq!((s.inserts, s.rejected), (2, 1));
    }

    #[test]
    fn reinsert_updates_value() {
        let c: ShardedLru<u32, u32> = ShardedLru::new(4, 1);
        c.insert(1, 10);
        c.insert(1, 11);
        assert_eq!(c.get(&1), Some(11));
        assert_eq!(c.stats().entries, 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let c: ShardedLru<u32, u32> = ShardedLru::new(0, 4);
        c.insert(1, 10);
        assert_eq!(c.get(&1), None);
        assert_eq!(c.stats().entries, 0);
    }

    #[test]
    fn slab_reuse_after_eviction() {
        let c: ShardedLru<u32, u32> = ShardedLru::new(2, 1);
        for i in 0..100 {
            c.insert(i, i);
        }
        assert_eq!(c.stats().entries, 2);
        assert_eq!(c.get(&99), Some(99));
        assert_eq!(c.get(&98), Some(98));
        assert_eq!(c.get(&0), None);
    }

    #[test]
    fn hot_entries_interleave_per_shard_mru_lists() {
        let c: ShardedLru<u32, u32> = ShardedLru::new(8, 1);
        for i in 0..5 {
            c.insert(i, i * 10);
        }
        c.get(&1); // promote 1 to the front
        assert_eq!(
            c.hot_entries(),
            vec![(1, 10), (4, 40), (3, 30), (2, 20), (0, 0)],
            "most recently used leads, every resident entry follows"
        );
        assert!(ShardedLru::<u32, u32>::new(4, 2).hot_entries().is_empty());
        // Across shards: every shard's MRU head precedes any shard's
        // second entry.
        let c: ShardedLru<u32, u32> = ShardedLru::new(64, 4);
        for i in 0..32 {
            c.insert(i, i);
        }
        let hot = c.hot_entries();
        assert_eq!(hot.len(), 32);
        let heads: Vec<(u32, u32)> = c
            .shards
            .iter()
            .filter_map(|s| s.lock().unwrap().entries_mru().first().copied())
            .collect();
        assert_eq!(hot[..heads.len()], heads[..]);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let c = std::sync::Arc::new(ShardedLru::<u64, u64>::new(64, 8));
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let c = c.clone();
                s.spawn(move || {
                    for i in 0..1000u64 {
                        let k = (t * 31 + i) % 100;
                        c.insert(k, k * 2);
                        if let Some(v) = c.get(&k) {
                            assert_eq!(v, k * 2);
                        }
                    }
                });
            }
        });
        assert!(c.stats().entries <= 64);
    }
}
