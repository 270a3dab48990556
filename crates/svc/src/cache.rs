//! Sharded SIEVE result cache keyed by the **canonical rotation** of the
//! label sequence.
//!
//! Two requests whose rings are rotations of each other describe the
//! same labeled ring up to re-indexing, and (under the deterministic
//! round-robin scheduler the service runs) their elections agree on the
//! leader's label word and on every complexity metric — only the leader
//! *index* differs, by exactly the rotation distance. Keying the cache
//! on the least rotation (Booth, via `hre-words`) therefore dedupes the
//! whole rotation class into one entry; the server maps the cached
//! canonical outcome back into request coordinates per hit.
//!
//! Error outcomes are cached too: a spec violation (e.g. Chang–Roberts
//! on a homonym ring) happens on every rotation or none.
//!
//! Each shard evicts by SIEVE (Zhang et al., "SIEVE is Simpler than
//! LRU", NSDI '24): entries queue in insertion order, a hit only sets the
//! entry's visited bit, and an eviction sweeps a hand from where it last
//! stopped toward newer entries (wrapping to the oldest), clearing
//! visited bits until it reaches an unvisited entry, which it evicts.
//! A hit therefore reorders nothing and copies nothing: a lookup takes
//! the canonical labels as a slice, hashes them once, and hands back the
//! stored [`Arc`]. It answers only after comparing the full key — labels,
//! algorithm and `k` — since labels come from clients.

use crate::api::{AlgoId, ElectOutcome};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Cache key: canonical labels + algorithm + effective multiplicity
/// bound. Build it with [`CacheKey::new`], which canonicalizes.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Least rotation of the request's label sequence.
    pub canon: Vec<u64>,
    /// Algorithm.
    pub algo: AlgoId,
    /// Effective `k` (after per-algorithm clamping).
    pub k: usize,
}

impl CacheKey {
    /// Canonicalizes `labels` and builds the key.
    pub fn new(labels: &[u64], algo: AlgoId, k: usize) -> CacheKey {
        CacheKey { canon: hre_words::canonical_rotation(labels), algo, k }
    }

    fn matches(&self, canon: &[u64], algo: AlgoId, k: usize) -> bool {
        self.canon == canon && self.algo == algo && self.k == k
    }
}

/// A cached election result, in canonical coordinates.
pub type CachedResult = Result<ElectOutcome, String>;

/// Monotone cache counters (atomics; cheap to read under load).
#[derive(Debug, Default)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: AtomicU64,
    /// Lookups that found nothing.
    pub misses: AtomicU64,
    /// Entries inserted.
    pub inserts: AtomicU64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: AtomicU64,
}

/// A point-in-time copy of [`CacheStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries inserted.
    pub inserts: u64,
    /// Entries evicted.
    pub evictions: u64,
    /// Entries currently resident.
    pub len: usize,
}

/// The hash of a key's fields, in [`CacheKey`]'s field order: it picks
/// the shard and is the shard index's key.
fn hash_of(canon: &[u64], algo: AlgoId, k: usize) -> u64 {
    let mut h = DefaultHasher::new();
    canon.hash(&mut h);
    algo.hash(&mut h);
    k.hash(&mut h);
    h.finish()
}

/// A resident entry.
struct Slot {
    hash: u64,
    key: CacheKey,
    value: Arc<CachedResult>,
    /// Set by every hit since the hand last passed the entry.
    visited: bool,
}

/// One independently locked part of the cache.
#[derive(Default)]
struct Shard {
    /// Key hash → index into `slots`. A second key with a resident key's
    /// hash is not cached while that one stays.
    index: HashMap<u64, usize>,
    /// The resident entries; an evicted entry's slot goes to the entry
    /// inserted in its place.
    slots: Vec<Slot>,
    /// Indices into `slots` in insertion order, oldest first.
    queue: VecDeque<usize>,
    /// Position in `queue` where the next eviction starts its sweep.
    hand: usize,
}

impl Shard {
    /// The resident entry for the key, marked visited.
    fn hit(
        &mut self,
        hash: u64,
        canon: &[u64],
        algo: AlgoId,
        k: usize,
    ) -> Option<Arc<CachedResult>> {
        let slot = &mut self.slots[*self.index.get(&hash)?];
        if !slot.key.matches(canon, algo, k) {
            return None;
        }
        slot.visited = true;
        Some(Arc::clone(&slot.value))
    }

    /// Evicts by the SIEVE rule and returns the freed slot. The queue is
    /// not empty.
    fn evict(&mut self) -> usize {
        let mut pos = self.hand;
        loop {
            if pos == self.queue.len() {
                pos = 0;
            }
            if !std::mem::take(&mut self.slots[self.queue[pos]].visited) {
                break;
            }
            pos += 1;
        }
        let freed = self.queue.remove(pos).expect("the hand is inside the queue");
        // The hand rests on the next newer entry, or on the oldest if the
        // newest was evicted.
        self.hand = if pos == self.queue.len() { 0 } else { pos };
        self.index.remove(&self.slots[freed].hash);
        freed
    }
}

/// A sharded, capacity-bounded SIEVE map from [`CacheKey`] to
/// [`CachedResult`]. Capacity 0 disables caching entirely (every
/// lookup is a miss and inserts are dropped) — used by benchmarks to
/// measure the uncached baseline.
pub struct ShardedLru {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard capacity (total capacity divided up front).
    per_shard_cap: usize,
    stats: CacheStats,
}

impl ShardedLru {
    /// Creates a cache holding at most `capacity` entries spread over
    /// `shards` independently locked shards.
    pub fn new(capacity: usize, shards: usize) -> ShardedLru {
        let shards = shards.clamp(1, 64);
        let per_shard_cap = if capacity == 0 { 0 } else { capacity.div_ceil(shards) };
        ShardedLru {
            shards: (0..shards).map(|_| Mutex::default()).collect(),
            per_shard_cap,
            stats: CacheStats::default(),
        }
    }

    /// `true` when the cache was built with capacity 0.
    pub fn disabled(&self) -> bool {
        self.per_shard_cap == 0
    }

    fn shard(&self, hash: u64) -> MutexGuard<'_, Shard> {
        let shard = &self.shards[(hash as usize) % self.shards.len()];
        shard.lock().expect("cache shard poisoned")
    }

    fn find(&self, canon: &[u64], algo: AlgoId, k: usize) -> Option<Arc<CachedResult>> {
        if self.disabled() {
            return None;
        }
        let hash = hash_of(canon, algo, k);
        self.shard(hash).hit(hash, canon, algo, k)
    }

    /// Looks up the key with canonical labels `canon`, marking a hit
    /// visited. Counts one hit or miss. Allocates nothing.
    pub fn lookup(&self, canon: &[u64], algo: AlgoId, k: usize) -> Option<Arc<CachedResult>> {
        let found = self.find(canon, algo, k);
        let counter = if found.is_some() { &self.stats.hits } else { &self.stats.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// [`ShardedLru::lookup`] by key, the result copied out of the cache.
    pub fn get(&self, key: &CacheKey) -> Option<CachedResult> {
        self.lookup(&key.canon, key.algo, key.k).map(|found| CachedResult::clone(&found))
    }

    /// Like [`ShardedLru::lookup`] but without touching the hit/miss
    /// counters — for the worker-side dedupe re-check, so the stats
    /// count exactly one hit-or-miss per client request.
    pub fn peek(&self, key: &CacheKey) -> Option<Arc<CachedResult>> {
        self.find(&key.canon, key.algo, key.k)
    }

    /// Whether `key` is resident, without counting or marking it.
    pub fn contains(&self, key: &CacheKey) -> bool {
        let hash = hash_of(&key.canon, key.algo, key.k);
        let shard = self.shard(hash);
        shard.index.get(&hash).is_some_and(|&i| shard.slots[i].key == *key)
    }

    /// [`ShardedLru::insert_shared`] of a value not yet shared.
    pub fn insert(&self, key: CacheKey, value: CachedResult) {
        self.insert_shared(key, Arc::new(value));
    }

    /// Inserts an entry at the newest end of its shard, evicting one by
    /// the SIEVE rule if the shard is full. A resident key keeps its
    /// entry as it is.
    pub fn insert_shared(&self, key: CacheKey, value: Arc<CachedResult>) {
        if self.disabled() {
            return;
        }
        let hash = hash_of(&key.canon, key.algo, key.k);
        let mut shard = self.shard(hash);
        if shard.index.contains_key(&hash) {
            return;
        }
        let slot = Slot { hash, key, value, visited: false };
        let i = if shard.queue.len() >= self.per_shard_cap {
            let freed = shard.evict();
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            shard.slots[freed] = slot;
            freed
        } else {
            shard.slots.push(slot);
            shard.slots.len() - 1
        };
        shard.queue.push_back(i);
        shard.index.insert(hash, i);
        self.stats.inserts.fetch_add(1, Ordering::Relaxed);
    }

    /// Entries currently resident, across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("cache shard poisoned").queue.len()).sum()
    }

    /// `true` when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Point-in-time counters.
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            inserts: self.stats.inserts.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
            len: self.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(leader: usize) -> CachedResult {
        Ok(ElectOutcome {
            leader,
            leader_label: 1,
            label_word: vec![1, 2, 2],
            messages: 9,
            actions: 12,
            time_units: 5,
            wire_bits: 40,
        })
    }

    #[test]
    fn rotations_share_one_key() {
        let base = [1u64, 3, 1, 3, 2, 2, 1, 2];
        let k0 = CacheKey::new(&base, AlgoId::Ak, 3);
        for d in 1..base.len() {
            let mut rot = base.to_vec();
            rot.rotate_left(d);
            assert_eq!(CacheKey::new(&rot, AlgoId::Ak, 3), k0, "d={d}");
        }
        // …but algo and k are part of the key.
        assert_ne!(CacheKey::new(&base, AlgoId::Bk, 3), k0);
        assert_ne!(CacheKey::new(&base, AlgoId::Ak, 4), k0);
    }

    #[test]
    fn same_ring_distinct_algorithms_get_distinct_entries() {
        // Regression guard for the algorithm zoo: the algo id is part of
        // the key, so two engines asked about the same ring must never
        // alias to one cache slot (max-uid and content-oblivious give
        // different answers on the same labels).
        let cache = ShardedLru::new(8, 2);
        let ring = [3u64, 9, 4, 7];
        let ka = CacheKey::new(&ring, AlgoId::MaxUid, 1);
        let kb = CacheKey::new(&ring, AlgoId::ContentOblivious, 1);
        assert_ne!(ka, kb);
        cache.insert(ka.clone(), outcome(1));
        cache.insert(kb.clone(), outcome(2));
        assert_eq!(cache.get(&ka).expect("hit").expect("ok").leader, 1);
        assert_eq!(cache.get(&kb).expect("hit").expect("ok").leader, 2);
        assert_eq!(cache.snapshot().len, 2);
    }

    #[test]
    fn hit_miss_insert_counters() {
        let cache = ShardedLru::new(8, 2);
        let key = CacheKey::new(&[1, 2, 2], AlgoId::Ak, 2);
        assert!(cache.get(&key).is_none());
        cache.insert(key.clone(), outcome(0));
        assert_eq!(cache.get(&key).expect("hit").expect("ok").leader, 0);
        let s = cache.snapshot();
        assert_eq!((s.hits, s.misses, s.inserts, s.evictions, s.len), (1, 1, 1, 0, 1));
    }

    #[test]
    fn sieve_keeps_a_visited_entry_that_lru_would_evict() {
        // One shard of capacity 3. After a, b, c and a hit on a, the hand
        // clears a's bit and evicts b, then c, then d: SIEVE keeps a,
        // which LRU would evict third (it would hold d, e, f).
        let cache = ShardedLru::new(3, 1);
        let [a, b, c, d, e, f]: [CacheKey; 6] =
            std::array::from_fn(|i| CacheKey::new(&[i as u64, 9, 9], AlgoId::Ak, 1));
        for key in [&a, &b, &c] {
            cache.insert(key.clone(), outcome(0));
        }
        assert!(cache.get(&a).is_some());
        for key in [&d, &e, &f] {
            cache.insert(key.clone(), outcome(0));
        }
        let resident: Vec<bool> = [&a, &b, &c, &d, &e, &f].map(|k| cache.contains(k)).to_vec();
        assert_eq!(resident, [true, false, false, false, true, true]);
        assert_eq!(cache.snapshot().evictions, 3);
    }

    #[test]
    fn a_hit_shares_the_stored_value() {
        let cache = ShardedLru::new(4, 1);
        let key = CacheKey::new(&[2, 1, 2, 3], AlgoId::Ak, 2);
        let value = Arc::new(outcome(3));
        cache.insert_shared(key.clone(), Arc::clone(&value));
        let hit = cache.lookup(&key.canon, key.algo, key.k).expect("hit");
        assert!(Arc::ptr_eq(&hit, &value));
        // The full key decides: same labels under another k miss.
        assert!(cache.lookup(&key.canon, key.algo, 3).is_none());
    }

    #[test]
    fn zero_capacity_disables() {
        let cache = ShardedLru::new(0, 4);
        assert!(cache.disabled());
        let key = CacheKey::new(&[1, 2, 2], AlgoId::Ak, 2);
        cache.insert(key.clone(), outcome(0));
        assert!(cache.get(&key).is_none());
        assert!(cache.is_empty());
        let s = cache.snapshot();
        assert_eq!((s.inserts, s.misses), (0, 1));
    }

    #[test]
    fn errors_are_cached_values_too() {
        let cache = ShardedLru::new(4, 1);
        let key = CacheKey::new(&[5, 1, 5, 2], AlgoId::Cr, 2);
        cache.insert(key.clone(), Err("spec violated".into()));
        assert!(cache.get(&key).expect("hit").is_err());
    }
}
