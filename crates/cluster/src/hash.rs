//! Rotation-affinity consistent hashing: which backend owns a ring.
//!
//! The shard key of a request is a hash of the **canonical rotation**
//! (Booth least rotation, via `hre-words`) of its label sequence, so all
//! `n` rotations of a labeled ring — the same ring, re-indexed — map to
//! one key and therefore one backend. That is what lets the backends'
//! canonical-rotation SIEVE caches keep their hit rates as the cluster
//! scales out: a rotation workload that is one cache entry on one node
//! is still one cache entry on N nodes.
//!
//! The backend ring is classic consistent hashing: each backend owns
//! `vnodes` pseudo-random points on the `u64` circle; a key belongs to
//! the first point clockwise. Adding or removing one of N backends
//! therefore remaps only the arcs owned by that backend — about `1/N`
//! of the keyspace (property-tested at ≤ 2.5/N with the default vnode
//! count) — so a topology change does not flush every backend's cache.
//!
//! Hashing uses `DefaultHasher::new()`, which is keyed with fixed
//! constants: deterministic across processes and runs, so the router,
//! the CLI's route explainer, and the tests all agree on placement.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Default number of virtual nodes per backend. High enough that each
/// backend's share of the circle concentrates near `1/N` (relative
/// spread ~`1/√vnodes`), low enough that ring construction and lookup
/// stay trivially cheap.
pub const DEFAULT_VNODES: usize = 128;

/// Deterministic 64-bit hash of anything hashable.
fn hash64<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// The shard key of a label sequence: a hash of its canonical (least)
/// rotation. Rotation-invariant by construction.
pub fn shard_key(labels: &[u64]) -> u64 {
    hash64(&hre_words::canonical_rotation(labels))
}

/// A consistent-hash ring over named backends.
#[derive(Clone, Debug)]
pub struct HashRing {
    /// `(point, backend index)` sorted by point.
    points: Vec<(u64, usize)>,
    /// Backend names (addresses), in configuration order.
    backends: Vec<String>,
    vnodes: usize,
}

impl HashRing {
    /// Builds the ring: `vnodes` points per backend, placed by hashing
    /// `(backend name, replica index)`.
    pub fn new(backends: &[String], vnodes: usize) -> HashRing {
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(backends.len() * vnodes);
        for (i, name) in backends.iter().enumerate() {
            for replica in 0..vnodes {
                points.push((hash64(&(name.as_str(), replica as u64)), i));
            }
        }
        points.sort_unstable();
        HashRing { points, backends: backends.to_vec(), vnodes }
    }

    /// Number of backends.
    pub fn len(&self) -> usize {
        self.backends.len()
    }

    /// `true` when the ring has no backends.
    pub fn is_empty(&self) -> bool {
        self.backends.is_empty()
    }

    /// Virtual nodes per backend.
    pub fn vnodes(&self) -> usize {
        self.vnodes
    }

    /// Index (into the configured backends) of the backend owning `key`:
    /// the first ring point clockwise from the key.
    pub fn primary(&self, key: u64) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        let at = self.points.partition_point(|&(p, _)| p < key);
        Some(self.points[at % self.points.len()].1)
    }

    /// All backends in ring-walk order from `key`: the primary first,
    /// then each further backend in the order its first point appears
    /// clockwise. This is the failover/hedging preference order —
    /// stable for a fixed topology, different keys spread their
    /// failover load across different successors.
    pub fn preference_order(&self, key: u64) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.backends.len());
        if self.points.is_empty() {
            return order;
        }
        let start = self.points.partition_point(|&(p, _)| p < key);
        let mut seen = vec![false; self.backends.len()];
        for step in 0..self.points.len() {
            let (_, b) = self.points[(start + step) % self.points.len()];
            if !seen[b] {
                seen[b] = true;
                order.push(b);
                if order.len() == self.backends.len() {
                    break;
                }
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("10.0.0.{i}:8080")).collect()
    }

    #[test]
    fn shard_key_is_rotation_invariant() {
        let base = [1u64, 3, 1, 3, 2, 2, 1, 2];
        let key = shard_key(&base);
        for d in 1..base.len() {
            let mut rot = base.to_vec();
            rot.rotate_left(d);
            assert_eq!(shard_key(&rot), key, "rotation {d}");
        }
        assert_ne!(shard_key(&[1, 2, 2]), shard_key(&[1, 2, 3]));
    }

    #[test]
    fn placement_is_deterministic_and_total() {
        let ring = HashRing::new(&names(3), 64);
        let ring2 = HashRing::new(&names(3), 64);
        for k in 0..1000u64 {
            let key = k.wrapping_mul(0x9e3779b97f4a7c15);
            assert_eq!(ring.primary(key), ring2.primary(key));
            assert!(ring.primary(key).unwrap() < 3);
        }
    }

    #[test]
    fn preference_order_is_a_permutation_starting_at_the_primary() {
        let ring = HashRing::new(&names(5), 32);
        for k in 0..200u64 {
            let key = k.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(7);
            let order = ring.preference_order(key);
            assert_eq!(order.len(), 5);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
            assert_eq!(order[0], ring.primary(key).unwrap());
        }
    }

    #[test]
    fn load_spreads_roughly_evenly() {
        let n = 4;
        let ring = HashRing::new(&names(n), DEFAULT_VNODES);
        let mut counts = vec![0u64; n];
        for k in 0..10_000u64 {
            counts[ring.primary(k.wrapping_mul(0x9e3779b97f4a7c15)).unwrap()] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((1_000..=5_000).contains(&c), "backend {i} owns {c}/10000 keys: {counts:?}");
        }
    }

    #[test]
    fn empty_ring_has_no_owner() {
        let ring = HashRing::new(&[], 16);
        assert!(ring.is_empty());
        assert_eq!(ring.primary(42), None);
        assert!(ring.preference_order(42).is_empty());
    }
}
