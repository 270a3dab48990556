//! A cache hit allocates nothing: the request's labels are canonicalised
//! into a reused buffer, looked up by slice, and answered with the
//! stored `Arc`. A counting global allocator checks it; this binary holds
//! one test so no other test allocates on the counted thread meanwhile.

use hre_svc::{AlgoId, CacheKey, ElectRequest, ShardedLru};
use hre_words::RotationScratch;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread so far.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// `GlobalAlloc`'s contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's guarantees for `layout` are passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` with this `layout`; the caller
        // guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_hit_through_the_slice_lookup_allocates_nothing() {
    let cache = ShardedLru::new(1024, 8);
    let ring = vec![1u64, 3, 1, 3, 2, 2, 1, 2, 4, 1, 3, 3];
    let canon_req =
        ElectRequest::new(ring.clone(), AlgoId::Ak, None).expect("valid").canonicalized().0;
    let outcome = hre_svc::run_election(&canon_req);
    cache.insert(CacheKey::new(&ring, AlgoId::Ak, canon_req.k), outcome.clone());
    let rotations: Vec<Vec<u64>> = (0..ring.len())
        .map(|d| {
            let mut r = ring.clone();
            r.rotate_left(d);
            r
        })
        .collect();

    let mut scratch = RotationScratch::new();
    let mut canon = Vec::new();
    let mut hit = |labels: &[u64]| {
        scratch.canonical_rotation_into(labels, &mut canon);
        cache.lookup(&canon, AlgoId::Ak, canon_req.k).expect("every rotation hits")
    };
    // Warm-up: the scratch and the buffer reach their sizes.
    drop(hit(&rotations[0]));

    let before = ALLOCS.with(Cell::get);
    for labels in &rotations {
        let found = hit(labels);
        assert!(matches!(&*found, Ok(out) if out.leader_label == 1));
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(allocs, 0, "{} hits allocated {allocs} times", rotations.len());
    assert_eq!(cache.snapshot().hits, 1 + rotations.len() as u64);
}
