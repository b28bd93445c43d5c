//! Proof of the hot-path contract: once a [`DecisionScratch`]'s buffers have
//! reached their high-water capacity, a forwarding decision performs ZERO
//! heap allocations. A counting `#[global_allocator]` wraps the system
//! allocator; the test warms the scratch on a workload, then replays the
//! exact same workload and asserts the allocation counter did not move.
//!
//! This file holds exactly one test: the counter is process-global, and a
//! sibling test running on another thread would pollute the delta.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use gmp_core::{CacheConfig, ConcurrentTreeCache, DecisionScratch, TreeCache};
use gmp_net::Topology;
use gmp_sim::{MulticastTask, SimConfig};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_decisions_do_not_allocate() {
    let config = SimConfig::paper().with_node_count(300);
    let topo = Topology::random(&config.topology_config(), 7);
    let tasks: Vec<MulticastTask> = (0..25)
        .map(|i| MulticastTask::random(&topo, 2 + (i as usize % 20), 100 + i))
        .collect();

    let mut scratch = DecisionScratch::new();
    // Two warm-up passes over the whole workload: pass one grows every
    // buffer to its high-water mark, pass two settles the group pool's
    // vector capacities along the exact recycling sequence the measured
    // pass will repeat.
    for _ in 0..2 {
        for t in &tasks {
            for &rra in &[true, false] {
                scratch.group_destinations_into(&topo, t.source, &t.dests, rra, None, None);
            }
        }
    }

    let before = ALLOCS.load(Ordering::SeqCst);
    let mut decisions = 0usize;
    for t in &tasks {
        for &rra in &[true, false] {
            let g = scratch.group_destinations_into(&topo, t.source, &t.dests, rra, None, None);
            // Touch the output so the decisions cannot be optimized away.
            decisions += usize::from(!g.covered.is_empty() || !g.voids.is_empty());
        }
    }
    let after = ALLOCS.load(Ordering::SeqCst);

    assert!(decisions > 0, "workload produced no decisions");
    assert_eq!(
        after - before,
        0,
        "steady-state forwarding decisions performed {} heap allocations",
        after - before
    );

    // Same contract with the decision cache in front: the first pass
    // populates it (inserts may allocate), the second replays it, and the
    // measured pass — now lookups that verify stored entries and serve
    // them in place — must not touch the allocator either.
    let mut cache = TreeCache::with_config(CacheConfig::default());
    for _ in 0..2 {
        for t in &tasks {
            for &rra in &[true, false] {
                cache.group_destinations_cached(
                    &mut scratch,
                    &topo,
                    t.source,
                    &t.dests,
                    rra,
                    None,
                    None,
                );
            }
        }
    }

    let before = ALLOCS.load(Ordering::SeqCst);
    let mut hits_output = 0usize;
    for t in &tasks {
        for &rra in &[true, false] {
            let g = cache.group_destinations_cached(
                &mut scratch,
                &topo,
                t.source,
                &t.dests,
                rra,
                None,
                None,
            );
            hits_output += usize::from(g.covered().next().is_some() || !g.voids().is_empty());
        }
    }
    let after = ALLOCS.load(Ordering::SeqCst);

    assert!(hits_output > 0, "cached workload produced no decisions");
    let stats = cache.stats();
    assert_eq!(
        stats.fallbacks, 0,
        "static workload must never fail verification"
    );
    assert!(
        stats.hits >= stats.misses,
        "measured pass must be served from the cache: {stats:?}"
    );
    assert_eq!(
        after - before,
        0,
        "steady-state cached decisions performed {} heap allocations",
        after - before
    );

    // Same contract again for the thread-shared cache, warmed *under
    // concurrency*: two racing workers publish the whole workload (their
    // publishes and lost set() races may allocate — that's warm-up), after
    // which every slot fill is final. The measured pass then takes the
    // lock-free get-verify-serve path exclusively: zero allocations, same
    // as the private cache. `gmp-service`'s `steady_allocs` test rides
    // on this property.
    let shared = ConcurrentTreeCache::with_config(CacheConfig::default());
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let shared = &shared;
            let tasks = &tasks;
            let topo = &topo;
            scope.spawn(move || {
                let mut worker_scratch = DecisionScratch::new();
                for t in tasks {
                    for &rra in &[true, false] {
                        shared.group_destinations_cached(
                            &mut worker_scratch,
                            topo,
                            t.source,
                            &t.dests,
                            rra,
                            None,
                            None,
                        );
                    }
                }
            });
        }
    });
    // One settling pass on the measuring thread's scratch.
    for t in &tasks {
        for &rra in &[true, false] {
            shared.group_destinations_cached(
                &mut scratch,
                &topo,
                t.source,
                &t.dests,
                rra,
                None,
                None,
            );
        }
    }

    let before = ALLOCS.load(Ordering::SeqCst);
    let mut shared_output = 0usize;
    for t in &tasks {
        for &rra in &[true, false] {
            let g = shared.group_destinations_cached(
                &mut scratch,
                &topo,
                t.source,
                &t.dests,
                rra,
                None,
                None,
            );
            shared_output += usize::from(g.covered().next().is_some() || !g.voids().is_empty());
        }
    }
    let after = ALLOCS.load(Ordering::SeqCst);

    assert!(
        shared_output > 0,
        "shared-cache workload produced no decisions"
    );
    let stats = shared.stats();
    assert_eq!(
        stats.fallbacks, 0,
        "static workload must never fail verification"
    );
    assert!(stats.hits > 0, "measured pass must be served: {stats:?}");
    assert_eq!(
        after - before,
        0,
        "steady-state shared-cache lookups performed {} heap allocations",
        after - before
    );
}
