//! Proof of the warm-replay allocation contract: with a warmed
//! [`GmpRouter`] (every decision a verified cache hit) and a warmed
//! [`SimScratch`], a task whose destination lists fit inline allocates
//! exactly the buffers its report owns — the protocol name, the two link
//! logs, and one exact-size vector per delivery list — and nothing per
//! event or per decision.
//!
//! This file holds exactly one test: the counter is process-global, and a
//! sibling test running on another thread would pollute the delta.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use gmp_core::GmpRouter;
use gmp_net::Topology;
use gmp_sim::{MulticastTask, Protocol, SimConfig, SimScratch, TaskRunner};

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
fn warm_replay_allocates_only_what_the_report_owns() {
    let config = SimConfig::paper();
    let topo = Topology::random(&config.topology_config(), 3);
    let runner = TaskRunner::new(&topo, &config);
    // k ≤ 6, the inline bound of a packet's destination list, so no copy
    // a forwarder splits off needs a shared list.
    let tasks: Vec<MulticastTask> = (0..30u64)
        .map(|i| MulticastTask::random(&topo, 1 + i as usize % 6, 40 + i))
        .collect();
    let mut router = GmpRouter::new();
    let mut scratch = SimScratch::new();
    for _ in 0..2 {
        for task in &tasks {
            runner.run_with_scratch(&mut router, task, 0, &mut scratch);
        }
    }
    let warm = router.cache_stats();

    let mut transmissions = 0;
    for (i, task) in tasks.iter().enumerate() {
        let before = ALLOCS.load(Ordering::SeqCst);
        let report = runner.run_with_scratch(&mut router, task, 0, &mut scratch);
        let allocs = ALLOCS.load(Ordering::SeqCst) - before;
        assert!(report.delivered_all(), "task {i}: {report:?}");
        // 1 name ("GMP") + 2 link logs + 2 delivery lists.
        assert_eq!(
            allocs,
            5,
            "task {i} (k = {}) performed {allocs} allocations",
            task.k()
        );
        transmissions += report.transmissions;
    }
    let replay = router.cache_stats();
    assert!(transmissions > 0);
    assert_eq!(
        replay.misses, warm.misses,
        "the replay recomputed a decision"
    );
    assert_eq!(replay.fallbacks, warm.fallbacks);
    assert!(replay.hits > warm.hits);
    assert_eq!(router.name(), "GMP");
}
