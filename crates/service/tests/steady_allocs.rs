//! The session engine's steady-allocation contract: once a
//! [`SessionEngine::run_parallel`] engine and the [`ConcurrentTreeCache`]
//! its workers share are warm, the next run over the same workload
//! allocates exactly as much as the one before, and every session takes its
//! scratch from the pool. The pool and the shared cache have stopped
//! growing; what is left is each run's own output (reports, outcome lists,
//! worker threads), the same every time.
//!
//! Warm-up runs until two consecutive passes agree: the pool is returned in
//! worker order and re-dealt round-robin, so a scratch can meet a
//! higher-demand session a few runs in and still grow a buffer. Capacities
//! only grow, so this converges.
//!
//! This file holds exactly one test: the counter is process-global, and a
//! sibling test running on another thread would pollute the delta.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use gmp_core::{CacheConfig, ConcurrentTreeCache, GmpRouter};
use gmp_faults::FaultPlan;
use gmp_net::{NodeId, Topology, TopologyConfig};
use gmp_service::{ParallelProtocol, ServiceWorkload, SessionEngine, WorkloadParams};
use gmp_sim::{Protocol, SimConfig};

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

/// Warm-up passes allowed before the engine must have settled.
const MAX_WARMUP_PASSES: usize = 8;

#[test]
fn warmed_parallel_engine_allocates_the_same_every_run() {
    let base = SimConfig::paper();
    let topo = Topology::random(&TopologyConfig::new(800.0, 400, base.radio_range), 9);
    let candidates: Vec<NodeId> = (0..topo.len() as u32).map(NodeId).collect();
    // Crashes at session-local t = 0 give every session the same liveness
    // view, so the shared cache keeps serving across sessions, and the
    // membership stream drops the crashed nodes after the detection delay.
    let mut plan = FaultPlan::none();
    for &node in candidates.iter().step_by(41).skip(1) {
        plan = plan.with_crash(node, 0.0);
    }
    let config = base.with_faults(plan.clone());
    let params = WorkloadParams {
        groups: 8,
        members_per_group: 12,
        churn_updates: 60,
        sessions: 200,
        duration_s: 30.0,
        min_members: 2,
        max_members: 20,
        crash_detect_s: 15.0,
    };
    let workload = ServiceWorkload::random(&candidates, &params, &plan, 3);

    for threads in [1, 2] {
        let cache = Arc::new(ConcurrentTreeCache::with_config(CacheConfig::default()));
        let factory =
            move || Box::new(GmpRouter::with_shared_cache(Arc::clone(&cache))) as Box<dyn Protocol>;
        let mut engine = SessionEngine::new(&topo, &config);
        // Allocations of one run, and how many of its sessions took a
        // fresh scratch instead of a pooled one.
        let mut run_once = || {
            let before = ALLOCS.load(Ordering::Relaxed);
            let run =
                engine.run_parallel(ParallelProtocol::PerWorker(&factory), &workload, threads);
            let allocs = ALLOCS.load(Ordering::Relaxed) - before;
            assert!(!run.outcomes.is_empty(), "{threads} workers ran no session");
            (allocs, run.outcomes.len() - run.scratch_reuses)
        };

        let mut prev = run_once().0;
        let mut settled = false;
        for _ in 0..MAX_WARMUP_PASSES {
            let next = run_once().0;
            settled = next == prev;
            prev = next;
            if settled {
                break;
            }
        }
        assert!(
            settled,
            "{threads} workers: still allocating differently after {MAX_WARMUP_PASSES} passes"
        );
        let (allocs, fresh_scratches) = run_once();
        assert_eq!(
            allocs, prev,
            "{threads} workers: a warmed engine allocated differently from the run before"
        );
        // Equal counts alone would also pass an engine that never reuses
        // its pool and pays the same cold cost every run.
        assert_eq!(
            fresh_scratches, 0,
            "{threads} workers: a warmed engine took fresh scratches"
        );
    }
}
