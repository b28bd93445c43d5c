//! Allocation contract of [`FaultScratch`]: after the first task against
//! a given plan and topology, beginning a task, walking its timeline and
//! judging its failures allocate nothing — also when the plan arrives as
//! a separately built equal copy, which the scratch recognises by value.
//!
//! This file holds exactly one test: the counter is process-global, and a
//! sibling test running on another thread would pollute the delta.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use gmp_faults::{FailureCause, FaultPlan, FaultScratch};
use gmp_net::{NodeId, Topology, TopologyConfig};

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

fn plan(n: usize) -> FaultPlan {
    FaultPlan::random_crashes(n, 0.2, 0.0, 3)
        .with_crash(NodeId(1), 0.5)
        .with_link_churn(1.0, 30.0, (20.0, 40.0), (0.0, 0.5), 5)
}

#[test]
fn warmed_scratch_allocates_nothing_per_task() {
    let topo = Topology::random(&TopologyConfig::new(500.0, 80, 150.0), 7);
    let n = topo.len();
    let first = plan(n);
    let mut scratch = FaultScratch::new();
    let mut alive = vec![true; n];
    let drop_cause = vec![FailureCause::NoRoute; n];
    // Every node pending: dead ones, live ones and the source, so the
    // search runs and the warm-up sizes its buffers.
    let pending = vec![true; n];
    let mut out = Vec::with_capacity(n);
    let mut task = |scratch: &mut FaultScratch, p: &FaultPlan, alive: &mut Vec<bool>| {
        alive.iter_mut().for_each(|a| *a = true);
        scratch.begin_task(p, &topo, NodeId(0), alive);
        scratch.advance_to(1e9, NodeId(0), alive);
        out.clear();
        scratch.classify_failures(
            &topo,
            NodeId(0),
            true,
            alive,
            &pending,
            &drop_cause,
            false,
            &mut out,
        );
        out.len()
    };
    assert_eq!(task(&mut scratch, &first, &mut alive), n);

    let equal = plan(n);
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..3 {
        task(&mut scratch, &first, &mut alive);
        task(&mut scratch, &equal, &mut alive);
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(allocs, 0, "warmed fault scratch allocated {allocs} times");
}
