//! Proof of the event-loop allocation contract: with a warmed
//! [`SimScratch`], running a task allocates only for the *outputs* that
//! necessarily leave the loop — the fresh [`TaskReport`]'s own buffers —
//! never per event. The loop's working state (event queue and its slab,
//! collision heap, liveness/pending tables, forward buffer, transmission
//! log) is reused in place, the initial packet's short destination list is
//! held inline, and the report's link logs are copied out once at their
//! exact size, so hundreds of events, collisions, and retransmissions add
//! nothing.
//!
//! This file holds exactly one test: the counter is process-global, and a
//! sibling test running on another thread would pollute the delta.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use gmp_geom::{Aabb, Point};
use gmp_net::{NodeId, Topology};
use gmp_sim::{
    Forward, MulticastPacket, MulticastTask, NodeContext, Protocol, SimConfig, SimScratch,
    TaskRunner,
};

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

/// Hands each copy to the next node up the line, untouched. Moving the
/// packet into the forward keeps its destination list at one owner, so
/// the runner's delivery `retain` also works in place.
struct PassAlong {
    last: NodeId,
}

impl Protocol for PassAlong {
    fn name(&self) -> String {
        // Capacity-zero string: display names are irrelevant here and an
        // empty `String` performs no heap allocation.
        String::new()
    }
    fn on_packet(
        &mut self,
        ctx: &NodeContext<'_>,
        packet: MulticastPacket,
        out: &mut Vec<Forward>,
    ) {
        if ctx.node < self.last {
            out.push(Forward {
                next_hop: NodeId(ctx.node.0 + 1),
                packet,
            });
        }
    }
}

#[test]
fn steady_state_event_loop_allocates_only_report_outputs() {
    // A line long enough that one task processes ~60 events; with the
    // retransmission budget and jitter enabled, the collision machinery
    // (pruning heap, backoff draws, re-scheduling) is fully exercised.
    let n = 60usize;
    let positions: Vec<Point> = (0..n).map(|i| Point::new(i as f64 * 10.0, 0.0)).collect();
    let topo = Topology::from_positions(positions, Aabb::square(1000.0), 12.0);
    let config = SimConfig::paper()
        .with_radio_range(12.0)
        .with_collisions(true)
        .with_tx_jitter(0.002)
        .with_retransmissions(3);
    let runner = TaskRunner::new(&topo, &config);
    let task = MulticastTask::new(NodeId(0), vec![NodeId(n as u32 - 1)]);
    let mut protocol = PassAlong {
        last: NodeId(n as u32 - 1),
    };
    let mut scratch = SimScratch::new();

    // Warm-up: grows every scratch buffer (event queue, collision heap,
    // liveness and pending tables, forward buffer) to its high-water mark
    // and initializes the topology's lazy caches.
    for seed in 0..3 {
        let r = runner.run_with_scratch(&mut protocol, &task, seed, &mut scratch);
        assert!(r.delivered_all());
    }

    let runs = 20usize;
    let before = ALLOCS.load(Ordering::SeqCst);
    for seed in 0..runs as u64 {
        let r = runner.run_with_scratch(&mut protocol, &task, seed, &mut scratch);
        assert!(r.delivered_all(), "line delivery failed at seed {seed}");
    }
    let after = ALLOCS.load(Ordering::SeqCst);
    let per_task = (after - before) as f64 / runs as f64;

    // Per-task budget, all of it output that escapes the loop:
    //   2  report.links and report.link_times_s, one exact-size copy each
    //   2  report.delivery_hops and report.delivery_times_s, one
    //      exact-size vector each (one destination)
    // The protocol's name is an empty `String` and the one-destination
    // initial packet holds its list inline: neither allocates. Everything
    // else — queue, slab, on-air heap, pending, forwards, link log — must
    // be amortized to zero by the scratch.
    assert_eq!(
        per_task, 4.0,
        "steady-state task performed {per_task} allocations, not the 4 \
         its report owns — the event loop is allocating per event"
    );

    // Steady state is exactly reproducible: a second measured batch costs
    // the same as the first, so the loop neither accumulates state nor
    // allocates on a warm-up-dependent path.
    let before2 = ALLOCS.load(Ordering::SeqCst);
    for seed in 0..runs as u64 {
        let _ = runner.run_with_scratch(&mut protocol, &task, seed, &mut scratch);
    }
    let after2 = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        after2 - before2,
        "allocation count drifted between identical steady-state batches"
    );
}
