//! The per-task simulation loop.
//!
//! The loop is written for task throughput: every figure in the paper is an
//! average over thousands of simulated tasks, so the per-task constant
//! matters as much as the per-decision constant. Two structural choices
//! carry that:
//!
//! * **Pruned collision bookkeeping.** Past transmissions are kept in
//!   `OnAir`, a min-heap ordered by the time each transmission leaves the
//!   air. A transmission can only destroy a reception whose airtime
//!   overlaps it, and every pending or future reception starts no earlier
//!   than `now − max_airtime` (see `OnAir::prune`), so entries older than
//!   that are popped for good instead of being rescanned on every delivery
//!   — the seed kept every transmission forever, making collision checks
//!   O(total transmissions) each.
//! * **Reused buffers.** [`SimScratch`] owns the event queue, the collision
//!   heap, the liveness/pending tables, the forward buffer and the
//!   transmission log; a warmed scratch runs whole tasks without
//!   allocating in the loop itself, and a task's report allocates once per
//!   buffer it owns.
//!
//! Every configuration runs the same per-event step ([`Session::step`]):
//! pop one delivery, apply the fault and collision verdicts, then record,
//! route and dispatch. None of this changes any simulated outcome:
//! reports are bit-identical to the seed's (see
//! `crates/bench/tests/sim_parity.rs` and DESIGN.md).

use gmp_faults::{FailureCause, FaultScratch};
use gmp_net::{NodeId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BinaryHeap;

use crate::config::SimConfig;
use crate::energy::EnergyModel;
use crate::event::{Event, EventQueue};
use crate::metrics::TaskReport;
use crate::packet::MulticastPacket;
use crate::protocol::{Forward, NodeContext, Protocol};
use crate::task::MulticastTask;

/// One past transmission, kept while it can still destroy a reception.
#[derive(Debug, Clone, Copy)]
struct AirEntry {
    start: f64,
    end: f64,
    sender: NodeId,
}

impl PartialEq for AirEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for AirEntry {}
impl PartialOrd for AirEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for AirEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed on `end`: BinaryHeap is a max-heap, pruning pops the
        // transmission that leaves the air first.
        other
            .end
            .total_cmp(&self.end)
            .then_with(|| other.start.total_cmp(&self.start))
            .then_with(|| other.sender.cmp(&self.sender))
    }
}

/// The set of transmissions that may still collide with a reception,
/// ordered by when they leave the air.
///
/// # Pruning invariant
///
/// A reception sent at `s` with airtime `a` queries the set at its arrival
/// time `t = s + a`; an entry `(start, end, sender)` can only match it if
/// `s < end`. Every reception pending at wall-clock `now` arrives at
/// `t ≥ now` and has `a ≤ max_airtime` (its airtime fed the running
/// maximum when it was scheduled), so its query start is
/// `s = t − a ≥ now − max_airtime`; receptions scheduled *after* `now`
/// start at `s ≥ now`. Entries with `end ≤ now − max_airtime` therefore
/// can never match any present or future query and are popped for good —
/// membership of the live set, and with it every collision verdict, is
/// identical to the seed's never-pruned list.
#[derive(Debug, Default)]
struct OnAir {
    heap: BinaryHeap<AirEntry>,
    max_airtime: f64,
}

impl OnAir {
    fn clear(&mut self) {
        self.heap.clear();
        self.max_airtime = 0.0;
    }

    fn push(&mut self, start: f64, end: f64, sender: NodeId) {
        self.max_airtime = self.max_airtime.max(end - start);
        self.heap.push(AirEntry { start, end, sender });
    }

    fn prune(&mut self, now: f64) {
        let horizon = now - self.max_airtime;
        while let Some(e) = self.heap.peek() {
            if e.end <= horizon {
                self.heap.pop();
            } else {
                break;
            }
        }
    }

    fn iter(&self) -> impl Iterator<Item = &AirEntry> {
        self.heap.iter()
    }
}

/// The task's transmission log: kept in the scratch while the task runs,
/// and copied into the report once, at exact size, by [`Session::finish`].
#[derive(Debug, Default)]
struct LinkLog {
    links: Vec<(NodeId, NodeId)>,
    times: Vec<f64>,
}

impl LinkLog {
    fn clear(&mut self) {
        self.links.clear();
        self.times.clear();
    }

    fn push(&mut self, from: NodeId, to: NodeId, sent_at: f64) {
        self.links.push((from, to));
        self.times.push(sent_at);
    }
}

/// Reusable per-task working state for [`TaskRunner::run_with_scratch`].
///
/// After a warm-up task of comparable size, running further tasks through
/// the same scratch performs no allocations in the event loop itself:
/// every buffer is cleared in place. A fresh scratch and a reused one
/// produce bit-identical [`TaskReport`]s.
#[derive(Debug, Default)]
pub struct SimScratch {
    queue: EventQueue,
    on_air: OnAir,
    alive: Vec<bool>,
    /// `pending[i]` — destination `i` not yet reached. Indexed by node id;
    /// the final sweep reads failures out in ascending id order, which is
    /// exactly the sorted order the report promises.
    pending: Vec<bool>,
    pending_count: usize,
    /// First-delivery records as `(dest, hops, time)`; sorted by node and
    /// folded into the report's ordered maps once per task instead of
    /// paying tree inserts inside the loop.
    deliveries: Vec<(NodeId, u32, f64)>,
    /// Every transmission of the task, for the report's link logs.
    log: LinkLog,
    /// The single forward buffer every [`Protocol::on_packet`] appends to.
    forwards: Vec<Forward>,
    /// Proximate failure cause per still-pending destination, recorded on
    /// every packet drop (last write wins) and consumed by the oracle.
    drop_cause: Vec<FailureCause>,
    /// Compiled fault-plan state (timed crashes) and oracle buffers.
    faults: FaultScratch,
}

impl SimScratch {
    /// Fresh, empty working state.
    pub fn new() -> Self {
        SimScratch::default()
    }
}

/// Runs multicast tasks over a fixed topology and configuration.
#[derive(Debug, Clone, Copy)]
pub struct TaskRunner<'a> {
    topo: &'a Topology,
    config: &'a SimConfig,
}

impl<'a> TaskRunner<'a> {
    /// Creates a runner. `config.radio_range` should match the topology's;
    /// this is asserted because a mismatch silently breaks every protocol.
    pub fn new(topo: &'a Topology, config: &'a SimConfig) -> Self {
        assert!(
            (topo.radio_range() - config.radio_range).abs() < 1e-9,
            "topology radio range {} != config radio range {}",
            topo.radio_range(),
            config.radio_range
        );
        TaskRunner { topo, config }
    }

    /// Runs `task` under `protocol` with failure-injection seed 0.
    pub fn run(&self, protocol: &mut dyn Protocol, task: &MulticastTask) -> TaskReport {
        self.run_seeded(protocol, task, 0)
    }

    /// Runs `task` under `protocol`; `seed` drives failure injection only
    /// (runs are otherwise deterministic).
    pub fn run_seeded(
        &self,
        protocol: &mut dyn Protocol,
        task: &MulticastTask,
        seed: u64,
    ) -> TaskReport {
        let mut scratch = SimScratch::new();
        self.run_with_scratch(protocol, task, seed, &mut scratch)
    }

    /// [`TaskRunner::run_seeded`] through a caller-owned [`SimScratch`]:
    /// the task-throughput hot path. Steady-state (after a warm-up task of
    /// comparable size) the event loop performs zero heap allocations.
    ///
    /// Implemented as a [`Session`] driven to completion in place; the
    /// concurrent engine in `gmp-service` drives the same state machine
    /// one event at a time, which is why its per-session reports
    /// stay bit-identical to this path.
    pub fn run_with_scratch(
        &self,
        protocol: &mut dyn Protocol,
        task: &MulticastTask,
        seed: u64,
        scratch: &mut SimScratch,
    ) -> TaskReport {
        // `SimScratch::default()` performs no heap allocation, so the
        // take/restore pair keeps the zero-alloc steady state intact.
        let owned = std::mem::take(scratch);
        let mut session = Session::begin(*self, protocol, task, seed, owned);
        while !session.step(protocol) {}
        let (report, owned) = session.finish();
        *scratch = owned;
        report
    }

    /// `true` if the transmission `[start, end]` from `from` to `to`
    /// overlaps another transmission audible at `to` (protocol-model
    /// interference), or if `to` itself was transmitting (half-duplex).
    ///
    /// Audibility uses [`Topology::is_neighbor`] as a fast accept: it holds
    /// exactly when the squared distance rounds to at most `rr²`, and
    /// `sqrt` of a correctly-rounded square is exact, so it implies
    /// `dist ≤ rr`. Other senders fall into a few-ulp boundary band where
    /// the seed's exact `dist ≤ rr` comparison is replayed verbatim;
    /// anything beyond the band is rejected without a square root.
    fn collides(&self, on_air: &OnAir, start: f64, end: f64, from: NodeId, to: NodeId) -> bool {
        let rr = self.config.radio_range;
        let rr2_fuzz = rr * rr * (1.0 + 1e-12);
        let to_pos = self.topo.pos(to);
        on_air.iter().any(|e| {
            e.sender != from
                && e.start < end
                && start < e.end
                && (e.sender == to || self.topo.is_neighbor(to, e.sender) || {
                    let d2 = self.topo.pos(e.sender).dist_sq(to_pos);
                    d2 <= rr2_fuzz && self.topo.pos(e.sender).dist(to_pos) <= rr
                })
        })
    }

    /// What one transmission of `packet` from `from` to `to` costs: its
    /// size in bytes, the number of nodes that overhear it, and the link
    /// length. A link-layer retransmission costs what the first
    /// transmission of the same copy cost. Inlined: `transmit_jittered`
    /// calls it for every copy it sends.
    #[inline(always)]
    fn copy_cost(&self, from: NodeId, to: NodeId, packet: &MulticastPacket) -> (usize, usize, f64) {
        let bytes = if self.config.size_dependent_airtime {
            packet.encoded_len()
        } else {
            self.config.message_bytes
        };
        let link_m = self.topo.pos(from).dist(self.topo.pos(to));
        // Under power control only nodes within the (reduced) radius
        // overhear the transmission; the cutoff is a binary search in
        // the distance-sorted neighbor list instead of an O(degree)
        // filter.
        let listeners = if self.config.power_control.is_some() {
            let dists = self.topo.neighbor_distances(from);
            dists.partition_point(|&d| d <= link_m + gmp_geom::EPS)
        } else {
            self.topo.neighbors(from).len()
        };
        (bytes, listeners, link_m)
    }

    /// Applies hop caps, accounts energy/bytes, and schedules deliveries
    /// for the copies a protocol decided to send from `sender` (drained
    /// from the shared forward buffer), with the configured carrier-sense
    /// jitter.
    #[allow(clippy::too_many_arguments)]
    fn transmit_jittered(
        &self,
        sender: NodeId,
        forwards: &mut Vec<Forward>,
        queue: &mut EventQueue,
        report: &mut TaskReport,
        log: &mut LinkLog,
        energy: &EnergyModel,
        on_air: &mut OnAir,
        rng: &mut StdRng,
        pending: &[bool],
        drop_cause: &mut [FailureCause],
    ) {
        for mut fwd in forwards.drain(..) {
            assert!(
                self.topo.is_neighbor(sender, fwd.next_hop),
                "protocol bug: {} forwarded to non-neighbor {}",
                sender,
                fwd.next_hop
            );
            fwd.packet.hops += 1;
            if fwd.packet.hops > self.config.max_path_hops {
                report.dropped_packets += 1;
                record_drop(&fwd.packet.dests, pending, drop_cause, FailureCause::HopCap);
                continue;
            }
            let (bytes, listeners, link_m) = self.copy_cost(sender, fwd.next_hop, &fwd.packet);
            report.transmissions += 1;
            report.bytes_transmitted += bytes;
            log.push(sender, fwd.next_hop, queue.now());
            report.energy_j += energy.transmission_energy(bytes, listeners, link_m);
            let jitter = if self.config.tx_jitter_s > 0.0 {
                rng.gen_range(0.0..=self.config.tx_jitter_s)
            } else {
                0.0
            };
            let sent_at = queue.now() + jitter;
            let arrival = sent_at + energy.airtime(bytes);
            if self.config.collisions {
                on_air.push(sent_at, arrival, sender);
            }
            queue.schedule(
                arrival,
                Event::Deliver {
                    to: fwd.next_hop,
                    from: sender,
                    sent_at,
                    retries: 0,
                    packet: fwd.packet,
                },
            );
        }
    }
}

/// One in-flight simulated multicast task, steppable one event at a time.
///
/// [`TaskRunner::run_with_scratch`] is `begin` → `step` until done →
/// `finish`; a concurrent engine (the `gmp-service` crate) interleaves the
/// `step` calls of many sessions over one shared topology. A session owns
/// every piece of mutable per-task state — its [`SimScratch`] (event
/// queue, liveness tables, compiled crash timeline), its
/// failure-injection RNG, and its [`TaskReport`] — and its simulated
/// clock is task-local (t = 0 at `begin`), so the interleaving order
/// across sessions cannot change any session's outcome: every report is
/// bit-identical to running the task alone through
/// [`TaskRunner::run_with_scratch`].
#[derive(Debug)]
pub struct Session<'a> {
    topo: &'a Topology,
    config: &'a SimConfig,
    scratch: SimScratch,
    report: TaskReport,
    energy: EnergyModel,
    rng: StdRng,
    source: NodeId,
    has_crashes: bool,
    events_processed: usize,
    decisions: usize,
    done: bool,
}

impl<'a> Session<'a> {
    /// Starts the task: samples failure injection, primes the compiled
    /// crash timeline, and processes the source's initial routing decision
    /// — everything the sequential loop did before popping its first
    /// event. The session takes ownership of `scratch` (warm buffers and
    /// the compiled-plan cache carry over) and returns it through
    /// [`Session::finish`].
    pub fn begin(
        runner: TaskRunner<'a>,
        protocol: &mut dyn Protocol,
        task: &MulticastTask,
        seed: u64,
        mut scratch: SimScratch,
    ) -> Self {
        let TaskRunner { topo, config } = runner;
        let mut report = TaskReport::new(protocol.name());
        let energy = EnergyModel::from_config(config);
        let mut rng = StdRng::seed_from_u64(seed);

        let SimScratch {
            queue,
            on_air,
            alive,
            pending,
            pending_count,
            deliveries,
            log,
            forwards,
            drop_cause,
            faults,
        } = &mut scratch;
        queue.reset();
        on_air.clear();
        deliveries.clear();
        log.clear();
        forwards.clear();

        // Failure injection: sample the Bernoulli dead nodes (never the
        // source, so the task can at least start), then apply the fault
        // plan's t = 0 crashes. The crash timeline consumes no task RNG,
        // keeping Bernoulli-only runs bit-identical to the seed's.
        let plan = &config.faults;
        alive.clear();
        alive.resize(topo.len(), true);
        plan.sample_node_failures(&mut rng, task.source, alive);
        let has_crashes = plan.has_crashes();
        if has_crashes {
            faults.begin_task(plan, topo, task.source, alive);
        }

        drop_cause.clear();
        drop_cause.resize(topo.len(), FailureCause::NoRoute);

        pending.clear();
        pending.resize(topo.len(), false);
        *pending_count = 0;
        for &d in &task.dests {
            if !pending[d.index()] {
                pending[d.index()] = true;
                *pending_count += 1;
            }
        }

        // Contexts are built inline (not through a closure) because the
        // liveness view reborrows `alive`, which `advance_to` also
        // mutates; the view is only exposed when the plan has timed
        // crashes, so fault-free decisions stay bit-identical.
        {
            let ctx = NodeContext {
                topo,
                node: task.source,
                config,
                alive: has_crashes.then_some(alive.as_slice()),
            };
            // The source processes the initial packet at t = 0.
            let initial = MulticastPacket::new(0, task.source, task.dests.as_slice());
            protocol.on_packet(&ctx, initial, forwards);
        }
        runner.transmit_jittered(
            task.source,
            forwards,
            queue,
            &mut report,
            log,
            &energy,
            on_air,
            &mut rng,
            pending,
            drop_cause,
        );

        Session {
            topo,
            config,
            scratch,
            report,
            energy,
            rng,
            source: task.source,
            has_crashes,
            events_processed: 0,
            // The initial packet was one routing decision.
            decisions: 1,
            done: false,
        }
    }

    /// Task-local simulated time of the next pending event; `None` when
    /// the session has no work left (a truncated session reports `None`
    /// even though undispatched events remain).
    pub fn next_time(&self) -> Option<f64> {
        if self.done {
            None
        } else {
            self.scratch.queue.peek_time()
        }
    }

    /// Routing decisions made so far ([`Protocol::on_packet`] calls,
    /// counting the source's initial decision).
    pub fn decisions(&self) -> usize {
        self.decisions
    }

    /// Runs the end-of-task sweep (delivery lists, link logs, the
    /// delivery-guarantee oracle) and returns the report plus the scratch
    /// for reuse.
    ///
    /// # Panics
    ///
    /// Panics if the session still has dispatchable events — drive
    /// [`Session::step`] until it returns `true` first.
    pub fn finish(mut self) -> (TaskReport, SimScratch) {
        assert!(
            self.done || self.scratch.queue.is_empty(),
            "Session::finish called with events still pending"
        );
        let SimScratch {
            alive,
            pending,
            pending_count,
            deliveries,
            log,
            drop_cause,
            faults,
            ..
        } = &mut self.scratch;
        // One entry per first delivery, so the keys are distinct and the
        // sorted lists are collected at their exact size.
        deliveries.sort_unstable_by_key(|&(to, _, _)| to);
        self.report.delivery_hops = deliveries.iter().map(|&(to, hops, _)| (to, hops)).collect();
        self.report.delivery_times_s = deliveries.iter().map(|&(to, _, time)| (to, time)).collect();
        self.report.links = log.links.to_vec();
        self.report.link_times_s = log.times.to_vec();
        if *pending_count > 0 {
            // The delivery-guarantee oracle: classify every failure as
            // justified (dead/disconnected destination) or a protocol
            // failure carrying the proximate cause of the last drop.
            faults.classify_failures(
                self.topo,
                self.source,
                self.has_crashes,
                alive,
                pending,
                drop_cause,
                self.report.truncated,
                &mut self.report.failed_dests,
            );
        }
        (self.report, self.scratch)
    }

    /// Advances the session by one event — fault verdicts, the collision
    /// model, delivery bookkeeping, the routing decision and its dispatch —
    /// and returns `true` once no work remains (then call
    /// [`Session::finish`]).
    pub fn step(&mut self, protocol: &mut dyn Protocol) -> bool {
        if self.done {
            return true;
        }
        let Session {
            topo,
            config,
            scratch,
            report,
            energy,
            rng,
            source,
            has_crashes,
            events_processed,
            decisions,
            done,
            ..
        } = self;
        let (topo, config, source, has_crashes) = (*topo, *config, *source, *has_crashes);
        let runner = TaskRunner { topo, config };
        let plan = &config.faults;
        let SimScratch {
            queue,
            on_air,
            alive,
            pending,
            pending_count,
            deliveries,
            log,
            forwards,
            drop_cause,
            faults,
        } = scratch;

        let Some((time, event)) = queue.pop() else {
            *done = true;
            return true;
        };
        *events_processed += 1;
        if *events_processed > config.max_events {
            report.truncated = true;
            *done = true;
            return true;
        }
        let Event::Deliver {
            to,
            from,
            sent_at,
            retries,
            mut packet,
        } = event;
        if has_crashes {
            faults.advance_to(time, source, alive);
        }
        if !alive[to.index()] {
            report.dropped_packets += 1;
            record_drop(&packet.dests, pending, drop_cause, FailureCause::DeadNode);
            return false;
        }
        // Link-loss injection: the transmission was made (and paid
        // for) but the copy never arrives.
        if plan.transmission_lost(rng) {
            report.dropped_packets += 1;
            record_drop(&packet.dests, pending, drop_cause, FailureCause::LinkLoss);
            return false;
        }
        // Collision model: the copy is destroyed if any other audible
        // node (or the half-duplex receiver itself) transmitted during
        // its airtime. The link layer retries with backoff, up to the
        // configured budget (802.11-style), paying for each attempt.
        if config.collisions {
            on_air.prune(time);
            if runner.collides(on_air, sent_at, time, from, to) {
                if retries < config.max_retransmissions {
                    let airtime = time - sent_at;
                    let backoff = if config.tx_jitter_s > 0.0 {
                        rng.gen_range(0.0..=config.tx_jitter_s * (retries as f64 + 1.0))
                    } else {
                        airtime
                    };
                    let (bytes, listeners, link_m) = runner.copy_cost(from, to, &packet);
                    report.transmissions += 1;
                    report.bytes_transmitted += bytes;
                    report.energy_j += energy.transmission_energy(bytes, listeners, link_m);
                    let resend_at = time + backoff;
                    log.push(from, to, resend_at);
                    on_air.push(resend_at, resend_at + airtime, from);
                    queue.schedule(
                        resend_at + airtime,
                        Event::Deliver {
                            to,
                            from,
                            sent_at: resend_at,
                            retries: retries + 1,
                            packet,
                        },
                    );
                } else {
                    report.dropped_packets += 1;
                    record_drop(&packet.dests, pending, drop_cause, FailureCause::Collision);
                }
                return false;
            }
        }
        // Record delivery and strip the receiving node.
        if packet.dests.contains(&to) {
            packet.dests.retain(|&d| d != to);
            if pending[to.index()] {
                pending[to.index()] = false;
                *pending_count -= 1;
                deliveries.push((to, packet.hops, time));
                report.completion_time_s = report.completion_time_s.max(time);
            }
        }
        if packet.dests.is_empty() {
            return false;
        }
        let ctx = NodeContext {
            topo,
            node: to,
            config,
            alive: has_crashes.then_some(alive.as_slice()),
        };
        *decisions += 1;
        protocol.on_packet(&ctx, packet, forwards);
        runner.transmit_jittered(
            to, forwards, queue, report, log, energy, on_air, rng, pending, drop_cause,
        );
        false
    }
}

/// Records `cause` as the proximate failure cause for every still-pending
/// destination a dropped copy was carrying (last write wins — by the end
/// of the run the recorded cause is the one that killed the final copy).
fn record_drop(
    dests: &[NodeId],
    pending: &[bool],
    drop_cause: &mut [FailureCause],
    cause: FailureCause,
) {
    for &d in dests {
        if pending[d.index()] {
            drop_cause[d.index()] = cause;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::RoutingState;
    use gmp_faults::FailedDest;
    use gmp_geom::{Aabb, Point};

    fn line_topology(n: usize) -> Topology {
        let positions = (0..n).map(|i| Point::new(i as f64 * 10.0, 0.0)).collect();
        Topology::from_positions(positions, Aabb::square(1000.0), 12.0)
    }

    fn line_config() -> SimConfig {
        SimConfig::paper().with_radio_range(12.0)
    }

    /// Greedy unicast toward each destination, one copy per destination.
    struct Greedy;
    impl Protocol for Greedy {
        fn name(&self) -> String {
            "greedy".into()
        }
        fn on_packet(
            &mut self,
            ctx: &NodeContext<'_>,
            packet: MulticastPacket,
            out: &mut Vec<Forward>,
        ) {
            out.extend(packet.dests.iter().filter_map(|&d| {
                let target = ctx.pos_of(d);
                let here = ctx.pos().dist(target);
                ctx.neighbors()
                    .iter()
                    .copied()
                    .filter(|&n| ctx.pos_of(n).dist(target) < here)
                    .min_by(|&a, &b| {
                        ctx.pos_of(a)
                            .dist(target)
                            .total_cmp(&ctx.pos_of(b).dist(target))
                    })
                    .map(|n| Forward {
                        next_hop: n,
                        packet: packet.split(vec![d], RoutingState::Greedy),
                    })
            }));
        }
    }

    /// Bounces a packet between the first two nodes forever.
    struct PingPong;
    impl Protocol for PingPong {
        fn name(&self) -> String {
            "ping-pong".into()
        }
        fn on_packet(
            &mut self,
            ctx: &NodeContext<'_>,
            packet: MulticastPacket,
            out: &mut Vec<Forward>,
        ) {
            let other = if ctx.node == NodeId(0) {
                NodeId(1)
            } else {
                NodeId(0)
            };
            out.push(Forward {
                next_hop: other,
                packet,
            });
        }
    }

    /// Floods a copy to every neighbor at every hop (event-cap stressor).
    struct Flood;
    impl Protocol for Flood {
        fn name(&self) -> String {
            "flood".into()
        }
        fn on_packet(
            &mut self,
            ctx: &NodeContext<'_>,
            packet: MulticastPacket,
            out: &mut Vec<Forward>,
        ) {
            out.extend(ctx.neighbors().iter().map(|&n| Forward {
                next_hop: n,
                packet: packet.clone(),
            }));
        }
    }

    #[test]
    fn greedy_delivers_along_a_line_with_exact_accounting() {
        let topo = line_topology(5);
        let config = line_config();
        let runner = TaskRunner::new(&topo, &config);
        let task = MulticastTask::new(NodeId(0), vec![NodeId(4)]);
        let report = runner.run(&mut Greedy, &task);
        assert!(report.delivered_all());
        assert_eq!(report.transmissions, 4);
        assert_eq!(report.hops_to(NodeId(4)), Some(4));
        assert_eq!(report.dropped_packets, 0);
        assert!(!report.truncated);
        // Energy: senders 0,1,2,3 have 1,2,2,2 listeners respectively.
        let airtime = 128.0 * 8.0 / 1_000_000.0;
        let expected: f64 = [1, 2, 2, 2]
            .iter()
            .map(|&l| (1.3 + l as f64 * 0.9) * airtime)
            .sum();
        assert!((report.energy_j - expected).abs() < 1e-12);
        // Completion time: 4 store-and-forward hops.
        assert!((report.completion_time_s - 4.0 * airtime).abs() < 1e-12);
        assert_eq!(report.bytes_transmitted, 4 * 128);
        // The transmission log is the realized path.
        assert_eq!(
            report.links,
            vec![
                (NodeId(0), NodeId(1)),
                (NodeId(1), NodeId(2)),
                (NodeId(2), NodeId(3)),
                (NodeId(3), NodeId(4)),
            ]
        );
        // Transmission timestamps are store-and-forward multiples.
        assert_eq!(report.link_times_s.len(), 4);
        for (i, &t) in report.link_times_s.iter().enumerate() {
            assert!((t - i as f64 * airtime).abs() < 1e-12);
        }
        // The ns-2-style trace interleaves sends and the delivery.
        let trace = report.ns2_trace();
        let lines: Vec<&str> = trace.lines().collect();
        assert_eq!(lines.len(), 5); // 4 sends + 1 receive
        assert_eq!(lines[0], "s 0.000000 n0 n1");
        assert!(lines[4].starts_with("r ") && lines[4].ends_with("n4"));
    }

    #[test]
    fn multicast_to_two_destinations_counts_both() {
        let topo = line_topology(7);
        let config = line_config();
        let runner = TaskRunner::new(&topo, &config);
        // Source in the middle, destinations at both ends.
        let task = MulticastTask::new(NodeId(3), vec![NodeId(0), NodeId(6)]);
        let report = runner.run(&mut Greedy, &task);
        assert!(report.delivered_all());
        assert_eq!(report.transmissions, 6);
        assert_eq!(report.hops_to(NodeId(0)), Some(3));
        assert_eq!(report.hops_to(NodeId(6)), Some(3));
        assert_eq!(report.mean_dest_hops(), Some(3.0));
    }

    #[test]
    fn hop_cap_drops_looping_packets() {
        let topo = line_topology(3);
        let config = line_config().with_max_path_hops(20);
        let runner = TaskRunner::new(&topo, &config);
        let task = MulticastTask::new(NodeId(0), vec![NodeId(2)]);
        let report = runner.run(&mut PingPong, &task);
        assert!(!report.delivered_all());
        assert_eq!(
            report.failed_dests,
            vec![FailedDest::new(NodeId(2), FailureCause::HopCap)]
        );
        assert_eq!(report.dropped_packets, 1);
        assert_eq!(report.transmissions, 20);
        assert!(!report.truncated);
    }

    #[test]
    fn event_cap_truncates_exponential_floods() {
        let topo = line_topology(4);
        let mut config = line_config().with_max_path_hops(10_000);
        config.max_events = 500;
        let runner = TaskRunner::new(&topo, &config);
        let task = MulticastTask::new(NodeId(0), vec![NodeId(3)]);
        let report = runner.run(&mut Flood, &task);
        assert!(report.truncated);
    }

    #[test]
    fn failure_injection_kills_delivery() {
        let topo = line_topology(5);
        let config = line_config().with_node_failure_prob(1.0);
        let runner = TaskRunner::new(&topo, &config);
        let task = MulticastTask::new(NodeId(0), vec![NodeId(4)]);
        let report = runner.run_seeded(&mut Greedy, &task, 7);
        assert!(!report.delivered_all());
        // The first hop was transmitted but swallowed by the dead node.
        assert_eq!(report.transmissions, 1);
        assert_eq!(report.dropped_packets, 1);
    }

    /// Hop 0: the source fans out to both destinations; each destination
    /// then bounces the *other* destination back toward the source, so the
    /// two bounce transmissions overlap in the air at the source.
    struct CrossFire;
    impl Protocol for CrossFire {
        fn name(&self) -> String {
            "cross-fire".into()
        }
        fn on_packet(
            &mut self,
            ctx: &NodeContext<'_>,
            packet: MulticastPacket,
            out: &mut Vec<Forward>,
        ) {
            if ctx.node == NodeId(1) && packet.hops == 0 {
                out.push(Forward {
                    next_hop: NodeId(0),
                    packet: packet.split(vec![NodeId(0), NodeId(2)], RoutingState::Greedy),
                });
                out.push(Forward {
                    next_hop: NodeId(2),
                    packet: packet.split(vec![NodeId(0), NodeId(2)], RoutingState::Greedy),
                });
            } else if ctx.node != NodeId(1) {
                // Bounce the remaining destination back toward the source.
                out.push(Forward {
                    next_hop: NodeId(1),
                    packet: packet.clone(),
                });
            }
        }
    }

    #[test]
    fn collision_model_kills_overlapping_receptions() {
        // Three nodes in a line, all within mutual hearing range of the
        // middle one.
        let positions = vec![
            Point::new(0.0, 0.0),
            Point::new(8.0, 0.0),
            Point::new(16.0, 0.0),
        ];
        let topo = Topology::from_positions(positions, Aabb::square(100.0), 12.0);
        let config = line_config().with_collisions(true);
        let runner = TaskRunner::new(&topo, &config);
        let task = MulticastTask::new(NodeId(1), vec![NodeId(0), NodeId(2)]);
        let report = runner.run(&mut CrossFire, &task);
        // The two outbound copies share a sender, so they cannot collide
        // with each other: both destinations are delivered on hop 1.
        assert!(
            report.delivered_all(),
            "single-sender copies must not self-collide: {report:?}"
        );
        // Both bounces (different senders, same airtime, both audible at
        // the source) must collide and die.
        assert_eq!(report.transmissions, 4);
        assert_eq!(
            report.dropped_packets, 2,
            "overlapping receptions must collide: {report:?}"
        );

        // Same run without the collision model: nothing is dropped (the
        // bounces arrive and terminate at the source).
        let plain_config = line_config();
        let plain = TaskRunner::new(&topo, &plain_config).run(&mut CrossFire, &task);
        assert_eq!(plain.dropped_packets, 0);
    }

    /// Sends two copies n0→n1 back-to-back; n1 replies to the first, so
    /// n1's own transmission window starts at the exact instant the second
    /// copy's reception window ends.
    struct TouchingWindows;
    impl Protocol for TouchingWindows {
        fn name(&self) -> String {
            "touching-windows".into()
        }
        fn on_packet(
            &mut self,
            ctx: &NodeContext<'_>,
            packet: MulticastPacket,
            out: &mut Vec<Forward>,
        ) {
            if ctx.node == NodeId(0) && packet.hops == 0 {
                out.push(Forward {
                    next_hop: NodeId(1),
                    packet: packet.split(vec![NodeId(0)], RoutingState::Greedy),
                });
                out.push(Forward {
                    next_hop: NodeId(1),
                    packet: packet.split(vec![NodeId(1)], RoutingState::Greedy),
                });
            } else if ctx.node == NodeId(1) {
                // Bounce the reply marker back to the source.
                out.push(Forward {
                    next_hop: NodeId(0),
                    packet,
                });
            }
        }
    }

    #[test]
    fn exactly_touching_windows_do_not_collide() {
        // Interference needs a strict overlap: `a < end && start < b`.
        // Here every pair of windows at the receiver touches at one
        // instant — the second copy's reception `[0, τ]` against n1's
        // reply transmission `[τ, 2τ]`, and the reply's reception at n0
        // against n0's own `[0, τ]` sends — so nothing may be destroyed,
        // not even via the half-duplex rule.
        let positions = vec![Point::new(0.0, 0.0), Point::new(8.0, 0.0)];
        let topo = Topology::from_positions(positions, Aabb::square(100.0), 12.0);
        let config = line_config().with_collisions(true);
        let runner = TaskRunner::new(&topo, &config);
        let task = MulticastTask::new(NodeId(0), vec![NodeId(1)]);
        let report = runner.run(&mut TouchingWindows, &task);
        assert!(
            report.delivered_all(),
            "touching (non-overlapping) windows must not collide: {report:?}"
        );
        assert_eq!(report.dropped_packets, 0);
        assert_eq!(report.transmissions, 3);
    }

    /// Like [`TouchingWindows`], but the second copy carries two
    /// destination entries, so under size-dependent airtime it stays in
    /// the air longer and arrives *while* n1 is transmitting its reply.
    struct OverrunWindows;
    impl Protocol for OverrunWindows {
        fn name(&self) -> String {
            "overrun-windows".into()
        }
        fn on_packet(
            &mut self,
            ctx: &NodeContext<'_>,
            packet: MulticastPacket,
            out: &mut Vec<Forward>,
        ) {
            if ctx.node == NodeId(0) && packet.hops == 0 {
                out.push(Forward {
                    next_hop: NodeId(1),
                    packet: packet.split(vec![NodeId(0)], RoutingState::Greedy),
                });
                out.push(Forward {
                    next_hop: NodeId(1),
                    packet: packet.split(vec![NodeId(1), NodeId(0)], RoutingState::Greedy),
                });
            } else if ctx.node == NodeId(1) {
                out.push(Forward {
                    next_hop: NodeId(0),
                    packet,
                });
            }
        }
    }

    #[test]
    fn half_duplex_receiver_destroys_overlapping_reception() {
        // Destination entries cost 20 bytes each, so the two-entry copy's
        // airtime is strictly between 1× and 2× the one-entry copy's:
        // it arrives at n1 inside n1's own reply window `[τ, 2τ]` and the
        // `sender == to` (half-duplex) rule must kill it — n1 was
        // transmitting, n1 cannot simultaneously receive. The reply then
        // dies symmetrically at n0, whose second send is still in the air.
        let positions = vec![Point::new(0.0, 0.0), Point::new(8.0, 0.0)];
        let topo = Topology::from_positions(positions, Aabb::square(100.0), 12.0);
        let config = line_config()
            .with_collisions(true)
            .with_size_dependent_airtime(true);
        let runner = TaskRunner::new(&topo, &config);
        let task = MulticastTask::new(NodeId(0), vec![NodeId(1)]);
        let report = runner.run(&mut OverrunWindows, &task);
        assert_eq!(
            report.failed_dests,
            vec![FailedDest::new(NodeId(1), FailureCause::Collision)],
            "half-duplex reception must be destroyed: {report:?}"
        );
        assert_eq!(report.dropped_packets, 2);
        assert_eq!(report.transmissions, 3);
        assert!(!report.truncated);
    }

    #[test]
    fn backoff_chains_with_expiring_entries_stay_exact() {
        // CrossFire's two bounces collide; with no jitter the backoff
        // equals the airtime, so both copies retry in lockstep windows
        // `[3τ,4τ]`, `[5τ,6τ]`, `[7τ,8τ]` and collide every round until
        // the budget runs out. By the later rounds every earlier window
        // has left the pruning horizon (`now − max_airtime`) and been
        // popped mid-task — the verdicts must come out identical to the
        // seed's never-pruned bookkeeping: one collision per copy per
        // round, nothing more.
        let positions = vec![
            Point::new(0.0, 0.0),
            Point::new(8.0, 0.0),
            Point::new(16.0, 0.0),
        ];
        let topo = Topology::from_positions(positions, Aabb::square(100.0), 12.0);
        let config = line_config().with_collisions(true).with_retransmissions(3);
        let runner = TaskRunner::new(&topo, &config);
        let task = MulticastTask::new(NodeId(1), vec![NodeId(0), NodeId(2)]);
        let report = runner.run(&mut CrossFire, &task);
        // Both destinations were reached on the outbound fan-out.
        assert!(report.delivered_all(), "{report:?}");
        // 2 outbound + 2 bounces + 2 copies × 3 retries, then both drop.
        assert_eq!(report.transmissions, 10);
        assert_eq!(report.dropped_packets, 2);
        assert!(!report.truncated);
    }

    #[test]
    fn retransmissions_charge_the_copy_size() {
        // CrossFire's bounces collide in every round, as above. Under
        // size-dependent airtime a bounce carries one destination entry,
        // so each of its three retransmissions pays the 41 bytes its first
        // transmission paid, not the fixed 128.
        let positions = vec![
            Point::new(0.0, 0.0),
            Point::new(8.0, 0.0),
            Point::new(16.0, 0.0),
        ];
        let topo = Topology::from_positions(positions, Aabb::square(100.0), 12.0);
        let config = line_config()
            .with_collisions(true)
            .with_retransmissions(3)
            .with_size_dependent_airtime(true);
        let task = MulticastTask::new(NodeId(1), vec![NodeId(0), NodeId(2)]);
        let report = TaskRunner::new(&topo, &config).run(&mut CrossFire, &task);
        assert_eq!(report.transmissions, 10);
        assert_eq!(report.dropped_packets, 2);
        let (outbound, bounce) = (61, 41);
        assert_eq!(report.bytes_transmitted, 2 * outbound + 8 * bounce);
        let energy = EnergyModel::from_config(&config);
        let want = 2.0 * energy.transmission_energy(outbound, 2, 8.0)
            + 8.0 * energy.transmission_energy(bounce, 1, 8.0);
        assert!((report.energy_j - want).abs() < 1e-12, "{report:?}");
    }

    #[test]
    fn retransmissions_count_the_power_controlled_listeners() {
        // CrossFire with one more node behind each bouncing node, 10 m
        // away: a full-power transmission reaches it, but a bounce's 8 m
        // link reaches only n1. Under power control every transmission of
        // a bounce, retries included, has that one listener.
        let positions = vec![
            Point::new(10.0, 0.0),
            Point::new(18.0, 0.0),
            Point::new(26.0, 0.0),
            Point::new(0.0, 0.0),
            Point::new(36.0, 0.0),
        ];
        let topo = Topology::from_positions(positions, Aabb::square(100.0), 12.0);
        let config = line_config()
            .with_collisions(true)
            .with_retransmissions(3)
            .with_power_control(crate::config::PowerControl {
                alpha: 2.0,
                overhead_w: 0.1,
            });
        let task = MulticastTask::new(NodeId(1), vec![NodeId(0), NodeId(2)]);
        let report = TaskRunner::new(&topo, &config).run(&mut CrossFire, &task);
        assert_eq!(report.transmissions, 10);
        assert_eq!(report.dropped_packets, 2);
        assert_eq!(report.bytes_transmitted, 10 * 128);
        let energy = EnergyModel::from_config(&config);
        let want = 2.0 * energy.transmission_energy(128, 2, 8.0)
            + 8.0 * energy.transmission_energy(128, 1, 8.0);
        assert!((report.energy_j - want).abs() < 1e-12, "{report:?}");
    }

    #[test]
    fn collisions_off_by_default_preserves_old_behaviour() {
        let topo = line_topology(5);
        let config = line_config();
        assert!(!config.collisions);
        let runner = TaskRunner::new(&topo, &config);
        let task = MulticastTask::new(NodeId(0), vec![NodeId(4)]);
        let report = runner.run(&mut Greedy, &task);
        assert!(report.delivered_all());
        assert_eq!(report.dropped_packets, 0);
    }

    #[test]
    fn link_loss_drops_copies_but_stays_deterministic() {
        let topo = line_topology(6);
        let config = line_config().with_link_loss_prob(0.5);
        let runner = TaskRunner::new(&topo, &config);
        let task = MulticastTask::new(NodeId(0), vec![NodeId(5)]);
        let a = runner.run_seeded(&mut Greedy, &task, 3);
        let b = runner.run_seeded(&mut Greedy, &task, 3);
        assert_eq!(a, b, "loss sampling must be seed-deterministic");
        // At 50% per-hop loss over 5 hops the copy essentially never
        // survives; the drop must be accounted.
        if !a.delivered_all() {
            assert!(a.dropped_packets >= 1);
        }
        // Different seed, possibly different outcome, never a panic.
        let _ = runner.run_seeded(&mut Greedy, &task, 4);
    }

    #[test]
    fn runs_are_deterministic() {
        let topo = line_topology(7);
        let config = line_config();
        let runner = TaskRunner::new(&topo, &config);
        let task = MulticastTask::new(NodeId(3), vec![NodeId(0), NodeId(6)]);
        let a = runner.run(&mut Greedy, &task);
        let b = runner.run(&mut Greedy, &task);
        assert_eq!(a, b);
    }

    #[test]
    fn reused_scratch_matches_fresh_runs() {
        // One scratch across a mix of configs and tasks: every report must
        // be bit-identical to a fresh-scratch run.
        let topo = line_topology(7);
        let configs = [
            line_config(),
            line_config()
                .with_collisions(true)
                .with_tx_jitter(0.002)
                .with_retransmissions(3),
            line_config().with_link_loss_prob(0.3),
        ];
        let tasks = [
            MulticastTask::new(NodeId(3), vec![NodeId(0), NodeId(6)]),
            MulticastTask::new(NodeId(0), vec![NodeId(5)]),
        ];
        let mut scratch = SimScratch::new();
        for config in &configs {
            let runner = TaskRunner::new(&topo, config);
            for task in &tasks {
                for seed in [0, 9] {
                    let fresh = runner.run_seeded(&mut Greedy, task, seed);
                    let reused = runner.run_with_scratch(&mut Greedy, task, seed, &mut scratch);
                    assert_eq!(fresh, reused);
                }
            }
        }
    }

    #[test]
    fn manually_stepped_session_matches_one_shot_run() {
        // Drive a Session by hand — begin / step-until-done / finish —
        // across the paper default, collisions, link loss, and a timed
        // crash that fires at the instant the source's two copies arrive
        // (equal-time events advance the fault state); the report must be
        // bit-identical to run_with_scratch, and next_time() must be
        // non-decreasing.
        let topo = line_topology(7);
        let airtime = 128.0 * 8.0 / 1_000_000.0;
        let configs = [
            line_config(),
            line_config()
                .with_collisions(true)
                .with_tx_jitter(0.002)
                .with_retransmissions(3),
            line_config().with_link_loss_prob(0.3),
            line_config().with_faults(gmp_faults::FaultPlan::none().with_crash(NodeId(5), airtime)),
        ];
        let task = MulticastTask::new(NodeId(3), vec![NodeId(0), NodeId(6)]);
        for config in &configs {
            let runner = TaskRunner::new(&topo, config);
            let oneshot = runner.run_seeded(&mut Greedy, &task, 5);
            let mut session = Session::begin(runner, &mut Greedy, &task, 5, SimScratch::new());
            let mut last = f64::NEG_INFINITY;
            while let Some(t) = session.next_time() {
                assert!(t >= last, "event times must be non-decreasing");
                last = t;
                session.step(&mut Greedy);
            }
            assert!(session.step(&mut Greedy), "drained session must be done");
            assert!(session.decisions() >= 1);
            let (report, _scratch) = session.finish();
            assert_eq!(report, oneshot);
        }
    }

    #[test]
    #[should_panic(expected = "radio range")]
    fn mismatched_radio_range_panics() {
        let topo = line_topology(3);
        let config = SimConfig::paper(); // 150 m ≠ 12 m
        let _ = TaskRunner::new(&topo, &config);
    }

    #[test]
    #[should_panic(expected = "non-neighbor")]
    fn forwarding_to_non_neighbor_panics() {
        struct Teleport;
        impl Protocol for Teleport {
            fn name(&self) -> String {
                "teleport".into()
            }
            fn on_packet(
                &mut self,
                _: &NodeContext<'_>,
                packet: MulticastPacket,
                out: &mut Vec<Forward>,
            ) {
                out.push(Forward {
                    next_hop: NodeId(4),
                    packet,
                });
            }
        }
        let topo = line_topology(5);
        let config = line_config();
        let runner = TaskRunner::new(&topo, &config);
        let task = MulticastTask::new(NodeId(0), vec![NodeId(4)]);
        let _ = runner.run(&mut Teleport, &task);
    }

    #[test]
    fn size_dependent_airtime_charges_encoded_bytes() {
        let topo = line_topology(5);
        let config = line_config().with_size_dependent_airtime(true);
        let runner = TaskRunner::new(&topo, &config);
        let task = MulticastTask::new(NodeId(0), vec![NodeId(4)]);
        let report = runner.run(&mut Greedy, &task);
        assert!(report.delivered_all());
        // Encoded packets here are smaller than 128 B (1 destination).
        assert!(report.bytes_transmitted < 4 * 128);
        assert!(report.bytes_transmitted > 0);
    }
}
