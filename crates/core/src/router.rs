//! The GMP forwarding engine (Figure 7 + the Section 4.1 void handling).

use std::sync::Arc;

use gmp_geom::Point;
use gmp_net::face::perimeter_next_hop;
use gmp_net::{NodeId, PerimeterState};
use gmp_sim::{DestList, Forward, MulticastPacket, NodeContext, Protocol, RoutingState};

use crate::cache::{CacheStats, ConcurrentTreeCache, Decision, TreeCache};
use crate::grouping::DecisionScratch;

/// Configuration of the GMP router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GmpConfig {
    /// Apply the Section 3.3 radio-range-aware pruning in rrSTR.
    /// `true` is GMP; `false` is the GMPnr ablation.
    pub radio_range_aware: bool,
    /// Merge packet copies whose groups selected the same next hop into a
    /// single transmission (the receiving node re-partitions anyway).
    /// `false` is the paper-faithful behaviour (Figure 7 forwards one
    /// copy per pivot unconditionally); `true` is an ablation. Merges
    /// occur only in sparse networks, and a merged task can take more
    /// transmissions as well as fewer
    /// (`merging_same_next_hop_can_save_or_cost_transmissions`).
    pub merge_same_next_hop: bool,
}

impl Default for GmpConfig {
    fn default() -> Self {
        GmpConfig {
            radio_range_aware: true,
            merge_same_next_hop: false,
        }
    }
}

/// The Geographic Multicast routing Protocol.
///
/// Stateless across packets — every forwarding decision is recomputed
/// from the packet's destination list and the node's local neighborhood.
/// The router does carry a [`DecisionScratch`] and a [`TreeCache`], but
/// those are pure working memory: they never influence a decision (the
/// cache only serves groupings proven bit-identical to recomputation —
/// see [`crate::cache`]), they only let the steady-state hot path skip
/// redundant tree rebuilds and run without allocating.
#[derive(Debug, Clone, Default)]
pub struct GmpRouter {
    config: GmpConfig,
    scratch: DecisionScratch,
    cache: CacheBackend,
}

/// The router's decision memo: a private per-router [`TreeCache`] (the
/// default), or a handle to a [`ConcurrentTreeCache`] shared with other
/// routers — typically one per engine worker thread. The two backends
/// serve bit-identical groupings (both verify every served entry against
/// exact inputs), so which one a router carries never shows in a report.
#[derive(Debug, Clone)]
enum CacheBackend {
    Private(TreeCache),
    Shared(Arc<ConcurrentTreeCache>),
}

impl Default for CacheBackend {
    fn default() -> Self {
        CacheBackend::Private(TreeCache::new())
    }
}

impl GmpRouter {
    /// The full protocol (radio-range-aware rrSTR).
    pub fn new() -> Self {
        GmpRouter::with_config(GmpConfig::default())
    }

    /// The GMPnr ablation: radio-range-aware decisions turned off.
    pub fn without_radio_range_awareness() -> Self {
        GmpRouter::with_config(GmpConfig {
            radio_range_aware: false,
            ..GmpConfig::default()
        })
    }

    /// A router with an explicit configuration (ablation entry point).
    pub fn with_config(config: GmpConfig) -> Self {
        GmpRouter {
            config,
            scratch: DecisionScratch::new(),
            cache: CacheBackend::default(),
        }
    }

    /// The full protocol backed by a decision cache shared with other
    /// routers (one warm cache across all engine workers instead of N
    /// cold private ones).
    pub fn with_shared_cache(cache: Arc<ConcurrentTreeCache>) -> Self {
        GmpRouter {
            config: GmpConfig::default(),
            scratch: DecisionScratch::new(),
            cache: CacheBackend::Shared(cache),
        }
    }

    /// The router's configuration.
    pub fn config(&self) -> GmpConfig {
        self.config
    }

    /// Decision-cache behaviour counters (hits, misses, fallbacks,
    /// evictions) accumulated over this router's lifetime — or over the
    /// whole shared cache's lifetime when one is attached.
    pub fn cache_stats(&self) -> CacheStats {
        match &self.cache {
            CacheBackend::Private(cache) => cache.stats(),
            CacheBackend::Shared(cache) => cache.stats(),
        }
    }
}

/// Builds one forward per covered `(next hop, destinations)` group and,
/// if there are voids, one perimeter-mode copy for them. Every copy's
/// destination list is built from the decision's slices, so a computed
/// decision's scratch and a stored decision's entry are only read. A
/// perimeter copy's state is written into the received packet's box,
/// `prior_perimeter`, when there is one, and boxed afresh only when there
/// is not.
///
/// Generic over the groups' iterator so that each form of a
/// [`Decision`] gets its own loop: one shared iterator over both forms
/// cost about a tenth of `replay-warm`'s throughput.
fn emit<'d>(
    config: GmpConfig,
    ctx: &NodeContext<'_>,
    packet: &MulticastPacket,
    covered: impl Iterator<Item = (NodeId, &'d [NodeId])>,
    voids: &[NodeId],
    prior_perimeter: Option<Box<PerimeterState>>,
    out: &mut Vec<Forward>,
) {
    let before = out.len();
    out.extend(covered.map(|(next_hop, group)| {
        // A group carrying the packet's whole destination list forwards
        // the list itself — by reference count when it is too long to be
        // held inline — the steady state of every pass-through hop.
        let dests = if *packet.dests == *group {
            packet.dests.clone()
        } else {
            DestList::from(group)
        };
        Forward {
            // Step 4 of Figure 7: a found next hop clears PERIMODE.
            next_hop,
            packet: packet.split(dests, RoutingState::Greedy),
        }
    }));
    let had_covered = out.len() > before;
    if config.merge_same_next_hop {
        merge_same_next_hop(packet, out, before);
    }

    if voids.is_empty() {
        return;
    }

    // Section 4.1: all void destinations travel as ONE perimeter group.
    let mut state = match (&prior_perimeter, had_covered) {
        // "If no valid next hop can be found for any of the groups, the
        // packet remains in perimeter mode with the same previous
        // average destination."
        (Some(prev), false) => **prev,
        // Fresh perimeter round (or partially-covered: "a new perimeter
        // group will replace uncovered groups and a new average
        // destination location is calculated").
        _ => {
            let avg =
                Point::centroid(voids.iter().map(|&d| ctx.pos_of(d))).expect("voids non-empty");
            PerimeterState::enter(ctx.pos(), avg)
        }
    };
    match perimeter_next_hop(ctx.topo, ctx.planar_kind(), ctx.node, &mut state) {
        Ok(next_hop) => {
            let state = match prior_perimeter {
                Some(mut reused) => {
                    *reused = state;
                    reused
                }
                None => Box::new(state),
            };
            out.push(Forward {
                next_hop,
                packet: packet.split(voids, RoutingState::Perimeter(state)),
            });
        }
        Err(_) => {
            // Unreachable void destinations: the copy dies here and the
            // runner records them as failed.
        }
    }
}

/// The [`GmpConfig::merge_same_next_hop`] ablation over the greedy copies
/// `emit` pushed to `out[from..]`: copies sharing a next hop become one,
/// carrying their destinations in ascending order, and the copies go out
/// in ascending next-hop order (a stable sort, so a copy keeps its place
/// among equal hops).
fn merge_same_next_hop(packet: &MulticastPacket, out: &mut Vec<Forward>, from: usize) {
    if out.len() < from + 2 {
        return;
    }
    out[from..].sort_by_key(|f| f.next_hop);
    let mut last = from;
    for i in from + 1..out.len() {
        if out[i].next_hop != out[last].next_hop {
            last += 1;
            out.swap(last, i);
            continue;
        }
        let mut dests = out[last].packet.dests.to_vec();
        dests.extend_from_slice(&out[i].packet.dests);
        dests.sort_unstable();
        out[last].packet.dests = if *packet.dests == *dests {
            packet.dests.clone()
        } else {
            DestList::from(dests)
        };
    }
    out.truncate(last + 1);
}

impl Protocol for GmpRouter {
    fn name(&self) -> String {
        if self.config.radio_range_aware {
            "GMP".into()
        } else {
            "GMPnr".into()
        }
    }

    fn on_packet(
        &mut self,
        ctx: &NodeContext<'_>,
        mut packet: MulticastPacket,
        out: &mut Vec<Forward>,
    ) {
        debug_assert!(!packet.dests.is_empty());
        // A perimeter packet's state box travels on with the void copy, if
        // this node sends one.
        let prior = match std::mem::take(&mut packet.state) {
            RoutingState::Perimeter(p) => Some(p),
            _ => None,
        };
        let entry = prior.as_ref().map(|p| p.entry);
        let config = self.config;
        // Step 4 of the Section 4.1 perimeter procedure: every receiving
        // node (perimeter or not) first tries normal GMP grouping. For a
        // perimeter packet the exit must also beat the entry point's total
        // distance (GPSR's progress rule), or the packet would bounce
        // straight back into the void.
        let decision = match &mut self.cache {
            CacheBackend::Private(cache) => cache.group_destinations_cached(
                &mut self.scratch,
                ctx.topo,
                ctx.node,
                &packet.dests,
                config.radio_range_aware,
                entry,
                ctx.alive,
            ),
            CacheBackend::Shared(cache) => cache.group_destinations_cached(
                &mut self.scratch,
                ctx.topo,
                ctx.node,
                &packet.dests,
                config.radio_range_aware,
                entry,
                ctx.alive,
            ),
        };
        match decision {
            Decision::Computed(g) => {
                let covered = g.covered.iter().map(|c| (c.next_hop, c.dests.as_slice()));
                emit(config, ctx, &packet, covered, &g.voids, prior, out);
            }
            Decision::Stored(s) => emit(config, ctx, &packet, s.covered(), s.voids(), prior, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmp_geom::Aabb;
    use gmp_net::topology::{Hole, Topology, TopologyConfig};
    use gmp_net::NodeId;
    use gmp_sim::{MulticastTask, SimConfig, TaskRunner};

    fn run(
        topo: &Topology,
        config: &SimConfig,
        router: &mut GmpRouter,
        task: &MulticastTask,
    ) -> gmp_sim::TaskReport {
        TaskRunner::new(topo, config).run(router, task)
    }

    #[test]
    fn names_distinguish_variants() {
        assert_eq!(GmpRouter::new().name(), "GMP");
        assert_eq!(GmpRouter::without_radio_range_awareness().name(), "GMPnr");
        assert!(GmpRouter::new().config().radio_range_aware);
        assert!(!GmpRouter::new().config().merge_same_next_hop);
    }

    #[test]
    fn merging_same_next_hop_can_save_or_cost_transmissions() {
        // Fig. 15's third 120-node network (harness seed 0xA5A5_0002, k =
        // 12, hop cap 100). Merges fire only in networks this sparse, and
        // a merged copy re-partitions at a different node, so a task can
        // come out cheaper or dearer.
        let config = SimConfig::paper()
            .with_node_count(120)
            .with_max_path_hops(100);
        let topo = Topology::random(&config.topology_config(), 0xA5A5_0002);
        let merging = GmpConfig {
            merge_same_next_hop: true,
            ..GmpConfig::default()
        };
        for (task_seed, plain_tx, merged_tx) in [(20_003, 188, 123), (20_035, 114, 193)] {
            let task = MulticastTask::random(&topo, 12, task_seed);
            let mut plain_router = GmpRouter::new();
            let mut merging_router = GmpRouter::with_config(merging);
            let plain = run(&topo, &config, &mut plain_router, &task);
            let merged = run(&topo, &config, &mut merging_router, &task);
            assert!(plain.delivered_all(), "task {task_seed}");
            assert!(merged.delivered_all(), "task {task_seed}");
            let got = (plain.transmissions, merged.transmissions);
            assert_eq!(got, (plain_tx, merged_tx), "task {task_seed}");

            // Replayed through the same routers, every decision is a
            // stored entry, merged after it is emitted: same reports.
            for (router, first) in [(&mut plain_router, &plain), (&mut merging_router, &merged)] {
                let cold = router.cache_stats();
                let again = run(&topo, &config, router, &task);
                assert_eq!(&again, first, "task {task_seed}");
                let warm = router.cache_stats();
                assert_eq!(
                    (warm.misses, warm.fallbacks),
                    (cold.misses, cold.fallbacks),
                    "task {task_seed}: every replayed lookup hits"
                );
                assert!(warm.hits > cold.hits);
            }
        }
    }

    /// A perimeter copy's state, where its box holds it.
    fn perimeter_state(packet: &MulticastPacket) -> &PerimeterState {
        match &packet.state {
            RoutingState::Perimeter(state) => state,
            other => panic!("not a perimeter copy: {other:?}"),
        }
    }

    #[test]
    fn perimeter_copies_reuse_the_received_box() {
        // Nodes 0 and 1 are each other's only neighbor. Destination 3 lies
        // far to the west, void from both; destination 2 lies to the east,
        // where node 1 makes progress.
        let positions = vec![
            Point::new(1100.0, 500.0),
            Point::new(1200.0, 500.0),
            Point::new(1400.0, 500.0),
            Point::new(100.0, 500.0),
        ];
        let topo = Topology::from_positions(positions, Aabb::square(2000.0), 150.0);
        let config = SimConfig::paper().with_node_count(4);
        let ctx = |node| NodeContext {
            topo: &topo,
            node: NodeId(node),
            config: &config,
            alive: None,
        };
        let mut router = GmpRouter::new();

        // Node 0 enters perimeter mode for destination 3 and hands the
        // copy to node 1, which finds no exit either and continues the
        // walk in the box it received.
        let initial = MulticastPacket::new(0, NodeId(0), vec![NodeId(3)]);
        let mut entered = router.route(&ctx(0), initial);
        assert_eq!(entered.len(), 1, "{entered:?}");
        let hop = entered.pop().unwrap();
        assert_eq!(hop.next_hop, NodeId(1));
        let received: *const PerimeterState = perimeter_state(&hop.packet);
        let continued = router.route(&ctx(1), hop.packet);
        assert_eq!(continued.len(), 1, "{continued:?}");
        assert_eq!(continued[0].next_hop, NodeId(0));
        assert!(std::ptr::eq(
            perimeter_state(&continued[0].packet),
            received
        ));

        // At node 0, a perimeter packet for both destinations exits toward
        // destination 2 through node 1 and starts a fresh round for
        // destination 3, written over the received state.
        let mut packet = MulticastPacket::new(0, NodeId(0), vec![NodeId(2), NodeId(3)]);
        packet.state = RoutingState::Perimeter(Box::new(PerimeterState::enter(
            Point::new(1050.0, 500.0),
            Point::new(100.0, 500.0),
        )));
        let received: *const PerimeterState = perimeter_state(&packet);
        let out = router.route(&ctx(0), packet);
        assert_eq!(out.len(), 2, "{out:?}");
        assert_eq!(out[0].next_hop, NodeId(1));
        assert_eq!(out[0].packet.dests, vec![NodeId(2)]);
        assert_eq!(out[0].packet.state, RoutingState::Greedy);
        let state = perimeter_state(&out[1].packet);
        assert!(std::ptr::eq(state, received));
        assert_eq!(state.entry, Point::new(1100.0, 500.0), "a fresh round");
        assert_eq!(state.dest, Point::new(100.0, 500.0));
    }

    #[test]
    fn delivers_single_destination_on_a_line() {
        let positions = (0..6).map(|i| Point::new(i as f64 * 100.0, 0.0)).collect();
        let topo = Topology::from_positions(positions, Aabb::square(1000.0), 150.0);
        let config = SimConfig::paper().with_node_count(6);
        let task = MulticastTask::new(NodeId(0), vec![NodeId(5)]);
        let report = run(&topo, &config, &mut GmpRouter::new(), &task);
        assert!(report.delivered_all());
        assert_eq!(report.transmissions, 5);
        assert_eq!(report.hops_to(NodeId(5)), Some(5));
    }

    #[test]
    fn delivers_on_dense_random_networks() {
        let config = SimConfig::paper().with_node_count(500);
        let topo = Topology::random(&config.topology_config(), 42);
        assert!(topo.is_connected());
        for seed in 0..8u64 {
            for k in [3usize, 8, 15] {
                let task = MulticastTask::random(&topo, k, seed * 31 + k as u64);
                let report = run(&topo, &config, &mut GmpRouter::new(), &task);
                assert!(
                    report.delivered_all(),
                    "seed {seed} k {k}: failed {:?}",
                    report.failed_dests
                );
                assert!(!report.truncated);
            }
        }
    }

    #[test]
    fn gmpnr_also_delivers() {
        let config = SimConfig::paper().with_node_count(400);
        let topo = Topology::random(&config.topology_config(), 9);
        for seed in 0..5u64 {
            let task = MulticastTask::random(&topo, 10, seed);
            let mut nr = GmpRouter::without_radio_range_awareness();
            let report = run(&topo, &config, &mut nr, &task);
            assert!(
                report.delivered_all(),
                "seed {seed}: {:?}",
                report.failed_dests
            );
        }
    }

    #[test]
    fn radio_awareness_does_not_increase_hops_on_average() {
        // The whole point of Section 3.3: GMPnr generates redundant hops.
        let config = SimConfig::paper().with_node_count(600);
        let topo = Topology::random(&config.topology_config(), 77);
        let mut aware_total = 0usize;
        let mut nr_total = 0usize;
        for seed in 0..20u64 {
            let task = MulticastTask::random(&topo, 15, seed);
            aware_total += run(&topo, &config, &mut GmpRouter::new(), &task).transmissions;
            nr_total += run(
                &topo,
                &config,
                &mut GmpRouter::without_radio_range_awareness(),
                &task,
            )
            .transmissions;
        }
        assert!(
            aware_total <= nr_total,
            "GMP used {aware_total} hops, GMPnr {nr_total}"
        );
    }

    #[test]
    fn routes_around_voids_with_perimeter_mode() {
        // Donut topology: a central hole big enough to force perimeter
        // routing between opposite sides.
        let tconfig = TopologyConfig::new(800.0, 500, 150.0).with_hole(Hole::Circle {
            center: Point::new(400.0, 400.0),
            radius: 220.0,
        });
        let topo = Topology::random(&tconfig, 4);
        assert!(topo.is_connected());
        let config = SimConfig::paper()
            .with_area_side(800.0)
            .with_node_count(500);
        // Source and destinations straddling the hole.
        let near = |p: Point| {
            topo.nodes()
                .min_by(|a, b| a.pos.dist_sq(p).total_cmp(&b.pos.dist_sq(p)))
                .unwrap()
                .id
        };
        let source = near(Point::new(60.0, 400.0));
        let mut dests = vec![
            near(Point::new(740.0, 400.0)),
            near(Point::new(400.0, 740.0)),
            near(Point::new(740.0, 740.0)),
        ];
        dests.sort();
        dests.dedup();
        dests.retain(|&d| d != source);
        let task = MulticastTask::new(source, dests);
        let report = run(&topo, &config, &mut GmpRouter::new(), &task);
        assert!(
            report.delivered_all(),
            "failed across the hole: {:?}",
            report.failed_dests
        );
    }

    #[test]
    fn unreachable_destination_fails_cleanly() {
        // An island node the protocol can never reach.
        let mut positions: Vec<Point> = (0..30)
            .map(|i| Point::new((i % 6) as f64 * 100.0, (i / 6) as f64 * 100.0))
            .collect();
        positions.push(Point::new(2500.0, 2500.0)); // island
        let topo = Topology::from_positions(positions, Aabb::square(3000.0), 150.0);
        let config = SimConfig::paper().with_node_count(31);
        let island = NodeId(30);
        let task = MulticastTask::new(NodeId(0), vec![NodeId(17), island]);
        let report = run(&topo, &config, &mut GmpRouter::new(), &task);
        assert_eq!(
            report.failed_dests,
            vec![gmp_sim::FailedDest::new(
                island,
                gmp_sim::FailureCause::Disconnected
            )]
        );
        assert!(report.hops_to(NodeId(17)).is_some());
        assert!(!report.truncated);
    }

    #[test]
    fn shared_cache_router_matches_private_bit_for_bit() {
        let config = SimConfig::paper().with_node_count(400);
        let topo = Topology::random(&config.topology_config(), 21);
        let shared = Arc::new(ConcurrentTreeCache::with_config(
            crate::cache::CacheConfig::default(),
        ));
        for seed in 0..6u64 {
            let task = MulticastTask::random(&topo, 12, seed);
            let private = run(&topo, &config, &mut GmpRouter::new(), &task);
            let mut router = GmpRouter::with_shared_cache(Arc::clone(&shared));
            let with_shared = run(&topo, &config, &mut router, &task);
            assert_eq!(private, with_shared, "seed {seed}");
        }
        let cold = shared.stats();
        assert!(cold.lookups() > 0);
        // A second router over the same tasks rides the warm shared
        // cache: no new publishes, hits only.
        for seed in 0..6u64 {
            let task = MulticastTask::random(&topo, 12, seed);
            let mut router = GmpRouter::with_shared_cache(Arc::clone(&shared));
            run(&topo, &config, &mut router, &task);
        }
        let warm = shared.stats();
        assert_eq!(warm.misses, cold.misses, "warm replay must not publish");
        assert!(warm.hits > cold.hits);
    }

    #[test]
    fn gmp_beats_unicast_star_on_clustered_destinations() {
        // Multicasting to a far-away cluster must be much cheaper than the
        // sum of independent unicast paths (the motivation of the paper).
        let config = SimConfig::paper().with_node_count(700);
        let topo = Topology::random(&config.topology_config(), 13);
        let near = |p: Point| {
            topo.nodes()
                .min_by(|a, b| a.pos.dist_sq(p).total_cmp(&b.pos.dist_sq(p)))
                .unwrap()
                .id
        };
        let source = near(Point::new(50.0, 50.0));
        let mut dests: Vec<NodeId> = [
            Point::new(900.0, 850.0),
            Point::new(850.0, 900.0),
            Point::new(920.0, 920.0),
            Point::new(880.0, 960.0),
        ]
        .iter()
        .map(|&p| near(p))
        .collect();
        dests.sort();
        dests.dedup();
        dests.retain(|&d| d != source);
        let k = dests.len();
        let task = MulticastTask::new(source, dests);
        let report = run(&topo, &config, &mut GmpRouter::new(), &task);
        assert!(report.delivered_all());
        // A unicast star would cost ≈ k × (diagonal hops ≈ 9); GMP shares
        // the long trunk, so it must use far fewer than k × 9 hops.
        assert!(
            report.transmissions < k * 9,
            "GMP used {} transmissions for {k} clustered destinations",
            report.transmissions
        );
    }
}
