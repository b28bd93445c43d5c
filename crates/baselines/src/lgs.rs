//! LGS: the Location-Guided Steiner tree scheme of LGT \[5\].
//!
//! Each partitioning node builds a minimum spanning tree over `{itself} ∪
//! destinations` (actual node locations only — the constraint the paper
//! criticizes), takes its own MST children as subtree roots, and unicasts
//! one copy per subtree toward its root destination. Intermediate relay
//! nodes forward greedily toward that root without re-partitioning; the
//! root repeats the process for its subtree.
//!
//! LGS has no void recovery: "it assumes a valid next hop can always be
//! found and it fails when a void destination is identified" (Section
//! 5.4), which drives its failure count in Fig. 15.

use gmp_geom::Point;
use gmp_net::NodeId;
use gmp_sim::{Forward, MulticastPacket, NodeContext, Protocol, RoutingState};
use gmp_steiner::mst::euclidean_mst;

use crate::util::greedy_next_hop;

/// The LGS router.
#[derive(Debug, Clone, Copy, Default)]
pub struct LgsRouter;

impl LgsRouter {
    /// Creates the router.
    pub fn new() -> Self {
        LgsRouter
    }

    /// Partition at a subtree root: MST over `{here} ∪ dests`, one copy
    /// per MST child of `here`, each unicast toward that child.
    fn partition(&self, ctx: &NodeContext<'_>, packet: &MulticastPacket) -> Vec<Forward> {
        let mut points: Vec<Point> = Vec::with_capacity(packet.dests.len() + 1);
        points.push(ctx.pos());
        points.extend(packet.dests.iter().map(|&d| ctx.pos_of(d)));
        let mst = euclidean_mst(&points);
        let mut out = Vec::new();
        for &child in &mst.children[0] {
            // Indices ≥ 1 map to packet.dests[idx - 1].
            let group: Vec<NodeId> = mst
                .subtree(child)
                .into_iter()
                .map(|i| packet.dests[i - 1])
                .collect();
            let root_dest = packet.dests[child - 1];
            // Void (`None`): LGS gives up on this whole group.
            if let Some(n) = greedy_next_hop(ctx.topo, ctx.node, ctx.pos_of(root_dest)) {
                out.push(Forward {
                    next_hop: n,
                    packet: packet.split(group, RoutingState::UnicastLeg { target: root_dest }),
                });
            }
        }
        out
    }
}

impl Protocol for LgsRouter {
    fn name(&self) -> String {
        "LGS".into()
    }

    fn on_packet(
        &mut self,
        ctx: &NodeContext<'_>,
        packet: MulticastPacket,
        out: &mut Vec<Forward>,
    ) {
        match packet.state {
            // Relay leg: forward greedily toward the subtree root without
            // re-partitioning, unless we *are* the root (the runner already
            // stripped us from the destination list in that case).
            RoutingState::UnicastLeg { target } if target != ctx.node => {
                // Void mid-leg (`None`): fail.
                if let Some(n) = greedy_next_hop(ctx.topo, ctx.node, ctx.pos_of(target)) {
                    out.push(Forward {
                        next_hop: n,
                        packet: packet.clone(),
                    });
                }
            }
            _ => out.extend(self.partition(ctx, &packet)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmp_geom::Aabb;
    use gmp_net::Topology;
    use gmp_sim::{MulticastTask, SimConfig, TaskRunner};

    #[test]
    fn delivers_on_dense_random_networks() {
        let config = SimConfig::paper().with_node_count(500);
        let topo = Topology::random(&config.topology_config(), 42);
        for seed in 0..5u64 {
            let task = MulticastTask::random(&topo, 10, seed);
            let report = TaskRunner::new(&topo, &config).run(&mut LgsRouter::new(), &task);
            assert!(
                report.delivered_all(),
                "seed {seed}: {:?}",
                report.failed_dests
            );
        }
    }

    #[test]
    fn figure_13_chain_reaches_destinations_sequentially() {
        // Destinations strung out in a line away from the source: the LGS
        // MST chains them, so the farthest destination pays the full
        // sequential path (large per-destination hop count).
        let mut positions = vec![Point::new(0.0, 0.0)];
        for i in 1..=4 {
            positions.push(Point::new(i as f64 * 140.0, 0.0));
        }
        let topo = Topology::from_positions(positions, Aabb::square(1000.0), 150.0);
        let config = SimConfig::paper().with_node_count(5);
        let task = MulticastTask::new(NodeId(0), vec![NodeId(1), NodeId(2), NodeId(3), NodeId(4)]);
        let report = TaskRunner::new(&topo, &config).run(&mut LgsRouter::new(), &task);
        assert!(report.delivered_all());
        // Chain: hops to the i-th destination is exactly i.
        for i in 1..=4u32 {
            assert_eq!(report.hops_to(NodeId(i)), Some(i));
        }
        assert_eq!(report.transmissions, 4);
    }

    #[test]
    fn fails_on_voids_without_recovery() {
        // A gap between the source's reach and the destination: greedy has
        // a local minimum and LGS must fail (no perimeter mode).
        let positions = vec![
            Point::new(0.0, 0.0),     // source
            Point::new(120.0, 0.0),   // relay; its only forward neighbor is none
            Point::new(700.0, 0.0),   // destination across the gap
            Point::new(700.0, 140.0), // friend of the destination
        ];
        let topo = Topology::from_positions(positions, Aabb::square(1000.0), 150.0);
        let config = SimConfig::paper().with_node_count(4);
        let task = MulticastTask::new(NodeId(0), vec![NodeId(2)]);
        let report = TaskRunner::new(&topo, &config).run(&mut LgsRouter::new(), &task);
        assert_eq!(
            report.failed_dests,
            vec![gmp_sim::FailedDest::new(
                NodeId(2),
                gmp_sim::FailureCause::Disconnected
            )]
        );
        assert!(report.transmissions <= 1);
    }

    #[test]
    fn partitions_opposite_clusters_immediately() {
        let positions = vec![
            Point::new(500.0, 500.0), // source
            Point::new(400.0, 500.0), // left neighbor
            Point::new(600.0, 500.0), // right neighbor
            Point::new(100.0, 500.0), // left dest
            Point::new(900.0, 500.0), // right dest
        ];
        let topo = Topology::from_positions(positions, Aabb::square(1000.0), 150.0);
        let config = SimConfig::paper().with_node_count(5);
        let _task = MulticastTask::new(NodeId(0), vec![NodeId(3), NodeId(4)]);
        let mut router = LgsRouter::new();
        let ctx = NodeContext {
            topo: &topo,
            node: NodeId(0),
            config: &config,
            alive: None,
        };
        let fwd = router.route(
            &ctx,
            MulticastPacket::new(0, NodeId(0), vec![NodeId(3), NodeId(4)]),
        );
        assert_eq!(fwd.len(), 2);
        let mut hops: Vec<NodeId> = fwd.iter().map(|f| f.next_hop).collect();
        hops.sort();
        assert_eq!(hops, vec![NodeId(1), NodeId(2)]);
    }
}
