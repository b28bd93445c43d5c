//! SMT: the centralized Steiner-tree baseline \[16\].
//!
//! "This centralized algorithm assumes that the source node knows the
//! positions of all sensor nodes in the network; thus the source node can
//! calculate a close to optimal Steiner tree connecting itself and all
//! destinations. The source node forwards a copy of the data packet with
//! the routing information embedded in the packet." (Section 5.)
//!
//! The tree is computed with the Kou–Markowsky–Berman heuristic over the
//! unit-disk graph with hop weights (each transmission costs 1), and the
//! explicit child map travels inside the packet
//! ([`RoutingState::SourceTree`]). Destinations disconnected from the
//! source are simply never reached — centralized knowledge does not
//! repair partitions.

use std::collections::HashMap;
use std::sync::Arc;

use gmp_net::NodeId;
use gmp_sim::{Forward, MulticastPacket, NodeContext, Protocol, RoutingState};
use gmp_steiner::kmb::kmb;

/// The centralized source-routing baseline. It keeps no state: the
/// source computes the tree at its first decision, and every copy carries
/// it from there.
#[derive(Debug, Clone, Copy, Default)]
pub struct SmtRouter;

impl SmtRouter {
    /// Creates the router.
    pub fn new() -> Self {
        SmtRouter
    }

    /// Destinations of `packet` lying in the subtree rooted at `child`.
    fn dests_below(
        tree: &HashMap<NodeId, Vec<NodeId>>,
        child: NodeId,
        dests: &[NodeId],
    ) -> Vec<NodeId> {
        let mut found = Vec::new();
        let mut stack = vec![child];
        while let Some(v) = stack.pop() {
            if dests.contains(&v) {
                found.push(v);
            }
            if let Some(cs) = tree.get(&v) {
                stack.extend_from_slice(cs);
            }
        }
        found.sort();
        found
    }

    /// The KMB tree from `ctx.node` to `dests` over the unit-disk graph,
    /// as the packet-embedded child map; `None` when no tree exists.
    fn source_tree(
        ctx: &NodeContext<'_>,
        dests: &[NodeId],
    ) -> Option<Arc<HashMap<NodeId, Vec<NodeId>>>> {
        let source = ctx.node;
        // Unit-disk graph with hop weights.
        let graph: Vec<Vec<(u32, f64)>> = (0..ctx.topo.len())
            .map(|i| {
                ctx.topo
                    .neighbors(NodeId(i as u32))
                    .iter()
                    .map(|n| (n.0, 1.0))
                    .collect()
            })
            .collect();
        let mut terminals: Vec<u32> = vec![source.0];
        terminals.extend(dests.iter().map(|d| d.0));
        // Drop terminals unreachable from the source so the rest still get
        // a tree.
        let reachable = {
            let mut seen = vec![false; ctx.topo.len()];
            let mut q = std::collections::VecDeque::from([source]);
            seen[source.index()] = true;
            while let Some(u) = q.pop_front() {
                for &v in ctx.topo.neighbors(u) {
                    if !seen[v.index()] {
                        seen[v.index()] = true;
                        q.push_back(v);
                    }
                }
            }
            seen
        };
        terminals.retain(|&t| reachable[t as usize]);
        kmb(&graph, &terminals).map(|t| {
            // Vertex-indexed children lists; only reached vertices carry a
            // (possibly empty) entry in the packet-embedded map.
            let to_nodes = |v: &[u32]| -> Vec<NodeId> { v.iter().copied().map(NodeId).collect() };
            let children = t.rooted_children(source.0, graph.len());
            let mut rooted = HashMap::new();
            rooted.insert(source, to_nodes(&children[source.index()]));
            for ch in &children {
                for &v in ch {
                    rooted.insert(NodeId(v), to_nodes(&children[v as usize]));
                }
            }
            Arc::new(rooted)
        })
    }
}

impl Protocol for SmtRouter {
    fn name(&self) -> String {
        "SMT".into()
    }

    fn on_packet(
        &mut self,
        ctx: &NodeContext<'_>,
        packet: MulticastPacket,
        out: &mut Vec<Forward>,
    ) {
        // Only the source's first decision arrives without a tree.
        let tree = match &packet.state {
            RoutingState::SourceTree(t) => Arc::clone(t),
            _ => match Self::source_tree(ctx, &packet.dests) {
                Some(t) => t,
                None => return, // no tree: all terminals stranded
            },
        };
        let children = match tree.get(&ctx.node) {
            Some(c) => c.clone(),
            None => return,
        };
        out.extend(children.into_iter().filter_map(|c| {
            let below = Self::dests_below(&tree, c, &packet.dests);
            if below.is_empty() {
                return None;
            }
            Some(Forward {
                next_hop: c,
                packet: packet.split(below, RoutingState::SourceTree(Arc::clone(&tree))),
            })
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmp_geom::{Aabb, Point};
    use gmp_net::Topology;
    use gmp_sim::{MulticastTask, SimConfig, TaskRunner};

    #[test]
    fn delivers_on_dense_random_networks() {
        let config = SimConfig::paper().with_node_count(500);
        let topo = Topology::random(&config.topology_config(), 42);
        for seed in 0..5u64 {
            let task = MulticastTask::random(&topo, 10, seed);
            let report = TaskRunner::new(&topo, &config).run(&mut SmtRouter::new(), &task);
            assert!(
                report.delivered_all(),
                "seed {seed}: {:?}",
                report.failed_dests
            );
        }
    }

    #[test]
    fn transmissions_equal_tree_edges() {
        // On a line, the KMB tree to the far end is the line itself:
        // exactly n−1 transmissions, no duplicates.
        let positions = (0..6).map(|i| Point::new(i as f64 * 100.0, 0.0)).collect();
        let topo = Topology::from_positions(positions, Aabb::square(1000.0), 150.0);
        let config = SimConfig::paper().with_node_count(6);
        let task = MulticastTask::new(NodeId(0), vec![NodeId(3), NodeId(5)]);
        let report = TaskRunner::new(&topo, &config).run(&mut SmtRouter::new(), &task);
        assert!(report.delivered_all());
        assert_eq!(report.transmissions, 5);
        assert_eq!(report.hops_to(NodeId(3)), Some(3));
        assert_eq!(report.hops_to(NodeId(5)), Some(5));
    }

    #[test]
    fn shares_trunk_for_clustered_destinations() {
        let config = SimConfig::paper().with_node_count(600);
        let topo = Topology::random(&config.topology_config(), 8);
        let near = |p: Point| {
            topo.nodes()
                .min_by(|a, b| a.pos.dist_sq(p).total_cmp(&b.pos.dist_sq(p)))
                .unwrap()
                .id
        };
        let source = near(Point::new(50.0, 50.0));
        let mut dests: Vec<NodeId> = [
            Point::new(900.0, 900.0),
            Point::new(950.0, 850.0),
            Point::new(850.0, 950.0),
        ]
        .iter()
        .map(|&p| near(p))
        .filter(|&d| d != source)
        .collect();
        dests.sort();
        dests.dedup();
        let task = MulticastTask::new(source, dests.clone());
        let report = TaskRunner::new(&topo, &config).run(&mut SmtRouter::new(), &task);
        assert!(report.delivered_all());
        // Far fewer than independent unicasts (~10 hops each).
        assert!(report.transmissions < dests.len() * 10);
    }

    #[test]
    fn partitioned_destination_fails_gracefully() {
        let mut positions: Vec<Point> =
            (0..10).map(|i| Point::new(i as f64 * 100.0, 0.0)).collect();
        positions.push(Point::new(5000.0, 5000.0)); // island
        let topo = Topology::from_positions(positions, Aabb::square(6000.0), 150.0);
        let config = SimConfig::paper().with_node_count(11);
        let task = MulticastTask::new(NodeId(0), vec![NodeId(5), NodeId(10)]);
        let report = TaskRunner::new(&topo, &config).run(&mut SmtRouter::new(), &task);
        assert_eq!(
            report.failed_dests,
            vec![gmp_sim::FailedDest::new(
                NodeId(10),
                gmp_sim::FailureCause::Disconnected
            )]
        );
        assert!(report.hops_to(NodeId(5)).is_some());
    }
}
