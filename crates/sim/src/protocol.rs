//! The per-node forwarding interface all routing protocols implement.

use gmp_geom::Point;
use gmp_net::{NodeId, PlanarKind, Topology};

use crate::config::SimConfig;
use crate::packet::MulticastPacket;

/// Everything a node may consult when making a forwarding decision.
///
/// Distributed protocols must restrict themselves to the *local* view:
/// their own position and their (planarized) neighbor tables. The full
/// [`Topology`] is exposed because the centralized SMT baseline needs it;
/// distributed protocols accessing more than `neighbors`/`pos` would be a
/// reproduction bug.
#[derive(Debug, Clone, Copy)]
pub struct NodeContext<'a> {
    /// The deployment (gives positions and neighbor tables).
    pub topo: &'a Topology,
    /// The node making the decision.
    pub node: NodeId,
    /// Simulation parameters (radio range, planar kind, hop cap).
    pub config: &'a SimConfig,
    /// Per-node liveness under the active fault plan, indexable by
    /// [`NodeId::index`]. `None` when the run has no timed crashes —
    /// in a real deployment this view is what neighbor-table beacon
    /// timeouts provide, so consulting it is *not* a reproduction bug.
    pub alive: Option<&'a [bool]>,
}

impl<'a> NodeContext<'a> {
    /// This node's position.
    pub fn pos(&self) -> Point {
        self.topo.pos(self.node)
    }

    /// This node's unit-disk neighbors.
    pub fn neighbors(&self) -> &'a [NodeId] {
        self.topo.neighbors(self.node)
    }

    /// This node's neighbors in the configured planar subgraph.
    pub fn planar_neighbors(&self) -> &'a [NodeId] {
        self.topo
            .planar_neighbors(self.config.planar_kind(), self.node)
    }

    /// The configured planar subgraph kind.
    pub fn planar_kind(&self) -> PlanarKind {
        self.config.planar_kind()
    }

    /// The radio range, meters.
    pub fn radio_range(&self) -> f64 {
        self.config.radio_range
    }

    /// Position of an arbitrary node (used to read destination addresses —
    /// in a real deployment these travel inside the packet).
    pub fn pos_of(&self, id: NodeId) -> Point {
        self.topo.pos(id)
    }

    /// Whether `id` is currently believed alive. Always `true` in runs
    /// without timed crashes (`alive` is `None`).
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.alive.is_none_or(|a| a[id.index()])
    }
}

/// One outgoing copy of a packet.
#[derive(Debug, Clone, PartialEq)]
pub struct Forward {
    /// The neighbor to hand the copy to.
    pub next_hop: NodeId,
    /// The copy itself (destination subset + state).
    pub packet: MulticastPacket,
}

/// A multicast routing protocol.
///
/// The runner invokes [`Protocol::on_packet`] at the source (hop 0) and at
/// every node that receives a copy, *after* stripping the receiving node
/// from the destination list and recording the delivery. The protocol
/// appends the set of copies to transmit next to `out`; appending nothing
/// terminates this copy.
pub trait Protocol {
    /// Short display name used in experiment tables ("GMP", "PBM λ=0.3"…).
    fn name(&self) -> String;

    /// Decide how to forward `packet` from `ctx.node`, appending the
    /// outgoing copies to `out`.
    ///
    /// `out` is *not* cleared: the simulator owns one forward buffer and
    /// drains it after each decision, so a fresh decision always starts
    /// from an empty buffer without the protocol having to know.
    fn on_packet(&mut self, ctx: &NodeContext<'_>, packet: MulticastPacket, out: &mut Vec<Forward>);

    /// Called once when a task starts at `source`; protocols that
    /// precompute per-task state (the centralized SMT baseline) hook this.
    fn on_task_start(&mut self, _ctx: &NodeContext<'_>, _source: NodeId, _dests: &[NodeId]) {}

    /// Convenience wrapper collecting the forwards of one decision into a
    /// fresh vector — for tests and benchmarks; the simulator reuses a
    /// buffer through [`Protocol::on_packet`] instead.
    fn route(&mut self, ctx: &NodeContext<'_>, packet: MulticastPacket) -> Vec<Forward> {
        let mut out = Vec::new();
        self.on_packet(ctx, packet, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmp_net::TopologyConfig;

    /// A protocol that floods to the closest neighbor toward each dest —
    /// only used to exercise the trait plumbing.
    struct OneHopGreedy;

    impl Protocol for OneHopGreedy {
        fn name(&self) -> String {
            "one-hop-greedy".into()
        }
        fn on_packet(
            &mut self,
            ctx: &NodeContext<'_>,
            packet: MulticastPacket,
            out: &mut Vec<Forward>,
        ) {
            out.extend(packet.dests.iter().filter_map(|&d| {
                ctx.topo
                    .closest_neighbor_to(ctx.node, ctx.pos_of(d))
                    .map(|n| Forward {
                        next_hop: n,
                        packet: packet.split(vec![d], Default::default()),
                    })
            }));
        }
    }

    #[test]
    fn context_accessors_work() {
        let topo = Topology::random(&TopologyConfig::new(300.0, 60, 120.0), 4);
        let config = SimConfig::paper()
            .with_node_count(60)
            .with_radio_range(120.0);
        let ctx = NodeContext {
            topo: &topo,
            node: NodeId(0),
            config: &config,
            alive: None,
        };
        assert_eq!(ctx.pos(), topo.pos(NodeId(0)));
        assert!(ctx.is_alive(NodeId(59)));
        assert_eq!(ctx.radio_range(), 120.0);
        assert_eq!(ctx.neighbors(), topo.neighbors(NodeId(0)));
        assert!(ctx.planar_neighbors().len() <= ctx.neighbors().len());
    }

    #[test]
    fn trait_object_dispatch() {
        let topo = Topology::random(&TopologyConfig::new(300.0, 60, 120.0), 4);
        let config = SimConfig::paper();
        let ctx = NodeContext {
            topo: &topo,
            node: NodeId(0),
            config: &config,
            alive: None,
        };
        let mut p: Box<dyn Protocol> = Box::new(OneHopGreedy);
        assert_eq!(p.name(), "one-hop-greedy");
        let fwd = p.route(&ctx, MulticastPacket::new(1, NodeId(0), vec![NodeId(5)]));
        assert!(fwd.len() <= 1);
    }
}
