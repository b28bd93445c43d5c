//! Shared engine for the guaranteed-delivery protocols (MCFR and GVG).
//!
//! Both protocols follow the greedy-face-greedy discipline on the live
//! planar subgraph ([`gmp_net::traversal`]):
//!
//! * **Greedy multicast**: destinations are forwarded greedily, grouped by
//!   next hop so shared path prefixes cost one transmission.
//! * **Stall → face agent(s)**: at a greedy local minimum the destination
//!   splits into per-destination FACE-1 agents — one counterclockwise walk
//!   for GVG, a concurrent counterclockwise *and* clockwise pair for MCFR
//!   (racing the short way around the void against the long way, per
//!   arXiv:1706.05263).
//! * **Best-progress promotion**: an agent reaching a node strictly closer
//!   to its destination than the stall point resumes greedy forwarding,
//!   but *keeps its direction lineage* — a re-stalled agent restarts a
//!   walk only in its own direction, so MCFR never exceeds two agents per
//!   destination.
//!
//! A full face scan with no crossing strictly closer than the anchor
//! proves the destination unreachable from this component, so the agent
//! gives up; the delivery-guarantee oracle then classifies the failure as
//! justified (`Disconnected`/`DestDead`). The guarantee-certificate
//! proptests in `gmp-bench` hold both protocols to *zero unjustified*
//! failures on any connected topology under crash plans.

use gmp_net::traversal::{FaceDir, FaceScratch, FaceWalk};
use gmp_net::NodeId;
use gmp_sim::{Forward, MulticastPacket, NodeContext, RoutingState};

use crate::util::live_greedy_next_hop;

/// The directions a stalled destination fans out into.
const CONCURRENT: &[FaceDir] = &[FaceDir::Ccw, FaceDir::Cw];
const SINGLE: &[FaceDir] = &[FaceDir::Ccw];

/// Greedy-face-greedy multicast core, parameterized by the number of
/// concurrent face agents spawned per stalled destination.
#[derive(Debug)]
pub(crate) struct FaceMulticast {
    dirs: &'static [FaceDir],
    scratch: FaceScratch,
}

impl FaceMulticast {
    pub(crate) fn new(concurrent: bool) -> Self {
        FaceMulticast {
            dirs: if concurrent { CONCURRENT } else { SINGLE },
            scratch: FaceScratch::new(),
        }
    }

    pub(crate) fn on_packet(
        &mut self,
        ctx: &NodeContext<'_>,
        packet: MulticastPacket,
        out: &mut Vec<Forward>,
    ) {
        match &packet.state {
            RoutingState::Face { dir, walk } => {
                self.face_agent(ctx, &packet, *dir, walk.as_deref().copied(), out)
            }
            _ => self.spread(ctx, &packet, out),
        }
    }

    /// Greedy multicast: group destinations by their greedy next hop
    /// (order-preserving, so decisions are deterministic) and fan stalled
    /// destinations out into face agents.
    fn spread(&mut self, ctx: &NodeContext<'_>, packet: &MulticastPacket, out: &mut Vec<Forward>) {
        let mut groups: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
        for &d in packet.dests.iter() {
            if let Some(hop) = self.unicast_hop(ctx, d) {
                match groups.iter_mut().find(|(h, _)| *h == hop) {
                    Some((_, ds)) => ds.push(d),
                    None => groups.push((hop, vec![d])),
                }
            } else {
                self.enter_face(ctx, packet, d, out);
            }
        }
        for (hop, ds) in groups {
            out.push(Forward {
                next_hop: hop,
                packet: packet.split(ds, RoutingState::Greedy),
            });
        }
    }

    /// Direct delivery to a live neighbor, else the live greedy next hop.
    fn unicast_hop(&self, ctx: &NodeContext<'_>, d: NodeId) -> Option<NodeId> {
        if ctx.is_alive(d) && ctx.neighbors().binary_search(&d).is_ok() {
            return Some(d);
        }
        live_greedy_next_hop(ctx.topo, ctx.node, ctx.pos_of(d), ctx.alive)
    }

    /// Spawns this protocol's face agents for a stalled destination.
    fn enter_face(
        &mut self,
        ctx: &NodeContext<'_>,
        packet: &MulticastPacket,
        d: NodeId,
        out: &mut Vec<Forward>,
    ) {
        let target = ctx.pos_of(d);
        for &dir in self.dirs {
            if let Some((next_hop, walk)) = FaceWalk::begin(
                ctx.topo,
                ctx.planar_kind(),
                ctx.alive,
                dir,
                ctx.node,
                target,
                &mut self.scratch,
            ) {
                out.push(Forward {
                    next_hop,
                    packet: packet.split(
                        vec![d],
                        RoutingState::Face {
                            dir,
                            walk: Some(Box::new(walk)),
                        },
                    ),
                });
            }
            // No live planar neighbor: this component is a dead end, and
            // the oracle will classify the failure as justified.
        }
    }

    /// One step of a single-destination face agent.
    fn face_agent(
        &mut self,
        ctx: &NodeContext<'_>,
        packet: &MulticastPacket,
        dir: FaceDir,
        walk: Option<FaceWalk>,
        out: &mut Vec<Forward>,
    ) {
        let Some(&d) = packet.dests.first() else {
            return; // stale duplicate: its destination was already served
        };
        let target = ctx.pos_of(d);
        // Delivery shortcut: the destination is a live radio neighbor.
        if ctx.is_alive(d) && ctx.neighbors().binary_search(&d).is_ok() {
            out.push(Forward {
                next_hop: d,
                packet: packet.split(vec![d], RoutingState::Face { dir, walk: None }),
            });
            return;
        }
        if let Some(mut w) = walk {
            if !w.promotes(ctx.pos(), target) {
                // Still behind the stall point: continue the FACE-1 walk.
                // An Err here means the scan found no closer crossing:
                // provably unreachable, so the agent dies silently.
                if let Ok(next_hop) = w.next(
                    ctx.topo,
                    ctx.planar_kind(),
                    ctx.alive,
                    dir,
                    ctx.node,
                    target,
                    &mut self.scratch,
                ) {
                    out.push(Forward {
                        next_hop,
                        packet: packet.split(
                            vec![d],
                            RoutingState::Face {
                                dir,
                                walk: Some(Box::new(w)),
                            },
                        ),
                    });
                }
                return;
            }
            // Strict progress past the stall point: promote to greedy,
            // keeping the direction lineage.
        }
        match live_greedy_next_hop(ctx.topo, ctx.node, target, ctx.alive) {
            Some(next_hop) => out.push(Forward {
                next_hop,
                packet: packet.split(vec![d], RoutingState::Face { dir, walk: None }),
            }),
            // Re-stalled: restart a walk in this agent's own direction.
            None => {
                if let Some((next_hop, w)) = FaceWalk::begin(
                    ctx.topo,
                    ctx.planar_kind(),
                    ctx.alive,
                    dir,
                    ctx.node,
                    target,
                    &mut self.scratch,
                ) {
                    out.push(Forward {
                        next_hop,
                        packet: packet.split(
                            vec![d],
                            RoutingState::Face {
                                dir,
                                walk: Some(Box::new(w)),
                            },
                        ),
                    });
                }
            }
        }
    }
}
