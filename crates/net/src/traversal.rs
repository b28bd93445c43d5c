//! Guaranteed-delivery face traversal (FACE-1) on the planar subgraphs.
//!
//! GPSR's perimeter mode ([`crate::face`]) changes faces *eagerly*: the
//! moment a chosen edge crosses the entry–destination line closer to the
//! destination, the packet hops to the adjacent face. That heuristic is
//! fast but has known counterexamples on valid planar graphs. The
//! protocols built on this module (MCFR, arXiv:1706.05263; GVG void
//! traversal, arXiv:0803.3632) *claim* guaranteed delivery, and the
//! delivery-guarantee oracle in `gmp-faults` falsifies such claims — so
//! this engine implements the provably correct FACE-1 discipline instead:
//!
//! 1. **Scan**: tour the entire current face (next-edge-by-angle from the
//!    arrival direction), recording the crossing of the anchor–destination
//!    segment that lands *strictly closest* to the destination.
//! 2. **Seek**: re-walk the tour to the recorded best edge and cross it
//!    *virtually* — the anchor advances to the crossing point and the
//!    adjacent face's tour starts at the same node, without a radio hop.
//! 3. If a full scan finds no crossing strictly closer than the anchor,
//!    the destination is provably unreachable from the current component.
//!
//! Successive anchors are collinear on the original stall-point–destination
//! segment and advance strictly monotonically, so the walk terminates on
//! every finite planar graph. Both orientations ([`FaceDir::Ccw`] and
//! [`FaceDir::Cw`]) are supported so MCFR can race a left and a right
//! traversal per destination.
//!
//! Fault plans complicate matters: the cached planarization of the full
//! topology can disconnect once dead nodes are removed (a dead witness
//! wrongly suppresses a Gabriel edge between two live nodes). Walks
//! therefore run on the planarization of the *live* subgraph, recomputed
//! locally per node via [`crate::planar::live_planar_neighbors_into`] into
//! a reusable [`FaceScratch`] — allocation-free after warm-up and
//! bit-identical to the cached rows when every node is alive.

use gmp_geom::point::ccw_sweep;
use gmp_geom::{Point, Segment, Vec2};

use crate::face::FaceRoutingError;
use crate::node::NodeId;
use crate::planar::{live_planar_neighbors_into, PlanarKind};
use crate::topology::Topology;

/// Orientation of a face traversal: which way the tour turns around each
/// face. Running one walk in each direction (MCFR) races the short way
/// around a void against the long way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaceDir {
    /// Tour faces by taking the first edge counterclockwise from the
    /// arrival direction (the right-hand rule, as in [`crate::face`]).
    Ccw,
    /// Mirror image: first edge clockwise from the arrival direction.
    Cw,
}

/// Which half of the FACE-1 discipline the walk is currently in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FacePhase {
    /// Touring the whole face, recording the best crossing.
    Scan,
    /// Re-walking the tour to the recorded best edge to cross there.
    Seek,
}

/// The best crossing of the anchor–destination segment found so far on
/// the current face tour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Crossing {
    /// The directed half-edge (tail, head) whose segment crosses.
    pub edge: (NodeId, NodeId),
    /// Where it crosses the anchor–destination line.
    pub at: Point,
}

/// Per-destination FACE-1 walk state, carried in the packet.
///
/// The walk's orientation ([`FaceDir`]) is deliberately *not* stored here:
/// protocols keep it alongside the walk so a promoted (greedy-again) agent
/// remembers its lineage after the walk state is dropped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaceWalk {
    /// Distance from the stall node (where greedy gave up) to the
    /// destination; any node strictly closer may resume greedy.
    pub start_dist: f64,
    /// Current anchor: the stall point, advanced to each face-crossing
    /// point. All anchors lie on the stall-point–destination segment.
    pub anchor: Point,
    /// Scan or seek.
    pub phase: FacePhase,
    /// First half-edge of the current face tour, for completion detection.
    pub first: (NodeId, NodeId),
    /// The node this walk was forwarded from.
    pub prev: NodeId,
    /// Best crossing recorded during the current scan.
    pub best: Option<Crossing>,
}

/// Reusable buffer for the live-filtered planar neighbor lists, so face
/// steps allocate nothing after warm-up.
#[derive(Debug, Default)]
pub struct FaceScratch {
    buf: Vec<NodeId>,
}

impl FaceScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// The planar neighbors of `u` restricted to `alive` nodes: the cached
    /// full-topology row when no liveness mask is in effect, otherwise the
    /// locally recomputed planarization of the live subgraph (bit-identical
    /// to the cached row when the mask is all-true).
    pub fn planar<'a>(
        &'a mut self,
        topo: &'a Topology,
        kind: PlanarKind,
        alive: Option<&[bool]>,
        u: NodeId,
    ) -> &'a [NodeId] {
        match alive {
            None => topo.planar_neighbors(kind, u),
            Some(mask) => {
                live_planar_neighbors_into(topo, u, kind, mask, &mut self.buf);
                &self.buf
            }
        }
    }
}

impl FaceWalk {
    /// Starts a face walk at `at` (a greedy local minimum) toward `dest`.
    ///
    /// Returns the first hop and the walk state to carry there, or `None`
    /// if `at` has no live planar neighbors (isolated in the live graph).
    pub fn begin(
        topo: &Topology,
        kind: PlanarKind,
        alive: Option<&[bool]>,
        dir: FaceDir,
        at: NodeId,
        dest: Point,
        scratch: &mut FaceScratch,
    ) -> Option<(NodeId, FaceWalk)> {
        let x = topo.pos(at);
        let neighbors = scratch.planar(topo, kind, alive, at);
        let mut ref_dir = dest - x;
        if ref_dir.norm_sq() <= gmp_geom::EPS * gmp_geom::EPS {
            ref_dir = Vec2::new(1.0, 0.0);
        }
        let next = first_turn(topo, x, neighbors, ref_dir, dir, false)?;
        let mut walk = FaceWalk {
            start_dist: x.dist(dest),
            anchor: x,
            phase: FacePhase::Scan,
            first: (at, next),
            prev: at,
            best: None,
        };
        walk.consider(x, topo.pos(next), (at, next), dest);
        Some((next, walk))
    }

    /// Computes the next hop of the walk from `current`, updating the
    /// state (tour progress, phase transitions, virtual face crossings).
    ///
    /// # Errors
    ///
    /// * [`FaceRoutingError::Stuck`] if `current` has no live planar
    ///   neighbors (or the carried state is inconsistent);
    /// * [`FaceRoutingError::LoopDetected`] if a full face scan found no
    ///   crossing strictly closer than the anchor: the destination is
    ///   unreachable from this component.
    #[allow(clippy::too_many_arguments)]
    pub fn next(
        &mut self,
        topo: &Topology,
        kind: PlanarKind,
        alive: Option<&[bool]>,
        dir: FaceDir,
        current: NodeId,
        dest: Point,
        scratch: &mut FaceScratch,
    ) -> Result<NodeId, FaceRoutingError> {
        let x = topo.pos(current);
        let neighbors = scratch.planar(topo, kind, alive, current);
        let mut from_pos = topo.pos(self.prev);
        let mut entering = false;
        // At most three state transitions can cascade at one node without
        // forwarding (scan-complete -> seek, seek -> virtual cross, cross
        // -> first edge of the new face), so this loop is bounded.
        for _ in 0..4 {
            let mut ref_dir = from_pos - x;
            if ref_dir.norm_sq() <= gmp_geom::EPS * gmp_geom::EPS {
                ref_dir = Vec2::new(1.0, 0.0);
            }
            let next = first_turn(topo, x, neighbors, ref_dir, dir, true)
                .ok_or(FaceRoutingError::Stuck)?;
            let edge = (current, next);
            if entering {
                // First edge of the face entered by the virtual crossing.
                self.first = edge;
                self.consider(x, topo.pos(next), edge, dest);
                self.prev = current;
                return Ok(next);
            }
            match self.phase {
                FacePhase::Scan => {
                    if edge == self.first {
                        // Tour complete. No crossing closer than the
                        // anchor proves the destination unreachable.
                        if self.best.is_none() {
                            return Err(FaceRoutingError::LoopDetected);
                        }
                        self.phase = FacePhase::Seek;
                        continue; // reprocess this edge in seek phase
                    }
                    self.consider(x, topo.pos(next), edge, dest);
                    self.prev = current;
                    return Ok(next);
                }
                FacePhase::Seek => {
                    let Some(best) = self.best else {
                        // Unreachable via begin/next; possible only for a
                        // hand-built state.
                        return Err(FaceRoutingError::Stuck);
                    };
                    if edge == best.edge {
                        // Virtual crossing: advance the anchor and start
                        // touring the adjacent face from this same node,
                        // as if we had arrived along the crossed edge.
                        self.anchor = best.at;
                        self.phase = FacePhase::Scan;
                        self.best = None;
                        from_pos = topo.pos(next);
                        entering = true;
                        continue;
                    }
                    self.prev = current;
                    return Ok(next);
                }
            }
        }
        Err(FaceRoutingError::Stuck)
    }

    /// `true` when a node at `here` has made strict progress past the
    /// stall point, so the agent may resume greedy forwarding.
    pub fn promotes(&self, here: Point, dest: Point) -> bool {
        here.dist(dest) < self.start_dist - gmp_geom::EPS
    }

    /// Records `edge` as the best crossing if its segment properly crosses
    /// the anchor–destination segment strictly closer to the destination
    /// than both the anchor and any crossing recorded so far.
    fn consider(&mut self, tail: Point, head: Point, edge: (NodeId, NodeId), dest: Point) {
        let Some(at) = closer_crossing(tail, head, self.anchor, dest) else {
            return;
        };
        let better = match self.best {
            Some(b) => at.dist(dest) < b.at.dist(dest),
            None => true,
        };
        if better {
            self.best = Some(Crossing { edge, at });
        }
    }
}

/// Where the edge `tail`–`head` properly crosses the segment from
/// `anchor` to `dest`, if that point is more than
/// [`EPS`](gmp_geom::EPS) closer to `dest` than `anchor` is: the
/// face-change test of both GPSR's perimeter mode
/// ([`crate::face::perimeter_next_hop`], anchored at the face entry) and
/// FACE-1's scan.
pub(crate) fn closer_crossing(
    tail: Point,
    head: Point,
    anchor: Point,
    dest: Point,
) -> Option<Point> {
    let edge = Segment::new(tail, head);
    let line = Segment::new(anchor, dest);
    if !edge.properly_crosses(&line) {
        return None;
    }
    let at = edge.line_intersection(&line)?;
    (at.dist(dest) < anchor.dist(dest) - gmp_geom::EPS).then_some(at)
}

/// The neighbor whose edge is first in `dir`'s turning order from
/// `ref_dir`: the one face-turn primitive behind both GPSR's right-hand
/// rule ([`FaceDir::Ccw`], in [`crate::face::perimeter_next_hop`]) and
/// FACE-1. The clockwise case mirrors the sweep. With `zero_is_full_turn`,
/// a neighbor exactly along `ref_dir` (the arrival edge) sorts last,
/// producing the bounce-back-on-dead-end behaviour of the right-hand rule.
pub(crate) fn first_turn(
    topo: &Topology,
    x: Point,
    neighbors: &[NodeId],
    ref_dir: Vec2,
    dir: FaceDir,
    zero_is_full_turn: bool,
) -> Option<NodeId> {
    let mut best: Option<(f64, NodeId)> = None;
    for &n in neighbors {
        let d = topo.pos(n) - x;
        if d.norm_sq() <= gmp_geom::EPS * gmp_geom::EPS {
            continue; // co-located neighbor: skip
        }
        let raw = ccw_sweep(ref_dir, d);
        let mut sweep = match dir {
            FaceDir::Ccw => raw,
            FaceDir::Cw => {
                if raw <= 1e-12 {
                    0.0
                } else {
                    std::f64::consts::TAU - raw
                }
            }
        };
        if zero_is_full_turn && sweep <= 1e-12 {
            sweep = std::f64::consts::TAU;
        }
        match best {
            Some((s, _)) if s <= sweep => {}
            _ => best = Some((sweep, n)),
        }
    }
    best.map(|(_, n)| n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::{gfg_route, RouteOutcome};
    use crate::topology::{Hole, Topology, TopologyConfig};
    use gmp_geom::Aabb;

    fn square_topo() -> Topology {
        let positions = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 10.0),
            Point::new(0.0, 10.0),
        ];
        Topology::from_positions(positions, Aabb::square(50.0), 12.0)
    }

    #[test]
    fn ccw_and_cw_walk_a_square_in_opposite_orders() {
        let topo = square_topo();
        let dest = Point::new(100.0, 5.0);
        let mut scratch = FaceScratch::new();
        let kind = PlanarKind::Gabriel;

        let (n_ccw, mut w_ccw) = FaceWalk::begin(
            &topo,
            kind,
            None,
            FaceDir::Ccw,
            NodeId(0),
            dest,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(n_ccw, NodeId(3), "ccw first edge turns up the left side");
        let n2 = w_ccw
            .next(&topo, kind, None, FaceDir::Ccw, n_ccw, dest, &mut scratch)
            .unwrap();
        assert_eq!(n2, NodeId(2));

        let (n_cw, mut w_cw) = FaceWalk::begin(
            &topo,
            kind,
            None,
            FaceDir::Cw,
            NodeId(0),
            dest,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(n_cw, NodeId(1), "cw first edge turns along the bottom");
        let n2 = w_cw
            .next(&topo, kind, None, FaceDir::Cw, n_cw, dest, &mut scratch)
            .unwrap();
        assert_eq!(n2, NodeId(2));
    }

    #[test]
    fn begin_fails_on_isolated_node() {
        let topo = Topology::from_positions(vec![Point::new(0.0, 0.0)], Aabb::square(10.0), 5.0);
        let mut scratch = FaceScratch::new();
        assert!(FaceWalk::begin(
            &topo,
            PlanarKind::Gabriel,
            None,
            FaceDir::Ccw,
            NodeId(0),
            Point::new(5.0, 5.0),
            &mut scratch
        )
        .is_none());
    }

    #[test]
    fn full_scan_without_crossing_reports_unreachable() {
        // Two nodes and a far-away destination: the outer face tour finds
        // no edge crossing the anchor-dest segment closer than the anchor.
        let positions = vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)];
        let topo = Topology::from_positions(positions, Aabb::square(600.0), 20.0);
        let out = gfg_route(
            &topo,
            PlanarKind::Gabriel,
            FaceDir::Ccw,
            NodeId(0),
            NodeId(1),
            100,
        );
        assert!(out.is_delivered());
        // Island destination.
        let positions = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(500.0, 500.0),
        ];
        let topo = Topology::from_positions(positions, Aabb::square(600.0), 20.0);
        for dir in [FaceDir::Ccw, FaceDir::Cw] {
            let out = gfg_route(&topo, PlanarKind::Gabriel, dir, NodeId(0), NodeId(2), 1000);
            assert!(matches!(out, RouteOutcome::Unreachable(_)), "got {out:?}");
        }
    }

    #[test]
    fn gfg_delivers_on_random_connected_topologies_both_directions() {
        for seed in 0..5u64 {
            let topo = Topology::random(&TopologyConfig::new(600.0, 200, 120.0), seed);
            if !topo.is_connected() {
                continue;
            }
            for kind in [PlanarKind::Gabriel, PlanarKind::RelativeNeighborhood] {
                for dir in [FaceDir::Ccw, FaceDir::Cw] {
                    for (s, d) in [(0u32, 199u32), (7, 150), (23, 42)] {
                        let out = gfg_route(&topo, kind, dir, NodeId(s), NodeId(d), 5000);
                        assert!(
                            out.is_delivered(),
                            "seed {seed} {kind:?} {dir:?} route {s}->{d}: {:?} hops",
                            out.path().len()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gfg_delivers_across_hole_topologies() {
        let config = TopologyConfig::new(600.0, 300, 100.0).with_hole(Hole::Circle {
            center: Point::new(300.0, 300.0),
            radius: 150.0,
        });
        for seed in 0..3u64 {
            let topo = Topology::random(&config, seed);
            if !topo.is_connected() {
                continue;
            }
            let near = |target: Point| {
                topo.nodes()
                    .min_by(|a, b| a.pos.dist_sq(target).total_cmp(&b.pos.dist_sq(target)))
                    .unwrap()
                    .id
            };
            let s = near(Point::new(50.0, 50.0));
            let d = near(Point::new(550.0, 550.0));
            for dir in [FaceDir::Ccw, FaceDir::Cw] {
                let out = gfg_route(&topo, PlanarKind::Gabriel, dir, s, d, 8000);
                assert!(
                    out.is_delivered(),
                    "seed {seed} {dir:?}: {:?} hops",
                    out.path().len()
                );
            }
        }
    }

    #[test]
    fn live_filtered_scratch_matches_cached_rows_when_all_alive() {
        let topo = Topology::random(&TopologyConfig::new(500.0, 120, 120.0), 77);
        let alive = vec![true; topo.len()];
        let mut scratch = FaceScratch::new();
        for kind in [PlanarKind::Gabriel, PlanarKind::RelativeNeighborhood] {
            for i in 0..topo.len() {
                let u = NodeId(i as u32);
                let filtered = scratch.planar(&topo, kind, Some(&alive), u).to_vec();
                assert_eq!(
                    filtered.as_slice(),
                    topo.planar_neighbors(kind, u),
                    "node {i} {kind:?}"
                );
            }
        }
    }

    #[test]
    fn dead_witness_revives_suppressed_gabriel_edge() {
        // w sits in the diametral disk of (u, v): alive it blocks the
        // edge; dead it must not, or the live graph disconnects.
        let topo = Topology::from_positions(
            vec![
                Point::new(0.0, 0.0),
                Point::new(50.0, 1.0),
                Point::new(100.0, 0.0),
            ],
            Aabb::square(200.0),
            150.0,
        );
        let mut scratch = FaceScratch::new();
        let all = vec![true; 3];
        let without_witness = vec![true, false, true];
        let rows = scratch
            .planar(&topo, PlanarKind::Gabriel, Some(&all), NodeId(0))
            .to_vec();
        assert!(!rows.contains(&NodeId(2)), "live witness blocks the edge");
        let rows = scratch
            .planar(
                &topo,
                PlanarKind::Gabriel,
                Some(&without_witness),
                NodeId(0),
            )
            .to_vec();
        assert!(rows.contains(&NodeId(2)), "dead witness frees the edge");
        assert!(!rows.contains(&NodeId(1)), "dead neighbors are dropped");
    }

    #[test]
    fn promotion_threshold_is_strict() {
        let walk = FaceWalk {
            start_dist: 10.0,
            anchor: Point::new(0.0, 0.0),
            phase: FacePhase::Scan,
            first: (NodeId(0), NodeId(1)),
            prev: NodeId(0),
            best: None,
        };
        let dest = Point::new(0.0, 0.0);
        assert!(walk.promotes(Point::new(5.0, 0.0), dest));
        assert!(!walk.promotes(Point::new(10.0, 0.0), dest));
        assert!(!walk.promotes(Point::new(11.0, 0.0), dest));
    }

    #[test]
    fn seek_without_best_errors_instead_of_panicking() {
        let topo = square_topo();
        let mut scratch = FaceScratch::new();
        let mut walk = FaceWalk {
            start_dist: 10.0,
            anchor: Point::new(0.0, 0.0),
            phase: FacePhase::Seek,
            first: (NodeId(2), NodeId(3)),
            prev: NodeId(1),
            best: None,
        };
        let r = walk.next(
            &topo,
            PlanarKind::Gabriel,
            None,
            FaceDir::Ccw,
            NodeId(0),
            Point::new(100.0, 5.0),
            &mut scratch,
        );
        assert_eq!(r, Err(FaceRoutingError::Stuck));
    }
}
