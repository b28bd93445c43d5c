//! GPSR-style perimeter (face) routing.
//!
//! When greedy geographic forwarding hits a *void* — no neighbor closer to
//! the destination — unicast schemes \[4, 13, 31\] switch the packet into
//! perimeter mode: it traverses the boundary of the void by the right-hand
//! rule over a planarized graph until it reaches a node closer to the
//! destination than where it entered. GMP and PBM reuse exactly this
//! machinery, except the "destination" is the *average location* of a group
//! of void destinations (Section 4.1), so the target is an arbitrary point
//! that need not coincide with any node.
//!
//! The implementation follows GPSR \[13\]:
//!
//! * the packet remembers where it entered perimeter mode (`entry`), where
//!   it entered the current face (`face_entry`), and the first edge taken
//!   on the current face (for loop detection);
//! * at each node the next edge is the first one counterclockwise about the
//!   node from the edge it arrived on (right-hand rule);
//! * before traversing an edge that crosses the `face_entry`–`dest` line at
//!   a point closer to `dest`, the packet moves to the adjacent face.

use gmp_geom::Point;

use crate::node::NodeId;
use crate::planar::PlanarKind;
use crate::topology::Topology;
use crate::traversal::{closer_crossing, first_turn, FaceDir};

/// Why perimeter forwarding could not produce a next hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaceRoutingError {
    /// The current node has no planar neighbors (isolated node).
    Stuck,
    /// The packet completed a full tour of the current face without finding
    /// a closer node: the destination is unreachable from here.
    LoopDetected,
}

impl std::fmt::Display for FaceRoutingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaceRoutingError::Stuck => write!(f, "node has no planar neighbors"),
            FaceRoutingError::LoopDetected => {
                write!(f, "perimeter traversal looped; destination unreachable")
            }
        }
    }
}

impl std::error::Error for FaceRoutingError {}

/// Per-packet state carried while in perimeter mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerimeterState {
    /// The geographic target (a node position, or a group's average
    /// location in GMP/PBM).
    pub dest: Point,
    /// Location of the node where the packet entered perimeter mode (GPSR's
    /// `Lp`): the exit test compares progress against this.
    pub entry: Point,
    /// Point where the packet entered the current face (GPSR's `Lf`).
    pub face_entry: Point,
    /// First edge traversed on the current face, for loop detection.
    pub first_edge: Option<(NodeId, NodeId)>,
    /// The node the packet was forwarded from, if any.
    pub prev: Option<NodeId>,
}

impl PerimeterState {
    /// Starts perimeter mode at a node located at `here`, aiming for
    /// `dest`.
    pub fn enter(here: Point, dest: Point) -> Self {
        PerimeterState {
            dest,
            entry: here,
            face_entry: here,
            first_edge: None,
            prev: None,
        }
    }

    /// GPSR's recovery-exit test: `true` when the node at `here` is
    /// strictly closer to the destination than the perimeter entry point,
    /// so greedy forwarding can resume.
    pub fn closer_than_entry(&self, here: Point) -> bool {
        here.dist(self.dest) < self.entry.dist(self.dest) - gmp_geom::EPS
    }
}

/// Computes the next hop for a perimeter-mode packet at `current`,
/// updating `state` (face changes, loop-detection edge, `prev`).
///
/// # Errors
///
/// * [`FaceRoutingError::Stuck`] if `current` has no planar neighbors;
/// * [`FaceRoutingError::LoopDetected`] if the traversal would re-walk the
///   first edge of the current face, proving the destination unreachable.
pub fn perimeter_next_hop(
    topo: &Topology,
    kind: PlanarKind,
    current: NodeId,
    state: &mut PerimeterState,
) -> Result<NodeId, FaceRoutingError> {
    let x = topo.pos(current);
    let neighbors = topo.planar_neighbors(kind, current);
    if neighbors.is_empty() {
        return Err(FaceRoutingError::Stuck);
    }

    // Reference direction for the right-hand rule: the edge we arrived on,
    // or the straight line toward the destination when entering.
    let mut ref_dir = match state.prev {
        Some(p) => topo.pos(p) - x,
        None => state.dest - x,
    };
    if ref_dir.norm_sq() <= gmp_geom::EPS * gmp_geom::EPS {
        // Current node sits exactly on the target point; aim anywhere.
        ref_dir = gmp_geom::Vec2::new(1.0, 0.0);
    }

    // On entry, the first edge is the first one counterclockwise from the
    // destination line (sweep 0 allowed); afterwards the arrival edge
    // itself must be taken last (sweep 0 treated as a full turn).
    let zero_is_full_turn = state.prev.is_some();

    let mut candidate = first_turn(topo, x, neighbors, ref_dir, FaceDir::Ccw, zero_is_full_turn)
        .ok_or(FaceRoutingError::Stuck)?;

    // Face changes: while the chosen edge crosses the face_entry–dest line
    // at a point closer to the destination, hop to the adjacent face by
    // advancing to the next edge counterclockwise.
    for _ in 0..=neighbors.len() {
        let Some(at) = closer_crossing(x, topo.pos(candidate), state.face_entry, state.dest) else {
            break;
        };
        state.face_entry = at;
        state.first_edge = None;
        let new_ref = topo.pos(candidate) - x;
        candidate = first_turn(topo, x, neighbors, new_ref, FaceDir::Ccw, true)
            .ok_or(FaceRoutingError::Stuck)?;
    }

    let edge = (current, candidate);
    match state.first_edge {
        Some(e0) if e0 == edge => return Err(FaceRoutingError::LoopDetected),
        Some(_) => {}
        None => state.first_edge = Some(edge),
    }
    state.prev = Some(current);
    Ok(candidate)
}

/// The neighbor of `node` strictly closer to `target` than `node` itself,
/// minimizing the remaining distance (plain greedy geographic forwarding).
pub fn greedy_next_hop(topo: &Topology, node: NodeId, target: Point) -> Option<NodeId> {
    let own = topo.pos(node).dist_sq(target);
    topo.neighbors(node)
        .iter()
        .copied()
        .filter(|&n| topo.pos(n).dist_sq(target) < own)
        .min_by(|&a, &b| {
            topo.pos(a)
                .dist_sq(target)
                .total_cmp(&topo.pos(b).dist_sq(target))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::{gpsr_route, RouteOutcome};
    use crate::topology::{Hole, Topology, TopologyConfig};
    use gmp_geom::Aabb;

    #[test]
    fn greedy_route_on_a_line() {
        let positions = (0..5).map(|i| Point::new(i as f64 * 10.0, 0.0)).collect();
        let topo = Topology::from_positions(positions, Aabb::square(100.0), 12.0);
        let out = gpsr_route(&topo, PlanarKind::Gabriel, NodeId(0), NodeId(4), 100);
        assert_eq!(
            out,
            RouteOutcome::Delivered(vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(4)])
        );
    }

    #[test]
    fn perimeter_routes_around_a_concave_void() {
        // Grid over [0,100]² with a rectangular bay removed: x ∈ {40,50,60},
        // y ∈ [30,80]. Greedy from below the bay toward a node above it
        // dead-ends against the bay wall, forcing perimeter recovery.
        let mut positions = Vec::new();
        let mut src = None;
        let mut dst = None;
        for gx in 0..=10 {
            for gy in 0..=10 {
                let (x, y) = (gx as f64 * 10.0, gy as f64 * 10.0);
                if (40.0..=60.0).contains(&x) && (30.0..=80.0).contains(&y) {
                    continue; // the void
                }
                if (x, y) == (50.0, 20.0) {
                    src = Some(NodeId(positions.len() as u32));
                }
                if (x, y) == (50.0, 90.0) {
                    dst = Some(NodeId(positions.len() as u32));
                }
                positions.push(Point::new(x, y));
            }
        }
        let topo = Topology::from_positions(positions, Aabb::square(200.0), 15.0);
        let (src, dst) = (src.unwrap(), dst.unwrap());
        // Sanity: greedy alone is stuck at the bay wall.
        let under_wall = topo.pos(src);
        let target = topo.pos(dst);
        assert!(topo
            .neighbors(src)
            .iter()
            .all(|&n| topo.pos(n).dist(target) >= under_wall.dist(target)));
        let out = gpsr_route(&topo, PlanarKind::Gabriel, src, dst, 200);
        assert!(
            out.is_delivered(),
            "expected delivery around void, got {out:?}"
        );
        assert!(out.path().len() > 8, "path must detour around the bay");
    }

    #[test]
    fn unreachable_destination_is_detected() {
        let positions = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(500.0, 500.0), // isolated island
        ];
        let topo = Topology::from_positions(positions, Aabb::square(600.0), 20.0);
        let out = gpsr_route(&topo, PlanarKind::Gabriel, NodeId(0), NodeId(2), 1000);
        assert!(matches!(out, RouteOutcome::Unreachable(_)), "got {out:?}");
    }

    #[test]
    fn gpsr_delivers_on_random_connected_topologies() {
        for seed in 0..5u64 {
            let topo = Topology::random(&TopologyConfig::new(600.0, 200, 120.0), seed);
            if !topo.is_connected() {
                continue;
            }
            for (s, d) in [(0u32, 199u32), (7, 150), (23, 42)] {
                let out = gpsr_route(&topo, PlanarKind::Gabriel, NodeId(s), NodeId(d), 2000);
                assert!(
                    out.is_delivered(),
                    "seed {seed} route {s}->{d} failed: {:?}",
                    out.path().len()
                );
            }
        }
    }

    #[test]
    fn gpsr_delivers_across_a_hole_topology() {
        let config = TopologyConfig::new(600.0, 300, 100.0).with_hole(Hole::Circle {
            center: Point::new(300.0, 300.0),
            radius: 150.0,
        });
        for seed in 0..3u64 {
            let topo = Topology::random(&config, seed);
            if !topo.is_connected() {
                continue;
            }
            // Route across the hole: pick the nodes nearest opposite corners.
            let near = |target: Point| {
                topo.nodes()
                    .min_by(|a, b| a.pos.dist_sq(target).total_cmp(&b.pos.dist_sq(target)))
                    .unwrap()
                    .id
            };
            let s = near(Point::new(50.0, 50.0));
            let d = near(Point::new(550.0, 550.0));
            let out = gpsr_route(&topo, PlanarKind::Gabriel, s, d, 3000);
            assert!(out.is_delivered(), "seed {seed}: {:?}", out.path().len());
        }
    }

    #[test]
    fn perimeter_state_exit_test() {
        let state = PerimeterState::enter(Point::new(0.0, 0.0), Point::new(100.0, 0.0));
        assert!(state.closer_than_entry(Point::new(50.0, 0.0)));
        assert!(!state.closer_than_entry(Point::new(0.0, 10.0)));
        assert!(!state.closer_than_entry(Point::new(0.0, 0.0)));
    }

    #[test]
    fn right_hand_rule_walks_a_square_face() {
        // Square of side 10 with the packet entering at node 0 heading for
        // a point outside; the traversal must walk the face edges in order.
        let positions = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 10.0),
            Point::new(0.0, 10.0),
        ];
        let topo = Topology::from_positions(positions, Aabb::square(50.0), 12.0);
        // Destination far to the right; entering perimeter at node 0.
        let dest = Point::new(100.0, 5.0);
        let mut state = PerimeterState::enter(topo.pos(NodeId(0)), dest);
        let n1 = perimeter_next_hop(&topo, PlanarKind::Gabriel, NodeId(0), &mut state).unwrap();
        // First edge counterclockwise from the line toward (100, 5) is the
        // edge to node 3 (87° ccw); node 1 is nearly a full turn away.
        assert_eq!(n1, NodeId(3));
        let n2 = perimeter_next_hop(&topo, PlanarKind::Gabriel, n1, &mut state).unwrap();
        // Arrived from node 0; next ccw about node 3 from edge (3,0) is 2.
        assert_eq!(n2, NodeId(2));
    }

    #[test]
    fn stuck_on_isolated_node() {
        let positions = vec![Point::new(0.0, 0.0)];
        let topo = Topology::from_positions(positions, Aabb::square(10.0), 5.0);
        let mut state = PerimeterState::enter(Point::new(0.0, 0.0), Point::new(5.0, 5.0));
        assert_eq!(
            perimeter_next_hop(&topo, PlanarKind::Gabriel, NodeId(0), &mut state),
            Err(FaceRoutingError::Stuck)
        );
    }

    #[test]
    fn route_outcome_accessors() {
        let out = RouteOutcome::Delivered(vec![NodeId(0), NodeId(1)]);
        assert!(out.is_delivered());
        assert_eq!(out.path().len(), 2);
        let out = RouteOutcome::HopLimit(vec![NodeId(0)]);
        assert!(!out.is_delivered());
        assert!(!format!("{}", FaceRoutingError::Stuck).is_empty());
        assert!(!format!("{}", FaceRoutingError::LoopDetected).is_empty());
    }
}
