//! Shared greedy-forwarding helpers.

use gmp_geom::Point;
use gmp_net::{NodeId, Topology};

pub use gmp_net::face::greedy_next_hop;

/// [`greedy_next_hop`] restricted to neighbors the liveness mask reports
/// alive; identical to the unfiltered version when `alive` is `None`.
/// The guaranteed-delivery protocols (MCFR/GVG) must not greedily hand a
/// packet to a node they can observe is dead.
pub fn live_greedy_next_hop(
    topo: &Topology,
    node: NodeId,
    target: Point,
    alive: Option<&[bool]>,
) -> Option<NodeId> {
    let own = topo.pos(node).dist_sq(target);
    topo.neighbors(node)
        .iter()
        .copied()
        .filter(|&n| alive.is_none_or(|a| a[n.index()]))
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
    use gmp_geom::Aabb;

    #[test]
    fn greedy_picks_strictly_closer_minimum() {
        let topo = Topology::from_positions(
            vec![
                Point::new(0.0, 0.0),
                Point::new(10.0, 0.0),
                Point::new(-10.0, 0.0),
                Point::new(8.0, 4.0),
            ],
            Aabb::square(100.0),
            20.0,
        );
        let target = Point::new(50.0, 0.0);
        assert_eq!(greedy_next_hop(&topo, NodeId(0), target), Some(NodeId(1)));
        // Target behind every neighbor: none qualifies.
        assert_eq!(
            greedy_next_hop(&topo, NodeId(1), Point::new(11.0, 0.0)),
            None
        );
    }

    #[test]
    fn live_greedy_skips_dead_neighbors() {
        let topo = Topology::from_positions(
            vec![
                Point::new(0.0, 0.0),
                Point::new(10.0, 0.0),
                Point::new(8.0, 4.0),
            ],
            Aabb::square(100.0),
            20.0,
        );
        let target = Point::new(50.0, 0.0);
        assert_eq!(
            live_greedy_next_hop(&topo, NodeId(0), target, None),
            Some(NodeId(1))
        );
        let alive = [true, true, true];
        assert_eq!(
            live_greedy_next_hop(&topo, NodeId(0), target, Some(&alive)),
            Some(NodeId(1))
        );
        let alive = [true, false, true];
        assert_eq!(
            live_greedy_next_hop(&topo, NodeId(0), target, Some(&alive)),
            Some(NodeId(2))
        );
        let alive = [true, false, false];
        assert_eq!(
            live_greedy_next_hop(&topo, NodeId(0), target, Some(&alive)),
            None
        );
    }
}
