//! Property pin for the CSR adjacency layout.
//!
//! The CSR refactor is a pure storage change and may not alter a single
//! neighbor list: [`Topology`] adjacency (now CSR) must equal the
//! brute-force O(n²) unit-disk adjacency the original `Vec<Vec<NodeId>>`
//! path computed, across seeds, placements, and hole configs.

use gmp_geom::Point;
use gmp_net::topology::{Hole, Placement};
use gmp_net::{NodeId, Topology, TopologyConfig};
use proptest::prelude::*;

/// The pre-CSR reference: brute-force unit-disk adjacency, sorted rows.
fn brute_force_adjacency(positions: &[Point], radio_range: f64) -> Vec<Vec<NodeId>> {
    let rr_sq = radio_range * radio_range;
    (0..positions.len())
        .map(|i| {
            let mut row: Vec<NodeId> = (0..positions.len())
                .filter(|&j| j != i && positions[i].dist_sq(positions[j]) <= rr_sq)
                .map(|j| NodeId(j as u32))
                .collect();
            row.sort();
            row
        })
        .collect()
}

fn placement_strategy() -> impl Strategy<Value = Placement> {
    (0usize..3, 0.0f64..20.0, 1usize..4, 20.0f64..60.0).prop_map(
        |(which, jitter, clusters, spread)| match which {
            0 => Placement::UniformRandom,
            1 => Placement::GridJitter { jitter },
            _ => Placement::Clustered { clusters, spread },
        },
    )
}

/// Holes that never cover the whole 500 m area: small circles away from
/// the corners.
fn holes_strategy() -> impl Strategy<Value = Vec<Hole>> {
    proptest::collection::vec(
        (100.0f64..400.0, 100.0f64..400.0, 30.0f64..80.0).prop_map(|(x, y, radius)| Hole::Circle {
            center: Point::new(x, y),
            radius,
        }),
        0..3,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn csr_adjacency_matches_brute_force(
        seed in 0u64..1000,
        n in 60usize..200,
        placement in placement_strategy(),
        holes in holes_strategy(),
    ) {
        let mut config = TopologyConfig::new(500.0, n, 120.0).with_placement(placement);
        config.holes = holes;
        let topo = Topology::random(&config, seed);
        let want = brute_force_adjacency(topo.positions_ref(), 120.0);
        prop_assert_eq!(topo.adjacency().rows(), n);
        for (i, row) in want.iter().enumerate() {
            prop_assert_eq!(topo.neighbors(NodeId(i as u32)), row.as_slice(), "node {}", i);
        }
    }
}

/// Asserts that `topo`'s rows equal the brute-force adjacency and that
/// `Topology::is_neighbor` agrees with row membership on every ordered
/// pair, the node itself included.
fn assert_rows_and_is_neighbor(topo: &Topology) {
    let want = brute_force_adjacency(topo.positions_ref(), topo.radio_range());
    for (i, row) in want.iter().enumerate() {
        let a = NodeId(i as u32);
        assert_eq!(topo.neighbors(a), row.as_slice(), "node {i}");
        for j in 0..topo.len() {
            let b = NodeId(j as u32);
            assert_eq!(
                topo.is_neighbor(a, b),
                topo.neighbors(a).binary_search(&b).is_ok(),
                "pair ({i}, {j})"
            );
        }
    }
}

#[test]
fn is_neighbor_equals_row_membership() {
    for (seed, placement) in [
        (1, Placement::UniformRandom),
        (2, Placement::GridJitter { jitter: 15.0 }),
        (
            3,
            Placement::Clustered {
                clusters: 3,
                spread: 30.0,
            },
        ),
    ] {
        let config = TopologyConfig::new(500.0, 150, 120.0).with_placement(placement);
        assert_rows_and_is_neighbor(&Topology::random(&config, seed));
    }
    // Pairs exactly one radio range apart (0–1 along an axis, 0–2 on a
    // 3-4-5 diagonal) are neighbors; 0–3 is one unit farther. Nodes 4 and
    // 5 share a position and are each other's neighbors.
    let positions = vec![
        Point::new(0.0, 0.0),
        Point::new(150.0, 0.0),
        Point::new(90.0, 120.0),
        Point::new(151.0, 0.0),
        Point::new(400.0, 400.0),
        Point::new(400.0, 400.0),
    ];
    let topo = Topology::from_positions(positions, gmp_geom::Aabb::square(500.0), 150.0);
    assert_rows_and_is_neighbor(&topo);
    assert!(topo.is_neighbor(NodeId(0), NodeId(1)));
    assert!(topo.is_neighbor(NodeId(2), NodeId(0)));
    assert!(!topo.is_neighbor(NodeId(0), NodeId(3)));
    assert!(topo.is_neighbor(NodeId(4), NodeId(5)));
    assert!(!topo.is_neighbor(NodeId(4), NodeId(4)));
}

#[test]
fn sparse_topology_over_a_huge_area_matches_brute_force() {
    // A grid sized by area would need ~10^600 cells for the first area
    // and ~10^14 for the second; sized by node count it stays small and
    // must still find every neighbor pair.
    for (side, radio_range) in [(1e300, 150.0), (1e7, 1.0), (f64::MAX, 1e300)] {
        let mut positions = Vec::new();
        for i in 0..12 {
            let corner = Point::new(
                side * (i as f64 / 12.0),
                side * ((i * 5 % 12) as f64 / 12.0),
            );
            positions.push(corner);
            positions.push(Point::new(corner.x + radio_range * 0.6, corner.y));
            positions.push(Point::new(corner.x, corner.y + radio_range));
        }
        let area = gmp_geom::Aabb::new(Point::new(-side, -side), Point::new(side, side));
        let topo = Topology::from_positions(positions, area, radio_range);
        assert!(topo.average_degree() > 0.0, "side {side}");
        assert_rows_and_is_neighbor(&topo);
    }
}
