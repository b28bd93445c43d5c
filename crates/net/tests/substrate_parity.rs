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
