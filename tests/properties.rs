//! Cross-crate property-based tests: invariants that must hold for every
//! random topology and task.

use gmp::gmp::grouping::group_destinations;
use gmp::gmp::GmpRouter;
use gmp::net::{NodeId, Topology, TopologyConfig};
use gmp::sim::{MulticastTask, SimConfig, TaskRunner};
use proptest::prelude::*;

fn arb_topology() -> impl Strategy<Value = (Topology, SimConfig)> {
    (150usize..400, 0u64..1000).prop_map(|(nodes, seed)| {
        let config = SimConfig::paper().with_node_count(nodes);
        let topo = Topology::random(&config.topology_config(), seed);
        (topo, config)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn grouping_partitions_destinations_exactly(
        (topo, _config) in arb_topology(),
        node_pick in 0usize..100,
        seed in 0u64..500,
        k in 2usize..10,
        aware in proptest::bool::ANY,
    ) {
        let node = NodeId((node_pick % topo.len()) as u32);
        let task = MulticastTask::random(&topo, k, seed);
        let dests: Vec<NodeId> = task
            .dests
            .iter()
            .copied()
            .filter(|&d| d != node)
            .collect();
        prop_assume!(!dests.is_empty());
        let g = group_destinations(&topo, node, &dests, aware, None);
        // Covered groups + voids partition the input set exactly.
        let mut all: Vec<NodeId> = g
            .covered
            .iter()
            .flat_map(|c| c.dests.iter().copied())
            .chain(g.voids.iter().copied())
            .collect();
        all.sort();
        let mut want = dests.clone();
        want.sort();
        prop_assert_eq!(all, want);
        // Every next hop is a real neighbor and strictly improves the
        // group's total distance (the loop-prevention constraint).
        let here = topo.pos(node);
        for c in &g.covered {
            prop_assert!(topo.neighbors(node).contains(&c.next_hop));
            let own: f64 = c.dests.iter().map(|&v| here.dist(topo.pos(v))).sum();
            let via: f64 = c
                .dests
                .iter()
                .map(|&v| topo.pos(c.next_hop).dist(topo.pos(v)))
                .sum();
            prop_assert!(via < own, "next hop must strictly improve");
        }
    }

    #[test]
    fn gmp_delivers_everything_reachable(
        (topo, config) in arb_topology(),
        seed in 0u64..500,
        k in 2usize..12,
    ) {
        let task = MulticastTask::random(&topo, k, seed);
        let runner = TaskRunner::new(&topo, &config);
        let report = runner.run(&mut GmpRouter::new(), &task);
        prop_assert!(!report.truncated, "event cap should never fire for GMP");
        // On a connected graph at these densities, GMP with the standard
        // hop cap delivers everything reachable; verify failures are only
        // ever unreachable destinations or genuinely void-locked ones at
        // very low degree.
        if topo.is_connected() && topo.average_degree() > 15.0 {
            prop_assert!(
                report.delivered_all(),
                "failed {:?} on a connected graph of degree {:.1}",
                report.failed_dests,
                topo.average_degree()
            );
        }
        // Hop accounting sanity.
        for &(_, h) in &report.delivery_hops {
            prop_assert!(h as usize <= report.transmissions);
        }
        prop_assert_eq!(report.links.len(), report.transmissions);
    }

    #[test]
    fn topology_neighbor_symmetry_holds(
        nodes in 50usize..300,
        seed in 0u64..1000,
        rr in 60.0f64..200.0,
    ) {
        let config = TopologyConfig::new(800.0, nodes, rr);
        let topo = Topology::random(&config, seed);
        for n in topo.nodes() {
            for &m in topo.neighbors(n.id) {
                prop_assert!(topo.neighbors(m).contains(&n.id));
                prop_assert!(topo.pos(n.id).dist(topo.pos(m)) <= rr + 1e-9);
            }
        }
    }
}
