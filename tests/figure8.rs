//! An executable rendition of the paper's Figure 8 walkthrough: the
//! packet funnels through a single pivot chain while the destinations are
//! far away, and only splits into parallel copies near the junction.

use gmp::gmp::GmpRouter;
use gmp::net::{NodeId, Topology};
use gmp::sim::{MulticastTask, SimConfig, TaskRunner};

/// Figure 8's cast, embedded with real coordinates: a relay chain
/// `s → n1 → c → n2 → n3` and destinations `c`, and `{u, v, d}` beyond a
/// junction near `n3`.
fn figure8_topology() -> (Topology, NodeId, Vec<NodeId>) {
    let positions = vec![
        gmp::geom::Point::new(0.0, 0.0),      // 0: s
        gmp::geom::Point::new(140.0, 10.0),   // 1: n1
        gmp::geom::Point::new(280.0, 20.0),   // 2: c (also a destination)
        gmp::geom::Point::new(420.0, 40.0),   // 3: n2
        gmp::geom::Point::new(560.0, 60.0),   // 4: n3
        gmp::geom::Point::new(700.0, 100.0),  // 5: n4
        gmp::geom::Point::new(660.0, -40.0),  // 6: n5
        gmp::geom::Point::new(830.0, 150.0),  // 7: u
        gmp::geom::Point::new(820.0, 30.0),   // 8: v
        gmp::geom::Point::new(760.0, -120.0), // 9: d
    ];
    let topo = Topology::from_positions(positions, gmp::geom::Aabb::square(1000.0), 150.0);
    (
        topo,
        NodeId(0),
        vec![NodeId(2), NodeId(7), NodeId(8), NodeId(9)],
    )
}

#[test]
fn packet_funnels_then_splits_near_the_junction() {
    let (topo, source, dests) = figure8_topology();
    let config = SimConfig::paper().with_node_count(topo.len());
    let task = MulticastTask::new(source, dests.clone());
    let report = TaskRunner::new(&topo, &config).run(&mut GmpRouter::new(), &task);
    assert!(
        report.delivered_all(),
        "figure-8 deliveries failed: {:?}",
        report.failed_dests
    );

    // Step 1 of the walkthrough: s emits a single copy (one pivot covers
    // all four destinations).
    let from_source: Vec<_> = report
        .links
        .iter()
        .filter(|&&(from, _)| from == source)
        .collect();
    assert_eq!(
        from_source.len(),
        1,
        "the source must not split (got {from_source:?})"
    );

    // The split into parallel copies happens only past c (x > 280):
    // before the junction every node forwards exactly one copy.
    use std::collections::HashMap;
    let mut out_degree: HashMap<NodeId, usize> = HashMap::new();
    for &(from, _) in &report.links {
        *out_degree.entry(from).or_default() += 1;
    }
    for (&node, &deg) in &out_degree {
        if topo.pos(node).x < 280.0 {
            assert_eq!(
                deg,
                1,
                "node {node} at x={:.0} split too early",
                topo.pos(node).x
            );
        }
    }
    // Someone past the junction splits into at least two copies.
    assert!(
        out_degree
            .iter()
            .any(|(&n, &d)| d >= 2 && topo.pos(n).x >= 280.0),
        "expected a split near the junction: {out_degree:?}"
    );

    // c is both a destination and the relay for the others: it must be
    // delivered strictly earlier (fewer hops) than u, v, d.
    let c_hops = report.hops_to(NodeId(2)).expect("c is delivered");
    for far in [NodeId(7), NodeId(8), NodeId(9)] {
        assert!(
            report.hops_to(far).expect("every destination is delivered") > c_hops,
            "{far} delivered no later than the en-route destination c"
        );
    }

    // Efficiency: the realized tree must share the long trunk — well
    // under four independent unicast paths (~5 hops each).
    assert!(
        report.transmissions <= 12,
        "{} transmissions is no better than unicasting",
        report.transmissions
    );
}

#[test]
fn gmpnr_matches_on_the_same_cast() {
    // Radio-range awareness should not change *whether* Figure 8's cast is
    // deliverable, only the hop budget.
    let (topo, source, dests) = figure8_topology();
    let config = SimConfig::paper().with_node_count(topo.len());
    let task = MulticastTask::new(source, dests);
    let mut nr = GmpRouter::without_radio_range_awareness();
    let nr_report = TaskRunner::new(&topo, &config).run(&mut nr, &task);
    assert!(nr_report.delivered_all());
    let report = TaskRunner::new(&topo, &config).run(&mut GmpRouter::new(), &task);
    assert!(report.transmissions <= nr_report.transmissions);
}
