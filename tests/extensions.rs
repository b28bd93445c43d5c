//! Integration tests for the extension subsystems: mobility and
//! visualization — exercised together through the facade crate the way a
//! downstream user would.

use gmp::geom::Aabb;
use gmp::gmp::GmpRouter;
use gmp::net::mobility::{broken_link_fraction, RandomWaypoint};
use gmp::net::Topology;
use gmp::sim::{SimConfig, TaskRunner};
use gmp::viz::SvgScene;

#[test]
fn mobility_snapshots_still_route() {
    // Snapshots of a moving network remain routable topologies.
    let mut model =
        RandomWaypoint::new(Aabb::square(1000.0), 400, 150.0, (1.0, 5.0), (0.0, 2.0), 62);
    let config = SimConfig::paper().with_node_count(400);
    let t0 = model.snapshot();
    model.advance(30.0);
    let t30 = model.snapshot();
    assert!(broken_link_fraction(&t0, &t30) > 0.0);
    for topo in [&t0, &t30] {
        if !topo.is_connected() {
            continue;
        }
        let task = gmp::sim::MulticastTask::random(topo, 8, 5);
        let report = TaskRunner::new(topo, &config).run(&mut GmpRouter::new(), &task);
        assert!(report.delivered_all());
    }
}

#[test]
fn svg_rendering_of_a_real_route() {
    let config = SimConfig::paper()
        .with_node_count(300)
        .with_area_side(600.0);
    let topo = Topology::random(&config.topology_config(), 63);
    let task = gmp::sim::MulticastTask::random(&topo, 6, 2);
    let report = TaskRunner::new(&topo, &config).run(&mut GmpRouter::new(), &task);
    let mut scene = SvgScene::new(topo.area());
    for node in topo.nodes() {
        scene.circle(node.pos, 1.5, "#cccccc");
    }
    for &(a, b) in &report.links {
        scene.line(topo.pos(a), topo.pos(b), "#3366cc", 1.0);
    }
    let svg = scene.finish();
    assert!(svg.starts_with("<svg"));
    // One line element per transmission plus the node circles.
    assert_eq!(svg.matches("<line").count(), report.links.len());
    assert_eq!(svg.matches("<circle").count(), topo.len());
}
