//! Cross-crate integration: every protocol, one simulator, shared
//! topologies and tasks.

use gmp::baselines::{GrdRouter, LgsRouter, PbmRouter, SmtRouter};
use gmp::gmp::GmpRouter;
use gmp::net::{NodeId, Topology};
use gmp::sim::{MulticastTask, Protocol, SimConfig, TaskRunner};

fn all_protocols() -> Vec<Box<dyn Protocol>> {
    vec![
        Box::new(GmpRouter::new()),
        Box::new(GmpRouter::without_radio_range_awareness()),
        Box::new(PbmRouter::with_lambda(0.0)),
        Box::new(PbmRouter::with_lambda(0.3)),
        Box::new(PbmRouter::with_lambda(0.6)),
        Box::new(LgsRouter::new()),
        Box::new(SmtRouter::new()),
        Box::new(GrdRouter::new()),
    ]
}

#[test]
fn every_protocol_delivers_on_paper_density_networks() {
    let config = SimConfig::paper().with_node_count(600);
    let topo = Topology::random(&config.topology_config(), 1);
    assert!(topo.is_connected());
    let runner = TaskRunner::new(&topo, &config);
    for seed in 0..4u64 {
        for k in [3usize, 10, 20] {
            let task = MulticastTask::random(&topo, k, seed * 100 + k as u64);
            for proto in all_protocols().iter_mut() {
                let report = runner.run(proto.as_mut(), &task);
                assert!(
                    report.delivered_all(),
                    "{} failed {:?} (seed {seed}, k {k})",
                    proto.name(),
                    report.failed_dests
                );
                assert!(!report.truncated, "{} truncated", proto.name());
                assert_eq!(report.links.len(), report.transmissions);
            }
        }
    }
}

#[test]
fn delivery_hop_counts_are_consistent_with_the_hop_cap() {
    let config = SimConfig::paper()
        .with_node_count(500)
        .with_max_path_hops(100);
    let topo = Topology::random(&config.topology_config(), 2);
    let runner = TaskRunner::new(&topo, &config);
    let task = MulticastTask::random(&topo, 15, 9);
    for proto in all_protocols().iter_mut() {
        let report = runner.run(proto.as_mut(), &task);
        for &(dest, hops) in &report.delivery_hops {
            assert!(hops >= 1, "{}: {dest} delivered in 0 hops", proto.name());
            assert!(hops <= 100, "{}: {dest} exceeded hop cap", proto.name());
        }
    }
}

#[test]
fn reports_are_deterministic_across_runs() {
    let config = SimConfig::paper().with_node_count(400);
    let topo = Topology::random(&config.topology_config(), 3);
    let runner = TaskRunner::new(&topo, &config);
    let task = MulticastTask::random(&topo, 8, 5);
    for make in [
        || -> Box<dyn Protocol> { Box::new(GmpRouter::new()) },
        || -> Box<dyn Protocol> { Box::new(PbmRouter::with_lambda(0.3)) },
        || -> Box<dyn Protocol> { Box::new(LgsRouter::new()) },
        || -> Box<dyn Protocol> { Box::new(SmtRouter::new()) },
        || -> Box<dyn Protocol> { Box::new(GrdRouter::new()) },
    ] {
        let a = runner.run(make().as_mut(), &task);
        let b = runner.run(make().as_mut(), &task);
        assert_eq!(a, b);
    }
}

#[test]
fn energy_recomputes_from_the_transmission_log() {
    let config = SimConfig::paper().with_node_count(500);
    let topo = Topology::random(&config.topology_config(), 4);
    let runner = TaskRunner::new(&topo, &config);
    let task = MulticastTask::random(&topo, 10, 1);
    let report = runner.run(&mut GmpRouter::new(), &task);
    let airtime = config.message_airtime();
    let expected: f64 = report
        .links
        .iter()
        .map(|&(from, _)| {
            let listeners = topo.neighbors(from).len() as f64;
            (config.tx_power_w + listeners * config.rx_power_w) * airtime
        })
        .sum();
    assert!(
        (report.energy_j - expected).abs() < 1e-9,
        "energy {} != recomputed {expected}",
        report.energy_j
    );
}

#[test]
fn smt_transmissions_form_a_tree() {
    // Source routing never duplicates an edge and never revisits a node.
    let config = SimConfig::paper().with_node_count(500);
    let topo = Topology::random(&config.topology_config(), 5);
    let runner = TaskRunner::new(&topo, &config);
    let task = MulticastTask::random(&topo, 12, 2);
    let report = runner.run(&mut SmtRouter::new(), &task);
    assert!(report.delivered_all());
    let mut receivers: Vec<NodeId> = report.links.iter().map(|&(_, to)| to).collect();
    let n_links = receivers.len();
    receivers.sort();
    receivers.dedup();
    assert_eq!(receivers.len(), n_links, "SMT revisited a node");
    assert!(!receivers.contains(&task.source));
}

#[test]
fn grd_per_destination_hops_lower_bound_gmp() {
    // GRD explicitly minimizes per-destination hops, so across enough
    // tasks its mean must not exceed GMP's.
    let config = SimConfig::paper().with_node_count(700);
    let topo = Topology::random(&config.topology_config(), 6);
    let runner = TaskRunner::new(&topo, &config);
    let mut grd_sum = 0.0;
    let mut gmp_sum = 0.0;
    for seed in 0..15u64 {
        let task = MulticastTask::random(&topo, 12, seed);
        grd_sum += runner
            .run(&mut GrdRouter::new(), &task)
            .mean_dest_hops()
            .expect("delivered");
        gmp_sum += runner
            .run(&mut GmpRouter::new(), &task)
            .mean_dest_hops()
            .expect("delivered");
    }
    assert!(
        grd_sum <= gmp_sum + 1.0,
        "GRD {grd_sum} should lower-bound GMP {gmp_sum}"
    );
}

#[test]
fn failure_injection_degrades_delivery_gracefully() {
    let base = SimConfig::paper().with_node_count(600);
    let topo = Topology::random(&base.topology_config(), 7);
    let task = MulticastTask::random(&topo, 10, 3);
    let mut delivered_by_prob = Vec::new();
    for prob in [0.0, 0.3, 0.9] {
        let config = base.clone().with_node_failure_prob(prob);
        let runner = TaskRunner::new(&topo, &config);
        let report = runner.run_seeded(&mut GmpRouter::new(), &task, 11);
        delivered_by_prob.push(report.delivered_count());
        assert!(!report.truncated);
    }
    assert_eq!(delivered_by_prob[0], 10, "no failures at p=0");
    assert!(
        delivered_by_prob[2] <= delivered_by_prob[0],
        "delivery should not improve with more dead nodes"
    );
}
