//! Fig. 15's last gap is the hop cap, not a routing loop.
//!
//! At 120 nodes and paper scale (10 networks × 100 tasks, k = 12, hop cap
//! 100), GMP fails 150 tasks per 1000 against PBM's 146. Apart from the
//! destinations the oracle finds disconnected, GMP's failures are 15
//! `HopCap` destinations in the 12 `(network, task)` pairs of [`TASKS`].
//! None of them loops: with a cap of 4000 hops GMP delivers every one,
//! after 101–155 hops, and fails only destinations the oracle justifies.

use gmp_bench::experiments::{network_seed, task_seed};
use gmp_core::GmpRouter;
use gmp_net::{NodeId, Topology};
use gmp_sim::{FailureCause, MulticastTask, SimConfig, TaskReport, TaskRunner};

/// The `(network, task)` indices of the harness's 120-node sweep in which
/// GMP drops a destination at the hop cap of 100.
const TASKS: [(usize, usize); 12] = [
    (0, 2),
    (0, 64),
    (2, 41),
    (3, 23),
    (3, 40),
    (3, 61),
    (3, 62),
    (3, 71),
    (5, 9),
    (5, 19),
    (5, 34),
    (5, 66),
];

/// GMP's report on each of [`TASKS`] under a hop cap of `cap`.
fn reports(cap: u32) -> Vec<((usize, usize), TaskReport)> {
    let config = SimConfig::paper()
        .with_node_count(120)
        .with_max_path_hops(cap);
    let run = |net, t| {
        let topo = Topology::random(&config.topology_config(), network_seed(net));
        let task = MulticastTask::random(&topo, 12, task_seed(net, t));
        TaskRunner::new(&topo, &config).run(&mut GmpRouter::new(), &task)
    };
    TASKS
        .iter()
        .map(|&(net, t)| ((net, t), run(net, t)))
        .collect()
}

/// Fig. 15's 120-node GMP cell at paper scale, hop cap 100: 150 failed
/// tasks, and every failed destination the oracle does not justify is a
/// `HopCap` drop in one of [`TASKS`].
#[test]
fn gmp_hop_caps_at_120_nodes_fall_in_the_listed_tasks() {
    let config = SimConfig::paper().with_node_count(120);
    let mut failed_tasks = 0;
    let mut capped_tasks = Vec::new();
    for net in 0..10 {
        let topo = Topology::random(&config.topology_config(), network_seed(net));
        let runner = TaskRunner::new(&topo, &config);
        for t in 0..100 {
            let task = MulticastTask::random(&topo, 12, task_seed(net, t));
            let report = runner.run(&mut GmpRouter::new(), &task);
            failed_tasks += usize::from(!report.delivered_all());
            let mut unjustified = report.unjustified_failures().peekable();
            if unjustified.peek().is_some() {
                assert!(unjustified.all(|f| f.cause == FailureCause::HopCap));
                capped_tasks.push((net, t));
            }
        }
    }
    assert_eq!(failed_tasks, 150);
    assert_eq!(capped_tasks, TASKS);
}

/// The listed tasks at caps 100 and 4000: 15 `HopCap` drops, each one
/// delivered after 101–155 hops once the cap allows it. 11 of the 12
/// tasks then deliver fully; (0, 2) keeps two disconnected destinations.
#[test]
fn gmp_hop_cap_failures_at_120_nodes_are_long_walks() {
    let mut capped: Vec<((usize, usize), NodeId)> = Vec::new();
    for (task, report) in reports(100) {
        for f in &report.failed_dests {
            match f.cause {
                FailureCause::HopCap => capped.push((task, f.dest)),
                _ => assert!(f.is_justified(), "{task:?}: {f:?}"),
            }
        }
    }
    assert_eq!(capped.len(), 15, "{capped:?}");

    let uncapped = reports(4000);
    let mut hops: Vec<u32> = Vec::new();
    for (task, report) in &uncapped {
        assert_eq!(report.unjustified_failures().count(), 0, "{task:?}");
        for (_, dest) in capped.iter().filter(|(t, _)| t == task) {
            hops.push(report.hops_to(*dest).expect("delivered at cap 4000"));
        }
    }
    hops.sort_unstable();
    assert_eq!(hops.len(), 15);
    assert!(hops.iter().all(|h| (101..=155).contains(h)), "{hops:?}");
    assert_eq!((hops[0], hops[14]), (101, 155), "{hops:?}");

    let partial: Vec<_> = uncapped
        .iter()
        .filter(|(_, r)| !r.delivered_all())
        .collect();
    assert_eq!(partial.len(), 1, "{partial:?}");
    let ((net, t), report) = partial[0];
    assert_eq!((*net, *t), (0, 2));
    let causes: Vec<FailureCause> = report.failed_dests.iter().map(|f| f.cause).collect();
    assert_eq!(causes, [FailureCause::Disconnected; 2]);
}
