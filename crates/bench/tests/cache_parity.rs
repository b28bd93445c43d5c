//! Satellite of the decision cache: a *populated* [`gmp_core::TreeCache`]
//! must never change a [`TaskReport`] bit-for-bit against a cold one.
//!
//! The harness runs every protocol twice over the same (config, task,
//! seed) matrix: **cold** — a fresh router per run, so GMP's decision
//! cache starts empty every time — and **warm** — one router reused
//! across the whole matrix, so GMP replays later tasks against a cache
//! populated by *earlier, different* configurations and fault plans.
//! The matrix deliberately interleaves a fault-free run with crash,
//! regional-crash and Bernoulli-failure plans over the same tasks:
//! the warm cache first fills with all-alive decisions, then the faulted
//! replays bring the same decisions with dead neighbors, which may be
//! served only where the view keeps an entry's next hops alive and its
//! blockers dead and must recompute everywhere else, then the fault-free
//! run comes back and must get the all-alive decisions again, served or
//! recomputed.
//!
//! The non-GMP protocols ride along to pin the broader contract the
//! benches rely on: reusing a protocol instance across tasks is
//! observationally identical to constructing it fresh.

use gmp_baselines::{GrdRouter, LgsRouter, PbmRouter, SmtRouter};
use gmp_core::GmpRouter;
use gmp_geom::Point;
use gmp_net::{NodeId, Topology};
use gmp_sim::{FaultPlan, MulticastTask, Protocol, SimConfig, SimScratch, TaskReport, TaskRunner};
use proptest::prelude::*;

/// Every protocol in the workspace, freshly constructed.
fn protocols() -> Vec<Box<dyn Protocol>> {
    vec![
        Box::new(GmpRouter::new()),
        Box::new(GrdRouter::new()),
        Box::new(LgsRouter::new()),
        Box::new(PbmRouter::new()),
        Box::new(SmtRouter::new()),
    ]
}

fn fresh(name: &str) -> Box<dyn Protocol> {
    protocols()
        .into_iter()
        .find(|p| p.name() == name)
        .expect("known protocol")
}

/// Fault-free plus the fault families, the crashes timed to fire inside a
/// task's first few airtimes (~1 ms each) so they actually flip liveness
/// mid-run.
fn configs(topo: &Topology) -> Vec<(&'static str, SimConfig)> {
    let node_count = topo.len();
    let base = SimConfig::paper().with_node_count(node_count);
    // A regional blackout: every node within 300 m of the center crashes.
    let center = Point::new(500.0, 500.0);
    let region = (0..node_count as u32)
        .map(NodeId)
        .filter(|&n| center.dist_sq(topo.pos(n)) <= 300.0 * 300.0)
        .fold(FaultPlan::none(), |plan, n| plan.with_crash(n, 0.001));
    vec![
        ("plain", base.clone()),
        (
            "crashes",
            base.clone()
                .with_faults(FaultPlan::random_crashes(node_count, 0.1, 0.002, 77)),
        ),
        ("region", base.clone().with_faults(region)),
        ("bernoulli", base.clone().with_node_failure_prob(0.1)),
        // Back to fault-free: the warm cache must still serve the
        // entries the faulted rounds were forbidden from using.
        ("plain-again", base),
    ]
}

fn assert_bit_identical(cold: &TaskReport, warm: &TaskReport, what: &str) {
    assert_eq!(cold, warm, "cold/warm reports diverged: {what}");
    assert_eq!(
        cold.energy_j.to_bits(),
        warm.energy_j.to_bits(),
        "energy bits diverged: {what}"
    );
    assert_eq!(
        cold.completion_time_s.to_bits(),
        warm.completion_time_s.to_bits(),
        "completion-time bits diverged: {what}"
    );
    for (a, b) in cold.link_times_s.iter().zip(&warm.link_times_s) {
        assert_eq!(a.to_bits(), b.to_bits(), "link-time bits diverged: {what}");
    }
}

fn run_matrix(topo: &Topology, tasks: &[MulticastTask], run_seed: u64) {
    let mut cold_scratch = SimScratch::new();
    for proto in protocols() {
        let name = proto.name();
        let mut warm = proto;
        let mut warm_scratch = SimScratch::new();
        for (config_name, config) in configs(topo) {
            let runner = TaskRunner::new(topo, &config);
            for (task_i, task) in tasks.iter().enumerate() {
                let mut cold = fresh(&name);
                let cold_report =
                    runner.run_with_scratch(cold.as_mut(), task, run_seed, &mut cold_scratch);
                let warm_report =
                    runner.run_with_scratch(warm.as_mut(), task, run_seed, &mut warm_scratch);
                assert_bit_identical(
                    &cold_report,
                    &warm_report,
                    &format!("protocol {name} config {config_name} task {task_i} seed {run_seed}"),
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn populated_cache_never_changes_reports(
        topo_seed in 0u64..100,
        task_seed in 0u64..1000,
        k in 2usize..12,
        run_seed in 0u64..6,
    ) {
        let config = SimConfig::paper().with_node_count(300);
        let topo = Topology::random(&config.topology_config(), topo_seed);
        let tasks: Vec<MulticastTask> = (0..2)
            .map(|i| MulticastTask::random(&topo, k, task_seed * 7 + i))
            .collect();
        run_matrix(&topo, &tasks, run_seed);
    }
}

/// The concurrent cache substituted for the private one: a
/// [`gmp_core::ConcurrentTreeCache`] shared across the whole
/// config × task matrix (including the faulted rounds, whose flipped
/// liveness bits must refuse every entry that depends on them) never
/// changes a GMP report bit-for-bit against the cold private-cache
/// router.
#[test]
fn shared_concurrent_cache_never_changes_reports() {
    use std::sync::Arc;

    use gmp_core::{CacheConfig, ConcurrentTreeCache};

    let node_count = 300;
    let seed_config = SimConfig::paper().with_node_count(node_count);
    let topo = Topology::random(&seed_config.topology_config(), 11);
    let tasks: Vec<MulticastTask> = (0..3)
        .map(|i| MulticastTask::random(&topo, 4 + 3 * i as usize, 400 + i))
        .collect();

    let cache = Arc::new(ConcurrentTreeCache::with_config(CacheConfig::default()));
    let mut cold_scratch = SimScratch::new();
    let mut warm_scratch = SimScratch::new();
    // Two passes over the matrix: the second replays every task against a
    // cache fully populated by the first, so warm hits (not just misses)
    // are compared against the cold router.
    for pass in 0..2 {
        for (config_name, config) in configs(&topo) {
            let runner = TaskRunner::new(&topo, &config);
            for (task_i, task) in tasks.iter().enumerate() {
                let mut cold = GmpRouter::new();
                let cold_report = runner.run_with_scratch(&mut cold, task, 3, &mut cold_scratch);
                let mut shared = GmpRouter::with_shared_cache(Arc::clone(&cache));
                let shared_report =
                    runner.run_with_scratch(&mut shared, task, 3, &mut warm_scratch);
                assert_bit_identical(
                    &cold_report,
                    &shared_report,
                    &format!("concurrent cache, pass {pass} config {config_name} task {task_i}"),
                );
            }
        }
    }
    let stats = cache.stats();
    assert!(
        stats.hits > 0,
        "second pass must be served from the shared cache: {stats:?}"
    );
    assert_eq!(
        stats.fallbacks, 0,
        "exact verification must never fail: {stats:?}"
    );
}

#[test]
fn populated_cache_parity_holds_under_paranoid_mode() {
    // With GMP_CACHE_PARANOID every warm hit recomputes the decision and
    // asserts the stored grouping identical — the run fails loudly if a
    // single served entry drifts from recomputation. Routers read the
    // variable at construction, and this file is its own test binary, so
    // setting it here cannot leak into other suites.
    std::env::set_var("GMP_CACHE_PARANOID", "1");
    let config = SimConfig::paper().with_node_count(300);
    let topo = Topology::random(&config.topology_config(), 31);
    let tasks: Vec<MulticastTask> = (0..2)
        .map(|i| MulticastTask::random(&topo, 9, 600 + i))
        .collect();
    run_matrix(&topo, &tasks, 1);
    std::env::remove_var("GMP_CACHE_PARANOID");
}
