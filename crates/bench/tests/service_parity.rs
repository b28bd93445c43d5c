//! Session-level determinism of the concurrent engine: with a fixed seed,
//! every session's [`TaskReport`] must be **bit-identical** to running
//! that session alone.
//!
//! The harness generates a random service workload (groups, live
//! membership churn, crash-derived leaves, session arrivals), runs it
//! through [`gmp_service::SessionEngine`] — interleaved over one shared
//! topology, shared decision cache, pooled scratch — and then replays
//! every completed session solo through [`TaskRunner::run_seeded`] with a
//! fresh protocol instance. Any divergence means engine interleaving
//! leaked state between sessions. The sweep crosses topology seeds,
//! admission capacities, fault/churn plans, and three protocols, each
//! one instance shared by every session: GMP with its decision cache,
//! LGS, and SMT, whose source tree rides in the packet.
//!
//! This suite rides next to `sim_parity` and `cache_parity` in CI: all
//! three pin the bit-exactness contracts the benches' speedups rely on.

use std::collections::BTreeMap;
use std::sync::Arc;

use gmp_baselines::{LgsRouter, SmtRouter};
use gmp_core::{CacheConfig, ConcurrentTreeCache, GmpRouter};
use gmp_net::{NodeId, Topology};
use gmp_service::{
    ParallelProtocol, ServiceConfig, ServiceRun, ServiceWorkload, SessionEngine, WorkloadParams,
};
use gmp_sim::{FaultPlan, Protocol, SimConfig, TaskRunner};
use proptest::prelude::*;

/// A fresh-protocol-instance constructor.
type ProtocolFactory = fn() -> Box<dyn Protocol>;

/// The protocols under test: name and a fresh-instance factory.
fn factory(mode: usize) -> (&'static str, ProtocolFactory) {
    match mode {
        0 => ("gmp", || Box::new(GmpRouter::new())),
        1 => ("lgs", || Box::new(LgsRouter::new())),
        _ => ("smt", || Box::new(SmtRouter::new())),
    }
}

/// A fault/churn plan family over the candidate pool.
fn plan_for(variant: usize, candidates: &[NodeId]) -> FaultPlan {
    match variant {
        0 => FaultPlan::none(),
        1 => {
            // Timed crashes at session-local t = 0 on a node stride.
            let mut plan = FaultPlan::none();
            for &node in candidates.iter().step_by(37).take(8) {
                plan = plan.with_crash(node, 0.0);
            }
            plan
        }
        _ => {
            // Mid-task crashes: liveness flips while packets are in
            // flight (~1 ms airtimes), exercising FaultScratch sharing.
            let mut plan = FaultPlan::none();
            for (i, &node) in candidates.iter().step_by(53).take(6).enumerate() {
                plan = plan.with_crash(node, 0.001 * (i + 1) as f64);
            }
            plan
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_concurrent_session_matches_its_solo_run(
        topo_seed in 0u64..6,
        workload_seed in 0u64..u64::MAX,
        mode in 0usize..3,
        plan_variant in 0usize..3,
        capacity in 1usize..48,
    ) {
        let base = SimConfig::paper().with_node_count(300);
        let topo = Topology::random(&base.topology_config(), topo_seed);
        let candidates: Vec<NodeId> = (0..topo.len() as u32).map(NodeId).collect();
        let plan = plan_for(plan_variant, &candidates);
        let config = base.with_faults(plan.clone());

        let params = WorkloadParams {
            groups: 6,
            members_per_group: 7,
            churn_updates: 40,
            sessions: 36,
            duration_s: 20.0,
            min_members: 2,
            max_members: 14,
            crash_detect_s: 10.0,
        };
        let workload = ServiceWorkload::random(&candidates, &params, &plan, workload_seed);

        let (name, fresh) = factory(mode);
        let mut engine = SessionEngine::with_service(
            &topo,
            &config,
            ServiceConfig { max_in_flight: capacity },
        );
        // One worker: one instance shared by every session.
        let run = engine.run_parallel(ParallelProtocol::PerWorker(&fresh), &workload, 1);
        prop_assert!(!run.outcomes.is_empty(), "workload produced no sessions");
        prop_assert_eq!(
            run.outcomes.len() + run.skipped_empty,
            workload.sessions.len()
        );

        // Solo replay: a fresh protocol and runner per session — any
        // difference is state leaked through the engine's sharing.
        let runner = TaskRunner::new(&topo, &config);
        for outcome in &run.outcomes {
            let mut solo = fresh();
            let report = runner.run_seeded(solo.as_mut(), &outcome.task, outcome.seed);
            prop_assert_eq!(
                &outcome.report,
                &report,
                "{} session {} (capacity {}, plan {}) diverged from solo",
                name,
                outcome.id,
                capacity,
                plan_variant
            );
        }

        // And the snapshot the engine took matches the engine-independent
        // resolution of the same workload.
        let resolved = workload.resolve_tasks();
        for outcome in &run.outcomes {
            prop_assert_eq!(
                Some(&outcome.task),
                resolved[outcome.id as usize].as_ref()
            );
        }
    }
}

proptest! {
    // Each case runs the full 1/2/4/8 worker axis plus 28 solo replays;
    // fewer cases keep the suite's wall clock in line with its siblings.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The worker-count axis: sharding the wheel across 1/2/4/8 workers
    /// (all GMP workers over one shared [`ConcurrentTreeCache`]) must not
    /// change a single bit of any session report relative to the solo
    /// replays, nor the aggregate failure/cause census — including under
    /// crash-fault plans, where a schedule leak would first surface as a
    /// shifted cause histogram.
    #[test]
    fn every_worker_count_matches_solo_runs_bit_for_bit(
        topo_seed in 0u64..4,
        workload_seed in 0u64..u64::MAX,
        plan_variant in 0usize..3,
        capacity in 1usize..32,
    ) {
        let base = SimConfig::paper().with_node_count(300);
        let topo = Topology::random(&base.topology_config(), topo_seed);
        let candidates: Vec<NodeId> = (0..topo.len() as u32).map(NodeId).collect();
        let plan = plan_for(plan_variant, &candidates);
        let config = base.with_faults(plan.clone());

        let params = WorkloadParams {
            groups: 6,
            members_per_group: 7,
            churn_updates: 40,
            sessions: 28,
            duration_s: 20.0,
            min_members: 2,
            max_members: 14,
            crash_detect_s: 10.0,
        };
        let workload = ServiceWorkload::random(&candidates, &params, &plan, workload_seed);

        let cache = Arc::new(ConcurrentTreeCache::with_config(CacheConfig::default()));
        let factory = {
            let cache = Arc::clone(&cache);
            move || {
                Box::new(GmpRouter::with_shared_cache(Arc::clone(&cache))) as Box<dyn Protocol>
            }
        };

        let runner = TaskRunner::new(&topo, &config);
        let mut reference: Option<ServiceRun> = None;
        for threads in [1usize, 2, 4, 8] {
            let mut engine = SessionEngine::with_service(
                &topo,
                &config,
                ServiceConfig { max_in_flight: capacity },
            );
            let run = engine.run_parallel(
                ParallelProtocol::PerWorker(&factory),
                &workload,
                threads,
            );
            prop_assert!(!run.outcomes.is_empty(), "workload produced no sessions");

            match &reference {
                None => {
                    // The 1-worker pass anchors the axis: solo-replay every
                    // session once, then require the other counts to match
                    // it bit for bit.
                    for outcome in &run.outcomes {
                        let mut solo = GmpRouter::new();
                        let report = runner.run_seeded(&mut solo, &outcome.task, outcome.seed);
                        prop_assert_eq!(
                            &outcome.report,
                            &report,
                            "session {} (capacity {}, plan {}) diverged from solo at 1 worker",
                            outcome.id,
                            capacity,
                            plan_variant
                        );
                    }
                    reference = Some(run);
                }
                Some(base_run) => {
                    prop_assert_eq!(run.outcomes.len(), base_run.outcomes.len());
                    prop_assert_eq!(run.skipped_empty, base_run.skipped_empty);
                    prop_assert_eq!(run.decisions, base_run.decisions);
                    for (a, b) in run.outcomes.iter().zip(&base_run.outcomes) {
                        prop_assert_eq!(a.id, b.id);
                        prop_assert_eq!(&a.task, &b.task);
                        prop_assert_eq!(a.seed, b.seed);
                        prop_assert_eq!(
                            &a.report,
                            &b.report,
                            "session {} (capacity {}, plan {}) diverged at {} workers",
                            a.id,
                            capacity,
                            plan_variant,
                            threads
                        );
                    }
                    prop_assert_eq!(
                        cause_census(&run),
                        cause_census(base_run),
                        "failure/cause census shifted at {} workers",
                        threads
                    );
                }
            }
        }
    }
}

/// Aggregate failure census of a run: sessions with any failed
/// destination, plus a per-cause destination count.
fn cause_census(run: &ServiceRun) -> (usize, BTreeMap<String, usize>) {
    let mut failed_sessions = 0usize;
    let mut by_cause = BTreeMap::new();
    for outcome in &run.outcomes {
        failed_sessions += usize::from(!outcome.report.failed_dests.is_empty());
        for failed in &outcome.report.failed_dests {
            *by_cause.entry(format!("{:?}", failed.cause)).or_insert(0) += 1;
        }
    }
    (failed_sessions, by_cause)
}
