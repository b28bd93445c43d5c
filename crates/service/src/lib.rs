//! Concurrent multicast session service for the GMP reproduction.
//!
//! The paper's protocol is per-hop stateless: every forwarder rebuilds
//! its virtual Steiner tree from the packet alone, so a long-lived
//! multicast *service* — thousands of overlapping sessions against the
//! same deployment — needs no per-session router state at all. This
//! crate exploits that: a [`SessionEngine`] drives N in-flight sessions
//! interleaved over one shared [`gmp_net::Topology`], sharing the
//! decision cache and pooled scratch state across sessions, with group
//! membership arriving as a live seq-ordered [`MembershipUpdate`] stream
//! (wired to `gmp-faults` crash events by [`ServiceWorkload::random`]).
//! The paper leaves group management to other schemes; here one
//! [`MembershipSet`] per group replays that stream.
//!
//! Determinism is load-bearing: each session's report is bit-identical
//! to running that session alone — see the `service_parity` suite in
//! `gmp-bench` and the module docs of [`engine`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod engine;
pub mod membership;
pub mod workload;

pub use engine::{ParallelProtocol, ServiceConfig, ServiceRun, SessionEngine, SessionOutcome};
pub use membership::{GroupId, MembershipAction, MembershipSet, MembershipUpdate};
pub use workload::{
    GroupSpec, MembershipClock, ServiceWorkload, SessionSpec, TimedUpdate, WorkloadParams,
};

#[cfg(test)]
mod tests {
    use super::*;
    use gmp_core::{CacheConfig, ConcurrentTreeCache, GmpRouter};
    use gmp_faults::FaultPlan;
    use gmp_net::{NodeId, Topology, TopologyConfig};
    use gmp_sim::{Protocol, SimConfig, TaskRunner};
    use std::sync::Arc;

    /// A fresh `GmpRouter` with its own cache, one per worker.
    fn gmp() -> Box<dyn Protocol> {
        Box::new(GmpRouter::default())
    }

    /// Hands each worker a `GmpRouter` over `cache`.
    fn over(cache: &Arc<ConcurrentTreeCache>) -> impl Fn() -> Box<dyn Protocol> + Sync {
        let cache = Arc::clone(cache);
        move || Box::new(GmpRouter::with_shared_cache(Arc::clone(&cache))) as Box<dyn Protocol>
    }

    fn shared_cache() -> Arc<ConcurrentTreeCache> {
        Arc::new(ConcurrentTreeCache::with_config(CacheConfig::default()))
    }

    fn paper_setup() -> (Topology, SimConfig) {
        let config = SimConfig::paper();
        let topo = Topology::random(&TopologyConfig::new(800.0, 400, config.radio_range), 9);
        (topo, config)
    }

    fn workload(topo: &Topology, sessions: usize, seed: u64) -> ServiceWorkload {
        let candidates: Vec<NodeId> = (0..topo.len() as u32).map(NodeId).collect();
        let params = WorkloadParams {
            groups: 8,
            members_per_group: 8,
            churn_updates: 60,
            sessions,
            duration_s: 30.0,
            min_members: 2,
            max_members: 20,
            crash_detect_s: 15.0,
        };
        let plan = FaultPlan::none()
            .with_crash(NodeId(5), 0.0)
            .with_crash(NodeId(17), 0.0);
        ServiceWorkload::random(&candidates, &params, &plan, seed)
    }

    #[test]
    fn engine_is_deterministic_across_runs() {
        let (topo, config) = paper_setup();
        let w = workload(&topo, 64, 21);
        // One cache across both runs, so the second runs warm.
        let factory = over(&shared_cache());
        let mut engine = SessionEngine::new(&topo, &config);
        let a = engine.run_parallel(ParallelProtocol::PerWorker(&factory), &w, 1);
        let b = engine.run_parallel(ParallelProtocol::PerWorker(&factory), &w, 1);
        assert_eq!(a.outcomes.len(), b.outcomes.len());
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.task, y.task);
            assert_eq!(x.report, y.report, "session {} diverged across runs", x.id);
        }
        assert_eq!(a.skipped_empty, b.skipped_empty);
        assert_eq!(a.decisions, b.decisions);
    }

    #[test]
    fn concurrent_reports_match_solo_runs() {
        let (topo, config) = paper_setup();
        let w = workload(&topo, 48, 33);
        let mut engine =
            SessionEngine::with_service(&topo, &config, ServiceConfig { max_in_flight: 7 });
        let run = engine.run_parallel(ParallelProtocol::PerWorker(&gmp), &w, 1);
        assert!(!run.outcomes.is_empty());

        let runner = TaskRunner::new(&topo, &config);
        for outcome in &run.outcomes {
            let mut solo = GmpRouter::default();
            let report = runner.run_seeded(&mut solo, &outcome.task, outcome.seed);
            assert_eq!(
                outcome.report, report,
                "session {} diverged from its solo run",
                outcome.id
            );
        }
    }

    #[test]
    fn tasks_match_workload_resolution() {
        let (topo, config) = paper_setup();
        let w = workload(&topo, 40, 5);
        let resolved = w.resolve_tasks();
        let mut engine = SessionEngine::new(&topo, &config);
        let run = engine.run_parallel(ParallelProtocol::PerWorker(&gmp), &w, 1);
        let expected_some = resolved.iter().flatten().count();
        assert_eq!(run.outcomes.len(), expected_some);
        assert_eq!(run.skipped_empty, resolved.len() - expected_some);
        for outcome in &run.outcomes {
            assert_eq!(
                Some(&outcome.task),
                resolved[outcome.id as usize].as_ref(),
                "session {} snapshot diverged from resolve_tasks",
                outcome.id
            );
        }
    }

    #[test]
    fn scratch_pool_reaches_steady_state() {
        let (topo, config) = paper_setup();
        let w = workload(&topo, 32, 2);
        let mut engine =
            SessionEngine::with_service(&topo, &config, ServiceConfig { max_in_flight: 4 });
        let first = engine.run_parallel(ParallelProtocol::PerWorker(&gmp), &w, 1);
        // At most 4 scratches ever exist; everything past the warm-up
        // reuses one.
        assert!(engine.pooled_scratches() <= 4);
        assert!(first.scratch_reuses >= first.outcomes.len().saturating_sub(4));
        // A warmed engine allocates no new scratches at all.
        let second = engine.run_parallel(ParallelProtocol::PerWorker(&gmp), &w, 1);
        assert_eq!(second.scratch_reuses, second.outcomes.len());
    }

    #[test]
    fn parallel_matches_sequential_engine_across_thread_counts() {
        let (topo, config) = paper_setup();
        let w = workload(&topo, 48, 33);
        // The reference: one worker, one router with a private cache.
        let mut engine = SessionEngine::new(&topo, &config);
        let reference = engine.run_parallel(ParallelProtocol::PerWorker(&gmp), &w, 1);
        assert!(!reference.outcomes.is_empty());

        let shared = shared_cache();
        let factory = over(&shared);
        for threads in [1usize, 2, 4, 8] {
            let mut par_engine = SessionEngine::new(&topo, &config);
            let run = par_engine.run_parallel(ParallelProtocol::PerWorker(&factory), &w, threads);
            assert_eq!(
                run.outcomes.len(),
                reference.outcomes.len(),
                "{threads} workers"
            );
            assert_eq!(run.skipped_empty, reference.skipped_empty);
            assert_eq!(run.decisions, reference.decisions);
            for (a, b) in run.outcomes.iter().zip(&reference.outcomes) {
                assert_eq!(a.id, b.id, "{threads} workers");
                assert_eq!(a.task, b.task, "{threads} workers");
                assert_eq!(
                    a.report, b.report,
                    "session {} diverged at {} workers",
                    a.id, threads
                );
            }
        }
        assert!(shared.stats().hits > 0, "workers must share warm decisions");
    }

    #[test]
    fn parallel_pool_stays_warm_across_runs() {
        let (topo, config) = paper_setup();
        let w = workload(&topo, 32, 2);
        let mut engine =
            SessionEngine::with_service(&topo, &config, ServiceConfig { max_in_flight: 8 });
        engine.run_parallel(ParallelProtocol::PerWorker(&gmp), &w, 4);
        let pooled = engine.pooled_scratches();
        assert!(pooled >= 1, "workers must return scratches to the pool");
        assert!(pooled <= 8, "pool bounded by the admission budget");
        // A warmed engine re-run at the same worker count allocates no
        // new scratches: every admission reuses a pooled one.
        let second = engine.run_parallel(ParallelProtocol::PerWorker(&gmp), &w, 4);
        assert_eq!(second.scratch_reuses, second.outcomes.len());
        assert_eq!(engine.pooled_scratches(), pooled);
    }

    #[test]
    fn capacity_one_serializes_without_changing_outcomes() {
        let (topo, config) = paper_setup();
        let w = workload(&topo, 24, 77);
        let mut wide = SessionEngine::new(&topo, &config);
        let a = wide.run_parallel(ParallelProtocol::PerWorker(&gmp), &w, 1);
        let mut narrow =
            SessionEngine::with_service(&topo, &config, ServiceConfig { max_in_flight: 1 });
        let b = narrow.run_parallel(ParallelProtocol::PerWorker(&gmp), &w, 1);
        assert_eq!(a.outcomes.len(), b.outcomes.len());
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(x.report, y.report);
        }
    }
}
