//! The delivery-guarantee certificate for MCFR and GVG.
//!
//! The claim these protocols ship with — greedy-face-greedy on the live
//! planar subgraph delivers to every reachable destination — is
//! machine-checked here rather than argued in prose. The certificate
//! proptest throws randomized topologies (uniform, circle-void, and
//! rect-void generators), destination sets, and fault plans (t = 0
//! crashes, random or of every node in a region) at both protocols and
//! asserts,
//! against the BFS ground-truth oracle, that **every** failed destination
//! is justified (dead or graph-disconnected) and that no run hides
//! behind a truncated hop/event budget. The oracle itself is
//! independently certified by `gmp-faults`' `oracle_consistency` suite,
//! so the two test layers close the loop: the judge is checked, then the
//! protocols are checked against the judge.
//!
//! The remaining tests pin the properties the campaigns lean on:
//! bit-identical reports across repeat runs (scratch reuse is pure), an
//! inert timed crash flipping the runner into liveness-mask mode without
//! changing a single bit (the live-filtered planarization parity
//! contract), and session-engine runs matching solo replays (MCFR/GVG
//! are safe to multiplex).

use gmp_baselines::{GvgRouter, McfrRouter};
use gmp_geom::Point;
use gmp_net::topology::{Hole, Topology, TopologyConfig};
use gmp_net::NodeId;
use gmp_service::{EngineProtocol, ServiceConfig, ServiceWorkload, SessionEngine, WorkloadParams};
use gmp_sim::{FaultPlan, MulticastTask, Protocol, SimConfig, TaskRunner};
use proptest::prelude::*;

const SIDE: f64 = 800.0;

/// Fresh router for one of the two guaranteed-delivery protocols.
fn guaranteed(proto: usize) -> Box<dyn Protocol> {
    if proto == 0 {
        Box::new(McfrRouter::new())
    } else {
        Box::new(GvgRouter::new())
    }
}

/// Topology generator: uniform, circle void, or rect void.
fn make_topology(shape: usize, n: usize, seed: u64) -> Topology {
    let mut config = TopologyConfig::new(SIDE, n, 150.0);
    config = match shape {
        0 => config,
        1 => config.with_hole(Hole::Circle {
            center: Point::new(SIDE / 2.0, SIDE / 2.0),
            radius: 190.0,
        }),
        _ => config.with_hole(Hole::Rect(gmp_geom::Aabb::new(
            Point::new(200.0, 250.0),
            Point::new(600.0, 550.0),
        ))),
    };
    Topology::random(&config, seed)
}

/// Fault generator: none, random t = 0 crashes, or a from-start
/// blackout: the t = 0 crash of every node in a rectangle.
fn make_plan(fault: usize, topo: &Topology, crash_frac: f64, seed: u64) -> FaultPlan {
    match fault {
        0 => FaultPlan::none(),
        1 => FaultPlan::random_crashes(topo.len(), crash_frac, 0.0, seed),
        _ => (0..topo.len() as u32)
            .map(NodeId)
            .filter(|&node| {
                let p = topo.pos(node);
                (0.0..=350.0).contains(&p.x) && (300.0..=800.0).contains(&p.y)
            })
            .fold(FaultPlan::none(), |plan, node| plan.with_crash(node, 0.0)),
    }
}

/// A generous budget: FACE-1 void detours are long but finite, and the
/// certificate is meaningless if the runner truncates a walk — which is
/// why `truncated` is asserted false in every case.
fn certificate_config(n: usize, plan: FaultPlan) -> SimConfig {
    let mut config = SimConfig::paper()
        .with_area_side(SIDE)
        .with_node_count(n)
        .with_max_path_hops(20_000)
        .with_faults(plan);
    config.max_events = 2_000_000;
    config
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The guarantee certificate: zero unjustified failures, no budget
    /// truncation, and bit-identical repeat runs, for both protocols on
    /// any generated topology/workload/fault combination.
    #[test]
    fn mcfr_and_gvg_never_fail_unjustified(
        topo_seed in 0u64..10_000,
        shape in 0usize..3,
        n in 120usize..260,
        k in 2usize..9,
        task_seed in 0u64..10_000,
        fault in 0usize..3,
        crash_frac in 0.0f64..0.3,
        crash_seed in 0u64..10_000,
    ) {
        let topo = make_topology(shape, n, topo_seed);
        let plan = make_plan(fault, &topo, crash_frac, crash_seed);
        let config = certificate_config(n, plan);
        let task = MulticastTask::random(&topo, k.min(topo.len() - 1), task_seed);
        let runner = TaskRunner::new(&topo, &config);

        for proto in 0..2usize {
            let mut router = guaranteed(proto);
            let report = runner.run(router.as_mut(), &task);
            prop_assert!(
                !report.truncated,
                "{} hit the hop/event budget (shape {shape}, fault {fault})",
                router.name()
            );
            let unjustified: Vec<_> = report.unjustified_failures().collect();
            prop_assert!(
                unjustified.is_empty(),
                "{} failed unjustified: {:?} (shape {shape}, fault {fault}, n {n})",
                router.name(),
                unjustified
            );
            // Determinism: the same router instance must reproduce the
            // report bit for bit — scratch reuse carries no state.
            let again = runner.run(router.as_mut(), &task);
            prop_assert_eq!(&report, &again, "{} is not deterministic", router.name());
        }
    }
}

/// A timed crash aimed past the topology compiles to nothing, but its
/// presence flips the runner into liveness-mask mode (`ctx.alive` becomes
/// `Some(all-true)`). The reports must not move by a single bit: this
/// pins the contract that the live-filtered planarization and greedy
/// filters are bit-identical to their unfiltered (cached) counterparts
/// when every node is alive.
#[test]
fn inert_timed_event_changes_nothing() {
    for topo_seed in 0..3u64 {
        let topo = make_topology(topo_seed as usize % 3, 220, topo_seed);
        let task = MulticastTask::random(&topo, 8, 7 + topo_seed);
        let plain = certificate_config(220, FaultPlan::none());
        let inert = certificate_config(
            220,
            FaultPlan::none().with_crash(NodeId(topo.len() as u32), 5.0),
        );
        for proto in 0..2usize {
            let mut a = guaranteed(proto);
            let mut b = guaranteed(proto);
            let without = TaskRunner::new(&topo, &plain).run(a.as_mut(), &task);
            let with = TaskRunner::new(&topo, &inert).run(b.as_mut(), &task);
            assert_eq!(
                without,
                with,
                "{} diverged under an inert fault plan (seed {topo_seed})",
                a.name()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// MCFR/GVG keep their decisions pure under the concurrent session
    /// engine: every interleaved session's report is bit-identical to a
    /// solo replay, and the guarantee holds across the whole run.
    #[test]
    fn guaranteed_protocols_survive_the_session_engine(
        topo_seed in 0u64..4,
        workload_seed in 0u64..u64::MAX,
        proto in 0usize..2,
        capacity in 1usize..32,
    ) {
        let base = SimConfig::paper()
            .with_node_count(300)
            .with_max_path_hops(4000);
        let topo = Topology::random(&base.topology_config(), topo_seed);
        let candidates: Vec<NodeId> = (0..topo.len() as u32).map(NodeId).collect();
        // t = 0 crashes on a stride: the protocol's liveness view matches
        // the oracle's pessimistic graph, so the guarantee must hold.
        let mut plan = FaultPlan::none();
        for &node in candidates.iter().step_by(37).take(8) {
            plan = plan.with_crash(node, 0.0);
        }
        let config = base.with_faults(plan.clone());

        let params = WorkloadParams {
            groups: 5,
            members_per_group: 6,
            churn_updates: 30,
            sessions: 24,
            duration_s: 20.0,
            min_members: 2,
            max_members: 12,
            crash_detect_s: 10.0,
        };
        let workload = ServiceWorkload::random(&candidates, &params, &plan, workload_seed);

        let mut engine = SessionEngine::with_service(
            &topo,
            &config,
            ServiceConfig { max_in_flight: capacity },
        );
        let mut shared = guaranteed(proto);
        let run = engine.run(EngineProtocol::Shared(shared.as_mut()), &workload);
        prop_assert!(!run.outcomes.is_empty(), "workload produced no sessions");

        let runner = TaskRunner::new(&topo, &config);
        for outcome in &run.outcomes {
            prop_assert_eq!(
                outcome.report.unjustified_failures().count(),
                0,
                "{} session {} failed unjustified: {:?}",
                shared.name(),
                outcome.id,
                outcome.report.failed_dests
            );
            prop_assert!(!outcome.report.truncated);
            let mut solo = guaranteed(proto);
            let report = runner.run_seeded(solo.as_mut(), &outcome.task, outcome.seed);
            prop_assert_eq!(
                &outcome.report,
                &report,
                "{} session {} diverged from solo (capacity {})",
                shared.name(),
                outcome.id,
                capacity
            );
        }
    }
}
