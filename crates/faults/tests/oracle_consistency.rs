//! Oracle-consistency certificate, protocol-independent.
//!
//! The delivery-guarantee oracle (`FaultScratch::classify_failures`) is
//! the judge behind every robustness campaign and behind the MCFR/GVG
//! guarantee certificates, so its verdicts must themselves be checked
//! against an independent model. These proptests rebuild the
//! pessimistically-faulted reachability graph from the raw fault plan —
//! without touching the oracle's compiled state — and assert that a
//! failure is *justified* exactly when the destination is genuinely dead
//! or unreachable, for any topology, crash/blackout plan, Bernoulli
//! sample, recorded proximate cause, and pending set.

use gmp_faults::{FailedDest, FailureCause, FaultEvent, FaultPlan, FaultRegion, FaultScratch};
use gmp_geom::Point;
use gmp_net::topology::TopologyConfig;
use gmp_net::{NodeId, Topology};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The reference "ever down" set: Bernoulli deaths plus every node named
/// by a crash (any time — the oracle is pessimistic) or covered by a
/// blackout region. Mirrors the documented excision rule, not the
/// oracle's code.
fn reference_down(topo: &Topology, plan: &FaultPlan, bern_dead: &[bool]) -> Vec<bool> {
    let mut down = bern_dead.to_vec();
    for ev in &plan.events {
        match *ev {
            FaultEvent::Crash { node, .. } => {
                if node.index() < topo.len() {
                    down[node.index()] = true;
                }
            }
            FaultEvent::Blackout { region, .. } => {
                for (i, dead) in down.iter_mut().enumerate() {
                    if region.contains(topo.pos(NodeId(i as u32))) {
                        *dead = true;
                    }
                }
            }
            FaultEvent::DutyCycle { .. } | FaultEvent::LinkChurn { .. } => {}
        }
    }
    down
}

/// Reference reachability from `source` over the unit-disk graph minus
/// the down nodes (the source itself always counts as reached).
fn reference_reach(topo: &Topology, down: &[bool], source: NodeId) -> Vec<bool> {
    let mut reach = vec![false; topo.len()];
    reach[source.index()] = true;
    let mut stack = vec![source];
    while let Some(u) = stack.pop() {
        for &v in topo.neighbors(u) {
            if !reach[v.index()] && !down[v.index()] {
                reach[v.index()] = true;
                stack.push(v);
            }
        }
    }
    reach
}

/// A pending set drawn from `seed`. The oracle's search runs only for
/// live pending destinations and stops at the last one, so the sets span
/// every case: all nodes (the source included), a sparse sample, only
/// down nodes (no search at all), only reachable nodes (the search stops
/// at the last node it can reach), a single node, and none.
fn draw_pending(down: &[bool], reach: &[bool], seed: u64) -> Vec<bool> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = down.len();
    match seed % 6 {
        0 => vec![true; n],
        1 => (0..n).map(|_| rng.gen_bool(0.25)).collect(),
        2 => down.iter().map(|&d| d && rng.gen_bool(0.5)).collect(),
        3 => reach.to_vec(),
        4 => {
            let mut one = vec![false; n];
            one[rng.gen_range(0..n)] = true;
            one
        }
        _ => vec![false; n],
    }
}

/// Runs one plan through `begin_task` → `advance_to(end)` →
/// `classify_failures` for the `pending` set, exactly as the task runner
/// would at the end of a run. The scratch first judges the complementary
/// set, as a previous task would, so verdicts that leaned on stale search
/// state would show.
#[allow(clippy::too_many_arguments)]
fn classify(
    topo: &Topology,
    plan: &FaultPlan,
    source: NodeId,
    bern_dead: &[bool],
    pending: &[bool],
    drop_cause: &[FailureCause],
    truncated: bool,
) -> Vec<FailedDest> {
    let mut scratch = FaultScratch::new();
    let complement: Vec<bool> = pending.iter().map(|&p| !p).collect();
    let mut out = Vec::new();
    for set in [&complement[..], pending] {
        let mut alive: Vec<bool> = bern_dead.iter().map(|&d| !d).collect();
        if plan.has_events() {
            scratch.begin_task(plan, topo, source, &mut alive);
            scratch.advance_to(1e9, source, &mut alive);
        }
        out.clear();
        scratch.classify_failures(
            topo,
            source,
            plan.has_events(),
            &alive,
            set,
            drop_cause,
            truncated,
            &mut out,
        );
    }
    out
}

/// The pending destinations in ascending order: the oracle must return
/// exactly one verdict for each, in this order.
fn pending_dests(pending: &[bool]) -> Vec<NodeId> {
    (0..pending.len())
        .filter(|&i| pending[i])
        .map(|i| NodeId(i as u32))
        .collect()
}

/// The proximate causes the event loop can record for a drop.
const PROXIMATE: [FailureCause; 5] = [
    FailureCause::NoRoute,
    FailureCause::DeadNode,
    FailureCause::LinkLoss,
    FailureCause::Collision,
    FailureCause::HopCap,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Justified ⟺ genuinely dead or unreachable, for crash/blackout
    /// plans (no link churn, so the reference graph is exact).
    #[test]
    fn justified_iff_unreachable_under_crashes_and_blackouts(
        topo_seed in 0u64..1000,
        n in 12usize..50,
        crash_frac in 0.0f64..0.4,
        crash_seed in 0u64..1000,
        late_crash in proptest::bool::ANY,
        with_blackout in proptest::bool::ANY,
        blackout in (0.0f64..600.0, 0.0f64..600.0, 50.0f64..250.0),
        bern_seed in 0u64..1000,
        cause_seed in 0usize..1000,
        truncated in proptest::bool::ANY,
        pending_seed in 0u64..1000,
    ) {
        let topo = Topology::random(&TopologyConfig::new(600.0, n, 150.0), topo_seed);
        let source = NodeId((topo_seed % n as u64) as u32);

        // Crashes at t = 0 or mid-run — the oracle is equally pessimistic
        // about both.
        let crash_at = if late_crash { 1.5 } else { 0.0 };
        let mut plan = FaultPlan::random_crashes(n, crash_frac, crash_at, crash_seed);
        if with_blackout {
            let (x, y, r) = blackout;
            plan = plan.with_blackout(
                FaultRegion::Rect {
                    min: Point::new(x - r, y - r),
                    max: Point::new(x + r, y + r),
                },
                0.5,
                2.0,
            );
        }

        // A deterministic pseudo-Bernoulli sample, source exempt.
        let bern_dead: Vec<bool> = (0..n)
            .map(|i| {
                NodeId(i as u32) != source
                    && (i as u64).wrapping_mul(0x9E37_79B9).wrapping_add(bern_seed) % 7 == 0
            })
            .collect();
        let drop_cause: Vec<FailureCause> = (0..n)
            .map(|i| PROXIMATE[(i + cause_seed) % PROXIMATE.len()])
            .collect();

        let down = reference_down(&topo, &plan, &bern_dead);
        let reach = reference_reach(&topo, &down, source);
        let pending = draw_pending(&down, &reach, pending_seed);

        let out = classify(&topo, &plan, source, &bern_dead, &pending, &drop_cause, truncated);

        // One verdict per pending destination, in ascending order.
        let judged: Vec<NodeId> = out.iter().map(|f| f.dest).collect();
        prop_assert_eq!(judged, pending_dests(&pending));

        for f in &out {
            let i = f.dest.index();
            if down[i] {
                prop_assert_eq!(f.cause, FailureCause::DestDead, "dest {i} is down");
            } else if !reach[i] {
                prop_assert_eq!(f.cause, FailureCause::Disconnected, "dest {i} is cut off");
            } else if truncated && drop_cause[i] == FailureCause::NoRoute {
                prop_assert_eq!(f.cause, FailureCause::Truncated, "dest {i} unresolved at cap");
            } else {
                // Reachable: the oracle must pass the proximate cause
                // through untouched — a protocol failure.
                prop_assert_eq!(f.cause, drop_cause[i], "dest {i} is reachable");
            }
            // The headline equivalence: justified ⟺ genuinely impossible.
            prop_assert_eq!(
                f.is_justified(),
                down[i] || !reach[i],
                "dest {i}: verdict {:?} vs down={} reach={}",
                f.cause,
                down[i],
                reach[i]
            );
        }
    }

    /// With link churn the exact severed set lives inside the oracle, but
    /// two directions stay independently checkable: severing links never
    /// revives a node (DestDead is exact), and a destination unreachable
    /// even on the node-excised graph must be justified — removing links
    /// only shrinks reachability, so an unjustified verdict would be a
    /// soundness bug.
    #[test]
    fn churn_only_ever_shrinks_reachability(
        topo_seed in 0u64..500,
        n in 20usize..60,
        crash_frac in 0.0f64..0.3,
        churn_seed in 0u64..1000,
        truncated in proptest::bool::ANY,
        pending_seed in 0u64..1000,
    ) {
        let topo = Topology::random(&TopologyConfig::new(500.0, n, 150.0), topo_seed);
        let source = NodeId((topo_seed % n as u64) as u32);
        let plan = FaultPlan::random_crashes(n, crash_frac, 0.0, topo_seed)
            .with_link_churn(1.0, 30.0, (20.0, 40.0), (0.0, 0.5), churn_seed);

        let bern_dead = vec![false; n];
        let drop_cause = vec![FailureCause::NoRoute; n];
        let down = reference_down(&topo, &plan, &bern_dead);
        let reach = reference_reach(&topo, &down, source);
        let pending = draw_pending(&down, &reach, pending_seed);

        let out = classify(&topo, &plan, source, &bern_dead, &pending, &drop_cause, truncated);

        let judged: Vec<NodeId> = out.iter().map(|f| f.dest).collect();
        prop_assert_eq!(judged, pending_dests(&pending));
        for f in &out {
            let i = f.dest.index();
            prop_assert_eq!(f.cause == FailureCause::DestDead, down[i], "dest {i}");
            if !down[i] && !reach[i] {
                prop_assert!(
                    f.is_justified(),
                    "dest {i} unreachable without churn but verdict {:?}",
                    f.cause
                );
            }
        }
    }
}
