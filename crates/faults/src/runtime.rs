//! Plan compilation, the per-task liveness timeline, and the
//! delivery-guarantee oracle.

use gmp_net::{NodeId, Topology};

use crate::cause::{FailedDest, FailureCause};
use crate::plan::{Crash, FaultPlan};

/// A [`FaultPlan`]'s crashes compiled against one topology: the crashes
/// in time order, and every node one of them kills, for the oracle.
#[derive(Debug, Default)]
struct CompiledPlan {
    /// Crashes of nodes in the topology, sorted by time (ties broken by
    /// node id).
    crashes: Vec<Crash>,
    /// Nodes that crash at any point of the run — the oracle's
    /// pessimistic liveness mask.
    ever_down: Vec<bool>,
}

impl CompiledPlan {
    fn compile(&mut self, plan: &FaultPlan, topo: &Topology) {
        // Plans may be written for a larger network; crashes aimed past
        // the topology are inert.
        self.crashes.clear();
        self.crashes
            .extend(plan.crashes.iter().filter(|c| c.node.index() < topo.len()));
        self.crashes
            .sort_by(|a, b| a.at_s.total_cmp(&b.at_s).then(a.node.cmp(&b.node)));
        self.ever_down.clear();
        self.ever_down.resize(topo.len(), false);
        for crash in &self.crashes {
            self.ever_down[crash.node.index()] = true;
        }
    }
}

/// Reusable per-task fault state: owns the compiled plan, walks the
/// crash timeline as simulated time advances, and runs the post-task
/// oracle.
///
/// The compiled plan is reused for as long as tasks bring an equal plan
/// against the same topology: the plan is compared by value against a
/// retained copy and the topology by its [`Topology::id`], so recognising
/// a compiled pair hashes nothing and is exact.
///
/// The runner embeds one of these in its `SimScratch`; all methods are
/// allocation-free after the first task against a given plan/topology.
#[derive(Debug, Default)]
pub struct FaultScratch {
    compiled: CompiledPlan,
    /// The plan `compiled` was built from.
    compiled_plan: FaultPlan,
    /// Id of the topology `compiled` was built against; `None` until the
    /// first compile.
    compiled_topo: Option<u64>,
    /// Next crash to apply (index into `compiled.crashes`).
    cursor: usize,
    /// Oracle search state.
    reach: Vec<bool>,
    stack: Vec<u32>,
}

impl FaultScratch {
    /// A fresh scratch with no compiled plan.
    pub fn new() -> Self {
        FaultScratch::default()
    }

    /// Prepares the timeline for one task: compiles `plan` against
    /// `topo` unless the last compile was of an equal plan against this
    /// same topology, and applies the crashes at `t = 0` to `alive`. The
    /// task `source` is exempt from node faults.
    ///
    /// A plan holding a NaN never equals its copy, so it recompiles on
    /// every task — slower, never wrong.
    ///
    /// Only meaningful when `plan.has_crashes()`; the runner skips the
    /// call (and every other timeline query) otherwise.
    pub fn begin_task(
        &mut self,
        plan: &FaultPlan,
        topo: &Topology,
        source: NodeId,
        alive: &mut [bool],
    ) {
        if self.compiled_topo != Some(topo.id()) || self.compiled_plan != *plan {
            self.compiled.compile(plan, topo);
            self.compiled_plan.clone_from(plan);
            self.compiled_topo = Some(topo.id());
        }
        self.cursor = 0;
        self.advance_to(0.0, source, alive);
    }

    /// Applies every crash at or before `now` to `alive`. Amortized O(1)
    /// per event-loop iteration (a cursor over the sorted crash list).
    pub fn advance_to(&mut self, now: f64, source: NodeId, alive: &mut [bool]) {
        while let Some(crash) = self.compiled.crashes.get(self.cursor) {
            if crash.at_s > now {
                break;
            }
            if crash.node != source {
                alive[crash.node.index()] = false;
            }
            self.cursor += 1;
        }
    }

    /// The delivery-guarantee oracle.
    ///
    /// Classifies every still-`pending` destination against ground-truth
    /// reachability from `source` on the faulted connectivity graph —
    /// nodes that were ever down (Bernoulli or crash) are removed:
    ///
    /// - dead destination → [`FailureCause::DestDead`] (justified);
    /// - unreachable destination → [`FailureCause::Disconnected`]
    ///   (justified);
    /// - reachable but undelivered → the proximate cause the event loop
    ///   recorded in `drop_cause` (a **protocol failure**), upgraded to
    ///   [`FailureCause::Truncated`] when the run hit the event cap and
    ///   no drop was recorded.
    ///
    /// Only live pending destinations other than the source (which is
    /// reached from the start) read reachability, so the search runs
    /// only while some of them remain unreached and stops at the last
    /// one. A task whose failures are all dead nodes searches nothing;
    /// the cost follows the pending destinations, not the network.
    ///
    /// The graph excision is pessimistic (a node that crashes at *any*
    /// point of the run is removed for the whole run), so a
    /// `Disconnected` verdict may excuse a failure a lucky protocol could
    /// have dodged — but a *protocol failure* verdict is always sound: the
    /// destination was reachable the entire run.
    ///
    /// Results are appended to `out` in ascending destination order.
    #[allow(clippy::too_many_arguments)]
    pub fn classify_failures(
        &mut self,
        topo: &Topology,
        source: NodeId,
        has_crashes: bool,
        alive: &[bool],
        pending: &[bool],
        drop_cause: &[FailureCause],
        truncated: bool,
        out: &mut Vec<FailedDest>,
    ) {
        // Nothing revives a node, so `alive` still holds every Bernoulli
        // death; the compiled mask adds the crashes the run did not reach.
        let node_down = |i: usize| !alive[i] || (has_crashes && self.compiled.ever_down[i]);
        let mut unreached = (0..pending.len())
            .filter(|&i| pending[i] && i != source.index() && !node_down(i))
            .count();

        if unreached > 0 {
            self.reach.clear();
            self.reach.resize(topo.len(), false);
            self.stack.clear();
            self.reach[source.index()] = true;
            self.stack.push(source.0);
            'search: while let Some(u) = self.stack.pop() {
                for &v in topo.neighbors(NodeId(u)) {
                    if self.reach[v.index()] || node_down(v.index()) {
                        continue;
                    }
                    self.reach[v.index()] = true;
                    if pending[v.index()] {
                        unreached -= 1;
                        if unreached == 0 {
                            break 'search;
                        }
                    }
                    self.stack.push(v.0);
                }
            }
        }

        for (i, &p) in pending.iter().enumerate() {
            if !p {
                continue;
            }
            // Only the destinations counted above read `reach`; it is
            // stale or empty when no search ran.
            let cause = if node_down(i) {
                FailureCause::DestDead
            } else if i != source.index() && !self.reach[i] {
                FailureCause::Disconnected
            } else if truncated && drop_cause[i] == FailureCause::NoRoute {
                FailureCause::Truncated
            } else {
                drop_cause[i]
            };
            out.push(FailedDest::new(NodeId(i as u32), cause));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmp_geom::{Aabb, Point};

    /// A 5-node line 0–1–2–3 plus an island at index 4.
    fn line_with_island() -> Topology {
        let positions = vec![
            Point::new(0.0, 0.0),
            Point::new(100.0, 0.0),
            Point::new(200.0, 0.0),
            Point::new(300.0, 0.0),
            Point::new(2000.0, 2000.0),
        ];
        Topology::from_positions(positions, Aabb::square(3000.0), 150.0)
    }

    fn classify(
        scratch: &mut FaultScratch,
        topo: &Topology,
        has_crashes: bool,
        alive: &[bool],
        pending: &[bool],
        truncated: bool,
    ) -> Vec<FailedDest> {
        let drop_cause = vec![FailureCause::NoRoute; topo.len()];
        let mut out = Vec::new();
        scratch.classify_failures(
            topo,
            NodeId(0),
            has_crashes,
            alive,
            pending,
            &drop_cause,
            truncated,
            &mut out,
        );
        out
    }

    #[test]
    fn oracle_justifies_disconnected_island() {
        let topo = line_with_island();
        let mut scratch = FaultScratch::new();
        let alive = vec![true; 5];
        let mut pending = vec![false; 5];
        pending[3] = true;
        pending[4] = true;
        let out = classify(&mut scratch, &topo, false, &alive, &pending, false);
        assert_eq!(
            out,
            vec![
                FailedDest::new(NodeId(3), FailureCause::NoRoute),
                FailedDest::new(NodeId(4), FailureCause::Disconnected),
            ]
        );
        assert!(
            !out[0].is_justified(),
            "reachable dest is a protocol failure"
        );
        assert!(out[1].is_justified());
    }

    #[test]
    fn oracle_blames_dead_relays_on_the_fault_model() {
        let topo = line_with_island();
        let mut scratch = FaultScratch::new();
        // Node 1 dead (Bernoulli path): 2 and 3 become unreachable, and 1
        // itself is DestDead.
        let alive = vec![true, false, true, true, true];
        let pending = vec![false, true, true, true, false];
        let out = classify(&mut scratch, &topo, false, &alive, &pending, false);
        assert_eq!(
            out,
            vec![
                FailedDest::new(NodeId(1), FailureCause::DestDead),
                FailedDest::new(NodeId(2), FailureCause::Disconnected),
                FailedDest::new(NodeId(3), FailureCause::Disconnected),
            ]
        );
    }

    #[test]
    fn oracle_upgrades_unrecorded_drops_to_truncated() {
        let topo = line_with_island();
        let mut scratch = FaultScratch::new();
        let alive = vec![true; 5];
        let mut pending = vec![false; 5];
        pending[2] = true;
        let out = classify(&mut scratch, &topo, false, &alive, &pending, true);
        assert_eq!(
            out,
            vec![FailedDest::new(NodeId(2), FailureCause::Truncated)]
        );
    }

    #[test]
    fn crash_timeline_applies_in_order_and_spares_the_source() {
        let topo = line_with_island();
        let plan = FaultPlan::none()
            .with_crash(NodeId(0), 0.0)
            .with_crash(NodeId(2), 1.0)
            .with_crash(NodeId(1), 5.0);
        let mut scratch = FaultScratch::new();
        // Bernoulli already killed the island node.
        let mut alive = vec![true, true, true, true, false];
        scratch.begin_task(&plan, &topo, NodeId(0), &mut alive);
        assert!(alive[0], "source exempt from its own crash");
        assert!(alive[2], "future crash not yet applied");
        scratch.advance_to(0.5, NodeId(0), &mut alive);
        assert!(alive[2]);
        scratch.advance_to(1.0, NodeId(0), &mut alive);
        assert!(!alive[2], "crash at t=1 applied");
        assert!(alive[1], "crash at t=5 not yet applied");
        // The oracle sees every crash as permanent, the one the run ended
        // before included, and keeps the Bernoulli death.
        let pending = vec![false, true, true, true, true];
        let out = classify(&mut scratch, &topo, true, &alive, &pending, false);
        assert_eq!(
            out,
            vec![
                FailedDest::new(NodeId(1), FailureCause::DestDead),
                FailedDest::new(NodeId(2), FailureCause::DestDead),
                FailedDest::new(NodeId(3), FailureCause::Disconnected),
                FailedDest::new(NodeId(4), FailureCause::DestDead),
            ]
        );
    }

    #[test]
    fn oracle_searches_only_for_live_pending_destinations() {
        let topo = line_with_island();
        let mut scratch = FaultScratch::new();
        // Every failure is a dead node (the source's own entry reads no
        // reachability either): no search at all.
        let alive = vec![true, false, true, false, true];
        let pending = vec![true, true, false, true, false];
        let out = classify(&mut scratch, &topo, false, &alive, &pending, false);
        assert_eq!(
            out,
            vec![
                FailedDest::new(NodeId(0), FailureCause::NoRoute),
                FailedDest::new(NodeId(1), FailureCause::DestDead),
                FailedDest::new(NodeId(3), FailureCause::DestDead),
            ]
        );
        assert!(scratch.reach.is_empty(), "no live pending dest, no search");
        // The search stops at the last live pending destination.
        let alive = vec![true; 5];
        let pending = vec![false, true, false, false, false];
        let out = classify(&mut scratch, &topo, false, &alive, &pending, false);
        assert_eq!(out, vec![FailedDest::new(NodeId(1), FailureCause::NoRoute)]);
        assert!(scratch.reach[1]);
        assert!(!scratch.reach[2], "nothing searched past node 1");
    }

    /// Marks the scratch's compiled plan with a crash of the island node,
    /// which no plan in these tests has, so a recompile is visible as the
    /// mark vanishing.
    fn mark_compiled(scratch: &mut FaultScratch) {
        scratch.compiled.ever_down[4] = true;
    }

    fn marked(scratch: &FaultScratch) -> bool {
        scratch.compiled.ever_down[4]
    }

    #[test]
    fn compiled_plan_is_cached_across_tasks() {
        let topo = line_with_island();
        let plan = FaultPlan::none().with_crash(NodeId(2), 1.0);
        let mut scratch = FaultScratch::new();
        let mut alive = vec![true; 5];
        scratch.begin_task(&plan, &topo, NodeId(0), &mut alive);
        mark_compiled(&mut scratch);
        scratch.advance_to(5.0, NodeId(0), &mut alive);
        alive.iter_mut().for_each(|a| *a = true);
        scratch.begin_task(&plan, &topo, NodeId(0), &mut alive);
        assert!(marked(&scratch), "same plan reuses the compiled plan");
        assert_eq!(scratch.cursor, 0, "timeline rewinds per task");
        let rebuilt = FaultPlan::none().with_crash(NodeId(2), 1.0);
        scratch.begin_task(&rebuilt, &topo, NodeId(0), &mut alive);
        assert!(
            marked(&scratch),
            "an equal plan, built separately, reuses it"
        );
        scratch.begin_task(&rebuilt, &line_with_island(), NodeId(0), &mut alive);
        assert!(
            !marked(&scratch),
            "an equal plan on an equal topology, both built separately, recompiles"
        );
        scratch.begin_task(&plan, &topo, NodeId(0), &mut alive);
        mark_compiled(&mut scratch);
        let other = plan.clone().with_crash(NodeId(3), 2.0);
        scratch.begin_task(&other, &topo, NodeId(0), &mut alive);
        assert!(!marked(&scratch), "different plan recompiles");
        mark_compiled(&mut scratch);
        let moved = Topology::from_positions(topo.positions(), Aabb::square(3000.0), 160.0);
        scratch.begin_task(&other, &moved, NodeId(0), &mut alive);
        assert!(!marked(&scratch), "different topology recompiles");
    }
}
