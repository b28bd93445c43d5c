//! Plan compilation, the per-task liveness timeline, and the
//! delivery-guarantee oracle.

use gmp_net::mobility::RandomWaypoint;
use gmp_net::{NodeId, Topology};

use crate::cause::{FailedDest, FailureCause};
use crate::plan::{FaultEvent, FaultPlan, FaultRegion};

/// A liveness flip compiled from a crash or blackout edge.
#[derive(Debug, Clone, Copy)]
struct Transition {
    time: f64,
    node: u32,
    up: bool,
}

/// One link-churn episode, compiled to the set of severed directed links.
#[derive(Debug, Clone)]
struct ChurnWindow {
    start_s: f64,
    end_s: f64,
    /// Severed directed links as `(from << 32) | to`, sorted.
    severed: Vec<u64>,
}

/// A duty-cycle schedule, pre-multiplied to (period, awake window).
#[derive(Debug, Clone, Copy)]
struct Duty {
    period_s: f64,
    on_s: f64,
}

/// A [`FaultPlan`] compiled against one topology: timed events lowered to
/// sorted liveness transitions, per-node blackout membership resolved,
/// and churn episodes expanded to explicit severed-link sets.
#[derive(Debug, Default)]
struct CompiledPlan {
    /// Nodes down at `t = 0` (crashes/blackouts starting at zero).
    down_at_start: Vec<bool>,
    /// Nodes down at *any* point of the run from a permanent-style fault
    /// (crash or blackout) — the oracle's pessimistic liveness mask.
    /// Duty-cycle sleep is deliberately excluded: it is transient, so
    /// failures under it count against the protocol.
    ever_down: Vec<bool>,
    /// Liveness flips sorted by time (ties broken by node id).
    transitions: Vec<Transition>,
    /// Duty-cycle schedules (inert `on_fraction = 1` entries dropped).
    duty: Vec<Duty>,
    /// Link-churn episodes sorted by start time.
    churn: Vec<ChurnWindow>,
    /// Union of all episodes' severed links, sorted — the oracle excludes
    /// these edges from the reachability graph.
    ever_severed: Vec<u64>,
}

/// Golden-ratio fractional part: decorrelates per-node duty phases
/// without consuming any RNG.
const PHASE_STRIDE: f64 = 0.618_033_988_749_894_9;

fn link_key(from: NodeId, to: NodeId) -> u64 {
    ((from.0 as u64) << 32) | to.0 as u64
}

impl CompiledPlan {
    fn compile(&mut self, plan: &FaultPlan, topo: &Topology) {
        let n = topo.len();
        self.down_at_start.clear();
        self.down_at_start.resize(n, false);
        self.ever_down.clear();
        self.ever_down.resize(n, false);
        self.transitions.clear();
        self.duty.clear();
        self.churn.clear();
        self.ever_severed.clear();

        for ev in &plan.events {
            match *ev {
                FaultEvent::Crash { node, at_s } => {
                    // Plans may be written for a larger network; crashes
                    // aimed past the topology are inert.
                    if node.index() >= n {
                        continue;
                    }
                    if at_s <= 0.0 {
                        self.down_at_start[node.index()] = true;
                    } else {
                        self.transitions.push(Transition {
                            time: at_s,
                            node: node.0,
                            up: false,
                        });
                    }
                    self.ever_down[node.index()] = true;
                }
                FaultEvent::Blackout {
                    region,
                    start_s,
                    end_s,
                } => self.compile_blackout(topo, region, start_s, end_s),
                FaultEvent::DutyCycle {
                    period_s,
                    on_fraction,
                } => {
                    if on_fraction < 1.0 {
                        self.duty.push(Duty {
                            period_s,
                            on_s: on_fraction * period_s,
                        });
                    }
                }
                FaultEvent::LinkChurn {
                    start_s,
                    end_s,
                    speed_mps,
                    pause_s,
                    seed,
                } => self.compile_churn(topo, start_s, end_s, speed_mps, pause_s, seed),
            }
        }

        self.transitions
            .sort_by(|a, b| a.time.total_cmp(&b.time).then(a.node.cmp(&b.node)));
        self.churn.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
        self.ever_severed.sort_unstable();
        self.ever_severed.dedup();
    }

    fn compile_blackout(&mut self, topo: &Topology, region: FaultRegion, start_s: f64, end_s: f64) {
        for i in 0..topo.len() {
            if !region.contains(topo.pos(NodeId(i as u32))) {
                continue;
            }
            if start_s <= 0.0 {
                self.down_at_start[i] = true;
            } else {
                self.transitions.push(Transition {
                    time: start_s,
                    node: i as u32,
                    up: false,
                });
            }
            if end_s.is_finite() {
                self.transitions.push(Transition {
                    time: end_s,
                    node: i as u32,
                    up: true,
                });
            }
            self.ever_down[i] = true;
        }
    }

    /// Runs the episode's seeded waypoint walk for the episode's duration
    /// and severs every sim-topology link the walk would have broken.
    fn compile_churn(
        &mut self,
        topo: &Topology,
        start_s: f64,
        end_s: f64,
        speed_mps: (f64, f64),
        pause_s: (f64, f64),
        seed: u64,
    ) {
        let mut walk = RandomWaypoint::new(
            topo.area(),
            topo.len(),
            topo.radio_range(),
            speed_mps,
            pause_s,
            seed,
        );
        let before = walk.snapshot();
        walk.advance(end_s - start_s);
        let after = walk.snapshot();
        let mut severed = Vec::new();
        for u in 0..topo.len() {
            let u_id = NodeId(u as u32);
            for &v in before.neighbors(u_id) {
                if after.neighbors(u_id).binary_search(&v).is_err()
                    && topo.neighbors(u_id).binary_search(&v).is_ok()
                {
                    severed.push(link_key(u_id, v));
                }
            }
        }
        severed.sort_unstable();
        self.ever_severed.extend_from_slice(&severed);
        self.churn.push(ChurnWindow {
            start_s,
            end_s,
            severed,
        });
    }

    fn asleep(&self, node: NodeId, now: f64) -> bool {
        self.duty.iter().any(|d| {
            let phase = (node.0 as f64 * PHASE_STRIDE).fract() * d.period_s;
            (now - phase).rem_euclid(d.period_s) >= d.on_s
        })
    }
}

/// Reusable per-task fault state: owns the compiled plan, walks the
/// liveness timeline as simulated time advances, and runs the post-task
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
    /// Next transition to apply (index into `compiled.transitions`).
    cursor: usize,
    /// Nodes killed by the Bernoulli sample this task — an "up"
    /// transition must not resurrect them.
    bern_dead: Vec<bool>,
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
    /// same topology, snapshots the Bernoulli deaths already applied to
    /// `alive`, and applies the `t = 0` fault state. The task `source` is
    /// exempt from node faults.
    ///
    /// A plan holding a NaN never equals its copy, so it recompiles on
    /// every task — slower, never wrong.
    ///
    /// Only meaningful when `plan.has_events()`; the runner skips the
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
        self.bern_dead.clear();
        self.bern_dead.extend(alive.iter().map(|&a| !a));
        for (i, a) in alive.iter_mut().enumerate() {
            if self.compiled.down_at_start[i] && NodeId(i as u32) != source {
                *a = false;
            }
        }
    }

    /// Applies every liveness transition at or before `now` to `alive`.
    /// Amortized O(1) per event-loop iteration (a cursor over the sorted
    /// transition list).
    pub fn advance_to(&mut self, now: f64, source: NodeId, alive: &mut [bool]) {
        while let Some(t) = self.compiled.transitions.get(self.cursor) {
            if t.time > now {
                break;
            }
            let i = t.node as usize;
            if NodeId(t.node) != source {
                // An "up" edge (blackout lifting) must not resurrect a
                // node the Bernoulli sample killed for the whole task.
                alive[i] = t.up && !self.bern_dead[i];
            }
            self.cursor += 1;
        }
    }

    /// `true` when any compiled duty-cycle schedule exists.
    pub fn has_duty(&self) -> bool {
        !self.compiled.duty.is_empty()
    }

    /// `true` when any compiled churn episode exists.
    pub fn has_churn(&self) -> bool {
        !self.compiled.churn.is_empty()
    }

    /// `true` when `node` is inside a sleep window at `now`.
    pub fn node_asleep(&self, node: NodeId, now: f64) -> bool {
        self.compiled.asleep(node, now)
    }

    /// `true` when the directed link `from → to` is severed by a churn
    /// episode active at `now`.
    pub fn link_severed(&self, from: NodeId, to: NodeId, now: f64) -> bool {
        let key = link_key(from, to);
        self.compiled
            .churn
            .iter()
            .take_while(|w| w.start_s <= now)
            .any(|w| now < w.end_s && w.severed.binary_search(&key).is_ok())
    }

    /// The delivery-guarantee oracle.
    ///
    /// Classifies every still-`pending` destination against ground-truth
    /// reachability from `source` on the faulted connectivity graph —
    /// nodes that were ever down (Bernoulli, crash, or blackout) and links
    /// ever severed by churn are removed:
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
    /// The graph excision is pessimistic (a node down for *any* part of
    /// the run is removed for the whole run), so a `Disconnected` verdict
    /// may excuse a failure a lucky protocol could have dodged — but a
    /// *protocol failure* verdict is always sound: the destination was
    /// reachable the entire run. Duty-cycle sleep is transient and never
    /// excuses a failure.
    ///
    /// Results are appended to `out` in ascending destination order.
    #[allow(clippy::too_many_arguments)]
    pub fn classify_failures(
        &mut self,
        topo: &Topology,
        source: NodeId,
        has_events: bool,
        alive: &[bool],
        pending: &[bool],
        drop_cause: &[FailureCause],
        truncated: bool,
        out: &mut Vec<FailedDest>,
    ) {
        let node_down = |i: usize| {
            if has_events {
                self.bern_dead[i] || self.compiled.ever_down[i]
            } else {
                !alive[i]
            }
        };
        let mut unreached = (0..pending.len())
            .filter(|&i| pending[i] && i != source.index() && !node_down(i))
            .count();

        if unreached > 0 {
            let check_links = has_events && !self.compiled.ever_severed.is_empty();
            self.reach.clear();
            self.reach.resize(topo.len(), false);
            self.stack.clear();
            self.reach[source.index()] = true;
            self.stack.push(source.0);
            'search: while let Some(u) = self.stack.pop() {
                let u_id = NodeId(u);
                for &v in topo.neighbors(u_id) {
                    if self.reach[v.index()] || node_down(v.index()) {
                        continue;
                    }
                    if check_links
                        && self
                            .compiled
                            .ever_severed
                            .binary_search(&link_key(u_id, v))
                            .is_ok()
                    {
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
        has_events: bool,
        alive: &[bool],
        pending: &[bool],
        truncated: bool,
    ) -> Vec<FailedDest> {
        let drop_cause = vec![FailureCause::NoRoute; topo.len()];
        let mut out = Vec::new();
        scratch.classify_failures(
            topo,
            NodeId(0),
            has_events,
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
            .with_crash(NodeId(2), 1.0);
        let mut scratch = FaultScratch::new();
        let mut alive = vec![true; 5];
        scratch.begin_task(&plan, &topo, NodeId(0), &mut alive);
        assert!(alive[0], "source exempt from its own crash");
        assert!(alive[2], "future crash not yet applied");
        scratch.advance_to(0.5, NodeId(0), &mut alive);
        assert!(alive[2]);
        scratch.advance_to(1.0, NodeId(0), &mut alive);
        assert!(!alive[2], "crash at t=1 applied");
        // Oracle sees the crash as permanent: 3 is cut off behind node 2.
        let pending = vec![false, false, true, true, false];
        let out = classify(&mut scratch, &topo, true, &alive, &pending, false);
        assert_eq!(
            out,
            vec![
                FailedDest::new(NodeId(2), FailureCause::DestDead),
                FailedDest::new(NodeId(3), FailureCause::Disconnected),
            ]
        );
    }

    #[test]
    fn blackout_lifts_but_bernoulli_dead_stay_dead() {
        let topo = line_with_island();
        let plan = FaultPlan::none().with_blackout(
            FaultRegion::Rect {
                min: Point::new(50.0, -10.0),
                max: Point::new(250.0, 10.0),
            },
            0.0,
            2.0,
        );
        let mut scratch = FaultScratch::new();
        // Bernoulli already killed node 2.
        let mut alive = vec![true, true, false, true, true];
        scratch.begin_task(&plan, &topo, NodeId(0), &mut alive);
        assert!(!alive[1], "node 1 blacked out");
        assert!(!alive[2]);
        scratch.advance_to(2.0, NodeId(0), &mut alive);
        assert!(alive[1], "blackout lifted");
        assert!(!alive[2], "bernoulli death is permanent");
    }

    #[test]
    fn duty_cycle_sleeps_by_phase_and_full_on_is_inert() {
        let topo = line_with_island();
        let plan = FaultPlan::none().with_duty_cycle(1.0, 0.5);
        let mut scratch = FaultScratch::new();
        let mut alive = vec![true; 5];
        scratch.begin_task(&plan, &topo, NodeId(0), &mut alive);
        assert!(scratch.has_duty());
        for node in 0..5u32 {
            let id = NodeId(node);
            let phase = (node as f64 * PHASE_STRIDE).fract();
            assert!(
                !scratch.node_asleep(id, phase + 0.01),
                "awake at window start"
            );
            assert!(
                scratch.node_asleep(id, phase + 0.75),
                "asleep past on window"
            );
            assert!(!scratch.node_asleep(id, phase + 1.01), "awake next period");
        }
        let inert = FaultPlan::none().with_duty_cycle(1.0, 1.0);
        scratch.begin_task(&inert, &topo, NodeId(0), &mut alive);
        assert!(!scratch.has_duty(), "on_fraction = 1 compiles away");
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

    /// Marks the scratch's compiled plan with a sleep schedule no plan in
    /// these tests has, so a recompile is visible as the mark vanishing.
    fn mark_compiled(scratch: &mut FaultScratch) {
        scratch.compiled.duty.push(Duty {
            period_s: 1.0,
            on_s: 0.5,
        });
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
        assert!(scratch.has_duty(), "same plan reuses the compiled plan");
        assert_eq!(scratch.cursor, 0, "timeline rewinds per task");
        let rebuilt = FaultPlan::none().with_crash(NodeId(2), 1.0);
        scratch.begin_task(&rebuilt, &topo, NodeId(0), &mut alive);
        assert!(
            scratch.has_duty(),
            "an equal plan, built separately, reuses it"
        );
        scratch.begin_task(&rebuilt, &line_with_island(), NodeId(0), &mut alive);
        assert!(
            !scratch.has_duty(),
            "an equal plan on an equal topology, both built separately, recompiles"
        );
        scratch.begin_task(&plan, &topo, NodeId(0), &mut alive);
        mark_compiled(&mut scratch);
        let other = plan.clone().with_crash(NodeId(3), 2.0);
        scratch.begin_task(&other, &topo, NodeId(0), &mut alive);
        assert!(!scratch.has_duty(), "different plan recompiles");
        mark_compiled(&mut scratch);
        let moved = Topology::from_positions(topo.positions(), Aabb::square(3000.0), 160.0);
        scratch.begin_task(&other, &moved, NodeId(0), &mut alive);
        assert!(!scratch.has_duty(), "different topology recompiles");
    }

    /// Every directed link of `topo` that `scratch` reports severed at `now`.
    fn severed_at(scratch: &FaultScratch, topo: &Topology, now: f64) -> Vec<(NodeId, NodeId)> {
        (0..topo.len())
            .flat_map(|u| {
                let u_id = NodeId(u as u32);
                topo.neighbors(u_id)
                    .iter()
                    .filter(move |&&v| scratch.link_severed(u_id, v, now))
                    .map(move |&v| (u_id, v))
            })
            .collect()
    }

    #[test]
    fn compiled_churn_follows_the_deployment_area() {
        // Same nodes and range, different area: the churn walk runs over
        // the area, so the two topologies sever different links and a
        // reused scratch must not serve one's walk to the other.
        let small = Topology::random(&gmp_net::TopologyConfig::new(500.0, 60, 150.0), 77);
        let large = Topology::from_positions(small.positions(), Aabb::square(50_000.0), 150.0);
        let plan = FaultPlan::none().with_link_churn(1.0, 30.0, (20.0, 40.0), (0.0, 0.5), 5);
        let fresh = |topo: &Topology| {
            let mut scratch = FaultScratch::new();
            let mut alive = vec![true; topo.len()];
            scratch.begin_task(&plan, topo, NodeId(0), &mut alive);
            severed_at(&scratch, topo, 10.0)
        };
        let (expect_small, expect_large) = (fresh(&small), fresh(&large));
        assert_ne!(expect_small, expect_large, "the area changes the walk");

        let mut reused = FaultScratch::new();
        let mut alive = vec![true; small.len()];
        reused.begin_task(&plan, &small, NodeId(0), &mut alive);
        assert_eq!(severed_at(&reused, &small, 10.0), expect_small);
        reused.begin_task(&plan, &large, NodeId(0), &mut alive);
        assert_eq!(severed_at(&reused, &large, 10.0), expect_large);
    }

    #[test]
    fn churn_severs_links_symmetrically_and_only_during_the_window() {
        // Dense random topology so the walk has links to break.
        let topo = Topology::random(&gmp_net::TopologyConfig::new(500.0, 60, 150.0), 77);
        let plan = FaultPlan::none().with_link_churn(1.0, 30.0, (20.0, 40.0), (0.0, 0.5), 5);
        let mut scratch = FaultScratch::new();
        let mut alive = vec![true; topo.len()];
        scratch.begin_task(&plan, &topo, NodeId(0), &mut alive);
        assert!(scratch.has_churn());
        let severed = severed_at(&scratch, &topo, 10.0);
        assert!(!severed.is_empty(), "a 29 s churn episode breaks links");
        for &(u, v) in &severed {
            assert!(scratch.link_severed(v, u, 10.0), "severing is symmetric");
            assert!(!scratch.link_severed(u, v, 0.5), "before the window");
            assert!(!scratch.link_severed(u, v, 30.0), "after the window");
        }
    }
}
