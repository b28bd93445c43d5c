//! Service workloads: groups, a live membership stream, and session
//! arrivals, all generated deterministically from one seed.
//!
//! A [`ServiceWorkload`] is the engine's entire input: a set of multicast
//! groups (each rooted at a source node), a time-sorted stream of
//! seq-ordered [`MembershipUpdate`]s (initial joins, random churn, and
//! leaves derived from `gmp-faults` crash events — the membership service
//! noticing failed members), and a time-sorted list of session arrivals.
//! Because the stream is seq-ordered, any replay of a prefix yields the
//! same membership (the `membership_convergence` invariant), so a
//! session's destination set is a pure function of `(workload, start_s)`
//! — which is what lets the solo-replay parity suite reconstruct every
//! concurrent session's task without the engine.

use std::collections::BTreeMap;

use gmp_faults::{FaultEvent, FaultPlan};
use gmp_net::NodeId;
use gmp_sim::MulticastTask;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::membership::{GroupId, MembershipAction, MembershipSet, MembershipUpdate};

/// One multicast group: its id and the source node every session for the
/// group multicasts from (the paper's prime node).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupSpec {
    /// The group.
    pub group: GroupId,
    /// Source / prime node of every session addressed to the group.
    pub source: NodeId,
}

/// One membership update stamped with its service-time arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedUpdate {
    /// Service time the update reaches the membership tables, seconds.
    pub at_s: f64,
    /// The update itself (seq-ordered per member and group).
    pub update: MembershipUpdate,
}

/// One session arrival: at `start_s` the group's source snapshots the
/// membership and multicasts to it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionSpec {
    /// Stable session id (also the index into
    /// [`ServiceWorkload::resolve_tasks`]).
    pub id: u64,
    /// Service-time arrival, seconds. Membership is snapshotted at this
    /// instant (updates with `at_s <= start_s` applied) regardless of
    /// when the engine actually admits the session.
    pub start_s: f64,
    /// The group addressed.
    pub group: GroupId,
    /// Per-session failure-injection seed.
    pub seed: u64,
}

/// Shape knobs for [`ServiceWorkload::random`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadParams {
    /// Number of multicast groups.
    pub groups: usize,
    /// Initial members per group (joined at t = 0).
    pub members_per_group: usize,
    /// Random join/leave churn updates spread over the duration.
    pub churn_updates: usize,
    /// Session arrivals spread over the duration.
    pub sessions: usize,
    /// Arrival horizon, service seconds.
    pub duration_s: f64,
    /// Random churn never shrinks a group below this floor (crash-derived
    /// leaves may).
    pub min_members: usize,
    /// Random churn never grows a group beyond this cap, so long-running
    /// workloads reach a membership steady state instead of growing
    /// without bound.
    pub max_members: usize,
    /// Earliest service time crash-derived leaves reach the membership
    /// tables (failure-detection latency): sessions before it still
    /// address crashed members, sessions after it no longer do.
    pub crash_detect_s: f64,
}

impl Default for WorkloadParams {
    fn default() -> Self {
        WorkloadParams {
            groups: 16,
            members_per_group: 10,
            churn_updates: 200,
            sessions: 1000,
            duration_s: 60.0,
            min_members: 2,
            max_members: 32,
            crash_detect_s: 30.0,
        }
    }
}

/// Replays the membership stream up to a service time, incrementally.
///
/// Both the concurrent engine and the standalone
/// [`ServiceWorkload::resolve_tasks`] replay membership through this one
/// type, so the snapshot a session sees is engine-independent by
/// construction.
#[derive(Debug, Default)]
pub struct MembershipClock {
    sets: BTreeMap<GroupId, MembershipSet>,
    cursor: usize,
}

impl MembershipClock {
    /// A clock at service time 0 with no updates applied.
    pub fn new() -> Self {
        MembershipClock::default()
    }

    /// Applies every update with `at_s <= now_s` not yet applied.
    /// `updates` must be the workload's stream (time-sorted); the cursor
    /// only moves forward.
    pub fn advance_to(&mut self, updates: &[TimedUpdate], now_s: f64) {
        while let Some(timed) = updates.get(self.cursor) {
            if timed.at_s > now_s {
                break;
            }
            let u = timed.update;
            self.sets
                .entry(u.group)
                .or_default()
                .apply(u.node, u.action, u.seq);
            self.cursor += 1;
        }
    }

    /// Appends the group's current members to `out`, ascending.
    pub fn members_into(&self, group: GroupId, out: &mut Vec<NodeId>) {
        if let Some(set) = self.sets.get(&group) {
            set.members_into(out);
        }
    }
}

/// The full input of one engine run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceWorkload {
    /// The groups, indexable by `GroupId.0`.
    pub groups: Vec<GroupSpec>,
    /// The membership stream, sorted ascending by `at_s` (stable).
    pub updates: Vec<TimedUpdate>,
    /// Session arrivals, sorted ascending by `start_s`.
    pub sessions: Vec<SessionSpec>,
}

/// Generation-time event kinds, merged into one service timeline.
enum ChurnKind {
    /// Random membership churn in one group (index into `groups`).
    Random(usize),
    /// The membership service notices a crashed node and drops it from
    /// every group it belongs to.
    CrashLeave(NodeId),
}

impl ServiceWorkload {
    /// Deterministic workload over `candidates` (the eligible node pool —
    /// the whole topology at paper scale, a task window's interior on a
    /// sharded deployment).
    ///
    /// Crash events of `plan` are wired into the membership stream as
    /// leaves at `max(at_s, params.crash_detect_s)`, modeling the
    /// membership service learning of failures after a detection delay.
    ///
    /// # Panics
    ///
    /// Panics if `params.groups == 0` or `candidates` cannot seat a source
    /// plus one member.
    pub fn random(
        candidates: &[NodeId],
        params: &WorkloadParams,
        plan: &FaultPlan,
        seed: u64,
    ) -> Self {
        assert!(params.groups > 0, "workload needs at least one group");
        assert!(
            candidates.len() >= 2,
            "workload needs a source and at least one member candidate"
        );
        assert!(
            params.duration_s > 0.0,
            "workload duration must be positive"
        );
        assert!(
            params.min_members <= params.max_members,
            "membership floor above cap"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut groups = Vec::with_capacity(params.groups);
        let mut updates: Vec<TimedUpdate> = Vec::new();
        let mut seqs: BTreeMap<(GroupId, NodeId), u64> = BTreeMap::new();
        let mut next_seq = |group: GroupId, node: NodeId| -> u64 {
            let s = seqs.entry((group, node)).or_insert(0);
            *s += 1;
            *s
        };
        // Per-group shuffled member pools (source excluded) and the
        // current membership tracked during generation.
        let mut pools: Vec<Vec<NodeId>> = Vec::with_capacity(params.groups);
        let mut members: Vec<Vec<NodeId>> = Vec::with_capacity(params.groups);
        for gi in 0..params.groups {
            let group = GroupId(gi as u32);
            let mut pool = candidates.to_vec();
            pool.shuffle(&mut rng);
            let source = pool[0];
            let pool: Vec<NodeId> = pool[1..].to_vec();
            groups.push(GroupSpec { group, source });
            let initial = params.members_per_group.min(pool.len());
            let mut cur = Vec::with_capacity(initial);
            for &node in &pool[..initial] {
                let seq = next_seq(group, node);
                updates.push(TimedUpdate {
                    at_s: 0.0,
                    update: MembershipUpdate {
                        group,
                        node,
                        action: MembershipAction::Join,
                        seq,
                    },
                });
                cur.push(node);
            }
            pools.push(pool);
            members.push(cur);
        }

        // Merge random churn and crash detections into one timeline,
        // ordered by time (ties broken by insertion index, so generation
        // is fully deterministic).
        let mut timeline: Vec<(f64, usize, ChurnKind)> = Vec::new();
        for i in 0..params.churn_updates {
            let t = rng.gen_range(0.0..params.duration_s);
            let g = rng.gen_range(0..params.groups);
            timeline.push((t, i, ChurnKind::Random(g)));
        }
        let mut idx = params.churn_updates;
        for event in &plan.events {
            if let FaultEvent::Crash { node, at_s } = event {
                let detect = at_s.max(params.crash_detect_s);
                timeline.push((detect, idx, ChurnKind::CrashLeave(*node)));
                idx += 1;
            }
        }
        timeline.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

        for (at_s, _, kind) in timeline {
            match kind {
                ChurnKind::Random(g) => {
                    let group = groups[g].group;
                    let pool = &pools[g];
                    if pool.is_empty() {
                        continue;
                    }
                    let node = pool[rng.gen_range(0..pool.len())];
                    let cur = &mut members[g];
                    if let Some(pos) = cur.iter().position(|&m| m == node) {
                        // Leave, unless that would shrink the group below
                        // the floor (then the churn tick is a no-op).
                        if cur.len() > params.min_members {
                            cur.swap_remove(pos);
                            let seq = next_seq(group, node);
                            updates.push(TimedUpdate {
                                at_s,
                                update: MembershipUpdate {
                                    group,
                                    node,
                                    action: MembershipAction::Leave,
                                    seq,
                                },
                            });
                        }
                    } else if cur.len() < params.max_members {
                        cur.push(node);
                        let seq = next_seq(group, node);
                        updates.push(TimedUpdate {
                            at_s,
                            update: MembershipUpdate {
                                group,
                                node,
                                action: MembershipAction::Join,
                                seq,
                            },
                        });
                    }
                }
                ChurnKind::CrashLeave(node) => {
                    for (g, cur) in members.iter_mut().enumerate() {
                        if let Some(pos) = cur.iter().position(|&m| m == node) {
                            cur.swap_remove(pos);
                            let group = groups[g].group;
                            let seq = next_seq(group, node);
                            updates.push(TimedUpdate {
                                at_s,
                                update: MembershipUpdate {
                                    group,
                                    node,
                                    action: MembershipAction::Leave,
                                    seq,
                                },
                            });
                        }
                    }
                }
            }
        }

        // Session arrivals: uniform times, groups round-robin by id so
        // every group stays warm, per-session seeds mixed from the
        // workload seed.
        let mut times: Vec<f64> = (0..params.sessions)
            .map(|_| rng.gen_range(0.0..params.duration_s))
            .collect();
        times.sort_by(f64::total_cmp);
        let sessions = times
            .into_iter()
            .enumerate()
            .map(|(i, start_s)| SessionSpec {
                id: i as u64,
                start_s,
                group: GroupId((i % params.groups) as u32),
                seed: (seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).rotate_left(17),
            })
            .collect();

        let workload = ServiceWorkload {
            groups,
            updates,
            sessions,
        };
        workload.assert_sorted();
        workload
    }

    /// The source node of `group`, if the workload defines the group.
    pub fn source_of(&self, group: GroupId) -> Option<NodeId> {
        self.groups
            .iter()
            .find(|g| g.group == group)
            .map(|g| g.source)
    }

    /// The task each session would snapshot at its `start_s` — one entry
    /// per session, in session order; `None` where the group had no
    /// members besides the source. This is the engine-independent
    /// resolution the sequential baseline and the parity suite replay.
    pub fn resolve_tasks(&self) -> Vec<Option<MulticastTask>> {
        let mut clock = MembershipClock::new();
        let mut dests: Vec<NodeId> = Vec::new();
        let mut out = Vec::with_capacity(self.sessions.len());
        for spec in &self.sessions {
            clock.advance_to(&self.updates, spec.start_s);
            out.push(self.snapshot_task(&clock, spec.group, &mut dests));
        }
        out
    }

    /// Snapshots `group`'s membership from `clock` into a task rooted at
    /// the group's source (`dests` is a reusable buffer).
    pub fn snapshot_task(
        &self,
        clock: &MembershipClock,
        group: GroupId,
        dests: &mut Vec<NodeId>,
    ) -> Option<MulticastTask> {
        let source = self.source_of(group)?;
        dests.clear();
        clock.members_into(group, dests);
        dests.retain(|&d| d != source);
        if dests.is_empty() {
            None
        } else {
            Some(MulticastTask::new(source, dests.clone()))
        }
    }

    fn assert_sorted(&self) {
        debug_assert!(
            self.updates.windows(2).all(|w| w[0].at_s <= w[1].at_s),
            "membership stream must be time-sorted"
        );
        debug_assert!(
            self.sessions
                .windows(2)
                .all(|w| w[0].start_s <= w[1].start_s),
            "session arrivals must be time-sorted"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidates(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn generation_is_deterministic() {
        let cands = candidates(200);
        let params = WorkloadParams {
            sessions: 50,
            ..WorkloadParams::default()
        };
        let plan = FaultPlan::none().with_crash(NodeId(3), 0.0);
        let a = ServiceWorkload::random(&cands, &params, &plan, 42);
        let b = ServiceWorkload::random(&cands, &params, &plan, 42);
        assert_eq!(a, b);
        let c = ServiceWorkload::random(&cands, &params, &plan, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn crash_events_become_leaves_after_detection() {
        let cands = candidates(40);
        let params = WorkloadParams {
            groups: 2,
            members_per_group: 15,
            churn_updates: 0,
            sessions: 10,
            duration_s: 10.0,
            min_members: 1,
            max_members: 32,
            crash_detect_s: 5.0,
        };
        // With 40 candidates and 15 members per group, node 7 is a member
        // of at least one group for most seeds; crash every node to make
        // the property seed-independent: every member must be dropped.
        let mut plan = FaultPlan::none();
        for n in 0..40 {
            plan = plan.with_crash(NodeId(n), 0.0);
        }
        let w = ServiceWorkload::random(&cands, &params, &plan, 7);
        let leaves: Vec<&TimedUpdate> = w
            .updates
            .iter()
            .filter(|u| matches!(u.update.action, MembershipAction::Leave))
            .collect();
        assert!(!leaves.is_empty(), "crashes must surface as leaves");
        assert!(
            leaves.iter().all(|u| (u.at_s - 5.0).abs() < 1e-9),
            "leaves land at the detection time"
        );
        // After detection every group is empty: late sessions resolve to
        // no task, early ones to the full membership.
        let mut clock = MembershipClock::new();
        clock.advance_to(&w.updates, 10.0);
        let mut buf = Vec::new();
        for g in &w.groups {
            assert_eq!(w.snapshot_task(&clock, g.group, &mut buf), None);
        }
    }

    #[test]
    fn resolved_tasks_match_incremental_clock_replay() {
        let cands = candidates(300);
        let params = WorkloadParams {
            sessions: 120,
            ..WorkloadParams::default()
        };
        let plan = FaultPlan::none();
        let w = ServiceWorkload::random(&cands, &params, &plan, 11);
        let resolved = w.resolve_tasks();
        assert_eq!(resolved.len(), w.sessions.len());
        // Replay with a fresh clock per session (quadratic, but small):
        // the incremental cursor must agree with from-scratch replays.
        let mut dests = Vec::new();
        for (spec, task) in w.sessions.iter().zip(&resolved) {
            let mut clock = MembershipClock::new();
            clock.advance_to(&w.updates, spec.start_s);
            assert_eq!(&w.snapshot_task(&clock, spec.group, &mut dests), task);
        }
        // Round-robin groups & floors: every session resolves to a task
        // here (no crashes, min_members ≥ 2).
        assert!(resolved.iter().all(|t| t.is_some()));
    }
}
