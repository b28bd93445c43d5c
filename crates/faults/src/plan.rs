//! Fault plans: a deterministic schedule of failures for one simulation.

use gmp_geom::Point;
use gmp_net::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A spatial region a blackout carves out of the deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultRegion {
    /// All nodes within `radius` of `center` (inclusive).
    Disk {
        /// Blackout center.
        center: Point,
        /// Blackout radius, meters.
        radius: f64,
    },
    /// All nodes inside the axis-aligned rectangle (inclusive).
    Rect {
        /// Corner with the smallest coordinates.
        min: Point,
        /// Corner with the largest coordinates.
        max: Point,
    },
}

impl FaultRegion {
    /// `true` if `p` lies inside the region (boundaries included).
    pub fn contains(&self, p: Point) -> bool {
        match *self {
            FaultRegion::Disk { center, radius } => center.dist_sq(p) <= radius * radius,
            FaultRegion::Rect { min, max } => {
                p.x >= min.x && p.x <= max.x && p.y >= min.y && p.y <= max.y
            }
        }
    }
}

/// One timed fault in a [`FaultPlan`].
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// `node` dies for good at `at_s` seconds of simulated time.
    Crash {
        /// The node that crashes.
        node: NodeId,
        /// Crash time, seconds (`0.0` = down from the start).
        at_s: f64,
    },
    /// Every node inside `region` is down during `[start_s, end_s)`,
    /// carving a void out of the topology mid-run.
    Blackout {
        /// The affected region.
        region: FaultRegion,
        /// Blackout onset, seconds.
        start_s: f64,
        /// Blackout end, seconds (`f64::INFINITY` = permanent).
        end_s: f64,
    },
    /// Periodic sleep: each node is awake for the first
    /// `on_fraction` of every `period_s` window, with a per-node phase
    /// offset so the network never sleeps in lockstep.
    DutyCycle {
        /// Sleep/wake period, seconds.
        period_s: f64,
        /// Fraction of each period spent awake, in `(0, 1]`.
        on_fraction: f64,
    },
    /// During `[start_s, end_s)`, links that a seeded
    /// [`RandomWaypoint`](gmp_net::mobility::RandomWaypoint) walk would have broken
    /// over the episode's duration are severed (both directions).
    LinkChurn {
        /// Episode start, seconds.
        start_s: f64,
        /// Episode end, seconds.
        end_s: f64,
        /// Waypoint speed range `(min, max)`, m/s.
        speed_mps: (f64, f64),
        /// Waypoint pause range `(min, max)`, seconds.
        pause_s: (f64, f64),
        /// Seed of the mobility walk driving the episode.
        seed: u64,
    },
}

/// A deterministic, seeded schedule of faults for one simulation run.
///
/// The plan has two layers, matching how the simulator consumes it:
///
/// 1. **Bernoulli knobs** (`node_failure_prob`, `link_loss_prob`) — the
///    legacy i.i.d. coin flips, sampled from the task RNG in the exact
///    draw order the runner always used, so fault-free and
///    Bernoulli-only plans are bit-identical to pre-plan runs.
/// 2. **Timed events** — compiled against a topology by
///    [`FaultScratch`](crate::FaultScratch) and applied as simulated time
///    advances. Events never consume task-RNG draws; any randomness they
///    need (mobility walks) comes from their own embedded seeds.
///
/// The source of a task is exempt from *node* faults — the legacy
/// contract "never the source" extends to crashes, blackouts, and
/// duty-cycle sleep — but not from link faults.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Probability an arbitrary non-source node is down for the whole
    /// task (i.i.d. per node, sampled once per task).
    pub node_failure_prob: f64,
    /// Probability an arbitrary packet copy is lost in flight (i.i.d.
    /// per delivery).
    pub link_loss_prob: f64,
    /// Timed fault events, applied in time order regardless of the order
    /// they were added.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: no faults of any kind. Runs under it are
    /// bit-identical to runs without a fault subsystem.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// `true` when the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.node_failure_prob == 0.0 && self.link_loss_prob == 0.0 && self.events.is_empty()
    }

    /// `true` when the plan carries timed events (the part that needs
    /// compilation and a liveness timeline, as opposed to the Bernoulli
    /// knobs the runner samples inline).
    pub fn has_events(&self) -> bool {
        !self.events.is_empty()
    }

    /// Sets the Bernoulli node-failure probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn with_node_failure_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.node_failure_prob = p;
        self
    }

    /// Sets the Bernoulli link-loss probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn with_link_loss_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.link_loss_prob = p;
        self
    }

    /// Adds an arbitrary timed event.
    #[must_use]
    pub fn with_event(mut self, event: FaultEvent) -> Self {
        self.events.push(event);
        self
    }

    /// Adds a node crash at `at_s` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `at_s` is negative or NaN.
    #[must_use]
    pub fn with_crash(self, node: NodeId, at_s: f64) -> Self {
        assert!(at_s >= 0.0, "crash time must be non-negative");
        self.with_event(FaultEvent::Crash { node, at_s })
    }

    /// Adds a regional blackout over `[start_s, end_s)`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ start_s < end_s` (`end_s` may be infinite).
    #[must_use]
    pub fn with_blackout(self, region: FaultRegion, start_s: f64, end_s: f64) -> Self {
        assert!(start_s >= 0.0 && start_s < end_s, "bad blackout window");
        self.with_event(FaultEvent::Blackout {
            region,
            start_s,
            end_s,
        })
    }

    /// Adds a duty-cycle sleep schedule.
    ///
    /// # Panics
    ///
    /// Panics unless `period_s > 0` and `on_fraction` is in `(0, 1]`.
    #[must_use]
    pub fn with_duty_cycle(self, period_s: f64, on_fraction: f64) -> Self {
        assert!(period_s > 0.0, "duty period must be positive");
        assert!(
            on_fraction > 0.0 && on_fraction <= 1.0,
            "on fraction out of range"
        );
        self.with_event(FaultEvent::DutyCycle {
            period_s,
            on_fraction,
        })
    }

    /// Adds a mobility-driven link-churn episode over `[start_s, end_s)`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ start_s < end_s < ∞` and the speed/pause ranges
    /// are valid for [`RandomWaypoint`](gmp_net::mobility::RandomWaypoint).
    #[must_use]
    pub fn with_link_churn(
        self,
        start_s: f64,
        end_s: f64,
        speed_mps: (f64, f64),
        pause_s: (f64, f64),
        seed: u64,
    ) -> Self {
        assert!(
            start_s >= 0.0 && start_s < end_s && end_s.is_finite(),
            "bad churn window"
        );
        assert!(
            speed_mps.0 > 0.0 && speed_mps.0 <= speed_mps.1,
            "bad speed range"
        );
        assert!(
            pause_s.0 >= 0.0 && pause_s.0 <= pause_s.1,
            "bad pause range"
        );
        self.with_event(FaultEvent::LinkChurn {
            start_s,
            end_s,
            speed_mps,
            pause_s,
            seed,
        })
    }

    /// A plan that crashes `round(fraction · node_count)` distinct
    /// non-source-biased nodes at `at_s`, chosen by a seeded shuffle —
    /// the campaign's fault-intensity dial. The runner still exempts the
    /// task source from node faults, so a crash landing on the source is
    /// ignored for that task.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn random_crashes(node_count: usize, fraction: f64, at_s: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&fraction), "fraction out of range");
        let crashes = ((node_count as f64) * fraction).round() as usize;
        let mut ids: Vec<u32> = (0..node_count as u32).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        // Partial Fisher-Yates: the first `crashes` slots are a uniform
        // sample of distinct nodes.
        for i in 0..crashes.min(node_count) {
            let j = i + rng.gen_range(0..node_count - i);
            ids.swap(i, j);
        }
        let mut plan = FaultPlan::none();
        for &id in &ids[..crashes.min(node_count)] {
            plan = plan.with_crash(NodeId(id), at_s);
        }
        plan
    }

    /// Samples Bernoulli node failures into `alive`, never killing
    /// `source` — byte-for-byte the legacy runner loop, including the
    /// guard that consumes zero draws when the probability is `0`.
    pub fn sample_node_failures<R: Rng>(&self, rng: &mut R, source: NodeId, alive: &mut [bool]) {
        if self.node_failure_prob > 0.0 {
            for (i, a) in alive.iter_mut().enumerate() {
                if NodeId(i as u32) != source && rng.gen::<f64>() < self.node_failure_prob {
                    *a = false;
                }
            }
        }
    }

    /// Draws the Bernoulli link-loss verdict for one delivery; consumes
    /// zero draws when the probability is `0` (legacy contract).
    pub fn transmission_lost<R: Rng>(&self, rng: &mut R) -> bool {
        self.link_loss_prob > 0.0 && rng.gen::<f64>() < self.link_loss_prob
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn empty_plan_is_empty_and_inert() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert!(!plan.has_events());
        let mut rng = StdRng::seed_from_u64(1);
        let mut alive = vec![true; 8];
        plan.sample_node_failures(&mut rng, NodeId(0), &mut alive);
        assert!(alive.iter().all(|&a| a));
        assert!(!plan.transmission_lost(&mut rng));
        // Zero draws consumed: identical to a fresh RNG.
        let mut fresh = StdRng::seed_from_u64(1);
        assert_eq!(rng.gen::<f64>(), fresh.gen::<f64>());
    }

    #[test]
    fn bernoulli_sampling_matches_legacy_draw_order() {
        let plan = FaultPlan::none().with_node_failure_prob(0.5);
        let mut rng = StdRng::seed_from_u64(7);
        let mut alive = vec![true; 16];
        plan.sample_node_failures(&mut rng, NodeId(3), &mut alive);
        // Replica of the legacy runner loop.
        let mut rng2 = StdRng::seed_from_u64(7);
        let mut expect = vec![true; 16];
        for (i, a) in expect.iter_mut().enumerate() {
            if NodeId(i as u32) != NodeId(3) && rng2.gen::<f64>() < 0.5 {
                *a = false;
            }
        }
        assert_eq!(alive, expect);
        assert!(alive[3], "source survives");
    }

    #[test]
    fn random_crashes_hits_the_requested_fraction() {
        let plan = FaultPlan::random_crashes(100, 0.2, 0.0, 9);
        assert_eq!(plan.events.len(), 20);
        let mut nodes: Vec<u32> = plan
            .events
            .iter()
            .map(|e| match e {
                FaultEvent::Crash { node, .. } => node.0,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(nodes.len(), 20, "crashes are distinct");
        assert_eq!(plan, FaultPlan::random_crashes(100, 0.2, 0.0, 9));
        assert_ne!(plan, FaultPlan::random_crashes(100, 0.2, 0.0, 10));
    }

    #[test]
    fn region_containment() {
        let disk = FaultRegion::Disk {
            center: Point::new(10.0, 10.0),
            radius: 5.0,
        };
        assert!(disk.contains(Point::new(13.0, 10.0)));
        assert!(disk.contains(Point::new(15.0, 10.0)));
        assert!(!disk.contains(Point::new(15.1, 10.0)));
        let rect = FaultRegion::Rect {
            min: Point::new(0.0, 0.0),
            max: Point::new(4.0, 2.0),
        };
        assert!(rect.contains(Point::new(4.0, 2.0)));
        assert!(!rect.contains(Point::new(4.0, 2.1)));
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn bad_probability_panics() {
        let _ = FaultPlan::none().with_node_failure_prob(1.5);
    }

    #[test]
    #[should_panic(expected = "bad blackout window")]
    fn inverted_blackout_panics() {
        let _ = FaultPlan::none().with_blackout(
            FaultRegion::Disk {
                center: Point::ORIGIN,
                radius: 1.0,
            },
            5.0,
            5.0,
        );
    }
}
