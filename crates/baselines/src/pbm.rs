//! PBM: Position Based Multicasting \[21\].
//!
//! At every hop PBM jointly optimizes (a) progress toward the destinations
//! and (b) bandwidth (number of copies) by choosing the neighbor subset
//! `W` minimizing
//!
//! ```text
//! f(W) = λ · |W|/|N|  +  (1 − λ) · Σ_d min_{w∈W} d(w, d) / Σ_d d(s, d)
//! ```
//!
//! with each destination assigned to its closest member of `W`. The
//! tradeoff parameter λ is workload-dependent — the paper's central
//! criticism — and the Fig. 11/12 experiments sweep λ ∈ {0, 0.1, …, 0.6}
//! per task and keep the best result.
//!
//! Exhaustive subset enumeration is exponential in the neighbor count
//! (Section 4.2), which is infeasible at the paper's density (~70
//! neighbors). As documented in DESIGN.md, the search is bounded: the
//! candidate pool is the union of each destination's nearest progressing
//! neighbors, capped, and subsets are enumerated up to a size cap. Both
//! caps are [`PbmConfig`] knobs.
//!
//! Void destinations are grouped and sent into perimeter mode immediately
//! (Section 5.4 contrasts this with GMP's more permissive grouping).

use gmp_geom::Point;
use gmp_net::face::perimeter_next_hop;
use gmp_net::{NodeId, PerimeterState};
use gmp_sim::{Forward, MulticastPacket, NodeContext, Protocol, RoutingState};

/// Tunables of the PBM search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PbmConfig {
    /// The λ tradeoff: 0 = pure progress (greedy, many copies),
    /// 1 = pure bandwidth (single copy).
    pub lambda: f64,
    /// Maximum subset size considered (paper: all subsets; here capped for
    /// tractability — see DESIGN.md).
    pub max_subset_size: usize,
    /// Nearest progressing neighbors per destination admitted to the
    /// candidate pool.
    pub candidates_per_dest: usize,
    /// Hard cap on the candidate pool (the subset search is `2^pool`).
    pub max_candidates: usize,
}

impl Default for PbmConfig {
    fn default() -> Self {
        PbmConfig {
            lambda: 0.3,
            max_subset_size: 4,
            candidates_per_dest: 3,
            max_candidates: 12,
        }
    }
}

/// The PBM router.
#[derive(Debug, Clone, Copy, Default)]
pub struct PbmRouter {
    config: PbmConfig,
}

impl PbmRouter {
    /// PBM with the default configuration (λ = 0.3).
    pub fn new() -> Self {
        PbmRouter::default()
    }

    /// PBM with an explicit λ, other knobs default.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is outside `\[0, 1\]`.
    pub fn with_lambda(lambda: f64) -> Self {
        assert!((0.0..=1.0).contains(&lambda), "lambda out of range");
        PbmRouter {
            config: PbmConfig {
                lambda,
                ..PbmConfig::default()
            },
        }
    }

    /// PBM with a full configuration.
    pub fn with_config(config: PbmConfig) -> Self {
        PbmRouter { config }
    }

    /// The router's configuration.
    pub fn config(&self) -> PbmConfig {
        self.config
    }

    /// The subset search over progressing destinations. Returns one
    /// `(next_hop, dests)` per chosen neighbor.
    fn choose_subsets(
        &self,
        ctx: &NodeContext<'_>,
        dests_ok: &[NodeId],
    ) -> Vec<(NodeId, Vec<NodeId>)> {
        let here = ctx.pos();
        let neighbors = ctx.neighbors();
        if neighbors.is_empty() || dests_ok.is_empty() {
            return Vec::new();
        }
        // Candidate pool: per destination, its nearest progressing
        // neighbors.
        let mut pool: Vec<NodeId> = Vec::new();
        for &d in dests_ok {
            let target = ctx.pos_of(d);
            let own = here.dist(target);
            let mut close: Vec<NodeId> = neighbors
                .iter()
                .copied()
                .filter(|&n| ctx.pos_of(n).dist(target) < own)
                .collect();
            close.sort_by(|&a, &b| {
                ctx.pos_of(a)
                    .dist_sq(target)
                    .total_cmp(&ctx.pos_of(b).dist_sq(target))
            });
            for n in close.into_iter().take(self.config.candidates_per_dest) {
                if !pool.contains(&n) {
                    pool.push(n);
                }
            }
        }
        pool.sort();
        pool.truncate(self.config.max_candidates);
        if pool.is_empty() {
            return Vec::new();
        }

        let dist_sum_from_here: f64 = dests_ok.iter().map(|&d| here.dist(ctx.pos_of(d))).sum();
        let cap = self.config.max_subset_size.min(dests_ok.len()).max(1);
        let n_count = neighbors.len() as f64;

        let mut best: Option<(f64, u32)> = None;
        for mask in 1u32..(1u32 << pool.len()) {
            let size = mask.count_ones() as usize;
            if size > cap {
                continue;
            }
            // Assign each destination to the closest subset member; every
            // destination must make strict progress, every member must
            // serve someone.
            let mut served = vec![false; pool.len()];
            let mut remaining = 0.0f64;
            let mut feasible = true;
            for &d in dests_ok {
                let target = ctx.pos_of(d);
                let mut best_w: Option<(f64, usize)> = None;
                for (i, &w) in pool.iter().enumerate() {
                    if mask & (1 << i) == 0 {
                        continue;
                    }
                    let dist = ctx.pos_of(w).dist(target);
                    if best_w.is_none_or(|(bd, _)| dist < bd) {
                        best_w = Some((dist, i));
                    }
                }
                let (dist, wi) = best_w.expect("mask non-empty");
                if dist >= here.dist(target) {
                    feasible = false; // this subset strands destination d
                    break;
                }
                served[wi] = true;
                remaining += dist;
            }
            if !feasible {
                continue;
            }
            let all_serve = (0..pool.len()).all(|i| mask & (1 << i) == 0 || served[i]);
            if !all_serve {
                continue; // dominated by the same mask minus idle members
            }
            let f = self.config.lambda * size as f64 / n_count
                + (1.0 - self.config.lambda) * remaining / dist_sum_from_here;
            if best.is_none_or(|(bf, bm)| f < bf - 1e-12 || (f < bf + 1e-12 && mask < bm)) {
                best = Some((f, mask));
            }
        }

        let chosen_mask = match best {
            Some((_, m)) => m,
            // The size cap made full coverage impossible: fall back to the
            // per-destination nearest-neighbor grouping.
            None => (1u32 << pool.len()) - 1,
        };

        // Materialize the assignment for the chosen subset.
        let mut groups: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
        for &d in dests_ok {
            let target = ctx.pos_of(d);
            let w = pool
                .iter()
                .enumerate()
                .filter(|(i, _)| chosen_mask & (1 << i) != 0)
                .map(|(_, &w)| w)
                .filter(|&w| ctx.pos_of(w).dist(target) < here.dist(target))
                .min_by(|&a, &b| {
                    ctx.pos_of(a)
                        .dist_sq(target)
                        .total_cmp(&ctx.pos_of(b).dist_sq(target))
                });
            if let Some(w) = w {
                match groups.iter_mut().find(|(hop, _)| *hop == w) {
                    Some((_, g)) => g.push(d),
                    None => groups.push((w, vec![d])),
                }
            }
            // A destination no chosen member improves is silently dropped
            // here; callers route it through the void path instead. This
            // can only happen on the fallback mask.
        }
        groups
    }
}

impl Protocol for PbmRouter {
    fn name(&self) -> String {
        format!("PBM(λ={})", self.config.lambda)
    }

    fn on_packet(
        &mut self,
        ctx: &NodeContext<'_>,
        mut packet: MulticastPacket,
        out: &mut Vec<Forward>,
    ) {
        let here = ctx.pos();

        // Perimeter packets stay in perimeter mode until the GPSR exit
        // test passes; then the destinations re-enter normal routing.
        if let RoutingState::Perimeter(state) = &mut packet.state {
            if !state.closer_than_entry(here) {
                if let Ok(n) = perimeter_next_hop(ctx.topo, ctx.planar_kind(), ctx.node, state) {
                    out.push(Forward {
                        next_hop: n,
                        packet,
                    });
                }
                return;
            }
        }

        // Split destinations by whether any neighbor makes progress.
        let (ok, voids): (Vec<NodeId>, Vec<NodeId>) = packet.dests.iter().partition(|&&d| {
            let target = ctx.pos_of(d);
            let own = here.dist(target);
            ctx.neighbors()
                .iter()
                .any(|&n| ctx.pos_of(n).dist(target) < own)
        });

        let mut unassigned: Vec<NodeId> = voids;
        let groups = self.choose_subsets(ctx, &ok);
        let assigned: std::collections::HashSet<NodeId> =
            groups.iter().flat_map(|(_, g)| g.iter().copied()).collect();
        for &d in &ok {
            if !assigned.contains(&d) {
                unassigned.push(d);
            }
        }
        for (hop, group) in groups {
            out.push(Forward {
                next_hop: hop,
                packet: packet.split(group, RoutingState::Greedy),
            });
        }

        // All void destinations: one perimeter packet toward their average
        // location.
        if !unassigned.is_empty() {
            unassigned.sort();
            let avg =
                Point::centroid(unassigned.iter().map(|&d| ctx.pos_of(d))).expect("non-empty");
            let mut state = PerimeterState::enter(here, avg);
            if let Ok(n) = perimeter_next_hop(ctx.topo, ctx.planar_kind(), ctx.node, &mut state) {
                out.push(Forward {
                    next_hop: n,
                    packet: packet.split(unassigned, RoutingState::Perimeter(Box::new(state))),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmp_geom::Aabb;
    use gmp_net::topology::{Hole, Topology, TopologyConfig};
    use gmp_sim::{MulticastTask, SimConfig, TaskRunner};

    #[test]
    fn delivers_on_dense_random_networks() {
        let config = SimConfig::paper().with_node_count(500);
        let topo = Topology::random(&config.topology_config(), 42);
        for lambda in [0.0, 0.3, 0.6] {
            for seed in 0..4u64 {
                let task = MulticastTask::random(&topo, 10, seed);
                let mut pbm = PbmRouter::with_lambda(lambda);
                let report = TaskRunner::new(&topo, &config).run(&mut pbm, &task);
                assert!(
                    report.delivered_all(),
                    "λ {lambda} seed {seed}: {:?}",
                    report.failed_dests
                );
            }
        }
    }

    #[test]
    fn lambda_zero_fans_out_like_greedy() {
        // With λ = 0 the objective only rewards progress, so each
        // destination rides toward its own nearest neighbor.
        let positions = vec![
            Point::new(500.0, 500.0), // source
            Point::new(400.0, 500.0), // left neighbor
            Point::new(600.0, 500.0), // right neighbor
            Point::new(100.0, 500.0), // left dest
            Point::new(900.0, 500.0), // right dest
        ];
        let topo = Topology::from_positions(positions, Aabb::square(1000.0), 150.0);
        let config = SimConfig::paper().with_node_count(5);
        let ctx = NodeContext {
            topo: &topo,
            node: NodeId(0),
            config: &config,
            alive: None,
        };
        let mut pbm = PbmRouter::with_lambda(0.0);
        let fwd = pbm.route(
            &ctx,
            MulticastPacket::new(0, NodeId(0), vec![NodeId(3), NodeId(4)]),
        );
        assert_eq!(fwd.len(), 2);
    }

    #[test]
    fn high_lambda_prefers_fewer_copies() {
        // Two destinations in the same general direction with one shared
        // good neighbor: a bandwidth-heavy λ should send a single copy.
        let positions = vec![
            Point::new(0.0, 0.0),     // source
            Point::new(140.0, 0.0),   // shared forward neighbor
            Point::new(145.0, 35.0),  // strictly better for dest A only
            Point::new(145.0, -35.0), // strictly better for dest B only
            Point::new(600.0, 80.0),  // dest A
            Point::new(600.0, -80.0), // dest B
        ];
        let topo = Topology::from_positions(positions, Aabb::square(1000.0), 150.0);
        let config = SimConfig::paper().with_node_count(6);
        let ctx = NodeContext {
            topo: &topo,
            node: NodeId(0),
            config: &config,
            alive: None,
        };
        let dests = vec![NodeId(4), NodeId(5)];
        let mut thrifty = PbmRouter::with_lambda(0.9);
        let f_thrifty = thrifty.route(&ctx, MulticastPacket::new(0, NodeId(0), dests.clone()));
        assert_eq!(f_thrifty.len(), 1, "λ=0.9 should send one copy");
        // The single copy carries both destinations.
        assert_eq!(f_thrifty[0].packet.dests.len(), 2);
        let mut eager = PbmRouter::with_lambda(0.0);
        let f_eager = eager.route(&ctx, MulticastPacket::new(0, NodeId(0), dests));
        assert_eq!(f_eager.len(), 2, "λ=0 should maximize progress");
    }

    #[test]
    fn voids_enter_perimeter_mode_immediately() {
        let tconfig = TopologyConfig::new(800.0, 450, 150.0).with_hole(Hole::Circle {
            center: Point::new(400.0, 400.0),
            radius: 200.0,
        });
        let topo = Topology::random(&tconfig, 3);
        assert!(topo.is_connected());
        let config = SimConfig::paper()
            .with_area_side(800.0)
            .with_node_count(450);
        let near = |p: Point| {
            topo.nodes()
                .min_by(|a, b| a.pos.dist_sq(p).total_cmp(&b.pos.dist_sq(p)))
                .unwrap()
                .id
        };
        let source = near(Point::new(50.0, 400.0));
        let dest = near(Point::new(750.0, 400.0));
        let task = MulticastTask::new(source, vec![dest]);
        let report = TaskRunner::new(&topo, &config).run(&mut PbmRouter::new(), &task);
        assert!(report.delivered_all(), "{:?}", report.failed_dests);
    }

    #[test]
    fn config_accessors_and_validation() {
        assert_eq!(PbmRouter::with_lambda(0.5).config().lambda, 0.5);
        assert_eq!(PbmRouter::new().name(), "PBM(λ=0.3)");
        let custom = PbmRouter::with_config(PbmConfig {
            lambda: 0.1,
            max_subset_size: 2,
            candidates_per_dest: 2,
            max_candidates: 8,
        });
        assert_eq!(custom.config().max_subset_size, 2);
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn out_of_range_lambda_panics() {
        PbmRouter::with_lambda(1.5);
    }
}
