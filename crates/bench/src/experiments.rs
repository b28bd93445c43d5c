//! The sweep driver behind every figure of the paper's evaluation
//! (Figures 11, 12, 14, 15) and the DESIGN.md ablations.
//!
//! A figure is a list of [`Cell`]s, each run over every network of the
//! [`Scale`]. [`sweep`] runs the `(cell, network)` jobs on a worker pool
//! and folds each cell's per-network [`Tally`]s in network order, so its
//! output does not depend on the thread count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use gmp_baselines::{PbmConfig, PbmRouter, ProtocolKind};
use gmp_geom::Point;
use gmp_net::{Topology, TopologyConfig};
use gmp_sim::{FailureCause, FaultPlan, MulticastTask, SimConfig, TaskReport, TaskRunner};
use gmp_steiner::mst::euclidean_mst;
use gmp_steiner::rrstr::{rrstr, RadioRange};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::campaign::{add_path_stretch, crash_seed};

/// How much of the paper's workload to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scale {
    /// Independent random networks per configuration (paper: 10).
    pub networks: usize,
    /// Tasks per network (paper: 100).
    pub tasks_per_network: usize,
    /// Destination counts swept in Figures 11/12/14 (paper: 3–25).
    pub k_values: Vec<usize>,
}

impl Scale {
    /// Minimal smoke-test scale.
    pub fn quick() -> Self {
        Scale {
            networks: 2,
            tasks_per_network: 10,
            k_values: vec![3, 12, 25],
        }
    }

    /// Default scale: minutes on a laptop, enough samples for the shape.
    pub fn standard() -> Self {
        Scale {
            networks: 3,
            tasks_per_network: 30,
            k_values: vec![3, 6, 9, 12, 15, 18, 21, 25],
        }
    }

    /// The paper's full workload (10 networks × 100 tasks).
    pub fn paper() -> Self {
        Scale {
            networks: 10,
            tasks_per_network: 100,
            k_values: (3..=25).step_by(2).collect(),
        }
    }
}

/// What routes a cell's tasks. Every task gets a fresh router.
#[derive(Debug, Clone, Copy)]
pub enum Router {
    /// A registered protocol, run as [`ProtocolKind::run_task`] runs it.
    Kind(ProtocolKind),
    /// PBM with explicit search bounds (the `pbm` ablation's grid).
    Pbm(PbmConfig),
}

/// One point of a figure: a configuration, a destination count and a
/// router, run over every network of the scale.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The cell's labels in its figure's table, e.g. `["12", "GMP"]`.
    pub labels: Vec<String>,
    /// Simulation parameters; the topology is drawn from them.
    pub config: SimConfig,
    /// Destinations per task.
    pub k: usize,
    /// The protocol under test.
    pub router: Router,
    /// Seed each task's link-loss stream by its task seed instead of 0, so
    /// losses differ from task to task.
    pub seeded_loss: bool,
    /// `(fraction, index)`: crash this fraction of the nodes at t = 0,
    /// placed per network by `crash_seed(network, index)`. Such a cell
    /// also measures path stretch.
    pub crashes: Option<(f64, usize)>,
}

impl Cell {
    /// A cell with a fault-free, unseeded channel.
    pub fn new(labels: Vec<String>, config: SimConfig, k: usize, router: Router) -> Cell {
        Cell {
            labels,
            config,
            k,
            router,
            seeded_loss: false,
            crashes: None,
        }
    }
}

/// One cell per protocol, each labeled `labels` then the protocol's name:
/// the shape of every figure that compares a protocol panel.
pub fn panel(
    labels: Vec<String>,
    config: &SimConfig,
    k: usize,
    protocols: &[ProtocolKind],
) -> Vec<Cell> {
    protocols
        .iter()
        .map(|&p| {
            let mut l = labels.clone();
            l.push(p.to_string());
            Cell::new(l, config.clone(), k, Router::Kind(p))
        })
        .collect()
}

/// Number of distinct [`FailureCause`] values (histogram width).
pub const CAUSE_COUNT: usize = FailureCause::ALL.len();

/// What a cell's tasks add up to. A mean over nothing is `NaN` (0 / 0).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Tasks run.
    pub tasks: usize,
    /// Tasks that missed at least one destination.
    pub failed_tasks: usize,
    /// Transmissions.
    pub transmissions: usize,
    /// Bytes on air.
    pub bytes: usize,
    /// Energy, joules.
    pub energy_j: f64,
    /// Task completion times (last delivery), milliseconds.
    pub latency_ms: f64,
    /// Per-task mean destination hop counts, over the tasks that reached
    /// at least one destination.
    pub dest_hops: f64,
    /// Tasks counted in `dest_hops`.
    pub dest_hops_n: usize,
    /// Destinations attempted.
    pub dests: usize,
    /// Destinations reached.
    pub delivered: usize,
    /// Failed destinations the oracle blames on the faulted graph.
    pub justified: usize,
    /// Failed destinations that were reachable: protocol-attributable.
    pub unjustified: usize,
    /// Failed destinations per [`FailureCause::index`].
    pub causes: [usize; CAUSE_COUNT],
    /// Delivered hop count over the shortest live hop count, summed over
    /// delivered destinations (cells with crashes only).
    pub stretch: f64,
    /// Destinations counted in `stretch`.
    pub stretch_n: usize,
}

impl Tally {
    fn record(&mut self, task: &MulticastTask, r: &TaskReport) {
        self.tasks += 1;
        self.failed_tasks += usize::from(!r.delivered_all());
        self.transmissions += r.transmissions;
        self.bytes += r.bytes_transmitted;
        self.energy_j += r.energy_j;
        self.latency_ms += r.completion_time_s * 1e3;
        if let Some(h) = r.mean_dest_hops() {
            self.dest_hops += h;
            self.dest_hops_n += 1;
        }
        self.dests += task.dests.len();
        self.delivered += r.delivered_count();
        for f in &r.failed_dests {
            self.causes[f.cause.index()] += 1;
            if f.is_justified() {
                self.justified += 1;
            } else {
                self.unjustified += 1;
            }
        }
    }

    fn add(mut self, o: &Tally) -> Tally {
        self.tasks += o.tasks;
        self.failed_tasks += o.failed_tasks;
        self.transmissions += o.transmissions;
        self.bytes += o.bytes;
        self.energy_j += o.energy_j;
        self.latency_ms += o.latency_ms;
        self.dest_hops += o.dest_hops;
        self.dest_hops_n += o.dest_hops_n;
        self.dests += o.dests;
        self.delivered += o.delivered;
        self.justified += o.justified;
        self.unjustified += o.unjustified;
        for (slot, c) in self.causes.iter_mut().zip(o.causes) {
            *slot += c;
        }
        self.stretch += o.stretch;
        self.stretch_n += o.stretch_n;
        self
    }

    /// Mean transmissions per task (Fig. 11's y-axis).
    pub fn mean_transmissions(&self) -> f64 {
        self.transmissions as f64 / self.tasks as f64
    }

    /// Mean bytes on air per task.
    pub fn mean_bytes(&self) -> f64 {
        self.bytes as f64 / self.tasks as f64
    }

    /// Mean energy per task, joules (Fig. 14's y-axis).
    pub fn mean_energy_j(&self) -> f64 {
        self.energy_j / self.tasks as f64
    }

    /// Mean task completion time, milliseconds (an extension metric).
    pub fn mean_latency_ms(&self) -> f64 {
        self.latency_ms / self.tasks as f64
    }

    /// Mean per-destination hop count over the tasks that reached a
    /// destination (Fig. 12's y-axis; `NaN` when none did).
    pub fn mean_dest_hops(&self) -> f64 {
        self.dest_hops / self.dest_hops_n as f64
    }

    /// Failed tasks normalized to the paper's 1000-task total.
    pub fn failed_per_1000(&self) -> f64 {
        self.failed_tasks as f64 * 1000.0 / self.tasks as f64
    }

    /// Destinations reached over destinations attempted.
    pub fn delivery_ratio(&self) -> f64 {
        self.delivered as f64 / self.dests.max(1) as f64
    }

    /// Unjustified failures over destinations attempted.
    pub fn unjustified_rate(&self) -> f64 {
        self.unjustified as f64 / self.dests.max(1) as f64
    }

    /// Mean path stretch over delivered destinations (1.0 = shortest
    /// possible; `NaN` when nothing was measured).
    pub fn mean_path_stretch(&self) -> f64 {
        self.stretch / self.stretch_n as f64
    }
}

/// Runs `f` over `jobs` on `threads` scoped workers (0 = all cores) and
/// returns the results in job order. Workers claim the next job index and
/// send `(index, result)` back; the caller slots each into place.
pub fn parallel_map<J, R, F>(threads: usize, jobs: &[J], f: F) -> Vec<R>
where
    J: Sync,
    R: Send,
    F: Fn(&J) -> R + Sync,
{
    let workers = match threads {
        0 => std::thread::available_parallelism().map_or(4, |p| p.get()),
        n => n,
    }
    .min(jobs.len().max(1));
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel();
    let mut results: Vec<Option<R>> = jobs.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let (tx, next, f) = (tx.clone(), &next, &f);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                match jobs.get(i) {
                    Some(job) if tx.send((i, f(job))).is_ok() => {}
                    _ => break,
                }
            });
        }
        drop(tx);
        for (i, r) in rx {
            results[i] = Some(r);
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("job completed"))
        .collect()
}

/// Seed of a sweep's `i`-th network ([`Topology::random`]).
pub fn network_seed(i: usize) -> u64 {
    0xA5A5_0000 + i as u64
}

/// Seed of the `task`-th task on network `net` ([`MulticastTask::random`]).
pub fn task_seed(net: usize, task: usize) -> u64 {
    net as u64 * 10_000 + task as u64 + 1
}

/// Runs every cell over the scale's networks on `threads` workers (0 = all
/// cores) and returns one tally per cell. Every protocol sees the same
/// networks and the same tasks; cells whose configurations draw the same
/// topology share it, built once per network.
pub fn sweep(cells: &[Cell], scale: &Scale, threads: usize) -> Vec<Tally> {
    let nets = scale.networks;
    if nets == 0 {
        return vec![Tally::default(); cells.len()];
    }
    let mut shapes: Vec<TopologyConfig> = Vec::new();
    let shape_of: Vec<usize> = cells
        .iter()
        .map(|c| {
            let shape = c.config.topology_config();
            shapes.iter().position(|s| *s == shape).unwrap_or_else(|| {
                shapes.push(shape);
                shapes.len() - 1
            })
        })
        .collect();
    let grid = |n: usize| -> Vec<(usize, usize)> {
        (0..n)
            .flat_map(|a| (0..nets).map(move |b| (a, b)))
            .collect()
    };
    let topologies = parallel_map(threads, &grid(shapes.len()), |&(s, net)| {
        Topology::random(&shapes[s], network_seed(net))
    });
    let partials = parallel_map(threads, &grid(cells.len()), |&(c, net)| {
        let topo = &topologies[shape_of[c] * nets + net];
        run_cell(&cells[c], topo, net, scale.tasks_per_network)
    });
    partials
        .chunks(nets)
        .map(|p| p.iter().fold(Tally::default(), Tally::add))
        .collect()
}

fn run_cell(cell: &Cell, topo: &Topology, net: usize, tasks: usize) -> Tally {
    let mut config = cell.config.clone();
    if let Some((fraction, index)) = cell.crashes {
        let seed = crash_seed(net, index);
        config.faults = FaultPlan::random_crashes(config.node_count, fraction, 0.0, seed);
    }
    let runner = TaskRunner::new(topo, &config);
    let mut tally = Tally::default();
    for t in 0..tasks {
        let seed = task_seed(net, t);
        let task = MulticastTask::random(topo, cell.k, seed);
        let loss_seed = if cell.seeded_loss { seed } else { 0 };
        let report = match cell.router {
            Router::Kind(kind) => kind.run_task(topo, &config, &task, loss_seed),
            Router::Pbm(c) => runner.run_seeded(&mut PbmRouter::with_config(c), &task, loss_seed),
        };
        tally.record(&task, &report);
        if cell.crashes.is_some() {
            add_path_stretch(&mut tally, topo, &config, &task, &report);
        }
    }
    tally
}

/// One line of the rrSTR-vs-MST tree-length ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeLengthRow {
    /// Number of destinations.
    pub n: usize,
    /// Mean rrSTR tree length (range-oblivious, pure Steiner quality).
    pub rrstr_len: f64,
    /// Mean MST length over `{source} ∪ destinations`.
    pub mst_len: f64,
    /// `rrstr_len / mst_len`. The Steiner ratio bounds it below by
    /// √3/2 ≈ 0.866. It can exceed 1: rrSTR is *source-rooted* (bounded by
    /// the star of direct spokes, never contracting the source), so for
    /// destinations spread all around the source it can lose to the
    /// unrooted MST — the protocol compensates by rebuilding the tree at
    /// every hop (the "progressive refinement" of Section 1.1).
    pub ratio: f64,
    /// Mean number of virtual junctions created.
    pub virtuals: f64,
}

/// DESIGN.md ablation: how much tree length does the reduction-ratio
/// heuristic save over LGS's MST on identical inputs?
pub fn tree_length_ablation(ns: &[usize], samples: usize) -> Vec<TreeLengthRow> {
    ns.iter()
        .map(|&n| {
            let mut rr_sum = 0.0;
            let mut mst_sum = 0.0;
            let mut virt_sum = 0.0;
            let mut rng = StdRng::seed_from_u64(n as u64 * 977);
            for _ in 0..samples {
                let s = Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0));
                let dests: Vec<Point> = (0..n)
                    .map(|_| Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
                    .collect();
                let tree = rrstr(s, &dests, RadioRange::Ignored);
                rr_sum += tree.total_length();
                virt_sum += tree.vertex_ids().filter(|&v| tree.is_virtual(v)).count() as f64;
                let mut points = vec![s];
                points.extend_from_slice(&dests);
                mst_sum += euclidean_mst(&points).total_length;
            }
            TreeLengthRow {
                n,
                rrstr_len: rr_sum / samples as f64,
                mst_len: mst_sum / samples as f64,
                ratio: rr_sum / mst_sum,
                virtuals: virt_sum / samples as f64,
            }
        })
        .collect()
}

/// One line of the position-staleness ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct MobilityRow {
    /// How old the routing information is, seconds.
    pub staleness_s: f64,
    /// Fraction of directed unit-disk links that no longer exist.
    pub broken_links: f64,
    /// Fraction of GMP transmissions that used a now-broken link (the
    /// forwarding decisions that would be lost in flight).
    pub stale_tx_fraction: f64,
}

/// Extension ablation: the paper assumes static sensors, but PBM/LGS come
/// from the MANET world. How quickly does random-waypoint movement
/// invalidate the geographic forwarding decisions GMP makes on a stale
/// snapshot?
pub fn mobility_ablation(
    node_count: usize,
    speed_ms: (f64, f64),
    staleness: &[f64],
    tasks: usize,
    seed: u64,
) -> Vec<MobilityRow> {
    use gmp_core::GmpRouter;
    use gmp_net::mobility::{broken_link_fraction, RandomWaypoint};

    let config = SimConfig::paper().with_node_count(node_count);
    let mut model = RandomWaypoint::new(
        gmp_geom::Aabb::square(config.area_side),
        node_count,
        config.radio_range,
        speed_ms,
        (0.0, 2.0),
        seed,
    );
    let stale = model.snapshot();

    // GMP routes computed once on the stale snapshot.
    let runner = TaskRunner::new(&stale, &config);
    let all_links: Vec<(gmp_net::NodeId, gmp_net::NodeId)> = (0..tasks)
        .flat_map(|t| {
            let task = MulticastTask::random(&stale, 12, task_seed(0, t));
            runner.run(&mut GmpRouter::new(), &task).links
        })
        .collect();

    let mut elapsed = 0.0f64;
    let rows = staleness.iter().map(|&delta| {
        assert!(delta >= elapsed, "staleness values must be non-decreasing");
        model.advance(delta - elapsed);
        elapsed = delta;
        let fresh = model.snapshot();
        let stale_links = (all_links.iter())
            .filter(|&&(from, to)| !fresh.neighbors(from).contains(&to))
            .count();
        MobilityRow {
            staleness_s: delta,
            broken_links: broken_link_fraction(&stale, &fresh),
            stale_tx_fraction: stale_links as f64 / all_links.len().max(1) as f64,
        }
    });
    rows.collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> SimConfig {
        SimConfig::paper()
            .with_area_side(600.0)
            .with_node_count(250)
    }

    fn tiny_scale() -> Scale {
        Scale {
            networks: 1,
            tasks_per_network: 5,
            k_values: vec![4, 8],
        }
    }

    /// The Figure 11/12/14 shape: `k × protocols` on one configuration.
    fn destination_cells(protocols: &[ProtocolKind]) -> Vec<Cell> {
        tiny_scale()
            .k_values
            .iter()
            .flat_map(|&k| panel(vec![k.to_string()], &tiny_config(), k, protocols))
            .collect()
    }

    #[test]
    fn destination_sweep_produces_full_grid() {
        let cells = destination_cells(&[ProtocolKind::Gmp, ProtocolKind::Lgs]);
        let rows = sweep(&cells, &tiny_scale(), 0);
        assert_eq!(rows.len(), 4); // 2 k-values × 2 protocols
        for r in &rows {
            assert!(r.mean_transmissions() > 0.0, "{r:?}");
            assert!(r.mean_energy_j() > 0.0);
            assert!(r.mean_dest_hops() > 0.0);
            assert_eq!(r.tasks, 5);
        }
    }

    #[test]
    fn sweep_total_hops_grow_with_k() {
        let rows = sweep(&destination_cells(&[ProtocolKind::Gmp]), &tiny_scale(), 0);
        assert!(rows[1].mean_transmissions() > rows[0].mean_transmissions());
    }

    #[test]
    fn density_sweep_reports_normalized_failures() {
        let cells: Vec<Cell> = [150, 250]
            .iter()
            .flat_map(|&n| {
                let config = tiny_config().with_node_count(n).with_max_path_hops(100);
                panel(vec![n.to_string()], &config, 12, &[ProtocolKind::Gmp])
            })
            .collect();
        let rows = sweep(&cells, &tiny_scale(), 0);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert_eq!(r.tasks, 5);
            assert!(r.failed_per_1000() >= 0.0);
            assert!(r.failed_tasks <= r.tasks);
        }
        // Sparser networks can only fail at least as often (statistically;
        // with one network this is not guaranteed, so only sanity-check the
        // monotone normalization here).
        assert!(rows[0].failed_per_1000() >= rows[0].failed_tasks as f64);
    }

    #[test]
    fn overhead_ablation_shows_encoded_sizes() {
        let cells: Vec<Cell> = [(4, false), (4, true), (8, false), (8, true)]
            .iter()
            .flat_map(|&(k, encoded)| {
                let config = tiny_config().with_size_dependent_airtime(encoded);
                panel(vec![k.to_string()], &config, k, &[ProtocolKind::Gmp])
            })
            .collect();
        let tallies = sweep(&cells, &tiny_scale(), 0);
        let rows: Vec<&[Tally]> = tallies.chunks(2).collect();
        assert_eq!(rows.len(), 2);
        for r in &rows {
            let (fixed, encoded) = (&r[0], &r[1]);
            assert!(fixed.mean_bytes() > 0.0);
            assert!(encoded.mean_bytes() > 0.0);
            assert!(fixed.mean_energy_j() > 0.0);
        }
    }

    #[test]
    fn tree_length_ablation_stays_in_sane_bounds() {
        let rows = tree_length_ablation(&[5, 10], 40);
        for r in &rows {
            // Lower bound: no Euclidean Steiner tree beats the Steiner
            // ratio against the MST. Upper bound: rrSTR never exceeds the
            // star of direct spokes, which stays within a small factor of
            // the MST for uniform points.
            assert!(
                r.ratio >= 0.866 - 1e-6,
                "no Steiner tree beats the Steiner ratio: {r:?}"
            );
            assert!(r.ratio <= 1.6, "rrSTR should stay near the MST: {r:?}");
            assert!(r.virtuals >= 0.0 && r.virtuals < r.n as f64);
        }
    }

    #[test]
    fn parallel_map_preserves_order() {
        let jobs: Vec<i32> = (0..100).collect();
        let out = parallel_map(0, &jobs, |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<i32>>());
    }
}
