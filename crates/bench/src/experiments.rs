//! The paper's evaluation experiments (Figures 11, 12, 14, 15) and the
//! DESIGN.md ablations.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use gmp_geom::Point;
use gmp_net::Topology;
use gmp_sim::{MulticastTask, SimConfig};
use gmp_steiner::mst::euclidean_mst;
use gmp_steiner::rrstr::{rrstr, RadioRange};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use gmp_baselines::ProtocolKind;

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

    /// Total tasks per configuration point.
    pub fn tasks(&self) -> usize {
        self.networks * self.tasks_per_network
    }
}

/// One aggregated line of the Figure 11/12/14 sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Number of destinations (`k`).
    pub k: usize,
    /// Protocol label.
    pub protocol: String,
    /// Mean transmissions per task (Fig. 11's y-axis).
    pub total_hops: f64,
    /// Mean per-destination hop count (Fig. 12's y-axis).
    pub dest_hops: f64,
    /// Mean energy per task, joules (Fig. 14's y-axis).
    pub energy_j: f64,
    /// Mean completion time of a task (last delivery), milliseconds —
    /// extension metric; the paper does not report latency.
    pub latency_ms: f64,
    /// Tasks that failed to reach every destination.
    pub failed_tasks: usize,
    /// Total tasks aggregated.
    pub tasks: usize,
}

/// One aggregated line of the Figure 15 density sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct DensityRow {
    /// Nodes in the network.
    pub nodes: usize,
    /// Protocol label.
    pub protocol: String,
    /// Tasks with at least one unreached destination.
    pub failed_tasks: usize,
    /// Tasks run.
    pub total_tasks: usize,
    /// Failures normalized to the paper's 1000-task total.
    pub failed_per_1000: f64,
}

/// Worker-thread override for [`parallel_map`]; 0 means "use
/// `available_parallelism`". Set from the `experiments` binary's
/// `--threads` flag.
static WORKER_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Overrides the number of worker threads used by the experiment sweeps.
/// `0` restores the default (`available_parallelism`).
pub fn set_worker_threads(n: usize) {
    WORKER_THREADS.store(n, Ordering::Relaxed);
}

/// Reads the worker-thread override from the `GMP_BENCH_THREADS`
/// environment variable, handling malformed values the same way the
/// `GMP_CACHE_*` knobs do: warn on stderr and fall back to the default
/// (0 = `available_parallelism`) instead of aborting a long bench run.
pub fn threads_from_env() -> usize {
    let (threads, warnings) = threads_from_lookup(|key| std::env::var(key).ok());
    for w in &warnings {
        eprintln!("warning: {w}");
    }
    threads
}

/// [`threads_from_env`] with the variable source injected, so both the
/// accepted and rejected paths are unit-testable without touching the
/// process environment. Returns the thread count (0 = all cores) and
/// any warnings the caller should surface.
pub fn threads_from_lookup(lookup: impl Fn(&str) -> Option<String>) -> (usize, Vec<String>) {
    let mut warnings = Vec::new();
    let threads = gmp_sim::env_knob(
        lookup,
        "GMP_BENCH_THREADS",
        0,
        "is not a non-negative integer",
        "all available cores",
        |raw| raw.trim().parse::<usize>().ok(),
        &mut warnings,
    );
    (threads, warnings)
}

/// Simple work-stealing parallel map preserving input order. Workers
/// stream `(index, result)` pairs over a channel; the caller thread
/// assembles them, so no worker ever blocks on a shared results lock.
pub fn parallel_map<J, R, F>(jobs: Vec<J>, f: F) -> Vec<R>
where
    J: Send + Sync,
    R: Send,
    F: Fn(&J) -> R + Sync,
{
    let n = jobs.len();
    let next = AtomicUsize::new(0);
    let workers = match WORKER_THREADS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4),
        n => n,
    }
    .min(n.max(1));
    let (tx, rx) = crossbeam::channel::unbounded::<(usize, R)>();
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    crossbeam::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            scope.spawn(|_| {
                let tx = tx;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let r = f(&jobs[i]);
                    if tx.send((i, r)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        for (i, r) in rx.iter() {
            results[i] = Some(r);
        }
    })
    .expect("worker panicked");
    results
        .into_iter()
        .map(|r| r.expect("job completed"))
        .collect()
}

pub(crate) fn network_seed(i: usize) -> u64 {
    0xA5A5_0000 + i as u64
}

pub(crate) fn task_seed(net: usize, task: usize) -> u64 {
    net as u64 * 10_000 + task as u64 + 1
}

/// Runs the destination-count sweep shared by Figures 11, 12, and 14:
/// for each `k`, each protocol routes the *same* random tasks over the
/// *same* random networks; means are reported per protocol per `k`.
pub fn destination_sweep(
    config: &SimConfig,
    scale: &Scale,
    protocols: &[ProtocolKind],
) -> Vec<SweepRow> {
    let topologies: Vec<Arc<Topology>> = (0..scale.networks)
        .map(|i| Arc::new(Topology::random(&config.topology_config(), network_seed(i))))
        .collect();

    // One job per (k, network, protocol) triple.
    struct Job {
        k: usize,
        net: usize,
        proto: ProtocolKind,
    }
    struct Partial {
        k: usize,
        label: String,
        total_hops: f64,
        dest_hops: f64,
        dest_hops_n: usize,
        energy: f64,
        latency: f64,
        failed: usize,
    }
    let mut jobs = Vec::new();
    for &k in &scale.k_values {
        for net in 0..scale.networks {
            for &proto in protocols {
                jobs.push(Job { k, net, proto });
            }
        }
    }
    let partials = parallel_map(jobs, |job| {
        let topo = &topologies[job.net];
        let mut total_hops = 0.0;
        let mut dest_hops = 0.0;
        let mut dest_hops_n = 0usize;
        let mut energy = 0.0;
        let mut latency = 0.0;
        let mut failed = 0usize;
        for t in 0..scale.tasks_per_network {
            let task = MulticastTask::random(topo, job.k, task_seed(job.net, t));
            let report = job.proto.run_task(topo, config, &task);
            total_hops += report.transmissions as f64;
            energy += report.energy_j;
            latency += report.completion_time_s * 1e3;
            if let Some(h) = report.mean_dest_hops() {
                dest_hops += h;
                dest_hops_n += 1;
            }
            if !report.delivered_all() {
                failed += 1;
            }
        }
        Partial {
            k: job.k,
            label: job.proto.to_string(),
            total_hops,
            dest_hops,
            dest_hops_n,
            energy,
            latency,
            failed,
        }
    });

    // Aggregate over networks.
    let mut rows: Vec<SweepRow> = Vec::new();
    for &k in &scale.k_values {
        for proto in protocols {
            let label = proto.to_string();
            let mut th = 0.0;
            let mut dh = 0.0;
            let mut dh_n = 0usize;
            let mut en = 0.0;
            let mut lat = 0.0;
            let mut failed = 0usize;
            for p in &partials {
                if p.k == k && p.label == label {
                    th += p.total_hops;
                    dh += p.dest_hops;
                    dh_n += p.dest_hops_n;
                    en += p.energy;
                    lat += p.latency;
                    failed += p.failed;
                }
            }
            let tasks = scale.tasks();
            rows.push(SweepRow {
                k,
                protocol: label,
                total_hops: th / tasks as f64,
                dest_hops: if dh_n > 0 { dh / dh_n as f64 } else { f64::NAN },
                energy_j: en / tasks as f64,
                latency_ms: lat / tasks as f64,
                failed_tasks: failed,
                tasks,
            });
        }
    }
    rows
}

/// Runs the Figure 15 density sweep: node counts 400–1000, `k = 12`,
/// per-destination hop cap 100, counting failed tasks.
pub fn density_sweep(
    base: &SimConfig,
    scale: &Scale,
    protocols: &[ProtocolKind],
    node_counts: &[usize],
) -> Vec<DensityRow> {
    struct Job {
        nodes: usize,
        net: usize,
        proto: ProtocolKind,
    }
    let mut jobs = Vec::new();
    for &nodes in node_counts {
        for net in 0..scale.networks {
            for &proto in protocols {
                jobs.push(Job { nodes, net, proto });
            }
        }
    }
    let partials = parallel_map(jobs, |job| {
        let config = base
            .clone()
            .with_node_count(job.nodes)
            .with_max_path_hops(100);
        let topo = Topology::random(&config.topology_config(), network_seed(job.net));
        let mut failed = 0usize;
        for t in 0..scale.tasks_per_network {
            let task = MulticastTask::random(&topo, 12, task_seed(job.net, t));
            let report = job.proto.run_task(&topo, &config, &task);
            if !report.delivered_all() {
                failed += 1;
            }
        }
        (job.nodes, job.proto.to_string(), failed)
    });

    let mut rows = Vec::new();
    for &nodes in node_counts {
        for proto in protocols {
            let label = proto.to_string();
            let failed: usize = partials
                .iter()
                .filter(|p| p.0 == nodes && p.1 == label)
                .map(|p| p.2)
                .sum();
            let total = scale.tasks();
            rows.push(DensityRow {
                nodes,
                protocol: label,
                failed_tasks: failed,
                total_tasks: total,
                failed_per_1000: failed as f64 * 1000.0 / total as f64,
            });
        }
    }
    rows
}

/// One line of the header-overhead ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadRow {
    /// Number of destinations.
    pub k: usize,
    /// Mean bytes on air per task with the paper's fixed 128 B messages.
    pub fixed_bytes: f64,
    /// Mean bytes on air per task with real encoded packet sizes.
    pub encoded_bytes: f64,
    /// Mean energy with fixed messages, joules.
    pub fixed_energy_j: f64,
    /// Mean energy with encoded sizes, joules.
    pub encoded_energy_j: f64,
}

/// DESIGN.md ablation: how much does carrying the destination list in the
/// header actually cost, compared with the paper's fixed 128 B abstraction?
pub fn overhead_ablation(config: &SimConfig, scale: &Scale) -> Vec<OverheadRow> {
    let topologies: Vec<Arc<Topology>> = (0..scale.networks)
        .map(|i| Arc::new(Topology::random(&config.topology_config(), network_seed(i))))
        .collect();
    let jobs: Vec<usize> = scale.k_values.clone();
    parallel_map(jobs, |&k| {
        let mut fixed_bytes = 0.0;
        let mut encoded_bytes = 0.0;
        let mut fixed_energy = 0.0;
        let mut encoded_energy = 0.0;
        let fixed_cfg = config.clone().with_size_dependent_airtime(false);
        let enc_cfg = config.clone().with_size_dependent_airtime(true);
        for (net, topo) in topologies.iter().enumerate() {
            for t in 0..scale.tasks_per_network {
                let task = MulticastTask::random(topo, k, task_seed(net, t));
                let rf = ProtocolKind::Gmp.run_task(topo, &fixed_cfg, &task);
                let re = ProtocolKind::Gmp.run_task(topo, &enc_cfg, &task);
                fixed_bytes += rf.bytes_transmitted as f64;
                encoded_bytes += re.bytes_transmitted as f64;
                fixed_energy += rf.energy_j;
                encoded_energy += re.energy_j;
            }
        }
        let n = scale.tasks() as f64;
        OverheadRow {
            k,
            fixed_bytes: fixed_bytes / n,
            encoded_bytes: encoded_bytes / n,
            fixed_energy_j: fixed_energy / n,
            encoded_energy_j: encoded_energy / n,
        }
    })
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

    #[test]
    fn bench_threads_env_accepts_valid_values() {
        let (threads, warnings) = threads_from_lookup(|_| Some("8".into()));
        assert_eq!(threads, 8);
        assert!(warnings.is_empty());

        // 0 is the explicit "all cores" spelling, not an error.
        let (threads, warnings) = threads_from_lookup(|_| Some("0".into()));
        assert_eq!(threads, 0);
        assert!(warnings.is_empty());

        let (threads, warnings) = threads_from_lookup(|_| None);
        assert_eq!(threads, 0);
        assert!(warnings.is_empty());
    }

    #[test]
    fn bench_threads_env_warns_and_defaults_on_malformed_values() {
        for bad in ["four", "-2", "2.5", ""] {
            let (threads, warnings) = threads_from_lookup(|key| {
                assert_eq!(key, "GMP_BENCH_THREADS");
                Some(bad.into())
            });
            assert_eq!(threads, 0, "malformed {bad:?} must fall back to default");
            assert_eq!(warnings.len(), 1, "malformed {bad:?} must warn");
            assert!(
                warnings[0].contains("GMP_BENCH_THREADS"),
                "warning names the knob: {}",
                warnings[0]
            );
        }
    }

    #[test]
    fn destination_sweep_produces_full_grid() {
        let rows = destination_sweep(
            &tiny_config(),
            &tiny_scale(),
            &[ProtocolKind::Gmp, ProtocolKind::Lgs],
        );
        assert_eq!(rows.len(), 4); // 2 k-values × 2 protocols
        for r in &rows {
            assert!(r.total_hops > 0.0, "{r:?}");
            assert!(r.energy_j > 0.0);
            assert!(r.dest_hops > 0.0);
            assert_eq!(r.tasks, 5);
        }
    }

    #[test]
    fn sweep_total_hops_grow_with_k() {
        let rows = destination_sweep(&tiny_config(), &tiny_scale(), &[ProtocolKind::Gmp]);
        assert!(rows[1].total_hops > rows[0].total_hops);
    }

    #[test]
    fn density_sweep_reports_normalized_failures() {
        let rows = density_sweep(
            &tiny_config(),
            &tiny_scale(),
            &[ProtocolKind::Gmp],
            &[150, 250],
        );
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert_eq!(r.total_tasks, 5);
            assert!(r.failed_per_1000 >= 0.0);
            assert!(r.failed_tasks <= r.total_tasks);
        }
        // Sparser networks can only fail at least as often (statistically;
        // with one network this is not guaranteed, so only sanity-check the
        // monotone normalization here).
        assert!(rows[0].failed_per_1000 >= rows[0].failed_tasks as f64);
    }

    #[test]
    fn overhead_ablation_shows_encoded_sizes() {
        let rows = overhead_ablation(&tiny_config(), &tiny_scale());
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.fixed_bytes > 0.0);
            assert!(r.encoded_bytes > 0.0);
            assert!(r.fixed_energy_j > 0.0);
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
        let out = parallel_map((0..100).collect::<Vec<i32>>(), |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<i32>>());
    }
}

/// One line of the planar-subgraph ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanarRow {
    /// Nodes in the network.
    pub nodes: usize,
    /// Planar graph label ("Gabriel" / "RNG").
    pub planar: String,
    /// Failed tasks.
    pub failed_tasks: usize,
    /// Total tasks.
    pub total_tasks: usize,
    /// Mean total hops per task.
    pub total_hops: f64,
}

/// DESIGN.md ablation: does GMP's perimeter mode behave differently on
/// the Gabriel graph versus the sparser Relative Neighborhood Graph?
/// Run at sparse densities where perimeter mode actually fires.
pub fn planar_ablation(base: &SimConfig, scale: &Scale, node_counts: &[usize]) -> Vec<PlanarRow> {
    let kinds = [
        (crate::experiments_planar::GABRIEL, "Gabriel"),
        (crate::experiments_planar::RNG, "RNG"),
    ];
    let mut jobs = Vec::new();
    for &nodes in node_counts {
        for (kind, label) in kinds {
            for net in 0..scale.networks {
                jobs.push((nodes, kind, label, net));
            }
        }
    }
    let partials = parallel_map(jobs, |&(nodes, kind, label, net)| {
        let mut config = base.clone().with_node_count(nodes).with_max_path_hops(100);
        config.planar = kind;
        let topo = Topology::random(&config.topology_config(), network_seed(net));
        let mut failed = 0usize;
        let mut hops = 0.0;
        for t in 0..scale.tasks_per_network {
            let task = MulticastTask::random(&topo, 12, task_seed(net, t));
            let report = ProtocolKind::Gmp.run_task(&topo, &config, &task);
            hops += report.transmissions as f64;
            if !report.delivered_all() {
                failed += 1;
            }
        }
        (nodes, label, failed, hops)
    });
    let mut rows = Vec::new();
    for &nodes in node_counts {
        for (_, label) in kinds {
            let mut failed = 0usize;
            let mut hops = 0.0;
            for p in &partials {
                if p.0 == nodes && p.1 == label {
                    failed += p.2;
                    hops += p.3;
                }
            }
            rows.push(PlanarRow {
                nodes,
                planar: label.to_string(),
                failed_tasks: failed,
                total_tasks: scale.tasks(),
                total_hops: hops / scale.tasks() as f64,
            });
        }
    }
    rows
}

/// One line of the PBM search-bound sensitivity ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct PbmSensitivityRow {
    /// Subset-size cap.
    pub max_subset_size: usize,
    /// Candidate neighbors admitted per destination.
    pub candidates_per_dest: usize,
    /// Mean total hops per task.
    pub total_hops: f64,
    /// Mean per-destination hops.
    pub dest_hops: f64,
    /// Wall-clock seconds spent routing (decision-cost proxy).
    pub routing_seconds: f64,
}

/// DESIGN.md ablation: how sensitive is the bounded PBM search to its
/// caps? Justifies the default bounds used everywhere else.
pub fn pbm_sensitivity(config: &SimConfig, scale: &Scale, k: usize) -> Vec<PbmSensitivityRow> {
    use gmp_baselines::{PbmConfig, PbmRouter};
    use gmp_sim::TaskRunner;
    let topologies: Vec<Arc<Topology>> = (0..scale.networks)
        .map(|i| Arc::new(Topology::random(&config.topology_config(), network_seed(i))))
        .collect();
    let grid: Vec<(usize, usize)> = vec![(1, 2), (2, 2), (3, 3), (4, 3), (5, 4)];
    parallel_map(grid, |&(cap, cands)| {
        let pbm_config = PbmConfig {
            lambda: 0.3,
            max_subset_size: cap,
            candidates_per_dest: cands,
            max_candidates: 12,
        };
        let mut hops = 0.0;
        let mut dest_hops = 0.0;
        let start = std::time::Instant::now();
        for (net, topo) in topologies.iter().enumerate() {
            let runner = TaskRunner::new(topo, config);
            for t in 0..scale.tasks_per_network {
                let task = MulticastTask::random(topo, k, task_seed(net, t));
                let mut pbm = PbmRouter::with_config(pbm_config);
                let report = runner.run(&mut pbm, &task);
                hops += report.transmissions as f64;
                dest_hops += report.mean_dest_hops().unwrap_or(0.0);
            }
        }
        let n = scale.tasks() as f64;
        PbmSensitivityRow {
            max_subset_size: cap,
            candidates_per_dest: cands,
            total_hops: hops / n,
            dest_hops: dest_hops / n,
            routing_seconds: start.elapsed().as_secs_f64(),
        }
    })
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
    use gmp_sim::TaskRunner;

    let config = SimConfig::paper().with_node_count(node_count);
    let mut model = RandomWaypoint::new(
        gmp_geom::Aabb::square(config.area_side),
        node_count,
        config.radio_range,
        speed_ms,
        (0.0, 2.0),
        seed,
    );
    let stale = Arc::new(model.snapshot());

    // GMP routes computed once on the stale snapshot.
    let mut all_links: Vec<(gmp_net::NodeId, gmp_net::NodeId)> = Vec::new();
    {
        let runner = TaskRunner::new(&stale, &config);
        for t in 0..tasks {
            let task = MulticastTask::random(&stale, 12, task_seed(0, t));
            let report = runner.run(&mut GmpRouter::new(), &task);
            all_links.extend(report.links);
        }
    }

    let mut rows = Vec::new();
    let mut elapsed = 0.0f64;
    for &delta in staleness {
        assert!(delta >= elapsed, "staleness values must be non-decreasing");
        model.advance(delta - elapsed);
        elapsed = delta;
        let fresh = model.snapshot();
        let broken = broken_link_fraction(&stale, &fresh);
        let stale_tx = if all_links.is_empty() {
            0.0
        } else {
            all_links
                .iter()
                .filter(|&&(from, to)| !fresh.neighbors(from).contains(&to))
                .count() as f64
                / all_links.len() as f64
        };
        rows.push(MobilityRow {
            staleness_s: delta,
            broken_links: broken,
            stale_tx_fraction: stale_tx,
        });
    }
    rows
}

/// One line of the power-control ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerRow {
    /// Number of destinations.
    pub k: usize,
    /// Protocol label.
    pub protocol: String,
    /// Mean energy per task under the paper's fixed 1.3 W model, joules.
    pub fixed_energy_j: f64,
    /// Mean energy per task with distance-scaled transmit power, joules.
    pub controlled_energy_j: f64,
}

/// Extension ablation: does GMP's energy advantage survive when short
/// hops are genuinely cheap (distance-scaled transmit power, path-loss
/// exponent α = 2, 0.1 W electronics overhead)?
pub fn power_ablation(
    base: &SimConfig,
    scale: &Scale,
    protocols: &[ProtocolKind],
) -> Vec<PowerRow> {
    let fixed_cfg = base.clone();
    let pc_cfg = base
        .clone()
        .with_power_control(gmp_sim::config::PowerControl {
            alpha: 2.0,
            overhead_w: 0.1,
        });
    let topologies: Vec<Arc<Topology>> = (0..scale.networks)
        .map(|i| Arc::new(Topology::random(&base.topology_config(), network_seed(i))))
        .collect();
    let mut jobs = Vec::new();
    for &k in &scale.k_values {
        for &proto in protocols {
            jobs.push((k, proto));
        }
    }
    parallel_map(jobs, |&(k, proto)| {
        let mut fixed = 0.0;
        let mut controlled = 0.0;
        for (net, topo) in topologies.iter().enumerate() {
            for t in 0..scale.tasks_per_network {
                let task = MulticastTask::random(topo, k, task_seed(net, t));
                fixed += proto.run_task(topo, &fixed_cfg, &task).energy_j;
                controlled += proto.run_task(topo, &pc_cfg, &task).energy_j;
            }
        }
        let n = scale.tasks() as f64;
        PowerRow {
            k,
            protocol: proto.to_string(),
            fixed_energy_j: fixed / n,
            controlled_energy_j: controlled / n,
        }
    })
}

/// One line of the radio-range sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct RangeRow {
    /// Radio range in meters.
    pub radio_range: f64,
    /// Protocol label.
    pub protocol: String,
    /// Mean total hops per task.
    pub total_hops: f64,
    /// Mean energy per task, joules.
    pub energy_j: f64,
    /// Failed tasks out of the scale's total.
    pub failed_tasks: usize,
}

/// Extension sweep: the paper fixes the radio range at 150 m; this sweep
/// varies it at fixed node count, trading per-hop reach (fewer hops)
/// against listener cost (denser neighborhoods overhear every
/// transmission) and void frequency (short ranges fragment the network).
pub fn range_sweep(
    base: &SimConfig,
    scale: &Scale,
    protocols: &[ProtocolKind],
    ranges: &[f64],
) -> Vec<RangeRow> {
    struct Job {
        rr: f64,
        net: usize,
        proto: ProtocolKind,
    }
    let mut jobs = Vec::new();
    for &rr in ranges {
        for net in 0..scale.networks {
            for &proto in protocols {
                jobs.push(Job { rr, net, proto });
            }
        }
    }
    let partials = parallel_map(jobs, |job| {
        let config = base.clone().with_radio_range(job.rr);
        let topo = Topology::random(&config.topology_config(), network_seed(job.net));
        let mut hops = 0.0;
        let mut energy = 0.0;
        let mut failed = 0usize;
        for t in 0..scale.tasks_per_network {
            let task = MulticastTask::random(&topo, 12, task_seed(job.net, t));
            let report = job.proto.run_task(&topo, &config, &task);
            hops += report.transmissions as f64;
            energy += report.energy_j;
            if !report.delivered_all() {
                failed += 1;
            }
        }
        (job.rr, job.proto.to_string(), hops, energy, failed)
    });
    let mut rows = Vec::new();
    for &rr in ranges {
        for proto in protocols {
            let label = proto.to_string();
            let mut hops = 0.0;
            let mut energy = 0.0;
            let mut failed = 0usize;
            for p in &partials {
                if p.0 == rr && p.1 == label {
                    hops += p.2;
                    energy += p.3;
                    failed += p.4;
                }
            }
            rows.push(RangeRow {
                radio_range: rr,
                protocol: label,
                total_hops: hops / scale.tasks() as f64,
                energy_j: energy / scale.tasks() as f64,
                failed_tasks: failed,
            });
        }
    }
    rows
}

/// One line of the lossy-channel Figure 15 variant.
#[derive(Debug, Clone, PartialEq)]
pub struct LossRow {
    /// Nodes in the network.
    pub nodes: usize,
    /// Per-transmission loss probability.
    pub loss: f64,
    /// Protocol label.
    pub protocol: String,
    /// Failed tasks normalized to 1000.
    pub failed_per_1000: f64,
}

/// Fidelity ablation: re-run the Figure 15 density sweep over a lossy
/// channel. The paper's ns-2 substrate loses packets to 802.11
/// contention, which is what produced its non-zero failure counts at
/// 400–1000 nodes; injecting a per-transmission loss probability
/// recovers that regime on our otherwise ideal channel.
pub fn loss_sweep(
    base: &SimConfig,
    scale: &Scale,
    protocols: &[ProtocolKind],
    node_counts: &[usize],
    losses: &[f64],
) -> Vec<LossRow> {
    struct Job {
        nodes: usize,
        loss: f64,
        net: usize,
        proto: ProtocolKind,
    }
    let mut jobs = Vec::new();
    for &nodes in node_counts {
        for &loss in losses {
            for net in 0..scale.networks {
                for &proto in protocols {
                    jobs.push(Job {
                        nodes,
                        loss,
                        net,
                        proto,
                    });
                }
            }
        }
    }
    let partials = parallel_map(jobs, |job| {
        let config = base
            .clone()
            .with_node_count(job.nodes)
            .with_max_path_hops(100)
            .with_link_loss_prob(job.loss);
        let topo = Topology::random(&config.topology_config(), network_seed(job.net));
        let runner = gmp_sim::TaskRunner::new(&topo, &config);
        let mut failed = 0usize;
        for t in 0..scale.tasks_per_network {
            let task = MulticastTask::random(&topo, 12, task_seed(job.net, t));
            // Loss must differ per task: seed the loss stream by task.
            let report = match job.proto {
                ProtocolKind::PbmBest => job.proto.run_task(&topo, &config, &task),
                _ => {
                    let mut p = job.proto.build();
                    runner.run_seeded(p.as_mut(), &task, task_seed(job.net, t))
                }
            };
            if !report.delivered_all() {
                failed += 1;
            }
        }
        (job.nodes, job.loss, job.proto.to_string(), failed)
    });
    let mut rows = Vec::new();
    for &nodes in node_counts {
        for &loss in losses {
            for proto in protocols {
                let label = proto.to_string();
                let failed: usize = partials
                    .iter()
                    .filter(|p| p.0 == nodes && p.1 == loss && p.2 == label)
                    .map(|p| p.3)
                    .sum();
                rows.push(LossRow {
                    nodes,
                    loss,
                    protocol: label,
                    failed_per_1000: failed as f64 * 1000.0 / scale.tasks() as f64,
                });
            }
        }
    }
    rows
}

/// One line of the MAC retransmission-tax ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct MacTaxRow {
    /// Protocol label.
    pub protocol: String,
    /// Mean transmissions per task on the ideal MAC.
    pub ideal_tx: f64,
    /// Mean transmissions per task with collisions + jitter + ARQ.
    pub mac_tx: f64,
    /// Relative retransmission overhead (`mac/ideal − 1`).
    pub tax: f64,
    /// Tasks that still failed under the MAC model.
    pub failed_tasks: usize,
}

/// Fidelity ablation: the extra transmissions each protocol pays when the
/// channel has collisions and 802.11-style retransmissions. Parallel-
/// branch protocols (PBM, GRD) collide with themselves and pay heavily;
/// tree protocols barely notice.
pub fn mac_tax(
    base: &SimConfig,
    scale: &Scale,
    protocols: &[ProtocolKind],
    k: usize,
) -> Vec<MacTaxRow> {
    let ideal = base.clone();
    let mac = base
        .clone()
        .with_collisions(true)
        .with_tx_jitter(0.005)
        .with_retransmissions(7);
    let topologies: Vec<Arc<Topology>> = (0..scale.networks)
        .map(|i| Arc::new(Topology::random(&base.topology_config(), network_seed(i))))
        .collect();
    parallel_map(protocols.to_vec(), |&proto| {
        let mut ideal_tx = 0.0;
        let mut mac_tx = 0.0;
        let mut failed = 0usize;
        for (net, topo) in topologies.iter().enumerate() {
            for t in 0..scale.tasks_per_network {
                let task = MulticastTask::random(topo, k, task_seed(net, t));
                ideal_tx += proto.run_task(topo, &ideal, &task).transmissions as f64;
                let r = proto.run_task(topo, &mac, &task);
                mac_tx += r.transmissions as f64;
                if !r.delivered_all() {
                    failed += 1;
                }
            }
        }
        let n = scale.tasks() as f64;
        MacTaxRow {
            protocol: proto.to_string(),
            ideal_tx: ideal_tx / n,
            mac_tx: mac_tx / n,
            tax: mac_tx / ideal_tx - 1.0,
            failed_tasks: failed,
        }
    })
}
