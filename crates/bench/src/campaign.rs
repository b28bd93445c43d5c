//! Fault-injection robustness campaigns (`BENCH_6.json`).
//!
//! The paper evaluates GMP on ideal static networks and only discusses
//! voids qualitatively (Section 4.2). This campaign makes robustness a
//! measured trajectory: sweep a fault-intensity dial (the fraction of
//! nodes crashed at t = 0 by [`FaultPlan::random_crashes`]) against a
//! protocol panel, and let the delivery-guarantee oracle split every
//! failed destination into *justified* (the faulted graph is genuinely
//! disconnected — no protocol could have delivered) and *unjustified*
//! (a route existed and the protocol missed it). The unjustified rate is
//! the metric the ideal-channel figures cannot show: it isolates
//! protocol-attributable loss from topology-attributable loss.

use std::sync::Arc;

use gmp_net::{NodeId, Topology};
use gmp_sim::{FailureCause, FaultEvent, FaultPlan, MulticastTask, SimConfig};

use crate::experiments::{network_seed, parallel_map, task_seed, Scale};
use crate::protocols::ProtocolKind;

/// Number of distinct [`FailureCause`] values (histogram width).
pub const CAUSE_COUNT: usize = FailureCause::ALL.len();

/// One aggregated line of the robustness campaign: a (fault intensity,
/// protocol) cell of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRow {
    /// Fraction of nodes crashed at t = 0.
    pub intensity: f64,
    /// Protocol label.
    pub protocol: String,
    /// Destinations delivered across all tasks.
    pub delivered: usize,
    /// Destinations attempted across all tasks.
    pub total_dests: usize,
    /// `delivered / total_dests`.
    pub delivery_ratio: f64,
    /// Failed destinations the oracle blames on the faulted graph
    /// (disconnected or dead destination) — unavoidable losses.
    pub justified_failures: usize,
    /// Failed destinations that were reachable on the faulted graph —
    /// protocol-attributable losses.
    pub unjustified_failures: usize,
    /// `unjustified_failures / total_dests`.
    pub unjustified_rate: f64,
    /// Mean per-destination hop count over delivered destinations.
    pub mean_dest_hops: f64,
    /// Mean path stretch over delivered destinations: delivered hop count
    /// divided by the BFS hop distance on the faulted graph (1.0 =
    /// shortest possible; `NaN` when nothing was delivered). The
    /// guarantees-vs-overhead frontier plots this against
    /// `unjustified_rate`.
    pub mean_path_stretch: f64,
    /// Mean transmissions per task.
    pub total_hops: f64,
    /// `total_hops` relative to the same protocol's intensity-0 row
    /// (`NaN` when the sweep has no zero-intensity baseline).
    pub hop_overhead: f64,
    /// Failure histogram indexed by [`FailureCause::index`].
    pub cause_counts: [usize; CAUSE_COUNT],
    /// Tasks aggregated into this row.
    pub tasks: usize,
}

/// Per-node liveness implied by a campaign fault plan at t = 0 (the
/// campaigns crash nodes only at the start, so this is the whole story).
/// The task source is always exempt, matching the runtime.
fn initial_alive(plan: &FaultPlan, n: usize, source: NodeId) -> Vec<bool> {
    let mut alive = vec![true; n];
    for e in &plan.events {
        if let FaultEvent::Crash { node, at_s } = e {
            if *at_s <= 0.0 {
                alive[node.index()] = false;
            }
        }
    }
    alive[source.index()] = true;
    alive
}

/// BFS hop distances from `source` over the alive unit-disk graph
/// (`u32::MAX` = unreachable).
fn bfs_hops(topo: &Topology, alive: &[bool], source: NodeId) -> Vec<u32> {
    let mut dist = vec![u32::MAX; topo.len()];
    dist[source.index()] = 0;
    let mut q = std::collections::VecDeque::from([source]);
    while let Some(u) = q.pop_front() {
        let du = dist[u.index()];
        for &v in topo.neighbors(u) {
            if alive[v.index()] && dist[v.index()] == u32::MAX {
                dist[v.index()] = du + 1;
                q.push_back(v);
            }
        }
    }
    dist
}

/// Seed of the crash-placement shuffle for one (network, intensity) cell.
/// Distinct from the topology and task seeds so the three random layers
/// never correlate.
pub(crate) fn crash_seed(net: usize, intensity_idx: usize) -> u64 {
    0xFA17_0000 + net as u64 * 64 + intensity_idx as u64
}

/// Runs the robustness campaign: for every intensity, every protocol
/// routes the *same* tasks over the *same* networks with the *same*
/// crash sets, so the rows differ only in the protocol's reaction to the
/// faults. `k` destinations per task.
pub fn robustness_campaign(
    base: &SimConfig,
    scale: &Scale,
    protocols: &[ProtocolKind],
    intensities: &[f64],
    k: usize,
) -> Vec<CampaignRow> {
    let topologies: Vec<Arc<Topology>> = (0..scale.networks)
        .map(|i| Arc::new(Topology::random(&base.topology_config(), network_seed(i))))
        .collect();

    struct Job {
        intensity_idx: usize,
        net: usize,
        proto: ProtocolKind,
    }
    struct Partial {
        intensity_idx: usize,
        label: String,
        delivered: usize,
        total_dests: usize,
        justified: usize,
        unjustified: usize,
        dest_hops: f64,
        dest_hops_n: usize,
        stretch: f64,
        stretch_n: usize,
        hops: f64,
        causes: [usize; CAUSE_COUNT],
    }
    let mut jobs = Vec::new();
    for intensity_idx in 0..intensities.len() {
        for net in 0..scale.networks {
            for &proto in protocols {
                jobs.push(Job {
                    intensity_idx,
                    net,
                    proto,
                });
            }
        }
    }
    let partials = parallel_map(jobs, |job| {
        let intensity = intensities[job.intensity_idx];
        let topo = &topologies[job.net];
        let plan = FaultPlan::random_crashes(
            base.node_count,
            intensity,
            0.0,
            crash_seed(job.net, job.intensity_idx),
        );
        let config = base.clone().with_faults(plan);
        let mut p = Partial {
            intensity_idx: job.intensity_idx,
            label: job.proto.label(),
            delivered: 0,
            total_dests: 0,
            justified: 0,
            unjustified: 0,
            dest_hops: 0.0,
            dest_hops_n: 0,
            stretch: 0.0,
            stretch_n: 0,
            hops: 0.0,
            causes: [0; CAUSE_COUNT],
        };
        for t in 0..scale.tasks_per_network {
            let task = MulticastTask::random(topo, k, task_seed(job.net, t));
            let report = job.proto.run_task(topo, &config, &task);
            p.total_dests += task.dests.len();
            p.delivered += report.delivered_count();
            p.hops += report.transmissions as f64;
            if let Some(h) = report.mean_dest_hops() {
                p.dest_hops += h;
                p.dest_hops_n += 1;
            }
            if !report.delivery_hops.is_empty() {
                let alive = initial_alive(&config.faults, base.node_count, task.source);
                let shortest = bfs_hops(topo, &alive, task.source);
                for (&d, &h) in &report.delivery_hops {
                    let s = shortest[d.index()];
                    if s > 0 && s != u32::MAX {
                        p.stretch += h as f64 / s as f64;
                        p.stretch_n += 1;
                    }
                }
            }
            for f in &report.failed_dests {
                p.causes[f.cause.index()] += 1;
                if f.is_justified() {
                    p.justified += 1;
                } else {
                    p.unjustified += 1;
                }
            }
        }
        p
    });

    // Aggregate over networks, then relate hop counts to the protocol's
    // own zero-intensity baseline.
    let mut rows: Vec<CampaignRow> = Vec::new();
    for (intensity_idx, &intensity) in intensities.iter().enumerate() {
        for proto in protocols {
            let label = proto.label();
            let mut delivered = 0usize;
            let mut total_dests = 0usize;
            let mut justified = 0usize;
            let mut unjustified = 0usize;
            let mut dest_hops = 0.0;
            let mut dest_hops_n = 0usize;
            let mut stretch = 0.0;
            let mut stretch_n = 0usize;
            let mut hops = 0.0;
            let mut causes = [0usize; CAUSE_COUNT];
            for p in &partials {
                if p.intensity_idx == intensity_idx && p.label == label {
                    delivered += p.delivered;
                    total_dests += p.total_dests;
                    justified += p.justified;
                    unjustified += p.unjustified;
                    dest_hops += p.dest_hops;
                    dest_hops_n += p.dest_hops_n;
                    stretch += p.stretch;
                    stretch_n += p.stretch_n;
                    hops += p.hops;
                    for (slot, c) in causes.iter_mut().zip(p.causes) {
                        *slot += c;
                    }
                }
            }
            let tasks = scale.tasks();
            rows.push(CampaignRow {
                intensity,
                protocol: label,
                delivered,
                total_dests,
                delivery_ratio: delivered as f64 / total_dests.max(1) as f64,
                justified_failures: justified,
                unjustified_failures: unjustified,
                unjustified_rate: unjustified as f64 / total_dests.max(1) as f64,
                mean_dest_hops: if dest_hops_n > 0 {
                    dest_hops / dest_hops_n as f64
                } else {
                    f64::NAN
                },
                mean_path_stretch: if stretch_n > 0 {
                    stretch / stretch_n as f64
                } else {
                    f64::NAN
                },
                total_hops: hops / tasks as f64,
                hop_overhead: f64::NAN, // filled below
                cause_counts: causes,
                tasks,
            });
        }
    }
    for i in 0..rows.len() {
        let baseline = rows
            .iter()
            .find(|r| r.intensity == 0.0 && r.protocol == rows[i].protocol)
            .map(|r| r.total_hops);
        if let Some(b) = baseline {
            if b > 0.0 {
                rows[i].hop_overhead = rows[i].total_hops / b - 1.0;
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (SimConfig, Scale) {
        (
            SimConfig::paper()
                .with_area_side(600.0)
                .with_node_count(250),
            Scale {
                networks: 1,
                tasks_per_network: 4,
                k_values: vec![6],
            },
        )
    }

    #[test]
    fn campaign_produces_full_grid_with_consistent_counts() {
        let (config, scale) = tiny();
        let rows = robustness_campaign(
            &config,
            &scale,
            &[ProtocolKind::Gmp, ProtocolKind::Smt],
            &[0.0, 0.1],
            6,
        );
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert_eq!(
                r.delivered + r.justified_failures + r.unjustified_failures,
                r.total_dests,
                "{r:?}"
            );
            assert_eq!(
                r.cause_counts.iter().sum::<usize>(),
                r.justified_failures + r.unjustified_failures
            );
            assert!((0.0..=1.0).contains(&r.delivery_ratio));
        }
    }

    #[test]
    fn zero_intensity_rows_are_fault_free() {
        let (config, scale) = tiny();
        let rows = robustness_campaign(&config, &scale, &[ProtocolKind::Gmp], &[0.0], 6);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].delivery_ratio, 1.0, "{:?}", rows[0]);
        assert_eq!(rows[0].hop_overhead, 0.0);
    }

    #[test]
    fn path_stretch_is_at_least_one_and_tracks_shortest_paths() {
        let (config, scale) = tiny();
        let rows = robustness_campaign(
            &config,
            &scale,
            &[ProtocolKind::Grd, ProtocolKind::Mcfr, ProtocolKind::Gvg],
            &[0.0, 0.1],
            6,
        );
        for r in &rows {
            if r.delivered > 0 {
                assert!(
                    r.mean_path_stretch >= 1.0 - 1e-9,
                    "no protocol can beat BFS shortest hops: {r:?}"
                );
                assert!(r.mean_path_stretch.is_finite(), "{r:?}");
            }
        }
    }

    #[test]
    fn guaranteed_protocols_have_zero_unjustified_failures_in_campaign() {
        let (config, scale) = tiny();
        let config = config.with_max_path_hops(4000);
        let rows = robustness_campaign(
            &config,
            &scale,
            &[ProtocolKind::Mcfr, ProtocolKind::Gvg],
            &[0.0, 0.15, 0.3],
            6,
        );
        for r in &rows {
            assert_eq!(
                r.unjustified_failures, 0,
                "{} leaked unjustified failures at intensity {}: {r:?}",
                r.protocol, r.intensity
            );
        }
    }

    #[test]
    fn crash_seeds_are_distinct_across_cells() {
        let mut seen = std::collections::BTreeSet::new();
        for net in 0..10 {
            for ii in 0..8 {
                assert!(seen.insert(crash_seed(net, ii)));
            }
        }
    }
}
