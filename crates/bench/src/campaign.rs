//! Fault-injection robustness campaigns (`experiments guarantees`,
//! `BENCH_6.json`).
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

use std::collections::VecDeque;

use gmp_baselines::ProtocolKind;
use gmp_net::{NodeId, Topology};
use gmp_sim::{FaultPlan, MulticastTask, SimConfig, TaskReport};

use crate::experiments::{panel, Cell, Router, Tally};

/// The campaign's cells, `intensities × protocols`, labeled by intensity
/// (`{:.2}`) and protocol. Every protocol routes the *same* tasks over the
/// *same* networks with the *same* crash sets, so the rows differ only in
/// the protocol's reaction to the faults. `k` destinations per task.
pub fn cells(
    base: &SimConfig,
    protocols: &[ProtocolKind],
    intensities: &[f64],
    k: usize,
) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (index, &fraction) in intensities.iter().enumerate() {
        for mut cell in panel(vec![format!("{fraction:.2}")], base, k, protocols) {
            cell.crashes = Some((fraction, index));
            cells.push(cell);
        }
    }
    cells
}

/// Mean transmissions relative to `base`, the same protocol's
/// zero-intensity tally (`NaN` when the baseline sent nothing).
pub fn hop_overhead(tally: &Tally, base: &Tally) -> f64 {
    let b = base.mean_transmissions();
    if b > 0.0 {
        tally.mean_transmissions() / b - 1.0
    } else {
        f64::NAN
    }
}

/// Checks the delivery certificate on every row of a campaign: each row's
/// delivered, justified and unjustified destinations add up to its total;
/// MCFR and GVG never fail unjustified and keep their mean path stretch
/// below 1.5; GMP never fails unjustified, and SMT does not at intensity
/// 0. `Err` names the first row that breaks it.
pub fn check_certificate(cells: &[Cell], tallies: &[Tally]) -> Result<(), String> {
    use ProtocolKind::{Gmp, Gvg, Mcfr, Smt};
    for (cell, t) in cells.iter().zip(tallies) {
        let Router::Kind(kind) = cell.router else {
            continue;
        };
        let fraction = cell.crashes.map_or(0.0, |(fraction, _)| fraction);
        let stretch = t.mean_path_stretch();
        let broken = if t.delivered + t.justified + t.unjustified != t.dests {
            format!(
                "{} delivered + {} justified + {} unjustified != {} destinations",
                t.delivered, t.justified, t.unjustified, t.dests
            )
        } else if t.unjustified > 0
            && (matches!(kind, Mcfr | Gvg | Gmp) || kind == Smt && fraction == 0.0)
        {
            format!("unjustified failures: {}", t.unjustified)
        } else if matches!(kind, Mcfr | Gvg) && (stretch.is_nan() || stretch >= 1.5) {
            format!("mean path stretch {stretch} is not below 1.5")
        } else {
            continue;
        };
        let (intensity, protocol) = (&cell.labels[0], &cell.labels[1]);
        return Err(format!("intensity {intensity}, {protocol}: {broken}"));
    }
    Ok(())
}

/// Per-node liveness implied by a campaign fault plan at t = 0 (the
/// campaigns crash nodes only at the start, so this is the whole story).
/// The task source is always exempt, matching the runtime.
fn initial_alive(plan: &FaultPlan, n: usize, source: NodeId) -> Vec<bool> {
    let mut alive = vec![true; n];
    for crash in plan.crashes.iter().filter(|c| c.at_s <= 0.0) {
        alive[crash.node.index()] = false;
    }
    alive[source.index()] = true;
    alive
}

/// BFS hop distances from `source` over the alive unit-disk graph
/// (`u32::MAX` = unreachable).
fn bfs_hops(topo: &Topology, alive: &[bool], source: NodeId) -> Vec<u32> {
    let mut dist = vec![u32::MAX; topo.len()];
    dist[source.index()] = 0;
    let mut q = VecDeque::from([source]);
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

/// Adds each delivered destination's hop count over its BFS hop distance
/// on the faulted graph to `tally`'s path stretch.
pub(crate) fn add_path_stretch(
    tally: &mut Tally,
    topo: &Topology,
    config: &SimConfig,
    task: &MulticastTask,
    report: &TaskReport,
) {
    if report.delivery_hops.is_empty() {
        return;
    }
    let alive = initial_alive(&config.faults, config.node_count, task.source);
    let shortest = bfs_hops(topo, &alive, task.source);
    for (&d, &h) in &report.delivery_hops {
        let s = shortest[d.index()];
        if s > 0 && s != u32::MAX {
            tally.stretch += h as f64 / s as f64;
            tally.stretch_n += 1;
        }
    }
}

/// Seed of the crash-placement shuffle for one (network, intensity) cell.
/// Distinct from the topology and task seeds so the three random layers
/// never correlate.
pub(crate) fn crash_seed(net: usize, intensity_idx: usize) -> u64 {
    0xFA17_0000 + net as u64 * 64 + intensity_idx as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{sweep, Scale};
    use gmp_baselines::ProtocolKind::{Gmp, Grd, Gvg, Mcfr, Smt};

    fn tiny_config() -> SimConfig {
        SimConfig::paper()
            .with_area_side(600.0)
            .with_node_count(250)
    }

    /// One network, four tasks of 6 destinations per cell.
    fn campaign(
        config: &SimConfig,
        protocols: &[ProtocolKind],
        intensities: &[f64],
    ) -> Vec<(Cell, Tally)> {
        let scale = Scale {
            networks: 1,
            tasks_per_network: 4,
            k_values: vec![6],
        };
        let cells = cells(config, protocols, intensities, 6);
        let tallies = sweep(&cells, &scale, 0);
        cells.into_iter().zip(tallies).collect()
    }

    #[test]
    fn campaign_produces_full_grid_with_consistent_counts() {
        let rows = campaign(&tiny_config(), &[Gmp, Smt], &[0.0, 0.1]);
        assert_eq!(rows.len(), 4);
        for (_, r) in &rows {
            assert_eq!(r.delivered + r.justified + r.unjustified, r.dests, "{r:?}");
            assert_eq!(r.causes.iter().sum::<usize>(), r.justified + r.unjustified);
            assert!((0.0..=1.0).contains(&r.delivery_ratio()));
        }
    }

    #[test]
    fn zero_intensity_rows_are_fault_free() {
        let rows = campaign(&tiny_config(), &[Gmp], &[0.0]);
        assert_eq!(rows.len(), 1);
        let r = &rows[0].1;
        assert_eq!(r.delivery_ratio(), 1.0, "{r:?}");
        assert_eq!(hop_overhead(r, r), 0.0);
    }

    #[test]
    fn path_stretch_is_at_least_one_and_tracks_shortest_paths() {
        for (_, r) in &campaign(&tiny_config(), &[Grd, Mcfr, Gvg], &[0.0, 0.1]) {
            if r.delivered > 0 {
                assert!(
                    r.mean_path_stretch() >= 1.0 - 1e-9,
                    "no protocol can beat BFS shortest hops: {r:?}"
                );
                assert!(r.mean_path_stretch().is_finite(), "{r:?}");
            }
        }
    }

    #[test]
    fn guaranteed_protocols_have_zero_unjustified_failures_in_campaign() {
        let config = tiny_config().with_max_path_hops(4000);
        for (cell, r) in &campaign(&config, &[Mcfr, Gvg], &[0.0, 0.15, 0.3]) {
            assert_eq!(
                r.unjustified, 0,
                "{} leaked unjustified failures at intensity {}: {r:?}",
                cell.labels[1], cell.labels[0]
            );
        }
    }

    #[test]
    fn certificate_names_the_first_row_it_rejects() {
        let config = tiny_config().with_max_path_hops(4000);
        let rows = campaign(&config, &[Gmp, Smt, Mcfr], &[0.0, 0.1]);
        let (cells, mut tallies): (Vec<Cell>, Vec<Tally>) = rows.into_iter().unzip();
        assert_eq!(check_certificate(&cells, &tallies), Ok(()));
        // MCFR's crashed row misses one destination it could have reached…
        tallies[5].delivered -= 1;
        tallies[5].unjustified += 1;
        let unjustified = format!("unjustified failures: {}", tallies[5].unjustified);
        let err = check_certificate(&cells, &tallies).unwrap_err();
        assert_eq!(err, format!("intensity 0.10, MCFR: {unjustified}"));
        // …or counts more destinations than it was given.
        tallies[5].delivered += 1;
        let err = check_certificate(&cells, &tallies).unwrap_err();
        assert!(
            err.starts_with("intensity 0.10, MCFR: ") && err.contains("!="),
            "{err}"
        );
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
