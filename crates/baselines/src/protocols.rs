//! The one name → router registry: every protocol in the evaluation,
//! parsed from and displayed as the names the `gmp` CLI, the
//! `experiments` harness and their tables share.

use std::fmt;
use std::str::FromStr;

use gmp_core::GmpRouter;
use gmp_net::Topology;
use gmp_sim::{MulticastTask, Protocol, SimConfig, TaskReport, TaskRunner};

use crate::{
    DsmRouter, GrdRouter, GvgRouter, LgkRouter, LgsRouter, McfrRouter, PbmRouter, SmtRouter,
};

/// The λ values the paper sweeps for PBM ("we have run the same routing
/// task seven times, with the value of λ varying from 0 to 0.6").
const PBM_LAMBDAS: [f64; 7] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6];

/// Which protocol to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProtocolKind {
    /// GMP, the paper's contribution.
    Gmp,
    /// GMP without radio-range awareness (the paper's GMPnr ablation).
    GmpNr,
    /// PBM with a fixed λ.
    Pbm(f64),
    /// PBM as reported in the paper's figures: each task is run once per
    /// λ ∈ {0, 0.1, …, 0.6} and the run with the fewest total hops wins.
    PbmBest,
    /// Location-guided Steiner (LGT's LGS).
    Lgs,
    /// Location-guided k-ary tree (LGT's LGK) — extension.
    Lgk(usize),
    /// Independent greedy unicast per destination.
    Grd,
    /// Dynamic Source Multicast (frozen source-side MST) — extension.
    Dsm,
    /// Centralized KMB Steiner tree with source routing.
    Smt,
    /// Concurrent face routing multicast (guaranteed delivery) — extension.
    Mcfr,
    /// Greedy multicast with GVG-style void traversal (guaranteed
    /// delivery) — extension.
    Gvg,
}

/// Every kind a name selects, in the order error messages list them.
/// `PBM` and `LGK` name their default parameterizations.
const NAMED: [(&str, ProtocolKind); 10] = [
    ("gmp", ProtocolKind::Gmp),
    ("gmpnr", ProtocolKind::GmpNr),
    ("pbm", ProtocolKind::PbmBest),
    ("lgs", ProtocolKind::Lgs),
    ("lgk", ProtocolKind::Lgk(2)),
    ("grd", ProtocolKind::Grd),
    ("dsm", ProtocolKind::Dsm),
    ("smt", ProtocolKind::Smt),
    ("mcfr", ProtocolKind::Mcfr),
    ("gvg", ProtocolKind::Gvg),
];

/// A name [`ProtocolKind::from_str`] does not know. Its message lists the
/// names it does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownProtocol(String);

impl fmt::Display for UnknownProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown protocol `{}` (expected ", self.0)?;
        for (i, (name, _)) in NAMED.iter().enumerate() {
            let sep = if i == 0 { "" } else { "|" };
            write!(f, "{sep}{name}")?;
        }
        f.write_str(")")
    }
}

impl std::error::Error for UnknownProtocol {}

/// Parses a protocol name, case-insensitively and ignoring surrounding
/// whitespace: `gmp`, `gmpnr`, `pbm`, `lgs`, `lgk`, `grd`, `dsm`, `smt`,
/// `mcfr` or `gvg`.
impl FromStr for ProtocolKind {
    type Err = UnknownProtocol;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let name = s.trim();
        NAMED
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|&(_, kind)| kind)
            .ok_or_else(|| UnknownProtocol(name.to_ascii_lowercase()))
    }
}

/// The label used in tables, CSV headers and `BENCH_6.json`.
impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolKind::Gmp => f.write_str("GMP"),
            ProtocolKind::GmpNr => f.write_str("GMPnr"),
            ProtocolKind::Pbm(l) => write!(f, "PBM(λ={l})"),
            ProtocolKind::PbmBest => f.write_str("PBM"),
            ProtocolKind::Lgs => f.write_str("LGS"),
            ProtocolKind::Lgk(k) => write!(f, "LGK(k={k})"),
            ProtocolKind::Grd => f.write_str("GRD"),
            ProtocolKind::Dsm => f.write_str("DSM"),
            ProtocolKind::Smt => f.write_str("SMT"),
            ProtocolKind::Mcfr => f.write_str("MCFR"),
            ProtocolKind::Gvg => f.write_str("GVG"),
        }
    }
}

impl ProtocolKind {
    /// Instantiates a fresh router (protocols are cheap to build; SMT
    /// computes its tree lazily per task).
    pub fn build(&self) -> Box<dyn Protocol> {
        match *self {
            ProtocolKind::Gmp => Box::new(GmpRouter::new()),
            ProtocolKind::GmpNr => Box::new(GmpRouter::without_radio_range_awareness()),
            ProtocolKind::Pbm(l) => Box::new(PbmRouter::with_lambda(l)),
            // PbmBest is resolved in `run_task`; building it alone yields
            // the default λ.
            ProtocolKind::PbmBest => Box::new(PbmRouter::new()),
            ProtocolKind::Lgs => Box::new(LgsRouter::new()),
            ProtocolKind::Lgk(k) => Box::new(LgkRouter::new(k)),
            ProtocolKind::Grd => Box::new(GrdRouter::new()),
            ProtocolKind::Dsm => Box::new(DsmRouter::new()),
            ProtocolKind::Smt => Box::new(SmtRouter::new()),
            ProtocolKind::Mcfr => Box::new(McfrRouter::new()),
            ProtocolKind::Gvg => Box::new(GvgRouter::new()),
        }
    }

    /// Runs one task, resolving [`ProtocolKind::PbmBest`]'s per-task λ
    /// sweep exactly as the paper does (keep the run with the fewest
    /// total hops).
    pub fn run_task(
        &self,
        topo: &Topology,
        config: &SimConfig,
        task: &MulticastTask,
    ) -> TaskReport {
        let runner = TaskRunner::new(topo, config);
        match self {
            ProtocolKind::PbmBest => PBM_LAMBDAS
                .iter()
                .map(|&l| {
                    let mut p = PbmRouter::with_lambda(l);
                    runner.run(&mut p, task)
                })
                .min_by(|a, b| {
                    // Prefer full delivery, then fewest transmissions.
                    (a.failed_dests.len(), a.transmissions)
                        .cmp(&(b.failed_dests.len(), b.transmissions))
                })
                .expect("lambda sweep non-empty"),
            _ => {
                let mut p = self.build();
                runner.run(p.as_mut(), task)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct_and_nonempty() {
        let kinds = [
            ProtocolKind::Gmp,
            ProtocolKind::GmpNr,
            ProtocolKind::Pbm(0.2),
            ProtocolKind::PbmBest,
            ProtocolKind::Lgs,
            ProtocolKind::Lgk(2),
            ProtocolKind::Grd,
            ProtocolKind::Dsm,
            ProtocolKind::Smt,
            ProtocolKind::Mcfr,
            ProtocolKind::Gvg,
        ];
        let labels: Vec<String> = kinds.iter().map(|k| k.to_string()).collect();
        for l in &labels {
            assert!(!l.is_empty());
        }
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
        // Every parameterless kind parses back from its own label.
        for kind in kinds {
            if !matches!(kind, ProtocolKind::Pbm(_) | ProtocolKind::Lgk(_)) {
                assert_eq!(kind.to_string().parse(), Ok(kind));
            }
        }
    }

    #[test]
    fn every_kind_builds_and_runs() {
        let config = SimConfig::paper()
            .with_node_count(300)
            .with_area_side(700.0);
        let topo = Topology::random(&config.topology_config(), 2);
        let task = MulticastTask::random(&topo, 5, 3);
        for kind in [
            ProtocolKind::Gmp,
            ProtocolKind::GmpNr,
            ProtocolKind::Pbm(0.3),
            ProtocolKind::Lgs,
            ProtocolKind::Lgk(2),
            ProtocolKind::Grd,
            ProtocolKind::Dsm,
            ProtocolKind::Smt,
            ProtocolKind::Mcfr,
            ProtocolKind::Gvg,
        ] {
            let report = kind.run_task(&topo, &config, &task);
            assert!(
                report.delivered_all(),
                "{kind} failed {:?}",
                report.failed_dests
            );
        }
    }

    #[test]
    fn tokens_round_trip_for_every_unparameterized_kind() {
        for kind in [
            ProtocolKind::Gmp,
            ProtocolKind::GmpNr,
            ProtocolKind::PbmBest,
            ProtocolKind::Lgs,
            ProtocolKind::Grd,
            ProtocolKind::Dsm,
            ProtocolKind::Smt,
            ProtocolKind::Mcfr,
            ProtocolKind::Gvg,
        ] {
            assert_eq!(kind.to_string().to_lowercase().parse(), Ok(kind));
            assert_eq!(kind.to_string().to_uppercase().parse(), Ok(kind));
        }
        assert_eq!(" lgk ".parse(), Ok(ProtocolKind::Lgk(2)));
        let unknown = "Nope".parse::<ProtocolKind>().unwrap_err().to_string();
        assert_eq!(
            unknown,
            "unknown protocol `nope` (expected gmp|gmpnr|pbm|lgs|lgk|grd|dsm|smt|mcfr|gvg)"
        );
        assert!("".parse::<ProtocolKind>().is_err());
    }

    #[test]
    fn pbm_best_never_worse_than_any_single_lambda() {
        let config = SimConfig::paper()
            .with_node_count(300)
            .with_area_side(700.0);
        let topo = Topology::random(&config.topology_config(), 4);
        let task = MulticastTask::random(&topo, 8, 5);
        let best = ProtocolKind::PbmBest.run_task(&topo, &config, &task);
        for &l in &PBM_LAMBDAS {
            let single = ProtocolKind::Pbm(l).run_task(&topo, &config, &task);
            if single.delivered_all() {
                assert!(best.transmissions <= single.transmissions);
            }
        }
    }
}
