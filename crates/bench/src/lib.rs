//! Experiment harness regenerating every figure of the paper's evaluation
//! (Section 5), plus the ablations called out in DESIGN.md.
//!
//! The heavy lifting lives in this library so that the `experiments`
//! binary, the integration tests, and the Criterion benches all share one
//! implementation:
//!
//! * [`protocols`] — a uniform factory over GMP and all baselines,
//!   including the per-task λ sweep that defines "PBM" in Figures 11–14;
//! * [`experiments`] — the Figure 11/12/14 sweep over the destination
//!   count, the Figure 15 density sweep, and the extension ablations;
//! * [`campaign`] — fault-injection robustness campaigns judged by the
//!   delivery-guarantee oracle (`experiments guarantees`, `BENCH_6.json`);
//! * [`table`] — plain-text table rendering and CSV output;
//! * [`chart`] — SVG line charts, regenerating the figures themselves.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod campaign;
pub mod chart;
pub mod experiments;
pub mod protocols;
pub mod rss;
pub mod scale;
pub mod service;
pub mod table;

pub use campaign::{robustness_campaign, CampaignRow};
pub use chart::LineChart;
pub use experiments::{
    density_sweep, destination_sweep, loss_sweep, mac_tax, mobility_ablation, overhead_ablation,
    pbm_sensitivity, planar_ablation, power_ablation, range_sweep, tree_length_ablation,
    DensityRow, Scale, SweepRow,
};
pub use protocols::ProtocolKind;
pub use rss::peak_rss_bytes;
pub use scale::{scale_curve, ScalePoint};
pub use service::{paper_scaling_curve, sharded_service_point, ServicePoint};
pub use table::{render_table, write_csv};

/// Planar-kind constants shared with the ablation (kept out of the public
/// surface of `gmp-sim`'s serde config type).
pub(crate) mod experiments_planar {
    use gmp_sim::config::PlanarKindConfig;
    /// Gabriel graph configuration value.
    pub const GABRIEL: PlanarKindConfig = PlanarKindConfig::Gabriel;
    /// Relative neighborhood graph configuration value.
    pub const RNG: PlanarKindConfig = PlanarKindConfig::RelativeNeighborhood;
}
