//! Simulation parameters (the paper's Table 1).

use gmp_faults::FaultPlan;
use gmp_net::{PlanarKind, TopologyConfig};

/// All knobs of a simulation run. [`SimConfig::paper`] reproduces Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Side of the square deployment area, meters (paper: 1000).
    pub area_side: f64,
    /// Number of nodes (paper: 1000; Fig. 15 sweeps 400–1000).
    pub node_count: usize,
    /// Channel data rate, bits per second (paper: 1 Mbps).
    pub data_rate_bps: f64,
    /// Transmission power, watts (paper: 1.3 W).
    pub tx_power_w: f64,
    /// Receiving power, watts (paper: 0.9 W).
    pub rx_power_w: f64,
    /// Message size, bytes (paper: 128 B, fixed).
    pub message_bytes: usize,
    /// Radio range, meters (paper: 150 m).
    pub radio_range: f64,
    /// Per-destination hop cap; a packet exceeding it is dropped
    /// (paper Section 5.4: 100).
    pub max_path_hops: u32,
    /// Planar subgraph used for perimeter routing.
    pub planar: PlanarKind,
    /// When `true`, airtime (and hence energy) scales with the packet's
    /// size ([`MulticastPacket::encoded_len`](crate::MulticastPacket::encoded_len))
    /// instead of the fixed `message_bytes` — the header-overhead
    /// ablation. The paper uses fixed-size messages.
    pub size_dependent_airtime: bool,
    /// Fault-injection plan (extension): Bernoulli node/link failure
    /// probabilities plus an optional list of timed node crashes.
    /// [`FaultPlan::none`] — the default — reproduces the paper's
    /// fault-free runs bit-for-bit.
    pub faults: FaultPlan,
    /// Random per-transmission start jitter in seconds (extension):
    /// approximates carrier-sense/backoff staggering without modeling a
    /// full CSMA MAC. 0 means every forward leaves the instant it is
    /// decided. Only meaningful together with [`SimConfig::collisions`].
    pub tx_jitter_s: f64,
    /// Link-layer retransmissions after a collision (extension): 802.11
    /// retries a unicast frame up to 7 times, which is what made the
    /// paper's no-ARQ routing protocols survive a contended channel.
    /// Each retry costs a transmission and energy. Only meaningful with
    /// [`SimConfig::collisions`].
    pub max_retransmissions: u8,
    /// Model half-duplex radios and co-channel collisions (extension): a
    /// copy is lost if, during its airtime, any *other* node within radio
    /// range of the receiver is also transmitting (including the receiver
    /// itself). This is a protocol-model interference check — no capture,
    /// no backoff, no retransmissions — approximating the contention
    /// losses of the paper's 802.11 substrate without a tuning knob.
    pub collisions: bool,
    /// Optional transmit power control (extension): when set, the
    /// transmit power of each hop scales with the link distance as
    /// `overhead_w + (d / radio_range)^alpha · tx_power_w` instead of the
    /// paper's fixed 1.3 W. The paper's model corresponds to `None`.
    pub power_control: Option<PowerControl>,
    /// Hard cap on simulator events per task, guarding against protocol
    /// bugs that would loop forever.
    pub max_events: usize,
}

/// Distance-scaled transmit power parameters (extension).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerControl {
    /// Path-loss exponent (free space 2, typical ground deployments 2–4).
    pub alpha: f64,
    /// Fixed electronics overhead per transmission, watts.
    pub overhead_w: f64,
}

impl SimConfig {
    /// The paper's Table 1 configuration.
    pub fn paper() -> Self {
        SimConfig {
            area_side: 1000.0,
            node_count: 1000,
            data_rate_bps: 1_000_000.0,
            tx_power_w: 1.3,
            rx_power_w: 0.9,
            message_bytes: 128,
            radio_range: 150.0,
            max_path_hops: 100,
            planar: PlanarKind::Gabriel,
            size_dependent_airtime: false,
            faults: FaultPlan::none(),
            max_retransmissions: 0,
            tx_jitter_s: 0.0,
            collisions: false,
            power_control: None,
            max_events: 200_000,
        }
    }

    /// Replaces the deployment area side.
    pub fn with_area_side(mut self, side: f64) -> Self {
        self.area_side = side;
        self
    }

    /// Replaces the node count.
    pub fn with_node_count(mut self, n: usize) -> Self {
        self.node_count = n;
        self
    }

    /// Replaces the radio range.
    pub fn with_radio_range(mut self, rr: f64) -> Self {
        self.radio_range = rr;
        self
    }

    /// Replaces the per-destination hop cap.
    pub fn with_max_path_hops(mut self, hops: u32) -> Self {
        self.max_path_hops = hops;
        self
    }

    /// Enables size-dependent airtime (header-overhead ablation).
    pub fn with_size_dependent_airtime(mut self, on: bool) -> Self {
        self.size_dependent_airtime = on;
        self
    }

    /// Sets the Bernoulli node-failure injection probability (routed
    /// through [`SimConfig::faults`]).
    pub fn with_node_failure_prob(mut self, p: f64) -> Self {
        self.faults = self.faults.with_node_failure_prob(p);
        self
    }

    /// Sets the link-layer retransmission budget used after collisions.
    pub fn with_retransmissions(mut self, retries: u8) -> Self {
        self.max_retransmissions = retries;
        self
    }

    /// Sets the per-transmission start jitter.
    pub fn with_tx_jitter(mut self, jitter_s: f64) -> Self {
        assert!(jitter_s >= 0.0, "jitter must be non-negative");
        self.tx_jitter_s = jitter_s;
        self
    }

    /// Enables the half-duplex/co-channel collision model.
    pub fn with_collisions(mut self, on: bool) -> Self {
        self.collisions = on;
        self
    }

    /// Sets the Bernoulli per-transmission loss probability (routed
    /// through [`SimConfig::faults`]).
    pub fn with_link_loss_prob(mut self, p: f64) -> Self {
        self.faults = self.faults.with_link_loss_prob(p);
        self
    }

    /// Replaces the whole fault-injection plan.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Enables distance-scaled transmit power (extension ablation).
    pub fn with_power_control(mut self, pc: PowerControl) -> Self {
        assert!(pc.alpha >= 1.0, "path-loss exponent must be ≥ 1");
        assert!(pc.overhead_w >= 0.0, "overhead must be non-negative");
        self.power_control = Some(pc);
        self
    }

    /// The planar subgraph perimeter routing walks.
    pub fn planar_kind(&self) -> PlanarKind {
        self.planar
    }

    /// The topology generator settings implied by this configuration.
    pub fn topology_config(&self) -> TopologyConfig {
        TopologyConfig::new(self.area_side, self.node_count, self.radio_range)
    }

    /// Airtime of one fixed-size message, seconds.
    pub fn message_airtime(&self) -> f64 {
        self.message_bytes as f64 * 8.0 / self.data_rate_bps
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table_1() {
        let c = SimConfig::paper();
        assert_eq!(c.area_side, 1000.0);
        assert_eq!(c.node_count, 1000);
        assert_eq!(c.data_rate_bps, 1_000_000.0);
        assert_eq!(c.tx_power_w, 1.3);
        assert_eq!(c.rx_power_w, 0.9);
        assert_eq!(c.message_bytes, 128);
        assert_eq!(c.radio_range, 150.0);
        assert_eq!(c.max_path_hops, 100);
        assert_eq!(c.planar_kind(), PlanarKind::Gabriel);
        assert_eq!(SimConfig::default(), c);
    }

    #[test]
    fn message_airtime_is_1_024_ms() {
        // 128 B × 8 / 1 Mbps = 1.024 ms.
        assert!((SimConfig::paper().message_airtime() - 0.001024).abs() < 1e-12);
    }

    #[test]
    fn builders_replace_fields() {
        let c = SimConfig::paper()
            .with_area_side(500.0)
            .with_node_count(42)
            .with_radio_range(99.0)
            .with_max_path_hops(7)
            .with_size_dependent_airtime(true)
            .with_node_failure_prob(0.25);
        assert_eq!(c.area_side, 500.0);
        assert_eq!(c.node_count, 42);
        assert_eq!(c.radio_range, 99.0);
        assert_eq!(c.max_path_hops, 7);
        assert!(c.size_dependent_airtime);
        assert_eq!(c.faults.node_failure_prob, 0.25);
        let t = c.topology_config();
        assert_eq!(t.node_count, 42);
        assert_eq!(t.radio_range, 99.0);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_probability_panics() {
        let _ = SimConfig::paper().with_node_failure_prob(1.5);
    }

    #[test]
    fn with_faults_replaces_the_whole_plan() {
        let plan = FaultPlan::none()
            .with_node_failure_prob(0.1)
            .with_crash(gmp_net::NodeId(4), 2.0);
        let c = SimConfig::paper()
            .with_link_loss_prob(0.5)
            .with_faults(plan.clone());
        assert_eq!(c.faults, plan);
        assert_eq!(c.faults.link_loss_prob, 0.0, "replaced, not merged");
        // Legacy builders keep composing on top of the installed plan.
        let c = c.with_link_loss_prob(0.25);
        assert_eq!(c.faults.node_failure_prob, 0.1);
        assert_eq!(c.faults.link_loss_prob, 0.25);
        assert!(c.faults.has_crashes());
    }

    #[test]
    fn debug_output_shows_the_node_count() {
        let c = SimConfig::paper();
        assert!(format!("{c:?}").contains("1000"));
    }
}
