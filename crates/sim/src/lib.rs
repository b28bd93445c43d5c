//! A deterministic discrete-event wireless sensor network simulator — the
//! reproduction's substitute for ns-2.27.
//!
//! The paper evaluates GMP on ns-2 with the Table 1 setup (1000 nodes over
//! 1000 m × 1000 m, 1 Mbps channel, Mac802.11, 1.3 W transmit / 0.9 W
//! receive power, 128 B messages, 150 m omnidirectional radio). Every
//! metric it reports — total hops, per-destination hop count, energy,
//! failed tasks — is a function of the forwarding decisions and of the
//! geometry, not of MAC contention, so this simulator models an idealized
//! contention-free MAC over a unit-disk radio and accounts time, hops, and
//! energy exactly as the paper does (energy includes the receive power of
//! *all* listening nodes in the sender's range — footnote 2).
//!
//! Key types:
//!
//! * [`SimConfig`] — Table 1 parameters, with builders for sweeps;
//! * [`Protocol`] — the per-node forwarding decision interface every
//!   routing protocol in this workspace implements;
//! * [`MulticastPacket`] — destination list + protocol routing state, with
//!   a wire encoding (header-overhead accounting);
//! * [`TaskRunner`] — runs one multicast task through the event queue and
//!   produces a [`TaskReport`];
//! * [`MulticastTask`] — a (source, destination-set) workload item;
//! * [`FaultPlan`] (re-exported from `gmp-faults`) — deterministic fault
//!   injection: Bernoulli knobs plus timed crashes, regional blackouts,
//!   duty-cycle sleep, and link churn, with the delivery-guarantee
//!   oracle classifying every failed destination by [`FailureCause`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod energy;
pub mod event;
pub mod metrics;
pub mod packet;
pub mod protocol;
pub mod runner;
pub mod scenario;
pub mod task;

pub use config::SimConfig;
pub use energy::EnergyModel;
pub use gmp_faults::{FailedDest, FailureCause, FaultEvent, FaultPlan, FaultRegion};
pub use metrics::TaskReport;
pub use packet::{DestList, MulticastPacket, RoutingState};
pub use protocol::{Forward, NodeContext, Protocol};
pub use runner::{Session, SimScratch, TaskRunner};
pub use scenario::Scenario;
pub use task::MulticastTask;
