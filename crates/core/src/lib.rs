//! GMP: the Geographic Multicast routing Protocol (the paper's
//! contribution, Section 4).
//!
//! GMP is fully distributed and stateless. Each transmitting node:
//!
//! 1. builds a virtual Euclidean Steiner tree over itself and the
//!    remaining destinations with [rrSTR](gmp_steiner::rrstr::rrstr) (Section 3);
//! 2. treats the root's children — the *pivots*, which may be virtual
//!    Euclidean points — as destination groups;
//! 3. for each pivot picks the neighbor closest to the pivot, subject to
//!    the loop-prevention constraint that the neighbor's total distance to
//!    the group's destinations strictly improves on the current node's;
//! 4. when no neighbor qualifies, *splits* the group by detaching the
//!    pivot's last child (Section 4.1);
//! 5. destinations whose singleton groups remain void are merged into one
//!    perimeter-mode packet routed toward their average location over the
//!    planarized graph, re-attempting normal GMP grouping at every hop.
//!
//! [`GmpRouter`] implements [`gmp_sim::Protocol`], so it plugs directly
//! into the simulator next to the baselines.
//!
//! # Example
//!
//! ```
//! use gmp_core::GmpRouter;
//! use gmp_net::Topology;
//! use gmp_sim::{MulticastTask, SimConfig, TaskRunner};
//!
//! let config = SimConfig::paper().with_area_side(500.0).with_node_count(150);
//! let topo = Topology::random(&config.topology_config(), 3);
//! let task = MulticastTask::random(&topo, 6, 11);
//! let report = TaskRunner::new(&topo, &config).run(&mut GmpRouter::new(), &task);
//! assert!(report.delivered_all());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod grouping;
pub mod router;

pub use cache::{
    CacheConfig, CacheStats, ConcurrentTreeCache, Decision, StoredGrouping, TreeCache,
};
pub use grouping::{group_destinations, CoveredGroup, DecisionScratch, Grouping};
pub use router::{GmpConfig, GmpRouter};
