//! # GMP: Distributed Geographic Multicast Routing in Wireless Sensor Networks
//!
//! Facade crate for the reproduction of Wu & Candan (ICDCS 2006). It
//! re-exports the whole workspace under a single dependency:
//!
//! * [`geom`] — 2-D geometry, including the exact 3-point Fermat/Steiner point;
//! * [`net`] — network model, topologies, planarization, face routing;
//! * [`steiner`] — the rrSTR heuristic, reduction ratio, MST, and KMB;
//! * [`sim`] — the discrete-event WSN simulator and metrics;
//! * [`gmp`] — the GMP protocol itself (the paper's contribution);
//! * [`baselines`] — PBM, LGS, GRD, centralized SMT, and the guaranteed-delivery
//!   pair MCFR and GVG;
//! * [`viz`] — SVG rendering of topologies, trees, and routes.
//!
//! # Quickstart
//!
//! ```
//! use gmp::net::Topology;
//! use gmp::sim::{MulticastTask, SimConfig, TaskRunner};
//! use gmp::gmp::GmpRouter;
//!
//! // Small random network (paper-scale would be 1000 nodes over 1 km²).
//! let config = SimConfig::paper().with_area_side(500.0).with_node_count(150);
//! let topo = Topology::random(&config.topology_config(), 42);
//! let task = MulticastTask::random(&topo, 5, 7);
//! let report = TaskRunner::new(&topo, &config).run(&mut GmpRouter::new(), &task);
//! assert!(report.delivered_all());
//! ```

#![forbid(unsafe_code)]

pub use gmp_baselines as baselines;
pub use gmp_core as gmp;
pub use gmp_geom as geom;
pub use gmp_net as net;
pub use gmp_sim as sim;
pub use gmp_steiner as steiner;

pub mod cli;
pub mod viz;
