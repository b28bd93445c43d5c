//! Wireless sensor network model substrate for the GMP reproduction.
//!
//! This crate implements the network model of Section 2 of the paper: a set
//! of nodes with known coordinates deployed in a 2-D area, communicating
//! over a unit-disk radio of fixed range. It provides:
//!
//! * [`Topology`] — an immutable node deployment with precomputed unit-disk
//!   adjacency and a uniform-grid spatial index;
//! * [`topology::TopologyConfig`] — seeded random/grid/clustered generators,
//!   including deployments with *holes* (voids) for perimeter-routing tests;
//! * [`planar`] — local planarization by Gabriel graph and Relative
//!   Neighborhood Graph, as required by right-hand-rule traversal \[29, 9\];
//! * [`face`] — GPSR-style perimeter (face) routing primitives \[4, 13\];
//! * [`traversal`] — guaranteed-delivery FACE-1 face walks (both
//!   orientations, live-subgraph planarization) for MCFR/GVG.
//!
//! # Example
//!
//! ```
//! use gmp_net::topology::{Topology, TopologyConfig};
//!
//! let config = TopologyConfig::new(500.0, 100, 150.0);
//! let topo = Topology::random(&config, 7);
//! assert_eq!(topo.len(), 100);
//! let some_node = gmp_net::NodeId(0);
//! // Every neighbor is within radio range.
//! for &n in topo.neighbors(some_node) {
//!     assert!(topo.pos(some_node).dist(topo.pos(n)) <= 150.0);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod csr;
pub mod face;
pub mod grid;
pub mod mobility;
pub mod node;
pub mod planar;
#[cfg(test)]
mod route;
pub mod topology;
pub mod traversal;

pub use csr::Csr;
pub use face::PerimeterState;
pub use node::{Node, NodeId};
pub use planar::PlanarKind;
pub use topology::{Topology, TopologyConfig};
pub use traversal::{FaceDir, FacePhase, FaceScratch, FaceWalk};
