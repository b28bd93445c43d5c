//! 2-D computational geometry substrate for the GMP reproduction.
//!
//! This crate provides the geometric primitives the rest of the workspace is
//! built on: [`Point`] and [`Vec2`] types, orientation predicates, segment
//! intersection, axis-aligned bounding boxes, and — most importantly for the
//! paper — the exact Euclidean Steiner (Fermat/Torricelli) point of three
//! points ([`fermat::fermat_point`]), which is the kernel of the rrSTR
//! heuristic (Section 3 of the paper).
//!
//! All coordinates are `f64` meters. The crate has zero dependencies.
//!
//! # Example
//!
//! ```
//! use gmp_geom::{Point, fermat::fermat_point};
//!
//! let s = Point::new(0.0, 0.0);
//! let u = Point::new(10.0, 0.0);
//! let v = Point::new(5.0, 8.0);
//! let t = fermat_point(s, u, v).location;
//! // The Fermat point minimizes total distance to the three vertices, so it
//! // is no worse than using any vertex as the junction.
//! let total = t.dist(s) + t.dist(u) + t.dist(v);
//! assert!(total <= s.dist(u) + s.dist(v) + 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod aabb;
pub mod fermat;
pub mod point;
pub mod predicates;
pub mod segment;

pub use aabb::Aabb;
pub use fermat::{fermat_point, FermatKind, FermatPoint};
pub use point::{dist_batch, Point, Vec2};
pub use predicates::Orientation;
pub use segment::Segment;

/// Tolerance used for "collocated" tests throughout the workspace, in meters.
///
/// The paper's field is 1000 m × 1000 m with a 150 m radio range; one
/// micrometer is far below any physically meaningful distinction while being
/// comfortably above `f64` rounding noise for coordinates of this magnitude.
pub const EPS: f64 = 1e-6;

/// Returns `true` if two scalar values are within [`EPS`] of each other.
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPS
}
