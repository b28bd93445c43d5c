//! The exact Euclidean Steiner (Fermat/Torricelli) point of three points.
//!
//! The general Euclidean Steiner tree problem is NP-hard, but for exactly
//! three terminals the optimal junction — the point minimizing the sum of
//! distances to all three — has a classical closed-form construction
//! (Torricelli 1640s, restated by Neuberg \[24\] and Hwang et al. \[11\], the
//! references the paper cites). rrSTR (Section 3) calls this routine for
//! every candidate destination pair, so it must be fast and robust against
//! degenerate inputs.
//!
//! The rules:
//!
//! * If any interior angle of the triangle is ≥ 120°, the Fermat point is
//!   the vertex with that angle.
//! * Otherwise it is the unique interior point from which all three sides
//!   subtend 120°, found by intersecting two *Simpson lines* (each joins a
//!   vertex to the apex of the outward equilateral triangle erected on the
//!   opposite side).
//! * Coincident or collinear inputs degenerate to a vertex (see
//!   [`fermat_point`] for the case analysis).

use crate::point::Point;
use crate::predicates::{orientation, Orientation};
use crate::EPS;

/// Interior angle threshold above which the Fermat point collapses onto a
/// vertex: 120° in radians.
pub const FERMAT_ANGLE: f64 = 2.0 * std::f64::consts::FRAC_PI_3;

/// The band of cosines around `cos(FERMAT_ANGLE - EPS)` ≈
/// −0.499 999 133 974 346 inside which [`wide_at`] falls back to `acos`.
/// Each literal sits about 1e-12 from that cosine (0.95e-12 below,
/// 1.05e-12 above). `acos`'s slope there is about −1.15, so a cosine
/// outside the band is an angle more than 1.1e-12 rad from the threshold,
/// and libm's `acos` errs by under 1e-15 rad: `acos(c) >= FERMAT_ANGLE -
/// EPS` cannot come out differently from the cosine comparison.
const WIDE_COS_BELOW: f64 = -0.499_999_133_975_3;
const WIDE_COS_ABOVE: f64 = -0.499_999_133_973_3;

/// `angle_at(apex, a, b) >= FERMAT_ANGLE - EPS`, decided from the cosine
/// that `angle_at` takes the `acos` of: the same norms, dot product and
/// clamp, and the same near-zero guard (angle 0, so `false`). `acos` runs
/// only for a cosine inside the `WIDE_COS_*` band, so the answer is
/// bit-for-bit `angle_at`'s, and every Fermat point with it.
fn wide_at(apex: Point, a: Point, b: Point) -> bool {
    let (u, v) = (a - apex, b - apex);
    let d = u.norm() * v.norm();
    if d <= EPS * EPS {
        return false;
    }
    let c = (u.dot(v) / d).clamp(-1.0, 1.0);
    if c < WIDE_COS_BELOW {
        true
    } else if c > WIDE_COS_ABOVE {
        false
    } else {
        c.acos() >= FERMAT_ANGLE - EPS
    }
}

/// How the Fermat point relates to the input triangle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FermatKind {
    /// The point is strictly interior to the triangle (all angles < 120°).
    Interior,
    /// The point coincides with input vertex 0, 1, or 2 (angle ≥ 120°,
    /// collinearity, or coincident inputs).
    AtVertex(u8),
}

/// Result of [`fermat_point`]: the optimal junction and how it degenerated
/// (if it did).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FermatPoint {
    /// The location of the Fermat point.
    pub location: Point,
    /// Whether the point is interior or collapsed onto a vertex.
    pub kind: FermatKind,
}

impl FermatPoint {
    /// The total length `d(t,a) + d(t,b) + d(t,c)` of the optimal 3-terminal
    /// Steiner tree.
    pub fn total_length(&self, a: Point, b: Point, c: Point) -> f64 {
        let t = self.location;
        t.dist(a) + t.dist(b) + t.dist(c)
    }
}

/// Computes the Fermat/Torricelli point of the triangle `(a, b, c)`.
///
/// The returned point minimizes `d(t,a) + d(t,b) + d(t,c)` over all points
/// `t` in the plane. Degenerate inputs are handled explicitly:
///
/// * two (or three) coincident points → the coincident location (doubling a
///   terminal pulls the optimum onto it);
/// * collinear points → the middle point of the three.
///
/// # Example
///
/// ```
/// use gmp_geom::{Point, fermat::{fermat_point, FermatKind}};
///
/// // Equilateral triangle: the Fermat point is the centroid.
/// let a = Point::new(0.0, 0.0);
/// let b = Point::new(1.0, 0.0);
/// let c = Point::new(0.5, 3f64.sqrt() / 2.0);
/// let f = fermat_point(a, b, c);
/// assert_eq!(f.kind, FermatKind::Interior);
/// assert!(f.location.almost_eq(Point::centroid([a, b, c]).unwrap()));
/// ```
pub fn fermat_point(a: Point, b: Point, c: Point) -> FermatPoint {
    // Coincident-point degeneracies. If b == c the objective is
    // d(t,a) + 2 d(t,b), minimized at t = b (and symmetrically).
    if b.almost_eq(c) {
        let kind = if a.almost_eq(b) {
            FermatKind::AtVertex(0)
        } else {
            FermatKind::AtVertex(1)
        };
        return FermatPoint { location: b, kind };
    }
    if a.almost_eq(b) {
        return FermatPoint {
            location: a,
            kind: FermatKind::AtVertex(0),
        };
    }
    if a.almost_eq(c) {
        return FermatPoint {
            location: a,
            kind: FermatKind::AtVertex(0),
        };
    }

    // Collinear: the middle point is optimal (any point on the middle
    // segment achieves the same sum only at the middle vertex once the
    // third distance is included).
    if orientation(a, b, c) == Orientation::Collinear {
        let idx = middle_of_collinear(a, b, c);
        let location = [a, b, c][idx as usize];
        return FermatPoint {
            location,
            kind: FermatKind::AtVertex(idx),
        };
    }

    // Obtuse-beyond-120° rule.
    if wide_at(a, b, c) {
        return FermatPoint {
            location: a,
            kind: FermatKind::AtVertex(0),
        };
    }
    if wide_at(b, a, c) {
        return FermatPoint {
            location: b,
            kind: FermatKind::AtVertex(1),
        };
    }
    if wide_at(c, a, b) {
        return FermatPoint {
            location: c,
            kind: FermatKind::AtVertex(2),
        };
    }

    // Torricelli construction: intersect two Simpson lines.
    let apex_a = outward_equilateral_apex(b, c, a);
    let apex_b = outward_equilateral_apex(a, c, b);
    let l1 = crate::segment::Segment::new(a, apex_a);
    let l2 = crate::segment::Segment::new(b, apex_b);
    match l1.line_intersection(&l2) {
        Some(p) => FermatPoint {
            location: p,
            kind: FermatKind::Interior,
        },
        // Numerically parallel Simpson lines can only happen for inputs that
        // are collinear up to rounding; fall back to the middle vertex.
        None => {
            let idx = middle_of_collinear(a, b, c);
            FermatPoint {
                location: [a, b, c][idx as usize],
                kind: FermatKind::AtVertex(idx),
            }
        }
    }
}

/// Fermat points of a batch of triangles given in SoA form
/// (`a[i], b[i], c[i]`), written into `out[i]`.
///
/// Unlike the distance and ratio-bound kernels, the Fermat construction
/// is dominated by data-dependent branches (coincidence, collinearity,
/// and the three ≥ 120° vertex collapses), so the lanes cannot share
/// vector instructions; each lane simply runs the scalar
/// [`fermat_point`], which makes batch output bit-identical to the
/// scalar calls by construction. The batch form still pays off in bulk
/// evaluation (benchmarks, precomputation): the triangle data streams
/// through in SoA order instead of bouncing through call-site shuffles.
///
/// # Panics
///
/// Panics if the four slices differ in length.
pub fn fermat_point_batch(a: &[Point], b: &[Point], c: &[Point], out: &mut [FermatPoint]) {
    assert_eq!(a.len(), b.len(), "SoA lanes must agree in length");
    assert_eq!(a.len(), c.len(), "SoA lanes must agree in length");
    assert_eq!(a.len(), out.len(), "output must match the lane count");
    for i in 0..out.len() {
        out[i] = fermat_point(a[i], b[i], c[i]);
    }
}

/// The apex of the equilateral triangle erected on segment `p`–`q`, on the
/// side *away* from `opposite`.
fn outward_equilateral_apex(p: Point, q: Point, opposite: Point) -> Point {
    let third = std::f64::consts::FRAC_PI_3;
    let cand1 = q.rotate_around(p, third);
    let cand2 = q.rotate_around(p, -third);
    // Pick the candidate on the opposite side of line p–q from `opposite`.
    let side_opp = (q - p).cross(opposite - p);
    let side_c1 = (q - p).cross(cand1 - p);
    if side_opp * side_c1 < 0.0 {
        cand1
    } else {
        cand2
    }
}

/// Index (0, 1, or 2) of the point lying between the other two on their
/// common line.
fn middle_of_collinear(a: Point, b: Point, c: Point) -> u8 {
    let dab = a.dist_sq(b);
    let dac = a.dist_sq(c);
    let dbc = b.dist_sq(c);
    // The middle point is the one not incident to the longest span.
    if dab >= dac && dab >= dbc {
        2
    } else if dac >= dab && dac >= dbc {
        1
    } else {
        0
    }
}

/// Iteratively approximates the geometric median of three points with
/// Weiszfeld's algorithm.
///
/// This exists to *validate* [`fermat_point`] in tests and benchmarks; the
/// closed-form construction should always be preferred in protocol code.
pub fn weiszfeld(a: Point, b: Point, c: Point, iterations: usize) -> Point {
    let mut t = Point::centroid([a, b, c]).expect("three points");
    for _ in 0..iterations {
        let mut wsum = 0.0;
        let mut acc = crate::point::Vec2::default();
        let mut stuck = false;
        for p in [a, b, c] {
            let d = t.dist(p);
            if d < EPS {
                stuck = true;
                break;
            }
            let w = 1.0 / d;
            wsum += w;
            acc.x += p.x * w;
            acc.y += p.y * w;
        }
        if stuck || wsum == 0.0 {
            break;
        }
        let next = Point::new(acc.x / wsum, acc.y / wsum);
        if next.almost_eq(t) {
            return next;
        }
        t = next;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicates::angle_at;

    const SQ3: f64 = 1.732_050_807_568_877_2;

    #[test]
    fn wide_cosine_band_brackets_the_threshold_cosine() {
        // `rrstr_parity`'s replicas call this same `fermat_point`, so only
        // this test and the `wide_at` proptest catch a wrong band.
        let threshold = (FERMAT_ANGLE - EPS).cos();
        assert!(
            threshold - WIDE_COS_BELOW >= 5e-13,
            "lower literal within {:e} of cos(threshold)",
            threshold - WIDE_COS_BELOW
        );
        assert!(
            WIDE_COS_ABOVE - threshold >= 5e-13,
            "upper literal within {:e} of cos(threshold)",
            WIDE_COS_ABOVE - threshold
        );
        // And the band is narrow: a wide one would only cost speed.
        const { assert!(WIDE_COS_ABOVE - WIDE_COS_BELOW < 1e-11) };
    }

    #[test]
    fn equilateral_fermat_is_centroid() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(2.0, 0.0);
        let c = Point::new(1.0, SQ3);
        let f = fermat_point(a, b, c);
        assert_eq!(f.kind, FermatKind::Interior);
        assert!(f.location.almost_eq(Point::new(1.0, SQ3 / 3.0)));
    }

    #[test]
    fn interior_point_sees_all_sides_at_120_degrees() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(5.0, 1.0);
        let c = Point::new(2.0, 4.0);
        let f = fermat_point(a, b, c);
        assert_eq!(f.kind, FermatKind::Interior);
        let t = f.location;
        for (p, q) in [(a, b), (b, c), (a, c)] {
            let ang = angle_at(t, p, q);
            assert!(
                (ang - FERMAT_ANGLE).abs() < 1e-6,
                "angle {ang} should be 120°"
            );
        }
    }

    #[test]
    fn wide_angle_collapses_to_vertex() {
        // Angle at `a` is 180° - small: way beyond 120°.
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 0.5);
        let c = Point::new(-10.0, 0.5);
        let f = fermat_point(a, b, c);
        assert_eq!(f.kind, FermatKind::AtVertex(0));
        assert_eq!(f.location, a);
    }

    #[test]
    fn exactly_120_degrees_is_vertex() {
        // Construct a vertex with exactly 120°: rays at ±60° from the y axis.
        let a = Point::new(0.0, 0.0);
        let b = Point::new(SQ3, 1.0); // 30° above x-axis
        let c = Point::new(-SQ3, 1.0);
        // Angle at a between b and c is 120°.
        assert!((angle_at(a, b, c) - FERMAT_ANGLE).abs() < 1e-9);
        let f = fermat_point(a, b, c);
        assert_eq!(f.kind, FermatKind::AtVertex(0));
    }

    #[test]
    fn collinear_middle_point_wins() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(1.0, 1.0);
        let c = Point::new(2.0, 2.0);
        let f = fermat_point(a, b, c);
        assert_eq!(f.location, b);
        assert_eq!(f.kind, FermatKind::AtVertex(1));
    }

    #[test]
    fn coincident_pair_degenerates() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 0.0);
        let f = fermat_point(a, b, b);
        assert_eq!(f.location, b);
        assert_eq!(f.kind, FermatKind::AtVertex(1));
        let f2 = fermat_point(a, a, b);
        assert_eq!(f2.location, a);
        assert_eq!(f2.kind, FermatKind::AtVertex(0));
    }

    #[test]
    fn all_coincident_degenerates() {
        let a = Point::new(1.0, 1.0);
        let f = fermat_point(a, a, a);
        assert_eq!(f.location, a);
        assert_eq!(f.kind, FermatKind::AtVertex(0));
    }

    #[test]
    fn matches_weiszfeld_on_generic_triangles() {
        let cases = [
            (
                Point::new(0.0, 0.0),
                Point::new(4.0, 0.0),
                Point::new(1.0, 3.0),
            ),
            (
                Point::new(-5.0, 2.0),
                Point::new(3.0, 7.0),
                Point::new(2.0, -4.0),
            ),
            (
                Point::new(100.0, 200.0),
                Point::new(300.0, 250.0),
                Point::new(180.0, 400.0),
            ),
        ];
        for (a, b, c) in cases {
            let exact = fermat_point(a, b, c);
            let approx = weiszfeld(a, b, c, 200);
            assert!(
                exact.location.dist(approx) < 1e-3,
                "closed form {} vs weiszfeld {}",
                exact.location,
                approx
            );
        }
    }

    #[test]
    fn fermat_total_never_exceeds_vertex_junctions() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(7.0, 1.0);
        let c = Point::new(3.0, 5.0);
        let f = fermat_point(a, b, c);
        let total = f.total_length(a, b, c);
        for v in [a, b, c] {
            let via_v = v.dist(a) + v.dist(b) + v.dist(c);
            assert!(total <= via_v + 1e-9);
        }
    }

    #[test]
    fn batch_covers_every_degenerate_case() {
        // One lane per special case `fermat_point` distinguishes:
        // coincident pair, all coincident, collinear, ≥ 120° at each
        // vertex, and a generic interior triangle.
        let a = vec![
            Point::new(0.0, 0.0),  // coincident b == c
            Point::new(1.0, 1.0),  // all coincident
            Point::new(0.0, 0.0),  // collinear
            Point::new(0.0, 0.0),  // wide angle at a
            Point::new(10.0, 0.5), // wide angle at b (= a-case swapped)
            Point::new(0.0, 0.0),  // generic interior
        ];
        let b = vec![
            Point::new(3.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(10.0, 0.5),
            Point::new(0.0, 0.0),
            Point::new(5.0, 1.0),
        ];
        let c = vec![
            Point::new(3.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(2.0, 2.0),
            Point::new(-10.0, 0.5),
            Point::new(-10.0, 0.5),
            Point::new(2.0, 4.0),
        ];
        let mut out = vec![
            FermatPoint {
                location: Point::ORIGIN,
                kind: FermatKind::Interior,
            };
            a.len()
        ];
        fermat_point_batch(&a, &b, &c, &mut out);
        for i in 0..a.len() {
            assert_eq!(out[i], fermat_point(a[i], b[i], c[i]), "lane {i}");
        }
        assert_eq!(out[0].kind, FermatKind::AtVertex(1));
        assert_eq!(out[1].kind, FermatKind::AtVertex(0));
        assert_eq!(out[2].kind, FermatKind::AtVertex(1));
        assert_eq!(out[3].kind, FermatKind::AtVertex(0));
        assert_eq!(out[4].kind, FermatKind::AtVertex(1));
        assert_eq!(out[5].kind, FermatKind::Interior);
    }

    #[test]
    fn invariant_under_rotation_and_translation() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(4.0, 1.0);
        let c = Point::new(1.0, 3.0);
        let f = fermat_point(a, b, c).location;
        let center = Point::new(-3.0, 9.0);
        let ang = 1.234;
        let shift = crate::point::Vec2::new(17.0, -5.0);
        let (ra, rb, rc) = (
            a.rotate_around(center, ang) + shift,
            b.rotate_around(center, ang) + shift,
            c.rotate_around(center, ang) + shift,
        );
        let rf = fermat_point(ra, rb, rc).location;
        let expected = f.rotate_around(center, ang) + shift;
        assert!(rf.dist(expected) < 1e-6, "rf={rf} expected={expected}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn point() -> impl Strategy<Value = Point> {
        (-1000.0..1000.0f64, -1000.0..1000.0f64).prop_map(|(x, y)| Point::new(x, y))
    }

    /// Triangles biased toward the degenerate branches `fermat_point`
    /// special-cases: coincident pairs, collinear triples, and wide
    /// (≥ 120°) vertex angles, alongside generic triangles. A selector
    /// lane picks the shape (the vendored proptest stand-in has no
    /// `prop_oneof`).
    fn triangle() -> impl Strategy<Value = (Point, Point, Point)> {
        (point(), point(), point(), -0.5..1.5f64, 0usize..7).prop_map(|(a, b, c, t, shape)| {
            match shape {
                // Generic triangle.
                0 => (a, b, c),
                // A coincident pair in each slot.
                1 => (a, b, b),
                2 => (a, a, b),
                3 => (a, b, a),
                // All three coincident.
                4 => (a, a, a),
                // Collinear: c on the line through a and b.
                5 => (a, b, a.lerp(b, t)),
                // Wide angle at the first vertex: b and c nearly
                // opposite across a.
                _ => (a, b, a - (b - a) * (1.0 + t * 0.1)),
            }
        })
    }

    /// Triangles whose angle at the first vertex is `center ± δ`, with δ
    /// log-uniform in [1e-15, 1e-5] rad and `center` either 120° or the
    /// collapse threshold 120° − EPS, where `wide_at` hands over to
    /// `acos`. Below about 1e-13 rad the rounded coordinates set the
    /// angle, which still lands inside the band.
    fn near_threshold() -> impl Strategy<Value = (Point, Point, Point)> {
        (
            point(),
            (0.0..std::f64::consts::TAU, 1.0..1000.0f64, 1.0..1000.0f64),
            -15.0..-5.0f64,
            prop_bool::ANY,
            prop_bool::ANY,
        )
            .prop_map(|(apex, (theta, r1, r2), log_delta, above, at_threshold)| {
                let center = if at_threshold {
                    FERMAT_ANGLE - EPS
                } else {
                    FERMAT_ANGLE
                };
                let delta = 10f64.powf(log_delta);
                let angle = if above {
                    center + delta
                } else {
                    center - delta
                };
                let ray = |t: f64, r: f64| apex + crate::point::Vec2::new(t.cos(), t.sin()) * r;
                (apex, ray(theta, r1), ray(theta + angle, r2))
            })
    }

    /// `wide_at` against its reference, `angle_at(..) >= FERMAT_ANGLE -
    /// EPS`, at all three vertices in `fermat_point`'s argument order.
    fn wide_matches_reference(a: Point, b: Point, c: Point) -> Result<(), TestCaseError> {
        use crate::predicates::angle_at;
        for (apex, p, q) in [(a, b, c), (b, a, c), (c, a, b)] {
            prop_assert_eq!(
                wide_at(apex, p, q),
                angle_at(apex, p, q) >= FERMAT_ANGLE - EPS,
                "apex {} of ({}, {}): angle {:e} rad from the threshold",
                apex,
                p,
                q,
                angle_at(apex, p, q) - (FERMAT_ANGLE - EPS)
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn wide_at_agrees_with_the_angle_on_random_triangles(
            tris in proptest::collection::vec(triangle(), 1..64),
        ) {
            for (a, b, c) in tris {
                wide_matches_reference(a, b, c)?;
            }
        }

        #[test]
        fn wide_at_agrees_with_the_angle_near_120_degrees(
            tris in proptest::collection::vec(near_threshold(), 1..64),
        ) {
            for (a, b, c) in tris {
                wide_matches_reference(a, b, c)?;
            }
        }
    }

    proptest! {
        #[test]
        fn fermat_batch_is_bit_identical_to_scalar(
            tris in proptest::collection::vec(triangle(), 0..24),
        ) {
            let a: Vec<Point> = tris.iter().map(|t| t.0).collect();
            let b: Vec<Point> = tris.iter().map(|t| t.1).collect();
            let c: Vec<Point> = tris.iter().map(|t| t.2).collect();
            let mut out = vec![
                FermatPoint { location: Point::ORIGIN, kind: FermatKind::Interior };
                tris.len()
            ];
            fermat_point_batch(&a, &b, &c, &mut out);
            for (i, &(ta, tb, tc)) in tris.iter().enumerate() {
                let scalar = fermat_point(ta, tb, tc);
                prop_assert_eq!(out[i].kind, scalar.kind, "lane {} kind", i);
                prop_assert_eq!(
                    out[i].location.x.to_bits(), scalar.location.x.to_bits(),
                    "lane {} x: batch {} vs scalar {}", i, out[i].location, scalar.location
                );
                prop_assert_eq!(
                    out[i].location.y.to_bits(), scalar.location.y.to_bits(),
                    "lane {} y: batch {} vs scalar {}", i, out[i].location, scalar.location
                );
            }
        }
    }
}
