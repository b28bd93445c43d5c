//! Property-based tests for the geometry kernels.

use gmp_geom::fermat::{fermat_point, weiszfeld};
use gmp_geom::predicates::{in_diametral_disk, in_lune, orientation, Orientation};
use gmp_geom::{Point, Segment};
use proptest::prelude::*;

fn pt() -> impl Strategy<Value = Point> {
    (-500.0..500.0f64, -500.0..500.0f64).prop_map(|(x, y)| Point::new(x, y))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn fermat_point_is_no_worse_than_weiszfeld(a in pt(), b in pt(), c in pt()) {
        let exact = fermat_point(a, b, c);
        let t = exact.location;
        let exact_total = t.dist(a) + t.dist(b) + t.dist(c);
        let w = weiszfeld(a, b, c, 300);
        let w_total = w.dist(a) + w.dist(b) + w.dist(c);
        // The closed form is optimal; allow tiny numerical slack.
        prop_assert!(exact_total <= w_total + 1e-6,
            "closed form {exact_total} vs weiszfeld {w_total}");
    }

    #[test]
    fn fermat_point_dominates_midpoint_junctions(a in pt(), b in pt(), c in pt()) {
        let t = fermat_point(a, b, c).location;
        let total = t.dist(a) + t.dist(b) + t.dist(c);
        for j in [a.midpoint(b), b.midpoint(c), a.midpoint(c), Point::centroid([a,b,c]).unwrap()] {
            let via = j.dist(a) + j.dist(b) + j.dist(c);
            prop_assert!(total <= via + 1e-6);
        }
    }

    #[test]
    fn orientation_is_antisymmetric_under_swap(a in pt(), b in pt(), c in pt()) {
        let o1 = orientation(a, b, c);
        let o2 = orientation(a, c, b);
        match o1 {
            Orientation::Collinear => prop_assert_eq!(o2, Orientation::Collinear),
            Orientation::Clockwise => prop_assert_eq!(o2, Orientation::CounterClockwise),
            Orientation::CounterClockwise => prop_assert_eq!(o2, Orientation::Clockwise),
        }
    }

    #[test]
    fn segment_intersection_is_symmetric(a in pt(), b in pt(), c in pt(), d in pt()) {
        let s1 = Segment::new(a, b);
        let s2 = Segment::new(c, d);
        prop_assert_eq!(s1.intersects(&s2), s2.intersects(&s1));
        prop_assert_eq!(s1.properly_crosses(&s2), s2.properly_crosses(&s1));
        // Proper crossing implies intersection.
        if s1.properly_crosses(&s2) {
            prop_assert!(s1.intersects(&s2));
        }
    }

    #[test]
    fn proper_crossing_point_lies_on_both_lines(a in pt(), b in pt(), c in pt(), d in pt()) {
        let s1 = Segment::new(a, b);
        let s2 = Segment::new(c, d);
        if s1.properly_crosses(&s2) {
            let p = s1.line_intersection(&s2).expect("crossing lines intersect");
            // The crossing point is on both segments (generously bounded).
            prop_assert!(s1.contains(p) || p.dist(a).min(p.dist(b)) < 1e-3);
            prop_assert!(s2.contains(p) || p.dist(c).min(p.dist(d)) < 1e-3);
        }
    }

    #[test]
    fn diametral_disk_is_inside_the_lune(a in pt(), b in pt(), p in pt()) {
        prop_assume!(!a.almost_eq(b));
        if in_diametral_disk(p, a, b) {
            prop_assert!(in_lune(p, a, b), "Gabriel region must be inside the RNG region");
        }
    }

    #[test]
    fn rotation_preserves_fermat_totals(a in pt(), b in pt(), c in pt(), ang in 0.0..std::f64::consts::TAU) {
        let t1 = fermat_point(a, b, c);
        let total1 = t1.total_length(a, b, c);
        let center = Point::new(10.0, -20.0);
        let (ra, rb, rc) = (
            a.rotate_around(center, ang),
            b.rotate_around(center, ang),
            c.rotate_around(center, ang),
        );
        let t2 = fermat_point(ra, rb, rc);
        let total2 = t2.total_length(ra, rb, rc);
        prop_assert!((total1 - total2).abs() < 1e-5,
            "rotation changed the optimum: {total1} vs {total2}");
    }
}
