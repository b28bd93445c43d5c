//! Uniform-grid spatial index over node positions.
//!
//! Neighbor queries ("all nodes within radio range of a point") dominate
//! topology construction, so the index buckets nodes into square cells at
//! least as wide as the query radius; a range query inspects at most the
//! 3 × 3 block of cells around the query point.

use gmp_geom::{Aabb, Point};

use crate::node::NodeId;

/// A uniform grid bucketing node positions for radius queries.
///
/// Coordinates are handled in halves (`x / 2`, and a stored half cell
/// side), so any finite bounds and positions map to a cell without an
/// intermediate overflowing to infinity.
#[derive(Debug, Clone)]
pub struct GridIndex {
    half_origin: Point,
    half_cell: f64,
    cols: usize,
    rows: usize,
    buckets: Vec<Vec<NodeId>>,
}

impl GridIndex {
    /// Builds an index over `positions` covering `bounds`, tuned for radius
    /// queries of `radius` meters.
    ///
    /// A cell is `radius` wide unless that would need more cells per side
    /// than `⌈√n⌉` for `n` positions; then cells widen until it does not.
    /// The grid thus never holds more than about `n` cells whatever the
    /// area, and the 3 × 3 query stays complete because no cell is
    /// narrower than the radius.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is not strictly positive.
    pub fn build(bounds: Aabb, radius: f64, positions: &[Point]) -> Self {
        assert!(radius > 0.0, "query radius must be positive");
        let half_origin = Point::new(bounds.min.x * 0.5, bounds.min.y * 0.5);
        let half_w = bounds.max.x * 0.5 - half_origin.x;
        let half_h = bounds.max.y * 0.5 - half_origin.y;
        let per_side = (positions.len().max(1) as f64).sqrt().ceil();
        let half_cell = if (radius * radius).is_finite() {
            // `MIN_POSITIVE`: a subnormal radius over a subnormal area must
            // still leave a cell of nonzero width.
            (radius * 0.5)
                .max(half_w.max(half_h) / per_side)
                .max(f64::MIN_POSITIVE)
        } else {
            // The squared radius overflows, so the range test accepts
            // every pair: one query must see every node.
            f64::MAX
        };
        let cells = |half_span: f64| (half_span / half_cell).ceil().max(1.0) as usize + 1;
        let (cols, rows) = (cells(half_w), cells(half_h));
        let mut idx = GridIndex {
            half_origin,
            half_cell,
            cols,
            rows,
            buckets: vec![Vec::new(); cols * rows],
        };
        for (i, &p) in positions.iter().enumerate() {
            let b = idx.bucket_of(p);
            idx.buckets[b].push(NodeId(i as u32));
        }
        idx
    }

    fn cell_coords(&self, p: Point) -> (usize, usize) {
        let cx = ((p.x * 0.5 - self.half_origin.x) / self.half_cell).floor();
        let cy = ((p.y * 0.5 - self.half_origin.y) / self.half_cell).floor();
        let cx = cx.clamp(0.0, (self.cols - 1) as f64) as usize;
        let cy = cy.clamp(0.0, (self.rows - 1) as f64) as usize;
        (cx, cy)
    }

    fn bucket_of(&self, p: Point) -> usize {
        let (cx, cy) = self.cell_coords(p);
        cy * self.cols + cx
    }

    /// Returns the ids of all nodes whose position (looked up in
    /// `positions`) is within `radius` of `center`, **excluding** any node
    /// whose id equals `exclude`.
    ///
    /// `radius` must not exceed the radius the index was built with, or the
    /// query may miss nodes; this is debug-asserted.
    pub fn within(
        &self,
        positions: &[Point],
        center: Point,
        radius: f64,
        exclude: Option<NodeId>,
    ) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.within_into(positions, center, radius, exclude, &mut out);
        out
    }

    /// Allocation-free form of [`GridIndex::within`]: **appends** matching
    /// ids to `out` without clearing it, so a reused buffer never touches
    /// the allocator once grown and multi-grid callers (the sharded
    /// substrate) can accumulate one result across several indices.
    /// Callers owning the buffer clear it before the first call.
    pub fn within_into(
        &self,
        positions: &[Point],
        center: Point,
        radius: f64,
        exclude: Option<NodeId>,
        out: &mut Vec<NodeId>,
    ) {
        debug_assert!(
            radius * 0.5 <= self.half_cell + gmp_geom::EPS,
            "query radius {radius} exceeds index cell {}",
            self.half_cell * 2.0
        );
        let (cx, cy) = self.cell_coords(center);
        let r_sq = radius * radius;
        let x0 = cx.saturating_sub(1);
        let y0 = cy.saturating_sub(1);
        let x1 = (cx + 1).min(self.cols - 1);
        let y1 = (cy + 1).min(self.rows - 1);
        for gy in y0..=y1 {
            for gx in x0..=x1 {
                for &id in &self.buckets[gy * self.cols + gx] {
                    if Some(id) == exclude {
                        continue;
                    }
                    if positions[id.index()].dist_sq(center) <= r_sq {
                        out.push(id);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmp_geom::Aabb;

    fn brute_force(
        positions: &[Point],
        center: Point,
        radius: f64,
        exclude: Option<NodeId>,
    ) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = positions
            .iter()
            .enumerate()
            .filter(|(i, p)| Some(NodeId(*i as u32)) != exclude && p.dist(center) <= radius + 1e-12)
            .map(|(i, _)| NodeId(i as u32))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn matches_brute_force_on_fixed_layout() {
        let positions = vec![
            Point::new(10.0, 10.0),
            Point::new(20.0, 10.0),
            Point::new(90.0, 90.0),
            Point::new(15.0, 12.0),
            Point::new(10.0, 25.0),
        ];
        let idx = GridIndex::build(Aabb::square(100.0), 15.0, &positions);
        let mut got = idx.within(&positions, Point::new(12.0, 11.0), 15.0, None);
        got.sort();
        let want = brute_force(&positions, Point::new(12.0, 11.0), 15.0, None);
        assert_eq!(got, want);
    }

    #[test]
    fn matches_brute_force_randomized() {
        // Deterministic pseudo-random layout without pulling in `rand` here.
        let mut seed = 0x243F_6A88_85A3_08D3u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        let positions: Vec<Point> = (0..500)
            .map(|_| Point::new(next() * 1000.0, next() * 1000.0))
            .collect();
        let idx = GridIndex::build(Aabb::square(1000.0), 150.0, &positions);
        for q in 0..50 {
            let center = positions[q * 7];
            let exclude = Some(NodeId((q * 7) as u32));
            let mut got = idx.within(&positions, center, 150.0, exclude);
            got.sort();
            assert_eq!(got, brute_force(&positions, center, 150.0, exclude));
        }
    }

    #[test]
    fn query_points_outside_bounds_are_clamped() {
        let positions = vec![Point::new(1.0, 1.0)];
        let idx = GridIndex::build(Aabb::square(100.0), 10.0, &positions);
        let got = idx.within(&positions, Point::new(-5.0, -5.0), 10.0, None);
        assert!(got.contains(&NodeId(0)));
    }

    #[test]
    fn exclude_removes_the_center_node() {
        let positions = vec![Point::new(1.0, 1.0), Point::new(2.0, 2.0)];
        let idx = GridIndex::build(Aabb::square(10.0), 5.0, &positions);
        let got = idx.within(&positions, positions[0], 5.0, Some(NodeId(0)));
        assert_eq!(got, vec![NodeId(1)]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_radius_panics() {
        GridIndex::build(Aabb::square(10.0), 0.0, &[]);
    }

    #[test]
    fn within_into_appends_without_clearing() {
        let positions = vec![Point::new(1.0, 1.0), Point::new(2.0, 2.0)];
        let idx = GridIndex::build(Aabb::square(10.0), 5.0, &positions);
        let mut out = vec![NodeId(99)];
        idx.within_into(&positions, positions[0], 5.0, Some(NodeId(0)), &mut out);
        assert_eq!(out, vec![NodeId(99), NodeId(1)]);
        // And the result matches the allocating variant after the prefix.
        assert_eq!(
            out[1..].to_vec(),
            idx.within(&positions, positions[0], 5.0, Some(NodeId(0)))
        );
    }
}
