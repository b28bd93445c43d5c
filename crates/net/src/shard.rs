//! Sharded lazy spatial substrate for 100k–1M node deployments.
//!
//! [`Topology`] materializes every node and its full unit-disk adjacency up
//! front — fine at the paper's 1000 nodes, hopeless at a million. GMP's
//! scaling claim (Section 4) is that forwarding cost depends only on the
//! *local* neighborhood, so the substrate should too: a routing task that
//! touches a 1 km² window of a 1000 km² deployment should cost O(window),
//! not O(network).
//!
//! [`ShardedTopology`] delivers that by splitting the deployment area into
//! coarse square *tiles*, each owning a contiguous range of global
//! [`NodeId`]s and its own fine [`GridIndex`]. A tile's nodes are generated
//! deterministically from `(seed, tile_coord)` the first time anything
//! touches the tile — positions, neighbor queries, and region
//! materialization all agree regardless of the order (or thread) in which
//! tiles are first faulted in, because each tile's RNG stream is a pure
//! function of the seed and its coordinates.
//!
//! Determinism contract (pinned by `tests/substrate_parity.rs`):
//!
//! * node ids are assigned tile-by-tile in row-major tile order, nodes
//!   within a tile in generation order — so [`ShardedTopology::materialize_full`]
//!   yields positions in exactly global-id order;
//! * lazy [`ShardedTopology::neighbors_into`] returns the same sorted
//!   neighbor list as the eager [`Topology`] built from the full
//!   materialization;
//! * [`ShardedTopology::materialize_region`] over any window yields a
//!   [`Topology`] whose interior nodes (further than one radio range from
//!   the region edge) have identical neighbor lists to the full network.

use std::sync::OnceLock;

use gmp_geom::{Aabb, Point};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::grid::GridIndex;
use crate::node::NodeId;
use crate::topology::{Hole, Topology, MAX_PLACEMENT_ATTEMPTS};

/// The paper's deployment density: 1000 nodes uniformly distributed over
/// 1000 m × 1000 m (Table 1), i.e. 0.001 nodes/m².
pub const PAPER_DENSITY: f64 = 0.001;

/// Parameters for a [`ShardedTopology`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardConfig {
    /// Deployment area.
    pub area: Aabb,
    /// Total number of nodes across the whole deployment.
    pub node_count: usize,
    /// Radio range in meters.
    pub radio_range: f64,
    /// Side of a coarse tile in meters. Must be at least `radio_range` so a
    /// neighbor query touches at most the 3 × 3 block of tiles around a
    /// point.
    pub tile_side: f64,
    /// Voids carved out of the deployment.
    pub holes: Vec<Hole>,
}

impl ShardConfig {
    /// A square deployment of the given side with the default tile size
    /// (8 × the radio range — 1200 m tiles at the paper's 150 m range, so a
    /// tile holds ~1440 nodes at paper density).
    pub fn new(area_side: f64, node_count: usize, radio_range: f64) -> Self {
        ShardConfig {
            area: Aabb::square(area_side),
            node_count,
            radio_range,
            tile_side: radio_range * 8.0,
            holes: Vec::new(),
        }
    }

    /// A deployment of `node_count` nodes at the paper's density
    /// ([`PAPER_DENSITY`]): the area side grows as √n, keeping the expected
    /// degree at the paper's ~69 regardless of scale.
    pub fn paper_density(node_count: usize, radio_range: f64) -> Self {
        let side = (node_count as f64 / PAPER_DENSITY).sqrt();
        ShardConfig::new(side, node_count, radio_range)
    }

    /// Replaces the tile side.
    pub fn with_tile_side(mut self, tile_side: f64) -> Self {
        self.tile_side = tile_side;
        self
    }

    /// Adds a hole (void) to the deployment.
    pub fn with_hole(mut self, hole: Hole) -> Self {
        self.holes.push(hole);
        self
    }
}

/// One materialized tile: its nodes' positions (locally indexed) and a fine
/// spatial index over them.
#[derive(Debug)]
struct Tile {
    /// Global id of the tile's first node; local index `i` is global
    /// `base + i`.
    base: u32,
    positions: Vec<Point>,
    grid: GridIndex,
}

/// A million-node-capable deployment that materializes tiles on demand.
///
/// Construction costs O(tile count) — it computes only the per-tile node
/// budgets, never the nodes themselves. Every query then materializes just
/// the tiles it touches, so the memory footprint tracks the *touched
/// region*, not the network size.
#[derive(Debug)]
pub struct ShardedTopology {
    config: ShardConfig,
    seed: u64,
    tiles_x: usize,
    tiles_y: usize,
    /// Global node-id range of tile `t` (row-major) is
    /// `starts[t]..starts[t + 1]`; derived from cumulative clipped tile
    /// areas so the budget is deterministic, monotone, and sums to exactly
    /// `node_count`.
    starts: Vec<u32>,
    tiles: Vec<OnceLock<Tile>>,
}

impl ShardedTopology {
    /// Creates the substrate. No nodes are generated yet.
    ///
    /// # Panics
    ///
    /// Panics if the radio range is not strictly positive, if the tile side
    /// is smaller than the radio range, or if `node_count` exceeds `u32`
    /// range.
    pub fn new(config: ShardConfig, seed: u64) -> Self {
        assert!(config.radio_range > 0.0, "radio range must be positive");
        assert!(
            config.tile_side >= config.radio_range,
            "tile side {} must be at least the radio range {}",
            config.tile_side,
            config.radio_range
        );
        let n = u32::try_from(config.node_count).expect("node count exceeds u32 ids");
        let tiles_x = (config.area.width() / config.tile_side).ceil().max(1.0) as usize;
        let tiles_y = (config.area.height() / config.tile_side).ceil().max(1.0) as usize;
        let tile_count = tiles_x * tiles_y;

        // Budget nodes to tiles proportionally to clipped tile area, via
        // rounded cumulative sums: starts[t] = round(n * cum_area / total).
        // Rounding the *prefix* (not the per-tile count) keeps the total
        // exact and the sequence monotone.
        let mut starts = Vec::with_capacity(tile_count + 1);
        starts.push(0u32);
        let total_area: f64 = config.area.area();
        let mut cum = 0.0;
        for t in 0..tile_count {
            let (tx, ty) = (t % tiles_x, t / tiles_x);
            cum += tile_bounds(&config, tx, ty).area();
            let s = if t + 1 == tile_count {
                n
            } else {
                ((n as f64) * (cum / total_area)).round() as u32
            };
            starts.push(s.clamp(starts[t], n));
        }

        let tiles = (0..tile_count).map(|_| OnceLock::new()).collect();
        ShardedTopology {
            config,
            seed,
            tiles_x,
            tiles_y,
            starts,
            tiles,
        }
    }

    /// Total number of nodes in the deployment (materialized or not).
    #[inline]
    pub fn len(&self) -> usize {
        self.config.node_count
    }

    /// Returns `true` if the deployment has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.config.node_count == 0
    }

    /// The deployment area.
    #[inline]
    pub fn area(&self) -> Aabb {
        self.config.area
    }

    /// The radio range in meters.
    #[inline]
    pub fn radio_range(&self) -> f64 {
        self.config.radio_range
    }

    /// Number of coarse tiles (materialized or not).
    #[inline]
    pub fn tile_count(&self) -> usize {
        self.tiles.len()
    }

    /// Tiles materialized so far.
    pub fn materialized_tiles(&self) -> usize {
        self.tiles.iter().filter(|t| t.get().is_some()).count()
    }

    /// Nodes generated so far (sum over materialized tiles).
    pub fn materialized_nodes(&self) -> usize {
        self.tiles
            .iter()
            .filter_map(|t| t.get())
            .map(|t| t.positions.len())
            .sum()
    }

    /// Approximate heap footprint of the materialized state in bytes
    /// (tile budgets + generated positions; the per-tile grid index is
    /// counted by its bucket contents).
    pub fn heap_bytes(&self) -> usize {
        let tiles: usize = self
            .tiles
            .iter()
            .filter_map(|t| t.get())
            .map(|t| {
                // positions + one grid bucket entry per node (ids are u32).
                t.positions.capacity() * std::mem::size_of::<Point>()
                    + t.positions.len() * std::mem::size_of::<NodeId>()
            })
            .sum();
        self.starts.capacity() * std::mem::size_of::<u32>() + tiles
    }

    /// The position of node `id`, materializing its tile if needed.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn pos(&self, id: NodeId) -> Point {
        let t = self.tile_of(id);
        let tile = self.tile(t);
        tile.positions[(id.0 - tile.base) as usize]
    }

    /// Appends the sorted unit-disk neighbors of `id` to `out` (which is
    /// cleared first), materializing only the tiles the radio disk touches.
    /// Bit-identical to `Topology::neighbors` on the fully materialized
    /// network.
    pub fn neighbors_into(&self, id: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        let center = self.pos(id);
        let rr = self.config.radio_range;
        let (tx0, ty0) = self.tile_coords_clamped(center.x - rr, center.y - rr);
        let (tx1, ty1) = self.tile_coords_clamped(center.x + rr, center.y + rr);
        for ty in ty0..=ty1 {
            for tx in tx0..=tx1 {
                let tile = self.tile(ty * self.tiles_x + tx);
                let exclude = (id.0 >= tile.base
                    && (id.0 - tile.base) < tile.positions.len() as u32)
                    .then(|| NodeId(id.0 - tile.base));
                let mark = out.len();
                tile.grid
                    .within_into(&tile.positions, center, rr, exclude, out);
                for v in &mut out[mark..] {
                    v.0 += tile.base;
                }
            }
        }
        out.sort_unstable();
    }

    /// The sorted unit-disk neighbors of `id` as a fresh `Vec` — the
    /// allocating convenience form of [`ShardedTopology::neighbors_into`].
    pub fn neighbors(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.neighbors_into(id, &mut out);
        out
    }

    /// Materializes every tile intersecting `window` (plus nothing else)
    /// and builds an eager [`Topology`] over their nodes, with a mapping
    /// back to global ids. Nodes further than one radio range inside the
    /// covered region have exactly their full-network adjacency; nodes on
    /// the rim may be missing cross-boundary neighbors, so callers should
    /// inflate `window` by their routing slack before calling.
    pub fn materialize_region(&self, window: Aabb) -> RegionView {
        let (tx0, ty0) = self.tile_coords_clamped(window.min.x, window.min.y);
        let (tx1, ty1) = self.tile_coords_clamped(window.max.x, window.max.y);
        let mut positions = Vec::new();
        let mut global_ids = Vec::new();
        for ty in ty0..=ty1 {
            for tx in tx0..=tx1 {
                let t = ty * self.tiles_x + tx;
                let tile = self.tile(t);
                positions.extend_from_slice(&tile.positions);
                global_ids.extend((0..tile.positions.len() as u32).map(|i| NodeId(tile.base + i)));
            }
        }
        let bounds = Aabb::new(
            tile_bounds(&self.config, tx0, ty0).min,
            tile_bounds(&self.config, tx1, ty1).max,
        );
        RegionView {
            topology: Topology::from_positions(positions, bounds, self.config.radio_range),
            global_ids,
        }
    }

    /// Materializes the whole deployment as an eager [`Topology`], with
    /// positions in global-id order. Intended for parity testing and small
    /// deployments — this is exactly the O(n·degree) build the sharded
    /// substrate exists to avoid.
    pub fn materialize_full(&self) -> Topology {
        let mut positions = Vec::with_capacity(self.len());
        for t in 0..self.tiles.len() {
            positions.extend_from_slice(&self.tile(t).positions);
        }
        Topology::from_positions(positions, self.config.area, self.config.radio_range)
    }

    /// Global ids of all nodes whose position lies inside `window`,
    /// materializing only the tiles the window touches. Sorted ascending.
    pub fn ids_in(&self, window: Aabb) -> Vec<NodeId> {
        let (tx0, ty0) = self.tile_coords_clamped(window.min.x, window.min.y);
        let (tx1, ty1) = self.tile_coords_clamped(window.max.x, window.max.y);
        let mut ids = Vec::new();
        for ty in ty0..=ty1 {
            for tx in tx0..=tx1 {
                let tile = self.tile(ty * self.tiles_x + tx);
                for (i, &p) in tile.positions.iter().enumerate() {
                    if window.contains(p) {
                        ids.push(NodeId(tile.base + i as u32));
                    }
                }
            }
        }
        ids
    }

    /// Row-major tile index owning global node `id` (binary search over the
    /// tile budgets — no materialization).
    fn tile_of(&self, id: NodeId) -> usize {
        assert!(
            (id.0 as usize) < self.config.node_count,
            "node id {id:?} out of range for {} nodes",
            self.config.node_count
        );
        self.starts.partition_point(|&s| s <= id.0) - 1
    }

    /// Clamped tile coordinates of the tile containing point `(x, y)`.
    fn tile_coords_clamped(&self, x: f64, y: f64) -> (usize, usize) {
        let tx = ((x - self.config.area.min.x) / self.config.tile_side)
            .floor()
            .clamp(0.0, (self.tiles_x - 1) as f64) as usize;
        let ty = ((y - self.config.area.min.y) / self.config.tile_side)
            .floor()
            .clamp(0.0, (self.tiles_y - 1) as f64) as usize;
        (tx, ty)
    }

    /// The materialized tile `t`, generating it on first touch. `OnceLock`
    /// makes concurrent first touches race-safe: every thread computes the
    /// same value (the generator is a pure function of `(seed, tx, ty)`),
    /// and one result wins.
    fn tile(&self, t: usize) -> &Tile {
        self.tiles[t].get_or_init(|| {
            let (tx, ty) = (t % self.tiles_x, t / self.tiles_x);
            let bounds = tile_bounds(&self.config, tx, ty);
            let count = (self.starts[t + 1] - self.starts[t]) as usize;
            let mut rng = StdRng::seed_from_u64(tile_seed(self.seed, tx as u64, ty as u64));
            let mut positions = Vec::with_capacity(count);
            for _ in 0..count {
                positions.push(sample_free_in(&mut rng, bounds, &self.config.holes));
            }
            let grid = GridIndex::build(bounds, self.config.radio_range, &positions);
            Tile {
                base: self.starts[t],
                positions,
                grid,
            }
        })
    }
}

/// A window of a [`ShardedTopology`] materialized as an eager [`Topology`],
/// with region-local node ids. `topology` node `i` is global node
/// `global_ids[i]`.
#[derive(Debug)]
pub struct RegionView {
    /// The eagerly built topology over the covered tiles.
    pub topology: Topology,
    /// Region-local id → global id, strictly ascending.
    pub global_ids: Vec<NodeId>,
}

impl RegionView {
    /// Global id of region-local node `local`.
    #[inline]
    pub fn global(&self, local: NodeId) -> NodeId {
        self.global_ids[local.index()]
    }

    /// Region-local id of global node `g`, if the region contains it.
    pub fn local_of(&self, g: NodeId) -> Option<NodeId> {
        self.global_ids
            .binary_search(&g)
            .ok()
            .map(|i| NodeId(i as u32))
    }
}

/// Clipped bounds of tile `(tx, ty)`: a full `tile_side` square except at
/// the area's right/top edge.
fn tile_bounds(config: &ShardConfig, tx: usize, ty: usize) -> Aabb {
    let min = Point::new(
        config.area.min.x + tx as f64 * config.tile_side,
        config.area.min.y + ty as f64 * config.tile_side,
    );
    let max = Point::new(
        (min.x + config.tile_side).min(config.area.max.x),
        (min.y + config.tile_side).min(config.area.max.y),
    );
    Aabb::new(min, max)
}

/// Deterministic per-tile RNG seed: a splitmix64 finalizer over the global
/// seed mixed with the tile coordinates, so neighboring tiles (and
/// neighboring seeds) get uncorrelated streams.
fn tile_seed(seed: u64, tx: u64, ty: u64) -> u64 {
    mix64(seed ^ tx.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ty.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
}

/// The splitmix64 finalizer: a bijective avalanche over one word.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Rejection-samples a point uniform over `bounds` avoiding every hole,
/// with the same attempt cap and diagnostic as `Topology::random`.
fn sample_free_in(rng: &mut StdRng, bounds: Aabb, holes: &[Hole]) -> Point {
    for _ in 0..MAX_PLACEMENT_ATTEMPTS {
        let p = Point::new(
            rng.gen_range(bounds.min.x..=bounds.max.x),
            rng.gen_range(bounds.min.y..=bounds.max.y),
        );
        if !holes.iter().any(|h| h.contains(p)) {
            return p;
        }
    }
    panic!(
        "holes cover tile {bounds:?}: no free point found in \
         {MAX_PLACEMENT_ATTEMPTS} attempts (holes: {holes:?})"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ShardedTopology {
        // 4 × 4 tiles of 300 m over a 1200 m area.
        ShardedTopology::new(
            ShardConfig::new(1200.0, 800, 150.0).with_tile_side(300.0),
            7,
        )
    }

    #[test]
    fn budgets_sum_to_node_count_and_are_monotone() {
        let st = small();
        assert_eq!(*st.starts.last().unwrap() as usize, st.len());
        assert!(st.starts.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(st.starts.len(), st.tile_count() + 1);
    }

    #[test]
    fn construction_materializes_nothing() {
        let st = ShardedTopology::new(ShardConfig::paper_density(1_000_000, 150.0), 1);
        assert_eq!(st.len(), 1_000_000);
        assert_eq!(st.materialized_tiles(), 0);
        assert_eq!(st.materialized_nodes(), 0);
    }

    #[test]
    fn pos_touches_one_tile() {
        let st = small();
        let _ = st.pos(NodeId(0));
        assert_eq!(st.materialized_tiles(), 1);
    }

    #[test]
    fn tile_of_agrees_with_budgets() {
        let st = small();
        for t in 0..st.tile_count() {
            for id in st.starts[t]..st.starts[t + 1] {
                assert_eq!(st.tile_of(NodeId(id)), t);
            }
        }
    }

    #[test]
    fn nodes_stay_inside_their_tile() {
        let st = small();
        for t in 0..st.tile_count() {
            let (tx, ty) = (t % st.tiles_x, t / st.tiles_x);
            let bounds = tile_bounds(&st.config, tx, ty);
            for id in st.starts[t]..st.starts[t + 1] {
                assert!(bounds.contains(st.pos(NodeId(id))));
            }
        }
    }

    #[test]
    fn lazy_neighbors_match_full_materialization() {
        let st = small();
        let full = st.materialize_full();
        let mut out = Vec::new();
        for i in (0..st.len()).step_by(17) {
            let id = NodeId(i as u32);
            st.neighbors_into(id, &mut out);
            assert_eq!(out.as_slice(), full.neighbors(id), "node {i}");
            assert_eq!(st.pos(id), full.pos(id));
        }
    }

    #[test]
    fn generation_is_deterministic_and_order_independent() {
        let a = small();
        let b = small();
        // Touch b's tiles in reverse order; positions must still agree.
        for t in (0..b.tile_count()).rev() {
            let _ = b.tile(t);
        }
        for i in (0..a.len()).step_by(29) {
            assert_eq!(a.pos(NodeId(i as u32)), b.pos(NodeId(i as u32)));
        }
        let c = ShardedTopology::new(
            ShardConfig::new(1200.0, 800, 150.0).with_tile_side(300.0),
            8,
        );
        assert_ne!(a.pos(NodeId(0)), c.pos(NodeId(0)), "seed must matter");
    }

    #[test]
    fn region_interior_adjacency_matches_full() {
        let st = small();
        let full = st.materialize_full();
        let window = Aabb::new(Point::new(300.0, 300.0), Point::new(900.0, 900.0));
        let view = st.materialize_region(window);
        assert!(view.topology.len() < st.len(), "region must be a subset");
        let rr = st.radio_range();
        for local in 0..view.topology.len() {
            let lid = NodeId(local as u32);
            let p = view.topology.pos(lid);
            let b = view.topology.area();
            let interior = p.x - b.min.x > rr
                && b.max.x - p.x > rr
                && p.y - b.min.y > rr
                && b.max.y - p.y > rr;
            if !interior {
                continue;
            }
            let got: Vec<NodeId> = view
                .topology
                .neighbors(lid)
                .iter()
                .map(|&n| view.global(n))
                .collect();
            assert_eq!(got.as_slice(), full.neighbors(view.global(lid)));
        }
    }

    #[test]
    fn region_view_id_mapping_round_trips() {
        let st = small();
        let view = st.materialize_region(Aabb::new(Point::new(0.0, 0.0), Point::new(400.0, 400.0)));
        assert!(view.global_ids.windows(2).all(|w| w[0] < w[1]));
        for local in 0..view.topology.len() {
            let lid = NodeId(local as u32);
            assert_eq!(view.local_of(view.global(lid)), Some(lid));
        }
        assert_eq!(view.local_of(NodeId(st.len() as u32 - 1)), None);
    }

    #[test]
    fn ids_in_window_match_positions() {
        let st = small();
        let window = Aabb::new(Point::new(100.0, 100.0), Point::new(500.0, 500.0));
        let ids = st.ids_in(window);
        assert!(!ids.is_empty());
        for &id in &ids {
            assert!(window.contains(st.pos(id)));
        }
        let full = st.materialize_full();
        let brute: Vec<NodeId> = (0..full.len() as u32)
            .map(NodeId)
            .filter(|&id| window.contains(full.pos(id)))
            .collect();
        assert_eq!(ids, brute);
    }

    #[test]
    fn million_node_query_touches_only_local_tiles() {
        let st = ShardedTopology::new(ShardConfig::paper_density(1_000_000, 150.0), 42);
        let mut out = Vec::new();
        st.neighbors_into(NodeId(500_000), &mut out);
        assert!(!out.is_empty(), "paper density should give ~69 neighbors");
        assert!(
            st.materialized_tiles() <= 4,
            "a single query must not fault in more than the 2×2 tile block \
             around the point, got {}",
            st.materialized_tiles()
        );
    }

    #[test]
    fn holes_respected_in_tiles() {
        let hole = Hole::Circle {
            center: Point::new(600.0, 600.0),
            radius: 200.0,
        };
        let st = ShardedTopology::new(
            ShardConfig::new(1200.0, 500, 150.0)
                .with_tile_side(300.0)
                .with_hole(hole),
            3,
        );
        let full = st.materialize_full();
        for n in full.nodes() {
            assert!(!hole.contains(n.pos));
        }
    }

    #[test]
    #[should_panic(expected = "holes cover tile")]
    fn fully_holed_tile_panics_with_diagnostic() {
        let st = ShardedTopology::new(
            ShardConfig::new(600.0, 100, 150.0)
                .with_tile_side(300.0)
                .with_hole(Hole::Rect(Aabb::new(
                    Point::new(-1.0, -1.0),
                    Point::new(301.0, 301.0),
                ))),
            1,
        );
        let _ = st.pos(NodeId(0)); // tile (0,0) is fully covered
    }

    #[test]
    fn paper_density_area_side() {
        let c = ShardConfig::paper_density(1000, 150.0);
        assert!((c.area.width() - 1000.0).abs() < 1e-6);
        let c = ShardConfig::paper_density(1_000_000, 150.0);
        assert!((c.area.width() - 31_622.776).abs() < 1e-2);
    }
}
