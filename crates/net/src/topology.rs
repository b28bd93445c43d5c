//! Deployment topologies: node placement generators and the immutable
//! [`Topology`] the simulator and protocols operate on.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use gmp_geom::{Aabb, Point};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::csr::Csr;
use crate::grid::GridIndex;
use crate::node::{Node, NodeId};
use crate::planar::{planarize, PlanarKind};

/// Cap on rejection-sampling attempts when drawing a node position that
/// avoids every hole. Hitting it means the holes (practically) cover the
/// sampling region; the generators panic with the offending hole config
/// instead of spinning forever.
const MAX_PLACEMENT_ATTEMPTS: usize = 100_000;

/// The next [`Topology::id`] to hand out. It publishes no other data, so
/// `Relaxed` is enough: `fetch_add` alone makes every id unique.
static NEXT_TOPOLOGY_ID: AtomicU64 = AtomicU64::new(0);

/// How nodes are placed in the deployment area.
#[derive(Debug, Clone, PartialEq)]
pub enum Placement {
    /// Independently uniform over the area — the paper's deployment model
    /// ("1000 nodes are uniformly distributed in the network").
    UniformRandom,
    /// A regular √n × √n grid, with each node perturbed by a uniform jitter
    /// of at most `jitter` meters per axis. Useful for reproducible
    /// structured layouts.
    GridJitter {
        /// Maximum per-axis perturbation in meters.
        jitter: f64,
    },
    /// Gaussian clusters: `clusters` centers placed uniformly, each node
    /// assigned to a random center with normal spread `spread`.
    Clustered {
        /// Number of cluster centers.
        clusters: usize,
        /// Standard deviation of node positions around their center.
        spread: f64,
    },
}

/// An obstacle carved out of the deployment: no node is placed inside.
///
/// Holes create routing *voids*, exercising GMP's group splitting and
/// perimeter mode (Section 4.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Hole {
    /// A circular void.
    Circle {
        /// Void center.
        center: Point,
        /// Void radius in meters.
        radius: f64,
    },
    /// A rectangular void.
    Rect(Aabb),
}

impl Hole {
    /// Returns `true` if `p` falls inside the hole.
    pub fn contains(&self, p: Point) -> bool {
        match *self {
            Hole::Circle { center, radius } => p.dist_sq(center) < radius * radius,
            Hole::Rect(r) => r.contains(p),
        }
    }
}

/// Parameters for generating a [`Topology`].
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyConfig {
    /// Deployment area.
    pub area: Aabb,
    /// Number of nodes to place.
    pub node_count: usize,
    /// Radio range in meters (the paper uses 150 m).
    pub radio_range: f64,
    /// Placement strategy.
    pub placement: Placement,
    /// Voids carved out of the deployment.
    pub holes: Vec<Hole>,
}

impl TopologyConfig {
    /// Convenience constructor: uniform placement over a square area of the
    /// given side, with no holes.
    pub fn new(area_side: f64, node_count: usize, radio_range: f64) -> Self {
        TopologyConfig {
            area: Aabb::square(area_side),
            node_count,
            radio_range,
            placement: Placement::UniformRandom,
            holes: Vec::new(),
        }
    }

    /// The paper's Table 1 deployment: 1000 nodes uniform over
    /// 1000 m × 1000 m with a 150 m radio range.
    pub fn paper() -> Self {
        TopologyConfig::new(1000.0, 1000, 150.0)
    }

    /// Replaces the placement strategy.
    pub fn with_placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Adds a hole (void) to the deployment.
    pub fn with_hole(mut self, hole: Hole) -> Self {
        self.holes.push(hole);
        self
    }

    /// Replaces the node count (used for the Fig. 15 density sweep).
    pub fn with_node_count(mut self, node_count: usize) -> Self {
        self.node_count = node_count;
        self
    }
}

/// An immutable node deployment with precomputed unit-disk adjacency.
///
/// All protocol code receives a `&Topology` and may only use *local*
/// information from it (its own position and its neighbors' positions);
/// the centralized SMT baseline is the documented exception.
///
/// Storage is struct-of-arrays: node positions live in one flat `Vec`
/// (a node record is synthesized on demand by [`Topology::nodes`]) and
/// adjacency, planar subgraphs, and neighbor distances are [`Csr`] layouts
/// — two flat arrays each, independent of node count.
///
/// Every topology carries a process-unique [`Topology::id`]. The fields
/// are private, no method takes `&mut self` and the type is not `Clone`,
/// so the positions, area, radio range and adjacency behind an id never
/// change and no second value shares it: equal ids *prove* the same
/// deployment, without hashing or comparing it. A method that ever
/// mutates a topology must keep that invariant by stamping a fresh id.
#[derive(Debug)]
pub struct Topology {
    id: u64,
    positions: Vec<Point>,
    area: Aabb,
    radio_range: f64,
    adjacency: Csr<NodeId>,
    gabriel: OnceLock<Csr<NodeId>>,
    rng_graph: OnceLock<Csr<NodeId>>,
    neighbor_dists: OnceLock<Csr<f64>>,
}

impl Topology {
    /// Builds a topology from explicit node positions, stamped with a
    /// fresh [`Topology::id`]. This is the only constructor.
    ///
    /// # Panics
    ///
    /// Panics if `radio_range` is not strictly positive.
    pub fn from_positions(positions: Vec<Point>, area: Aabb, radio_range: f64) -> Self {
        assert!(radio_range > 0.0, "radio range must be positive");
        let grid = GridIndex::build(area, radio_range, &positions);
        // Straight into CSR: one reused query buffer, no per-node Vec.
        let mut adjacency = Csr::with_capacity(positions.len(), positions.len() * 8);
        let mut buf: Vec<NodeId> = Vec::new();
        for (i, &p) in positions.iter().enumerate() {
            buf.clear();
            grid.within_into(&positions, p, radio_range, Some(NodeId(i as u32)), &mut buf);
            buf.sort_unstable();
            adjacency.push_row(buf.iter().copied());
        }
        Topology {
            id: NEXT_TOPOLOGY_ID.fetch_add(1, Ordering::Relaxed),
            positions,
            area,
            radio_range,
            adjacency,
            gabriel: OnceLock::new(),
            rng_graph: OnceLock::new(),
            neighbor_dists: OnceLock::new(),
        }
    }

    /// Generates a topology from `config` with a deterministic `seed`.
    ///
    /// # Example
    ///
    /// ```
    /// use gmp_net::{Topology, TopologyConfig};
    /// let topo = Topology::random(&TopologyConfig::paper(), 42);
    /// assert_eq!(topo.len(), 1000);
    /// assert!(topo.is_connected());
    /// ```
    pub fn random(config: &TopologyConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut positions = Vec::with_capacity(config.node_count);
        let area = config.area;
        let sample_free = |rng: &mut StdRng, holes: &[Hole]| -> Point {
            for _ in 0..MAX_PLACEMENT_ATTEMPTS {
                let p = Point::new(
                    rng.gen_range(area.min.x..=area.max.x),
                    rng.gen_range(area.min.y..=area.max.y),
                );
                if !holes.iter().any(|h| h.contains(p)) {
                    return p;
                }
            }
            panic!(
                "holes cover the deployment area {area:?}: no free point found \
                 in {MAX_PLACEMENT_ATTEMPTS} attempts (holes: {holes:?})"
            );
        };
        match &config.placement {
            Placement::UniformRandom => {
                for _ in 0..config.node_count {
                    positions.push(sample_free(&mut rng, &config.holes));
                }
            }
            Placement::GridJitter { jitter } => {
                let side = (config.node_count as f64).sqrt().ceil() as usize;
                let dx = area.width() / side as f64;
                let dy = area.height() / side as f64;
                'outer: for gy in 0..side {
                    for gx in 0..side {
                        if positions.len() == config.node_count {
                            break 'outer;
                        }
                        let base = Point::new(
                            area.min.x + (gx as f64 + 0.5) * dx,
                            area.min.y + (gy as f64 + 0.5) * dy,
                        );
                        let p = Point::new(
                            (base.x + rng.gen_range(-jitter..=*jitter))
                                .clamp(area.min.x, area.max.x),
                            (base.y + rng.gen_range(-jitter..=*jitter))
                                .clamp(area.min.y, area.max.y),
                        );
                        if config.holes.iter().any(|h| h.contains(p)) {
                            positions.push(sample_free(&mut rng, &config.holes));
                        } else {
                            positions.push(p);
                        }
                    }
                }
            }
            Placement::Clustered { clusters, spread } => {
                let centers: Vec<Point> = (0..*clusters.max(&1))
                    .map(|_| sample_free(&mut rng, &config.holes))
                    .collect();
                for _ in 0..config.node_count {
                    let mut attempts = 0usize;
                    loop {
                        let c = centers[rng.gen_range(0..centers.len())];
                        // Box–Muller normal sample.
                        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                        let u2: f64 = rng.gen_range(0.0..1.0);
                        let r = (-2.0 * u1.ln()).sqrt() * spread;
                        let theta = std::f64::consts::TAU * u2;
                        let p = Point::new(c.x + r * theta.cos(), c.y + r * theta.sin());
                        if area.contains(p) && !config.holes.iter().any(|h| h.contains(p)) {
                            positions.push(p);
                            break;
                        }
                        attempts += 1;
                        assert!(
                            attempts < MAX_PLACEMENT_ATTEMPTS,
                            "clustered placement found no free point around any of {} centers \
                             in {MAX_PLACEMENT_ATTEMPTS} attempts (spread {spread}, holes: {:?})",
                            centers.len(),
                            config.holes,
                        );
                    }
                }
            }
        }
        Topology::from_positions(positions, area, config.radio_range)
    }

    /// This topology's process-unique identity. Two topologies built
    /// separately from the same positions get different ids; state keyed
    /// on an id (decision-cache entries, a compiled fault plan) therefore
    /// never serves one topology what was derived from another.
    #[inline]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Returns `true` if the topology has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The deployment area.
    #[inline]
    pub fn area(&self) -> Aabb {
        self.area
    }

    /// The radio range every node uses, in meters.
    #[inline]
    pub fn radio_range(&self) -> f64 {
        self.radio_range
    }

    /// The position of node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn pos(&self, id: NodeId) -> Point {
        self.positions[id.index()]
    }

    /// Iterates over all node records in id order. Records are synthesized
    /// from the flat position array — the topology stores no `Vec<Node>`.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = Node> + '_ {
        self.positions
            .iter()
            .enumerate()
            .map(|(i, &p)| Node::new(NodeId(i as u32), p))
    }

    /// All node positions, indexable by [`NodeId::index`].
    pub fn positions(&self) -> Vec<Point> {
        self.positions.clone()
    }

    /// All node positions as a borrowed slice, indexable by
    /// [`NodeId::index`] — the allocation-free form of
    /// [`Topology::positions`].
    #[inline]
    pub fn positions_ref(&self) -> &[Point] {
        &self.positions
    }

    /// The unit-disk neighbors of `id` (all nodes within radio range),
    /// sorted by id.
    #[inline]
    pub fn neighbors(&self, id: NodeId) -> &[NodeId] {
        self.adjacency.row(id.index())
    }

    /// `true` iff `b` is in [`Topology::neighbors`]`(a)`, in O(1): the
    /// rows are built with exactly this test (squared distance against the
    /// squared radio range), so it reads two positions instead of a row.
    #[inline]
    pub fn is_neighbor(&self, a: NodeId, b: NodeId) -> bool {
        let rr = self.radio_range;
        a != b && self.pos(b).dist_sq(self.pos(a)) <= rr * rr
    }

    /// Full unit-disk adjacency as a CSR layout; row `i` is the sorted
    /// neighbor list of node `i`.
    #[inline]
    pub fn adjacency(&self) -> &Csr<NodeId> {
        &self.adjacency
    }

    /// The neighbor of `id` closest to `target`, or `None` if `id` has no
    /// neighbors.
    pub fn closest_neighbor_to(&self, id: NodeId, target: Point) -> Option<NodeId> {
        self.neighbors(id).iter().copied().min_by(|&a, &b| {
            self.pos(a)
                .dist_sq(target)
                .total_cmp(&self.pos(b).dist_sq(target))
        })
    }

    /// The planarized neighbor lists for the requested planar subgraph,
    /// computed lazily once and cached.
    pub fn planar_neighbors(&self, kind: PlanarKind, id: NodeId) -> &[NodeId] {
        let cache = match kind {
            PlanarKind::Gabriel => &self.gabriel,
            PlanarKind::RelativeNeighborhood => &self.rng_graph,
        };
        let adj = cache.get_or_init(|| planarize(self, kind));
        adj.row(id.index())
    }

    /// The distances from `id` to each of its unit-disk neighbors, sorted
    /// ascending; computed lazily once and cached. Because the values are
    /// the same `dist` results a caller would compute per neighbor, a
    /// `partition_point` over this slice counts exactly the neighbors a
    /// linear distance filter would keep (power-control listener counts).
    pub fn neighbor_distances(&self, id: NodeId) -> &[f64] {
        let all = self.neighbor_dists.get_or_init(|| {
            let mut csr = Csr::with_capacity(self.len(), self.adjacency.total_len());
            let mut d: Vec<f64> = Vec::new();
            for (i, neigh) in self.adjacency.iter().enumerate() {
                let p = self.positions[i];
                d.clear();
                d.extend(neigh.iter().map(|&n| p.dist(self.positions[n.index()])));
                d.sort_unstable_by(|a, b| a.total_cmp(b));
                csr.push_row(d.iter().copied());
            }
            csr
        });
        all.row(id.index())
    }

    /// Whether the unit-disk graph is connected (BFS from node 0).
    pub fn is_connected(&self) -> bool {
        if self.positions.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.len()];
        let mut queue = std::collections::VecDeque::from([NodeId(0)]);
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = queue.pop_front() {
            for &v in self.neighbors(u) {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    count += 1;
                    queue.push_back(v);
                }
            }
        }
        count == self.len()
    }

    /// Average unit-disk degree — the paper's density knob (Fig. 15 sweeps
    /// the node count, which sweeps this).
    pub fn average_degree(&self) -> f64 {
        if self.positions.is_empty() {
            return 0.0;
        }
        self.adjacency.total_len() as f64 / self.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_topology_is_deterministic_per_seed() {
        let config = TopologyConfig::new(300.0, 50, 100.0);
        let a = Topology::random(&config, 9);
        let b = Topology::random(&config, 9);
        let c = Topology::random(&config, 10);
        assert_eq!(a.positions(), b.positions());
        assert_ne!(a.positions(), c.positions());
    }

    #[test]
    fn adjacency_is_symmetric_and_within_range() {
        let config = TopologyConfig::new(400.0, 80, 120.0);
        let topo = Topology::random(&config, 3);
        for n in topo.nodes() {
            for &m in topo.neighbors(n.id) {
                assert!(topo.pos(n.id).dist(topo.pos(m)) <= 120.0 + 1e-9);
                assert!(
                    topo.neighbors(m).contains(&n.id),
                    "adjacency must be symmetric"
                );
                assert_ne!(m, n.id, "no self loops");
            }
        }
    }

    #[test]
    fn holes_exclude_nodes() {
        let hole = Hole::Circle {
            center: Point::new(250.0, 250.0),
            radius: 100.0,
        };
        let config = TopologyConfig::new(500.0, 200, 100.0).with_hole(hole);
        let topo = Topology::random(&config, 5);
        for n in topo.nodes() {
            assert!(!hole.contains(n.pos));
        }
    }

    #[test]
    fn rect_hole_contains() {
        let hole = Hole::Rect(Aabb::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)));
        assert!(hole.contains(Point::new(5.0, 5.0)));
        assert!(!hole.contains(Point::new(15.0, 5.0)));
    }

    #[test]
    fn grid_placement_produces_exact_count() {
        let config = TopologyConfig::new(100.0, 37, 30.0)
            .with_placement(Placement::GridJitter { jitter: 2.0 });
        let topo = Topology::random(&config, 1);
        assert_eq!(topo.len(), 37);
        for n in topo.nodes() {
            assert!(topo.area().contains(n.pos));
        }
    }

    #[test]
    fn clustered_placement_stays_in_area() {
        let config = TopologyConfig::new(200.0, 60, 50.0).with_placement(Placement::Clustered {
            clusters: 3,
            spread: 20.0,
        });
        let topo = Topology::random(&config, 8);
        assert_eq!(topo.len(), 60);
        for n in topo.nodes() {
            assert!(topo.area().contains(n.pos));
        }
    }

    #[test]
    fn paper_config_matches_table_1() {
        let c = TopologyConfig::paper();
        assert_eq!(c.node_count, 1000);
        assert_eq!(c.radio_range, 150.0);
        assert_eq!(c.area.width(), 1000.0);
        assert_eq!(c.area.height(), 1000.0);
    }

    #[test]
    fn closest_neighbor_is_closest() {
        let positions = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(0.0, 20.0),
            Point::new(5.0, 5.0),
        ];
        let topo = Topology::from_positions(positions, Aabb::square(100.0), 50.0);
        let target = Point::new(9.0, 1.0);
        assert_eq!(topo.closest_neighbor_to(NodeId(0), target), Some(NodeId(1)));
    }

    #[test]
    fn neighbor_distances_are_sorted_and_match_linear_filter() {
        let config = TopologyConfig::new(400.0, 80, 120.0);
        let topo = Topology::random(&config, 3);
        for n in topo.nodes() {
            let dists = topo.neighbor_distances(n.id);
            assert_eq!(dists.len(), topo.neighbors(n.id).len());
            assert!(dists.windows(2).all(|w| w[0] <= w[1]), "must be sorted");
            // A partition_point cutoff counts exactly what the linear
            // distance filter counts, for any cutoff.
            for cutoff in [0.0, 30.0, 61.7, 120.0, 200.0] {
                let linear = topo
                    .neighbors(n.id)
                    .iter()
                    .filter(|&&m| topo.pos(n.id).dist(topo.pos(m)) <= cutoff)
                    .count();
                assert_eq!(dists.partition_point(|&d| d <= cutoff), linear);
            }
        }
    }

    #[test]
    fn positions_ref_matches_positions() {
        let config = TopologyConfig::new(300.0, 50, 100.0);
        let topo = Topology::random(&config, 9);
        assert_eq!(topo.positions(), topo.positions_ref().to_vec());
    }

    #[test]
    fn separately_built_topologies_get_distinct_stable_ids() {
        let positions = vec![Point::new(0.0, 0.0), Point::new(30.0, 40.0)];
        let a = Topology::from_positions(positions.clone(), Aabb::square(100.0), 60.0);
        let b = Topology::from_positions(positions, Aabb::square(100.0), 60.0);
        assert_eq!(a.positions(), b.positions());
        assert_ne!(a.id(), b.id(), "identical positions, separate builds");
        let id = a.id();
        a.neighbors(NodeId(0));
        a.planar_neighbors(PlanarKind::Gabriel, NodeId(0));
        a.neighbor_distances(NodeId(1));
        assert_eq!(a.id(), id, "lazy caches leave the id alone");
    }

    #[test]
    fn dense_random_network_is_connected() {
        // Paper density: 1000 nodes / km² with 150 m range ⇒ avg degree ≈ 69.
        let config = TopologyConfig::new(1000.0, 500, 150.0);
        let topo = Topology::random(&config, 11);
        assert!(topo.is_connected());
        assert!(topo.average_degree() > 10.0);
    }

    #[test]
    fn single_node_topology_is_connected() {
        let topo = Topology::from_positions(vec![Point::new(1.0, 1.0)], Aabb::square(10.0), 5.0);
        assert!(topo.is_connected());
        assert!(topo.neighbors(NodeId(0)).is_empty());
        assert_eq!(topo.average_degree(), 0.0);
    }

    #[test]
    fn disconnected_topology_detected() {
        let topo = Topology::from_positions(
            vec![Point::new(0.0, 0.0), Point::new(100.0, 100.0)],
            Aabb::square(200.0),
            10.0,
        );
        assert!(!topo.is_connected());
    }
}
