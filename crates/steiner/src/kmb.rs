//! The Kou–Markowsky–Berman (KMB) Steiner-tree heuristic on graphs \[16\].
//!
//! The paper's centralized SMT baseline assumes the source knows the whole
//! network topology and computes a near-optimal Steiner tree over the
//! unit-disk graph (2-approximation). The classical five steps:
//!
//! 1. build the *terminal distance graph* — the complete graph on the
//!    terminals weighted by shortest-path distance;
//! 2. take its MST;
//! 3. expand each MST edge into an actual shortest path, yielding a
//!    subgraph of the original;
//! 4. take the MST of that subgraph;
//! 5. repeatedly prune non-terminal leaves.
//!
//! The module is deliberately independent of `gmp-net`: the graph is an
//! adjacency list `&[Vec<(u32, f64)>]` so it works for any substrate.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A Steiner tree over graph vertices.
#[derive(Debug, Clone, PartialEq)]
pub struct KmbTree {
    /// Undirected tree edges `(u, v)` with `u < v`.
    pub edges: Vec<(u32, u32)>,
    /// Sum of edge weights.
    pub total_weight: f64,
}

impl KmbTree {
    /// Orients the tree away from `root`: `children[v]` for every `v < n`,
    /// where `n` bounds the graph's vertex ids. Vertices not reached from
    /// `root` have empty lists and never appear as anyone's child.
    pub fn rooted_children(&self, root: u32, n: usize) -> Vec<Vec<u32>> {
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(u, v) in &self.edges {
            adj[u as usize].push(v);
            adj[v as usize].push(u);
        }
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut seen = vec![false; n];
        seen[root as usize] = true;
        let mut stack = vec![root];
        while let Some(u) = stack.pop() {
            for &v in &adj[u as usize] {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    children[u as usize].push(v);
                    stack.push(v);
                }
            }
        }
        children
    }
}

/// Dijkstra over the adjacency list; returns `(dist, prev)`.
fn dijkstra(graph: &[Vec<(u32, f64)>], source: u32) -> (Vec<f64>, Vec<Option<u32>>) {
    let n = graph.len();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev: Vec<Option<u32>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[source as usize] = 0.0;
    heap.push(Reverse((0u64, source)));
    while let Some(Reverse((kd, u))) = heap.pop() {
        let du = dist[u as usize];
        if du.to_bits() != kd {
            continue;
        }
        for &(v, w) in &graph[u as usize] {
            let alt = du + w;
            if alt < dist[v as usize] {
                dist[v as usize] = alt;
                prev[v as usize] = Some(u);
                heap.push(Reverse((alt.to_bits(), v)));
            }
        }
    }
    (dist, prev)
}

/// Disjoint-set union with path compression.
#[derive(Debug)]
struct Dsu(Vec<u32>);

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu((0..n as u32).collect())
    }
    fn find(&mut self, x: u32) -> u32 {
        if self.0[x as usize] != x {
            let r = self.find(self.0[x as usize]);
            self.0[x as usize] = r;
        }
        self.0[x as usize]
    }
    fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            false
        } else {
            self.0[ra as usize] = rb;
            true
        }
    }
}

/// Kruskal MST over an explicit edge list; returns the chosen edges.
fn kruskal(n_hint: usize, mut edges: Vec<(f64, u32, u32)>) -> Vec<(f64, u32, u32)> {
    edges.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    let mut dsu = Dsu::new(n_hint);
    edges
        .into_iter()
        .filter(|&(_, u, v)| dsu.union(u, v))
        .collect()
}

/// Computes a KMB Steiner tree spanning `terminals` over `graph`.
///
/// Returns `None` when the terminals are not mutually connected.
///
/// # Example
///
/// ```
/// // Path graph 0—1—2—3 with unit weights; terminals {0, 3}.
/// let graph = vec![
///     vec![(1, 1.0)],
///     vec![(0, 1.0), (2, 1.0)],
///     vec![(1, 1.0), (3, 1.0)],
///     vec![(2, 1.0)],
/// ];
/// let tree = gmp_steiner::kmb::kmb(&graph, &[0, 3]).unwrap();
/// assert_eq!(tree.total_weight, 3.0);
/// assert_eq!(tree.edges.len(), 3);
/// ```
pub fn kmb(graph: &[Vec<(u32, f64)>], terminals: &[u32]) -> Option<KmbTree> {
    if terminals.is_empty() {
        return Some(KmbTree {
            edges: Vec::new(),
            total_weight: 0.0,
        });
    }
    let terminals: Vec<u32> = {
        let mut t = terminals.to_vec();
        t.sort_unstable();
        t.dedup();
        t
    };
    if terminals.len() == 1 {
        return Some(KmbTree {
            edges: Vec::new(),
            total_weight: 0.0,
        });
    }

    // Step 1: shortest paths from every terminal.
    let mut sp = Vec::with_capacity(terminals.len());
    for &t in &terminals {
        sp.push(dijkstra(graph, t));
    }
    // Terminal distance graph edges (indices into `terminals`).
    let mut tedges = Vec::new();
    for (i, (dist_i, _)) in sp.iter().enumerate() {
        for (j, &tj) in terminals.iter().enumerate().skip(i + 1) {
            let d = dist_i[tj as usize];
            if d.is_infinite() {
                return None; // disconnected terminals
            }
            tedges.push((d, i as u32, j as u32));
        }
    }
    // Step 2: MST of the terminal distance graph.
    let tmst = kruskal(terminals.len(), tedges);

    // Step 3: expand MST edges into real shortest paths.
    let mut sub_edges: Vec<(u32, u32)> = Vec::new();
    for &(_, ti, tj) in &tmst {
        // Walk predecessors from terminal j back to terminal i using the
        // Dijkstra run rooted at terminal i.
        let (_, prev) = &sp[ti as usize];
        let mut cur = terminals[tj as usize];
        while let Some(p) = prev[cur as usize] {
            sub_edges.push((p.min(cur), p.max(cur)));
            cur = p;
        }
    }
    sub_edges.sort_unstable();
    sub_edges.dedup();

    // Step 4: MST of the expanded subgraph.
    let weight_of = |u: u32, v: u32| -> f64 {
        graph[u as usize]
            .iter()
            .find(|&&(x, _)| x == v)
            .map(|&(_, w)| w)
            .expect("subgraph edge must exist in graph")
    };
    let sub_list: Vec<(f64, u32, u32)> = sub_edges
        .iter()
        .map(|&(u, v)| (weight_of(u, v), u, v))
        .collect();
    let smst = kruskal(graph.len(), sub_list);

    // Step 5: prune non-terminal leaves. Vertex-indexed adjacency plus an
    // `in_tree` membership mask replace the HashMap/HashSet pair; pruning is
    // confluent, so the worklist order does not affect the fixpoint. The
    // deterministic final iteration also makes the float summation order (and
    // thus `total_weight`) reproducible across runs.
    let mut is_terminal = vec![false; graph.len()];
    for &t in &terminals {
        is_terminal[t as usize] = true;
    }
    let mut adj: Vec<Vec<(u32, f64)>> = vec![Vec::new(); graph.len()];
    let mut in_tree = vec![false; graph.len()];
    for &(w, u, v) in &smst {
        adj[u as usize].push((v, w));
        adj[v as usize].push((u, w));
        in_tree[u as usize] = true;
        in_tree[v as usize] = true;
    }
    let mut work: Vec<u32> = (0..graph.len() as u32)
        .filter(|&v| in_tree[v as usize])
        .collect();
    while let Some(v) = work.pop() {
        let v = v as usize;
        if !in_tree[v] || is_terminal[v] || adj[v].len() > 1 {
            continue;
        }
        in_tree[v] = false;
        for (n, _) in std::mem::take(&mut adj[v]) {
            adj[n as usize].retain(|&(x, _)| x != v as u32);
            work.push(n);
        }
    }
    let mut edges = Vec::new();
    let mut total = 0.0;
    for (u, ns) in adj.iter().enumerate() {
        let u = u as u32;
        for &(v, w) in ns {
            if u < v {
                edges.push((u, v));
                total += w;
            }
        }
    }
    edges.sort_unstable();
    Some(KmbTree {
        edges,
        total_weight: total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// The root plus every child `rooted_children` lists, sorted. A vertex
    /// with two parents would appear twice.
    pub(super) fn reached(tree: &KmbTree, root: u32, n: usize) -> Vec<u32> {
        let mut out = vec![root];
        out.extend(tree.rooted_children(root, n).into_iter().flatten());
        out.sort_unstable();
        out
    }

    /// The distinct endpoints of the tree's edges, sorted.
    pub(super) fn spanned(tree: &KmbTree) -> Vec<u32> {
        let mut out: Vec<u32> = tree.edges.iter().flat_map(|&(u, v)| [u, v]).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Unweighted grid graph helper: `cols × rows`, unit edge weights.
    fn grid_graph(cols: usize, rows: usize) -> Vec<Vec<(u32, f64)>> {
        let id = |x: usize, y: usize| (y * cols + x) as u32;
        let mut g = vec![Vec::new(); cols * rows];
        for y in 0..rows {
            for x in 0..cols {
                if x + 1 < cols {
                    g[id(x, y) as usize].push((id(x + 1, y), 1.0));
                    g[id(x + 1, y) as usize].push((id(x, y), 1.0));
                }
                if y + 1 < rows {
                    g[id(x, y) as usize].push((id(x, y + 1), 1.0));
                    g[id(x, y + 1) as usize].push((id(x, y), 1.0));
                }
            }
        }
        g
    }

    #[test]
    fn two_terminals_get_shortest_path() {
        let g = grid_graph(5, 5);
        let tree = kmb(&g, &[0, 24]).unwrap();
        // Manhattan distance from (0,0) to (4,4) is 8.
        assert_eq!(tree.total_weight, 8.0);
        assert_eq!(tree.edges.len(), 8);
    }

    #[test]
    fn star_terminals_share_trunk() {
        // Terminals at three corners of a grid: KMB must do better than
        // three disjoint shortest paths from one of them.
        let g = grid_graph(5, 5);
        let tree = kmb(&g, &[0, 4, 20]).unwrap();
        // Independent paths from 0: 4 + 4 = ... Steiner optimum is 8 + 4?
        // Corners (0,0),(4,0),(0,4): optimal tree weight is 8 + 4 = ... at
        // most sum of pairwise SP MST = 8 + 8; KMB ≤ 2·OPT and here the MST
        // of distances picks two edges of weight 4+4... pin the exact value:
        assert!(tree.total_weight <= 8.0 + 1e-9, "got {}", tree.total_weight);
        // All terminals spanned and connected.
        let reached = reached(&tree, 0, g.len());
        assert!(reached.contains(&4));
        assert!(reached.contains(&20));
    }

    #[test]
    fn single_and_empty_terminal_sets() {
        let g = grid_graph(3, 3);
        assert_eq!(kmb(&g, &[]).unwrap().edges.len(), 0);
        assert_eq!(kmb(&g, &[5]).unwrap().edges.len(), 0);
        assert_eq!(kmb(&g, &[5, 5, 5]).unwrap().edges.len(), 0);
    }

    #[test]
    fn disconnected_terminals_return_none() {
        // Two disconnected components.
        let g = vec![
            vec![(1, 1.0)],
            vec![(0, 1.0)],
            vec![(3, 1.0)],
            vec![(2, 1.0)],
        ];
        assert_eq!(kmb(&g, &[0, 2]), None);
    }

    #[test]
    fn tree_spans_terminals_and_has_no_cycles() {
        let g = grid_graph(6, 6);
        let terminals = [0u32, 5, 30, 35, 14];
        let tree = kmb(&g, &terminals).unwrap();
        // |E| = |V| - 1 for a tree.
        assert_eq!(tree.edges.len(), spanned(&tree).len() - 1);
        let reached = reached(&tree, 0, g.len());
        for t in terminals {
            assert!(reached.contains(&t), "terminal {t} not spanned");
        }
        // Every child has exactly one parent, and the root reaches every
        // vertex on an edge.
        assert!(
            reached.windows(2).all(|w| w[0] < w[1]),
            "a vertex has two parents"
        );
        assert_eq!(reached, spanned(&tree));
    }

    #[test]
    fn no_nonterminal_leaves_remain() {
        let g = grid_graph(7, 7);
        let terminals = [0u32, 48, 6];
        let tree = kmb(&g, &terminals).unwrap();
        let mut degree: HashMap<u32, usize> = HashMap::new();
        for &(u, v) in &tree.edges {
            *degree.entry(u).or_default() += 1;
            *degree.entry(v).or_default() += 1;
        }
        for (&v, &d) in &degree {
            if d == 1 {
                assert!(terminals.contains(&v), "non-terminal leaf {v}");
            }
        }
    }

    #[test]
    fn kmb_is_within_twice_shortest_path_lower_bound() {
        // 2-approximation sanity: for terminals on a path the optimum is
        // the path itself and KMB must equal it.
        let mut g = vec![Vec::new(); 10];
        for i in 0..9u32 {
            g[i as usize].push((i + 1, 2.0));
            g[(i + 1) as usize].push((i, 2.0));
        }
        let tree = kmb(&g, &[0, 5, 9]).unwrap();
        assert_eq!(tree.total_weight, 18.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{reached, spanned};
    use super::*;
    use proptest::prelude::*;

    /// Random connected graph: a spanning chain plus random extra edges.
    fn arb_graph() -> impl Strategy<Value = Vec<Vec<(u32, f64)>>> {
        (
            5usize..40,
            proptest::collection::vec((0usize..40, 0usize..40, 0.5..10.0f64), 0..80),
        )
            .prop_map(|(n, extra)| {
                let mut g = vec![Vec::new(); n];
                let add = |g: &mut Vec<Vec<(u32, f64)>>, a: usize, b: usize, w: f64| {
                    if a != b && !g[a].iter().any(|&(x, _)| x == b as u32) {
                        g[a].push((b as u32, w));
                        g[b].push((a as u32, w));
                    }
                };
                for i in 1..n {
                    add(&mut g, i - 1, i, 1.0);
                }
                for (a, b, w) in extra {
                    add(&mut g, a % n, b % n, w);
                }
                g
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn kmb_tree_spans_terminals_acyclically(
            graph in arb_graph(),
            picks in proptest::collection::vec(0usize..40, 2..8),
        ) {
            let n = graph.len();
            let terminals: Vec<u32> = picks.iter().map(|&p| (p % n) as u32).collect();
            let tree = kmb(&graph, &terminals).expect("graph is connected");
            // Tree shape: |E| = |V| − 1 (or empty for ≤1 distinct terminal).
            let mut distinct = terminals.clone();
            distinct.sort_unstable();
            distinct.dedup();
            if distinct.len() <= 1 {
                prop_assert!(tree.edges.is_empty());
                return Ok(());
            }
            prop_assert_eq!(tree.edges.len(), spanned(&tree).len() - 1);
            // Every edge exists in the graph.
            for &(u, v) in &tree.edges {
                prop_assert!(graph[u as usize].iter().any(|&(x, _)| x == v));
            }
            // Spans all terminals.
            let reached = reached(&tree, distinct[0], n);
            for &t in &distinct {
                prop_assert!(reached.contains(&t), "terminal {t} missing");
            }
            // 2-approximation bound versus the terminal-MST upper bound:
            // KMB's output never exceeds the MST of shortest-path
            // distances, which is what steps 1–2 compute. Instead of
            // re-deriving it, check the weaker sanity bound: the tree is
            // no heavier than connecting terminals sequentially.
            let mut seq_bound = 0.0;
            for w in distinct.windows(2) {
                let (dist, _) = super::dijkstra(&graph, w[0]);
                seq_bound += dist[w[1] as usize];
            }
            prop_assert!(tree.total_weight <= seq_bound + 1e-9);
        }
    }
}
