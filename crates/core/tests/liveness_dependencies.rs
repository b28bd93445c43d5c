//! The decision cache keys liveness by what a decision depends on: an
//! entry computed under one view serves another exactly when that view
//! keeps the entry's chosen next hops alive and its blockers dead (the
//! proof is in `gmp_core::cache`'s module docs).
//!
//! Each case warms a [`TreeCache`] and a [`ConcurrentTreeCache`] with one
//! decision under a view V, then asks both for the same inputs under a
//! view V′. Whether the caches serve or recompute, the answer must equal
//! a direct recompute under V′. Across the cases, some lookups must be
//! served although V′ kills other neighbors than V — an entry serves every
//! view it is valid for — and some must be refused although V′ keeps all
//! of the entry's next hops alive, which only a live blocker can cause.

use gmp_core::{CacheConfig, ConcurrentTreeCache, DecisionScratch, Grouping, TreeCache};
use gmp_net::{NodeId, Topology, TopologyConfig};
use proptest::prelude::*;
use proptest::test_runner::{run_cases, TestRng};

/// A liveness view over `topo` as seen from `node`: `None`, all alive, or
/// each neighbor of `node` killed with probability 0.1, 0.3 or 0.6.
fn draw_view(rng: &mut TestRng, topo: &Topology, node: NodeId) -> Option<Vec<bool>> {
    let p = match (0usize..5).generate(rng) {
        0 => return None,
        1 => return Some(vec![true; topo.len()]),
        2 => 0.1,
        3 => 0.3,
        _ => 0.6,
    };
    let mut alive = vec![true; topo.len()];
    for &n in topo.neighbors(node) {
        alive[n.index()] = rng.unit_f64() >= p;
    }
    Some(alive)
}

/// The neighbors of `node` that `view` kills, in row order.
fn dead_neighbors(topo: &Topology, node: NodeId, view: Option<&[bool]>) -> Vec<NodeId> {
    let Some(alive) = view else {
        return Vec::new();
    };
    topo.neighbors(node)
        .iter()
        .copied()
        .filter(|n| !alive[n.index()])
        .collect()
}

#[test]
fn a_warm_entry_serves_exactly_the_views_it_is_valid_for() {
    let topos: Vec<Topology> = (0..4)
        .map(|seed| Topology::random(&TopologyConfig::new(600.0, 300, 120.0), seed))
        .collect();
    let mut served_other_view = 0u32;
    let mut refused_by_blocker = 0u32;
    run_cases(
        "a_warm_entry_serves_exactly_the_views_it_is_valid_for",
        &ProptestConfig::with_cases(192),
        |rng| {
            let topo = &topos[(0..topos.len()).generate(rng)];
            let node = NodeId((0u32..topo.len() as u32).generate(rng));
            let mut dests: Vec<NodeId> = (0..(1usize..12).generate(rng))
                .map(|_| NodeId((0u32..topo.len() as u32).generate(rng)))
                .filter(|&d| d != node)
                .collect();
            dests.sort();
            dests.dedup();
            prop_assume!(!dests.is_empty());
            let rra = prop_bool::ANY.generate(rng);
            let v = draw_view(rng, topo, node);
            let v2 = draw_view(rng, topo, node);
            let (v, v2) = (v.as_deref(), v2.as_deref());

            let direct = |view: Option<&[bool]>| -> Grouping {
                DecisionScratch::new()
                    .group_destinations_into(topo, node, &dests, rra, None, view)
                    .clone()
            };
            let (warm, expect) = (direct(v), direct(v2));

            let mut scratch = DecisionScratch::new();
            let mut private = TreeCache::with_config(CacheConfig::default());
            let mut private_lookup = |view| {
                let g = private
                    .group_destinations_cached(&mut scratch, topo, node, &dests, rra, None, view)
                    .to_grouping();
                (g, private.stats())
            };
            let (got, _) = private_lookup(v);
            prop_assert_eq!(&got, &warm);
            let (got, stats) = private_lookup(v2);
            prop_assert_eq!(&got, &expect, "private cache under V′");
            let private_hit = stats.hits == 1;

            let shared = ConcurrentTreeCache::with_config(CacheConfig::default());
            let mut shared_lookup = |view| {
                shared
                    .group_destinations_cached(&mut scratch, topo, node, &dests, rra, None, view)
                    .to_grouping()
            };
            prop_assert_eq!(&shared_lookup(v), &warm);
            prop_assert_eq!(&shared_lookup(v2), &expect, "shared cache under V′");
            let stats = shared.stats();
            prop_assert_eq!(stats.hits == 1, private_hit, "the two caches disagree");
            prop_assert_eq!(stats.fallbacks, 0);

            let same_dead = dead_neighbors(topo, node, v) == dead_neighbors(topo, node, v2);
            if same_dead {
                prop_assert!(private_hit, "an entry must serve its own view");
            } else if private_hit {
                served_other_view += 1;
            }
            let hops_alive =
                v2.is_none_or(|alive| warm.covered.iter().all(|g| alive[g.next_hop.index()]));
            if hops_alive && !private_hit {
                refused_by_blocker += 1;
            }
            Ok(())
        },
    );
    assert!(
        served_other_view > 0,
        "no entry served a view killing other neighbors than its own"
    );
    assert!(
        refused_by_blocker > 0,
        "no entry was refused for a live blocker"
    );
}
