//! Multicast tasks: the workload unit of the paper's evaluation.
//!
//! "For each task, we randomly pick a node as the source node and randomly
//! pick k nodes as the destination nodes" (Section 5).

use gmp_net::{NodeId, Topology};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// One multicast routing task: a source and `k` destinations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MulticastTask {
    /// The originating node.
    pub source: NodeId,
    /// The destination set (distinct, never containing the source).
    pub dests: Vec<NodeId>,
}

impl MulticastTask {
    /// Creates a task after validating it.
    ///
    /// # Panics
    ///
    /// Panics if `dests` contains duplicates or the source.
    pub fn new(source: NodeId, dests: Vec<NodeId>) -> Self {
        let mut sorted = dests.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), dests.len(), "duplicate destinations");
        assert!(!dests.contains(&source), "source cannot be a destination");
        MulticastTask { source, dests }
    }

    /// Draws a random task over `topo` with `k` destinations, seeded.
    ///
    /// # Panics
    ///
    /// Panics if the topology has fewer than `k + 1` nodes.
    pub fn random(topo: &Topology, k: usize, seed: u64) -> Self {
        assert!(topo.len() > k, "need at least k+1 nodes");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ids: Vec<NodeId> = (0..topo.len() as u32).map(NodeId).collect();
        ids.shuffle(&mut rng);
        let source = ids[0];
        let dests = ids[1..=k].to_vec();
        MulticastTask { source, dests }
    }

    /// Number of destinations (`k`).
    pub fn k(&self) -> usize {
        self.dests.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmp_net::TopologyConfig;

    #[test]
    fn random_task_has_distinct_members() {
        let topo = Topology::random(&TopologyConfig::new(300.0, 50, 100.0), 1);
        for seed in 0..20 {
            let t = MulticastTask::random(&topo, 12, seed);
            assert_eq!(t.k(), 12);
            let mut d = t.dests.clone();
            d.sort();
            d.dedup();
            assert_eq!(d.len(), 12);
            assert!(!t.dests.contains(&t.source));
        }
    }

    #[test]
    fn random_task_is_seed_deterministic() {
        let topo = Topology::random(&TopologyConfig::new(300.0, 50, 100.0), 1);
        assert_eq!(
            MulticastTask::random(&topo, 5, 99),
            MulticastTask::random(&topo, 5, 99)
        );
        assert_ne!(
            MulticastTask::random(&topo, 5, 99),
            MulticastTask::random(&topo, 5, 100)
        );
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_destinations_panic() {
        MulticastTask::new(NodeId(0), vec![NodeId(1), NodeId(1)]);
    }

    #[test]
    #[should_panic(expected = "source")]
    fn source_as_destination_panics() {
        MulticastTask::new(NodeId(0), vec![NodeId(0)]);
    }

    #[test]
    #[should_panic(expected = "k+1")]
    fn oversized_k_panics() {
        let topo = Topology::random(&TopologyConfig::new(100.0, 5, 50.0), 1);
        MulticastTask::random(&topo, 5, 0);
    }
}
