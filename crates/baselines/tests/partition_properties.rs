//! Property tests shared by all baselines: forwarding decisions must
//! partition the destination set (no destination duplicated or dropped
//! silently except by documented void behaviour), and next hops must be
//! real neighbors.

use gmp_baselines::{GrdRouter, LgsRouter, PbmRouter, SmtRouter};
use gmp_net::{NodeId, Topology};
use gmp_sim::{MulticastPacket, MulticastTask, NodeContext, Protocol, SimConfig};
use proptest::prelude::*;

fn protocols() -> Vec<Box<dyn Protocol>> {
    vec![
        Box::new(PbmRouter::with_lambda(0.0)),
        Box::new(PbmRouter::with_lambda(0.3)),
        Box::new(PbmRouter::with_lambda(0.6)),
        Box::new(LgsRouter::new()),
        Box::new(GrdRouter::new()),
        Box::new(SmtRouter::new()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn source_decisions_partition_the_destinations(
        nodes in 200usize..450,
        seed in 0u64..300,
        k in 2usize..12,
    ) {
        let config = SimConfig::paper().with_node_count(nodes);
        let topo = Topology::random(&config.topology_config(), seed);
        let task = MulticastTask::random(&topo, k, seed + 1);
        let ctx = NodeContext {
            topo: &topo,
            node: task.source,
            config: &config,
            alive: None,
        };
        for mut proto in protocols() {
            let packet = MulticastPacket::new(0, task.source, task.dests.clone());
            let forwards = proto.route(&ctx, packet);
            // Collect all destinations across emitted copies.
            let mut all: Vec<NodeId> = forwards
                .iter()
                .flat_map(|f| f.packet.dests.iter().copied())
                .collect();
            all.sort();
            let n_with_dups = all.len();
            all.dedup();
            prop_assert_eq!(
                all.len(),
                n_with_dups,
                "{} duplicated a destination across copies",
                proto.name()
            );
            // Every routed destination is one of the task's.
            for d in &all {
                prop_assert!(task.dests.contains(d), "{} invented {d}", proto.name());
            }
            // Every next hop is a genuine neighbor of the source.
            for f in &forwards {
                prop_assert!(
                    topo.neighbors(task.source).contains(&f.next_hop),
                    "{} picked a non-neighbor",
                    proto.name()
                );
                prop_assert!(!f.packet.dests.is_empty(), "{} sent an empty copy", proto.name());
            }
        }
    }
}
