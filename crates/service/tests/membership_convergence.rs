//! Order-independence of membership replication: any interleaving of
//! seq-ordered [`MembershipUpdate`]s — including stale and duplicated
//! deliveries — converges to the same membership set.
//!
//! This is the invariant the concurrent session engine's live churn
//! stream leans on: sessions snapshot group membership at arbitrary
//! points of a delivery schedule the engine does not control, and the
//! snapshot may only depend on *which* updates have been delivered, never
//! on the order or multiplicity of their delivery.

use gmp_net::NodeId;
use gmp_service::{MembershipAction, MembershipSet};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// One member's update stream: strictly increasing seq numbers from 1,
/// alternating or repeating actions freely.
fn member_stream(node: u32, actions: &[bool]) -> Vec<(NodeId, MembershipAction, u64)> {
    actions
        .iter()
        .enumerate()
        .map(|(i, &join)| {
            let action = if join {
                MembershipAction::Join
            } else {
                MembershipAction::Leave
            };
            (NodeId(node), action, i as u64 + 1)
        })
        .collect()
}

/// Ground truth: a member is present iff its highest-seq update is a Join.
fn ground_truth(streams: &[Vec<(NodeId, MembershipAction, u64)>]) -> Vec<NodeId> {
    let mut members: Vec<NodeId> = streams
        .iter()
        .filter_map(|s| s.last())
        .filter(|(_, action, _)| matches!(action, MembershipAction::Join))
        .map(|&(node, _, _)| node)
        .collect();
    members.sort();
    members
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_interleaving_converges_to_the_same_set(
        // Per-member action streams: up to 12 members, up to 6 updates
        // each (true = Join, false = Leave).
        actions in proptest::collection::vec(
            proptest::collection::vec(prop_bool::ANY, 0..6),
            1..12,
        ),
        shuffle_seed in 0u64..u64::MAX,
        // How many extra stale/duplicate copies to inject.
        dup_count in 0usize..10,
    ) {
        let streams: Vec<_> = actions
            .iter()
            .enumerate()
            .map(|(i, a)| member_stream(i as u32, a))
            .collect();
        let expect = ground_truth(&streams);

        // Reference delivery: in-order, exactly once.
        let mut reference = MembershipSet::new();
        for stream in &streams {
            for &(node, action, seq) in stream {
                prop_assert!(reference.apply(node, action, seq));
            }
        }
        prop_assert_eq!(reference.members(), expect.clone());

        // Adversarial delivery: all updates shuffled into one arbitrary
        // interleaving, with duplicated copies injected mid-stream (those
        // arrive after the original or after a later update — i.e. stale)
        // and the whole schedule replayed twice.
        let mut rng = StdRng::seed_from_u64(shuffle_seed);
        let mut schedule: Vec<(NodeId, MembershipAction, u64)> =
            streams.iter().flatten().copied().collect();
        schedule.shuffle(&mut rng);
        let flat: Vec<(NodeId, MembershipAction, u64)> = schedule.clone();
        if !flat.is_empty() {
            for _ in 0..dup_count {
                let copy = flat[rng.gen_range(0..flat.len())];
                let at = rng.gen_range(0..=schedule.len());
                schedule.insert(at, copy);
            }
        }

        let mut adversarial = MembershipSet::new();
        for pass in 0..2 {
            for &(node, action, seq) in &schedule {
                let _ = adversarial.apply(node, action, seq);
            }
            prop_assert_eq!(
                adversarial.members(),
                expect.clone(),
                "pass {} diverged from in-order delivery",
                pass
            );
        }
        prop_assert_eq!(adversarial.len(), expect.len());
        for &m in &expect {
            prop_assert!(adversarial.contains(m));
        }
    }
}

/// A duplicated *first* delivery is accepted at most once even though the
/// interleaving may place the copies back to back (the `last_seq != 0`
/// reservation).
#[test]
fn duplicate_first_update_is_rejected() {
    let mut set = MembershipSet::new();
    assert!(set.apply(NodeId(3), MembershipAction::Join, 1));
    assert!(!set.apply(NodeId(3), MembershipAction::Join, 1));
    assert!(!set.apply(NodeId(3), MembershipAction::Leave, 1));
    assert_eq!(set.members(), vec![NodeId(3)]);
    assert!(!set.is_empty());
}

/// Stale deliveries arriving after a newer update are no-ops.
#[test]
fn stale_delivery_after_newer_update_is_a_noop() {
    let mut set = MembershipSet::new();
    assert!(set.apply(NodeId(7), MembershipAction::Join, 2));
    assert!(!set.apply(NodeId(7), MembershipAction::Leave, 1));
    assert!(set.contains(NodeId(7)));
    assert!(set.apply(NodeId(7), MembershipAction::Leave, 3));
    assert!(!set.contains(NodeId(7)));
    assert_eq!(set.len(), 0);
}
