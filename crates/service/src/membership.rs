//! Group membership as the session engine replicates it: seq-ordered
//! join/leave updates applied to one [`MembershipSet`] per group.

use std::collections::BTreeMap;

use gmp_net::NodeId;

/// Identifier of a multicast group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(pub u32);

impl std::fmt::Display for GroupId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// Whether a member is joining or leaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipAction {
    /// The node wants multicast packets for the group.
    Join,
    /// The node no longer wants them.
    Leave,
}

/// One membership update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MembershipUpdate {
    /// The group concerned.
    pub group: GroupId,
    /// The member.
    pub node: NodeId,
    /// Join or leave.
    pub action: MembershipAction,
    /// Per-member sequence number; [`MembershipSet::apply`] rejects
    /// non-increasing sequence numbers, so duplicated or reordered
    /// updates are harmless.
    pub seq: u64,
}

#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct MemberRecord {
    present: bool,
    last_seq: u64,
}

/// One group's membership, replicated purely from seq-ordered
/// [`MembershipUpdate`]s.
///
/// This is the convergence anchor the live churn stream leans on: each
/// member's updates carry strictly increasing sequence numbers, an update
/// is accepted only when its `seq` exceeds the member's last accepted one,
/// and so the final state of every member is the action of its
/// highest-numbered update — *regardless of delivery order*, and with
/// stale or duplicated deliveries rejected as no-ops. Any interleaving of
/// the same updates converges to the same set (pinned by the
/// `membership_convergence` proptest).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct MembershipSet {
    records: BTreeMap<NodeId, MemberRecord>,
}

impl MembershipSet {
    /// An empty membership set.
    pub fn new() -> Self {
        MembershipSet::default()
    }

    /// Applies one update; returns `true` if it was fresh (accepted),
    /// `false` for a stale or duplicate delivery (state unchanged).
    ///
    /// `seq = 0` is reserved as "never seen": member streams must number
    /// their updates from 1.
    pub fn apply(&mut self, node: NodeId, action: MembershipAction, seq: u64) -> bool {
        let record = self.records.entry(node).or_default();
        if seq <= record.last_seq && record.last_seq != 0 {
            return false; // stale or duplicate
        }
        record.last_seq = seq;
        record.present = matches!(action, MembershipAction::Join);
        true
    }

    /// `true` if `node` is currently a member.
    pub fn contains(&self, node: NodeId) -> bool {
        self.records.get(&node).is_some_and(|r| r.present)
    }

    /// Number of current members.
    pub fn len(&self) -> usize {
        self.records.values().filter(|r| r.present).count()
    }

    /// `true` when no node is currently a member.
    pub fn is_empty(&self) -> bool {
        !self.records.values().any(|r| r.present)
    }

    /// Appends the current members to `out` in ascending id order
    /// (allocation-free when `out` has capacity).
    pub fn members_into(&self, out: &mut Vec<NodeId>) {
        out.extend(
            self.records
                .iter()
                .filter(|(_, r)| r.present)
                .map(|(&n, _)| n),
        );
    }

    /// The current members, sorted ascending.
    pub fn members(&self) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.members_into(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn joins_and_leaves_update_membership() {
        let mut set = MembershipSet::new();
        assert!(set.apply(NodeId(5), MembershipAction::Join, 1));
        assert!(set.apply(NodeId(9), MembershipAction::Join, 1));
        assert_eq!(set.members(), vec![NodeId(5), NodeId(9)]);
        assert!(set.apply(NodeId(5), MembershipAction::Leave, 2));
        assert_eq!(set.members(), vec![NodeId(9)]);
    }

    #[test]
    fn stale_and_duplicate_updates_are_rejected() {
        let mut set = MembershipSet::new();
        assert!(set.apply(NodeId(7), MembershipAction::Join, 5));
        // Duplicate (same seq) rejected.
        assert!(!set.apply(NodeId(7), MembershipAction::Join, 5));
        // Stale leave (lower seq) rejected: node stays a member.
        assert!(!set.apply(NodeId(7), MembershipAction::Leave, 3));
        assert_eq!(set.members(), vec![NodeId(7)]);
    }
}
