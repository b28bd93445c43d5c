//! Failure classification: why a destination was not reached.

use gmp_net::NodeId;

/// Why a multicast destination failed to receive the packet.
///
/// Causes come from two places. The event loop records the *proximate*
/// cause whenever it drops a packet copy (last write wins, so the cause
/// reflects the final copy that was still carrying the destination). The
/// oracle then overrides the proximate cause with a *justified* verdict —
/// [`FailureCause::Disconnected`] or [`FailureCause::DestDead`] — when
/// ground-truth reachability shows no protocol could have delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FailureCause {
    /// Justified: the destination was unreachable from the source in the
    /// faulted connectivity graph — no protocol could have delivered.
    Disconnected,
    /// Justified: the destination node itself was dead (Bernoulli sample
    /// or crash).
    DestDead,
    /// The last copy carrying this destination arrived at a dead relay.
    DeadNode,
    /// The last copy was dropped on a severed link. Nothing records this
    /// cause any more; it keeps its place so that cause histograms and
    /// [`FailureCause::index`] stay as they were.
    LinkDown,
    /// The last copy was lost to the Bernoulli link-loss draw.
    LinkLoss,
    /// The last copy was destroyed by collisions after exhausting its
    /// retransmission budget.
    Collision,
    /// The last copy exceeded the per-copy hop cap (routing loop guard).
    HopCap,
    /// The event cap fired before the destination was resolved; copies may
    /// still have been in flight.
    Truncated,
    /// The protocol stopped forwarding with the destination still pending
    /// (greedy/perimeter dead-end, empty forward set).
    #[default]
    NoRoute,
}

impl FailureCause {
    /// Every cause, in declaration order — for histograms and serializers.
    pub const ALL: [FailureCause; 9] = [
        FailureCause::Disconnected,
        FailureCause::DestDead,
        FailureCause::DeadNode,
        FailureCause::LinkDown,
        FailureCause::LinkLoss,
        FailureCause::Collision,
        FailureCause::HopCap,
        FailureCause::Truncated,
        FailureCause::NoRoute,
    ];

    /// `true` when the failure is excused by the fault model itself: the
    /// destination was dead or graph-unreachable, so *no* protocol could
    /// have delivered. Everything else counts against the protocol.
    pub fn is_justified(self) -> bool {
        matches!(self, FailureCause::Disconnected | FailureCause::DestDead)
    }

    /// Stable kebab-case label used in JSON reports.
    pub fn as_str(self) -> &'static str {
        match self {
            FailureCause::Disconnected => "disconnected",
            FailureCause::DestDead => "dest-dead",
            FailureCause::DeadNode => "dead-node",
            FailureCause::LinkDown => "link-down",
            FailureCause::LinkLoss => "link-loss",
            FailureCause::Collision => "collision",
            FailureCause::HopCap => "hop-cap",
            FailureCause::Truncated => "truncated",
            FailureCause::NoRoute => "no-route",
        }
    }

    /// Index of this cause inside [`FailureCause::ALL`].
    pub fn index(self) -> usize {
        FailureCause::ALL
            .iter()
            .position(|&c| c == self)
            .expect("cause listed in ALL")
    }
}

/// A destination that did not receive the packet, with the cause attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FailedDest {
    /// The undelivered destination.
    pub dest: NodeId,
    /// Why it failed (see [`FailureCause`]).
    pub cause: FailureCause,
}

impl FailedDest {
    /// Bundles a destination with its failure cause.
    pub fn new(dest: NodeId, cause: FailureCause) -> Self {
        FailedDest { dest, cause }
    }

    /// `true` when the fault model excuses this failure.
    pub fn is_justified(&self) -> bool {
        self.cause.is_justified()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn justified_split_matches_spec() {
        for cause in FailureCause::ALL {
            let expect = cause == FailureCause::Disconnected || cause == FailureCause::DestDead;
            assert_eq!(cause.is_justified(), expect, "{cause:?}");
        }
    }

    #[test]
    fn labels_are_unique_and_kebab() {
        let mut seen = std::collections::HashSet::new();
        for cause in FailureCause::ALL {
            let s = cause.as_str();
            assert!(seen.insert(s), "duplicate label {s}");
            assert!(s.chars().all(|c| c.is_ascii_lowercase() || c == '-'));
            assert_eq!(FailureCause::ALL[cause.index()], cause);
        }
    }

    #[test]
    fn default_is_no_route() {
        assert_eq!(FailureCause::default(), FailureCause::NoRoute);
        let f = FailedDest::new(NodeId(3), FailureCause::DestDead);
        assert!(f.is_justified());
        assert!(!FailedDest::new(NodeId(3), FailureCause::HopCap).is_justified());
    }
}
