//! Multicast packets and their sizes.
//!
//! In geographic multicast the packet itself carries the routing state:
//! the list of remaining destination *locations* (the location is the
//! address — Section 2), plus per-protocol state such as GPSR perimeter
//! bookkeeping, LGS's current subtree-root target, or the SMT baseline's
//! embedded source-routing tree.
//!
//! [`MulticastPacket::encoded_len`] sizes a packet so the header-overhead
//! ablation can charge airtime by packet size instead of the paper's
//! fixed 128 B.

use std::collections::HashMap;
use std::sync::Arc;

use gmp_net::{FaceDir, FaceWalk, NodeId, PerimeterState};

/// Per-protocol routing state carried inside a packet.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum RoutingState {
    /// Plain multicast forwarding; the receiving node re-derives
    /// everything from the destination list (GMP, PBM greedy phase).
    #[default]
    Greedy,
    /// GPSR-style perimeter mode (the paper's PERIMODE flag plus the
    /// associated face-routing state). Boxed, like the face walk below:
    /// greedy copies, which are nearly all of them, then move a 16-byte
    /// state instead of reserving room for the rare large ones.
    Perimeter(Box<PerimeterState>),
    /// A unicast leg toward a subtree root: intermediate nodes forward
    /// greedily to `target` without re-partitioning (LGS legs, GRD).
    UnicastLeg {
        /// The subtree root (or single destination) this leg is aiming at.
        target: NodeId,
    },
    /// A full source-routed tree: `children[v]` lists where node `v` must
    /// forward copies (the centralized SMT baseline).
    SourceTree(Arc<HashMap<NodeId, Vec<NodeId>>>),
    /// A guaranteed-delivery face agent (MCFR/GVG). `walk` is `Some` while
    /// a FACE-1 traversal is in progress and `None` after promotion back
    /// to greedy; `dir` persists either way so a re-stalled agent resumes
    /// traversal in its lineage direction (bounding MCFR to two agents
    /// per destination).
    Face {
        /// Traversal orientation this agent is committed to.
        dir: FaceDir,
        /// The in-progress FACE-1 walk, if any.
        walk: Option<Box<FaceWalk>>,
    },
}

/// Destination lists of at most this many ids are held inline in the
/// packet. Most copies a GMP forwarder splits off carry a handful of
/// destinations, so they cost no allocation; longer lists are shared.
const INLINE_DESTS: usize = 6;

/// The destination list of a packet.
///
/// A short list (up to six ids, `INLINE_DESTS`) lives inline, so building
/// a copy for a small group or cloning one copies a few bytes and
/// allocates nothing. A longer list is an `Arc<Vec<_>>`: retransmissions
/// and event-queue moves copy packets far more often than anything edits
/// their destinations, so cloning bumps a reference count instead of
/// copying ids. The only mutation, [`DestList::retain`], edits an inline
/// list in place and a shared one through [`Arc::make_mut`] — in the
/// simulator the packet inside a `Deliver` event is its list's sole
/// owner, so that edit is in place too. Equality compares the ids, never
/// the representation.
#[derive(Clone)]
pub struct DestList(Repr);

#[derive(Clone)]
enum Repr {
    /// `ids[..len]`, with `len <= INLINE_DESTS`.
    Inline {
        len: u8,
        ids: [NodeId; INLINE_DESTS],
    },
    Shared(Arc<Vec<NodeId>>),
}

impl DestList {
    /// Keeps only the destinations satisfying `f`, in place when this is
    /// the sole owner of the list.
    pub fn retain(&mut self, mut f: impl FnMut(&NodeId) -> bool) {
        match &mut self.0 {
            Repr::Inline { len, ids } => {
                let mut kept = 0;
                for i in 0..*len as usize {
                    if f(&ids[i]) {
                        ids[kept] = ids[i];
                        kept += 1;
                    }
                }
                *len = kept as u8;
            }
            Repr::Shared(v) => Arc::make_mut(v).retain(f),
        }
    }

    /// Copies the destinations into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<NodeId> {
        self[..].to_vec()
    }

    /// The inline form of `dests`, if it is short enough.
    fn inline(dests: &[NodeId]) -> Option<Self> {
        let len = dests.len();
        (len <= INLINE_DESTS).then(|| {
            let mut ids = [NodeId(0); INLINE_DESTS];
            ids[..len].copy_from_slice(dests);
            DestList(Repr::Inline {
                len: len as u8,
                ids,
            })
        })
    }
}

impl Default for DestList {
    fn default() -> Self {
        DestList::from(&[][..])
    }
}

impl From<Vec<NodeId>> for DestList {
    fn from(dests: Vec<NodeId>) -> Self {
        DestList::inline(&dests).unwrap_or_else(|| DestList(Repr::Shared(Arc::new(dests))))
    }
}

impl From<&[NodeId]> for DestList {
    fn from(dests: &[NodeId]) -> Self {
        DestList::inline(dests).unwrap_or_else(|| DestList(Repr::Shared(Arc::new(dests.to_vec()))))
    }
}

impl std::ops::Deref for DestList {
    type Target = [NodeId];
    fn deref(&self) -> &[NodeId] {
        match &self.0 {
            Repr::Inline { len, ids } => &ids[..*len as usize],
            Repr::Shared(v) => v,
        }
    }
}

impl std::fmt::Debug for DestList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("DestList").field(&&self[..]).finish()
    }
}

impl PartialEq for DestList {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl PartialEq<Vec<NodeId>> for DestList {
    fn eq(&self, other: &Vec<NodeId>) -> bool {
        self[..] == other[..]
    }
}

impl<'a> IntoIterator for &'a DestList {
    type Item = &'a NodeId;
    type IntoIter = std::slice::Iter<'a, NodeId>;
    fn into_iter(self) -> Self::IntoIter {
        self[..].iter()
    }
}

/// A multicast data packet.
#[derive(Debug, Clone, PartialEq)]
pub struct MulticastPacket {
    /// Task-unique sequence number.
    pub seq: u64,
    /// The node that originated the multicast.
    pub origin: NodeId,
    /// Remaining destinations this copy is responsible for.
    pub dests: DestList,
    /// Transmissions this copy has undergone so far.
    pub hops: u32,
    /// Protocol-specific routing state.
    pub state: RoutingState,
}

impl MulticastPacket {
    /// Creates a fresh packet at the origin.
    pub fn new(seq: u64, origin: NodeId, dests: impl Into<DestList>) -> Self {
        MulticastPacket {
            seq,
            origin,
            dests: dests.into(),
            hops: 0,
            state: RoutingState::Greedy,
        }
    }

    /// Returns a copy carrying a subset of the destinations and the given
    /// state — the "copy of the packet per group" operation of GMP/LGS.
    pub fn split(&self, dests: impl Into<DestList>, state: RoutingState) -> Self {
        MulticastPacket {
            seq: self.seq,
            origin: self.origin,
            dests: dests.into(),
            hops: self.hops,
            state,
        }
    }

    /// `true` if the packet is in perimeter mode (the PERIMODE flag).
    pub fn in_perimeter_mode(&self) -> bool {
        matches!(self.state, RoutingState::Perimeter(_))
    }

    /// The packet's size in bytes, as the header-overhead ablation
    /// charges it: an 18-byte header (magic, version, sequence number,
    /// origin and hop count), a one-byte state tag and the state's fields,
    /// then a 2-byte count and, per destination, its id and its 16-byte
    /// location, since locations are addresses.
    pub fn encoded_len(&self) -> usize {
        const HEADER: usize = 18;
        const ID: usize = 4;
        const POINT: usize = 16;
        // An optional field costs a presence byte plus its value.
        let opt = |len: Option<usize>| 1 + len.unwrap_or(0);
        let state = match &self.state {
            RoutingState::Greedy => 0,
            // Target, entry and face-entry points, first edge, predecessor.
            RoutingState::Perimeter(p) => {
                3 * POINT + opt(p.first_edge.map(|_| 2 * ID)) + opt(p.prev.map(|_| ID))
            }
            RoutingState::UnicastLeg { .. } => ID,
            // Direction, then the walk: start distance, anchor, phase,
            // first edge, predecessor and the best crossing (edge, point).
            RoutingState::Face { walk, .. } => {
                1 + opt(walk
                    .as_ref()
                    .map(|w| 8 + POINT + 1 + 3 * ID + opt(w.best.map(|_| 2 * ID + POINT))))
            }
            // A node count, then per node its id, a child count and the
            // children.
            RoutingState::SourceTree(tree) => {
                2 + tree.values().map(|c| ID + 1 + ID * c.len()).sum::<usize>()
            }
        };
        HEADER + 1 + state + 2 + (ID + POINT) * self.dests.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmp_geom::Point;
    use gmp_net::traversal::{Crossing, FacePhase};

    #[test]
    fn dest_lists_compare_by_content_across_the_inline_bound() {
        let ids = |n: usize| (0..n as u32).map(NodeId).collect::<Vec<_>>();
        for len in [0, 1, INLINE_DESTS, INLINE_DESTS + 1, 3 * INLINE_DESTS] {
            let want = ids(len);
            let list = DestList::from(&want[..]);
            assert_eq!(
                matches!(list.0, Repr::Inline { .. }),
                len <= INLINE_DESTS,
                "len {len}"
            );
            assert_eq!(DestList::from(want.clone()), list);
            assert_eq!(list, want);
            assert_eq!(list.to_vec(), want);
            assert_eq!(format!("{list:?}"), format!("DestList({want:?})"));

            // A long shared list retained down to `len` ids stays shared,
            // equals the inline list, and leaves its clones untouched.
            let mut shrunk = DestList::from(ids(len + 2 * INLINE_DESTS));
            let before = shrunk.clone();
            shrunk.retain(|d| d.index() < len);
            assert!(matches!(shrunk.0, Repr::Shared(_)));
            assert_eq!(shrunk, list);
            assert_eq!(before, ids(len + 2 * INLINE_DESTS));

            let mut odd = list.clone();
            odd.retain(|d| d.0 % 2 == 1);
            let want_odd: Vec<NodeId> = want.iter().copied().filter(|d| d.0 % 2 == 1).collect();
            assert_eq!(odd, want_odd);
            assert_eq!(list, want, "retain on a clone leaves the original");
        }
    }

    #[test]
    fn split_preserves_identity_and_hops() {
        let mut p = MulticastPacket::new(5, NodeId(0), vec![NodeId(1), NodeId(2), NodeId(3)]);
        p.hops = 4;
        let child = p.split(vec![NodeId(2)], RoutingState::Greedy);
        assert_eq!(child.seq, 5);
        assert_eq!(child.origin, NodeId(0));
        assert_eq!(child.hops, 4);
        assert_eq!(child.dests, vec![NodeId(2)]);
    }

    #[test]
    fn encoded_len_grows_with_destinations() {
        let p1 = MulticastPacket::new(1, NodeId(0), vec![NodeId(1)]);
        let p3 = MulticastPacket::new(1, NodeId(0), vec![NodeId(1), NodeId(2), NodeId(3)]);
        assert!(p3.encoded_len() > p1.encoded_len());
        // 20 bytes per destination entry.
        assert_eq!(p3.encoded_len() - p1.encoded_len(), 40);
    }

    /// The size the overhead ablation charges for each routing-state
    /// shape: an 18-byte header, a state tag and the state's fields, then a
    /// 2-byte count and 20 bytes (id and location) per destination.
    #[test]
    fn encoded_len_pins_every_state_shape() {
        let size = |p: &MulticastPacket| p.encoded_len();
        let perimeter = |first_edge, prev| {
            RoutingState::Perimeter(Box::new(PerimeterState {
                dest: Point::new(1.0, 2.0),
                entry: Point::new(3.0, 4.0),
                face_entry: Point::new(5.0, 6.0),
                first_edge,
                prev,
            }))
        };
        let walk = |phase, best| {
            Box::new(FaceWalk {
                start_dist: 42.5,
                anchor: Point::new(7.0, 8.0),
                phase,
                first: (NodeId(2), NodeId(3)),
                prev: NodeId(5),
                best,
            })
        };
        let mut tree = HashMap::new();
        tree.insert(NodeId(0), vec![NodeId(1), NodeId(2)]);
        tree.insert(NodeId(1), vec![NodeId(3)]);
        tree.insert(NodeId(2), vec![]);
        tree.insert(NodeId(3), vec![]);
        let best = Crossing {
            edge: (NodeId(3), NodeId(6)),
            at: Point::new(9.0, 10.0),
        };
        let cases = [
            (RoutingState::Greedy, 2, 61),
            (
                perimeter(Some((NodeId(1), NodeId(2))), Some(NodeId(1))),
                1,
                103,
            ),
            (perimeter(None, None), 1, 91),
            (RoutingState::UnicastLeg { target: NodeId(4) }, 2, 65),
            (RoutingState::SourceTree(Arc::new(tree)), 1, 75),
            (
                RoutingState::Face {
                    dir: FaceDir::Cw,
                    walk: None,
                },
                1,
                43,
            ),
            (
                RoutingState::Face {
                    dir: FaceDir::Ccw,
                    walk: Some(walk(FacePhase::Scan, None)),
                },
                1,
                81,
            ),
            (
                RoutingState::Face {
                    dir: FaceDir::Ccw,
                    walk: Some(walk(FacePhase::Seek, Some(best))),
                },
                1,
                105,
            ),
        ];
        for (state, dests, bytes) in cases {
            let mut p =
                MulticastPacket::new(9, NodeId(0), (1..=dests).map(NodeId).collect::<Vec<_>>());
            p.hops = 12;
            p.state = state;
            assert_eq!(size(&p), bytes, "{:?}", p.state);
        }
    }
}
