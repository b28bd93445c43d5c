//! Multicast packets and their wire encoding.
//!
//! In geographic multicast the packet itself carries the routing state:
//! the list of remaining destination *locations* (the location is the
//! address — Section 2), plus per-protocol state such as GPSR perimeter
//! bookkeeping, LGS's current subtree-root target, or the SMT baseline's
//! embedded source-routing tree.
//!
//! The wire encoding exists so the header-overhead ablation can charge
//! airtime by real packet size instead of the paper's fixed 128 B.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use gmp_geom::Point;
use gmp_net::traversal::{Crossing, FacePhase};
use gmp_net::{FaceDir, FaceWalk, NodeId, PerimeterState};

/// Per-protocol routing state carried inside a packet.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum RoutingState {
    /// Plain multicast forwarding; the receiving node re-derives
    /// everything from the destination list (GMP, PBM greedy phase).
    #[default]
    Greedy,
    /// GPSR-style perimeter mode (the paper's PERIMODE flag plus the
    /// associated face-routing state).
    Perimeter(PerimeterState),
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
        walk: Option<FaceWalk>,
    },
}

/// Destination lists of at most this many ids are held inline in the
/// packet. Most copies a GMP forwarder splits off carry a handful of
/// destinations, so they cost no allocation; longer lists are shared.
const INLINE_DESTS: usize = 6;

/// The destination list of a packet.
///
/// A short list (up to [`INLINE_DESTS`] ids) lives inline, so building a
/// copy for a small group or cloning one copies a few bytes and
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

    /// Serializes the packet, including each destination's location
    /// (16 bytes) since locations are addresses.
    pub fn encode(&self, positions: &[Point]) -> Bytes {
        let mut b = BytesMut::with_capacity(64 + 20 * self.dests.len());
        b.put_u8(b'G');
        b.put_u8(1); // version
        b.put_u64(self.seq);
        b.put_u32(self.origin.0);
        b.put_u32(self.hops);
        match &self.state {
            RoutingState::Greedy => b.put_u8(0),
            RoutingState::Perimeter(p) => {
                b.put_u8(1);
                put_point(&mut b, p.dest);
                put_point(&mut b, p.entry);
                put_point(&mut b, p.face_entry);
                match p.first_edge {
                    Some((a, c)) => {
                        b.put_u8(1);
                        b.put_u32(a.0);
                        b.put_u32(c.0);
                    }
                    None => b.put_u8(0),
                }
                match p.prev {
                    Some(n) => {
                        b.put_u8(1);
                        b.put_u32(n.0);
                    }
                    None => b.put_u8(0),
                }
            }
            RoutingState::UnicastLeg { target } => {
                b.put_u8(2);
                b.put_u32(target.0);
            }
            RoutingState::Face { dir, walk } => {
                b.put_u8(4);
                b.put_u8(match dir {
                    FaceDir::Ccw => 0,
                    FaceDir::Cw => 1,
                });
                match walk {
                    None => b.put_u8(0),
                    Some(w) => {
                        b.put_u8(1);
                        b.put_f64(w.start_dist);
                        put_point(&mut b, w.anchor);
                        b.put_u8(match w.phase {
                            FacePhase::Scan => 0,
                            FacePhase::Seek => 1,
                        });
                        b.put_u32(w.first.0 .0);
                        b.put_u32(w.first.1 .0);
                        b.put_u32(w.prev.0);
                        match w.best {
                            None => b.put_u8(0),
                            Some(c) => {
                                b.put_u8(1);
                                b.put_u32(c.edge.0 .0);
                                b.put_u32(c.edge.1 .0);
                                put_point(&mut b, c.at);
                            }
                        }
                    }
                }
            }
            RoutingState::SourceTree(tree) => {
                b.put_u8(3);
                let mut keys: Vec<_> = tree.keys().copied().collect();
                keys.sort();
                b.put_u16(keys.len() as u16);
                for k in keys {
                    b.put_u32(k.0);
                    let children = &tree[&k];
                    b.put_u8(children.len() as u8);
                    for c in children {
                        b.put_u32(c.0);
                    }
                }
            }
        }
        b.put_u16(self.dests.len() as u16);
        for d in &self.dests {
            b.put_u32(d.0);
            put_point(&mut b, positions[d.index()]);
        }
        b.freeze()
    }

    /// The encoded size in bytes — what the size-dependent airtime
    /// ablation charges for.
    pub fn encoded_len(&self, positions: &[Point]) -> usize {
        self.encode(positions).len()
    }

    /// Deserializes a packet previously produced by [`encode`].
    ///
    /// # Errors
    ///
    /// Returns a descriptive error string on malformed input.
    ///
    /// [`encode`]: MulticastPacket::encode
    pub fn decode(mut buf: Bytes) -> Result<Self, String> {
        let need = |buf: &Bytes, n: usize| -> Result<(), String> {
            if buf.remaining() < n {
                Err(format!("truncated packet: need {n} more bytes"))
            } else {
                Ok(())
            }
        };
        need(&buf, 18)?;
        if buf.get_u8() != b'G' {
            return Err("bad magic".into());
        }
        if buf.get_u8() != 1 {
            return Err("unsupported version".into());
        }
        let seq = buf.get_u64();
        let origin = NodeId(buf.get_u32());
        let hops = buf.get_u32();
        need(&buf, 1)?;
        let state = match buf.get_u8() {
            0 => RoutingState::Greedy,
            1 => {
                need(&buf, 48 + 2)?;
                let dest = get_point(&mut buf);
                let entry = get_point(&mut buf);
                let face_entry = get_point(&mut buf);
                let first_edge = if buf.get_u8() == 1 {
                    need(&buf, 8)?;
                    Some((NodeId(buf.get_u32()), NodeId(buf.get_u32())))
                } else {
                    None
                };
                need(&buf, 1)?;
                let prev = if buf.get_u8() == 1 {
                    need(&buf, 4)?;
                    Some(NodeId(buf.get_u32()))
                } else {
                    None
                };
                RoutingState::Perimeter(PerimeterState {
                    dest,
                    entry,
                    face_entry,
                    first_edge,
                    prev,
                })
            }
            2 => {
                need(&buf, 4)?;
                RoutingState::UnicastLeg {
                    target: NodeId(buf.get_u32()),
                }
            }
            3 => {
                need(&buf, 2)?;
                let n = buf.get_u16() as usize;
                let mut tree = HashMap::with_capacity(n);
                for _ in 0..n {
                    need(&buf, 5)?;
                    let k = NodeId(buf.get_u32());
                    let c = buf.get_u8() as usize;
                    need(&buf, 4 * c)?;
                    let children = (0..c).map(|_| NodeId(buf.get_u32())).collect();
                    tree.insert(k, children);
                }
                RoutingState::SourceTree(Arc::new(tree))
            }
            4 => {
                need(&buf, 2)?;
                let dir = match buf.get_u8() {
                    0 => FaceDir::Ccw,
                    1 => FaceDir::Cw,
                    d => return Err(format!("unknown face direction {d}")),
                };
                let walk = if buf.get_u8() == 1 {
                    need(&buf, 8 + 16 + 1 + 12 + 1)?;
                    let start_dist = buf.get_f64();
                    let anchor = get_point(&mut buf);
                    let phase = match buf.get_u8() {
                        0 => FacePhase::Scan,
                        1 => FacePhase::Seek,
                        p => return Err(format!("unknown face phase {p}")),
                    };
                    let first = (NodeId(buf.get_u32()), NodeId(buf.get_u32()));
                    let prev = NodeId(buf.get_u32());
                    let best = if buf.get_u8() == 1 {
                        need(&buf, 24)?;
                        let edge = (NodeId(buf.get_u32()), NodeId(buf.get_u32()));
                        let at = get_point(&mut buf);
                        Some(Crossing { edge, at })
                    } else {
                        None
                    };
                    Some(FaceWalk {
                        start_dist,
                        anchor,
                        phase,
                        first,
                        prev,
                        best,
                    })
                } else {
                    None
                };
                RoutingState::Face { dir, walk }
            }
            t => return Err(format!("unknown state tag {t}")),
        };
        need(&buf, 2)?;
        let n = buf.get_u16() as usize;
        let mut dests = Vec::with_capacity(n);
        for _ in 0..n {
            need(&buf, 20)?;
            dests.push(NodeId(buf.get_u32()));
            let _pos = get_point(&mut buf); // locations re-derived from topology
        }
        Ok(MulticastPacket {
            seq,
            origin,
            dests: dests.into(),
            hops,
            state,
        })
    }
}

fn put_point(b: &mut BytesMut, p: Point) {
    b.put_f64(p.x);
    b.put_f64(p.y);
}

fn get_point(b: &mut Bytes) -> Point {
    let x = b.get_f64();
    let y = b.get_f64();
    Point::new(x, y)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn positions() -> Vec<Point> {
        (0..10)
            .map(|i| Point::new(i as f64 * 10.0, i as f64 * 5.0))
            .collect()
    }

    #[test]
    fn greedy_packet_round_trips() {
        let p = MulticastPacket::new(7, NodeId(2), vec![NodeId(3), NodeId(9)]);
        let enc = p.encode(&positions());
        let dec = MulticastPacket::decode(enc).unwrap();
        assert_eq!(dec, p);
    }

    #[test]
    fn perimeter_packet_round_trips() {
        let mut p = MulticastPacket::new(1, NodeId(0), vec![NodeId(5)]);
        p.hops = 12;
        p.state = RoutingState::Perimeter(PerimeterState {
            dest: Point::new(1.0, 2.0),
            entry: Point::new(3.0, 4.0),
            face_entry: Point::new(5.0, 6.0),
            first_edge: Some((NodeId(1), NodeId(2))),
            prev: Some(NodeId(1)),
        });
        let dec = MulticastPacket::decode(p.encode(&positions())).unwrap();
        assert_eq!(dec, p);
        assert!(dec.in_perimeter_mode());
    }

    #[test]
    fn unicast_leg_round_trips() {
        let mut p = MulticastPacket::new(3, NodeId(1), vec![NodeId(4), NodeId(6)]);
        p.state = RoutingState::UnicastLeg { target: NodeId(4) };
        let dec = MulticastPacket::decode(p.encode(&positions())).unwrap();
        assert_eq!(dec, p);
    }

    #[test]
    fn source_tree_round_trips() {
        let mut tree = HashMap::new();
        tree.insert(NodeId(0), vec![NodeId(1), NodeId(2)]);
        tree.insert(NodeId(1), vec![NodeId(3)]);
        tree.insert(NodeId(2), vec![]);
        tree.insert(NodeId(3), vec![]);
        let mut p = MulticastPacket::new(9, NodeId(0), vec![NodeId(3)]);
        p.state = RoutingState::SourceTree(Arc::new(tree));
        let dec = MulticastPacket::decode(p.encode(&positions())).unwrap();
        assert_eq!(dec, p);
    }

    #[test]
    fn face_packet_round_trips() {
        let mut p = MulticastPacket::new(4, NodeId(0), vec![NodeId(8)]);
        // Promoted agent: direction only, no walk.
        p.state = RoutingState::Face {
            dir: FaceDir::Cw,
            walk: None,
        };
        let dec = MulticastPacket::decode(p.encode(&positions())).unwrap();
        assert_eq!(dec, p);
        // Mid-walk agent with a recorded crossing.
        p.state = RoutingState::Face {
            dir: FaceDir::Ccw,
            walk: Some(FaceWalk {
                start_dist: 42.5,
                anchor: Point::new(7.0, 8.0),
                phase: FacePhase::Seek,
                first: (NodeId(2), NodeId(3)),
                prev: NodeId(5),
                best: Some(Crossing {
                    edge: (NodeId(3), NodeId(6)),
                    at: Point::new(9.0, 10.0),
                }),
            }),
        };
        let dec = MulticastPacket::decode(p.encode(&positions())).unwrap();
        assert_eq!(dec, p);
        // Scan phase without a best crossing yet.
        p.state = RoutingState::Face {
            dir: FaceDir::Ccw,
            walk: Some(FaceWalk {
                start_dist: 1.0,
                anchor: Point::new(0.0, 0.0),
                phase: FacePhase::Scan,
                first: (NodeId(0), NodeId(1)),
                prev: NodeId(0),
                best: None,
            }),
        };
        let dec = MulticastPacket::decode(p.encode(&positions())).unwrap();
        assert_eq!(dec, p);
    }

    #[test]
    fn face_packet_survives_mutation_and_truncation() {
        let mut p = MulticastPacket::new(4, NodeId(0), vec![NodeId(8)]);
        p.state = RoutingState::Face {
            dir: FaceDir::Ccw,
            walk: Some(FaceWalk {
                start_dist: 42.5,
                anchor: Point::new(7.0, 8.0),
                phase: FacePhase::Scan,
                first: (NodeId(2), NodeId(3)),
                prev: NodeId(5),
                best: Some(Crossing {
                    edge: (NodeId(3), NodeId(6)),
                    at: Point::new(9.0, 10.0),
                }),
            }),
        };
        let enc = p.encode(&positions());
        for i in 0..enc.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut bytes = enc.to_vec();
                bytes[i] ^= flip;
                let _ = MulticastPacket::decode(Bytes::from(bytes));
            }
        }
        for cut in [19, 21, 30, enc.len() - 1] {
            assert!(
                MulticastPacket::decode(enc.slice(0..cut)).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn dest_lists_compare_by_content_across_the_inline_bound() {
        let ids = |n: usize| (0..n as u32).map(NodeId).collect::<Vec<_>>();
        let pos: Vec<Point> = (0..40).map(|i| Point::new(i as f64, 1.0)).collect();
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

            for dests in [list, shrunk, odd] {
                let p = MulticastPacket::new(3, NodeId(1), dests);
                assert_eq!(MulticastPacket::decode(p.encode(&pos)).unwrap(), p);
            }
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
        let pos = positions();
        let p1 = MulticastPacket::new(1, NodeId(0), vec![NodeId(1)]);
        let p3 = MulticastPacket::new(1, NodeId(0), vec![NodeId(1), NodeId(2), NodeId(3)]);
        assert!(p3.encoded_len(&pos) > p1.encoded_len(&pos));
        // 20 bytes per destination entry.
        assert_eq!(p3.encoded_len(&pos) - p1.encoded_len(&pos), 40);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(MulticastPacket::decode(Bytes::from_static(b"xx")).is_err());
        assert!(MulticastPacket::decode(Bytes::from_static(b"")).is_err());
        let mut junk = BytesMut::new();
        junk.put_u8(b'Q');
        junk.put_slice(&[0u8; 30]);
        assert!(MulticastPacket::decode(junk.freeze()).is_err());
    }

    #[test]
    fn decode_never_panics_on_mutated_packets() {
        // Bit-flip fuzzing: corrupt every byte of a valid encoding in turn
        // and make sure decode returns (Ok or Err) instead of panicking.
        let mut p = MulticastPacket::new(7, NodeId(2), vec![NodeId(3), NodeId(9)]);
        p.state = RoutingState::UnicastLeg { target: NodeId(3) };
        let enc = p.encode(&positions());
        for i in 0..enc.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut bytes = enc.to_vec();
                bytes[i] ^= flip;
                let _ = MulticastPacket::decode(Bytes::from(bytes));
            }
        }
    }

    #[test]
    fn decode_rejects_truncation() {
        let p = MulticastPacket::new(7, NodeId(2), vec![NodeId(3), NodeId(9)]);
        let enc = p.encode(&positions());
        for cut in [3, 10, 19, enc.len() - 1] {
            let truncated = enc.slice(0..cut);
            assert!(
                MulticastPacket::decode(truncated).is_err(),
                "cut at {cut} should fail"
            );
        }
    }
}
