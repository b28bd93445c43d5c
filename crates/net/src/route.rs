//! Whole-route unicast drivers over the per-hop perimeter rules: GPSR
//! over [`crate::face`] and greedy-face-greedy over [`crate::traversal`].
//! No protocol routes this way (each one steps hop by hop through the
//! simulator); the two drivers exist so the face-routing tests can walk a
//! route end to end.

use crate::face::{greedy_next_hop, perimeter_next_hop, PerimeterState};
use crate::node::NodeId;
use crate::planar::PlanarKind;
use crate::topology::Topology;
use crate::traversal::{FaceDir, FaceScratch, FaceWalk};

/// Outcome of a full unicast route computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteOutcome {
    /// The destination node was reached; the path includes both endpoints.
    Delivered(Vec<NodeId>),
    /// The hop budget was exhausted.
    HopLimit(Vec<NodeId>),
    /// Perimeter traversal proved the destination unreachable.
    Unreachable(Vec<NodeId>),
}

impl RouteOutcome {
    /// The nodes visited, regardless of outcome.
    pub fn path(&self) -> &[NodeId] {
        match self {
            RouteOutcome::Delivered(p)
            | RouteOutcome::HopLimit(p)
            | RouteOutcome::Unreachable(p) => p,
        }
    }

    /// `true` when the destination was reached.
    pub fn is_delivered(&self) -> bool {
        matches!(self, RouteOutcome::Delivered(_))
    }
}

/// Full GPSR unicast: greedy geographic forwarding with perimeter-mode
/// recovery, from `src` to `dst`, giving up after `max_hops` transmissions.
pub fn gpsr_route(
    topo: &Topology,
    kind: PlanarKind,
    src: NodeId,
    dst: NodeId,
    max_hops: usize,
) -> RouteOutcome {
    let target = topo.pos(dst);
    let mut path = vec![src];
    let mut current = src;
    let mut perimeter: Option<PerimeterState> = None;
    for _ in 0..max_hops {
        if current == dst {
            return RouteOutcome::Delivered(path);
        }
        // Try to resume greedy whenever we have made progress past the
        // perimeter entry point.
        if let Some(state) = perimeter {
            if state.closer_than_entry(topo.pos(current)) {
                perimeter = None;
            }
        }
        let next = if perimeter.is_none() {
            match greedy_next_hop(topo, current, target) {
                Some(n) => n,
                None => {
                    let mut state = PerimeterState::enter(topo.pos(current), target);
                    match perimeter_next_hop(topo, kind, current, &mut state) {
                        Ok(n) => {
                            perimeter = Some(state);
                            n
                        }
                        Err(_) => return RouteOutcome::Unreachable(path),
                    }
                }
            }
        } else {
            match perimeter
                .as_mut()
                .map(|state| perimeter_next_hop(topo, kind, current, state))
            {
                Some(Ok(n)) => n,
                _ => return RouteOutcome::Unreachable(path),
            }
        };
        path.push(next);
        current = next;
    }
    if current == dst {
        RouteOutcome::Delivered(path)
    } else {
        RouteOutcome::HopLimit(path)
    }
}

/// Greedy-face-greedy unicast on the live planar graph: greedy geographic
/// forwarding, FACE-1 recovery at local minima, promotion back to greedy
/// on strict progress past the stall point. Guaranteed to deliver on any
/// connected topology given enough hops.
pub fn gfg_route(
    topo: &Topology,
    kind: PlanarKind,
    dir: FaceDir,
    src: NodeId,
    dst: NodeId,
    max_hops: usize,
) -> RouteOutcome {
    let target = topo.pos(dst);
    let mut scratch = FaceScratch::new();
    let mut path = vec![src];
    let mut current = src;
    let mut walk: Option<FaceWalk> = None;
    for _ in 0..max_hops {
        if current == dst {
            return RouteOutcome::Delivered(path);
        }
        let here = topo.pos(current);
        if let Some(w) = &walk {
            if w.promotes(here, target) {
                walk = None;
            }
        }
        let next = match &mut walk {
            None => match greedy_next_hop(topo, current, target) {
                Some(n) => n,
                None => {
                    match FaceWalk::begin(topo, kind, None, dir, current, target, &mut scratch) {
                        Some((n, w)) => {
                            walk = Some(w);
                            n
                        }
                        None => return RouteOutcome::Unreachable(path),
                    }
                }
            },
            Some(w) => match w.next(topo, kind, None, dir, current, target, &mut scratch) {
                Ok(n) => n,
                Err(_) => return RouteOutcome::Unreachable(path),
            },
        };
        path.push(next);
        current = next;
    }
    if current == dst {
        RouteOutcome::Delivered(path)
    } else {
        RouteOutcome::HopLimit(path)
    }
}
