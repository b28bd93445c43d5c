//! Input-boundary fuzzing: the two ways data enters the simulator from
//! outside the process — scenario files and wire packets — must answer
//! any input with `Ok` or a typed `Err`, never a panic, and valid values
//! must round-trip exactly.
//!
//! Scenario `fault` lines are where a `FaultPlan` enters from outside, and
//! the compiled-plan cache recognises a plan by value, so a reloaded plan
//! must compare equal to the one that was saved.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use gmp_geom::{Aabb, Point};
use gmp_net::traversal::{Crossing, FacePhase};
use gmp_net::{FaceDir, FaceWalk, NodeId, PerimeterState};
use gmp_sim::{FaultPlan, FaultRegion, MulticastPacket, MulticastTask, RoutingState, Scenario};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Any finite `f64`: every exponent, subnormals and signed zeros
/// included, so round trips are checked bit for bit.
fn finite(rng: &mut StdRng) -> f64 {
    loop {
        let v = f64::from_bits(rng.gen());
        if v.is_finite() {
            return v;
        }
    }
}

fn point(rng: &mut StdRng) -> Point {
    Point::new(finite(rng), finite(rng))
}

/// Nodes the packet tests address; destinations index into these.
fn positions() -> Vec<Point> {
    (0..16)
        .map(|i| Point::new(i as f64 * 10.0, i as f64 * 5.0))
        .collect()
}

/// A random valid packet: every routing state, any finite coordinates,
/// and list lengths inside the wire format's counters.
fn arbitrary_packet(seed: u64, node_count: usize) -> MulticastPacket {
    let mut rng = StdRng::seed_from_u64(seed);
    let rng = &mut rng;
    let node = |rng: &mut StdRng| NodeId(rng.gen());
    let dests: Vec<NodeId> = (0..rng.gen_range(0..12usize))
        .map(|_| NodeId(rng.gen_range(0..node_count as u32)))
        .collect();
    let mut p = MulticastPacket::new(rng.gen(), node(rng), dests);
    p.hops = rng.gen();
    p.state = match rng.gen_range(0..6u8) {
        0 => RoutingState::Greedy,
        1 => RoutingState::Perimeter(PerimeterState {
            dest: point(rng),
            entry: point(rng),
            face_entry: point(rng),
            first_edge: rng.gen_bool(0.5).then(|| (node(rng), node(rng))),
            prev: rng.gen_bool(0.5).then(|| node(rng)),
        }),
        2 => RoutingState::UnicastLeg { target: node(rng) },
        3 => {
            let tree: HashMap<NodeId, Vec<NodeId>> = (0..rng.gen_range(0..8usize))
                .map(|_| {
                    let children = (0..rng.gen_range(0..6usize)).map(|_| node(rng)).collect();
                    (node(rng), children)
                })
                .collect();
            RoutingState::SourceTree(Arc::new(tree))
        }
        4 => RoutingState::Face {
            dir: if rng.gen_bool(0.5) {
                FaceDir::Ccw
            } else {
                FaceDir::Cw
            },
            walk: None,
        },
        _ => RoutingState::Face {
            dir: FaceDir::Cw,
            walk: Some(FaceWalk {
                start_dist: finite(rng),
                anchor: point(rng),
                phase: if rng.gen_bool(0.5) {
                    FacePhase::Scan
                } else {
                    FacePhase::Seek
                },
                first: (node(rng), node(rng)),
                prev: node(rng),
                best: rng.gen_bool(0.5).then(|| Crossing {
                    edge: (node(rng), node(rng)),
                    at: point(rng),
                }),
            }),
        },
    };
    p
}

/// A random valid scenario: finite coordinates of any magnitude, tasks
/// with distinct non-source destinations, and a fault plan using every
/// kind of `fault` line.
fn arbitrary_scenario(seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let rng = &mut rng;
    let n = rng.gen_range(1..20u32);
    let area = Aabb::new(point(rng), point(rng));
    let radio_range = finite(rng).abs().max(f64::MIN_POSITIVE);
    let positions = (0..n).map(|_| point(rng)).collect();
    let tasks = if n < 2 {
        Vec::new()
    } else {
        (0..rng.gen_range(0..4usize))
            .map(|_| {
                let source = NodeId(rng.gen_range(0..n));
                let mut dests: Vec<NodeId> = (0..n).map(NodeId).filter(|&d| d != source).collect();
                dests.shuffle(rng);
                dests.truncate(rng.gen_range(1..n as usize));
                MulticastTask::new(source, dests)
            })
            .collect()
    };

    let mut faults = FaultPlan::none();
    if rng.gen_bool(0.5) {
        faults = faults
            .with_node_failure_prob(rng.gen())
            .with_link_loss_prob(rng.gen());
    }
    for _ in 0..rng.gen_range(0..6usize) {
        let start_s = rng.gen_range(0.0..1e4);
        let end_s = start_s + rng.gen_range(1e-3..1e4);
        let open_end = if rng.gen_bool(0.3) {
            f64::INFINITY
        } else {
            end_s
        };
        faults = match rng.gen_range(0..5u8) {
            0 => faults.with_crash(NodeId(rng.gen()), start_s),
            1 => faults.with_blackout(
                FaultRegion::Disk {
                    center: point(rng),
                    radius: finite(rng).abs(),
                },
                start_s,
                open_end,
            ),
            2 => faults.with_blackout(
                FaultRegion::Rect {
                    min: point(rng),
                    max: point(rng),
                },
                start_s,
                open_end,
            ),
            3 => faults.with_duty_cycle(
                rng.gen_range(1e-3..1e3),
                rng.gen_range(f64::MIN_POSITIVE..=1.0),
            ),
            _ => {
                let speed = rng.gen_range(1e-3..50.0);
                let pause = rng.gen_range(0.0..10.0);
                let walk_speed = (speed, speed + rng.gen_range(0.0..50.0));
                let walk_pause = (pause, pause + rng.gen_range(0.0..10.0));
                faults.with_link_churn(start_s, end_s, walk_speed, walk_pause, rng.gen())
            }
        };
    }
    Scenario {
        area,
        radio_range,
        positions,
        tasks,
        faults,
    }
}

/// Line heads the scenario grammar knows, down to the fault kind and
/// blackout shape, with their argument counts, so inserted lines get past
/// the keyword and the arity check into the value checks that guard the
/// `FaultPlan` builders' assertions.
const HEADS: [(&str, usize); 11] = [
    ("area", 4),
    ("radio_range", 1),
    ("node", 3),
    ("task", 3),
    ("fault bernoulli", 2),
    ("fault crash", 2),
    ("fault blackout disk", 5),
    ("fault blackout rect", 6),
    ("fault duty", 2),
    ("fault churn", 7),
    ("fault", 1),
];

/// Arguments: mostly numbers, valid and boundary (`1e309` and `inf`
/// parse as infinity, `NaN` is refused), plus junk.
const ARGS: [&str; 16] = [
    "0",
    "1",
    "7",
    "-1",
    "0.5",
    "-0",
    "1e308",
    "1e309",
    "5e-324",
    "inf",
    "-inf",
    "NaN",
    "4294967296",
    "18446744073709551616",
    "x",
    "\u{feff}",
];

/// One random edit of a scenario's lines: add a grammar-shaped line
/// (appended half the time, so the valid lines before it parse first),
/// swap one word, drop a line, insert arbitrary characters, or cut a
/// line short.
fn mutate(lines: &mut Vec<String>, rng: &mut StdRng) {
    let at = rng.gen_range(0..=lines.len());
    let arg = |rng: &mut StdRng| ARGS[rng.gen_range(0..ARGS.len())];
    match rng.gen_range(0..5u8) {
        0 => {
            let (head, arity) = HEADS[rng.gen_range(0..HEADS.len())];
            let mut line = head.to_string();
            let args = if rng.gen_bool(0.7) {
                arity
            } else {
                rng.gen_range(0..9)
            };
            for _ in 0..args {
                line.push(' ');
                line.push_str(arg(rng));
            }
            let at = if rng.gen_bool(0.5) { lines.len() } else { at };
            lines.insert(at, line);
        }
        1 if at < lines.len() => {
            let mut words: Vec<&str> = lines[at].split_whitespace().collect();
            if !words.is_empty() {
                let i = rng.gen_range(0..words.len());
                words[i] = arg(rng);
            }
            lines[at] = words.join(" ");
        }
        2 if at < lines.len() => {
            lines.remove(at);
        }
        3 => {
            let junk: String = (0..rng.gen_range(0..40usize))
                .filter_map(|_| char::from_u32(rng.gen_range(0..0x11_0000u32)))
                .collect();
            lines.insert(at, junk);
        }
        _ if at < lines.len() => {
            let cut = rng.gen_range(0..=lines[at].len());
            let cut = (0..=cut)
                .rev()
                .find(|&c| lines[at].is_char_boundary(c))
                .unwrap_or(0);
            lines[at].truncate(cut);
        }
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn decode_never_panics_on_arbitrary_bytes(
        mut bytes in proptest::collection::vec(0u8..=255, 0..200),
        framed in proptest::bool::ANY,
        tag in 0u8..6,
    ) {
        // Half the inputs carry the magic, version and a state tag, so the
        // fuzz gets past the header into every state decoder and the
        // destination list.
        if framed && bytes.len() > 18 {
            bytes[0] = b'G';
            bytes[1] = 1;
            bytes[18] = tag;
        }
        let _ = MulticastPacket::decode(Bytes::from(bytes));
    }

    #[test]
    fn valid_packets_round_trip_and_corruption_never_panics(
        seed in 0u64..u64::MAX,
        flip_at in 0usize..1024,
        flip in 1u8..=255,
        cut in 0usize..1024,
    ) {
        let positions = positions();
        let packet = arbitrary_packet(seed, positions.len());
        let wire = packet.encode(&positions);
        prop_assert_eq!(wire.len(), packet.encoded_len(&positions));
        prop_assert_eq!(MulticastPacket::decode(wire.clone()), Ok(packet));

        let mut corrupt = wire.to_vec();
        let len = corrupt.len();
        corrupt[flip_at % len] ^= flip;
        corrupt.truncate(cut % (len + 1));
        let _ = MulticastPacket::decode(Bytes::from(corrupt));
        prop_assert!(MulticastPacket::decode(wire.slice(0..cut % len)).is_err());
    }

    #[test]
    fn valid_scenarios_round_trip(seed in 0u64..u64::MAX) {
        let scenario = arbitrary_scenario(seed);
        prop_assert_eq!(Scenario::from_text(&scenario.to_text()), Ok(scenario));
    }

    #[test]
    fn from_text_never_panics_on_mutated_scenarios(
        seed in 0u64..u64::MAX,
        edits in 1usize..4,
        crlf in proptest::bool::ANY,
    ) {
        // Edits draw from their own stream, not the scenario's.
        let mut rng = StdRng::seed_from_u64(!seed);
        let text = arbitrary_scenario(seed).to_text();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        for _ in 0..edits {
            mutate(&mut lines, &mut rng);
        }
        let text = lines.join(if crlf { "\r\n" } else { "\n" });
        let _ = Scenario::from_text(&text);
    }

    #[test]
    fn from_text_never_panics_on_arbitrary_text(
        chars in proptest::collection::vec(0u32..0x11_0000, 0..300),
    ) {
        let text: String = chars.into_iter().filter_map(char::from_u32).collect();
        let _ = Scenario::from_text(&text);
    }
}
