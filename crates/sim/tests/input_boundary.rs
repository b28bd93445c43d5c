//! Input-boundary fuzzing: scenario files, the way data enters the
//! simulator from outside the process, must answer any input with `Ok` or
//! a typed `Err`, never a panic, and valid scenarios must round-trip
//! exactly.
//!
//! Scenario `fault` lines are where a `FaultPlan` enters from outside, and
//! the compiled-plan cache recognises a plan by value, so a reloaded plan
//! must compare equal to the one that was saved.

use gmp_geom::{Aabb, Point};
use gmp_net::NodeId;
use gmp_sim::{FaultPlan, MulticastTask, Scenario};
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

/// A random valid scenario: finite coordinates of any magnitude, tasks
/// with distinct non-source destinations, and a fault plan using both
/// kinds of `fault` line.
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
        faults = faults.with_crash(NodeId(rng.gen()), rng.gen_range(0.0..1e4));
    }
    Scenario {
        area,
        radio_range,
        positions,
        tasks,
        faults,
    }
}

/// Line heads the scenario grammar knows, down to the fault kind, with
/// their argument counts, so inserted lines get past the keyword and the
/// arity check into the value checks that guard the `FaultPlan` builders'
/// assertions.
const HEADS: [(&str, usize); 7] = [
    ("area", 4),
    ("radio_range", 1),
    ("node", 3),
    ("task", 3),
    ("fault bernoulli", 2),
    ("fault crash", 2),
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
