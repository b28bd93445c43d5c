//! Plain-text scenario files: save and reload a deployment plus its
//! multicast tasks, so experiments can be pinned, shared, and re-run
//! bit-for-bit (the role ns-2 scenario files played for the paper).
//!
//! The format is line-oriented:
//!
//! ```text
//! # gmp scenario v1
//! area 1000 1000
//! radio_range 150
//! node 0 123.456 789.012
//! node 1 …
//! task 5 7 9 23
//! ```
//!
//! `node` lines must appear in id order starting at 0; a `task` line is a
//! source followed by its destinations. Floats use Rust's shortest
//! round-trip formatting, so save → load reproduces coordinates exactly.
//!
//! Fault plans ride along as `fault` lines, one per knob or event:
//!
//! ```text
//! fault bernoulli 0.05 0.01
//! fault crash 7 12.5
//! fault blackout disk 500 500 120 10 inf
//! fault blackout rect 0 0 200 200 5 30
//! fault duty 10 0.8
//! fault churn 0 60 1 5 0 2 42
//! ```
//!
//! Infinite blackout ends serialize as `inf` and round-trip exactly.

use std::fmt::Write as _;
use std::path::Path;

use gmp_faults::{FaultEvent, FaultPlan, FaultRegion};
use gmp_geom::{Aabb, Point};
use gmp_net::{NodeId, Topology};

use crate::task::MulticastTask;

/// A deployment plus workload, as stored in a scenario file.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Deployment area.
    pub area: Aabb,
    /// Radio range, meters.
    pub radio_range: f64,
    /// Node positions, indexed by id.
    pub positions: Vec<Point>,
    /// Multicast tasks.
    pub tasks: Vec<MulticastTask>,
    /// Fault plan applied to every task (empty by default).
    pub faults: FaultPlan,
}

/// Error produced when parsing a scenario file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseScenarioError {
    /// 1-based line number of the offending line (0 for file-level errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "scenario parse error on line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseScenarioError {}

impl Scenario {
    /// Captures a topology and tasks into a scenario.
    ///
    /// # Example
    ///
    /// ```
    /// use gmp_net::{Topology, TopologyConfig};
    /// use gmp_sim::{MulticastTask, Scenario};
    /// let topo = Topology::random(&TopologyConfig::new(400.0, 50, 120.0), 3);
    /// let scenario = Scenario::capture(&topo, vec![MulticastTask::random(&topo, 5, 1)]);
    /// let reloaded = Scenario::from_text(&scenario.to_text()).unwrap();
    /// assert_eq!(reloaded, scenario);
    /// ```
    pub fn capture(topo: &Topology, tasks: Vec<MulticastTask>) -> Self {
        Scenario {
            area: topo.area(),
            radio_range: topo.radio_range(),
            positions: topo.positions(),
            tasks,
            faults: FaultPlan::none(),
        }
    }

    /// Replaces the scenario's fault plan.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Rebuilds the topology described by this scenario.
    pub fn topology(&self) -> Topology {
        Topology::from_positions(self.positions.clone(), self.area, self.radio_range)
    }

    /// Serializes to the scenario text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# gmp scenario v1");
        let _ = writeln!(
            out,
            "area {} {} {} {}",
            self.area.min.x, self.area.min.y, self.area.max.x, self.area.max.y
        );
        let _ = writeln!(out, "radio_range {}", self.radio_range);
        for (i, p) in self.positions.iter().enumerate() {
            let _ = writeln!(out, "node {} {} {}", i, p.x, p.y);
        }
        for t in &self.tasks {
            let dests: Vec<String> = t.dests.iter().map(|d| d.0.to_string()).collect();
            let _ = writeln!(out, "task {} {}", t.source.0, dests.join(" "));
        }
        if self.faults.node_failure_prob != 0.0 || self.faults.link_loss_prob != 0.0 {
            let _ = writeln!(
                out,
                "fault bernoulli {} {}",
                self.faults.node_failure_prob, self.faults.link_loss_prob
            );
        }
        for ev in &self.faults.events {
            match *ev {
                FaultEvent::Crash { node, at_s } => {
                    let _ = writeln!(out, "fault crash {} {}", node.0, at_s);
                }
                FaultEvent::Blackout {
                    region,
                    start_s,
                    end_s,
                } => match region {
                    FaultRegion::Disk { center, radius } => {
                        let _ = writeln!(
                            out,
                            "fault blackout disk {} {} {} {} {}",
                            center.x, center.y, radius, start_s, end_s
                        );
                    }
                    FaultRegion::Rect { min, max } => {
                        let _ = writeln!(
                            out,
                            "fault blackout rect {} {} {} {} {} {}",
                            min.x, min.y, max.x, max.y, start_s, end_s
                        );
                    }
                },
                FaultEvent::DutyCycle {
                    period_s,
                    on_fraction,
                } => {
                    let _ = writeln!(out, "fault duty {period_s} {on_fraction}");
                }
                FaultEvent::LinkChurn {
                    start_s,
                    end_s,
                    speed_mps,
                    pause_s,
                    seed,
                } => {
                    let _ = writeln!(
                        out,
                        "fault churn {} {} {} {} {} {} {}",
                        start_s, end_s, speed_mps.0, speed_mps.1, pause_s.0, pause_s.1, seed
                    );
                }
            }
        }
        out
    }

    /// Parses the scenario text format.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseScenarioError`] naming the offending line for any
    /// structural or numeric problem.
    pub fn from_text(text: &str) -> Result<Self, ParseScenarioError> {
        let err = |line: usize, message: &str| ParseScenarioError {
            line,
            message: message.to_string(),
        };
        let mut area = None;
        let mut radio_range = None;
        let mut positions: Vec<Point> = Vec::new();
        let mut tasks = Vec::new();
        let mut faults = FaultPlan::none();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let keyword = parts.next().expect("non-empty line");
            let rest: Vec<&str> = parts.collect();
            match keyword {
                "area" => {
                    if rest.len() != 4 {
                        return Err(err(line_no, "area needs 4 coordinates"));
                    }
                    let v: Result<Vec<f64>, _> = rest.iter().map(|s| s.parse()).collect();
                    let v = v.map_err(|_| err(line_no, "bad area coordinate"))?;
                    if !v.iter().all(|c| c.is_finite()) {
                        return Err(err(line_no, "area coordinates must be finite"));
                    }
                    area = Some(Aabb::new(Point::new(v[0], v[1]), Point::new(v[2], v[3])));
                }
                "radio_range" => {
                    if rest.len() != 1 {
                        return Err(err(line_no, "radio_range needs one value"));
                    }
                    let r: f64 = rest[0]
                        .parse()
                        .map_err(|_| err(line_no, "bad radio range"))?;
                    if !(r.is_finite() && r > 0.0) {
                        return Err(err(line_no, "radio range must be positive and finite"));
                    }
                    radio_range = Some(r);
                }
                "node" => {
                    if rest.len() != 3 {
                        return Err(err(line_no, "node needs id x y"));
                    }
                    let id: usize = rest[0].parse().map_err(|_| err(line_no, "bad node id"))?;
                    if id != positions.len() {
                        return Err(err(line_no, "node ids must be dense and in order"));
                    }
                    let x: f64 = rest[1].parse().map_err(|_| err(line_no, "bad x"))?;
                    let y: f64 = rest[2].parse().map_err(|_| err(line_no, "bad y"))?;
                    if !(x.is_finite() && y.is_finite()) {
                        return Err(err(line_no, "node coordinates must be finite"));
                    }
                    positions.push(Point::new(x, y));
                }
                "task" => {
                    if rest.len() < 2 {
                        return Err(err(line_no, "task needs a source and ≥1 destination"));
                    }
                    let ids: Result<Vec<u32>, _> = rest.iter().map(|s| s.parse()).collect();
                    let ids = ids.map_err(|_| err(line_no, "bad task node id"))?;
                    if ids.iter().any(|&i| i as usize >= positions.len()) {
                        return Err(err(line_no, "task references unknown node"));
                    }
                    let source = NodeId(ids[0]);
                    let dests: Vec<NodeId> = ids[1..].iter().map(|&i| NodeId(i)).collect();
                    let mut sorted = dests.clone();
                    sorted.sort();
                    sorted.dedup();
                    if sorted.len() != dests.len() || dests.contains(&source) {
                        return Err(err(
                            line_no,
                            "task destinations must be distinct non-sources",
                        ));
                    }
                    tasks.push(MulticastTask::new(source, dests));
                }
                "fault" => {
                    let parse_f64 = |s: &str, what: &str| -> Result<f64, ParseScenarioError> {
                        s.parse::<f64>()
                            .ok()
                            .filter(|v| !v.is_nan())
                            .ok_or_else(|| err(line_no, &format!("bad {what}")))
                    };
                    let kind = *rest
                        .first()
                        .ok_or_else(|| err(line_no, "fault needs a kind"))?;
                    let args = &rest[1..];
                    match kind {
                        "bernoulli" => {
                            if args.len() != 2 {
                                return Err(err(line_no, "fault bernoulli needs p_node p_link"));
                            }
                            let pn = parse_f64(args[0], "node failure probability")?;
                            let pl = parse_f64(args[1], "link loss probability")?;
                            if !(0.0..=1.0).contains(&pn) || !(0.0..=1.0).contains(&pl) {
                                return Err(err(line_no, "probability out of range"));
                            }
                            faults.node_failure_prob = pn;
                            faults.link_loss_prob = pl;
                        }
                        "crash" => {
                            if args.len() != 2 {
                                return Err(err(line_no, "fault crash needs node time"));
                            }
                            let node: u32 =
                                args[0].parse().map_err(|_| err(line_no, "bad node id"))?;
                            let at_s = parse_f64(args[1], "crash time")?;
                            if at_s < 0.0 {
                                return Err(err(line_no, "crash time must be non-negative"));
                            }
                            faults = faults.with_crash(NodeId(node), at_s);
                        }
                        "blackout" => {
                            let shape = *args
                                .first()
                                .ok_or_else(|| err(line_no, "blackout needs disk|rect"))?;
                            let nums: Result<Vec<f64>, _> = args[1..]
                                .iter()
                                .map(|s| parse_f64(s, "blackout number"))
                                .collect();
                            let nums = nums?;
                            let (region, start_s, end_s) = match (shape, nums.as_slice()) {
                                ("disk", [cx, cy, r, s, e]) => (
                                    FaultRegion::Disk {
                                        center: Point::new(*cx, *cy),
                                        radius: *r,
                                    },
                                    *s,
                                    *e,
                                ),
                                ("rect", [x0, y0, x1, y1, s, e]) => (
                                    FaultRegion::Rect {
                                        min: Point::new(*x0, *y0),
                                        max: Point::new(*x1, *y1),
                                    },
                                    *s,
                                    *e,
                                ),
                                _ => return Err(err(line_no, "malformed blackout")),
                            };
                            if !(start_s >= 0.0 && start_s < end_s) {
                                return Err(err(line_no, "bad blackout window"));
                            }
                            faults = faults.with_blackout(region, start_s, end_s);
                        }
                        "duty" => {
                            if args.len() != 2 {
                                return Err(err(line_no, "fault duty needs period on_fraction"));
                            }
                            let period_s = parse_f64(args[0], "duty period")?;
                            let on_fraction = parse_f64(args[1], "duty on-fraction")?;
                            if period_s <= 0.0 || !(on_fraction > 0.0 && on_fraction <= 1.0) {
                                return Err(err(line_no, "bad duty cycle"));
                            }
                            faults = faults.with_duty_cycle(period_s, on_fraction);
                        }
                        "churn" => {
                            if args.len() != 7 {
                                return Err(err(
                                    line_no,
                                    "fault churn needs start end smin smax pmin pmax seed",
                                ));
                            }
                            let nums: Result<Vec<f64>, _> = args[..6]
                                .iter()
                                .map(|s| parse_f64(s, "churn number"))
                                .collect();
                            let nums = nums?;
                            let seed: u64 = args[6]
                                .parse()
                                .map_err(|_| err(line_no, "bad churn seed"))?;
                            let (start_s, end_s) = (nums[0], nums[1]);
                            let speed = (nums[2], nums[3]);
                            let pause = (nums[4], nums[5]);
                            if !(start_s >= 0.0 && start_s < end_s && end_s.is_finite()) {
                                return Err(err(line_no, "bad churn window"));
                            }
                            if !(speed.0 > 0.0 && speed.0 <= speed.1) {
                                return Err(err(line_no, "bad speed range"));
                            }
                            if !(pause.0 >= 0.0 && pause.0 <= pause.1) {
                                return Err(err(line_no, "bad pause range"));
                            }
                            faults = faults.with_link_churn(start_s, end_s, speed, pause, seed);
                        }
                        other => {
                            return Err(err(line_no, &format!("unknown fault kind `{other}`")))
                        }
                    }
                }
                other => return Err(err(line_no, &format!("unknown keyword `{other}`"))),
            }
        }
        let area = area.ok_or_else(|| err(0, "missing `area` line"))?;
        let radio_range = radio_range.ok_or_else(|| err(0, "missing `radio_range` line"))?;
        if positions.is_empty() {
            return Err(err(0, "scenario has no nodes"));
        }
        Ok(Scenario {
            area,
            radio_range,
            positions,
            tasks,
            faults,
        })
    }

    /// Writes the scenario to a file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_text())
    }

    /// Loads a scenario from a file.
    ///
    /// # Errors
    ///
    /// Returns I/O errors or parse errors (boxed).
    pub fn load(path: &Path) -> Result<Self, Box<dyn std::error::Error>> {
        let text = std::fs::read_to_string(path)?;
        Ok(Scenario::from_text(&text)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmp_net::TopologyConfig;

    fn sample() -> Scenario {
        let topo = Topology::random(&TopologyConfig::new(500.0, 40, 120.0), 5);
        let tasks = vec![
            MulticastTask::random(&topo, 5, 1),
            MulticastTask::random(&topo, 8, 2),
        ];
        Scenario::capture(&topo, tasks)
    }

    #[test]
    fn text_round_trip_is_exact() {
        let s = sample();
        let parsed = Scenario::from_text(&s.to_text()).unwrap();
        assert_eq!(parsed, s);
        // Topology rebuilt from the scenario has identical adjacency.
        let t1 = s.topology();
        let t2 = parsed.topology();
        assert_eq!(t1.positions(), t2.positions());
        assert_eq!(t1.adjacency(), t2.adjacency());
    }

    #[test]
    fn file_round_trip() {
        let s = sample();
        let dir = std::env::temp_dir().join("gmp_scenario_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.txt");
        s.save(&path).unwrap();
        let loaded = Scenario::load(&path).unwrap();
        assert_eq!(loaded, s);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# hello\n\narea 0 0 100 100\n# mid comment\nradio_range 50\nnode 0 1 2\nnode 1 3 4\n\ntask 0 1\n";
        let s = Scenario::from_text(text).unwrap();
        assert_eq!(s.positions.len(), 2);
        assert_eq!(s.tasks.len(), 1);
    }

    #[test]
    fn parse_errors_name_the_line() {
        let cases = [
            ("area 0 0 100\nradio_range 50\nnode 0 1 2\n", 1, "area"),
            (
                "area 0 0 100 100\nradio_range -5\nnode 0 1 2\n",
                2,
                "positive",
            ),
            ("area 0 0 100 100\nradio_range 50\nnode 1 1 2\n", 3, "dense"),
            (
                "area 0 0 100 100\nradio_range 50\nnode 0 1 2\ntask 0 5\n",
                4,
                "unknown node",
            ),
            (
                "area 0 0 100 100\nradio_range 50\nnode 0 1 2\nbogus 1\n",
                4,
                "keyword",
            ),
            (
                "area 0 0 nan 100\nradio_range 50\nnode 0 1 2\n",
                1,
                "finite",
            ),
            (
                "area -inf 0 100 100\nradio_range 50\nnode 0 1 2\n",
                1,
                "finite",
            ),
            (
                "area 0 0 100 100\nradio_range inf\nnode 0 1 2\n",
                2,
                "finite",
            ),
            (
                "area 0 0 100 100\nradio_range 50\nnode 0 nan 1\n",
                3,
                "finite",
            ),
            (
                "area 0 0 100 100\nradio_range 50\nnode 0 1 2\nnode 1 3 inf\n",
                4,
                "finite",
            ),
        ];
        for (text, line, needle) in cases {
            let e = Scenario::from_text(text).unwrap_err();
            assert_eq!(e.line, line, "case: {needle}");
            assert!(e.message.contains(needle), "{e}");
        }
    }

    #[test]
    fn missing_headers_are_rejected() {
        assert!(Scenario::from_text("node 0 1 2\n").is_err());
        assert!(Scenario::from_text("area 0 0 1 1\nradio_range 5\n").is_err());
    }

    #[test]
    fn fault_plan_round_trips_exactly() {
        let faults = FaultPlan::none()
            .with_node_failure_prob(0.05)
            .with_link_loss_prob(0.012_5)
            .with_crash(NodeId(7), 12.5)
            .with_blackout(
                FaultRegion::Disk {
                    center: Point::new(250.0, 250.0),
                    radius: 90.0,
                },
                10.0,
                f64::INFINITY,
            )
            .with_blackout(
                FaultRegion::Rect {
                    min: Point::new(0.0, 0.0),
                    max: Point::new(120.0, 80.0),
                },
                5.0,
                30.0,
            )
            .with_duty_cycle(10.0, 0.8)
            .with_link_churn(0.0, 60.0, (1.0, 5.0), (0.0, 2.0), 42);
        let s = sample().with_faults(faults);
        let text = s.to_text();
        assert!(text.contains("fault blackout disk 250 250 90 10 inf"));
        // Equal by value: exactly the check the compiled-plan cache makes,
        // so a reloaded plan reuses the compiled plan.
        let parsed = Scenario::from_text(&text).unwrap();
        assert_eq!(parsed, s);
    }

    #[test]
    fn fault_free_scenarios_emit_no_fault_lines() {
        let s = sample();
        assert!(!s.to_text().contains("fault"));
        assert_eq!(
            Scenario::from_text(&s.to_text()).unwrap().faults,
            FaultPlan::none()
        );
    }

    #[test]
    fn bad_fault_lines_are_rejected() {
        let base = "area 0 0 100 100\nradio_range 50\nnode 0 1 2\n";
        let cases = [
            ("fault bernoulli 1.5 0\n", "probability out of range"),
            ("fault crash 0 -1\n", "non-negative"),
            ("fault blackout disk 0 0 5 9 2\n", "bad blackout window"),
            ("fault blackout tri 0 0 5 0 1\n", "malformed blackout"),
            ("fault duty 0 0.5\n", "bad duty cycle"),
            ("fault churn 0 inf 1 2 0 1 3\n", "bad churn window"),
            ("fault churn 0 10 0 2 0 1 3\n", "bad speed range"),
            ("fault wat 1\n", "unknown fault kind"),
        ];
        for (line, needle) in cases {
            let e = Scenario::from_text(&format!("{base}{line}")).unwrap_err();
            assert_eq!(e.line, 4, "case: {needle}");
            assert!(e.message.contains(needle), "{e}");
        }
    }

    #[test]
    fn duplicate_task_destinations_are_rejected() {
        let text = "area 0 0 100 100\nradio_range 50\nnode 0 1 2\nnode 1 3 4\ntask 0 1 1\n";
        let e = Scenario::from_text(text).unwrap_err();
        assert!(e.message.contains("distinct"));
    }

    #[test]
    fn scenario_replay_reproduces_simulation_results() {
        // The whole point: a saved scenario re-runs identically.
        use crate::{SimConfig, TaskRunner};
        let s = sample();
        let text = s.to_text();
        let reloaded = Scenario::from_text(&text).unwrap();
        let config = SimConfig::paper()
            .with_area_side(500.0)
            .with_node_count(40)
            .with_radio_range(120.0);
        let t1 = s.topology();
        let t2 = reloaded.topology();
        struct Greedy;
        impl crate::Protocol for Greedy {
            fn name(&self) -> String {
                "greedy".into()
            }
            fn on_packet(
                &mut self,
                ctx: &crate::NodeContext<'_>,
                packet: crate::MulticastPacket,
                out: &mut Vec<crate::Forward>,
            ) {
                out.extend(packet.dests.iter().filter_map(|&d| {
                    let target = ctx.pos_of(d);
                    let here = ctx.pos().dist(target);
                    ctx.neighbors()
                        .iter()
                        .copied()
                        .filter(|&n| ctx.pos_of(n).dist(target) < here)
                        .min_by(|&a, &b| {
                            ctx.pos_of(a)
                                .dist(target)
                                .total_cmp(&ctx.pos_of(b).dist(target))
                        })
                        .map(|n| crate::Forward {
                            next_hop: n,
                            packet: packet.split(vec![d], Default::default()),
                        })
                }))
            }
        }
        for task in &s.tasks {
            let r1 = TaskRunner::new(&t1, &config).run(&mut Greedy, task);
            let r2 = TaskRunner::new(&t2, &config).run(&mut Greedy, task);
            assert_eq!(r1, r2);
        }
    }
}
