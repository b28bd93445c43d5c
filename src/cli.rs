//! The `gmp` command-line tool: generate, inspect, run, and render
//! scenarios from the shell.
//!
//! ```text
//! gmp generate --nodes 500 --area 800 --seed 7 --tasks 10 --k 12 OUT.txt
//! gmp info SCENARIO.txt
//! gmp run SCENARIO.txt --protocol gmp
//! gmp render SCENARIO.txt OUT.svg [--task N --protocol gmp]
//! ```
//!
//! `run` and `render` apply the scenario's fault plan, seeding task `i`'s
//! failure injection with `i`: each task draws its own `fault bernoulli`
//! sample, and `render --task i` redraws what `run` drew for row `i`.
//!
//! The command logic lives in [`run_cli`] (taking arguments and returning
//! the report text) so integration tests can drive it without spawning a
//! process.

use std::fmt::Write as _;
use std::path::PathBuf;

use gmp_baselines::ProtocolKind;
use gmp_net::Topology;
use gmp_sim::{MulticastTask, Scenario, SimConfig, TaskRunner};

use crate::viz::SvgScene;

fn parse_flag<T: std::str::FromStr>(
    args: &mut Vec<String>,
    flag: &str,
    default: T,
) -> Result<T, String> {
    if let Some(i) = args.iter().position(|a| a == flag) {
        if i + 1 >= args.len() {
            return Err(format!("{flag} needs a value"));
        }
        let value = args.remove(i + 1);
        args.remove(i);
        value
            .parse()
            .map_err(|_| format!("bad value for {flag}: {value}"))
    } else {
        Ok(default)
    }
}

fn parse_protocol(name: &str) -> Result<ProtocolKind, String> {
    name.parse::<ProtocolKind>().map_err(|e| e.to_string())
}

/// Runs one CLI invocation and returns the text to print.
///
/// # Errors
///
/// Returns a usage or processing error message.
pub fn run_cli(args: &[String]) -> Result<String, String> {
    let mut args: Vec<String> = args.to_vec();
    if args.is_empty() {
        return Err(usage());
    }
    let command = args.remove(0);
    match command.as_str() {
        "generate" => cmd_generate(args),
        "info" => cmd_info(args),
        "run" => cmd_run(args),
        "render" => cmd_render(args),
        "--help" | "-h" | "help" => Ok(usage()),
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

fn usage() -> String {
    concat!(
        "gmp — geographic multicast toolbox\n\n",
        "commands:\n",
        "  generate --nodes N --area M --seed S --tasks T --k K OUT.txt\n",
        "  info SCENARIO.txt\n",
        "  run SCENARIO.txt [--protocol gmp|gmpnr|pbm|lgs|grd|smt|mcfr|gvg]\n",
        "  render SCENARIO.txt OUT.svg [--task N] [--protocol NAME]\n"
    )
    .to_string()
}

fn cmd_generate(mut args: Vec<String>) -> Result<String, String> {
    let nodes: usize = parse_flag(&mut args, "--nodes", 500)?;
    let area: f64 = parse_flag(&mut args, "--area", 1000.0)?;
    let seed: u64 = parse_flag(&mut args, "--seed", 0)?;
    let tasks: usize = parse_flag(&mut args, "--tasks", 10)?;
    let k: usize = parse_flag(&mut args, "--k", 12)?;
    let radio: f64 = parse_flag(&mut args, "--radio-range", 150.0)?;
    let out = args.pop().ok_or("generate needs an output path")?;
    if !args.is_empty() {
        return Err(format!("unexpected arguments: {args:?}"));
    }
    // A task draws k destinations plus a distinct source.
    if !(1..nodes).contains(&k) {
        return Err(format!(
            "--k must be at least 1 and below --nodes ({nodes}), got {k}"
        ));
    }
    if !(area.is_finite() && area > 0.0) {
        return Err(format!("--area must be positive and finite, got {area}"));
    }
    if !(radio.is_finite() && radio > 0.0) {
        return Err(format!(
            "--radio-range must be positive and finite, got {radio}"
        ));
    }
    let config = SimConfig::paper()
        .with_area_side(area)
        .with_node_count(nodes)
        .with_radio_range(radio);
    let topo = Topology::random(&config.topology_config(), seed);
    let tasks: Vec<MulticastTask> = (0..tasks)
        .map(|t| MulticastTask::random(&topo, k, seed * 1000 + t as u64))
        .collect();
    let scenario = Scenario::capture(&topo, tasks);
    // Write only what `info`, `run` and `render` will load: the loader's
    // rules (such as no two nodes at one position) apply to the draw too.
    let text = scenario.to_text();
    Scenario::from_text(&text).map_err(|e| {
        format!("the drawn scenario would not load ({e}); is --area too small for --nodes {nodes}?")
    })?;
    std::fs::write(&out, text).map_err(|e| format!("cannot write {out}: {e}"))?;
    let side = area_side(area);
    Ok(format!(
        "wrote {out}: {nodes} nodes over {side}×{side} m, {} tasks of k={k}\n",
        scenario.tasks.len()
    ))
}

/// A deployment-area side in meters, as `generate` and `info` print it:
/// plain between 1 mm and 1e9 m, in scientific notation outside, so that
/// no finite area prints hundreds of digits.
fn area_side(m: f64) -> String {
    if m == 0.0 || (1e-3..1e9).contains(&m.abs()) {
        format!("{m}")
    } else {
        format!("{m:e}")
    }
}

fn load(path: &str) -> Result<Scenario, String> {
    Scenario::load(&PathBuf::from(path)).map_err(|e| format!("cannot load {path}: {e}"))
}

fn cmd_info(args: Vec<String>) -> Result<String, String> {
    let path = args.first().ok_or("info needs a scenario path")?;
    let scenario = load(path)?;
    let topo = scenario.topology();
    let mut out = String::new();
    let _ = writeln!(out, "scenario   : {path}");
    let (width, height) = (topo.area().width(), topo.area().height());
    let _ = writeln!(
        out,
        "area       : {} × {} m",
        area_side(width),
        area_side(height)
    );
    let _ = writeln!(out, "nodes      : {}", topo.len());
    let _ = writeln!(out, "radio range: {:.0} m", topo.radio_range());
    let _ = writeln!(out, "avg degree : {:.1}", topo.average_degree());
    let _ = writeln!(out, "connected  : {}", topo.is_connected());
    let _ = writeln!(out, "tasks      : {}", scenario.tasks.len());
    for (i, t) in scenario.tasks.iter().enumerate() {
        let _ = writeln!(out, "  task {i}: {} → {} destinations", t.source, t.k());
    }
    Ok(out)
}

/// The paper's configuration fitted to a scenario's deployment, with the
/// scenario's fault plan applied.
fn scenario_config(scenario: &Scenario, topo: &Topology) -> SimConfig {
    SimConfig::paper()
        .with_area_side(topo.area().width())
        .with_node_count(topo.len())
        .with_radio_range(topo.radio_range())
        .with_faults(scenario.faults.clone())
}

fn cmd_run(mut args: Vec<String>) -> Result<String, String> {
    let protocol_name: String = parse_flag(&mut args, "--protocol", "gmp".to_string())?;
    let kind = parse_protocol(&protocol_name)?;
    let path = args.first().ok_or("run needs a scenario path")?;
    let scenario = load(path)?;
    let topo = scenario.topology();
    let config = scenario_config(&scenario, &topo);
    let runner = TaskRunner::new(&topo, &config);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<6} {:>10} {:>14} {:>12} {:>10}",
        "task", "hops", "per-dest hops", "energy (J)", "delivered"
    );
    let mut total_hops = 0usize;
    let mut failures = 0usize;
    for (i, task) in scenario.tasks.iter().enumerate() {
        let mut proto = kind.build();
        let report = runner.run_seeded(proto.as_mut(), task, i as u64);
        total_hops += report.transmissions;
        if !report.delivered_all() {
            failures += 1;
        }
        let _ = writeln!(
            out,
            "{:<6} {:>10} {:>14.2} {:>12.3} {:>7}/{}",
            i,
            report.transmissions,
            report.mean_dest_hops().unwrap_or(f64::NAN),
            report.energy_j,
            report.delivered_count(),
            task.k()
        );
    }
    let _ = writeln!(
        out,
        "\n{} tasks, protocol {}: {} total transmissions, {} failed task(s)",
        scenario.tasks.len(),
        protocol_name,
        total_hops,
        failures
    );
    Ok(out)
}

fn cmd_render(mut args: Vec<String>) -> Result<String, String> {
    let kind = parse_protocol(&parse_flag(&mut args, "--protocol", "gmp".to_string())?)?;
    let task_idx: usize = parse_flag(&mut args, "--task", 0)?;
    if args.len() != 2 {
        return Err("render needs SCENARIO.txt and OUT.svg".into());
    }
    let scenario = load(&args[0])?;
    let topo = scenario.topology();
    let task = scenario
        .tasks
        .get(task_idx)
        .ok_or_else(|| format!("scenario has no task {task_idx}"))?;
    let config = scenario_config(&scenario, &topo);
    let mut proto = kind.build();
    let report = TaskRunner::new(&topo, &config).run_seeded(proto.as_mut(), task, task_idx as u64);
    let mut scene = SvgScene::new(topo.area());
    for node in topo.nodes() {
        scene.circle(node.pos, 1.5, "#cccccc");
    }
    for &(a, b) in &report.links {
        scene.line(topo.pos(a), topo.pos(b), "#3366cc", 1.2);
    }
    scene.circle(topo.pos(task.source), 6.0, "#118811");
    for &d in &task.dests {
        scene.circle(topo.pos(d), 5.0, "#cc3311");
    }
    std::fs::write(&args[1], scene.finish()).map_err(|e| format!("cannot write svg: {e}"))?;
    Ok(format!(
        "rendered task {task_idx} ({} transmissions, {}/{} delivered) to {}\n",
        report.transmissions,
        report.delivered_count(),
        task.k(),
        args[1]
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("gmp_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn generate_info_run_render_pipeline() {
        let scenario_path = tmp("pipeline.txt");
        let svg_path = tmp("pipeline.svg");
        let out = run_cli(&s(&[
            "generate",
            "--nodes",
            "200",
            "--area",
            "600",
            "--seed",
            "3",
            "--tasks",
            "3",
            "--k",
            "6",
            &scenario_path,
        ]))
        .unwrap();
        assert!(out.contains("200 nodes"));

        let info = run_cli(&s(&["info", &scenario_path])).unwrap();
        assert!(info.contains("nodes      : 200"));
        assert!(info.contains("tasks      : 3"));

        for proto in ["gmp", "gmpnr", "lgs", "grd", "smt", "pbm", "mcfr", "gvg"] {
            let run = run_cli(&s(&["run", &scenario_path, "--protocol", proto])).unwrap();
            assert!(run.contains("3 tasks"), "{proto}: {run}");
        }

        let render = run_cli(&s(&[
            "render",
            &scenario_path,
            &svg_path,
            "--task",
            "1",
            "--protocol",
            "gmp",
        ]))
        .unwrap();
        assert!(render.contains("rendered task 1"));
        let svg = std::fs::read_to_string(&svg_path).unwrap();
        assert!(svg.starts_with("<svg"));
    }

    #[test]
    fn run_and_render_apply_the_scenario_fault_plan() {
        let scenario_path = tmp("faulted.txt");
        let svg_path = tmp("faulted.svg");
        run_cli(&s(&[
            "generate",
            "--nodes",
            "200",
            "--area",
            "600",
            "--seed",
            "3",
            "--tasks",
            "1",
            "--k",
            "6",
            &scenario_path,
        ]))
        .unwrap();
        let run = || run_cli(&s(&["run", &scenario_path])).unwrap();
        let fault_free = run();
        assert!(fault_free.contains("6/6"), "{fault_free}");

        // Crash one destination from the start: the task falls short.
        let scenario = Scenario::load(std::path::Path::new(&scenario_path)).unwrap();
        let dest = scenario.tasks[0].dests[0];
        let plan = gmp_sim::FaultPlan::none().with_crash(dest, 0.0);
        scenario
            .with_faults(plan)
            .save(std::path::Path::new(&scenario_path))
            .unwrap();
        let faulted = run();
        assert!(faulted.contains("5/6"), "{faulted}");
        assert!(faulted.contains("1 failed task(s)"), "{faulted}");
        let render = run_cli(&s(&["render", &scenario_path, &svg_path])).unwrap();
        assert!(render.contains("5/6 delivered"), "{render}");
    }

    #[test]
    fn each_task_draws_its_own_bernoulli_faults() {
        // One task listed three times under `fault bernoulli 0.3 0`: the
        // failure seed is the task's index, so the rows differ, and
        // `render --task i` redraws what `run` drew for row i.
        let scenario_path = tmp("bernoulli.txt");
        let svg_path = tmp("bernoulli.svg");
        run_cli(&s(&[
            "generate",
            "--nodes",
            "200",
            "--area",
            "600",
            "--seed",
            "3",
            "--tasks",
            "1",
            "--k",
            "6",
            &scenario_path,
        ]))
        .unwrap();
        let mut scenario = Scenario::load(std::path::Path::new(&scenario_path)).unwrap();
        scenario.tasks = vec![scenario.tasks[0].clone(); 3];
        scenario
            .with_faults(gmp_sim::FaultPlan::none().with_node_failure_prob(0.3))
            .save(std::path::Path::new(&scenario_path))
            .unwrap();
        let run = run_cli(&s(&["run", &scenario_path])).unwrap();
        let rows: Vec<Vec<&str>> = run
            .lines()
            .skip(1)
            .take(3)
            .map(|l| l.split_whitespace().skip(1).collect())
            .collect();
        assert_eq!(rows.len(), 3, "{run}");
        assert!(
            rows[1..].iter().any(|r| *r != rows[0]),
            "every task drew the same faults: {run}"
        );
        for (i, row) in rows.iter().enumerate() {
            let task = i.to_string();
            let render = run_cli(&s(&["render", &scenario_path, &svg_path, "--task", &task]));
            let delivered = row.last().unwrap();
            assert!(
                render.unwrap().contains(&format!("{delivered} delivered")),
                "task {i}: {run}"
            );
        }
    }

    #[test]
    fn helpful_errors() {
        assert!(run_cli(&[]).is_err());
        assert!(run_cli(&s(&["bogus"]))
            .unwrap_err()
            .contains("unknown command"));
        assert!(run_cli(&s(&["run"])).is_err());
        assert!(run_cli(&s(&["run", "/nonexistent/file.txt"]))
            .unwrap_err()
            .contains("cannot load"));
        let e = run_cli(&s(&["run", "x.txt", "--protocol", "nope"])).unwrap_err();
        assert!(e.contains("unknown protocol `nope`"), "{e}");
        assert!(e.contains("mcfr"), "{e}");
        let help = run_cli(&s(&["help"])).unwrap();
        assert!(help.contains("generate"));

        // Generator arguments that used to panic or write a scenario the
        // loader rejects: each is an error, and no file is written.
        for (i, bad) in [
            &["--nodes", "10", "--k", "50"][..],
            &["--nodes", "10", "--k", "10"],
            &["--nodes", "0", "--k", "1"],
            &["--k", "0"],
            &["--radio-range", "-5"],
            &["--radio-range", "inf"],
            &["--radio-range", "nan"],
            &["--area", "0"],
            &["--area", "nan"],
            &["--area", "-inf"],
            // Subnormal side: the draw puts two nodes at one position.
            &[
                "--area", "1e-322", "--nodes", "50", "--k", "2", "--tasks", "1",
            ],
        ]
        .into_iter()
        .enumerate()
        {
            let out = tmp(&format!("rejected_{i}.txt"));
            let _ = std::fs::remove_file(&out);
            let mut args = s(&["generate"]);
            args.extend(s(bad));
            args.push(out.clone());
            let e = run_cli(&args).unwrap_err();
            assert!(e.contains(bad[0]), "{bad:?}: {e}");
            assert!(!std::path::Path::new(&out).exists(), "{bad:?} wrote {out}");
        }
    }

    #[test]
    fn huge_areas_load_without_area_sized_allocations() {
        // Sparse deployments over areas whose radius-sized grid would have
        // ~10^596 or ~10^14 cells: generated or hand-written, each loads,
        // and `info` describes it.
        for (i, extra) in [
            &["--area", "1e300"][..],
            &["--area", "1e7", "--radio-range", "1"],
        ]
        .into_iter()
        .enumerate()
        {
            let out = tmp(&format!("huge_{i}.txt"));
            let mut args = s(&["generate", "--nodes", "10", "--k", "2", "--tasks", "1"]);
            args.extend(s(extra));
            args.push(out.clone());
            let wrote = run_cli(&args).unwrap();
            let info = run_cli(&s(&["info", &out])).unwrap();
            assert!(info.contains("nodes      : 10"), "{extra:?}: {info}");
            // Both commands print the area in a bounded form.
            let area_line = info.lines().find(|l| l.starts_with("area")).unwrap();
            if extra[1] == "1e300" {
                assert!(wrote.contains("over 1e300×1e300 m"), "{wrote}");
                assert_eq!(area_line, "area       : 1e300 × 1e300 m");
            }
            assert!(wrote.len() < 100 + out.len(), "{wrote}");
            assert!(area_line.len() < 60, "{area_line}");
        }
        for (i, header) in [
            "area 0 0 1e300 1e300\nradio_range 150\n",
            "area 0 0 1e7 1e7\nradio_range 1\n",
        ]
        .into_iter()
        .enumerate()
        {
            let path = tmp(&format!("huge_file_{i}.txt"));
            let text = format!("{header}node 0 0 0\nnode 1 0.5 0\nnode 2 1e6 1e6\ntask 0 1 2\n");
            std::fs::write(&path, text).unwrap();
            let info = run_cli(&s(&["info", &path])).unwrap();
            assert!(info.contains("nodes      : 3"), "{header}: {info}");
            assert!(info.contains("avg degree : 0.7"), "{header}: {info}");
        }
    }

    #[test]
    fn flag_parsing() {
        let mut args = s(&["--nodes", "42", "rest"]);
        let n: usize = parse_flag(&mut args, "--nodes", 7).unwrap();
        assert_eq!(n, 42);
        assert_eq!(args, s(&["rest"]));
        let d: usize = parse_flag(&mut args, "--nodes", 7).unwrap();
        assert_eq!(d, 7);
        let mut bad = s(&["--nodes"]);
        assert!(parse_flag::<usize>(&mut bad, "--nodes", 7).is_err());
        let mut notnum = s(&["--nodes", "abc"]);
        assert!(parse_flag::<usize>(&mut notnum, "--nodes", 7).is_err());
    }
}
