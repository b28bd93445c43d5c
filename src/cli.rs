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
        "  run SCENARIO.txt [--protocol gmp|gmpnr|pbm|lgs|lgk|grd|dsm|smt|mcfr|gvg]\n",
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
    scenario
        .save(&PathBuf::from(&out))
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    Ok(format!(
        "wrote {out}: {nodes} nodes over {area}×{area} m, {} tasks of k={k}\n",
        scenario.tasks.len()
    ))
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
    let _ = writeln!(
        out,
        "area       : {:.0} × {:.0} m",
        topo.area().width(),
        topo.area().height()
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

fn cmd_run(mut args: Vec<String>) -> Result<String, String> {
    let protocol_name: String = parse_flag(&mut args, "--protocol", "gmp".to_string())?;
    let kind = parse_protocol(&protocol_name)?;
    let path = args.first().ok_or("run needs a scenario path")?;
    let scenario = load(path)?;
    let topo = scenario.topology();
    let config = SimConfig::paper()
        .with_area_side(topo.area().width())
        .with_node_count(topo.len())
        .with_radio_range(topo.radio_range());
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
        let report = runner.run(proto.as_mut(), task);
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
    let config = SimConfig::paper()
        .with_area_side(topo.area().width())
        .with_node_count(topo.len())
        .with_radio_range(topo.radio_range());
    let mut proto = kind.build();
    let report = TaskRunner::new(&topo, &config).run(proto.as_mut(), task);
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

        for proto in [
            "gmp", "gmpnr", "lgs", "grd", "dsm", "smt", "pbm", "lgk", "mcfr", "gvg",
        ] {
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
