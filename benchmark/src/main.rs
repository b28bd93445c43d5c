//! The GMP benchmark: four workloads over the reproduction's public APIs,
//! end-to-end metrics from an untraced run and per-layer metrics from a
//! traced one. See README.md in this directory.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1 [--json PATH] [--quick]
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--no-trace] [--json PATH] [--quick]
//! ```
//!
//! With `--trace`, one run of one workload happens in this process: every
//! metric is printed as `workload metric value unit`, and the last line of
//! standard output is the result as one JSON object. Without it, every
//! requested (workload, trace) pair runs in a child process of its own,
//! so `peak_rss_mib` is per workload; `--no-trace` skips the traced runs.

mod alloc;
mod registry;
mod run;
mod stats;
mod trace;
mod workload;

use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};

use registry::{unit_of, Workload, RUN_SECONDS, WORKLOADS};
use run::{run, Options, RunResult};
use workload::Scale;

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1 | --no-trace] [--json PATH] [--quick]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    no_trace: bool,
    json: Option<String>,
    quick: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: None,
        no_trace: false,
        json: None,
        quick: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| format!("bad --seed {v}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|&s| s <= 3600)
                    .ok_or(format!("bad --seconds {v}"))?;
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v}")),
                });
            }
            "--no-trace" => args.no_trace = true,
            "--json" => args.json = Some(value()?),
            "--quick" => args.quick = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.trace.is_some() && args.workload.is_none() {
        return Err("--trace needs --workload".into());
    }
    if args.trace.is_some() && args.no_trace {
        return Err("--trace and --no-trace exclude each other".into());
    }
    Ok(args)
}

fn json_result(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct(),
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

fn write_json(path: &str, body: &str) -> Result<(), String> {
    std::fs::write(path, format!("{body}\n")).map_err(|e| format!("cannot write {path}: {e}"))
}

/// One run in this process.
fn run_here(args: &Args, workload: Workload, trace: bool) -> ExitCode {
    let mut r = run(&Options {
        workload,
        seed: args.seed,
        seconds: args.seconds as f64,
        trace,
        scale: if args.quick {
            Scale::QUICK
        } else {
            Scale::FULL
        },
    });
    for (name, value) in &mut r.metrics {
        if !value.is_finite() {
            r.errors.push(format!("{name} is {value}"));
            *value = 0.0;
        }
    }
    let name = workload.name();
    for (metric, value) in &r.metrics {
        println!("{name} {metric} {value} {}", unit_of(metric));
    }
    for (fact, value, unit) in &r.facts {
        println!("{name} {fact} {value} {unit}");
    }
    for e in &r.errors {
        eprintln!("error: {name}: {e}");
    }
    let json = json_result(&r);
    if let Some(path) = &args.json {
        if let Err(e) = write_json(path, &json) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{json}");
    if r.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every requested (workload, trace) pair in a child process of its own,
/// passing its output through.
fn run_children(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let workloads: Vec<Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().map(|(w, _, _)| *w).collect(),
    };
    let traces: &[bool] = if args.no_trace {
        &[false]
    } else {
        &[false, true]
    };
    let mut ok = true;
    let mut results = Vec::new();
    for &w in &workloads {
        for &trace in traces {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .stdout(Stdio::piped());
            if args.quick {
                cmd.arg("--quick");
            }
            let mut child = match cmd.spawn() {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("error: cannot start {}: {e}", w.name());
                    return ExitCode::FAILURE;
                }
            };
            let mut last = String::new();
            if let Some(out) = child.stdout.take() {
                for line in BufReader::new(out).lines().map_while(Result::ok) {
                    println!("{line}");
                    last = line;
                }
            }
            let status = child.wait();
            ok &= status.is_ok_and(|s| s.success());
            results.push(format!(
                "{{\"workload\": \"{}\", \"trace\": {}, \"result\": {}}}",
                w.name(),
                u8::from(trace),
                if last.starts_with('{') {
                    last
                } else {
                    "null".into()
                }
            ));
        }
    }
    if let Some(path) = &args.json {
        if let Err(e) = write_json(path, &format!("[{}]", results.join(", "))) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (args.workload, args.trace) {
        (Some(w), Some(trace)) => run_here(&args, w, trace),
        _ => run_children(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_single_run_invocation() {
        let a = args("--workload crash-mac --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Workload::CrashMac));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, Some(true)));
        let d = args("").unwrap();
        assert_eq!((d.seed, d.seconds, d.trace), (1, RUN_SECONDS, None));
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds -1",
            "--trace 2",
            "--trace 1",
            "--workload fresh-cold --trace 0 --no-trace",
            "--seed",
            "--frobnicate",
        ] {
            assert!(args(bad).is_err(), "{bad} was accepted");
        }
    }
}
