//! Regenerates the paper's evaluation figures.
//!
//! ```text
//! experiments <COMMAND> [--quick|--standard|--paper] [--out DIR]
//! ```
//!
//! Paper figures:
//!
//! * `fig11` — total number of hops vs destination count;
//! * `fig12` — per-destination hop count vs destination count;
//! * `fig14` — total energy cost vs destination count;
//! * `fig15` — failed tasks vs network density;
//!
//! extensions and ablations:
//!
//! * `figlatency` — mean task completion time vs destination count;
//! * `overhead` — header bytes vs the fixed 128 B abstraction;
//! * `treelen` — rrSTR vs MST one-shot tree length;
//! * `planar` — GMP on Gabriel vs RNG planarization;
//! * `pbm` — PBM bounded-search sensitivity;
//! * `mobility` — stale positions under random-waypoint movement;
//! * `power` — distance-scaled transmit power;
//! * `range` — radio-range sweep;
//! * `loss` — Figure 15 over a uniformly lossy channel;
//! * `fig15mac` — Figure 15 with collisions, jitter, and ARQ;
//! * `mactax` — per-protocol MAC retransmission overhead;
//! * `guarantees` — fault-injection crash sweep, oracle-judged, with the
//!   guaranteed-delivery protocols (MCFR/GVG) beside the best-effort
//!   panel and path stretch/transmission columns: the
//!   guarantees-vs-overhead frontier (`BENCH_6.json`). After writing it,
//!   the command checks the delivery certificate on every row
//!   ([`campaign::check_certificate`]) and exits 1 if a row breaks it;
//!
//! or `all` for everything. Results are printed as tables and written as
//! CSV (plus SVG charts for the figures) under `--out` (default
//! `results/`). `--threads N` caps the worker pool (default, or 0: all
//! cores). `--protocols GMP,MCFR,…` filters the `guarantees` panel; with
//! any other command, an unknown name or a list that selects nothing, the
//! command prints its usage and exits 1.
//!
//! Every command except `treelen` and `mobility` is a list of cells
//! (configuration, destination count, router) swept over the scale's
//! networks, and each of its tables is a list of `(header, formatter)`
//! columns over those cells' tallies. Every file a command writes is a
//! function of its scale alone: the same command writes the same bytes at
//! any `--threads`. Wall-clock times go to stderr. Performance is measured
//! by the separate benchmark package (`benchmark/`), not here.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use gmp_baselines::PbmConfig;
use gmp_baselines::ProtocolKind::{self, Gmp, GmpNr, Grd, Gvg, Lgs, Mcfr, Pbm, PbmBest, Smt};
use gmp_bench::campaign::{self, hop_overhead};
use gmp_bench::experiments::{mobility_ablation, tree_length_ablation};
use gmp_bench::{panel, render_table, sweep, write_csv, Cell, LineChart, Router, Scale, Tally};
use gmp_net::PlanarKind::{Gabriel, RelativeNeighborhood};
use gmp_sim::config::PowerControl;
use gmp_sim::{FailureCause, SimConfig};

struct Args {
    command: String,
    scale: Scale,
    out: PathBuf,
    threads: usize,
    /// `--protocols` filter for `guarantees`; `None` = its default panel.
    protocols: Option<Vec<ProtocolKind>>,
}

/// Parses the `--protocols` comma-separated name list, which must name at
/// least one protocol and only known ones.
fn parse_protocol_filter(list: &str) -> Result<Vec<ProtocolKind>, String> {
    let mut kinds: Vec<ProtocolKind> = Vec::new();
    for token in list.split(',').filter(|t| !t.trim().is_empty()) {
        let kind = token.parse().map_err(|e| format!("{e} in --protocols"))?;
        if !kinds.contains(&kind) {
            kinds.push(kind);
        }
    }
    if kinds.is_empty() {
        return Err(format!("--protocols {list:?} selects no protocol"));
    }
    Ok(kinds)
}

fn parse_args() -> Result<Args, String> {
    let mut command = None;
    let mut scale = Scale::standard();
    let mut out = PathBuf::from("results");
    let mut threads = 0usize;
    let mut protocols = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => scale = Scale::quick(),
            "--standard" => scale = Scale::standard(),
            "--paper" => scale = Scale::paper(),
            "--out" => out = PathBuf::from(it.next().ok_or("--out needs a directory")?),
            "--threads" => {
                let n = it.next().ok_or("--threads needs a count")?;
                threads = n
                    .parse()
                    .map_err(|_| format!("invalid thread count: {n}"))?;
            }
            "--protocols" => {
                let list = it
                    .next()
                    .ok_or("--protocols needs a comma-separated list")?;
                protocols = Some(parse_protocol_filter(&list)?);
            }
            c if !c.starts_with('-') && command.is_none() => command = Some(c.to_string()),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    let command = command.unwrap_or_else(|| "all".into());
    if protocols.is_some() && command != "guarantees" {
        return Err(format!(
            "--protocols filters only `guarantees`, not `{command}`"
        ));
    }
    Ok(Args {
        command,
        scale,
        out,
        threads,
        protocols,
    })
}

/// A table column: its header, and how the line whose cells start at
/// index `i` of the tallies prints in it.
type Column = (String, Box<dyn Fn(&[Tally], usize) -> String>);

/// A quantity plotted per cell.
type Metric = fn(&Tally) -> f64;

/// `(title, x label, y label, metric)` of an SVG chart: one series per
/// protocol (a cell's second label) over the cells' first label.
type Chart = (&'static str, &'static str, &'static str, Metric);

/// One table of a command's output, drawn from its sweep's tallies.
struct Figure {
    /// File stem under `--out`.
    name: &'static str,
    title: &'static str,
    /// Headers of the leading columns, which print the line's first cell's
    /// labels.
    labels: &'static [&'static str],
    /// Consecutive cells per table line.
    width: usize,
    columns: Vec<Column>,
    chart: Option<Chart>,
}

impl Figure {
    fn new(name: &'static str, title: &'static str, labels: &'static [&'static str]) -> Self {
        Figure {
            name,
            title,
            labels,
            width: 1,
            columns: Vec::new(),
            chart: None,
        }
    }

    /// Gives every table line `width` consecutive cells (a baseline and a
    /// variant for the paired ablations).
    fn width(mut self, width: usize) -> Self {
        self.width = width;
        self
    }

    fn col(mut self, header: &str, format: impl Fn(&[Tally], usize) -> String + 'static) -> Self {
        self.columns.push((header.to_string(), Box::new(format)));
        self
    }
}

/// `v` with `digits` decimals.
fn dec(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

/// `format(v)`, or `fallback` when `v` is not finite.
fn finite(v: f64, fallback: &str, format: impl Fn(f64) -> String) -> String {
    if v.is_finite() {
        format(v)
    } else {
        fallback.into()
    }
}

/// The destination sweep's figures: file stem, metric, title.
const DESTINATION_FIGURES: [(&str, Metric, &str); 4] = [
    (
        "fig11",
        Tally::mean_transmissions,
        "Figure 11 — total number of hops per task",
    ),
    (
        "fig12",
        Tally::mean_dest_hops,
        "Figure 12 — per-destination hop count",
    ),
    (
        "fig14",
        Tally::mean_energy_j,
        "Figure 14 — total energy cost per task (J)",
    ),
    (
        "figlatency",
        Tally::mean_latency_ms,
        "Extension — mean task completion time (ms)",
    ),
];

/// The cells a sweep command runs and the figures drawn from them. The
/// destination sweep feeds four figures; `every` keeps all of them, else
/// only the one named `cmd`. `None` for a command that sweeps no cells.
fn plan(cmd: &str, args: &Args, every: bool) -> Option<(Vec<Cell>, Vec<Figure>)> {
    let paper = SimConfig::paper();
    let mac = (paper.clone().with_collisions(true))
        .with_tx_jitter(0.005)
        .with_retransmissions(7);
    // The Figure 15 setting: `n` nodes, at most 100 hops per destination.
    let density =
        |config: &SimConfig, n: usize| config.clone().with_node_count(n).with_max_path_hops(100);
    let failed = |t: &[Tally], i: usize| t[i].failed_tasks.to_string();
    let mut cells = Vec::new();
    let fig = match cmd {
        "fig11" | "fig12" | "fig14" | "figlatency" => {
            let protocols = [PbmBest, Lgs, Gmp, GmpNr, Smt, Grd];
            for &k in &args.scale.k_values {
                cells.extend(panel(vec![k.to_string()], &paper, k, &protocols));
            }
            let figures = DESTINATION_FIGURES.iter().filter(|f| every || f.0 == cmd);
            let figures = figures.map(|&(name, metric, title)| {
                let mut fig = Figure::new(name, title, &["k"]).width(protocols.len());
                for (j, p) in protocols.iter().enumerate() {
                    fig = fig.col(&p.to_string(), move |t, i| dec(metric(&t[i + j]), 2));
                }
                let y_label = title.split("— ").nth(1).unwrap_or("value");
                fig.chart = Some((title, "number of destinations (k)", y_label, metric));
                fig
            });
            return Some((cells, figures.collect()));
        }
        "fig15" | "fig15mac" => {
            // The paper sweeps 400–1000 nodes; under this repo's idealized
            // MAC the void-driven failure regime only starts below ~300
            // nodes (ns-2's 802.11 losses pushed it higher), so Figure 15
            // includes sparser extension points to expose the protocols'
            // failure ordering. See EXPERIMENTS.md.
            let nodes = [120, 160, 200, 250, 300, 400, 600, 800, 1000];
            let (config, protocols, nodes) = match cmd {
                "fig15" => (&paper, [PbmBest, Lgs, Gmp], &nodes[..]),
                _ => (&mac, [Pbm(0.3), Lgs, Gmp], &nodes[5..]),
            };
            for &n in nodes {
                let config = density(config, n);
                cells.extend(panel(vec![n.to_string()], &config, 12, &protocols));
            }
            let mut fig = if cmd == "fig15" {
                let title = "Figure 15 — failed tasks for different network densities";
                Figure::new("fig15", title, &["nodes", "protocol"])
            } else {
                let title = "Fidelity ablation — Figure 15 with half-duplex/co-channel collisions";
                Figure::new("fig15_mac", title, &["nodes", "protocol"])
            };
            if cmd == "fig15" {
                let title = "Figure 15 — failed tasks per 1000 vs density";
                let y_label = "failed tasks per 1000";
                fig.chart = Some((title, "number of nodes", y_label, Tally::failed_per_1000));
            }
            fig.col("failed", failed)
                .col("tasks", |t, i| t[i].tasks.to_string())
                .col("failed/1000", |t, i| dec(t[i].failed_per_1000(), 1))
        }
        "overhead" => {
            for &k in &args.scale.k_values {
                for encoded in [false, true] {
                    let config = paper.clone().with_size_dependent_airtime(encoded);
                    cells.extend(panel(vec![k.to_string()], &config, k, &[Gmp]));
                }
            }
            let title = "Ablation — destination-list header overhead (GMP)";
            Figure::new("overhead", title, &["k"])
                .width(2)
                .col("fixed B/task", |t, i| dec(t[i].mean_bytes(), 0))
                .col("encoded B/task", |t, i| dec(t[i + 1].mean_bytes(), 0))
                .col("fixed J/task", |t, i| dec(t[i].mean_energy_j(), 4))
                .col("encoded J/task", |t, i| dec(t[i + 1].mean_energy_j(), 4))
                .col("byte overhead", |t, i| {
                    format!("{:.2}×", t[i + 1].mean_bytes() / t[i].mean_bytes())
                })
        }
        "planar" => {
            for n in [150, 200, 300, 500] {
                for (kind, label) in [(Gabriel, "Gabriel"), (RelativeNeighborhood, "RNG")] {
                    let mut config = density(&paper, n);
                    config.planar = kind;
                    let labels = vec![n.to_string(), label.into()];
                    cells.extend(panel(labels, &config, 12, &[Gmp]));
                }
            }
            let title = "Ablation — perimeter routing on Gabriel vs RNG (GMP)";
            Figure::new("planar", title, &["nodes", "planar"])
                .col("failed", failed)
                .col("tasks", |t, i| t[i].tasks.to_string())
                .col("total hops", |t, i| dec(t[i].mean_transmissions(), 2))
        }
        "pbm" => {
            for (cap, cands) in [(1, 2), (2, 2), (3, 3), (4, 3), (5, 4)] {
                let pbm = PbmConfig {
                    lambda: 0.3,
                    max_subset_size: cap,
                    candidates_per_dest: cands,
                    max_candidates: 12,
                };
                let labels = vec![cap.to_string(), cands.to_string()];
                cells.push(Cell::new(labels, paper.clone(), 15, Router::Pbm(pbm)));
            }
            let title = "Ablation — PBM bounded-search sensitivity";
            Figure::new("pbm_sensitivity", title, &["|W| cap", "cands/dest"])
                .col("total hops", |t, i| dec(t[i].mean_transmissions(), 2))
                // A task that reached no destination counts as 0 hops.
                .col("per-dest hops", |t, i| {
                    dec(t[i].dest_hops / t[i].tasks as f64, 2)
                })
        }
        "power" => {
            let power = PowerControl {
                alpha: 2.0,
                overhead_w: 0.1,
            };
            let controlled = paper.clone().with_power_control(power);
            for k in [3, 12, 25] {
                for p in [Gmp, Lgs, Smt, Grd] {
                    for config in [&paper, &controlled] {
                        cells.extend(panel(vec![k.to_string()], config, k, &[p]));
                    }
                }
            }
            let title = "Ablation — fixed vs distance-scaled transmit power";
            Figure::new("power", title, &["k", "protocol"])
                .width(2)
                .col("fixed J/task", |t, i| dec(t[i].mean_energy_j(), 3))
                .col("α=2 J/task", |t, i| dec(t[i + 1].mean_energy_j(), 3))
                .col("saving", |t, i| {
                    let saving = 1.0 - t[i + 1].mean_energy_j() / t[i].mean_energy_j();
                    format!("{:.0}%", saving * 100.0)
                })
        }
        "range" => {
            for rr in [100.0, 125.0, 150.0, 175.0, 200.0] {
                let config = paper.clone().with_radio_range(rr);
                let protocols = [Gmp, Lgs, PbmBest];
                cells.extend(panel(vec![format!("{rr:.0}")], &config, 12, &protocols));
            }
            let title = "Extension — radio-range sweep (1000 nodes, k = 12)";
            Figure::new("range", title, &["range (m)", "protocol"])
                .col("total hops", |t, i| dec(t[i].mean_transmissions(), 2))
                .col("energy (J)", |t, i| dec(t[i].mean_energy_j(), 3))
                .col("failed", failed)
        }
        "loss" => {
            for n in [400, 600, 800, 1000] {
                for loss in [0.01, 0.03] {
                    let config = density(&paper, n).with_link_loss_prob(loss);
                    let labels = vec![n.to_string(), format!("{:.0}%", loss * 100.0)];
                    for mut cell in panel(labels, &config, 12, &[Pbm(0.3), Lgs, Gmp]) {
                        cell.seeded_loss = true;
                        cells.push(cell);
                    }
                }
            }
            let title = "Fidelity ablation — Figure 15 over a lossy channel";
            Figure::new("fig15_loss", title, &["nodes", "loss", "protocol"])
                .col("failed/1000", |t, i| dec(t[i].failed_per_1000(), 0))
        }
        "mactax" => {
            for p in [Gmp, Lgs, Pbm(0.3), Smt, Grd] {
                for config in [&paper, &mac] {
                    cells.extend(panel(vec![], config, 15, &[p]));
                }
            }
            let title = "Fidelity ablation — MAC retransmission tax (collisions + ARQ)";
            Figure::new("mac_tax", title, &["protocol"])
                .width(2)
                .col("ideal tx", |t, i| dec(t[i].mean_transmissions(), 1))
                .col("MAC tx", |t, i| dec(t[i + 1].mean_transmissions(), 1))
                .col("tax", |t, i| {
                    let tax = t[i + 1].transmissions as f64 / t[i].transmissions as f64;
                    format!("{:+.1}%", (tax - 1.0) * 100.0)
                })
                .col("failed", move |t, i| failed(t, i + 1))
        }
        "guarantees" => {
            // FACE-1 void detours are long but finite, and a truncated walk
            // would void the delivery certificate: raise the hop budget.
            let config = paper.with_max_path_hops(4000);
            let default = vec![Gmp, Lgs, Grd, Smt, Mcfr, Gvg];
            let protocols = args.protocols.clone().unwrap_or(default);
            cells = campaign::cells(&config, &protocols, &[0.0, 0.05, 0.10, 0.20], 10);
            // A protocol's zero-intensity cell is in the first row block.
            let p = protocols.len();
            let title = "Guarantees frontier — guaranteed delivery vs overhead, oracle-judged";
            Figure::new("guarantees", title, &["intensity", "protocol"])
                .col("delivery", |t, i| dec(t[i].delivery_ratio(), 4))
                .col("justified", |t, i| t[i].justified.to_string())
                .col("unjustified", |t, i| t[i].unjustified.to_string())
                .col("unjust rate", |t, i| dec(t[i].unjustified_rate(), 4))
                .col("dest hops", |t, i| dec(t[i].mean_dest_hops(), 2))
                .col("stretch", |t, i| {
                    finite(t[i].mean_path_stretch(), "-", |v| dec(v, 3))
                })
                .col("txs", |t, i| dec(t[i].mean_transmissions(), 1))
                .col("hop overhead", move |t, i| {
                    let overhead = hop_overhead(&t[i], &t[i % p]);
                    finite(overhead, "-", |v| format!("{:+.1}%", v * 100.0))
                })
        }
        _ => return None,
    };
    Some((cells, vec![fig]))
}

fn report(path: &Path, written: io::Result<()>) {
    match written {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Prints `table` under `title` and writes it to `<out>/<name>.csv`.
fn print_table(out: &Path, name: &str, title: &str, table: &[Vec<String>]) {
    println!("\n{title}\n{}", render_table(table));
    let path = out.join(format!("{name}.csv"));
    report(&path, write_csv(&path, table));
}

/// Prints and writes one figure: its table, and its chart if it has one.
fn draw(out: &Path, fig: &Figure, cells: &[Cell], tallies: &[Tally]) {
    let mut header: Vec<String> = fig.labels.iter().map(|h| h.to_string()).collect();
    header.extend(fig.columns.iter().map(|(h, _)| h.clone()));
    let mut table = vec![header];
    for i in (0..cells.len()).step_by(fig.width) {
        let mut line = cells[i].labels[..fig.labels.len()].to_vec();
        line.extend(fig.columns.iter().map(|(_, format)| format(tallies, i)));
        table.push(line);
    }
    print_table(out, fig.name, fig.title, &table);
    if let Some((title, x_label, y_label, metric)) = fig.chart {
        let mut chart = LineChart::new(title, x_label, y_label);
        // The series are the protocols at the first x value.
        let first_x = cells
            .iter()
            .take_while(|c| c.labels[0] == cells[0].labels[0]);
        for s in first_x.map(|c| c.labels[1].as_str()) {
            let points = cells.iter().zip(tallies).filter(|(c, _)| c.labels[1] == s);
            let points = points.map(|(c, t)| (c.labels[0].parse().expect("numeric x"), metric(t)));
            chart.series(s, points.collect());
        }
        let path = out.join(format!("{}.svg", fig.name));
        report(&path, fs::write(&path, chart.render_svg()));
    }
}

/// `BENCH_6.json`: the guarantees frontier's tallies, machine-readable.
/// Row `i`'s hop overhead compares it with `tallies[i % protocols]`, its
/// protocol's intensity-0 row.
fn bench6_json(scale: &Scale, cells: &[Cell], tallies: &[Tally]) -> String {
    let json_f64 = |v: f64| finite(v, "null", |v| dec(v, 6));
    let intensity = |c: &Cell| c.crashes.expect("a campaign cell").0;
    let first = &cells[0];
    let protocols: Vec<String> = (cells.iter())
        .take_while(|c| intensity(c) == intensity(first))
        .map(|c| format!("\"{}\"", c.labels[1]))
        .collect();
    let intensities: Vec<String> = (cells.iter().step_by(protocols.len()))
        .map(|c| intensity(c).to_string())
        .collect();
    let mut json = format!(
        "{{\n  \"schema\": \"gmp-bench/6\",\n  \"workload\": {{\n    \"nodes\": {},\n    \
         \"k\": {},\n    \"networks\": {},\n    \"tasks_per_network\": {},\n    \
         \"max_path_hops\": {},\n    \"intensities\": [{}],\n    \"protocols\": [{}]\n  }},\n  \
         \"rows\": [\n",
        first.config.node_count,
        first.k,
        scale.networks,
        scale.tasks_per_network,
        first.config.max_path_hops,
        intensities.join(", "),
        protocols.join(", "),
    );
    for (i, (cell, t)) in cells.iter().zip(tallies).enumerate() {
        let causes =
            FailureCause::ALL.map(|c| format!("\"{}\": {}", c.as_str(), t.causes[c.index()]));
        json.push_str(&format!(
            "    {{ \"intensity\": {}, \"protocol\": \"{}\", \"delivered\": {}, \"total_dests\": {}, \
             \"delivery_ratio\": {}, \"justified_failures\": {}, \"unjustified_failures\": {}, \
             \"unjustified_rate\": {}, \"mean_dest_hops\": {}, \"mean_path_stretch\": {}, \
             \"total_hops\": {}, \"hop_overhead\": {}, \"causes\": {{ {} }} }}{}\n",
            intensity(cell),
            cell.labels[1],
            t.delivered,
            t.dests,
            json_f64(t.delivery_ratio()),
            t.justified,
            t.unjustified,
            json_f64(t.unjustified_rate()),
            json_f64(t.mean_dest_hops()),
            json_f64(t.mean_path_stretch()),
            json_f64(t.mean_transmissions()),
            json_f64(hop_overhead(t, &tallies[i % protocols.len()])),
            causes.join(", "),
            if i + 1 < cells.len() { "," } else { "" },
        ));
    }
    json + "  ]\n}\n"
}

/// Runs one command; `Err` if there is no such command or `guarantees`
/// finds its delivery certificate broken.
fn run(cmd: &str, args: &Args, every: bool) -> Result<(), String> {
    let out = &args.out;
    match cmd {
        "treelen" => {
            let header = ["n", "rrSTR len", "MST len", "ratio", "virtual junctions"];
            let mut table = vec![header.map(String::from).to_vec()];
            for r in tree_length_ablation(&[3, 5, 10, 15, 20, 25], 200) {
                let (rr, mst) = (dec(r.rrstr_len, 0), dec(r.mst_len, 0));
                table.push(vec![
                    r.n.to_string(),
                    rr,
                    mst,
                    dec(r.ratio, 4),
                    dec(r.virtuals, 2),
                ]);
            }
            let title = "Ablation — rrSTR vs MST tree length (range-oblivious)";
            print_table(out, "treelen", title, &table);
        }
        "mobility" => {
            let header = ["staleness (s)", "broken links", "stale GMP transmissions"];
            let mut table = vec![header.map(String::from).to_vec()];
            let staleness = [0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 60.0];
            for r in mobility_ablation(500, (1.0, 5.0), &staleness, 30, 9) {
                let percent = |v: f64| format!("{:.1}%", v * 100.0);
                let broken = percent(r.broken_links);
                table.push(vec![
                    dec(r.staleness_s, 0),
                    broken,
                    percent(r.stale_tx_fraction),
                ]);
            }
            let title =
                "Ablation — random-waypoint mobility vs stale positions (500 nodes, 1–5 m/s)";
            print_table(out, "mobility", title, &table);
        }
        _ => {
            let Some((cells, figures)) = plan(cmd, args, every) else {
                return Err(format!("unknown command: {cmd}\n{USAGE}"));
            };
            let scale = &args.scale;
            let (networks, tasks) = (scale.networks, scale.tasks_per_network);
            eprintln!(
                "running {cmd}: {} cells × {networks} networks × {tasks} tasks…",
                cells.len()
            );
            let start = Instant::now();
            let tallies = sweep(&cells, scale, args.threads);
            eprintln!("{cmd} finished in {:.1}s", start.elapsed().as_secs_f64());
            for fig in &figures {
                draw(out, fig, &cells, &tallies);
            }
            if cmd == "guarantees" {
                let path = out.join("BENCH_6.json");
                let json = bench6_json(scale, &cells, &tallies);
                report(&path, fs::write(&path, json));
                campaign::check_certificate(&cells, &tallies)
                    .map_err(|e| format!("delivery certificate broken at {e}"))?;
                eprintln!(
                    "guarantees: the delivery certificate holds on all {} rows",
                    cells.len()
                );
            }
        }
    }
    Ok(())
}

const USAGE: &str = "usage: experiments <all|fig11|fig12|fig14|figlatency|fig15|overhead|treelen|planar|pbm|mobility|power|range|loss|fig15mac|mactax|guarantees> \
                     [--quick|--standard|--paper] [--threads N] [--out DIR] [--protocols LIST]";

/// What `all` runs, in order; `fig11` stands for the whole destination
/// sweep (Figures 11, 12, 14 and the latency extension).
const ALL: &str = "fig11 fig15 overhead treelen planar pbm mobility power range loss fig15mac \
                   mactax guarantees";

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let every = args.command == "all";
    let commands: Vec<&str> = match every {
        true => ALL.split_whitespace().collect(),
        false => vec![&args.command],
    };
    for cmd in commands {
        if let Err(e) = run(cmd, &args, every) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
