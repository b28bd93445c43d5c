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
//!   guarantees-vs-overhead frontier (`BENCH_6.json`);
//!
//! or `all` for everything. Results are printed as tables and written as
//! CSV (plus SVG charts for the figures) under `--out` (default
//! `results/`). `--threads N` caps the worker pool (default: all cores).
//! `--protocols GMP,MCFR,…` filters the `guarantees` panel (unknown names
//! warn and are skipped; an empty selection falls back to the default).
//!
//! Every file a command writes is a function of its scale alone: the same
//! command writes the same bytes at any `--threads`. Wall-clock times go to
//! stderr. Performance is measured by the separate benchmark package
//! (`benchmark/`), not here.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use gmp_baselines::ProtocolKind;
use gmp_bench::chart::LineChart;
use gmp_bench::experiments::{
    density_sweep, destination_sweep, loss_sweep, mac_tax, mobility_ablation, overhead_ablation,
    pbm_sensitivity, planar_ablation, power_ablation, range_sweep, set_worker_threads,
    tree_length_ablation, Scale, SweepRow,
};
use gmp_bench::table::{render_table, write_csv};
use gmp_sim::SimConfig;

fn sweep_protocols() -> Vec<ProtocolKind> {
    vec![
        ProtocolKind::PbmBest,
        ProtocolKind::Lgs,
        ProtocolKind::Gmp,
        ProtocolKind::GmpNr,
        ProtocolKind::Smt,
        ProtocolKind::Grd,
    ]
}

/// Pivot sweep rows into a k × protocol table for one metric.
fn pivot(
    rows: &[SweepRow],
    protocols: &[ProtocolKind],
    metric: impl Fn(&SweepRow) -> f64,
) -> Vec<Vec<String>> {
    let mut ks: Vec<usize> = rows.iter().map(|r| r.k).collect();
    ks.sort_unstable();
    ks.dedup();
    let mut table = Vec::new();
    let mut header = vec!["k".to_string()];
    header.extend(protocols.iter().map(|p| p.to_string()));
    table.push(header);
    for k in ks {
        let mut line = vec![k.to_string()];
        for p in protocols {
            let label = p.to_string();
            let cell = rows
                .iter()
                .find(|r| r.k == k && r.protocol == label)
                .map(|r| format!("{:.2}", metric(r)))
                .unwrap_or_else(|| "-".into());
            line.push(cell);
        }
        table.push(line);
    }
    table
}

struct Args {
    command: String,
    scale: Scale,
    out: PathBuf,
    threads: usize,
    /// `--protocols` filter for `guarantees`; `None` = its default panel.
    protocols: Option<Vec<ProtocolKind>>,
}

/// Parses the `--protocols` comma-separated name list with the same
/// warn-and-default discipline as the environment knobs: unknown names
/// are reported on stderr and skipped, and a list that selects nothing
/// falls back to the command's default panel.
fn parse_protocol_filter(list: &str) -> Option<Vec<ProtocolKind>> {
    let mut kinds: Vec<ProtocolKind> = Vec::new();
    for token in list.split(',').filter(|t| !t.trim().is_empty()) {
        match token.parse() {
            Ok(kind) => {
                if !kinds.contains(&kind) {
                    kinds.push(kind);
                }
            }
            Err(e) => eprintln!("warning: {e} in --protocols; ignoring it"),
        }
    }
    if kinds.is_empty() {
        eprintln!("warning: --protocols {list:?} selects nothing; using the default panel");
        None
    } else {
        Some(kinds)
    }
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
            "--out" => {
                out = PathBuf::from(it.next().ok_or("--out needs a directory")?);
            }
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
                protocols = parse_protocol_filter(&list);
            }
            c if !c.starts_with('-') && command.is_none() => command = Some(c.to_string()),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(Args {
        command: command.unwrap_or_else(|| "all".into()),
        scale,
        out,
        threads,
        protocols,
    })
}

fn run_sweep_figures(args: &Args, which: &[&str]) {
    let config = SimConfig::paper();
    let protocols = sweep_protocols();
    eprintln!(
        "running destination sweep: k ∈ {:?}, {} networks × {} tasks, {} protocols…",
        args.scale.k_values,
        args.scale.networks,
        args.scale.tasks_per_network,
        protocols.len()
    );
    let start = Instant::now();
    let rows = destination_sweep(&config, &args.scale, &protocols);
    eprintln!("sweep finished in {:.1}s", start.elapsed().as_secs_f64());

    type Metric = Box<dyn Fn(&SweepRow) -> f64>;
    let figures: [(&str, &str, Metric); 4] = [
        (
            "fig11",
            "Figure 11 — total number of hops per task",
            Box::new(|r: &SweepRow| r.total_hops),
        ),
        (
            "fig12",
            "Figure 12 — per-destination hop count",
            Box::new(|r: &SweepRow| r.dest_hops),
        ),
        (
            "fig14",
            "Figure 14 — total energy cost per task (J)",
            Box::new(|r: &SweepRow| r.energy_j),
        ),
        (
            "figlatency",
            "Extension — mean task completion time (ms)",
            Box::new(|r: &SweepRow| r.latency_ms),
        ),
    ];
    for (name, title, metric) in figures {
        if !which.contains(&name) {
            continue;
        }
        let table = pivot(&rows, &protocols, metric.as_ref());
        println!("\n{title}\n{}", render_table(&table));
        let path = args.out.join(format!("{name}.csv"));
        if let Err(e) = write_csv(&path, &table) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            eprintln!("wrote {}", path.display());
        }
        // Regenerate the figure itself.
        let mut chart = LineChart::new(
            title,
            "number of destinations (k)",
            title.split("— ").nth(1).unwrap_or("value"),
        );
        for p in &protocols {
            let label = p.to_string();
            let pts: Vec<(f64, f64)> = rows
                .iter()
                .filter(|r| r.protocol == label)
                .map(|r| (r.k as f64, metric(r)))
                .collect();
            chart.series(label, pts);
        }
        let svg_path = args.out.join(format!("{name}.svg"));
        match std::fs::write(&svg_path, chart.render_svg()) {
            Ok(()) => eprintln!("wrote {}", svg_path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", svg_path.display()),
        }
    }
}

fn run_fig15(args: &Args) {
    let config = SimConfig::paper();
    let protocols = [ProtocolKind::PbmBest, ProtocolKind::Lgs, ProtocolKind::Gmp];
    // The paper sweeps 400–1000 nodes; under this repo's idealized MAC the
    // void-driven failure regime only starts below ~300 nodes (ns-2's
    // 802.11 losses pushed it higher), so sparser extension points are
    // included to expose the protocols' failure ordering. See
    // EXPERIMENTS.md.
    let node_counts = [120usize, 160, 200, 250, 300, 400, 600, 800, 1000];
    eprintln!(
        "running density sweep: nodes ∈ {node_counts:?}, k = 12, {} networks × {} tasks…",
        args.scale.networks, args.scale.tasks_per_network
    );
    let start = Instant::now();
    let rows = density_sweep(&config, &args.scale, &protocols, &node_counts);
    eprintln!(
        "density sweep finished in {:.1}s",
        start.elapsed().as_secs_f64()
    );

    let mut table = vec![vec![
        "nodes".to_string(),
        "protocol".to_string(),
        "failed".to_string(),
        "tasks".to_string(),
        "failed/1000".to_string(),
    ]];
    for r in &rows {
        table.push(vec![
            r.nodes.to_string(),
            r.protocol.clone(),
            r.failed_tasks.to_string(),
            r.total_tasks.to_string(),
            format!("{:.1}", r.failed_per_1000),
        ]);
    }
    println!(
        "\nFigure 15 — failed tasks for different network densities\n{}",
        render_table(&table)
    );
    let path = args.out.join("fig15.csv");
    match write_csv(&path, &table) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    let mut chart = LineChart::new(
        "Figure 15 — failed tasks per 1000 vs density",
        "number of nodes",
        "failed tasks per 1000",
    );
    for proto in &protocols {
        let label = proto.to_string();
        let pts: Vec<(f64, f64)> = rows
            .iter()
            .filter(|r| r.protocol == label)
            .map(|r| (r.nodes as f64, r.failed_per_1000))
            .collect();
        chart.series(label, pts);
    }
    let svg_path = args.out.join("fig15.svg");
    match std::fs::write(&svg_path, chart.render_svg()) {
        Ok(()) => eprintln!("wrote {}", svg_path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", svg_path.display()),
    }
}

fn run_overhead(args: &Args) {
    let config = SimConfig::paper();
    eprintln!("running header-overhead ablation…");
    let rows = overhead_ablation(&config, &args.scale);
    let mut table = vec![vec![
        "k".to_string(),
        "fixed B/task".to_string(),
        "encoded B/task".to_string(),
        "fixed J/task".to_string(),
        "encoded J/task".to_string(),
        "byte overhead".to_string(),
    ]];
    for r in &rows {
        table.push(vec![
            r.k.to_string(),
            format!("{:.0}", r.fixed_bytes),
            format!("{:.0}", r.encoded_bytes),
            format!("{:.4}", r.fixed_energy_j),
            format!("{:.4}", r.encoded_energy_j),
            format!("{:.2}×", r.encoded_bytes / r.fixed_bytes),
        ]);
    }
    println!(
        "\nAblation — destination-list header overhead (GMP)\n{}",
        render_table(&table)
    );
    let path = args.out.join("overhead.csv");
    match write_csv(&path, &table) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

fn run_treelen(args: &Args) {
    eprintln!("running rrSTR vs MST tree-length ablation…");
    let rows = tree_length_ablation(&[3, 5, 10, 15, 20, 25], 200);
    let mut table = vec![vec![
        "n".to_string(),
        "rrSTR len".to_string(),
        "MST len".to_string(),
        "ratio".to_string(),
        "virtual junctions".to_string(),
    ]];
    for r in &rows {
        table.push(vec![
            r.n.to_string(),
            format!("{:.0}", r.rrstr_len),
            format!("{:.0}", r.mst_len),
            format!("{:.4}", r.ratio),
            format!("{:.2}", r.virtuals),
        ]);
    }
    println!(
        "\nAblation — rrSTR vs MST tree length (range-oblivious)\n{}",
        render_table(&table)
    );
    let path = args.out.join("treelen.csv");
    match write_csv(&path, &table) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

fn run_planar(args: &Args) {
    let config = SimConfig::paper();
    eprintln!("running planar-subgraph ablation (GMP, k = 12)…");
    let rows = planar_ablation(&config, &args.scale, &[150, 200, 300, 500]);
    let mut table = vec![vec![
        "nodes".to_string(),
        "planar".to_string(),
        "failed".to_string(),
        "tasks".to_string(),
        "total hops".to_string(),
    ]];
    for r in &rows {
        table.push(vec![
            r.nodes.to_string(),
            r.planar.clone(),
            r.failed_tasks.to_string(),
            r.total_tasks.to_string(),
            format!("{:.2}", r.total_hops),
        ]);
    }
    println!(
        "\nAblation — perimeter routing on Gabriel vs RNG (GMP)\n{}",
        render_table(&table)
    );
    let path = args.out.join("planar.csv");
    match write_csv(&path, &table) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

fn run_pbm_sensitivity(args: &Args) {
    let config = SimConfig::paper();
    eprintln!("running PBM search-bound sensitivity (λ = 0.3, k = 15)…");
    let rows = pbm_sensitivity(&config, &args.scale, 15);
    let mut table = vec![vec![
        "|W| cap".to_string(),
        "cands/dest".to_string(),
        "total hops".to_string(),
        "per-dest hops".to_string(),
    ]];
    for r in &rows {
        table.push(vec![
            r.max_subset_size.to_string(),
            r.candidates_per_dest.to_string(),
            format!("{:.2}", r.total_hops),
            format!("{:.2}", r.dest_hops),
        ]);
        // Wall-clock time differs run to run, so it stays out of the CSV.
        eprintln!(
            "|W| cap {}: {:.2} s routing",
            r.max_subset_size, r.routing_seconds
        );
    }
    println!(
        "\nAblation — PBM bounded-search sensitivity\n{}",
        render_table(&table)
    );
    let path = args.out.join("pbm_sensitivity.csv");
    match write_csv(&path, &table) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

fn run_mobility(args: &Args) {
    eprintln!("running position-staleness (mobility) ablation…");
    let rows = mobility_ablation(
        500,
        (1.0, 5.0),
        &[0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 60.0],
        30,
        9,
    );
    let mut table = vec![vec![
        "staleness (s)".to_string(),
        "broken links".to_string(),
        "stale GMP transmissions".to_string(),
    ]];
    for r in &rows {
        table.push(vec![
            format!("{:.0}", r.staleness_s),
            format!("{:.1}%", r.broken_links * 100.0),
            format!("{:.1}%", r.stale_tx_fraction * 100.0),
        ]);
    }
    println!(
        "\nAblation — random-waypoint mobility vs stale positions (500 nodes, 1–5 m/s)\n{}",
        render_table(&table)
    );
    let path = args.out.join("mobility.csv");
    match write_csv(&path, &table) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

fn run_power(args: &Args) {
    let config = SimConfig::paper();
    eprintln!("running power-control ablation…");
    let mut scale = args.scale.clone();
    scale.k_values = vec![3, 12, 25];
    let protocols = [
        ProtocolKind::Gmp,
        ProtocolKind::Lgs,
        ProtocolKind::Smt,
        ProtocolKind::Grd,
    ];
    let rows = power_ablation(&config, &scale, &protocols);
    let mut table = vec![vec![
        "k".to_string(),
        "protocol".to_string(),
        "fixed J/task".to_string(),
        "α=2 J/task".to_string(),
        "saving".to_string(),
    ]];
    for r in &rows {
        table.push(vec![
            r.k.to_string(),
            r.protocol.clone(),
            format!("{:.3}", r.fixed_energy_j),
            format!("{:.3}", r.controlled_energy_j),
            format!(
                "{:.0}%",
                (1.0 - r.controlled_energy_j / r.fixed_energy_j) * 100.0
            ),
        ]);
    }
    println!(
        "\nAblation — fixed vs distance-scaled transmit power\n{}",
        render_table(&table)
    );
    let path = args.out.join("power.csv");
    match write_csv(&path, &table) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

fn run_range(args: &Args) {
    let config = SimConfig::paper();
    eprintln!("running radio-range sweep (k = 12)…");
    let protocols = [ProtocolKind::Gmp, ProtocolKind::Lgs, ProtocolKind::PbmBest];
    let ranges = [100.0, 125.0, 150.0, 175.0, 200.0];
    let rows = range_sweep(&config, &args.scale, &protocols, &ranges);
    let mut table = vec![vec![
        "range (m)".to_string(),
        "protocol".to_string(),
        "total hops".to_string(),
        "energy (J)".to_string(),
        "failed".to_string(),
    ]];
    for r in &rows {
        table.push(vec![
            format!("{:.0}", r.radio_range),
            r.protocol.clone(),
            format!("{:.2}", r.total_hops),
            format!("{:.3}", r.energy_j),
            r.failed_tasks.to_string(),
        ]);
    }
    println!(
        "\nExtension — radio-range sweep (1000 nodes, k = 12)\n{}",
        render_table(&table)
    );
    let path = args.out.join("range.csv");
    match write_csv(&path, &table) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

fn run_fig15mac(args: &Args) {
    let config = SimConfig::paper()
        .with_collisions(true)
        .with_tx_jitter(0.005)
        .with_retransmissions(7);
    eprintln!(
        "running Figure 15 with collisions, 5 ms carrier-sense jitter, 7 retransmissions (k = 12)…"
    );
    let protocols = [ProtocolKind::Pbm(0.3), ProtocolKind::Lgs, ProtocolKind::Gmp];
    let node_counts = [400usize, 600, 800, 1000];
    let rows = density_sweep(&config, &args.scale, &protocols, &node_counts);
    let mut table = vec![vec![
        "nodes".to_string(),
        "protocol".to_string(),
        "failed".to_string(),
        "tasks".to_string(),
        "failed/1000".to_string(),
    ]];
    for r in &rows {
        table.push(vec![
            r.nodes.to_string(),
            r.protocol.clone(),
            r.failed_tasks.to_string(),
            r.total_tasks.to_string(),
            format!("{:.1}", r.failed_per_1000),
        ]);
    }
    println!(
        "\nFidelity ablation — Figure 15 with half-duplex/co-channel collisions\n{}",
        render_table(&table)
    );
    let path = args.out.join("fig15_mac.csv");
    match write_csv(&path, &table) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

fn run_mactax(args: &Args) {
    let config = SimConfig::paper();
    eprintln!("running MAC retransmission-tax ablation (k = 15)…");
    let protocols = [
        ProtocolKind::Gmp,
        ProtocolKind::Lgs,
        ProtocolKind::Pbm(0.3),
        ProtocolKind::Smt,
        ProtocolKind::Grd,
    ];
    let rows = mac_tax(&config, &args.scale, &protocols, 15);
    let mut table = vec![vec![
        "protocol".to_string(),
        "ideal tx".to_string(),
        "MAC tx".to_string(),
        "tax".to_string(),
        "failed".to_string(),
    ]];
    for r in &rows {
        table.push(vec![
            r.protocol.clone(),
            format!("{:.1}", r.ideal_tx),
            format!("{:.1}", r.mac_tx),
            format!("{:+.1}%", r.tax * 100.0),
            r.failed_tasks.to_string(),
        ]);
    }
    println!(
        "\nFidelity ablation — MAC retransmission tax (collisions + ARQ)\n{}",
        render_table(&table)
    );
    let path = args.out.join("mac_tax.csv");
    match write_csv(&path, &table) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

fn run_loss(args: &Args) {
    let config = SimConfig::paper();
    eprintln!("running lossy-channel Figure 15 variant (k = 12)…");
    let protocols = [ProtocolKind::Pbm(0.3), ProtocolKind::Lgs, ProtocolKind::Gmp];
    let rows = loss_sweep(
        &config,
        &args.scale,
        &protocols,
        &[400, 600, 800, 1000],
        &[0.01, 0.03],
    );
    let mut table = vec![vec![
        "nodes".to_string(),
        "loss".to_string(),
        "protocol".to_string(),
        "failed/1000".to_string(),
    ]];
    for r in &rows {
        table.push(vec![
            r.nodes.to_string(),
            format!("{:.0}%", r.loss * 100.0),
            r.protocol.clone(),
            format!("{:.0}", r.failed_per_1000),
        ]);
    }
    println!(
        "\nFidelity ablation — Figure 15 over a lossy channel\n{}",
        render_table(&table)
    );
    let path = args.out.join("fig15_loss.csv");
    match write_csv(&path, &table) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Formats an f64 for JSON: non-finite values become `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".into()
    }
}

/// The guarantees-vs-overhead frontier behind `BENCH_6.json`: crash an
/// increasing fraction of nodes at t = 0 and let the delivery-guarantee
/// oracle split every failed destination into justified
/// (graph-disconnected) and unjustified (protocol-attributable) losses,
/// with the guaranteed-delivery protocols (MCFR/GVG) alongside the
/// best-effort panel so delivery ratio, unjustified failures,
/// transmissions, and path stretch can be traded off in one table. The
/// hop budget is raised well above the default because FACE-1 void
/// detours are long but finite — a truncated walk would void the
/// certificate. See EXPERIMENTS.md.
fn run_guarantees(args: &Args) {
    use gmp_bench::campaign::robustness_campaign;
    use gmp_sim::FailureCause;

    let config = &SimConfig::paper().with_max_path_hops(4000);
    let protocols = &args.protocols.clone().unwrap_or_else(|| {
        vec![
            ProtocolKind::Gmp,
            ProtocolKind::Lgs,
            ProtocolKind::Grd,
            ProtocolKind::Smt,
            ProtocolKind::Mcfr,
            ProtocolKind::Gvg,
        ]
    });
    let intensities = &[0.0, 0.05, 0.10, 0.20];
    let k = 10;
    eprintln!(
        "running {}: intensity ∈ {intensities:?}, k = {k}, {} networks × {} tasks, {} protocols…",
        args.command,
        args.scale.networks,
        args.scale.tasks_per_network,
        protocols.len()
    );
    let start = Instant::now();
    let rows = robustness_campaign(config, &args.scale, protocols, intensities, k);
    eprintln!(
        "{} finished in {:.1}s",
        args.command,
        start.elapsed().as_secs_f64()
    );

    let mut table = vec![vec![
        "intensity".to_string(),
        "protocol".to_string(),
        "delivery".to_string(),
        "justified".to_string(),
        "unjustified".to_string(),
        "unjust rate".to_string(),
        "dest hops".to_string(),
        "stretch".to_string(),
        "txs".to_string(),
        "hop overhead".to_string(),
    ]];
    for r in &rows {
        table.push(vec![
            format!("{:.2}", r.intensity),
            r.protocol.clone(),
            format!("{:.4}", r.delivery_ratio),
            r.justified_failures.to_string(),
            r.unjustified_failures.to_string(),
            format!("{:.4}", r.unjustified_rate),
            format!("{:.2}", r.mean_dest_hops),
            if r.mean_path_stretch.is_finite() {
                format!("{:.3}", r.mean_path_stretch)
            } else {
                "-".into()
            },
            format!("{:.1}", r.total_hops),
            if r.hop_overhead.is_finite() {
                format!("{:+.1}%", r.hop_overhead * 100.0)
            } else {
                "-".into()
            },
        ]);
    }
    println!(
        "\nGuarantees frontier — guaranteed delivery vs overhead, oracle-judged\n{}",
        render_table(&table)
    );
    let csv_path = args.out.join("guarantees.csv");
    match write_csv(&csv_path, &table) {
        Ok(()) => eprintln!("wrote {}", csv_path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", csv_path.display()),
    }

    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"gmp-bench/6\",\n  \"workload\": {\n");
    json.push_str(&format!("    \"nodes\": {},\n", config.node_count));
    json.push_str(&format!("    \"k\": {k},\n"));
    json.push_str(&format!("    \"networks\": {},\n", args.scale.networks));
    json.push_str(&format!(
        "    \"tasks_per_network\": {},\n",
        args.scale.tasks_per_network
    ));
    json.push_str(&format!(
        "    \"max_path_hops\": {},\n",
        config.max_path_hops
    ));
    json.push_str(&format!(
        "    \"intensities\": [{}],\n",
        intensities
            .iter()
            .map(|i| format!("{i}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str(&format!(
        "    \"protocols\": [{}]\n  }},\n  \"rows\": [\n",
        protocols
            .iter()
            .map(|p| format!("\"{p}\""))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    for (i, r) in rows.iter().enumerate() {
        let causes = FailureCause::ALL
            .iter()
            .map(|c| format!("\"{}\": {}", c.as_str(), r.cause_counts[c.index()]))
            .collect::<Vec<_>>()
            .join(", ");
        json.push_str(&format!(
            "    {{ \"intensity\": {}, \"protocol\": \"{}\", \"delivered\": {}, \"total_dests\": {}, \
             \"delivery_ratio\": {}, \"justified_failures\": {}, \"unjustified_failures\": {}, \
             \"unjustified_rate\": {}, \"mean_dest_hops\": {}, \"mean_path_stretch\": {}, \
             \"total_hops\": {}, \"hop_overhead\": {}, \"causes\": {{ {} }} }}{}\n",
            r.intensity,
            r.protocol,
            r.delivered,
            r.total_dests,
            json_f64(r.delivery_ratio),
            r.justified_failures,
            r.unjustified_failures,
            json_f64(r.unjustified_rate),
            json_f64(r.mean_dest_hops),
            json_f64(r.mean_path_stretch),
            json_f64(r.total_hops),
            json_f64(r.hop_overhead),
            causes,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("warning: could not create {}: {e}", args.out.display());
    }
    let path = args.out.join("BENCH_6.json");
    match std::fs::write(&path, &json) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

const USAGE: &str = "usage: experiments <all|fig11|fig12|fig14|figlatency|fig15|overhead|treelen|planar|pbm|mobility|power|range|loss|fig15mac|mactax|guarantees> \
                     [--quick|--standard|--paper] [--threads N] [--out DIR] [--protocols LIST]";

fn main() -> ExitCode {
    let mut args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    // Precedence: an explicit --threads wins; otherwise the
    // GMP_BENCH_THREADS environment knob (malformed values warn and fall
    // back to the default); otherwise all available cores.
    if args.threads == 0 {
        args.threads = gmp_bench::experiments::threads_from_env();
    }
    set_worker_threads(args.threads);
    match args.command.as_str() {
        "all" => {
            run_sweep_figures(&args, &["fig11", "fig12", "fig14", "figlatency"]);
            run_fig15(&args);
            run_overhead(&args);
            run_treelen(&args);
            run_planar(&args);
            run_pbm_sensitivity(&args);
            run_mobility(&args);
            run_power(&args);
            run_range(&args);
            run_loss(&args);
            run_fig15mac(&args);
            run_mactax(&args);
            run_guarantees(&args);
        }
        "fig11" => run_sweep_figures(&args, &["fig11"]),
        "fig12" => run_sweep_figures(&args, &["fig12"]),
        "fig14" => run_sweep_figures(&args, &["fig14"]),
        "figlatency" => run_sweep_figures(&args, &["figlatency"]),
        "planar" => run_planar(&args),
        "pbm" => run_pbm_sensitivity(&args),
        "mobility" => run_mobility(&args),
        "power" => run_power(&args),
        "range" => run_range(&args),
        "loss" => run_loss(&args),
        "fig15mac" => run_fig15mac(&args),
        "mactax" => run_mactax(&args),
        "guarantees" => run_guarantees(&args),
        "fig15" => run_fig15(&args),
        "overhead" => run_overhead(&args),
        "treelen" => run_treelen(&args),
        other => {
            eprintln!("error: unknown command: {other}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
