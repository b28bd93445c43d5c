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
//! `--protocols GMP,MCFR,…` filters the `guarantees` panel (unknown tokens
//! warn and are skipped; an empty selection falls back to the default).
//!
//! `bench` is different: it runs the fixed perf workload and writes
//! `BENCH_1.json` (decisions/sec, tasks/sec, wall-clock, allocs/decision)
//! under `--out` — the machine-readable perf trajectory described in
//! EXPERIMENTS.md. Run it from a `--release` build.
//!
//! `scale` runs the million-node scale curve over the sharded lazy
//! substrate and writes `BENCH_4.json` (per-task throughput, build time,
//! and peak RSS at 1k/10k/100k/1M nodes; `--quick` stops at 10k).
//!
//! `service` runs the concurrent session engine (`gmp-service`) against
//! back-to-back sequential runs of the identical session set and writes
//! `BENCH_5.json` (sessions/s, decisions/s, p50/p99 session latency under
//! churn; `--quick` runs the paper topology at 1k sessions).

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use gmp_bench::chart::LineChart;
use gmp_bench::experiments::{
    density_sweep, destination_sweep, loss_sweep, mac_tax, mobility_ablation, overhead_ablation,
    pbm_sensitivity, planar_ablation, power_ablation, range_sweep, set_worker_threads,
    tree_length_ablation, Scale, SweepRow,
};
use gmp_bench::protocols::ProtocolKind;
use gmp_bench::table::{render_table, write_csv};
use gmp_sim::SimConfig;

/// Counts heap allocations so the `bench` command can report
/// allocs/decision from a real run (the same metric the
/// `alloc_free` integration test asserts to be zero). A relaxed
/// fetch-add per allocation is noise for every other command.
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

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
    header.extend(protocols.iter().map(|p| p.label()));
    table.push(header);
    for k in ks {
        let mut line = vec![k.to_string()];
        for p in protocols {
            let label = p.label();
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

/// Parses the `--protocols` comma-separated token list with the same
/// warn-and-default discipline as the environment knobs: unknown tokens
/// are reported on stderr and skipped, and a list that selects nothing
/// falls back to the command's default panel.
fn parse_protocol_filter(list: &str) -> Option<Vec<ProtocolKind>> {
    let mut kinds: Vec<ProtocolKind> = Vec::new();
    for token in list.split(',').filter(|t| !t.trim().is_empty()) {
        match ProtocolKind::from_token(token) {
            Some(kind) => {
                if !kinds.contains(&kind) {
                    kinds.push(kind);
                }
            }
            None => eprintln!(
                "warning: unknown protocol {token:?} in --protocols; ignoring it (known: \
                 GMP, GMPnr, PBM, LGS, LGK, GRD, DSM, SMT, MCFR, GVG)"
            ),
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
            let label = p.label();
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
        let label = proto.label();
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
        "routing secs".to_string(),
    ]];
    for r in &rows {
        table.push(vec![
            r.max_subset_size.to_string(),
            r.candidates_per_dest.to_string(),
            format!("{:.2}", r.total_hops),
            format!("{:.2}", r.dest_hops),
            format!("{:.2}", r.routing_seconds),
        ]);
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

/// The fixed perf workload behind `BENCH_1.json`: steady-state forwarding
/// decisions through one warmed [`gmp_core::DecisionScratch`] fronted by
/// the [`gmp_core::TreeCache`] (the decision path as the router actually
/// runs it), full multicast tasks through the simulator, and the
/// allocation counter sampled around the decision loop.
fn run_bench(args: &Args) {
    use gmp_core::{DecisionScratch, TreeCache};
    use gmp_net::Topology;
    use gmp_sim::MulticastTask;

    let wall_start = Instant::now();
    let config = SimConfig::paper();
    let topo = Topology::random(&config.topology_config(), 1);
    let ks = [5usize, 15, 25];
    let tasks: Vec<MulticastTask> = (0..30)
        .map(|i| MulticastTask::random(&topo, ks[i % ks.len()], 100 + i as u64))
        .collect();

    // Per-hop decision throughput at the source, through the decision
    // cache exactly as GmpRouter runs it. Two warm-up passes grow the
    // scratch to its high-water capacities and populate the cache; the
    // measured passes then serve verified hits allocation-free (the
    // `alloc_free` test asserts exactly this).
    eprintln!(
        "bench: decision throughput over {} tasks, k ∈ {ks:?}…",
        tasks.len()
    );
    let mut scratch = DecisionScratch::new();
    let mut cache = TreeCache::new();
    for _ in 0..2 {
        for t in &tasks {
            cache.group_destinations_cached(
                &mut scratch,
                &topo,
                t.source,
                &t.dests,
                true,
                None,
                None,
            );
        }
    }
    let warm_stats = cache.stats();
    let rounds = 300usize;
    let allocs_before = ALLOCS.load(Ordering::SeqCst);
    let t0 = Instant::now();
    let mut covered = 0usize;
    for _ in 0..rounds {
        for t in &tasks {
            let g = cache.group_destinations_cached(
                &mut scratch,
                &topo,
                t.source,
                &t.dests,
                true,
                None,
                None,
            );
            covered += g.covered.len();
        }
    }
    let decision_secs = t0.elapsed().as_secs_f64();
    let allocs_after = ALLOCS.load(Ordering::SeqCst);
    let decisions = rounds * tasks.len();
    let decisions_per_sec = decisions as f64 / decision_secs;
    let allocs_per_decision = ratio((allocs_after - allocs_before) as f64, decisions as f64);
    assert!(covered > 0, "decision workload routed nothing");
    // Steady-state cache behaviour over the measured window only.
    let end_stats = cache.stats();
    let cache_hits = end_stats.hits - warm_stats.hits;
    let cache_misses = end_stats.misses - warm_stats.misses;
    let cache_fallbacks = end_stats.fallbacks - warm_stats.fallbacks;
    let cache_evictions = end_stats.evictions - warm_stats.evictions;
    let cache_epoch_flushes = end_stats.epoch_flushes - warm_stats.epoch_flushes;
    let cache_pool_reused = end_stats.pool_reused - warm_stats.pool_reused;
    let cache_entries_live = end_stats.entries_live;
    let cache_hit_rate = ratio(cache_hits as f64, decisions as f64);

    // End-to-end task throughput: the whole simulator loop (routing at
    // every hop, delivery bookkeeping, energy accounting).
    eprintln!("bench: end-to-end task throughput…");
    let task_rounds = 10usize;
    let t0 = Instant::now();
    let mut delivered = 0usize;
    for _ in 0..task_rounds {
        for t in &tasks {
            let report = ProtocolKind::Gmp.run_task(&topo, &config, t);
            delivered += usize::from(report.delivered_all());
        }
    }
    let task_secs = t0.elapsed().as_secs_f64();
    let task_count = task_rounds * tasks.len();
    let tasks_per_sec = task_count as f64 / task_secs;
    assert!(delivered > 0, "task workload delivered nothing");

    let wall_clock_s = wall_start.elapsed().as_secs_f64();
    let peak_rss_fields = gmp_bench::rss::peak_rss_json_fields();
    let json = format!(
        "{{\n  \"schema\": \"gmp-bench/1\",\n  \"workload\": {{\n    \"nodes\": {},\n    \"topology_seed\": 1,\n    \"k_values\": [5, 15, 25],\n    \"decision_samples\": {decisions},\n    \"task_samples\": {task_count}\n  }},\n  \"decisions_per_sec\": {decisions_per_sec:.1},\n  \"tasks_per_sec\": {tasks_per_sec:.1},\n  \"wall_clock_s\": {wall_clock_s:.3},\n  \"allocs_per_decision\": {allocs_per_decision:.4},\n  {peak_rss_fields},\n  \"decision_cache\": {{\n    \"hits\": {cache_hits},\n    \"misses\": {cache_misses},\n    \"fallbacks\": {cache_fallbacks},\n    \"evictions\": {cache_evictions},\n    \"epoch_flushes\": {cache_epoch_flushes},\n    \"entries_live\": {cache_entries_live},\n    \"pool_reused\": {cache_pool_reused},\n    \"hit_rate\": {cache_hit_rate:.4}\n  }}\n}}\n",
        config.node_count,
    );
    print!("{json}");
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("warning: could not create {}: {e}", args.out.display());
    }
    let path = args.out.join("BENCH_1.json");
    match std::fs::write(&path, &json) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }

    run_bench2(args);
}

/// The event-loop workload behind `BENCH_2.json`: whole-task simulation
/// throughput at the paper scale (1000 nodes, k = 25) through one warmed
/// [`gmp_sim::SimScratch`], with the collision model off and on (jittered
/// carrier sense, 7 retransmissions). The recorded `seed_baseline` numbers
/// were measured on the identical workload at the pre-overhaul commit;
/// `speedup_*` relates the two. The criterion bench `sim_throughput`
/// tracks the same workload interactively.
fn run_bench2(args: &Args) {
    use gmp_core::GmpRouter;
    use gmp_net::Topology;
    use gmp_sim::{MulticastTask, SimScratch, TaskRunner};

    let base = SimConfig::paper();
    let topo = Topology::random(&base.topology_config(), 1);
    let task_count = 64usize;
    let tasks: Vec<MulticastTask> = (0..task_count)
        .map(|i| MulticastTask::random(&topo, 25, 100 + i as u64))
        .collect();
    // Throughput numbers measured on the identical workload (same topology
    // seed, same tasks, warmed scratch) at the commit preceding the event-
    // loop overhaul, on the reference container.
    let seed_baseline_off = 6010.0f64;
    let seed_baseline_on = 5740.0f64;
    let window_s = 2.0f64;

    let mut measured = [0.0f64; 2];
    let mut cache_stats = [gmp_core::CacheStats::default(); 2];
    for (slot, (label, config)) in [
        ("collisions_off", base.clone()),
        (
            "collisions_on",
            base.clone()
                .with_collisions(true)
                .with_tx_jitter(0.005)
                .with_retransmissions(7),
        ),
    ]
    .into_iter()
    .enumerate()
    {
        eprintln!("bench: task throughput, {label} (n=1000, k=25)…");
        let runner = TaskRunner::new(&topo, &config);
        let mut router = GmpRouter::new();
        let mut scratch = SimScratch::new();
        for t in &tasks {
            let r = runner.run_with_scratch(&mut router, t, 0, &mut scratch);
            assert!(!r.truncated, "bench workload truncated");
        }
        // Best of three windows: throughput benchmarks on shared machines
        // are one-sided — interference only ever slows a run down, so the
        // fastest window is the closest estimate of the code's own cost.
        let mut best = 0.0f64;
        for _ in 0..3 {
            let t0 = Instant::now();
            let mut ran = 0usize;
            while t0.elapsed().as_secs_f64() < window_s {
                for t in &tasks {
                    let _ = runner.run_with_scratch(&mut router, t, 0, &mut scratch);
                }
                ran += tasks.len();
            }
            best = best.max(ran as f64 / t0.elapsed().as_secs_f64());
        }
        measured[slot] = best;
        cache_stats[slot] = router.cache_stats();
    }
    let [off, on] = measured;
    let cache_json = |s: gmp_core::CacheStats| {
        format!(
            "{{ \"hits\": {}, \"misses\": {}, \"fallbacks\": {}, \"evictions\": {}, \"epoch_flushes\": {}, \"entries_live\": {}, \"pool_reused\": {}, \"hit_rate\": {:.4} }}",
            s.hits,
            s.misses,
            s.fallbacks,
            s.evictions,
            s.epoch_flushes,
            s.entries_live,
            s.pool_reused,
            s.hit_rate()
        )
    };

    let peak_rss_fields = gmp_bench::rss::peak_rss_json_fields();
    let json = format!(
        "{{\n  \"schema\": \"gmp-bench/2\",\n  \"workload\": {{\n    \"nodes\": {},\n    \"topology_seed\": 1,\n    \"k\": 25,\n    \"tasks\": {task_count},\n    \"collision_config\": {{ \"tx_jitter_s\": 0.005, \"max_retransmissions\": 7 }},\n    \"window_s\": {window_s:.1}\n  }},\n  \"collisions_off_tasks_per_sec\": {off:.1},\n  \"collisions_on_tasks_per_sec\": {on:.1},\n  \"seed_baseline\": {{\n    \"collisions_off_tasks_per_sec\": {seed_baseline_off:.1},\n    \"collisions_on_tasks_per_sec\": {seed_baseline_on:.1}\n  }},\n  \"speedup_collisions_off\": {:.3},\n  \"speedup_collisions_on\": {:.3},\n  {peak_rss_fields},\n  \"decision_cache\": {{\n    \"collisions_off\": {},\n    \"collisions_on\": {}\n  }}\n}}\n",
        base.node_count,
        off / seed_baseline_off,
        on / seed_baseline_on,
        cache_json(cache_stats[0]),
        cache_json(cache_stats[1]),
    );
    print!("{json}");
    let path = args.out.join("BENCH_2.json");
    match std::fs::write(&path, &json) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// The scale curve behind `BENCH_4.json`: per-task routing cost at
/// 1k/10k/100k/1M nodes over the sharded lazy substrate, at constant paper
/// density. `--quick` runs the 1k/10k prefix (the CI smoke gate). See
/// EXPERIMENTS.md for the trajectory table and DESIGN.md for the substrate.
fn run_scale(args: &Args) {
    use gmp_bench::rss::json_opt_u64;
    use gmp_bench::scale::{scale_curve, EAGER_CUTOFF, MARGIN, RADIO_RANGE, WINDOW_SIDE};

    let quick = args.scale == Scale::quick();
    let node_counts: Vec<usize> = if quick {
        vec![1_000, 10_000]
    } else {
        vec![1_000, 10_000, 100_000, 1_000_000]
    };
    let (windows, tasks_per_window) = if quick { (4, 25) } else { (8, 50) };
    let k = 10usize;
    eprintln!(
        "running scale curve: nodes ∈ {node_counts:?}, {windows} windows × {tasks_per_window} tasks, k = {k}…"
    );
    let start = Instant::now();
    let alloc_counter = || ALLOCS.load(Ordering::Relaxed);
    let points = scale_curve(
        &node_counts,
        windows,
        tasks_per_window,
        k,
        Some(&alloc_counter),
    );
    eprintln!(
        "scale curve finished in {:.1}s",
        start.elapsed().as_secs_f64()
    );

    let mut table = vec![vec![
        "nodes".to_string(),
        "area side".to_string(),
        "substrate (s)".to_string(),
        "eager (s)".to_string(),
        "mat. nodes".to_string(),
        "tasks/s/core".to_string(),
        "decisions/s".to_string(),
        "allocs/dec".to_string(),
        "peak RSS".to_string(),
    ]];
    for p in &points {
        table.push(vec![
            p.nodes.to_string(),
            format!("{:.0} m", p.area_side),
            format!("{:.4}", p.substrate_build_s),
            p.eager_build_s
                .map(|s| format!("{s:.3}"))
                .unwrap_or_else(|| "-".into()),
            p.materialized_nodes.to_string(),
            format!("{:.1}", p.tasks_per_sec),
            format!("{:.0}", p.decisions_per_sec),
            p.allocs_per_decision
                .map(|a| format!("{a:.4}"))
                .unwrap_or_else(|| "-".into()),
            p.peak_rss_bytes
                .map(|b| format!("{:.1} MiB", b as f64 / (1024.0 * 1024.0)))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    println!(
        "\nScale curve — per-task cost vs network size (paper density)\n{}",
        render_table(&table)
    );

    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"gmp-bench/4\",\n  \"workload\": {\n");
    json.push_str(&format!("    \"window_side_m\": {WINDOW_SIDE},\n"));
    json.push_str(&format!("    \"margin_m\": {MARGIN},\n"));
    json.push_str(&format!("    \"radio_range_m\": {RADIO_RANGE},\n"));
    json.push_str("    \"density_per_m2\": 0.001,\n");
    json.push_str(&format!("    \"windows\": {windows},\n"));
    json.push_str(&format!("    \"tasks_per_window\": {tasks_per_window},\n"));
    json.push_str(&format!("    \"k\": {k},\n"));
    json.push_str(&format!("    \"eager_cutoff_nodes\": {EAGER_CUTOFF}\n"));
    json.push_str("  },\n  \"note\": \"throughput figures are per worker-core; peak_rss_bytes is the process high-water mark, cumulative across points\",\n  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"nodes\": {}, \"area_side_m\": {}, \"tile_count\": {}, \
             \"substrate_build_s\": {}, \"eager_build_s\": {}, \"region_build_s\": {}, \
             \"materialized_tiles\": {}, \"materialized_nodes\": {}, \"substrate_heap_bytes\": {}, \
             \"windows\": {}, \"tasks\": {}, \"failed_tasks\": {}, \"tasks_per_sec\": {}, \
             \"decisions_per_sec\": {}, \"allocs_per_decision\": {}, \"wall_clock_s\": {}, \
             \"peak_rss_bytes\": {} }}{}\n",
            p.nodes,
            json_f64(p.area_side),
            p.tile_count,
            json_f64(p.substrate_build_s),
            p.eager_build_s.map_or_else(|| "null".into(), json_f64),
            json_f64(p.region_build_s),
            p.materialized_tiles,
            p.materialized_nodes,
            p.substrate_heap_bytes,
            p.windows,
            p.tasks,
            p.failed_tasks,
            json_f64(p.tasks_per_sec),
            json_f64(p.decisions_per_sec),
            p.allocs_per_decision
                .map_or_else(|| "null".into(), json_f64),
            json_f64(p.wall_clock_s),
            json_opt_u64(p.peak_rss_bytes),
            if i + 1 < points.len() { "," } else { "" },
        ));
    }
    json.push_str(&format!(
        "  ],\n  {}\n}}\n",
        gmp_bench::rss::peak_rss_json_fields()
    ));
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("warning: could not create {}: {e}", args.out.display());
    }
    let path = args.out.join("BENCH_4.json");
    match std::fs::write(&path, &json) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// The concurrent-service benchmark behind `BENCH_5.json`: sustained
/// multicast session throughput under churn through the `gmp-service`
/// engine, against back-to-back sequential runs of the identical session
/// set (the ≥2x headline gate), plus the multi-worker core-scaling curve
/// (1/2/4/8 workers over one shared [`gmp_core::ConcurrentTreeCache`]).
/// `--quick` runs the paper topology at 1k sessions (the CI smoke gate);
/// the full run adds 10k sessions and the sharded 100k-node substrate.
/// `--threads`/`GMP_BENCH_THREADS` collapses the worker axis to one
/// count. Run it from a `--release` build.
fn run_service(args: &Args) {
    use gmp_bench::service::{paper_scaling_curve, sharded_service_point, ServicePoint};

    let quick = args.scale == Scale::quick();
    let alloc_counter = || ALLOCS.load(Ordering::Relaxed);
    let axis: Vec<usize> = if args.threads > 0 {
        vec![args.threads]
    } else {
        vec![1, 2, 4, 8]
    };
    let start = Instant::now();
    let mut points: Vec<ServicePoint> = Vec::new();
    eprintln!("service: paper topology, 1000 sessions, workers ∈ {axis:?}…");
    points.extend(paper_scaling_curve(1_000, 42, Some(&alloc_counter), &axis));
    if !quick {
        eprintln!("service: paper topology, 10000 sessions, workers ∈ {axis:?}…");
        points.extend(paper_scaling_curve(10_000, 43, Some(&alloc_counter), &axis));
        eprintln!("service: sharded 100k substrate, 1000 sessions over 4 windows…");
        points.push(sharded_service_point(100_000, 4, 1_000, 44, 4));
        eprintln!("service: sharded 100k substrate, 10000 sessions over 8 windows…");
        points.push(sharded_service_point(100_000, 8, 10_000, 45, 8));
    }
    eprintln!(
        "service bench finished in {:.1}s",
        start.elapsed().as_secs_f64()
    );

    let mut table = vec![vec![
        "topology".to_string(),
        "sessions".to_string(),
        "workers".to_string(),
        "seq/s".to_string(),
        "conc/s".to_string(),
        "speedup".to_string(),
        "par/s".to_string(),
        "scaling".to_string(),
        "par p50 ms".to_string(),
        "par p99 ms".to_string(),
        "hit rate".to_string(),
        "match".to_string(),
    ]];
    for p in &points {
        table.push(vec![
            p.topology.clone(),
            p.sessions.to_string(),
            p.threads.to_string(),
            format!("{:.0}", p.sequential_sessions_per_sec),
            format!("{:.0}", p.concurrent_sessions_per_sec),
            format!("{:.2}x", p.speedup),
            format!("{:.0}", p.parallel_sessions_per_sec),
            format!("{:.2}x", p.parallel_scaling),
            format!("{:.3}", p.parallel_p50_latency_ms),
            format!("{:.3}", p.parallel_p99_latency_ms),
            format!("{:.3}", p.cache.hit_rate()),
            p.reports_match.to_string(),
        ]);
    }
    println!(
        "\nConcurrent session service — throughput under churn vs sequential baseline\n{}",
        render_table(&table)
    );

    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"gmp-bench/5\",\n");
    json.push_str(
        "  \"note\": \"sequential baseline = back-to-back self-contained runs of the identical \
         session set (fresh protocol + scratch per session); latency is wall-clock admission to \
         completion of the as-fast-as-possible engine loop; the worker axis shards one engine \
         over a shared concurrent decision cache; reports_match certifies every concurrent and \
         parallel session report bit-identical to its sequential twin at every worker count\",\n",
    );
    json.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"topology\": \"{}\", \"nodes\": {}, \"sessions\": {}, \"groups\": {}, \
             \"membership_updates\": {}, \"fault_crashes\": {}, \"skipped_empty\": {}, \
             \"sequential_wall_s\": {}, \"sequential_sessions_per_sec\": {}, \
             \"concurrent_wall_s\": {}, \"concurrent_sessions_per_sec\": {}, \
             \"decisions_per_sec\": {}, \"p50_latency_ms\": {}, \"p99_latency_ms\": {}, \
             \"threads\": {}, \"parallel_wall_s\": {}, \"parallel_sessions_per_sec\": {}, \
             \"parallel_p50_latency_ms\": {}, \"parallel_p99_latency_ms\": {}, \
             \"speedup\": {}, \"parallel_scaling\": {}, \"allocs_per_session\": {}, \
             \"steady_alloc_drift\": {}, \
             \"reports_match\": {}, \"decision_cache\": {{ \"hits\": {}, \"misses\": {}, \
             \"fallbacks\": {}, \"evictions\": {}, \"epoch_flushes\": {}, \"entries_live\": {}, \
             \"pool_reused\": {}, \"hit_rate\": {:.4} }} }}{}\n",
            p.topology,
            p.nodes,
            p.sessions,
            p.groups,
            p.membership_updates,
            p.fault_crashes,
            p.skipped_empty,
            json_f64(p.sequential_wall_s),
            json_f64(p.sequential_sessions_per_sec),
            json_f64(p.concurrent_wall_s),
            json_f64(p.concurrent_sessions_per_sec),
            json_f64(p.decisions_per_sec),
            json_f64(p.p50_latency_ms),
            json_f64(p.p99_latency_ms),
            p.threads,
            json_f64(p.parallel_wall_s),
            json_f64(p.parallel_sessions_per_sec),
            json_f64(p.parallel_p50_latency_ms),
            json_f64(p.parallel_p99_latency_ms),
            json_f64(p.speedup),
            json_f64(p.parallel_scaling),
            p.allocs_per_session.map_or_else(|| "null".into(), json_f64),
            p.steady_alloc_drift
                .map_or_else(|| "null".to_string(), |d| d.to_string()),
            p.reports_match,
            p.cache.hits,
            p.cache.misses,
            p.cache.fallbacks,
            p.cache.evictions,
            p.cache.epoch_flushes,
            p.cache.entries_live,
            p.cache.pool_reused,
            p.cache.hit_rate(),
            if i + 1 < points.len() { "," } else { "" },
        ));
    }
    json.push_str(&format!(
        "  ],\n  {}\n}}\n",
        gmp_bench::rss::peak_rss_json_fields()
    ));
    print!("{json}");
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("warning: could not create {}: {e}", args.out.display());
    }
    let path = args.out.join("BENCH_5.json");
    match std::fs::write(&path, &json) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// A ratio that is 0.0 (not NaN) when the denominator is zero, so
/// zero-sample runs emit gateable numbers instead of `null`.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
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
            .map(|p| format!("\"{}\"", p.label()))
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
    json.push_str(&format!(
        "  ],\n  {}\n}}\n",
        gmp_bench::rss::peak_rss_json_fields()
    ));
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("warning: could not create {}: {e}", args.out.display());
    }
    let path = args.out.join("BENCH_6.json");
    match std::fs::write(&path, &json) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let mut args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: experiments <all|bench|scale|service|fig11|fig12|fig14|figlatency|fig15|overhead|treelen|planar|pbm|mobility|power|range|loss|fig15mac|mactax|guarantees> \
                 [--quick|--standard|--paper] [--threads N] [--out DIR] [--protocols LIST]"
            );
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
        "bench" => run_bench(&args),
        "scale" => run_scale(&args),
        "service" => run_service(&args),
        other => {
            eprintln!("unknown command: {other}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
