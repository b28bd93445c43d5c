//! Head-to-head comparison of the paper's protocols on identical tasks — a
//! one-network miniature of the paper's Figures 11/12/14.
//!
//! ```sh
//! cargo run --release --example protocol_comparison
//! ```

use gmp::baselines::{GrdRouter, LgsRouter, PbmRouter, SmtRouter};
use gmp::gmp::GmpRouter;
use gmp::net::Topology;
use gmp::sim::{MulticastTask, Protocol, SimConfig, TaskRunner};

fn main() {
    let config = SimConfig::paper();
    let topo = Topology::random(&config.topology_config(), 11);
    let runner = TaskRunner::new(&topo, &config);

    let tasks: Vec<MulticastTask> = (0..20)
        .map(|t| MulticastTask::random(&topo, 12, 100 + t))
        .collect();

    let mut protocols: Vec<Box<dyn Protocol>> = vec![
        Box::new(GmpRouter::new()),
        Box::new(GmpRouter::without_radio_range_awareness()),
        Box::new(PbmRouter::with_lambda(0.3)),
        Box::new(LgsRouter::new()),
        Box::new(SmtRouter::new()),
        Box::new(GrdRouter::new()),
    ];

    println!(
        "{:<12} {:>12} {:>14} {:>12} {:>10}",
        "protocol", "total hops", "per-dest hops", "energy (J)", "failures"
    );
    println!("{}", "-".repeat(64));
    for proto in protocols.iter_mut() {
        let mut hops = 0usize;
        let mut dest_hops = 0.0;
        let mut energy = 0.0;
        let mut failures = 0usize;
        for task in &tasks {
            let report = runner.run(proto.as_mut(), task);
            hops += report.transmissions;
            dest_hops += report.mean_dest_hops().unwrap_or(0.0);
            energy += report.energy_j;
            if !report.delivered_all() {
                failures += 1;
            }
        }
        let n = tasks.len() as f64;
        println!(
            "{:<12} {:>12.2} {:>14.2} {:>12.3} {:>10}",
            proto.name(),
            hops as f64 / n,
            dest_hops / n,
            energy / n,
            failures
        );
    }
    println!(
        "\n(12 destinations, {} tasks, one {}-node network — run the \
         `experiments` binary for the full multi-network sweeps)",
        tasks.len(),
        topo.len()
    );
}
