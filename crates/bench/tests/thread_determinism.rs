//! The experiment sweeps fan `(cell, network)` jobs out over a
//! work-stealing thread pool; scheduling is nondeterministic, so the
//! aggregation must not be. Workers return per-network tallies that the
//! caller folds in network order, which makes every floating-point sum
//! independent of which thread ran what when. This test pins that: the
//! same sweep on one worker and on eight must serialize to byte-identical
//! tallies.

use gmp_baselines::ProtocolKind;
use gmp_bench::experiments::{panel, sweep, Cell, Scale};
use gmp_sim::SimConfig;

#[test]
fn destination_sweep_rows_are_identical_across_thread_counts() {
    let config = SimConfig::paper().with_node_count(200);
    let scale = Scale {
        networks: 2,
        tasks_per_network: 4,
        k_values: vec![3, 9],
    };
    let protocols = [ProtocolKind::Gmp, ProtocolKind::Grd];
    let cells: Vec<Cell> = (scale.k_values.iter())
        .flat_map(|&k| panel(vec![k.to_string()], &config, k, &protocols))
        .collect();

    let single = sweep(&cells, &scale, 1);
    let eight = sweep(&cells, &scale, 8);

    assert_eq!(single.len(), eight.len());
    for (a, b) in single.iter().zip(&eight) {
        // Debug formatting prints f64 as the shortest round-trip decimal,
        // so equal strings mean equal bit patterns (and −0.0 ≠ 0.0).
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "sweep rows diverged between --threads 1 and --threads 8"
        );
    }
}
