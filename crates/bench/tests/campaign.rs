//! Robustness-campaign invariants under pinned seeds.
//!
//! The headline acceptance bar: the delivery-guarantee oracle must report
//! **zero unjustified failures for GMP** across the crash sweep — every
//! destination GMP misses is one the faulted graph genuinely cut off.
//! GMP routes on the beacon-timeout liveness view, so it steers around
//! crashed relays; the crash-unaware baselines (SMT routes a tree frozen
//! at the source) leak unjustified failures as soon as the intensity is
//! non-zero, which is exactly the contrast BENCH_3 curves show.

use gmp_baselines::ProtocolKind;
use gmp_bench::campaign::{robustness_campaign, CampaignRow};
use gmp_bench::experiments::Scale;
use gmp_sim::SimConfig;

fn sweep() -> Vec<CampaignRow> {
    let config = SimConfig::paper()
        .with_area_side(600.0)
        .with_node_count(250);
    let scale = Scale {
        networks: 2,
        tasks_per_network: 5,
        k_values: vec![8],
    };
    robustness_campaign(
        &config,
        &scale,
        &[ProtocolKind::Gmp, ProtocolKind::Smt],
        &[0.0, 0.1, 0.2],
        8,
    )
}

#[test]
fn gmp_has_zero_unjustified_failures_under_crashes() {
    let rows = sweep();
    assert_eq!(rows.len(), 6); // 3 intensities × 2 protocols
    for r in rows.iter().filter(|r| r.protocol == "GMP") {
        assert_eq!(
            r.unjustified_failures, 0,
            "oracle blames GMP at intensity {}: {r:?}",
            r.intensity
        );
    }
}

#[test]
fn zero_intensity_is_lossless_for_every_protocol() {
    let rows = sweep();
    for r in rows.iter().filter(|r| r.intensity == 0.0) {
        assert_eq!(r.delivery_ratio, 1.0, "{r:?}");
        assert_eq!(r.justified_failures, 0, "{r:?}");
        assert_eq!(r.unjustified_failures, 0, "{r:?}");
        assert_eq!(r.hop_overhead, 0.0, "{r:?}");
    }
}

#[test]
fn crash_unaware_baseline_leaks_unjustified_failures() {
    let rows = sweep();
    let smt_leaked: usize = rows
        .iter()
        .filter(|r| r.protocol == "SMT" && r.intensity > 0.0)
        .map(|r| r.unjustified_failures)
        .sum();
    assert!(
        smt_leaked > 0,
        "SMT routes a source-frozen tree; crashes must cost it reachable destinations"
    );
    // Justified losses are protocol-independent: the oracle judges the
    // graph, not the router, so GMP and SMT agree on them cell by cell.
    for r in &rows {
        let twin = rows
            .iter()
            .find(|o| o.intensity == r.intensity && o.protocol != r.protocol)
            .expect("both protocols present");
        assert_eq!(r.justified_failures, twin.justified_failures, "{r:?}");
    }
}
