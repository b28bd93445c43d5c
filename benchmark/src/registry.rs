//! The benchmark's names: workloads, end-to-end metrics and per-layer
//! metrics. `BENCHMARK.json` at the repository root is rendered from these
//! tables, and a test keeps the two identical.

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReplayWarm,
    FreshCold,
    CrashMac,
    ServiceChurn,
}

pub const WORKLOADS: [(Workload, &str, &str); 4] = [
    (
        Workload::ReplayWarm,
        "replay-warm",
        "256 tasks replayed through one router: the decision cache hits ~100%, so the sim event loop \
         and the cache-hit path are the whole cost and rrSTR idles",
    ),
    (
        Workload::FreshCold,
        "fresh-cold",
        "never-repeated tasks through one long-lived router: nearly every decision misses, so rrSTR, \
         grouping and the cache miss, flush and pool path dominate",
    ),
    (
        Workload::CrashMac,
        "crash-mac",
        "20% of nodes crashed under a contention MAC: the delivery oracle runs on every task and the \
         sim takes its per-event collision path",
    ),
    (
        Workload::ServiceChurn,
        "service-churn",
        "10k sessions with live membership churn through the session engine and its shared cache: \
         the only path through admission, scheduling and merge; traced at 2 worker threads",
    ),
];

impl Workload {
    pub fn name(self) -> &'static str {
        WORKLOADS
            .iter()
            .find(|(w, _, _)| *w == self)
            .map(|(_, name, _)| *name)
            .expect("every workload is registered")
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        WORKLOADS
            .iter()
            .find(|(_, n, _)| *n == name)
            .map(|(w, _, _)| *w)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// An end-to-end metric: name, unit, direction, and the share of the
/// parent's median by which it may worsen before a change is rejected.
/// Direction and bound are read only when rendering `BENCHMARK.json`.
#[cfg_attr(not(test), allow(dead_code))]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "tasks_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "task_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "task_p99_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "delivery_ratio",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.01,
    },
    EndToEnd {
        name: "tx_per_task",
        unit: "count/task",
        better: Better::Lower,
        bound: 0.10,
    },
];

/// Per-layer metrics of the traced run: name, unit, direction.
pub const PER_LAYER: [(&str, &str, Better); 38] = [
    ("core.decisions_per_task", "count/task", Better::Lower),
    ("core.on_packet_ns", "ns", Better::Lower),
    ("core.on_packet_hit_ns", "ns", Better::Lower),
    ("core.on_packet_miss_ns", "ns", Better::Lower),
    ("core.on_packet_frac", "ratio", Better::Lower),
    ("core.cache_hit_rate", "ratio", Better::Higher),
    ("core.cache_misses_per_task", "count/task", Better::Lower),
    ("core.cache_fallbacks", "count", Better::Lower),
    ("core.cache_evictions", "count", Better::Lower),
    ("core.cache_epoch_flushes", "count", Better::Lower),
    ("core.cache_pool_reused", "count", Better::Higher),
    ("core.grouping_ns", "ns", Better::Lower),
    ("core.next_hop_ns", "ns", Better::Lower),
    ("core.cache_lookup_ns", "ns", Better::Lower),
    ("core.miss_overhead_ns", "ns", Better::Lower),
    ("core.perimeter_frac", "ratio", Better::Lower),
    ("steiner.rrstr_ns", "ns", Better::Lower),
    ("steiner.rrstr_frac", "ratio", Better::Lower),
    ("sim.steps_per_task", "count/task", Better::Lower),
    ("sim.step_self_ns", "ns", Better::Lower),
    ("sim.self_frac", "ratio", Better::Lower),
    ("sim.finish_ns", "ns", Better::Lower),
    ("sim.finish_frac", "ratio", Better::Lower),
    ("sim.allocs_per_task", "count/task", Better::Lower),
    ("faults.failed_dests_per_task", "count/task", Better::Lower),
    ("faults.unjustified_per_task", "count/task", Better::Lower),
    ("net.topology_build_ms", "ms", Better::Lower),
    ("groups.workload_build_ms", "ms", Better::Lower),
    ("groups.membership_updates", "count", Better::Lower),
    ("service.scaling_vs_1w", "ratio", Better::Higher),
    ("service.protocol_frac", "ratio", Better::Lower),
    ("service.worker_imbalance", "ratio", Better::Lower),
    ("service.spawn_ms", "ms", Better::Lower),
    ("service.merge_ms", "ms", Better::Lower),
    ("service.cache_hit_rate", "ratio", Better::Higher),
    ("service.scratch_reuse_frac", "ratio", Better::Higher),
    ("trace.coverage", "ratio", Better::Higher),
    ("trace.overhead", "ratio", Better::Lower),
];

/// How long one run measures by default, seconds. Over ten seeds,
/// `fresh-cold`'s throughput spread 9.4% of its median at 10 s and 3.4% at
/// 20 s.
pub const RUN_SECONDS: u64 = 20;

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
        .find(|&(n, _)| n == name)
        .map(|(_, u)| u)
        .unwrap_or_else(|| panic!("metric {name} is not registered"))
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Better {
        fn as_str(self) -> &'static str {
            match self {
                Better::Higher => "higher",
                Better::Lower => "lower",
            }
        }
    }

    /// The command that runs the benchmark from the repository root.
    const COMMAND: [&str; 8] = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];

    fn quoted(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                _ => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// `BENCHMARK.json` as rendered from the tables above.
    fn benchmark_json() -> String {
        let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
        let command: Vec<String> = COMMAND.iter().map(|s| quoted(s)).collect();
        let workloads = WORKLOADS
            .iter()
            .map(|(_, name, why)| {
                format!("{{\"name\": {}, \"why\": {}}}", quoted(name), quoted(why))
            })
            .collect();
        let end_to_end = END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                    quoted(m.name),
                    quoted(m.unit),
                    quoted(m.better.as_str()),
                    m.bound
                )
            })
            .collect();
        let per_layer = PER_LAYER
            .iter()
            .map(|(name, unit, better)| {
                format!(
                    "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                    quoted(name),
                    quoted(unit),
                    quoted(better.as_str())
                )
            })
            .collect();
        format!(
            "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
            command.join(", "),
            RUN_SECONDS,
            list(workloads),
            list(end_to_end),
            list(per_layer)
        )
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let names: Vec<&str> = WORKLOADS
            .iter()
            .map(|(_, n, _)| *n)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|(n, _, _)| *n))
            .collect();
        for name in &names {
            assert!(valid_name(name), "bad name {name}");
            assert_eq!(
                names.iter().filter(|n| *n == name).count(),
                1,
                "{name} twice"
            );
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|(_, u, _)| *u));
        for unit in units {
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit}"
            );
        }
        for (_, _, why) in WORKLOADS {
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "why too long: {why}"
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn workload_names_round_trip() {
        for (w, name, _) in WORKLOADS {
            assert_eq!(w.name(), name);
            assert_eq!(Workload::from_name(name), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "BENCHMARK.json is out of date with the registry"
        );
    }
}
