//! One run of one workload: set-up, the timed pass (or, traced, the
//! untraced reference chunks alternating with the traced replay of them), the
//! reference check, and the metrics.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gmp_core::{CacheStats, GmpRouter};
use gmp_net::Topology;
use gmp_service::SessionEngine;
use gmp_sim::{Protocol, SimConfig, SimScratch, TaskRunner};

use crate::alloc::counted;
use crate::registry::{Workload, END_TO_END, PER_LAYER};
use crate::stats::{cache_delta, median, peak_rss_mib, report_digest, total_stats, Fnv};
use crate::trace::{drive_traced, replay, Calls, Replays, SimSpans, Timed, WorkerSink};
use crate::workload::{
    build_service_env, build_solo, run_chunk, service_checks, service_pass, setup_solo,
    shared_routers, Check, Chunk, ChunkRecord, Factory, Scale, ServiceEnv, SetupTimes, Solo, State,
    TIMED_STATES, TIMED_WORKERS, TRACED_WORKERS,
};

#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

#[derive(Debug)]
pub struct RunResult {
    /// Every registered metric of the run's kind, in registry order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Facts printed next to the metrics: name, value, unit.
    pub facts: Vec<(&'static str, String, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

pub fn run(o: &Options) -> RunResult {
    match (o.workload, o.trace) {
        (Workload::ServiceChurn, false) => with_service(o, service_untraced),
        (Workload::ServiceChurn, true) => with_service(o, service_traced),
        (_, false) => solo_untraced(o),
        (_, true) => solo_traced(o),
    }
}

/// Metric values collected by name, emitted in registry order.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// The values of exactly `names`, in that order.
    fn finish(self, names: impl Iterator<Item = &'static str>) -> Vec<(&'static str, f64)> {
        let out: Vec<_> = names
            .map(|n| {
                let v = self.0.iter().find(|(m, _)| *m == n);
                (
                    n,
                    v.unwrap_or_else(|| panic!("metric {n} was not measured")).1,
                )
            })
            .collect();
        assert_eq!(
            out.len(),
            self.0.len(),
            "a measured metric is not registered"
        );
        out
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Re-runs each checked task alone with a fresh `GmpRouter` through
/// `TaskRunner::run_seeded`; the number whose report differs bit for bit
/// from the timed run's.
fn mismatches(topo: &Topology, config: &SimConfig, checks: &[Check]) -> u64 {
    let runner = TaskRunner::new(topo, config);
    checks
        .iter()
        .filter(|c| {
            let report = runner.run_seeded(&mut GmpRouter::new(), &c.job.task, c.job.seed);
            report_digest(&report) != c.digest
        })
        .count() as u64
}

/// Errors for every chunk whose outcome `other` does not reproduce.
fn compare(label: &str, reference: &[ChunkRecord], other: &[ChunkRecord]) -> Vec<String> {
    let mut errors = Vec::new();
    if reference.len() != other.len() {
        errors.push(format!(
            "{label}: {} chunks against {}",
            other.len(),
            reference.len()
        ));
    }
    for (i, (r, o)) in reference.iter().zip(other).enumerate() {
        if r.outcome != o.outcome {
            errors.push(format!(
                "{label}: chunk {i} gave {:?}, the untraced run {:?}",
                o.outcome, r.outcome
            ));
        }
    }
    errors
}

/// The median over `records` of one per-chunk value.
fn median_of(records: &[ChunkRecord], f: fn(&ChunkRecord) -> f64) -> f64 {
    median(&records.iter().map(f).collect::<Vec<_>>())
}

fn median_tps(records: &[ChunkRecord]) -> f64 {
    median_of(records, ChunkRecord::tasks_per_s)
}

fn end_to_end(
    o: &Options,
    records: &[ChunkRecord],
    setups: &[SetupTimes],
    checks: usize,
    bad: u64,
    mut errors: Vec<String>,
) -> RunResult {
    let prefix = &records[..o.scale.min_chunks.min(records.len())];
    let sum = |f: fn(&ChunkRecord) -> u64| prefix.iter().map(f).sum::<u64>() as f64;
    let mut digest = Fnv::default();
    for r in prefix {
        digest.word(r.outcome.digest.finish());
    }
    let rss = peak_rss_mib().unwrap_or_else(|| {
        errors.push("VmHWM is missing from /proc/self/status".into());
        0.0
    });

    let mut m = Metrics::default();
    m.set("tasks_per_s", median_tps(records));
    m.set("task_p50_ms", median_of(records, |r| r.p50_ms));
    m.set("task_p99_ms", median_of(records, |r| r.p99_ms));
    m.set(
        "setup_s",
        median(
            &setups
                .iter()
                .map(|s| s.total.as_secs_f64())
                .collect::<Vec<_>>(),
        ),
    );
    m.set("peak_rss_mib", rss);
    m.set(
        "delivery_ratio",
        sum(|r| r.outcome.delivered) / sum(|r| r.outcome.dests),
    );
    m.set(
        "tx_per_task",
        sum(|r| r.outcome.transmissions) / sum(|r| r.outcome.tasks),
    );
    RunResult {
        metrics: m.finish(END_TO_END.iter().map(|e| e.name)),
        facts: vec![
            ("chunks", records.len().to_string(), "count"),
            (
                "latency_samples_per_chunk",
                records[0].outcome.tasks.to_string(),
                "count",
            ),
            ("check_samples", checks.to_string(), "count"),
            (
                "check_fail_frac",
                ratio(bad as f64, checks as f64).to_string(),
                "ratio",
            ),
            (
                "report_digest",
                format!("{:016x}", digest.finish()),
                "fnv64",
            ),
        ],
        attempted: records.iter().map(|r| r.outcome.tasks).sum(),
        failed: bad,
        errors,
    }
}

/// The decision-layer metrics shared by every traced run. `busy_ns` is
/// the traced time the fractions are shares of.
fn core_metrics(
    m: &mut Metrics,
    calls: &Calls,
    cache: CacheStats,
    replays: &Replays,
    tasks: f64,
    busy_ns: f64,
) {
    let miss_ns = ratio(calls.miss_ns as f64, calls.miss_calls as f64);
    m.set("core.decisions_per_task", calls.calls as f64 / tasks);
    m.set(
        "core.on_packet_ns",
        ratio(calls.ns as f64, calls.calls as f64),
    );
    m.set(
        "core.on_packet_hit_ns",
        ratio(calls.hit_ns as f64, calls.hit_calls as f64),
    );
    m.set("core.on_packet_miss_ns", miss_ns);
    m.set("core.on_packet_frac", calls.ns as f64 / busy_ns);
    m.set("core.cache_hit_rate", cache.hit_rate());
    m.set("core.cache_misses_per_task", cache.misses as f64 / tasks);
    m.set("core.cache_fallbacks", cache.fallbacks as f64);
    m.set("core.cache_evictions", cache.evictions as f64);
    m.set("core.cache_epoch_flushes", cache.epoch_flushes as f64);
    m.set("core.cache_pool_reused", cache.pool_reused as f64);
    m.set("core.grouping_ns", replays.grouping_ns);
    m.set("core.next_hop_ns", replays.grouping_ns - replays.rrstr_ns);
    m.set("core.cache_lookup_ns", replays.lookup_ns);
    m.set(
        "core.miss_overhead_ns",
        if replays.miss_grouping_ns > 0.0 {
            miss_ns - replays.miss_grouping_ns
        } else {
            0.0
        },
    );
    m.set(
        "core.perimeter_frac",
        ratio(calls.perimeter as f64, calls.calls as f64),
    );
    m.set("steiner.rrstr_ns", replays.rrstr_ns);
    m.set(
        "steiner.rrstr_frac",
        replays.rrstr_ns * (cache.misses + cache.fallbacks) as f64 / busy_ns,
    );
}

/// The simulator-layer metrics of a traced drive with `timed`.
fn sim_metrics(m: &mut Metrics, spans: &SimSpans, calls: &Calls) {
    let tasks = spans.tasks as f64;
    let wall = spans.wall_ns as f64;
    let self_ns = spans.drive_ns.saturating_sub(calls.ns) as f64;
    m.set("sim.steps_per_task", spans.steps as f64 / tasks);
    m.set("sim.step_self_ns", self_ns / spans.steps as f64);
    m.set("sim.self_frac", self_ns / wall);
    m.set("sim.finish_ns", spans.finish_ns as f64 / tasks);
    m.set("sim.finish_frac", spans.finish_ns as f64 / wall);
}

fn setup_metrics(m: &mut Metrics, setups: &[SetupTimes], membership_updates: usize) {
    let each = |f: fn(&SetupTimes) -> Duration| -> f64 {
        median(&setups.iter().map(|s| ms(f(s))).collect::<Vec<_>>())
    };
    m.set("net.topology_build_ms", each(|s| s.topology));
    m.set("groups.workload_build_ms", each(|s| s.workload));
    m.set("groups.membership_updates", membership_updates as f64);
}

fn solo_untraced(o: &Options) -> RunResult {
    let (mut solo, setups) = setup_solo(o.workload, o.seed, o.scale, TIMED_STATES);
    let mut checks = Vec::new();
    let mut records = Vec::new();
    let mut index = 0;
    let start = Instant::now();
    while records.len() < o.scale.min_chunks || start.elapsed().as_secs_f64() < o.seconds {
        let c = records.len();
        records.push(run_chunk(&mut solo, c, &mut index, Some(&mut checks)));
    }
    let errors = records
        .iter()
        .enumerate()
        .filter(|(_, r)| r.runs_differ)
        .map(|(c, _)| format!("chunk {c}: identically built states gave different outcomes"))
        .collect();
    let bad = mismatches(&solo.env.topo, &solo.env.config, &checks);
    end_to_end(o, &records, &setups, checks.len(), bad, errors)
}

fn solo_traced(o: &Options) -> RunResult {
    let n = o.scale.min_chunks;
    // The untraced chunks here run once, on one state, as the traced ones do.
    let (mut solo, setups) = setup_solo(o.workload, o.seed, o.scale, 1);
    // The traced chunks run on an identically built state, so every count
    // of the untraced chunks must repeat exactly. The two alternate, chunk
    // by chunk, so that a drift in the host's speed hits both alike.
    let (Solo { env, mut states }, _) = build_solo(o.workload, o.seed, o.scale, 1);
    let State {
        routers,
        mut scratch,
    } = states.remove(0);
    let mut index = 0;
    let mut allocs = 0;
    let mut untraced_chunk = |c: usize| {
        let (rec, a) = counted(|| run_chunk(&mut solo, c, &mut index, None));
        allocs += a;
        rec
    };
    let mut untraced = vec![untraced_chunk(0)];
    let stride = untraced[0].outcome.decisions * n as u64 / o.scale.sample_cap as u64;
    let cap = o.scale.sample_cap / routers.len();
    let mut timed: Vec<Timed> = routers
        .into_iter()
        .map(|r| Timed::new(r, stride, cap))
        .collect();
    let router_stats = |timed: &[Timed]| total_stats(timed.iter().map(|t| t.router.cache_stats()));
    let decided = |timed: &[Timed]| timed.iter().map(|t| t.calls.calls).sum::<u64>();
    let mut spans = SimSpans::default();
    let stats_before = router_stats(&timed);
    let mut traced = Vec::new();
    for c in 0..n {
        if c > 0 {
            untraced.push(untraced_chunk(c));
        }
        let chunk = env.chunk(c);
        let before = router_stats(&timed);
        let calls_before = decided(&timed);
        let mut rec = ChunkRecord::default();
        drive_traced(
            &env.topo,
            &env.config,
            &mut timed,
            &mut scratch,
            &chunk,
            &mut spans,
            |job, report, span| {
                rec.outcome.add(report, job.task.k());
                rec.busy += Duration::from_nanos(span);
            },
        );
        rec.outcome.decisions = decided(&timed) - calls_before;
        rec.outcome.cache = cache_delta(before, router_stats(&timed));
        traced.push(rec);
    }
    let cache = cache_delta(stats_before, router_stats(&timed));
    let errors = compare("traced", &untraced, &traced);
    let mut calls = Calls::default();
    let mut samples = Vec::new();
    for t in &mut timed {
        calls.add(&t.calls);
        samples.append(&mut t.samples);
    }
    let replays = replay(&env.topo, &samples);

    let tasks = spans.tasks as f64;
    let wall = spans.wall_ns as f64;
    let mut m = Metrics::default();
    core_metrics(&mut m, &calls, cache, &replays, tasks, wall);
    sim_metrics(&mut m, &spans, &calls);
    let untraced_tasks: u64 = untraced.iter().map(|r| r.outcome.tasks).sum();
    m.set("sim.allocs_per_task", allocs as f64 / untraced_tasks as f64);
    m.set(
        "faults.failed_dests_per_task",
        spans.failed_dests as f64 / tasks,
    );
    m.set(
        "faults.unjustified_per_task",
        spans.unjustified as f64 / tasks,
    );
    setup_metrics(&mut m, &setups, 0);
    for name in [
        "service.scaling_vs_1w",
        "service.protocol_frac",
        "service.worker_imbalance",
        "service.spawn_ms",
        "service.merge_ms",
        "service.cache_hit_rate",
        "service.scratch_reuse_frac",
    ] {
        m.set(name, 0.0);
    }
    m.set(
        "trace.coverage",
        (spans.drive_ns + spans.finish_ns) as f64 / wall,
    );
    m.set(
        "trace.overhead",
        1.0 - median_tps(&traced) / median_tps(&untraced),
    );
    RunResult {
        metrics: m.finish(PER_LAYER.iter().map(|p| p.0)),
        facts: vec![
            ("traced_chunks", n.to_string(), "count"),
            ("decision_samples", samples.len().to_string(), "count"),
        ],
        attempted: spans.tasks,
        failed: 0,
        errors,
    }
}

/// Builds `service-churn` `setup_reps` times — deployment, workloads,
/// engine and one cold pass over every workload's sessions — and runs
/// `body` on the last construction.
fn with_service(
    o: &Options,
    body: fn(&Options, &ServiceEnv, SessionEngine<'_>, Vec<SetupTimes>) -> RunResult,
) -> RunResult {
    let mut setups = Vec::new();
    loop {
        let (env, mut times) = build_service_env(o.seed, o.scale);
        let t = Instant::now();
        let mut engine = SessionEngine::new(&env.topo, &env.config);
        service_pass(&mut engine, &env, &shared_routers(&env), TIMED_WORKERS);
        times.total += t.elapsed();
        setups.push(times);
        if setups.len() >= o.scale.setup_reps.max(1) {
            return body(o, &env, engine, setups);
        }
    }
}

fn service_untraced(
    o: &Options,
    env: &ServiceEnv,
    mut engine: SessionEngine<'_>,
    setups: Vec<SetupTimes>,
) -> RunResult {
    let factories = shared_routers(env);
    let mut records: Vec<ChunkRecord> = Vec::new();
    let mut checks = Vec::new();
    let mut errors = Vec::new();
    let start = Instant::now();
    while records.len() < o.scale.min_chunks || start.elapsed().as_secs_f64() < o.seconds {
        let (rec, runs) = service_pass(&mut engine, env, &factories, TIMED_WORKERS);
        match records.first() {
            None => checks = service_checks(&runs, o.scale),
            Some(first) if first.outcome != rec.outcome => errors.push(format!(
                "pass {} over the sessions differs from pass 0",
                records.len()
            )),
            Some(_) => {}
        }
        records.push(rec);
    }
    let bad = mismatches(&env.topo, &env.config, &checks);
    end_to_end(o, &records, &setups, checks.len(), bad, errors)
}

fn service_traced(
    o: &Options,
    env: &ServiceEnv,
    mut engine: SessionEngine<'_>,
    setups: Vec<SetupTimes>,
) -> RunResult {
    let n = o.scale.min_chunks;
    let plain = shared_routers(env);
    // Each worker builds its own timed router from its workload's factory;
    // the wrapper's drop hands its record back through the sink.
    let sink: WorkerSink = Arc::new(Mutex::new(Vec::new()));
    let mut one_worker = vec![service_pass(&mut engine, env, &plain, TIMED_WORKERS).0];
    let stride = one_worker[0].outcome.decisions / o.scale.sample_cap as u64;
    let per_worker_cap = o.scale.sample_cap / (TRACED_WORKERS * env.parts.len());
    let traced_factories: Vec<Factory> = env
        .parts
        .iter()
        .map(|part| {
            let cache = Arc::clone(&part.cache);
            let sink = Arc::clone(&sink);
            Box::new(move || {
                let router = GmpRouter::with_shared_cache(Arc::clone(&cache));
                Box::new(Timed::worker(
                    router,
                    stride,
                    per_worker_cap,
                    Arc::clone(&sink),
                )) as Box<dyn Protocol>
            }) as Factory
        })
        .collect();
    let part_stats = || total_stats(env.parts.iter().map(|p| p.cache.stats()));
    let stats_before = part_stats();
    let mut calls = Calls::default();
    let mut samples = Vec::new();
    let mut busy_ns = 0.0;
    let (mut spawn, mut merge, mut imbalance, mut coverage) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut sessions, mut failed, mut unjustified, mut reuses) = (0u64, 0u64, 0u64, 0u64);
    let mut checks = Vec::new();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    // Passes at one worker (the timed run's configuration, the base of the
    // scaling ratio) and untraced and traced passes at two alternate, so
    // that a drift in the host's speed hits all three alike.
    for pass in 0..n {
        if pass > 0 {
            one_worker.push(service_pass(&mut engine, env, &plain, TIMED_WORKERS).0);
        }
        untraced.push(service_pass(&mut engine, env, &plain, TRACED_WORKERS).0);
        let (rec, runs) = service_pass(&mut engine, env, &traced_factories, TRACED_WORKERS);
        let mut workers = std::mem::take(&mut *sink.lock().expect("no worker panicked"));
        for part in &runs {
            // The workers of this engine run are the ones born during it.
            let end = part.start + part.busy;
            let (mine, rest): (Vec<_>, Vec<_>) = workers
                .into_iter()
                .partition(|w| w.born >= part.start && w.born <= end);
            workers = rest;
            let born = mine.iter().map(|w| w.born).min().unwrap_or(part.start);
            let died = mine.iter().map(|w| w.died).max().unwrap_or(end);
            let spans: Vec<f64> = mine
                .iter()
                .map(|w| w.died.duration_since(w.born).as_nanos() as f64)
                .collect();
            let longest = spans.iter().copied().fold(0.0, f64::max);
            let total: f64 = spans.iter().sum();
            spawn.push(ms(born.duration_since(part.start)));
            merge.push(ms(end.saturating_duration_since(died)));
            imbalance.push(ratio(longest, total / spans.len().max(1) as f64));
            // The share of the workers' wall time that their spans account
            // for; spawn, merge and the idle tail of the shorter worker are
            // what it leaves out.
            coverage.push(total / (TRACED_WORKERS as f64 * part.busy.as_nanos() as f64));
            busy_ns += total;
            for mut w in mine {
                calls.add(&w.calls);
                if pass == 0 {
                    samples.append(&mut w.samples);
                }
            }
            for s in &part.run.outcomes {
                sessions += 1;
                failed += s.report.failed_dests.len() as u64;
                unjustified += s.report.unjustified_failures().count() as u64;
            }
            reuses += part.run.scratch_reuses as u64;
        }
        if pass == 0 {
            checks = service_checks(&runs, o.scale);
        }
        traced.push(rec);
    }
    let cache = cache_delta(stats_before, part_stats());
    let mut errors = compare("traced", &untraced, &traced);
    errors.extend(compare("one worker", &untraced, &one_worker));
    // Counted on a pass of its own, at one worker: two workers bumping one
    // shared counter would slow the passes above.
    let (counted_pass, allocs) =
        counted(|| service_pass(&mut engine, env, &plain, TIMED_WORKERS).0);

    // The engine steps sessions internally, so the simulator layer is
    // timed on a solo traced drive of the checked sessions.
    let mut solo_timed = [Timed::new(GmpRouter::new(), u64::MAX, 0)];
    let mut scratch = SimScratch::new();
    let mut sim = SimSpans::default();
    let chunk = Chunk::once(checks.iter().map(|c| c.job.clone()).collect());
    let mut bad = 0u64;
    let mut next = checks.iter();
    drive_traced(
        &env.topo,
        &env.config,
        &mut solo_timed,
        &mut scratch,
        &chunk,
        &mut sim,
        |_, report, _| {
            if next.next().map(|c| c.digest) != Some(report_digest(report)) {
                bad += 1;
            }
        },
    );
    let replays = replay(&env.topo, &samples);

    let tasks = sessions as f64;
    let mut m = Metrics::default();
    core_metrics(&mut m, &calls, cache, &replays, tasks, busy_ns);
    sim_metrics(&mut m, &sim, &solo_timed[0].calls);
    m.set(
        "sim.allocs_per_task",
        allocs as f64 / counted_pass.outcome.tasks as f64,
    );
    m.set("faults.failed_dests_per_task", failed as f64 / tasks);
    m.set("faults.unjustified_per_task", unjustified as f64 / tasks);
    let updates = env.parts.iter().map(|p| p.workload.updates.len()).sum();
    setup_metrics(&mut m, &setups, updates);
    m.set(
        "service.scaling_vs_1w",
        median_tps(&untraced) / median_tps(&one_worker),
    );
    m.set("service.protocol_frac", calls.ns as f64 / busy_ns);
    m.set("service.worker_imbalance", median(&imbalance));
    m.set("service.spawn_ms", median(&spawn));
    m.set("service.merge_ms", median(&merge));
    m.set("service.cache_hit_rate", cache.hit_rate());
    m.set("service.scratch_reuse_frac", reuses as f64 / tasks);
    m.set("trace.coverage", median(&coverage));
    m.set(
        "trace.overhead",
        1.0 - median_tps(&traced) / median_tps(&untraced),
    );
    RunResult {
        metrics: m.finish(PER_LAYER.iter().map(|p| p.0)),
        facts: vec![
            ("traced_chunks", n.to_string(), "count"),
            ("decision_samples", samples.len().to_string(), "count"),
            ("solo_sessions", checks.len().to_string(), "count"),
        ],
        attempted: sessions,
        failed: bad,
        errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::WORKLOADS;

    /// Every workload, untraced and traced, at smoke size: the reference
    /// check and the trace replay find nothing wrong, and each run emits
    /// exactly the registered metrics.
    #[test]
    fn quick_smoke_of_every_workload() {
        for (workload, name, _) in WORKLOADS {
            for trace in [false, true] {
                let r = run(&Options {
                    workload,
                    seed: 1,
                    seconds: 0.0,
                    trace,
                    scale: Scale::QUICK,
                });
                assert!(r.correct(), "{name} trace={trace}: {:?}", r.errors);
                assert!(r.attempted > 0);
                let names: Vec<&str> = r.metrics.iter().map(|m| m.0).collect();
                let want: Vec<&str> = if trace {
                    PER_LAYER.iter().map(|p| p.0).collect()
                } else {
                    END_TO_END.iter().map(|e| e.name).collect()
                };
                assert_eq!(names, want);
                assert!(
                    r.metrics.iter().all(|m| m.1.is_finite()),
                    "{name}: {:?}",
                    r.metrics
                );
                if !trace {
                    let frac = r.facts.iter().find(|f| f.0 == "check_fail_frac").unwrap();
                    assert_eq!(frac.1, "0", "{name}");
                    let checked = r.facts.iter().find(|f| f.0 == "check_samples").unwrap();
                    assert_ne!(checked.1, "0", "{name} checked nothing");
                }
            }
        }
    }
}
