//! The workloads' inputs, built from the seed, and their untraced loops.
//!
//! Every workload runs on the paper's deployment (1000 nodes on 1000 m ×
//! 1000 m, 150 m radio range) with a topology drawn from the seed. The
//! single-threaded workloads push their tasks through long-lived
//! `GmpRouter`s and a `SimScratch`, one task at a time (a closed loop with
//! one client), once on each of [`TIMED_STATES`] identically built states;
//! `service-churn` hands whole session workloads to the
//! session engine, one worker thread in the timed run and two in the
//! traced one.
//!
//! `replay-warm` and `service-churn` split their inputs into `parts`
//! independent draws (task sets, or session workloads), each with its own
//! decision cache, and every chunk runs all of them. Their cost is set by a
//! handful of inputs — the slowest replayed tasks, the groups that happen to
//! hold crashed members — so one draw per run would make the seed, not the
//! code, decide the tail.

use std::borrow::Cow;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gmp_core::{CacheStats, ConcurrentTreeCache, GmpRouter};
use gmp_net::{NodeId, Topology};
use gmp_service::{ParallelProtocol, ServiceRun, ServiceWorkload, SessionEngine, WorkloadParams};
use gmp_sim::{FaultPlan, MulticastTask, Protocol, SimConfig, SimScratch, TaskReport, TaskRunner};

use crate::registry::Workload;
use crate::stats::{cache_delta, derive, nearest_rank, report_digest, total_stats, Fnv, Stream};

/// Worker threads of `service-churn`'s timed run. At two workers the
/// run-to-run spread of its throughput on a shared two-core host measured
/// two to three times that at one, wider than any usable regression bound.
pub const TIMED_WORKERS: usize = 1;

/// Worker threads of `service-churn`'s traced run: the host's two cores.
pub const TRACED_WORKERS: usize = 2;

/// Sizes of one run. A chunk is the unit of timed work; its throughput
/// is one sample of `tasks_per_s`.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Independent draws of `replay-warm`'s task set and of
    /// `service-churn`'s session workload.
    pub parts: usize,
    /// Distinct tasks in each `replay-warm` task set.
    pub replay_tasks: usize,
    /// Replays of each task set per chunk.
    pub replay_rounds: usize,
    /// Fresh tasks per chunk of `fresh-cold`.
    pub fresh_tasks: usize,
    /// Fresh tasks per chunk of `crash-mac`.
    pub crash_tasks: usize,
    /// Untimed tasks run before the first chunk.
    pub warmup_tasks: usize,
    /// Sessions in each `service-churn` workload; one pass over every
    /// workload is a chunk.
    pub sessions: usize,
    /// Chunks every run completes, however short `--seconds`; the
    /// simulated metrics and the digest cover exactly these, and the
    /// traced run replays them.
    pub min_chunks: usize,
    /// Fresh constructions timed for `setup_s`.
    pub setup_reps: usize,
    /// Every `check_stride`-th task is re-run through the reference path,
    /// or more often where that would check fewer than `check_min`.
    pub check_stride: u64,
    pub check_min: usize,
    /// At most this many tasks are re-run.
    pub check_cap: usize,
    /// Decision inputs kept for the layer replays.
    pub sample_cap: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        parts: 4,
        replay_tasks: 256,
        replay_rounds: 25,
        fresh_tasks: 6_000,
        crash_tasks: 1_800,
        warmup_tasks: 1_000,
        sessions: 2_500,
        min_chunks: 3,
        setup_reps: 5,
        check_stride: 97,
        check_min: 200,
        check_cap: 500,
        sample_cap: 2_048,
    };

    /// A smoke-test size that runs every code path in seconds, even in a
    /// debug build.
    pub const QUICK: Scale = Scale {
        parts: 2,
        replay_tasks: 6,
        replay_rounds: 2,
        fresh_tasks: 24,
        crash_tasks: 12,
        warmup_tasks: 6,
        sessions: 60,
        min_chunks: 3,
        setup_reps: 2,
        check_stride: 5,
        check_min: 10,
        check_cap: 40,
        sample_cap: 64,
    };
}

/// One multicast task and the seed its run draws from.
#[derive(Debug, Clone)]
pub struct Job {
    pub task: MulticastTask,
    pub seed: u64,
}

/// The jobs of one chunk: one list per router, each run `rounds` times in
/// order before the next list starts.
pub struct Chunk<'a> {
    sets: Vec<Cow<'a, [Job]>>,
    rounds: usize,
}

impl Chunk<'_> {
    /// `jobs`, run once through one router.
    pub fn once(jobs: Vec<Job>) -> Chunk<'static> {
        Chunk {
            sets: vec![Cow::Owned(jobs)],
            rounds: 1,
        }
    }

    pub fn len(&self) -> usize {
        self.sets.iter().map(|s| s.len()).sum::<usize>() * self.rounds
    }

    /// Every job in run order, with the index of the router that runs it.
    pub fn jobs(&self) -> impl Iterator<Item = (usize, &Job)> {
        self.sets.iter().enumerate().flat_map(move |(r, set)| {
            (0..self.rounds).flat_map(move |_| set.iter().map(move |job| (r, job)))
        })
    }
}

/// Everything a chunk produced that does not depend on timing; the traced
/// pass must reproduce it exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcome {
    pub digest: Fnv,
    pub tasks: u64,
    pub transmissions: u64,
    pub delivered: u64,
    pub dests: u64,
    pub decisions: u64,
    /// Cache counters over the chunk. Left zero for `service-churn`, where
    /// two workers race on one shared cache and the counts can vary.
    pub cache: CacheStats,
}

impl Outcome {
    /// Folds one finished task in; returns the report's digest.
    pub fn add(&mut self, report: &TaskReport, k: usize) -> u64 {
        let d = report_digest(report);
        self.digest.word(d);
        self.tasks += 1;
        self.transmissions += report.transmissions as u64;
        self.delivered += report.delivered_count() as u64;
        self.dests += k as u64;
        d
    }
}

/// One chunk: its outcome, the summed spans of the calls that ran its
/// tasks, and the nearest-rank percentiles of the tasks' latencies.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChunkRecord {
    pub outcome: Outcome,
    pub busy: Duration,
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// Whether identically built states ran the chunk to different outcomes.
    pub runs_differ: bool,
}

impl ChunkRecord {
    pub fn tasks_per_s(&self) -> f64 {
        self.outcome.tasks as f64 / self.busy.as_secs_f64()
    }

    /// Sets the percentiles from every task's latency in the chunk.
    fn latencies_ms(&mut self, mut ms: Vec<f64>) {
        ms.sort_by(f64::total_cmp);
        self.p50_ms = nearest_rank(&ms, 0.50);
        self.p99_ms = nearest_rank(&ms, 0.99);
    }
}

/// A task sampled for the reference check, with the digest of the report
/// the timed run produced for it.
#[derive(Debug, Clone)]
pub struct Check {
    pub job: Job,
    pub digest: u64,
}

/// Set-up timings of one fresh construction.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub total: Duration,
    pub topology: Duration,
    pub workload: Duration,
}

/// The paper's deployment for `seed`, planarized. Planarization is lazy in
/// `gmp-net`; asking for one row builds the whole planar graph, so its cost
/// lands in set-up rather than in the first perimeter decision.
fn topology(config: &SimConfig, seed: u64) -> Topology {
    let topo = Topology::random(&config.topology_config(), derive(seed, Stream::Topology, 0));
    topo.planar_neighbors(config.planar_kind(), NodeId(0));
    topo
}

const REPLAY_K: [usize; 3] = [5, 15, 25];
const CRASH_K: usize = 10;

/// Deployment, inputs and router states of a single-threaded workload.
pub struct Solo {
    pub env: SoloEnv,
    /// Identically built states; every chunk runs on each in turn.
    pub states: Vec<State>,
}

/// What running tasks changes: the routers and the simulator's scratch.
pub struct State {
    /// One router per task set of `replay-warm`; one for the others.
    pub routers: Vec<GmpRouter>,
    pub scratch: SimScratch,
}

/// States the timed run builds, so that every timed task runs this many
/// times and its time is the lowest. The slowest 1% of `crash-mac`'s tasks
/// in two runs of one seed were only 18% the same tasks: host
/// interference, not the tasks, set `task_p99_ms`, and its spread over ten
/// seeds reached 25%. A second run, a chunk later, filters out interference
/// that does not hit both runs.
pub const TIMED_STATES: usize = 2;

/// The read-only part of [`Solo`].
pub struct SoloEnv {
    pub workload: Workload,
    pub seed: u64,
    pub scale: Scale,
    pub topo: Topology,
    pub config: SimConfig,
    /// `replay-warm`'s task sets, or the first chunk of the other two.
    first: Vec<Vec<Job>>,
}

impl SoloEnv {
    fn k(&self, index: usize) -> usize {
        match self.workload {
            Workload::CrashMac => CRASH_K,
            _ => REPLAY_K[index % REPLAY_K.len()],
        }
    }

    /// Jobs `start..start + n` of `stream`.
    fn generate(&self, stream: Stream, start: usize, n: usize) -> Vec<Job> {
        (start..start + n)
            .map(|i| {
                let seed = derive(self.seed, stream, i as u64);
                Job {
                    task: MulticastTask::random(&self.topo, self.k(i), seed),
                    seed,
                }
            })
            .collect()
    }

    fn chunk_len(&self) -> usize {
        match self.workload {
            Workload::FreshCold => self.scale.fresh_tasks,
            Workload::CrashMac => self.scale.crash_tasks,
            _ => self.scale.replay_tasks,
        }
    }

    /// The jobs of chunk `c`.
    pub fn chunk(&self, c: usize) -> Chunk<'_> {
        match self.workload {
            Workload::ReplayWarm => Chunk {
                sets: self.first.iter().map(|s| Cow::Borrowed(&s[..])).collect(),
                rounds: self.scale.replay_rounds,
            },
            _ if c == 0 => Chunk {
                sets: vec![Cow::Borrowed(&self.first[0][..])],
                rounds: 1,
            },
            _ => Chunk::once(self.generate(Stream::Tasks, c * self.chunk_len(), self.chunk_len())),
        }
    }
}

/// Builds a single-threaded workload from scratch: topology, inputs, and
/// `states` router states, each with an untimed warm-up (one pass over each
/// replay set, or `warmup_tasks` tasks from their own seed stream).
pub fn build_solo(
    workload: Workload,
    seed: u64,
    scale: Scale,
    states: usize,
) -> (Solo, SetupTimes) {
    let start = Instant::now();
    let mut config = SimConfig::paper();
    if workload == Workload::CrashMac {
        config = config
            .with_collisions(true)
            .with_tx_jitter(0.005)
            .with_retransmissions(7);
    }
    let topo = topology(&config, seed);
    let topology_done = Instant::now();
    if workload == Workload::CrashMac {
        let plan =
            FaultPlan::random_crashes(config.node_count, 0.2, 0.0, derive(seed, Stream::Faults, 0));
        config = config.with_faults(plan);
    }
    let mut env = SoloEnv {
        workload,
        seed,
        scale,
        topo,
        config,
        first: Vec::new(),
    };
    let sets = if workload == Workload::ReplayWarm {
        scale.parts
    } else {
        1
    };
    let n = env.chunk_len();
    env.first = (0..sets)
        .map(|s| env.generate(Stream::Tasks, s * n, n))
        .collect();
    let workload_done = Instant::now();

    let warmup = match workload {
        Workload::ReplayWarm => Cow::Borrowed(&env.first),
        _ => Cow::Owned(vec![env.generate(Stream::Warmup, 0, scale.warmup_tasks)]),
    };
    let runner = TaskRunner::new(&env.topo, &env.config);
    let states = (0..states)
        .map(|_| {
            let mut state = State {
                routers: (0..sets).map(|_| GmpRouter::new()).collect(),
                scratch: SimScratch::new(),
            };
            for (router, set) in state.routers.iter_mut().zip(warmup.iter()) {
                for job in set {
                    runner.run_with_scratch(router, &job.task, job.seed, &mut state.scratch);
                }
            }
            state
        })
        .collect();
    drop(warmup);
    let times = SetupTimes {
        total: start.elapsed(),
        topology: topology_done - start,
        workload: workload_done - topology_done,
    };
    (Solo { env, states }, times)
}

/// Builds `scale.setup_reps` times, keeping the last construction.
pub fn setup_solo(
    workload: Workload,
    seed: u64,
    scale: Scale,
    states: usize,
) -> (Solo, Vec<SetupTimes>) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..scale.setup_reps.max(1) {
        drop(last.take());
        let (solo, t) = build_solo(workload, seed, scale, states);
        times.push(t);
        last = Some(solo);
    }
    (last.expect("at least one construction"), times)
}

/// Runs chunk `c` untraced on every state in turn, timing each task on its
/// own; a task's time is its lowest over the states. The outcome is the
/// first state's; `runs_differ` is set if another state's is not the same.
/// `next_index` numbers the tasks across chunks for the check sampling.
pub fn run_chunk(
    solo: &mut Solo,
    c: usize,
    next_index: &mut u64,
    mut checks: Option<&mut Vec<Check>>,
) -> ChunkRecord {
    let env = &solo.env;
    let runner = TaskRunner::new(&env.topo, &env.config);
    let chunk = env.chunk(c);
    let mut spans = vec![Duration::MAX; chunk.len()];
    let mut rec = ChunkRecord::default();
    for (s, state) in solo.states.iter_mut().enumerate() {
        let before = total_stats(state.routers.iter().map(GmpRouter::cache_stats));
        let mut outcome = Outcome::default();
        for ((r, job), lowest) in chunk.jobs().zip(&mut spans) {
            let t = Instant::now();
            let report = runner.run_with_scratch(
                &mut state.routers[r],
                &job.task,
                job.seed,
                &mut state.scratch,
            );
            *lowest = (*lowest).min(t.elapsed());
            let digest = outcome.add(&report, job.task.k());
            if s > 0 {
                continue;
            }
            if let Some(checks) = checks.as_deref_mut() {
                if next_index.is_multiple_of(env.scale.check_stride)
                    && checks.len() < env.scale.check_cap
                {
                    checks.push(Check {
                        job: job.clone(),
                        digest,
                    });
                }
            }
            *next_index += 1;
        }
        let after = total_stats(state.routers.iter().map(GmpRouter::cache_stats));
        let delta = cache_delta(before, after);
        // Every `on_packet` of a `GmpRouter` makes exactly one cache lookup.
        outcome.decisions = delta.lookups();
        outcome.cache = delta;
        if s == 0 {
            rec.outcome = outcome;
        } else {
            rec.runs_differ |= outcome != rec.outcome;
        }
    }
    rec.busy = spans.iter().sum();
    rec.latencies_ms(spans.iter().map(|d| d.as_secs_f64() * 1e3).collect());
    rec
}

/// Deployment and session workloads of `service-churn`.
pub struct ServiceEnv {
    pub topo: Topology,
    pub config: SimConfig,
    pub parts: Vec<ServicePart>,
}

/// One session workload and the decision cache its workers share.
pub struct ServicePart {
    pub workload: ServiceWorkload,
    pub cache: Arc<ConcurrentTreeCache>,
}

/// One in a hundred nodes crashes at t = 0, as timed events so every
/// session sees the same liveness view and the shared cache stays shared.
const CRASH_STRIDE: usize = 100;

/// Builds the `service-churn` deployment and workloads, without the
/// engine. Each workload has BENCH_5's paper-1000 shape — 16 groups of 24,
/// session arrivals and churn at its rates, crashes detected halfway.
pub fn build_service_env(seed: u64, scale: Scale) -> (ServiceEnv, SetupTimes) {
    let start = Instant::now();
    let base = SimConfig::paper();
    let topo = topology(&base, seed);
    let topology_done = Instant::now();
    let candidates: Vec<NodeId> = (0..topo.len() as u32).map(NodeId).collect();
    let mut plan = FaultPlan::none();
    for &node in candidates.iter().step_by(CRASH_STRIDE).skip(1) {
        plan = plan.with_crash(node, 0.0);
    }
    // BENCH_5 spread 20,000 sessions over 60 s.
    let duration_s = 60.0 * scale.sessions as f64 / 20_000.0;
    let params = WorkloadParams {
        groups: 16,
        members_per_group: 24,
        churn_updates: (scale.sessions / 5).max(200),
        sessions: scale.sessions,
        duration_s,
        min_members: 2,
        max_members: 40,
        crash_detect_s: duration_s / 2.0,
    };
    let parts = (0..scale.parts)
        .map(|p| ServicePart {
            workload: ServiceWorkload::random(
                &candidates,
                &params,
                &plan,
                derive(seed, Stream::Service, p as u64),
            ),
            cache: Arc::new(ConcurrentTreeCache::new()),
        })
        .collect();
    let workload_done = Instant::now();
    let env = ServiceEnv {
        topo,
        config: base.with_faults(plan),
        parts,
    };
    let times = SetupTimes {
        total: start.elapsed(),
        topology: topology_done - start,
        workload: workload_done - topology_done,
    };
    (env, times)
}

/// A factory the engine calls once per worker for its protocol.
pub type Factory = Box<dyn Fn() -> Box<dyn Protocol> + Sync>;

/// Per part, a factory handing each worker a router over the part's cache.
pub fn shared_routers(env: &ServiceEnv) -> Vec<Factory> {
    env.parts
        .iter()
        .map(|part| {
            let cache = Arc::clone(&part.cache);
            Box::new(move || {
                Box::new(GmpRouter::with_shared_cache(Arc::clone(&cache))) as Box<dyn Protocol>
            }) as Factory
        })
        .collect()
}

/// One engine run over one part's sessions, with its start and length.
pub struct PartRun {
    pub start: Instant,
    pub busy: Duration,
    pub run: ServiceRun,
}

/// One pass of the engine over every part's sessions, in turn: one chunk.
/// `factories` holds one factory per part.
pub fn service_pass(
    engine: &mut SessionEngine<'_>,
    env: &ServiceEnv,
    factories: &[Factory],
    workers: usize,
) -> (ChunkRecord, Vec<PartRun>) {
    let runs: Vec<PartRun> = env
        .parts
        .iter()
        .zip(factories)
        .map(|(part, factory)| {
            let start = Instant::now();
            let run = engine.run_parallel(
                ParallelProtocol::PerWorker(factory.as_ref()),
                &part.workload,
                workers,
            );
            PartRun {
                start,
                busy: start.elapsed(),
                run,
            }
        })
        .collect();
    let mut rec = ChunkRecord::default();
    let mut latencies = Vec::new();
    for (p, part) in runs.iter().enumerate() {
        rec.busy += part.busy;
        rec.outcome.decisions += part.run.decisions as u64;
        for o in &part.run.outcomes {
            rec.outcome.digest.word(p as u64);
            rec.outcome.digest.word(o.id);
            rec.outcome.digest.word(o.seed);
            rec.outcome.add(&o.report, o.task.k());
            latencies.push(o.latency_s * 1e3);
        }
    }
    rec.latencies_ms(latencies);
    (rec, runs)
}

/// Every `check_stride`-th session of a pass (more often if that would
/// check fewer than `check_min`), for the reference check.
pub fn service_checks(runs: &[PartRun], scale: Scale) -> Vec<Check> {
    let sessions: usize = runs.iter().map(|p| p.run.outcomes.len()).sum();
    let stride = (sessions / scale.check_min).clamp(1, scale.check_stride as usize);
    runs.iter()
        .flat_map(|p| &p.run.outcomes)
        .step_by(stride)
        .take(scale.check_cap)
        .map(|o| Check {
            job: Job {
                task: o.task.clone(),
                seed: o.seed,
            },
            digest: report_digest(&o.report),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_follow_the_seed() {
        let (a, _) = build_solo(Workload::FreshCold, 1, Scale::QUICK, 1);
        let (b, _) = build_solo(Workload::FreshCold, 1, Scale::QUICK, 1);
        let (c, _) = build_solo(Workload::FreshCold, 2, Scale::QUICK, 1);
        let tasks = |s: &Solo, ch: usize| -> Vec<MulticastTask> {
            s.env
                .chunk(ch)
                .jobs()
                .map(|(_, j)| j.task.clone())
                .collect()
        };
        assert_eq!(tasks(&a, 0), tasks(&b, 0));
        assert_eq!(tasks(&a, 1), tasks(&b, 1));
        assert_ne!(tasks(&a, 0), tasks(&c, 0));
        assert_ne!(
            tasks(&a, 0),
            tasks(&a, 1),
            "chunks never repeat a task stream"
        );
        assert_ne!(a.env.topo.positions_ref(), c.env.topo.positions_ref());
    }

    #[test]
    fn replay_sets_are_distinct_and_repeat_every_chunk() {
        let (s, _) = build_solo(Workload::ReplayWarm, 1, Scale::QUICK, TIMED_STATES);
        let chunk = s.env.chunk(0);
        assert_eq!(
            chunk.len(),
            Scale::QUICK.parts * Scale::QUICK.replay_tasks * Scale::QUICK.replay_rounds
        );
        let first: Vec<MulticastTask> = chunk.jobs().map(|(_, j)| j.task.clone()).collect();
        let again: Vec<MulticastTask> =
            s.env.chunk(5).jobs().map(|(_, j)| j.task.clone()).collect();
        assert_eq!(first, again);
        let set =
            |r: usize| -> Vec<&MulticastTask> { s.env.first[r].iter().map(|j| &j.task).collect() };
        assert_ne!(set(0), set(1));
        assert_eq!(s.states.len(), TIMED_STATES);
        assert!(s
            .states
            .iter()
            .all(|state| state.routers.len() == Scale::QUICK.parts));
    }
}
