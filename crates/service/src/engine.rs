//! The concurrent session engine: one time-ordered loop multiplexing
//! many in-flight multicast sessions over a single shared topology.
//!
//! # Determinism
//!
//! With a fixed seed, every session's [`TaskReport`] is bit-identical to
//! running that session alone through [`gmp_sim::TaskRunner::run_seeded`].
//! That holds because sessions share only outcome-neutral state: the
//! read-only topology, one protocol instance per worker (every protocol
//! carries its routing state in the packet, so the instance holds none
//! for any task), a decision cache whose hits are verified bit-exact
//! before use, and pooled scratch buffers that each session resets on
//! entry. Everything outcome-bearing — the event queue, RNG, report,
//! fault runtime, and the task-local clock (each session starts at its
//! own t = 0) — lives inside the session's [`Session`] value, so the
//! interleaving order chosen by the engine cannot leak between sessions.
//!
//! # Scheduling
//!
//! Sessions arrive at their spec's `start_s` on a shared service clock.
//! Each worker runs one event wheel (a binary heap keyed by `start_s +
//! session-local next event time`, admission order breaking ties) that
//! merges its in-flight sessions' event streams; each pop steps exactly
//! one session by one event batch. New sessions are admitted when their
//! arrival time is due relative to the wheel head and a slot is free
//! (`ServiceConfig::max_in_flight`, split evenly across workers, bounds
//! in-flight sessions, which bounds peak scratch memory). Membership is snapshotted at the
//! session's *scheduled* `start_s` via [`MembershipClock`], so admission
//! back-pressure never changes what a session multicasts to.
//!
//! # Parallel execution
//!
//! [`SessionEngine::run_parallel`] shards the event wheel across a pool
//! of worker threads: worker `w` of `n` owns the sessions at indices
//! `w, w+n, w+2n, …` of the workload and drives them through its own
//! copy of the wheel loop, with a private [`MembershipClock`] replay
//! (the strided subset stays sorted by `start_s`, so replay yields the
//! same snapshots the global clock would), private scratch, and its own
//! protocol instance. Because each session's outcome is a pure function
//! of `(task, seed)` — the solo-parity invariant above — the partition
//! cannot change any report; results merge into session-id order. The
//! partition is *static* rather than work-stealing: a racy claim order
//! would let OS scheduling decide which worker's scratch grows to which
//! high-water mark, and a warmed engine would no longer allocate the same
//! on every run (`tests/steady_allocs.rs`; see DESIGN.md, "Concurrency
//! model").

use std::collections::BinaryHeap;
use std::time::Instant;

use gmp_net::{NodeId, Topology};
use gmp_sim::{MulticastTask, Protocol, Session, SimConfig, SimScratch, TaskReport, TaskRunner};

use crate::membership::GroupId;
use crate::workload::{MembershipClock, ServiceWorkload, SessionSpec};

/// Engine knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Maximum sessions in flight at once. Bounds peak scratch memory;
    /// has no effect on any session's outcome.
    pub max_in_flight: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig { max_in_flight: 256 }
    }
}

/// How [`SessionEngine::run_parallel`] workers obtain protocols.
///
/// [`Protocol`] has no `Send` bound, so instances cannot cross threads;
/// instead a `Sync` factory is shared and every instance is constructed
/// inside the worker that will use it. To share one decision cache
/// across workers, close over an `Arc<gmp_core::ConcurrentTreeCache>`
/// and hand each router a clone of the handle.
#[derive(Clone, Copy)]
pub enum ParallelProtocol<'p> {
    /// One fresh instance per worker, shared by that worker's sessions.
    PerWorker(&'p (dyn Fn() -> Box<dyn Protocol> + Sync)),
}

impl std::fmt::Debug for ParallelProtocol<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ParallelProtocol::PerWorker")
    }
}

/// The result of one completed session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOutcome {
    /// The session's id from its [`crate::SessionSpec`].
    pub id: u64,
    /// The group it multicast to.
    pub group: GroupId,
    /// Scheduled arrival on the service clock, seconds.
    pub start_s: f64,
    /// The failure-injection seed it ran with.
    pub seed: u64,
    /// The task it resolved at `start_s` (membership snapshot minus the
    /// source).
    pub task: MulticastTask,
    /// The simulation report — bit-identical to a solo run of
    /// `(task, seed)`.
    pub report: TaskReport,
    /// Routing decisions the session made.
    pub decisions: usize,
    /// Wall-clock time from admission to completion, seconds.
    pub latency_s: f64,
}

/// The result of one engine run.
#[derive(Debug)]
pub struct ServiceRun {
    /// Completed sessions, sorted by id.
    pub outcomes: Vec<SessionOutcome>,
    /// Sessions skipped because their group had no members besides the
    /// source at their `start_s`.
    pub skipped_empty: usize,
    /// How many admissions reused a pooled scratch instead of
    /// allocating a fresh one (steady state: every admission after the
    /// first `max_in_flight`).
    pub scratch_reuses: usize,
    /// Total routing decisions across all sessions.
    pub decisions: usize,
}

/// One in-flight session and the identity it will report under.
struct Active<'a> {
    id: u64,
    group: GroupId,
    start_s: f64,
    seed: u64,
    task: MulticastTask,
    session: Session<'a>,
    admitted: Instant,
}

/// Global event wheel entry: min-ordered by global time, then admission
/// order (`seq`), so the pop order — and with it the shared-cache access
/// pattern — is fully deterministic.
struct WheelEntry {
    global_t: f64,
    seq: u64,
    slot: usize,
}

impl PartialEq for WheelEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for WheelEntry {}
impl PartialOrd for WheelEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for WheelEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event.
        other
            .global_t
            .total_cmp(&self.global_t)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Drives many multicast sessions over one shared topology.
///
/// The engine owns a scratch pool that persists across
/// [`run_parallel`](SessionEngine::run_parallel) calls, so a warmed engine
/// admits sessions without allocating new scratch state.
#[derive(Debug)]
pub struct SessionEngine<'a> {
    topo: &'a Topology,
    config: &'a SimConfig,
    service: ServiceConfig,
    pool: Vec<SimScratch>,
}

impl<'a> SessionEngine<'a> {
    /// An engine with the default [`ServiceConfig`].
    pub fn new(topo: &'a Topology, config: &'a SimConfig) -> Self {
        SessionEngine::with_service(topo, config, ServiceConfig::default())
    }

    /// An engine with an explicit [`ServiceConfig`].
    pub fn with_service(topo: &'a Topology, config: &'a SimConfig, service: ServiceConfig) -> Self {
        assert!(
            service.max_in_flight >= 1,
            "engine needs at least one session slot"
        );
        SessionEngine {
            topo,
            config,
            service,
            pool: Vec::new(),
        }
    }

    /// Runs every session of `workload` to completion, interleaved and
    /// sharded over `threads` worker threads (see the module docs,
    /// *Parallel execution*).
    ///
    /// Returns one [`SessionOutcome`] per non-empty session, sorted by
    /// session id. Every session's report is bit-identical to a solo
    /// [`TaskRunner::run_seeded`], independent of `threads`. The engine's
    /// scratch pool is split round-robin across workers and re-collected
    /// afterwards, so a warmed engine stays warm across runs at the same
    /// worker count.
    pub fn run_parallel(
        &mut self,
        protocol: ParallelProtocol<'_>,
        workload: &ServiceWorkload,
        threads: usize,
    ) -> ServiceRun {
        assert!(threads >= 1, "at least one worker thread");
        let mut shards: Vec<Vec<SessionSpec>> = vec![Vec::new(); threads];
        for (i, spec) in workload.sessions.iter().enumerate() {
            shards[i % threads].push(*spec);
        }
        let mut pools: Vec<Vec<SimScratch>> = Vec::with_capacity(threads);
        pools.resize_with(threads, Vec::new);
        for (i, scratch) in self.pool.drain(..).enumerate() {
            pools[i % threads].push(scratch);
        }
        // Each worker gets an equal share of the admission budget (at
        // least one slot), so total peak scratch stays bounded by
        // `max_in_flight` plus rounding.
        let per_worker = (self.service.max_in_flight / threads).max(1);

        let topo = self.topo;
        let config = self.config;
        let ParallelProtocol::PerWorker(factory) = protocol;

        let mut results: Vec<(ServiceRun, Vec<SimScratch>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .iter()
                .zip(pools)
                .map(|(shard, mut pool)| {
                    scope.spawn(move || {
                        // Protocols are created inside the worker:
                        // `Protocol` is not `Send`, only the factory
                        // crosses threads.
                        let mut own = factory();
                        let run = run_shard(
                            topo,
                            config,
                            per_worker,
                            own.as_mut(),
                            workload,
                            shard,
                            &mut pool,
                        );
                        (run, pool)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let mut merged = ServiceRun {
            outcomes: Vec::with_capacity(workload.sessions.len()),
            skipped_empty: 0,
            scratch_reuses: 0,
            decisions: 0,
        };
        for (run, pool) in &mut results {
            merged.outcomes.append(&mut run.outcomes);
            merged.skipped_empty += run.skipped_empty;
            merged.scratch_reuses += run.scratch_reuses;
            merged.decisions += run.decisions;
            self.pool.append(pool);
        }
        merged.outcomes.sort_by_key(|o| o.id);
        merged
    }

    /// Scratch buffers currently pooled (idle).
    pub fn pooled_scratches(&self) -> usize {
        self.pool.len()
    }
}

/// Runs one shard of session specs through the event-wheel loop.
///
/// This is the whole engine for one worker thread:
/// [`SessionEngine::run_parallel`] calls it with each worker's strided
/// subset and that worker's protocol, which every session of the shard
/// shares. `specs` must be sorted by `start_s` (any
/// subsequence of a workload's session list is), so the shard-local
/// [`MembershipClock`] replay snapshots exactly what the global clock
/// would. Outcomes are returned in completion order.
fn run_shard<'a>(
    topo: &'a Topology,
    config: &'a SimConfig,
    max_in_flight: usize,
    protocol: &mut dyn Protocol,
    workload: &ServiceWorkload,
    specs: &[SessionSpec],
    pool: &mut Vec<SimScratch>,
) -> ServiceRun {
    let runner = TaskRunner::new(topo, config);
    let mut clock = MembershipClock::new();
    let mut dests: Vec<NodeId> = Vec::new();

    let mut wheel: BinaryHeap<WheelEntry> =
        BinaryHeap::with_capacity(max_in_flight.min(specs.len().max(1)));
    let mut slots: Vec<Option<Active<'a>>> = Vec::new();
    let mut free_slots: Vec<usize> = Vec::new();
    let mut in_flight = 0usize;
    let mut admit_seq = 0u64;
    let mut next_spec = 0usize;

    let mut outcomes: Vec<SessionOutcome> = Vec::with_capacity(specs.len());
    let mut skipped_empty = 0usize;
    let mut scratch_reuses = 0usize;
    let mut decisions_total = 0usize;

    loop {
        // Admit every spec that is due (arrival at or before the
        // wheel head — or unconditionally when nothing is in flight)
        // while a slot is free.
        while next_spec < specs.len()
            && in_flight < max_in_flight
            && wheel
                .peek()
                .is_none_or(|head| specs[next_spec].start_s <= head.global_t)
        {
            let spec = specs[next_spec];
            next_spec += 1;
            clock.advance_to(&workload.updates, spec.start_s);
            let Some(task) = workload.snapshot_task(&clock, spec.group, &mut dests) else {
                skipped_empty += 1;
                continue;
            };

            let scratch = match pool.pop() {
                Some(s) => {
                    scratch_reuses += 1;
                    s
                }
                None => SimScratch::new(),
            };
            let session = Session::begin(runner, protocol, &task, spec.seed, scratch);
            let active = Active {
                id: spec.id,
                group: spec.group,
                start_s: spec.start_s,
                seed: spec.seed,
                task,
                session,
                admitted: Instant::now(),
            };
            let slot = match free_slots.pop() {
                Some(i) => {
                    slots[i] = Some(active);
                    i
                }
                None => {
                    slots.push(Some(active));
                    slots.len() - 1
                }
            };
            in_flight += 1;
            let seq = admit_seq;
            admit_seq += 1;

            match slots[slot].as_ref().and_then(|a| a.session.next_time()) {
                Some(t) => wheel.push(WheelEntry {
                    global_t: spec.start_s + t,
                    seq,
                    slot,
                }),
                // A session whose initial transmit already drained the
                // queue (e.g. an unreachable source) completes at once.
                None => {
                    finalize(
                        &mut slots,
                        slot,
                        pool,
                        &mut free_slots,
                        &mut in_flight,
                        &mut outcomes,
                        &mut decisions_total,
                    );
                }
            }
        }

        let Some(head) = wheel.pop() else {
            if next_spec >= specs.len() {
                break;
            }
            // Nothing in flight (an empty wheel implies that) but
            // specs remain: loop back and admit them.
            continue;
        };

        slots[head.slot]
            .as_mut()
            .expect("wheel entry points at a live session")
            .session
            .step(protocol);
        let next = slots[head.slot]
            .as_ref()
            .and_then(|a| a.session.next_time());
        match next {
            Some(t) => {
                let start_s = slots[head.slot].as_ref().unwrap().start_s;
                wheel.push(WheelEntry {
                    global_t: start_s + t,
                    seq: head.seq,
                    slot: head.slot,
                });
            }
            None => {
                finalize(
                    &mut slots,
                    head.slot,
                    pool,
                    &mut free_slots,
                    &mut in_flight,
                    &mut outcomes,
                    &mut decisions_total,
                );
            }
        }
    }

    debug_assert_eq!(in_flight, 0, "all sessions must drain");
    ServiceRun {
        outcomes,
        skipped_empty,
        scratch_reuses,
        decisions: decisions_total,
    }
}

/// Completes the session in `slot`: folds its report, recycles its
/// scratch into the pool, and frees the slot.
fn finalize<'a>(
    slots: &mut [Option<Active<'a>>],
    slot: usize,
    pool: &mut Vec<SimScratch>,
    free_slots: &mut Vec<usize>,
    in_flight: &mut usize,
    outcomes: &mut Vec<SessionOutcome>,
    decisions_total: &mut usize,
) {
    let active = slots[slot].take().expect("finalizing a live session");
    let decisions = active.session.decisions();
    let latency_s = active.admitted.elapsed().as_secs_f64();
    let (report, scratch) = active.session.finish();
    pool.push(scratch);
    *decisions_total += decisions;
    outcomes.push(SessionOutcome {
        id: active.id,
        group: active.group,
        start_s: active.start_s,
        seed: active.seed,
        task: active.task,
        report,
        decisions,
        latency_s,
    });
    free_slots.push(slot);
    *in_flight -= 1;
}
