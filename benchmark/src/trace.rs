//! Per-layer timing measured from outside the program: a wrapper that
//! times every routing decision of a `GmpRouter`, a loop that drives and
//! times the simulator's `Session::begin/step/finish` around it, and
//! replays of sampled decision inputs through the Steiner and grouping
//! layers on their own.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use gmp_core::{CacheConfig, DecisionScratch, GmpRouter, TreeCache};
use gmp_geom::Point;
use gmp_net::{NodeId, Topology};
use gmp_sim::{
    Forward, MulticastPacket, NodeContext, Protocol, RoutingState, Session, SimConfig, SimScratch,
    TaskRunner,
};
use gmp_steiner::rrstr::{rrstr_into, RadioRange, RrstrScratch};
use gmp_steiner::SteinerTree;

use crate::stats::median;
use crate::workload::{Chunk, Job};

/// Counts and nanoseconds of the wrapped router's `on_packet` calls, split
/// by what the decision cache did during the call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Calls {
    pub calls: u64,
    pub ns: u64,
    pub hit_calls: u64,
    pub hit_ns: u64,
    pub miss_calls: u64,
    pub miss_ns: u64,
    pub perimeter: u64,
}

impl Calls {
    pub fn add(&mut self, o: &Calls) {
        self.calls += o.calls;
        self.ns += o.ns;
        self.hit_calls += o.hit_calls;
        self.hit_ns += o.hit_ns;
        self.miss_calls += o.miss_calls;
        self.miss_ns += o.miss_ns;
        self.perimeter += o.perimeter;
    }
}

/// The inputs of one greedy decision, kept for the layer replays.
#[derive(Debug, Clone)]
pub struct Decision {
    node: NodeId,
    dests: Vec<NodeId>,
    entry: Option<Point>,
    alive: Option<Vec<bool>>,
    missed: bool,
}

/// What a worker's wrapper hands back when the engine drops it: its calls,
/// its samples, and the span from its construction to its drop.
#[derive(Debug)]
pub struct WorkerTrace {
    pub calls: Calls,
    pub samples: Vec<Decision>,
    pub born: Instant,
    pub died: Instant,
}

pub type WorkerSink = Arc<Mutex<Vec<WorkerTrace>>>;

/// A `GmpRouter` whose every `on_packet` is timed.
pub struct Timed {
    pub router: GmpRouter,
    pub calls: Calls,
    pub samples: Vec<Decision>,
    stride: u64,
    cap: usize,
    /// Whether calls are split into hits and misses by reading the
    /// router's cache counters around each call.
    split: bool,
    sink: Option<WorkerSink>,
    born: Instant,
}

impl Timed {
    /// Wraps a router with a private cache, keeping the inputs of every
    /// `stride`-th decision up to `cap` of them.
    pub fn new(router: GmpRouter, stride: u64, cap: usize) -> Self {
        Timed {
            router,
            calls: Calls::default(),
            samples: Vec::new(),
            stride: stride.max(1),
            cap,
            split: true,
            sink: None,
            born: Instant::now(),
        }
    }

    /// Wraps an engine worker's router, which reports itself to `sink`
    /// when the worker drops it. Its calls are not split into hits and
    /// misses: the cache it shares counts every worker's lookups, and
    /// reading those counters scans the whole table.
    pub fn worker(router: GmpRouter, stride: u64, cap: usize, sink: WorkerSink) -> Self {
        let mut timed = Timed::new(router, stride, cap);
        timed.split = false;
        timed.sink = Some(sink);
        timed
    }
}

impl Drop for Timed {
    fn drop(&mut self) {
        let died = Instant::now();
        if let Some(sink) = &self.sink {
            if let Ok(mut traces) = sink.lock() {
                traces.push(WorkerTrace {
                    calls: self.calls,
                    samples: std::mem::take(&mut self.samples),
                    born: self.born,
                    died,
                });
            }
        }
    }
}

impl Protocol for Timed {
    fn name(&self) -> String {
        self.router.name()
    }

    fn on_packet(
        &mut self,
        ctx: &NodeContext<'_>,
        packet: MulticastPacket,
        out: &mut Vec<Forward>,
    ) {
        let entry = match &packet.state {
            RoutingState::Perimeter(p) => Some(p.entry),
            _ => None,
        };
        let sampled = self.calls.calls.is_multiple_of(self.stride) && self.samples.len() < self.cap;
        if sampled {
            self.samples.push(Decision {
                node: ctx.node,
                dests: packet.dests.to_vec(),
                entry,
                alive: ctx.alive.map(<[bool]>::to_vec),
                missed: false,
            });
        }
        let before = self.split.then(|| self.router.cache_stats());
        let t = Instant::now();
        self.router.on_packet(ctx, packet, out);
        let ns = t.elapsed().as_nanos() as u64;

        let c = &mut self.calls;
        c.calls += 1;
        c.ns += ns;
        c.perimeter += u64::from(entry.is_some());
        let Some(before) = before else {
            return;
        };
        let after = self.router.cache_stats();
        let missed = after.misses + after.fallbacks > before.misses + before.fallbacks;
        if missed {
            c.miss_calls += 1;
            c.miss_ns += ns;
        } else {
            c.hit_calls += 1;
            c.hit_ns += ns;
        }
        if sampled {
            if let Some(d) = self.samples.last_mut() {
                d.missed = missed;
            }
        }
    }
}

/// Simulator-side spans of a traced drive.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimSpans {
    pub tasks: u64,
    pub steps: u64,
    /// `Session::begin` plus every `Session::step`, protocol time included.
    pub drive_ns: u64,
    pub finish_ns: u64,
    /// Wall time of the driving loops, harness work included.
    pub wall_ns: u64,
    pub failed_dests: u64,
    pub unjustified: u64,
}

/// Drives one chunk's jobs through `Session::begin/step/finish`, each job
/// with the timed router its chunk assigns it, adding to `spans` and
/// reporting each finished task to `each`.
pub fn drive_traced(
    topo: &Topology,
    config: &SimConfig,
    timed: &mut [Timed],
    scratch: &mut SimScratch,
    chunk: &Chunk<'_>,
    spans: &mut SimSpans,
    mut each: impl FnMut(&Job, &gmp_sim::TaskReport, u64),
) {
    let runner = TaskRunner::new(topo, config);
    let wall = Instant::now();
    for (r, job) in chunk.jobs() {
        let router = &mut timed[r];
        let t = Instant::now();
        let mut session =
            Session::begin(runner, router, &job.task, job.seed, std::mem::take(scratch));
        let mut steps = 1u64;
        while !session.step(router) {
            steps += 1;
        }
        let f = Instant::now();
        let (report, back) = session.finish();
        let done = Instant::now();
        *scratch = back;

        let span = done.duration_since(t).as_nanos() as u64;
        spans.tasks += 1;
        spans.steps += steps;
        spans.finish_ns += done.duration_since(f).as_nanos() as u64;
        spans.drive_ns += f.duration_since(t).as_nanos() as u64;
        spans.failed_dests += report.failed_dests.len() as u64;
        spans.unjustified += report.unjustified_failures().count() as u64;
        each(job, &report, span);
    }
    spans.wall_ns += wall.elapsed().as_nanos() as u64;
}

/// Mean cost of the sampled decisions replayed through single layers.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replays {
    pub rrstr_ns: f64,
    pub grouping_ns: f64,
    /// Uncached grouping over the samples whose traced call missed; 0 when
    /// no sampled call missed.
    pub miss_grouping_ns: f64,
    pub lookup_ns: f64,
}

/// Timed passes per replay; the median pass is reported.
const PASSES: usize = 3;

/// Mean nanoseconds per call of `f` over `n` calls, median of [`PASSES`]
/// passes after one untimed pass that warms every buffer.
fn per_call_ns(n: usize, mut f: impl FnMut(usize)) -> f64 {
    if n == 0 {
        return 0.0;
    }
    (0..n).for_each(&mut f);
    let passes: Vec<f64> = (0..PASSES)
        .map(|_| {
            let t = Instant::now();
            (0..n).for_each(&mut f);
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    median(&passes)
}

/// Replays `samples` through `rrstr_into`, through the uncached
/// `DecisionScratch::group_destinations_into`, and through a warmed
/// `TreeCache` (in windows no larger than half its capacity, so the timed
/// lookups are hits, not flushes).
pub fn replay(topo: &Topology, samples: &[Decision]) -> Replays {
    let mode = RadioRange::Aware(topo.radio_range());
    let points: Vec<Vec<Point>> = samples
        .iter()
        .map(|d| d.dests.iter().map(|&n| topo.pos(n)).collect())
        .collect();
    let mut tree = SteinerTree::new(Point::ORIGIN);
    let mut rscratch = RrstrScratch::new();
    let rrstr_ns = per_call_ns(samples.len(), |i| {
        rrstr_into(
            topo.pos(samples[i].node),
            &points[i],
            mode,
            &mut tree,
            &mut rscratch,
        );
        std::hint::black_box(&tree);
    });

    let mut scratch = DecisionScratch::new();
    let group = |d: &Decision, scratch: &mut DecisionScratch| {
        let g = scratch.group_destinations_into(
            topo,
            d.node,
            &d.dests,
            true,
            d.entry,
            d.alive.as_deref(),
        );
        std::hint::black_box(g);
    };
    let grouping_ns = per_call_ns(samples.len(), |i| group(&samples[i], &mut scratch));
    let missed: Vec<&Decision> = samples.iter().filter(|d| d.missed).collect();
    let miss_grouping_ns = per_call_ns(missed.len(), |i| group(missed[i], &mut scratch));

    let config = CacheConfig::default();
    let mut lookup_total = 0.0;
    for window in samples.chunks((config.capacity / 2).max(1)) {
        let mut cache = TreeCache::with_config(config);
        let ns = per_call_ns(window.len(), |i| {
            let d = &window[i];
            let g = cache.group_destinations_cached(
                &mut scratch,
                topo,
                d.node,
                &d.dests,
                true,
                d.entry,
                d.alive.as_deref(),
            );
            std::hint::black_box(g);
        });
        lookup_total += ns * window.len() as f64;
    }
    Replays {
        rrstr_ns,
        grouping_ns,
        miss_grouping_ns,
        lookup_ns: if samples.is_empty() {
            0.0
        } else {
            lookup_total / samples.len() as f64
        },
    }
}
