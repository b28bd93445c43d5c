//! Behavior pin for the rewritten per-task event loop.
//!
//! `seed_ref` is a faithful replica of the pre-optimization runner: the
//! on-air list is a `Vec` that is never pruned and rescanned in full for
//! every collision check, audibility is the exact `dist ≤ rr` comparison,
//! pending destinations live in a `HashSet`, deliveries insert straight
//! into `BTreeMap`s (converted to the report's sorted lists once at the
//! end), the power-control listener count is an
//! O(degree) distance filter, and every forwarding decision collects into
//! a fresh `Vec`. The optimized runner replaces all of that machinery —
//! expiry-ordered pruning heap, neighbor-set audibility fast path, indexed
//! pending bitmap, deferred map folds, one reused forward buffer — and
//! none of it may change a single simulated outcome: the [`TaskReport`]s
//! must be bit-identical on every protocol, configuration, and seed.

use gmp_baselines::{GrdRouter, LgsRouter, PbmRouter, SmtRouter};
use gmp_core::GmpRouter;
use gmp_net::Topology;
use gmp_sim::{MulticastTask, Protocol, SimConfig, SimScratch, TaskReport, TaskRunner};

mod seed_ref {
    use std::collections::{BTreeMap, HashSet};

    use gmp_net::{NodeId, Topology};
    use gmp_sim::config::SimConfig;
    use gmp_sim::energy::EnergyModel;
    use gmp_sim::event::{Event, EventQueue};
    use gmp_sim::metrics::TaskReport;
    use gmp_sim::packet::MulticastPacket;
    use gmp_sim::protocol::{Forward, NodeContext, Protocol};
    use gmp_sim::task::MulticastTask;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    pub struct TaskRunner<'a> {
        topo: &'a Topology,
        config: &'a SimConfig,
    }

    impl<'a> TaskRunner<'a> {
        pub fn new(topo: &'a Topology, config: &'a SimConfig) -> Self {
            TaskRunner { topo, config }
        }

        pub fn run_seeded(
            &self,
            protocol: &mut dyn Protocol,
            task: &MulticastTask,
            seed: u64,
        ) -> TaskReport {
            let mut report = TaskReport::new(protocol.name());
            let energy = EnergyModel::from_config(self.config);
            let mut rng = StdRng::seed_from_u64(seed);

            let mut alive = vec![true; self.topo.len()];
            if self.config.faults.node_failure_prob > 0.0 {
                for (i, a) in alive.iter_mut().enumerate() {
                    if NodeId(i as u32) != task.source
                        && rng.gen::<f64>() < self.config.faults.node_failure_prob
                    {
                        *a = false;
                    }
                }
            }

            let mut pending: HashSet<NodeId> = task.dests.iter().copied().collect();
            let mut delivery_hops: BTreeMap<NodeId, u32> = BTreeMap::new();
            let mut delivery_times_s: BTreeMap<NodeId, f64> = BTreeMap::new();
            let mut queue = EventQueue::new();
            let mut events_processed = 0usize;
            let mut on_air: Vec<(f64, f64, NodeId)> = Vec::new();

            let ctx_at = |node: NodeId| NodeContext {
                topo: self.topo,
                node,
                config: self.config,
                alive: None,
            };

            let initial = MulticastPacket::new(0, task.source, task.dests.clone());
            let forwards = protocol.route(&ctx_at(task.source), initial);
            self.transmit_jittered(
                task.source,
                forwards,
                &mut queue,
                &mut report,
                &energy,
                &mut on_air,
                &mut rng,
            );

            while let Some((time, event)) = queue.pop() {
                events_processed += 1;
                if events_processed > self.config.max_events {
                    report.truncated = true;
                    break;
                }
                let Event::Deliver {
                    to,
                    from,
                    sent_at,
                    retries,
                    mut packet,
                } = event;
                if !alive[to.index()] {
                    report.dropped_packets += 1;
                    continue;
                }
                if self.config.faults.link_loss_prob > 0.0
                    && rng.gen::<f64>() < self.config.faults.link_loss_prob
                {
                    report.dropped_packets += 1;
                    continue;
                }
                if self.config.collisions && self.collides(&on_air, sent_at, time, from, to) {
                    if retries < self.config.max_retransmissions {
                        let airtime = time - sent_at;
                        let backoff = if self.config.tx_jitter_s > 0.0 {
                            rng.gen_range(0.0..=self.config.tx_jitter_s * (retries as f64 + 1.0))
                        } else {
                            airtime
                        };
                        let link_m = self.topo.pos(from).dist(self.topo.pos(to));
                        let listeners = self.topo.neighbors(from).len();
                        report.transmissions += 1;
                        report.bytes_transmitted += self.config.message_bytes;
                        report.links.push((from, to));
                        report.energy_j += energy.transmission_energy(
                            self.config.message_bytes,
                            listeners,
                            link_m,
                        );
                        let resend_at = time + backoff;
                        report.link_times_s.push(resend_at);
                        on_air.push((resend_at, resend_at + airtime, from));
                        queue.schedule(
                            resend_at + airtime,
                            Event::Deliver {
                                to,
                                from,
                                sent_at: resend_at,
                                retries: retries + 1,
                                packet,
                            },
                        );
                    } else {
                        report.dropped_packets += 1;
                    }
                    continue;
                }
                if packet.dests.contains(&to) {
                    packet.dests.retain(|&d| d != to);
                    if pending.remove(&to) {
                        delivery_hops.insert(to, packet.hops);
                        delivery_times_s.insert(to, time);
                        report.completion_time_s = report.completion_time_s.max(time);
                    }
                }
                if packet.dests.is_empty() {
                    continue;
                }
                let forwards = protocol.route(&ctx_at(to), packet);
                self.transmit_jittered(
                    to,
                    forwards,
                    &mut queue,
                    &mut report,
                    &energy,
                    &mut on_air,
                    &mut rng,
                );
            }

            // The report lists first deliveries in ascending destination
            // order, which is the maps' iteration order.
            report.delivery_hops = delivery_hops.into_iter().collect();
            report.delivery_times_s = delivery_times_s.into_iter().collect();

            // The seed predates the guarantee oracle: it only knows *which*
            // destinations failed, not why. The parity harness compares the
            // id sets and the causes are pinned by the runner's own tests.
            let mut failed: Vec<NodeId> = pending.into_iter().collect();
            failed.sort();
            report.failed_dests = failed
                .into_iter()
                .map(|d| gmp_sim::FailedDest::new(d, gmp_sim::FailureCause::NoRoute))
                .collect();
            report
        }

        fn collides(
            &self,
            on_air: &[(f64, f64, NodeId)],
            start: f64,
            end: f64,
            from: NodeId,
            to: NodeId,
        ) -> bool {
            let rr = self.config.radio_range;
            on_air.iter().any(|&(a, b, sender)| {
                sender != from
                    && a < end
                    && start < b
                    && (sender == to || self.topo.pos(sender).dist(self.topo.pos(to)) <= rr)
            })
        }

        #[allow(clippy::too_many_arguments)]
        fn transmit_jittered(
            &self,
            sender: NodeId,
            forwards: Vec<Forward>,
            queue: &mut EventQueue,
            report: &mut TaskReport,
            energy: &EnergyModel,
            on_air: &mut Vec<(f64, f64, NodeId)>,
            rng: &mut StdRng,
        ) {
            for mut fwd in forwards {
                assert!(self.topo.neighbors(sender).contains(&fwd.next_hop));
                fwd.packet.hops += 1;
                if fwd.packet.hops > self.config.max_path_hops {
                    report.dropped_packets += 1;
                    continue;
                }
                let bytes = if self.config.size_dependent_airtime {
                    fwd.packet.encoded_len()
                } else {
                    self.config.message_bytes
                };
                let link_m = self.topo.pos(sender).dist(self.topo.pos(fwd.next_hop));
                let listeners = if self.config.power_control.is_some() {
                    self.topo
                        .neighbors(sender)
                        .iter()
                        .filter(|&&n| {
                            self.topo.pos(sender).dist(self.topo.pos(n)) <= link_m + gmp_geom::EPS
                        })
                        .count()
                } else {
                    self.topo.neighbors(sender).len()
                };
                report.transmissions += 1;
                report.bytes_transmitted += bytes;
                report.links.push((sender, fwd.next_hop));
                report.link_times_s.push(queue.now());
                report.energy_j += energy.transmission_energy(bytes, listeners, link_m);
                let jitter = if self.config.tx_jitter_s > 0.0 {
                    rng.gen_range(0.0..=self.config.tx_jitter_s)
                } else {
                    0.0
                };
                let sent_at = queue.now() + jitter;
                let arrival = sent_at + energy.airtime(bytes);
                if self.config.collisions {
                    on_air.push((sent_at, arrival, sender));
                }
                queue.schedule(
                    arrival,
                    Event::Deliver {
                        to: fwd.next_hop,
                        from: sender,
                        sent_at,
                        retries: 0,
                        packet: fwd.packet,
                    },
                );
            }
        }
    }
}

/// Every protocol in the workspace, freshly constructed, so old and new
/// runs each start from a cold router (GMP's decision cache included).
fn protocols() -> Vec<Box<dyn Protocol>> {
    vec![
        Box::new(GmpRouter::new()),
        Box::new(GrdRouter::new()),
        Box::new(LgsRouter::new()),
        Box::new(PbmRouter::new()),
        Box::new(SmtRouter::new()),
    ]
}

/// The configuration axes the rewrite touched: collision pruning (with and
/// without the jittered-backoff RNG path), link loss, power-control
/// listener counting, size-dependent airtime, failure injection, and a
/// kitchen-sink combination.
fn configs() -> Vec<(&'static str, SimConfig)> {
    let base = SimConfig::paper().with_node_count(300);
    vec![
        ("plain", base.clone()),
        (
            "collisions-jitter",
            base.clone()
                .with_collisions(true)
                .with_tx_jitter(0.005)
                .with_retransmissions(7),
        ),
        (
            "collisions-no-jitter",
            base.clone().with_collisions(true).with_retransmissions(2),
        ),
        ("link-loss", base.clone().with_link_loss_prob(0.3)),
        (
            "power-control",
            base.clone()
                .with_power_control(gmp_sim::config::PowerControl {
                    alpha: 2.0,
                    overhead_w: 0.2,
                }),
        ),
        (
            "size-dependent-airtime",
            base.clone().with_size_dependent_airtime(true),
        ),
        ("failures", base.clone().with_node_failure_prob(0.1)),
        (
            "kitchen-sink",
            base.with_collisions(true)
                .with_tx_jitter(0.003)
                .with_retransmissions(4)
                .with_link_loss_prob(0.05)
                .with_node_failure_prob(0.05),
        ),
    ]
}

fn assert_identical(old: &TaskReport, new: &TaskReport, what: &str) {
    // Failure causes are produced by the guarantee oracle, which the
    // pre-oracle seed cannot replicate: compare the failed id *sets*
    // exactly, then everything else with causes stripped.
    assert_eq!(
        old.failed_ids().collect::<Vec<_>>(),
        new.failed_ids().collect::<Vec<_>>(),
        "failed destinations diverged: {what}"
    );
    let mut old = old.clone();
    let mut new = new.clone();
    old.failed_dests.clear();
    new.failed_dests.clear();
    let (old, new) = (&old, &new);
    // `PartialEq` on f64 fields already demands exact equality for finite
    // values; pin the bit patterns of the accumulated floats explicitly so
    // a `-0.0`/`0.0` or NaN drift cannot slip through.
    assert_eq!(old, new, "reports diverged: {what}");
    assert_eq!(
        old.energy_j.to_bits(),
        new.energy_j.to_bits(),
        "energy bits diverged: {what}"
    );
    assert_eq!(
        old.completion_time_s.to_bits(),
        new.completion_time_s.to_bits(),
        "completion-time bits diverged: {what}"
    );
    for (a, b) in old.link_times_s.iter().zip(&new.link_times_s) {
        assert_eq!(a.to_bits(), b.to_bits(), "link-time bits diverged: {what}");
    }
}

#[test]
fn task_reports_are_bit_identical_across_protocols_and_configs() {
    let topo = Topology::random(
        &SimConfig::paper().with_node_count(300).topology_config(),
        11,
    );
    let tasks: Vec<MulticastTask> = (0..3)
        .map(|i| MulticastTask::random(&topo, 10, 400 + i))
        .collect();
    let mut scratch = SimScratch::new();
    for (config_name, config) in configs() {
        let old_runner = seed_ref::TaskRunner::new(&topo, &config);
        let new_runner = TaskRunner::new(&topo, &config);
        for (task_i, task) in tasks.iter().enumerate() {
            for seed in [0u64, 5] {
                for mut old_proto in protocols() {
                    let mut new_proto = protocols()
                        .into_iter()
                        .find(|p| p.name() == old_proto.name())
                        .expect("same protocol set");
                    let old = old_runner.run_seeded(old_proto.as_mut(), task, seed);
                    let new =
                        new_runner.run_with_scratch(new_proto.as_mut(), task, seed, &mut scratch);
                    let what = format!(
                        "protocol {} config {config_name} task {task_i} seed {seed}",
                        old.protocol
                    );
                    assert_identical(&old, &new, &what);
                }
            }
        }
    }
}

mod zero_fault_parity {
    //! Satellite of the fault subsystem: an *inert* fault plan — one that
    //! carries timed crashes which can never fire — must leave every
    //! protocol's report bit-identical to a plain run. This pins the two
    //! invariants the injector hooks rely on: the crash timeline consumes
    //! zero task-RNG draws, and an all-`true` liveness view exposed to the
    //! protocols selects exactly the hops `None` does.

    use super::*;
    use gmp_net::NodeId;
    use gmp_sim::FaultPlan;
    use proptest::prelude::*;

    /// A crash present, its effect impossible: it is aimed past the
    /// topology.
    fn inert_plan(node_count: usize) -> FaultPlan {
        FaultPlan::none().with_crash(NodeId(node_count as u32 + 7), 0.0)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn inert_fault_plans_change_nothing(
            topo_seed in 0u64..200,
            task_seed in 0u64..1000,
            k in 2usize..15,
            run_seed in 0u64..8,
        ) {
            let plain = SimConfig::paper().with_node_count(300);
            let faulted = plain.clone().with_faults(inert_plan(300));
            let topo = Topology::random(&plain.topology_config(), topo_seed);
            let task = MulticastTask::random(&topo, k, task_seed);
            let mut scratch_a = SimScratch::new();
            let mut scratch_b = SimScratch::new();
            for mut proto_a in protocols() {
                let mut proto_b = protocols()
                    .into_iter()
                    .find(|p| p.name() == proto_a.name())
                    .expect("same protocol set");
                let a = TaskRunner::new(&topo, &plain).run_with_scratch(
                    proto_a.as_mut(),
                    &task,
                    run_seed,
                    &mut scratch_a,
                );
                let b = TaskRunner::new(&topo, &faulted).run_with_scratch(
                    proto_b.as_mut(),
                    &task,
                    run_seed,
                    &mut scratch_b,
                );
                // Configs differ (the plan is embedded in SimConfig), so
                // reports must match in full — including bit patterns.
                prop_assert_eq!(&a, &b, "inert plan diverged: {}", a.protocol);
                prop_assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
                prop_assert_eq!(
                    a.completion_time_s.to_bits(),
                    b.completion_time_s.to_bits()
                );
                for (x, y) in a.link_times_s.iter().zip(&b.link_times_s) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }
}

#[test]
fn collision_heavy_workload_is_bit_identical() {
    // A dense deployment with a long retransmission budget maximizes the
    // pruning heap's workload: many overlapping airtimes, deep backoff
    // chains, and stale entries that the optimized runner pops early.
    let config = SimConfig::paper()
        .with_node_count(250)
        .with_area_side(600.0)
        .with_collisions(true)
        .with_tx_jitter(0.004)
        .with_retransmissions(6);
    let topo = Topology::random(&config.topology_config(), 23);
    let old_runner = seed_ref::TaskRunner::new(&topo, &config);
    let new_runner = TaskRunner::new(&topo, &config);
    let mut scratch = SimScratch::new();
    for i in 0..8 {
        let task = MulticastTask::random(&topo, 15, 900 + i);
        let mut old_proto = GmpRouter::new();
        let mut new_proto = GmpRouter::new();
        let old = old_runner.run_seeded(&mut old_proto, &task, i);
        let new = new_runner.run_with_scratch(&mut new_proto, &task, i, &mut scratch);
        assert_identical(&old, &new, &format!("collision-heavy task {i}"));
    }
}
