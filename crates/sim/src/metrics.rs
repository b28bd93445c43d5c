//! Per-task measurement results.

use gmp_net::NodeId;

pub use gmp_faults::{FailedDest, FailureCause};

/// Everything measured while running one multicast task.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskReport {
    /// Protocol display name.
    pub protocol: String,
    /// Total transmissions — the paper's "total number of hops" (Fig. 11).
    pub transmissions: usize,
    /// Total energy in joules, including listener receive power (Fig. 14).
    pub energy_j: f64,
    /// Hop count at which each destination was first reached (Fig. 12
    /// averages these): one `(destination, hops)` entry per first
    /// delivery, sorted ascending by destination.
    pub delivery_hops: Vec<(NodeId, u32)>,
    /// Simulated time at which each destination was first reached,
    /// seconds (latency CDFs): one `(destination, time)` entry per first
    /// delivery, in the order of [`TaskReport::delivery_hops`].
    pub delivery_times_s: Vec<(NodeId, f64)>,
    /// Destinations never reached, each with its failure cause as
    /// classified by the delivery-guarantee oracle (Fig. 15 counts tasks
    /// with any of these), sorted by destination id.
    pub failed_dests: Vec<FailedDest>,
    /// Packet copies dropped by the per-destination hop cap or perimeter
    /// loop detection.
    pub dropped_packets: usize,
    /// Simulated completion time of the last delivery, seconds.
    pub completion_time_s: f64,
    /// Total bytes put on the air (for the header-overhead ablation).
    pub bytes_transmitted: usize,
    /// `true` when the event cap fired (indicates a protocol bug or an
    /// undetected loop).
    pub truncated: bool,
    /// Every transmission as `(sender, receiver)`, in send order — the
    /// realized multicast tree (plus any perimeter detours), used by route
    /// visualization and structural tests.
    pub links: Vec<(NodeId, NodeId)>,
    /// Send time of each transmission in [`TaskReport::links`] order,
    /// seconds.
    pub link_times_s: Vec<f64>,
}

impl TaskReport {
    /// Creates an empty report for `protocol`.
    pub fn new(protocol: String) -> Self {
        TaskReport {
            protocol,
            transmissions: 0,
            energy_j: 0.0,
            delivery_hops: Vec::new(),
            delivery_times_s: Vec::new(),
            failed_dests: Vec::new(),
            dropped_packets: 0,
            completion_time_s: 0.0,
            bytes_transmitted: 0,
            truncated: false,
            links: Vec::new(),
            link_times_s: Vec::new(),
        }
    }

    /// `true` when every destination was reached.
    pub fn delivered_all(&self) -> bool {
        self.failed_dests.is_empty()
    }

    /// Number of destinations reached.
    pub fn delivered_count(&self) -> usize {
        self.delivery_hops.len()
    }

    /// The hop count at which `dest` was first reached, or `None` if it
    /// never was.
    pub fn hops_to(&self, dest: NodeId) -> Option<u32> {
        self.delivery_hops
            .binary_search_by_key(&dest, |&(d, _)| d)
            .ok()
            .map(|i| self.delivery_hops[i].1)
    }

    /// The failed destination ids, without causes (the pre-oracle shape
    /// of [`TaskReport::failed_dests`]).
    pub fn failed_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.failed_dests.iter().map(|f| f.dest)
    }

    /// Failures the oracle could *not* justify from the fault model —
    /// the destination was reachable on the faulted graph, so the miss
    /// counts against the protocol.
    pub fn unjustified_failures(&self) -> impl Iterator<Item = &FailedDest> {
        self.failed_dests.iter().filter(|f| !f.is_justified())
    }

    /// Mean per-destination hop count over the *delivered* destinations
    /// (Fig. 12's metric), or `None` when nothing was delivered.
    pub fn mean_dest_hops(&self) -> Option<f64> {
        if self.delivery_hops.is_empty() {
            return None;
        }
        Some(
            self.delivery_hops
                .iter()
                .map(|&(_, h)| h as f64)
                .sum::<f64>()
                / self.delivery_hops.len() as f64,
        )
    }

    /// The largest per-destination hop count, or `None` if none delivered.
    pub fn max_dest_hops(&self) -> Option<u32> {
        self.delivery_hops.iter().map(|&(_, h)| h).max()
    }

    /// Renders an ns-2-style event trace: one `s`end line per transmission
    /// and one `r`eceive line per first delivery, sorted by time —
    /// the role ns-2's trace files played for the paper's evaluation.
    ///
    /// ```text
    /// s 0.000000 n3 n17
    /// r 0.001024 n17
    /// ```
    pub fn ns2_trace(&self) -> String {
        #[derive(PartialEq)]
        enum Kind {
            Send(NodeId, NodeId),
            Recv(NodeId),
        }
        let mut events: Vec<(f64, usize, Kind)> = Vec::new();
        for (i, (&(from, to), &t)) in self.links.iter().zip(&self.link_times_s).enumerate() {
            events.push((t, i, Kind::Send(from, to)));
        }
        for &(node, t) in &self.delivery_times_s {
            events.push((t, usize::MAX, Kind::Recv(node)));
        }
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut out = String::new();
        use std::fmt::Write as _;
        for (t, _, kind) in events {
            match kind {
                Kind::Send(from, to) => {
                    let _ = writeln!(out, "s {t:.6} {from} {to}");
                }
                Kind::Recv(node) => {
                    let _ = writeln!(out, "r {t:.6} {node}");
                }
            }
        }
        out
    }
}

/// Streaming mean/min/max/variance accumulator (Welford's algorithm)
/// used by the experiment harness.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    n: usize,
    sum: f64,
    min: f64,
    max: f64,
    mean_acc: f64,
    m2: f64,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Summary {
            n: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            mean_acc: 0.0,
            m2: 0.0,
        }
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        let delta = x - self.mean_acc;
        self.mean_acc += delta / self.n as f64;
        self.m2 += delta * (x - self.mean_acc);
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.n
    }

    /// The arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.n == 0 {
            None
        } else {
            Some(self.sum / self.n as f64)
        }
    }

    /// Smallest observation, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Sample standard deviation (Bessel-corrected), or `None` with fewer
    /// than two observations.
    pub fn stddev(&self) -> Option<f64> {
        if self.n < 2 {
            None
        } else {
            Some((self.m2 / (self.n - 1) as f64).sqrt())
        }
    }

    /// Half-width of the ~95% confidence interval on the mean
    /// (`1.96 · s/√n`), or `None` with fewer than two observations.
    pub fn ci95_half_width(&self) -> Option<f64> {
        self.stddev().map(|s| 1.96 * s / (self.n as f64).sqrt())
    }
}

impl Extend<f64> for Summary {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.add(x);
        }
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Summary::new();
        s.extend(iter);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_report_is_empty() {
        let r = TaskReport::new("GMP".into());
        assert!(r.delivered_all());
        assert_eq!(r.delivered_count(), 0);
        assert_eq!(r.mean_dest_hops(), None);
        assert_eq!(r.max_dest_hops(), None);
    }

    #[test]
    fn delivery_statistics() {
        let mut r = TaskReport::new("GMP".into());
        r.delivery_hops = vec![(NodeId(1), 4), (NodeId(2), 8)];
        r.failed_dests
            .push(FailedDest::new(NodeId(3), FailureCause::Disconnected));
        r.failed_dests
            .push(FailedDest::new(NodeId(4), FailureCause::HopCap));
        assert!(!r.delivered_all());
        assert_eq!(r.delivered_count(), 2);
        assert_eq!(
            r.failed_ids().collect::<Vec<_>>(),
            vec![NodeId(3), NodeId(4)]
        );
        assert_eq!(
            r.unjustified_failures().collect::<Vec<_>>(),
            vec![&FailedDest::new(NodeId(4), FailureCause::HopCap)]
        );
        assert_eq!(r.mean_dest_hops(), Some(6.0));
        assert_eq!(r.max_dest_hops(), Some(8));
        assert_eq!(r.hops_to(NodeId(2)), Some(8));
        assert_eq!(r.hops_to(NodeId(3)), None, "a failed destination");
    }

    #[test]
    fn summary_accumulates() {
        let s: Summary = [1.0, 2.0, 3.0, 10.0].into_iter().collect();
        assert_eq!(s.count(), 4);
        assert_eq!(s.mean(), Some(4.0));
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(10.0));
    }

    #[test]
    fn empty_summary_has_no_stats() {
        let s = Summary::new();
        assert_eq!(s.mean(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.count(), 0);
        assert_eq!(s.stddev(), None);
        assert_eq!(s.ci95_half_width(), None);
    }

    #[test]
    fn stddev_matches_two_pass_formula() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s: Summary = data.into_iter().collect();
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (data.len() - 1) as f64;
        assert!((s.stddev().unwrap() - var.sqrt()).abs() < 1e-12);
        assert!(
            (s.ci95_half_width().unwrap() - 1.96 * var.sqrt() / (data.len() as f64).sqrt()).abs()
                < 1e-12
        );
    }

    #[test]
    fn single_observation_has_no_stddev() {
        let mut s = Summary::new();
        s.add(5.0);
        assert_eq!(s.stddev(), None);
        assert_eq!(s.mean(), Some(5.0));
    }
}
