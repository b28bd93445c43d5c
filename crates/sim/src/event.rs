//! The discrete-event queue.
//!
//! Events are ordered by simulated time with a monotonically increasing
//! sequence number as tiebreak, making runs bit-for-bit deterministic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use gmp_net::NodeId;

use crate::packet::MulticastPacket;

/// A scheduled simulator event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// `packet` arrives at `to`, transmitted by `from`.
    Deliver {
        /// Receiving node.
        to: NodeId,
        /// Transmitting node.
        from: NodeId,
        /// When the transmission started (airtime = arrival − sent_at).
        sent_at: f64,
        /// Link-layer retransmissions already used for this copy.
        retries: u8,
        /// The packet copy in flight.
        packet: MulticastPacket,
    },
}

/// A heap entry: the event's key and the slab slot holding its event.
/// Sift steps move these 24 bytes, never the event itself.
#[derive(Debug, Clone, Copy)]
struct Scheduled {
    time: f64,
    seq: u64,
    slot: u32,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered event queue.
///
/// The heap orders `(time, seq)` keys; the events wait in a slab whose
/// freed slots are reused, so neither grows once a task has reached its
/// largest backlog.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    slab: Vec<Option<Event>>,
    free: Vec<u32>,
    next_seq: u64,
    now: f64,
}

impl EventQueue {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Current simulated time (the timestamp of the last popped event).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Rewinds to an empty queue at time zero, keeping the heap's and the
    /// slab's allocations — a reset queue is indistinguishable from a new
    /// one (times, tiebreak sequence numbers, and pop order all restart).
    pub fn reset(&mut self) {
        self.heap.clear();
        self.slab.clear();
        self.free.clear();
        self.next_seq = 0;
        self.now = 0.0;
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past or not finite, or if more than
    /// `u32::MAX` events are pending at once.
    pub fn schedule(&mut self, time: f64, event: Event) {
        assert!(time.is_finite(), "event time must be finite");
        assert!(time >= self.now, "cannot schedule into the past");
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(event);
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("event slab exceeds u32 slots");
                self.slab.push(Some(event));
                slot
            }
        };
        self.heap.push(Scheduled { time, seq, slot });
    }

    /// Pops the earliest event, advancing the clock.
    pub fn pop(&mut self) -> Option<(f64, Event)> {
        let s = self.heap.pop()?;
        let event = self.slab[s.slot as usize]
            .take()
            .expect("a scheduled slot holds its event");
        self.free.push(s.slot);
        self.now = s.time;
        Some((s.time, event))
    }

    /// Timestamp of the earliest pending event, without popping it: what
    /// `Session::next_time` reports to the session engine's wheel.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|s| s.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(to: u32) -> Event {
        Event::Deliver {
            to: NodeId(to),
            from: NodeId(0),
            sent_at: 0.0,
            retries: 0,
            packet: MulticastPacket::new(0, NodeId(0), vec![]),
        }
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, ev(3));
        q.schedule(1.0, ev(1));
        q.schedule(2.0, ev(2));
        let order: Vec<f64> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(order, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(1.0, ev(10));
        q.schedule(1.0, ev(20));
        let (_, first) = q.pop().unwrap();
        match first {
            Event::Deliver { to, .. } => assert_eq!(to, NodeId(10)),
        }
    }

    #[test]
    fn reused_slots_keep_time_and_insertion_order() {
        // Interleaved pops free slots that later events reuse; the pop
        // order must still be (time, insertion), and a reset queue must
        // replay exactly like a new one.
        let to = |e: Event| match e {
            Event::Deliver { to, .. } => to.0,
        };
        let mut q = EventQueue::new();
        let mut popped = Vec::new();
        for round in 0..2 {
            q.schedule(2.0, ev(1));
            q.schedule(1.0, ev(2));
            q.schedule(3.0, ev(3));
            popped.push(to(q.pop().unwrap().1));
            q.schedule(2.0, ev(4));
            q.schedule(1.5, ev(5));
            popped.extend(std::iter::from_fn(|| q.pop().map(|(_, e)| to(e))));
            assert_eq!(popped, vec![2, 5, 1, 4, 3], "round {round}");
            popped.clear();
            q.schedule(9.0, ev(6));
            q.reset();
            assert!(q.is_empty());
            assert_eq!(q.now(), 0.0);
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), 0.0);
        q.schedule(5.0, ev(1));
        q.pop();
        assert_eq!(q.now(), 5.0);
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(5.0, ev(1));
        q.pop();
        q.schedule(1.0, ev(2));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_time_panics() {
        let mut q = EventQueue::new();
        q.schedule(f64::NAN, ev(1));
    }
}
