//! The discrete-event queue.
//!
//! Events are ordered by simulated time with a monotonically increasing
//! sequence number as tiebreak, making runs bit-for-bit deterministic.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

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

/// A queue entry: the event's key and the slab slot holding its event.
/// Sift steps move these 24 bytes, never the event itself.
#[derive(Debug, Clone, Copy)]
struct Scheduled {
    time: f64,
    seq: u64,
    slot: u32,
}

impl Scheduled {
    /// The queue's order: `time` by `total_cmp`, then `seq`.
    fn key_cmp(&self, other: &Self) -> Ordering {
        self.time
            .total_cmp(&other.time)
            .then_with(|| self.seq.cmp(&other.seq))
    }
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
        other.key_cmp(self)
    }
}

/// A time-ordered event queue.
///
/// Keys live in two lanes. A key no earlier than the last key of the
/// in-order lane joins that FIFO; only a key that would break its order
/// is sifted into the heap. Each lane is sorted, so the earlier of the
/// two fronts is the earliest pending key and pops keep exact `(time,
/// seq)` order. Under the ideal MAC every event is scheduled one constant
/// airtime after the clock, so the heap stays empty; jitter, collision
/// backoff and size-dependent airtime send the out-of-order keys to it.
/// The events wait in a slab whose freed slots are reused, so nothing
/// grows once a task has reached its largest backlog.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    fifo: VecDeque<Scheduled>,
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

    /// Rewinds to an empty queue at time zero, keeping the lanes' and the
    /// slab's allocations — a reset queue is indistinguishable from a new
    /// one (times, tiebreak sequence numbers, and pop order all restart).
    pub fn reset(&mut self) {
        self.heap.clear();
        self.fifo.clear();
        self.slab.clear();
        self.free.clear();
        self.next_seq = 0;
        self.now = 0.0;
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.fifo.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.fifo.is_empty()
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
        let s = Scheduled { time, seq, slot };
        match self.fifo.back() {
            Some(last) if s.key_cmp(last).is_lt() => self.heap.push(s),
            _ => self.fifo.push_back(s),
        }
    }

    /// The earliest pending key, and whether it waits in the heap.
    fn front(&self) -> Option<(Scheduled, bool)> {
        match (self.fifo.front(), self.heap.peek()) {
            (Some(f), Some(h)) if h.key_cmp(f).is_lt() => Some((*h, true)),
            (Some(f), _) => Some((*f, false)),
            (None, h) => h.map(|h| (*h, true)),
        }
    }

    /// Pops the earliest event, advancing the clock.
    pub fn pop(&mut self) -> Option<(f64, Event)> {
        let (s, in_heap) = self.front()?;
        if in_heap {
            self.heap.pop();
        } else {
            self.fifo.pop_front();
        }
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
        self.front().map(|(s, _)| s.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Reverse;

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

    /// Past 128 bytes, every move of a value compiles to a `memcpy` call
    /// instead of a few inline copies, and a replayed hop moves its packet
    /// through a `Forward`, the queue's slab and `Session::step`. Boxing
    /// the rare perimeter and face states keeps all three well below that.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn hot_types_copy_inline() {
        use crate::protocol::Forward;
        use std::mem::size_of;
        assert!(
            size_of::<MulticastPacket>() <= 64,
            "{}",
            size_of::<MulticastPacket>()
        );
        assert!(size_of::<Forward>() <= 80, "{}", size_of::<Forward>());
        assert!(size_of::<Event>() <= 96, "{}", size_of::<Event>());
    }

    /// A reference key: `(time, id)` under the queue's order, earliest
    /// first in a max-heap.
    #[derive(Debug, PartialEq)]
    struct Key(f64, u32);
    impl Eq for Key {}
    impl PartialOrd for Key {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Key {
        fn cmp(&self, other: &Self) -> Ordering {
            self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The two-lane queue against a plain `BinaryHeap` of `(time,
        /// seq)` keys: in-order runs, out-of-order times and equal times,
        /// interleaved with pops and resets, must pop the same events in
        /// the same order and agree on `now`, `len` and `peek_time`.
        #[test]
        fn two_lanes_pop_like_one_heap(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut q = EventQueue::new();
            let mut reference: BinaryHeap<Reverse<Key>> = BinaryHeap::new();
            let mut now = 0.0;
            let mut next_id = 0u32;
            let mut last = 0.0;
            let to = |e: Event| match e {
                Event::Deliver { to, .. } => to.0,
            };
            for _ in 0..rng.gen_range(1..120u32) {
                match rng.gen_range(0..10u32) {
                    // An in-order run: a constant step after the last
                    // scheduled time (zero steps repeat it).
                    0..=2 => {
                        let step = 0.25 * rng.gen_range(0..3u32) as f64;
                        for _ in 0..rng.gen_range(1..6u32) {
                            last = f64::max(last, now) + step;
                            q.schedule(last, ev(next_id));
                            reference.push(Reverse(Key(last, next_id)));
                            next_id += 1;
                        }
                    }
                    // Any time from now on, on a coarse grid so that
                    // equal times recur across both lanes.
                    3..=4 => {
                        let t = now + 0.25 * rng.gen_range(0..12u32) as f64;
                        q.schedule(t, ev(next_id));
                        reference.push(Reverse(Key(t, next_id)));
                        next_id += 1;
                    }
                    5..=8 => {
                        let got = q.pop().map(|(t, e)| (t.to_bits(), to(e)));
                        let want = reference.pop().map(|Reverse(Key(t, id))| (t.to_bits(), id));
                        prop_assert_eq!(got, want);
                        if let Some((t, _)) = want {
                            now = f64::from_bits(t);
                        }
                    }
                    _ => {
                        q.reset();
                        reference.clear();
                        now = 0.0;
                        last = 0.0;
                    }
                }
                prop_assert_eq!(q.now().to_bits(), f64::to_bits(now));
                prop_assert_eq!(q.len(), reference.len());
                prop_assert_eq!(q.is_empty(), reference.is_empty());
                prop_assert_eq!(
                    q.peek_time().map(f64::to_bits),
                    reference.peek().map(|Reverse(k)| k.0.to_bits())
                );
            }
            while let Some(Reverse(Key(t, id))) = reference.pop() {
                prop_assert_eq!(q.pop().map(|(t, e)| (t.to_bits(), to(e))), Some((t.to_bits(), id)));
            }
            prop_assert!(q.pop().is_none());
        }
    }
}
