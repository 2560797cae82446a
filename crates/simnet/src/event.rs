//! Deterministic future-event list.
//!
//! A discrete-event simulation is a loop that pops the earliest scheduled
//! event, advances the clock to its timestamp, and lets the handler schedule
//! further events. Correctness of our experiments requires *determinism*:
//! two runs with the same seed must process events in the same order, so
//! every event carries a monotonically increasing sequence number used as a
//! timestamp tie-breaker — simultaneous events pop in the order they were
//! scheduled. `(time, seq)` is a total order, so the pop sequence is a
//! function of the schedule calls alone, whatever store holds the events.
//!
//! The store is one [`BinaryHeap`]: `O(log n)` per schedule and pop in the
//! number of *pending* events. That number stays small because the queue
//! holds running work, not waiting or future work. The federation engine
//! keeps refused queries on its own wait list and reads arrivals from a
//! cursor over the workload trace, so its queue holds one completion per
//! running query, the next period boundary, one wake per distinct due
//! time of the wait list and the crash schedule: at most ~1 600 events at
//! 1 000 nodes, ~200 at 100.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event scheduled for a point in virtual time.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub time: SimTime,
    /// Scheduling order, used to break timestamp ties FIFO.
    pub seq: u64,
    /// The caller-defined payload.
    pub payload: E,
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for ScheduledEvent<E> {}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ScheduledEvent<E> {
    /// Reversed so that the *earliest* event is the max of a max-heap.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

impl<E> ScheduledEvent<E> {
    /// `(time, seq)` as one word, `time << 64 | seq`: a single compare.
    #[inline]
    fn key(&self) -> u128 {
        u128::from(self.time.as_micros()) << 64 | u128::from(self.seq)
    }
}

/// A future-event list with a virtual clock.
///
/// The queue owns the notion of "now": popping an event advances the clock,
/// and scheduling in the past is a logic error that panics (it would make
/// the simulation non-causal).
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<ScheduledEvent<E>>,
    now: SimTime,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at the origin.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
        }
    }

    /// The current virtual time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` iff no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current clock.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        assert!(
            at >= self.now,
            "cannot schedule event in the past: at={at} now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(ScheduledEvent {
            time: at,
            seq,
            payload,
        });
    }

    /// Pops the earliest event and advances the clock to its timestamp.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let ev = self.heap.pop()?;
        debug_assert!(ev.time >= self.now);
        self.now = ev.time;
        Some(ev)
    }

    /// The timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|ev| ev.time)
    }

    /// The earliest pending event without popping it: the clock does not
    /// advance and the event stays queued. Lets a reader merge several
    /// queues by inspecting their heads (e.g. the sharded engine's
    /// multi-queue ordering tests).
    pub fn peek(&self) -> Option<&ScheduledEvent<E>> {
        self.heap.peek()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), "c");
        q.schedule(SimTime::from_millis(10), "a");
        q.schedule(SimTime::from_millis(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(7));
    }

    #[test]
    #[should_panic(expected = "cannot schedule event in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), ());
        q.pop();
        q.schedule(SimTime::from_millis(5), ());
    }

    #[test]
    fn peek_does_not_advance_clock() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(3), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(3)));
        assert_eq!(q.now(), SimTime::ZERO);
    }

    #[test]
    fn peek_exposes_head_without_popping() {
        let mut q = EventQueue::new();
        assert!(q.peek().is_none());
        q.schedule(SimTime::from_millis(9), "later");
        q.schedule(SimTime::from_millis(2), "head");
        // Two distinct timestamps, out of push order: peek must surface
        // the minimum.
        let head = q.peek().expect("non-empty");
        assert_eq!(head.payload, "head");
        assert_eq!(head.time, SimTime::from_millis(2));
        assert_eq!(q.len(), 2, "peek must not consume");
        assert_eq!(q.now(), SimTime::ZERO, "peek must not advance the clock");
        assert_eq!(q.pop().map(|e| e.payload), Some("head"));
        assert_eq!(q.pop().map(|e| e.payload), Some("later"));
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_causal() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(1), 1u32);
        while let Some(ev) = q.pop() {
            if ev.payload < 5 {
                q.schedule(q.now() + SimDuration::from_millis(1), ev.payload + 1);
            }
        }
        assert_eq!(q.now(), SimTime::from_millis(5));
    }

    #[test]
    fn far_future_event_pops_after_nearer_ones() {
        // An event 40 virtual seconds out, scheduled between two near
        // ones, pops last and moves the clock the whole way.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(1), "near");
        q.schedule(SimTime::from_secs(40), "far");
        q.schedule(SimTime::from_millis(3), "mid");
        assert_eq!(q.pop().map(|e| e.payload), Some("near"));
        assert_eq!(q.pop().map(|e| e.payload), Some("mid"));
        assert_eq!(q.pop().map(|e| e.payload), Some("far"));
        assert_eq!(q.now(), SimTime::from_secs(40));
        assert!(q.is_empty());
    }

    #[test]
    fn events_at_the_end_of_time_keep_their_order() {
        // Times at and just below `u64::MAX` µs fill the key's high word:
        // same-time events still pop FIFO, the far ones after the near.
        // `mid` differs from the origin only in its top bit, which a key
        // that shifted the time within one `u64` would drop.
        let mut q = EventQueue::new();
        let end = SimTime::from_micros(u64::MAX);
        let below = SimTime::from_micros(u64::MAX - 1);
        q.schedule(SimTime::from_micros(1 << 63), "mid");
        q.schedule(end, "end-a");
        q.schedule(below, "below-a");
        q.schedule(end, "end-b");
        q.schedule(SimTime::ZERO, "origin");
        q.schedule(below, "below-b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(
            order,
            ["origin", "mid", "below-a", "below-b", "end-a", "end-b"]
        );
        assert_eq!(q.now(), end);
    }

    #[test]
    fn late_insert_below_pending_head_pops_first() {
        // A pop-then-schedule of an earlier (but still causal) timestamp
        // must displace the pending head.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(1), "first");
        q.schedule(SimTime::from_millis(900), "tail");
        assert_eq!(q.pop().map(|e| e.payload), Some("first"));
        q.schedule(SimTime::from_millis(2), "insert");
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(2)));
        assert_eq!(q.pop().map(|e| e.payload), Some("insert"));
        assert_eq!(q.pop().map(|e| e.payload), Some("tail"));
    }

    #[test]
    fn close_times_scheduled_out_of_order_pop_sorted() {
        // Distinct timestamps a few hundred µs apart, scheduled out of
        // order with one repeat: they pop by time, the repeat FIFO.
        let mut q = EventQueue::new();
        for &us in &[400u64, 100, 300, 100, 200] {
            q.schedule(SimTime::from_micros(us), us);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![100, 100, 200, 300, 400]);
    }

    #[test]
    fn storage_follows_pending_events_not_events_seen() {
        // Ten events pending at any time over 100 000 scheduled: the
        // store's capacity stays at the pending count's scale.
        let mut q = EventQueue::new();
        for i in 0..10u64 {
            q.schedule(SimTime::from_micros(i * 700), i);
        }
        for i in 10..100_000u64 {
            let ev = q.pop().expect("ten pending");
            assert_eq!(ev.payload, i - 10);
            q.schedule(ev.time + SimDuration::from_micros(7_000), i);
        }
        assert_eq!(q.len(), 10);
        assert!(q.heap.capacity() <= 16, "capacity {}", q.heap.capacity());
    }

    #[test]
    fn many_scattered_times_pop_in_order() {
        // 20 000 times scattered over a span the first few events already
        // set, all pending at once: they pop in time order.
        let mut q = EventQueue::new();
        let n = 20_000u64;
        for i in 0..n {
            q.schedule(SimTime::from_micros((i * 7919) % (16 * n)), i);
        }
        let times: Vec<SimTime> = std::iter::from_fn(|| q.pop().map(|e| e.time)).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]) && times.len() as u64 == n);
    }

    #[test]
    fn evenly_spaced_times_pop_in_schedule_order() {
        // 4 096 events 700 µs apart, scheduled in time order: they pop
        // in the order they were scheduled.
        let mut q = EventQueue::new();
        let step = SimDuration::from_micros(700); // > one slot
        let mut t = SimTime::ZERO;
        for i in 0..4096u32 {
            t += step;
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..4096).collect::<Vec<_>>());
    }
}
