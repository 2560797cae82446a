//! Deterministic future-event list.
//!
//! A discrete-event simulation is a loop that pops the earliest scheduled
//! event, advances the clock to its timestamp, and lets the handler schedule
//! further events. Correctness of our experiments requires *determinism*:
//! two runs with the same seed must process events in the same order, so
//! every event carries a monotonically increasing sequence number used as a
//! timestamp tie-breaker — simultaneous events pop in the order they were
//! scheduled.
//!
//! The store is a calendar queue rather than a binary heap: a ring of
//! buckets keyed by absolute time slot (`time_µs >> width_shift`). Because
//! a simulation clock only moves forward, every pending event's slot lies
//! in `[slot(now), slot(now) + buckets)` — the queue grows the ring (while
//! it is smaller than ~4× the pending-event count) or the slot width until
//! that invariant holds, so each bucket holds at most one distinct slot and
//! the earliest non-empty bucket at or after `slot(now)` always holds the
//! globally earliest event. Scheduling is an append plus an `O(1)`
//! cached-head update; popping re-scans only the buckets between the old
//! and new head slot through a per-bucket occupancy bitmap (64 empty
//! buckets per word load), ranges that never overlap across pops, so total
//! scan work is bounded by elapsed virtual time divided by `64 ×` the slot
//! width. A bucket is a list in key order, threaded through one pool of
//! event slots: an event later than its bucket's last (the common
//! schedule-in-time-order case) appends, an earlier one is placed by a
//! walk, kept short because the ring doubles at half the slot width
//! whenever pending events outnumber its buckets. A popped event's slot is
//! reused by the next one scheduled, so the queue's storage follows the
//! pending-event count, not how many buckets the ring has ever filled.

use crate::time::SimTime;
use std::cmp::Ordering;

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

impl<E> ScheduledEvent<E> {
    /// The total order key: earlier time first, then scheduling order.
    fn key(&self) -> (u64, u64) {
        (self.time.as_micros(), self.seq)
    }
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
    /// Reversed so that the *earliest* event is the max of a max-heap
    /// (kept for callers that use `ScheduledEvent` in a `BinaryHeap`).
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// End of a bucket's list, and both ends of an empty bucket.
const NIL: u32 = u32::MAX;

/// A pending event and the pool slot of the next one in its bucket.
#[derive(Debug)]
struct Node<E> {
    ev: ScheduledEvent<E>,
    next: u32,
}

/// Starting ring size; slots map to buckets by `slot & (len - 1)`.
const INITIAL_BUCKETS: usize = 256;
/// Hard ceiling on ring doubling; in practice the occupancy bound in
/// [`EventQueue::grow`] stops the ring far earlier and the slot *width*
/// doubles instead (halving the live slot span), so any horizon fits.
const MAX_BUCKETS: usize = 1 << 16;
/// Starting slot width: `2^9` µs = 512 µs per bucket.
const INITIAL_WIDTH_SHIFT: u32 = 9;

/// A future-event list with a virtual clock.
///
/// The queue owns the notion of "now": popping an event advances the clock,
/// and scheduling in the past is a logic error that panics (it would make
/// the simulation non-causal).
#[derive(Debug)]
pub struct EventQueue<E> {
    /// The pending events, one slot each. A popped event frees its slot
    /// for the next one scheduled, so the store holds as many events as
    /// are pending at most, whatever the ring's size.
    pool: Vec<Option<Node<E>>>,
    /// Freed pool slots.
    free: Vec<u32>,
    /// Per bucket, the first and last pool slot of its events, listed in
    /// key order; `(NIL, NIL)` when it is empty.
    buckets: Vec<(u32, u32)>,
    /// One bit per bucket (set iff non-empty), packed into `u64` words.
    /// Lets the head scan skip 64 empty buckets per word instead of
    /// touching each bucket — sparse queues (few events spread over a
    /// long horizon) would otherwise pay a cache miss per empty bucket.
    occupied: Vec<u64>,
    /// Bucket index mask; `buckets.len()` is always a power of two.
    mask: u64,
    /// Slot width is `2^width_shift` µs.
    width_shift: u32,
    /// Key `(time_µs, seq)` of the earliest pending event.
    head: Option<(u64, u64)>,
    len: usize,
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
            pool: Vec::new(),
            free: Vec::new(),
            buckets: vec![(NIL, NIL); INITIAL_BUCKETS],
            occupied: vec![0; INITIAL_BUCKETS / 64],
            mask: INITIAL_BUCKETS as u64 - 1,
            width_shift: INITIAL_WIDTH_SHIFT,
            head: None,
            len: 0,
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
        self.len
    }

    /// `true` iff no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The slot the clock currently sits in. Every pending event's slot is
    /// at or after this (causality: pending times are `>= now`), which is
    /// what makes `slot & mask` collision-free within the live span.
    fn base_slot(&self) -> u64 {
        self.now.as_micros() >> self.width_shift
    }

    fn bucket_of(&self, time_us: u64) -> usize {
        ((time_us >> self.width_shift) & self.mask) as usize
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
        let t_us = at.as_micros();
        loop {
            let slot = t_us >> self.width_shift;
            if slot - self.base_slot() < self.buckets.len() as u64 {
                break;
            }
            self.grow();
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = (t_us, seq);
        if self.head.is_none_or(|h| key < h) {
            self.head = Some(key);
        }
        let node = Some(Node {
            ev: ScheduledEvent {
                time: at,
                seq,
                payload,
            },
            next: NIL,
        });
        let i = match self.free.pop() {
            Some(i) => {
                self.pool[i as usize] = node;
                i
            }
            None => {
                self.pool.push(node);
                (self.pool.len() - 1) as u32
            }
        };
        self.link(i);
        self.len += 1;
        // More events than buckets: halve the slot width and double the
        // ring, which keeps the span and the buckets short, so that a walk
        // stays short whatever order the events come in.
        if self.len > self.buckets.len() && self.buckets.len() < MAX_BUCKETS && self.width_shift > 0
        {
            self.rebucket(self.buckets.len() * 2, self.width_shift - 1);
        }
    }

    fn node(&self, i: u32) -> &Node<E> {
        self.pool[i as usize].as_ref().expect("a pending event")
    }

    fn node_mut(&mut self, i: u32) -> &mut Node<E> {
        self.pool[i as usize].as_mut().expect("a pending event")
    }

    /// Puts the unlinked event in pool slot `i` into its bucket, in key
    /// order: after the last event when it is the latest (the common
    /// case: a slot's events scheduled in time order), before the first
    /// when it is the earliest, else where a walk from the front finds.
    fn link(&mut self, i: u32) {
        let key = self.node(i).ev.key();
        let b = self.bucket_of(key.0);
        let (first, last) = self.buckets[b];
        if first == NIL {
            self.buckets[b] = (i, i);
            self.occupied[b / 64] |= 1 << (b % 64);
        } else if key > self.node(last).ev.key() {
            self.node_mut(last).next = i;
            self.buckets[b].1 = i;
        } else if key < self.node(first).ev.key() {
            self.node_mut(i).next = first;
            self.buckets[b].0 = i;
        } else {
            let mut prev = first;
            while self.node(self.node(prev).next).ev.key() < key {
                prev = self.node(prev).next;
            }
            self.node_mut(i).next = self.node(prev).next;
            self.node_mut(prev).next = i;
        }
    }

    /// Doubles the ring or the slot width and re-buckets every pending
    /// event. The ring doubles only while it is smaller than ~4× the
    /// pending-event count (and below [`MAX_BUCKETS`]); otherwise the slot
    /// *width* doubles. Ring size must track occupancy, not horizon — a
    /// handful of far-future completions would otherwise inflate the ring
    /// to [`MAX_BUCKETS`] and every later grow/drop would drag megabytes
    /// of empty buckets around. Amortised: growth happens `O(log horizon)`
    /// times per queue lifetime.
    fn grow(&mut self) {
        let want = (4 * self.len.max(16)).next_power_of_two().min(MAX_BUCKETS);
        if self.buckets.len() < want {
            self.rebucket(self.buckets.len() * 2, self.width_shift);
        } else {
            self.rebucket(self.buckets.len(), self.width_shift + 1);
        }
    }

    /// Re-buckets every pending event into a ring of `nb` buckets of
    /// `2^width_shift` µs. The new ring must span every pending event.
    fn rebucket(&mut self, nb: usize, width_shift: u32) {
        let mut pending: Vec<u32> = Vec::with_capacity(self.len);
        // Drain through the bitmap so the ring's empty buckets cost nothing.
        for w in 0..self.occupied.len() {
            let mut bits = self.occupied[w];
            while bits != 0 {
                let b = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let mut i = self.buckets[b].0;
                while i != NIL {
                    pending.push(i);
                    i = std::mem::replace(&mut self.node_mut(i).next, NIL);
                }
            }
        }
        self.buckets.clear();
        self.buckets.resize(nb, (NIL, NIL));
        self.occupied.clear();
        self.occupied.resize(nb / 64, 0);
        self.mask = nb as u64 - 1;
        self.width_shift = width_shift;
        for i in pending {
            self.link(i);
        }
    }

    /// Pops the earliest event and advances the clock to its timestamp.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let (t_us, seq) = self.head?;
        let b = self.bucket_of(t_us);
        let i = self.buckets[b].0;
        let Node { ev, next } = self.pool[i as usize]
            .take()
            .expect("head bucket is non-empty");
        self.free.push(i);
        if next == NIL {
            self.buckets[b] = (NIL, NIL);
            self.occupied[b / 64] &= !(1 << (b % 64));
        } else {
            self.buckets[b].0 = next;
        }
        debug_assert_eq!(ev.key(), (t_us, seq));
        self.len -= 1;
        debug_assert!(ev.time >= self.now);
        self.now = ev.time;
        self.refresh_head();
        Some(ev)
    }

    /// Recomputes the cached head after a pop: the first non-empty bucket
    /// scanning forward from `slot(now)` holds the earliest pending event
    /// (slot-per-bucket uniqueness within the live span). The scan walks
    /// the occupancy bitmap a word at a time, so 64 empty buckets cost one
    /// load and a `trailing_zeros`.
    fn refresh_head(&mut self) {
        if self.len == 0 {
            self.head = None;
            return;
        }
        let from = (self.base_slot() & self.mask) as usize;
        let words = self.occupied.len();
        let mut w = from / 64;
        // Mask off buckets before `from` in the first word; the wrap-around
        // visit at the end re-reads the full word, restoring them in ring
        // order (they can only hold events if the scan wrapped past them).
        let mut cur = self.occupied[w] & (!0u64 << (from % 64));
        for _ in 0..=words {
            if cur != 0 {
                let b = w * 64 + cur.trailing_zeros() as usize;
                self.head = Some(self.node(self.buckets[b].0).ev.key());
                return;
            }
            w = (w + 1) % words;
            cur = self.occupied[w];
        }
        unreachable!("len > 0 but every bucket is empty");
    }

    /// The timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.head.map(|(t_us, _)| SimTime::from_micros(t_us))
    }

    /// The earliest pending event without popping it: the clock does not
    /// advance and the event stays queued. Lets a reader merge several
    /// queues by inspecting their heads (e.g. the sharded engine's
    /// multi-queue ordering tests).
    pub fn peek(&self) -> Option<&ScheduledEvent<E>> {
        let (t_us, _) = self.head?;
        Some(&self.node(self.buckets[self.bucket_of(t_us)].0).ev)
    }

    /// Drops every pending event, keeping the clock where it is.
    pub fn clear(&mut self) {
        self.pool.clear();
        self.free.clear();
        self.buckets.fill((NIL, NIL));
        self.occupied.fill(0);
        self.head = None;
        self.len = 0;
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
        // Two distinct timestamps in one 512 µs slot, out of push order:
        // peek must surface the minimum.
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
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(1), ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop().map(|e| e.payload), None);
    }

    #[test]
    fn far_future_event_grows_ring_then_slot_width() {
        // 40 virtual seconds needs more slots than MAX_BUCKETS at the
        // initial 512 µs width: both growth paths must fire.
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
    fn late_insert_below_pending_head_pops_first() {
        // A pop-then-schedule of an earlier (but still causal) timestamp
        // must displace the cached head.
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
    fn out_of_order_pushes_into_one_bucket_still_sort() {
        // Several distinct timestamps inside a single 512 µs slot,
        // scheduled out of order: linking must keep the bucket in order.
        let mut q = EventQueue::new();
        for &us in &[400u64, 100, 300, 100, 200] {
            q.schedule(SimTime::from_micros(us), us);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![100, 100, 200, 300, 400]);
    }

    #[test]
    fn a_popped_event_frees_its_slot_for_the_next() {
        // Ten events pending at any time over a horizon long enough to
        // wrap the ring many times: the store never holds more than ten.
        let mut q = EventQueue::new();
        for i in 0..10u64 {
            q.schedule(SimTime::from_micros(i * 700), i);
        }
        for i in 10..100_000u64 {
            let ev = q.pop().expect("ten pending");
            assert_eq!(ev.payload, i - 10);
            q.schedule(ev.time + SimDuration::from_micros(7_000), i);
        }
        assert_eq!((q.len(), q.pool.len()), (10, 10));
    }

    #[test]
    fn a_crowded_ring_narrows_its_slots() {
        // Scattered times over a span the first few events already set:
        // the ring keeps at least a bucket per event, so no bucket's list
        // grows long, and pops stay in order.
        let mut q = EventQueue::new();
        let n = 20_000u64;
        for i in 0..n {
            q.schedule(SimTime::from_micros((i * 7919) % (16 * n)), i);
        }
        assert!(q.buckets.len() as u64 >= n, "{} buckets", q.buckets.len());
        let times: Vec<SimTime> = std::iter::from_fn(|| q.pop().map(|e| e.time)).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]) && times.len() as u64 == n);
    }

    #[test]
    fn dense_wrap_around_keeps_order() {
        // Slots wrap around the ring modulo the bucket count; order must
        // follow absolute time, not bucket index.
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
