//! Property tests for the simulation kernel, driven by seeded [`DetRng`]
//! loops (the hermetic-build substitute for proptest): each property runs
//! over 200 random cases from a fixed seed, so failures reproduce exactly.

use qa_simnet::stats::Welford;
use qa_simnet::{DetRng, EventQueue, MinTree, ScheduledEvent, SimDuration, SimTime, Zipf};
use std::collections::BinaryHeap;

const CASES: usize = 200;

/// Events pop in non-decreasing time order with FIFO ties, regardless of
/// insertion order.
#[test]
fn event_queue_is_stably_ordered() {
    let mut rng = DetRng::seed_from_u64(0x51B1_0001);
    for case in 0..CASES {
        let times: Vec<u64> = (0..rng.index(200)).map(|_| rng.int_in(0, 999)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_millis(t), (t, i));
        }
        let mut last: Option<(u64, usize)> = None;
        while let Some(ev) = q.pop() {
            let (t, i) = ev.payload;
            if let Some((lt, li)) = last {
                assert!(lt <= t, "case {case}: time order violated");
                if lt == t {
                    assert!(li < i, "case {case}: FIFO tie-break violated");
                }
            }
            last = Some((t, i));
        }
    }
}

/// A trivially-correct reference future-event list: a `Vec` of
/// `(time, seq, payload)` whose pop scans for the minimum `(time, seq)`.
/// It shares no code and no ordering trait with [`EventQueue`].
struct ScanQueue {
    pending: Vec<(SimTime, u64, u32)>,
    now: SimTime,
    next_seq: u64,
}

impl ScanQueue {
    fn new() -> Self {
        ScanQueue {
            pending: Vec::new(),
            now: SimTime::ZERO,
            next_seq: 0,
        }
    }

    fn schedule(&mut self, at: SimTime, payload: u32) {
        assert!(at >= self.now);
        self.pending.push((at, self.next_seq, payload));
        self.next_seq += 1;
    }

    /// The index of the minimum `(time, seq)`, by a left-to-right scan.
    fn head(&self) -> Option<usize> {
        let key = |i: &usize| (self.pending[*i].0, self.pending[*i].1);
        (0..self.pending.len()).min_by_key(key)
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.head().map(|i| self.pending[i].0)
    }

    fn pop(&mut self) -> Option<(SimTime, u64, u32)> {
        let ev = self.pending.swap_remove(self.head()?);
        self.now = ev.0;
        Some(ev)
    }
}

/// The event queue and the linear-scan reference, driven through
/// identical schedule/pop interleavings (bursts of same-time events, mixed
/// nearby offsets, and rare far-future jumps), pop identical
/// `(time, seq, payload)` streams and agree on the head and the length
/// after every step.
#[test]
fn event_queue_matches_linear_scan_oracle() {
    let mut rng = DetRng::seed_from_u64(0x51B1_0006);
    for case in 0..CASES {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut oracle = ScanQueue::new();
        let ops = 1 + rng.index(300);
        let mut payload = 0u32;
        for _ in 0..ops {
            let roll = rng.index(100);
            if roll < 60 {
                // Schedule 1–4 events; offset class picked per event.
                for _ in 0..1 + rng.index(4) {
                    let off = match rng.index(10) {
                        0..=3 => SimDuration::ZERO, // same-time burst
                        4..=7 => SimDuration::from_micros(rng.int_in(1, 2_000)),
                        8 => SimDuration::from_millis(rng.int_in(1, 800)),
                        _ => SimDuration::from_secs(rng.int_in(1, 90)), // far future
                    };
                    let at = q.now() + off;
                    q.schedule(at, payload);
                    oracle.schedule(at, payload);
                    payload += 1;
                }
            } else {
                assert_eq!(
                    q.peek_time(),
                    oracle.peek_time(),
                    "case {case}: peek diverged"
                );
                let got = q.pop().map(|e| (e.time, e.seq, e.payload));
                assert_eq!(got, oracle.pop(), "case {case}: pop diverged");
                assert_eq!(q.now(), oracle.now, "case {case}: clock diverged");
            }
            assert_eq!(q.len(), oracle.pending.len(), "case {case}: len diverged");
        }
        // Drain both: the tails must agree event for event.
        loop {
            let got = q.pop().map(|e| (e.time, e.seq, e.payload));
            let want = oracle.pop();
            assert_eq!(got, want, "case {case}: drain diverged");
            if got.is_none() {
                break;
            }
        }
    }
}

/// The sharded engine's event store — one [`EventQueue`] per shard,
/// merged by `(time, global sequence)` — pops the exact sequence of the
/// single-queue oracle, for any interleaved schedule and any shard
/// assignment.
///
/// Per-shard `seq` counters are *not* globally comparable (two shards
/// both start at 0), so the merge must order ties by a global sequence
/// carried in the payload; [`EventQueue::peek`] exposes the head payload
/// without popping, which is what makes that merge possible.
#[test]
fn sharded_multi_queue_merge_matches_single_heap_oracle() {
    let mut rng = DetRng::seed_from_u64(0x51B1_000A);
    for case in 0..CASES {
        let shards = 2 + rng.index(5);
        let mut queues: Vec<EventQueue<u64>> = (0..shards).map(|_| EventQueue::new()).collect();
        let mut oracle: BinaryHeap<ScheduledEvent<u64>> = BinaryHeap::new();
        let mut now = SimTime::ZERO;
        let mut global_seq = 0u64;
        let ops = 1 + rng.index(300);
        for _ in 0..ops {
            if rng.index(100) < 60 {
                for _ in 0..1 + rng.index(4) {
                    let off = match rng.index(10) {
                        0..=4 => SimDuration::ZERO, // same-time cross-shard burst
                        5..=8 => SimDuration::from_micros(rng.int_in(1, 2_000)),
                        _ => SimDuration::from_millis(rng.int_in(1, 800)),
                    };
                    let at = now + off;
                    queues[rng.index(shards)].schedule(at, global_seq);
                    oracle.push(ScheduledEvent {
                        time: at,
                        seq: global_seq,
                        payload: global_seq,
                    });
                    global_seq += 1;
                }
            } else {
                // Merged pop: the queue whose head minimizes
                // (time, global seq). The local `seq` is deliberately
                // ignored — it is only unique within one queue.
                let head = (0..shards)
                    .filter_map(|s| {
                        let ev = queues[s].peek()?;
                        Some(((ev.time, ev.payload), s))
                    })
                    .min()
                    .map(|(_, s)| s);
                let got = head.and_then(|s| queues[s].pop()).map(|e| {
                    now = e.time;
                    (e.time, e.payload)
                });
                let want = oracle.pop().map(|e| (e.time, e.payload));
                assert_eq!(got, want, "case {case}: merged pop diverged");
            }
        }
        // Drain the merge: the tail must agree event for event.
        loop {
            let head = (0..shards)
                .filter_map(|s| {
                    let ev = queues[s].peek()?;
                    Some(((ev.time, ev.payload), s))
                })
                .min()
                .map(|(_, s)| s);
            let got = head
                .and_then(|s| queues[s].pop())
                .map(|e| (e.time, e.payload));
            let want = oracle.pop().map(|e| (e.time, e.payload));
            assert_eq!(got, want, "case {case}: merged drain diverged");
            if got.is_none() {
                break;
            }
        }
    }
}

/// The tournament tree against a linear-scan oracle under random
/// update / remove / stage-and-restore interleavings: after every step `min` and
/// `len` agree with a plain `Vec<Option<u64>>` scanned left to right. Keys come from a handful of values so ties are the norm (the
/// lowest leaf must win them); sizes cover no leaves, a single leaf,
/// powers of two and one past them (where the leaf's share of the packed
/// slot grows by a bit) and other non-powers of two; in half the cases
/// the handful sits at the top of the key domain, ending at the tree's
/// largest key; removals outnumber inserts often enough to empty the
/// tree, and emptied leaves are re-inserted.
#[test]
fn min_tree_matches_linear_scan_oracle() {
    let mut rng = DetRng::seed_from_u64(0x51B1_0004);
    for case in 0..CASES {
        let leaves = match case % 8 {
            0 => 0,
            1 => 1,
            2 | 3 => (1usize << rng.int_in(1, 7)) + case % 2,
            _ => 1 + rng.index(70),
        };
        // A slot keeps log2 of the leaf capacity, at least 1 bit, for
        // its leaf; the key takes the rest, short of the absent word.
        let bits = leaves.next_power_of_two().trailing_zeros().max(1);
        let largest = (u64::MAX >> bits) - 1;
        let key_range = 1 + rng.int_in(0, 6);
        let key_base = if case % 4 >= 2 {
            largest - key_range
        } else {
            0
        };
        let mut tree = MinTree::new(leaves);
        let mut oracle: Vec<Option<u64>> = vec![None; leaves];
        let steps = if leaves == 0 { 4 } else { 300 };
        // Phases alternate between filling up and draining, so the tree
        // passes through empty and full more than once per case.
        for step in 0..steps {
            let draining = (step / 60) % 2 == 1;
            match rng.index(20) {
                0 => {
                    // Re-key most leaves at once: staged leaves count
                    // after the one `restore`, the others keep theirs.
                    for (leaf, slot) in oracle.iter_mut().enumerate() {
                        if rng.chance(0.8) {
                            *slot = rng.chance(0.5).then(|| key_base + rng.int_in(0, key_range));
                            tree.stage(leaf, *slot);
                        }
                    }
                    tree.restore();
                }
                _ if leaves == 0 => {}
                r => {
                    let leaf = rng.index(leaves);
                    if (r < 14) == draining {
                        oracle[leaf] = None;
                        tree.remove(leaf);
                    } else {
                        let key = key_base + rng.int_in(0, key_range);
                        oracle[leaf] = Some(key);
                        tree.update(leaf, key);
                    }
                }
            }
            let mut expect: Option<(usize, u64)> = None;
            for (leaf, key) in oracle.iter().enumerate() {
                if let Some(key) = *key {
                    if expect.is_none_or(|(_, best)| key < best) {
                        expect = Some((leaf, key));
                    }
                }
            }
            assert_eq!(tree.min(), expect, "case {case} step {step}: min");
            let present = oracle.iter().flatten().count();
            assert_eq!(tree.len(), present, "case {case} step {step}: len");
            assert_eq!(tree.is_empty(), present == 0, "case {case} step {step}");
        }
        // Everything removed, then one leaf re-inserted.
        (0..leaves).for_each(|leaf| tree.remove(leaf));
        assert_eq!((tree.min(), tree.len()), (None, 0), "case {case}: drained");
        if leaves > 0 {
            let leaf = rng.index(leaves);
            tree.update(leaf, 7);
            assert_eq!(tree.min(), Some((leaf, 7)), "case {case}: re-insert");
        }
    }
}

/// Parallel Welford merge equals sequential accumulation.
#[test]
fn welford_merge_matches_sequential() {
    let mut rng = DetRng::seed_from_u64(0x51B1_0002);
    for case in 0..CASES {
        let xs: Vec<f64> = (0..1 + rng.index(99))
            .map(|_| rng.float_in(-1e3, 1e3))
            .collect();
        let split = rng.index(100).min(xs.len());
        let mut all = Welford::new();
        for &x in &xs {
            all.add(x);
        }
        let mut left = Welford::new();
        let mut right = Welford::new();
        for &x in &xs[..split] {
            left.add(x);
        }
        for &x in &xs[split..] {
            right.add(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), all.count(), "case {case}");
        let (a, b) = (left.mean().unwrap(), all.mean().unwrap());
        assert!(
            (a - b).abs() < 1e-9 * (1.0 + b.abs()),
            "case {case}: {a} vs {b}"
        );
        if xs.len() > 1 {
            let (va, vb) = (left.variance().unwrap(), all.variance().unwrap());
            assert!(
                (va - vb).abs() < 1e-6 * (1.0 + vb.abs()),
                "case {case}: {va} vs {vb}"
            );
        }
    }
}

/// Zipf PMFs are normalized and monotone for any support/exponent.
#[test]
fn zipf_pmf_normalized_and_monotone() {
    let mut rng = DetRng::seed_from_u64(0x51B1_0003);
    for case in 0..CASES {
        let n = 1 + rng.index(199);
        let a = rng.float_in(0.0, 3.0);
        let z = Zipf::new(n, a);
        let total: f64 = (1..=n).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9, "case {case} (n={n}, a={a})");
        for k in 1..n {
            assert!(
                z.pmf(k) >= z.pmf(k + 1) - 1e-12,
                "case {case} (n={n}, a={a})"
            );
        }
    }
}

/// Derived RNG streams are reproducible and label-sensitive.
#[test]
fn rng_derivation_properties() {
    let mut meta = DetRng::seed_from_u64(0x51B1_0004);
    for _ in 0..CASES {
        let seed = meta.next_u64();
        let mut p1 = DetRng::seed_from_u64(seed);
        let mut p2 = DetRng::seed_from_u64(seed);
        let mut a = p1.derive("x");
        let mut b = p2.derive("x");
        for _ in 0..8 {
            assert_eq!(a.int_in(0, u64::MAX - 1), b.int_in(0, u64::MAX - 1));
        }
        let mut p3 = DetRng::seed_from_u64(seed);
        let mut c = p3.derive("y");
        // Extremely unlikely to collide on the first draw.
        let _ = c.int_in(0, u64::MAX - 1);
    }
}

/// sample_indices yields distinct, in-range indices.
#[test]
fn sample_indices_distinct() {
    let mut meta = DetRng::seed_from_u64(0x51B1_0005);
    for case in 0..CASES {
        let seed = meta.next_u64();
        let n = 1 + meta.index(99);
        let k = (n * meta.index(100) / 100).min(n);
        let mut rng = DetRng::seed_from_u64(seed);
        let s = rng.sample_indices(n, k);
        assert_eq!(s.len(), k, "case {case}");
        let mut u = s.clone();
        u.sort_unstable();
        u.dedup();
        assert_eq!(u.len(), k, "case {case}");
        assert!(s.iter().all(|&i| i < n), "case {case}");
    }
}
