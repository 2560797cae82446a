//! The wait list: queries every server refused, waiting out the period
//! (§2.2: "the respective client resubmits it in the next time period").
//!
//! One FIFO line per class, or one line for all when no class can run dry.
//! A sequence number on every entry records its place in park order across
//! the lines, so read in that order the lines are the one FIFO list they
//! stand for: due times never fall along it, and a wake's due members are
//! a prefix of each line. A fence, a completion on a wake's own microsecond
//! that those parked behind it retry after, holds a sequence number in a
//! deque of its own.
//!
//! A wake ([`WaitList::next_due`] until it yields nobody) gives out, in
//! sequence order, each due member ahead of the first due fence whose class
//! is still offered or whose retry budget is spent. The due members of dry
//! classes parked ahead of it are refused again for counters only and go
//! behind everything parked: a prefix of each dry line, turned in one move.
//! All that one step turns shifts by one offset, `next_seq − first turned`,
//! which keeps their order across lines and the place of any fence the wake
//! creates. Lines are found by the sequence number at their heads, in
//! [`MinTree`]s, not by a scan.

use crate::metrics::WaitWork;
use qa_simnet::{MinTree, SimTime};
use qa_workload::ClassId;
use std::collections::VecDeque;

/// A query waiting out a refusal: its query slot, which names its class,
/// and the allocation attempts it has spent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Waiter {
    /// When it retries: the microsecond after a period boundary.
    pub(crate) due: SimTime,
    /// Its place in park order, across every line.
    seq: u64,
    pub(crate) slot: u32,
    pub(crate) tried: u32,
}

// As large as the entry of the one FIFO list it replaces, so that
// `paper100_overload`'s `alloc.bytes_per_query` (`scripts/alloc_gate.sh`)
// cannot grow.
const _: () = assert!(std::mem::size_of::<Waiter>() == 24);

/// See the [module docs](self).
pub(crate) struct WaitList {
    /// One FIFO line per class, or one for all; each in sequence order.
    lines: Vec<VecDeque<Waiter>>,
    /// Each fence's due time and sequence number.
    fences: VecDeque<(SimTime, u64)>,
    /// The non-empty lines the running wake has not set aside as dry,
    /// keyed by their heads' sequence numbers.
    heads: MinTree,
    /// The set-aside lines with a head due ahead of the wake's fence.
    dry: MinTree,
    next_seq: u64,
    /// The due time of the last entry parked: once the list runs empty it
    /// is past, and the next entry needs a wake again.
    back: Option<SimTime>,
    /// Allocation attempts after which a query is attempted, dry or not,
    /// and how many members have spent them.
    budget: u32,
    spent: usize,
    /// The first fence due at the running wake, or `u64::MAX`.
    stop: u64,
    pub(crate) work: WaitWork,
}

impl WaitList {
    /// An empty list of `lines` lines, `reserve` entries reserved across
    /// all of them: one per class, or one that holds every class.
    pub(crate) fn new(lines: usize, budget: u32, reserve: usize) -> WaitList {
        let line = || VecDeque::with_capacity(reserve / lines.max(1));
        WaitList {
            lines: (0..lines).map(|_| line()).collect(),
            fences: VecDeque::new(),
            heads: MinTree::new(lines),
            dry: MinTree::new(lines),
            next_seq: 0,
            back: None,
            budget,
            spent: 0,
            stop: u64::MAX,
            work: WaitWork::default(),
        }
    }

    /// Parks the query in `slot`, of `class`, `tried` attempts behind it,
    /// until `due`. Returns whether that needs a wake: the last entry
    /// parked is due at another time.
    pub(crate) fn park(&mut self, due: SimTime, slot: usize, class: ClassId, tried: u32) -> bool {
        let c = if self.lines.len() == 1 {
            0
        } else {
            class.index()
        };
        let seq = self.next_seq;
        if self.lines[c].is_empty() {
            self.heads.update(c, seq);
        }
        let slot = u32::try_from(slot).expect("a slot index fits u32");
        self.lines[c].push_back(Waiter {
            due,
            seq,
            slot,
            tried,
        });
        self.spent += usize::from(tried >= self.budget);
        self.next_seq += 1;
        self.back.replace(due) != Some(due)
    }

    /// A completion was scheduled for `due`. When the last entry parked is
    /// due then too, parks a fence, which needs a wake of its own, and
    /// returns `true`: those parked from here on retry after the completion.
    pub(crate) fn fence(&mut self, due: SimTime) -> bool {
        let fenced = self.back == Some(due);
        if fenced {
            self.fences.push_back((due, self.next_seq));
            self.next_seq += 1;
        }
        fenced
    }

    /// One step of the wake at `now`, which runs up to the first fence due
    /// `now`: turns for `next` the due members of the class lines `dry`
    /// names that are parked ahead of the next member to attempt, handing
    /// `charge` each class's count, and takes that member off the list.
    /// Also returns whether the turn needs a wake for `next`. Past the last
    /// member, the fence the wake stopped at goes.
    pub(crate) fn next_due(
        &mut self,
        (now, next): (SimTime, SimTime),
        dry: impl Fn(usize) -> bool,
        charge: impl FnMut(usize, u64),
    ) -> (Option<Waiter>, bool) {
        let fence = self.fences.front().filter(|f| f.0 == now);
        self.stop = fence.map_or(u64::MAX, |f| f.1);
        // Set aside each dry line due ahead of the first line offered.
        let mut member = None;
        while let Some((c, seq)) = self.heads.min() {
            if seq >= self.stop || self.lines[c][0].due != now {
                break;
            } else if !dry(c) {
                member = Some((c, seq, false));
                break;
            }
            self.heads.remove(c);
            self.dry.update(c, seq);
        }
        // Only set-aside lines hold members due ahead of `member`; one
        // whose budget is spent is attempted in its place.
        for (c, line) in self.lines.iter().enumerate().filter(|_| self.spent > 0) {
            let bound = member.map_or(self.stop, |m| m.1);
            let mut due = line.iter().take_while(|w| w.due == now && w.seq < bound);
            if let Some(w) = due.find(|w| w.tried >= self.budget) {
                member = Some((c, w.seq, true));
            }
        }
        let wake = self.turn((now, next), member.map_or(self.stop, |m| m.1), charge);
        let Some((c, _, aside)) = member else {
            if self.stop != u64::MAX {
                self.fences.pop_front();
            }
            return (None, wake);
        };
        let w = self.lines[c]
            .pop_front()
            .expect("a member at its line's head");
        self.spent -= usize::from(w.tried >= self.budget);
        self.work.attempted += 1;
        if aside {
            self.reseat_dry(c, now);
        } else if let Some(head) = self.lines[c].front() {
            self.heads.update(c, head.seq);
        } else {
            self.heads.remove(c);
        }
        (Some(w), wake)
    }

    /// Turns for `next` every set-aside member due `now` and parked ahead
    /// of `bound`: a prefix of each line, shifted and rotated to its back.
    /// Returns whether that needs a wake for `next`.
    fn turn(
        &mut self,
        (now, next): (SimTime, SimTime),
        bound: u64,
        mut charge: impl FnMut(usize, u64),
    ) -> bool {
        let Some((_, first)) = self.dry.min().filter(|&(_, seq)| seq < bound) else {
            return false;
        };
        let (shift, budget) = (self.next_seq - first, self.budget);
        self.work.runs += 1;
        while let Some((c, _)) = self.dry.min().filter(|&(_, seq)| seq < bound) {
            let line = &mut self.lines[c];
            let n = line.partition_point(|w| w.due == now && w.seq < bound);
            let (front, back) = line.as_mut_slices();
            let split = n.min(front.len());
            let turn = |members: &mut [Waiter]| {
                let mut spent = 0;
                for w in members {
                    (w.due, w.seq, w.tried) = (next, w.seq + shift, w.tried + 1);
                    spent += usize::from(w.tried >= budget);
                }
                spent
            };
            self.spent += turn(&mut front[..split]) + turn(&mut back[..n - split]);
            self.next_seq = self.next_seq.max(line[n - 1].seq + 1);
            line.rotate_left(n);
            charge(c, n as u64);
            self.work.turned += n as u64;
            self.reseat_dry(c, now);
        }
        self.back.replace(next) != Some(next)
    }

    /// Re-keys the set-aside line `c`: it stays aside while its head is due
    /// ahead of the running wake's fence, and rejoins `heads` otherwise.
    fn reseat_dry(&mut self, c: usize, now: SimTime) {
        match self.lines[c].front() {
            Some(w) if w.due == now && w.seq < self.stop => self.dry.update(c, w.seq),
            head => {
                self.dry.remove(c);
                if let Some(w) = head {
                    self.heads.update(c, w.seq);
                }
            }
        }
    }
}

/// A wait-list entry as tests read it: its due time, `(slot, line)` or
/// `None` for a fence, and its attempts.
#[cfg(test)]
pub(crate) type Entry = (SimTime, Option<(usize, usize)>, u32);

#[cfg(test)]
impl WaitList {
    /// Members and fences held.
    pub(crate) fn len(&self) -> usize {
        self.lines.iter().map(VecDeque::len).sum::<usize>() + self.fences.len()
    }

    /// Every entry in park order, with its sequence number.
    fn entries(&self) -> Vec<(u64, Entry)> {
        let lines = self.lines.iter().enumerate().flat_map(|(c, line)| {
            let member = move |w: &Waiter| Some((w.slot as usize, c));
            line.iter()
                .map(move |w| (w.seq, (w.due, member(w), w.tried)))
        });
        let fences = self.fences.iter().map(|&(due, seq)| (seq, (due, None, 0)));
        let mut all: Vec<_> = lines.chain(fences).collect();
        all.sort_unstable_by_key(|e| e.0);
        all
    }

    /// Every entry in park order.
    pub(crate) fn members(&self) -> Vec<Entry> {
        self.entries().into_iter().map(|e| e.1).collect()
    }

    /// The due time of every entry, fences included, in no order; and the
    /// number of fences.
    pub(crate) fn dues(&self) -> (impl Iterator<Item = SimTime> + '_, usize) {
        let members = self.lines.iter().flatten().map(|w| w.due);
        (
            members.chain(self.fences.iter().map(|f| f.0)),
            self.fences.len(),
        )
    }

    /// Spends the retry budget of the `i`-th entry in park order, a member.
    pub(crate) fn spend(&mut self, i: usize) {
        let seq = self.entries()[i].0;
        let w = self.lines.iter_mut().flatten().find(|w| w.seq == seq);
        let w = w.expect("a member, not a fence");
        self.spent += usize::from(w.tried < self.budget);
        w.tried = self.budget;
    }

    /// Drops every entry.
    pub(crate) fn clear(&mut self) {
        let (classes, budget) = (self.lines.len(), self.budget);
        let work = self.work;
        *self = WaitList::new(classes, budget, 0);
        self.work = work;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qa_simnet::DetRng;

    /// A small budget, so that spent members turn up.
    const BUDGET: u32 = 4;
    /// The model's period, in microseconds.
    const PERIOD: u64 = 10;

    fn wake_after(t: u64) -> SimTime {
        SimTime::from_micros((t / PERIOD + 1) * PERIOD + 1)
    }

    /// An entry of the single FIFO list; `query` [`FENCE`] marks a fence.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Old {
        due: SimTime,
        query: usize,
        tried: u32,
        class: usize,
    }

    const FENCE: usize = usize::MAX;

    /// The single-deque wait list the lines replaced, kept as their
    /// oracle: its park and fence rules, `Federation::turn_dry_run`, and
    /// one pass of the `Wake` arm's loop.
    struct Model {
        parked: VecDeque<Old>,
        work: WaitWork,
        charged: Vec<u64>,
    }

    impl Model {
        fn park(&mut self, due: SimTime, query: usize, class: usize, tried: u32) -> bool {
            let wake = self.parked.back().is_none_or(|w| w.due != due);
            self.parked.push_back(Old {
                due,
                query,
                tried,
                class,
            });
            wake
        }

        fn fence(&mut self, due: SimTime) -> bool {
            if self.parked.back().is_none_or(|w| w.due != due) {
                return false;
            }
            let (query, tried, class) = (FENCE, 0, 0);
            let fence = Old {
                due,
                query,
                tried,
                class,
            };
            self.parked.push_back(fence);
            true
        }

        fn next_due(
            &mut self,
            now: SimTime,
            next: SimTime,
            dry: &[bool],
        ) -> (Option<Old>, u64, bool) {
            let mut run = 0;
            while let Some(&w) = self.parked.get(run) {
                let turns = w.due == now && w.query != FENCE && w.tried < BUDGET;
                if !(turns && dry[w.class]) {
                    break;
                }
                self.charged[w.class] += 1;
                run += 1;
            }
            let mut wake = false;
            if run > 0 {
                self.work.runs += 1;
                self.work.turned += run as u64;
                wake = self.parked.back().is_some_and(|w| w.due != next);
                self.parked.rotate_left(run);
                let kept = self.parked.len() - run;
                for w in self.parked.range_mut(kept..) {
                    (w.due, w.tried) = (next, w.tried + 1);
                }
            }
            let Some(&w) = self.parked.front().filter(|w| w.due == now) else {
                return (None, run as u64, wake);
            };
            self.parked.pop_front();
            if w.query == FENCE {
                return (None, run as u64, wake);
            }
            self.work.attempted += 1;
            (Some(w), run as u64, wake)
        }

        fn members(&self) -> Vec<Entry> {
            let view = |w: &Old| match w.query {
                FENCE => (w.due, None, 0),
                q => (w.due, Some((q, w.class)), w.tried),
            };
            self.parked.iter().map(view).collect()
        }
    }

    /// Both lists, driven by one stream of operations.
    struct Pair {
        lines: WaitList,
        model: Model,
        charged: Vec<u64>,
        /// Wakes scheduled and not yet run, by time.
        wakes: Vec<SimTime>,
        now: u64,
        queries: usize,
        /// Which classes nobody offers, since the last boundary.
        dry: Vec<bool>,
        last_wake: Option<SimTime>,
    }

    impl Pair {
        fn new(k: usize) -> Pair {
            Pair {
                lines: WaitList::new(k, BUDGET, 8),
                model: Model {
                    parked: VecDeque::new(),
                    work: WaitWork::default(),
                    charged: vec![0; k],
                },
                charged: vec![0; k],
                wakes: Vec::new(),
                now: 0,
                queries: 0,
                dry: vec![false; k],
                last_wake: None,
            }
        }

        fn agree(&self) {
            assert_eq!(self.lines.members(), self.model.members());
            assert_eq!(self.lines.work, self.model.work);
            assert_eq!(self.charged, self.model.charged);
            assert_eq!(self.lines.len(), self.model.parked.len());
        }

        fn park(&mut self, due: SimTime, query: usize, class: usize, tried: u32) {
            let wake = self.lines.park(due, query, ClassId(class as u32), tried);
            assert_eq!(wake, self.model.park(due, query, class, tried));
            if wake {
                self.wakes.push(due);
            }
            self.agree();
        }

        fn fence(&mut self, due: SimTime) {
            let fenced = self.lines.fence(due);
            assert_eq!(fenced, self.model.fence(due));
            if fenced {
                self.wakes.push(due);
            }
            self.agree();
        }

        /// Runs the earliest pending wake; each member attempted is
        /// assigned, maybe drying its class or fencing a completion, or
        /// refused again.
        fn wake(&mut self, rng: &mut DetRng) {
            let first = (0..self.wakes.len()).min_by_key(|&i| self.wakes[i]);
            let now = self.wakes.remove(first.expect("a pending wake"));
            self.now = now.as_micros();
            let next = wake_after(self.now);
            if self.last_wake != Some(now) {
                // A boundary: supply is back, and some classes sell out
                // at once.
                self.dry.iter_mut().for_each(|d| *d = rng.chance(0.4));
            }
            self.last_wake = Some(now);
            self.lines.work.wakes += 1;
            self.model.work.wakes += 1;
            loop {
                let dry = self.dry.clone();
                let charged = &mut self.charged;
                let before = charged.iter().sum::<u64>();
                let (member, wake) =
                    self.lines
                        .next_due((now, next), |c| dry[c], |c, n| charged[c] += n);
                let turned = self.charged.iter().sum::<u64>() - before;
                let want = self.model.next_due(now, next, &self.dry);
                let got = member.map(|w| (w.slot as usize, w.tried));
                assert_eq!(got, want.0.map(|w| (w.query, w.tried)), "at {now:?}");
                assert_eq!((turned, wake), (want.1, want.2), "at {now:?}");
                let want = want.0;
                if wake {
                    self.wakes.push(next);
                }
                self.agree();
                let Some(w) = want else { break };
                match rng.index(6) {
                    // Assigned, the completion on the next wake's
                    // microsecond or a little past it.
                    0 | 1 => {
                        let finish = next + qa_simnet::SimDuration::from_micros(rng.int_in(0, 1));
                        self.fence(finish);
                    }
                    // Assigned, and that sold its class out.
                    2 => self.dry[w.class] = true,
                    // Refused, or given up with its budget spent.
                    _ if w.tried < BUDGET => self.park(next, w.query, w.class, w.tried + 1),
                    _ => {}
                }
            }
        }

        /// A fresh arrival refused at some microsecond of the period, or
        /// on a boundary's own, ahead of that boundary's wake.
        fn arrive(&mut self, rng: &mut DetRng, k: usize) {
            let at = self.now + rng.int_in(0, PERIOD);
            if self.wakes.iter().any(|w| w.as_micros() < at) {
                return self.wake(rng);
            }
            self.now = at;
            let tried = if rng.chance(0.1) {
                BUDGET
            } else {
                rng.int_in(1, 2) as u32
            };
            self.queries += 1;
            self.park(wake_after(at), self.queries, rng.index(k), tried);
        }
    }

    #[test]
    fn the_lines_are_the_single_fifo_list_step_for_step() {
        for k in [1, 2, 7] {
            for seed in 0..40 {
                let mut rng = DetRng::seed_from_u64(seed).derive("wait-lines");
                let mut pair = Pair::new(k);
                for _ in 0..300 {
                    match rng.index(8) {
                        0..=4 => pair.arrive(&mut rng, k),
                        // A completion lands where the last member waits.
                        5 => match pair.model.parked.back() {
                            Some(w) if w.due.as_micros() > pair.now => pair.fence(w.due),
                            _ => {}
                        },
                        _ if !pair.wakes.is_empty() => pair.wake(&mut rng),
                        _ => {}
                    }
                }
                while !pair.wakes.is_empty() {
                    pair.wake(&mut rng);
                }
                assert_eq!(
                    pair.lines.len(),
                    pair.model.parked.len(),
                    "K={k} seed {seed}"
                );
            }
        }
    }
}
