//! Materialized query traces.
//!
//! A [`Trace`] is the time-ordered list of queries entering the federation —
//! what Figure 3 plots per half-second. Both the simulator (`qa-sim`) and
//! the threaded cluster (`qa-cluster`) replay traces, so an experiment's
//! workload is generated once and shared by every algorithm under test
//! (paired comparison, same arrivals for QA-NT and all baselines).

use crate::ids::{ClassId, NodeId};
use qa_simnet::{DetRng, SimDuration, SimTime};

/// A single query arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryEvent {
    /// Unique id within the trace (dense, in arrival order).
    pub id: u64,
    /// Arrival time.
    pub at: SimTime,
    /// The query's class.
    pub class: ClassId,
    /// The client node that poses the query.
    pub origin: NodeId,
}

/// A time-ordered sequence of query arrivals.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    events: Vec<QueryEvent>,
}

impl Trace {
    /// Builds a trace from `(time, class)` pairs, assigning dense ids and
    /// uniformly random origin nodes. Input need not be sorted.
    pub fn from_arrivals(
        mut arrivals: Vec<(SimTime, ClassId)>,
        num_nodes: usize,
        rng: &mut DetRng,
    ) -> Self {
        assert!(num_nodes > 0);
        arrivals.sort_by_key(|(t, c)| (*t, c.index()));
        let events = arrivals
            .into_iter()
            .enumerate()
            .map(|(i, (at, class))| QueryEvent {
                id: i as u64,
                at,
                class,
                origin: NodeId(rng.index(num_nodes) as u32),
            })
            .collect();
        Trace { events }
    }

    /// Builds a trace from two arrival streams, each already sorted by
    /// `(time, class)`, in one merging pass: the same trace as
    /// [`from_arrivals`](Self::from_arrivals) over `first` followed by
    /// `second` (on equal keys `first` goes first, as the stable sort puts
    /// it), with origins drawn from `rng` in the same order.
    ///
    /// # Panics
    /// Panics if a stream is out of order or `num_nodes` is zero.
    pub fn merge_arrivals(
        first: &[(SimTime, ClassId)],
        second: &[(SimTime, ClassId)],
        num_nodes: usize,
        rng: &mut DetRng,
    ) -> Self {
        assert!(num_nodes > 0);
        let key = |&(t, c): &(SimTime, ClassId)| (t, c.index());
        let total = first.len() + second.len();
        let mut events = Vec::with_capacity(total);
        let (mut i, mut j) = (0, 0);
        let mut last = (SimTime::ZERO, 0);
        for id in 0..total as u64 {
            let next =
                if j == second.len() || (i < first.len() && key(&first[i]) <= key(&second[j])) {
                    i += 1;
                    first[i - 1]
                } else {
                    j += 1;
                    second[j - 1]
                };
            // Every descent in a stream shows up as one in the merge.
            assert!(key(&next) >= last, "arrival streams must be sorted");
            last = key(&next);
            events.push(QueryEvent {
                id,
                at: next.0,
                class: next.1,
                origin: NodeId(rng.index(num_nodes) as u32),
            });
        }
        Trace { events }
    }

    /// Builds from fully specified events (must be time-sorted).
    ///
    /// # Panics
    /// Panics if events are out of order.
    pub fn from_events(events: Vec<QueryEvent>) -> Self {
        assert!(
            events.windows(2).all(|w| w[0].at <= w[1].at),
            "trace events must be time-sorted"
        );
        Trace { events }
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` iff no queries.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates events in time order.
    pub fn iter(&self) -> impl Iterator<Item = &QueryEvent> {
        self.events.iter()
    }

    /// The events slice.
    pub fn events(&self) -> &[QueryEvent] {
        &self.events
    }

    /// Arrival time of the last query, or the origin for an empty trace.
    pub fn horizon(&self) -> SimTime {
        self.events.last().map_or(SimTime::ZERO, |e| e.at)
    }

    /// Arrivals per period (Figure 3's y-axis with `period = 500 ms`),
    /// optionally restricted to one class.
    pub fn arrivals_per_period(&self, period: SimDuration, class: Option<ClassId>) -> Vec<u64> {
        let mut counts: Vec<u64> = Vec::new();
        for e in &self.events {
            if class.is_some_and(|c| c != e.class) {
                continue;
            }
            let idx = e.at.period_index(period) as usize;
            if idx >= counts.len() {
                counts.resize(idx + 1, 0);
            }
            counts[idx] += 1;
        }
        counts
    }

    /// Total queries of a class.
    pub fn count_class(&self, class: ClassId) -> usize {
        self.events.iter().filter(|e| e.class == class).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> DetRng {
        DetRng::seed_from_u64(0x7ACE)
    }

    #[test]
    fn from_arrivals_sorts_and_numbers() {
        let arrivals = vec![
            (SimTime::from_millis(300), ClassId(1)),
            (SimTime::from_millis(100), ClassId(0)),
            (SimTime::from_millis(200), ClassId(0)),
        ];
        let t = Trace::from_arrivals(arrivals, 4, &mut rng());
        let times: Vec<u64> = t.iter().map(|e| e.at.as_millis()).collect();
        assert_eq!(times, vec![100, 200, 300]);
        let ids: Vec<u64> = t.iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert!(t.iter().all(|e| e.origin.index() < 4));
    }

    #[test]
    fn arrivals_per_period_bins_correctly() {
        let arrivals = vec![
            (SimTime::from_millis(0), ClassId(0)),
            (SimTime::from_millis(499), ClassId(1)),
            (SimTime::from_millis(500), ClassId(0)),
            (SimTime::from_millis(1_400), ClassId(0)),
        ];
        let t = Trace::from_arrivals(arrivals, 2, &mut rng());
        assert_eq!(
            t.arrivals_per_period(SimDuration::from_millis(500), None),
            vec![2, 1, 1]
        );
        assert_eq!(
            t.arrivals_per_period(SimDuration::from_millis(500), Some(ClassId(0))),
            vec![1, 1, 1]
        );
    }

    #[test]
    fn merge_arrivals_is_the_stable_sort_of_the_concatenation() {
        let mut draw = DetRng::seed_from_u64(35);
        for case in 0..300 {
            // Few distinct times, so equal times within and across the
            // streams are common; each stream keeps one class, as the
            // thinning emits them.
            let mut stream = |class: u32| {
                let mut v: Vec<(SimTime, ClassId)> = (0..draw.index(40))
                    .map(|_| (SimTime::from_millis(draw.index(12) as u64), ClassId(class)))
                    .collect();
                v.sort_by_key(|&(t, _)| t);
                v
            };
            let (c0, c1) = if case % 3 == 0 { (1, 0) } else { (0, 1) };
            let (first, second) = (stream(c0), stream(c1));
            let nodes = 1 + case % 7;
            let mut all = first.clone();
            all.extend_from_slice(&second);
            let sorted = Trace::from_arrivals(all, nodes, &mut rng());
            let merged = Trace::merge_arrivals(&first, &second, nodes, &mut rng());
            assert_eq!(merged, sorted, "case {case}");
        }
    }

    #[test]
    #[should_panic(expected = "must be sorted")]
    fn merge_arrivals_rejects_an_unsorted_stream() {
        let at = |ms| (SimTime::from_millis(ms), ClassId(0));
        let _ = Trace::merge_arrivals(&[at(10), at(5)], &[at(7)], 2, &mut rng());
    }

    #[test]
    fn horizon_and_counts() {
        let t = Trace::from_arrivals(
            vec![
                (SimTime::from_millis(10), ClassId(0)),
                (SimTime::from_millis(90), ClassId(0)),
                (SimTime::from_millis(50), ClassId(1)),
            ],
            2,
            &mut rng(),
        );
        assert_eq!(t.horizon(), SimTime::from_millis(90));
        assert_eq!(t.count_class(ClassId(0)), 2);
        assert_eq!(t.count_class(ClassId(1)), 1);
    }

    #[test]
    #[should_panic(expected = "time-sorted")]
    fn from_events_rejects_unsorted() {
        let e = |ms, id| QueryEvent {
            id,
            at: SimTime::from_millis(ms),
            class: ClassId(0),
            origin: NodeId(0),
        };
        let _ = Trace::from_events(vec![e(10, 0), e(5, 1)]);
    }

    #[test]
    fn empty_trace() {
        let t = Trace::from_events(vec![]);
        assert!(t.is_empty());
        assert_eq!(t.horizon(), SimTime::ZERO);
        assert!(t
            .arrivals_per_period(SimDuration::from_millis(500), None)
            .is_empty());
    }
}
