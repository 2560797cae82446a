//! Materialized query traces.
//!
//! A [`Trace`] is the time-ordered list of queries entering the federation —
//! what Figure 3 plots per half-second. Both the simulator (`qa-sim`) and
//! the threaded cluster (`qa-cluster`) replay traces, so an experiment's
//! workload is generated once and shared by every algorithm under test
//! (paired comparison, same arrivals for QA-NT and all baselines).

use crate::ids::{ClassId, NodeId};
use qa_simnet::json::{FromJson, Json, ToJson};
use qa_simnet::{json_obj, DetRng, SimDuration, SimTime};

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

impl ToJson for QueryEvent {
    fn to_json(&self) -> Json {
        json_obj! {
            "id": self.id,
            "at_us": self.at.as_micros(),
            "class": self.class.index(),
            "origin": self.origin.index(),
        }
    }
}

impl FromJson for QueryEvent {
    fn from_json(v: &Json) -> Result<QueryEvent, String> {
        Ok(QueryEvent {
            id: v.field("id")?,
            at: SimTime::from_micros(v.field("at_us")?),
            class: ClassId(v.field("class")?),
            origin: NodeId(v.field("origin")?),
        })
    }
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

    /// Serializes the trace to JSON (recorded workloads are replayed across
    /// mechanisms and sessions). Times are stored in microseconds.
    pub fn to_json(&self) -> String {
        json_obj! { "events": self.events }.dump()
    }

    /// Deserializes a trace from [`Trace::to_json`] output, re-validating
    /// the time ordering.
    pub fn from_json(json: &str) -> Result<Trace, String> {
        let events: Vec<QueryEvent> = Json::parse(json)?.field("events")?;
        if !events.windows(2).all(|w| w[0].at <= w[1].at) {
            return Err("trace events out of order".to_string());
        }
        Ok(Trace { events })
    }

    /// Merges two traces (re-sorting and re-numbering ids).
    pub fn merge(mut self, other: Trace) -> Trace {
        self.events.extend(other.events);
        self.events
            .sort_by_key(|e| (e.at, e.class.index(), e.origin.index()));
        for (i, e) in self.events.iter_mut().enumerate() {
            e.id = i as u64;
        }
        Trace {
            events: self.events,
        }
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
    fn merge_preserves_order_and_renumbers() {
        let a = Trace::from_arrivals(vec![(SimTime::from_millis(10), ClassId(0))], 1, &mut rng());
        let b = Trace::from_arrivals(vec![(SimTime::from_millis(5), ClassId(1))], 1, &mut rng());
        let m = a.merge(b);
        assert_eq!(m.len(), 2);
        assert_eq!(m.events()[0].at, SimTime::from_millis(5));
        assert_eq!(m.events()[0].id, 0);
        assert_eq!(m.events()[1].id, 1);
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
    fn json_round_trip() {
        let t = Trace::from_arrivals(
            vec![
                (SimTime::from_millis(10), ClassId(0)),
                (SimTime::from_millis(50), ClassId(1)),
            ],
            3,
            &mut rng(),
        );
        let j = t.to_json();
        let back = Trace::from_json(&j).unwrap();
        assert_eq!(t, back);
        assert!(Trace::from_json("{bad json").is_err());
        let wide = j.replacen("\"class\":", "\"class\":4294967296, \"was\":", 1);
        assert_eq!(
            Trace::from_json(&wide),
            Err("field \"events\": element 0: field \"class\": exceeds u32".to_string())
        );
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
