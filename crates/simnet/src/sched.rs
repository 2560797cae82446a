//! Deterministic schedule exploration for message-passing protocols.
//!
//! A protocol harness (the cluster's `SimTransport` explorer) runs a
//! state machine whose nondeterminism — which in-flight message is
//! delivered next, whether a message or reply is dropped, when a node
//! crashes — is resolved one *choice point* at a time. This module
//! supplies the choosers:
//!
//! * [`Schedule`] — the choice-point interface: `choose(point, n)`
//!   returns an index `< n`. Alternative 0 is by convention the benign
//!   choice (deliver in order, no drop, no crash), so a schedule that
//!   answers 0 everywhere reproduces the happy path.
//! * [`RandomSchedule`] — seeded via [`DetRng`]; every run is fully
//!   reproducible from its `u64` seed, and the trail of choices it made
//!   is recorded so a failure can also be replayed structurally.
//! * [`ReplaySchedule`] — replays a recorded [`ChoiceTrail`] verbatim
//!   (off-trail choice points fall back to 0), turning any printed
//!   failure into a deterministic regression test.
//! * [`SystematicExplorer`] — bounded depth-first enumeration of the
//!   choice tree: run the harness once per schedule, feed the recorded
//!   trail back, and the explorer advances to the next unexplored
//!   branch. With a depth bound `d`, every interleaving whose first `d`
//!   choice points differ is eventually visited (until the schedule
//!   budget runs out).
//!
//! The same trail format serves all three: `point:chosen/arity` hops
//! joined by `,`, which is what the `explore` bench bin prints when an
//! invariant fails.

use crate::rng::DetRng;
use std::fmt;

/// One recorded choice: which alternative was taken, out of how many,
/// at which named choice point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Choice {
    /// The choice-point label (e.g. `"deliver"`, `"drop"`, `"crash"`).
    pub(crate) point: &'static str,
    /// The alternative taken.
    pub(crate) chosen: u32,
    /// How many alternatives existed.
    pub(crate) arity: u32,
}

/// The sequence of choices one schedule made, in order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChoiceTrail {
    /// The choices, in the order they were resolved.
    pub(crate) choices: Vec<Choice>,
}

impl ChoiceTrail {
    /// Just the chosen indices (the replay vector).
    pub fn indices(&self) -> Vec<u32> {
        self.choices.iter().map(|c| c.chosen).collect()
    }
}

impl fmt::Display for ChoiceTrail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.choices.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}:{}/{}", c.point, c.chosen, c.arity)?;
        }
        Ok(())
    }
}

/// Resolves choice points for one schedule of a protocol exploration.
///
/// Implementations must be deterministic functions of their own state:
/// the harness guarantees it asks the same questions in the same order
/// when re-run, which is what makes seeds and trails replayable.
pub trait Schedule {
    /// Resolves a choice point with `n ≥ 1` alternatives; the result is
    /// `< n`. `point` labels the kind of decision for trail readability.
    fn choose(&mut self, point: &'static str, n: usize) -> usize;

    /// The choices made so far.
    fn trail(&self) -> &ChoiceTrail;

    /// Human-readable identity (`"random seed 0x2a"`, `"systematic #17"`)
    /// for failure reports.
    fn describe(&self) -> String;
}

/// A schedule driven by seeded randomness. Identical seed ⇒ identical
/// choices ⇒ identical run.
pub struct RandomSchedule {
    seed: u64,
    rng: DetRng,
    trail: ChoiceTrail,
}

impl RandomSchedule {
    /// A schedule seeded with `seed` (independent of any other stream:
    /// the RNG is derived under a fixed label).
    pub fn new(seed: u64) -> RandomSchedule {
        RandomSchedule {
            seed,
            rng: DetRng::seed_from_u64(seed).derive("sched"),
            trail: ChoiceTrail::default(),
        }
    }
}

impl Schedule for RandomSchedule {
    fn choose(&mut self, point: &'static str, n: usize) -> usize {
        assert!(n >= 1, "choice point {point:?} with no alternatives");
        let chosen = self.rng.index(n);
        self.trail.choices.push(Choice {
            point,
            chosen: chosen as u32,
            arity: n as u32,
        });
        chosen
    }

    fn trail(&self) -> &ChoiceTrail {
        &self.trail
    }

    fn describe(&self) -> String {
        format!("random seed {}", self.seed)
    }
}

/// Replays a recorded choice vector; choice points past the end of the
/// vector resolve to 0 (the benign alternative). A chosen index at or
/// above the live arity is clamped into range, so a trail recorded
/// against a slightly different harness still replays without panicking.
pub struct ReplaySchedule {
    replay: Vec<u32>,
    pos: usize,
    trail: ChoiceTrail,
    label: String,
}

impl ReplaySchedule {
    /// A schedule replaying `indices` (see [`ChoiceTrail::indices`]).
    pub fn new(indices: Vec<u32>, label: impl Into<String>) -> ReplaySchedule {
        ReplaySchedule {
            replay: indices,
            pos: 0,
            trail: ChoiceTrail::default(),
            label: label.into(),
        }
    }
}

impl Schedule for ReplaySchedule {
    fn choose(&mut self, point: &'static str, n: usize) -> usize {
        assert!(n >= 1, "choice point {point:?} with no alternatives");
        let wanted = self.replay.get(self.pos).copied().unwrap_or(0) as usize;
        self.pos += 1;
        let chosen = wanted.min(n - 1);
        self.trail.choices.push(Choice {
            point,
            chosen: chosen as u32,
            arity: n as u32,
        });
        chosen
    }

    fn trail(&self) -> &ChoiceTrail {
        &self.trail
    }

    fn describe(&self) -> String {
        format!("replay {}", self.label)
    }
}

/// One schedule produced by a [`SystematicExplorer`]: a forced prefix of
/// choices, then 0 (benign) beyond it. The full trail it actually walked
/// is fed back to the explorer to compute the next branch.
pub struct SystematicSchedule {
    index: u64,
    prefix: Vec<u32>,
    pos: usize,
    trail: ChoiceTrail,
}

impl SystematicSchedule {
    /// Zero-based index of this schedule within its exploration.
    pub fn index(&self) -> u64 {
        self.index
    }
}

impl Schedule for SystematicSchedule {
    fn choose(&mut self, point: &'static str, n: usize) -> usize {
        assert!(n >= 1, "choice point {point:?} with no alternatives");
        let wanted = self.prefix.get(self.pos).copied().unwrap_or(0) as usize;
        self.pos += 1;
        // The prefix was recorded against the same deterministic harness,
        // so arity mismatches only happen when the harness changed; clamp
        // rather than panic so stale prefixes stay explorable.
        let chosen = wanted.min(n - 1);
        self.trail.choices.push(Choice {
            point,
            chosen: chosen as u32,
            arity: n as u32,
        });
        chosen
    }

    fn trail(&self) -> &ChoiceTrail {
        &self.trail
    }

    fn describe(&self) -> String {
        format!("systematic #{} prefix {:?}", self.index, self.prefix)
    }
}

/// Bounded depth-first enumeration of the choice tree.
///
/// Usage is a begin/finish loop:
///
/// ```
/// use qa_simnet::sched::{Schedule, SystematicExplorer};
/// let mut explorer = SystematicExplorer::new(3, 100);
/// let mut leaves = 0;
/// while let Some(mut schedule) = explorer.begin() {
///     // A tiny "protocol": two binary choice points per run.
///     let _a = schedule.choose("a", 2);
///     let _b = schedule.choose("b", 2);
///     explorer.finish(schedule.trail());
///     leaves += 1;
/// }
/// assert_eq!(leaves, 4); // all 2×2 interleavings visited
/// ```
///
/// `depth_bound` limits which choice points are branched on: points
/// beyond it always take alternative 0. `budget` caps the total number
/// of schedules, so a wide tree cannot run away.
pub struct SystematicExplorer {
    depth_bound: usize,
    budget: u64,
    run: u64,
    /// Forced prefix for the next schedule; `None` once exhausted.
    next_prefix: Option<Vec<u32>>,
    /// Set when [`begin`](Self::begin) hands out a schedule whose trail
    /// [`finish`](Self::finish) has not yet consumed.
    outstanding: bool,
}

impl SystematicExplorer {
    /// An explorer branching on the first `depth_bound` choice points,
    /// visiting at most `budget` schedules.
    pub fn new(depth_bound: usize, budget: u64) -> SystematicExplorer {
        SystematicExplorer {
            depth_bound,
            budget,
            run: 0,
            next_prefix: Some(Vec::new()),
            outstanding: false,
        }
    }

    /// `true` once the bounded tree is fully enumerated (as opposed to
    /// the budget running out).
    pub fn exhausted(&self) -> bool {
        self.next_prefix.is_none()
    }

    /// Starts the next schedule, or `None` when the tree is exhausted or
    /// the budget is spent.
    ///
    /// # Panics
    /// Panics if the previous schedule was never passed to
    /// [`finish`](Self::finish) — the explorer cannot advance without
    /// its trail.
    pub fn begin(&mut self) -> Option<SystematicSchedule> {
        assert!(
            !self.outstanding,
            "finish() the previous schedule before begin()ning the next"
        );
        if self.run >= self.budget {
            return None;
        }
        let prefix = self.next_prefix.as_ref()?.clone();
        self.outstanding = true;
        Some(SystematicSchedule {
            index: self.run,
            prefix,
            pos: 0,
            trail: ChoiceTrail::default(),
        })
    }

    /// Consumes a finished schedule's trail and computes the next branch:
    /// the deepest in-bound choice point with an untaken alternative is
    /// bumped, everything after it is reset. The trail must come from the
    /// schedule the preceding [`begin`](Self::begin) handed out.
    pub fn finish(&mut self, trail: &ChoiceTrail) {
        self.outstanding = false;
        self.run += 1;
        let trail = &trail.choices;
        let scan = trail.len().min(self.depth_bound);
        for i in (0..scan).rev() {
            let c = &trail[i];
            if c.chosen + 1 < c.arity {
                let mut prefix: Vec<u32> = trail[..i].iter().map(|c| c.chosen).collect();
                prefix.push(c.chosen + 1);
                self.next_prefix = Some(prefix);
                return;
            }
        }
        self.next_prefix = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A three-point "protocol" with arities 2, 3, 2; returns the leaf id.
    fn walk(s: &mut dyn Schedule) -> usize {
        let a = s.choose("a", 2);
        let b = s.choose("b", 3);
        let c = s.choose("c", 2);
        a * 6 + b * 2 + c
    }

    #[test]
    fn systematic_visits_every_leaf_exactly_once() {
        let mut explorer = SystematicExplorer::new(8, 1000);
        let mut seen = std::collections::BTreeSet::new();
        while let Some(mut s) = explorer.begin() {
            assert!(seen.insert(walk(&mut s)), "leaf visited twice");
            explorer.finish(&s.trail().clone());
        }
        assert_eq!(seen.len(), 2 * 3 * 2);
        assert!(explorer.exhausted());
    }

    #[test]
    fn systematic_depth_bound_truncates_branching() {
        // Branch only on the first choice point: 2 schedules, the rest 0.
        let mut explorer = SystematicExplorer::new(1, 1000);
        let mut seen = Vec::new();
        while let Some(mut s) = explorer.begin() {
            seen.push(walk(&mut s));
            explorer.finish(&s.trail().clone());
        }
        assert_eq!(seen, vec![0, 6]);
    }

    #[test]
    fn systematic_budget_caps_schedules() {
        let mut explorer = SystematicExplorer::new(8, 5);
        let mut n = 0;
        while let Some(mut s) = explorer.begin() {
            walk(&mut s);
            explorer.finish(&s.trail().clone());
            n += 1;
        }
        assert_eq!(n, 5);
        assert!(!explorer.exhausted(), "budget ran out before the tree did");
    }

    #[test]
    fn random_schedule_is_seed_reproducible_and_seed_sensitive() {
        let run = |seed: u64| {
            let mut s = RandomSchedule::new(seed);
            let leaf = walk(&mut s);
            (leaf, s.trail().clone())
        };
        assert_eq!(run(42), run(42), "same seed ⇒ same choices");
        let distinct: std::collections::BTreeSet<usize> = (0..32).map(|seed| run(seed).0).collect();
        assert!(distinct.len() > 1, "seeds must actually vary the walk");
    }

    #[test]
    fn replay_reproduces_a_random_trail() {
        let mut random = RandomSchedule::new(7);
        let leaf = walk(&mut random);
        let mut replay = ReplaySchedule::new(random.trail().indices(), "seed 7");
        assert_eq!(walk(&mut replay), leaf);
        assert_eq!(replay.trail(), random.trail());
    }

    #[test]
    fn replay_off_trail_falls_back_to_benign() {
        let mut replay = ReplaySchedule::new(vec![1], "short");
        assert_eq!(replay.choose("a", 2), 1);
        assert_eq!(replay.choose("b", 3), 0, "past the trail ⇒ alternative 0");
        // Out-of-range recorded choices clamp instead of panicking.
        let mut replay = ReplaySchedule::new(vec![9], "stale");
        assert_eq!(replay.choose("a", 2), 1);
    }

    #[test]
    fn trail_formats_compactly() {
        let mut s = ReplaySchedule::new(vec![1, 2], "x");
        s.choose("deliver", 3);
        s.choose("drop", 4);
        assert_eq!(s.trail().to_string(), "deliver:1/3,drop:2/4");
        assert_eq!(s.trail().choices.len(), 2);
    }
}
