//! Deterministic fault injection for network links.
//!
//! DESIGN §7 promises failure injection — "node crash mid-period, message
//! loss on the slow link" — and the related federated-market literature
//! treats node churn and unreliable links as the *defining* deployment
//! condition for market-based orchestrators. This module provides the
//! link-level half of that story: a [`FaultPlan`] layered on top of
//! [`LinkSpec`](crate::LinkSpec) that describes, per directed link,
//!
//! * a **message-drop probability** (each message independently lost),
//! * **latency jitter** (a uniform extra delay added to every delivery),
//! * **scheduled outage windows** (intervals during which the link
//!   delivers nothing — a crashed switch, or one side of a partition).
//!
//! Node crash/recovery schedules are the *node*-level half and live with
//! the drivers (`qa_sim::Federation`, `qa_cluster::ClusterConfig`), since
//! only they know what dying means for queued work.
//!
//! Every random decision is drawn from a caller-supplied [`DetRng`], so a
//! faulty run is exactly as reproducible as a clean one: same seed + same
//! plan ⇒ the same messages are lost at the same virtual times. The
//! disabled plan ([`FaultPlan::none`]) is a strict zero-cost path — no RNG
//! draw is ever made for a link whose drop probability and jitter are both
//! zero and whose outage list is empty, so runs without faults are
//! bit-identical to runs on a build that predates this module.

use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};

/// A half-open window `[from, until)` of virtual time during which a link
/// delivers nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutageWindow {
    /// First instant of the outage.
    pub(crate) from: SimTime,
    /// First instant *after* the outage.
    pub(crate) until: SimTime,
}

impl OutageWindow {
    /// A window covering `[from, until)`.
    ///
    /// # Panics
    /// Panics if `until <= from` (empty or inverted window).
    pub fn new(from: SimTime, until: SimTime) -> OutageWindow {
        assert!(from < until, "empty outage window [{from}, {until})");
        OutageWindow { from, until }
    }

    /// Whether `at` falls inside the window.
    pub(crate) fn contains(&self, at: SimTime) -> bool {
        self.from <= at && at < self.until
    }
}

/// Fault behaviour of one (directed) link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFaults {
    /// Probability that any one message is silently dropped (`0..=1`).
    pub drop_prob: f64,
    /// Maximum extra delivery latency; each delivered message pays a
    /// uniform draw from `[0, jitter]`. Zero disables the draw entirely.
    pub jitter: SimDuration,
    /// Scheduled outages: messages sent while any window is active are
    /// dropped deterministically (no RNG draw).
    pub outages: Vec<OutageWindow>,
}

impl LinkFaults {
    /// A perfectly healthy link: nothing dropped, no jitter, no outages.
    pub fn none() -> LinkFaults {
        LinkFaults {
            drop_prob: 0.0,
            jitter: SimDuration::ZERO,
            outages: Vec::new(),
        }
    }

    /// A link that loses each message with probability `p` (clamped to
    /// `[0, 1]`), with no jitter or outages.
    pub fn lossy(p: f64) -> LinkFaults {
        LinkFaults {
            drop_prob: p.clamp(0.0, 1.0),
            jitter: SimDuration::ZERO,
            outages: Vec::new(),
        }
    }

    /// `true` iff this link behaves exactly like a fault-free one.
    pub fn is_none(&self) -> bool {
        self.drop_prob <= 0.0 && self.jitter.is_zero() && self.outages.is_empty()
    }

    /// Whether a message sent at `at` over this link is delivered.
    ///
    /// Outage windows are consulted first and are fully deterministic;
    /// only a genuinely positive drop probability costs an RNG draw.
    pub fn delivers(&self, at: SimTime, rng: &mut DetRng) -> bool {
        if self.outages.iter().any(|w| w.contains(at)) {
            return false;
        }
        if self.drop_prob > 0.0 {
            return !rng.chance(self.drop_prob);
        }
        true
    }

    /// The extra latency paid by a message delivered over this link.
    /// Zero-configured jitter returns [`SimDuration::ZERO`] without
    /// touching the RNG.
    pub fn sample_jitter(&self, rng: &mut DetRng) -> SimDuration {
        if self.jitter.is_zero() {
            return SimDuration::ZERO;
        }
        SimDuration::from_micros(rng.int_in(0, self.jitter.as_micros()))
    }
}

/// A full fault schedule for a federation: a default link behaviour plus
/// per-node overrides (the link between the clients and node `i`).
///
/// The simulator's network model is client-centric — every allocation
/// message traverses the link of the *server* it targets — so keying
/// overrides by server node index matches [`LinkSpec`](crate::LinkSpec)'s
/// role in the drivers. `FaultPlan::none()` is the disabled plan and is
/// guaranteed zero-cost (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Behaviour of every link without an override.
    pub(crate) default: LinkFaults,
    /// `(node, faults)` overrides, consulted before `default`.
    pub(crate) overrides: Vec<(usize, LinkFaults)>,
}

impl FaultPlan {
    /// The disabled plan: every link healthy.
    pub fn none() -> FaultPlan {
        FaultPlan {
            default: LinkFaults::none(),
            overrides: Vec::new(),
        }
    }

    /// A plan applying the same faults to every link.
    pub fn uniform(faults: LinkFaults) -> FaultPlan {
        FaultPlan {
            default: faults,
            overrides: Vec::new(),
        }
    }

    /// Adds (or replaces) the override for `node`'s link.
    pub fn with_link(mut self, node: usize, faults: LinkFaults) -> FaultPlan {
        self.overrides.retain(|(n, _)| *n != node);
        self.overrides.push((node, faults));
        self
    }

    /// `true` iff no link in the plan can ever misbehave.
    pub fn is_none(&self) -> bool {
        self.default.is_none() && self.overrides.iter().all(|(_, f)| f.is_none())
    }

    /// The fault behaviour of `node`'s link.
    pub fn link(&self, node: usize) -> &LinkFaults {
        self.overrides
            .iter()
            .find(|(n, _)| *n == node)
            .map(|(_, f)| f)
            .unwrap_or(&self.default)
    }

    /// Whether a message sent to (or from) `node` at `at` is delivered.
    pub fn delivers(&self, node: usize, at: SimTime, rng: &mut DetRng) -> bool {
        self.link(node).delivers(at, rng)
    }

    /// Extra delivery latency on `node`'s link.
    pub fn sample_jitter(&self, node: usize, rng: &mut DetRng) -> SimDuration {
        self.link(node).sample_jitter(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_is_none_and_always_delivers() {
        let plan = FaultPlan::none();
        assert!(plan.is_none());
        let mut rng = DetRng::seed_from_u64(1);
        let mut untouched = rng.clone();
        for t in 0..100 {
            assert!(plan.delivers(t as usize % 7, SimTime::from_millis(t), &mut rng));
            assert_eq!(
                plan.sample_jitter(t as usize % 7, &mut rng),
                SimDuration::ZERO
            );
        }
        // Zero-cost guarantee: the RNG was never advanced.
        assert_eq!(rng.next_u64(), untouched.next_u64());
    }

    #[test]
    fn drop_probability_is_respected_statistically() {
        let plan = FaultPlan::uniform(LinkFaults::lossy(0.3));
        let mut rng = DetRng::seed_from_u64(7);
        let delivered = (0..10_000)
            .filter(|&i| plan.delivers(0, SimTime::from_micros(i), &mut rng))
            .count();
        // E[delivered] = 7000; allow wide tolerance.
        assert!((6_600..=7_400).contains(&delivered), "{delivered}");
    }

    #[test]
    fn same_seed_same_loss_realization() {
        let plan = FaultPlan::uniform(LinkFaults::lossy(0.5));
        let run = |seed| {
            let mut rng = DetRng::seed_from_u64(seed);
            (0..256)
                .map(|i| plan.delivers(0, SimTime::from_micros(i), &mut rng))
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds, different losses");
    }

    #[test]
    fn outage_windows_drop_deterministically() {
        let w = OutageWindow::new(SimTime::from_millis(10), SimTime::from_millis(20));
        let plan = FaultPlan::uniform(LinkFaults {
            drop_prob: 0.0,
            jitter: SimDuration::ZERO,
            outages: vec![w],
        });
        let mut rng = DetRng::seed_from_u64(1);
        assert!(plan.delivers(0, SimTime::from_millis(9), &mut rng));
        assert!(!plan.delivers(0, SimTime::from_millis(10), &mut rng));
        assert!(!plan.delivers(0, SimTime::from_millis(19), &mut rng));
        assert!(
            plan.delivers(0, SimTime::from_millis(20), &mut rng),
            "half-open"
        );
    }

    #[test]
    fn overrides_shadow_default() {
        let plan = FaultPlan::none().with_link(3, LinkFaults::lossy(1.0));
        assert!(!plan.is_none());
        let mut rng = DetRng::seed_from_u64(2);
        assert!(plan.delivers(0, SimTime::ZERO, &mut rng));
        assert!(!plan.delivers(3, SimTime::ZERO, &mut rng));
    }

    #[test]
    fn with_link_replaces_existing_override() {
        let plan = FaultPlan::none()
            .with_link(1, LinkFaults::lossy(1.0))
            .with_link(1, LinkFaults::none());
        assert_eq!(plan.overrides.len(), 1);
        assert!(plan.is_none());
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let faults = LinkFaults {
            drop_prob: 0.0,
            jitter: SimDuration::from_millis(5),
            outages: Vec::new(),
        };
        let mut a = DetRng::seed_from_u64(9);
        let mut b = DetRng::seed_from_u64(9);
        for _ in 0..100 {
            let j = faults.sample_jitter(&mut a);
            assert!(j <= SimDuration::from_millis(5));
            assert_eq!(j, faults.sample_jitter(&mut b));
        }
    }

    #[test]
    #[should_panic(expected = "empty outage window")]
    fn rejects_inverted_window() {
        let _ = OutageWindow::new(SimTime::from_millis(5), SimTime::from_millis(5));
    }
}
