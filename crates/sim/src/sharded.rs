//! Sharded federation engine.
//!
//! Partitions one federation into `S` shards — contiguous node slices,
//! each with its own event queue, arrival cursor, market state and
//! flattened exec matrix — and runs the intra-period hot
//! loop of every shard in parallel. Cross-shard coordination happens only
//! at period boundaries, as batched aggregate signals: each shard's broker
//! bids its per-class remaining supply and the log of its geometric-mean
//! price on a parent market ([`BrokerTier`]), whose clearing sets the
//! router weights for the next window's arrivals. This is the WALRAS-style
//! multicommodity decomposition (see `PAPERS.md`): sub-markets iterate
//! locally and exchange only aggregated price/excess-demand signals, never
//! per-query traffic.
//!
//! ## Determinism contract
//!
//! * `S = 1` is byte-identical to the flat [`Federation::run`]: the single
//!   shard is the parent scenario itself (same seed, same market jitter
//!   stream), the window loop replays the flat event order exactly, and
//!   neither the boundary signal reads nor the one-broker parent (a
//!   single home shard has nowhere else to route) perturb the market.
//! * Any `S` is byte-stable across thread budgets: shards share nothing
//!   within a period, the parent clears serially at the boundary, the
//!   router is a pure function of its result, and the merge runs in
//!   shard-index order.
//!
//! ## Thread budget
//!
//! The shard step is the engine's one parallel layer: `S` shards on a
//! `B`-thread budget step on `min(B, S)` workers, and the worker that
//! stepped a shard also writes that shard's boundary report. Inside a
//! shard the period boundary runs inline (see `Federation`).

use crate::broker::BrokerTier;
use crate::config::BrokerConfig;
use crate::federation::{Federation, RunOutcome};
use crate::scenario::Scenario;
use qa_core::MechanismKind;
use qa_simnet::telemetry::Telemetry;
use qa_simnet::{par_for_each_chunk_mut, DetRng, SimTime};
use qa_workload::dataset::{Dataset, Relation};
use qa_workload::ids::RelationId;
use qa_workload::{NodeId, QueryEvent, Trace};

/// One shard: a contiguous node slice `[lo, hi)` of the parent federation
/// re-packaged as a self-contained scenario with local node ids `0..hi-lo`.
pub struct ShardSpec {
    /// First parent node id owned by this shard.
    pub lo: usize,
    /// One past the last parent node id owned by this shard.
    pub hi: usize,
    /// The shard-local world (remapped dataset, hardware, exec matrix,
    /// capability lists).
    pub scenario: Scenario,
}

/// The static partition of one scenario into shards, plus the per-class
/// routing table.
pub struct ShardPlan {
    shards: Vec<ShardSpec>,
    /// `home_shards[k]` — shards holding at least one node capable of
    /// class `k` (possibly empty when the parent itself has none; such
    /// queries route to shard 0 and count as unservable there, exactly
    /// like the flat engine's `Impossible` outcome).
    home_shards: Vec<Vec<usize>>,
    num_classes: usize,
}

/// Per-run knobs of the sharded engine beyond the trace itself. The
/// default — ambient thread budget, the QA-NT parent, no faults,
/// telemetry off — reproduces [`ShardPlan::run`] exactly.
#[derive(Clone)]
pub struct ShardRunOptions {
    /// Worker threads the shard layer may step shards on.
    pub budget: usize,
    /// The parent market a [`BrokerTier`] clears each window on to set the
    /// router weights. `None` reads as [`BrokerConfig::default`], the
    /// QA-NT parent: every sharded run clears a real market. The `Option`
    /// stays only because the repo benchmark (`benchmark/`) writes
    /// `Some(…)`; its next revision (ROADMAP item 1) removes it.
    pub broker: Option<BrokerConfig>,
    /// Node crashes to schedule, in *parent* node ids (remapped onto the
    /// owning shard before the run starts).
    pub kills: Vec<(NodeId, SimTime)>,
    /// Node recoveries to schedule, in parent node ids.
    pub recoveries: Vec<(NodeId, SimTime)>,
    /// Event sink for the broker tier (`broker_bid`, `parent_cleared`,
    /// `demand_escalated`), stamped with sim-time at each boundary. The
    /// shard federations themselves stay silent — boundary-serial
    /// emission is what keeps broker traces byte-deterministic at any
    /// thread budget.
    pub telemetry: Telemetry,
}

impl Default for ShardRunOptions {
    fn default() -> Self {
        ShardRunOptions {
            budget: qa_simnet::thread_budget(),
            broker: None,
            kills: Vec::new(),
            recoveries: Vec::new(),
            telemetry: Telemetry::disabled(),
        }
    }
}

/// Result of a sharded run: the merged measurements plus the
/// decomposition's own diagnostics.
#[derive(Debug)]
pub struct ShardedOutcome {
    /// Merged per-shard measurements (shard-index merge order).
    pub outcome: RunOutcome,
    /// Shard count the run used.
    pub num_shards: usize,
    /// Simulated period boundaries stepped by the window loop.
    pub periods: usize,
    /// Cross-shard coordination messages: one report up and one broadcast
    /// down per shard per boundary. Kept separate from
    /// `outcome.metrics.messages` (the allocation-protocol count), so the
    /// `S = 1` output stays byte-identical to the flat engine.
    pub cross_messages: u64,
    /// Per-period mean |Δ ln p| over classes (price-signal movement);
    /// drives [`ShardedOutcome::convergence_period`].
    pub signal_history: Vec<f64>,
    /// Units of demand the parent market escalated across windows.
    pub escalated_units: u64,
    /// Price-adjustment rounds the parent market spent (internal to the
    /// parent, not cross-tier messages).
    pub parent_rounds: u64,
}

impl ShardedOutcome {
    /// First period whose mean |Δ ln p| fell below `eps`, if any — the
    /// sweep's convergence yardstick.
    pub fn convergence_period(&self, eps: f64) -> Option<usize> {
        self.signal_history.iter().position(|&d| d < eps)
    }
}

impl ShardPlan {
    /// Partitions `parent` into `num_shards` contiguous node slices
    /// (clamped to the node count). Shard `s` owns
    /// `[s·N/S, (s+1)·N/S)`; its sub-scenario keeps the full template
    /// set and relation schema but filters mirrors, hardware, exec times
    /// and capability lists to the slice, remapping node ids to
    /// `0..n_s`. With one shard the parent scenario is used as-is (same
    /// seed), which is what makes `S = 1` byte-identical to the flat run;
    /// with more, each shard derives its own market-jitter seed.
    pub fn build(parent: &Scenario, num_shards: usize) -> ShardPlan {
        assert!(num_shards >= 1, "need at least one shard");
        let n = parent.config.num_nodes;
        let s_count = num_shards.min(n);
        let k = parent.templates.num_classes();
        let mut shards = Vec::with_capacity(s_count);
        if s_count == 1 {
            shards.push(ShardSpec {
                lo: 0,
                hi: n,
                scenario: parent.clone(),
            });
        } else {
            for s in 0..s_count {
                let lo = s * n / s_count;
                let hi = (s + 1) * n / s_count;
                shards.push(ShardSpec {
                    lo,
                    hi,
                    scenario: slice_scenario(parent, s, lo, hi),
                });
            }
        }
        let home_shards: Vec<Vec<usize>> = (0..k)
            .map(|kc| {
                shards
                    .iter()
                    .enumerate()
                    .filter(|(_, sh)| !sh.scenario.capable[kc].is_empty())
                    .map(|(s, _)| s)
                    .collect()
            })
            .collect();
        ShardPlan {
            shards,
            home_shards,
            num_classes: k,
        }
    }

    /// The shards, in node order.
    pub fn shards(&self) -> &[ShardSpec] {
        &self.shards
    }

    /// Shards holding at least one node capable of class `k`.
    pub fn home_shards(&self, k: usize) -> &[usize] {
        &self.home_shards[k]
    }

    /// Runs the trace through the sharded engine on the ambient
    /// [`qa_simnet::thread_budget`].
    pub fn run(&self, trace: &Trace) -> ShardedOutcome {
        self.run_with_options(trace, &ShardRunOptions::default())
    }

    /// [`ShardPlan::run`] with an explicit thread budget. The output is
    /// identical at any budget; the budget only decides how many workers
    /// step the shards.
    pub fn run_with_budget(&self, trace: &Trace, budget: usize) -> ShardedOutcome {
        self.run_with_options(
            trace,
            &ShardRunOptions {
                budget,
                ..ShardRunOptions::default()
            },
        )
    }

    /// Maps a parent node id onto its owning shard and shard-local id.
    ///
    /// # Panics
    /// Panics when the id lies outside the plan's node range.
    fn locate(&self, node: NodeId) -> (usize, NodeId) {
        let idx = node.index();
        let s = self
            .shards
            .iter()
            .position(|sh| idx >= sh.lo && idx < sh.hi)
            .unwrap_or_else(|| panic!("node {idx} outside the shard plan"));
        (s, NodeId((idx - self.shards[s].lo) as u32))
    }

    /// [`ShardPlan::run`] with full per-run options: thread budget, the
    /// two-tier broker market, fault schedules, and broker telemetry.
    pub fn run_with_options(&self, trace: &Trace, options: &ShardRunOptions) -> ShardedOutcome {
        let s_count = self.shards.len();
        let k = self.num_classes;
        let empty = Trace::from_events(Vec::new());
        let mut feds: Vec<Federation> = self
            .shards
            .iter()
            .map(|sh| {
                let mut f = Federation::new(&sh.scenario, MechanismKind::QaNt, &empty);
                f.set_more_arrivals(true);
                f
            })
            .collect();
        // Fault schedules arrive in parent node ids; each lands on its
        // owning shard's federation (before `begin_run` arms the timers).
        for &(node, at) in &options.kills {
            let (s, local) = self.locate(node);
            feds[s].kill_node_at(local, at);
        }
        for &(node, at) in &options.recoveries {
            let (s, local) = self.locate(node);
            feds[s].recover_node_at(local, at);
        }
        for f in &mut feds {
            f.begin_run();
        }

        // Boundary signals: per-shard remaining supply and mean ln price
        // per class, the router's weights/credits over each class's home
        // shards, and the previous boundary's class-mean ln price for the
        // convergence series.
        let mut supply: Vec<Vec<u64>> = vec![vec![0; k]; s_count];
        let mut lnp: Vec<Vec<f64>> = vec![vec![0.0; k]; s_count];
        let mut weights: Vec<Vec<f64>> = (0..k)
            .map(|kc| vec![1.0; self.home_shards[kc].len()])
            .collect();
        let mut credits: Vec<Vec<f64>> = (0..k)
            .map(|kc| vec![0.0; self.home_shards[kc].len()])
            .collect();
        let mut prev_mean_lnp = vec![0.0; k];
        let mut tier = BrokerTier::new(
            k,
            &options.broker.unwrap_or_default(),
            options.telemetry.clone(),
        );
        let mut window_demand = vec![0u64; k];
        for (s, fed) in feds.iter().enumerate() {
            fed.qant_signals_into(&mut supply[s], &mut lnp[s]);
        }
        // Initial refresh: markets opened their first period during
        // construction, so weights and the Δ-baseline come from t = 0.
        class_mean_lnp(&self.home_shards, &lnp, &mut prev_mean_lnp);
        options.telemetry.set_now_us(0);
        tier.clear_window(
            &self.home_shards,
            &supply,
            &lnp,
            &window_demand,
            &mut weights,
        );
        weights.iter_mut().for_each(|w| into_shares(w));

        let events = trace.events();
        let period = self.shards[0].scenario.config.period;
        let mut cursor = 0usize;
        let mut boundary = SimTime::ZERO + period;
        let mut periods = 0usize;
        let mut cross_messages = 0u64;
        let mut signal_history = Vec::new();
        let mut buffers: Vec<Vec<QueryEvent>> = vec![Vec::new(); s_count];
        while cursor < events.len() {
            // The window `(previous boundary, boundary]`: arrivals at
            // exactly the boundary precede the `PeriodStart` there, same
            // as the flat engine's arrival-cursor tie rule.
            let end = cursor + events[cursor..].partition_point(|e| e.at <= boundary);
            for e in &events[cursor..end] {
                let kc = e.class.index();
                window_demand[kc] += 1;
                let homes = &self.home_shards[kc];
                let s = match homes.len() {
                    // Unservable everywhere: park on shard 0, which
                    // reports it `Impossible` exactly like the flat run.
                    0 => 0,
                    1 => homes[0],
                    _ => pick_home(homes, &weights[kc], &mut credits[kc]),
                };
                let sh = &self.shards[s];
                let n_s = sh.hi - sh.lo;
                let o = e.origin.index();
                // Shard-local origin: own clients keep their identity;
                // remote clients fold onto a local stand-in (the link
                // model is distance-free, so only the fairness
                // bookkeeping sees the difference).
                let origin = if o >= sh.lo && o < sh.hi {
                    NodeId((o - sh.lo) as u32)
                } else {
                    NodeId((o % n_s.max(1)) as u32)
                };
                buffers[s].push(QueryEvent { origin, ..*e });
            }
            cursor = end;
            let last_window = cursor == events.len();
            for (s, fed) in feds.iter_mut().enumerate() {
                fed.push_arrivals(&buffers[s]);
                buffers[s].clear();
                if last_window {
                    fed.set_more_arrivals(false);
                }
            }
            // Each worker also writes its shards' boundary reports: the
            // K·N `ln`s stay off the serial path between two windows.
            let mut steps: Vec<_> = feds.iter_mut().zip(&mut supply).zip(&mut lnp).collect();
            par_for_each_chunk_mut(options.budget, &mut steps, |_, chunk| {
                for ((fed, supply), lnp) in chunk {
                    fed.step_through(boundary);
                    fed.qant_signals_into(supply, lnp);
                }
            });
            // The convergence yardstick is the motion of the cross-shard
            // mean ln-price whatever the parent mechanism, so the sweep's
            // rows are directly comparable.
            let mut means = prev_mean_lnp.clone();
            class_mean_lnp(&self.home_shards, &lnp, &mut means);
            signal_history.push(mean_abs_delta_ln(&prev_mean_lnp, &means));
            prev_mean_lnp = means;
            options.telemetry.set_now_us(boundary.as_micros());
            tier.clear_window(
                &self.home_shards,
                &supply,
                &lnp,
                &window_demand,
                &mut weights,
            );
            weights.iter_mut().for_each(|w| into_shares(w));
            window_demand.iter_mut().for_each(|d| *d = 0);
            cross_messages += 2 * s_count as u64;
            periods += 1;
            boundary += period;
        }
        // Epilogue: retries and completions past the last injected
        // window; each shard's own period chain winds down naturally.
        par_for_each_chunk_mut(options.budget, &mut feds, |_, chunk| {
            for fed in chunk {
                fed.drain();
            }
        });

        let mut outcomes = feds.into_iter().map(Federation::finish);
        let mut merged = outcomes.next().expect("at least one shard");
        for o in outcomes {
            merged.metrics.merge_from(&o.metrics);
            merged.total_busy += o.total_busy;
            merged.boundary.merge_from(&o.boundary);
            merged.wait.merge_from(&o.wait);
        }
        ShardedOutcome {
            outcome: merged,
            num_shards: s_count,
            periods,
            cross_messages,
            signal_history,
            escalated_units: tier.total_escalated,
            parent_rounds: tier.total_rounds,
        }
    }
}

/// Builds shard `s`'s sub-scenario: the parent world restricted to nodes
/// `[lo, hi)` with ids remapped to `0..hi-lo`. The relation schema and
/// template set are kept whole (class ids stay globally meaningful);
/// mirrors, hardware, exec rows and capability lists are sliced.
fn slice_scenario(parent: &Scenario, s: usize, lo: usize, hi: usize) -> Scenario {
    let n_s = hi - lo;
    let in_range = |node: NodeId| node.index() >= lo && node.index() < hi;
    let remap = |node: NodeId| NodeId((node.index() - lo) as u32);
    let relations: Vec<Relation> = (0..parent.dataset.num_relations())
        .map(|i| {
            let r = parent.dataset.relation(RelationId(i as u32));
            Relation {
                id: r.id,
                size_bytes: r.size_bytes,
                attributes: r.attributes,
                mirrors: r
                    .mirrors
                    .iter()
                    .copied()
                    .filter(|&m| in_range(m))
                    .map(remap)
                    .collect(),
            }
        })
        .collect();
    let mut config = parent.config.clone();
    config.num_nodes = n_s;
    // Independent market-jitter stream per shard, derived from the parent
    // seed so the whole plan remains a function of one seed.
    let mut seed_rng = DetRng::seed_from_u64(parent.config.seed).derive(&format!("shard-{s}"));
    config.seed = seed_rng.next_u64();
    let capable: Vec<Vec<NodeId>> = parent
        .capable
        .iter()
        .map(|nodes| {
            nodes
                .iter()
                .copied()
                .filter(|&node| in_range(node))
                .map(remap)
                .collect()
        })
        .collect();
    Scenario {
        config,
        templates: parent.templates.clone(),
        dataset: Dataset::from_relations(n_s, relations),
        hardware: parent.hardware[lo..hi].to_vec(),
        exec_times_ms: parent.exec_times_ms[lo..hi].to_vec(),
        capable,
    }
}

/// Turns a class's router weights into the shares of its arrivals each home
/// shard is due until the next clearing: weights only change there, so the
/// per-query pick divides nothing.
fn into_shares(weights: &mut [f64]) {
    let total: f64 = weights.iter().sum();
    if total > 0.0 && total.is_finite() {
        weights.iter_mut().for_each(|w| *w /= total);
    } else {
        // Starvation guard: when every weight is zero (a class the parent
        // awarded no quota this window) the shares would be 0/0 = NaN,
        // and NaN credits never win another argmax — the class would be
        // silently parked on homes[0] forever. Uniform shares instead, so
        // queued arrivals still round-robin across homes.
        weights.fill(1.0 / weights.len() as f64);
    }
}

/// Stride-credit pick over a class's home shards: every shard accrues
/// credit by its share of the weights ([`into_shares`]), the highest-credit
/// shard (lowest index on ties) takes the query and pays one unit.
/// Long-run traffic shares converge to the weight shares without any
/// randomness, so routing is a pure function of the boundary signals.
fn pick_home(homes: &[usize], shares: &[f64], credits: &mut [f64]) -> usize {
    for (c, share) in credits.iter_mut().zip(shares) {
        *c += share;
    }
    let mut best = 0;
    for i in 1..credits.len() {
        if credits[i] > credits[best] {
            best = i;
        }
    }
    credits[best] -= 1.0;
    homes[best]
}

/// Cross-shard mean ln-price per class over the class's home shards,
/// written into `means`; classes with no home shard keep their previous
/// value.
fn class_mean_lnp(home_shards: &[Vec<usize>], lnp: &[Vec<f64>], means: &mut [f64]) {
    for (kc, homes) in home_shards.iter().enumerate() {
        if homes.is_empty() {
            continue;
        }
        let mut mean = 0.0;
        for &s in homes {
            mean += lnp[s][kc];
        }
        means[kc] = mean / homes.len() as f64;
    }
}

/// Mean |Δ ln p| between two per-class price snapshots — the convergence
/// signal (a window counts as converged once this falls below the
/// experiment's ε).
///
/// # Panics
/// Panics when the snapshots differ in length.
fn mean_abs_delta_ln(prev: &[f64], next: &[f64]) -> f64 {
    assert_eq!(prev.len(), next.len(), "class count mismatch");
    if prev.is_empty() {
        return 0.0;
    }
    let sum: f64 = prev.iter().zip(next).map(|(a, b)| (b - a).abs()).sum();
    sum / prev.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::experiments::two_class_trace;
    use crate::scenario::TwoClassParams;

    fn world(nodes: usize, seed: u64) -> Scenario {
        let mut cfg = SimConfig::small_test(seed);
        cfg.num_nodes = nodes;
        Scenario::two_class(cfg, TwoClassParams::default())
    }

    fn trace_for(scenario: &Scenario, seconds: u64) -> Trace {
        two_class_trace(scenario, 0.25, 0.6, seconds)
    }

    #[test]
    fn partitioner_keeps_every_class_reachable() {
        let mut cfg = SimConfig::small_test(3);
        cfg.num_nodes = 30;
        let parent = Scenario::table3(cfg);
        for s_count in [2, 3, 4, 7] {
            let plan = ShardPlan::build(&parent, s_count);
            assert_eq!(plan.shards().len(), s_count);
            // Slices tile [0, N) contiguously.
            assert_eq!(plan.shards()[0].lo, 0);
            assert_eq!(plan.shards().last().unwrap().hi, 30);
            for w in plan.shards().windows(2) {
                assert_eq!(w[0].hi, w[1].lo);
            }
            for k in 0..parent.templates.num_classes() {
                assert!(
                    !plan.home_shards(k).is_empty(),
                    "class {k} lost all capable nodes at S={s_count}"
                );
                // The shard-local capability lists partition the parent's.
                let total: usize = plan
                    .shards()
                    .iter()
                    .map(|sh| sh.scenario.capable[k].len())
                    .sum();
                assert_eq!(total, parent.capable[k].len());
                for sh in plan.shards() {
                    for node in &sh.scenario.capable[k] {
                        assert!(node.index() < sh.hi - sh.lo, "unremapped node id");
                    }
                }
            }
        }
    }

    #[test]
    fn single_shard_matches_flat_engine_exactly() {
        let parent = world(12, 11);
        let trace = trace_for(&parent, 30);
        let flat = Federation::new(&parent, MechanismKind::QaNt, &trace).run(&trace);
        let plan = ShardPlan::build(&parent, 1);
        let sharded = plan.run(&trace);
        assert_eq!(
            format!("{:?}", sharded.outcome),
            format!("{flat:?}"),
            "S=1 must be byte-identical to the flat engine"
        );
        assert_eq!(sharded.num_shards, 1);
        assert!(sharded.periods > 0);
    }

    #[test]
    fn sharded_output_is_stable_across_thread_budgets() {
        let parent = world(16, 23);
        let trace = trace_for(&parent, 30);
        let plan = ShardPlan::build(&parent, 4);
        let base = plan.run_with_budget(&trace, 1);
        for budget in [2, 3, 8] {
            let out = plan.run_with_budget(&trace, budget);
            assert_eq!(
                format!("{:?}", out.outcome),
                format!("{:?}", base.outcome),
                "budget={budget}"
            );
            assert_eq!(out.signal_history, base.signal_history);
            assert_eq!(out.periods, base.periods);
            assert_eq!(out.cross_messages, base.cross_messages);
        }
    }

    #[test]
    fn sharded_run_serves_the_whole_trace() {
        let parent = world(16, 5);
        let trace = trace_for(&parent, 30);
        let plan = ShardPlan::build(&parent, 4);
        let out = plan.run(&trace);
        let m = &out.outcome.metrics;
        assert_eq!(m.completed + m.unserved, trace.len() as u64);
        assert!(m.completed > 0, "nothing completed");
        assert_eq!(out.cross_messages, 2 * 4 * out.periods as u64);
        assert_eq!(out.signal_history.len(), out.periods);
    }

    fn shares_of(weights: &[f64]) -> Vec<f64> {
        let mut shares = weights.to_vec();
        into_shares(&mut shares);
        shares
    }

    #[test]
    fn stride_credit_tracks_weight_shares() {
        let homes = [0usize, 1, 2];
        let weights = shares_of(&[2.0, 1.0, 1.0]);
        let mut credits = vec![0.0; 3];
        let mut counts = [0usize; 3];
        for _ in 0..400 {
            counts[pick_home(&homes, &weights, &mut credits)] += 1;
        }
        assert_eq!(counts, [200, 100, 100]);
    }

    #[test]
    fn zero_weight_window_still_routes_and_recovers() {
        // Starvation regression: a window where every weight is 0 (e.g. a
        // class the parent awarded no quota) must still route — uniformly
        // — and must not NaN-poison the credits for later windows.
        let homes = [0usize, 1];
        let mut credits = vec![0.0; 2];
        let mut counts = [0usize; 2];
        for _ in 0..10 {
            counts[pick_home(&homes, &shares_of(&[0.0, 0.0]), &mut credits)] += 1;
        }
        assert_eq!(counts, [5, 5], "all-zero weights must round-robin");
        assert!(credits.iter().all(|c| c.is_finite()));
        // Weights recover next window: proportional routing resumes.
        let mut counts = [0usize; 2];
        for _ in 0..400 {
            counts[pick_home(&homes, &shares_of(&[3.0, 1.0]), &mut credits)] += 1;
        }
        assert_eq!(counts, [300, 100], "credits must not stay poisoned");
    }

    #[test]
    fn extreme_weight_skew_starves_no_class() {
        // End-to-end starvation check at extreme skew: tiny-but-nonzero
        // weights (the legitimate floor is ~e^-27.6 from the price
        // ceiling) and exact zeros both keep every arrival routed.
        let homes = [0usize, 1, 2];
        let weights = shares_of(&[1e-320, 0.0, 1e308]);
        let mut credits = vec![0.0; 3];
        let mut routed = 0usize;
        for _ in 0..1_000 {
            let s = pick_home(&homes, &weights, &mut credits);
            assert!(s < 3);
            routed += 1;
        }
        assert_eq!(routed, 1_000);
        assert!(credits.iter().all(|c| c.is_finite()));
    }

    #[test]
    fn broker_mode_output_is_stable_across_thread_budgets() {
        let parent = world(16, 23);
        let trace = trace_for(&parent, 30);
        let plan = ShardPlan::build(&parent, 4);
        for cfg in [BrokerConfig::qant(), BrokerConfig::walras()] {
            let opts = |budget: usize| ShardRunOptions {
                budget,
                broker: Some(cfg),
                ..ShardRunOptions::default()
            };
            let base = plan.run_with_options(&trace, &opts(1));
            for budget in [2, 3, 8] {
                let out = plan.run_with_options(&trace, &opts(budget));
                assert_eq!(
                    format!("{:?}", out.outcome),
                    format!("{:?}", base.outcome),
                    "broker {cfg:?} budget={budget}"
                );
                assert_eq!(out.signal_history, base.signal_history);
                assert_eq!(out.escalated_units, base.escalated_units);
                assert_eq!(out.parent_rounds, base.parent_rounds);
            }
        }
    }

    #[test]
    fn broker_mode_serves_the_whole_trace() {
        let parent = world(16, 5);
        let trace = trace_for(&parent, 30);
        let plan = ShardPlan::build(&parent, 4);
        let out = plan.run_with_options(
            &trace,
            &ShardRunOptions {
                broker: Some(BrokerConfig::qant()),
                ..ShardRunOptions::default()
            },
        );
        let m = &out.outcome.metrics;
        assert_eq!(m.completed + m.unserved, trace.len() as u64);
        assert!(m.completed > 0, "nothing completed under the broker");
        // Cross-tier traffic stays O(S): bids up, quotas/prices down.
        assert_eq!(out.cross_messages, 2 * 4 * out.periods as u64);
    }

    #[test]
    fn fault_schedules_land_on_the_owning_shard() {
        let parent = world(16, 13);
        let trace = trace_for(&parent, 30);
        let plan = ShardPlan::build(&parent, 4);
        // Kill one node in shard 2's range [8, 12) mid-run, recover later.
        let out = plan.run_with_options(
            &trace,
            &ShardRunOptions {
                kills: vec![(NodeId(9), SimTime::from_secs(5))],
                recoveries: vec![(NodeId(9), SimTime::from_secs(15))],
                ..ShardRunOptions::default()
            },
        );
        let m = &out.outcome.metrics;
        assert_eq!(
            m.completed + m.unserved,
            trace.len() as u64,
            "crash re-entry must conserve queries"
        );
        assert!(m.completed > 0);
    }

    #[test]
    fn mean_abs_delta_ln_averages_per_class_motion() {
        let d = mean_abs_delta_ln(&[0.0, 1.0], &[0.5, 0.0]);
        assert!((d - 0.75).abs() < 1e-12);
        assert_eq!(mean_abs_delta_ln(&[], &[]), 0.0);
    }

    #[test]
    fn convergence_period_reads_the_signal_history() {
        let parent = world(12, 9);
        let trace = trace_for(&parent, 60);
        let out = ShardPlan::build(&parent, 2).run(&trace);
        if let Some(p) = out.convergence_period(1e-2) {
            assert!(out.signal_history[p] < 1e-2);
            assert!(out.signal_history[..p].iter().all(|&d| d >= 1e-2));
        }
    }
}
