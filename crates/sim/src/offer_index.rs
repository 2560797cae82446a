//! Per-class best-offer index: QA-NT's "select the best offer" (§2.2) in
//! `O(log N)` instead of a sweep over every capable node.
//!
//! A client ranks offers by `(estimated completion, node)`, where node
//! `n`'s estimate for class `k` at `now` is
//! `max(backlog_until[n], now) − now + exec[k][n]`. That order moves with
//! the clock, but only *between* two regimes, never within one:
//!
//! * **idle** nodes (nothing queued, so `backlog_until[n] ≤ now`) rank by
//!   the static `(exec[k][n], n)`;
//! * **busy** nodes (`backlog_until[n] ≥ now`) rank by
//!   `(backlog_until[n] + exec[k][n], n)` — subtracting the common `now`
//!   keeps the order — and that key changes only when `n` itself accepts.
//!
//! So each class keeps one [`MinTree`] per regime over its capable nodes
//! and the best offer is the better of the two heads. A node turns busy
//! when it accepts and idle again when its last completion fires; that
//! event's time *is* `backlog_until[n]`, where both formulas agree, so an
//! arrival tied with the completion ranks the node the same either side
//! of the move.
//!
//! Membership is "still has supply for the class this period". Within a
//! period supply only falls, at the accept that drains it, so a leaf
//! leaves at most once per period ([`OfferIndex::ran_dry`]) and each
//! node's leaves are re-read from its own supply row at each boundary
//! ([`OfferIndex::reseat`]). For the same reason a dry node's refusals
//! this period are exactly the class requests made since it ran dry: one
//! demand stamp per leaf replaces a per-poll rejection count
//! ([`OfferIndex::rejections_into`]).
//!
//! The index is exact only while the candidate set is the static capable
//! list — no link faults, no dead nodes — which is the federation's
//! rejection-deferral condition; the eager poll loop serves every other
//! run.

use crate::node::NodeSoa;
use qa_simnet::{MinTree, SimDuration, SimTime};
use qa_workload::{ClassId, NodeId};

/// `dry_at` of a leaf that still offers.
const OFFERING: u64 = u64::MAX;

/// One class's offerers. Leaves are the class's capable nodes in
/// ascending id order, so the trees' lowest-leaf tie-break is the
/// client's lowest-node tie-break.
#[derive(Debug)]
struct ClassOffers {
    node: Vec<NodeId>,
    /// Execution time per leaf, µs.
    exec: Vec<u64>,
    /// Offering leaves with nothing queued, keyed by `exec`.
    idle: MinTree,
    /// Offering leaves with work queued, keyed by `backlog_until + exec`.
    busy: MinTree,
    /// The period's class demand when the leaf ran out of supply (0 when
    /// it opened the period dry), or [`OFFERING`].
    dry_at: Vec<u64>,
}

/// See the [module docs](self).
#[derive(Debug)]
pub(crate) struct OfferIndex {
    classes: Vec<ClassOffers>,
    /// Node `n`'s `(class, leaf)` pairs are
    /// `leaves[leaf_start[n]..leaf_start[n + 1]]`: the only trees an event
    /// on `n` can touch.
    leaf_start: Vec<u32>,
    leaves: Vec<(u32, u32)>,
}

impl OfferIndex {
    /// An index over `capable[class]` with every leaf absent;
    /// `exec[class * num_nodes + node]` is the flattened execution-time
    /// matrix. [`OfferIndex::reseat`] every node before the first query.
    pub(crate) fn new(
        capable: &[Vec<NodeId>],
        exec: &[SimDuration],
        num_nodes: usize,
    ) -> OfferIndex {
        let classes: Vec<ClassOffers> = capable
            .iter()
            .enumerate()
            .map(|(k, nodes)| {
                let mut node = nodes.clone();
                node.sort_unstable();
                debug_assert!(node.windows(2).all(|w| w[0] < w[1]));
                ClassOffers {
                    exec: node
                        .iter()
                        .map(|n| exec[k * num_nodes + n.index()].as_micros())
                        .collect(),
                    idle: MinTree::new(node.len()),
                    busy: MinTree::new(node.len()),
                    dry_at: vec![0; node.len()],
                    node,
                }
            })
            .collect();
        let mut leaf_start = vec![0u32; num_nodes + 1];
        for c in &classes {
            for n in &c.node {
                leaf_start[n.index() + 1] += 1;
            }
        }
        for n in 0..num_nodes {
            leaf_start[n + 1] += leaf_start[n];
        }
        let mut cursor = leaf_start.clone();
        let mut leaves = vec![(0u32, 0u32); leaf_start[num_nodes] as usize];
        for (k, c) in classes.iter().enumerate() {
            for (i, n) in c.node.iter().enumerate() {
                let at = &mut cursor[n.index()];
                leaves[*at as usize] = (k as u32, i as u32);
                *at += 1;
            }
        }
        OfferIndex {
            classes,
            leaf_start,
            leaves,
        }
    }

    /// Re-reads `node`'s leaves from its market row's remaining `supply`
    /// and its queue, wherever supply may have risen: a new period, or the
    /// start of the run. A node outside the market (`None`, the §4 partial
    /// deployment) always offers; a market node between periods has an
    /// all-zero row and offers nothing. The trees answer again after
    /// [`OfferIndex::restore`].
    pub(crate) fn reseat(&mut self, node: NodeId, supply: Option<&[u64]>, nodes: &NodeSoa) {
        let n = node.index();
        let queued = nodes.queued(n) > 0;
        let backlog_until = nodes.backlog_until_slice()[n].as_micros();
        for &(k, leaf) in node_leaves(&self.leaf_start, &self.leaves, node) {
            let (c, leaf) = (&mut self.classes[k as usize], leaf as usize);
            let offers = supply.is_none_or(|s| s[k as usize] > 0);
            c.dry_at[leaf] = if offers { OFFERING } else { 0 };
            c.idle
                .stage(leaf, (offers && !queued).then_some(c.exec[leaf]));
            c.busy.stage(
                leaf,
                (offers && queued).then(|| backlog_until + c.exec[leaf]),
            );
        }
    }

    /// Replays the trees once every re-read node is [`OfferIndex::reseat`]ed.
    pub(crate) fn restore(&mut self) {
        for c in &mut self.classes {
            c.idle.restore();
            c.busy.restore();
        }
    }

    /// How many nodes would answer a class request with an offer.
    pub(crate) fn offerers(&self, class: ClassId) -> u64 {
        let c = &self.classes[class.index()];
        (c.idle.len() + c.busy.len()) as u64
    }

    /// The offer a client polling every capable node at `now` would
    /// accept — the first minimum under `(estimated completion, node)` —
    /// as `(node, leaf)`; `None` when every capable node is dry.
    pub(crate) fn best(&self, class: ClassId, now: SimTime) -> Option<(NodeId, usize)> {
        let c = &self.classes[class.index()];
        let idle = c.idle.min().map(|(leaf, exec)| (exec, leaf));
        let busy = c.busy.min().map(|(leaf, done)| {
            debug_assert!(done >= now.as_micros() + c.exec[leaf]);
            (done - now.as_micros(), leaf)
        });
        let (_, leaf) = match (idle, busy) {
            (Some(i), Some(b)) => i.min(b),
            (i, b) => i.or(b)?,
        };
        Some((c.node[leaf], leaf))
    }

    /// The accept just taken drained `leaf`'s supply for `class`; `demand`
    /// is the period's class request count including that accept. The
    /// leaf stops offering until the next [`OfferIndex::reseat`].
    pub(crate) fn ran_dry(&mut self, class: ClassId, leaf: usize, demand: u64) {
        let c = &mut self.classes[class.index()];
        c.idle.remove(leaf);
        c.busy.remove(leaf);
        c.dry_at[leaf] = demand;
    }

    /// `node` accepted a query (of any class) and is now occupied until
    /// `backlog_until`: its offering leaves move to, or re-key in, the
    /// busy regime.
    pub(crate) fn accepted(&mut self, node: NodeId, backlog_until: SimTime) {
        for &(k, leaf) in node_leaves(&self.leaf_start, &self.leaves, node) {
            let (c, leaf) = (&mut self.classes[k as usize], leaf as usize);
            if c.dry_at[leaf] == OFFERING {
                c.idle.remove(leaf);
                c.busy
                    .update(leaf, backlog_until.as_micros() + c.exec[leaf]);
            }
        }
    }

    /// `node`'s last queued query completed: its offering leaves return
    /// to the idle regime.
    pub(crate) fn idled(&mut self, node: NodeId) {
        for &(k, leaf) in node_leaves(&self.leaf_start, &self.leaves, node) {
            let (c, leaf) = (&mut self.classes[k as usize], leaf as usize);
            if c.dry_at[leaf] == OFFERING {
                c.busy.remove(leaf);
                c.idle.update(leaf, c.exec[leaf]);
            }
        }
    }

    /// Writes into `row[node - lo]`, for every dry capable node of `class`
    /// in `lo..lo + row.len()`, the refusals it owes the market this
    /// period: `demand` (the period's class request count so far) minus
    /// the count when it ran dry. Offering nodes' entries are left
    /// untouched.
    pub(crate) fn rejections_into(&self, class: ClassId, demand: u64, lo: usize, row: &mut [u64]) {
        let c = &self.classes[class.index()];
        let first = c.node.partition_point(|n| n.index() < lo);
        for (&dry, n) in c.dry_at[first..].iter().zip(&c.node[first..]) {
            let Some(owed) = row.get_mut(n.index() - lo) else {
                break;
            };
            if dry != OFFERING {
                *owed = demand - dry;
            }
        }
    }
}

fn node_leaves<'a>(leaf_start: &[u32], leaves: &'a [(u32, u32)], node: NodeId) -> &'a [(u32, u32)] {
    &leaves[leaf_start[node.index()] as usize..leaf_start[node.index() + 1] as usize]
}
