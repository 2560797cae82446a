//! Indexed tournament (winner) tree.
//!
//! A fixed set of leaves `0..n`, each either absent or holding a `u64`
//! key; [`MinTree::min`] names the present leaf with the smallest
//! `(key, leaf)` in `O(1)`, and changing one leaf
//! ([`MinTree::update`] / [`MinTree::remove`]) replays only that leaf's
//! `log₂ n` matches on the way to the root. Equal keys resolve to the
//! lowest leaf index, so a caller whose leaves are in id order gets the
//! "first minimum" a left-to-right linear scan would find.
//!
//! Each slot is one `u64`, `key << bits | leaf`, where `bits` is `log₂`
//! of the leaf capacity (at least 1), so a match is one integer `min` and
//! `(key, leaf)` order is the order of the packed words. An absent slot is
//! `u64::MAX`. The price is the key domain: a key must be below
//! `2^(64 − bits) − 1`, which the engine's keys — microsecond times and
//! sequence numbers — are far inside (2^50 µs is 35 years at 10 000
//! leaves).
//!
//! Unlike [`EventQueue`](crate::EventQueue) the population is addressed by
//! position, not popped: the structure suits a standing set of bidders
//! whose bids move one at a time (the federation's per-class offer index).

/// Slot of an absent leaf: loses every match against a present one.
const ABSENT: u64 = u64::MAX;

/// See the `mintree` module docs.
#[derive(Debug, Clone)]
pub struct MinTree {
    /// Implicit binary tree, root at 1; leaf `i` sits at `cap + i` and
    /// every inner slot holds the smaller packed `(key, leaf)` of its
    /// children.
    slots: Vec<u64>,
    /// Leaf capacity rounded up to a power of two (at least 1).
    cap: usize,
    /// Low bits of a slot that hold its leaf.
    bits: u32,
    leaves: usize,
    present: usize,
}

impl MinTree {
    /// A tree over `leaves` positions, all absent.
    ///
    /// # Panics
    /// Panics unless `leaves < u32::MAX`, so a slot keeps 32 bits of key.
    pub fn new(leaves: usize) -> MinTree {
        assert!(leaves < u32::MAX as usize, "too many leaves");
        let cap = leaves.next_power_of_two().max(1);
        MinTree {
            slots: vec![ABSENT; 2 * cap],
            cap,
            bits: cap.trailing_zeros().max(1),
            leaves,
            present: 0,
        }
    }

    /// The largest key the tree admits: `2^(64 − bits) − 2`.
    fn max_key(&self) -> u64 {
        (u64::MAX >> self.bits) - 1
    }

    /// Number of present leaves.
    pub fn len(&self) -> usize {
        self.present
    }

    /// `true` iff every leaf is absent.
    pub fn is_empty(&self) -> bool {
        self.present == 0
    }

    /// The present leaf with the smallest `(key, leaf)`, as `(leaf, key)`.
    pub fn min(&self) -> Option<(usize, u64)> {
        let slot = self.slots[1];
        let mask = (1u64 << self.bits) - 1;
        (slot != ABSENT).then_some(((slot & mask) as usize, slot >> self.bits))
    }

    /// Makes `leaf` present with `key` (insert or re-key).
    ///
    /// # Panics
    /// Panics when `leaf` is out of range or `key` is not below
    /// `2^(64 − bits) − 1` (module docs).
    pub fn update(&mut self, leaf: usize, key: u64) {
        let slot = self.pack(leaf, key);
        self.set(leaf, slot);
    }

    /// Makes `leaf` absent; a no-op when it already is.
    pub fn remove(&mut self, leaf: usize) {
        self.set(leaf, ABSENT);
    }

    /// Writes `leaf` (`None` = absent) without replaying its matches:
    /// `min` and `len` are stale until [`MinTree::restore`]. For callers
    /// that re-key most leaves at once, in their own order.
    ///
    /// # Panics
    /// Panics when `leaf` is out of range or `key` is not below
    /// `2^(64 − bits) − 1` (module docs).
    #[inline]
    pub fn stage(&mut self, leaf: usize, key: Option<u64>) {
        assert!(leaf < self.leaves, "leaf out of range");
        self.slots[self.cap + leaf] = key.map_or(ABSENT, |key| self.pack(leaf, key));
    }

    /// Replays every match in `O(leaves)`, making staged leaves count.
    pub fn restore(&mut self) {
        let leaves = &self.slots[self.cap..];
        self.present = leaves.iter().filter(|&&s| s != ABSENT).count();
        for p in (1..self.cap).rev() {
            self.slots[p] = self.slots[2 * p].min(self.slots[2 * p + 1]);
        }
    }

    /// The slot of `leaf` present with `key`.
    #[inline]
    fn pack(&self, leaf: usize, key: u64) -> u64 {
        assert!(
            key <= self.max_key(),
            "key {key} above the tree's largest key {}",
            self.max_key()
        );
        key << self.bits | leaf as u64
    }

    fn set(&mut self, leaf: usize, slot: u64) {
        assert!(leaf < self.leaves, "leaf out of range");
        let mut p = self.cap + leaf;
        let was = self.slots[p] != ABSENT;
        let is = slot != ABSENT;
        self.present = self.present + usize::from(is) - usize::from(was);
        self.slots[p] = slot;
        let mut winner = slot;
        while p > 1 {
            winner = winner.min(self.slots[p ^ 1]);
            p /= 2;
            if self.slots[p] == winner {
                // Matches above replay identically from here.
                break;
            }
            self.slots[p] = winner;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_follows_updates_and_removals() {
        let mut t = MinTree::new(5);
        assert_eq!(t.min(), None);
        t.update(3, 40);
        t.update(1, 70);
        assert_eq!(t.min(), Some((3, 40)));
        t.update(1, 10);
        assert_eq!(t.min(), Some((1, 10)));
        t.remove(1);
        assert_eq!(t.min(), Some((3, 40)));
        assert_eq!(t.len(), 1);
        t.remove(3);
        t.remove(3);
        assert!(t.is_empty());
        assert_eq!(t.min(), None);
    }

    #[test]
    fn equal_keys_resolve_to_the_lowest_leaf() {
        let mut t = MinTree::new(6);
        for (leaf, key) in [Some(9), None, Some(5), Some(5), None, Some(5)]
            .into_iter()
            .enumerate()
        {
            t.stage(leaf, key);
        }
        t.restore();
        assert_eq!((t.len(), t.min()), (4, Some((2, 5))));
        t.remove(2);
        assert_eq!(t.min(), Some((3, 5)));
        t.update(0, 5);
        assert_eq!(t.min(), Some((0, 5)));
    }

    #[test]
    fn degenerate_sizes() {
        let mut none = MinTree::new(0);
        none.restore();
        assert_eq!(none.min(), None);
        // One leaf still takes one bit, so its largest key is 2^63 − 2.
        let mut one = MinTree::new(1);
        let top = one.max_key();
        assert_eq!(top, (1 << 63) - 2);
        one.update(0, top);
        assert_eq!((one.len(), one.min()), (1, Some((0, top))));
        one.remove(0);
        assert_eq!(one.min(), None);
    }

    #[test]
    #[should_panic(expected = "above the tree's largest key")]
    fn a_key_above_the_bound_panics_in_update() {
        let mut t = MinTree::new(5);
        let key = t.max_key() + 1;
        t.update(4, key);
    }

    #[test]
    #[should_panic(expected = "above the tree's largest key")]
    fn a_key_above_the_bound_panics_in_stage() {
        let mut t = MinTree::new(5);
        let key = t.max_key() + 1;
        t.stage(0, Some(key));
    }
}
