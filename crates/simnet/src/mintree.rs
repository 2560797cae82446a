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
//! Unlike [`EventQueue`](crate::EventQueue) the population is addressed by
//! position, not popped: the structure suits a standing set of bidders
//! whose bids move one at a time (the federation's per-class offer index).

/// Slot of an absent leaf: loses every match against a present one.
const ABSENT: (u64, u32) = (u64::MAX, u32::MAX);

/// See the `mintree` module docs.
#[derive(Debug, Clone)]
pub struct MinTree {
    /// Implicit binary tree, root at 1; leaf `i` sits at `cap + i` and
    /// every inner slot holds the smaller `(key, leaf)` of its children.
    slots: Vec<(u64, u32)>,
    /// Leaf capacity rounded up to a power of two (at least 1).
    cap: usize,
    leaves: usize,
    present: usize,
}

impl MinTree {
    /// A tree over `leaves` positions, all absent.
    ///
    /// # Panics
    /// Panics when `leaves` does not fit the `u32` leaf index.
    pub fn new(leaves: usize) -> MinTree {
        assert!(leaves < u32::MAX as usize, "too many leaves");
        let cap = leaves.next_power_of_two().max(1);
        MinTree {
            slots: vec![ABSENT; 2 * cap],
            cap,
            leaves,
            present: 0,
        }
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
        let (key, leaf) = self.slots[1];
        (leaf != ABSENT.1).then_some((leaf as usize, key))
    }

    /// Makes `leaf` present with `key` (insert or re-key).
    pub fn update(&mut self, leaf: usize, key: u64) {
        self.set(leaf, (key, leaf as u32));
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
    /// Panics when `leaf` is out of range.
    #[inline]
    pub fn stage(&mut self, leaf: usize, key: Option<u64>) {
        assert!(leaf < self.leaves, "leaf out of range");
        self.slots[self.cap + leaf] = key.map_or(ABSENT, |key| (key, leaf as u32));
    }

    /// Replays every match in `O(leaves)`, making staged leaves count.
    pub fn restore(&mut self) {
        let leaves = &self.slots[self.cap..];
        self.present = leaves.iter().filter(|s| s.1 != ABSENT.1).count();
        for p in (1..self.cap).rev() {
            self.slots[p] = self.slots[2 * p].min(self.slots[2 * p + 1]);
        }
    }

    fn set(&mut self, leaf: usize, slot: (u64, u32)) {
        assert!(leaf < self.leaves, "leaf out of range");
        let mut p = self.cap + leaf;
        let was = self.slots[p].1 != ABSENT.1;
        let is = slot.1 != ABSENT.1;
        self.present = self.present + usize::from(is) - usize::from(was);
        self.slots[p] = slot;
        while p > 1 {
            p /= 2;
            let winner = self.slots[2 * p].min(self.slots[2 * p + 1]);
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
        let mut one = MinTree::new(1);
        one.update(0, u64::MAX);
        assert_eq!(one.min(), Some((0, u64::MAX)));
        one.remove(0);
        assert_eq!(one.min(), None);
    }
}
