//! Deterministic randomness.
//!
//! Every experiment in the reproduction is seeded: the simulator, the
//! workload generators and the synthetic dataset all draw from [`DetRng`]s
//! derived from a single master seed, so any figure can be regenerated
//! bit-for-bit. [`DetRng`] is a native xoshiro256++ generator (seeded via
//! splitmix64, the reference seeding scheme) with labelled sub-stream
//! derivation on top — each subsystem gets its own stream, so adding draws
//! to one subsystem does not perturb another.
//!
//! The generator is implemented in-tree (no `rand` dependency) so the
//! workspace builds offline with only `std`; see the hermetic-build policy
//! in DESIGN.md. xoshiro256++ is the same small-state family `rand`'s
//! `SmallRng` used on 64-bit targets, but the exact streams differ, so
//! seeded experiment outputs changed once at the switchover.

/// One step of the splitmix64 sequence: advances `state` and returns the
/// next output. Used to expand a 64-bit seed into xoshiro's 256-bit state
/// (the seeding recommended by xoshiro's authors) and in [`DetRng::derive`].
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic, seedable random number generator (xoshiro256++).
#[derive(Debug, Clone)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// A generator seeded with `seed` (state expanded via splitmix64).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        DetRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// The next 64 uniformly random bits (the xoshiro256++ update).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// The next 32 uniformly random bits (upper half of a 64-bit draw —
    /// xoshiro's low bits are its weakest).
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Derives an independent sub-stream for the subsystem named `label`.
    ///
    /// The derivation mixes the label into the parent seed with an FNV-1a
    /// hash, so `derive("workload")` and `derive("dataset")` never collide
    /// and never depend on how many draws the parent has made before the
    /// derivation — only on the parent's own next draw.
    pub fn derive(&mut self, label: &str) -> DetRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        DetRng::seed_from_u64(self.next_u64() ^ h)
    }

    /// A uniform integer in `[lo, hi]` (inclusive). Panics if `lo > hi`.
    ///
    /// Unbiased via Lemire's multiply-shift rejection method.
    pub fn int_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range [{lo}, {hi}]");
        let span = hi.wrapping_sub(lo).wrapping_add(1);
        if span == 0 {
            // Full 64-bit range.
            return self.next_u64();
        }
        let mut m = u128::from(self.next_u64()) * u128::from(span);
        if (m as u64) < span {
            let threshold = span.wrapping_neg() % span;
            while (m as u64) < threshold {
                m = u128::from(self.next_u64()) * u128::from(span);
            }
        }
        lo + (m >> 64) as u64
    }

    /// A uniform float in `[lo, hi)`. Panics if `lo >= hi`.
    pub fn float_in(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        loop {
            let v = lo + self.unit() * (hi - lo);
            // Floating-point rounding can land exactly on `hi` when the
            // span is tiny; redraw to keep the half-open contract.
            if v < hi {
                return v;
            }
        }
    }

    /// A uniform float in `[0, 1)` (53 uniformly random mantissa bits).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// A uniformly chosen index below `n`. Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot pick from empty collection");
        self.int_in(0, n as u64 - 1) as usize
    }

    /// Picks a uniformly random element of `items`. Panics on empty input.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }

    /// Samples `k` distinct indices below `n` (order unspecified but
    /// deterministic). Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} from {n}");
        // Partial Fisher–Yates over an index vector: O(n) to fill it, then
        // k swaps. A two-class world draws once (half its nodes, linear
        // like the rest of its set-up, 10 000 nodes included); a Table-3
        // dataset draws ~5 mirrors per relation and so pays n per relation.
        // The draws fix every world's bits: a cheaper sampler is a new world.
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.index(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // ------------------------------------------------ known-answer tests
    //
    // Reference vectors computed from an independent implementation of the
    // published splitmix64 / xoshiro256++ algorithms (the splitmix64
    // seed-0 head value 0xE220A8397B1DCDAF is the widely published test
    // vector, which anchors the whole chain).

    #[test]
    fn splitmix64_known_answers() {
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut s), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64(&mut s), 0x06C4_5D18_8009_454F);
        assert_eq!(splitmix64(&mut s), 0xF88B_B8A8_724C_81EC);
        let mut s = 42u64;
        assert_eq!(splitmix64(&mut s), 0xBDD7_3226_2FEB_6E95);
        assert_eq!(splitmix64(&mut s), 0x28EF_E333_B266_F103);
    }

    #[test]
    fn xoshiro256pp_known_answers() {
        let mut r = DetRng::seed_from_u64(0);
        assert_eq!(r.next_u64(), 0x5317_5D61_490B_23DF);
        assert_eq!(r.next_u64(), 0x61DA_6F3D_C380_D507);
        assert_eq!(r.next_u64(), 0x5C0F_DF91_EC9A_7BFC);
        assert_eq!(r.next_u64(), 0x02EE_BF8C_3BBE_5E1A);
        assert_eq!(r.next_u64(), 0x7ECA_04EB_AF4A_5EEA);

        let mut r = DetRng::seed_from_u64(42);
        assert_eq!(r.next_u64(), 0xD076_4D4F_4476_689F);
        assert_eq!(r.next_u64(), 0x519E_4174_576F_3791);
        assert_eq!(r.next_u64(), 0xFBE0_7CFB_0C24_ED8C);

        let mut r = DetRng::seed_from_u64(0xDEAD_BEEF);
        assert_eq!(r.next_u64(), 0x0C52_0EB8_FEA9_8EDE);
        assert_eq!(r.next_u64(), 0x2B74_A633_8B80_E0E2);
    }

    /// Pinned bit-for-bit determinism regression for the full `DetRng`
    /// API surface (derivation, ranges, floats). If this test breaks, a
    /// code change silently altered every seeded experiment in the repo.
    ///
    /// NOTE: these values were pinned when `DetRng` switched from `rand`'s
    /// `SmallRng` to the in-tree xoshiro256++ core — seed streams changed
    /// once at that point, by design.
    #[test]
    fn detrng_stream_is_pinned() {
        let mut r = DetRng::seed_from_u64(2007);
        let mut w = r.derive("workload");
        assert_eq!(r.next_u64(), 4_925_085_062_804_326_506);
        assert_eq!(w.int_in(0, 999), 729);
        assert_eq!(w.index(17), 16);
        let u = w.unit();
        assert!((u - 0.616_100_733_687_662_9).abs() < 1e-15, "{u}");
        let f = r.float_in(-2.0, 3.0);
        assert!((f - 0.734_097_594_798_325_5).abs() < 1e-12, "{f}");
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed_from_u64(42);
        let mut b = DetRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::seed_from_u64(1);
        let mut b = DetRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should be effectively independent");
    }

    #[test]
    fn derived_streams_are_label_dependent() {
        let mut parent1 = DetRng::seed_from_u64(7);
        let mut parent2 = DetRng::seed_from_u64(7);
        let mut w = parent1.derive("workload");
        let mut d = parent2.derive("dataset");
        assert_ne!(w.next_u64(), d.next_u64());
    }

    #[test]
    fn derived_streams_are_reproducible() {
        let mut p1 = DetRng::seed_from_u64(7);
        let mut p2 = DetRng::seed_from_u64(7);
        let mut a = p1.derive("x");
        let mut b = p2.derive("x");
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// Sub-stream independence: sibling streams derived under different
    /// labels share no prefix, and draws on one do not perturb the other.
    #[test]
    fn derived_streams_are_independent() {
        let mut p = DetRng::seed_from_u64(99);
        let mut a = p.derive("alpha");
        let mut b = p.derive("beta");
        let head_a: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let head_b: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        let overlap = head_a.iter().filter(|v| head_b.contains(v)).count();
        assert_eq!(overlap, 0, "sibling sub-streams must not overlap");

        // Re-derive with extra interleaved draws on the sibling; "beta"
        // still depends only on the parent's own draw order.
        let mut p1 = DetRng::seed_from_u64(123);
        let mut p2 = DetRng::seed_from_u64(123);
        let mut a1 = p1.derive("a");
        let mut b1 = p1.derive("b");
        let mut a2 = p2.derive("a");
        for _ in 0..1000 {
            a2.next_u64(); // draws on a sibling stream ...
        }
        let mut b2 = p2.derive("b");
        let _ = a1.next_u64();
        for _ in 0..16 {
            assert_eq!(b1.next_u64(), b2.next_u64());
        }
    }

    #[test]
    fn int_in_is_inclusive_and_in_range() {
        let mut r = DetRng::seed_from_u64(3);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..2_000 {
            let v = r.int_in(5, 8);
            assert!((5..=8).contains(&v));
            seen_lo |= v == 5;
            seen_hi |= v == 8;
        }
        assert!(seen_lo && seen_hi);
    }

    #[test]
    fn int_in_handles_extreme_ranges() {
        let mut r = DetRng::seed_from_u64(11);
        assert_eq!(r.int_in(7, 7), 7);
        for _ in 0..64 {
            let _ = r.int_in(0, u64::MAX); // full range must not panic
            let v = r.int_in(u64::MAX - 1, u64::MAX);
            assert!(v >= u64::MAX - 1);
        }
    }

    #[test]
    fn unit_is_in_half_open_range() {
        let mut r = DetRng::seed_from_u64(13);
        for _ in 0..10_000 {
            let v = r.unit();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn float_in_stays_in_range() {
        let mut r = DetRng::seed_from_u64(4);
        for _ in 0..1_000 {
            let v = r.float_in(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&v));
        }
    }

    #[test]
    fn sample_indices_distinct_and_bounded() {
        let mut r = DetRng::seed_from_u64(6);
        let s = r.sample_indices(20, 7);
        assert_eq!(s.len(), 7);
        let mut u = s.clone();
        u.sort_unstable();
        u.dedup();
        assert_eq!(u.len(), 7, "indices must be distinct");
        assert!(s.iter().all(|&i| i < 20));
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::seed_from_u64(8);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }
}
