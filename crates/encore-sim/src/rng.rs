//! In-repo deterministic pseudo-random number generation.
//!
//! The fault-injection campaign (and every other stochastic corner of
//! the workspace) used to pull in the `rand` crate; that made offline
//! builds impossible and tied campaign reproducibility to an external
//! crate's stream stability. This module replaces it with SplitMix64
//! (Steele, Lea & Flood, OOPSLA 2014) — 64 bits of state, full period,
//! passes BigCrush when used as here — plus a tiny [`Rng`] trait so call
//! sites stay generic over the generator.
//!
//! Two properties matter for the SFI engine:
//!
//! 1. **Stream stability.** The sequence for a given seed is defined by
//!    this file alone and will never change under a dependency upgrade.
//! 2. **Index addressability.** [`SplitMix64::for_index`] derives an
//!    independent stream from a `(seed, index)` pair, so the plan of
//!    injection `i` of a campaign is a pure function of the campaign
//!    seed and `i` — identical regardless of which worker thread, in
//!    which order, executes it.

/// The odd constant γ of SplitMix64 (2⁶⁴/φ, forced odd).
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Finalization mix of SplitMix64 (also the `mix64` of MurmurHash3's
/// avalanche stage with David Stafford's "Mix13" constants).
///
/// Bijective on `u64`; every input bit affects every output bit.
#[inline]
#[must_use]
pub fn mix64(mut z: u64) -> u64 {
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Minimal random-source trait: everything is derived from
/// [`Rng::next_u64`], so implementors only supply the raw stream.
pub trait Rng {
    /// The next 64 raw bits of the stream.
    fn next_u64(&mut self) -> u64;

    /// Uniform `u64` in `[0, bound)` by modulo reduction.
    ///
    /// The modulo bias is at most `bound / 2⁶⁴` — immaterial for the
    /// campaign-sized bounds used here — and in exchange the mapping is
    /// trivially stable, which is what reproducibility depends on.
    ///
    /// # Panics
    ///
    /// Panics when `bound == 0`.
    fn gen_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_below(0) is an empty range");
        self.next_u64() % bound
    }

    /// Uniform `u64` in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics when `lo > hi`.
    fn gen_range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range [{lo}, {hi}]");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.gen_below(span + 1)
    }

    /// Uniform `i64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics when `lo >= hi`.
    fn gen_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let span = (hi as i128 - lo as i128) as u64;
        lo.wrapping_add(self.gen_below(span) as i64)
    }

    /// Uniform `usize` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics when `bound == 0`.
    fn gen_usize(&mut self, bound: usize) -> usize {
        self.gen_below(bound as u64) as usize
    }

    /// A fair coin.
    fn gen_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// SplitMix64: `state += γ; output = mix64(state)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded directly with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The stream for element `index` of the family keyed by `seed`.
    ///
    /// The state is `mix64(seed ⊕ mix64(index·γ + γ))`: the inner mix
    /// decorrelates consecutive indices, the outer mix decorrelates
    /// nearby seeds, and the whole derivation is order-free — injection
    /// `i` draws the same plan whether it runs first on one thread or
    /// last on sixteen.
    #[must_use]
    pub fn for_index(seed: u64, index: u64) -> Self {
        let salted = mix64(index.wrapping_mul(GOLDEN_GAMMA).wrapping_add(GOLDEN_GAMMA));
        Self { state: mix64(seed ^ salted) }
    }
}

impl Rng for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        mix64(self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vector() {
        // SplitMix64 reference output for seed 1234567 (from the
        // canonical C implementation by Sebastiano Vigna).
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
        assert_eq!(rng.next_u64(), 9817491932198370423);
    }

    #[test]
    fn streams_are_deterministic() {
        let a: Vec<u64> = (0..64).map({
            let mut r = SplitMix64::new(42);
            move |_| r.next_u64()
        }).collect();
        let b: Vec<u64> = (0..64).map({
            let mut r = SplitMix64::new(42);
            move |_| r.next_u64()
        }).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn index_streams_are_order_free_and_distinct() {
        let direct: Vec<u64> = (0..16)
            .map(|i| SplitMix64::for_index(7, i).next_u64())
            .collect();
        let reversed: Vec<u64> = (0..16)
            .rev()
            .map(|i| SplitMix64::for_index(7, i).next_u64())
            .collect();
        let mut expected = direct.clone();
        expected.reverse();
        assert_eq!(reversed, expected);
        let mut uniq = direct.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), direct.len(), "index streams collided");
    }

    #[test]
    fn bounds_are_respected() {
        let mut rng = SplitMix64::new(99);
        for _ in 0..1000 {
            assert!(rng.gen_below(10) < 10);
            let v = rng.gen_range_inclusive(5, 9);
            assert!((5..=9).contains(&v));
            let s = rng.gen_i64(-4, 16);
            assert!((-4..16).contains(&s));
        }
        assert_eq!(rng.gen_range_inclusive(3, 3), 3);
    }

    #[test]
    fn rough_uniformity() {
        let mut rng = SplitMix64::new(0xFEED);
        let mut buckets = [0u32; 8];
        for _ in 0..8000 {
            buckets[rng.gen_usize(8)] += 1;
        }
        for b in buckets {
            assert!((800..1200).contains(&b), "bucket count {b} far from 1000");
        }
    }
}
