//! A zero-dependency property-test harness.
//!
//! Replaces `proptest` for this workspace's integration tests so the
//! whole test suite builds and runs offline. The design is the familiar
//! generate/check/shrink loop, stripped to what these tests need:
//!
//! * **Fixed-seed case iteration.** Case `i` of property `name` is
//!   generated from `SplitMix64::for_index(fnv1a(name), i)` — runs are
//!   bit-reproducible across machines and thread counts, with no state
//!   files. A failure report names the property and case index, which
//!   is all it takes to regenerate the exact input.
//! * **A generator trait.** [`Arbitrary`] produces values from a
//!   [`Gen`] (the harness's random source) and enumerates structurally
//!   smaller variants via [`Arbitrary::shrink`].
//! * **Greedy shrinking.** On failure the runner repeatedly takes the
//!   first shrink candidate that still fails, until a fixpoint (or a
//!   step cap), then panics with the minimal input's `Debug` form.
//!
//! Known failure cases worth keeping are written back into the suite as
//! explicit `#[test]` regression functions (see the `regression_fuzz_*`
//! tests of `fuzz_differential.rs`), not as opaque seed files.

// Each integration test file compiles this module as part of its own
// crate and uses a different subset of the harness.
#![allow(dead_code, unused_macros, unused_imports)]

use encore::sim::rng::{Rng, SplitMix64};

/// The random source handed to generators.
#[derive(Clone, Debug)]
pub struct Gen {
    rng: SplitMix64,
}

impl Gen {
    /// The generator for case `index` of the property keyed by `seed`.
    pub fn for_case(seed: u64, index: u64) -> Self {
        Self { rng: SplitMix64::for_index(seed, index) }
    }

    /// Direct access to the underlying stream, for generators (like the
    /// workload fuzzer) whose own API is written against [`Rng`].
    pub fn rng(&mut self) -> &mut SplitMix64 {
        &mut self.rng
    }

    /// Uniform `i64` in `[lo, hi)`.
    pub fn i64(&mut self, lo: i64, hi: i64) -> i64 {
        self.rng.gen_i64(lo, hi)
    }
}

/// Values the harness can generate and shrink.
pub trait Arbitrary: Clone + std::fmt::Debug {
    /// Generates one value.
    fn arbitrary(g: &mut Gen) -> Self;

    /// Structurally smaller candidates, most aggressive first. An empty
    /// list ends shrinking.
    fn shrink(&self) -> Vec<Self> {
        Vec::new()
    }
}

/// An `i64` drawn uniformly from `[LO, HI)`, shrinking toward `LO`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Bounded<const LO: i64, const HI: i64>(pub i64);

impl<const LO: i64, const HI: i64> Arbitrary for Bounded<LO, HI> {
    fn arbitrary(g: &mut Gen) -> Self {
        Bounded(g.i64(LO, HI))
    }

    fn shrink(&self) -> Vec<Self> {
        let mut out = Vec::new();
        for cand in [LO, LO + (self.0 - LO) / 2, self.0 - 1] {
            if (LO..self.0).contains(&cand) && !out.iter().any(|b: &Self| b.0 == cand) {
                out.push(Bounded(cand));
            }
        }
        out
    }
}

impl<A: Arbitrary, B: Arbitrary> Arbitrary for (A, B) {
    fn arbitrary(g: &mut Gen) -> Self {
        (A::arbitrary(g), B::arbitrary(g))
    }

    fn shrink(&self) -> Vec<Self> {
        let mut out: Vec<Self> =
            self.0.shrink().into_iter().map(|a| (a, self.1.clone())).collect();
        out.extend(self.1.shrink().into_iter().map(|b| (self.0.clone(), b)));
        out
    }
}

/// Property verdict: `Err` carries the failure message.
pub type PropResult = Result<(), String>;

/// FNV-1a, for deriving a stable per-property seed from its name.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Cap on greedy shrink steps (each step re-runs the property).
const MAX_SHRINK_STEPS: usize = 400;

/// Runs `prop` against `cases` generated inputs; on failure, shrinks
/// greedily and panics with the minimal counterexample.
///
/// # Panics
///
/// Panics (failing the test) on the first input whose shrunk form still
/// violates the property.
pub fn check<T: Arbitrary>(name: &str, cases: u64, prop: impl Fn(&T) -> PropResult) {
    let seed = fnv1a(name);
    for index in 0..cases {
        let mut g = Gen::for_case(seed, index);
        let input = T::arbitrary(&mut g);
        if let Err(first_err) = prop(&input) {
            let (minimal, err, steps) = shrink_failure(input, first_err, &prop);
            panic!(
                "property `{name}` failed at case {index}/{cases} \
                 (seed {seed:#018x}, minimized in {steps} steps)\n\
                 minimal input: {minimal:#?}\n\
                 failure: {err}"
            );
        }
    }
}

fn shrink_failure<T: Arbitrary>(
    input: T,
    err: String,
    prop: &impl Fn(&T) -> PropResult,
) -> (T, String, usize) {
    let mut cur = input;
    let mut cur_err = err;
    let mut steps = 0;
    'outer: while steps < MAX_SHRINK_STEPS {
        for cand in cur.shrink() {
            if let Err(e) = prop(&cand) {
                cur = cand;
                cur_err = e;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    (cur, cur_err, steps)
}

/// Fails the property unless `cond` holds.
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} ({}:{})",
                stringify!($cond),
                file!(),
                line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// Fails the property unless both sides compare equal.
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (left, right) = (&$a, &$b);
        if left != right {
            return Err(format!(
                "assertion failed: `{} == {}` ({}:{})\n  left: {:?}\n right: {:?}",
                stringify!($a),
                stringify!($b),
                file!(),
                line!(),
                left,
                right
            ));
        }
    }};
}

pub(crate) use {prop_assert, prop_assert_eq};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_reproducible() {
        let mut a = Gen::for_case(fnv1a("x"), 3);
        let mut b = Gen::for_case(fnv1a("x"), 3);
        let va: Vec<i64> = (0..8).map(|_| a.i64(-100, 100)).collect();
        let vb: Vec<i64> = (0..8).map(|_| b.i64(-100, 100)).collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn passing_property_runs_all_cases() {
        let mut seen = 0u64;
        let counter = std::cell::Cell::new(0u64);
        check::<Bounded<0, 10>>("always_in_range", 32, |b| {
            counter.set(counter.get() + 1);
            prop_assert!((0..10).contains(&b.0));
            Ok(())
        });
        seen += counter.get();
        assert_eq!(seen, 32);
    }

    #[test]
    #[should_panic(expected = "minimal input")]
    fn failing_property_shrinks_and_panics() {
        check::<Bounded<0, 1000>>("never_above_five", 64, |b| {
            prop_assert!(b.0 <= 5, "{} > 5", b.0);
            Ok(())
        });
    }

    #[test]
    fn shrinking_reaches_the_boundary() {
        // Shrink 900 under "fails when > 5": greedy descent must land
        // exactly on the smallest failing value, 6.
        let (min, _, _) = shrink_failure(Bounded::<0, 1000>(900), "seed".into(), &|b| {
            if b.0 > 5 { Err("too big".into()) } else { Ok(()) }
        });
        assert_eq!(min.0, 6);
    }
}
