//! A zero-dependency property-test harness.
//!
//! Replaces `proptest` for this workspace's integration tests so the
//! whole test suite builds and runs offline. The design is the familiar
//! generate/check/shrink loop, with one shrinker for every input type:
//!
//! * **Fixed-seed case iteration.** Case `i` of property `name` draws
//!   from `SplitMix64::for_index(fnv1a(name), i)` — runs are
//!   bit-reproducible across machines and thread counts, with no state
//!   files.
//! * **Generators are plain functions of a recording source.** [`Gen`]
//!   is an [`Rng`] that keeps every choice it hands out, so a generator
//!   is any `Fn(&mut Gen) -> T` (`fuzz::gen_program` itself) and the
//!   recorded choice vector is the input in another form:
//!   [`Gen::replay`] feeds it back through the same function.
//! * **Shortlex shrinking.** On failure [`minimize`] searches for a
//!   shorter, then lexicographically smaller, choice vector whose replay
//!   still fails, so a generator shrinks with no shrink code of its own.
//!   The report prints the minimal input and its choice vector, from
//!   which `Gen::replay` regenerates it.
//!
//! Known failure cases worth keeping are written back into the suite as
//! explicit `#[test]` regression functions (see the `regression_fuzz_*`
//! tests of `fuzz_differential.rs`), not as opaque seed files.

// Each integration test file compiles this module as part of its own
// crate and uses a different subset of the harness.
#![allow(dead_code, unused_macros, unused_imports)]

use encore::sim::rng::{Rng, SplitMix64};

/// The random source handed to generators: a seeded stream or a choice
/// vector to replay, plus the choices handed out so far.
#[derive(Clone, Debug)]
pub struct Gen {
    /// `None` draws from `rng`; `Some` replays these choices instead.
    replay: Option<Vec<u64>>,
    rng: SplitMix64,
    choices: Vec<u64>,
}

impl Gen {
    /// The generator for case `index` of the property keyed by `seed`.
    pub fn for_case(seed: u64, index: u64) -> Self {
        Self { replay: None, rng: SplitMix64::for_index(seed, index), choices: Vec::new() }
    }

    /// A generator that hands out `choices` in order, each clamped to
    /// its draw's range, then zeros once they run out. Clamping is
    /// monotone, so a smaller choice never replays as a larger value.
    pub fn replay(choices: &[u64]) -> Self {
        Self { replay: Some(choices.to_vec()), rng: SplitMix64::new(0), choices: Vec::new() }
    }

    /// The choices handed out so far: replaying them regenerates the
    /// same values.
    pub fn choices(&self) -> &[u64] {
        &self.choices
    }

    /// Uniform `i64` in `[lo, hi)`.
    pub fn i64(&mut self, lo: i64, hi: i64) -> i64 {
        self.gen_i64(lo, hi)
    }

    /// The next choice, at most `max`, recorded.
    fn choose(&mut self, max: u64) -> u64 {
        let choice = match &self.replay {
            Some(replay) => replay.get(self.choices.len()).map_or(0, |&c| c.min(max)),
            None => match max.checked_add(1) {
                Some(bound) => self.rng.gen_below(bound),
                None => self.rng.next_u64(),
            },
        };
        self.choices.push(choice);
        choice
    }
}

impl Rng for Gen {
    fn next_u64(&mut self) -> u64 {
        self.choose(u64::MAX)
    }

    /// One recorded choice per draw, reduced exactly as
    /// [`SplitMix64`]'s own `gen_below` reduces it.
    fn gen_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_below(0) is an empty range");
        self.choose(bound - 1)
    }
}

/// Property verdict: `Err` carries the failure message.
pub type PropResult = Result<(), String>;

/// FNV-1a, for deriving a stable per-property seed from its name.
pub fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Cap on the property runs one [`minimize`] call spends.
const MAX_SHRINK_RUNS: usize = 1000;

/// The outcome of [`minimize`].
#[derive(Debug)]
pub struct Minimized {
    /// The shortlex-least failing choice vector found.
    pub choices: Vec<u64>,
    /// Property runs spent.
    pub runs: usize,
    /// Whether the search stopped at the run cap before a fixpoint.
    pub capped: bool,
}

/// Shortlex-minimises a failing choice vector. A candidate is kept only
/// if its replay still fails (`still_fails` generates from the `Gen` it
/// is handed and runs the property) and the choices the replay consumed
/// are shortlex-smaller than the best so far. Each pass of
/// [`candidates`] sweeps from the end and stays at a position while its
/// edits there succeed; passes repeat until none succeeds or
/// [`MAX_SHRINK_RUNS`] runs are spent.
pub fn minimize(mut best: Vec<u64>, mut still_fails: impl FnMut(&mut Gen) -> bool) -> Minimized {
    let mut runs = 0;
    loop {
        let mut progress = false;
        for pass in 0..6 {
            let mut i = best.len();
            while i > 0 && runs < MAX_SHRINK_RUNS {
                i = i.min(best.len()) - 1;
                for candidate in candidates(pass, &best, i) {
                    // A prefix of `best` followed only by zeros replays as `best`.
                    let (head, rest) = best.split_at(candidate.len().min(best.len()));
                    if head == candidate && rest.iter().all(|&c| c == 0) {
                        continue;
                    }
                    if runs == MAX_SHRINK_RUNS {
                        break;
                    }
                    runs += 1;
                    let mut g = Gen::replay(&candidate);
                    if still_fails(&mut g) && (g.choices.len(), &g.choices) < (best.len(), &best) {
                        best = g.choices;
                        progress = true;
                        i += 1;
                        break;
                    }
                }
            }
        }
        if !progress || runs == MAX_SHRINK_RUNS {
            return Minimized { choices: best, runs, capped: runs == MAX_SHRINK_RUNS };
        }
    }
}

/// The edits pass `pass` tries at position `i` of `c`, most aggressive
/// first. Lowering comes before the costlier lower-and-drop pass, so
/// that pass sweeps an already shortened vector.
fn candidates(pass: usize, c: &[u64], i: usize) -> Vec<Vec<u64>> {
    let set = |v: u64, rest: usize| [&c[..i], &[v], &c[rest..]].concat();
    match pass {
        // Drop a span of 8, 4, 2 or 1 choices.
        0..=3 => {
            let span = 8 >> pass;
            (i + span <= c.len()).then(|| [&c[..i], &c[i + span..]].concat()).into_iter().collect()
        }
        // Lower a choice to 0, to half, or by one.
        4 => {
            let mut lower = vec![0, c[i] / 2, c[i].saturating_sub(1)];
            lower.dedup();
            lower.into_iter().filter(|&v| v < c[i]).map(|v| set(v, i + 1)).collect()
        }
        // Lower a choice by one and drop 1–16 choices after it: a list
        // length one shorter, without one element's choices.
        5 if c[i] > 0 => {
            (i + 2..=(i + 17).min(c.len())).map(|rest| set(c[i] - 1, rest)).collect()
        }
        _ => Vec::new(),
    }
}

/// Runs `prop` against `cases` inputs drawn by `gen`; on failure,
/// minimises the input's choice vector and panics with the minimal
/// input.
///
/// # Panics
///
/// Panics (failing the test) on the first failing case, reporting its
/// minimal input, that input's choice vector, the property runs the
/// shrinking spent and whether it hit the cap.
pub fn check<T: std::fmt::Debug>(
    name: &str,
    cases: u64,
    gen: impl Fn(&mut Gen) -> T,
    prop: impl Fn(&T) -> PropResult,
) {
    let seed = fnv1a(name);
    for index in 0..cases {
        let mut g = Gen::for_case(seed, index);
        if prop(&gen(&mut g)).is_ok() {
            continue;
        }
        let min = minimize(g.choices, |g| prop(&gen(g)).is_err());
        let minimal = gen(&mut Gen::replay(&min.choices));
        let err = prop(&minimal).err().unwrap_or_else(|| "passes when replayed".into());
        panic!(
            "property `{name}` failed at case {index}/{cases} (seed {seed:#018x})\n\
             minimal input: {minimal:#?}\n\
             choices (Gen::replay): {:?}\n\
             shrinking: {} property runs, cap of {MAX_SHRINK_RUNS} {}\n\
             failure: {err}",
            min.choices,
            min.runs,
            if min.capped { "hit" } else { "not hit" },
        );
    }
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
        let mut replayed = Gen::replay(a.choices());
        assert_eq!((0..8).map(|_| replayed.i64(-100, 100)).collect::<Vec<_>>(), va);
    }

    #[test]
    fn replay_clamps_to_the_range_and_pads_with_zeros() {
        let mut g = Gen::replay(&[7, u64::MAX, 2]);
        assert_eq!([g.gen_below(4), g.gen_below(10), g.next_u64(), g.gen_below(5)], [3, 9, 2, 0]);
        assert_eq!(g.choices(), &[3, 9, 2, 0]);
    }

    #[test]
    fn passing_property_runs_all_cases() {
        let counter = std::cell::Cell::new(0u64);
        check("always_in_range", 32, |g| g.i64(0, 10), |b| {
            counter.set(counter.get() + 1);
            prop_assert!((0..10).contains(b));
            Ok(())
        });
        assert_eq!(counter.get(), 32);
    }

    #[test]
    #[should_panic(expected = "minimal input")]
    fn failing_property_shrinks_and_panics() {
        check("never_above_five", 64, |g| g.i64(0, 1000), |b| {
            prop_assert!(*b <= 5, "{b} > 5");
            Ok(())
        });
    }

    #[test]
    fn shrinking_reaches_the_boundary() {
        // Shrink 900 under "fails when > 5": the search must land
        // exactly on the smallest failing value, 6.
        let min = minimize(vec![900], |g| g.i64(0, 1000) > 5);
        assert_eq!(min.choices, [6]);
        assert!(!min.capped);
    }
}
