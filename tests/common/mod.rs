//! Shared test utilities: the in-repo property harness ([`prop`]) and
//! [`Fuzzed`], the random-program input every property draws from.

// Each integration test file compiles this module into its own crate
// and uses a different subset of it.
#![allow(dead_code)]

pub mod prop;

use encore::workloads::fuzz::{self, FuzzProgram};
use prop::{Arbitrary, Gen};

/// A verified, terminating, trap-free program from the workload
/// fuzzer's grammar (`encore::workloads::fuzz`), shrinking structurally;
/// materialize it with `fuzz::build(&prog.0)`. The differential suites
/// run it at its own `arg`; the random-program properties pass fixed
/// arguments and ignore `arg`, so for them its arg-halving shrink
/// candidates re-run the same inputs and a failure report's `arg` is
/// not the one the failing run used.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Fuzzed(pub FuzzProgram);

impl Arbitrary for Fuzzed {
    fn arbitrary(g: &mut Gen) -> Self {
        Fuzzed(fuzz::gen_program(g.rng()))
    }

    fn shrink(&self) -> Vec<Self> {
        fuzz::shrink_program(&self.0).into_iter().map(Fuzzed).collect()
    }
}
