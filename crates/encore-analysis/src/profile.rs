//! Execution profiles.
//!
//! Encore is profile-guided: basic blocks whose execution probability
//! falls at or below `Pmin` are pruned from the idempotence analysis
//! (§3.4.1), and hot-path lengths drive the coverage/cost heuristics
//! (§3.4.2). The simulator fills a [`Profile`] during a training run; the
//! analyses consume it read-only.

use encore_ir::{BlockId, FuncId, Module};
use std::collections::BTreeMap;

/// Per-function block and edge counts.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FuncProfile {
    /// Number of times each block executed.
    pub block_counts: BTreeMap<BlockId, u64>,
    /// Number of times each CFG edge was taken.
    pub edge_counts: BTreeMap<(BlockId, BlockId), u64>,
}

impl FuncProfile {
    /// Execution count of `b`.
    pub fn count(&self, b: BlockId) -> u64 {
        self.block_counts.get(&b).copied().unwrap_or(0)
    }

    /// Count of edge `from → to`.
    pub fn edge(&self, from: BlockId, to: BlockId) -> u64 {
        self.edge_counts.get(&(from, to)).copied().unwrap_or(0)
    }

    /// Execution probability of `b` relative to `base` (typically a region
    /// header): `count(b) / count(base)`, clamped to `[0, 1]`; `0.0` when
    /// the base never ran.
    pub fn prob_relative(&self, b: BlockId, base: BlockId) -> f64 {
        let denom = self.count(base);
        if denom == 0 {
            return 0.0;
        }
        (self.count(b) as f64 / denom as f64).min(1.0)
    }
}

/// A whole-module profile.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Profile {
    /// One entry per function, indexed by [`FuncId`].
    pub funcs: Vec<FuncProfile>,
    /// Total dynamic instructions retired by the profiled run.
    pub total_dyn_insts: u64,
    /// Per-site memory footprints (for [`crate::ProfiledAlias`]).
    pub mem: crate::MemProfile,
}

impl Profile {
    /// Creates an all-zero profile shaped for `module`.
    pub fn empty_for(module: &Module) -> Self {
        Self {
            funcs: vec![FuncProfile::default(); module.funcs.len()],
            total_dyn_insts: 0,
            mem: crate::MemProfile::new(),
        }
    }

    /// Profile of function `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range for the profiled module.
    pub fn func(&self, f: FuncId) -> &FuncProfile {
        &self.funcs[f.index()]
    }

    /// Mutable profile of function `f` (used by the simulator).
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range for the profiled module.
    pub fn func_mut(&mut self, f: FuncId) -> &mut FuncProfile {
        &mut self.funcs[f.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FuncProfile {
        let mut p = FuncProfile::default();
        p.block_counts.insert(BlockId::new(0), 100);
        p.block_counts.insert(BlockId::new(1), 10);
        p.edge_counts.insert((BlockId::new(0), BlockId::new(1)), 10);
        p
    }

    #[test]
    fn relative_probability() {
        let p = sample();
        assert!((p.prob_relative(BlockId::new(1), BlockId::new(0)) - 0.1).abs() < 1e-12);
        assert_eq!(p.prob_relative(BlockId::new(2), BlockId::new(0)), 0.0);
        // Never-executed base yields probability 0.
        assert_eq!(p.prob_relative(BlockId::new(0), BlockId::new(5)), 0.0);
    }

    #[test]
    fn probability_clamped_to_one() {
        let mut p = sample();
        p.block_counts.insert(BlockId::new(2), 500); // inner loop body
        assert_eq!(p.prob_relative(BlockId::new(2), BlockId::new(0)), 1.0);
    }
}
