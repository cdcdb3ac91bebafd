//! Dynamic memory-access profiles for alias disambiguation.
//!
//! The paper's conservative static alias analysis forces checkpoints on
//! accesses that only *may* alias, and names "more aggressive dynamic
//! memory profiling" as the fix (footnote 2, §5.3's Optimistic bound).
//! A [`MemProfile`] records, per static load/store site, the set of
//! concrete cells the site touched during a training run; the
//! [`ProfiledAlias`](crate::ProfiledAlias) oracle then declares two sites
//! non-aliasing when their observed footprints are disjoint — a
//! *statistical* judgment in the same spirit as `Pmin` pruning.

use encore_ir::{Cell, FuncId, InstRef};
use std::collections::{BTreeMap, BTreeSet};

/// Identity of a static memory-access site.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SiteRef {
    /// Function containing the instruction.
    pub func: FuncId,
    /// Instruction position.
    pub at: InstRef,
}

/// Observed footprints of memory-access sites.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct MemProfile {
    touched: BTreeMap<SiteRef, BTreeSet<Cell>>,
}

impl MemProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `site` accessed `cell`.
    pub fn record(&mut self, site: SiteRef, cell: Cell) {
        self.touched.entry(site).or_default().insert(cell);
    }

    /// The cells `site` was observed touching, if it executed at all.
    pub fn footprint(&self, site: SiteRef) -> Option<&BTreeSet<Cell>> {
        self.touched.get(&site)
    }

    /// Were both sites observed, with provably disjoint footprints?
    pub fn observed_disjoint(&self, a: SiteRef, b: SiteRef) -> bool {
        match (self.footprint(a), self.footprint(b)) {
            (Some(fa), Some(fb)) => fa.intersection(fb).next().is_none(),
            _ => false,
        }
    }

    /// Number of profiled sites.
    pub fn site_count(&self) -> usize {
        self.touched.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use encore_ir::{BlockId, ObjKind};

    fn site(f: u32, b: u32, i: usize) -> SiteRef {
        SiteRef { func: FuncId::new(f), at: InstRef::new(BlockId::new(b), i) }
    }

    fn cell(obj: u32, idx: u64) -> Cell {
        Cell { obj: ObjKind::Global(obj), index: idx }
    }

    #[test]
    fn disjoint_footprints_detected() {
        let mut p = MemProfile::new();
        p.record(site(0, 1, 0), cell(0, 0));
        p.record(site(0, 1, 0), cell(0, 1));
        p.record(site(0, 2, 3), cell(0, 5));
        assert!(p.observed_disjoint(site(0, 1, 0), site(0, 2, 3)));
        p.record(site(0, 2, 3), cell(0, 1)); // now they overlap
        assert!(!p.observed_disjoint(site(0, 1, 0), site(0, 2, 3)));
    }

    #[test]
    fn unobserved_sites_are_not_disjoint() {
        let mut p = MemProfile::new();
        p.record(site(0, 1, 0), cell(0, 0));
        // The other site never executed: no statistical evidence.
        assert!(!p.observed_disjoint(site(0, 1, 0), site(0, 9, 9)));
    }
}
