//! Set elements for the RS/GA/EA dataflow.
//!
//! * **Reachable stores** and **exposed loads** are keyed by their
//!   [`InstRef`] (every static instruction is a unique site) with the
//!   symbolic address carried alongside; set membership therefore never
//!   needs alias queries, only the final `EA ∩ RS` emptiness check does.
//! * **Guarded addresses** are canonical *static* cells ([`GuardAddr`]):
//!   only a store whose target is a statically known object + constant
//!   offset can *guarantee* an overwrite, so only those participate in the
//!   must-intersection of Eq. 2.

use encore_analysis::SummaryAddr;
use encore_ir::{AddrExpr, InstRef, MemBase, Offset, Reg};
use std::collections::BTreeSet;

/// Sentinel index register used in *synthesized* address expressions for
/// callee memory summaries with dynamic offsets ("some cell of global
/// g"). Such expressions exist only inside analysis sets — they are never
/// materialized into instructions — and the sentinel guarantees only
/// `May` alias answers against real addresses of the same object.
pub const SUMMARY_INDEX_REG: Reg = Reg::new(u32::MAX);

/// Builds the symbolic address representing a callee-summary entry.
pub fn summary_addr_expr(a: &SummaryAddr) -> AddrExpr {
    let (base, off) = a.parts();
    match off {
        Some(c) => AddrExpr::new(base, Offset::Const(c)),
        None => AddrExpr::indexed(base, SUMMARY_INDEX_REG, 1, 0),
    }
}

/// `true` when `addr` is a synthesized "some cell" summary address that
/// cannot be checkpointed precisely.
pub fn is_imprecise_summary(addr: &AddrExpr) -> bool {
    addr.offset.index_reg() == Some(SUMMARY_INDEX_REG)
}

/// A statically-named memory cell that a store is guaranteed to overwrite.
///
/// Heap cells never appear here: the allocation-site abstraction cannot
/// prove two heap references coincide, so heap stores guard nothing.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum GuardAddr {
    /// Cell `offset` of global `id`.
    Global {
        /// Raw global id.
        id: u32,
        /// Constant cell offset.
        offset: i64,
    },
    /// Cell `offset` of stack slot `id`.
    Slot {
        /// Raw slot id.
        id: u32,
        /// Constant cell offset.
        offset: i64,
    },
}

impl GuardAddr {
    /// The canonical guard cell denoted by `addr`, if it is a static
    /// global/slot cell.
    pub fn of(addr: &AddrExpr) -> Option<GuardAddr> {
        let offset = addr.offset.as_const()?;
        match addr.base {
            MemBase::Global(g) => Some(GuardAddr::Global { id: g.raw(), offset }),
            MemBase::Slot(s) => Some(GuardAddr::Slot { id: s.raw(), offset }),
            MemBase::Heap(_) | MemBase::Reg(_) => None,
        }
    }
}

/// The address of an exposed load: either a symbolic expression or the
/// unanalyzable top element (a read-only call that may reference any
/// memory).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum AbsAddr {
    /// A concrete symbolic address.
    Expr(AddrExpr),
    /// May reference anything.
    Top,
}

/// A store site inside the analyzed function.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct StoreSite {
    /// Location of the store instruction.
    pub at: InstRef,
    /// Symbolic target address.
    pub addr: AddrExpr,
}

/// An exposed-load site inside the analyzed function.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct LoadSite {
    /// Location of the load (or read-only call) instruction.
    pub at: InstRef,
    /// Symbolic source address, or `Top` for read-only calls.
    pub addr: AbsAddr,
}

/// An ordered set of guaranteed-overwritten cells (the GA sets of Eq. 2).
pub type GuardSet = BTreeSet<GuardAddr>;

#[cfg(test)]
mod tests {
    use super::*;
    use encore_ir::{GlobalId, HeapId, Reg, SlotId};

    #[test]
    fn guard_addr_of_static_cells() {
        let g = AddrExpr::global(GlobalId::new(2), 5);
        assert_eq!(GuardAddr::of(&g), Some(GuardAddr::Global { id: 2, offset: 5 }));
        let s = AddrExpr::slot(SlotId::new(1), 0);
        assert_eq!(GuardAddr::of(&s), Some(GuardAddr::Slot { id: 1, offset: 0 }));
    }

    #[test]
    fn guard_addr_rejects_dynamic_and_heap() {
        let h = AddrExpr::heap(HeapId::new(0), 3);
        assert_eq!(GuardAddr::of(&h), None);
        let p = AddrExpr::reg(Reg::new(0), 0);
        assert_eq!(GuardAddr::of(&p), None);
        let idx = AddrExpr::indexed(MemBase::Global(GlobalId::new(0)), Reg::new(1), 1, 0);
        assert_eq!(GuardAddr::of(&idx), None);
    }

    #[test]
    fn guard_addr_distinguishes_kinds() {
        let a = GuardAddr::Global { id: 0, offset: 0 };
        let b = GuardAddr::Slot { id: 0, offset: 0 };
        assert_ne!(a, b);
        let mut set = GuardSet::new();
        set.insert(a);
        set.insert(b);
        assert_eq!(set.len(), 2);
    }
}
