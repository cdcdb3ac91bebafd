//! Static memory alias analysis.
//!
//! The paper's set operations over reachable-store / guarded-address /
//! exposed-address sets are "supplied with standard, conservative, static
//! memory alias analysis techniques" (§3.1.1), and Figure 7a contrasts the
//! overhead under that conservative analysis with an *optimistic* bound
//! representing a future dynamic alias framework. Both oracles live here:
//!
//! * [`StaticAlias`] — conservative: distinct named objects never alias;
//!   anything involving an opaque pointer or a dynamic index may alias.
//! * [`OptimisticAlias`] — the Figure 7a lower bound: assumes a perfect
//!   disambiguator for everything except accesses that *provably* must
//!   alias.

use crate::memprofile::{MemProfile, SiteRef};
use encore_ir::{AddrExpr, MemBase};
use std::sync::Arc;

/// Three-valued alias answer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AliasResult {
    /// The two references never overlap.
    No,
    /// The two references may overlap.
    May,
    /// The two references always denote the same cell.
    Must,
}

/// An alias oracle over symbolic addresses.
///
/// Implementations must be *sound for their advertised mode*: `Must` is
/// only returned when the addresses provably coincide; for the
/// conservative oracle, `No` is only returned when they provably differ.
///
/// Oracles are required to be [`Sync`]: the analysis pipeline shards its
/// per-function loop across threads, all of which consult one shared
/// oracle through the same [`crate::MemSummary`]-backed analyzer.
pub trait AliasOracle: Sync {
    /// Classifies the relationship between two addresses.
    fn alias(&self, a: &AddrExpr, b: &AddrExpr) -> AliasResult;

    /// Site-aware classification: like [`AliasOracle::alias`], but with
    /// the static instruction sites available so profile-guided oracles
    /// can consult observed footprints. The default ignores the sites.
    fn alias_at(
        &self,
        _a_site: Option<SiteRef>,
        a: &AddrExpr,
        _b_site: Option<SiteRef>,
        b: &AddrExpr,
    ) -> AliasResult {
        self.alias(a, b)
    }
}

/// Do the two bases certainly name different objects?
fn distinct_static_bases(a: &MemBase, b: &MemBase) -> bool {
    match (a, b) {
        (MemBase::Global(x), MemBase::Global(y)) => x != y,
        (MemBase::Slot(x), MemBase::Slot(y)) => x != y,
        (MemBase::Heap(_), MemBase::Heap(_)) => false, // same/unknown objects
        (MemBase::Reg(_), _) | (_, MemBase::Reg(_)) => false,
        // Different kinds of static object never overlap.
        _ => true,
    }
}

/// Conservative static alias analysis.
///
/// Rules (in order):
/// * different static objects (global vs global with different ids,
///   global vs slot, ...) — `No`;
/// * opaque pointer bases (`MemBase::Reg`) — `May` against everything
///   (identical syntactic address included: the register may change);
/// * heap sites — `May` (allocation-site abstraction: two objects from
///   the same site are distinct at runtime but indistinguishable
///   statically, so neither `No` nor `Must` is sound);
/// * same static object, both offsets constant — `Must` if equal, else
///   `No`;
/// * same static object, any dynamic offset — `May`.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct StaticAlias;

impl AliasOracle for StaticAlias {
    fn alias(&self, a: &AddrExpr, b: &AddrExpr) -> AliasResult {
        if distinct_static_bases(&a.base, &b.base) {
            return AliasResult::No;
        }
        match (&a.base, &b.base) {
            (MemBase::Reg(_), _) | (_, MemBase::Reg(_)) => AliasResult::May,
            (MemBase::Heap(x), MemBase::Heap(y)) => {
                if x == y {
                    AliasResult::May
                } else {
                    AliasResult::No
                }
            }
            _ => match (a.offset.as_const(), b.offset.as_const()) {
                (Some(x), Some(y)) => {
                    if x == y {
                        AliasResult::Must
                    } else {
                        AliasResult::No
                    }
                }
                _ => AliasResult::May,
            },
        }
    }
}

/// Optimistic alias oracle — the "future dynamic alias analysis" lower
/// bound of Figure 7a.
///
/// Everything the conservative oracle calls `May` becomes `No`, *except*
/// syntactically identical addresses, which stay `May` (same base
/// register / same index expression genuinely can re-reference the same
/// cell). Constant-offset answers are unchanged.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct OptimisticAlias;

impl AliasOracle for OptimisticAlias {
    fn alias(&self, a: &AddrExpr, b: &AddrExpr) -> AliasResult {
        match StaticAlias.alias(a, b) {
            AliasResult::May => {
                if a == b {
                    AliasResult::May
                } else {
                    AliasResult::No
                }
            }
            other => other,
        }
    }
}

/// Profile-guided alias oracle — the paper's "more aggressive dynamic
/// memory profiling" (footnote 2): two access sites whose *observed*
/// footprints are disjoint in the training run are declared
/// non-aliasing. Statistical in the same sense as `Pmin` pruning: an
/// evaluation input exercising an unobserved conflict gambles
/// recoverability, never correctness of fault-free execution.
/// Everything the profile cannot disambiguate falls back to the
/// conservative [`StaticAlias`] answer.
#[derive(Clone, Debug, Default)]
pub struct ProfiledAlias {
    profile: Arc<MemProfile>,
}

impl ProfiledAlias {
    /// Creates the oracle over a training-run memory profile.
    pub fn new(profile: Arc<MemProfile>) -> Self {
        Self { profile }
    }
}

impl AliasOracle for ProfiledAlias {
    fn alias(&self, a: &AddrExpr, b: &AddrExpr) -> AliasResult {
        StaticAlias.alias(a, b)
    }

    fn alias_at(
        &self,
        a_site: Option<SiteRef>,
        a: &AddrExpr,
        b_site: Option<SiteRef>,
        b: &AddrExpr,
    ) -> AliasResult {
        if let (Some(sa), Some(sb)) = (a_site, b_site) {
            if self.profile.observed_disjoint(sa, sb) {
                return AliasResult::No;
            }
        }
        StaticAlias.alias(a, b)
    }
}

/// The alias mode used by an Encore run (selects the oracle).
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub enum AliasMode {
    /// Conservative static analysis (the paper's deployed configuration).
    #[default]
    Static,
    /// Optimistic lower-bound analysis (Figure 7a's second bar).
    Optimistic,
    /// Profile-guided disambiguation (the paper's future-work bound,
    /// realized); requires a [`MemProfile`] from a training run and falls
    /// back to [`AliasMode::Static`] where the profile is silent.
    Profiled,
}

impl AliasMode {
    /// Returns the oracle implementing this mode. For
    /// [`AliasMode::Profiled`], `mem` supplies the training footprints
    /// (an empty profile degrades gracefully to the static oracle).
    pub fn oracle_with(self, mem: Option<Arc<MemProfile>>) -> Box<dyn AliasOracle> {
        match self {
            AliasMode::Static => Box::new(StaticAlias),
            AliasMode::Optimistic => Box::new(OptimisticAlias),
            AliasMode::Profiled => {
                Box::new(ProfiledAlias::new(mem.unwrap_or_default()))
            }
        }
    }

    /// Returns the oracle implementing this mode, with no profile
    /// attached.
    pub fn oracle(self) -> Box<dyn AliasOracle> {
        self.oracle_with(None)
    }
}

impl AliasOracle for Box<dyn AliasOracle> {
    fn alias(&self, a: &AddrExpr, b: &AddrExpr) -> AliasResult {
        self.as_ref().alias(a, b)
    }

    fn alias_at(
        &self,
        a_site: Option<SiteRef>,
        a: &AddrExpr,
        b_site: Option<SiteRef>,
        b: &AddrExpr,
    ) -> AliasResult {
        self.as_ref().alias_at(a_site, a, b_site, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use encore_ir::{GlobalId, HeapId, Reg, SlotId};

    fn g(id: u32, off: i64) -> AddrExpr {
        AddrExpr::global(GlobalId::new(id), off)
    }

    #[test]
    fn distinct_globals_no_alias() {
        assert_eq!(StaticAlias.alias(&g(0, 0), &g(1, 0)), AliasResult::No);
    }

    #[test]
    fn same_global_same_offset_must_alias() {
        assert_eq!(StaticAlias.alias(&g(0, 3), &g(0, 3)), AliasResult::Must);
        assert_eq!(StaticAlias.alias(&g(0, 3), &g(0, 4)), AliasResult::No);
    }

    #[test]
    fn global_vs_slot_no_alias() {
        let s = AddrExpr::slot(SlotId::new(0), 0);
        assert_eq!(StaticAlias.alias(&g(0, 0), &s), AliasResult::No);
    }

    #[test]
    fn dynamic_offset_may_alias() {
        let idx = AddrExpr::indexed(MemBase::Global(GlobalId::new(0)), Reg::new(1), 1, 0);
        assert_eq!(StaticAlias.alias(&g(0, 5), &idx), AliasResult::May);
        assert_eq!(StaticAlias.alias(&idx, &idx), AliasResult::May);
    }

    #[test]
    fn pointer_base_may_alias_everything_static() {
        let p = AddrExpr::reg(Reg::new(2), 0);
        assert_eq!(StaticAlias.alias(&p, &g(0, 0)), AliasResult::May);
        assert_eq!(StaticAlias.alias(&p, &p), AliasResult::May);
    }

    #[test]
    fn heap_sites_never_must_alias() {
        let a = AddrExpr::heap(HeapId::new(0), 0);
        let b = AddrExpr::heap(HeapId::new(0), 0);
        assert_eq!(StaticAlias.alias(&a, &b), AliasResult::May);
        let c = AddrExpr::heap(HeapId::new(1), 0);
        assert_eq!(StaticAlias.alias(&a, &c), AliasResult::No);
    }

    #[test]
    fn optimistic_turns_may_into_no_for_distinct_exprs() {
        let idx1 = AddrExpr::indexed(MemBase::Global(GlobalId::new(0)), Reg::new(1), 1, 0);
        let idx2 = AddrExpr::indexed(MemBase::Global(GlobalId::new(0)), Reg::new(2), 1, 0);
        assert_eq!(OptimisticAlias.alias(&idx1, &idx2), AliasResult::No);
        // Identical expressions stay May.
        assert_eq!(OptimisticAlias.alias(&idx1, &idx1), AliasResult::May);
        // Must answers are preserved.
        assert_eq!(OptimisticAlias.alias(&g(0, 1), &g(0, 1)), AliasResult::Must);
    }

    #[test]
    fn symmetry_of_both_oracles() {
        let addrs = [
            g(0, 0),
            g(0, 1),
            g(1, 0),
            AddrExpr::slot(SlotId::new(0), 0),
            AddrExpr::heap(HeapId::new(0), 2),
            AddrExpr::reg(Reg::new(3), 1),
            AddrExpr::indexed(MemBase::Global(GlobalId::new(0)), Reg::new(1), 2, 0),
        ];
        for a in &addrs {
            for b in &addrs {
                assert_eq!(StaticAlias.alias(a, b), StaticAlias.alias(b, a));
                assert_eq!(OptimisticAlias.alias(a, b), OptimisticAlias.alias(b, a));
            }
        }
    }

    use encore_ir::MemBase;
}
