//! # encore-analysis
//!
//! Classic compiler analyses that the Encore reproduction builds on
//! (Feng et al., MICRO 2011). The paper implements its passes inside
//! LLVM; this crate provides the equivalent foundations over
//! [`encore_ir`]:
//!
//! * [CFG traversal orders](order) — post-order and reachability over
//!   whole functions and regions;
//! * [dense bitsets](BitSet) and the [worklist solver](dataflow) — the
//!   engine the RS/GA/EA and liveness fixpoints run on;
//! * [interval partitioning](IntervalHierarchy) — candidate region
//!   formation per §3.3, applied recursively;
//! * [register liveness](Liveness) — live-in checkpointing of §3.2;
//! * [alias oracles](AliasOracle) — the conservative
//!   [`StaticAlias`] and the optimistic Figure 7a bound
//!   [`OptimisticAlias`];
//! * [profiles](Profile) — block/edge counts for `Pmin` pruning and
//!   hot-path heuristics;
//! * [memory-effect summaries](MemSummary) — call-site treatment in
//!   region analysis.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod alias;
mod bitset;
pub mod dataflow;
mod intervals;
mod liveness;
mod memprofile;
mod memsummary;
pub mod order;
mod profile;

pub use alias::{AliasMode, AliasOracle, AliasResult, OptimisticAlias, ProfiledAlias, StaticAlias};
pub use bitset::BitSet;
pub use dataflow::solve_worklist;
pub use memprofile::{MemProfile, SiteRef};
pub use memsummary::{AddrSet, FuncEffects, MemSummary, SummaryAddr};
pub use intervals::{Interval, IntervalHierarchy};
pub use liveness::Liveness;
pub use profile::{FuncProfile, Profile};
