//! # encore-core
//!
//! The primary contribution of *Encore: Low-Cost, Fine-Grained Transient
//! Fault Recovery* (Feng et al., MICRO 2011), reimplemented over
//! [`encore_ir`] and [`encore_analysis`]:
//!
//! * the [idempotence analysis](idempotence) — reachable-store /
//!   guarded-address / exposed-address dataflow (Eqs. 1–4), run to a
//!   fixpoint around each region's loops, with `Pmin` profile pruning;
//! * [region formation and selection](region) — interval-based SEME
//!   candidate regions, γ cost/coverage filtering and η-controlled
//!   merging (Eq. 5);
//! * the [instrumentation pass](instrument) — selective checkpointing,
//!   live-in register saves, recovery blocks;
//! * the [recoverability coverage model](coverage) — detection-latency
//!   scaling α (Eqs. 6–7) and full-system composition;
//! * [trace idempotence](trace) — the dynamic-window analysis behind
//!   Figure 1;
//! * the [pipeline] — one-call orchestration mirroring the
//!   paper's compile flow (Figure 3).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod coverage;
pub mod idempotence;
pub mod instrument;
pub mod memref;
pub mod pipeline;
pub mod region;
pub mod trace;
pub mod viz;

pub use config::EncoreConfig;
pub use coverage::{
    alpha, alpha_at_latency, CoverageModel, FullSystemCoverage, ARM926_MASKING_RATE,
};
pub use idempotence::{IdempotenceAnalyzer, RegionAnalysis, RegionSpec, Verdict, Violation};
pub use instrument::{
    instrument_module_with, InstrumentedModule, RegionInfo, RegionMap, StorageReport,
};
pub use memref::{AbsAddr, GuardAddr, GuardSet, LoadSite, StoreSite};
pub use pipeline::{Encore, EncoreOutcome, RegionReport};
pub use region::{CandidateRegion, RegionCosting, RegionPartition};
pub use trace::{trace_window_idempotent, window_violation_count, TraceIdempotence};
pub use viz::dot_regions;
