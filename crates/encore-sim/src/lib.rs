//! # encore-sim
//!
//! The executable substrate of the Encore reproduction (Feng et al.,
//! MICRO 2011): a deterministic interpreter for [`encore_ir`] modules
//! with the Encore rollback-recovery runtime built in, plus the
//! measurement machinery the paper's evaluation needs:
//!
//! * [`run_function`] — execute a module; optional profiling (training
//!   runs for `Pmin`/hot-path heuristics), dynamic memory-event tracing
//!   (Figure 1), per-region accounting (Figure 6) and single-fault
//!   injection;
//! * [`SfiCampaign`] — Monte-Carlo statistical fault injection with
//!   uniform fault sites and uniform detection latency (§4.2.1),
//!   classifying runs against a golden execution under a
//!   [`FaultModelKind`] taxonomy (bit flips, multi-bit bursts, address
//!   corruption, wrong-edge control flow, power failure);
//! * [`MaskingModel`] — the ARM926 hardware-masking rate composition
//!   (Figure 8).
//!
//! # Examples
//!
//! ```
//! use encore_ir::{ModuleBuilder, Operand, BinOp};
//! use encore_sim::{run_function, RunConfig, Value};
//!
//! let mut mb = ModuleBuilder::new("demo");
//! mb.function("double", 1, |f| {
//!     let p = f.param(0);
//!     let r = f.bin(BinOp::Mul, p.into(), Operand::ImmI(2));
//!     f.ret(Some(r.into()));
//! });
//! let m = mb.finish();
//! let entry = m.func_by_name("double").unwrap();
//! let result = run_function(&m, None, entry, &[Value::Int(21)], &RunConfig::default());
//! assert_eq!(result.ret, Some(Value::Int(42)));
//! ```

#![warn(missing_docs)]

mod externs;
mod fault;
mod interp;
mod masking;
mod memory;
mod predecode;
pub mod rng;
mod sfi;
mod snapshot;
mod value;

pub use externs::Externs;
pub use fault::{FaultAction, FaultModelKind, FaultPlan};
pub use interp::{
    run_function, run_function_with_snapshots, FaultTelemetry, RunConfig, RunResult, SpliceRule,
    Trap, TrapKind, DIFF_CAP,
};
pub use masking::{ComposedCoverage, MaskingModel};
pub use memory::{MemError, MemObject, Memory, ProbeCost, PAGE_CELLS};
pub use predecode::DecodedModule;
pub use sfi::{
    CampaignReport, FaultOutcome, GoldenRunError, LatencyHistogram, SfiCampaign, SfiConfig,
    SfiStats, SpliceEngagement, SpliceStats, LATENCY_BINS,
};
pub use snapshot::{Snapshot, SnapshotLog};
pub use value::{eval_bin, eval_un, fold_mask16, EvalError, Value};
