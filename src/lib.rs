//! # encore
//!
//! A from-scratch reproduction of **"Encore: Low-Cost, Fine-Grained
//! Transient Fault Recovery"** (Feng, Gupta, Ansari, Mahlke, August —
//! MICRO 2011).
//!
//! Encore is a software-only rollback-recovery scheme: a compiler
//! partitions a program into single-entry multiple-exit regions, proves
//! (or profiles-and-gambles) that each region is *idempotent* — safely
//! re-executable — and instruments the few offending stores with
//! lightweight checkpoints. When a transient fault is detected, execution
//! simply rolls back to the current region header.
//!
//! This crate is a facade re-exporting the whole stack:
//!
//! * [`ir`] — the executable compiler IR the passes run on;
//! * [`analysis`] — traversal orders, intervals, liveness, alias
//!   oracles, profiles;
//! * [`core`] — the paper's contribution: idempotence analysis
//!   (Eqs. 1–4), region formation/merging (γ, η, Eq. 5), selective
//!   checkpointing, and the coverage model (α, Eqs. 6–7);
//! * [`sim`] — interpreter with the recovery runtime, profiler, tracer
//!   and Monte-Carlo fault injection;
//! * [`workloads`] — 23 SPEC2000/Mediabench stand-in kernels.
//!
//! # Examples
//!
//! Protect a kernel and watch it survive a fault:
//!
//! ```
//! use encore::core::{Encore, EncoreConfig};
//! use encore::sim::{run_function, FaultPlan, RunConfig, Value};
//!
//! // 1. A workload (any encore::ir module works; here a suite kernel).
//! let w = encore::workloads::by_name("rawcaudio").unwrap();
//!
//! // 2. Profile it on a training input.
//! let train = run_function(
//!     &w.module, None, w.entry, &[Value::Int(w.train_arg)],
//!     &RunConfig { collect_profile: true, ..Default::default() },
//! );
//!
//! // 3. Run the Encore pipeline and get an instrumented module.
//! let outcome = Encore::new(EncoreConfig::default())
//!     .run(&w.module, &train.profile.unwrap());
//!
//! // 4. Execute with a transient fault injected; the recovery runtime
//! //    rolls back to the region header and re-executes.
//! let faulty = run_function(
//!     &outcome.instrumented.module,
//!     Some(&outcome.instrumented.map),
//!     w.entry,
//!     &[Value::Int(w.eval_arg)],
//!     &RunConfig {
//!         fault: Some(FaultPlan::bit_flip(120, 7, 5)),
//!         ..Default::default()
//!     },
//! );
//! assert!(faulty.completed);
//! ```

#![warn(missing_docs)]

pub use encore_analysis as analysis;
pub use encore_core as core;
pub use encore_ir as ir;
pub use encore_sim as sim;
pub use encore_workloads as workloads;
