//! # encore-ir
//!
//! Mid-level compiler IR substrate for the Encore reproduction (Feng et
//! al., *Encore: Low-Cost, Fine-Grained Transient Fault Recovery*,
//! MICRO 2011).
//!
//! The original system was built as LLVM passes; this crate provides the
//! equivalent substrate from scratch: a small, executable, analyzable IR
//! with:
//!
//! * **virtual registers** (mutable, non-SSA — rollback re-execution needs
//!   plain mutable state),
//! * **symbolic memory** ([`AddrExpr`]: global / stack-slot / heap-site /
//!   pointer-register bases with constant or scaled-index offsets), the
//!   foundation for the static alias analysis in `encore-analysis`,
//! * **intra-procedural CFGs** of [`Block`]s with explicit [`Terminator`]s,
//! * Encore's four **instrumentation opcodes** (`SetRecovery`,
//!   `CheckpointMem`, `CheckpointReg`, `Restore`) with explicit
//!   dynamic-instruction costs,
//! * a structured [`ModuleBuilder`]/[`FunctionBuilder`] API, a
//!   [verifier](verify_module), and a round-trippable
//!   [printer](std::fmt::Display)/[parser](parse_module).
//!
//! # Examples
//!
//! Build, print, parse and verify a module:
//!
//! ```
//! use encore_ir::{ModuleBuilder, Operand, BinOp, AddrExpr, verify_module, parse_module};
//!
//! let mut mb = ModuleBuilder::new("demo");
//! let g = mb.global("counter", 1);
//! mb.function("bump", 0, |f| {
//!     let v = f.load(AddrExpr::global(g, 0));
//!     let v2 = f.bin(BinOp::Add, v.into(), Operand::ImmI(1));
//!     f.store(AddrExpr::global(g, 0), v2.into());
//!     f.ret(Some(v2.into()));
//! });
//! let m = mb.finish();
//! verify_module(&m).expect("structurally valid");
//! let reparsed = parse_module(&m.to_string())?;
//! assert_eq!(reparsed, m);
//! # Ok::<(), encore_ir::ParseError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod addr;
mod builder;
mod display;
pub mod dot;
mod event;
mod function;
mod ids;
mod inst;
mod module;
mod parse;
mod verify;

pub use addr::{AddrExpr, MemBase, Offset};
pub use builder::{FunctionBuilder, ModuleBuilder};
pub use event::{AccessKind, Cell, MemEvent, ObjKind};
pub use function::{Block, Function, SlotDecl};
pub use ids::{BlockId, FuncId, GlobalId, HeapId, InstRef, Reg, RegionId, SlotId};
pub use inst::{BinOp, ExtEffect, Inst, Operand, Terminator, UnOp};
pub use module::{GlobalDecl, Module};
pub use parse::{parse_module, ParseError};
pub use verify::{
    verify_module, VerifyError, MAX_GLOBAL_CELLS, MAX_HEAP_SITES, MAX_OBJECT_CELLS, MAX_REGS,
};
