//! Structural verification of modules.
//!
//! The verifier catches malformed IR early: unterminated blocks, dangling
//! block/register/slot/global/function references, arity mismatches on
//! calls, and globals, slots, register files or heap-site tables too
//! large to allocate. All analyses and the simulator assume a verified
//! module.

use crate::addr::{AddrExpr, MemBase, Offset};
use crate::function::Function;
use crate::ids::{BlockId, FuncId, Reg};
use crate::inst::{Inst, Operand, Terminator};
use crate::module::Module;
use std::error::Error;
use std::fmt;

/// Most cells a global or a stack slot may declare: every object is
/// allocated whole when the program starts or the frame is pushed, so
/// the bound keeps a module from asking for gigabytes. The simulator
/// bounds the cells of all heap and slot objects together by the same
/// number. The largest object in the 100× workload corpus has 57,600
/// cells.
pub const MAX_OBJECT_CELLS: u32 = 1 << 24;

/// Most cells a module's globals may declare in all: twice
/// [`MAX_OBJECT_CELLS`], so one global at the object bound leaves room
/// for the rest. The largest total in the 100× workload corpus is
/// 83,300 cells (164.gzip).
pub const MAX_GLOBAL_CELLS: u64 = 2 * MAX_OBJECT_CELLS as u64;

/// Most registers a function may declare: every activation allocates
/// its register file whole. The corpus kernels use at most 47 and the
/// fuzz programs at most 104.
pub const MAX_REGS: u32 = 1 << 16;

/// Most heap allocation sites a module may declare: a machine keeps the
/// latest allocation of every site in a table that each snapshot and
/// each resumed run copies. No corpus or fuzz module declares more than
/// one.
pub const MAX_HEAP_SITES: u32 = 1 << 16;

/// An IR structural error found by [`verify_module`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VerifyError {
    /// Function where the error occurred (name for readability); empty
    /// for an error in a global.
    pub func: String,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.func.is_empty() {
            f.write_str(&self.message)
        } else {
            write!(f, "in function `{}`: {}", self.func, self.message)
        }
    }
}

impl Error for VerifyError {}

struct Checker<'m> {
    module: &'m Module,
    func: &'m Function,
    errors: Vec<VerifyError>,
}

impl Checker<'_> {
    fn err(&mut self, message: String) {
        self.errors.push(VerifyError { func: self.func.name.clone(), message });
    }

    fn check_reg(&mut self, r: Reg, what: &str) {
        if r.raw() >= self.func.reg_count {
            self.err(format!("{what} references undeclared register {r}"));
        }
    }

    fn check_addr(&mut self, a: &AddrExpr, what: &str) {
        match a.base {
            MemBase::Global(g) => {
                if g.index() >= self.module.globals.len() {
                    self.err(format!("{what} references undeclared global {g}"));
                }
            }
            MemBase::Slot(s) => {
                if s.index() >= self.func.slots.len() {
                    self.err(format!("{what} references undeclared slot {s}"));
                }
            }
            MemBase::Heap(h) => {
                if h.raw() >= self.module.heap_sites {
                    self.err(format!("{what} references undeclared heap site {h}"));
                }
            }
            MemBase::Reg(r) => self.check_reg(r, what),
        }
        if let Offset::Scaled { index, .. } = a.offset {
            self.check_reg(index, what);
        }
    }

    fn check_block_ref(&mut self, b: BlockId, what: &str) {
        if b.index() >= self.func.blocks.len() {
            self.err(format!("{what} targets nonexistent block {b}"));
        }
    }

    fn check_call(&mut self, callee: FuncId, args: &[Operand], at: &str) {
        if callee.index() >= self.module.funcs.len() {
            self.err(format!("{at} calls nonexistent function {callee}"));
            return;
        }
        let target = &self.module.funcs[callee.index()];
        if args.len() != target.param_count as usize {
            self.err(format!(
                "{at} calls `{}` with {} args, expected {}",
                target.name,
                args.len(),
                target.param_count
            ));
        }
    }

    fn check_function(&mut self) {
        if self.func.blocks.is_empty() {
            self.err("function has no blocks".to_string());
            return;
        }
        for (i, slot) in self.func.slots.iter().enumerate() {
            if slot.cells > MAX_OBJECT_CELLS {
                self.err(format!(
                    "slot s{i} has {} cells, more than the {MAX_OBJECT_CELLS} allowed",
                    slot.cells
                ));
            }
        }
        if self.func.reg_count > MAX_REGS {
            self.err(format!(
                "{} registers, more than the {MAX_REGS} allowed",
                self.func.reg_count
            ));
        }
        if self.func.param_count > self.func.reg_count {
            self.err(format!(
                "param_count {} exceeds reg_count {}",
                self.func.param_count, self.func.reg_count
            ));
        }
        for (bid, block) in self.func.iter_blocks() {
            for (i, inst) in block.insts.iter().enumerate() {
                let at = format!("{bid}:{i}");
                if let Some(d) = inst.def() {
                    self.check_reg(d, &at);
                }
                for u in inst.uses() {
                    self.check_reg(u, &at);
                }
                match inst {
                    Inst::Load { addr, .. }
                    | Inst::Store { addr, .. }
                    | Inst::Lea { addr, .. }
                    | Inst::CheckpointMem { addr } => self.check_addr(addr, &at),
                    Inst::Alloc { site, .. } if site.raw() >= self.module.heap_sites => {
                        self.err(format!("{at} uses undeclared heap site {site}"));
                    }
                    Inst::Call { callee, args, .. } => self.check_call(*callee, args, &at),
                    _ => {}
                }
            }
            match &block.term {
                None => self.err(format!("block {bid} has no terminator")),
                Some(t) => {
                    for u in t.uses() {
                        self.check_reg(u, &format!("{bid} terminator"));
                    }
                    match t {
                        Terminator::Jump(b) => self.check_block_ref(*b, &format!("{bid} jump")),
                        Terminator::Branch { then_bb, else_bb, .. } => {
                            self.check_block_ref(*then_bb, &format!("{bid} branch"));
                            self.check_block_ref(*else_bb, &format!("{bid} branch"));
                        }
                        Terminator::Ret(_) => {}
                    }
                }
            }
        }
    }
}

/// Verifies the structural integrity of every function in `module`.
///
/// # Errors
///
/// Returns all problems found (not just the first) as a vector of
/// [`VerifyError`].
pub fn verify_module(module: &Module) -> Result<(), Vec<VerifyError>> {
    let module_error = |message| VerifyError { func: String::new(), message };
    let mut errors: Vec<VerifyError> = module
        .globals
        .iter()
        .filter(|g| g.cells > MAX_OBJECT_CELLS)
        .map(|g| {
            module_error(format!(
                "global `{}` has {} cells, more than the {MAX_OBJECT_CELLS} allowed",
                g.name, g.cells
            ))
        })
        .collect();
    let global_cells: u64 = module.globals.iter().map(|g| u64::from(g.cells)).sum();
    if global_cells > MAX_GLOBAL_CELLS {
        errors.push(module_error(format!(
            "globals have {global_cells} cells in all, more than the {MAX_GLOBAL_CELLS} allowed"
        )));
    }
    if module.heap_sites > MAX_HEAP_SITES {
        errors.push(module_error(format!(
            "{} heap sites, more than the {MAX_HEAP_SITES} allowed",
            module.heap_sites
        )));
    }
    for func in &module.funcs {
        let mut checker = Checker { module, func, errors: Vec::new() };
        checker.check_function();
        errors.extend(checker.errors);
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::ids::GlobalId;

    fn valid_module() -> Module {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global("g", 4);
        mb.function("f", 1, |f| {
            let p = f.param(0);
            f.store(AddrExpr::global(g, 0), p.into());
            f.ret(None);
        });
        mb.finish()
    }

    #[test]
    fn valid_module_verifies() {
        assert!(verify_module(&valid_module()).is_ok());
    }

    #[test]
    fn unterminated_block_rejected() {
        let mut m = valid_module();
        m.funcs[0].blocks[0].term = None;
        let errs = verify_module(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("no terminator")));
    }

    #[test]
    fn dangling_register_rejected() {
        let mut m = valid_module();
        m.funcs[0].blocks[0].insts.push(Inst::Mov {
            dst: Reg::new(99),
            src: Operand::ImmI(0),
        });
        m.funcs[0].blocks[0].term = Some(Terminator::Ret(None));
        let errs = verify_module(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("undeclared register")));
    }

    #[test]
    fn dangling_global_rejected() {
        let mut m = valid_module();
        m.funcs[0].blocks[0]
            .insts
            .push(Inst::Store { addr: AddrExpr::global(GlobalId::new(7), 0), src: Operand::ImmI(0) });
        let errs = verify_module(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("undeclared global")));
    }

    #[test]
    fn dangling_branch_target_rejected() {
        let mut m = valid_module();
        m.funcs[0].blocks[0].term = Some(Terminator::Jump(BlockId::new(42)));
        let errs = verify_module(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("nonexistent block")));
    }

    #[test]
    fn call_arity_mismatch_rejected() {
        let mut mb = ModuleBuilder::new("m");
        let callee = mb.function("leaf", 2, |f| f.ret(None));
        mb.function("main", 0, |f| {
            f.call_void(callee, &[Operand::ImmI(1)]);
            f.ret(None);
        });
        let m = mb.finish();
        let errs = verify_module(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("expected 2")));
    }

    #[test]
    fn oversized_global_and_slot_rejected() {
        let mut m = valid_module();
        m.globals[0].cells = MAX_OBJECT_CELLS + 1;
        m.funcs[0].add_slot(u32::MAX);
        let errs = verify_module(&m).unwrap_err();
        assert_eq!(errs.len(), 2, "{errs:?}");
        assert_eq!(
            errs[0].to_string(),
            "global `g` has 16777217 cells, more than the 16777216 allowed"
        );
        assert!(errs[1].message.contains("slot s0 has 4294967295 cells"), "{errs:?}");
        m.globals[0].cells = MAX_OBJECT_CELLS;
        m.funcs[0].slots[0].cells = MAX_OBJECT_CELLS;
        assert!(verify_module(&m).is_ok(), "the bound itself is allowed");
    }

    /// Register files, the globals' total and the heap-site table are
    /// allocated whole before the first instruction runs, so each is
    /// bounded here; the bounds themselves are allowed.
    #[test]
    fn oversized_register_files_global_totals_and_site_tables_rejected() {
        let mut m = valid_module();
        m.funcs[0].reg_count = 4_000_000_000;
        m.heap_sites = MAX_HEAP_SITES + 1;
        m.globals[0].cells = MAX_OBJECT_CELLS;
        m.globals.push(m.globals[0].clone());
        m.globals.push(m.globals[0].clone());
        let errs: Vec<String> =
            verify_module(&m).unwrap_err().iter().map(ToString::to_string).collect();
        assert_eq!(
            errs,
            [
                "globals have 50331648 cells in all, more than the 33554432 allowed",
                "65537 heap sites, more than the 65536 allowed",
                "in function `f`: 4000000000 registers, more than the 65536 allowed",
            ]
        );
        m.funcs[0].reg_count = MAX_REGS;
        m.heap_sites = MAX_HEAP_SITES;
        m.globals.pop();
        assert!(verify_module(&m).is_ok(), "the bounds themselves are allowed");
    }

    #[test]
    fn error_display_mentions_function() {
        let mut m = valid_module();
        m.funcs[0].blocks[0].term = None;
        let errs = verify_module(&m).unwrap_err();
        let msg = errs[0].to_string();
        assert!(msg.contains("`f`"), "message was: {msg}");
    }
}
