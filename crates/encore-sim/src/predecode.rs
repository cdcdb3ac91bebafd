//! Pre-decoded instruction streams for the interpreter hot loop.
//!
//! The [`Module`] representation optimizes for construction and
//! transformation: blocks own `Vec<Inst>`, terminators live in an
//! `Option`, and a `SetRecovery`'s recovery block takes a region-map
//! lookup. None of that suits an interpreter that retires hundreds of
//! millions of dynamic instructions per campaign. [`DecodedModule`]
//! flattens each function once, up front, into an index-addressable
//! stream:
//!
//! * every instruction is lowered to a flat [`MicroOp`] (slow opcodes
//!   keep a **borrow** of their `&Inst`) next to its precomputed charge
//!   cost and [`InstRef`], so the `step` loop never clones an
//!   instruction or a terminator;
//! * every block is reduced to a `(start, len, terminator)` record;
//! * the heap-site count is recorded so the machine can keep its
//!   per-site allocation table in a dense `Vec` keyed by raw id.
//!
//! Decoding is cheap (one pass over the static code) and a
//! `DecodedModule` is immutable and shareable, so a fault-injection
//! campaign decodes once and reuses the stream across every injection.

use encore_core::RegionMap;
use encore_ir::{
    AddrExpr, BinOp, BlockId, FuncId, HeapId, Inst, InstRef, MemBase, Module, Offset, Operand,
    Reg, RegionId, SlotId, Terminator, UnOp,
};

/// The base of a pre-resolved address: like [`MemBase`] but with global
/// objects already turned into their object-table handle (globals are
/// the first `module.globals.len()` objects, in id order — the layout
/// [`crate::Memory::for_module`] guarantees).
#[derive(Clone, Copy, Debug)]
pub(crate) enum BaseMode {
    /// A global, pre-resolved to its object handle.
    Global(u32),
    /// A stack slot of the current activation.
    Slot(SlotId),
    /// The most recent allocation of a heap site.
    Heap(HeapId),
    /// A pointer held in a register.
    RegPtr(Reg),
}

/// A pre-decoded address expression.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DecodedAddr {
    /// The base object.
    pub(crate) base: BaseMode,
    /// The cell offset (unchanged from the IR; already `Copy`).
    pub(crate) off: Offset,
}

impl DecodedAddr {
    fn lower(addr: &AddrExpr) -> Self {
        let base = match addr.base {
            MemBase::Global(g) => BaseMode::Global(g.raw()),
            MemBase::Slot(s) => BaseMode::Slot(s),
            MemBase::Heap(h) => BaseMode::Heap(h),
            MemBase::Reg(r) => BaseMode::RegPtr(r),
        };
        Self { base, off: addr.offset }
    }
}

/// A pre-decoded instruction body: every opcode the sprint loop runs
/// is lowered into a flat, match-ready variant; the rest (calls,
/// allocation, externs, `Restore`, an unresolvable `SetRecovery`) keep
/// the original [`Inst`] for the general executor.
#[derive(Debug)]
pub(crate) enum MicroOp<'m> {
    /// Binary operation into a register.
    Bin { op: BinOp, dst: Reg, lhs: Operand, rhs: Operand },
    /// Unary operation into a register.
    Un { op: UnOp, dst: Reg, src: Operand },
    /// Register/immediate move.
    Mov { dst: Reg, src: Operand },
    /// Memory read.
    Load { dst: Reg, addr: DecodedAddr },
    /// Memory write.
    Store { addr: DecodedAddr, src: Operand },
    /// Address materialization (not fault-eligible, like the original).
    Lea { dst: Reg, addr: DecodedAddr },
    /// Arms the frame's recovery, with the region's recovery block
    /// pre-resolved from the region map at decode time. `SetRecovery`
    /// against an unknown region (or one with no recovery block) stays
    /// `Slow` so the general executor raises its trap.
    SetRecovery { region: RegionId, recovery_block: BlockId },
    /// Appends a memory undo entry to the armed recovery log.
    CkptMem { addr: DecodedAddr },
    /// Appends a register undo entry to the armed recovery log.
    CkptReg { reg: Reg },
    /// Infrequent opcode (calls, allocation, externs, rollback):
    /// executed by the general executor.
    Slow(&'m Inst),
}

impl<'m> MicroOp<'m> {
    fn lower(inst: &'m Inst, map: Option<&RegionMap>) -> Self {
        match inst {
            Inst::Bin { op, dst, lhs, rhs } => {
                MicroOp::Bin { op: *op, dst: *dst, lhs: *lhs, rhs: *rhs }
            }
            Inst::Un { op, dst, src } => MicroOp::Un { op: *op, dst: *dst, src: *src },
            Inst::Mov { dst, src } => MicroOp::Mov { dst: *dst, src: *src },
            Inst::Load { dst, addr } => {
                MicroOp::Load { dst: *dst, addr: DecodedAddr::lower(addr) }
            }
            Inst::Store { addr, src } => {
                MicroOp::Store { addr: DecodedAddr::lower(addr), src: *src }
            }
            Inst::Lea { dst, addr } => {
                MicroOp::Lea { dst: *dst, addr: DecodedAddr::lower(addr) }
            }
            Inst::SetRecovery { region } => {
                match map
                    .and_then(|m| m.regions.get(region.index()))
                    .and_then(|info| info.recovery_block)
                {
                    Some(rb) => MicroOp::SetRecovery { region: *region, recovery_block: rb },
                    None => MicroOp::Slow(inst),
                }
            }
            Inst::CheckpointMem { addr } => MicroOp::CkptMem { addr: DecodedAddr::lower(addr) },
            Inst::CheckpointReg { reg } => MicroOp::CkptReg { reg: *reg },
            _ => MicroOp::Slow(inst),
        }
    }
}

/// One pre-decoded instruction: the lowered body plus everything `step`
/// would otherwise recompute per retirement.
pub(crate) struct DecodedInst<'m> {
    /// The lowered body the hot loop dispatches on.
    pub(crate) op: MicroOp<'m>,
    /// Location of the instruction (for profiling footprints).
    pub(crate) at: InstRef,
    /// Precomputed [`Inst::cost`].
    pub(crate) cost: u64,
}

/// One pre-decoded block: a window into the function's flat stream.
pub(crate) struct DecodedBlock<'m> {
    /// Index of the block's first instruction in [`DecodedFunc::steps`].
    pub(crate) start: u32,
    /// Number of straight-line instructions.
    pub(crate) len: u32,
    /// The terminator, borrowed (`None` only for malformed modules).
    pub(crate) term: Option<&'m Terminator>,
}

/// One pre-decoded function.
pub(crate) struct DecodedFunc<'m> {
    /// All instructions of all blocks, flattened in block order.
    pub(crate) steps: Vec<DecodedInst<'m>>,
    /// Per-block metadata, indexed by [`BlockId`].
    pub(crate) blocks: Vec<DecodedBlock<'m>>,
}

impl<'m> DecodedFunc<'m> {
    /// The decoded block `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    #[inline]
    pub(crate) fn block(&self, b: BlockId) -> &DecodedBlock<'m> {
        &self.blocks[b.index()]
    }
}

/// A module pre-decoded for interpretation. Borrows the [`Module`] it
/// was built from; build once, share across runs.
pub struct DecodedModule<'m> {
    pub(crate) funcs: Vec<DecodedFunc<'m>>,
    /// Heap allocation sites the module can name (sizes the machine's
    /// dense allocation table).
    pub(crate) heap_site_count: usize,
}

impl<'m> DecodedModule<'m> {
    /// Pre-decodes `module`, resolving each `SetRecovery`'s recovery
    /// block through `map` when one is supplied.
    #[must_use]
    pub fn new(module: &'m Module, map: Option<&RegionMap>) -> Self {
        let mut heap_site_count = module.heap_sites as usize;
        let funcs = module
            .iter_funcs()
            .map(|(_, func)| {
                let mut steps = Vec::with_capacity(func.static_inst_count());
                let blocks = func
                    .iter_blocks()
                    .map(|(bid, block)| {
                        let start = steps.len() as u32;
                        for (i, inst) in block.insts.iter().enumerate() {
                            if let Inst::Alloc { site, .. } = inst {
                                heap_site_count = heap_site_count.max(site.index() + 1);
                            }
                            steps.push(DecodedInst {
                                op: MicroOp::lower(inst, map),
                                at: InstRef::new(bid, i),
                                cost: inst.cost(),
                            });
                        }
                        DecodedBlock {
                            start,
                            len: block.insts.len() as u32,
                            term: block.term.as_ref(),
                        }
                    })
                    .collect();
                DecodedFunc { steps, blocks }
            })
            .collect();
        Self { funcs, heap_site_count }
    }

    /// The decoded function `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range.
    #[inline]
    pub(crate) fn func(&self, f: FuncId) -> &DecodedFunc<'m> {
        &self.funcs[f.index()]
    }
}

impl std::fmt::Debug for DecodedModule<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecodedModule")
            .field("funcs", &self.funcs.len())
            .field("heap_site_count", &self.heap_site_count)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use encore_ir::{BinOp, ModuleBuilder, Operand};

    #[test]
    fn flat_stream_mirrors_blocks() {
        let mut mb = ModuleBuilder::new("m");
        mb.function("f", 1, |f| {
            let n = f.param(0);
            let acc = f.mov(Operand::ImmI(0));
            f.for_range(Operand::ImmI(0), n.into(), |f, i| {
                f.bin_to(acc, BinOp::Add, acc.into(), i.into());
            });
            f.ret(Some(acc.into()));
        });
        let m = mb.finish();
        let code = DecodedModule::new(&m, None);
        let fid = m.func_by_name("f").unwrap();
        let func = m.func(fid);
        let dfunc = code.func(fid);
        assert_eq!(dfunc.blocks.len(), func.blocks.len());
        for (bid, block) in func.iter_blocks() {
            let db = dfunc.block(bid);
            assert_eq!(db.len as usize, block.insts.len());
            assert_eq!(db.term, block.term.as_ref());
            for (i, inst) in block.insts.iter().enumerate() {
                let di = &dfunc.steps[db.start as usize + i];
                assert_eq!(di.cost, inst.cost());
                assert_eq!(di.at, InstRef::new(bid, i));
            }
        }
    }

    #[test]
    fn heap_sites_counted() {
        let mut mb = ModuleBuilder::new("m");
        mb.function("f", 0, |f| {
            let p = f.alloc(Operand::ImmI(4));
            f.ret(Some(p.into()));
        });
        let m = mb.finish();
        let code = DecodedModule::new(&m, None);
        assert!(code.heap_site_count >= 1);
    }
}
