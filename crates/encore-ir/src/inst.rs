//! Instructions, operands and terminators.
//!
//! A basic block holds a list of straight-line [`Inst`]s followed by exactly
//! one [`Terminator`]. Calls are ordinary instructions (not terminators),
//! which keeps the CFG intra-procedural — the shape Encore's analyses
//! expect.
//!
//! Besides the usual mid-level operations, the instruction set contains the
//! four *instrumentation* opcodes Encore inserts (`SetRecovery`,
//! `CheckpointMem`, `CheckpointReg`, `Restore`). In the paper these lower to
//! plain stores/loads against a reserved stack area; here they are dedicated
//! opcodes with an explicit dynamic-instruction cost, so that the simulator
//! both *charges* for them (runtime-overhead experiments) and can implement
//! rollback exactly.

use crate::addr::AddrExpr;
use crate::ids::{BlockId, FuncId, HeapId, Reg, RegionId};
use std::fmt;

/// A value operand: a register read or an immediate.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Operand {
    /// Read a virtual register.
    Reg(Reg),
    /// Integer immediate.
    ImmI(i64),
    /// Floating-point immediate.
    ImmF(f64),
}

impl Operand {
    /// Returns the register read by this operand, if any.
    pub fn as_reg(&self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(*r),
            _ => None,
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Self {
        Operand::ImmI(v)
    }
}

impl From<f64> for Operand {
    fn from(v: f64) -> Self {
        Operand::ImmF(v)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::ImmI(v) => write!(f, "{v}"),
            Operand::ImmF(v) => write!(f, "{v:?}f"),
        }
    }
}

/// Binary operations. Integer comparisons yield `0`/`1` integers.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// Integer addition (wrapping).
    Add,
    /// Integer subtraction (wrapping).
    Sub,
    /// Integer multiplication (wrapping).
    Mul,
    /// Integer division (defined as 0 on division by zero).
    Div,
    /// Integer remainder (defined as 0 on division by zero).
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left (shift amount masked to 63).
    Shl,
    /// Arithmetic shift right (shift amount masked to 63).
    Shr,
    /// Float addition.
    FAdd,
    /// Float subtraction.
    FSub,
    /// Float multiplication.
    FMul,
    /// Float division.
    FDiv,
    /// Integer equality.
    Eq,
    /// Integer inequality.
    Ne,
    /// Integer signed less-than.
    Lt,
    /// Integer signed less-or-equal.
    Le,
    /// Float less-than.
    FLt,
    /// Float less-or-equal.
    FLe,
    /// Integer minimum.
    Min,
    /// Integer maximum.
    Max,
}

impl BinOp {
    /// Mnemonic used by the printer/parser.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
            BinOp::FAdd => "fadd",
            BinOp::FSub => "fsub",
            BinOp::FMul => "fmul",
            BinOp::FDiv => "fdiv",
            BinOp::Eq => "eq",
            BinOp::Ne => "ne",
            BinOp::Lt => "lt",
            BinOp::Le => "le",
            BinOp::FLt => "flt",
            BinOp::FLe => "fle",
            BinOp::Min => "min",
            BinOp::Max => "max",
        }
    }

    /// All binary operations, for exhaustive testing.
    pub fn all() -> &'static [BinOp] {
        &[
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Rem,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
            BinOp::Shl,
            BinOp::Shr,
            BinOp::FAdd,
            BinOp::FSub,
            BinOp::FMul,
            BinOp::FDiv,
            BinOp::Eq,
            BinOp::Ne,
            BinOp::Lt,
            BinOp::Le,
            BinOp::FLt,
            BinOp::FLe,
            BinOp::Min,
            BinOp::Max,
        ]
    }
}

/// Unary operations.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UnOp {
    /// Integer negation.
    Neg,
    /// Bitwise not.
    Not,
    /// Float negation.
    FNeg,
    /// Convert integer to float.
    IToF,
    /// Convert float to integer (truncating; saturates at i64 bounds).
    FToI,
    /// Float square root (of the absolute value).
    FSqrt,
    /// Integer absolute value.
    Abs,
}

impl UnOp {
    /// Mnemonic used by the printer/parser.
    pub fn mnemonic(self) -> &'static str {
        match self {
            UnOp::Neg => "neg",
            UnOp::Not => "not",
            UnOp::FNeg => "fneg",
            UnOp::IToF => "itof",
            UnOp::FToI => "ftoi",
            UnOp::FSqrt => "fsqrt",
            UnOp::Abs => "abs",
        }
    }

    /// All unary operations, for exhaustive testing.
    pub fn all() -> &'static [UnOp] {
        &[
            UnOp::Neg,
            UnOp::Not,
            UnOp::FNeg,
            UnOp::IToF,
            UnOp::FToI,
            UnOp::FSqrt,
            UnOp::Abs,
        ]
    }
}

/// How the idempotence analysis must treat an external call.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ExtEffect {
    /// No memory access at all (e.g. math intrinsics).
    Pure,
    /// May read arbitrary memory, never writes.
    ReadOnly,
    /// May read and write arbitrary memory: regions containing such a call
    /// become `Unknown` — the paper's un-analyzable library/system calls.
    Opaque,
}

impl fmt::Display for ExtEffect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ExtEffect::Pure => "pure",
            ExtEffect::ReadOnly => "readonly",
            ExtEffect::Opaque => "opaque",
        };
        f.write_str(s)
    }
}

/// A straight-line (non-terminator) instruction.
#[derive(Clone, PartialEq, Debug)]
pub enum Inst {
    /// `dst = op(lhs, rhs)`.
    Bin {
        /// Operation.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dst = op(src)`.
    Un {
        /// Operation.
        op: UnOp,
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// `dst = src`.
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// `dst = mem[addr]`.
    Load {
        /// Destination register.
        dst: Reg,
        /// Address read.
        addr: AddrExpr,
    },
    /// `mem[addr] = src`.
    Store {
        /// Address written.
        addr: AddrExpr,
        /// Value stored.
        src: Operand,
    },
    /// `dst = &addr` — materialize a pointer.
    Lea {
        /// Destination register.
        dst: Reg,
        /// Address whose pointer is taken.
        addr: AddrExpr,
    },
    /// `dst = allocate(size)` — a fresh object tagged with allocation
    /// site `site`.
    Alloc {
        /// Destination register (receives the pointer).
        dst: Reg,
        /// Static allocation site id (alias-analysis abstraction).
        site: HeapId,
        /// Number of cells to allocate.
        size: Operand,
    },
    /// Call an internal function.
    Call {
        /// Callee.
        callee: FuncId,
        /// Register receiving the return value, if any.
        dst: Option<Reg>,
        /// Argument operands.
        args: Vec<Operand>,
    },
    /// Call an external (host-provided) function.
    CallExt {
        /// External symbol name, resolved by the simulator.
        name: Box<str>,
        /// Register receiving the return value, if any.
        dst: Option<Reg>,
        /// Argument operands.
        args: Vec<Operand>,
        /// Memory effect the analysis must assume.
        effect: ExtEffect,
    },
    /// Encore instrumentation: announce that control entered region
    /// `region`, making its recovery block the rollback destination and
    /// resetting the region's checkpoint log. Lowered to one store in the
    /// paper; costs one dynamic instruction.
    SetRecovery {
        /// The region whose header this instruction sits in.
        region: RegionId,
    },
    /// Encore instrumentation: log the current value at `addr` (value and
    /// address, 16 bytes) before an idempotence-violating store. Costs two
    /// dynamic instructions.
    CheckpointMem {
        /// Address whose pre-store value is saved.
        addr: AddrExpr,
    },
    /// Encore instrumentation: log the current value of a live-in register
    /// that the region overwrites (8 bytes). Costs one dynamic instruction.
    CheckpointReg {
        /// Register saved.
        reg: Reg,
    },
    /// Encore instrumentation: undo the region's checkpoint log (restores
    /// memory cells and registers in reverse order). Only ever executed on
    /// the recovery path.
    Restore {
        /// The region being rolled back.
        region: RegionId,
    },
}

impl Inst {
    /// Register written by this instruction, if any.
    pub fn def(&self) -> Option<Reg> {
        match self {
            Inst::Bin { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::Mov { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::Lea { dst, .. }
            | Inst::Alloc { dst, .. } => Some(*dst),
            Inst::Call { dst, .. } | Inst::CallExt { dst, .. } => *dst,
            Inst::Store { .. }
            | Inst::SetRecovery { .. }
            | Inst::CheckpointMem { .. }
            | Inst::CheckpointReg { .. }
            | Inst::Restore { .. } => None,
        }
    }

    /// Registers read by this instruction, in evaluation order.
    pub fn uses(&self) -> Vec<Reg> {
        fn op(out: &mut Vec<Reg>, o: &Operand) {
            if let Operand::Reg(r) = o {
                out.push(*r);
            }
        }
        let mut out = Vec::new();
        match self {
            Inst::Bin { lhs, rhs, .. } => {
                op(&mut out, lhs);
                op(&mut out, rhs);
            }
            Inst::Un { src, .. } | Inst::Mov { dst: _, src } => op(&mut out, src),
            Inst::Load { addr, .. } | Inst::Lea { addr, .. } => {
                out.extend(addr.used_regs());
            }
            Inst::Store { addr, src } => {
                out.extend(addr.used_regs());
                op(&mut out, src);
            }
            Inst::Alloc { size, .. } => op(&mut out, size),
            Inst::Call { args, .. } | Inst::CallExt { args, .. } => {
                args.iter().for_each(|a| op(&mut out, a));
            }
            Inst::SetRecovery { .. } | Inst::Restore { .. } => {}
            Inst::CheckpointMem { addr } => out.extend(addr.used_regs()),
            Inst::CheckpointReg { reg } => out.push(*reg),
        }
        out
    }

    /// The address this instruction loads from, if it is a memory read.
    pub fn load_addr(&self) -> Option<&AddrExpr> {
        match self {
            Inst::Load { addr, .. } => Some(addr),
            _ => None,
        }
    }

    /// The address this instruction stores to, if it is a memory write.
    /// `CheckpointMem` reads (not writes) program-visible memory, so it is
    /// *not* a store for analysis purposes.
    pub fn store_addr(&self) -> Option<&AddrExpr> {
        match self {
            Inst::Store { addr, .. } => Some(addr),
            _ => None,
        }
    }

    /// Dynamic-instruction cost charged by the simulator, matching how the
    /// paper's instrumentation lowers to real instructions: a memory
    /// checkpoint stores value + address (2), a register checkpoint stores
    /// one word (1), the recovery-pointer update is one store (1).
    pub fn cost(&self) -> u64 {
        match self {
            Inst::CheckpointMem { .. } => 2,
            Inst::Restore { .. } => 0,
            _ => 1,
        }
    }
}

/// A block terminator.
#[derive(Clone, PartialEq, Debug)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way branch on `cond != 0`.
    Branch {
        /// Condition operand (integer; nonzero takes `then_bb`).
        cond: Operand,
        /// Successor on true.
        then_bb: BlockId,
        /// Successor on false.
        else_bb: BlockId,
    },
    /// Return from the function.
    Ret(Option<Operand>),
}

impl Terminator {
    /// Successor blocks of this terminator.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jump(t) => vec![*t],
            Terminator::Branch { then_bb, else_bb, .. } => vec![*then_bb, *else_bb],
            Terminator::Ret(_) => vec![],
        }
    }

    /// Registers read by this terminator.
    pub fn uses(&self) -> Vec<Reg> {
        match self {
            Terminator::Branch { cond, .. } => cond.as_reg().into_iter().collect(),
            Terminator::Ret(Some(op)) => op.as_reg().into_iter().collect(),
            _ => vec![],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::GlobalId;

    #[test]
    fn def_and_uses() {
        let i = Inst::Bin {
            op: BinOp::Add,
            dst: Reg::new(0),
            lhs: Operand::Reg(Reg::new(1)),
            rhs: Operand::ImmI(3),
        };
        assert_eq!(i.def(), Some(Reg::new(0)));
        assert_eq!(i.uses(), vec![Reg::new(1)]);
    }

    #[test]
    fn store_has_no_def_and_reports_addr() {
        let a = AddrExpr::global(GlobalId::new(0), 1);
        let s = Inst::Store { addr: a, src: Operand::Reg(Reg::new(2)) };
        assert_eq!(s.def(), None);
        assert_eq!(s.store_addr(), Some(&a));
        assert_eq!(s.load_addr(), None);
        assert_eq!(s.uses(), vec![Reg::new(2)]);
    }

    #[test]
    fn checkpoint_mem_is_not_a_store() {
        let a = AddrExpr::global(GlobalId::new(0), 1);
        let c = Inst::CheckpointMem { addr: a };
        assert_eq!(c.store_addr(), None);
        assert_eq!(c.cost(), 2);
    }

    #[test]
    fn terminator_successors() {
        let t = Terminator::Branch {
            cond: Operand::Reg(Reg::new(0)),
            then_bb: BlockId::new(1),
            else_bb: BlockId::new(2),
        };
        assert_eq!(t.successors(), vec![BlockId::new(1), BlockId::new(2)]);
        assert_eq!(Terminator::Ret(None).successors(), vec![]);
    }

    #[test]
    fn indexed_load_uses_index_reg() {
        let a = AddrExpr::indexed(MemBase::Global(GlobalId::new(0)), Reg::new(5), 1, 0);
        let l = Inst::Load { dst: Reg::new(6), addr: a };
        assert_eq!(l.uses(), vec![Reg::new(5)]);
        assert_eq!(l.def(), Some(Reg::new(6)));
    }

    use crate::addr::MemBase;
}
