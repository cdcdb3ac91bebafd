//! Textual printing of modules, functions and instructions.
//!
//! The format is round-trippable via [`crate::parse::parse_module`]; a
//! property test in the crate asserts `parse(print(m)) == m`.

use crate::function::Function;
use crate::inst::{Inst, Operand, Terminator};
use crate::module::Module;
use std::fmt;

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inst::Bin { op, dst, lhs, rhs } => {
                write!(f, "{dst} = {} {lhs}, {rhs}", op.mnemonic())
            }
            Inst::Un { op, dst, src } => write!(f, "{dst} = {} {src}", op.mnemonic()),
            Inst::Mov { dst, src } => write!(f, "{dst} = mov {src}"),
            Inst::Load { dst, addr } => write!(f, "{dst} = load {addr}"),
            Inst::Store { addr, src } => write!(f, "store {addr}, {src}"),
            Inst::Lea { dst, addr } => write!(f, "{dst} = lea {addr}"),
            Inst::Alloc { dst, site, size } => write!(f, "{dst} = alloc {site}, {size}"),
            Inst::Call { callee, dst, args } => {
                if let Some(d) = dst {
                    write!(f, "{d} = ")?;
                }
                write!(f, "call {callee}(")?;
                write_args(f, args)?;
                write!(f, ")")
            }
            Inst::CallExt { name, dst, args, effect } => {
                if let Some(d) = dst {
                    write!(f, "{d} = ")?;
                }
                write!(f, "callext \"{name}\" {effect}(")?;
                write_args(f, args)?;
                write!(f, ")")
            }
            Inst::SetRecovery { region } => write!(f, "setrecovery {region}"),
            Inst::CheckpointMem { addr } => write!(f, "ckptmem {addr}"),
            Inst::CheckpointReg { reg } => write!(f, "ckptreg {reg}"),
            Inst::Restore { region } => write!(f, "restore {region}"),
        }
    }
}

fn write_args(f: &mut fmt::Formatter<'_>, args: &[Operand]) -> fmt::Result {
    for (i, a) in args.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{a}")?;
    }
    Ok(())
}

impl fmt::Display for Terminator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Terminator::Jump(b) => write!(f, "jmp {b}"),
            Terminator::Branch { cond, then_bb, else_bb } => {
                write!(f, "br {cond}, {then_bb}, {else_bb}")
            }
            Terminator::Ret(Some(v)) => write!(f, "ret {v}"),
            Terminator::Ret(None) => write!(f, "ret"),
        }
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "  func \"{}\" params={} regs={} slots=[",
            self.name, self.param_count, self.reg_count
        )?;
        for (i, s) in self.slots.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", s.cells)?;
        }
        writeln!(f, "] {{")?;
        for (bid, block) in self.iter_blocks() {
            writeln!(f, "  {bid}:")?;
            for inst in &block.insts {
                writeln!(f, "    {inst}")?;
            }
            match &block.term {
                Some(t) => writeln!(f, "    {t}")?,
                None => writeln!(f, "    <unterminated>")?,
            }
        }
        writeln!(f, "  }}")
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "module \"{}\" {{", self.name)?;
        writeln!(f, "  heap_sites {}", self.heap_sites)?;
        for g in &self.globals {
            write!(f, "  global \"{}\" cells={} init=[", g.name, g.cells)?;
            for (i, v) in g.init.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{v}")?;
            }
            writeln!(f, "]")?;
        }
        for func in &self.funcs {
            write!(f, "{func}")?;
        }
        writeln!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::inst::BinOp;

    #[test]
    fn prints_module() {
        let mut mb = ModuleBuilder::new("demo");
        let g = mb.global_init("tbl", 4, vec![1, 2]);
        mb.function("f", 1, |f| {
            let p = f.param(0);
            let v = f.bin(BinOp::Add, p.into(), Operand::ImmI(1));
            f.store(crate::AddrExpr::global(g, 0), v.into());
            f.ret(Some(v.into()));
        });
        let m = mb.finish();
        let text = m.to_string();
        assert!(text.contains("module \"demo\""));
        assert!(text.contains("global \"tbl\" cells=4 init=[1,2]"));
        assert!(text.contains("r1 = add r0, 1"));
        assert!(text.contains("store g0[0], r1"));
        assert!(text.contains("ret r1"));
    }
}
