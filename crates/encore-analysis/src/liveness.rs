//! Register liveness analysis.
//!
//! Encore checkpoints, at region entry, every live-in register that the
//! region overwrites (§3.2 of the paper): otherwise re-execution would
//! consume a clobbered value. This is the standard backward may-analysis
//! at basic-block granularity.

use crate::bitset::BitSet;
use crate::dataflow::solve_worklist;
use encore_ir::{BlockId, Function, Reg};
use std::collections::BTreeSet;

/// Per-block liveness results for one function, stored as packed
/// register bitsets; the `BTreeSet` accessors materialize on demand.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Liveness {
    in_bits: Vec<BitSet>,
    out_bits: Vec<BitSet>,
    def_bits: Vec<BitSet>,
}

fn to_regs(bs: &BitSet) -> BTreeSet<Reg> {
    bs.iter().map(|i| Reg::new(i as u32)).collect()
}

impl Liveness {
    /// Computes liveness for `func` on the bitset worklist engine: the
    /// fixpoint runs over packed register sets seeded in postorder (a
    /// backward problem propagates fastest against the flow).
    pub fn compute(func: &Function) -> Self {
        let n = func.blocks.len();
        let nregs = func.reg_count as usize;
        let mut use_bits = vec![BitSet::new(nregs); n];
        let mut def_bits = vec![BitSet::new(nregs); n];

        for (bid, block) in func.iter_blocks() {
            let i = bid.index();
            for inst in &block.insts {
                for u in inst.uses() {
                    if !def_bits[i].contains(u.index()) {
                        use_bits[i].insert(u.index());
                    }
                }
                if let Some(d) = inst.def() {
                    def_bits[i].insert(d.index());
                }
            }
            if let Some(t) = &block.term {
                for u in t.uses() {
                    if !def_bits[i].contains(u.index()) {
                        use_bits[i].insert(u.index());
                    }
                }
            }
        }

        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (bid, block) in func.iter_blocks() {
            for s in block.successors() {
                succs[bid.index()].push(s.index());
                preds[s.index()].push(bid.index());
            }
        }

        let mut in_bits = vec![BitSet::new(nregs); n];
        let mut out_bits = vec![BitSet::new(nregs); n];
        let seed: Vec<usize> =
            crate::order::postorder(func).into_iter().map(|b| b.index()).collect();
        // A block's live-in feeds its predecessors' live-out.
        solve_worklist(&seed, n, |i| preds[i].as_slice(), |i| {
            let mut out = BitSet::new(nregs);
            for &s in &succs[i] {
                out.union_with(&in_bits[s]);
            }
            let mut inn = out.clone();
            inn.subtract(&def_bits[i]);
            inn.union_with(&use_bits[i]);
            let changed = inn != in_bits[i];
            out_bits[i] = out;
            in_bits[i] = inn;
            changed
        });

        Self { in_bits, out_bits, def_bits }
    }

    /// Registers live at entry to `b`.
    pub fn live_in(&self, b: BlockId) -> BTreeSet<Reg> {
        to_regs(&self.in_bits[b.index()])
    }

    /// Registers live at exit from `b`.
    pub fn live_out(&self, b: BlockId) -> BTreeSet<Reg> {
        to_regs(&self.out_bits[b.index()])
    }

    /// Registers that are live at entry to `header` *and* written anywhere
    /// in `region_blocks` — exactly the set Encore must checkpoint at
    /// region entry. Runs entirely on the packed sets: per block, a
    /// word-level walk of `defs ∩ live-in(header)`.
    pub fn clobbered_live_ins(
        &self,
        header: BlockId,
        region_blocks: impl IntoIterator<Item = BlockId>,
    ) -> BTreeSet<Reg> {
        let live = &self.in_bits[header.index()];
        let mut clobbered = BTreeSet::new();
        for b in region_blocks {
            for d in self.def_bits[b.index()].iter_and(live) {
                clobbered.insert(Reg::new(d as u32));
            }
        }
        clobbered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use encore_ir::{AddrExpr, BinOp, ModuleBuilder, Operand};

    #[test]
    fn param_live_into_use() {
        let mut mb = ModuleBuilder::new("m");
        mb.function("f", 1, |f| {
            let p = f.param(0);
            f.if_else(p.into(), |_| {}, |_| {});
            f.ret(Some(p.into()));
        });
        let m = mb.finish();
        let f = &m.funcs[0];
        let lv = Liveness::compute(f);
        let p = Reg::new(0);
        // p is live into every block on the way to the final ret.
        assert!(lv.live_in(BlockId::new(0)).contains(&p));
        assert!(lv.live_in(BlockId::new(3)).contains(&p));
        assert!(lv.live_out(BlockId::new(0)).contains(&p));
    }

    #[test]
    fn dead_value_not_live() {
        let mut mb = ModuleBuilder::new("m");
        mb.function("f", 0, |f| {
            let dead = f.mov(Operand::ImmI(1));
            let _ = dead;
            f.ret(None);
        });
        let m = mb.finish();
        let lv = Liveness::compute(&m.funcs[0]);
        assert!(lv.live_in(BlockId::new(0)).is_empty());
    }

    #[test]
    fn loop_carried_value_is_live_at_header() {
        let mut mb = ModuleBuilder::new("m");
        mb.function("f", 1, |f| {
            let n = f.param(0);
            let i = f.mov(Operand::ImmI(0));
            f.while_loop(
                |f| Operand::Reg(f.bin(BinOp::Lt, i.into(), n.into())),
                |f| f.bin_to(i, BinOp::Add, i.into(), Operand::ImmI(1)),
            );
            f.ret(Some(i.into()));
        });
        let m = mb.finish();
        let lv = Liveness::compute(&m.funcs[0]);
        let i_reg = Reg::new(1);
        let header = BlockId::new(1);
        let body = BlockId::new(2);
        assert!(lv.live_in(header).contains(&i_reg));
        assert!(lv.live_in(body).contains(&i_reg));
        // The body both uses and redefines i.
        assert!(lv.clobbered_live_ins(header, [body]).contains(&i_reg));
    }

    #[test]
    fn clobbered_live_ins_detects_overwritten_inputs() {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global("g", 1);
        mb.function("f", 2, |f| {
            let a = f.param(0); // overwritten below -> needs checkpoint
            let b = f.param(1); // only read -> no checkpoint
            let body_start = f.add_block();
            f.jump(body_start);
            f.switch_to(body_start);
            f.bin_to(a, BinOp::Add, a.into(), b.into());
            f.store(AddrExpr::global(g, 0), a.into());
            f.ret(Some(a.into()));
        });
        let m = mb.finish();
        let lv = Liveness::compute(&m.funcs[0]);
        let region = [BlockId::new(1)];
        let clobbered = lv.clobbered_live_ins(BlockId::new(1), region);
        assert!(clobbered.contains(&Reg::new(0)));
        assert!(!clobbered.contains(&Reg::new(1)));
    }
}
