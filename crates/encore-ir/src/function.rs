//! Basic blocks and functions.

use crate::ids::{BlockId, InstRef, Reg, SlotId};
use crate::inst::{Inst, Terminator};

/// A basic block: straight-line instructions plus one terminator.
#[derive(Clone, PartialEq, Debug)]
pub struct Block {
    /// Straight-line body.
    pub insts: Vec<Inst>,
    /// Terminator; `None` only transiently during construction.
    pub term: Option<Terminator>,
}

impl Block {
    /// Creates an empty, unterminated block.
    pub fn new() -> Self {
        Self { insts: Vec::new(), term: None }
    }

    /// Successor blocks (empty if unterminated).
    pub fn successors(&self) -> Vec<BlockId> {
        self.term.as_ref().map(|t| t.successors()).unwrap_or_default()
    }

    /// The terminator.
    ///
    /// # Panics
    ///
    /// Panics if the block is unterminated; run the verifier first.
    pub fn terminator(&self) -> &Terminator {
        self.term.as_ref().expect("block has no terminator")
    }
}

impl Default for Block {
    fn default() -> Self {
        Self::new()
    }
}

/// A stack slot declaration: a fixed-size per-activation memory object.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SlotDecl {
    /// Size of the slot in 8-byte cells.
    pub cells: u32,
}

/// A function: an intra-procedural CFG over [`Block`]s plus register and
/// stack-slot declarations.
///
/// Blocks are stored densely and identified by [`BlockId`]; the entry block
/// is always `bb0`.
#[derive(Clone, PartialEq, Debug)]
pub struct Function {
    /// Function name (unique within a module).
    pub name: String,
    /// Number of formal parameters; parameters arrive in registers
    /// `r0 .. r(param_count-1)`.
    pub param_count: u32,
    /// Number of virtual registers used (registers are `r0..r(reg_count-1)`).
    pub reg_count: u32,
    /// Stack slot declarations, indexed by [`SlotId`].
    pub slots: Vec<SlotDecl>,
    /// Basic blocks, indexed by [`BlockId`]; `bb0` is the entry.
    pub blocks: Vec<Block>,
}

impl Function {
    /// Creates an empty function with `param_count` parameters and a single
    /// empty entry block.
    pub fn new(name: impl Into<String>, param_count: u32) -> Self {
        Self {
            name: name.into(),
            param_count,
            reg_count: param_count,
            slots: Vec::new(),
            blocks: vec![Block::new()],
        }
    }

    /// The entry block id (`bb0`).
    pub fn entry(&self) -> BlockId {
        BlockId::new(0)
    }

    /// Shorthand for `&self.blocks[b.index()]`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn block(&self, b: BlockId) -> &Block {
        &self.blocks[b.index()]
    }

    /// Mutable shorthand for `&mut self.blocks[b.index()]`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn block_mut(&mut self, b: BlockId) -> &mut Block {
        &mut self.blocks[b.index()]
    }

    /// Iterates over `(BlockId, &Block)` pairs in id order.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId::new(i as u32), b))
    }

    /// All block ids in id order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks.len() as u32).map(BlockId::new)
    }

    /// Appends a fresh empty block, returning its id.
    pub fn add_block(&mut self) -> BlockId {
        let id = BlockId::new(self.blocks.len() as u32);
        self.blocks.push(Block::new());
        id
    }

    /// Allocates a fresh virtual register.
    pub fn new_reg(&mut self) -> Reg {
        let r = Reg::new(self.reg_count);
        self.reg_count += 1;
        r
    }

    /// Declares a stack slot of `cells` 8-byte cells.
    pub fn add_slot(&mut self, cells: u32) -> SlotId {
        let id = SlotId::new(self.slots.len() as u32);
        self.slots.push(SlotDecl { cells });
        id
    }

    /// Looks up an instruction by [`InstRef`].
    ///
    /// # Panics
    ///
    /// Panics if the reference is out of range.
    pub fn inst(&self, r: InstRef) -> &Inst {
        &self.block(r.block).insts[r.index]
    }

    /// Total static instruction count (terminators included).
    pub fn static_inst_count(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| b.insts.len() + usize::from(b.term.is_some()))
            .sum()
    }

    /// Iterates over every instruction in the function with its location.
    pub fn iter_insts(&self) -> impl Iterator<Item = (InstRef, &Inst)> {
        self.iter_blocks().flat_map(|(bid, block)| {
            block
                .insts
                .iter()
                .enumerate()
                .map(move |(i, inst)| (InstRef::new(bid, i), inst))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{Operand, Terminator};

    #[test]
    fn new_function_has_entry_block() {
        let f = Function::new("f", 2);
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(f.entry(), BlockId::new(0));
        assert_eq!(f.reg_count, 2);
    }

    #[test]
    fn static_inst_count_includes_terminators() {
        let mut f = Function::new("f", 0);
        let r = f.new_reg();
        f.block_mut(BlockId::new(0))
            .insts
            .push(Inst::Mov { dst: r, src: Operand::ImmI(1) });
        f.block_mut(BlockId::new(0)).term = Some(Terminator::Ret(None));
        assert_eq!(f.static_inst_count(), 2);
    }
}
