//! Pre-decoded instruction streams for the interpreter's sprint loop.
//!
//! The [`Module`] representation suits construction and transformation:
//! blocks own `Vec<Inst>`, terminators live in an `Option`, and a
//! `SetRecovery`'s recovery block takes a region-map lookup. None of
//! that suits an interpreter that retires hundreds of millions of
//! dynamic instructions per campaign. [`DecodedModule`] flattens each
//! function once, up front, into an index-addressable stream:
//!
//! * every step holds its [`Inst`], which the sprint loop matches
//!   directly, next to its [`InstRef`] and precomputed [`Inst::cost`];
//! * every block is reduced to a `(start, len, terminator)` record;
//! * the heap-site count is recorded so the machine can keep its
//!   per-site allocation table in a dense `Vec` keyed by raw id;
//! * each region's recovery block, the one fact of the region map a
//!   run reads, is a table indexed by region id.
//!
//! Decoding is cheap (one pass over the static code) and a
//! `DecodedModule` is immutable and shareable, so a fault-injection
//! campaign decodes once and reuses the stream across every injection.

use encore_core::RegionMap;
use encore_ir::{BlockId, FuncId, Inst, InstRef, Module, Terminator};

/// One step of a function's stream: everything the sprint loop reads to
/// retire an instruction.
pub(crate) struct DecodedInst {
    /// The instruction itself.
    pub(crate) inst: Inst,
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
    pub(crate) steps: Vec<DecodedInst>,
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
    /// Each region's recovery block, indexed by region id; empty when
    /// decoded without a region map. A `SetRecovery` of a region past
    /// the end, or of one with no block, traps.
    pub(crate) recovery_blocks: Vec<Option<BlockId>>,
}

/// The recovery block of each region `map` knows, by region id.
fn recovery_blocks(map: Option<&RegionMap>) -> Vec<Option<BlockId>> {
    map.map_or_else(Vec::new, |m| m.regions.iter().map(|r| r.recovery_block).collect())
}

impl<'m> DecodedModule<'m> {
    /// Pre-decodes `module`, taking each region's recovery block from
    /// `map` when one is supplied.
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
                                inst: inst.clone(),
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
        Self { funcs, heap_site_count, recovery_blocks: recovery_blocks(map) }
    }

    /// `true` when `map` gives every region the recovery block this
    /// module was decoded with, so decoding with `map` would give the
    /// same stream.
    pub(crate) fn decoded_with(&self, map: Option<&RegionMap>) -> bool {
        self.recovery_blocks == recovery_blocks(map)
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
                assert_eq!(di.inst, *inst);
                assert_eq!(di.cost, inst.cost());
                assert_eq!(di.at, InstRef::new(bid, i));
            }
        }
    }

    /// The decoded table is the map's recovery blocks by region id, and
    /// only the map it came from (or one with the same blocks) matches.
    #[test]
    fn recovery_table_follows_the_map() {
        let mut mb = ModuleBuilder::new("m");
        let f = mb.function("f", 0, |f| f.ret(None));
        let m = mb.finish();
        let region = |id, recovery_block| encore_core::RegionInfo {
            id: encore_ir::RegionId::new(id),
            func: f,
            header: BlockId::new(0),
            blocks: vec![BlockId::new(0)],
            recovery_block,
            protected: recovery_block.is_some(),
            idempotent: false,
            mem_ckpts: 0,
            reg_ckpts: 0,
            avg_activation_len: 0.0,
            exec_fraction: 0.0,
        };
        let mut map = RegionMap::default();
        map.regions.push(region(0, None));
        map.regions.push(region(1, Some(BlockId::new(0))));
        let code = DecodedModule::new(&m, Some(&map));
        assert_eq!(code.recovery_blocks, [None, Some(BlockId::new(0))]);
        assert!(code.decoded_with(Some(&map.clone())));
        assert!(!code.decoded_with(None));
        map.regions[0].recovery_block = Some(BlockId::new(0));
        assert!(!code.decoded_with(Some(&map)));
        assert!(DecodedModule::new(&m, None).decoded_with(None));
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
