//! The instrumentation pass (paper §3.2).
//!
//! For every *selected* region the pass:
//!
//! 1. prepends `SetRecovery` to the region header — the paper's "simple
//!    store that updates a dedicated memory location with the address of
//!    the corresponding recovery block";
//! 2. prepends one `CheckpointReg` per live-in register the region
//!    overwrites;
//! 3. inserts `CheckpointMem` immediately before every store in the
//!    checkpoint set CP (saving the cell's pre-store value and address);
//! 4. appends a *recovery block* — `Restore` followed by a jump back to
//!    the region header — the destination of all rollbacks initiated
//!    while the region is active.
//!
//! The pass returns the instrumented module plus a [`RegionMap`] the
//! simulator uses to resolve recovery targets and to attribute dynamic
//! execution to regions, and a [`StorageReport`] reproducing Figure 7b's
//! bytes-per-region accounting (memory checkpoints store value + address
//! = 16 bytes; register checkpoints store one value = 8 bytes).

use crate::region::CandidateRegion;
use encore_ir::{BlockId, FuncId, Inst, Module, Reg, RegionId, Terminator};
use std::collections::BTreeMap;

/// Metadata about one region in the final partition (instrumented or
/// not).
#[derive(Clone, PartialEq, Debug)]
pub struct RegionInfo {
    /// Region id (dense across the module).
    pub id: RegionId,
    /// Function containing the region.
    pub func: FuncId,
    /// Region header block (in the instrumented module the header keeps
    /// its id; only instruction indices shift).
    pub header: BlockId,
    /// Member blocks.
    pub blocks: Vec<BlockId>,
    /// The recovery block appended for this region (`None` when the
    /// region was not instrumented).
    pub recovery_block: Option<BlockId>,
    /// Whether the region was selected for protection.
    pub protected: bool,
    /// Whether the region was memory-idempotent (needed no memory
    /// checkpoints).
    pub idempotent: bool,
    /// Memory checkpoints inserted.
    pub mem_ckpts: usize,
    /// Register checkpoints inserted at the header.
    pub reg_ckpts: usize,
    /// Average dynamic instructions per activation (Eq. 7's `n`).
    pub avg_activation_len: f64,
    /// Share of profiled execution spent in this region.
    pub exec_fraction: f64,
}

/// Region lookup tables for the simulator.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct RegionMap {
    /// All regions, indexed by [`RegionId`].
    pub regions: Vec<RegionInfo>,
    /// Per function: block → region id.
    block_to_region: BTreeMap<FuncId, BTreeMap<BlockId, RegionId>>,
}

impl RegionMap {
    /// The region containing block `b` of function `f`, if any.
    pub fn region_of(&self, f: FuncId, b: BlockId) -> Option<RegionId> {
        self.block_to_region.get(&f)?.get(&b).copied()
    }

    /// Info for region `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn info(&self, id: RegionId) -> &RegionInfo {
        &self.regions[id.index()]
    }
}

/// Figure 7b storage accounting.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct StorageReport {
    /// Per instrumented region: `(memory bytes, register bytes)`.
    pub per_region: Vec<(u64, u64)>,
}

impl StorageReport {
    /// Bytes per memory checkpoint (data + address).
    pub const MEM_CKPT_BYTES: u64 = 16;
    /// Bytes per register checkpoint (data only).
    pub const REG_CKPT_BYTES: u64 = 8;

    /// Average memory-checkpoint bytes per instrumented region.
    pub fn avg_mem_bytes(&self) -> f64 {
        if self.per_region.is_empty() {
            return 0.0;
        }
        self.per_region.iter().map(|(m, _)| *m as f64).sum::<f64>()
            / self.per_region.len() as f64
    }

    /// Average register-checkpoint bytes per instrumented region.
    pub fn avg_reg_bytes(&self) -> f64 {
        if self.per_region.is_empty() {
            return 0.0;
        }
        self.per_region.iter().map(|(_, r)| *r as f64).sum::<f64>()
            / self.per_region.len() as f64
    }

    /// Average total checkpoint bytes per instrumented region (the
    /// paper's headline "24 bytes per region").
    pub fn avg_total_bytes(&self) -> f64 {
        self.avg_mem_bytes() + self.avg_reg_bytes()
    }
}

/// An instrumented module with its recovery metadata.
#[derive(Clone, PartialEq, Debug)]
pub struct InstrumentedModule {
    /// The rewritten module.
    pub module: Module,
    /// Region metadata and lookup tables.
    pub map: RegionMap,
    /// Storage accounting for Figure 7b.
    pub storage: StorageReport,
}

/// Applies the instrumentation pass.
///
/// `candidates` is the final region partition of the whole module, each
/// paired with its selection decision (`true` = instrument). Regions must
/// be disjoint per function; headers must be unique.
///
/// `elide_reg_ckpts = true` skips the live-in register saves: unsound,
/// for the ablation study only.
pub fn instrument_module_with(
    module: &Module,
    candidates: &[(CandidateRegion, bool)],
    elide_reg_ckpts: bool,
) -> InstrumentedModule {
    let mut out = module.clone();
    let mut map = RegionMap::default();
    let mut storage = StorageReport::default();

    for (idx, (cand, selected)) in candidates.iter().enumerate() {
        let rid = RegionId::new(idx as u32);
        let fid = cand.spec.func;
        let header = cand.spec.header;
        let protected = *selected && cand.analysis.verdict.is_protectable();

        let mut recovery_block = None;
        let mut reg_ckpts_inserted = 0usize;
        let mut mem_ckpts_inserted = 0usize;

        if protected {
            let func = out.func_mut(fid);

            // 3. CheckpointMem before every CP store. Group by block and
            //    apply in descending index order so indices stay valid.
            let mut by_block: BTreeMap<BlockId, Vec<(usize, encore_ir::AddrExpr)>> =
                BTreeMap::new();
            for site in &cand.analysis.cp {
                by_block
                    .entry(site.at.block)
                    .or_default()
                    .push((site.at.index, site.addr));
            }
            for (b, mut sites) in by_block {
                sites.sort_by_key(|(i, _)| std::cmp::Reverse(*i));
                for (i, addr) in sites {
                    func.block_mut(b)
                        .insts
                        .insert(i, Inst::CheckpointMem { addr });
                    mem_ckpts_inserted += 1;
                }
            }

            // 1–2. Header prologue: SetRecovery then register
            //      checkpoints, in deterministic (register id) order.
            //      The clobbered set was computed with the candidate's
            //      costing; no liveness pass runs here.
            let clobbered: Vec<Reg> = if elide_reg_ckpts {
                Vec::new()
            } else {
                cand.costing.reg_ckpt_set.clone()
            };
            reg_ckpts_inserted = clobbered.len();
            let mut prologue = Vec::with_capacity(1 + clobbered.len());
            prologue.push(Inst::SetRecovery { region: rid });
            prologue.extend(clobbered.into_iter().map(|reg| Inst::CheckpointReg { reg }));
            let hdr = func.block_mut(header);
            for inst in prologue.into_iter().rev() {
                hdr.insts.insert(0, inst);
            }

            // 4. Recovery block: Restore + jump back to the header.
            let rb = func.add_block();
            func.block_mut(rb).insts.push(Inst::Restore { region: rid });
            func.block_mut(rb).term = Some(Terminator::Jump(header));
            recovery_block = Some(rb);

            storage.per_region.push((
                mem_ckpts_inserted as u64 * StorageReport::MEM_CKPT_BYTES,
                reg_ckpts_inserted as u64 * StorageReport::REG_CKPT_BYTES,
            ));
        }

        let info = RegionInfo {
            id: rid,
            func: fid,
            header,
            blocks: cand.spec.blocks.iter().copied().collect(),
            recovery_block,
            protected,
            idempotent: cand.analysis.verdict.is_idempotent(),
            mem_ckpts: mem_ckpts_inserted,
            reg_ckpts: reg_ckpts_inserted,
            avg_activation_len: cand.costing.avg_activation_len,
            exec_fraction: cand.costing.exec_fraction,
        };
        for b in &cand.spec.blocks {
            map.block_to_region.entry(fid).or_default().insert(*b, rid);
        }
        map.regions.push(info);
    }

    InstrumentedModule { module: out, map, storage }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EncoreConfig;
    use crate::idempotence::IdempotenceAnalyzer;
    use crate::region::RegionPartition;
    use encore_analysis::{Profile, StaticAlias};
    use encore_ir::{verify_module, AddrExpr, BinOp, ModuleBuilder, Operand};

    fn build_and_instrument() -> (Module, InstrumentedModule) {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global("g", 4);
        let fid = mb.function("f", 1, |f| {
            let n = f.param(0);
            f.for_range(Operand::ImmI(0), n.into(), |f, _i| {
                let v = f.load(AddrExpr::global(g, 0));
                let v2 = f.bin(BinOp::Add, v.into(), Operand::ImmI(1));
                f.store(AddrExpr::global(g, 0), v2.into());
            });
            f.ret(None);
        });
        let m = mb.finish();
        // Flat profile so nothing is pruned.
        let mut profile = Profile::empty_for(&m);
        let mut dyn_insts = 0u64;
        for (b, blk) in m.func(fid).iter_blocks() {
            profile.func_mut(fid).block_counts.insert(b, 10);
            dyn_insts += 10 * (blk.insts.len() + 1) as u64;
            for s in blk.successors() {
                profile.func_mut(fid).edge_counts.insert((b, s), 10);
            }
        }
        profile.total_dyn_insts = dyn_insts;

        let oracle = StaticAlias;
        let analyzer = IdempotenceAnalyzer::new(&m, &oracle);
        let config = EncoreConfig::default().with_eta(0.0);
        let part = RegionPartition::form(&m, fid, &analyzer, &profile, &config);
        let cands: Vec<_> = part.regions.into_iter().map(|r| (r, true)).collect();
        let inst = instrument_module_with(&m, &cands, false);
        (m, inst)
    }

    #[test]
    fn instrumented_module_verifies() {
        let (_, inst) = build_and_instrument();
        verify_module(&inst.module).expect("instrumented module is valid IR");
    }

    #[test]
    fn header_gets_setrecovery_first() {
        let (_, inst) = build_and_instrument();
        let protected: Vec<_> =
            inst.map.regions.iter().filter(|r| r.protected).collect();
        assert!(!protected.is_empty());
        for r in protected {
            let func = inst.module.func(r.func);
            let first = &func.block(r.header).insts[0];
            assert!(
                matches!(first, Inst::SetRecovery { region } if *region == r.id),
                "header of {} starts with {first:?}",
                r.id
            );
        }
    }

    #[test]
    fn recovery_block_restores_and_jumps_home() {
        let (_, inst) = build_and_instrument();
        for r in inst.map.regions.iter().filter(|r| r.protected) {
            let rb = r.recovery_block.expect("protected region has recovery block");
            let func = inst.module.func(r.func);
            let block = func.block(rb);
            assert!(matches!(block.insts[0], Inst::Restore { region } if region == r.id));
            assert_eq!(block.terminator(), &Terminator::Jump(r.header));
        }
    }

    #[test]
    fn checkpoint_precedes_every_cp_store() {
        let (_, inst) = build_and_instrument();
        // Every CheckpointMem must be immediately followed (possibly after
        // other checkpoints) by a store to the same address.
        for func in &inst.module.funcs {
            for block in &func.blocks {
                for (i, inst_) in block.insts.iter().enumerate() {
                    if let Inst::CheckpointMem { addr } = inst_ {
                        let next_store = block.insts[i + 1..]
                            .iter()
                            .find_map(|x| x.store_addr());
                        assert_eq!(
                            next_store,
                            Some(addr),
                            "checkpoint without matching downstream store"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn storage_report_counts_bytes() {
        let (_, inst) = build_and_instrument();
        assert!(!inst.storage.per_region.is_empty());
        // The in-place counter loop forces one memory checkpoint (16 B)
        // and at least one register checkpoint (loop counter, 8 B).
        assert!(inst.storage.avg_total_bytes() >= 16.0);
    }

    #[test]
    fn unselected_regions_left_untouched() {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global("g", 1);
        let fid = mb.function("f", 0, |f| {
            let v = f.load(AddrExpr::global(g, 0));
            f.store(AddrExpr::global(g, 0), v.into());
            f.ret(None);
        });
        let m = mb.finish();
        let profile = Profile::empty_for(&m);
        let oracle = StaticAlias;
        let analyzer = IdempotenceAnalyzer::new(&m, &oracle);
        let config = EncoreConfig::default().with_pmin(None);
        let part = RegionPartition::form(&m, fid, &analyzer, &profile, &config);
        let cands: Vec<_> = part.regions.into_iter().map(|r| (r, false)).collect();
        let inst = instrument_module_with(&m, &cands, false);
        assert_eq!(inst.module, m, "unselected regions must not change code");
        assert!(inst.map.regions.iter().all(|r| !r.protected));
        assert!(inst.storage.per_region.is_empty());
    }

    #[test]
    fn block_to_region_lookup() {
        let (_, inst) = build_and_instrument();
        for r in &inst.map.regions {
            for b in &r.blocks {
                assert_eq!(inst.map.region_of(r.func, *b), Some(r.id));
            }
        }
    }
}
