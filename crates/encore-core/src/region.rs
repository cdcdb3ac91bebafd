//! Region formation, costing and merging (paper §3.3–3.4.2).
//!
//! Candidate regions start as the level-0 intervals of the function's
//! CFG. Recursive interval partitioning provides coarser candidates; two
//! (or more) sibling regions are merged into their derived interval when
//! `ΔCoverage/ΔCost > η` (Eq. 5). The resulting partition is costed so
//! that the selection step (γ / overhead budget, in
//! [`crate::pipeline`]) can decide which regions to instrument.
//!
//! Costing follows the paper's compile-time surrogates:
//! * `Coverage(r)` — the length of the hot path through `r`;
//! * `Cost(r)` — checkpointing instructions on the hot path divided by
//!   hot-path length.

use crate::config::EncoreConfig;
use crate::idempotence::{IdempotenceAnalyzer, RegionAnalysis, RegionSpec};
use encore_analysis::{FuncProfile, IntervalHierarchy, Liveness, Profile};
use encore_ir::{BlockId, FuncId, Function, Module, Reg};
use std::collections::BTreeSet;

/// Cost/coverage numbers for one candidate region.
#[derive(Clone, PartialEq, Debug)]
pub struct RegionCosting {
    /// The hot path (block sequence from the header, following the most
    /// frequent profiled edges).
    pub hot_path: Vec<BlockId>,
    /// Static instructions along the hot path (terminators included) —
    /// the paper's compile-time `Coverage(r)` surrogate.
    pub hot_path_len: u64,
    /// Instrumentation instructions that would execute on the hot path:
    /// 2 per memory checkpoint + 1 per register checkpoint + 1 for the
    /// recovery-pointer update.
    pub ckpt_insts_hot: u64,
    /// Live-in registers the region overwrites (checkpointed at entry).
    pub reg_ckpts: usize,
    /// The clobbered live-in registers themselves, ascending — computed
    /// once here so instrumentation never re-runs liveness.
    pub reg_ckpt_set: Vec<Reg>,
    /// Memory checkpoints required (|CP| restricted to live blocks).
    pub mem_ckpts: usize,
    /// Number of profiled activations of the region (header executions).
    pub activations: u64,
    /// Dynamic instructions spent inside the region during profiling.
    pub dyn_insts: u64,
    /// Share of whole-program dynamic instructions spent in the region.
    pub exec_fraction: f64,
    /// Estimated runtime overhead added by instrumenting this region,
    /// as a fraction of whole-program dynamic instructions.
    pub est_overhead: f64,
    /// Average dynamic instructions per activation (the `n` of Eq. 7).
    pub avg_activation_len: f64,
}

/// A candidate recovery region with its analysis and costing.
#[derive(Clone, PartialEq, Debug)]
pub struct CandidateRegion {
    /// The region's blocks and header.
    pub spec: RegionSpec,
    /// Idempotence analysis outcome (under the configured `Pmin`).
    pub analysis: RegionAnalysis,
    /// Cost/coverage numbers.
    pub costing: RegionCosting,
}

impl CandidateRegion {
    /// The paper's `Coverage(r)` surrogate (hot-path length).
    pub fn coverage(&self) -> f64 {
        self.costing.hot_path_len as f64
    }

    /// The paper's `Cost(r)`: checkpoint instructions per hot-path
    /// instruction.
    pub fn cost(&self) -> f64 {
        if self.costing.hot_path_len == 0 {
            return 0.0;
        }
        self.costing.ckpt_insts_hot as f64 / self.costing.hot_path_len as f64
    }

    /// `Coverage/Cost`, the γ selection metric; `+∞`-like large value
    /// when the cost is (near) zero.
    pub fn gamma_ratio(&self) -> f64 {
        let c = self.cost();
        if c < 1e-12 {
            f64::INFINITY
        } else {
            self.coverage() / c
        }
    }
}

/// The final per-function region partition after merging.
#[derive(Clone, PartialEq, Debug)]
pub struct RegionPartition {
    /// Function the partition belongs to.
    pub func: FuncId,
    /// Final candidate regions (disjoint; they cover all reachable
    /// blocks of the function).
    pub regions: Vec<CandidateRegion>,
    /// Number of η-driven merges performed.
    pub merges: usize,
}

/// Builds a pruning predicate for `spec` from the profile and `Pmin`.
fn prune_fn<'a>(
    fp: &'a FuncProfile,
    header: BlockId,
    config: &'a EncoreConfig,
) -> impl Fn(BlockId) -> bool + 'a {
    move |b: BlockId| config.should_prune(fp.prob_relative(b, header))
}

/// Per-function edge-frequency table: `freq[b][k]` is the profiled count
/// of block `b`'s k-th successor edge, in successor order. Built once per
/// partition so the greedy hot-path walk does not repeat profile map
/// lookups inside its comparator.
struct EdgeFreq {
    freq: Vec<Vec<u64>>,
}

impl EdgeFreq {
    fn new(func: &Function, fp: &FuncProfile) -> Self {
        let freq = func
            .block_ids()
            .map(|b| {
                func.block(b)
                    .successors()
                    .into_iter()
                    .map(|s| fp.edge(b, s))
                    .collect()
            })
            .collect();
        Self { freq }
    }
}

/// Computes the hot path of a region: greedy walk from the header along
/// the most frequent in-region edges, stopping at a revisit or exit.
fn hot_path(func: &Function, ef: &EdgeFreq, spec: &RegionSpec) -> Vec<BlockId> {
    let mut path = vec![spec.header];
    let mut seen: BTreeSet<BlockId> = [spec.header].into_iter().collect();
    let mut cur = spec.header;
    loop {
        let next = func
            .block(cur)
            .successors()
            .into_iter()
            .enumerate()
            .filter(|(_, s)| spec.blocks.contains(s) && !seen.contains(s))
            .max_by_key(|(k, s)| (ef.freq[cur.index()][*k], std::cmp::Reverse(s.index())))
            .map(|(_, s)| s);
        match next {
            Some(n) => {
                seen.insert(n);
                path.push(n);
                cur = n;
            }
            None => break,
        }
    }
    path
}

/// Costs a region given its analysis.
fn cost_region(
    func: &Function,
    fp: &FuncProfile,
    ef: &EdgeFreq,
    liveness: &Liveness,
    spec: &RegionSpec,
    analysis: &RegionAnalysis,
    total_dyn: u64,
) -> RegionCosting {
    let path = hot_path(func, ef, spec);
    let path_set: BTreeSet<BlockId> = path.iter().copied().collect();
    let hot_path_len: u64 = path
        .iter()
        .map(|b| {
            let blk = func.block(*b);
            (blk.insts.len() + usize::from(blk.term.is_some())) as u64
        })
        .sum();

    let reg_ckpt_set: Vec<Reg> = liveness
        .clobbered_live_ins(spec.header, analysis.live_blocks.iter().copied())
        .into_iter()
        .collect();
    let reg_ckpts = reg_ckpt_set.len();
    let mem_ckpts = analysis.cp.len();
    let mem_ckpts_hot = analysis
        .cp
        .iter()
        .filter(|s| path_set.contains(&s.at.block))
        .count() as u64;
    // Hot-path instrumentation: 2 per memory checkpoint on the path,
    // 1 per register checkpoint, 1 recovery-pointer store at the header.
    let ckpt_insts_hot = 2 * mem_ckpts_hot + reg_ckpts as u64 + 1;

    let activations = fp.count(spec.header);
    let dyn_insts: u64 = spec
        .blocks
        .iter()
        .map(|b| {
            let blk = func.block(*b);
            fp.count(*b) * (blk.insts.len() + usize::from(blk.term.is_some())) as u64
        })
        .sum();
    let exec_fraction = if total_dyn == 0 {
        0.0
    } else {
        dyn_insts as f64 / total_dyn as f64
    };
    let dyn_ckpt: u64 = analysis
        .cp
        .iter()
        .map(|s| 2 * fp.count(s.at.block))
        .sum::<u64>()
        + activations * (reg_ckpts as u64 + 1);
    let est_overhead = if total_dyn == 0 {
        0.0
    } else {
        dyn_ckpt as f64 / total_dyn as f64
    };
    let avg_activation_len = if activations == 0 {
        0.0
    } else {
        dyn_insts as f64 / activations as f64
    };

    RegionCosting {
        hot_path: path,
        hot_path_len,
        ckpt_insts_hot,
        reg_ckpts,
        reg_ckpt_set,
        mem_ckpts,
        activations,
        dyn_insts,
        exec_fraction,
        est_overhead,
        avg_activation_len,
    }
}

impl RegionPartition {
    /// Forms the region partition of function `fid`: level-0 intervals,
    /// then η-driven bottom-up merging along the interval hierarchy.
    pub fn form(
        module: &Module,
        fid: FuncId,
        analyzer: &IdempotenceAnalyzer<'_>,
        profile: &Profile,
        config: &EncoreConfig,
    ) -> Self {
        let func = module.func(fid);
        let fp = profile.func(fid);
        let liveness = Liveness::compute(func);
        let edge_freq = EdgeFreq::new(func, fp);
        let hierarchy = IntervalHierarchy::compute(func);
        let total_dyn = profile.total_dyn_insts;

        let make_candidate = |header: BlockId, blocks: &BTreeSet<BlockId>| -> CandidateRegion {
            let spec = RegionSpec { func: fid, header, blocks: blocks.clone() };
            let prune = prune_fn(fp, header, config);
            let analysis = analyzer.analyze_region(&spec, &prune);
            let costing =
                cost_region(func, fp, &edge_freq, &liveness, &spec, &analysis, total_dyn);
            CandidateRegion { spec, analysis, costing }
        };

        // children_of[k][p] = level-k interval indices inside level-(k+1)
        // interval p.
        let depth = hierarchy.levels.len();
        let mut children_of: Vec<Vec<Vec<usize>>> = Vec::new();
        for (k, parent_map) in hierarchy.parent.iter().enumerate() {
            let mut c = vec![Vec::new(); hierarchy.levels[k + 1].len()];
            for (i, &p) in parent_map.iter().enumerate() {
                c[p].push(i);
            }
            children_of.push(c);
        }

        let mut merges = 0usize;

        /// Shared read-only inputs of the recursive merge walk.
        struct WalkCtx<'w> {
            hierarchy: &'w IntervalHierarchy,
            children_of: &'w [Vec<Vec<usize>>],
            make: &'w dyn Fn(BlockId, &BTreeSet<BlockId>) -> CandidateRegion,
            fp: &'w FuncProfile,
            config: &'w EncoreConfig,
        }

        // Recursive bottom-up walk: the partition of interval (k, i) is
        // either the single merged region (when Eq. 5 approves) or the
        // concatenation of its children's partitions.
        fn walk(ctx: &WalkCtx<'_>, k: usize, i: usize, merges: &mut usize) -> Vec<CandidateRegion> {
            let WalkCtx { hierarchy, children_of, make, fp, config } = *ctx;
            if k == 0 {
                let iv = &hierarchy.levels[0][i];
                return vec![make(iv.header, &iv.blocks)];
            }
            let kids = &children_of[k - 1][i];
            let mut parts: Vec<Vec<CandidateRegion>> = kids
                .iter()
                .map(|&j| walk(ctx, k - 1, j, merges))
                .collect();
            // Trivial promotion: one child that itself stayed whole.
            if parts.len() == 1 {
                return parts.pop().expect("one part");
            }
            // Only consider merging when every child resolved to a single
            // region (the paper merges adjacent *regions*, not fragments).
            if parts.iter().all(|p| p.len() == 1) {
                let iv = &hierarchy.levels[k][i];
                let merged = make(iv.header, &iv.blocks);
                let kid_regions: Vec<&CandidateRegion> =
                    parts.iter().map(|p| &p[0]).collect();
                // A merge must not absorb protectable children into an
                // unprotectable whole, must respect the fixed-slot
                // constraint — a checkpointed store that runs several
                // times per activation of the merged region (i.e. ends up
                // inside a loop relative to the new header) cannot be
                // undone from a single reserved stack slot — and must
                // stay under the optional size cap.
                let fixed_slot_ok = merged.analysis.cp.iter().all(|s| {
                    fp.count(s.at.block) <= fp.count(merged.spec.header).max(1)
                });
                let mergeable = (merged.analysis.verdict.is_protectable()
                    || kid_regions.iter().all(|r| !r.analysis.verdict.is_protectable()))
                    && fixed_slot_ok
                    && merged.costing.avg_activation_len <= config.max_region_len;
                if mergeable {
                    let max_cov = kid_regions
                        .iter()
                        .map(|r| r.coverage())
                        .fold(0.0_f64, f64::max)
                        .max(1.0);
                    // ΔCoverage per Eq. 5: preferring similarly sized
                    // siblings over large+small merges.
                    let delta_coverage = merged.coverage() / max_cov;
                    // ΔCost: checkpointing instructions the merge *adds*
                    // on the hot path beyond what the children already
                    // paid — merging one region's exposed loads with
                    // another's stores manufactures new WAR hazards, and
                    // those extra checkpoints are the true price of the
                    // bigger region (the children's intrinsic checkpoints
                    // exist either way). Floored at 0.5 so cost-free
                    // merges (a single shared recovery-pointer update
                    // instead of one per child) are strongly favored.
                    let kids_ckpt: u64 =
                        kid_regions.iter().map(|r| r.costing.ckpt_insts_hot).sum();
                    let delta_cost =
                        (merged.costing.ckpt_insts_hot as f64 - kids_ckpt as f64).max(0.5);
                    if delta_coverage / delta_cost > config.eta {
                        *merges += 1;
                        return vec![merged];
                    }
                }
            }
            parts.into_iter().flatten().collect()
        }

        let top = depth - 1;
        let ctx = WalkCtx {
            hierarchy: &hierarchy,
            children_of: &children_of,
            make: &make_candidate,
            fp,
            config,
        };
        let mut regions: Vec<CandidateRegion> = (0..hierarchy.levels[top].len())
            .flat_map(|i| walk(&ctx, top, i, &mut merges))
            .collect();
        // Deterministic order: by header block id.
        regions.sort_by_key(|r| r.spec.header);

        Self { func: fid, regions, merges }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::idempotence::Verdict;
    use encore_analysis::StaticAlias;
    use encore_ir::{AddrExpr, BinOp, ModuleBuilder, Operand};

    fn form(
        m: &Module,
        fid: FuncId,
        profile: &Profile,
        config: &EncoreConfig,
    ) -> RegionPartition {
        let oracle = StaticAlias;
        let analyzer = IdempotenceAnalyzer::new(m, &oracle);
        RegionPartition::form(m, fid, &analyzer, profile, config)
    }

    fn flat_profile(m: &Module, fid: FuncId, count: u64) -> Profile {
        let mut p = Profile::empty_for(m);
        let func = m.func(fid);
        let mut dyn_insts = 0u64;
        for (b, blk) in func.iter_blocks() {
            p.func_mut(fid).block_counts.insert(b, count);
            dyn_insts += count * (blk.insts.len() + 1) as u64;
            for s in blk.successors() {
                p.func_mut(fid).edge_counts.insert((b, s), count);
            }
        }
        p.total_dyn_insts = dyn_insts;
        p
    }

    #[test]
    fn partition_covers_all_blocks_once() {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global("g", 8);
        let fid = mb.function("f", 1, |f| {
            let n = f.param(0);
            f.for_range(Operand::ImmI(0), n.into(), |f, i| {
                let v = f.load(AddrExpr::indexed(encore_ir::MemBase::Global(g), i, 1, 0));
                let v2 = f.bin(BinOp::Add, v.into(), Operand::ImmI(1));
                f.store(AddrExpr::indexed(encore_ir::MemBase::Global(g), i, 1, 4), v2.into());
            });
            f.ret(None);
        });
        let m = mb.finish();
        let profile = flat_profile(&m, fid, 10);
        let part = form(&m, fid, &profile, &EncoreConfig::default());
        let mut seen = BTreeSet::new();
        for r in &part.regions {
            for b in &r.spec.blocks {
                assert!(seen.insert(*b), "block {b} in two regions");
            }
        }
        assert_eq!(seen.len(), m.func(fid).blocks.len());
    }

    #[test]
    fn low_eta_merges_into_one_region() {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global("g", 8);
        let fid = mb.function("f", 1, |f| {
            let n = f.param(0);
            f.for_range(Operand::ImmI(0), n.into(), |f, i| {
                f.store(AddrExpr::indexed(encore_ir::MemBase::Global(g), i, 1, 0), i.into());
            });
            f.ret(None);
        });
        let m = mb.finish();
        let profile = flat_profile(&m, fid, 10);
        let eager = EncoreConfig::default().with_eta(0.0);
        let part = form(&m, fid, &profile, &eager);
        assert_eq!(part.regions.len(), 1, "eta=0 should merge everything");
        assert!(part.merges >= 1);
        assert_eq!(part.regions[0].spec.header, m.func(fid).entry());
    }

    #[test]
    fn high_eta_keeps_regions_separate() {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global("g", 8);
        let fid = mb.function("f", 1, |f| {
            let n = f.param(0);
            f.for_range(Operand::ImmI(0), n.into(), |f, i| {
                f.store(AddrExpr::indexed(encore_ir::MemBase::Global(g), i, 1, 0), i.into());
            });
            f.ret(None);
        });
        let m = mb.finish();
        let profile = flat_profile(&m, fid, 10);
        let stingy = EncoreConfig::default().with_eta(1e12);
        let part = form(&m, fid, &profile, &stingy);
        assert!(part.regions.len() > 1, "huge eta should prevent merging");
        assert_eq!(part.merges, 0);
    }

    #[test]
    fn costing_counts_checkpoints() {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global("g", 1);
        let fid = mb.function("f", 0, |f| {
            let v = f.load(AddrExpr::global(g, 0));
            let v2 = f.bin(BinOp::Add, v.into(), Operand::ImmI(1));
            f.store(AddrExpr::global(g, 0), v2.into());
            f.ret(None);
        });
        let m = mb.finish();
        let profile = flat_profile(&m, fid, 100);
        let part = form(&m, fid, &profile, &EncoreConfig::default());
        assert_eq!(part.regions.len(), 1);
        let r = &part.regions[0];
        assert_eq!(r.analysis.verdict, Verdict::NonIdempotent { checkpointable: true });
        assert_eq!(r.costing.mem_ckpts, 1);
        assert!(r.costing.est_overhead > 0.0);
        assert!(r.cost() > 0.0);
        assert!(r.gamma_ratio().is_finite());
    }

    #[test]
    fn idempotent_region_has_infinite_gamma_ratio_without_reg_ckpts() {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global("g", 2);
        let fid = mb.function("f", 0, |f| {
            let v = f.load(AddrExpr::global(g, 0));
            f.store(AddrExpr::global(g, 1), v.into());
            f.ret(None);
        });
        let m = mb.finish();
        let profile = flat_profile(&m, fid, 100);
        let part = form(&m, fid, &profile, &EncoreConfig::default());
        let r = &part.regions[0];
        assert!(r.analysis.verdict.is_idempotent());
        // Cost is 1 SetRecovery / hot-path len: small but nonzero.
        assert!(r.cost() > 0.0 && r.cost() < 0.5);
    }

    #[test]
    fn exec_fraction_sums_to_one_over_partition() {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global("g", 8);
        let fid = mb.function("f", 1, |f| {
            let n = f.param(0);
            f.for_range(Operand::ImmI(0), n.into(), |f, i| {
                f.store(AddrExpr::indexed(encore_ir::MemBase::Global(g), i, 1, 0), i.into());
            });
            f.ret(None);
        });
        let m = mb.finish();
        let profile = flat_profile(&m, fid, 10);
        let part = form(&m, fid, &profile, &EncoreConfig::default().with_eta(1e12));
        let total: f64 = part.regions.iter().map(|r| r.costing.exec_fraction).sum();
        assert!((total - 1.0).abs() < 1e-9, "fractions sum to {total}");
    }
}
