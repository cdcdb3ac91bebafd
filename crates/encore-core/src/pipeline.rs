//! The end-to-end Encore compilation pipeline (paper Figure 3).
//!
//! `partition → analyze → select → instrument`, with selection driven by
//! the γ threshold and/or the runtime-overhead budget (the paper derives
//! γ and η "empirically for each application to target ~20 % overhead";
//! here the budget-driven selection performs that derivation
//! deterministically: regions are admitted in decreasing
//! benefit-per-overhead order until the budget is spent, and the implied
//! γ is reported).

use crate::config::EncoreConfig;
use crate::coverage::{CoverageModel, ExecutionBreakdown, FullSystemCoverage, ARM926_MASKING_RATE};
use crate::idempotence::{IdempotenceAnalyzer, Verdict};
use crate::instrument::{instrument_module_with, InstrumentedModule};
use crate::region::{CandidateRegion, RegionPartition};
use encore_analysis::Profile;
use encore_ir::{FuncId, Module};

/// Per-region one-line summary for reports.
#[derive(Clone, PartialEq, Debug)]
pub struct RegionReport {
    /// Function containing the region.
    pub func: FuncId,
    /// Function name (for printing).
    pub func_name: String,
    /// Region header.
    pub header: encore_ir::BlockId,
    /// Number of member blocks.
    pub block_count: usize,
    /// Idempotence verdict.
    pub verdict: Verdict,
    /// Whether the region was selected for instrumentation.
    pub protected: bool,
    /// Share of profiled execution.
    pub exec_fraction: f64,
    /// Memory checkpoints required.
    pub mem_ckpts: usize,
    /// Register checkpoints required.
    pub reg_ckpts: usize,
}

/// Region verdict tallies (Figure 5's stacks).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct VerdictCounts {
    /// Inherently idempotent regions.
    pub idempotent: usize,
    /// Non-idempotent (checkpointable or not) regions.
    pub non_idempotent: usize,
    /// Regions the analysis could not see through.
    pub unknown: usize,
}

impl VerdictCounts {
    /// Total regions.
    pub fn total(&self) -> usize {
        self.idempotent + self.non_idempotent + self.unknown
    }

    /// Fraction helpers for the Figure 5 stacks.
    pub fn fractions(&self) -> (f64, f64, f64) {
        let t = self.total().max(1) as f64;
        (
            self.idempotent as f64 / t,
            self.non_idempotent as f64 / t,
            self.unknown as f64 / t,
        )
    }
}

/// Everything the pipeline produces for one module.
#[derive(Debug)]
pub struct EncoreOutcome {
    /// Final candidate regions with their selection decision, in the
    /// order matching [`encore_ir::RegionId`] assignment.
    pub candidates: Vec<(CandidateRegion, bool)>,
    /// The instrumented module plus recovery metadata.
    pub instrumented: InstrumentedModule,
    /// The γ implied by budget-driven selection (the ratio of the best
    /// rejected region; `config.gamma` when nothing was rejected).
    pub derived_gamma: f64,
    /// Estimated runtime overhead of the selected instrumentation
    /// (fraction of dynamic instructions).
    pub est_overhead: f64,
    /// Figure 6's execution breakdown.
    pub breakdown: ExecutionBreakdown,
    /// Figure 8's per-application coverage model (before masking).
    pub coverage: CoverageModel,
    /// Figure 8's full-system stack (after masking).
    pub full_system: FullSystemCoverage,
    /// Figure 5's verdict tallies.
    pub verdicts: VerdictCounts,
    /// Per-region one-liners.
    pub reports: Vec<RegionReport>,
    /// Total η-driven merges across functions.
    pub merges: usize,
}

/// The Encore compiler driver.
#[derive(Clone, PartialEq, Debug)]
pub struct Encore {
    config: EncoreConfig,
}

impl Encore {
    /// Creates a driver with the given configuration.
    pub fn new(config: EncoreConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &EncoreConfig {
        &self.config
    }

    /// Runs the full pipeline on `module` with training `profile`.
    pub fn run(&self, module: &Module, profile: &Profile) -> EncoreOutcome {
        let oracle = self
            .config
            .alias
            .oracle_with(Some(std::sync::Arc::new(profile.mem.clone())));
        let analyzer = IdempotenceAnalyzer::new(module, oracle.as_ref());

        // 1. Partition every function, sharded across worker threads in
        //    contiguous function-index ranges (the same deterministic
        //    pattern as the SFI campaign): each function's partition is
        //    independent of the others, and shard results are merged in
        //    function order, so the outcome is bit-identical to a
        //    sequential run for any worker count.
        let fids: Vec<FuncId> = module.iter_funcs().map(|(fid, _)| fid).collect();
        let n = fids.len();
        let workers = match self.config.analysis_workers {
            0 => std::thread::available_parallelism().map(usize::from).unwrap_or(1),
            w => w,
        }
        .clamp(1, n.max(1));
        let form = |fid: FuncId| {
            RegionPartition::form(module, fid, &analyzer, profile, &self.config)
        };
        let parts: Vec<RegionPartition> = if workers <= 1 {
            fids.iter().copied().map(form).collect()
        } else {
            let per = n.div_ceil(workers);
            let fids = &fids;
            let form = &form;
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        let (lo, hi) = (w * per, ((w + 1) * per).min(n));
                        scope.spawn(move || {
                            fids[lo..hi].iter().copied().map(form).collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("analysis worker panicked"))
                    .collect()
            })
        };
        let mut candidates: Vec<CandidateRegion> = Vec::new();
        let mut merges = 0usize;
        for part in parts {
            merges += part.merges;
            candidates.extend(part.regions);
        }

        // 2. Selection.
        let (selected_flags, derived_gamma, est_overhead) = self.select(&candidates);
        let candidates: Vec<(CandidateRegion, bool)> = candidates
            .into_iter()
            .zip(selected_flags)
            .collect();

        // 3. Instrumentation.
        let instrumented =
            instrument_module_with(module, &candidates, self.config.elide_reg_ckpts);

        // 4. Models and reports.
        let mut verdicts = VerdictCounts::default();
        let mut breakdown = ExecutionBreakdown::default();
        let mut model_regions: Vec<(f64, u64, bool)> = Vec::new();
        let mut reports = Vec::new();
        for (cand, selected) in &candidates {
            match cand.analysis.verdict {
                Verdict::Idempotent => verdicts.idempotent += 1,
                Verdict::NonIdempotent { .. } => verdicts.non_idempotent += 1,
                Verdict::Unknown => verdicts.unknown += 1,
            }
            if *selected {
                if cand.analysis.verdict.is_idempotent() {
                    breakdown.idempotent += cand.costing.exec_fraction;
                } else {
                    breakdown.checkpointed += cand.costing.exec_fraction;
                }
                model_regions.push((
                    cand.costing.exec_fraction,
                    cand.costing.avg_activation_len.round() as u64,
                    cand.analysis.verdict.is_idempotent(),
                ));
            }
            reports.push(RegionReport {
                func: cand.spec.func,
                func_name: module.func(cand.spec.func).name.clone(),
                header: cand.spec.header,
                block_count: cand.spec.blocks.len(),
                verdict: cand.analysis.verdict,
                protected: *selected,
                exec_fraction: cand.costing.exec_fraction,
                mem_ckpts: cand.analysis.cp.len(),
                reg_ckpts: cand.costing.reg_ckpts,
            });
        }
        // Execution not attributed to any candidate (unreachable blocks,
        // rounding) plus unselected regions is unprotected.
        breakdown.unprotected =
            (1.0 - breakdown.idempotent - breakdown.checkpointed).max(0.0);

        let coverage = CoverageModel::from_regions(
            model_regions,
            breakdown.unprotected,
            self.config.dmax,
        );
        let full_system = FullSystemCoverage::compose(ARM926_MASKING_RATE, &coverage);

        EncoreOutcome {
            candidates,
            instrumented,
            derived_gamma,
            est_overhead,
            breakdown,
            coverage,
            full_system,
            verdicts,
            reports,
            merges,
        }
    }

    /// Greedy budget-driven selection; returns per-candidate flags, the
    /// implied γ, and the estimated total overhead of the selection.
    fn select(&self, candidates: &[CandidateRegion]) -> (Vec<bool>, f64, f64) {
        let mut flags = vec![false; candidates.len()];
        // Rank protectable candidates by benefit per unit overhead.
        let mut ranked: Vec<usize> = (0..candidates.len())
            .filter(|&i| {
                let c = &candidates[i];
                c.analysis.verdict.is_protectable()
                    && c.gamma_ratio() > self.config.gamma
            })
            .collect();
        let benefit = |c: &CandidateRegion| -> f64 {
            c.costing.exec_fraction
                * crate::coverage::alpha(
                    c.costing.avg_activation_len.round() as u64,
                    self.config.dmax,
                )
        };
        let score = |c: &CandidateRegion| -> f64 {
            let b = benefit(c);
            let o = c.costing.est_overhead;
            if o <= 0.0 {
                f64::INFINITY
            } else {
                b / o
            }
        };
        ranked.sort_by(|&a, &b| {
            score(&candidates[b])
                .partial_cmp(&score(&candidates[a]))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(candidates[a].spec.header.cmp(&candidates[b].spec.header))
        });

        let budget = self.config.overhead_budget.unwrap_or(f64::INFINITY);
        let mut spent = 0.0;
        let mut derived_gamma = self.config.gamma;
        for &i in &ranked {
            let c = &candidates[i];
            if spent + c.costing.est_overhead <= budget {
                flags[i] = true;
                spent += c.costing.est_overhead;
            } else if derived_gamma == self.config.gamma {
                // First rejection fixes the empirically derived γ.
                derived_gamma = c.gamma_ratio();
            }
        }
        (flags, derived_gamma, spent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use encore_ir::{AddrExpr, BinOp, ModuleBuilder, Operand};

    /// A module with one hot idempotent streaming loop and one hot
    /// WAR-carrying accumulation loop.
    fn sample_module() -> (Module, FuncId) {
        let mut mb = ModuleBuilder::new("m");
        let src = mb.global("src", 64);
        let dst = mb.global("dst", 64);
        let acc = mb.global("acc", 1);
        let fid = mb.function("kernel", 1, |f| {
            let n = f.param(0);
            f.for_range(Operand::ImmI(0), n.into(), |f, i| {
                let v = f.load(AddrExpr::indexed(encore_ir::MemBase::Global(src), i, 1, 0));
                f.store(AddrExpr::indexed(encore_ir::MemBase::Global(dst), i, 1, 0), v.into());
            });
            f.for_range(Operand::ImmI(0), n.into(), |f, i| {
                let a = f.load(AddrExpr::global(acc, 0));
                let a2 = f.bin(BinOp::Add, a.into(), i.into());
                f.store(AddrExpr::global(acc, 0), a2.into());
            });
            f.ret(None);
        });
        (mb.finish(), fid)
    }

    fn flat_profile(m: &Module, fid: FuncId, count: u64) -> Profile {
        let mut p = Profile::empty_for(m);
        let mut dyn_insts = 0u64;
        for (b, blk) in m.func(fid).iter_blocks() {
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
    fn pipeline_runs_end_to_end() {
        let (m, fid) = sample_module();
        let profile = flat_profile(&m, fid, 100);
        let outcome = Encore::new(EncoreConfig::default()).run(&m, &profile);
        assert!(!outcome.candidates.is_empty());
        encore_ir::verify_module(&outcome.instrumented.module)
            .expect("instrumented module verifies");
        // Both loops should be protectable; at least one idempotent
        // region and one checkpointed region in the breakdown.
        assert!(outcome.breakdown.protected_fraction() > 0.0);
        assert!(outcome.full_system.total() > outcome.full_system.masked);
    }

    #[test]
    fn budget_zero_selects_nothing() {
        let (m, fid) = sample_module();
        let profile = flat_profile(&m, fid, 100);
        let config = EncoreConfig::default().with_overhead_budget(0.0);
        let outcome = Encore::new(config).run(&m, &profile);
        // Regions with zero estimated overhead (never-executed) may still
        // be selected; everything with real overhead must not be.
        for (cand, sel) in &outcome.candidates {
            if *sel {
                assert_eq!(cand.costing.est_overhead, 0.0);
            }
        }
        assert_eq!(outcome.est_overhead, 0.0);
    }

    #[test]
    fn est_overhead_within_budget() {
        let (m, fid) = sample_module();
        let profile = flat_profile(&m, fid, 100);
        let config = EncoreConfig::default().with_overhead_budget(0.2);
        let outcome = Encore::new(config).run(&m, &profile);
        assert!(outcome.est_overhead <= 0.2 + 1e-9);
    }

    #[test]
    fn breakdown_fractions_form_a_partition() {
        let (m, fid) = sample_module();
        let profile = flat_profile(&m, fid, 100);
        let outcome = Encore::new(EncoreConfig::default()).run(&m, &profile);
        let b = outcome.breakdown;
        let sum = b.idempotent + b.checkpointed + b.unprotected;
        assert!((sum - 1.0).abs() < 1e-6, "sum = {sum}");
    }

    #[test]
    fn verdict_counts_cover_all_regions() {
        let (m, fid) = sample_module();
        let profile = flat_profile(&m, fid, 100);
        let outcome = Encore::new(EncoreConfig::default()).run(&m, &profile);
        assert_eq!(outcome.verdicts.total(), outcome.candidates.len());
        assert_eq!(outcome.reports.len(), outcome.candidates.len());
    }

    #[test]
    fn optimistic_alias_never_increases_checkpoints() {
        let (m, fid) = sample_module();
        let profile = flat_profile(&m, fid, 100);
        let static_out =
            Encore::new(EncoreConfig::default()).run(&m, &profile);
        let opt_out = Encore::new(
            EncoreConfig::default().with_alias(encore_analysis::AliasMode::Optimistic),
        )
        .run(&m, &profile);
        let static_cp: usize =
            static_out.candidates.iter().map(|(c, _)| c.analysis.cp.len()).sum();
        let opt_cp: usize =
            opt_out.candidates.iter().map(|(c, _)| c.analysis.cp.len()).sum();
        assert!(opt_cp <= static_cp, "optimistic {opt_cp} > static {static_cp}");
    }
}
