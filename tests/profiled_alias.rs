//! Integration tests for the profile-guided alias oracle (the paper's
//! "more aggressive dynamic memory profiling" future work, §5.3 /
//! footnote 2).

mod common;

use common::prop::{check, prop_assert};
use common::Fuzzed;
use encore::analysis::{AliasMode, ProfiledAlias, StaticAlias};
use encore::core::idempotence::{IdempotenceAnalyzer, RegionSpec};
use encore::core::{Encore, EncoreConfig};
use encore::ir::{AddrExpr, BinOp, MemBase, ModuleBuilder, Operand};
use encore::sim::{run_function, RunConfig, Value};
use encore::workloads::fuzz;
use std::sync::Arc;

/// An arena kernel: input half and output half of one global. Statically
/// every store may alias every load; dynamically they never do.
fn arena_kernel() -> (encore::ir::Module, encore::ir::FuncId) {
    let mut mb = ModuleBuilder::new("arena");
    let arena = mb.global_init("arena", 64, (0..32).collect());
    let entry = mb.function("double_halves", 1, |f| {
        let n = f.param(0);
        f.for_range(Operand::ImmI(0), n.into(), |f, i| {
            let v = f.load(AddrExpr::indexed(MemBase::Global(arena), i, 1, 0));
            let v2 = f.bin(BinOp::Mul, v.into(), Operand::ImmI(2));
            f.store(AddrExpr::indexed(MemBase::Global(arena), i, 1, 32), v2.into());
        });
        f.ret(None);
    });
    (mb.finish(), entry)
}

fn train(m: &encore::ir::Module, entry: encore::ir::FuncId, arg: i64) -> encore::analysis::Profile {
    run_function(
        m,
        None,
        entry,
        &[Value::Int(arg)],
        &RunConfig { collect_profile: true, ..Default::default() },
    )
    .profile
    .expect("profile")
}

#[test]
fn arena_kernel_is_non_idempotent_statically_but_clean_under_profile() {
    let (m, entry) = arena_kernel();
    let profile = train(&m, entry, 32);
    let spec = RegionSpec {
        func: entry,
        header: m.func(entry).entry(),
        blocks: m.func(entry).block_ids().collect(),
    };

    let st = IdempotenceAnalyzer::new(&m, &StaticAlias).analyze_region(&spec, &|_| false);
    assert!(!st.cp.is_empty(), "static oracle must checkpoint the arena store");

    let oracle = ProfiledAlias::new(Arc::new(profile.mem.clone()));
    let pr = IdempotenceAnalyzer::new(&m, &oracle).analyze_region(&spec, &|_| false);
    assert!(
        pr.cp.is_empty(),
        "profiled oracle should prove the halves disjoint: {:?}",
        pr.cp
    );
    assert!(pr.verdict.is_idempotent());
}

#[test]
fn profiled_pipeline_stays_transparent_on_arena_kernel() {
    let (m, entry) = arena_kernel();
    let profile = train(&m, entry, 32);
    let outcome = Encore::new(EncoreConfig::default().with_alias(AliasMode::Profiled))
        .run(&m, &profile);
    let baseline = run_function(&m, None, entry, &[Value::Int(32)], &RunConfig::default());
    let instrumented = run_function(
        &outcome.instrumented.module,
        Some(&outcome.instrumented.map),
        entry,
        &[Value::Int(32)],
        &RunConfig::default(),
    );
    assert!(instrumented.observably_equal(&baseline));
}

#[test]
fn empty_profile_degrades_to_static() {
    let (m, entry) = arena_kernel();
    let spec = RegionSpec {
        func: entry,
        header: m.func(entry).entry(),
        blocks: m.func(entry).block_ids().collect(),
    };
    let st = IdempotenceAnalyzer::new(&m, &StaticAlias).analyze_region(&spec, &|_| false);
    let oracle = ProfiledAlias::default();
    let pr = IdempotenceAnalyzer::new(&m, &oracle).analyze_region(&spec, &|_| false);
    assert_eq!(st.cp.len(), pr.cp.len());
    assert_eq!(st.verdict, pr.verdict);
}

#[test]
fn mesa_and_equake_gain_from_profiling() {
    for name in ["177.mesa", "183.equake"] {
        let w = encore::workloads::by_name(name).expect("workload");
        let profile = train(&w.module, w.entry, w.train_arg);
        let st =
            Encore::new(EncoreConfig::default().with_alias(AliasMode::Static)).run(&w.module, &profile);
        let pr = Encore::new(EncoreConfig::default().with_alias(AliasMode::Profiled))
            .run(&w.module, &profile);
        let st_cp: usize = st.candidates.iter().map(|(c, _)| c.analysis.cp.len()).sum();
        let pr_cp: usize = pr.candidates.iter().map(|(c, _)| c.analysis.cp.len()).sum();
        assert!(
            pr_cp < st_cp,
            "{name}: profiled ({pr_cp}) should need fewer checkpoints than static ({st_cp})"
        );
        assert!(
            pr.breakdown.protected_fraction() >= st.breakdown.protected_fraction(),
            "{name}: profiling should never lose coverage"
        );
    }
}

/// On random programs the profiled oracle never needs more
/// checkpoints than the static one, and the instrumented module is
/// still transparent.
#[test]
fn profiled_never_worse_than_static() {
    check::<Fuzzed>("profiled_never_worse_than_static", 24, |prog| {
        let (m, entry) = fuzz::build(&prog.0);
        let profile = train(&m, entry, 5);
        let spec = RegionSpec {
            func: entry,
            header: m.func(entry).entry(),
            blocks: m.func(entry).block_ids().collect(),
        };
        let st = IdempotenceAnalyzer::new(&m, &StaticAlias)
            .analyze_region(&spec, &|_| false);
        let oracle = ProfiledAlias::new(Arc::new(profile.mem.clone()));
        let pr = IdempotenceAnalyzer::new(&m, &oracle)
            .analyze_region(&spec, &|_| false);
        prop_assert!(pr.cp.len() <= st.cp.len());

        let outcome = Encore::new(
            EncoreConfig::default()
                .with_alias(AliasMode::Profiled)
                .with_overhead_budget(1e9),
        )
        .run(&m, &profile);
        let baseline =
            run_function(&m, None, entry, &[Value::Int(5)], &RunConfig::default());
        let instrumented = run_function(
            &outcome.instrumented.module,
            Some(&outcome.instrumented.map),
            entry,
            &[Value::Int(5)],
            &RunConfig::default(),
        );
        prop_assert!(instrumented.observably_equal(&baseline));
        Ok(())
    });
}
