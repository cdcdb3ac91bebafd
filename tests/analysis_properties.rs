//! Property-based invariants of the analysis stack, exercised on random
//! generated programs: printer/parser round-trips, interval laws
//! (partition, single entry, reducibility), alias-oracle monotonicity,
//! and analysis determinism.

mod common;

use common::prop::{check, prop_assert, prop_assert_eq};
use encore::analysis::{order, IntervalHierarchy, Profile};
use encore::analysis::{OptimisticAlias, StaticAlias};
use encore::core::idempotence::{IdempotenceAnalyzer, RegionSpec, Verdict};
use encore::ir::parse_module;
use encore::workloads::fuzz;

const CASES: u64 = 48;

/// `parse(print(m)) == m` for every generated module.
#[test]
fn print_parse_roundtrip() {
    check("print_parse_roundtrip", CASES, fuzz::gen_program, |prog| {
        let (module, _) = fuzz::build(prog);
        let text = module.to_string();
        let reparsed = parse_module(&text)
            .unwrap_or_else(|e| panic!("parse failed: {e}\n{text}"));
        prop_assert_eq!(reparsed, module);
        Ok(())
    });
}

/// Interval invariants: each level partitions the reachable blocks,
/// and every interval is single-entry (SEME): with its header removed,
/// none of its members is reachable from the function entry.
#[test]
fn interval_laws() {
    check("interval_laws", CASES, fuzz::gen_program, |prog| {
        let (module, entry) = fuzz::build(prog);
        let func = module.func(entry);
        let hierarchy = IntervalHierarchy::compute(func);
        let reachable = order::reachable_from(func, func.entry(), None);
        for level in &hierarchy.levels {
            let mut seen = std::collections::BTreeSet::new();
            for iv in level {
                let others = func.block_ids().filter(|&b| b != iv.header).collect();
                let entered = order::reachable_from(func, func.entry(), Some(&others));
                prop_assert!(entered.is_disjoint(&iv.blocks), "interval entered past its header");
                for b in &iv.blocks {
                    prop_assert!(seen.insert(*b), "block in two intervals");
                }
            }
            prop_assert_eq!(&seen, &reachable);
        }
        Ok(())
    });
}

/// Builder-generated CFGs are reducible: the derived sequence of
/// interval graphs ends in one interval, headed by the entry, that
/// covers every reachable block.
#[test]
fn loops_are_reducible() {
    check("loops_are_reducible", CASES, fuzz::gen_program, |prog| {
        let (module, entry) = fuzz::build(prog);
        let func = module.func(entry);
        let hierarchy = IntervalHierarchy::compute(func);
        let last = hierarchy.levels.last().expect("at least one level");
        prop_assert_eq!(last.len(), 1);
        prop_assert_eq!(last[0].header, func.entry());
        prop_assert_eq!(&last[0].blocks, &order::reachable_from(func, func.entry(), None));
        Ok(())
    });
}

/// The optimistic oracle never needs more checkpoints than the
/// conservative one, and an idempotent-under-static region stays
/// idempotent under optimistic. Checked on the whole function and on
/// every interval of every hierarchy level: the fuzz prologue's heap
/// allocation makes any region holding the entry block unprotectable,
/// so only loop intervals can reach the `Idempotent` clause, and the
/// test fails unless a quarter of the cases do.
#[test]
fn optimistic_is_never_worse() {
    let idempotent_cases = std::cell::Cell::new(0);
    check("optimistic_is_never_worse", CASES, fuzz::gen_program, |prog| {
        let (module, entry) = fuzz::build(prog);
        let func = module.func(entry);
        let whole = (func.entry(), func.block_ids().collect());
        let intervals = IntervalHierarchy::compute(func)
            .levels
            .into_iter()
            .flatten()
            .map(|iv| (iv.header, iv.blocks));
        let mut reached = false;
        for (header, blocks) in std::iter::once(whole).chain(intervals) {
            let spec = RegionSpec { func: entry, header, blocks };
            let st = IdempotenceAnalyzer::new(&module, &StaticAlias)
                .analyze_region(&spec, &|_| false);
            let op = IdempotenceAnalyzer::new(&module, &OptimisticAlias)
                .analyze_region(&spec, &|_| false);
            prop_assert!(op.cp.len() <= st.cp.len());
            if st.verdict == Verdict::Idempotent {
                prop_assert_eq!(op.verdict, Verdict::Idempotent);
                reached = true;
            }
        }
        idempotent_cases.set(idempotent_cases.get() + u64::from(reached));
        Ok(())
    });
    let reached = idempotent_cases.get();
    assert!(reached >= CASES / 4, "only {reached} cases had a statically idempotent region");
}

/// Pruning blocks can only shrink the checkpoint set.
#[test]
fn pruning_shrinks_cp() {
    check("pruning_shrinks_cp", CASES, |g| (fuzz::gen_program(g), g.i64(0, 6)), |(prog, cutoff)| {
        let cutoff = *cutoff as u32;
        let (module, entry) = fuzz::build(prog);
        let spec = RegionSpec {
            func: entry,
            header: module.func(entry).entry(),
            blocks: module.func(entry).block_ids().collect(),
        };
        let az = IdempotenceAnalyzer::new(&module, &StaticAlias);
        let full = az.analyze_region(&spec, &|_| false);
        // Prune a deterministic subset of non-header blocks.
        let pruned = az.analyze_region(&spec, &|b| b.raw() % 7 < cutoff && b.raw() != 0);
        prop_assert!(pruned.cp.len() <= full.cp.len());
        Ok(())
    });
}

/// The bitset worklist engine agrees bit-for-bit with the retained
/// naive round-robin reference solver — verdict, CP, violations, and
/// block sets — with and without pruning.
#[test]
fn worklist_engine_matches_reference() {
    check(
        "worklist_engine_matches_reference",
        CASES,
        |g| (fuzz::gen_program(g), g.i64(0, 6)),
        |(prog, cutoff)| {
            let cutoff = *cutoff as u32;
            let (module, entry) = fuzz::build(prog);
            let spec = RegionSpec {
                func: entry,
                header: module.func(entry).entry(),
                blocks: module.func(entry).block_ids().collect(),
            };
            let az = IdempotenceAnalyzer::new(&module, &StaticAlias);
            prop_assert_eq!(
                az.analyze_region(&spec, &|_| false),
                az.analyze_region_reference(&spec, &|_| false)
            );
            let prune =
                |b: encore::ir::BlockId| b.raw() % 7 < cutoff && b.raw() != 0;
            prop_assert_eq!(
                az.analyze_region(&spec, &prune),
                az.analyze_region_reference(&spec, &prune)
            );
            Ok(())
        },
    );
}

/// The whole pipeline is deterministic.
#[test]
fn pipeline_is_deterministic() {
    check("pipeline_is_deterministic", CASES, fuzz::gen_program, |prog| {
        use encore::core::{Encore, EncoreConfig};
        let (module, entry) = fuzz::build(prog);
        let train = encore::sim::run_function(
            &module,
            None,
            entry,
            &[encore::sim::Value::Int(4)],
            &encore::sim::RunConfig { collect_profile: true, ..Default::default() },
        );
        let profile: Profile = train.profile.expect("profile");
        let a = Encore::new(EncoreConfig::default()).run(&module, &profile);
        let b = Encore::new(EncoreConfig::default()).run(&module, &profile);
        prop_assert_eq!(a.instrumented.module, b.instrumented.module);
        prop_assert_eq!(a.est_overhead, b.est_overhead);
        Ok(())
    });
}
