//! Property-based invariants of the analysis stack, exercised on random
//! generated programs: printer/parser round-trips, dominator-tree laws,
//! region partition well-formedness, alias-oracle monotonicity, and
//! analysis determinism.

mod common;

use common::prop::{check, prop_assert, prop_assert_eq, Bounded};
use common::Fuzzed;
use encore::analysis::{DomTree, IntervalHierarchy, LoopForest, Profile};
use encore::analysis::{OptimisticAlias, StaticAlias};
use encore::core::idempotence::{IdempotenceAnalyzer, RegionSpec, Verdict};
use encore::ir::parse_module;
use encore::workloads::fuzz;

const CASES: u64 = 48;

/// `parse(print(m)) == m` for every generated module.
#[test]
fn print_parse_roundtrip() {
    check::<Fuzzed>("print_parse_roundtrip", CASES, |prog| {
        let (module, _) = fuzz::build(&prog.0);
        let text = module.to_string();
        let reparsed = parse_module(&text)
            .unwrap_or_else(|e| panic!("parse failed: {e}\n{text}"));
        prop_assert_eq!(reparsed, module);
        Ok(())
    });
}

/// Dominator-tree laws: the entry dominates everything reachable,
/// idom(b) strictly dominates b, and dominance is transitive along
/// idom chains.
#[test]
fn dominator_laws() {
    check::<Fuzzed>("dominator_laws", CASES, |prog| {
        let (module, entry) = fuzz::build(&prog.0);
        let func = module.func(entry);
        let dom = DomTree::compute(func);
        for b in func.block_ids() {
            if !dom.is_reachable(b) {
                continue;
            }
            prop_assert!(dom.dominates(func.entry(), b));
            prop_assert!(dom.dominates(b, b));
            if let Some(idom) = dom.idom(b) {
                prop_assert!(dom.dominates(idom, b));
                prop_assert!(idom != b);
            }
        }
        Ok(())
    });
}

/// Interval invariants: each level partitions the reachable blocks
/// and every interval header dominates its members (SEME-ness).
#[test]
fn interval_laws() {
    check::<Fuzzed>("interval_laws", CASES, |prog| {
        let (module, entry) = fuzz::build(&prog.0);
        let func = module.func(entry);
        let dom = DomTree::compute(func);
        let hierarchy = IntervalHierarchy::compute(func);
        let reachable: std::collections::BTreeSet<_> = func
            .block_ids()
            .filter(|b| dom.is_reachable(*b))
            .collect();
        for level in &hierarchy.levels {
            let mut seen = std::collections::BTreeSet::new();
            for iv in level {
                for b in &iv.blocks {
                    prop_assert!(seen.insert(*b), "block in two intervals");
                    prop_assert!(dom.dominates(iv.header, *b));
                }
            }
            prop_assert_eq!(&seen, &reachable);
        }
        Ok(())
    });
}

/// Builder-generated CFGs are reducible: every cycle is a natural
/// loop and nesting is strict containment.
#[test]
fn loops_are_reducible() {
    check::<Fuzzed>("loops_are_reducible", CASES, |prog| {
        let (module, entry) = fuzz::build(&prog.0);
        let func = module.func(entry);
        let dom = DomTree::compute(func);
        let forest = LoopForest::compute(func, &dom);
        prop_assert!(!forest.irreducible);
        for (i, l) in forest.loops.iter().enumerate() {
            prop_assert!(l.blocks.contains(&l.header));
            prop_assert!(!l.latches.is_empty());
            if let Some(p) = l.parent {
                prop_assert!(l.blocks.is_subset(&forest.loops[p].blocks));
                prop_assert!(p != i);
            }
        }
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
    check::<Fuzzed>("optimistic_is_never_worse", CASES, |prog| {
        let (module, entry) = fuzz::build(&prog.0);
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
    check::<(Fuzzed, Bounded<0, 6>)>("pruning_shrinks_cp", CASES, |(prog, cutoff)| {
        let cutoff = cutoff.0 as u32;
        let (module, entry) = fuzz::build(&prog.0);
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
    check::<(Fuzzed, Bounded<0, 6>)>(
        "worklist_engine_matches_reference",
        CASES,
        |(prog, cutoff)| {
            let cutoff = cutoff.0 as u32;
            let (module, entry) = fuzz::build(&prog.0);
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
    check::<Fuzzed>("pipeline_is_deterministic", CASES, |prog| {
        use encore::core::{Encore, EncoreConfig};
        let (module, entry) = fuzz::build(&prog.0);
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
