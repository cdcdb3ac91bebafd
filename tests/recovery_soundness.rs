//! The central soundness property of the whole system, checked with real
//! fault injection on both suite workloads and random programs:
//!
//! > A fault injected inside a *protected* region and detected before
//! > control leaves it (latency 0) is always recovered — the rollback
//! > restores checkpointed state and re-execution reproduces the golden
//! > run exactly.
//!
//! Pruning is disabled (`Pmin = ∅`) so the guarantee is unconditional
//! (no statistical gamble), exactly the regime in which the paper's
//! analysis claims full re-executability.

mod common;

use common::prop::{check, prop_assert};
use encore::analysis::IntervalHierarchy;
use encore::core::{Encore, EncoreConfig};
use encore::ir::{AddrExpr, BinOp, ModuleBuilder, Operand};
use encore::sim::{run_function, FaultPlan, RunConfig, Value};
use encore::workloads::fuzz;

/// Instruments with an unlimited budget and no pruning; checks the
/// latency-0 property for `probes` distinct injection points spread
/// over the run and returns how many of them landed in a protected
/// region (the only ones the property constrains).
fn check_latency_zero(
    module: &encore_ir::Module,
    entry: encore_ir::FuncId,
    arg: i64,
    probes: u64,
) -> u64 {
    let train = run_function(
        module,
        None,
        entry,
        &[Value::Int(arg)],
        &RunConfig { collect_profile: true, ..Default::default() },
    );
    assert!(train.completed);
    let config = EncoreConfig::default()
        .with_pmin(None)
        .with_overhead_budget(1e9);
    let outcome = Encore::new(config).run(module, train.profile.as_ref().unwrap());
    let imodule = &outcome.instrumented.module;
    let map = &outcome.instrumented.map;

    let golden = run_function(imodule, Some(map), entry, &[Value::Int(arg)], &RunConfig::default());
    assert!(golden.completed);
    let space = golden.eligible_insts.max(1);
    // A program with fewer eligible instructions than `probes` has each
    // of them probed once.
    let probes = probes.min(space);

    let mut checked = 0;
    for p in 0..probes {
        let inject_at = p * space / probes;
        let plan = FaultPlan::bit_flip(inject_at, (p % 61) as u8, 0);
        let run = run_function(
            imodule,
            Some(map),
            entry,
            &[Value::Int(arg)],
            &RunConfig { fault: Some(plan), fuel: golden.dyn_insts * 4 + 10_000, ..Default::default() },
        );
        if !run.fault.injected {
            continue;
        }
        // Only faults whose site sits in a *protected* region carry the
        // guarantee.
        let Some((func, block)) = run.fault.inject_site else { continue };
        let protected = map
            .region_of(func, block)
            .map(|rid| map.info(rid).protected)
            .unwrap_or(false);
        if !protected {
            continue;
        }
        checked += 1;
        assert!(
            run.completed,
            "latency-0 fault at {inject_at} in protected region trapped: {:?}",
            run.trap
        );
        assert!(
            run.observably_equal(&golden),
            "latency-0 fault at {inject_at} ({:?}) in protected region of {}:{} \
             was not recovered",
            plan.action,
            func,
            block,
        );
    }
    checked
}

#[test]
fn latency_zero_recovery_on_suite_workloads() {
    for name in ["rawcaudio", "172.mgrid", "164.gzip", "g721decode", "183.equake"] {
        let w = encore::workloads::by_name(name).expect("workload");
        check_latency_zero(&w.module, w.entry, w.train_arg, 60);
    }
}

#[test]
fn rollback_actually_happens_under_short_latency() {
    // Sanity: with short latencies across many probes, at least one
    // injection must exercise the rollback machinery.
    let w = encore::workloads::by_name("g721encode").expect("workload");
    let train = run_function(
        &w.module,
        None,
        w.entry,
        &[Value::Int(w.train_arg)],
        &RunConfig { collect_profile: true, ..Default::default() },
    );
    let outcome = Encore::new(EncoreConfig::default().with_overhead_budget(1e9))
        .run(&w.module, train.profile.as_ref().unwrap());
    let golden = run_function(
        &outcome.instrumented.module,
        Some(&outcome.instrumented.map),
        w.entry,
        &[Value::Int(w.train_arg)],
        &RunConfig::default(),
    );
    let mut rollbacks = 0;
    for p in 0..40u64 {
        let plan = FaultPlan::bit_flip(p * golden.eligible_insts / 40, 3, 2);
        let run = run_function(
            &outcome.instrumented.module,
            Some(&outcome.instrumented.map),
            w.entry,
            &[Value::Int(w.train_arg)],
            &RunConfig { fault: Some(plan), ..Default::default() },
        );
        if run.fault.rolled_back {
            rollbacks += 1;
        }
    }
    assert!(rollbacks > 0, "no injection ever triggered a rollback");
}

/// A read-modify-write of one global cell: the smallest protected region
/// whose latency-0 recovery depends on restoring a memory checkpoint,
/// since a fault after the store re-executes the load, which must see the
/// old value again. Fuzz programs seldom load a cell and store a value
/// derived from it back in one protected region, so the random-program
/// property below does not reliably cover this.
#[test]
fn latency_zero_recovery_restores_memory_checkpoints() {
    let mut mb = ModuleBuilder::new("rmw");
    let g = mb.global_init("g", 4, vec![3, 1, 4, 1]);
    let entry = mb.function("main", 1, |f| {
        let p = f.param(0);
        let x = f.load(AddrExpr::global(g, 1));
        let y = f.bin(BinOp::Add, x.into(), p.into());
        f.store(AddrExpr::global(g, 1), y.into());
        let z = f.bin(BinOp::Mul, y.into(), Operand::ImmI(3));
        f.ret(Some(z.into()));
    });
    assert!(check_latency_zero(&mb.finish(), entry, 5, 64) > 0, "region not protected");
}

/// An irreducible cycle, `entry → {a, b}`, `a → b`, `b → {a, exit}`,
/// with a read-modify-write of a global cell in `a` and in `b`. The
/// builder's structured loops never make one, and the cycle's two
/// entries keep it out of every single interval. An odd argument
/// enters the cycle at `a`, an even one at `b`.
#[test]
fn latency_zero_recovery_on_an_irreducible_cycle() {
    let mut mb = ModuleBuilder::new("irreducible");
    let g = mb.global_init("g", 2, vec![7, 2]);
    let entry = mb.function("main", 1, |f| {
        let n = f.param(0);
        let i = f.mov(n.into());
        let a = f.add_block();
        let b = f.add_block();
        let exit = f.add_block();
        let odd = f.bin(BinOp::And, n.into(), Operand::ImmI(1));
        f.branch(odd.into(), a, b);
        f.switch_to(a);
        let x = f.load(AddrExpr::global(g, 0));
        let x = f.bin(BinOp::Add, x.into(), i.into());
        f.store(AddrExpr::global(g, 0), x.into());
        f.jump(b);
        f.switch_to(b);
        let y = f.load(AddrExpr::global(g, 1));
        let y = f.bin(BinOp::Mul, y.into(), Operand::ImmI(3));
        f.store(AddrExpr::global(g, 1), y.into());
        f.bin_to(i, BinOp::Sub, i.into(), Operand::ImmI(1));
        let more = f.bin(BinOp::Lt, Operand::ImmI(0), i.into());
        f.branch(more.into(), a, exit);
        f.switch_to(exit);
        let z = f.load(AddrExpr::global(g, 0));
        f.ret(Some(z.into()));
    });
    let module = mb.finish();
    let hierarchy = IntervalHierarchy::compute(module.func(entry));
    assert!(hierarchy.levels.last().unwrap().len() > 1, "the cycle is reducible: {hierarchy:?}");
    for arg in [5, 6] {
        let checked = check_latency_zero(&module, entry, arg, 64);
        assert!(checked > 0, "argument {arg}: no protected-region probe checked");
    }
}

/// Latency-0 recovery holds on random programs, not just the curated
/// suite. Only probes landing in a protected region are checked, and
/// none of the fuzz grammar's regions holding the entry block (with the
/// prologue's heap allocation) or a `print` (an unknown extern effect)
/// is ever protected, so loop-free programs add nothing. The floor on
/// the checked total makes a change that protects fewer of these
/// regions fail here instead of silently checking less.
#[test]
fn latency_zero_recovery_on_random_programs() {
    let checked = std::cell::Cell::new(0);
    check("latency_zero_recovery_on_random_programs", 24, fuzz::gen_program, |prog| {
        let (module, entry) = fuzz::build(prog);
        checked.set(checked.get() + check_latency_zero(&module, entry, 5, 48));
        Ok(())
    });
    assert!(checked.get() >= 288, "only {} protected-region probes checked", checked.get());
}

/// Instrumentation never changes fault-free behavior on random
/// programs.
#[test]
fn instrumentation_is_transparent_on_random_programs() {
    check("instrumentation_is_transparent_on_random_programs", 24, fuzz::gen_program, |prog| {
        let (module, entry) = fuzz::build(prog);
        let train = run_function(
            &module,
            None,
            entry,
            &[Value::Int(5)],
            &RunConfig { collect_profile: true, ..Default::default() },
        );
        prop_assert!(train.completed);
        let outcome = Encore::new(EncoreConfig::default().with_overhead_budget(1e9))
            .run(&module, train.profile.as_ref().unwrap());
        encore::ir::verify_module(&outcome.instrumented.module).expect("valid IR");
        let baseline =
            run_function(&module, None, entry, &[Value::Int(9)], &RunConfig::default());
        let instrumented = run_function(
            &outcome.instrumented.module,
            Some(&outcome.instrumented.map),
            entry,
            &[Value::Int(9)],
            &RunConfig::default(),
        );
        prop_assert!(instrumented.completed);
        prop_assert!(instrumented.observably_equal(&baseline));
        Ok(())
    });
}
