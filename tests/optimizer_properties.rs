//! Property tests for the optimizer: every pass combination must
//! preserve program semantics on random programs and on the whole
//! workload suite, and optimized programs must remain analyzable and
//! protectable by Encore.

mod common;

use common::prop::{check, prop_assert, prop_assert_eq, Bounded};
use common::Fuzzed;
use encore::core::{Encore, EncoreConfig};
use encore::ir::{parse_module, verify_module, FuncId, Module};
use encore::opt::optimize_module;
use encore::sim::{run_function, RunConfig, Value};
use encore::workloads::fuzz;

const CASES: u64 = 48;

/// The property body of `optimization_preserves_semantics`, shared with
/// the named regression case below. Returns the dynamic instruction
/// counts of the baseline and optimized runs.
fn semantics_preserved(module: &Module, entry: FuncId, arg: i64) -> Result<(u64, u64), String> {
    let baseline =
        run_function(module, None, entry, &[Value::Int(arg)], &RunConfig::default());
    prop_assert!(baseline.completed);

    let mut optimized = module.clone();
    optimize_module(&mut optimized);
    verify_module(&optimized).expect("optimized module verifies");

    let opt_run =
        run_function(&optimized, None, entry, &[Value::Int(arg)], &RunConfig::default());
    prop_assert!(opt_run.completed);
    prop_assert!(opt_run.observably_equal(&baseline));
    // No strict "never slower" claim: LICM speculates pure
    // computations out of conditional arms (profitable on hot loops,
    // a few extra instructions when the arm never runs — property
    // testing found exactly that counterexample; see the regression
    // below). Static code size may grow only by the inserted preheader
    // jumps.
    let loops = optimized.funcs.iter().map(|f| f.blocks.len()).sum::<usize>();
    prop_assert!(
        optimized.static_inst_count() <= module.static_inst_count() + loops,
        "static size grew beyond preheader jumps"
    );
    Ok((baseline.dyn_insts, opt_run.dyn_insts))
}

/// `optimize(p)` is observably equivalent to `p` on random programs.
#[test]
fn optimization_preserves_semantics() {
    check::<(Fuzzed, Bounded<0, 12>)>(
        "optimization_preserves_semantics",
        CASES,
        |(prog, arg)| {
            let (module, entry) = fuzz::build(&prog.0);
            semantics_preserved(&module, entry, arg.0).map(|_| ())
        },
    );
}

/// The shrunk counterexample proptest once recorded in
/// `optimizer_properties.proptest-regressions`: a single-trip loop whose
/// cold `else` arm both loads and stores `g0` through a dynamic index,
/// kept as the exact module the statement-tree generator of that time
/// built for it.
const LICM_COLD_ELSE_ARM: &str = r#"module "generated" {
  heap_sites 0
  global "g0" cells=8 init=[3,1,4,1,5,9,2,6]
  global "g1" cells=8 init=[3,1,4,1,5,9,2,6]
  global "g2" cells=8 init=[3,1,4,1,5,9,2,6]
  func "main" params=1 regs=8 slots=[] {
  bb0:
    r1 = mul r0, 7
    r2 = mov 0
    r3 = mov 1
    jmp bb1
  bb1:
    r4 = lt r2, r3
    br r4, bb2, bb3
  bb2:
    br r0, bb4, bb5
  bb3:
    ret r1
  bb4:
    jmp bb6
  bb5:
    r5 = and r0, 7
    r6 = load g0[r5*1+0]
    r7 = and r0, 7
    store g0[r7*1+0], r0
    jmp bb6
  bb6:
    r2 = add r2, 1
    jmp bb1
  }
}
"#;

/// At arg 1 the `else` arm never runs, yet LICM hoists its two masked
/// index computations out of the loop, so the optimized run retires 14
/// dynamic instructions to the baseline's 13 — the reason the property
/// above bounds *static* size plus preheader jumps instead of claiming
/// "never slower". Kept as an explicit named case so it runs on every
/// suite invocation, shrink-free.
#[test]
fn regression_licm_speculates_cold_indexed_else_arm() {
    let module = parse_module(LICM_COLD_ELSE_ARM).expect("regression module parses");
    verify_module(&module).expect("regression module verifies");
    let entry = module.func_by_name("main").expect("entry function");
    let (baseline, optimized) =
        semantics_preserved(&module, entry, 1).expect("regression case must pass");
    assert_eq!((baseline, optimized), (13, 14), "LICM no longer speculates the cold arm");
}

/// Encore still protects optimized random programs transparently.
#[test]
fn optimized_programs_remain_protectable() {
    check::<Fuzzed>("optimized_programs_remain_protectable", CASES, |prog| {
        let (module, entry) = fuzz::build(&prog.0);
        let mut optimized = module;
        optimize_module(&mut optimized);

        let train = run_function(
            &optimized,
            None,
            entry,
            &[Value::Int(5)],
            &RunConfig { collect_profile: true, ..Default::default() },
        );
        prop_assert!(train.completed);
        let outcome = Encore::new(EncoreConfig::default().with_overhead_budget(1e9))
            .run(&optimized, train.profile.as_ref().unwrap());
        verify_module(&outcome.instrumented.module).expect("instrumented verifies");

        let baseline =
            run_function(&optimized, None, entry, &[Value::Int(7)], &RunConfig::default());
        let instrumented = run_function(
            &outcome.instrumented.module,
            Some(&outcome.instrumented.map),
            entry,
            &[Value::Int(7)],
            &RunConfig::default(),
        );
        prop_assert!(instrumented.completed);
        prop_assert!(instrumented.observably_equal(&baseline));
        Ok(())
    });
}

/// Optimization is idempotent: a second run changes nothing.
#[test]
fn optimization_is_idempotent() {
    check::<Fuzzed>("optimization_is_idempotent", CASES, |prog| {
        let (module, _) = fuzz::build(&prog.0);
        let mut once = module;
        optimize_module(&mut once);
        let mut twice = once.clone();
        let stats = optimize_module(&mut twice);
        prop_assert_eq!(&once, &twice);
        prop_assert_eq!(stats.iterations, 1);
        Ok(())
    });
}

#[test]
fn whole_suite_is_optimization_stable() {
    // Every workload must behave identically after optimization, on its
    // evaluation input.
    for w in encore::workloads::all() {
        let baseline = run_function(
            &w.module,
            None,
            w.entry,
            &[Value::Int(w.eval_arg)],
            &RunConfig::default(),
        );
        assert!(baseline.completed, "{}", w.name);
        let mut optimized = w.module.clone();
        let stats = optimize_module(&mut optimized);
        verify_module(&optimized).unwrap_or_else(|e| panic!("{}: {e:?}", w.name));
        let opt_run = run_function(
            &optimized,
            None,
            w.entry,
            &[Value::Int(w.eval_arg)],
            &RunConfig::default(),
        );
        assert!(opt_run.completed, "{}", w.name);
        assert!(
            opt_run.observably_equal(&baseline),
            "{}: optimization changed behavior",
            w.name
        );
        assert!(
            opt_run.dyn_insts <= baseline.dyn_insts,
            "{}: optimization slowed the program down",
            w.name
        );
        let _ = stats;
    }
}
