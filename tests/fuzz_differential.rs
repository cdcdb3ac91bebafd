//! Differential splice-soundness fuzzing.
//!
//! The hand-built kernels in `sfi_campaign.rs` prove each divergence
//! splice rule *can* fire and classify correctly; this suite asks the
//! stronger question on machine-written programs: for arbitrary
//! verified, terminating IR — aliased global/slot/heap traffic, stores
//! through `lea`'d pointers, branchy CFGs, extern output — is the
//! campaign report **bit-identical** with splicing on and off, at every
//! snapshot stride and worker count? Programs come from the seeded
//! fuzzer in `encore::workloads::fuzz`; a failure shrinks to a
//! shortlex-minimal choice vector via the harness in `common/prop.rs`,
//! and shrunk counterexamples worth keeping become the named
//! `regression_fuzz_*` tests at the bottom.
//!
//! Case count: `ENCORE_FUZZ_CASES` (default 64; `scripts/ci.sh` pins
//! 64, the acceptance sweep uses 512). Cases are a pure function of
//! the property name and index, so a larger run always covers a
//! smaller one.

mod common;

use common::prop::{check, fnv1a, minimize, prop_assert, Gen, PropResult};
use encore::core::{Encore, EncoreConfig};
use encore::sim::rng::{Rng, SplitMix64};
use encore::sim::{
    run_function, CampaignReport, FaultAction, FaultModelKind, FaultPlan, LatencyHistogram,
    RunConfig, SfiCampaign, SfiConfig, FaultOutcome, SfiStats, SpliceRule, Value,
};
use encore::workloads::fuzz::{self, FuzzProgram, FuzzStmt};

/// `ENCORE_FUZZ_CASES` override, defaulting to a tier-1-friendly count.
fn case_count(default: u64) -> u64 {
    std::env::var("ENCORE_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Outcome-relevant projection of a report: everything except the
/// config echo (worker count legitimately differs) and the splice
/// bookkeeping (engagement counts legitimately vary with the stride).
fn results(r: &CampaignReport) -> (SfiStats, [LatencyHistogram; FaultOutcome::ALL.len()]) {
    (r.stats, r.latency)
}

/// Profiles `prog`, runs it through the Encore pipeline, and returns
/// the instrumented module + region map ready for a campaign.
fn instrument(prog: &FuzzProgram) -> Result<(encore_ir::Module, encore::core::RegionMap, encore_ir::FuncId), String> {
    let (module, entry) = fuzz::build(prog);
    let train = run_function(
        &module,
        None,
        entry,
        &[Value::Int(prog.arg)],
        &RunConfig { collect_profile: true, ..Default::default() },
    );
    if !train.completed {
        return Err(format!("training run trapped: {:?}", train.trap));
    }
    let outcome = Encore::new(EncoreConfig::default().with_overhead_budget(1e9))
        .run(&module, train.profile.as_ref().unwrap());
    Ok((outcome.instrumented.module, outcome.instrumented.map, entry))
}

/// The differential property: campaign results are a pure function of
/// `(module, args, seed, injections, dmax, model)` — splicing,
/// snapshot stride and worker count must all be invisible in the
/// report, for every member of the fault-model taxonomy.
fn splice_stride_workers_invisible_under(
    prog: &FuzzProgram,
    model: FaultModelKind,
) -> PropResult {
    let (module, map, entry) = instrument(prog).map_err(|e| e.to_string())?;
    let mut reference: Option<(SfiStats, [LatencyHistogram; FaultOutcome::ALL.len()])> = None;
    for stride in [0u64, 1, 64] {
        let base = SfiConfig {
            injections: 12,
            dmax: 16,
            seed: 0xD1FF,
            workers: 1,
            snapshot_stride: stride,
            model,
            ..Default::default()
        };
        let campaign =
            SfiCampaign::prepare(&module, Some(&map), entry, &[Value::Int(prog.arg)], &base)
                .map_err(|e| format!("golden run failed: {e}"))?;
        for workers in [1usize, 8] {
            let on = SfiConfig { workers, ..base };
            let off = SfiConfig { splice: false, ..on };
            let with = campaign.run_report(&on);
            let without = campaign.run_report(&off);
            prop_assert!(
                results(&with) == results(&without),
                "splice changed {model} results at stride {stride}, {workers} workers:\n\
                 with:    {:?}\nwithout: {:?}",
                results(&with),
                results(&without)
            );
            prop_assert!(
                without.splice.total() == 0,
                "splice-off {model} campaign recorded engagements at stride {stride}"
            );
            match &reference {
                None => reference = Some(results(&with)),
                Some(r) => prop_assert!(
                    *r == results(&with),
                    "stride {stride} / {workers} workers changed {model} results:\n\
                     reference: {r:?}\ngot:       {:?}",
                    results(&with)
                ),
            }
        }
    }
    Ok(())
}

#[test]
fn fuzzed_campaigns_are_splice_stride_and_worker_invariant() {
    check("fuzz_differential", case_count(64), fuzz::gen_program, |f| {
        splice_stride_workers_invisible_under(f, FaultModelKind::default())
    });
}

/// The same invariance for every non-default member of the taxonomy:
/// wrong-edge and address faults defer firing past their sampled
/// ordinal and power failures detect instantly, so each model stresses
/// the snapshot-resume and splice machinery along a different seam.
/// Fewer cases per model than the default sweep — the product with
/// five models keeps tier-1 time bounded.
#[test]
fn fuzzed_campaigns_are_invariant_under_every_fault_model() {
    for model in FaultModelKind::ALL {
        if model == FaultModelKind::default() {
            continue;
        }
        let name = format!("fuzz_differential_{}", model.label());
        check(&name, case_count(16), fuzz::gen_program, |f| {
            splice_stride_workers_invisible_under(f, model)
        });
    }
}

/// Draws a stream of deliberately non-uniform [`FaultPlan`]s — sites
/// clustered at both ends of the eligible range (plus one past it),
/// dense and sparse multi-bit masks, wrong-edge, address and
/// power-failure actions, latencies from 0 to far beyond the campaign
/// Dmax — none of which any [`FaultModelKind`] sampler would emit with
/// these marginals.
fn adversarial_plans(eligible: u64) -> Vec<FaultPlan> {
    let mut plans = Vec::new();
    let mut state = 0x00AD_5EEDu64;
    let mut next = move || {
        // xorshift64*: cheap, deterministic, independent of the
        // simulator's own RNG so plan and model spaces can't collude.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let sites = [0, 1, eligible / 2, eligible.saturating_sub(1), eligible + 3];
    let latencies = [0u64, 1, 7, 33, 1000];
    for (i, &inject_at) in sites.iter().enumerate() {
        let action = match i % 5 {
            0 => FaultAction::FlipBits { mask: 1u64 << (next() % 64) },
            1 => FaultAction::FlipBits { mask: next() | 1 }, // dense multi-bit
            2 => FaultAction::WrongEdge,
            3 => FaultAction::CorruptAddress { mask: (next() % 0xFFFF) + 1 },
            _ => FaultAction::PowerFailure,
        };
        for &detect_latency in &latencies {
            plans.push(FaultPlan { inject_at, action, detect_latency });
        }
    }
    plans
}

/// Beyond model-sampled spaces: for arbitrary plans (any action, any
/// site, any latency) the snapshot-resume path must classify exactly
/// like a from-scratch replay (a `snapshot_stride: 0` campaign without
/// splicing). This is the per-plan granularity of the campaign-level
/// invariance above, on plans no sampler produces.
#[test]
fn fuzzed_fault_plans_agree_between_resume_and_scratch() {
    check("fuzz_differential_plans", case_count(24), fuzz::gen_program, |f| {
        let (module, map, entry) = instrument(f).map_err(|e| e.to_string())?;
        let args = [Value::Int(f.arg)];
        let prepare = |cfg: &SfiConfig| {
            SfiCampaign::prepare(&module, Some(&map), entry, &args, cfg)
                .map_err(|e| format!("golden run failed: {e}"))
        };
        let cfg = SfiConfig { dmax: 16, snapshot_stride: 4, ..Default::default() };
        let campaign = prepare(&cfg)?;
        let from_scratch = prepare(&SfiConfig { snapshot_stride: 0, ..cfg })?;
        for plan in adversarial_plans(campaign.golden().eligible_insts) {
            let resumed = campaign.run_one(plan);
            let scratch = from_scratch.run_one_detailed(plan, false).0;
            prop_assert!(
                resumed == scratch,
                "resume/scratch diverged on {plan:?}: {resumed:?} vs {scratch:?}"
            );
        }
        Ok(())
    });
}

/// Campaign shape under which the corpus must reach every splice rule.
fn engagement_config() -> SfiConfig {
    SfiConfig {
        injections: 48,
        dmax: 8,
        seed: 0x5E1CE,
        workers: 2,
        snapshot_stride: 4,
        ..Default::default()
    }
}

/// Runs one campaign over `prog` and returns the per-rule engagement
/// counts `(converged, dead_diff, sdc)`.
fn engagements(prog: &FuzzProgram) -> (usize, usize, usize) {
    let Ok((module, map, entry)) = instrument(prog) else { return (0, 0, 0) };
    let cfg = engagement_config();
    let Ok(campaign) =
        SfiCampaign::prepare(&module, Some(&map), entry, &[Value::Int(prog.arg)], &cfg)
    else {
        return (0, 0, 0);
    };
    let report = campaign.run_report(&cfg);
    (
        report.splice.count(SpliceRule::Converged),
        report.splice.count(SpliceRule::DeadDiff),
        report.splice.count(SpliceRule::Sdc),
    )
}

/// The generator's whole point is that every `SpliceRule` path is
/// reachable from machine-written programs, not just from the
/// hand-built kernel in `sfi_campaign.rs`. A fixed-seed corpus sweep
/// must engage all three rules.
#[test]
fn fuzz_corpus_reaches_every_splice_rule() {
    let (mut a, mut b, mut c) = (0, 0, 0);
    for index in 0..192 {
        let (ca, cb, cc) = engagements(&fuzz::program_for(0x005E_EDF0, index));
        a += ca;
        b += cb;
        c += cc;
        if a > 0 && b > 0 && c > 0 {
            return;
        }
    }
    panic!("corpus never engaged every rule: converged={a} dead_diff={b} sdc={c}");
}

/// Dev tool and release CI check (run with `--ignored --nocapture`):
/// finds the first corpus case engaging each rule, minimises its choice
/// vector under "the rule still engages" and prints the result for
/// promotion to a `regression_fuzz_*` test below. Asserts that the
/// minimised case still engages its rule and takes at most 24 choices.
#[test]
#[ignore = "runs hundreds of campaigns; scripts/ci.sh runs it in release"]
fn find_rule_regression_candidates() {
    for (label, pick) in [("converged", 0usize), ("dead_diff", 1), ("sdc", 2)] {
        let engages = |prog: &FuzzProgram| {
            let counts = engagements(prog);
            [counts.0, counts.1, counts.2][pick] > 0
        };
        let (index, g) = (0..512u64)
            .find_map(|index| {
                let mut g = Gen::for_case(0x005E_EDF0, index);
                engages(&fuzz::gen_program(&mut g)).then_some((index, g))
            })
            .unwrap_or_else(|| panic!("no corpus case engages {label}"));
        let min = minimize(g.choices().to_vec(), |g| engages(&fuzz::gen_program(g)));
        let prog = fuzz::gen_program(&mut Gen::replay(&min.choices));
        println!(
            "=== {label} (seed 0x005E_EDF0 case {index}, {} property runs, capped: {}) ===\n\
             choices: {:?}\n{prog:#?}",
            min.runs, min.capped, min.choices
        );
        assert!(engages(&prog), "{label}: the minimised case no longer engages:\n{prog:#?}");
        assert!(
            min.choices.len() <= 24,
            "{label}: minimised to {} choices, more than 24: {:?}",
            min.choices.len(),
            min.choices
        );
    }
}

/// Every random-program property draws its input through the recording
/// `Gen`, and it is the input the property saw when each drew from its
/// own SplitMix64 stream: for each property name and cases 0..512,
/// `fuzz::program_for(fnv1a(name), i)` (then the cutoff properties'
/// `i64(0, 6)` from the same stream), and replaying the recorded
/// choices regenerates it.
#[test]
fn recorded_choices_are_the_suite_inputs_and_replay_them() {
    let mut names: Vec<String> = [
        "print_parse_roundtrip",
        "interval_laws",
        "loops_are_reducible",
        "optimistic_is_never_worse",
        "pruning_shrinks_cp",
        "worklist_engine_matches_reference",
        "pipeline_is_deterministic",
        "profiled_never_worse_than_static",
        "latency_zero_recovery_on_random_programs",
        "instrumentation_is_transparent_on_random_programs",
        "fuzz_differential",
        "fuzz_differential_plans",
    ]
    .map(String::from)
    .to_vec();
    names.extend(
        FaultModelKind::ALL
            .iter()
            .filter(|&&m| m != FaultModelKind::default())
            .map(|m| format!("fuzz_differential_{}", m.label())),
    );
    let gen = |g: &mut Gen| (fuzz::gen_program(g), g.i64(0, 6));
    for name in &names {
        let seed = fnv1a(name);
        for index in 0..512 {
            let mut g = Gen::for_case(seed, index);
            let input = gen(&mut g);
            let mut stream = SplitMix64::for_index(seed, index);
            let expected = (fuzz::gen_program(&mut stream), stream.gen_i64(0, 6));
            assert_eq!(expected.0, fuzz::program_for(seed, index));
            assert_eq!(input, expected, "`{name}` case {index}");
            assert_eq!(gen(&mut Gen::replay(g.choices())), input, "`{name}` case {index} replay");
        }
    }
}

/// The grammar is total over choice vectors: whatever vector the
/// shrinker replays, including ones no seeded stream draws, the program
/// builds, verifies and runs to completion.
#[test]
fn every_choice_vector_replays_as_a_runnable_program() {
    let mut rng = SplitMix64::new(0x0707_A1E5);
    let random = (0..128).map(|_| {
        let len = rng.gen_usize(160);
        (0..len).map(|_| rng.gen_below(24)).collect::<Vec<u64>>()
    });
    let vectors: Vec<Vec<u64>> =
        [vec![0; 256], vec![u64::MAX; 1024]].into_iter().chain(random).collect();
    for choices in &vectors {
        let prog = fuzz::gen_program(&mut Gen::replay(choices));
        let (module, entry) = fuzz::build(&prog); // verifies internally
        let run = run_function(
            &module,
            None,
            entry,
            &[Value::Int(prog.arg)],
            &RunConfig { fuel: 1_000_000, ..Default::default() },
        );
        assert!(run.completed, "{:?} trapped on {choices:?}:\n{prog:#?}", run.trap);
    }
}

/// Asserts `prog` engages `rule` under [`engagement_config`] and that
/// the differential property holds on it — the contract every
/// `regression_fuzz_*` case below must keep satisfying.
fn assert_rule_regression(prog: &FuzzProgram, rule: SpliceRule) {
    let counts = engagements(prog);
    let count = match rule {
        SpliceRule::Converged => counts.0,
        SpliceRule::DeadDiff => counts.1,
        SpliceRule::Sdc => counts.2,
    };
    assert!(count > 0, "{rule:?} no longer engages on {prog:#?} (counts {counts:?})");
    splice_stride_workers_invisible_under(prog, FaultModelKind::default()).unwrap_or_else(|e| {
        panic!("differential property regressed on {prog:#?}:\n{e}");
    });
}

/// Fuzzer-found (seed `0x005E_EDF0` case 0, shrunk): a fuel-1 `while`
/// whose body only prints. Faults detected inside the activation roll
/// back and re-execute to a bit-identical diff — rule (a) `Converged`
/// must certify the recovery without replaying the golden suffix.
#[test]
fn regression_fuzz_converged_rollback_heals_printing_while_loop() {
    let prog = FuzzProgram {
        arg: 3,
        stmts: vec![FuzzStmt::While {
            fuel: 1,
            cond: 4,
            body: vec![FuzzStmt::Print { src: 14 }],
        }],
    };
    assert_rule_regression(&prog, SpliceRule::Converged);
}

/// Fuzzer-found (seed `0x005E_EDF0` case 0, shrunk): a heap load and a
/// division feed a printing loop, then two stores land on global `g2`.
/// A fault that corrupts one of those cells before rollback leaves a
/// residual diff the golden suffix's own stores overwrite — rule (b)
/// `DeadDiff`.
#[test]
fn regression_fuzz_dead_diff_golden_suffix_overwrites_global_cell() {
    let prog = FuzzProgram {
        arg: 3,
        stmts: vec![
            FuzzStmt::LoadHeap { idx: 8 },
            FuzzStmt::Arith { op: 4, lhs: 12, rhs: 0 },
            FuzzStmt::While {
                fuel: 1,
                cond: 4,
                body: vec![FuzzStmt::Print { src: 14 }],
            },
            FuzzStmt::StoreG { g: 2, off: 14, src: 5 },
            FuzzStmt::StoreG { g: 2, off: 9, src: 5 },
        ],
    };
    assert_rule_regression(&prog, SpliceRule::DeadDiff);
}

/// Fuzzer-found (seed `0x005E_EDF0` case 2, shrunk): a single-trip loop
/// storing through a `lea`'d global pointer. A corrupted masked index
/// strays the store to a cell nothing rewrites or reads — a persistent
/// dead diff the splice certifies as rule (c) `Sdc` without running
/// the suffix.
#[test]
fn regression_fuzz_sdc_stray_store_through_global_pointer() {
    let prog = FuzzProgram {
        arg: 1,
        stmts: vec![FuzzStmt::For {
            trip: 1,
            body: vec![FuzzStmt::StorePtr { g: 1, idx: 1, src: 10 }],
        }],
    };
    assert_rule_regression(&prog, SpliceRule::Sdc);
}
