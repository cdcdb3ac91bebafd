//! Determinism guarantees of the parallel fault-injection engine,
//! checked end-to-end on real instrumented workloads and hand-built
//! kernels:
//!
//! * the same seed yields bit-identical results at **any** worker
//!   count (sharding is a pure load-balancing choice);
//! * the snapshot stride is a pure performance knob: campaigns resumed
//!   from golden-run checkpoints are bit-identical to campaigns run
//!   from scratch, at every stride;
//! * any single injection can be replayed in isolation from its
//!   `(seed, index)` pair — the whole campaign is just the sum of its
//!   independently derivable members;
//! * every [`FaultOutcome`] variant is reachable, and the snapshot and
//!   from-scratch paths (a `snapshot_stride: 0` campaign) agree on each
//!   of them;
//! * a fault cannot take the process down: a faulted `alloc` size is a
//!   classified outcome, not an aborted campaign;
//! * states are compared up to the numbers that only name objects: on
//!   kernels whose rollbacks call a function again, every fault plan of
//!   a bounded space classifies the same spliced as from scratch.

use encore::core::{Encore, EncoreConfig, RegionInfo, RegionMap};
use encore::sim::{
    run_function, CampaignReport, FaultAction, FaultModelKind, FaultOutcome, FaultPlan, RunConfig,
    SfiCampaign, SfiConfig, SpliceRule, TrapKind, Value,
};
use encore_ir::{
    parse_module, AddrExpr, BinOp, BlockId, ExtEffect, FuncId, Inst, MemBase, ModuleBuilder,
    Operand, RegionId, UnOp,
};

/// Profiles and instruments `spec` (a workload name, or `name@Nx` for a
/// scaled one), returning the protected module and its region map
/// (owned, so tests can borrow them into a campaign).
fn instrument(spec: &str) -> (encore_ir::Module, RegionMap, FuncId, i64) {
    let w = encore::workloads::by_spec(spec).expect("known workload");
    let train = run_function(
        &w.module,
        None,
        w.entry,
        &[Value::Int(w.train_arg)],
        &RunConfig { collect_profile: true, ..Default::default() },
    );
    assert!(train.completed);
    let outcome = Encore::new(EncoreConfig::default().with_overhead_budget(1e9))
        .run(&w.module, train.profile.as_ref().unwrap());
    (outcome.instrumented.module, outcome.instrumented.map, w.entry, w.eval_arg)
}

fn config(injections: usize, workers: usize) -> SfiConfig {
    SfiConfig { injections, dmax: 64, seed: 0xDEC0DE, workers, ..Default::default() }
}

/// Outcome-relevant parts of a report (its `config` records the worker
/// count, which legitimately differs between the runs under test).
fn results(r: &CampaignReport) -> (encore::sim::SfiStats, &[encore::sim::LatencyHistogram]) {
    (r.stats, &r.latency)
}

#[test]
fn parallel_campaign_is_bit_identical_to_sequential() {
    for name in ["rawcaudio", "g721encode"] {
        let (module, map, entry, arg) = instrument(name);
        let base = config(96, 1);
        let campaign =
            SfiCampaign::prepare(&module, Some(&map), entry, &[Value::Int(arg)], &base)
                .expect("golden run completes");
        let sequential = campaign.run_report(&base);
        assert_eq!(sequential.stats.injections, 96);

        for workers in [2, 3, 4, 8] {
            let parallel = campaign.run_report(&config(96, workers));
            assert_eq!(
                results(&sequential),
                results(&parallel),
                "{name}: workers = {workers} changed campaign results"
            );
        }
    }
}

#[test]
fn same_seed_twice_is_bit_identical() {
    let (module, map, entry, arg) = instrument("rawcaudio");
    let cfg = config(96, 4);
    let campaign = SfiCampaign::prepare(&module, Some(&map), entry, &[Value::Int(arg)], &cfg)
        .expect("golden run completes");
    let first = campaign.run_report(&cfg);
    let second = campaign.run_report(&cfg);
    assert_eq!(first, second);
}

#[test]
fn different_seeds_draw_different_plans() {
    let (module, map, entry, arg) = instrument("rawcaudio");
    let a = config(96, 1);
    let b = SfiConfig { seed: a.seed ^ 1, ..a };
    let campaign = SfiCampaign::prepare(&module, Some(&map), entry, &[Value::Int(arg)], &a)
        .expect("golden run completes");
    assert!(
        (0..16).any(|i| campaign.plan_for_index(&a, i) != campaign.plan_for_index(&b, i)),
        "independent seeds produced identical plans for the first 16 injections"
    );
}

/// Every member of a parallel campaign can be replayed alone from its
/// `(seed, index)` pair; replaying all of them reconstructs the parallel
/// report exactly.
#[test]
fn replaying_each_index_reconstructs_the_parallel_report() {
    let (module, map, entry, arg) = instrument("rawcaudio");
    let cfg = config(48, 8);
    let campaign = SfiCampaign::prepare(&module, Some(&map), entry, &[Value::Int(arg)], &cfg)
        .expect("golden run completes");
    let parallel = campaign.run_report(&cfg);

    let mut replayed = CampaignReport::new(cfg);
    for index in 0..cfg.injections as u64 {
        let plan = campaign.plan_for_index(&cfg, index);
        replayed.record(plan, campaign.run_one(plan));
    }
    // `run_one` replays without splice bookkeeping, so compare the
    // outcome-relevant projection rather than the whole report.
    assert_eq!(results(&parallel), results(&replayed));
}

/// A campaign's shards answer a run from an earlier injection that stood
/// in the same state at its first splice probe; `run_one_detailed`
/// executes every run. The memo must be invisible: the campaign report
/// equals the one assembled from `run_one_detailed` field for field,
/// `SpliceStats` included, at 1 and 4 workers (which split the memo's
/// population differently). Workloads where many bit flips collapse to
/// one corrupted state: 175.vpr, 164.gzip under every fault model, and
/// mpeg2enc@3x, whose runs splice only after several probes.
#[test]
fn memo_never_changes_campaign_reports() {
    let mut hits = 0;
    for (spec, models, injections) in [
        ("175.vpr", &[FaultModelKind::BitFlip][..], 300),
        ("164.gzip", &FaultModelKind::ALL[..], 200),
        ("mpeg2enc@3x", &[FaultModelKind::BitFlip][..], 300),
    ] {
        let (module, map, entry, arg) = instrument(spec);
        let args = [Value::Int(arg)];
        for &model in models {
            let cfg =
                SfiConfig { injections, model, seed: 0x3E30, workers: 1, ..Default::default() };
            let campaign = SfiCampaign::prepare(&module, Some(&map), entry, &args, &cfg)
                .expect("golden run completes");
            let mut executed = CampaignReport::new(cfg);
            for index in 0..injections as u64 {
                let plan = campaign.plan_for_index(&cfg, index);
                let (outcome, engagement) = campaign.run_one_detailed(plan, true);
                executed.record(plan, outcome);
                if let Some(e) = engagement {
                    executed.splice.record(e);
                }
            }
            let report = campaign.run_report(&cfg);
            assert_eq!(report, executed, "{spec} {model}: the memo changed the report");
            hits += report.splice.cost.memo_hits;
            let parallel = campaign.run_report(&SfiConfig { workers: 4, ..cfg });
            assert_eq!(results(&parallel), results(&executed), "{spec} {model}: 4 workers");
            assert_eq!(parallel.splice, executed.splice, "{spec} {model}: 4 workers");
            hits += parallel.splice.cost.memo_hits;
        }
    }
    assert!(hits > 0, "the memo never answered a run");
}

/// The snapshot stride is a pure performance knob: disabled (0),
/// every-instruction (1), coarse (64) and effectively-unreachable
/// (`u64::MAX`) strides all produce bit-identical campaign reports on
/// three instrumented workloads.
#[test]
fn snapshot_stride_never_changes_campaign_reports() {
    for name in ["rawcaudio", "rawdaudio", "g721encode"] {
        let (module, map, entry, _) = instrument(name);
        // A small eval input keeps the stride-1 log (one checkpoint per
        // dynamic instruction) affordable.
        let args = [Value::Int(48)];
        let reference_cfg = SfiConfig {
            injections: 48,
            dmax: 64,
            seed: 0xBEEF,
            workers: 2,
            snapshot_stride: 0,
            ..Default::default()
        };
        let reference =
            SfiCampaign::prepare(&module, Some(&map), entry, &args, &reference_cfg)
                .expect("golden run completes")
                .run_report(&reference_cfg);

        for stride in [1, 64, u64::MAX] {
            let cfg = SfiConfig { snapshot_stride: stride, ..reference_cfg };
            let campaign = SfiCampaign::prepare(&module, Some(&map), entry, &args, &cfg)
                .expect("golden run completes");
            if stride == 1 {
                assert!(
                    !campaign.snapshots().is_empty(),
                    "{name}: stride 1 must capture checkpoints"
                );
            }
            let report = campaign.run_report(&cfg);
            // Splice bookkeeping legitimately varies with the stride
            // (stride 0 has no snapshots to splice from); outcomes and
            // latencies must not.
            assert_eq!(
                results(&reference),
                results(&report),
                "{name}: stride {stride} changed the results"
            );
        }
    }
}

/// Regression: a bit-63 flip on 256.bzip2 whose rolled-back run leaves
/// two divergent cells in one page, each differing from golden only in
/// bit 63. A page hash whose per-word step carries differences only
/// upward cancelled the pair, the probe trusted the page as equal, and
/// the splice certified `Recovered` for what full execution finds to be
/// silent corruption.
#[test]
fn bzip2_bit63_flip_splices_to_the_no_splice_outcome() {
    let w = encore::workloads::by_name("256.bzip2").expect("known workload");
    let train = run_function(
        &w.module,
        None,
        w.entry,
        &[Value::Int(w.train_arg)],
        &RunConfig { collect_profile: true, ..Default::default() },
    );
    let inst = Encore::new(EncoreConfig::default())
        .run(&w.module, train.profile.as_ref().expect("profile"))
        .instrumented;
    let cfg = SfiConfig { seed: 11, ..Default::default() };
    let args = [Value::Int(w.eval_arg)];
    let campaign = SfiCampaign::prepare(&inst.module, Some(&inst.map), w.entry, &args, &cfg)
        .expect("golden run completes");
    let plan = campaign.plan_for_index(&cfg, 2816);
    assert_eq!(plan.action, FaultAction::FlipBits { mask: 1 << 63 });
    let truth = campaign.run_one_detailed(plan, false).0;
    assert_eq!(campaign.run_one_detailed(plan, true).0, truth, "{plan:?}");
}

/// Stores `IToF(i & 0)` (+0.0) into four cells once, runs a 400-iteration
/// idempotent store loop, then prints each cell with `print_f64`,
/// protected by Encore with an unlimited budget.
fn negative_zero_kernel() -> (encore_ir::Module, RegionMap, FuncId) {
    let mut mb = ModuleBuilder::new("negzero");
    let cells = mb.global("cells", 4);
    let buf = mb.global("buf", 8);
    let fid = mb.function("f", 0, |f| {
        f.for_range(Operand::ImmI(0), Operand::ImmI(4), |f, i| {
            let zero = f.bin(BinOp::And, i.into(), Operand::ImmI(0));
            let x = f.un(UnOp::IToF, zero.into());
            f.store(AddrExpr::indexed(MemBase::Global(cells), i, 1, 0), x.into());
        });
        f.for_range(Operand::ImmI(0), Operand::ImmI(400), |f, j| {
            let k = f.bin(BinOp::And, j.into(), Operand::ImmI(7));
            f.store(AddrExpr::indexed(MemBase::Global(buf), k, 1, 0), k.into());
        });
        for c in 0..4 {
            let v = f.load(AddrExpr::global(cells, c));
            f.call_ext_void("print_f64", &[v.into()], ExtEffect::Opaque);
        }
        f.ret(None);
    });
    let m = mb.finish();
    let train = run_function(
        &m,
        None,
        fid,
        &[],
        &RunConfig { collect_profile: true, ..Default::default() },
    );
    let inst = Encore::new(EncoreConfig::default().with_overhead_budget(1e9))
        .run(&m, train.profile.as_ref().expect("profile"))
        .instrumented;
    (inst.module, inst.map, fid)
}

/// Regression: a sign-bit flip turns a stored +0.0 into −0.0, and the
/// rollback lands in the later store loop, so the −0.0 stays in memory
/// and is printed. `Value` equality used to say `0.0 == -0.0`, so the
/// splice's first probe saw golden state and certified `Recovered`
/// (rule `Converged`) for runs that end in silent corruption.
#[test]
fn negative_zero_flip_splices_to_the_no_splice_outcome() {
    let (m, map, fid) = negative_zero_kernel();
    let cfg = SfiConfig { dmax: 100, ..Default::default() };
    let campaign =
        SfiCampaign::prepare(&m, Some(&map), fid, &[], &cfg).expect("golden run completes");
    let mut corrupted = 0;
    for inject_at in 0..25 {
        for detect_latency in 0..=cfg.dmax {
            let plan = FaultPlan {
                inject_at,
                action: FaultAction::FlipBits { mask: 1 << 63 },
                detect_latency,
            };
            let truth = campaign.run_one_detailed(plan, false).0;
            assert_eq!(campaign.run_one_detailed(plan, true).0, truth, "{plan:?}");
            corrupted += usize::from(truth == FaultOutcome::SilentCorruption);
        }
    }
    assert!(corrupted > 0, "no plan left a -0.0 behind");
}

/// Two kernels whose `alloc` size comes from the input, `(arg & 7) + 4`:
/// one allocates once, the other 64 times in a loop. A fault in the
/// size's computation can ask for any number of cells.
const ALLOC_KERNELS: [&str; 2] = [
    r#"module "alloc_size" {
  heap_sites 1
  func "main" params=1 regs=4 slots=[] {
  bb0:
    r1 = and r0, 7
    r2 = add r1, 4
    r3 = alloc h0, r2
    store [r3][0], r2
    r1 = load [r3][0]
    ret r1
  }
}
"#,
    r#"module "alloc_loop" {
  heap_sites 1
  func "main" params=1 regs=7 slots=[] {
  bb0:
    r1 = and r0, 7
    r2 = add r1, 4
    r4 = mov 0
    r5 = mov 0
    jmp bb1
  bb1:
    r3 = alloc h0, r2
    store [r3][0], r2
    r6 = load [r3][0]
    r5 = add r5, r6
    r4 = add r4, 1
    r1 = lt r4, 64
    br r1, bb1, bb2
  bb2:
    ret r5
  }
}
"#,
];

/// Regression: a fault that grew an `alloc` size aborted the whole
/// process, on a failed host allocation or a `LayoutError` panic. The
/// heap now holds at most `MAX_OBJECT_CELLS` cells and a request past
/// that traps, so a flip of bit 40 of the size is a detected symptom,
/// and campaigns over both kernels, protected as `encore sfi` protects
/// them, classify every injection under every fault model.
#[test]
fn faulted_alloc_sizes_are_contained() {
    for text in ALLOC_KERNELS {
        let m = parse_module(text).expect("kernel parses");
        let (entry, args) = (FuncId::new(0), [Value::Int(5)]);
        // Ordinal 1 is the `add` computing the size; the `alloc` runs
        // within the detection latency.
        let faulted = RunConfig { fault: Some(FaultPlan::bit_flip(1, 40, 10)), ..Default::default() };
        let r = run_function(&m, None, entry, &args, &faulted);
        assert!(r.fault.injected && r.fault.detected, "{}: {r:?}", m.name);
        assert_eq!(r.trap.map(|t| t.kind), Some(TrapKind::DetectedUnrecoverable), "{}", m.name);

        let profiled = RunConfig { collect_profile: true, ..Default::default() };
        let train = run_function(&m, None, entry, &args, &profiled);
        let inst = Encore::new(EncoreConfig::default())
            .run(&m, train.profile.as_ref().expect("profile"))
            .instrumented;
        for model in FaultModelKind::ALL {
            let config =
                SfiConfig { injections: 40, seed: 3, workers: 1, model, ..Default::default() };
            let campaign =
                SfiCampaign::prepare(&inst.module, Some(&inst.map), entry, &args, &config)
                    .expect("golden run completes");
            let stats = campaign.run(&config);
            let classified: usize = FaultOutcome::ALL.iter().map(|&o| stats.count(o)).sum();
            assert_eq!((stats.injections, classified), (40, 40), "{}, {model}", m.name);
        }
    }
}

/// Builds a RegionMap with one entry per (func, header, recovery block).
fn map_of(entries: &[(FuncId, BlockId, BlockId)]) -> RegionMap {
    let mut map = RegionMap::default();
    for (i, (func, header, rb)) in entries.iter().enumerate() {
        map.regions.push(RegionInfo {
            id: RegionId::new(i as u32),
            func: *func,
            header: *header,
            blocks: vec![*header],
            recovery_block: Some(*rb),
            protected: true,
            idempotent: false,
            mem_ckpts: 0,
            reg_ckpts: 0,
            avg_activation_len: 0.0,
            exec_fraction: 0.0,
        });
    }
    map
}

/// A campaign and its from-scratch twin: the same golden run without
/// snapshots, so each of its injections runs from dynamic instruction 0
/// with no splice — the reference the resume and splice paths match.
struct Twin<'a> {
    resume: SfiCampaign<'a>,
    scratch: SfiCampaign<'a>,
}

impl<'a> Twin<'a> {
    fn prepare(
        m: &'a encore_ir::Module,
        map: Option<&'a RegionMap>,
        fid: FuncId,
        args: &[Value],
        cfg: &SfiConfig,
    ) -> Self {
        let scratch_cfg = SfiConfig { snapshot_stride: 0, ..*cfg };
        Twin {
            resume: SfiCampaign::prepare(m, map, fid, args, cfg).expect("golden run completes"),
            scratch: SfiCampaign::prepare(m, map, fid, args, &scratch_cfg)
                .expect("golden run completes"),
        }
    }

    /// Runs `plan` spliced from the nearest snapshot, asserting the
    /// from-scratch twin classifies it identically.
    fn run_checked(&self, plan: FaultPlan) -> (FaultOutcome, Option<SpliceRule>) {
        let (outcome, engagement) = self.resume.run_one_detailed(plan, true);
        assert_eq!(
            outcome,
            self.scratch.run_one_detailed(plan, false).0,
            "resume/splice diverged from scratch for {plan:?}"
        );
        (outcome, engagement.map(|e| e.rule))
    }

    fn eligible_insts(&self) -> u64 {
        self.resume.golden().eligible_insts
    }
}

/// Runs one injection per eligible site (up to `max_sites`) through both
/// twins, asserting they classify every plan identically, and returns
/// the outcomes.
fn sweep_outcomes(
    campaign: &Twin<'_>,
    bit: u8,
    detect_latency: u64,
    max_sites: u64,
) -> Vec<FaultOutcome> {
    (0..campaign.eligible_insts().min(max_sites))
        .map(|inject_at| campaign.run_checked(FaultPlan::bit_flip(inject_at, bit, detect_latency)).0)
        .collect()
}

/// Hand-built kernels drive each [`FaultOutcome`] variant at least once,
/// with the snapshot and from-scratch paths agreeing on all of them
/// (via [`sweep_outcomes`]).
#[test]
fn every_fault_outcome_variant_is_exercised() {
    // Dense checkpointing so even these short kernels resume mid-trace.
    let cfg = SfiConfig { snapshot_stride: 8, ..Default::default() };

    // Benign / SilentCorruption / DetectedUnrecoverable: straight-line
    // unprotected code with one architecturally dead load.
    let mut mb = ModuleBuilder::new("straight");
    let g = mb.global_init("g", 2, vec![5, 0]);
    let fid = mb.function("f", 0, |f| {
        let _dead = f.load(AddrExpr::global(g, 0));
        let a = f.load(AddrExpr::global(g, 0));
        f.store(AddrExpr::global(g, 1), a.into());
        let v = f.load(AddrExpr::global(g, 0));
        let v2 = f.bin(BinOp::Mul, v.into(), Operand::ImmI(2));
        f.store(AddrExpr::global(g, 0), v2.into());
        f.ret(Some(v2.into()));
    });
    let m = mb.finish();
    let campaign = Twin::prepare(&m, None, fid, &[], &cfg);
    // Latency long enough that the run completes before detection: the
    // fault either lands in the dead load (benign) or corrupts state.
    let quiet = sweep_outcomes(&campaign, 3, 1000, 64);
    assert!(quiet.contains(&FaultOutcome::Benign), "no benign outcome: {quiet:?}");
    assert!(
        quiet.contains(&FaultOutcome::SilentCorruption),
        "no silent corruption: {quiet:?}"
    );
    // Immediate detection with no armed region is unrecoverable.
    let detected = sweep_outcomes(&campaign, 0, 0, 64);
    assert!(
        detected.contains(&FaultOutcome::DetectedUnrecoverable),
        "no detected-unrecoverable outcome: {detected:?}"
    );

    // Recovered: the checkpointed WAR loop `g[0] += 10` with immediate
    // detection — rollback restores the entry state and re-execution
    // converges on the golden result.
    let mut mb = ModuleBuilder::new("war");
    let g = mb.global("g", 2);
    let fid = mb.function("f", 0, |f| {
        let hdr = f.add_block();
        let recovery = f.add_block();
        let exit = f.add_block();
        let i = f.mov(Operand::ImmI(0));
        f.jump(hdr);
        f.switch_to(hdr);
        f.emit(Inst::SetRecovery { region: RegionId::new(0) });
        f.emit(Inst::CheckpointReg { reg: i });
        f.emit(Inst::CheckpointMem { addr: AddrExpr::global(g, 0) });
        let cur = f.load(AddrExpr::global(g, 0));
        let next = f.bin(BinOp::Add, cur.into(), Operand::ImmI(10));
        f.store(AddrExpr::global(g, 0), next.into());
        f.bin_to(i, BinOp::Add, i.into(), Operand::ImmI(1));
        let more = f.bin(BinOp::Lt, i.into(), Operand::ImmI(4));
        f.branch(more.into(), hdr, exit);
        f.switch_to(recovery);
        f.emit(Inst::Restore { region: RegionId::new(0) });
        f.jump(hdr);
        f.switch_to(exit);
        let out = f.load(AddrExpr::global(g, 0));
        f.ret(Some(out.into()));
    });
    let m = mb.finish();
    let map = map_of(&[(fid, BlockId::new(1), BlockId::new(2))]);
    let campaign = Twin::prepare(&m, Some(&map), fid, &[], &cfg);
    let recovered = sweep_outcomes(&campaign, 1, 0, 64);
    assert!(
        recovered.contains(&FaultOutcome::Recovered),
        "no recovered outcome: {recovered:?}"
    );

    // Hung: flipping the sign bit of the loop counter in a pure-compute
    // loop makes it run until the fuel budget trips, provided the
    // detection latency is far beyond the budget.
    let mut mb = ModuleBuilder::new("spin");
    let g = mb.global("g", 1);
    let fid = mb.function("f", 1, |f| {
        let n = f.param(0);
        let acc = f.mov(Operand::ImmI(0));
        f.for_range(Operand::ImmI(0), n.into(), |f, i| {
            let s = f.bin(BinOp::Add, acc.into(), i.into());
            f.mov_to(acc, s.into());
        });
        f.store(AddrExpr::global(g, 0), acc.into());
        f.ret(Some(acc.into()));
    });
    let m = mb.finish();
    let campaign = Twin::prepare(&m, None, fid, &[Value::Int(32)], &cfg);
    let hung = sweep_outcomes(&campaign, 63, 1 << 40, 16);
    assert!(hung.contains(&FaultOutcome::Hung), "no hung outcome: {hung:?}");

    // Crashed: the fault escapes the region through an uncheckpointed
    // global before the symptom trap; rollback consumes the fault, then
    // the recovery path indexes with the corrupted value and dies.
    let mut mb = ModuleBuilder::new("crash");
    let src = mb.global_init("src", 1, vec![3]);
    let bounce = mb.global("bounce", 1);
    let data = mb.global_init("data", 8, (0..8).collect());
    let out = mb.global("out", 1);
    let fid = mb.function("f", 0, |f| {
        let hdr = f.add_block();
        let recovery = f.add_block();
        let exit = f.add_block();
        f.jump(hdr);
        f.switch_to(hdr);
        f.emit(Inst::SetRecovery { region: RegionId::new(0) });
        let a = f.load(AddrExpr::global(src, 0));
        f.store(AddrExpr::global(bounce, 0), a.into());
        let b = f.load(AddrExpr::indexed(MemBase::Global(data), a, 1, 0));
        f.store(AddrExpr::global(out, 0), b.into());
        f.jump(exit);
        f.switch_to(recovery);
        f.emit(Inst::Restore { region: RegionId::new(0) });
        let c = f.load(AddrExpr::global(bounce, 0));
        let d = f.load(AddrExpr::indexed(MemBase::Global(data), c, 1, 0));
        f.store(AddrExpr::global(out, 0), d.into());
        f.jump(exit);
        f.switch_to(exit);
        let v = f.load(AddrExpr::global(out, 0));
        f.ret(Some(v.into()));
    });
    let m = mb.finish();
    let map = map_of(&[(fid, BlockId::new(1), BlockId::new(2))]);
    let campaign = Twin::prepare(&m, Some(&map), fid, &[], &cfg);
    let crashed = sweep_outcomes(&campaign, 40, 50, 64);
    assert!(crashed.contains(&FaultOutcome::Crashed), "no crashed outcome: {crashed:?}");
}

/// The divergence splice is a pure performance knob: campaigns with
/// splicing disabled (`--no-splice`) produce bit-identical outcome
/// counts and latency histograms, at every snapshot stride and worker
/// count, on three instrumented workloads — including rawcaudio, whose
/// injections are majority-SilentCorruption (the population rule (c)
/// targets). Splicing must actually engage on that SDC population for
/// the optimisation to mean anything, so the test also demands a
/// non-zero rule-(c) count somewhere in the sweep.
#[test]
fn splice_never_changes_campaign_results() {
    let mut spliced_sdc = 0;
    for name in ["rawcaudio", "rawdaudio", "g721encode"] {
        let (module, map, entry, _) = instrument(name);
        // Small eval input keeps the stride-1 snapshot log affordable.
        let args = [Value::Int(48)];
        for stride in [0u64, 1, 64] {
            let on = SfiConfig {
                injections: 48,
                dmax: 64,
                seed: 0xFEED,
                workers: 1,
                snapshot_stride: stride,
                ..Default::default()
            };
            assert!(on.splice, "splicing must be on by default");
            let campaign = SfiCampaign::prepare(&module, Some(&map), entry, &args, &on)
                .expect("golden run completes");
            for workers in [1, 8] {
                let on = SfiConfig { workers, ..on };
                let off = SfiConfig { splice: false, ..on };
                let with = campaign.run_report(&on);
                let without = campaign.run_report(&off);
                assert_eq!(
                    results(&with),
                    results(&without),
                    "{name}: splice changed results at stride {stride}, {workers} workers"
                );
                assert_eq!(
                    without.splice.total(),
                    0,
                    "{name}: splice-off campaign recorded engagements"
                );
                if stride == 0 {
                    assert_eq!(
                        with.splice.total(),
                        0,
                        "{name}: nothing to splice from without snapshots"
                    );
                }
                spliced_sdc += with.splice.sdc;
            }
        }
    }
    assert!(spliced_sdc > 0, "rule (c) never engaged on the SDC population");
}

/// A protected copy loop whose store index `t = i + 0` is a fault
/// target: corrupting `t` lands the store on the wrong cell of `dst`, a
/// global the program writes but never reads. After the symptom trap
/// rolls the activation back (the loop counter is register-checkpointed,
/// so control realigns), the stray cell's fate picks the splice rule:
///
/// * overwritten by a later iteration → diff dies in the golden write
///   set → rule (b) `DeadDiff`, outcome `Recovered`;
/// * below the resume point (or past the loop bound) → nothing rewrites
///   it → persistent dead global → rule (c) `Sdc`;
/// * fault rolled back before the store retired → diff empties →
///   rule (a) `Converged`.
fn splice_kernel() -> (encore_ir::Module, RegionMap, FuncId) {
    let mut mb = ModuleBuilder::new("splice");
    let src = mb.global_init("src", 8, (1..=8).collect());
    let dst = mb.global("dst", 512);
    let fid = mb.function("f", 0, |f| {
        let hdr = f.add_block();
        let recovery = f.add_block();
        let exit = f.add_block();
        let i = f.mov(Operand::ImmI(0));
        f.jump(hdr);
        f.switch_to(hdr);
        f.emit(Inst::SetRecovery { region: RegionId::new(0) });
        f.emit(Inst::CheckpointReg { reg: i });
        let t = f.bin(BinOp::Add, i.into(), Operand::ImmI(0));
        let v = f.load(AddrExpr::indexed(MemBase::Global(src), i, 1, 0));
        let v3 = f.bin(BinOp::Mul, v.into(), Operand::ImmI(3));
        f.store(AddrExpr::indexed(MemBase::Global(dst), t, 1, 0), v3.into());
        f.bin_to(i, BinOp::Add, i.into(), Operand::ImmI(1));
        let more = f.bin(BinOp::Lt, i.into(), Operand::ImmI(8));
        f.branch(more.into(), hdr, exit);
        f.switch_to(recovery);
        f.emit(Inst::Restore { region: RegionId::new(0) });
        f.jump(hdr);
        f.switch_to(exit);
        f.ret(Some(i.into()));
    });
    let m = mb.finish();
    let map = map_of(&[(fid, BlockId::new(1), BlockId::new(2))]);
    (m, map, fid)
}

/// Injects `(inject_at, bit, detect_latency)` at every eligible site,
/// asserting the spliced outcome agrees with the from-scratch replay and
/// that each fired rule implies the outcome it certifies. Returns the
/// rules that fired.
fn sweep_rules(campaign: &Twin<'_>, bit: u8, detect_latency: u64) -> Vec<SpliceRule> {
    (0..campaign.eligible_insts())
        .filter_map(|inject_at| {
            let plan = FaultPlan::bit_flip(inject_at, bit, detect_latency);
            let (outcome, rule) = campaign.run_checked(plan);
            match rule {
                Some(SpliceRule::Converged | SpliceRule::DeadDiff) => {
                    assert_eq!(outcome, FaultOutcome::Recovered, "{plan:?} fired {rule:?}")
                }
                Some(SpliceRule::Sdc) => {
                    assert_eq!(outcome, FaultOutcome::SilentCorruption, "{plan:?} fired Sdc")
                }
                None => {}
            }
            rule
        })
        .collect()
}

#[test]
fn splice_rule_converged_fires_when_rollback_heals_everything() {
    let (m, map, fid) = splice_kernel();
    let cfg = SfiConfig { snapshot_stride: 4, ..Default::default() };
    let campaign = Twin::prepare(&m, Some(&map), fid, &[], &cfg);
    // Latency 0: the trap fires before the corrupted value escapes to
    // memory, so rollback restores the pre-fault state bit-exactly.
    let rules = sweep_rules(&campaign, 0, 0);
    assert!(rules.contains(&SpliceRule::Converged), "rule (a) never fired: {rules:?}");
}

#[test]
fn splice_rule_dead_diff_fires_when_the_golden_suffix_overwrites() {
    let (m, map, fid) = splice_kernel();
    let cfg = SfiConfig { snapshot_stride: 4, ..Default::default() };
    let campaign = Twin::prepare(&m, Some(&map), fid, &[], &cfg);
    // Bit 0 on an even `t` strays the store to `dst[t + 1]`, which
    // iteration `t + 1` of the suffix rewrites; latency 4 lets the
    // store retire first.
    let rules = sweep_rules(&campaign, 0, 4);
    assert!(rules.contains(&SpliceRule::DeadDiff), "rule (b) never fired: {rules:?}");
}

#[test]
fn splice_rule_sdc_fires_on_persistent_dead_corruption() {
    let (m, map, fid) = splice_kernel();
    let cfg = SfiConfig { snapshot_stride: 4, ..Default::default() };
    let campaign = Twin::prepare(&m, Some(&map), fid, &[], &cfg);
    // Bit 5 sends the stray store to `dst[t + 32]`, which no iteration
    // ever touches again: a dead global divergence that persists to the
    // final state.
    let rules = sweep_rules(&campaign, 5, 4);
    assert!(rules.contains(&SpliceRule::Sdc), "rule (c) never fired: {rules:?}");
}

/// Cells [`armed_once_kernel`] copies and then sums.
const ARMED_ONCE_CELLS: i64 = 12;

/// Shaped like mpeg2enc's protected region: one region, armed once
/// before a loop that copies `src[j]` into `out[j]` through a scratch
/// register, then a loop that sums `out`. A fault detected in the copy
/// loop rolls back to before its first trip, so the re-executed run
/// reaches each probe with `out` cells its faulted pass already wrote
/// (one maybe corrupted), which the golden suffix writes before it reads
/// them, and with its scratch register holding a stale value the next
/// trip overwrites before reading.
fn armed_once_kernel() -> (encore_ir::Module, RegionMap, FuncId) {
    let mut mb = ModuleBuilder::new("armed_once");
    let src = mb.global_init("src", ARMED_ONCE_CELLS as u32, (1..=ARMED_ONCE_CELLS).collect());
    let out = mb.global("out", ARMED_ONCE_CELLS as u32);
    let fid = mb.function("f", 0, |f| {
        let hdr = f.add_block();
        let recovery = f.add_block();
        let copy = f.add_block();
        let sum = f.add_block();
        f.jump(hdr);
        f.switch_to(hdr);
        f.emit(Inst::SetRecovery { region: RegionId::new(0) });
        let j = f.mov(Operand::ImmI(0));
        f.jump(copy);
        f.switch_to(copy);
        let scratch = f.load(AddrExpr::indexed(MemBase::Global(src), j, 1, 0));
        f.store(AddrExpr::indexed(MemBase::Global(out), j, 1, 0), scratch.into());
        f.bin_to(j, BinOp::Add, j.into(), Operand::ImmI(1));
        let more = f.bin(BinOp::Lt, j.into(), Operand::ImmI(ARMED_ONCE_CELLS));
        f.branch(more.into(), copy, sum);
        f.switch_to(recovery);
        f.emit(Inst::Restore { region: RegionId::new(0) });
        f.jump(hdr);
        f.switch_to(sum);
        let acc = f.mov(Operand::ImmI(0));
        f.for_range(Operand::ImmI(0), Operand::ImmI(ARMED_ONCE_CELLS), |f, k| {
            let v = f.load(AddrExpr::indexed(MemBase::Global(out), k, 1, 0));
            f.bin_to(acc, BinOp::Add, acc.into(), v.into());
        });
        f.ret(Some(acc.into()));
    });
    let m = mb.finish();
    let map = map_of(&[(fid, BlockId::new(1), BlockId::new(2))]);
    (m, map, fid)
}

/// A rolled-back run of [`armed_once_kernel`] differs from golden at
/// its probes only in `out` cells the golden suffix overwrites before
/// reading them and in registers dead there, so the splice certifies it
/// `DeadDiff` while those still differ. Every plan of the bounded sweep
/// at every eligible ordinal classifies the same spliced from snapshots
/// as from scratch.
#[test]
fn a_region_armed_once_splices_its_rerun_as_dead_diff() {
    let (m, map, fid) = armed_once_kernel();
    let cfg = SfiConfig { snapshot_stride: 4, ..Default::default() };
    let campaign = Twin::prepare(&m, Some(&map), fid, &[], &cfg);
    // Ordinal 21 is the load of `src[5]` in the sixth copy trip. Bit 3
    // turns the 6 it loads into 14, the trip stores that into `out[5]`,
    // and the detection four instructions later rolls back to before
    // the first trip.
    assert_eq!(
        campaign.run_checked(FaultPlan::bit_flip(21, 3, 4)),
        (FaultOutcome::Recovered, Some(SpliceRule::DeadDiff))
    );
    let bits = [0, 1, 2, 3, 7, 31, 62, 63];
    let (plans, dead_diffs) = sweep_plans(&campaign, &bits, |rule| rule == SpliceRule::DeadDiff);
    println!("{plans} plans, {dead_diffs} dead-diff splices, 0 disagreed");
    assert!(dead_diffs > 0, "rule (b) never fired");
}

/// What the callee of [`recall_kernel`] allocates on each call.
#[derive(Clone, Copy, Debug)]
enum LeafAlloc {
    Nothing,
    Slot,
    Heap,
}

/// Iterations of [`recall_kernel`]'s loop.
const RECALL_TRIPS: i64 = 10;

/// A protected loop `acc += leaf(i)` over [`RECALL_TRIPS`] iterations.
/// Its region checkpoints the counter `i` and the accumulator, which it
/// reads and then writes (a WAR dependence), and spans the call. A fault
/// detected after `leaf` returns rolls the caller's region back, which
/// calls `leaf` a second time: the faulted run then numbers one
/// activation more than the golden run (and, with `LeafAlloc::Heap`,
/// one heap object more when the detection comes after `leaf`'s
/// `alloc`).
fn recall_kernel(leaf_alloc: LeafAlloc) -> (encore_ir::Module, RegionMap, FuncId) {
    let mut mb = ModuleBuilder::new("recall");
    let acc = mb.global("acc", 1);
    let leaf = mb.function("leaf", 1, |f| {
        let x = f.param(0);
        let y = f.bin(BinOp::Mul, x.into(), Operand::ImmI(3));
        let y = match leaf_alloc {
            LeafAlloc::Nothing => y,
            LeafAlloc::Slot => {
                let s = f.slot(1);
                f.store(AddrExpr::slot(s, 0), y.into());
                f.load(AddrExpr::slot(s, 0))
            }
            LeafAlloc::Heap => {
                let p = f.alloc(Operand::ImmI(1));
                f.store(AddrExpr::reg(p, 0), y.into());
                f.load(AddrExpr::reg(p, 0))
            }
        };
        let z = f.bin(BinOp::Add, y.into(), Operand::ImmI(1));
        f.ret(Some(z.into()));
    });
    let fid = mb.function("f", 0, |f| {
        let hdr = f.add_block();
        let recovery = f.add_block();
        let exit = f.add_block();
        let i = f.mov(Operand::ImmI(0));
        f.jump(hdr);
        f.switch_to(hdr);
        f.emit(Inst::SetRecovery { region: RegionId::new(0) });
        f.emit(Inst::CheckpointReg { reg: i });
        f.emit(Inst::CheckpointMem { addr: AddrExpr::global(acc, 0) });
        let cur = f.load(AddrExpr::global(acc, 0));
        let v = f.call(leaf, &[i.into()]);
        let next = f.bin(BinOp::Add, cur.into(), v.into());
        f.store(AddrExpr::global(acc, 0), next.into());
        // `i = (i + 1) & 15` ends the loop within 16 trips whatever a
        // fault leaves in `i`, so no plan runs until the fuel runs out.
        let inc = f.bin(BinOp::Add, i.into(), Operand::ImmI(1));
        f.bin_to(i, BinOp::And, inc.into(), Operand::ImmI(15));
        let more = f.bin(BinOp::Lt, i.into(), Operand::ImmI(RECALL_TRIPS));
        f.branch(more.into(), hdr, exit);
        f.switch_to(recovery);
        f.emit(Inst::Restore { region: RegionId::new(0) });
        f.jump(hdr);
        f.switch_to(exit);
        let out = f.load(AddrExpr::global(acc, 0));
        f.ret(Some(out.into()));
    });
    let m = mb.finish();
    let map = map_of(&[(fid, BlockId::new(1), BlockId::new(2))]);
    (m, map, fid)
}

/// Every plan of the bounded sweep at one eligible ordinal: a flip of
/// each bit in `bits` and three multi-bit bursts at every latency up to
/// `dmax`, a wrong edge and three address masks at the same latencies,
/// and a power failure.
fn plans_at(inject_at: u64, bits: &[u8], dmax: u64) -> Vec<FaultPlan> {
    const BURSTS: [u64; 3] = [0b11, 0xF << 30, 0x3 << 62];
    const ADDRESS_MASKS: [u64; 3] = [1, 2, 0x10];
    let actions = bits
        .iter()
        .map(|&b| FaultAction::FlipBits { mask: 1 << b })
        .chain(BURSTS.map(|mask| FaultAction::FlipBits { mask }))
        .chain([FaultAction::WrongEdge])
        .chain(ADDRESS_MASKS.map(|mask| FaultAction::CorruptAddress { mask }));
    let mut plans: Vec<FaultPlan> = actions
        .flat_map(|action| {
            (0..=dmax).map(move |detect_latency| FaultPlan { inject_at, action, detect_latency })
        })
        .collect();
    plans.push(FaultPlan { inject_at, action: FaultAction::PowerFailure, detect_latency: 0 });
    plans
}

/// Runs every plan of the bounded sweep (`plans_at` up to latency 24)
/// at every eligible ordinal through both twins, asserting they
/// classify each identically, and returns how many plans ran and how
/// many spliced under a rule `counted` accepts.
fn sweep_plans(
    campaign: &Twin<'_>,
    bits: &[u8],
    counted: impl Fn(SpliceRule) -> bool,
) -> (usize, usize) {
    let (mut plans, mut spliced) = (0, 0);
    for inject_at in 0..campaign.eligible_insts() {
        for plan in plans_at(inject_at, bits, 24) {
            plans += 1;
            spliced += usize::from(campaign.run_checked(plan).1.is_some_and(&counted));
        }
    }
    (plans, spliced)
}

/// The bounded-exhaustive half of the renaming argument (DESIGN.md
/// §14): the splice gate and the campaign memo compare states up to the
/// numbers that only name slot and heap objects. On kernels whose
/// rollbacks re-call a function, every fault plan up to a latency of 24
/// classifies the same resumed from snapshots with splicing on as from
/// scratch with splicing off, so a run renamed by a second call and
/// spliced against golden state is never misclassified.
#[test]
fn renamed_reruns_splice_to_the_no_splice_outcome_under_every_plan() {
    let all_bits: Vec<u8> = (0..64).collect();
    let some_bits = [0, 1, 2, 7, 31, 62, 63];
    let cfg = SfiConfig { snapshot_stride: 8, ..Default::default() };
    for (leaf_alloc, bits) in [
        (LeafAlloc::Nothing, &all_bits[..]),
        (LeafAlloc::Slot, &some_bits[..]),
        (LeafAlloc::Heap, &some_bits[..]),
    ] {
        let (m, map, fid) = recall_kernel(leaf_alloc);
        let campaign = Twin::prepare(&m, Some(&map), fid, &[], &cfg);
        let (plans, spliced) = sweep_plans(&campaign, bits, |_| true);
        println!("{leaf_alloc:?}: {plans} plans, {spliced} spliced, 0 disagreed");
        assert!(spliced > 0, "{leaf_alloc:?}: nothing spliced");
    }

    // Ordinal 26 is `leaf`'s multiply in the fourth trip. Bit 3 of the
    // product reaches the caller, which stores it; the detection four
    // instructions later, after `leaf` returned, restores the
    // accumulator and re-executes the trip, calling `leaf` again. The
    // re-executed run then equals golden state in everything but the
    // activation count, so it splices at its first probe; while the
    // gate compared that count, it executed to the end.
    let (m, map, fid) = recall_kernel(LeafAlloc::Nothing);
    let campaign = Twin::prepare(&m, Some(&map), fid, &[], &cfg);
    assert_eq!(
        campaign.run_checked(FaultPlan::bit_flip(26, 3, 4)),
        (FaultOutcome::Recovered, Some(SpliceRule::Converged))
    );
}

/// Fixed-seed smoke check wired into `scripts/ci.sh`: one small campaign
/// on the hand-built kernel engages all three splice rules and saves
/// golden-suffix work. Deterministic by construction (seeded plans,
/// deterministic interpreter), so a pass here is stable.
#[test]
fn splice_smoke_all_rules_engage() {
    let (m, map, fid) = splice_kernel();
    let cfg = SfiConfig {
        injections: 512,
        dmax: 8,
        seed: 0x5E1CE,
        workers: 2,
        snapshot_stride: 4,
        ..Default::default()
    };
    let campaign =
        SfiCampaign::prepare(&m, Some(&map), fid, &[], &cfg).expect("golden run completes");
    let report = campaign.run_report(&cfg);
    for rule in SpliceRule::ALL {
        assert!(
            report.splice.count(rule) > 0,
            "{} rule never engaged: {:?}",
            rule.label(),
            report.splice
        );
    }
    assert!(report.splice.dyn_insts_saved > 0, "splicing saved no work");
}

/// A workload whose golden run traps cannot host a campaign; `prepare`
/// reports it as a typed error instead of panicking.
#[test]
fn prepare_surfaces_trapping_golden_run_as_error() {
    let mut mb = ModuleBuilder::new("bad");
    let g = mb.global("g", 1);
    let fid = mb.function("f", 0, |f| {
        f.store(AddrExpr::global(g, 7), Operand::ImmI(1)); // out of bounds
        f.ret(None);
    });
    let m = mb.finish();
    let err = SfiCampaign::prepare(&m, None, fid, &[], &SfiConfig::default())
        .expect_err("trapping golden run must be an error");
    assert!(err.to_string().contains("golden run trapped"), "unhelpful error: {err}");
}
