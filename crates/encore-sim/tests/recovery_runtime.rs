//! Fine-grained tests of the recovery runtime semantics, using
//! hand-instrumented modules (explicit `SetRecovery` / `CheckpointMem` /
//! `CheckpointReg` / `Restore` placement) so each behavior is pinned
//! independently of the compiler pipeline:
//!
//! * checkpoints restore in reverse order;
//! * re-arming a region resets its log;
//! * recovery unwinds through pure callee frames;
//! * stale arming (detection after region exit) rolls back to the wrong
//!   region and is visible as state divergence;
//! * detection with no armed frame is unrecoverable;
//! * a fault in an extern's result is detected after its latency, like
//!   a fault in any other value;
//! * `RunResult::fault` reports where each fault action fired and what
//!   its detection did;
//! * a callee's second activation starts with zeroed registers and no
//!   armed recovery, whatever the first one left behind.

use encore_core::{RegionInfo, RegionMap};
use encore_ir::{
    AddrExpr, BinOp, BlockId, ExtEffect, FuncId, Inst, ModuleBuilder, Operand, RegionId, Terminator,
};
use encore_sim::{run_function, FaultAction, FaultPlan, RunConfig, TrapKind, Value};

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

#[test]
fn restore_applies_log_in_reverse_order() {
    // Region body: ckpt g[0]; g[0]=1; ckpt g[0]; g[0]=2; then jump to the
    // recovery block directly (simulating a detected fault): the restore
    // must bring g[0] back to its ORIGINAL value (0), not 1 — proving
    // reverse-order application.
    let mut mb = ModuleBuilder::new("m");
    let g = mb.global("g", 1);
    let fid = mb.function("f", 1, |f| {
        let rerun = f.param(0);
        let body = f.add_block();
        let recovery = f.add_block();
        let done = f.add_block();
        f.jump(body);
        f.switch_to(body);
        f.emit(Inst::SetRecovery { region: RegionId::new(0) });
        f.emit(Inst::CheckpointMem { addr: AddrExpr::global(g, 0) });
        f.store(AddrExpr::global(g, 0), Operand::ImmI(1));
        f.emit(Inst::CheckpointMem { addr: AddrExpr::global(g, 0) });
        f.store(AddrExpr::global(g, 0), Operand::ImmI(2));
        // First pass (rerun=1) jumps into the recovery block by hand.
        f.branch(rerun.into(), recovery, done);
        f.switch_to(recovery);
        f.emit(Inst::Restore { region: RegionId::new(0) });
        f.jump(done);
        f.switch_to(done);
        let v = f.load(AddrExpr::global(g, 0));
        f.ret(Some(v.into()));
    });
    let m = mb.finish();
    let map = map_of(&[(fid, BlockId::new(1), BlockId::new(2))]);
    // With the manual "rollback": g restored to 0.
    let r = run_function(&m, Some(&map), fid, &[Value::Int(1)], &RunConfig::default());
    assert_eq!(r.ret, Some(Value::Int(0)));
    // Without it: last store wins.
    let r2 = run_function(&m, Some(&map), fid, &[Value::Int(0)], &RunConfig::default());
    assert_eq!(r2.ret, Some(Value::Int(2)));
}

#[test]
fn rearming_resets_the_checkpoint_log() {
    // Two successive activations of a region whose body is the
    // accumulating WAR `g[0] += 10` (checkpointed). If re-arming failed
    // to reset the log, a rollback in the second activation would
    // restore all the way to the *first* activation's entry value (0)
    // and re-execution would finish at 10 instead of the golden 20.
    let mut mb = ModuleBuilder::new("m");
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
        let more = f.bin(BinOp::Lt, i.into(), Operand::ImmI(2));
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

    let golden = run_function(&m, Some(&map), fid, &[], &RunConfig::default());
    assert_eq!(golden.ret, Some(Value::Int(20)));

    let mut rollbacks = 0;
    for inject_at in 0..golden.eligible_insts {
        let r = run_function(
            &m,
            Some(&map),
            fid,
            &[],
            &RunConfig {
                fault: Some(FaultPlan::bit_flip(inject_at, 1, 0)),
                ..Default::default()
            },
        );
        if !r.fault.rolled_back {
            continue;
        }
        rollbacks += 1;
        assert!(r.completed, "inject_at={inject_at}: {:?}", r.trap);
        assert!(
            r.observably_equal(&golden),
            "inject_at={inject_at}: stale checkpoint log (ret={:?}, golden 20)",
            r.ret
        );
    }
    assert!(rollbacks > 0, "no injection exercised the rollback path");
}

#[test]
fn recovery_unwinds_through_pure_callee_frames() {
    // A protected region calls a pure helper; the fault is injected and
    // detected inside the callee. Recovery must unwind to the caller's
    // armed frame and re-execute the call.
    let mut mb = ModuleBuilder::new("m");
    let g = mb.global("g", 1);
    let sq = mb.function("sq", 1, |f| {
        let p = f.param(0);
        let r = f.bin(BinOp::Mul, p.into(), p.into());
        f.ret(Some(r.into()));
    });
    let fid = mb.function("main", 0, |f| {
        let hdr = f.add_block();
        let recovery = f.add_block();
        let exit = f.add_block();
        f.jump(hdr);
        f.switch_to(hdr);
        f.emit(Inst::SetRecovery { region: RegionId::new(0) });
        let v = f.call(sq, &[Operand::ImmI(6)]);
        f.store(AddrExpr::global(g, 0), v.into());
        f.jump(exit);
        f.switch_to(recovery);
        f.emit(Inst::Restore { region: RegionId::new(0) });
        f.jump(hdr);
        f.switch_to(exit);
        let out = f.load(AddrExpr::global(g, 0));
        f.ret(Some(out.into()));
    });
    let m = mb.finish();
    let map = map_of(&[(fid, BlockId::new(1), BlockId::new(2))]);
    let golden = run_function(&m, Some(&map), fid, &[], &RunConfig::default());
    assert_eq!(golden.ret, Some(Value::Int(36)));

    let mut recovered_from_callee = false;
    for inject_at in 0..golden.eligible_insts {
        let r = run_function(
            &m,
            Some(&map),
            fid,
            &[],
            &RunConfig {
                fault: Some(FaultPlan::bit_flip(inject_at, 4, 0)),
                ..Default::default()
            },
        );
        if r.fault.rolled_back && r.completed {
            assert!(r.observably_equal(&golden), "inject_at={inject_at}");
            if r.fault.inject_site.map(|(f2, _)| f2) == Some(sq) {
                recovered_from_callee = true;
            }
        }
    }
    assert!(recovered_from_callee, "no fault was recovered from inside the callee");
}

#[test]
fn detection_without_armed_region_is_unrecoverable() {
    let mut mb = ModuleBuilder::new("m");
    let g = mb.global("g", 1);
    let fid = mb.function("f", 0, |f| {
        let v = f.bin(BinOp::Add, Operand::ImmI(1), Operand::ImmI(2));
        let w = f.bin(BinOp::Mul, v.into(), Operand::ImmI(3));
        f.store(AddrExpr::global(g, 0), w.into());
        f.ret(Some(w.into()));
    });
    let m = mb.finish();
    let r = run_function(
        &m,
        None,
        fid,
        &[],
        &RunConfig {
            fault: Some(FaultPlan::bit_flip(0, 0, 0)),
            ..Default::default()
        },
    );
    assert!(!r.completed);
    assert_eq!(r.trap.unwrap().kind, TrapKind::DetectedUnrecoverable);
    assert!(r.fault.detected);
    assert!(!r.fault.rolled_back);
}

/// An extern's result is a value like any other: a fault in it is
/// detected `latency` instructions after the call retires (at once for a
/// power failure), in the middle of the straight-line code after it.
#[test]
fn a_fault_in_an_externs_result_is_detected_after_its_latency() {
    let mut mb = ModuleBuilder::new("m");
    let fid = mb.function("f", 0, |f| {
        let r = f.call_ext("prng", &[], ExtEffect::Opaque);
        for _ in 0..8 {
            f.mov(Operand::ImmI(0));
        }
        f.ret(Some(r.into()));
    });
    let m = mb.finish();
    let power = FaultPlan { inject_at: 0, action: FaultAction::PowerFailure, detect_latency: 0 };
    let plans = (0..6).map(|l| (FaultPlan::bit_flip(0, 0, l), 1 + l)).chain([(power, 1)]);
    for (plan, want_at) in plans {
        let config = RunConfig { fault: Some(plan), ..Default::default() };
        let r = run_function(&m, None, fid, &[], &config);
        let trap = r.trap.expect("detection ends the run");
        assert_eq!((trap.kind, trap.at), (TrapKind::DetectedUnrecoverable, want_at), "{plan:?}");
        assert_eq!(r.fault.inject_site, Some((fid, BlockId::new(0))), "{plan:?}");
    }
}

#[test]
fn stale_arming_rolls_back_to_wrong_region() {
    // Region 0 (idempotent, armed) is followed by unprotected code with a
    // WAR; the fault strikes in the unprotected part. The runtime rolls
    // back to the stale region-0 recovery block — execution completes but
    // with corrupted state (the paper's "Not Recoverable" case, caught by
    // golden-state comparison).
    let mut mb = ModuleBuilder::new("m");
    let g = mb.global_init("g", 2, vec![5, 0]);
    let fid = mb.function("f", 0, |f| {
        let hdr = f.add_block();
        let recovery = f.add_block();
        let tail = f.add_block();
        f.jump(hdr);
        f.switch_to(hdr);
        f.emit(Inst::SetRecovery { region: RegionId::new(0) });
        let a = f.load(AddrExpr::global(g, 0));
        f.store(AddrExpr::global(g, 1), a.into());
        f.jump(tail);
        f.switch_to(recovery);
        f.emit(Inst::Restore { region: RegionId::new(0) });
        f.jump(hdr);
        f.switch_to(tail);
        // Unprotected WAR: g[0] = g[0] * 2, repeated twice. Re-executing
        // the tail after a stale rollback doubles g[0] more than twice.
        for _ in 0..2 {
            let v = f.load(AddrExpr::global(g, 0));
            let v2 = f.bin(BinOp::Mul, v.into(), Operand::ImmI(2));
            f.store(AddrExpr::global(g, 0), v2.into());
        }
        let out = f.load(AddrExpr::global(g, 0));
        f.ret(Some(out.into()));
    });
    let m = mb.finish();
    let map = map_of(&[(fid, BlockId::new(1), BlockId::new(2))]);
    let golden = run_function(&m, Some(&map), fid, &[], &RunConfig::default());
    assert_eq!(golden.ret, Some(Value::Int(20)));

    // Find a fault in the tail whose stale rollback corrupts state.
    let mut saw_corruption_after_rollback = false;
    for inject_at in 0..golden.eligible_insts {
        let r = run_function(
            &m,
            Some(&map),
            fid,
            &[],
            &RunConfig {
                fault: Some(FaultPlan::bit_flip(inject_at, 0, 0)),
                ..Default::default()
            },
        );
        if r.completed && r.fault.rolled_back && !r.observably_equal(&golden) {
            saw_corruption_after_rollback = true;
        }
    }
    assert!(
        saw_corruption_after_rollback,
        "stale-region rollback should corrupt at least one injection site"
    );
}

#[test]
fn checkpoint_reg_restores_live_in() {
    // Region overwrites a live-in register; the checkpoint must restore
    // it on rollback so re-execution sees the entry value.
    let mut mb = ModuleBuilder::new("m");
    let g = mb.global("g", 1);
    let fid = mb.function("f", 1, |f| {
        let p = f.param(0);
        let hdr = f.add_block();
        let recovery = f.add_block();
        let exit = f.add_block();
        f.jump(hdr);
        f.switch_to(hdr);
        f.emit(Inst::SetRecovery { region: RegionId::new(0) });
        f.emit(Inst::CheckpointReg { reg: p });
        // Clobber p, then store it.
        f.bin_to(p, BinOp::Add, p.into(), Operand::ImmI(100));
        f.store(AddrExpr::global(g, 0), p.into());
        f.jump(exit);
        f.switch_to(recovery);
        f.emit(Inst::Restore { region: RegionId::new(0) });
        f.jump(hdr);
        f.switch_to(exit);
        let out = f.load(AddrExpr::global(g, 0));
        f.ret(Some(out.into()));
    });
    let m = mb.finish();
    let map = map_of(&[(fid, BlockId::new(1), BlockId::new(2))]);
    let golden = run_function(&m, Some(&map), fid, &[Value::Int(7)], &RunConfig::default());
    assert_eq!(golden.ret, Some(Value::Int(107)));
    for inject_at in 0..golden.eligible_insts {
        let r = run_function(
            &m,
            Some(&map),
            fid,
            &[Value::Int(7)],
            &RunConfig {
                fault: Some(FaultPlan::bit_flip(inject_at, 3, 0)),
                ..Default::default()
            },
        );
        if r.fault.injected && r.fault.rolled_back {
            assert!(r.completed, "inject_at={inject_at}: {:?}", r.trap);
            assert!(
                r.observably_equal(&golden),
                "inject_at={inject_at}: live-in not restored (ret={:?})",
                r.ret
            );
        }
    }
}

#[test]
fn recycled_activations_start_clean() {
    // `main` arms region 0 and calls `callee` twice. The first
    // activation takes the path that writes `x` and arms region 1; the
    // second takes neither. A second activation must therefore read `x`
    // as 0, and a fault detected in it before its own `SetRecovery`
    // must unwind to the caller's region 0, not to region 1 left over
    // from the first activation — whatever the interpreter reuses
    // between activations.
    let mut mb = ModuleBuilder::new("m");
    let g = mb.global("g", 1);
    let callee = mb.function("callee", 1, |f| {
        let flag = f.param(0);
        let x = f.reg();
        let set = f.add_block();
        let arm = f.add_block();
        let recovery = f.add_block();
        let exit = f.add_block();
        // The one fault-eligible instruction before either arming.
        f.bin(BinOp::Add, flag.into(), Operand::ImmI(1));
        f.branch(flag.into(), set, exit);
        f.switch_to(set);
        f.mov_to(x, Operand::ImmI(42));
        f.jump(arm);
        f.switch_to(arm);
        f.emit(Inst::SetRecovery { region: RegionId::new(1) });
        f.emit(Inst::CheckpointReg { reg: x });
        f.jump(exit);
        f.switch_to(recovery);
        f.emit(Inst::Restore { region: RegionId::new(1) });
        f.jump(arm);
        f.switch_to(exit);
        f.ret(Some(x.into()));
    });
    let main = mb.function("main", 0, |f| {
        let hdr = f.add_block();
        let recovery = f.add_block();
        let exit = f.add_block();
        f.jump(hdr);
        f.switch_to(hdr);
        f.emit(Inst::SetRecovery { region: RegionId::new(0) });
        f.call(callee, &[Operand::ImmI(1)]);
        let second = f.call(callee, &[Operand::ImmI(0)]);
        f.store(AddrExpr::global(g, 0), second.into());
        f.jump(exit);
        f.switch_to(recovery);
        f.emit(Inst::Restore { region: RegionId::new(0) });
        f.jump(hdr);
        f.switch_to(exit);
        f.ret(Some(second.into()));
    });
    let m = mb.finish();
    let map = map_of(&[
        (main, BlockId::new(1), BlockId::new(2)),
        (callee, BlockId::new(2), BlockId::new(3)),
    ]);
    let golden = run_function(&m, Some(&map), main, &[], &RunConfig::default());
    assert!(golden.completed, "{:?}", golden.trap);
    assert_eq!(golden.ret, Some(Value::Int(0)), "the second activation read a stale register");

    // The callee's entry block retires its one eligible instruction
    // once per activation; the second such ordinal is the second
    // activation's, before it reaches `SetRecovery`.
    let entry_faults: Vec<_> = (0..golden.eligible_insts)
        .map(|inject_at| {
            let config = RunConfig {
                fault: Some(FaultPlan::bit_flip(inject_at, 5, 0)),
                ..Default::default()
            };
            run_function(&m, Some(&map), main, &[], &config)
        })
        .filter(|r| r.fault.inject_site == Some((callee, BlockId::new(0))))
        .collect();
    assert_eq!(entry_faults.len(), 2, "one entry-block fault site per activation");
    let second = &entry_faults[1];
    assert!(second.fault.rolled_back, "latency-0 detection must roll back");
    assert_eq!(
        second.fault.rollback_region,
        Some(RegionId::new(0)),
        "the second activation unwound to a recovery it never armed"
    );
    assert!(second.completed && second.observably_equal(&golden), "{:?}", second.trap);
}

#[test]
fn fault_telemetry_reports_what_every_action_did() {
    // The accumulation loop of `rearming_resets_the_checkpoint_log`
    // behind an unprotected prefix (a `mov`, and a load and store of
    // g[1]): a fault detected in the prefix has no recovery to roll back
    // to, and a deferred action armed there fires in the loop.
    let mut mb = ModuleBuilder::new("m");
    let g = mb.global("g", 2);
    let fid = mb.function("f", 0, |f| {
        let hdr = f.add_block();
        let recovery = f.add_block();
        let exit = f.add_block();
        let i = f.mov(Operand::ImmI(0));
        let x = f.load(AddrExpr::global(g, 1));
        f.store(AddrExpr::global(g, 1), x.into());
        f.jump(hdr);
        f.switch_to(hdr);
        f.emit(Inst::SetRecovery { region: RegionId::new(0) });
        f.emit(Inst::CheckpointReg { reg: i });
        f.emit(Inst::CheckpointMem { addr: AddrExpr::global(g, 0) });
        let cur = f.load(AddrExpr::global(g, 0));
        let next = f.bin(BinOp::Add, cur.into(), Operand::ImmI(10));
        f.store(AddrExpr::global(g, 0), next.into());
        f.bin_to(i, BinOp::Add, i.into(), Operand::ImmI(1));
        let more = f.bin(BinOp::Lt, i.into(), Operand::ImmI(2));
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
    let golden = run_function(&m, Some(&map), fid, &[], &RunConfig::default());
    assert_eq!(golden.ret, Some(Value::Int(20)));

    let func = m.func(fid);
    let ends_in_branch =
        |b: BlockId| matches!(func.block(b).term, Some(Terminator::Branch { .. }));
    let accesses_memory = |b: BlockId| {
        func.block(b).insts.iter().any(|i| i.load_addr().is_some() || i.store_addr().is_some())
    };
    // Mask 1 keeps a corrupted g index in bounds; mask 2 sends it out
    // of bounds, so detection comes from the symptom trap.
    let actions = [
        FaultAction::FlipBits { mask: 1 << 1 },
        FaultAction::WrongEdge,
        FaultAction::CorruptAddress { mask: 1 },
        FaultAction::CorruptAddress { mask: 2 },
        FaultAction::PowerFailure,
    ];
    let mut fired = [false; 5];
    for (a, &action) in actions.iter().enumerate() {
        for inject_at in 0..golden.eligible_insts + 2 {
            for detect_latency in [0, 3] {
                let plan = FaultPlan { inject_at, action, detect_latency };
                let config = RunConfig { fault: Some(plan), ..Default::default() };
                let r = run_function(&m, Some(&map), fid, &[], &config);
                let t = r.fault;
                let unrecoverable =
                    r.trap.as_ref().is_some_and(|t| t.kind == TrapKind::DetectedUnrecoverable);
                assert_eq!(t.inject_site.is_some(), t.injected, "{plan:?}: {t:?}");
                assert!(!t.rolled_back || t.detected, "{plan:?}: {t:?}");
                assert!(!t.detected || t.injected, "{plan:?}: {t:?}");
                assert_eq!(
                    t.rollback_region,
                    t.rolled_back.then_some(RegionId::new(0)),
                    "{plan:?}: {t:?}"
                );
                assert_eq!(t.detected && !t.rolled_back, unrecoverable, "{plan:?}: {t:?} {r:?}");
                let Some((site_func, block)) = t.inject_site else {
                    assert!(
                        r.completed && r.observably_equal(&golden),
                        "{plan:?}: a fault that never fired changed the run"
                    );
                    continue;
                };
                fired[a] = true;
                assert_eq!(site_func, fid);
                match action {
                    FaultAction::WrongEdge => assert!(ends_in_branch(block), "{plan:?}: {t:?}"),
                    FaultAction::CorruptAddress { .. } => {
                        assert!(accesses_memory(block), "{plan:?}: {t:?}");
                    }
                    FaultAction::PowerFailure => assert!(t.detected, "{plan:?}: {t:?}"),
                    FaultAction::FlipBits { .. } => {}
                }
            }
        }
    }
    assert_eq!(fired, [true; 5], "an action never fired");
}
