//! Observation must not perturb execution.
//!
//! Profiling, tracing and the golden run's record are hooks in the
//! interpreter's one sprint executor. These tests pin both halves
//! of that contract:
//!
//! * a run that collects a profile and a trace is the *same run* as a
//!   plain one — every [`RunResult`] field other than `profile` and
//!   `trace` is equal, with and without an injected fault;
//! * what the observers record is pinned by digest per kernel: the
//!   training [`Profile`](encore::analysis::Profile), its memory-event
//!   trace, and the golden [`SnapshotLog`] (the golden record's
//!   activation timeline, each cell's last write interval and its first
//!   access in every interval, the registers live at each snapshot
//!   frame's position, and the interval page lists). A change to where
//!   or how the hooks fire changes what the analyses see and trips
//!   these.

use encore::analysis::Profile;
use encore::core::{Encore, EncoreConfig, InstrumentedModule};
use encore::ir::Module;
use encore::sim::{
    run_function, run_function_with_snapshots, DecodedModule, FaultModelKind, RunConfig, RunResult,
    SfiConfig, Value,
};
use encore::workloads::fuzz;

/// Stable 64-bit FNV-1a digest of a value's `Debug` rendering.
fn digest(v: &impl std::fmt::Debug) -> u64 {
    format!("{v:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Asserts `observed` equals `plain` in every field but the two the
/// observers fill.
fn assert_same_run(plain: &RunResult, observed: &RunResult, what: &str) {
    let strip = |r: &RunResult| RunResult { profile: None, trace: None, ..r.clone() };
    assert!(observed.profile.is_some() && observed.trace.is_some(), "{what}: nothing observed");
    assert_eq!(strip(plain), strip(observed), "{what}: observation changed the run");
}

fn observe(config: &RunConfig) -> RunConfig {
    RunConfig { collect_profile: true, collect_trace: true, ..config.clone() }
}

/// Instruments `module` from a training profile (budget unlimited so
/// every region is armed and checkpointed).
fn protect(module: &Module, profile: &Profile) -> InstrumentedModule {
    Encore::new(EncoreConfig::default().with_overhead_budget(1e9)).run(module, profile).instrumented
}

/// Per-kernel digests of `(profile, trace, snapshot log)`. The profile
/// and trace digests were recorded before observation moved into the
/// sprint loop. The log digest pins the `Debug` form of the golden
/// record and the live-register masks: re-pin it only with a dump
/// showing every snapshot's write set and the activation timeline
/// unchanged, and every cell live after a snapshot one the golden run
/// reads after it.
const KERNEL_DIGESTS: [(&str, u64, u64, u64); 23] = [
    ("164.gzip", 0x001bf48b8ca0a876, 0x4c63284ea321d96c, 0xb19c68e5a278b7d1),
    ("175.vpr", 0xce2172372931e89b, 0xbddc1fa7b9b04146, 0x97b1a6b913a961b7),
    ("181.mcf", 0xb5c626429cfcd7bf, 0xefd47db0764d1418, 0xaa63943e004403b2),
    ("197.parser", 0x666d8d050c3e736e, 0x591c4c590341f4b8, 0x59eb4c249367ea84),
    ("256.bzip2", 0x138d34c5a53f22ba, 0x20b25adc02231466, 0x5faad67f93b6b874),
    ("300.twolf", 0x8c3a86cd25ef487a, 0xd2806d4a7e790398, 0xd589573699f4ed41),
    ("172.mgrid", 0x047785c8be1de3bc, 0x92a4c38c70e8783a, 0x6aef9f414af1b3bd),
    ("173.applu", 0xe75a8ac73698e6de, 0x4dc5253c80932706, 0x38cb25883fa36709),
    ("177.mesa", 0xfae7e6bef20da505, 0x7a409c9be9c40408, 0x791625bb8e8b7c57),
    ("179.art", 0x4ff55bed8d5c7928, 0x2cdb5dc95e9c6be7, 0xf5128d18165427b7),
    ("183.equake", 0x0a89538d94fd20fb, 0x2c1d97b0698ba526, 0xf5ee7c5c9640b0d5),
    ("cjpeg", 0xed9900e460a2fd0b, 0x777b7e7ffcc56d8f, 0xf0dde3d611b9b5c6),
    ("djpeg", 0x7daee951823bae9d, 0x938735963b49c58f, 0x7f31ed7861edc975),
    ("epic", 0x86688c7c373566fd, 0x387e928231a2683c, 0xfb70f49492f43f9b),
    ("unepic", 0x0e959f6cd92bcc5c, 0x123bccd59312527d, 0xcc13fd4c18e4ccdf),
    ("g721encode", 0x55e2af37255e094a, 0x4bc925c3754012ef, 0xc7e36a396fff0cbf),
    ("g721decode", 0xe9613355a74e5347, 0x62a33fd20ddfd5ec, 0xa1fedf5a167210d2),
    ("mpeg2dec", 0x8bbb69f1bc98f5ab, 0x2230adae6987ee3d, 0x3b4d470bee8d7642),
    ("mpeg2enc", 0x91becc5c9f6168fe, 0x2a8cdf65404e3e02, 0x8a1b8ecbc1604b31),
    ("pegwitdec", 0x9aa10d3dadf2fca1, 0x2aabbb462597646c, 0x3f3486a9b862b104),
    ("pegwitenc", 0x9aa10d3dadf2fca1, 0x2aabbb462597646c, 0x3f3486a9b862b104),
    ("rawcaudio", 0x8c40cb4e464967a6, 0x425d3c837d040004, 0xa823c2432e93ba25),
    ("rawdaudio", 0xc0c042a654c1752f, 0x14ffd16484d63530, 0x6fe103ffc2a457f2),
];

/// Every kernel: the observed training run equals the plain one, the
/// instrumented module's observed run equals its plain run, and the
/// profile, trace and golden snapshot log match their pinned digests.
#[test]
fn observed_kernel_runs_match_plain_runs_and_pinned_views() {
    let workloads = encore::workloads::all();
    assert_eq!(workloads.len(), KERNEL_DIGESTS.len());
    let mut got = Vec::new();
    for (w, &(name, ..)) in workloads.iter().zip(&KERNEL_DIGESTS) {
        assert_eq!(w.name, name, "kernel order changed");
        let args = [Value::Int(w.train_arg)];
        let plain = run_function(&w.module, None, w.entry, &args, &RunConfig::default());
        let observed =
            run_function(&w.module, None, w.entry, &args, &observe(&RunConfig::default()));
        assert_same_run(&plain, &observed, name);
        let profile = observed.profile.as_ref().expect("profile");
        let trace = observed.trace.as_ref().expect("trace");

        let inst = protect(&w.module, profile);
        let map = Some(&inst.map);
        let config = RunConfig::default();
        let plain = run_function(&inst.module, map, w.entry, &args, &config);
        let observed = run_function(&inst.module, map, w.entry, &args, &observe(&config));
        assert_same_run(&plain, &observed, name);

        let code = DecodedModule::new(&inst.module, map);
        let (golden, log) =
            run_function_with_snapshots(&inst.module, map, &code, w.entry, &args, &config, 64);
        assert_eq!(golden, plain, "{name}: snapshot capture changed the run");
        got.push((name, digest(profile), digest(trace), digest(&log)));
    }
    let table: String = got
        .iter()
        .map(|(n, p, t, l)| format!("    (\"{n}\", {p:#018x}, {t:#018x}, {l:#018x}),\n"))
        .collect();
    assert!(
        got.iter().zip(&KERNEL_DIGESTS).all(|(g, w)| g == w),
        "observed views changed; digests now:\n{table}"
    );
}

/// 64 fuzz programs, plain and instrumented, fault-free and under one
/// planned fault per model: observation never changes the run.
#[test]
fn observed_fuzz_runs_match_plain_runs() {
    let mut rollbacks = 0;
    for index in 0..64 {
        let prog = fuzz::program_for(0x0B5E_47E5, index);
        let (module, entry) = fuzz::build(&prog);
        let args = [Value::Int(prog.arg)];
        let plain = run_function(&module, None, entry, &args, &RunConfig::default());
        let observed = run_function(&module, None, entry, &args, &observe(&RunConfig::default()));
        let what = format!("fuzz case {index}");
        assert_same_run(&plain, &observed, &what);
        if !plain.completed {
            continue;
        }
        let inst = protect(&module, observed.profile.as_ref().expect("profile"));
        let map = Some(&inst.map);
        let golden = run_function(&inst.module, map, entry, &args, &RunConfig::default());
        for (k, model) in FaultModelKind::ALL.into_iter().enumerate() {
            let sfi = SfiConfig { seed: index, dmax: 16, model, ..SfiConfig::default() };
            let plan = sfi.plan_for(k as u64, golden.eligible_insts.max(1));
            let config = RunConfig {
                fuel: golden.dyn_insts * 4 + 1000,
                fault: Some(plan),
                ..RunConfig::default()
            };
            let plain = run_function(&inst.module, map, entry, &args, &config);
            let observed = run_function(&inst.module, map, entry, &args, &observe(&config));
            assert_same_run(&plain, &observed, &format!("{what}, {plan:?}"));
            rollbacks += usize::from(plain.fault.rolled_back);
        }
    }
    assert!(rollbacks > 0, "no planned fault rolled back: recovery went unobserved");
}
