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
//!   trace, and the golden [`SnapshotLog`] (the golden run's activation
//!   timeline, each cell's first access in every interval that touched
//!   it, and the registers live at each snapshot frame's position). A
//!   change to where or how the hooks fire changes what the analyses see
//!   and trips these.

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

/// Per-kernel digests of `(profile, trace, snapshot log)`. The trace
/// digest was recorded before observation moved into the sprint loop,
/// and the profile digest when the profile's per-function instruction
/// and return counters left it. The log digest pins the `Debug` form of
/// the golden run's activation timeline, its first accesses and the
/// live-register masks: re-pin it only with a dump showing, for every
/// snapshot and every cell of the final memory, the kind of the golden
/// run's first access to the cell after the snapshot unchanged, and the
/// activation timeline and the masks identical. When a field leaves the
/// profile or the log, re-pin that column only where the parent's
/// digest of its `Debug` text with that field cut out equals the new
/// digest for every kernel.
const KERNEL_DIGESTS: [(&str, u64, u64, u64); 23] = [
    ("164.gzip", 0x683be46285d95d0b, 0x4c63284ea321d96c, 0x1a980e9ddb8745f4),
    ("175.vpr", 0x9136a9a77be757d6, 0xbddc1fa7b9b04146, 0x7aa94d9ecf60dee3),
    ("181.mcf", 0xd41ba4ef02c51861, 0xefd47db0764d1418, 0xa7da5e3f043efb0b),
    ("197.parser", 0x165c1626122254be, 0x591c4c590341f4b8, 0x542313ee899c19da),
    ("256.bzip2", 0x8b788d8116d5450d, 0x20b25adc02231466, 0x9d5b719f15321658),
    ("300.twolf", 0x3b5ba2c2beddc2e8, 0xd2806d4a7e790398, 0x7ce14e387b2e4eb5),
    ("172.mgrid", 0x73b6bd953f61ef5c, 0x92a4c38c70e8783a, 0x7be19b29e12084d9),
    ("173.applu", 0x1b838d6a380549b1, 0x4dc5253c80932706, 0x306a95dba7c2c827),
    ("177.mesa", 0xeb2a1e3b0966e582, 0x7a409c9be9c40408, 0x571f49eb08be3c96),
    ("179.art", 0x54a7725848b4551b, 0x2cdb5dc95e9c6be7, 0xe356242dd2e0bfeb),
    ("183.equake", 0x24d572f5a884785d, 0x2c1d97b0698ba526, 0x92175c65eb621943),
    ("cjpeg", 0x6708641728255bfc, 0x777b7e7ffcc56d8f, 0x4ce0357f296dcc0f),
    ("djpeg", 0x083f4bf5424c2241, 0x938735963b49c58f, 0xcdf7531d59db1774),
    ("epic", 0x2b50e6eab85adc0d, 0x387e928231a2683c, 0x335741bedec17553),
    ("unepic", 0xef1f64dab35985d2, 0x123bccd59312527d, 0x9cd8a971bdc15ad7),
    ("g721encode", 0x318ba330c4320ce5, 0x4bc925c3754012ef, 0x58aefd6cbeaa2048),
    ("g721decode", 0xa0528768859db875, 0x62a33fd20ddfd5ec, 0x75c7fd4ced4eac89),
    ("mpeg2dec", 0x1704f7cae5386b61, 0x2230adae6987ee3d, 0x035487e7a21f2513),
    ("mpeg2enc", 0x49c5f195f7c01f02, 0x2a8cdf65404e3e02, 0x31cd8bb0aa3c7121),
    ("pegwitdec", 0x531654899630dea8, 0x2aabbb462597646c, 0xca2efcea50f1c2b3),
    ("pegwitenc", 0x531654899630dea8, 0x2aabbb462597646c, 0xca2efcea50f1c2b3),
    ("rawcaudio", 0xc78d056259f18830, 0x425d3c837d040004, 0x7554229d1da18532),
    ("rawdaudio", 0x2761e95b9cd3d263, 0x14ffd16484d63530, 0xd73fa5585905ff3c),
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
