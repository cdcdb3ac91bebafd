//! # encore-cli
//!
//! Command implementations for the `encore-cli` binary. Each command is a
//! plain function from parsed arguments to an output string, so the whole
//! surface is unit-testable without spawning processes.
//!
//! The textual `.eir` format is the round-trippable form produced by
//! `Module`'s `Display` and consumed by [`encore_ir::parse_module`]; the
//! `demo` command exports any suite workload so the full flow works from
//! a shell:
//!
//! ```text
//! encore-cli demo rawcaudio > rc.eir
//! encore-cli analyze rc.eir --train-arg 128
//! encore-cli protect rc.eir --train-arg 128 -o rc-protected.eir
//! encore-cli sfi rc.eir --train-arg 128 --eval-arg 256 --injections 200
//! ```

#![warn(missing_docs)]

use encore_core::{dot_regions, Encore, EncoreConfig, EncoreOutcome};
use encore_ir::{parse_module, verify_module, FuncId, Module};
use encore_sim::{
    run_function, FaultModelKind, MaskingModel, RunConfig, SfiCampaign, SfiConfig, Value,
};
use std::fmt::Write as _;

/// A CLI-level error (bad arguments, parse/verify failures, runtime
/// traps), rendered to the user verbatim.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Parsed common options.
#[derive(Clone, Debug)]
pub struct Options {
    /// Entry function name (default: the module's last function).
    pub entry: Option<String>,
    /// Argument for training/profiling runs.
    pub train_arg: i64,
    /// Argument for evaluation runs.
    pub eval_arg: i64,
    /// Overhead budget.
    pub budget: f64,
    /// `Pmin` (None = no pruning).
    pub pmin: Option<f64>,
    /// Injection count for `sfi`.
    pub injections: usize,
    /// Detection latency bound.
    pub dmax: u64,
    /// Campaign seed for `sfi`; with `--workers`, results are
    /// bit-identical for any worker count.
    pub seed: u64,
    /// Worker threads for `sfi` (0 = all available cores).
    pub workers: usize,
    /// Golden-run checkpoint stride for `sfi` (dynamic instructions
    /// between snapshots; 0 = run every injection from scratch).
    /// Outcomes are bit-identical at every stride.
    pub snapshot_stride: u64,
    /// Worker threads for the pipeline's per-function analysis loop
    /// (0 = all available cores); output is bit-identical at any count.
    pub analysis_workers: usize,
    /// Divergence splicing for `sfi` (on by default; `--no-splice`
    /// disables it). A pure performance knob: outcomes and latency
    /// histograms are bit-identical either way.
    pub splice: bool,
    /// Fault model `sfi` samples plans from (`--fault-model`; default
    /// `bit-flip`).
    pub fault_model: FaultModelKind,
    /// Output path for commands that write files.
    pub output: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            entry: None,
            train_arg: 16,
            eval_arg: 32,
            budget: 0.20,
            pmin: Some(0.0),
            injections: 200,
            dmax: 100,
            seed: SfiConfig::default().seed,
            workers: 0,
            snapshot_stride: SfiConfig::default().snapshot_stride,
            analysis_workers: 0,
            splice: true,
            fault_model: FaultModelKind::BitFlip,
            output: None,
        }
    }
}

impl Options {
    /// Parses `--key value` style flags.
    ///
    /// # Errors
    ///
    /// Returns a [`CliError`] on unknown flags, malformed values, and
    /// `--pmin` or `--budget` values outside their domain.
    pub fn parse(args: &[String]) -> Result<(Vec<String>, Options), CliError> {
        let mut opts = Options::default();
        let mut positional = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let mut take = |name: &str| -> Result<&String, CliError> {
                it.next().ok_or_else(|| err(format!("{name} needs a value")))
            };
            match a.as_str() {
                "--entry" => opts.entry = Some(take("--entry")?.clone()),
                "--train-arg" => {
                    opts.train_arg =
                        take("--train-arg")?.parse().map_err(|e| err(format!("--train-arg: {e}")))?
                }
                "--eval-arg" => {
                    opts.eval_arg =
                        take("--eval-arg")?.parse().map_err(|e| err(format!("--eval-arg: {e}")))?
                }
                "--budget" => {
                    let v = take("--budget")?;
                    opts.budget = parse_in("--budget", v, "a finite number >= 0", |b| {
                        b.is_finite() && b >= 0.0
                    })?;
                }
                "--pmin" => {
                    let v = take("--pmin")?;
                    opts.pmin = if v == "none" {
                        None
                    } else {
                        Some(parse_in("--pmin", v, "`none` or a number in [0, 1]", |p| {
                            (0.0..=1.0).contains(&p)
                        })?)
                    };
                }
                "--injections" => {
                    opts.injections = take("--injections")?
                        .parse()
                        .map_err(|e| err(format!("--injections: {e}")))?
                }
                "--dmax" => {
                    opts.dmax =
                        take("--dmax")?.parse().map_err(|e| err(format!("--dmax: {e}")))?
                }
                "--seed" => {
                    // Decimal, or `0x` hex as `sfi` prints it.
                    let v = take("--seed")?;
                    opts.seed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
                        Some(hex) => u64::from_str_radix(hex, 16),
                        None => v.parse(),
                    }
                    .map_err(|e| err(format!("--seed: {e}")))?
                }
                "--workers" => {
                    opts.workers = take("--workers")?
                        .parse()
                        .map_err(|e| err(format!("--workers: {e}")))?
                }
                "--snapshot-stride" => {
                    opts.snapshot_stride = take("--snapshot-stride")?
                        .parse()
                        .map_err(|e| err(format!("--snapshot-stride: {e}")))?
                }
                "--analysis-workers" => {
                    opts.analysis_workers = take("--analysis-workers")?
                        .parse()
                        .map_err(|e| err(format!("--analysis-workers: {e}")))?
                }
                "--no-splice" => opts.splice = false,
                "--fault-model" => {
                    let v = take("--fault-model")?;
                    opts.fault_model = FaultModelKind::parse(v).ok_or_else(|| {
                        err(format!(
                            "--fault-model: unknown model `{v}`; available: {}",
                            FaultModelKind::ALL
                                .iter()
                                .map(|m| m.name())
                                .collect::<Vec<_>>()
                                .join(", ")
                        ))
                    })?;
                }
                "-o" | "--output" => opts.output = Some(take("-o")?.clone()),
                flag if flag.starts_with('-') => {
                    return Err(err(format!("unknown flag `{flag}`")))
                }
                pos => positional.push(pos.to_string()),
            }
        }
        Ok((positional, opts))
    }

    fn config(&self) -> EncoreConfig {
        EncoreConfig::default()
            .with_overhead_budget(self.budget)
            .with_pmin(self.pmin)
            .with_dmax(self.dmax)
            .with_analysis_workers(self.analysis_workers)
    }
}

/// Parses `flag`'s value `v` as a number that `ok` accepts. Any other
/// value is an error naming the flag, the accepted `range` and `v`.
fn parse_in(flag: &str, v: &str, range: &str, ok: impl Fn(f64) -> bool) -> Result<f64, CliError> {
    match v.parse() {
        Ok(x) if ok(x) => Ok(x),
        _ => Err(err(format!("{flag}: expected {range}, got `{v}`"))),
    }
}

/// Loads and verifies a module from `.eir` text.
///
/// # Errors
///
/// Returns a [`CliError`] on parse or verification failure.
pub fn load_module(text: &str) -> Result<Module, CliError> {
    let module = parse_module(text).map_err(|e| err(format!("parse error: {e}")))?;
    verify_module(&module).map_err(|es| {
        err(format!(
            "verification failed:\n{}",
            es.iter().map(|e| format!("  {e}")).collect::<Vec<_>>().join("\n")
        ))
    })?;
    Ok(module)
}

fn resolve_entry(module: &Module, opts: &Options) -> Result<FuncId, CliError> {
    match &opts.entry {
        Some(name) => module
            .func_by_name(name)
            .ok_or_else(|| err(format!("no function named `{name}`"))),
        None => {
            let last = module.funcs.len().checked_sub(1).ok_or_else(|| err("empty module"))?;
            Ok(encore_ir::FuncId::new(last as u32))
        }
    }
}

/// Where to find arguments inside a suite workload's input domain: the
/// `.eir` text carries them only in a comment, so the defaults stay.
const SUGGESTED_ARGS: &str =
    "`encore-cli demo <workload>` prints the workload's arguments on its `# suggested:` line";

fn profile_module(
    module: &Module,
    entry: FuncId,
    arg: i64,
) -> Result<encore_analysis::Profile, CliError> {
    let run = run_function(
        module,
        None,
        entry,
        &[Value::Int(arg)],
        &RunConfig { collect_profile: true, ..Default::default() },
    );
    if let Some(trap) = run.trap {
        return Err(err(format!(
            "training run with --train-arg {arg} trapped: {trap}; {SUGGESTED_ARGS}"
        )));
    }
    Ok(run.profile.expect("profile requested"))
}

fn pipeline(module: &Module, opts: &Options) -> Result<(FuncId, EncoreOutcome), CliError> {
    let entry = resolve_entry(module, opts)?;
    let profile = profile_module(module, entry, opts.train_arg)?;
    Ok((entry, Encore::new(opts.config()).run(module, &profile)))
}

/// `print`: parse, verify and pretty-print a module.
///
/// # Errors
///
/// Propagates load failures.
pub fn cmd_print(text: &str) -> Result<String, CliError> {
    Ok(load_module(text)?.to_string())
}

/// `demo`: export a suite workload as `.eir` text. Accepts either a
/// plain workload name or a size-scaled spec like `rawdaudio@10x`.
///
/// # Errors
///
/// Fails for unknown workload names or malformed specs.
pub fn cmd_demo(name: &str) -> Result<String, CliError> {
    let w = encore_workloads::by_spec(name).ok_or_else(|| {
        err(format!(
            "unknown workload `{name}`; available: {} (append `@Nx` for a scaled variant, e.g. `rawdaudio@10x`)",
            encore_workloads::names().join(", ")
        ))
    })?;
    Ok(format!(
        "# workload {} ({}): {}\n# entry: {} — run with --entry or default (last function)\n# suggested: --train-arg {} --eval-arg {}\n{}",
        w.spec(),
        w.suite,
        w.description,
        w.module.func(w.entry).name,
        w.train_arg,
        w.eval_arg,
        w.module
    ))
}

/// `run`: execute a module and report the observable outcome. A trap is
/// part of the report, with the argument the run trapped on.
///
/// # Errors
///
/// Propagates load failures.
pub fn cmd_run(text: &str, opts: &Options) -> Result<String, CliError> {
    let module = load_module(text)?;
    let entry = resolve_entry(&module, opts)?;
    let arg = opts.eval_arg;
    let r = run_function(&module, None, entry, &[Value::Int(arg)], &RunConfig::default());
    let mut out = String::new();
    let _ = writeln!(out, "entry:            {}", module.func(entry).name);
    let _ = writeln!(out, "completed:        {}", r.completed);
    if let Some(t) = &r.trap {
        let _ = writeln!(out, "trap:             {t} with --eval-arg {arg}; {SUGGESTED_ARGS}");
    }
    let _ = writeln!(out, "return value:     {:?}", r.ret);
    let _ = writeln!(out, "dynamic insts:    {}", r.dyn_insts);
    let _ = writeln!(out, "output channel:   {:?}", r.output);
    Ok(out)
}

/// `analyze`: profile + region/idempotence report.
///
/// # Errors
///
/// Propagates load/profiling failures.
pub fn cmd_analyze(text: &str, opts: &Options) -> Result<String, CliError> {
    let module = load_module(text)?;
    let (_, outcome) = pipeline(&module, opts)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:>6} {:>7} {:>34} {:>10} {:>8} {:>6}",
        "function", "header", "blocks", "verdict", "protected", "exec%", "ckpts"
    );
    for r in &outcome.reports {
        let _ = writeln!(
            out,
            "{:<14} {:>6} {:>7} {:>34} {:>10} {:>7.1}% {:>6}",
            r.func_name,
            r.header.to_string(),
            r.block_count,
            format!("{:?}", r.verdict),
            r.protected,
            r.exec_fraction * 100.0,
            r.mem_ckpts + r.reg_ckpts,
        );
    }
    let _ = writeln!(out, "\nestimated overhead: {:.1}%", outcome.est_overhead * 100.0);
    let _ = writeln!(
        out,
        "modeled coverage (Dmax={}): {:.1}%",
        opts.dmax,
        outcome.full_system.total() * 100.0
    );
    Ok(out)
}

/// `protect`: run the pipeline and return the instrumented module text.
///
/// # Errors
///
/// Propagates load/profiling failures.
pub fn cmd_protect(text: &str, opts: &Options) -> Result<String, CliError> {
    let module = load_module(text)?;
    let (_, outcome) = pipeline(&module, opts)?;
    let mut out = String::new();
    for info in &outcome.instrumented.map.regions {
        let _ = writeln!(
            out,
            "# region{} func fn{} header {} recovery {} protected {}",
            info.id.index(),
            info.func.index(),
            info.header,
            info.recovery_block.map(|b| b.to_string()).unwrap_or_else(|| "-".into()),
            info.protected
        );
    }
    let _ = write!(out, "{}", outcome.instrumented.module);
    Ok(out)
}

/// `sfi`: full fault-injection campaign on the protected module.
///
/// # Errors
///
/// Propagates load/profiling failures.
pub fn cmd_sfi(text: &str, opts: &Options) -> Result<String, CliError> {
    let module = load_module(text)?;
    let (entry, outcome) = pipeline(&module, opts)?;
    let sfi = SfiConfig {
        injections: opts.injections,
        dmax: opts.dmax,
        seed: opts.seed,
        workers: opts.workers,
        snapshot_stride: opts.snapshot_stride,
        splice: opts.splice,
        model: opts.fault_model,
    };
    let campaign = SfiCampaign::prepare(
        &outcome.instrumented.module,
        Some(&outcome.instrumented.map),
        entry,
        &[Value::Int(opts.eval_arg)],
        &sfi,
    )
    .map_err(|e| {
        err(format!(
            "cannot run campaign with --eval-arg {}: {e}; {SUGGESTED_ARGS}",
            opts.eval_arg
        ))
    })?;
    let report = campaign.run_report(&sfi);
    let stats = report.stats;
    let composed = MaskingModel::arm926().compose(&stats);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "seed: {:#x}  workers: {}  (same seed => bit-identical stats at any \
         worker count; replay injection i from (seed, i))",
        sfi.seed,
        sfi.effective_workers()
    );
    let _ = writeln!(out, "fault model:              {}", sfi.model);
    let _ = writeln!(out, "injections:               {}", stats.injections);
    let _ = writeln!(out, "benign (sw-masked):       {}", stats.benign);
    let _ = writeln!(out, "recovered by rollback:    {}", stats.recovered);
    let _ = writeln!(out, "silent corruption:        {}", stats.silent_corruption);
    let _ = writeln!(out, "detected, unrecoverable:  {}", stats.detected_unrecoverable);
    let _ = writeln!(out, "crashed:                  {}", stats.crashed);
    let _ = writeln!(out, "hung:                     {}", stats.hung);
    let _ = writeln!(out, "safe fraction:            {:.1}%", stats.safe_fraction() * 100.0);
    if sfi.splice {
        let s = report.splice;
        let _ = writeln!(
            out,
            "spliced early exits:      {} (converged {}, dead-diff {}, sdc {}); \
             {} golden-suffix insts skipped",
            s.total(),
            s.converged,
            s.dead_diff,
            s.sdc,
            s.dyn_insts_saved
        );
        let _ = writeln!(
            out,
            "splice probe cost:        {} probes, {} pages compared, {} words compared; \
             memo {} hits, {} insts skipped",
            s.cost.probes,
            s.cost.pages_hashed,
            s.cost.words_compared,
            s.cost.memo_hits,
            s.cost.memo_insts_skipped
        );
    }
    let _ = writeln!(
        out,
        "with 91% hw masking:      {:.1}% total coverage",
        composed.total() * 100.0
    );
    Ok(out)
}

/// `dot`: Graphviz region overlay for every function.
///
/// # Errors
///
/// Propagates load/profiling failures.
pub fn cmd_dot(text: &str, opts: &Options) -> Result<String, CliError> {
    let module = load_module(text)?;
    let (_, outcome) = pipeline(&module, opts)?;
    let mut out = String::new();
    for (fid, _) in module.iter_funcs() {
        out.push_str(&dot_regions(&module, &outcome, fid));
        out.push('\n');
    }
    Ok(out)
}

/// Usage text.
pub fn usage() -> String {
    "encore-cli — Encore transient-fault recovery toolchain

USAGE:
    encore-cli <command> [file.eir] [flags]

COMMANDS:
    print    <file>   parse, verify, pretty-print
    run      <file>   execute (flags: --entry NAME --eval-arg N)
    analyze  <file>   profile + idempotence/region report
    protect  <file>   emit the checkpoint-instrumented module
    sfi      <file>   Monte-Carlo fault-injection campaign
    dot      <file>   Graphviz CFG with region overlay
    demo     <name>   export a suite workload as .eir (name or name@Nx, e.g. rawdaudio@10x)
    list              list suite workload names

FLAGS:
    --entry NAME        entry function (default: last function)
    --train-arg N       profiling input            (default 16)
    --eval-arg N        evaluation input           (default 32)
    --budget F          overhead budget, F >= 0    (default 0.20)
    --pmin F|none       pruning threshold in [0,1] (default 0.0)
    --injections N      sfi fault count            (default 200)
    --dmax N            detection latency bound    (default 100)
    --seed N            sfi campaign seed, decimal or 0x hex (same seed
                        reproduces the campaign bit-for-bit at any
                        worker count)
    --workers N         sfi worker threads         (default 0 = all cores)
    --snapshot-stride N sfi golden-run checkpoint stride in dynamic
                        instructions; injections resume from the nearest
                        checkpoint (default 256, 0 = from scratch;
                        outcomes are bit-identical at every stride)
    --analysis-workers N  pipeline analysis worker threads
                        (default 0 = all cores; output is bit-identical
                        at any worker count)
    --no-splice         disable sfi divergence splicing (early exit for
                        runs provably converged, dead-diff recovered or
                        silently corrupt); outcomes and latencies are
                        bit-identical with or without it
    --fault-model M     sfi fault model: bit-flip (default), multi-bit,
                        address, control-flow, power-failure
    -o, --output PATH   write output to a file
"
    .to_string()
}

/// Dispatches a full command line (without the program name).
///
/// # Errors
///
/// Returns a [`CliError`] for unknown commands, bad flags, and all
/// command-level failures.
pub fn dispatch(args: &[String]) -> Result<String, CliError> {
    let Some(cmd) = args.first() else {
        return Ok(usage());
    };
    let (positional, opts) = Options::parse(&args[1..])?;
    let need_file = || -> Result<String, CliError> {
        let path = positional
            .first()
            .ok_or_else(|| err(format!("`{cmd}` needs a file argument")))?;
        std::fs::read_to_string(path).map_err(|e| err(format!("cannot read {path}: {e}")))
    };
    let result = match cmd.as_str() {
        "print" => cmd_print(&need_file()?)?,
        "run" => cmd_run(&need_file()?, &opts)?,
        "analyze" => cmd_analyze(&need_file()?, &opts)?,
        "protect" => cmd_protect(&need_file()?, &opts)?,
        "sfi" => cmd_sfi(&need_file()?, &opts)?,
        "dot" => cmd_dot(&need_file()?, &opts)?,
        "demo" => {
            let name = positional.first().ok_or_else(|| err("`demo` needs a workload name"))?;
            cmd_demo(name)?
        }
        "list" => encore_workloads::names().join("\n") + "\n",
        "help" | "--help" | "-h" => usage(),
        other => return Err(err(format!("unknown command `{other}`\n\n{}", usage()))),
    };
    if let Some(path) = &opts.output {
        std::fs::write(path, &result).map_err(|e| err(format!("cannot write {path}: {e}")))?;
        Ok(format!("wrote {path}\n"))
    } else {
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_text(name: &str) -> String {
        cmd_demo(name).expect("demo works")
    }

    #[test]
    fn demo_exports_parseable_modules() {
        for name in ["rawcaudio", "172.mgrid", "164.gzip"] {
            let text = demo_text(name);
            let module = load_module(&text).expect("round-trips");
            assert!(!module.funcs.is_empty());
        }
    }

    #[test]
    fn demo_accepts_scaled_specs() {
        let text = demo_text("rawdaudio@10x");
        assert!(text.starts_with("# workload rawdaudio@10x"));
        let module = load_module(&text).expect("round-trips");
        let base = load_module(&demo_text("rawdaudio")).expect("round-trips");
        let cells = |m: &encore_ir::Module| m.globals.iter().map(|g| u64::from(g.cells)).sum::<u64>();
        assert_eq!(cells(&module), 10 * cells(&base));

        let err = cmd_demo("rawdaudio@0x").expect_err("zero scale is invalid");
        assert!(err.to_string().contains("@Nx"));
    }

    #[test]
    fn print_round_trips() {
        let text = demo_text("rawcaudio");
        let printed = cmd_print(&text).expect("prints");
        let reparsed = load_module(&printed).expect("parses again");
        assert_eq!(reparsed, load_module(&text).unwrap());
    }

    #[test]
    fn run_reports_outcome() {
        let text = demo_text("rawcaudio");
        let (_, opts) = Options::parse(&["--eval-arg".into(), "64".into()]).unwrap();
        let out = cmd_run(&text, &opts).expect("runs");
        assert!(out.contains("completed:        true"), "{out}");
        assert!(out.contains("dynamic insts"));
    }

    #[test]
    fn analyze_reports_regions() {
        let text = demo_text("rawcaudio");
        let (_, opts) =
            Options::parse(&["--train-arg".into(), "64".into()]).unwrap();
        let out = cmd_analyze(&text, &opts).expect("analyzes");
        assert!(out.contains("NonIdempotent"), "{out}");
        assert!(out.contains("estimated overhead"));
    }

    #[test]
    fn protect_emits_instrumented_verifiable_module() {
        let text = demo_text("rawcaudio");
        let (_, opts) = Options::parse(&["--train-arg".into(), "64".into()]).unwrap();
        let out = cmd_protect(&text, &opts).expect("protects");
        assert!(out.contains("setrecovery"), "{out}");
        assert!(out.contains("ckptmem"));
        // Comments + module text must still load.
        let module = load_module(&out).expect("instrumented text parses");
        assert!(module.funcs.iter().any(|f| f
            .blocks
            .iter()
            .any(|b| b.insts.iter().any(|i| matches!(i, encore_ir::Inst::Restore { .. })))));
    }

    #[test]
    fn sfi_runs_small_campaign() {
        let text = demo_text("rawcaudio");
        let (_, opts) = Options::parse(&[
            "--train-arg".into(),
            "64".into(),
            "--eval-arg".into(),
            "96".into(),
            "--injections".into(),
            "20".into(),
        ])
        .unwrap();
        let out = cmd_sfi(&text, &opts).expect("campaign runs");
        assert!(out.contains("injections:               20"), "{out}");
        assert!(out.contains("safe fraction"));
    }

    #[test]
    fn sfi_seed_and_workers_flags_reproduce_bit_identically() {
        let text = demo_text("rawcaudio");
        let args = |workers: &str| {
            Options::parse(&[
                "--train-arg".into(),
                "64".into(),
                "--eval-arg".into(),
                "96".into(),
                "--injections".into(),
                "24".into(),
                "--seed".into(),
                "42".into(),
                "--workers".into(),
                workers.into(),
            ])
            .unwrap()
            .1
        };
        let one = cmd_sfi(&text, &args("1")).expect("sequential campaign");
        let four = cmd_sfi(&text, &args("4")).expect("parallel campaign");
        // Identical modulo the reported worker count itself.
        let strip = |s: &str| s.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert_eq!(strip(&one), strip(&four));
        assert!(one.contains("seed: 0x2a"), "{one}");
    }

    #[test]
    fn sfi_no_splice_flag_changes_nothing_but_the_splice_line() {
        let text = demo_text("rawcaudio");
        let base = vec![
            "--train-arg".to_string(),
            "64".into(),
            "--eval-arg".into(),
            "96".into(),
            "--injections".into(),
            "24".into(),
            "--seed".into(),
            "42".into(),
            "--workers".into(),
            "2".into(),
        ];
        let mut with_flag = base.clone();
        with_flag.push("--no-splice".into());
        let (_, on) = Options::parse(&base).unwrap();
        let (_, off) = Options::parse(&with_flag).unwrap();
        assert!(on.splice && !off.splice);
        let spliced = cmd_sfi(&text, &on).expect("spliced campaign");
        let plain = cmd_sfi(&text, &off).expect("unspliced campaign");
        assert!(spliced.contains("spliced early exits"), "{spliced}");
        assert!(!plain.contains("spliced early exits"), "{plain}");
        // Outcome lines agree; only the splice report (engagements +
        // probe cost) differs.
        let strip = |s: &str| {
            s.lines().filter(|l| !l.starts_with("splice")).collect::<Vec<_>>().join("\n")
        };
        assert_eq!(strip(&spliced), strip(&plain));
    }

    #[test]
    fn sfi_fault_model_flag_selects_each_model() {
        let text = demo_text("rawcaudio");
        for model in FaultModelKind::ALL {
            let (_, opts) = Options::parse(&[
                "--train-arg".into(),
                "64".into(),
                "--eval-arg".into(),
                "96".into(),
                "--injections".into(),
                "10".into(),
                "--fault-model".into(),
                model.name().into(),
            ])
            .unwrap();
            assert_eq!(opts.fault_model, model);
            let out = cmd_sfi(&text, &opts).expect("campaign runs");
            assert!(out.contains(&format!("fault model:              {model}")), "{out}");
            assert!(out.contains("injections:               10"), "{out}");
        }
        let e = Options::parse(&["--fault-model".into(), "cosmic-ray".into()]).unwrap_err();
        assert!(e.to_string().contains("unknown model"));
    }

    #[test]
    fn dot_emits_digraphs() {
        let text = demo_text("rawcaudio");
        let (_, opts) = Options::parse(&["--train-arg".into(), "64".into()]).unwrap();
        let out = cmd_dot(&text, &opts).expect("dot");
        assert!(out.contains("digraph"));
        assert!(out.contains("subgraph cluster_0"));
    }

    #[test]
    fn out_of_domain_pmin_and_budget_are_rejected() {
        let parse = |flag: &str, v: &str| Options::parse(&[flag.into(), v.into()]);
        for v in ["2", "-1", "nan", "inf"] {
            let e = parse("--pmin", v).unwrap_err().0;
            assert_eq!(e, format!("--pmin: expected `none` or a number in [0, 1], got `{v}`"));
        }
        for (v, pmin) in [("0", Some(0.0)), ("1", Some(1.0)), ("0.5", Some(0.5)), ("none", None)] {
            assert_eq!(parse("--pmin", v).unwrap().1.pmin, pmin);
        }
        for v in ["nan", "-1", "inf"] {
            let e = parse("--budget", v).unwrap_err().0;
            assert_eq!(e, format!("--budget: expected a finite number >= 0, got `{v}`"));
        }
        for (v, budget) in [("0", 0.0), ("0.2", 0.2), ("1e9", 1e9)] {
            assert_eq!(parse("--budget", v).unwrap().1.budget, budget);
        }
    }

    #[test]
    fn trapping_training_and_golden_runs_name_their_flag() {
        let text = demo_text("mpeg2enc");
        let e = cmd_analyze(&text, &Options::default()).unwrap_err().0;
        assert!(e.contains("--train-arg 16") && !e.contains("Some(Trap"), "{e}");
        assert!(e.contains("# suggested:"), "{e}");
        let (_, opts) = Options::parse(&["--train-arg".into(), "4".into()]).unwrap();
        let e = cmd_sfi(&text, &opts).unwrap_err().0;
        assert!(e.contains("--eval-arg 32"), "{e}");
    }

    #[test]
    fn a_trapping_run_names_its_flag() {
        let text = demo_text("mpeg2enc");
        let out = cmd_run(&text, &Options::default()).expect("a trap is a report");
        assert!(out.contains("completed:        false"), "{out}");
        assert!(out.contains("with --eval-arg 32;") && out.contains("# suggested:"), "{out}");
        let (_, opts) = Options::parse(&["--eval-arg".into(), "8".into()]).unwrap();
        let out = cmd_run(&text, &opts).expect("runs");
        assert!(out.contains("completed:        true") && !out.contains("trap:"), "{out}");
    }

    #[test]
    fn seed_takes_decimal_or_hex() {
        let seed = |v: &str| Options::parse(&["--seed".into(), v.into()]).map(|(_, o)| o.seed);
        assert_eq!(seed("42").unwrap(), 42);
        assert_eq!(seed("0x2a").unwrap(), 42);
        assert_eq!(seed("0XE7C04E").unwrap(), 0xE7_C04E);
        for v in ["0x", "0xZZ", "-1", "4 2"] {
            assert!(seed(v).unwrap_err().0.starts_with("--seed: "), "{v}");
        }
    }

    #[test]
    fn unknown_flag_and_command_rejected() {
        assert!(Options::parse(&["--bogus".into()]).is_err());
        let e = dispatch(&["frobnicate".into()]).unwrap_err();
        assert!(e.0.contains("unknown command"));
    }

    #[test]
    fn dispatch_list_and_help() {
        let out = dispatch(&["list".into()]).unwrap();
        assert!(out.contains("rawcaudio"));
        let help = dispatch(&[]).unwrap();
        assert!(help.contains("USAGE"));
    }

    #[test]
    fn entry_resolution() {
        let text = demo_text("175.vpr"); // two functions
        let (_, mut opts) = Options::parse(&[]).unwrap();
        opts.entry = Some("place".into());
        opts.train_arg = 50;
        let out = cmd_analyze(&text, &opts).expect("analyze with explicit entry");
        assert!(out.contains("try_swap"));
        opts.entry = Some("nonexistent".into());
        assert!(cmd_analyze(&text, &opts).is_err());
    }
}
