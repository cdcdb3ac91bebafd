//! Figure 8: full-system fault coverage for detection latencies
//! `Dmax ∈ {1000, 100, 10}` instructions, composing the paper's measured
//! ARM926 hardware masking rate (91 %) with Encore's recoverability
//! model (α of Eq. 7 per region).
//!
//! With `--sfi N` the analytic model is cross-validated by N real
//! Monte-Carlo fault injections per workload in the interpreter, one
//! campaign per fault model in the taxonomy (bit flip, multi-bit,
//! address, control-flow wrong-edge, power failure) — per-model
//! coverage rows show how Encore's recovery holds up beyond the classic
//! single-bit flip.
//!
//! Usage: `fig8 [--workloads a,b,c] [--sfi N] [--seed S] [--workers W]
//! [--snapshot-stride K]` — `K` controls how often the golden run is
//! checkpointed for snapshot-and-resume injection (0 = from scratch;
//! outcomes are bit-identical at every stride).

use encore_bench::report::{banner, pct, Table};
use encore_bench::{encore_run, prepare, selected_workloads};
use encore_core::EncoreConfig;
use encore_sim::{FaultModelKind, MaskingModel, SfiCampaign, SfiConfig, Value};
use encore_workloads::Suite;

const DMAXES: [u64; 3] = [1000, 100, 10];

fn arg_value(flag: &str) -> Option<u64> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
}

fn main() {
    banner("Figure 8: full-system fault coverage vs. detection latency");
    let sfi_n = arg_value("--sfi").unwrap_or(0) as usize;
    let seed = arg_value("--seed").unwrap_or(0xE7_C04E);
    let workers = arg_value("--workers").unwrap_or(0) as usize;
    let snapshot_stride =
        arg_value("--snapshot-stride").unwrap_or(SfiConfig::default().snapshot_stride);

    let mut table = Table::new(&[
        "workload",
        "Dmax",
        "masked",
        "recov idem",
        "recov ckpt",
        "not recov",
        "total",
    ]);
    let mut suite_acc: std::collections::BTreeMap<(Suite, u64), (f64, usize)> =
        Default::default();
    let mut sfi_table = Table::new(&[
        "workload", "Dmax", "model", "benign", "recovered", "SDC", "unrecov", "safe",
    ]);

    for w in selected_workloads() {
        let suite = w.suite;
        let name = w.name;
        let entry = w.entry;
        let eval_arg = w.eval_arg;
        let prepared = prepare(w);
        // Pin all sweep points first so one golden-run preparation (the
        // expensive part of a campaign: full execution + checkpoint log +
        // golden record) can be shared by every Dmax whose
        // instrumented module came out identical. `prepare` only reads
        // the stride and fuel factor, which the sweep holds constant.
        let runs: Vec<_> = DMAXES
            .iter()
            .map(|&dmax| (dmax, encore_run(&prepared, &EncoreConfig::default().with_dmax(dmax))))
            .collect();
        let mut cached: Option<(usize, SfiCampaign)> = None;
        for (i, (dmax, run)) in runs.iter().enumerate() {
            let fs = run.outcome.full_system;
            table.row(vec![
                name.to_string(),
                dmax.to_string(),
                pct(fs.masked),
                pct(fs.recovered_idempotent),
                pct(fs.recovered_checkpointed),
                pct(fs.not_recoverable),
                pct(fs.total()),
            ]);
            let e = suite_acc.entry((suite, *dmax)).or_insert((0.0, 0));
            e.0 += fs.total();
            e.1 += 1;

            if sfi_n > 0 {
                let sfi_config = SfiConfig {
                    injections: sfi_n,
                    dmax: *dmax,
                    seed,
                    workers,
                    snapshot_stride,
                    ..Default::default()
                };
                let reusable = cached.as_ref().is_some_and(|&(j, _)| {
                    runs[j].1.outcome.instrumented.module == run.outcome.instrumented.module
                        && runs[j].1.outcome.instrumented.map == run.outcome.instrumented.map
                });
                if !reusable {
                    let campaign = SfiCampaign::prepare(
                        &run.outcome.instrumented.module,
                        Some(&run.outcome.instrumented.map),
                        entry,
                        &[Value::Int(eval_arg)],
                        &sfi_config,
                    )
                    .expect("golden run completes");
                    cached = Some((i, campaign));
                }
                let campaign = &cached.as_ref().expect("campaign just cached").1;
                for report in campaign.run_models(&sfi_config, &FaultModelKind::ALL) {
                    let stats = report.stats;
                    let composed = MaskingModel::arm926().compose(&stats);
                    sfi_table.row(vec![
                        name.to_string(),
                        dmax.to_string(),
                        report.model().to_string(),
                        stats.benign.to_string(),
                        stats.recovered.to_string(),
                        stats.silent_corruption.to_string(),
                        (stats.detected_unrecoverable + stats.crashed + stats.hung).to_string(),
                        pct(composed.total()),
                    ]);
                }
            }
        }
    }
    println!("Analytic model (α of Eq. 7 composed with 91% masking):");
    println!("{}", table.render());

    let mut means = Table::new(&["suite", "Dmax", "total coverage"]);
    for suite in Suite::all() {
        for dmax in DMAXES {
            if let Some((t, n)) = suite_acc.get(&(suite, dmax)) {
                means.row(vec![
                    suite.label().to_string(),
                    dmax.to_string(),
                    pct(t / *n as f64),
                ]);
            }
        }
    }
    println!("Suite means:");
    println!("{}", means.render());

    if sfi_n > 0 {
        println!(
            "SFI cross-validation ({sfi_n} injections/workload/model, masking composed):"
        );
        println!("{}", sfi_table.render());
    }
    println!(
        "Expected shape: coverage rises as Dmax shrinks (1000 → 100 → 10);\n\
         at Dmax = 100 the mean sits near the paper's 97% headline, with the\n\
         91% masking floor visible in every bar."
    );
}
