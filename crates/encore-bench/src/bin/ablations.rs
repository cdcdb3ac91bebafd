//! Ablation study: what each design choice of Encore buys, measured by
//! real fault injection on a representative workload subset.
//!
//! 1. **Register checkpoints** (§3.2): eliding the live-in saves turns
//!    many successful recoveries into silent corruptions.
//! 2. **Region merging (η)**: disabling merging (η → ∞) fragments
//!    regions, raising arming overhead and shrinking recovery windows.
//! 3. **Region size cap**: capping merged-region activations shows the
//!    granularity/coverage trade-off behind Table 1's 100–1000 regime.
//! 4. **Pmin pruning** (§3.4.1): disabling pruning leaves cold
//!    diagnostics poisoning otherwise protectable regions.
//!
//! Usage: `ablations [--workloads a,b,c] [--sfi N] [--fault-model M]`
//! — `M` selects the fault model campaigns sample from (`bit-flip`,
//! `multi-bit`, `address`, `control-flow`, `power-failure`; default
//! `bit-flip`), so each ablation's coverage cost can be measured under
//! any member of the taxonomy.

use encore_bench::report::{banner, pct, Table};
use encore_bench::{encore_run, flag_value, prepare, selected_workloads};
use encore_core::EncoreConfig;
use encore_sim::{FaultModelKind, SfiCampaign, SfiConfig, Value};

const DEFAULT_SUBSET: [&str; 5] = ["164.gzip", "rawcaudio", "172.mgrid", "183.equake", "cjpeg"];

fn fault_model() -> FaultModelKind {
    let args: Vec<String> = std::env::args().collect();
    let Some(i) = args.iter().position(|a| a == "--fault-model") else {
        return FaultModelKind::default();
    };
    let value = args.get(i + 1).map_or("", String::as_str);
    FaultModelKind::parse(value).unwrap_or_else(|| {
        eprintln!(
            "error: --fault-model: expected one of {}, got `{value}`",
            FaultModelKind::ALL.iter().map(|m| m.name()).collect::<Vec<_>>().join(", ")
        );
        std::process::exit(2);
    })
}

fn main() {
    let injections = flag_value("--sfi").unwrap_or(150);
    let model = fault_model();
    banner("Ablation study (SFI-measured)");
    println!("fault model: {model}");

    let configs: [(&str, EncoreConfig); 5] = [
        ("baseline", EncoreConfig::default()),
        ("no reg ckpts (unsound)", EncoreConfig::default().with_elided_reg_ckpts()),
        ("no merging (eta=1e12)", EncoreConfig::default().with_eta(1e12)),
        ("region cap = 200", EncoreConfig::default().with_max_region_len(200.0)),
        ("no pruning (Pmin=∅)", EncoreConfig::default().with_pmin(None)),
    ];

    let workloads: Vec<_> = {
        let selected = selected_workloads();
        let explicit = std::env::args().any(|a| a == "--workloads");
        selected
            .into_iter()
            .filter(|w| explicit || DEFAULT_SUBSET.contains(&w.name))
            .collect()
    };

    let mut table = Table::new(&[
        "workload", "configuration", "protected", "overhead", "SFI safe",
    ]);
    let mut deltas: Vec<(String, f64)> = Vec::new();

    for w in workloads {
        let name = w.name;
        let prepared = prepare(w);
        // Run every ablated pipeline up front, then share one campaign
        // preparation (golden run + checkpoint log + golden record)
        // across configurations whose instrumentation came out
        // identical — several ablations are no-ops on some workloads.
        let runs: Vec<_> =
            configs.iter().map(|(label, config)| (label, config, encore_run(&prepared, config))).collect();
        let mut cached: Option<(usize, SfiCampaign)> = None;
        let mut baseline_safe = None;
        for (i, (label, config, run)) in runs.iter().enumerate() {
            let sfi = SfiConfig { injections, dmax: config.dmax, model, ..Default::default() };
            let reusable = cached.as_ref().is_some_and(|&(j, _)| {
                runs[j].2.outcome.instrumented.module == run.outcome.instrumented.module
                    && runs[j].2.outcome.instrumented.map == run.outcome.instrumented.map
            });
            if !reusable {
                let campaign = SfiCampaign::prepare(
                    &run.outcome.instrumented.module,
                    Some(&run.outcome.instrumented.map),
                    prepared.workload.entry,
                    &[Value::Int(prepared.workload.eval_arg)],
                    &sfi,
                )
                .expect("golden run completes");
                cached = Some((i, campaign));
            }
            let safe = cached.as_ref().expect("campaign just cached").1.run(&sfi).safe_fraction();
            table.row(vec![
                name.to_string(),
                label.to_string(),
                pct(run.outcome.breakdown.protected_fraction()),
                pct(run.measured_overhead),
                pct(safe),
            ]);
            match baseline_safe {
                None => baseline_safe = Some(safe),
                Some(base) => deltas.push((format!("{name}/{label}"), safe - base)),
            }
        }
    }
    println!("{}", table.render());

    println!("SFI-safe delta vs. baseline (negative = the ablated feature was earning coverage):");
    for (label, d) in deltas {
        println!("  {label:<44} {:+.1} pts", d * 100.0);
    }
    println!(
        "\nReading: eliding register checkpoints keeps the overhead but turns\n\
         recoveries into corruptions; disabling merging/pruning shrinks the\n\
         protected fraction; the region cap trades arming overhead against\n\
         recovery-window length."
    );
}
