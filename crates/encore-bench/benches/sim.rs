//! Simulator suite: golden-run execution rate and SFI campaign
//! throughput, the numbers behind `BENCH_sim.json`.
//!
//! Measurements per workload (rawdaudio and g721encode, at 1× and as
//! an `_xl` tier at 10× data scale via `Workload::scaled`):
//!
//! * `golden_run` — one fault-free instrumented execution (the
//!   pre-decoded interpreter's raw speed);
//! * `campaign_40` — a 40-injection campaign on the default
//!   snapshot-and-resume path with divergence splicing (what
//!   `encore sfi` runs);
//! * `campaign_40_nosplice` — the same campaign with splicing disabled,
//!   isolating what early classification of suffix-bound runs buys on
//!   top of checkpoint resume;
//! * `campaign_40_scratch` — the same campaign with snapshotting
//!   disabled (`snapshot_stride: 0`), isolating how much of the
//!   campaign speedup comes from checkpoint reuse vs. the interpreter
//!   itself (1× tier only: from-scratch replay at 10× measures the
//!   same thing, ten times slower);
//! * `campaign_40_<model>` — the same campaign under each non-default
//!   fault model (`multi_bit`, `address`, `control_flow`,
//!   `power_failure`; 1× tier only), exposing the per-model cost
//!   profile: deferred-arming models pay for full suffix execution when
//!   their fault never fires, and power failures detect instantly so
//!   their runs are rollback-bound;
//! * `golden_run_xl` / `campaign_40_xl` / `campaign_40_xl_nosplice` —
//!   the 10× tier, where snapshot capture, the divergence diff and the
//!   splice's dead-suffix scan all walk ten times the state, so costs
//!   that amortize at 1× show up.
//!
//! Campaign rows also print injections/sec derived from the fastest
//! iteration (min-of-N, the least noise-contaminated figure on a
//! shared machine) and, for the default configuration, the splice
//! engagement rate plus its probe-cost footprint (probes attempted,
//! pages compared, words compared). Run with
//! `cargo bench --bench sim --offline`.

use encore_bench::microbench::Microbench;
use encore_bench::prepare;
use encore_core::{Encore, EncoreConfig};
use encore_sim::{
    run_function, FaultModelKind, RunConfig, SfiCampaign, SfiConfig, SpliceStats, Value,
};

const INJECTIONS: usize = 40;

/// Benchmarks one workload spec under the tier named by `suffix`
/// (`""` for the 1× tier, `"_xl"` for 10×).
fn bench_tier(
    bench: &mut Microbench,
    throughput: &mut Vec<(String, f64)>,
    splice_rates: &mut Vec<(String, SpliceStats)>,
    spec: &str,
    suffix: &str,
    include_scratch: bool,
) {
    let workload = encore_workloads::by_spec(spec).expect("workload spec");
    let name = workload.name;
    let prepared = prepare(workload);
    let outcome =
        Encore::new(EncoreConfig::default()).run(&prepared.workload.module, &prepared.profile);
    let module = &outcome.instrumented.module;
    let map = Some(&outcome.instrumented.map);
    let entry = prepared.workload.entry;
    let args = [Value::Int(prepared.workload.eval_arg)];

    bench.bench(&format!("golden_run{suffix}/{name}"), || {
        run_function(module, map, entry, &args, &RunConfig::default())
    });

    let snap = SfiConfig { injections: INJECTIONS, dmax: 100, workers: 1, ..Default::default() };
    let campaign =
        SfiCampaign::prepare(module, map, entry, &args, &snap).expect("golden run completes");
    let label = format!("campaign_{INJECTIONS}{suffix}/{name}");
    let s = bench.bench(&label, || campaign.run(&snap));
    throughput.push((label, INJECTIONS as f64 / (s.min_ns / 1e9)));
    splice_rates.push((prepared.workload.spec(), campaign.run_report(&snap).splice));

    let nosplice = SfiConfig { splice: false, ..snap };
    let label = format!("campaign_{INJECTIONS}{suffix}_nosplice/{name}");
    let s = bench.bench(&label, || campaign.run(&nosplice));
    throughput.push((label, INJECTIONS as f64 / (s.min_ns / 1e9)));

    if include_scratch {
        // Per-model rows (1× tier only; the default model already has
        // its row above). The prepared campaign is model-agnostic —
        // only plan sampling changes — so it is shared across models.
        for model in FaultModelKind::ALL {
            if model == FaultModelKind::default() {
                continue;
            }
            let modeled = SfiConfig { model, ..snap };
            let label = format!("campaign_{INJECTIONS}{suffix}_{}/{name}", model.label());
            let s = bench.bench(&label, || campaign.run(&modeled));
            throughput.push((label, INJECTIONS as f64 / (s.min_ns / 1e9)));
        }

        let scratch = SfiConfig { snapshot_stride: 0, ..snap };
        let campaign = SfiCampaign::prepare(module, map, entry, &args, &scratch)
            .expect("golden run completes");
        let label = format!("campaign_{INJECTIONS}{suffix}_scratch/{name}");
        let s = bench.bench(&label, || campaign.run(&scratch));
        throughput.push((label, INJECTIONS as f64 / (s.min_ns / 1e9)));
    }
}

fn main() {
    let mut bench = Microbench::new("sim");
    let mut throughput: Vec<(String, f64)> = Vec::new();
    let mut splice_rates: Vec<(String, SpliceStats)> = Vec::new();
    for name in ["rawdaudio", "g721encode"] {
        bench_tier(&mut bench, &mut throughput, &mut splice_rates, name, "", true);
    }
    for spec in ["rawdaudio@10x", "g721encode@10x"] {
        bench_tier(&mut bench, &mut throughput, &mut splice_rates, spec, "_xl", false);
    }
    bench.finish();

    println!("campaign throughput (injections/sec, from min-of-N):");
    for (label, per_sec) in throughput {
        println!("  {label:<36} {per_sec:>10.0}/s");
    }

    println!("splice engagement of campaign_{INJECTIONS} (default config):");
    for (spec, sp) in splice_rates {
        println!(
            "  {spec:<18} {}/{INJECTIONS} spliced (converged {}, \
             dead-diff {}, sdc {}); {} suffix insts skipped",
            sp.total(),
            sp.converged,
            sp.dead_diff,
            sp.sdc,
            sp.dyn_insts_saved
        );
        println!(
            "  {:<18} {} probes, {} pages compared, {} words compared",
            "", sp.cost.probes, sp.cost.pages_hashed, sp.cost.words_compared
        );
    }
}
