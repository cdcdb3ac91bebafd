//! # encore-bench
//!
//! Experiment harnesses that regenerate every table and figure of the
//! Encore paper. Each experiment is a binary (`fig1`, `fig5`, `fig6`,
//! `fig7a`, `fig7b`, `fig8`, `table1`, `experiments`); this library holds
//! the shared driver: profile a workload on its training input, run the
//! Encore pipeline, execute the instrumented module on the evaluation
//! input, and measure rather than estimate whatever can be measured.

#![warn(missing_docs)]

pub mod report;

use encore_analysis::Profile;
use encore_core::{Encore, EncoreConfig, EncoreOutcome};
use encore_sim::{run_function, RunConfig, RunResult, Value};
use encore_workloads::Workload;

/// A workload with its training profile and baseline evaluation run.
#[derive(Debug)]
pub struct PreparedWorkload {
    /// The workload (module + inputs).
    pub workload: Workload,
    /// Profile collected on the training input.
    pub profile: Profile,
    /// Uninstrumented run on the evaluation input (the overhead
    /// baseline and golden reference).
    pub baseline: RunResult,
}

/// Profiles `workload` on its training input and runs the evaluation
/// baseline.
///
/// # Panics
///
/// Panics if either run traps — workloads must be fault-free.
pub fn prepare(workload: Workload) -> PreparedWorkload {
    let train = run_function(
        &workload.module,
        None,
        workload.entry,
        &[Value::Int(workload.train_arg)],
        &RunConfig { collect_profile: true, ..Default::default() },
    );
    assert!(
        train.completed,
        "{}: training run trapped: {:?}",
        workload.name, train.trap
    );
    let baseline = run_function(
        &workload.module,
        None,
        workload.entry,
        &[Value::Int(workload.eval_arg)],
        &RunConfig::default(),
    );
    assert!(
        baseline.completed,
        "{}: baseline run trapped: {:?}",
        workload.name, baseline.trap
    );
    let profile = train.profile.clone().expect("profile requested");
    PreparedWorkload { workload, profile, baseline }
}

/// Pipeline output plus *measured* runtime overhead.
#[derive(Debug)]
pub struct EncoreRun {
    /// The compiler pipeline's outcome (analysis, selection,
    /// instrumentation, models).
    pub outcome: EncoreOutcome,
    /// Instrumented-module run on the evaluation input.
    pub instrumented_run: RunResult,
    /// Measured runtime overhead: extra dynamic instructions of the
    /// instrumented evaluation run relative to the baseline.
    pub measured_overhead: f64,
}

/// Runs the Encore pipeline on a prepared workload and measures the
/// actual instrumented-run overhead on the evaluation input.
///
/// # Panics
///
/// Panics if the instrumented run traps or diverges observably from the
/// baseline — instrumentation must be semantics-preserving.
pub fn encore_run(prepared: &PreparedWorkload, config: &EncoreConfig) -> EncoreRun {
    let outcome = Encore::new(config.clone()).run(&prepared.workload.module, &prepared.profile);
    let instrumented_run = run_function(
        &outcome.instrumented.module,
        Some(&outcome.instrumented.map),
        prepared.workload.entry,
        &[Value::Int(prepared.workload.eval_arg)],
        &RunConfig::default(),
    );
    assert!(
        instrumented_run.completed,
        "{}: instrumented run trapped: {:?}",
        prepared.workload.name, instrumented_run.trap
    );
    assert!(
        instrumented_run.observably_equal(&prepared.baseline),
        "{}: instrumentation changed program semantics",
        prepared.workload.name
    );
    let base = prepared.baseline.dyn_insts.max(1) as f64;
    let measured_overhead = (instrumented_run.dyn_insts as f64 - base) / base;
    EncoreRun { outcome, instrumented_run, measured_overhead }
}

/// Parses a `--workloads a,b,c` filter from argv; `None` = all.
pub fn workload_filter() -> Option<Vec<String>> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == "--workloads").map(|i| {
        args.get(i + 1)
            .map(|s| s.split(',').filter(|p| !p.is_empty()).map(str::to_string).collect())
            .unwrap_or_default()
    })
}

/// A `--workloads` filter that matched nothing it named.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UnknownWorkloads(pub Vec<String>);

impl std::fmt::Display for UnknownWorkloads {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let accepted = format!(
            "known workloads: {}; also accepted: suite selectors ({}) and `name@Nx` \
             scaled variants (e.g. `rawdaudio@10x`)",
            encore_workloads::names().join(", "),
            encore_workloads::Suite::all().map(|s| s.label()).join(", "),
        );
        if self.0.is_empty() {
            return write!(f, "--workloads selected nothing; {accepted}");
        }
        write!(
            f,
            "unknown workload selector{} {}; {accepted}",
            if self.0.len() == 1 { "" } else { "s" },
            self.0.iter().map(|n| format!("`{n}`")).collect::<Vec<_>>().join(", "),
        )
    }
}

impl std::error::Error for UnknownWorkloads {}

/// Resolves a workload filter against the full suite. `None` selects
/// everything; otherwise each selector is a suite label
/// (`SPEC2K-INT`, any case), a workload name (paper spelling) or a
/// scaled spelling `name@Nx` (e.g. `rawdaudio@10x`). Duplicates
/// collapse and the result is in figure order (scale ascending within
/// a name) regardless of filter order. Any selector that matches
/// nothing is an error (a typo used to silently produce an empty suite
/// and experiment binaries that printed empty tables).
///
/// # Errors
///
/// Returns [`UnknownWorkloads`] listing every unmatched selector, or
/// with an empty list when the filter itself selects nothing.
pub fn select_workloads(filter: Option<&[String]>) -> Result<Vec<Workload>, UnknownWorkloads> {
    let all = encore_workloads::all();
    let Some(selectors) = filter else { return Ok(all) };
    let mut unknown = Vec::new();
    let mut picked: Vec<Workload> = Vec::new();
    let push_unique = |w: Workload, picked: &mut Vec<Workload>| {
        if !picked.iter().any(|p| p.name == w.name && p.scale == w.scale) {
            picked.push(w);
        }
    };
    for sel in selectors {
        if let Some(suite) = encore_workloads::Suite::parse(sel) {
            for w in all.iter().filter(|w| w.suite == suite) {
                push_unique(w.clone(), &mut picked);
            }
        } else if let Some(w) = encore_workloads::by_spec(sel) {
            push_unique(w, &mut picked);
        } else {
            unknown.push(sel.clone());
        }
    }
    if !unknown.is_empty() {
        return Err(UnknownWorkloads(unknown));
    }
    if picked.is_empty() {
        return Err(UnknownWorkloads(Vec::new()));
    }
    picked.sort_by_key(|w| {
        (all.iter().position(|a| a.name == w.name).unwrap_or(usize::MAX), w.scale)
    });
    Ok(picked)
}

/// Applies the `--workloads` argv filter to the full suite, exiting
/// with a diagnostic (rather than silently running nothing) when the
/// filter names unknown workloads.
pub fn selected_workloads() -> Vec<Workload> {
    let filter = workload_filter();
    match select_workloads(filter.as_deref()) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_workloads_resolves_and_rejects() {
        // No filter: the whole suite.
        let all = select_workloads(None).expect("full suite");
        assert_eq!(all.len(), encore_workloads::all().len());

        // A valid subset, in suite order regardless of filter order.
        let names = vec!["g721encode".to_string(), "rawcaudio".to_string()];
        let picked = select_workloads(Some(&names)).expect("known names");
        let picked_names: Vec<&str> = picked.iter().map(|w| w.name).collect();
        assert_eq!(picked_names.len(), 2);
        assert!(picked_names.contains(&"rawcaudio") && picked_names.contains(&"g721encode"));

        // Typos are reported, not silently dropped.
        let bad = vec!["rawcaudio".to_string(), "g721encoed".to_string()];
        let err = select_workloads(Some(&bad)).expect_err("typo must error");
        assert_eq!(err.0, vec!["g721encoed".to_string()]);
        assert!(err.to_string().contains("g721encoed"));
        assert!(err.to_string().contains("known workloads"));

        // An empty filter list selects nothing — also an error.
        let err = select_workloads(Some(&[])).expect_err("empty filter must error");
        assert!(err.0.is_empty());
        assert!(err.to_string().contains("selected nothing"));
    }

    #[test]
    fn select_workloads_accepts_suites_and_scaled_specs() {
        // A suite selector expands to that suite, in figure order.
        let sel = vec!["MEDIABENCH".to_string()];
        let media = select_workloads(Some(&sel)).expect("suite selector");
        let expected: Vec<&str> = encore_workloads::all()
            .iter()
            .filter(|w| w.suite == encore_workloads::Suite::Mediabench)
            .map(|w| w.name)
            .collect();
        assert_eq!(media.iter().map(|w| w.name).collect::<Vec<_>>(), expected);

        // `name@Nx` selects a scaled variant; a suite plus one of its
        // members at a different scale dedupes by (name, scale) and
        // sorts scale-ascending within the name.
        let sel = vec![
            "rawdaudio@10x".to_string(),
            "mediabench".to_string(),
            "rawdaudio@10x".to_string(),
        ];
        let picked = select_workloads(Some(&sel)).expect("suite + scaled spec");
        assert_eq!(picked.len(), expected.len() + 1);
        let specs: Vec<String> = picked.iter().map(|w| w.spec()).collect();
        let base = specs.iter().position(|s| s == "rawdaudio").expect("1x present");
        assert_eq!(specs[base + 1], "rawdaudio@10x");

        // Malformed scale suffixes are unknown selectors, and the error
        // advertises the accepted spellings.
        let bad = vec!["rawdaudio@0x".to_string(), "rawdaudio@tenx".to_string()];
        let err = select_workloads(Some(&bad)).expect_err("bad specs must error");
        assert_eq!(err.0, bad);
        let msg = err.to_string();
        assert!(msg.contains("name@Nx") && msg.contains("MEDIABENCH"));
    }

    #[test]
    fn prepare_and_run_one_workload() {
        let w = encore_workloads::by_name("rawcaudio").expect("exists");
        let prepared = prepare(w);
        assert!(prepared.profile.total_dyn_insts > 0);
        let run = encore_run(&prepared, &EncoreConfig::default());
        assert!(run.measured_overhead >= 0.0);
        assert!(run.instrumented_run.completed);
    }
}
