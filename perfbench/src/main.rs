//! `benchmark`: end-to-end and per-layer measurements of the Encore
//! reproduction — the compiler pipeline and the fault-injection engine —
//! on five single-threaded workloads. See `README.md` beside this
//! package for the workloads, metrics and bounds.
//!
//! ```text
//! benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!           [--spans FILE] [--out FILE]
//! benchmark compare <a.json> <b.json>
//! ```
//!
//! A run prints one line per metric (`workload metric value unit`, with
//! quartiles and sample count for medians over rounds) and, last, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics, or with `--trace 1` the per-layer ones. It exits
//! 1 when any operation failed.

mod compare;
mod json;
mod measure;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};

use measure::{Measured, Metric};
use workload::{Plan, Size, Workload, DEFAULT_SEED};

/// Timed rounds a run makes even when `--seconds` has already passed.
const MIN_ROUNDS: usize = 3;

/// The repository's `BENCHMARK.json`: workloads, metrics and bounds.
const SPEC: &str = include_str!("../../BENCHMARK.json");

/// This package's manifest and the repository's root one. This package
/// is a workspace of its own, so it carries a copy of the root's
/// release profile; the two must not drift apart.
const OWN_MANIFEST: &str = include_str!("../Cargo.toml");
const ROOT_MANIFEST: &str = include_str!("../../Cargo.toml");

const USAGE: &str = "usage: benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--spans FILE] [--out FILE]
       benchmark compare <a.json> <b.json>";

/// The settings under a manifest's `[profile.release]`, without
/// comments or blank lines.
fn release_profile(manifest: &str) -> Vec<&str> {
    manifest
        .lines()
        .map(|l| l.split('#').next().unwrap_or_default().trim())
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty())
        .collect()
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 20.0, false);
    let (mut spans, mut out) = (None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names = Workload::ALL.map(Workload::name).join(", ");
                workload = Some(
                    Workload::parse(value)
                        .ok_or_else(|| format!("unknown workload `{value}`; known: {names}"))?,
                );
            }
            "--seed" => seed = parse_seed(value).ok_or_else(|| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            "--spans" => spans = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        spans,
        out,
    })
}

/// A metric's value as JSON: non-finite values (which no metric should
/// produce) become `null` rather than invalid JSON.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn metrics_json(metrics: &[&Metric], with_spread: bool) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let spread = match (&m.spread, with_spread) {
                (Some(q), true) => format!(
                    ", \"p25\": {}, \"p75\": {}, \"n\": {}",
                    number(q.p25),
                    number(q.p75),
                    q.n
                ),
                _ => String::new(),
            };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}{spread}}}",
                json::quote(&m.name),
                number(m.value),
                json::quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn report(args: &Args, m: &Measured) -> Result<(), String> {
    let name = args.workload.name();
    let everything: Vec<&Metric> = m
        .end_to_end
        .iter()
        .chain(&m.extras)
        .chain(&m.per_layer)
        .collect();
    for metric in &everything {
        let spread = metric
            .spread
            .map(|q| format!("  (p25 {} p75 {} n {})", q.p25, q.p75, q.n))
            .unwrap_or_default();
        println!(
            "{name} {} {} {}{spread}",
            metric.name, metric.value, metric.unit
        );
    }
    for failure in m.failures.iter().take(20) {
        eprintln!("failed: {failure}");
    }
    let correct = m.failed == 0;
    if let Some(out) = &args.out {
        let doc = format!(
            "{{\"workload\": {}, \"seed\": {}, \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}\n",
            json::quote(name),
            args.seed,
            m.attempted,
            m.failed,
            metrics_json(&everything, true)
        );
        write_file(out, &doc)?;
    }
    if args.trace {
        let path = args
            .spans
            .clone()
            .unwrap_or_else(|| PathBuf::from(format!(".bench_out/spans-{name}.json")));
        write_file(&path, &trace::to_json(name, args.seed, &m.spans))?;
        eprintln!("spans written to {}", path.display());
    }
    let gated: Vec<&Metric> = if args.trace {
        m.per_layer.iter().collect()
    } else {
        m.end_to_end.iter().collect()
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        m.attempted,
        m.failed,
        metrics_json(&gated, false)
    );
    Ok(())
}

fn main() {
    if release_profile(OWN_MANIFEST) != release_profile(ROOT_MANIFEST) {
        eprintln!(
            "error: [profile.release] in perfbench/Cargo.toml differs from the repository root's; \
             copy the root's so the benchmark measures the build the repository ships"
        );
        std::process::exit(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        std::process::exit(compare::main(&argv[1..], SPEC));
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let plan = Plan::new(args.workload, args.seed, Size::Full);
    let measured = measure::measure(&plan, args.seconds, MIN_ROUNDS, args.trace);
    if let Err(e) = report(&args, &measured) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    std::process::exit(i32::from(measured.failed > 0));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names and units `BENCHMARK.json` lists under `key`.
    fn declared(key: &str) -> Vec<(String, String)> {
        let spec = json::parse(SPEC).expect("valid JSON");
        spec.get(key)
            .expect(key)
            .as_arr()
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(json::Json::as_str)
                        .expect("name")
                        .to_string(),
                    m.get("unit")
                        .and_then(json::Json::as_str)
                        .expect("unit")
                        .to_string(),
                )
            })
            .collect()
    }

    fn emitted(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn every_workload_runs_clean_and_emits_every_declared_metric() {
        let (end_to_end, per_layer) = (declared("end_to_end"), declared("per_layer"));
        for workload in Workload::ALL {
            let plan = Plan::new(workload, 7, Size::Tiny);
            let m = measure::measure(&plan, 0.0, 2, true);
            let name = workload.name();
            assert_eq!(m.failed, 0, "{name}: {:?}", m.failures);
            assert!(m.attempted > 0, "{name}");
            assert_eq!(
                emitted(&m.end_to_end),
                end_to_end,
                "{name}: end-to-end metrics"
            );
            assert_eq!(
                emitted(&m.per_layer),
                per_layer,
                "{name}: per-layer metrics"
            );
            for metric in m.end_to_end.iter().chain(&m.extras).chain(&m.per_layer) {
                assert!(
                    stats::valid_metric_name(&metric.name),
                    "{name}: {}",
                    metric.name
                );
                assert!(
                    metric.value.is_finite(),
                    "{name}: {} = {}",
                    metric.name,
                    metric.value
                );
            }
            for metric in &m.end_to_end {
                assert!(
                    metric.value > 0.0,
                    "{name}: {} must never be 0",
                    metric.name
                );
            }
            let fail = m
                .extras
                .iter()
                .find(|x| x.name == "failed_frac")
                .expect("failed_frac");
            assert_eq!(fail.value, 0.0, "{name}");
            assert!(
                m.spans.iter().any(|s| s.name == "core.pipeline"),
                "{name}: no pipeline span"
            );
        }
    }

    #[test]
    fn release_profile_is_the_repositorys() {
        assert!(!release_profile(ROOT_MANIFEST).is_empty());
        assert_eq!(
            release_profile(OWN_MANIFEST),
            release_profile(ROOT_MANIFEST)
        );
        let manifest = "[a]\nx = 1\n[profile.release]\n# why\nlto = true # fat\n\n[b]\ny = 2\n";
        assert_eq!(release_profile(manifest), ["lto = true"]);
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload exec-bound --seed 0x10 --seconds 2.5 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::ExecBound, 16, 2.5, true)
        );
        let defaults = parse_args(&argv("--workload suite-sweep")).expect("valid");
        assert_eq!(
            (defaults.seed, defaults.seconds, defaults.trace),
            (DEFAULT_SEED, 20.0, false)
        );
        for bad in [
            "",
            "--workload nope",
            "--workload exec-bound --trace 2",
            "--workload exec-bound --seconds -1",
            "--workload",
            "--bogus 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} accepted");
        }
    }
}
