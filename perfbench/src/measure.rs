//! Runs a workload's rounds, checks their outputs, and turns the
//! timings, reports and spans into metrics.

use std::time::Instant;

use encore_sim::{CampaignReport, FaultModelKind, FaultOutcome, SfiConfig};

use crate::stats::{self, Quartiles};
use crate::trace::{self, Span, Tracer};
use crate::workload::{
    check_program, run_round, same_reports, Counts, InjectSample, LayerProbe, Plan, ProgramRun,
    Round, Source,
};

/// One reported figure. `spread` is set for medians over rounds.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub spread: Option<Quartiles>,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        spread: None,
    }
}

fn median_metric(name: &str, samples: &[f64], unit: &'static str) -> Metric {
    let q = Quartiles::of(samples);
    Metric {
        name: name.to_string(),
        value: q.median,
        unit,
        spread: Some(q),
    }
}

/// Everything one benchmark process reports.
#[derive(Debug)]
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    /// The gated end-to-end metrics, from the untraced rounds.
    pub end_to_end: Vec<Metric>,
    /// End-to-end figures that do not exist on every workload.
    pub extras: Vec<Metric>,
    /// Per-layer metrics; empty unless traced.
    pub per_layer: Vec<Metric>,
    pub spans: Vec<Span>,
    /// What failed, one line per failed program or check.
    pub failures: Vec<String>,
}

/// Tallies operations against the warm-up round, which every later
/// round must reproduce exactly.
struct Ledger<'a> {
    plan: &'a Plan,
    reference: &'a [Result<ProgramRun, String>],
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Ledger<'_> {
    fn fail(&mut self, ops: u64, what: String) {
        self.failed += ops;
        self.failures.push(what);
    }

    fn tally(&mut self, round: &Round, label: &str, with_probe_cost: bool) {
        let ops = self.plan.ops_per_program();
        for (i, (run, want)) in round.programs.iter().zip(self.reference).enumerate() {
            self.attempted += ops;
            match (run, want) {
                (Err(e), _) => self.fail(ops, format!("{label}: program {i}: {e}")),
                (Ok(_), Err(_)) => self.fail(
                    ops,
                    format!("{label}: program {i} succeeded where warm-up failed"),
                ),
                (Ok(a), Ok(b)) => {
                    if a.counts != b.counts
                        || !same_reports(&a.reports, &b.reports, with_probe_cost)
                    {
                        self.fail(
                            ops,
                            format!("{label}: program {i}: results differ from the warm-up round"),
                        );
                    }
                }
            }
        }
    }
}

/// `VmHWM` (peak resident set) of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one untimed warm-up round, then timed rounds until `seconds`
/// have passed and at least `min_rounds` ran, then (with `trace`) one
/// traced round, then the untimed checks. Peak memory is read after
/// the timed rounds.
pub fn measure(plan: &Plan, seconds: f64, min_rounds: usize, trace: bool) -> Measured {
    let mut untraced = Tracer::new(false);
    let mut no_samples = Vec::new();
    let warm = run_round(plan, &mut untraced, &mut no_samples);
    let mut ledger = Ledger {
        plan,
        reference: &warm.programs,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    ledger.tally(&warm, "warm-up", true);

    let (mut walls, mut setups) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while walls.len() < min_rounds || started.elapsed().as_secs_f64() < seconds {
        let round = run_round(plan, &mut untraced, &mut no_samples);
        ledger.tally(&round, &format!("round {}", walls.len() + 1), true);
        walls.push(round.wall_ns as f64 / 1e9);
        setups.push(round.setup_ns as f64 / 1e9);
    }
    // Before tracing, whose spans would otherwise count.
    let rss_mb = peak_rss_mb();

    let mut tracer = Tracer::new(trace);
    let mut samples = Vec::new();
    let traced = trace.then(|| {
        let round = tracer.span("round", 0, |t| run_round(plan, t, &mut samples));
        ledger.tally(&round, "traced round", false);
        round
    });

    let mut probe = LayerProbe::default();
    let mut oracle_checked = 0;
    for i in 0..plan.programs.len() {
        match check_program(plan, i, trace) {
            Ok(c) => {
                ledger.attempted += 1 + c.oracle_checked;
                oracle_checked += c.oracle_checked;
                if c.oracle_mismatches > 0 {
                    ledger.fail(
                        c.oracle_mismatches,
                        format!("checks: program {i}: spliced outcome differs from no-splice run"),
                    );
                }
                probe.partition_ns += c.probe.partition_ns;
                probe.instrument_ns += c.probe.instrument_ns;
                probe.predecode_ns += c.probe.predecode_ns;
                probe.golden_ns += c.probe.golden_ns;
                probe.golden_dyn_insts += c.probe.golden_dyn_insts;
            }
            Err(e) => {
                let ops = 1 + plan.oracle_checks_per_program();
                ledger.attempted += ops;
                ledger.fail(ops, format!("checks: program {i}: {e}"));
            }
        }
    }

    let totals = Totals::of(plan, &warm.programs);
    let end_to_end = vec![
        median_metric("wall_s", &walls, "s"),
        median_metric("setup_s", &setups, "s"),
        metric("peak_rss_mb", rss_mb, "MB"),
        metric(
            "dyn_overhead_frac",
            totals.kernels.dyn_overhead(),
            "fraction",
        ),
    ];
    let mut extras = Vec::new();
    let injections = (plan.sfi.injections * plan.models.len() * plan.programs.len()) as f64;
    if injections > 0.0 {
        let rates: Vec<f64> = walls
            .iter()
            .zip(&setups)
            .map(|(w, s)| injections / (w - s))
            .collect();
        extras.push(median_metric("injections_per_s", &rates, "1/s"));
        extras.push(metric(
            "safe_frac",
            totals.all.stats.safe_fraction(),
            "fraction",
        ));
    }
    extras.push(metric(
        "failed_frac",
        ledger.failed as f64 / ledger.attempted.max(1) as f64,
        "fraction",
    ));

    let per_layer = match &traced {
        Some(round) => {
            let median_wall = Quartiles::of(&walls).median;
            let overhead = round.wall_ns as f64 / 1e9 / median_wall - 1.0;
            per_layer(
                &totals,
                tracer.spans(),
                &samples,
                &probe,
                overhead,
                oracle_checked,
            )
        }
        None => Vec::new(),
    };

    Measured {
        attempted: ledger.attempted,
        failed: ledger.failed,
        end_to_end,
        extras,
        per_layer,
        spans: tracer.spans().to_vec(),
        failures: ledger.failures,
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The warm-up round's deterministic figures, summed over programs.
struct Totals {
    counts: Counts,
    /// Over the suite kernels only, which are the same for every seed.
    kernels: Counts,
    /// Over the generated programs only, which the seed picks.
    fuzz: Counts,
    /// Every campaign's report merged.
    all: CampaignReport,
    /// The reports merged per entry of `FaultModelKind::ALL`.
    by_model: Vec<CampaignReport>,
}

impl Totals {
    fn of(plan: &Plan, runs: &[Result<ProgramRun, String>]) -> Totals {
        let empty = |model| CampaignReport::new(SfiConfig { model, ..plan.sfi });
        let mut t = Totals {
            counts: Counts::default(),
            kernels: Counts::default(),
            fuzz: Counts::default(),
            all: empty(FaultModelKind::default()),
            by_model: FaultModelKind::ALL.map(empty).to_vec(),
        };
        for (source, run) in plan.programs.iter().zip(runs) {
            let Ok(run) = run else { continue };
            t.counts.add(&run.counts);
            match source {
                Source::Kernel(_) => t.kernels.add(&run.counts),
                Source::Fuzz(_) => t.fuzz.add(&run.counts),
            }
            for report in &run.reports {
                t.all.merge(report);
                let slot = FaultModelKind::ALL
                    .iter()
                    .position(|&m| m == report.model());
                t.by_model[slot.expect("a listed fault model")].merge(report);
            }
        }
        t
    }
}

fn splice_rate(r: &CampaignReport) -> f64 {
    ratio(r.splice.total() as u64, r.stats.injections as u64)
}

/// The contiguous `div_ceil` injection ranges `SfiCampaign::run_report`
/// hands its workers (trailing ranges may be empty).
pub fn shard_bounds(n: u64, workers: u64) -> Vec<(u64, u64)> {
    let workers = workers.clamp(1, n.max(1));
    let per = n.div_ceil(workers);
    (0..workers)
        .map(|w| (w * per, ((w + 1) * per).min(n)))
        .collect()
}

/// Summed over campaigns: the slowest shard's injection time over the
/// mean shard's, had each campaign run on `workers` threads.
pub fn shard_imbalance(samples: &[InjectSample], workers: u64) -> f64 {
    let (mut slowest, mut mean) = (0.0, 0.0);
    for campaign in samples.chunk_by(|a, b| a.campaign == b.campaign) {
        let bounds = shard_bounds(campaign.len() as u64, workers);
        let sums: Vec<u64> = bounds
            .iter()
            .map(|&(lo, hi)| (lo..hi).map(|i| campaign[i as usize].ns).sum())
            .collect();
        slowest += *sums.iter().max().unwrap_or(&0) as f64;
        mean += sums.iter().sum::<u64>() as f64 / sums.len() as f64;
    }
    if mean == 0.0 {
        0.0
    } else {
        slowest / mean
    }
}

/// Injection-time figures over a set of traced injections. The tail is
/// the highest percentile with ten samples beyond it; it and its
/// percentile read 0 when there is none.
struct InjectFigures {
    count: f64,
    p50_us: f64,
    tail_pct: f64,
    tail_us: f64,
    max_us: f64,
    spliced_ms: f64,
    full_ms: f64,
}

impl InjectFigures {
    fn of(samples: &[&InjectSample]) -> Self {
        let mut us: Vec<f64> = samples.iter().map(|s| s.ns as f64 / 1e3).collect();
        us.sort_by(f64::total_cmp);
        let (tail_pct, tail_us) = stats::tail(&us).unwrap_or((0.0, 0.0));
        let ms = |spliced: bool| {
            let ns = samples
                .iter()
                .filter(|s| s.spliced == spliced)
                .map(|s| s.ns);
            ns.sum::<u64>() as f64 / 1e6
        };
        InjectFigures {
            count: us.len() as f64,
            p50_us: stats::p50(&us),
            tail_pct,
            tail_us,
            max_us: us.last().copied().unwrap_or(0.0),
            spliced_ms: ms(true),
            full_ms: ms(false),
        }
    }
}

fn per_layer(
    totals: &Totals,
    spans: &[Span],
    samples: &[InjectSample],
    probe: &LayerProbe,
    trace_overhead: f64,
    oracle_checked: u64,
) -> Vec<Metric> {
    let by_name = trace::totals(spans);
    let span_ms = |name: &str| by_name.get(name).map_or(0.0, |t| t.1 as f64 / 1e6);
    let c = &totals.counts;
    let ms = |ns: u64| ns as f64 / 1e6;
    let prepare_ms = span_ms("sim.prepare");
    let mut out = vec![
        metric("workloads.build_ms", span_ms("workloads.build"), "ms"),
        metric("analysis.profile_ms", span_ms("analysis.profile"), "ms"),
        metric(
            "analysis.profile_dyn_insts",
            c.profile_dyn_insts as f64,
            "count",
        ),
        metric("core.pipeline_ms", span_ms("core.pipeline"), "ms"),
        metric("core.partition_ms", ms(probe.partition_ns), "ms"),
        metric("core.instrument_ms", ms(probe.instrument_ns), "ms"),
        metric("core.regions", c.regions as f64, "count"),
        metric(
            "core.regions_protected",
            c.regions_protected as f64,
            "count",
        ),
        metric("core.mem_ckpts", c.mem_ckpts as f64, "count"),
        metric("core.reg_ckpts", c.reg_ckpts as f64, "count"),
        metric(
            "core.fuzz_dyn_overhead_frac",
            totals.fuzz.dyn_overhead(),
            "fraction",
        ),
        metric("ir.print_parse_ms", span_ms("ir.print_parse"), "ms"),
        metric("ir.verify_ms", span_ms("ir.verify"), "ms"),
        metric("sim.check_run_ms", span_ms("sim.check_run"), "ms"),
        metric("sim.predecode_ms", ms(probe.predecode_ns), "ms"),
        metric("sim.golden_ms", ms(probe.golden_ns), "ms"),
        metric(
            "sim.golden_dyn_insts",
            probe.golden_dyn_insts as f64,
            "count",
        ),
        metric(
            "sim.golden_minsts_per_s",
            ratio(probe.golden_dyn_insts * 1000, probe.golden_ns),
            "Minst/s",
        ),
        metric("sim.prepare_ms", prepare_ms, "ms"),
        metric(
            "sim.capture_ms",
            (prepare_ms - ms(probe.predecode_ns) - ms(probe.golden_ns)).max(0.0),
            "ms",
        ),
        metric("sim.snapshots", c.snapshots as f64, "count"),
    ];
    let f = InjectFigures::of(&samples.iter().collect::<Vec<_>>());
    out.extend([
        metric("sim.inject.count", f.count, "count"),
        metric("sim.inject.p50_us", f.p50_us, "us"),
        metric("sim.inject.tail_pct", f.tail_pct, "%"),
        metric("sim.inject.tail_us", f.tail_us, "us"),
        metric("sim.inject.max_us", f.max_us, "us"),
        metric("sim.inject.spliced_ms", f.spliced_ms, "ms"),
        metric("sim.inject.full_ms", f.full_ms, "ms"),
    ]);
    for (model, report) in FaultModelKind::ALL.into_iter().zip(&totals.by_model) {
        let label = model.label();
        let f = InjectFigures::of(
            &samples
                .iter()
                .filter(|s| s.model == model)
                .collect::<Vec<_>>(),
        );
        out.extend([
            metric(format!("sim.inject.count.{label}"), f.count, "count"),
            metric(format!("sim.inject.p50_us.{label}"), f.p50_us, "us"),
            metric(format!("sim.inject.tail_us.{label}"), f.tail_us, "us"),
            metric(format!("sim.inject.spliced_ms.{label}"), f.spliced_ms, "ms"),
            metric(format!("sim.inject.full_ms.{label}"), f.full_ms, "ms"),
            metric(
                format!("sim.splice.rate.{label}"),
                splice_rate(report),
                "fraction",
            ),
        ]);
    }
    let (splice, cost) = (&totals.all.splice, &totals.all.splice.cost);
    out.extend([
        metric("sim.splice.rate", splice_rate(&totals.all), "fraction"),
        metric("sim.splice.converged", splice.converged as f64, "count"),
        metric("sim.splice.dead_diff", splice.dead_diff as f64, "count"),
        metric("sim.splice.sdc", splice.sdc as f64, "count"),
        metric(
            "sim.splice.dyn_insts_saved",
            splice.dyn_insts_saved as f64,
            "count",
        ),
        metric("sim.probe.probes", cost.probes as f64, "count"),
        metric("sim.probe.pages_hashed", cost.pages_hashed as f64, "count"),
        metric(
            "sim.probe.words_compared",
            cost.words_compared as f64,
            "count",
        ),
        metric(
            "sim.probe.hit_rate",
            ratio(splice.total() as u64, cost.probes),
            "fraction",
        ),
    ]);
    for o in FaultOutcome::ALL {
        let count = totals.all.stats.count(o) as f64;
        out.push(metric(format!("sim.outcome.{}", o.label()), count, "count"));
    }
    out.extend([
        metric(
            "sim.safe_frac",
            totals.all.stats.safe_fraction(),
            "fraction",
        ),
        metric(
            "sim.shard.imbalance_w2",
            shard_imbalance(samples, 2),
            "ratio",
        ),
        metric(
            "sim.shard.imbalance_w4",
            shard_imbalance(samples, 4),
            "ratio",
        ),
        metric("bench.trace_overhead_frac", trace_overhead, "fraction"),
        metric("bench.oracle_checked", oracle_checked as f64, "count"),
    ]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_follow_run_reports_partition() {
        assert_eq!(shard_bounds(10, 4), [(0, 3), (3, 6), (6, 9), (9, 10)]);
        assert_eq!(shard_bounds(10, 2), [(0, 5), (5, 10)]);
        // run_report's div_ceil leaves a trailing worker idle here.
        assert_eq!(shard_bounds(5, 4), [(0, 2), (2, 4), (4, 5), (6, 5)]);
        // Never more workers than injections.
        assert_eq!(shard_bounds(2, 4), [(0, 1), (1, 2)]);
        assert_eq!(shard_bounds(0, 4), [(0, 0)]);
        for (n, w) in [(1, 1), (7, 3), (40, 4), (1000, 2), (1001, 4)] {
            let bounds = shard_bounds(n, w);
            let covered: u64 = bounds.iter().map(|&(lo, hi)| hi.saturating_sub(lo)).sum();
            assert_eq!(covered, n, "{n} injections over {w} workers");
        }
    }

    #[test]
    fn imbalance_is_slowest_shard_over_mean() {
        let campaign = |id: usize, ns: &[u64]| {
            ns.iter()
                .map(move |&ns| InjectSample {
                    model: FaultModelKind::BitFlip,
                    campaign: id,
                    ns,
                    spliced: false,
                })
                .collect::<Vec<_>>()
        };
        // Shards {1,1} and {1,5}: slowest 6 over mean 4.
        assert_eq!(shard_imbalance(&campaign(0, &[1, 1, 1, 5]), 2), 1.5);
        // Two campaigns sum their slowest and mean shards: (6 + 2) / (4 + 2).
        let mut two = campaign(0, &[1, 1, 1, 5]);
        two.extend(campaign(1, &[2, 2]));
        assert_eq!(shard_imbalance(&two, 2), 8.0 / 6.0);
        // Three injections on four workers use three shards, evenly.
        assert_eq!(shard_imbalance(&campaign(0, &[3, 3, 3]), 4), 1.0);
        assert_eq!(shard_imbalance(&[], 2), 0.0);
    }
}
