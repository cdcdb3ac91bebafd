//! `benchmark compare <a.json> <b.json>`: for every workload and
//! end-to-end metric, the two medians, the change, the bound from
//! `BENCHMARK.json` and a verdict.

use crate::json::{self, Json};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Ok,
    Worse,
    /// The quartile spread of either side is wider than the bound, so
    /// the bound cannot resolve a change.
    Unresolved,
    Missing,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }
}

/// One side of a comparison: a median and its relative quartile spread.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Side {
    pub median: f64,
    pub spread: f64,
}

/// The verdict for moving from `a` to `b` on a metric where lower (or,
/// with `higher_is_better`, higher) is better, with `bound` the allowed
/// relative worsening. Returns the signed relative change with it.
pub fn judge(a: Side, b: Side, higher_is_better: bool, bound: f64) -> (f64, Verdict) {
    let delta = if a.median == 0.0 {
        if b.median == 0.0 {
            0.0
        } else {
            f64::INFINITY.copysign(b.median)
        }
    } else {
        (b.median - a.median) / a.median.abs()
    };
    let worse_by = if higher_is_better { -delta } else { delta };
    let verdict = if a.spread.max(b.spread) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (delta, verdict)
}

fn side(results: &Json, workload: &str, metric: &str) -> Option<Side> {
    let entry = results
        .get("results")?
        .as_arr()
        .iter()
        .find(|r| r.get("workload").and_then(Json::as_str) == Some(workload))?;
    let m = entry.get("metrics")?.get(metric)?;
    let median = m.get("value")?.as_f64()?;
    let spread = match (
        m.get("p25").and_then(Json::as_f64),
        m.get("p75").and_then(Json::as_f64),
    ) {
        (Some(lo), Some(hi)) if median != 0.0 => ((hi - lo) / median).abs(),
        _ => 0.0,
    };
    Some(Side { median, spread })
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Runs the subcommand against `spec`, the text of `BENCHMARK.json`;
/// returns the process exit code.
pub fn main(args: &[String], spec: &str) -> i32 {
    let [a, b] = args else {
        eprintln!("usage: benchmark compare <a.json> <b.json>");
        return 2;
    };
    let spec = json::parse(spec).expect("BENCHMARK.json is valid JSON");
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("error: {e}");
            }
            return 2;
        }
    };
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "delta", "bound"
    );
    let mut worse = false;
    for w in spec.get("workloads").map(Json::as_arr).unwrap_or_default() {
        let workload = w.get("name").and_then(Json::as_str).unwrap_or("?");
        for m in spec.get("end_to_end").map(Json::as_arr).unwrap_or_default() {
            let name = m.get("name").and_then(Json::as_str).unwrap_or("?");
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let higher = m.get("better").and_then(Json::as_str) == Some("higher");
            let (line, verdict) = match (side(&a, workload, name), side(&b, workload, name)) {
                (Some(sa), Some(sb)) => {
                    let (delta, verdict) = judge(sa, sb, higher, bound);
                    (
                        format!(
                            "{:>14.6} {:>14.6} {:>+8.2}%",
                            sa.median,
                            sb.median,
                            delta * 100.0
                        ),
                        verdict,
                    )
                }
                _ => (
                    format!("{:>14} {:>14} {:>9}", "-", "-", "-"),
                    Verdict::Missing,
                ),
            };
            worse |= matches!(verdict, Verdict::Worse | Verdict::Missing);
            println!(
                "{workload:<16} {name:<18} {line} {:>6.1}%  {}",
                bound * 100.0,
                verdict.label()
            );
        }
    }
    i32::from(worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, spread: f64) -> Side {
        Side { median, spread }
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        // 5% slower with a 10% bound is ok; 15% slower is worse.
        assert_eq!(
            judge(s(1.0, 0.01), s(1.05, 0.01), false, 0.10).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(s(1.0, 0.01), s(1.15, 0.01), false, 0.10).1,
            Verdict::Worse
        );
        // Faster is never worse.
        assert_eq!(
            judge(s(1.0, 0.01), s(0.5, 0.01), false, 0.10).1,
            Verdict::Ok
        );
        // For higher-is-better metrics a drop is the worsening.
        assert_eq!(
            judge(s(100.0, 0.0), s(80.0, 0.0), true, 0.10).1,
            Verdict::Worse
        );
        assert_eq!(
            judge(s(100.0, 0.0), s(120.0, 0.0), true, 0.10).1,
            Verdict::Ok
        );
        // A spread wider than the bound cannot resolve anything.
        assert_eq!(
            judge(s(1.0, 0.2), s(1.0, 0.01), false, 0.10).1,
            Verdict::Unresolved
        );
        // Exact metrics: any worsening exceeds a zero bound.
        assert_eq!(
            judge(s(0.2, 0.0), s(0.2, 0.0), false, 0.0),
            (0.0, Verdict::Ok)
        );
        assert_eq!(
            judge(s(0.2, 0.0), s(0.2001, 0.0), false, 0.0).1,
            Verdict::Worse
        );
    }

    #[test]
    fn reads_medians_and_spreads_from_a_results_file() {
        let doc = json::parse(
            r#"{"seed": 1, "results": [{"workload": "exec-bound", "metrics":
               {"wall_s": {"value": 2.0, "unit": "s", "p25": 1.9, "p75": 2.1, "n": 10},
                "peak_rss_mb": {"value": 50.0, "unit": "MB"}}}]}"#,
        )
        .expect("valid");
        let wall = side(&doc, "exec-bound", "wall_s").expect("present");
        assert_eq!(wall.median, 2.0);
        assert!((wall.spread - 0.1).abs() < 1e-12);
        assert_eq!(side(&doc, "exec-bound", "peak_rss_mb"), Some(s(50.0, 0.0)));
        assert_eq!(side(&doc, "splice-bound", "wall_s"), None);
    }
}
