//! Order statistics and metric-name rules shared by the run and compare
//! paths.

/// Median and quartiles of `values`, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (its default "exclusive"
/// method), so a spread read off these numbers matches one a reader
/// recomputes from the raw samples.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Quartiles {
    pub p25: f64,
    pub median: f64,
    pub p75: f64,
    pub n: usize,
}

impl Quartiles {
    /// # Panics
    ///
    /// Panics on an empty slice: every caller measures at least one
    /// round.
    pub fn of(values: &[f64]) -> Quartiles {
        assert!(!values.is_empty(), "quartiles of no samples");
        let mut data = values.to_vec();
        data.sort_by(f64::total_cmp);
        let n = data.len();
        if n == 1 {
            return Quartiles {
                p25: data[0],
                median: data[0],
                p75: data[0],
                n,
            };
        }
        let m = n + 1;
        let cut = |i: usize| {
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
        };
        Quartiles {
            p25: cut(1),
            median: cut(2),
            p75: cut(3),
            n,
        }
    }
}

/// Percentiles a tail figure may be reported at, highest first, in
/// tenths of a percent (integers, so ranks round exactly).
const TAIL_LADDER: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// Samples that must lie beyond a reported percentile.
const TAIL_SUPPORT: usize = 10;

/// 1-based nearest rank of the `permille`-th percentile of `n` samples.
fn rank(n: usize, permille: usize) -> usize {
    (n * permille).div_ceil(1000).max(1)
}

/// The highest percentile on the ladder that has at least ten samples
/// beyond it, with its value: `(percent, value)`. `None` when even the
/// median lacks that support (fewer than 20 samples).
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    TAIL_LADDER
        .into_iter()
        .find(|&pm| n >= rank(n, pm) + TAIL_SUPPORT)
        .map(|pm| (pm as f64 / 10.0, sorted[rank(n, pm) - 1]))
}

/// Median by nearest rank (0 for no samples).
pub fn p50(sorted: &[f64]) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        sorted[rank(sorted.len(), 500) - 1]
    }
}

/// A metric name the benchmark may emit: letters, digits, `_`, `.` and
/// `-`, starting with a letter or digit, at most 64 characters.
#[cfg(test)]
pub fn valid_metric_name(name: &str) -> bool {
    let bytes = name.as_bytes();
    !bytes.is_empty()
        && bytes.len() <= 64
        && bytes[0].is_ascii_alphanumeric()
        && bytes
            .iter()
            .all(|&b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let q = Quartiles::of(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((q.p25, q.median, q.p75, q.n), (2.75, 5.5, 8.25, 10));
        // Odd count: the middle quartile is the middle sample.
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let q = Quartiles::of(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert_eq!((q.p25, q.median, q.p75), (1.5, 4.0, 12.0));
        // Two samples extrapolate past the ends, as Python does:
        // quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        let q = Quartiles::of(&[3.0, 1.0]);
        assert_eq!((q.p25, q.median, q.p75), (0.5, 2.0, 3.5));
        let q = Quartiles::of(&[7.0]);
        assert_eq!((q.p25, q.median, q.p75, q.n), (7.0, 7.0, 7.0, 1));
        // quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        let q = Quartiles::of(&[4.0, 3.0, 2.0, 1.0]);
        assert_eq!((q.p25, q.median, q.p75), (1.25, 2.5, 3.75));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let ramp = |n: usize| (1..=n).map(|v| v as f64).collect::<Vec<_>>();
        // 1000 samples: p99 has exactly 10 beyond it, p99.9 only 1.
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        // 10000 samples: p99.9 has 10 beyond it.
        assert_eq!(tail(&ramp(10_000)), Some((99.9, 9990.0)));
        // 999 samples: p99 is rank 990 with 9 beyond; fall to p95.
        assert_eq!(tail(&ramp(999)), Some((95.0, 950.0)));
        // 20 samples: only the median has 10 beyond it.
        assert_eq!(tail(&ramp(20)), Some((50.0, 10.0)));
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
        assert_eq!(p50(&ramp(5)), 3.0);
        assert_eq!(p50(&[]), 0.0);
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in [
            "wall_s",
            "sim.inject.p50_us.control_flow",
            "1x",
            "a-b.c_d",
            &"x".repeat(64),
        ] {
            assert!(valid_metric_name(ok), "{ok} rejected");
        }
        for bad in [
            "",
            ".lead",
            "_lead",
            "has space",
            "slash/y",
            "uni\u{e9}",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad} accepted");
        }
    }
}
