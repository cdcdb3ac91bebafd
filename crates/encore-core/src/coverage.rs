//! The recoverability coverage model (paper §4.2).
//!
//! A fault at hot-path instruction `s` of a region with hot-path length
//! `n` is recoverable iff it is detected before control leaves the region:
//! `s + l < n`, with detection latency `l ~ U[0, Dmax]` and fault site
//! `s ~ U[0, n]`. Integrating (Eq. 7) gives the latency scaling factor
//!
//! ```text
//! α = 1 − Dmax/(2n)   if n ≥ Dmax
//! α = n/(2 Dmax)      if n < Dmax
//! ```
//!
//! Full-system coverage (Figure 8) composes hardware masking with the
//! α-scaled recoverable execution fractions.

/// Latency scaling factor α of Eq. 7 for a region with hot-path length
/// `n` (dynamic instructions) under maximum detection latency `dmax`.
///
/// Edge cases: `n == 0` yields `0.0` (an empty region can recover
/// nothing); `dmax == 0` yields `1.0` (instant detection always lands
/// inside the region).
///
/// # Examples
///
/// ```
/// use encore_core::alpha;
///
/// assert!((alpha(1000, 100) - 0.95).abs() < 1e-12); // 1 - 100/2000
/// assert!((alpha(50, 100) - 0.25).abs() < 1e-12);   // 50/200
/// ```
pub fn alpha(n: u64, dmax: u64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    if dmax == 0 {
        return 1.0;
    }
    let (n, d) = (n as f64, dmax as f64);
    if n >= d {
        1.0 - d / (2.0 * n)
    } else {
        n / (2.0 * d)
    }
}

/// The point version of Eq. 6: probability that a fault at a uniform
/// hot-path site of a region with hot-path length `n` is detected
/// before control leaves the region, given a **fixed** detection
/// latency `l` (instead of Eq. 7's uniform average over `[0, Dmax]`):
/// `P(s + l < n) = max(0, (n − l)/n)`.
///
/// This is what an SFI campaign's per-latency-bin recovery rates
/// empirically estimate, so the campaign report uses it to
/// cross-validate the analytic model against measured histograms.
///
/// # Examples
///
/// ```
/// use encore_core::alpha_at_latency;
///
/// assert_eq!(alpha_at_latency(100, 0), 1.0);   // instant detection
/// assert_eq!(alpha_at_latency(100, 50), 0.5);  // half the sites escape
/// assert_eq!(alpha_at_latency(100, 200), 0.0); // always escapes
/// ```
pub fn alpha_at_latency(n: u64, l: u64) -> f64 {
    if n == 0 || l >= n {
        return 0.0;
    }
    (n - l) as f64 / n as f64
}

/// How execution time divides among region protection classes
/// (Figure 6's stack, as fractions of total dynamic instructions).
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct ExecutionBreakdown {
    /// Fraction spent in inherently idempotent, instrumented regions.
    pub idempotent: f64,
    /// Fraction spent in non-idempotent regions instrumented with
    /// selective checkpointing.
    pub checkpointed: f64,
    /// Fraction spent in regions left unprotected (too costly, unknown,
    /// or unprotectable) — lost recoverability coverage.
    pub unprotected: f64,
}

impl ExecutionBreakdown {
    /// Total protected fraction.
    pub fn protected_fraction(&self) -> f64 {
        self.idempotent + self.checkpointed
    }
}

/// The per-application coverage model: α-weighted recoverable fractions.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CoverageModel {
    /// Fraction of execution recoverable inside idempotent regions
    /// (α already applied).
    pub recoverable_idempotent: f64,
    /// Fraction recoverable inside checkpointed regions (α applied).
    pub recoverable_checkpointed: f64,
    /// Fraction not recoverable (unprotected + escapes past region
    /// boundaries).
    pub not_recoverable: f64,
}

impl CoverageModel {
    /// Builds the model from per-region data: each entry is
    /// `(exec_fraction, hot_path_len, is_idempotent)` for a *protected*
    /// region; `unprotected` is the remaining execution fraction.
    pub fn from_regions(
        regions: impl IntoIterator<Item = (f64, u64, bool)>,
        unprotected: f64,
        dmax: u64,
    ) -> Self {
        let mut idem = 0.0;
        let mut ckpt = 0.0;
        let mut escaped = 0.0;
        for (frac, n, is_idem) in regions {
            let a = alpha(n, dmax);
            if is_idem {
                idem += frac * a;
            } else {
                ckpt += frac * a;
            }
            escaped += frac * (1.0 - a);
        }
        Self {
            recoverable_idempotent: idem,
            recoverable_checkpointed: ckpt,
            not_recoverable: unprotected + escaped,
        }
    }

    /// Total recoverable fraction of (unmasked) faults.
    pub fn recoverable(&self) -> f64 {
        self.recoverable_idempotent + self.recoverable_checkpointed
    }
}

/// The hardware masking rate the paper measured with Monte-Carlo SFI on
/// an ARM926 Verilog model: ≈91 % of raw transient faults never become
/// architecturally visible. Figure 8 composes it with software recovery.
pub const ARM926_MASKING_RATE: f64 = 0.91;

/// Figure 8's stacked full-system fault coverage.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct FullSystemCoverage {
    /// Faults masked by the hardware (no intervention needed).
    pub masked: f64,
    /// Faults recovered via inherent idempotence.
    pub recovered_idempotent: f64,
    /// Faults recovered via Encore checkpointing.
    pub recovered_checkpointed: f64,
    /// Faults that escape recovery.
    pub not_recoverable: f64,
}

impl FullSystemCoverage {
    /// Composes hardware masking with the per-application coverage model.
    pub fn compose(masking_rate: f64, model: &CoverageModel) -> Self {
        let unmasked = 1.0 - masking_rate;
        Self {
            masked: masking_rate,
            recovered_idempotent: unmasked * model.recoverable_idempotent,
            recovered_checkpointed: unmasked * model.recoverable_checkpointed,
            not_recoverable: unmasked * model.not_recoverable,
        }
    }

    /// Total fault coverage (masked + recovered) — the paper's headline
    /// "97 % of transient faults".
    pub fn total(&self) -> f64 {
        self.masked + self.recovered_idempotent + self.recovered_checkpointed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_regimes() {
        // n == Dmax: both formulas agree at 1/2.
        assert!((alpha(100, 100) - 0.5).abs() < 1e-12);
        // Long region, short latency: nearly everything recovered.
        assert!(alpha(10_000, 10) > 0.999);
        // Short region, long latency: nearly nothing recovered.
        assert!(alpha(10, 10_000) < 0.001);
    }

    #[test]
    fn alpha_edge_cases() {
        assert_eq!(alpha(0, 100), 0.0);
        assert_eq!(alpha(100, 0), 1.0);
    }

    #[test]
    fn alpha_at_latency_is_eq6_pointwise() {
        // Averaging the point version over l ~ U[0, Dmax] recovers
        // Eq. 7's α (up to the discretization of the sum).
        let (n, dmax) = (1000u64, 100u64);
        let mean: f64 =
            (0..=dmax).map(|l| alpha_at_latency(n, l)).sum::<f64>() / (dmax + 1) as f64;
        assert!((mean - alpha(n, dmax)).abs() < 1e-3, "mean {mean} vs α {}", alpha(n, dmax));
        // Monotone non-increasing in latency.
        let mut prev = 1.0;
        for l in [0u64, 1, 10, 100, 999, 1000, 2000] {
            let a = alpha_at_latency(n, l);
            assert!(a <= prev);
            prev = a;
        }
    }

    #[test]
    fn alpha_monotone_in_n() {
        let mut prev = 0.0;
        for n in [1u64, 10, 50, 100, 200, 1000, 10_000] {
            let a = alpha(n, 100);
            assert!(a >= prev, "alpha not monotone at n={n}");
            prev = a;
        }
    }

    #[test]
    fn coverage_model_composition() {
        // One idempotent region covering 60% with long hot path, one
        // checkpointed region covering 30%, 10% unprotected.
        let model = CoverageModel::from_regions(
            [(0.6, 10_000, true), (0.3, 10_000, false)],
            0.1,
            100,
        );
        assert!(model.recoverable_idempotent > 0.59);
        assert!(model.recoverable_checkpointed > 0.29);
        let total = model.recoverable() + model.not_recoverable;
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn full_system_matches_paper_shape() {
        // ~91% masking + strong recovery => ~97%+ total coverage.
        let model = CoverageModel::from_regions([(0.9, 1000, true)], 0.1, 100);
        let fs = FullSystemCoverage::compose(0.91, &model);
        assert!(fs.total() > 0.96, "total = {}", fs.total());
        let sum = fs.masked + fs.recovered_idempotent + fs.recovered_checkpointed
            + fs.not_recoverable;
        assert!((sum - 1.0).abs() < 1e-9);
    }
}
