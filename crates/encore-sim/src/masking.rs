//! Hardware masking model.
//!
//! The paper quantified hardware masking with Monte-Carlo SFI on a
//! Verilog model of an ARM926 (≈91 % of raw transient faults never
//! become architecturally visible). We cannot re-run gate-level
//! injection, so the masking rate is a model parameter (defaulting to
//! the paper's measurement) composed with the software-level SFI
//! statistics from [`crate::sfi`].

use crate::sfi::SfiStats;

/// A Bernoulli hardware-masking model.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct MaskingModel {
    /// Probability that a raw fault is masked before becoming
    /// architecturally visible.
    pub rate: f64,
}

impl MaskingModel {
    /// The paper's ARM926 measurement.
    pub fn arm926() -> Self {
        Self { rate: encore_core::ARM926_MASKING_RATE }
    }

    /// Creates a model with an explicit rate in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics when `rate` is outside `[0, 1]`.
    pub fn new(rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "masking rate must be in [0,1]");
        Self { rate }
    }

    /// Composes hardware masking with software SFI statistics into the
    /// Figure 8 stack (fractions of *all* raw faults).
    pub fn compose(&self, stats: &SfiStats) -> ComposedCoverage {
        let visible = 1.0 - self.rate;
        let n = stats.injections.max(1) as f64;
        ComposedCoverage {
            masked: self.rate + visible * stats.benign as f64 / n,
            recovered: visible * stats.recovered as f64 / n,
            not_recoverable: visible
                * (stats.silent_corruption
                    + stats.detected_unrecoverable
                    + stats.crashed
                    + stats.hung) as f64
                / n,
        }
    }
}

impl Default for MaskingModel {
    fn default() -> Self {
        Self::arm926()
    }
}

/// Full-system composition of masking and SFI results.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ComposedCoverage {
    /// Faults with no architectural consequence (hardware masking plus
    /// software-benign outcomes).
    pub masked: f64,
    /// Faults recovered by Encore rollback.
    pub recovered: f64,
    /// Faults leading to failure.
    pub not_recoverable: f64,
}

impl ComposedCoverage {
    /// Total coverage (the paper's "97 % of transient faults").
    pub fn total(&self) -> f64 {
        self.masked + self.recovered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(benign: usize, recovered: usize, bad: usize) -> SfiStats {
        SfiStats {
            injections: benign + recovered + bad,
            benign,
            recovered,
            silent_corruption: bad,
            ..Default::default()
        }
    }

    #[test]
    fn composition_sums_to_one() {
        let m = MaskingModel::arm926();
        let c = m.compose(&stats(20, 70, 10));
        let sum = c.masked + c.recovered + c.not_recoverable;
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn full_masking_leaves_nothing_visible() {
        let m = MaskingModel::new(1.0);
        let c = m.compose(&stats(0, 0, 100));
        assert!((c.total() - 1.0).abs() < 1e-12);
        assert_eq!(c.not_recoverable, 0.0);
    }

    #[test]
    fn paper_shape() {
        // 91% masking and strong software recovery yields >96% total.
        let m = MaskingModel::arm926();
        let c = m.compose(&stats(10, 75, 15));
        assert!(c.total() > 0.96, "total = {}", c.total());
    }

    #[test]
    #[should_panic(expected = "masking rate")]
    fn invalid_rate_panics() {
        let _ = MaskingModel::new(1.5);
    }
}
