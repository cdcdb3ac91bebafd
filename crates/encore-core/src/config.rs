//! Encore configuration knobs (the "programmable heuristics" of the
//! paper's Figure 3).

use encore_analysis::AliasMode;

/// Tuning parameters for an Encore compilation.
///
/// The defaults reproduce the paper's evaluation setup: `Pmin = 0.0`
/// (prune only never-executed code), a 20 % runtime-overhead budget used
/// to derive γ empirically per application, η = 1.0, conservative static
/// alias analysis, and `Dmax = 100` instructions of detection latency
/// (the Shoestring/ReStore regime).
///
/// # Examples
///
/// ```
/// use encore_core::EncoreConfig;
///
/// let config = EncoreConfig::default()
///     .with_pmin(Some(0.1))
///     .with_overhead_budget(0.15);
/// assert_eq!(config.pmin, Some(0.1));
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct EncoreConfig {
    /// `Pmin` (§3.4.1): blocks with execution probability `≤ Pmin`
    /// relative to their region header are pruned from the idempotence
    /// analysis. `None` disables pruning (the paper's `∅` column).
    pub pmin: Option<f64>,
    /// γ (§3.4.2): a region is instrumented only when
    /// `Coverage/Cost > γ`. When [`Self::overhead_budget`] is set the
    /// effective γ is derived per application instead (the paper's
    /// "empirically derived" values); this field then acts as a floor.
    pub gamma: f64,
    /// η (§3.4.2): regions are merged only when `ΔCoverage/ΔCost > η`.
    /// Small η favours large regions (reliability); large η favours low
    /// overhead.
    pub eta: f64,
    /// Target maximum runtime overhead (fraction of dynamic
    /// instructions); the paper used ~0.20. `None` disables
    /// budget-driven selection and uses raw γ.
    pub overhead_budget: Option<f64>,
    /// Which alias oracle to use (Figure 7a compares the two).
    pub alias: AliasMode,
    /// Maximum fault-detection latency in dynamic instructions (`Dmax`
    /// of Eq. 6); detection latency is uniform over `[0, Dmax]`.
    pub dmax: u64,
    /// **Ablation knob (unsound!):** skip the live-in register
    /// checkpoints at region headers. The paper inserts them "to ensure
    /// that no WAR register dependencies violate idempotence" (§3.2);
    /// eliding them shows, via fault injection, how many recoveries
    /// silently corrupt state without them.
    pub elide_reg_ckpts: bool,
    /// Optional upper bound on a region's expected dynamic length per
    /// activation (header execution); merges that would exceed it are
    /// refused. Defaults to `f64::INFINITY` (no cap): the structural
    /// fixed-slot constraint (a checkpointed store may execute at most
    /// once per activation) already bounds merging where it matters.
    /// Exposed as an ablation knob for the region-granularity study.
    pub max_region_len: f64,
    /// Worker threads for the per-function analysis loop of the pipeline
    /// (`0` = one per available core). Functions are sharded in
    /// contiguous index ranges and results merged in function order, so
    /// the pipeline output is bit-identical for any worker count.
    pub analysis_workers: usize,
}

impl Default for EncoreConfig {
    fn default() -> Self {
        Self {
            pmin: Some(0.0),
            gamma: 0.0,
            eta: 1.0,
            overhead_budget: Some(0.20),
            alias: AliasMode::Static,
            dmax: 100,
            elide_reg_ckpts: false,
            max_region_len: f64::INFINITY,
            analysis_workers: 0,
        }
    }
}

impl EncoreConfig {
    /// Creates the default configuration (same as [`Default`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets `Pmin` (`None` = no pruning, the paper's `∅`).
    pub fn with_pmin(mut self, pmin: Option<f64>) -> Self {
        self.pmin = pmin;
        self
    }

    /// Sets the γ selection threshold.
    pub fn with_gamma(mut self, gamma: f64) -> Self {
        self.gamma = gamma;
        self
    }

    /// Sets the η merge threshold.
    pub fn with_eta(mut self, eta: f64) -> Self {
        self.eta = eta;
        self
    }

    /// Sets the runtime-overhead budget (fraction, e.g. `0.20`).
    pub fn with_overhead_budget(mut self, budget: f64) -> Self {
        self.overhead_budget = Some(budget);
        self
    }

    /// Disables budget-driven selection (use raw γ only).
    pub fn without_overhead_budget(mut self) -> Self {
        self.overhead_budget = None;
        self
    }

    /// Selects the alias oracle.
    pub fn with_alias(mut self, alias: AliasMode) -> Self {
        self.alias = alias;
        self
    }

    /// Sets the maximum detection latency `Dmax`.
    pub fn with_dmax(mut self, dmax: u64) -> Self {
        self.dmax = dmax;
        self
    }

    /// Sets the per-activation region length cap (see
    /// [`Self::max_region_len`]).
    pub fn with_max_region_len(mut self, len: f64) -> Self {
        self.max_region_len = len;
        self
    }

    /// Enables the unsound register-checkpoint-elision ablation.
    pub fn with_elided_reg_ckpts(mut self) -> Self {
        self.elide_reg_ckpts = true;
        self
    }

    /// Sets the analysis worker-thread count (`0` = all cores).
    pub fn with_analysis_workers(mut self, workers: usize) -> Self {
        self.analysis_workers = workers;
        self
    }

    /// Should block `b_prob` (execution probability relative to its
    /// region header) be pruned?
    pub fn should_prune(&self, prob: f64) -> bool {
        match self.pmin {
            None => false,
            Some(pmin) => prob <= pmin,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = EncoreConfig::default();
        assert_eq!(c.pmin, Some(0.0));
        assert_eq!(c.overhead_budget, Some(0.20));
        assert_eq!(c.dmax, 100);
        assert_eq!(crate::ARM926_MASKING_RATE, 0.91);
        assert_eq!(c.alias, AliasMode::Static);
    }

    #[test]
    fn pruning_semantics() {
        let none = EncoreConfig::default().with_pmin(None);
        assert!(!none.should_prune(0.0));
        let zero = EncoreConfig::default().with_pmin(Some(0.0));
        assert!(zero.should_prune(0.0)); // never-executed code is pruned
        assert!(!zero.should_prune(0.001));
        let ten = EncoreConfig::default().with_pmin(Some(0.1));
        assert!(ten.should_prune(0.05));
        assert!(ten.should_prune(0.1));
        assert!(!ten.should_prune(0.2));
    }

    #[test]
    fn builder_chains() {
        let c = EncoreConfig::new()
            .with_gamma(2.0)
            .with_eta(0.5)
            .with_dmax(1000)
            .without_overhead_budget();
        assert_eq!(c.gamma, 2.0);
        assert_eq!(c.eta, 0.5);
        assert_eq!(c.dmax, 1000);
        assert_eq!(c.overhead_budget, None);
    }
}
