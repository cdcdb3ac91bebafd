//! Monte-Carlo statistical fault injection (SFI).
//!
//! The paper's full-system evaluation (§4, §5.4) composes an SFI-derived
//! hardware masking rate with the Encore recoverability model. This
//! module provides the software half end-to-end: it injects real
//! transient faults — sampled by a [`FaultModelKind`] (bit flips,
//! multi-bit bursts, address corruption, wrong-edge control flow, power
//! failure) — into the interpreted program,
//! models detection latency, lets the Encore runtime roll back, and
//! classifies each run against the golden (fault-free) execution.
//!
//! # Parallel, reproducible campaigns
//!
//! Each injection's [`FaultPlan`] is a pure function of the campaign
//! seed and the injection index ([`SfiConfig::plan_for`], which hands a
//! [`SplitMix64::for_index`] stream to the configured model's
//! [`FaultModelKind::sample`]), never of a shared generator's mutable
//! state. [`SfiCampaign::run`] therefore shards the index space across
//! `std::thread::scope` workers and still produces **bit-identical**
//! [`SfiStats`] for any worker count — and any single injection can be
//! replayed in isolation from its `(seed, index)` pair alone:
//!
//! ```text
//! let plan = campaign.plan_for_index(&config, index);
//! let outcome = campaign.run_one(plan);
//! ```
//!
//! # A memo of earlier injections
//!
//! Different faults often leave a run in the same state. Each shard
//! therefore remembers, for a bounded number of its runs, the state key
//! at the run's first splice probe and the result. A later run of the
//! shard that reaches a remembered key at its own first probe replays
//! the remembered injection to that probe, compares the two states
//! exactly, and takes the result instead of executing its suffix
//! (DESIGN.md §14). Reports are unchanged field for field; only wall
//! time and the telemetry-only [`ProbeCost`] move.

use crate::fault::{FaultModelKind, FaultPlan};
use crate::interp::{run_function_with_snapshots, Machine, RunConfig, RunResult, Trap, TrapKind};
use crate::memory::ProbeCost;
use crate::predecode::DecodedModule;
use crate::rng::SplitMix64;
use crate::snapshot::SnapshotLog;
use crate::splice::{Advance, ProbeAt, SpliceRule, SpliceRun};
use crate::value::Value;
use encore_core::RegionMap;
use encore_ir::{FuncId, Module};
use std::collections::HashMap;

/// Classification of one fault-injection run.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FaultOutcome {
    /// The run completed with golden-equal observable state and no
    /// rollback: the flipped value was architecturally dead or
    /// overwritten (software-level masking).
    Benign,
    /// A rollback happened and the final state matches the golden run:
    /// Encore recovered the fault.
    Recovered,
    /// The run completed but observable state differs from golden:
    /// silent data corruption (the fault escaped detection, or rollback
    /// targeted the wrong region).
    SilentCorruption,
    /// The fault was detected but no recovery region was armed.
    DetectedUnrecoverable,
    /// The run died on a trap after recovery had already been consumed
    /// (or with no fault live).
    Crashed,
    /// The run exceeded its fuel budget (fault-induced livelock).
    Hung,
}

impl FaultOutcome {
    /// Every outcome, in reporting order.
    pub const ALL: [FaultOutcome; 6] = [
        FaultOutcome::Benign,
        FaultOutcome::Recovered,
        FaultOutcome::SilentCorruption,
        FaultOutcome::DetectedUnrecoverable,
        FaultOutcome::Crashed,
        FaultOutcome::Hung,
    ];

    /// Dense index of this outcome in [`FaultOutcome::ALL`].
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            FaultOutcome::Benign => 0,
            FaultOutcome::Recovered => 1,
            FaultOutcome::SilentCorruption => 2,
            FaultOutcome::DetectedUnrecoverable => 3,
            FaultOutcome::Crashed => 4,
            FaultOutcome::Hung => 5,
        }
    }

    /// Stable snake_case label (used as JSON keys in campaign reports).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultOutcome::Benign => "benign",
            FaultOutcome::Recovered => "recovered",
            FaultOutcome::SilentCorruption => "silent_corruption",
            FaultOutcome::DetectedUnrecoverable => "detected_unrecoverable",
            FaultOutcome::Crashed => "crashed",
            FaultOutcome::Hung => "hung",
        }
    }
}

/// Fuel multiplier over the golden run's dynamic instruction count
/// (faulted runs may loop longer before detection).
const FUEL_FACTOR: u64 = 4;

/// SFI campaign parameters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SfiConfig {
    /// Number of fault injections.
    pub injections: usize,
    /// Maximum detection latency (`Dmax`); latency is sampled uniformly
    /// from `[0, Dmax]`.
    pub dmax: u64,
    /// RNG seed. Campaigns are reproducible: the same seed yields
    /// bit-identical [`SfiStats`] for **any** worker count, and
    /// injection `i` can be replayed alone from `(seed, i)`.
    pub seed: u64,
    /// Worker threads for [`SfiCampaign::run`]; `0` (the default) uses
    /// [`std::thread::available_parallelism`].
    pub workers: usize,
    /// Capture a golden-run checkpoint every `snapshot_stride` dynamic
    /// instructions during [`SfiCampaign::prepare`]; each injection then
    /// resumes from the nearest checkpoint at-or-before its injection
    /// point instead of re-executing the fault-free prefix from scratch.
    /// `0` disables snapshots (every injection runs from scratch).
    /// Outcomes are bit-identical at every stride. The default (256) is
    /// tuned for the workload suite's golden runs (~10⁴–10⁵ dynamic
    /// instructions): dense enough that the replayed prefix is noise,
    /// sparse enough that capture stays a small fraction of the golden
    /// run.
    pub snapshot_stride: u64,
    /// Enable the divergence splice: classify rolled-back runs early
    /// via the [`SpliceRule`] early-exit rules instead of executing
    /// their full suffix. On by default; outcomes and latency
    /// histograms are bit-identical either way (the rules only certify
    /// outcomes full execution would reach), so `false` exists as an
    /// escape hatch and differential-testing reference.
    pub splice: bool,
    /// The fault model plans are sampled from. Defaults to the classic
    /// single-bit flip ([`FaultModelKind::BitFlip`]), which reproduces
    /// pre-taxonomy campaigns bit-for-bit.
    pub model: FaultModelKind,
}

impl Default for SfiConfig {
    fn default() -> Self {
        Self {
            injections: 200,
            dmax: 100,
            seed: 0xE7_C04E,
            workers: 0,
            snapshot_stride: 256,
            splice: true,
            model: FaultModelKind::BitFlip,
        }
    }
}

impl SfiConfig {
    /// The worker count [`SfiCampaign::run`] will actually use.
    #[must_use]
    pub fn effective_workers(&self) -> usize {
        let n = if self.workers == 0 {
            std::thread::available_parallelism().map(usize::from).unwrap_or(1)
        } else {
            self.workers
        };
        // More workers than injections just spawns idle threads.
        n.clamp(1, self.injections.max(1))
    }

    /// The fault plan of injection `index`, given the golden run's
    /// eligible-instruction count: a fresh [`SplitMix64::for_index`]
    /// stream handed to the configured model's [`FaultModelKind::sample`].
    ///
    /// A pure function of `(self.seed, self.model, index)` — thread-
    /// and order-independent by construction.
    ///
    /// # Panics
    ///
    /// Panics when `eligible_insts` is zero: an empty golden run has no
    /// injection sites to sample. [`SfiCampaign::prepare`] rejects such
    /// workloads with [`GoldenRunError::NoEligibleInstructions`] before
    /// any plan is drawn, so campaign paths never hit this.
    #[must_use]
    pub fn plan_for(&self, index: u64, eligible_insts: u64) -> FaultPlan {
        self.model.sample(&mut SplitMix64::for_index(self.seed, index), eligible_insts, self.dmax)
    }
}

/// Aggregate campaign results.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SfiStats {
    /// Total injections performed.
    pub injections: usize,
    /// Benign (software-masked) outcomes.
    pub benign: usize,
    /// Successful Encore recoveries.
    pub recovered: usize,
    /// Silent data corruptions.
    pub silent_corruption: usize,
    /// Detected-but-unrecoverable outcomes.
    pub detected_unrecoverable: usize,
    /// Crashes.
    pub crashed: usize,
    /// Hangs.
    pub hung: usize,
}

impl SfiStats {
    fn record(&mut self, outcome: FaultOutcome) {
        self.injections += 1;
        match outcome {
            FaultOutcome::Benign => self.benign += 1,
            FaultOutcome::Recovered => self.recovered += 1,
            FaultOutcome::SilentCorruption => self.silent_corruption += 1,
            FaultOutcome::DetectedUnrecoverable => self.detected_unrecoverable += 1,
            FaultOutcome::Crashed => self.crashed += 1,
            FaultOutcome::Hung => self.hung += 1,
        }
    }

    /// The count recorded for `outcome`.
    #[must_use]
    pub fn count(&self, outcome: FaultOutcome) -> usize {
        match outcome {
            FaultOutcome::Benign => self.benign,
            FaultOutcome::Recovered => self.recovered,
            FaultOutcome::SilentCorruption => self.silent_corruption,
            FaultOutcome::DetectedUnrecoverable => self.detected_unrecoverable,
            FaultOutcome::Crashed => self.crashed,
            FaultOutcome::Hung => self.hung,
        }
    }

    /// Adds another shard's counts into this one.
    pub fn merge(&mut self, other: &SfiStats) {
        self.injections += other.injections;
        self.benign += other.benign;
        self.recovered += other.recovered;
        self.silent_corruption += other.silent_corruption;
        self.detected_unrecoverable += other.detected_unrecoverable;
        self.crashed += other.crashed;
        self.hung += other.hung;
    }

    /// Fraction of injections that ended with correct architectural
    /// state (benign or recovered).
    pub fn safe_fraction(&self) -> f64 {
        if self.injections == 0 {
            return 0.0;
        }
        (self.benign + self.recovered) as f64 / self.injections as f64
    }
}

/// Number of bins in a [`LatencyHistogram`].
pub const LATENCY_BINS: usize = 16;

/// Histogram of sampled detection latencies over `[0, Dmax]`, in
/// [`LATENCY_BINS`] equal-width bins.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LatencyHistogram {
    /// Upper latency bound the bins span (the campaign's `Dmax`).
    pub dmax: u64,
    /// Injection counts per bin.
    pub bins: [u64; LATENCY_BINS],
}

impl LatencyHistogram {
    /// An empty histogram over `[0, dmax]`.
    #[must_use]
    pub fn new(dmax: u64) -> Self {
        Self { dmax, bins: [0; LATENCY_BINS] }
    }

    /// The bin index a latency falls into.
    #[must_use]
    pub fn bin_of(&self, latency: u64) -> usize {
        if self.dmax == 0 {
            return 0;
        }
        // Spread [0, dmax] over the bins; clamp covers latency == dmax.
        ((latency as u128 * LATENCY_BINS as u128 / (self.dmax as u128 + 1)) as usize)
            .min(LATENCY_BINS - 1)
    }

    /// Records one sampled latency.
    pub fn record(&mut self, latency: u64) {
        self.bins[self.bin_of(latency)] += 1;
    }

    /// Inclusive-exclusive latency range `[lo, hi)` covered by `bin`
    /// (the last bin's `hi` is `dmax + 1`).
    #[must_use]
    pub fn bin_range(&self, bin: usize) -> (u64, u64) {
        let width = self.dmax as u128 + 1;
        let lo = (bin as u128 * width / LATENCY_BINS as u128) as u64;
        let hi = ((bin as u128 + 1) * width / LATENCY_BINS as u128) as u64;
        (lo, hi.max(lo + 1))
    }

    /// Total count across all bins.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.bins.iter().sum()
    }

    /// Adds another shard's bins into this one.
    ///
    /// # Panics
    ///
    /// Panics (in release builds too) when the histograms span
    /// different `dmax` ranges — their bins cover different latency
    /// intervals, so summing them would silently produce a histogram
    /// that is correct for neither. Campaign shards all inherit the
    /// campaign's `dmax` (the single call site,
    /// [`CampaignReport::merge`], guarantees this); merging reports
    /// from differently-configured campaigns is a caller bug this
    /// assert turns into a loud failure instead of corrupt data.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        assert_eq!(self.dmax, other.dmax, "merging histograms over different Dmax");
        for (a, b) in self.bins.iter_mut().zip(other.bins.iter()) {
            *a += b;
        }
    }
}

/// How one spliced run was certified: the rule that fired and the
/// golden-suffix work it avoided.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpliceEngagement {
    /// The early-exit rule that certified the outcome.
    pub rule: SpliceRule,
    /// Golden-suffix dynamic instructions the run did not execute.
    pub dyn_insts_saved: u64,
}

/// Most entries one shard's memo holds: a hash table of 1,024 buckets
/// at its 7/8 load limit, allocated whole at the first insert.
const MEMO_CAP: usize = 896;

/// An injection's result, stored under its state key at its first
/// splice probe. See [`SfiCampaign::recall`] for when it answers for a
/// later run.
#[derive(Clone, Copy)]
struct MemoEntry {
    /// The injection, replayable as `config.plan_for(index, space)`.
    index: u64,
    /// Its dynamic instruction count at its first probe.
    probe_dyn: u64,
    /// Dynamic instructions it executed past its first probe.
    executed: u64,
    /// Its classification, and the rule that certified it if a later
    /// probe spliced, with the golden-suffix work that saved.
    outcome: FaultOutcome,
    rule: Option<SpliceRule>,
    dyn_insts_saved: u64,
}

// Key and entry together stay within 48 bytes per bucket.
const _: () = assert!(std::mem::size_of::<(u64, MemoEntry)>() <= 48);

/// One shard's memo of injection results, keyed by
/// [`Machine::probe_key`] at each run's first splice probe.
struct Memo {
    config: SfiConfig,
    space: u64,
    table: HashMap<u64, MemoEntry>,
}

impl Memo {
    fn new(config: SfiConfig, space: u64) -> Self {
        Self { config, space, table: HashMap::new() }
    }

    /// Stores `entry` under `key`, first come first kept, when it ran
    /// more than one snapshot `stride` past its first probe (a shorter
    /// suffix costs about what replaying its prefix would) and the
    /// table has room.
    fn insert(&mut self, key: u64, entry: MemoEntry, stride: u64) {
        if entry.executed <= stride {
            return;
        }
        if self.table.capacity() == 0 {
            self.table.reserve(MEMO_CAP);
        }
        if self.table.len() < MEMO_CAP {
            self.table.entry(key).or_insert(entry);
        }
    }
}

/// Per-rule splice engagement counts over a campaign — the observable
/// breakdown of where the divergence splice's speedup comes from.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SpliceStats {
    /// Rule (a) hits: the diff emptied (bit-exact reconvergence).
    pub converged: usize,
    /// Rule (b) hits: dead residual diff, outcome `Recovered`.
    pub dead_diff: usize,
    /// Rule (c) hits: dead residual diff with diverged observables,
    /// outcome `SilentCorruption`.
    pub sdc: usize,
    /// Total golden-suffix dynamic instructions not executed across all
    /// spliced runs.
    pub dyn_insts_saved: u64,
    /// Aggregate probe work: how much state-compare effort the splice
    /// spent earning the savings above, and the runs the campaign memo
    /// answered. Diagnostic only — its `PartialEq` always holds, so
    /// reports that classify identically are equal whatever their
    /// compare footprints or worker counts.
    pub cost: ProbeCost,
}

impl SpliceStats {
    /// Records one engagement.
    pub fn record(&mut self, e: SpliceEngagement) {
        match e.rule {
            SpliceRule::Converged => self.converged += 1,
            SpliceRule::DeadDiff => self.dead_diff += 1,
            SpliceRule::Sdc => self.sdc += 1,
        }
        self.dyn_insts_saved += e.dyn_insts_saved;
    }

    /// The count recorded for `rule`.
    #[must_use]
    pub fn count(&self, rule: SpliceRule) -> usize {
        match rule {
            SpliceRule::Converged => self.converged,
            SpliceRule::DeadDiff => self.dead_diff,
            SpliceRule::Sdc => self.sdc,
        }
    }

    /// Runs spliced by any rule.
    #[must_use]
    pub fn total(&self) -> usize {
        self.converged + self.dead_diff + self.sdc
    }

    /// Adds another shard's counts into this one.
    pub fn merge(&mut self, other: &SpliceStats) {
        self.converged += other.converged;
        self.dead_diff += other.dead_diff;
        self.sdc += other.sdc;
        self.dyn_insts_saved += other.dyn_insts_saved;
        self.cost.merge(&other.cost);
    }
}

/// Full campaign result: aggregate stats plus, per outcome class, the
/// histogram of the detection latencies that produced it — the raw
/// material for cross-validating Eq. 6's latency model.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CampaignReport {
    /// The configuration the campaign ran with.
    pub config: SfiConfig,
    /// Aggregate outcome counts.
    pub stats: SfiStats,
    /// Detection-latency histogram per outcome, indexed by
    /// [`FaultOutcome::index`].
    pub latency: [LatencyHistogram; FaultOutcome::ALL.len()],
    /// Divergence-splice engagement breakdown. The only report field
    /// splicing is allowed to change: `stats` and `latency` are
    /// bit-identical with splicing on or off.
    pub splice: SpliceStats,
}

impl CampaignReport {
    /// An empty report for `config`.
    #[must_use]
    pub fn new(config: SfiConfig) -> Self {
        Self {
            config,
            stats: SfiStats::default(),
            latency: [LatencyHistogram::new(config.dmax); FaultOutcome::ALL.len()],
            splice: SpliceStats::default(),
        }
    }

    /// Records one classified injection.
    pub fn record(&mut self, plan: FaultPlan, outcome: FaultOutcome) {
        self.stats.record(outcome);
        self.latency[outcome.index()].record(plan.detect_latency);
    }

    /// The latency histogram for one outcome class.
    #[must_use]
    pub fn latency_of(&self, outcome: FaultOutcome) -> &LatencyHistogram {
        &self.latency[outcome.index()]
    }

    /// The fault model this report's plans were sampled from — the row
    /// key when reports from [`SfiCampaign::run_models`] are laid out
    /// as a per-model outcome table.
    #[must_use]
    pub fn model(&self) -> FaultModelKind {
        self.config.model
    }

    /// Adds another shard's counts into this one.
    pub fn merge(&mut self, other: &CampaignReport) {
        self.stats.merge(&other.stats);
        for (a, b) in self.latency.iter_mut().zip(other.latency.iter()) {
            a.merge(b);
        }
        self.splice.merge(&other.splice);
    }
}

/// The golden (fault-free) run cannot serve as a reference execution
/// to inject faults against.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum GoldenRunError {
    /// The golden run trapped — the workload must be fault-free before
    /// injecting faults into it.
    Trapped(Trap),
    /// The golden run completed without executing a single
    /// fault-eligible instruction, so there is no injection site to
    /// sample. (Previously this was silently coerced to a one-site
    /// space, injecting every plan at a nonexistent ordinal 0.)
    NoEligibleInstructions,
}

impl std::fmt::Display for GoldenRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GoldenRunError::Trapped(trap) => {
                write!(f, "golden run trapped before any fault was injected: {trap}")
            }
            GoldenRunError::NoEligibleInstructions => {
                write!(f, "golden run executed no fault-eligible instructions")
            }
        }
    }
}

impl std::error::Error for GoldenRunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GoldenRunError::Trapped(trap) => Some(trap),
            GoldenRunError::NoEligibleInstructions => None,
        }
    }
}

/// A reusable fault-injection campaign over one entry point.
///
/// [`SfiCampaign::prepare`] pre-decodes the module, runs the golden
/// execution once and captures periodic [`Snapshot`](crate::Snapshot)s
/// of it; every injection then resumes mid-trace instead of replaying
/// the fault-free prefix, making a campaign of `N` injections over a
/// trace of length `T` cost `O(N·(stride + suffix))` instead of
/// `O(N·T)`.
#[derive(Debug)]
pub struct SfiCampaign<'a> {
    module: &'a Module,
    map: Option<&'a RegionMap>,
    entry: FuncId,
    args: Vec<Value>,
    code: DecodedModule<'a>,
    golden: RunResult,
    snapshots: SnapshotLog,
    fuel: u64,
}

impl<'a> SfiCampaign<'a> {
    /// Prepares a campaign: pre-decodes the module, runs the golden
    /// execution and captures checkpoints every
    /// [`SfiConfig::snapshot_stride`] dynamic instructions.
    ///
    /// # Errors
    ///
    /// Returns [`GoldenRunError::Trapped`] if the golden run itself
    /// traps — the workload must be fault-free before injecting faults
    /// into it — and [`GoldenRunError::NoEligibleInstructions`] if it
    /// completes without a single injection site (the sample space
    /// [`FaultModelKind::sample`] draws from would be empty).
    pub fn prepare(
        module: &'a Module,
        map: Option<&'a RegionMap>,
        entry: FuncId,
        args: &[Value],
        config: &SfiConfig,
    ) -> Result<Self, GoldenRunError> {
        let code = DecodedModule::new(module, map);
        let (golden, snapshots) = run_function_with_snapshots(
            module,
            map,
            &code,
            entry,
            args,
            &RunConfig::default(),
            config.snapshot_stride,
        );
        if let Some(trap) = golden.trap.clone() {
            return Err(GoldenRunError::Trapped(trap));
        }
        if golden.eligible_insts == 0 {
            return Err(GoldenRunError::NoEligibleInstructions);
        }
        let fuel = golden.dyn_insts.saturating_mul(FUEL_FACTOR).max(100_000);
        Ok(Self { module, map, entry, args: args.to_vec(), code, golden, snapshots, fuel })
    }

    /// The golden run.
    pub fn golden(&self) -> &RunResult {
        &self.golden
    }

    /// The checkpoint log captured during the golden run.
    pub fn snapshots(&self) -> &SnapshotLog {
        &self.snapshots
    }

    /// The plan injection `index` of a campaign under `config` would
    /// run — use with [`SfiCampaign::run_one`] to replay a single
    /// injection from its `(seed, index)` pair.
    #[must_use]
    pub fn plan_for_index(&self, config: &SfiConfig, index: u64) -> FaultPlan {
        config.plan_for(index, self.golden.eligible_insts)
    }

    /// Runs one injection described by `plan` and classifies it,
    /// resuming from the nearest golden checkpoint at-or-before the
    /// injection point. A fault-free prefix is bit-identical to the
    /// golden run, so restoring a snapshot with
    /// `eligible_seen <= plan.inject_at` reproduces exactly the state a
    /// from-scratch run would reach there; every counter a snapshot
    /// carries is absolute, so fuel and detection-latency arithmetic
    /// carry over unchanged.
    pub fn run_one(&self, plan: FaultPlan) -> FaultOutcome {
        self.run_one_detailed(plan, true).0
    }

    /// [`SfiCampaign::run_one`] plus the splice engagement, when a
    /// [`SpliceRule`] certified the outcome instead of the run
    /// executing its full suffix. Pass `splice: false` to force full
    /// execution (the differential reference — the outcome must be
    /// identical either way).
    ///
    /// Unlike a campaign's runs, this one never consults a memo of
    /// earlier injections: it executes everything it reports.
    pub fn run_one_detailed(
        &self,
        plan: FaultPlan,
        splice: bool,
    ) -> (FaultOutcome, Option<SpliceEngagement>) {
        let (outcome, engagement, _) = self.run_one_impl(plan, splice, None);
        (outcome, engagement)
    }

    /// [`SfiCampaign::run_one_detailed`] plus the probe-cost counters.
    /// With `memo` (the shard's memo and this injection's index), a run
    /// the splice does not certify at its first probe asks the memo for
    /// an earlier injection's result there, and feeds its own result
    /// back when it has to execute on.
    fn run_one_impl(
        &self,
        plan: FaultPlan,
        splice: bool,
        memo: Option<(&mut Memo, u64)>,
    ) -> (FaultOutcome, Option<SpliceEngagement>, ProbeCost) {
        let mut m = self.resume(plan);
        if !splice || self.snapshots.is_empty() {
            let trap = m.run_to_end();
            return (self.classify_machine(&m, trap), None, m.probe_cost());
        }
        // With golden snapshots on hand, a rolled-back run whose diff
        // against the aligned golden timeline becomes provably inert
        // can stop early: rule (a)/(b) hits are the `Recovered` arm of
        // `classify_machine` (golden-equal final state after a
        // rollback) and rule (c) hits are its `SilentCorruption` arm —
        // each certified without simulating the suffix.
        let mut recall_cost = ProbeCost::default();
        let mut missed = None;
        let run = m.run_to_end_or_splice(&self.snapshots, self.golden.dyn_insts, |m, at| {
            let (memo, _) = memo.as_ref()?;
            let mut diff = Vec::new();
            let key = m.probe_key(&self.snapshots, at, &mut diff)?;
            let answer = self.recall(memo, key, m, at, &diff, &mut recall_cost);
            if answer.is_none() {
                missed = Some((key, m.dyn_insts()));
            }
            answer
        });
        let (outcome, engagement) = match run {
            SpliceRun::Done(trap) => (self.classify_machine(&m, trap), None),
            SpliceRun::Spliced(rule, dyn_insts_saved) => {
                let outcome = match rule {
                    SpliceRule::Converged | SpliceRule::DeadDiff => FaultOutcome::Recovered,
                    SpliceRule::Sdc => FaultOutcome::SilentCorruption,
                };
                (outcome, Some(SpliceEngagement { rule, dyn_insts_saved }))
            }
            SpliceRun::Answered(answer) => answer,
        };
        if let (Some((memo, index)), Some((key, probe_dyn))) = (memo, missed) {
            let entry = MemoEntry {
                index,
                probe_dyn,
                executed: m.dyn_insts() - probe_dyn,
                outcome,
                rule: engagement.map(|e| e.rule),
                dyn_insts_saved: engagement.map_or(0, |e| e.dyn_insts_saved),
            };
            memo.insert(key, entry, self.snapshots.stride());
        }
        let mut cost = m.probe_cost();
        cost.merge(&recall_cost);
        (outcome, engagement, cost)
    }

    /// The result the memo holds for run `m`, paused exactly on its
    /// first probe position `at` with golden diff `diff` and key `key`,
    /// when it carries over exactly (DESIGN.md §14). The key only
    /// indexes: the stored injection is replayed to its own first probe
    /// and must stand on the same snapshot with the same headroom bit,
    /// in a state equal to `m`'s under `==`. The rollback consumed both
    /// faults, so from there each run is a deterministic function of
    /// that state, except that fuel may end one sooner:
    ///
    /// * a source that spliced did so at a later probe, which the
    ///   shared headroom bit lets this run reach as well;
    /// * a hung source applies when this run has no more fuel left than
    ///   the source had at its probe;
    /// * any other source applies when this run's fuel covers all the
    ///   source executed past its probe.
    fn recall(
        &self,
        memo: &Memo,
        key: u64,
        m: &Machine<'_, '_>,
        at: ProbeAt,
        diff: &[(u32, u32)],
        cost: &mut ProbeCost,
    ) -> Option<(FaultOutcome, Option<SpliceEngagement>)> {
        let e = memo.table.get(&key)?;
        let now = m.dyn_insts();
        let fuel_carries = match (e.rule, e.outcome) {
            (Some(_), _) => true,
            (None, FaultOutcome::Hung) => now >= e.probe_dyn,
            (None, _) => now + e.executed < self.fuel,
        };
        if !fuel_carries {
            return None;
        }
        let mut src = self.resume(memo.config.plan_for(e.index, memo.space));
        let same = match src.advance_to_first_probe(&self.snapshots, self.golden.dyn_insts) {
            Advance::Probe(src_at, snap)
                if src_at.idx == at.idx
                    && src_at.headroom == at.headroom
                    && src.dyn_insts() == e.probe_dyn =>
            {
                let mut src_diff = Vec::new();
                src.golden_diff(&self.snapshots, src_at.idx, snap, &mut src_diff)
                    && m.same_probe_state(diff, &src, &src_diff)
            }
            _ => false,
        };
        cost.merge(&src.probe_cost());
        if !same {
            return None;
        }
        cost.memo_hits += 1;
        cost.memo_insts_skipped += e.executed.min(self.fuel.saturating_sub(now));
        let engagement =
            e.rule.map(|rule| SpliceEngagement { rule, dyn_insts_saved: e.dyn_insts_saved });
        Some((e.outcome, engagement))
    }

    /// A machine for `plan`, restored from the nearest golden
    /// checkpoint at-or-before its injection point.
    fn resume(&self, plan: FaultPlan) -> Machine<'a, '_> {
        let config = self.injection_config(plan);
        match self.snapshots.nearest_at_or_before(plan.inject_at) {
            Some(snap) => {
                Machine::from_snapshot(self.module, &self.code, self.map, snap, &config)
            }
            None => self.fresh_machine(&config),
        }
    }

    fn injection_config(&self, plan: FaultPlan) -> RunConfig {
        RunConfig { fuel: self.fuel, fault: Some(plan), ..Default::default() }
    }

    fn fresh_machine(&self, config: &RunConfig) -> Machine<'a, '_> {
        let mut m = Machine::new(self.module, &self.code, self.map, config);
        m.enter(self.entry, &self.args).expect("the golden run made the same entry call");
        m
    }

    /// Classifies a finished machine against the golden run without
    /// materializing a [`RunResult`]: return value, output channel and
    /// global memory are compared by borrow, so the per-injection
    /// classification path allocates nothing.
    fn classify_machine(&self, m: &Machine<'_, '_>, trap: Option<Trap>) -> FaultOutcome {
        if let Some(trap) = trap {
            return match trap.kind {
                TrapKind::DetectedUnrecoverable => FaultOutcome::DetectedUnrecoverable,
                TrapKind::FuelExhausted => FaultOutcome::Hung,
                _ => FaultOutcome::Crashed,
            };
        }
        let matches = m.final_ret() == self.golden.ret
            && m.output() == &self.golden.output[..]
            && m.mem().globals_equal(&self.golden.globals);
        match (matches, m.telemetry().rolled_back) {
            (true, true) => FaultOutcome::Recovered,
            (true, false) => FaultOutcome::Benign,
            (false, _) => FaultOutcome::SilentCorruption,
        }
    }

    /// Runs the injections in `[lo, hi)` sequentially into a report.
    /// The shard keeps one memo of its injections' results, so a run
    /// that reaches a state an earlier one already simulated past is
    /// answered instead of executed; its report is field for field what
    /// executing it would give.
    fn run_shard(&self, config: &SfiConfig, space: u64, lo: u64, hi: u64) -> CampaignReport {
        let mut report = CampaignReport::new(*config);
        let mut memo = Memo::new(*config, space);
        for index in lo..hi {
            let plan = config.plan_for(index, space);
            let (outcome, engagement, cost) =
                self.run_one_impl(plan, config.splice, Some((&mut memo, index)));
            report.record(plan, outcome);
            report.splice.cost.merge(&cost);
            if let Some(e) = engagement {
                report.splice.record(e);
            }
        }
        report
    }

    /// Runs a full campaign: `config.injections` faults sampled by
    /// `config.model` over the golden run's eligible instructions, with
    /// uniform latency in `[0, Dmax]`, sharded across
    /// [`SfiConfig::effective_workers`] threads. Results are
    /// bit-identical for any worker count.
    pub fn run(&self, config: &SfiConfig) -> SfiStats {
        self.run_report(config).stats
    }

    /// Runs one campaign per fault model in `models` (overriding
    /// `config.model`) and returns the per-model reports in order — the
    /// outcome rows backing per-model coverage tables. Each row is an
    /// independent campaign with the same seed, so rows are
    /// individually reproducible and worker-count invariant.
    pub fn run_models(
        &self,
        config: &SfiConfig,
        models: &[FaultModelKind],
    ) -> Vec<CampaignReport> {
        models
            .iter()
            .map(|&model| self.run_report(&SfiConfig { model, ..*config }))
            .collect()
    }

    /// Like [`SfiCampaign::run`], but returns the full report with
    /// per-outcome detection-latency histograms.
    pub fn run_report(&self, config: &SfiConfig) -> CampaignReport {
        // `prepare` rejected empty sample spaces, so the count is a
        // valid `gen_below` bound.
        let space = self.golden.eligible_insts;
        let n = config.injections as u64;
        let workers = config.effective_workers() as u64;
        if workers <= 1 {
            return self.run_shard(config, space, 0, n);
        }
        // Contiguous index ranges per worker; plans depend only on the
        // index, so the partition is a pure load-balancing choice.
        let per = n.div_ceil(workers);
        let partials: Vec<CampaignReport> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let (lo, hi) = (w * per, ((w + 1) * per).min(n));
                    scope.spawn(move || self.run_shard(config, space, lo, hi))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("SFI worker panicked"))
                .collect()
        });
        let mut report = CampaignReport::new(*config);
        for part in &partials {
            report.merge(part);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::run_function;
    use crate::rng::Rng;
    use encore_analysis::Profile;
    use encore_core::{Encore, EncoreConfig, RegionInfo};
    use encore_ir::{AddrExpr, BinOp, BlockId, Inst, MemBase, ModuleBuilder, Operand, RegionId};

    /// A small kernel with a WAR-carrying accumulation loop and a
    /// streaming loop; protected by Encore.
    fn protected_kernel() -> (Module, RegionMap, FuncId) {
        let mut mb = ModuleBuilder::new("m");
        let src = mb.global_init("src", 32, (0..32).map(|i| i * 3 % 17).collect());
        let dst = mb.global("dst", 32);
        let acc = mb.global("acc", 1);
        let fid = mb.function("kernel", 1, |f| {
            let n = f.param(0);
            f.for_range(Operand::ImmI(0), n.into(), |f, i| {
                let v = f.load(AddrExpr::indexed(MemBase::Global(src), i, 1, 0));
                let v2 = f.bin(BinOp::Mul, v.into(), Operand::ImmI(2));
                f.store(AddrExpr::indexed(MemBase::Global(dst), i, 1, 0), v2.into());
                let a = f.load(AddrExpr::global(acc, 0));
                let a2 = f.bin(BinOp::Add, a.into(), v2.into());
                f.store(AddrExpr::global(acc, 0), a2.into());
            });
            f.ret(None);
        });
        let m = mb.finish();

        // Profile, then instrument with a generous budget.
        let golden = run_function(
            &m,
            None,
            fid,
            &[Value::Int(32)],
            &RunConfig { collect_profile: true, ..Default::default() },
        );
        let profile: Profile = golden.profile.expect("profile");
        let outcome = Encore::new(
            EncoreConfig::default().with_overhead_budget(1.0).with_eta(0.0),
        )
        .run(&m, &profile);
        let map = outcome.instrumented.map.clone();
        let module = outcome.instrumented.module.clone();
        (module, map, fid)
    }

    /// The protected kernel's campaign without snapshots: every
    /// injection runs from dynamic instruction 0, the reference the
    /// snapshot-resume path must match.
    fn scratch_campaign<'a>(m: &'a Module, map: &'a RegionMap, fid: FuncId) -> SfiCampaign<'a> {
        let config = SfiConfig { snapshot_stride: 0, ..Default::default() };
        SfiCampaign::prepare(m, Some(map), fid, &[Value::Int(32)], &config)
            .expect("golden run completes")
    }

    #[test]
    fn golden_run_is_reference() {
        let (m, map, fid) = protected_kernel();
        let campaign =
            SfiCampaign::prepare(&m, Some(&map), fid, &[Value::Int(32)], &SfiConfig::default())
                .expect("golden run completes");
        assert!(campaign.golden().completed);
        assert!(campaign.golden().eligible_insts > 0);
        assert!(
            !campaign.snapshots().is_empty()
                || campaign.golden().dyn_insts < SfiConfig::default().snapshot_stride
        );
    }

    #[test]
    fn campaign_recovers_most_faults_at_short_latency() {
        // The kernel's regions re-arm per loop iteration (~20 dynamic
        // instructions), so recovery rates track Eq. 7's α: near-certain
        // at latency ≈ 0, ~50% when the latency matches the region
        // length.
        let (m, map, fid) = protected_kernel();
        let short = SfiConfig { injections: 120, dmax: 2, ..Default::default() };
        let campaign = SfiCampaign::prepare(&m, Some(&map), fid, &[Value::Int(32)], &short)
            .expect("golden run completes");
        let stats = campaign.run(&short);
        assert_eq!(stats.injections, 120);
        assert!(stats.recovered > 0, "no recoveries at all: {stats:?}");
        assert!(
            stats.safe_fraction() > 0.8,
            "safe fraction too low at Dmax=2: {stats:?}"
        );

        let medium = SfiConfig { injections: 120, dmax: 20, ..Default::default() };
        let med_stats = campaign.run(&medium);
        assert!(
            med_stats.safe_fraction() > 0.3,
            "safe fraction too low at Dmax=20: {med_stats:?}"
        );
        // Shorter detection latency must not hurt coverage.
        assert!(stats.safe_fraction() >= med_stats.safe_fraction());
    }

    #[test]
    fn unprotected_module_cannot_rollback() {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global("g", 8);
        let fid = mb.function("f", 1, |f| {
            let n = f.param(0);
            f.for_range(Operand::ImmI(0), n.into(), |f, i| {
                f.store(AddrExpr::indexed(MemBase::Global(g), i, 1, 0), i.into());
            });
            f.ret(None);
        });
        let m = mb.finish();
        let config = SfiConfig { injections: 60, dmax: 10, ..Default::default() };
        let campaign = SfiCampaign::prepare(&m, None, fid, &[Value::Int(8)], &config)
            .expect("golden run completes");
        let stats = campaign.run(&config);
        assert_eq!(stats.recovered, 0, "nothing to roll back to: {stats:?}");
        // Faults either vanish (benign), corrupt state, or get detected
        // without recovery.
        assert_eq!(
            stats.benign
                + stats.silent_corruption
                + stats.detected_unrecoverable
                + stats.crashed
                + stats.hung,
            60
        );
    }

    #[test]
    fn campaigns_are_reproducible() {
        let (m, map, fid) = protected_kernel();
        let config = SfiConfig { injections: 40, seed: 42, ..Default::default() };
        let campaign = SfiCampaign::prepare(&m, Some(&map), fid, &[Value::Int(32)], &config)
            .expect("golden run completes");
        let a = campaign.run(&config);
        let b = campaign.run(&config);
        assert_eq!(a, b);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let (m, map, fid) = protected_kernel();
        let base = SfiConfig { injections: 50, seed: 7, workers: 1, ..Default::default() };
        let campaign = SfiCampaign::prepare(&m, Some(&map), fid, &[Value::Int(32)], &base)
            .expect("golden run completes");
        let sequential = campaign.run_report(&base);
        for workers in [2, 3, 8, 64] {
            let parallel =
                campaign.run_report(&SfiConfig { workers, ..base });
            assert_eq!(sequential.stats, parallel.stats, "stats diverged at {workers} workers");
            assert_eq!(
                sequential.latency, parallel.latency,
                "histograms diverged at {workers} workers"
            );
        }
    }

    #[test]
    fn convergence_splice_engages_and_preserves_outcomes() {
        let (m, map, fid) = protected_kernel();
        // A short stride gives the splice dense golden boundaries to
        // probe; short latency makes most faults recover, the splice's
        // target population.
        let config = SfiConfig {
            injections: 80,
            dmax: 5,
            snapshot_stride: 32,
            ..Default::default()
        };
        let campaign = SfiCampaign::prepare(&m, Some(&map), fid, &[Value::Int(32)], &config)
            .expect("golden run completes");
        assert!(!campaign.snapshots().is_empty());
        let scratch = scratch_campaign(&m, &map, fid);
        let space = campaign.golden().eligible_insts.max(1);
        let mut spliced = 0;
        for index in 0..config.injections as u64 {
            let plan = config.plan_for(index, space);
            let (fast, engagement) = campaign.run_one_detailed(plan, true);
            assert_eq!(
                fast,
                scratch.run_one_detailed(plan, false).0,
                "splice path diverged from scratch on {plan:?}"
            );
            if let Some(e) = engagement {
                match e.rule {
                    SpliceRule::Converged | SpliceRule::DeadDiff => {
                        assert_eq!(fast, FaultOutcome::Recovered);
                    }
                    SpliceRule::Sdc => assert_eq!(fast, FaultOutcome::SilentCorruption),
                }
                assert!(e.dyn_insts_saved > 0, "a splice must skip suffix work");
                spliced += 1;
            }
        }
        assert!(spliced > 0, "divergence splice never engaged");
    }

    #[test]
    fn plans_are_index_addressable() {
        let config = SfiConfig { seed: 99, dmax: 50, ..Default::default() };
        // Same (seed, index, space) → same plan; different index →
        // (almost surely) different plan.
        let a = config.plan_for(17, 1000);
        let b = config.plan_for(17, 1000);
        assert_eq!(a, b);
        let c = config.plan_for(18, 1000);
        assert_ne!(a, c);
        assert!(a.inject_at < 1000 && a.detect_latency <= 50);
        assert!(
            matches!(a.action, crate::FaultAction::FlipBits { mask } if mask.count_ones() == 1),
            "default model must sample single-bit flips: {a:?}"
        );
    }

    #[test]
    fn bit_flip_model_reproduces_the_legacy_stream() {
        // The default model must draw in the exact order the
        // pre-taxonomy `plan_for` did, so historical campaign results
        // stay bit-identical.
        let config = SfiConfig { seed: 0xBEEF, dmax: 77, ..Default::default() };
        for index in [0u64, 1, 17, 1_000_003] {
            let plan = config.plan_for(index, 4096);
            let mut rng = SplitMix64::for_index(config.seed, index);
            let inject_at = rng.gen_below(4096);
            let bit = rng.gen_below(64);
            let detect_latency = rng.gen_range_inclusive(0, config.dmax);
            assert_eq!(plan, FaultPlan::bit_flip(inject_at, bit as u8, detect_latency));
        }
    }

    #[test]
    fn report_histograms_account_for_every_injection() {
        let (m, map, fid) = protected_kernel();
        let config = SfiConfig { injections: 30, dmax: 9, ..Default::default() };
        let campaign = SfiCampaign::prepare(&m, Some(&map), fid, &[Value::Int(32)], &config)
            .expect("golden run completes");
        let report = campaign.run_report(&config);
        assert_eq!(report.stats.injections, 30);
        let hist_total: u64 =
            FaultOutcome::ALL.iter().map(|o| report.latency_of(*o).total()).sum();
        assert_eq!(hist_total, 30);
        for outcome in FaultOutcome::ALL {
            assert_eq!(
                report.latency_of(outcome).total() as usize,
                report.stats.count(outcome),
                "{outcome:?} histogram disagrees with stats"
            );
        }
    }

    #[test]
    fn latency_histogram_bins_partition_the_range() {
        let hist = LatencyHistogram::new(100);
        let mut h = hist;
        for l in 0..=100 {
            h.record(l);
        }
        assert_eq!(h.total(), 101);
        // Bin ranges tile [0, dmax] without gaps or overlap.
        let mut expect_lo = 0;
        for bin in 0..LATENCY_BINS {
            let (lo, hi) = h.bin_range(bin);
            assert_eq!(lo, expect_lo);
            expect_lo = hi;
        }
        assert_eq!(expect_lo, 101);
    }

    #[test]
    fn deterministic_single_injection() {
        let (m, map, fid) = protected_kernel();
        let campaign =
            SfiCampaign::prepare(&m, Some(&map), fid, &[Value::Int(32)], &SfiConfig::default())
                .expect("golden run completes");
        let plan = FaultPlan::bit_flip(10, 5, 3);
        let a = campaign.run_one(plan);
        let b = campaign.run_one(plan);
        assert_eq!(a, b);
        assert_eq!(a, scratch_campaign(&m, &map, fid).run_one_detailed(plan, false).0);
    }

    #[test]
    fn replay_matches_campaign_member() {
        // An injection replayed from its (seed, index) pair reproduces
        // the plan the full campaign used.
        let (m, map, fid) = protected_kernel();
        let config = SfiConfig { injections: 10, seed: 0xD00D, ..Default::default() };
        let campaign = SfiCampaign::prepare(&m, Some(&map), fid, &[Value::Int(32)], &config)
            .expect("golden run completes");
        for index in 0..10 {
            let plan = campaign.plan_for_index(&config, index);
            assert_eq!(plan, config.plan_for(index, campaign.golden().eligible_insts));
            let _ = campaign.run_one(plan);
        }
    }

    #[test]
    fn prepare_rejects_trapping_golden_run() {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global("g", 1);
        let fid = mb.function("f", 0, |f| {
            f.store(AddrExpr::global(g, 9), Operand::ImmI(1)); // out of bounds
            f.ret(None);
        });
        let m = mb.finish();
        let err = SfiCampaign::prepare(&m, None, fid, &[], &SfiConfig::default())
            .expect_err("trapping golden run must be reported");
        assert!(
            matches!(&err, GoldenRunError::Trapped(trap) if matches!(trap.kind, TrapKind::Memory(_)))
        );
        assert!(err.to_string().contains("golden run trapped"));
    }

    #[test]
    fn prepare_rejects_empty_sample_space() {
        // A function that only returns executes zero fault-eligible
        // instructions: there is no site to inject at, and `prepare`
        // must say so instead of silently pretending the space has one
        // slot (the old `eligible_insts.max(1)` behavior).
        let mut mb = ModuleBuilder::new("m");
        let fid = mb.function("f", 0, |f| {
            f.ret(None);
        });
        let m = mb.finish();
        let err = SfiCampaign::prepare(&m, None, fid, &[], &SfiConfig::default())
            .expect_err("empty sample space must be reported");
        assert_eq!(err, GoldenRunError::NoEligibleInstructions);
        assert!(err.to_string().contains("no fault-eligible instructions"));
    }

    #[test]
    fn snapshot_resume_matches_from_scratch_per_plan() {
        let (m, map, fid) = protected_kernel();
        let config = SfiConfig { injections: 60, snapshot_stride: 16, ..Default::default() };
        let campaign = SfiCampaign::prepare(&m, Some(&map), fid, &[Value::Int(32)], &config)
            .expect("golden run completes");
        assert!(!campaign.snapshots().is_empty(), "stride 16 must capture snapshots");
        let scratch = scratch_campaign(&m, &map, fid);
        for index in 0..config.injections as u64 {
            let plan = campaign.plan_for_index(&config, index);
            assert_eq!(
                campaign.run_one(plan),
                scratch.run_one_detailed(plan, false).0,
                "snapshot resume diverged from scratch for {plan:?}"
            );
        }
    }

    #[test]
    fn every_model_is_worker_and_splice_invariant() {
        // The acceptance matrix of the taxonomy refactor: for each
        // model, outcomes and latency histograms are bit-identical
        // across worker counts and with splicing on or off. The splice
        // half of the matrix is the test-encoded form of each model's
        // splice-soundness decision.
        let (m, map, fid) = protected_kernel();
        let base = SfiConfig {
            injections: 40,
            dmax: 12,
            snapshot_stride: 32,
            workers: 1,
            ..Default::default()
        };
        let campaign = SfiCampaign::prepare(&m, Some(&map), fid, &[Value::Int(32)], &base)
            .expect("golden run completes");
        for model in FaultModelKind::ALL {
            let config = SfiConfig { model, ..base };
            let reference = campaign.run_report(&config);
            assert_eq!(reference.stats.injections, 40, "{model}: injections lost");
            assert_eq!(reference.model(), model);
            let parallel = campaign.run_report(&SfiConfig { workers: 8, ..config });
            assert_eq!(reference.stats, parallel.stats, "{model}: stats diverged at 8 workers");
            assert_eq!(reference.latency, parallel.latency, "{model}: histograms diverged");
            let unspliced = campaign.run_report(&SfiConfig { splice: false, ..config });
            assert_eq!(reference.stats, unspliced.stats, "{model}: splice changed outcomes");
            assert_eq!(reference.latency, unspliced.latency, "{model}: splice changed latency");
        }
    }

    #[test]
    fn run_models_produces_one_row_per_model_in_order() {
        let (m, map, fid) = protected_kernel();
        let config = SfiConfig { injections: 15, dmax: 6, workers: 1, ..Default::default() };
        let campaign = SfiCampaign::prepare(&m, Some(&map), fid, &[Value::Int(32)], &config)
            .expect("golden run completes");
        let rows = campaign.run_models(&config, &FaultModelKind::ALL);
        assert_eq!(rows.len(), FaultModelKind::ALL.len());
        for (row, model) in rows.iter().zip(FaultModelKind::ALL) {
            assert_eq!(row.model(), model);
            assert_eq!(row.stats.injections, 15);
            // Each row is reproducible in isolation.
            assert_eq!(row, &campaign.run_report(&SfiConfig { model, ..config }));
        }
    }

    #[test]
    fn power_failure_faults_recover_via_rollback() {
        // A power failure detects instantly and restarts the armed
        // region's recovery block with zeroed registers; Encore's
        // checkpointed live-ins must carry the re-execution, so a
        // protected kernel recovers (and never silently corrupts).
        let (m, map, fid) = protected_kernel();
        let config = SfiConfig {
            injections: 60,
            model: FaultModelKind::PowerFailure,
            ..Default::default()
        };
        let campaign = SfiCampaign::prepare(&m, Some(&map), fid, &[Value::Int(32)], &config)
            .expect("golden run completes");
        let stats = campaign.run(&config);
        assert_eq!(stats.injections, 60);
        assert!(stats.recovered > 0, "power failures never recovered: {stats:?}");
        assert_eq!(
            stats.silent_corruption, 0,
            "a detected-on-injection fault cannot corrupt silently: {stats:?}"
        );
    }

    /// Four unprotected steps OR `src[0]` (zero) into `cnt[0]` through
    /// two reused registers, cleared afterwards, so a flip of bit `b` at
    /// any of their 16 eligible instructions leaves the same state
    /// behind: `cnt[0] = 1 << b`. An 8-iteration protected store loop
    /// follows, where detection rolls back, then a loop summing
    /// `0..cnt[0]` and `pad` `lea`s (one dynamic instruction each, none
    /// fault-eligible, so `pad` moves every run's length without
    /// moving any plan).
    fn fuel_edge_kernel(pad: usize) -> (Module, RegionMap, FuncId) {
        let mut mb = ModuleBuilder::new("fuel_edge");
        let src = mb.global("src", 1);
        let cnt = mb.global("cnt", 1);
        let dst = mb.global("dst", 8);
        let out = mb.global("out", 1);
        let (hdr, recovery) = (BlockId::new(1), BlockId::new(2));
        let fid = mb.function("f", 0, |f| {
            assert_eq!((f.add_block(), f.add_block()), (hdr, recovery));
            let tail = f.add_block();
            let (t, c) = (f.reg(), f.reg());
            for _ in 0..4 {
                f.load_to(t, AddrExpr::global(src, 0));
                f.load_to(c, AddrExpr::global(cnt, 0));
                f.bin_to(c, BinOp::Or, c.into(), t.into());
                f.store(AddrExpr::global(cnt, 0), c.into());
            }
            f.mov_to(t, Operand::ImmI(0));
            f.mov_to(c, Operand::ImmI(0));
            let i = f.mov(Operand::ImmI(0));
            f.jump(hdr);
            f.switch_to(hdr);
            f.emit(Inst::SetRecovery { region: RegionId::new(0) });
            f.emit(Inst::CheckpointReg { reg: i });
            f.store(AddrExpr::indexed(MemBase::Global(dst), i, 1, 0), i.into());
            f.bin_to(i, BinOp::Add, i.into(), Operand::ImmI(1));
            let more = f.bin(BinOp::Lt, i.into(), Operand::ImmI(8));
            f.branch(more.into(), hdr, tail);
            f.switch_to(recovery);
            f.emit(Inst::Restore { region: RegionId::new(0) });
            f.jump(hdr);
            f.switch_to(tail);
            let n = f.load(AddrExpr::global(cnt, 0));
            let sum = f.mov(Operand::ImmI(0));
            f.for_range(Operand::ImmI(0), n.into(), |f, j| {
                f.bin_to(sum, BinOp::Add, sum.into(), j.into());
            });
            let p = f.reg();
            for _ in 0..pad {
                f.emit(Inst::Lea { dst: p, addr: AddrExpr::global(out, 0) });
            }
            f.store(AddrExpr::global(out, 0), sum.into());
            f.ret(None);
        });
        let mut map = RegionMap::default();
        map.regions.push(RegionInfo {
            id: RegionId::new(0),
            func: fid,
            header: hdr,
            blocks: vec![hdr],
            recovery_block: Some(recovery),
            protected: true,
            idempotent: false,
            mem_ckpts: 0,
            reg_ckpts: 1,
            avg_activation_len: 0.0,
            exec_fraction: 0.0,
        });
        (mb.finish(), map, fid)
    }

    /// The first-probe key of `plan`'s run, and how the run ends when it
    /// executes everything: its outcome and final dynamic instruction
    /// count.
    fn key_and_end(
        campaign: &SfiCampaign<'_>,
        plan: FaultPlan,
    ) -> (Option<u64>, FaultOutcome, u64) {
        let mut m = campaign.resume(plan);
        let key = match m.advance_to_first_probe(&campaign.snapshots, campaign.golden.dyn_insts) {
            Advance::Probe(at, snap) if m.dyn_insts() == snap.dyn_insts() + at.delta => {
                m.probe_key(&campaign.snapshots, at, &mut Vec::new())
            }
            _ => None,
        };
        let mut m = campaign.resume(plan);
        let run = m.run_to_end_or_splice(&campaign.snapshots, campaign.golden.dyn_insts, |_, _| {
            None::<()>
        });
        let SpliceRun::Done(trap) = run else { panic!("{plan:?} spliced") };
        (key, campaign.classify_machine(&m, trap), m.dyn_insts())
    }

    /// The memo's fuel rule. A flip of bit 14 in `fuel_edge_kernel`
    /// makes its final loop run 16,384 iterations, about 82,000
    /// dynamic instructions, and `pad` puts the end of that run at the
    /// campaign's fuel budget (100,000: the golden run is short). Runs
    /// realigned a few instructions apart then stand in the same state
    /// at their first probe, yet one completes (silent corruption) and
    /// the other hangs. Each run must take a stored result only when its
    /// own fuel reaches it.
    #[test]
    fn memo_answers_only_where_fuel_carries_the_stored_result() {
        let config = SfiConfig { dmax: 64, snapshot_stride: 16, workers: 1, ..Default::default() };
        let mask = 1u64 << 14;
        // Unpadded, every such run completes: measure where each ends.
        let (m, map, fid) = fuel_edge_kernel(0);
        let campaign =
            SfiCampaign::prepare(&m, Some(&map), fid, &[], &config).expect("golden run completes");
        let space = campaign.golden().eligible_insts;
        let indices: Vec<u64> = (0..20_000)
            .filter(|&i| {
                let plan = config.plan_for(i, space);
                plan.inject_at < 16 && plan.action == crate::FaultAction::FlipBits { mask }
            })
            .take(40)
            .collect();
        let ends: Vec<(Option<u64>, u64)> = indices
            .iter()
            .map(|&i| {
                let (key, outcome, end) = key_and_end(&campaign, config.plan_for(i, space));
                assert!(outcome != FaultOutcome::Hung, "index {i} hung unpadded");
                (key, end)
            })
            .collect();
        // Pad so the largest key group's runs end on both sides of fuel.
        let mut groups: std::collections::BTreeMap<u64, Vec<u64>> = Default::default();
        for &(key, end) in &ends {
            if let Some(key) = key {
                groups.entry(key).or_default().push(end);
            }
        }
        let mut group = groups.into_values().max_by_key(Vec::len).expect("some run realigned");
        group.sort_unstable();
        group.dedup();
        assert!(group.len() >= 2, "runs of one state end at {group:?}");
        let pad = (campaign.fuel - group[0]) as usize;

        let (m, map, fid) = fuel_edge_kernel(pad);
        let campaign =
            SfiCampaign::prepare(&m, Some(&map), fid, &[], &config).expect("golden run completes");
        assert_eq!(campaign.golden().eligible_insts, space, "padding moved the plans");
        let truth: Vec<_> = indices
            .iter()
            .map(|&i| key_and_end(&campaign, config.plan_for(i, space)))
            .collect();
        assert!(truth.iter().any(|t| t.1 == FaultOutcome::Hung));
        assert!(truth.iter().any(|t| t.1 == FaultOutcome::SilentCorruption));

        // Store a hung run first, then a completed one: each of the two
        // fuel rules must keep the stored result from runs it does not
        // fit. (A memo answers in any order; a campaign's is index order.)
        let mut hits = 0;
        for first in [FaultOutcome::Hung, FaultOutcome::SilentCorruption] {
            let mut order: Vec<usize> = (0..indices.len()).collect();
            order.sort_by_key(|&k| truth[k].1 != first);
            let mut memo = Memo::new(config, space);
            let mut refused = 0;
            for k in order {
                let (index, (key, outcome, _)) = (indices[k], truth[k]);
                let stored = key.and_then(|key| memo.table.get(&key)).map(|e| e.outcome);
                let plan = config.plan_for(index, space);
                let (got, engagement, cost) =
                    campaign.run_one_impl(plan, true, Some((&mut memo, index)));
                assert_eq!((got, engagement), (outcome, None), "index {index}, {first:?} first");
                hits += cost.memo_hits;
                refused += u32::from(stored.is_some_and(|s| s != outcome));
            }
            assert!(refused > 0, "{first:?} first: no stored result was kept from a run");
        }
        assert!(hits > 0, "the memo never answered");
    }

    #[test]
    fn wrong_edge_and_address_models_defer_until_their_event() {
        // Deferred models arm at the sampled ordinal and fire at the
        // next matching event; a run may therefore end with the fault
        // armed but never fired, which must classify as Benign (and
        // must never certify through the splice, whose probes require
        // the fault slot to be empty).
        let (m, map, fid) = protected_kernel();
        for model in [FaultModelKind::ControlFlow, FaultModelKind::Address] {
            let config =
                SfiConfig { injections: 60, dmax: 8, model, ..Default::default() };
            let campaign = SfiCampaign::prepare(&m, Some(&map), fid, &[Value::Int(32)], &config)
                .expect("golden run completes");
            let stats = campaign.run(&config);
            assert_eq!(stats.injections, 60, "{model}: injections lost");
            // The kernel branches and accesses memory every iteration,
            // so some plans must actually fire and perturb the run.
            assert!(
                stats.benign < 60,
                "{model}: every injection was a no-op, the model never fired: {stats:?}"
            );
        }
    }
}
