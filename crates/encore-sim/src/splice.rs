//! The divergence splice: how a campaign's injection run stops early.
//!
//! A rolled-back injection run usually re-executes its region cleanly
//! and then tracks the golden run instruction for instruction to the
//! end, or diverges from it only in memory the golden suffix never
//! reads. The splice proves such outcomes at *probe points* instead of
//! simulating the suffix:
//!
//! * [`Machine::advance_to_first_probe`] runs until the rollback's
//!   re-executed `SetRecovery` realigns the run against the golden
//!   activation timeline ([`Injection::Realigned`]), measures how far
//!   it drifted (`delta`), and steps to the first realigned golden
//!   snapshot; [`Machine::run_to_end_or_splice`] probes on from there
//!   on a dense-then-backoff schedule;
//! * each probe's gate compares the run's [`ControlState`] with the
//!   snapshot's, registers only where they are live at each frame's
//!   position, [`Machine::golden_diff`] collects the memory cells the
//!   two disagree on, reading only the pages they do not share, and the
//!   [`SpliceRule`]s read the outcome off that diff and the golden
//!   suffix's first access to each of its cells: a read, a write or
//!   none;
//! * the campaign memo (`sfi.rs`) keys and compares a run at its first
//!   probe with [`Machine::probe_key`] and [`Machine::same_probe_state`],
//!   which hash and compare the same [`ControlState`] whole, every
//!   register included.
//!
//! Every miss falls back to plain execution, so the splice can only
//! shorten a run, never change its outcome (DESIGN.md §10, §13, §14).

use crate::interp::{ControlState, Injection, Machine, Trap};
use crate::snapshot::{Snapshot, SnapshotLog};
use encore_ir::AccessKind;

/// Residual-diff size cap for the divergence splice: a run diverging
/// from the golden snapshot in more than this many cells is not worth
/// looking up in the golden record (and is very unlikely to be dead), so
/// [`Memory::diff_cells`](crate::Memory::diff_cells) reports it as
/// incomparable and the run falls back to plain execution.
pub const DIFF_CAP: usize = 64;

/// Which early-exit rule certified a spliced run's outcome.
///
/// All three rules fire at a probe point where the run's control state
/// (frames, the heap-site table, extern PRNG/clock) equals a golden
/// snapshot's at the realigned position, registers compared only where
/// live — they differ only in what the residual *memory/output* diff
/// proves about the suffix.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SpliceRule {
    /// Rule (a) — generalized recovered-splice: the diff emptied
    /// (architectural-state equality up to dead registers, output
    /// included). The remaining execution is bit-identical to the
    /// golden suffix: a certain `Recovered`.
    Converged,
    /// Rule (b) — dead-diff splice: the golden suffix reads no divergent
    /// cell before writing it (the diff is dead), writes every divergent
    /// *global* cell, and the output prefix matches. The suffix executes
    /// identically and the final observable state equals golden's: a
    /// certain `Recovered` without simulating the suffix.
    DeadDiff,
    /// Rule (c) — SDC splice: the residual diff is dead (so the suffix
    /// still executes identically and the run provably terminates like
    /// golden), but the append-only output prefix has diverged or the
    /// suffix never touches some divergent global cell, which persists:
    /// a certain `SilentCorruption`.
    Sdc,
}

impl SpliceRule {
    /// Every rule, in reporting order.
    pub const ALL: [SpliceRule; 3] = [SpliceRule::Converged, SpliceRule::DeadDiff, SpliceRule::Sdc];

    /// Stable snake_case label (used as JSON keys in campaign reports).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SpliceRule::Converged => "converged",
            SpliceRule::DeadDiff => "dead_diff",
            SpliceRule::Sdc => "sdc",
        }
    }
}

/// How [`Machine::run_to_end_or_splice`] finished.
pub(crate) enum SpliceRun<M> {
    /// Ran to completion or a terminal trap, exactly like
    /// [`Machine::run_to_end`].
    Done(Option<Trap>),
    /// A splice rule certified the outcome at a probe point; the `u64`
    /// is the golden-suffix dynamic instruction count the run did *not*
    /// execute.
    Spliced(SpliceRule, u64),
    /// The caller's first-miss hook answered for the rest of the run.
    Answered(M),
}

/// A realigned run's probe position: golden snapshot `idx`, probed at
/// `snapshot dyn + delta`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct ProbeAt {
    /// Index of the golden snapshot in the log.
    pub(crate) idx: usize,
    /// How far the run's dynamic instruction count is ahead of the
    /// golden run's at the same program point.
    pub(crate) delta: u64,
    /// `golden final dyn + delta < fuel`: the fuel headroom check every
    /// probe that lands exactly on its position reduces to.
    pub(crate) headroom: bool,
}

/// Why a probe certified nothing, as far as the campaign memo's key
/// needs to know: what the probe left in its diff buffer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum ProbeMiss {
    /// No compare ran: the probe was skipped, or its gate failed.
    Uncompared,
    /// The two memories did not compare: a shape mismatch, or more than
    /// [`DIFF_CAP`] cells.
    Incomparable,
    /// The buffer holds the complete golden diff, and the golden suffix
    /// reads one of its cells before writing it.
    LiveDiff,
}

/// How [`Machine::advance_to_first_probe`] stopped.
pub(crate) enum Advance<'s> {
    /// The run ended before reaching a probe position.
    Done(Option<Trap>),
    /// The run cannot be aligned with the golden timeline, or realigned
    /// past the last snapshot: only plain execution is left.
    Unaligned,
    /// Paused at, or just past, the first probe position.
    Probe(ProbeAt, &'s Snapshot),
}

impl ControlState {
    /// The splice gate: `self == golden` in everything but the output
    /// channel, which the rules read separately (it is append-only and
    /// never rolled back, so a diverged prefix is permanent), and the
    /// registers dead at each frame's position: each frame passes
    /// [`Frame::equal_where_live`] under the mask the capture recorded
    /// at golden's position. Ordered to fail fast: the heap-site table
    /// first, then the extern state, then the frames innermost-first,
    /// since the top frame diverges first in practice.
    ///
    /// The pattern names every field, so a field added to the type
    /// does not compile until the gate says how it compares.
    ///
    /// [`Frame::equal_where_live`]: crate::interp::Frame::equal_where_live
    fn equal_but_output(&self, golden: &ControlState, snapshots: &SnapshotLog) -> bool {
        let ControlState { frames, last_alloc_of_site, externs } = self;
        *last_alloc_of_site == golden.last_alloc_of_site
            && externs.state_equal_ignoring_output(&golden.externs)
            && frames.len() == golden.frames.len()
            && frames.iter().rev().zip(golden.frames.iter().rev()).all(|(run, gold)| {
                snapshots
                    .live_regs(gold.position())
                    .is_some_and(|live| run.equal_where_live(gold, live))
            })
    }
}

impl Machine<'_, '_> {
    /// The splice's approach: runs normally until a rollback's
    /// re-executed arming realigns the run against the golden
    /// activation timeline, measures `delta`, and steps to the first
    /// golden snapshot's realigned position. A deterministic function
    /// of the injection, so replaying a plan lands on the same probe
    /// position in the same state.
    ///
    /// Once a rolled-back run's complete architectural state *equals* a
    /// golden snapshot's, its remaining execution is provably identical
    /// to the golden run's (equal state implies equal future under the
    /// deterministic interpreter), so the run can stop right there. The
    /// only heuristic part is deciding *where* to compare. Activations
    /// anchor that: the golden run logs its dynamic instruction count
    /// at each `SetRecovery` (by global activation ordinal, counted in
    /// the machine's state), a rollback carries the armed ordinal in
    /// [`Injection::RolledBack`], and the re-executed arming records
    /// where it retired in [`Injection::Realigned`]. That point minus
    /// the golden run's count at the same activation is `delta`: how
    /// far the faulted run's instruction count has drifted ahead of the
    /// golden run's at the same program point.
    /// Golden snapshots are then probed at `snapshot dyn + delta`. A
    /// wrong or unmeasurable `delta` can only make comparisons fail,
    /// never pass, so every miss falls back to plain execution.
    pub(crate) fn advance_to_first_probe<'s>(
        &mut self,
        snapshots: &'s SnapshotLog,
        golden_final_dyn: u64,
    ) -> Advance<'s> {
        debug_assert!(!self.observed(), "injection runs are not observed");
        let (realign_dyn, ordinal) = loop {
            match self.step_detected::<false>(u64::MAX) {
                Ok(true) => {
                    if let Some(Injection::Realigned { at, ordinal, .. }) = self.fault {
                        break (at, ordinal);
                    }
                }
                Ok(false) => return Advance::Done(None),
                Err(t) => return Advance::Done(Some(t)),
            }
        };
        // `delta`: how many more dynamic instructions this run has
        // retired than the golden run had at the same program point.
        // Unmeasurable (ordinal past the golden log, or the golden run
        // was ahead) means the timelines cannot be aligned.
        let Some(delta) = snapshots
            .activation_dyn()
            .get(ordinal as usize)
            .and_then(|&golden_dyn| realign_dyn.checked_sub(golden_dyn))
        else {
            return Advance::Unaligned;
        };
        let idx = snapshots.first_at_or_after_dyn(self.state.dyn_insts.saturating_sub(delta));
        let Some(snap) = snapshots.get(idx) else {
            return Advance::Unaligned;
        };
        match self.step_to(snap.dyn_insts() + delta) {
            Ok(()) => {
                let headroom = golden_final_dyn + delta < self.fuel;
                Advance::Probe(ProbeAt { idx, delta, headroom }, snap)
            }
            Err(end) => Advance::Done(end),
        }
    }

    /// [`Machine::run_to_end`] for campaign injection runs, with the
    /// divergence-tracked splice: after a rollback realigns the run
    /// against the golden activation timeline, successive golden
    /// snapshots are probed and the run's *diff* against each is
    /// classified by [`Machine::classify_divergence`] — a certified
    /// rule ends the run early; a miss merely falls back to plain
    /// execution. See [`Machine::advance_to_first_probe`] for the
    /// realignment mechanics and [`SpliceRule`] for the per-rule
    /// soundness arguments.
    ///
    /// When the run lands exactly on its first probe position and no
    /// rule certifies it there, `first_miss` is asked once, with the
    /// probe's [`ProbeMiss`] and the diff buffer it left; an answer
    /// ends the run as [`SpliceRun::Answered`]. The campaign memo
    /// answers from an earlier injection that stood in the same state.
    pub(crate) fn run_to_end_or_splice<M>(
        &mut self,
        snapshots: &SnapshotLog,
        golden_final_dyn: u64,
        mut first_miss: impl FnMut(&mut Self, ProbeAt, ProbeMiss, &mut Vec<(u32, u32)>) -> Option<M>,
    ) -> SpliceRun<M> {
        let (mut at, mut snap) = match self.advance_to_first_probe(snapshots, golden_final_dyn) {
            Advance::Done(end) => return SpliceRun::Done(end),
            Advance::Unaligned => return SpliceRun::Done(self.run_to_end()),
            Advance::Probe(at, snap) => (at, snap),
        };
        // Execute on, pausing at golden snapshots' realigned positions
        // (`snapshot dyn + delta`) to classify the state diff. The
        // probe *schedule* is dense-then-backoff: the first
        // `DENSE_PROBES` misses probe consecutive snapshots (the
        // earliest certifying snapshot saves the most suffix, and runs
        // that certify at all usually do so within a few snapshots of
        // realignment), after which the stride between probes doubles
        // up to `GAP_CAP` — a run whose diff has stayed live that long
        // rarely certifies later, so spaced probes stop charging a
        // sprint pause per snapshot to hopeless runs. Each probe's
        // *compare* reads only the pages the run and the snapshot do not
        // share.
        const DENSE_PROBES: u32 = 8;
        const GAP_CAP: usize = 16;
        let mut diff: Vec<(u32, u32)> = Vec::new();
        let mut misses = 0u32;
        let mut gap = 1usize;
        loop {
            // A probe is only meaningful when the pause landed exactly
            // on the realigned position (instruction costs can
            // overshoot a bound), no fault is pending, and the fuel
            // headroom covers the golden suffix at this run's offset —
            // otherwise the continuation could diverge by a fuel trap
            // the golden run never hit.
            let landed =
                self.state.dyn_insts == snap.dyn_insts() + at.delta && !self.fault_pending();
            let mut miss = ProbeMiss::Uncompared;
            if landed && at.headroom {
                self.probe_cost.probes += 1;
                match self.classify_divergence(snapshots, at.idx, snap, &mut diff) {
                    Ok(rule) => {
                        return SpliceRun::Spliced(rule, golden_final_dyn - snap.dyn_insts())
                    }
                    Err(m) => miss = m,
                }
            }
            if landed && misses == 0 {
                if let Some(answer) = first_miss(self, at, miss, &mut diff) {
                    return SpliceRun::Answered(answer);
                }
            }
            misses += 1;
            if misses >= DENSE_PROBES && gap < GAP_CAP {
                gap *= 2;
            }
            at.idx += gap;
            let Some(next) = snapshots.get(at.idx) else {
                // Past the last golden snapshot: finish normally.
                return SpliceRun::Done(self.run_to_end());
            };
            snap = next;
            if let Err(end) = self.step_to(snap.dyn_insts() + at.delta) {
                return SpliceRun::Done(end);
            }
        }
    }

    /// The splice's probe predicate: classifies the run's divergence
    /// from golden snapshot `snap` (index `idx`), or says why no rule
    /// can certify an outcome here.
    ///
    /// The gate requires [`ControlState`] equality up to the output
    /// channel and dead registers — frames (positions, slots, armed
    /// recovery logs, the registers live at each position), the latest
    /// allocation of each heap site and the non-output extern state —
    /// so the only admissible divergence is in dead registers, memory
    /// cells and the output channel. A landed probe has no fault
    /// pending, so no detection, rollback or `Restore` runs again and
    /// the run follows the program's own control flow. By induction
    /// over the suffix under a deterministic interpreter, every
    /// register it reads is live and so equal, and every cell it reads
    /// is equal or was first overwritten with golden's value, so the
    /// suffix executes *identically* to the golden suffix (same control
    /// flow, same writes, same output appends): the final state is
    /// then golden's, modulo exactly the divergent cells the suffix
    /// never overwrites and the already-diverged output prefix. Each
    /// divergent cell's fate is the suffix's first access to it
    /// ([`SnapshotLog::first_access_after`]): a read keeps it live, a
    /// write heals it, and none leaves it persisting. The rules:
    ///
    /// * diff empty, output equal → [`SpliceRule::Converged`];
    /// * no divergent cell first read, every divergent global cell first
    ///   written, output equal → [`SpliceRule::DeadDiff`] (final state
    ///   provably golden);
    /// * no divergent cell first read, but output diverged or a
    ///   divergent global cell untouched → [`SpliceRule::Sdc`] (final
    ///   state provably differs).
    ///
    /// The counters outside the control state (`dyn_insts`,
    /// `eligible_seen`, the checkpoint high-water mark, the activation
    /// count, and `frame_seq` and `heap_seq`, which only name new slot
    /// and heap objects) influence neither the remaining execution nor
    /// the outcome classification, so the gate leaves them out;
    /// `dyn_insts` enters through the caller's fuel-headroom check
    /// instead. The memory compare likewise checks each object's kind
    /// variant and size but not the numbers that name it.
    fn classify_divergence(
        &mut self,
        snapshots: &SnapshotLog,
        idx: usize,
        snap: &Snapshot,
        diff: &mut Vec<(u32, u32)>,
    ) -> Result<SpliceRule, ProbeMiss> {
        let golden = &snap.state.control;
        if !self.state.control.equal_but_output(golden, snapshots) {
            return Err(ProbeMiss::Uncompared);
        }
        if !self.golden_diff(snap, diff) {
            return Err(ProbeMiss::Incomparable);
        }
        let out_eq = self.state.control.externs.output == golden.externs.output;
        if diff.is_empty() && out_eq {
            return Ok(SpliceRule::Converged);
        }
        let mut persists = false;
        for &cell in diff.iter() {
            match snapshots.first_access_after(idx, cell) {
                // Read before written: its fate is unprovable here. Keep
                // executing — later probes may still certify.
                Some(AccessKind::Load) => return Err(ProbeMiss::LiveDiff),
                // Overwritten by the identically executing suffix: heals.
                Some(AccessKind::Store) => {}
                // Never touched: a global cell persists into the final
                // observable state; any other is architecturally invisible.
                None => persists |= self.state.mem.is_global(cell.0),
            }
        }
        if out_eq && !persists {
            Ok(SpliceRule::DeadDiff)
        } else {
            Ok(SpliceRule::Sdc)
        }
    }

    /// Collects into `diff` every memory cell where this run differs
    /// from golden snapshot `snap`, `false` when the two memories are
    /// not comparable (shape mismatch, or more than [`DIFF_CAP`] cells).
    /// Reads only the pages the two do not share
    /// ([`Memory::diff_cells_unshared`](crate::Memory::diff_cells_unshared)).
    pub(crate) fn golden_diff(&mut self, snap: &Snapshot, diff: &mut Vec<(u32, u32)>) -> bool {
        let mem = &self.state.mem;
        let comparable =
            mem.diff_cells_unshared(&snap.state.mem, DIFF_CAP, diff, &mut self.probe_cost);
        // The full scan is the reference the shared-page compare must
        // reproduce exactly: debug builds check every compare against it.
        #[cfg(debug_assertions)]
        {
            let mut full = Vec::new();
            let full_comparable = mem.diff_cells(&snap.state.mem, DIFF_CAP, &mut full);
            assert!(
                full_comparable == comparable && (!full_comparable || full == *diff),
                "shared-page compare disagrees with the full scan at dyn {}: \
                 shared-page {comparable} {diff:?}, full scan {full_comparable} {full:?}",
                snap.dyn_insts()
            );
        }
        comparable
    }

    /// The campaign memo's key for a run paused exactly on probe
    /// position `at`: a hash of everything the rest of the run reads —
    /// the snapshot index, the headroom bit, the [`ControlState`] with
    /// its output channel, and each cell of the golden diff (left in
    /// `diff`) with its value. `dyn_insts` is left out: it enters only
    /// through the headroom bit and the memo's fuel rule. `miss` is what
    /// the probe there left in `diff`, so the golden diff is computed
    /// again only when no compare ran. `None` when the golden diff is
    /// not comparable.
    pub(crate) fn probe_key(
        &mut self,
        snapshots: &SnapshotLog,
        at: ProbeAt,
        miss: ProbeMiss,
        diff: &mut Vec<(u32, u32)>,
    ) -> Option<u64> {
        use std::hash::{DefaultHasher, Hash, Hasher};
        match miss {
            ProbeMiss::LiveDiff => {}
            ProbeMiss::Incomparable => return None,
            ProbeMiss::Uncompared => {
                let snap = snapshots.get(at.idx)?;
                if !self.golden_diff(snap, diff) {
                    return None;
                }
            }
        }
        let mut h = DefaultHasher::new();
        (at.idx, at.headroom).hash(&mut h);
        self.state.control.hash(&mut h);
        for &(obj, idx) in diff.iter() {
            (obj, idx, self.state.mem.read(obj, idx.into()).ok()).hash(&mut h);
        }
        Some(h.finish())
    }

    /// `true` when this run and `other`, both paused exactly on the
    /// same probe position with golden diffs `diff` and `other_diff`
    /// against its snapshot, hold the same state in everything
    /// [`Machine::probe_key`] hashes, with no fault pending and the
    /// same rollback flag (which classification reads). Both memories
    /// equal the snapshot's outside their diffs, so equal diffs with
    /// equal values make the memories equal.
    pub(crate) fn same_probe_state(
        &self,
        diff: &[(u32, u32)],
        other: &Machine<'_, '_>,
        other_diff: &[(u32, u32)],
    ) -> bool {
        !self.fault_pending()
            && !other.fault_pending()
            && self.telemetry().rolled_back == other.telemetry().rolled_back
            && self.state.control == other.state.control
            && diff == other_diff
            && diff.iter().all(|&(obj, idx)| {
                self.state.mem.read(obj, idx.into()) == other.state.mem.read(obj, idx.into())
            })
    }
}
