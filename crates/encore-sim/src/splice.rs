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
//!   two disagree on in O(dirty), and the [`SpliceRule`]s read the
//!   outcome off that diff and what the golden suffix does to each of
//!   its cells first;
//! * the campaign memo (`sfi.rs`) keys and compares a run at its first
//!   probe with [`Machine::probe_key`] and [`Machine::same_probe_state`],
//!   which hash and compare the same [`ControlState`] whole, every
//!   register included.
//!
//! Every miss falls back to plain execution, so the splice can only
//! shorten a run, never change its outcome (DESIGN.md §10, §13, §14).

use crate::interp::{ControlState, Injection, Machine, Trap};
use crate::memory::ProbeCost;
use crate::snapshot::{Snapshot, SnapshotLog};

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
    /// Rule (b) — dead-diff splice: the residual diff is confined to
    /// dead cells, which the golden suffix never touches or first
    /// overwrites, every divergent *global* cell is overwritten by the
    /// suffix (or is not architecturally observable), and the output
    /// prefix matches. The suffix executes identically and the final
    /// observable state equals golden's: a certain `Recovered` without
    /// simulating the suffix.
    DeadDiff,
    /// Rule (c) — SDC splice: the residual diff is dead (rule (b)'s
    /// first-read condition holds, so the suffix still executes
    /// identically and the run provably terminates like golden), but
    /// the append-only output prefix has diverged or a dead global cell
    /// escapes every suffix write: a certain `SilentCorruption`.
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

/// Incremental-compare probe state for the divergence splice: the
/// candidate page set carried between probes, which golden interval
/// lists it has absorbed, and the accumulated compare-cost telemetry.
#[derive(Default)]
pub(crate) struct ProbeState {
    /// Sorted, deduplicated `(object, page)` pages where equality with
    /// the last-probed golden snapshot is not established. See
    /// [`Memory::diff_cells_dirty`](crate::Memory::diff_cells_dirty)
    /// for the invariant.
    pending: Vec<(u32, u32)>,
    /// Golden snapshot index the pending set is relative to (`None` =
    /// the golden run's start): interval page lists between here and
    /// the next probe target are unioned in before each compare.
    pub(crate) absorbed_through: Option<usize>,
    /// Probe/page/word counters, merged into the campaign's
    /// [`SpliceStats`](crate::SpliceStats).
    cost: ProbeCost,
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
    /// rule certifies it there, `first_miss` is asked once; an answer
    /// ends the run as [`SpliceRun::Answered`]. The campaign memo
    /// answers from an earlier injection that stood in the same state.
    pub(crate) fn run_to_end_or_splice<M>(
        &mut self,
        snapshots: &SnapshotLog,
        golden_final_dyn: u64,
        mut first_miss: impl FnMut(&mut Self, ProbeAt) -> Option<M>,
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
        // *compare* is O(pages dirtied since the previous probe), not
        // O(state).
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
            if landed && at.headroom {
                self.probe.cost.probes += 1;
                if let Some(rule) = self.classify_divergence(snapshots, at.idx, snap, &mut diff) {
                    return SpliceRun::Spliced(rule, golden_final_dyn - snap.dyn_insts());
                }
            }
            if landed && misses == 0 {
                if let Some(answer) = first_miss(self, at) {
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

    /// The accumulated probe-cost counters of this run.
    pub(crate) fn probe_cost(&self) -> ProbeCost {
        self.probe.cost
    }

    /// The splice's probe predicate: classifies the run's divergence
    /// from golden snapshot `snap` (index `idx`), or `None` when no
    /// rule can certify an outcome here.
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
    /// never overwrites and the already-diverged output prefix. The
    /// rules read off the outcome:
    ///
    /// * diff empty, output equal → [`SpliceRule::Converged`];
    /// * diff dead (the suffix's first access to each cell, if any, is
    ///   a write), every divergent global cell healed by a suffix
    ///   write, output equal → [`SpliceRule::DeadDiff`] (final state
    ///   provably golden);
    /// * diff dead but output diverged or a global cell persists →
    ///   [`SpliceRule::Sdc`] (final state provably differs).
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
    ) -> Option<SpliceRule> {
        let golden = &snap.state.control;
        if !self.state.control.equal_but_output(golden, snapshots)
            || !self.golden_diff(snapshots, idx, snap, diff)
        {
            return None;
        }
        let out_eq = self.state.control.externs.output == golden.externs.output;
        if diff.is_empty() && out_eq {
            return Some(SpliceRule::Converged);
        }
        if diff.iter().any(|&cell| snapshots.live_after(idx, cell)) {
            // The suffix reads a divergent cell before it writes it: its
            // fate is unprovable here. Keep executing — later probes may
            // still certify.
            return None;
        }
        // Dead diff. Non-global cells are architecturally invisible;
        // a global cell the suffix overwrites heals to golden's value
        // (the suffix executes identically); one it never writes
        // persists into the final observable state.
        let persists = diff
            .iter()
            .any(|&cell| self.state.mem.is_global(cell.0) && !snapshots.written_after(idx, cell));
        if out_eq && !persists {
            Some(SpliceRule::DeadDiff)
        } else {
            Some(SpliceRule::Sdc)
        }
    }

    /// Collects into `diff` every memory cell where this run differs
    /// from golden snapshot `snap` (index `idx`), `false` when the two
    /// memories are not comparable (shape mismatch, or more than
    /// [`DIFF_CAP`] cells).
    ///
    /// First brings the candidate set up to this snapshot: golden pages
    /// written between the last absorbed snapshot and this one
    /// (interval lists — absorbed in either direction, since
    /// realignment can land a probe before the resume base) and pages
    /// this run wrote since the last drain. Everything outside the
    /// resulting set is bitwise-identical on both sides.
    pub(crate) fn golden_diff(
        &mut self,
        snapshots: &SnapshotLog,
        idx: usize,
        snap: &Snapshot,
        diff: &mut Vec<(u32, u32)>,
    ) -> bool {
        let Machine { state, probe, base_objects, .. } = self;
        let unabsorbed = match probe.absorbed_through {
            None => 0..=idx,
            Some(a) if idx > a => a + 1..=idx,
            // Empty when `idx == a`.
            Some(a) => idx + 1..=a,
        };
        for j in unabsorbed {
            probe.pending.extend_from_slice(snapshots.interval_pages(j));
        }
        probe.absorbed_through = Some(idx);
        state.mem.drain_dirty_pages(&mut probe.pending);
        probe.pending.sort_unstable();
        probe.pending.dedup();
        let comparable = state.mem.diff_cells_dirty(
            &snap.state.mem,
            &mut probe.pending,
            *base_objects,
            DIFF_CAP,
            diff,
            &mut probe.cost,
        );
        // The full scan is the reference the incremental compare must
        // reproduce exactly: debug builds check every compare against it.
        #[cfg(debug_assertions)]
        {
            let mut full = Vec::new();
            let full_comparable = state.mem.diff_cells(&snap.state.mem, DIFF_CAP, &mut full);
            assert!(
                full_comparable == comparable && (!full_comparable || full == *diff),
                "incremental compare disagrees with the full scan at snapshot {idx}: \
                 incremental {comparable} {diff:?}, full scan {full_comparable} {full:?}"
            );
        }
        comparable
    }

    /// The campaign memo's key for a run paused exactly on probe
    /// position `at`: a hash of everything the rest of the run reads —
    /// the snapshot index, the headroom bit, the [`ControlState`] with
    /// its output channel, and each cell of the golden diff (left in
    /// `diff`) with its value. `dyn_insts` is left out: it enters only
    /// through the headroom bit and the memo's fuel rule. `None` when
    /// the golden diff is not comparable.
    pub(crate) fn probe_key(
        &mut self,
        snapshots: &SnapshotLog,
        at: ProbeAt,
        diff: &mut Vec<(u32, u32)>,
    ) -> Option<u64> {
        use std::hash::{DefaultHasher, Hash, Hasher};
        let snap = snapshots.get(at.idx)?;
        if !self.golden_diff(snapshots, at.idx, snap, diff) {
            return None;
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
