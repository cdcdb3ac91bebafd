//! Periodic interpreter checkpoints for snapshot-and-resume SFI.
//!
//! A fault-injection run is bit-identical to the golden run up to its
//! injection point, so re-executing that prefix from dynamic instruction
//! 0 for every injection is pure waste — O(N·T) over a campaign. While
//! the golden run executes, the machine can capture a [`Snapshot`] of
//! its complete architectural state every `stride` dynamic instructions;
//! each injection then restores the nearest snapshot at-or-before its
//! injection point and pays only O(stride + suffix).
//!
//! ## What a snapshot must contain
//!
//! Restoring must be indistinguishable from having executed the prefix,
//! so a snapshot captures everything the remaining execution can
//! observe: the frame stack (registers, instruction pointers, armed
//! recovery states and their checkpoint logs), the full [`Memory`]
//! arena, the [`Externs`] environment (PRNG state, clock, output
//! channel), the allocation bookkeeping (`frame_seq`, `heap_seq`, the
//! per-site last-allocation table) and every counter the run reports or
//! keys behavior off — `dyn_insts` (fuel, detection deadlines),
//! `eligible_seen` (the injection ordinal), instrumentation and region
//! accounting, and the checkpoint-log high-water mark. All counters are
//! absolute, which is what makes resumption exact: a restored machine's
//! fuel check and detection deadline arithmetic see the same numbers a
//! from-scratch run would.
//!
//! Snapshots are immutable once captured and shared via [`Arc`], so a
//! campaign's worker threads restore from the same log without copying
//! it per worker.

use crate::externs::Externs;
use crate::interp::Frame;
use crate::memory::Memory;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Per-interval memory access chunks: one `(object handle, cell index)`
/// list per inter-snapshot interval of the golden run.
pub(crate) type AccessChunks = Vec<Vec<(u32, u32)>>;

/// A sorted, deduplicated set of `(object handle, cell index)` pairs —
/// the representation of a golden suffix access summary. Lookup is a
/// binary search.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct CellSet {
    cells: Vec<(u32, u32)>,
}

impl CellSet {
    fn from_sorted(cells: Vec<(u32, u32)>) -> Self {
        debug_assert!(cells.windows(2).all(|w| w[0] < w[1]), "CellSet input must be sorted");
        Self { cells }
    }

    /// `true` when the set contains `(obj, idx)`.
    pub(crate) fn contains(&self, obj: u32, idx: u32) -> bool {
        self.cells.binary_search(&(obj, idx)).is_ok()
    }

    /// Number of cells in the set.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.cells.len()
    }
}

/// Folds per-interval access chunks into per-snapshot suffix summaries:
/// `chunks` has one entry per inter-snapshot interval (`n + 1` for `n`
/// snapshots — the final chunk covers capture to program end), and
/// `suffix[k] = ∪ chunks[k+1..]` — every cell the golden run touches
/// *after* snapshot `k`. Built backwards in one pass; snapshots whose
/// trailing chunk is empty share the next summary's allocation.
fn suffix_union(mut chunks: AccessChunks, snapshots: usize) -> Vec<Arc<CellSet>> {
    debug_assert_eq!(chunks.len(), snapshots + 1, "one chunk per interval");
    let mut acc: BTreeSet<(u32, u32)> = BTreeSet::new();
    let mut out: Vec<Arc<CellSet>> = Vec::with_capacity(snapshots);
    let mut prev: Option<Arc<CellSet>> = None;
    for k in (0..snapshots).rev() {
        let chunk = std::mem::take(&mut chunks[k + 1]);
        let summary = match (&prev, chunk.is_empty()) {
            (Some(p), true) => Arc::clone(p),
            _ => {
                acc.extend(chunk);
                Arc::new(CellSet::from_sorted(acc.iter().copied().collect()))
            }
        };
        prev = Some(Arc::clone(&summary));
        out.push(summary);
    }
    out.reverse();
    out
}

/// Complete interpreter state at one golden-run step boundary.
///
/// Captured by the campaign's golden run (see
/// [`SfiCampaign::prepare`](crate::SfiCampaign::prepare)); restored to
/// start an injection run mid-trace. Opaque outside the crate: the
/// public surface is the position accessors.
pub struct Snapshot {
    /// Position in the log's capture order (assigned by
    /// [`SnapshotLog::push`]) — the key the splice's incremental probe
    /// state uses to track which golden intervals it has absorbed.
    pub(crate) index: usize,
    pub(crate) frames: Vec<Frame>,
    pub(crate) mem: Memory,
    pub(crate) externs: Externs,
    pub(crate) dyn_insts: u64,
    pub(crate) instr_dyn: u64,
    pub(crate) frame_seq: u32,
    pub(crate) heap_seq: u32,
    pub(crate) last_alloc_of_site: Vec<Option<usize>>,
    pub(crate) region_dyn: Vec<u64>,
    pub(crate) region_touched: Vec<bool>,
    pub(crate) eligible_seen: u64,
    pub(crate) ckpt_high_water: u64,
    /// Region activations (`SetRecovery` executions) retired before
    /// capture — resumed runs must keep numbering activations exactly
    /// where the golden prefix left off so the convergence splice can
    /// realign rolled-back runs against [`SnapshotLog::activation_dyn`].
    pub(crate) activations: u64,
}

impl Snapshot {
    /// Dynamic instruction count at capture.
    #[must_use]
    pub fn dyn_insts(&self) -> u64 {
        self.dyn_insts
    }

    /// Fault-eligible instructions retired before capture. A snapshot
    /// can seed any injection whose target ordinal is `>=` this.
    #[must_use]
    pub fn eligible_seen(&self) -> u64 {
        self.eligible_seen
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("dyn_insts", &self.dyn_insts)
            .field("eligible_seen", &self.eligible_seen)
            .field("frames", &self.frames.len())
            .finish_non_exhaustive()
    }
}

/// The ordered snapshot log of one golden run.
///
/// Snapshots appear in capture order, so both position counters are
/// non-decreasing and lookups are binary searches.
#[derive(Debug, Default)]
pub struct SnapshotLog {
    snaps: Vec<Arc<Snapshot>>,
    stride: u64,
    /// Dynamic instruction count at each golden `SetRecovery`
    /// execution, indexed by activation ordinal. The campaign's
    /// convergence splice uses it to realign a rolled-back run's
    /// dyn-count timeline with the golden run's.
    activation_dyn: Vec<u64>,
    /// Per snapshot `k`: every memory cell the golden run *reads* from
    /// capture `k` to program end. A divergence confined to cells
    /// outside this set can never influence the golden suffix's
    /// execution — the dead-diff and SDC splice rules' key input.
    suffix_reads: Vec<Arc<CellSet>>,
    /// Per snapshot `k`: every memory cell the golden run *writes* from
    /// capture `k` to program end. A dead (never-read) divergent cell
    /// in this set is overwritten by the replayed suffix and heals; one
    /// outside it persists to the final state.
    suffix_writes: Vec<Arc<CellSet>>,
    /// Per snapshot `k`: the sorted `(object, page)` pages the golden
    /// run wrote in the interval `(snapshot k-1, snapshot k]` (for
    /// `k = 0`, since the golden run began). The splice probe unions
    /// these to learn which golden pages changed between two probe
    /// targets — the golden half of the incremental-diff candidate set.
    interval_pages: Vec<Vec<(u32, u32)>>,
}

impl SnapshotLog {
    /// An empty log for a run captured at `stride` (0 = capture
    /// disabled).
    #[must_use]
    pub(crate) fn new(stride: u64) -> Self {
        Self {
            snaps: Vec::new(),
            stride,
            activation_dyn: Vec::new(),
            suffix_reads: Vec::new(),
            suffix_writes: Vec::new(),
            interval_pages: Vec::new(),
        }
    }

    /// Appends a capture together with the golden dirty pages drained
    /// since the previous capture (its interval page list).
    pub(crate) fn push(&mut self, mut snap: Snapshot, mut interval: Vec<(u32, u32)>) {
        debug_assert!(
            self.snaps.last().map(|s| s.eligible_seen <= snap.eligible_seen).unwrap_or(true),
            "snapshots must be captured in execution order"
        );
        snap.index = self.snaps.len();
        interval.sort_unstable();
        interval.dedup();
        self.interval_pages.push(interval);
        self.snaps.push(Arc::new(snap));
    }

    /// The capture stride this log was built with (0 = disabled).
    #[must_use]
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// Number of snapshots captured.
    #[must_use]
    pub fn len(&self) -> usize {
        self.snaps.len()
    }

    /// `true` when no snapshots were captured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.snaps.is_empty()
    }

    /// The latest snapshot whose eligible-instruction position is
    /// `<= ordinal` — the cheapest valid starting point for an
    /// injection at `ordinal`. `None` means start from scratch.
    #[must_use]
    pub fn nearest_at_or_before(&self, ordinal: u64) -> Option<&Arc<Snapshot>> {
        let n = self.snaps.partition_point(|s| s.eligible_seen <= ordinal);
        n.checked_sub(1).map(|i| &self.snaps[i])
    }

    pub(crate) fn set_activation_dyn(&mut self, log: Vec<u64>) {
        self.activation_dyn = log;
    }

    /// Golden dyn count at each `SetRecovery` execution, by activation
    /// ordinal.
    pub(crate) fn activation_dyn(&self) -> &[u64] {
        &self.activation_dyn
    }

    /// The `i`-th snapshot in capture order.
    pub(crate) fn get(&self, i: usize) -> Option<&Snapshot> {
        self.snaps.get(i).map(Arc::as_ref)
    }

    /// Index of the first snapshot captured at `dyn_insts >= d`.
    pub(crate) fn first_at_or_after_dyn(&self, d: u64) -> usize {
        self.snaps.partition_point(|s| s.dyn_insts < d)
    }

    /// Sorted golden-written pages in the interval ending at snapshot
    /// `i` (empty when `i` is out of range or lists were not built).
    pub(crate) fn interval_pages(&self, i: usize) -> &[(u32, u32)] {
        self.interval_pages.get(i).map_or(&[][..], Vec::as_slice)
    }

    /// Installs the golden suffix access summaries from per-interval
    /// chunks (one per inter-snapshot interval, plus the final
    /// capture-to-end chunk).
    pub(crate) fn set_suffix_summaries(
        &mut self,
        read_chunks: AccessChunks,
        write_chunks: AccessChunks,
    ) {
        self.suffix_reads = suffix_union(read_chunks, self.snaps.len());
        self.suffix_writes = suffix_union(write_chunks, self.snaps.len());
    }

    /// Cells the golden run reads after snapshot `i` (`None` when
    /// summaries were not built).
    pub(crate) fn suffix_reads(&self, i: usize) -> Option<&CellSet> {
        self.suffix_reads.get(i).map(Arc::as_ref)
    }

    /// Cells the golden run writes after snapshot `i` (`None` when
    /// summaries were not built).
    pub(crate) fn suffix_writes(&self, i: usize) -> Option<&CellSet> {
        self.suffix_writes.get(i).map(Arc::as_ref)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{run_function_with_snapshots, RunConfig};
    use crate::predecode::DecodedModule;
    use crate::value::Value;
    use encore_ir::{BinOp, ModuleBuilder, Operand};

    fn log_for(stride: u64) -> SnapshotLog {
        let mut mb = ModuleBuilder::new("m");
        mb.function("sum", 1, |f| {
            let n = f.param(0);
            let acc = f.mov(Operand::ImmI(0));
            f.for_range(Operand::ImmI(0), n.into(), |f, i| {
                f.bin_to(acc, BinOp::Add, acc.into(), i.into());
            });
            f.ret(Some(acc.into()));
        });
        let m = mb.finish();
        let fid = m.func_by_name("sum").unwrap();
        let code = DecodedModule::new(&m, None);
        let (r, log) = run_function_with_snapshots(
            &m,
            None,
            &code,
            fid,
            &[Value::Int(200)],
            &RunConfig::default(),
            stride,
        );
        assert!(r.completed);
        log
    }

    #[test]
    fn stride_zero_captures_nothing() {
        let log = log_for(0);
        assert!(log.is_empty());
        assert!(log.nearest_at_or_before(u64::MAX).is_none());
    }

    #[test]
    fn lookup_is_at_or_before() {
        let log = log_for(64);
        assert!(!log.is_empty());
        for probe in [0, 1, 100, 500, u64::MAX] {
            match log.nearest_at_or_before(probe) {
                Some(s) => assert!(s.eligible_seen() <= probe),
                None => assert!(log.snaps[0].eligible_seen() > probe),
            }
        }
        // The lookup returns the *latest* admissible snapshot.
        let last = log.snaps.last().unwrap();
        let hit = log.nearest_at_or_before(last.eligible_seen()).unwrap();
        assert_eq!(hit.eligible_seen(), last.eligible_seen());
    }

    #[test]
    fn suffix_union_accumulates_backwards() {
        // 2 snapshots → 3 interval chunks: [before s0], (s0, s1], (s1, end].
        let chunks = vec![vec![(0, 0)], vec![(0, 1), (1, 0)], vec![(0, 1), (2, 5)]];
        let sufs = suffix_union(chunks, 2);
        assert_eq!(sufs.len(), 2);
        // suffix[1] = last chunk only; the pre-s0 chunk never appears.
        assert!(sufs[1].contains(0, 1) && sufs[1].contains(2, 5));
        assert!(!sufs[1].contains(1, 0) && !sufs[1].contains(0, 0));
        // suffix[0] ⊇ suffix[1], plus the (s0, s1] chunk.
        assert!(sufs[0].contains(0, 1) && sufs[0].contains(2, 5) && sufs[0].contains(1, 0));
        assert!(!sufs[0].contains(0, 0));
        assert_eq!(sufs[0].len(), 3);
        // Empty trailing chunks share the downstream summary.
        let shared = suffix_union(vec![vec![], vec![], vec![(3, 3)]], 2);
        assert!(Arc::ptr_eq(&shared[0], &shared[1]));
    }

    #[test]
    fn snapshots_are_ordered() {
        let log = log_for(32);
        for pair in log.snaps.windows(2) {
            assert!(pair[0].dyn_insts() < pair[1].dyn_insts());
            assert!(pair[0].eligible_seen() <= pair[1].eligible_seen());
        }
    }
}
