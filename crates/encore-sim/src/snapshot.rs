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
//! so a snapshot holds the machine's whole resumable
//! [`State`](crate::interp::State), cloned at capture and cloned back at
//! resume: the frame stack (registers, instruction pointers, armed
//! recovery states and their checkpoint logs), the full
//! [`Memory`](crate::Memory) arena, the [`Externs`](crate::Externs)
//! environment (PRNG state, clock, output channel), the allocation
//! bookkeeping (`frame_seq`, `heap_seq`, the per-site last-allocation
//! table, the heap and slot cell total) and every counter the run reports or
//! keys behavior off — `dyn_insts` (fuel, detection deadlines),
//! `eligible_seen` (the injection ordinal), the checkpoint-log
//! high-water mark and the activation count. No field is named at
//! capture or resume, so a field added to the state is carried across
//! without further code. All counters are absolute, which is what makes
//! resumption exact: a restored machine's fuel check and detection
//! deadline arithmetic see the same numbers a from-scratch run would.
//!
//! Snapshots are immutable once captured and shared via [`Arc`], so a
//! campaign's worker threads restore from the same log without copying
//! it per worker.
//!
//! Beside the snapshots, the log keeps the capture run's
//! [`GoldenRecord`]: its activation timeline, and the last
//! inter-snapshot interval that read and that wrote each memory cell,
//! which is all the divergence splice asks of the golden suffix.

use crate::interp::State;
use std::sync::Arc;

/// What the golden capture run records for the divergence splice: its
/// activation timeline, and for each memory cell the last interval that
/// read it and the last that wrote it.
///
/// Interval 0 runs from the start of the run to the first capture, and
/// interval `k + 1` from capture `k` to the next capture or the end. A
/// cell's stamp is the last interval that touched it, so the golden run
/// touches the cell after snapshot `k` exactly when its stamp is greater
/// than `k`.
#[derive(Debug, Default)]
pub(crate) struct GoldenRecord {
    /// The current interval: the number of captures so far.
    interval: u32,
    /// Dynamic instruction count at each golden `SetRecovery`, by
    /// activation ordinal. The convergence splice realigns a
    /// rolled-back run's dyn-count timeline with the golden run's on
    /// it.
    activation_dyn: Vec<u64>,
    /// The last interval that read each cell, by object handle, then
    /// cell index.
    last_read: Vec<Vec<u32>>,
    /// The last interval that wrote each cell, indexed the same way.
    last_write: Vec<Vec<u32>>,
}

impl GoldenRecord {
    /// Closes the current interval: the run was captured here.
    pub(crate) fn advance(&mut self) {
        self.interval = self.interval.checked_add(1).expect("fewer than 2^32 captures");
    }

    /// Notes one `SetRecovery` retired at dynamic instruction `now`.
    pub(crate) fn activation(&mut self, now: u64) {
        self.activation_dyn.push(now);
    }

    /// Notes one read or write of cell `(obj, idx)` in the current
    /// interval.
    pub(crate) fn access(&mut self, obj: u32, idx: u32, write: bool) {
        let table = if write { &mut self.last_write } else { &mut self.last_read };
        let obj = obj as usize;
        if table.len() <= obj {
            table.resize_with(obj + 1, Vec::new);
        }
        let cells = &mut table[obj];
        let idx = idx as usize;
        if cells.len() <= idx {
            cells.resize(idx + 1, 0);
        }
        cells[idx] = self.interval;
    }
}

/// The last interval of `table` that touched `(obj, idx)`. The tables
/// grow on demand and fill with 0, and 0 is exact for a cell the run
/// never touched as well as for one it touched only before the first
/// capture: neither is touched after any snapshot.
fn last(table: &[Vec<u32>], (obj, idx): (u32, u32)) -> u32 {
    table.get(obj as usize).and_then(|cells| cells.get(idx as usize)).copied().unwrap_or(0)
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
    /// The machine's resumable state at capture.
    pub(crate) state: State,
}

impl Snapshot {
    /// Dynamic instruction count at capture.
    #[must_use]
    pub fn dyn_insts(&self) -> u64 {
        self.state.dyn_insts
    }

    /// Fault-eligible instructions retired before capture. A snapshot
    /// can seed any injection whose target ordinal is `>=` this.
    #[must_use]
    pub fn eligible_seen(&self) -> u64 {
        self.state.eligible_seen
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("dyn_insts", &self.dyn_insts())
            .field("eligible_seen", &self.eligible_seen())
            .field("frames", &self.state.control.frames.len())
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
    /// The golden run's activation timeline and last access intervals
    /// (empty when capture is disabled).
    golden: GoldenRecord,
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
            golden: GoldenRecord::default(),
            interval_pages: Vec::new(),
        }
    }

    /// Appends a capture of `state` together with the golden dirty
    /// pages drained since the previous capture (its interval page
    /// list).
    pub(crate) fn push(&mut self, state: State, mut interval: Vec<(u32, u32)>) {
        debug_assert!(
            self.snaps.last().map(|s| s.eligible_seen() <= state.eligible_seen).unwrap_or(true),
            "snapshots must be captured in execution order"
        );
        interval.sort_unstable();
        interval.dedup();
        self.interval_pages.push(interval);
        self.snaps.push(Arc::new(Snapshot { index: self.snaps.len(), state }));
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
        let n = self.snaps.partition_point(|s| s.eligible_seen() <= ordinal);
        n.checked_sub(1).map(|i| &self.snaps[i])
    }

    /// Installs the record the capture run filled.
    pub(crate) fn set_golden(&mut self, golden: GoldenRecord) {
        debug_assert_eq!(golden.interval as usize, self.snaps.len(), "one interval per capture");
        self.golden = golden;
    }

    /// Golden dyn count at each `SetRecovery` execution, by activation
    /// ordinal.
    pub(crate) fn activation_dyn(&self) -> &[u64] {
        &self.golden.activation_dyn
    }

    /// The `i`-th snapshot in capture order.
    pub(crate) fn get(&self, i: usize) -> Option<&Snapshot> {
        self.snaps.get(i).map(Arc::as_ref)
    }

    /// Index of the first snapshot captured at `dyn_insts >= d`.
    pub(crate) fn first_at_or_after_dyn(&self, d: u64) -> usize {
        self.snaps.partition_point(|s| s.dyn_insts() < d)
    }

    /// Sorted golden-written pages in the interval ending at snapshot
    /// `i` (empty when `i` is out of range or lists were not built).
    pub(crate) fn interval_pages(&self, i: usize) -> &[(u32, u32)] {
        self.interval_pages.get(i).map_or(&[][..], Vec::as_slice)
    }

    /// `true` when the golden run reads `cell` after snapshot `k`. A
    /// divergence confined to cells it does not read can never
    /// influence the golden suffix's execution: the dead-diff and SDC
    /// splice rules' key input.
    pub(crate) fn read_after(&self, k: usize, cell: (u32, u32)) -> bool {
        last(&self.golden.last_read, cell) as usize > k
    }

    /// `true` when the golden run writes `cell` after snapshot `k`. A
    /// dead divergent cell it writes is overwritten by the suffix and
    /// heals; one it does not write persists to the final state.
    pub(crate) fn written_after(&self, k: usize, cell: (u32, u32)) -> bool {
        last(&self.golden.last_write, cell) as usize > k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{run_function, run_function_with_snapshots, Machine, RunConfig};
    use crate::predecode::DecodedModule;
    use crate::value::Value;
    use encore_core::{Encore, EncoreConfig, InstrumentedModule};
    use encore_ir::{AddrExpr, BinOp, ExtEffect, FuncId, MemBase, Module, ModuleBuilder, Operand};

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
    fn a_cell_is_touched_after_the_snapshots_before_its_last_interval() {
        // Three captures: intervals 0 (before snapshot 0), 1, 2 and 3.
        let mut golden = GoldenRecord::default();
        golden.access(0, 0, false);
        golden.advance();
        golden.access(1, 3, false);
        golden.advance();
        golden.access(1, 2, false);
        golden.access(0, 1, true);
        golden.advance();
        golden.access(1, 3, false);
        let log = SnapshotLog { golden, ..SnapshotLog::new(1) };
        for k in 0..4 {
            assert!(!log.read_after(k, (0, 0)), "read before the first capture, k = {k}");
            // Interval 2 is after snapshots 0 and 1, not after 2.
            assert_eq!(log.read_after(k, (1, 2)), k <= 1, "k = {k}");
            assert_eq!(log.written_after(k, (0, 1)), k <= 1, "k = {k}");
            // The last of several intervals counts.
            assert_eq!(log.read_after(k, (1, 3)), k <= 2, "k = {k}");
            // Untouched: inside a grown table, past its end, past the
            // last object, or touched only the other way.
            for cell in [(1, 0), (0, 5), (7, 0), (0, 1)] {
                assert!(!log.read_after(k, cell), "{cell:?} read, k = {k}");
            }
            for cell in [(0, 0), (0, 5), (7, 0), (1, 2)] {
                assert!(!log.written_after(k, cell), "{cell:?} written, k = {k}");
            }
        }
    }

    /// Draws a PRNG value into a heap object, then runs a loop that
    /// rewrites four global cells per iteration and a loop that rewrites
    /// one per iteration through a callee with a slot, and prints. The
    /// first loop's checkpoint log is the larger, so a capture in the
    /// second has a high-water mark its suffix never reaches again.
    fn two_phase_kernel() -> Module {
        let mut mb = ModuleBuilder::new("two_phase");
        let tab = mb.global_init("tab", 4, vec![1, 2, 3, 4]);
        let acc = mb.global("acc", 1);
        let mix = mb.function("mix", 1, |f| {
            let s = f.slot(1);
            f.store(AddrExpr::slot(s, 0), f.param(0).into());
            let v = f.load(AddrExpr::slot(s, 0));
            let r = f.bin(BinOp::Mul, v.into(), Operand::ImmI(3));
            f.ret(Some(r.into()));
        });
        mb.function("main", 1, |f| {
            let n = f.param(0);
            let seed = f.call_ext("prng_range", &[Operand::ImmI(100)], ExtEffect::Opaque);
            let heap = f.alloc(Operand::ImmI(2));
            f.store(AddrExpr::reg(heap, 1), seed.into());
            f.for_range(Operand::ImmI(0), n.into(), |f, i| {
                for k in 0..4 {
                    let v = f.load(AddrExpr::global(tab, k));
                    let w = f.bin(BinOp::Add, v.into(), i.into());
                    f.store(AddrExpr::global(tab, k), w.into());
                }
            });
            f.for_range(Operand::ImmI(0), n.into(), |f, i| {
                let m = f.call(mix, &[i.into()]);
                let v = f.load(AddrExpr::global(acc, 0));
                let w = f.bin(BinOp::Add, v.into(), m.into());
                f.store(AddrExpr::global(acc, 0), w.into());
            });
            let h = f.load(AddrExpr::reg(heap, 1));
            f.call_ext_void("print_i64", &[h.into()], ExtEffect::Opaque);
            let a = f.load(AddrExpr::global(acc, 0));
            f.ret(Some(a.into()));
        });
        mb.finish()
    }

    /// A loop calling a function whose own loop rewrites a prefix of a
    /// global array, so captures land inside callee frames with a
    /// recovery armed.
    fn nested_kernel() -> Module {
        let mut mb = ModuleBuilder::new("nested");
        let buf = mb.global("buf", 16);
        let inner = mb.function("inner", 1, |f| {
            let n = f.param(0);
            f.for_range(Operand::ImmI(0), n.into(), |f, j| {
                let at = AddrExpr::indexed(MemBase::Global(buf), j, 1, 0);
                let v = f.load(at);
                let w = f.bin(BinOp::Add, v.into(), j.into());
                f.store(at, w.into());
            });
            f.ret(None);
        });
        mb.function("outer", 1, |f| {
            let n = f.param(0);
            f.for_range(Operand::ImmI(0), n.into(), |f, i| {
                let k = f.bin(BinOp::Rem, i.into(), Operand::ImmI(16));
                f.call(inner, &[k.into()]);
            });
            let v = f.load(AddrExpr::global(buf, 3));
            f.ret(Some(v.into()));
        });
        mb.finish()
    }

    /// [`two_phase_kernel`] at 24 and [`nested_kernel`] at 20,
    /// Encore-protected with every region armed, each with its entry and
    /// arguments.
    fn protected_kernels() -> Vec<(InstrumentedModule, FuncId, [Value; 1])> {
        [(two_phase_kernel(), 24), (nested_kernel(), 20)]
            .into_iter()
            .map(|(module, arg)| {
                let entry = FuncId::new(module.funcs.len() as u32 - 1);
                let args = [Value::Int(arg)];
                let train = run_function(
                    &module,
                    None,
                    entry,
                    &args,
                    &RunConfig { collect_profile: true, ..RunConfig::default() },
                );
                let outcome = Encore::new(EncoreConfig::default().with_overhead_budget(1e9))
                    .run(&module, train.profile.as_ref().expect("profile"));
                (outcome.instrumented, entry, args)
            })
            .collect()
    }

    /// Every field of a run survives capture and resume: a machine
    /// restored from any golden snapshot of an instrumented kernel runs
    /// to the same [`RunResult`](crate::RunResult) as the uninterrupted
    /// run, down to the counters no outcome reads.
    #[test]
    fn resumed_runs_equal_the_uninterrupted_run() {
        for (inst, entry, args) in protected_kernels() {
            let (m, map) = (&inst.module, Some(&inst.map));
            let config = RunConfig::default();
            let golden = run_function(m, map, entry, &args, &config);
            assert!(golden.completed && golden.ckpt_high_water_bytes > 0, "{}", m.name);
            let code = DecodedModule::new(m, map);
            let (_, log) = run_function_with_snapshots(m, map, &code, entry, &args, &config, 5);
            assert!(log.len() > 100, "{}: {} snapshots", m.name, log.len());
            for snap in &log.snaps {
                let mut resumed = Machine::from_snapshot(m, &code, map, snap, &config);
                let trap = resumed.run_to_end();
                let at = snap.dyn_insts();
                assert_eq!(resumed.into_result(trap), golden, "{}, from {at}", m.name);
            }
        }
    }

    /// The golden record answers by replay: a run resumed from snapshot
    /// `k` with a fresh record one interval in reads and writes exactly
    /// the cells the capture's record says the golden run reads and
    /// writes after snapshot `k`, over every cell of its final memory.
    #[test]
    fn the_golden_record_matches_a_replay_from_every_snapshot() {
        for (inst, entry, args) in protected_kernels() {
            let (m, map) = (&inst.module, Some(&inst.map));
            let config = RunConfig::default();
            let code = DecodedModule::new(m, map);
            let (_, log) = run_function_with_snapshots(m, map, &code, entry, &args, &config, 5);
            assert!(log.len() > 100, "{}: {} snapshots", m.name, log.len());
            let (mut reads, mut writes) = (0, 0);
            for (k, snap) in log.snaps.iter().enumerate() {
                let mut resumed = Machine::from_snapshot(m, &code, map, snap, &config);
                let mut fresh = GoldenRecord::default();
                fresh.advance();
                resumed.obs.golden = Some(Box::new(fresh));
                assert_eq!(resumed.run_to_end(), None, "{}, from snapshot {k}", m.name);
                let replay = resumed.obs.golden.take().expect("the record stays installed");
                let mem = resumed.mem();
                for obj in 0..mem.object_count() as u32 {
                    for idx in (0..).take_while(|&i| mem.read(obj, i.into()).is_ok()) {
                        let cell = (obj, idx);
                        let replayed = (
                            last(&replay.last_read, cell) == 1,
                            last(&replay.last_write, cell) == 1,
                        );
                        let recorded = (log.read_after(k, cell), log.written_after(k, cell));
                        assert_eq!(replayed, recorded, "{}: {cell:?} after snapshot {k}", m.name);
                        reads += usize::from(replayed.0);
                        writes += usize::from(replayed.1);
                    }
                }
            }
            assert!(reads > 0 && writes > 0, "{}: the replays touched nothing", m.name);
        }
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
