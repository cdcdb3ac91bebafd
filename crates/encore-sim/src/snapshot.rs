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
//! [`State`], cloned at capture and cloned back at
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
//! Snapshots are immutable once captured: a campaign's worker threads
//! borrow the same log and restore from it without copying it per
//! worker.
//!
//! Beside the snapshots, the log keeps what the divergence splice asks
//! of the golden suffix, all of it computed once, by the capture run:
//!
//! * the capture run's [`GoldenRecord`]: its activation timeline, the
//!   last inter-snapshot interval that wrote each memory cell, and
//!   whether the golden run's first access to a cell after a snapshot
//!   is a read;
//! * the registers live at each frame position a snapshot stands at,
//!   from register liveness over the position's function, so the
//!   splice gate compares only registers the program can still read.

use crate::interp::State;
use encore_analysis::{BitSet, Liveness};
use encore_ir::{BlockId, FuncId, Module, Terminator};
use std::collections::BTreeMap;

/// What the golden capture run records for the divergence splice: its
/// activation timeline, the last interval that wrote each memory cell,
/// and the kind of each cell's first access in every interval that
/// touched it.
///
/// Interval 0 runs from the start of the run to the first capture, and
/// interval `k + 1` from capture `k` to the next capture or the end. The
/// golden run writes a cell after snapshot `k` exactly when its last
/// write interval is greater than `k`, and its first access to the cell
/// after snapshot `k` is the first access of the earliest interval
/// greater than `k` that touched it.
#[derive(Debug, Default)]
pub(crate) struct GoldenRecord {
    /// The current interval: the number of captures so far.
    interval: u32,
    /// Dynamic instruction count at each golden `SetRecovery`, by
    /// activation ordinal. The convergence splice realigns a
    /// rolled-back run's dyn-count timeline with the golden run's on
    /// it.
    activation_dyn: Vec<u64>,
    /// The last interval that wrote and that touched each cell, by
    /// object handle, then cell index.
    last: Vec<Vec<LastAccess>>,
    /// `(object, cell, interval << 1 | read)` for the first access to
    /// each cell in each interval from 1 on, in capture order, where
    /// `read` says that access was a read. Capture only;
    /// [`GoldenRecord::bucket`] moves it into `first`.
    log: Vec<(u32, u32, u32)>,
    /// The log bucketed by cell, for [`SnapshotLog::live_after`].
    first: FirstAccesses,
}

/// A cell's stamps in the golden record. The table grows on demand and
/// fills with 0, and 0 is exact for a cell the run never touched as well
/// as for one it touched only before the first capture: neither is
/// touched after any snapshot.
#[derive(Clone, Copy, Default, Debug)]
struct LastAccess {
    /// The last interval that wrote the cell.
    write: u32,
    /// The last interval that read or wrote it: an access is its
    /// interval's first to the cell exactly when this is older.
    touch: u32,
}

/// The golden record's first-access log bucketed by cell. Cells are
/// numbered flat: object `o` owns the ids `base[o]..base[o + 1]`.
#[derive(Debug, Default)]
struct FirstAccesses {
    /// The flat id of each object's cell 0, and one past the last id.
    base: Vec<u32>,
    /// Cell `c`'s stamps are `stamps[start[c]..start[c + 1]]`.
    start: Vec<u32>,
    /// `interval << 1 | read`, grouped by cell, each group in interval
    /// order.
    stamps: Vec<u32>,
}

impl GoldenRecord {
    /// Closes the current interval: the run was captured here.
    pub(crate) fn advance(&mut self) {
        assert!(self.interval < u32::MAX >> 1, "fewer than 2^31 captures");
        self.interval += 1;
    }

    /// Notes one `SetRecovery` retired at dynamic instruction `now`.
    pub(crate) fn activation(&mut self, now: u64) {
        self.activation_dyn.push(now);
    }

    /// Notes one read or write of cell `(obj, idx)` in the current
    /// interval. Interval 0 logs nothing: its stamp is the table's fill
    /// value, and no snapshot precedes it.
    pub(crate) fn access(&mut self, obj: u32, idx: u32, write: bool) {
        let last = &mut self.last;
        let o = obj as usize;
        if last.len() <= o {
            last.resize_with(o + 1, Vec::new);
        }
        let cells = &mut last[o];
        let i = idx as usize;
        if cells.len() <= i {
            cells.resize(i + 1, LastAccess::default());
        }
        let cell = &mut cells[i];
        if write {
            cell.write = self.interval;
        }
        if cell.touch < self.interval {
            cell.touch = self.interval;
            self.log.push((obj, idx, self.interval << 1 | u32::from(!write)));
        }
    }

    /// The last interval that wrote cell `(obj, idx)`.
    fn last_write(&self, (obj, idx): (u32, u32)) -> u32 {
        self.last.get(obj as usize).and_then(|cells| cells.get(idx as usize)).map_or(0, |c| c.write)
    }

    /// Buckets the first-access log by cell with a counting sort. The
    /// log lists each cell's intervals in increasing order, and the
    /// sort is stable, so each bucket does too.
    fn bucket(&mut self) {
        let mut base = Vec::with_capacity(self.last.len() + 1);
        let mut cells = 0u32;
        for object in &self.last {
            base.push(cells);
            cells += u32::try_from(object.len()).expect("fewer than 2^32 cells");
        }
        base.push(cells);
        let log = std::mem::take(&mut self.log);
        let flat = |obj: u32, idx: u32| (base[obj as usize] + idx) as usize;
        // Count each cell's entries, sum them up to each bucket's end,
        // then fill every bucket from its end backwards, walking the log
        // backwards: each `start[c]` ends at its bucket's beginning.
        let mut start = vec![0u32; cells as usize + 1];
        for &(obj, idx, _) in &log {
            start[flat(obj, idx)] += 1;
        }
        let mut sum = 0;
        for s in &mut start {
            sum += *s;
            *s = sum;
        }
        let mut stamps = vec![0u32; log.len()];
        for &(obj, idx, stamp) in log.iter().rev() {
            let c = flat(obj, idx);
            start[c] -= 1;
            stamps[start[c] as usize] = stamp;
        }
        self.first = FirstAccesses { base, start, stamps };
    }
}

/// Where a frame stands: its function, block and instruction index.
pub(crate) type Position = (FuncId, BlockId, usize);

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
    snaps: Vec<Snapshot>,
    stride: u64,
    /// The golden run's activation timeline, last write intervals and
    /// first accesses (empty when capture is disabled).
    golden: GoldenRecord,
    /// The registers live at each frame position a snapshot stands at,
    /// by register index.
    live_regs: BTreeMap<Position, Box<[u32]>>,
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
            live_regs: BTreeMap::new(),
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
        self.snaps.push(Snapshot { index: self.snaps.len(), state });
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
    pub fn nearest_at_or_before(&self, ordinal: u64) -> Option<&Snapshot> {
        let n = self.snaps.partition_point(|s| s.eligible_seen() <= ordinal);
        n.checked_sub(1).map(|i| &self.snaps[i])
    }

    /// Ends the capture: installs the record the capture run filled,
    /// bucketing its first accesses by cell, and computes the registers
    /// live at each position of `module` a snapshot's frame stands at.
    /// A position's live registers are its block's live-out and its
    /// terminator's uses, walked back over the instructions from the
    /// position's on, each removing its def and adding its uses.
    /// Positions are visited in descending order, so one walk back from
    /// a block's end serves all of the block's positions. A caller frame
    /// stands just past its `Call`, so its callee's return is a write
    /// the walk does not see, which only keeps more registers live.
    pub(crate) fn finish(&mut self, module: &Module, mut golden: GoldenRecord) {
        debug_assert_eq!(golden.interval as usize, self.snaps.len(), "one interval per capture");
        golden.bucket();
        self.golden = golden;
        for snap in &self.snaps {
            for frame in &snap.state.control.frames {
                self.live_regs.entry(frame.position()).or_default();
            }
        }
        let mut liveness: Option<(FuncId, Liveness)> = None;
        // The block the last walk was in, the instruction it reached
        // and the registers live there.
        let mut walk: Option<(FuncId, BlockId, usize, BitSet)> = None;
        for (&(func, block, ip), live_here) in self.live_regs.iter_mut().rev() {
            let f = module.func(func);
            if liveness.as_ref().is_none_or(|(id, _)| *id != func) {
                liveness = Some((func, Liveness::compute(f)));
            }
            let b = f.block(block);
            let (from, mut live) = match walk.take() {
                Some((wf, wb, from, live)) if (wf, wb) == (func, block) => (from, live),
                _ => {
                    let lv = &liveness.as_ref().expect("computed above").1;
                    let mut live = BitSet::new(f.reg_count as usize);
                    let out = lv.live_out(block).into_iter();
                    for r in out.chain(b.term.iter().flat_map(Terminator::uses)) {
                        live.insert(r.index());
                    }
                    (b.insts.len(), live)
                }
            };
            for inst in b.insts[ip..from].iter().rev() {
                if let Some(d) = inst.def() {
                    live.remove(d.index());
                }
                for u in inst.uses() {
                    live.insert(u.index());
                }
            }
            *live_here = live.iter().map(|r| r as u32).collect();
            walk = Some((func, block, ip, live));
        }
    }

    /// The registers live at frame position `at`, when a snapshot
    /// stands there. On every path from `at`, every other register is
    /// written before it is read, or never read, so its value cannot
    /// influence the run.
    pub(crate) fn live_regs(&self, at: Position) -> Option<&[u32]> {
        self.live_regs.get(&at).map(|live| &live[..])
    }

    /// Golden dyn count at each `SetRecovery` execution, by activation
    /// ordinal.
    pub(crate) fn activation_dyn(&self) -> &[u64] {
        &self.golden.activation_dyn
    }

    /// The `i`-th snapshot in capture order.
    pub(crate) fn get(&self, i: usize) -> Option<&Snapshot> {
        self.snaps.get(i)
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

    /// `true` when the golden run's first access to `cell` after
    /// snapshot `k` is a read. A cell the golden suffix never touches,
    /// or first overwrites, is dead: a divergence confined to dead cells
    /// can never influence the suffix's execution, which is the
    /// dead-diff and SDC splice rules' key input.
    pub(crate) fn live_after(&self, k: usize, (obj, idx): (u32, u32)) -> bool {
        let FirstAccesses { base, start, stamps } = &self.golden.first;
        let o = obj as usize;
        let Some(c) = base
            .get(o..o + 2)
            .and_then(|ends| (idx < ends[1] - ends[0]).then_some((ends[0] + idx) as usize))
        else {
            return false;
        };
        let bucket = &stamps[start[c] as usize..start[c + 1] as usize];
        let after = bucket.partition_point(|&stamp| (stamp >> 1) as usize <= k);
        bucket.get(after).is_some_and(|&stamp| stamp & 1 == 1)
    }

    /// `true` when the golden run writes `cell` after snapshot `k`. A
    /// dead divergent cell it writes is overwritten by the suffix and
    /// heals; one it does not write persists to the final state.
    pub(crate) fn written_after(&self, k: usize, cell: (u32, u32)) -> bool {
        self.golden.last_write(cell) as usize > k
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
    fn live_after_reads_the_first_access_after_each_snapshot() {
        // Three captures: intervals 0 (before snapshot 0), 1, 2 and 3.
        let mut golden = GoldenRecord::default();
        golden.access(0, 0, false);
        golden.advance();
        // Interval 1: a write then a read, and a read then a write.
        golden.access(1, 0, true);
        golden.access(1, 0, false);
        golden.access(1, 1, false);
        golden.access(1, 1, true);
        golden.advance();
        // Interval 2: a read, overwritten first in interval 3.
        golden.access(1, 3, false);
        golden.advance();
        // Interval 3: a cell's first access, and a write then a read.
        golden.access(1, 2, false);
        golden.access(1, 3, true);
        golden.access(1, 3, false);
        golden.bucket();
        let log = SnapshotLog { golden, ..SnapshotLog::new(1) };
        // Per cell: `live_after(k)` for snapshots 0 to 3.
        let table: [((u32, u32), [bool; 4]); 7] = [
            // A write then a read in one interval is dead.
            ((1, 0), [false; 4]),
            // A read then a write is live.
            ((1, 1), [true, false, false, false]),
            // First touched two intervals later: live from there on back.
            ((1, 2), [true, true, true, false]),
            // Read in interval 2, first overwritten in interval 3.
            ((1, 3), [true, true, false, false]),
            // Untouched: read only before the first capture, inside a
            // grown table, past its end, past the last object.
            ((0, 0), [false; 4]),
            ((0, 5), [false; 4]),
            ((7, 0), [false; 4]),
        ];
        for (cell, live) in table {
            for (k, &expected) in live.iter().enumerate() {
                assert_eq!(log.live_after(k, cell), expected, "{cell:?} after snapshot {k}");
            }
        }
        for k in 0..4 {
            assert_eq!(log.written_after(k, (1, 0)), k == 0, "k = {k}");
            assert_eq!(log.written_after(k, (1, 3)), k <= 2, "k = {k}");
            assert!(!log.written_after(k, (1, 2)), "k = {k}");
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
    /// `k` with a fresh record one interval in first reads exactly the
    /// cells the capture's record calls live after snapshot `k`, and
    /// writes exactly the cells it says the golden run writes after
    /// `k`, over every cell of its final memory.
    #[test]
    fn the_golden_record_matches_a_replay_from_every_snapshot() {
        for (inst, entry, args) in protected_kernels() {
            let (m, map) = (&inst.module, Some(&inst.map));
            let config = RunConfig::default();
            let code = DecodedModule::new(m, map);
            let (_, log) = run_function_with_snapshots(m, map, &code, entry, &args, &config, 5);
            assert!(log.len() > 100, "{}: {} snapshots", m.name, log.len());
            let (mut live, mut dead, mut writes) = (0, 0, 0);
            for (k, snap) in log.snaps.iter().enumerate() {
                let mut resumed = Machine::from_snapshot(m, &code, map, snap, &config);
                let mut fresh = GoldenRecord::default();
                fresh.advance();
                resumed.obs.golden = Some(Box::new(fresh));
                assert_eq!(resumed.run_to_end(), None, "{}, from snapshot {k}", m.name);
                let replay = resumed.obs.golden.take().expect("the record stays installed");
                // Whether the replay's first access to each cell it
                // touched was a read.
                let mut first_read = std::collections::HashMap::new();
                for &(obj, idx, stamp) in &replay.log {
                    first_read.entry((obj, idx)).or_insert(stamp & 1 == 1);
                }
                let mem = resumed.mem();
                for obj in 0..mem.object_count() as u32 {
                    for idx in (0..).take_while(|&i| mem.read(obj, i.into()).is_ok()) {
                        let cell = (obj, idx);
                        let touched = first_read.get(&cell).copied();
                        let replayed = (touched == Some(true), replay.last_write(cell) == 1);
                        let recorded = (log.live_after(k, cell), log.written_after(k, cell));
                        assert_eq!(replayed, recorded, "{}: {cell:?} after snapshot {k}", m.name);
                        live += usize::from(touched == Some(true));
                        dead += usize::from(touched == Some(false));
                        writes += usize::from(replayed.1);
                    }
                }
            }
            assert!(live > 0 && dead > 0 && writes > 0, "{}: {live}, {dead}, {writes}", m.name);
        }
    }

    /// The registers the capture calls dead at a frame's position are
    /// dead: a run resumed from any snapshot with every dead register of
    /// every frame overwritten with junk, an int one and a float one,
    /// still ends in the uninterrupted run's
    /// [`RunResult`](crate::RunResult).
    #[test]
    fn overwriting_dead_registers_never_changes_a_resumed_run() {
        for junk in [Value::Int(0x5EED_F00D), Value::Float(-3.5e300)] {
            for (inst, entry, args) in protected_kernels() {
                let (m, map) = (&inst.module, Some(&inst.map));
                let config = RunConfig::default();
                let golden = run_function(m, map, entry, &args, &config);
                let code = DecodedModule::new(m, map);
                let (_, log) = run_function_with_snapshots(m, map, &code, entry, &args, &config, 5);
                let mut overwritten = 0;
                for snap in &log.snaps {
                    let mut resumed = Machine::from_snapshot(m, &code, map, snap, &config);
                    for frame in &mut resumed.state.control.frames {
                        let live = log.live_regs(frame.position()).expect("each frame's mask");
                        for (r, reg) in frame.regs_mut().iter_mut().enumerate() {
                            if !live.contains(&(r as u32)) {
                                *reg = junk;
                                overwritten += 1;
                            }
                        }
                    }
                    let trap = resumed.run_to_end();
                    let at = snap.dyn_insts();
                    let what = format!("{}, from {at}, {junk:?}", m.name);
                    assert_eq!(resumed.into_result(trap), golden, "{what}");
                }
                assert!(overwritten > 0, "{}: no register was dead", m.name);
            }
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
