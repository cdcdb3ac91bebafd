//! Segmented machine memory.
//!
//! Memory is a table of objects (globals, per-activation stack slots,
//! heap allocations), each an array of cells. A cell holds one
//! [`Value`]: a tagged 64-bit integer, float or pointer, 16 bytes in
//! all. Object handles are `u32` indices into the table, minted only by
//! [`Memory::alloc`], which traps rather than let the table outgrow
//! them; objects are never deallocated (arena style), which keeps
//! dangling-pointer semantics deterministic during fault-injection runs.
//!
//! ## Dirty tracking and copy-on-write
//!
//! Cell arrays live behind `Arc` so cloning a `Memory` (snapshot
//! capture, per-injection resume) is a table of refcount bumps, not an
//! O(state) copy; the first write to an object after a clone pays a
//! one-time copy of that object only. Every write also sets a bit in a
//! per-object, per-page (64-cell) dirty bitmap, and newly allocated
//! objects start fully dirty. [`Memory::drain_dirty_pages`] hands the
//! accumulated dirty page set to the splice's incremental compare
//! ([`Memory::diff_cells_dirty`]) and clears it, so repeated probes
//! cost O(pages written since the last probe) instead of O(state).

use crate::value::Value;
use encore_ir::{Cell, Module, ObjKind, MAX_OBJECT_CELLS};
use std::sync::Arc;

/// Cells per dirty-tracking page (one `u64` bitmap word per page).
pub const PAGE_CELLS: usize = 64;

/// One memory object.
#[derive(Clone, Debug)]
pub struct MemObject {
    /// What the object is (for trace events and debugging).
    pub kind: ObjKind,
    /// The cells, shared copy-on-write across snapshots and resumed
    /// runs.
    cells: Arc<[Value]>,
    /// One bit per cell, one word per [`PAGE_CELLS`]-cell page; bit set
    /// = cell written since the last drain/reset.
    dirty: Vec<u64>,
    /// Pages whose dirty word went 0 → nonzero since the last
    /// drain/reset, so draining is O(dirty pages), not O(pages).
    touched: Vec<u32>,
}

impl MemObject {
    /// The object's cells.
    #[must_use]
    pub fn cells(&self) -> &[Value] {
        &self.cells
    }

    /// `true` when the two objects have the same kind variant (global,
    /// slot or heap) and cell count: the shape the state compares check.
    /// The numbers inside the kind only name the object — no
    /// instruction reads them — so two runs that allocated the same
    /// objects under different activation or allocation numbers compare
    /// cell by cell.
    fn same_shape(&self, other: &Self) -> bool {
        std::mem::discriminant(&self.kind) == std::mem::discriminant(&other.kind)
            && self.cells.len() == other.cells.len()
    }
}

/// Equality is contents-only: the dirty bookkeeping is a comparison
/// accelerator, never part of the architectural state.
impl PartialEq for MemObject {
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind && self.cells == other.cells
    }
}

/// A memory access error.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MemError {
    /// Description (object, index, bound).
    pub message: String,
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for MemError {}

// Error texts are built out of line, so that inlining `read` and
// `write` into the interpreter loop copies only their `Ok` paths.

#[cold]
#[inline(never)]
fn dangling(access: &str, handle: u32) -> MemError {
    MemError { message: format!("{access} dangling object handle {handle}") }
}

#[cold]
#[inline(never)]
fn out_of_bounds(access: &str, obj: &MemObject, idx: i64) -> MemError {
    MemError {
        message: format!("out-of-bounds {access}: {}[{idx}] (size {})", obj.kind, obj.cells.len()),
    }
}

/// The copy-on-write step of [`Memory::write`]: the first write to an
/// object whose cells a snapshot still shares copies them.
#[cold]
#[inline(never)]
fn write_shared(cells: &mut Arc<[Value]>, i: usize, v: Value) {
    Arc::make_mut(cells)[i] = v;
}

#[cold]
#[inline(never)]
fn handles_exhausted(kind: ObjKind) -> MemError {
    MemError {
        message: format!("cannot allocate {kind}: all {} object handles are in use", 1u64 << 32),
    }
}

#[cold]
#[inline(never)]
fn cells_exhausted(kind: ObjKind, cells: usize, used: usize) -> MemError {
    let message = if let ObjKind::Heap(_) = kind {
        format!(
            "alloc of {cells} cells exceeds the heap's {MAX_OBJECT_CELLS}-cell bound \
             ({used} in use)"
        )
    } else {
        format!(
            "slot of {cells} cells exceeds the {MAX_OBJECT_CELLS}-cell bound on heap and slot \
             cells ({used} in use)"
        )
    };
    MemError { message }
}

/// The machine's memory state.
#[derive(Clone, Debug)]
pub struct Memory {
    objects: Vec<MemObject>,
    /// Number of globals (the first `global_count` objects).
    global_count: usize,
    /// Cells charged to heap and slot objects, at least one each: the
    /// total [`Memory::alloc`] bounds.
    alloc_cells: usize,
    /// Objects with a nonempty `touched` list (drain work list).
    touched_objs: Vec<u32>,
}

/// Equality is architectural state only (objects and segmentation);
/// dirty bookkeeping is excluded.
impl PartialEq for Memory {
    fn eq(&self, other: &Self) -> bool {
        self.global_count == other.global_count && self.objects == other.objects
    }
}

impl Memory {
    /// Creates memory with one object per module global, applying
    /// declared initializers. The fresh memory is dirty-clean: its
    /// baseline is the initial state itself.
    pub fn for_module(module: &Module) -> Self {
        let objects = module
            .globals
            .iter()
            .enumerate()
            .map(|(i, g)| {
                let cells: Arc<[Value]> = (0..g.cells as usize)
                    .map(|j| g.init.get(j).map_or(Value::ZERO, |&v| Value::Int(v)))
                    .collect();
                MemObject {
                    kind: ObjKind::Global(i as u32),
                    dirty: vec![0; cells.len().div_ceil(PAGE_CELLS)],
                    touched: Vec::new(),
                    cells,
                }
            })
            .collect();
        Self {
            objects,
            global_count: module.globals.len(),
            alloc_cells: 0,
            touched_objs: Vec::new(),
        }
    }

    /// Allocates a fresh object of `cells` cells, returning its handle.
    ///
    /// The new object starts *fully dirty*: its contents have never
    /// been verified against anything, so every page must be a
    /// candidate at the next incremental compare.
    ///
    /// # Errors
    ///
    /// A [`MemError`] when every `u32` handle is in use (the table never
    /// hands out a truncated handle), or when the object would take the
    /// heap and slot objects past [`MAX_OBJECT_CELLS`] cells in total.
    /// The bound is checked before allocating: a faulted size can ask
    /// for more memory than the host has, deep calls can push many
    /// large slots, and a failed host allocation aborts the process
    /// instead of trapping. An object of zero cells is charged one, so
    /// the bound also caps the object table, whose entries cost the
    /// host memory even when empty.
    pub fn alloc(&mut self, kind: ObjKind, cells: usize) -> Result<u32, MemError> {
        let handle = u32::try_from(self.objects.len()).map_err(|_| handles_exhausted(kind))?;
        let used = self.alloc_cells;
        let charge = cells.max(1);
        if charge > MAX_OBJECT_CELLS as usize - used {
            return Err(cells_exhausted(kind, cells, used));
        }
        self.alloc_cells += charge;
        let pages = cells.div_ceil(PAGE_CELLS);
        self.objects.push(MemObject {
            kind,
            cells: std::iter::repeat_n(Value::ZERO, cells).collect(),
            dirty: vec![!0u64; pages],
            touched: (0..pages as u32).collect(),
        });
        if pages > 0 {
            self.touched_objs.push(handle);
        }
        Ok(handle)
    }

    /// Reads cell `idx` of object `handle`.
    ///
    /// # Errors
    ///
    /// Out-of-bounds or negative indices and dangling handles produce a
    /// [`MemError`] (the simulator turns it into a detected symptom).
    #[inline(always)]
    pub fn read(&self, handle: u32, idx: i64) -> Result<Value, MemError> {
        let Some(obj) = self.objects.get(handle as usize) else {
            return Err(dangling("read from", handle));
        };
        match usize::try_from(idx).ok().and_then(|i| obj.cells.get(i)) {
            Some(&v) => Ok(v),
            None => Err(out_of_bounds("read", obj, idx)),
        }
    }

    /// Writes cell `idx` of object `handle`.
    ///
    /// The single mutation funnel: every store — program, fault
    /// corruption, rollback restore — lands here, which is what makes
    /// the dirty bitmap a sound over-approximation of "cells that can
    /// differ from the resume baseline". The bit set is word-indexed
    /// and branch-free on the already-dirty path.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Memory::read`].
    #[inline(always)]
    pub fn write(&mut self, handle: u32, idx: i64, v: Value) -> Result<(), MemError> {
        let Some(obj) = self.objects.get_mut(handle as usize) else {
            return Err(dangling("write to", handle));
        };
        let i = match usize::try_from(idx) {
            Ok(i) if i < obj.cells.len() => i,
            _ => return Err(out_of_bounds("write", obj, idx)),
        };
        match Arc::get_mut(&mut obj.cells) {
            Some(cells) => cells[i] = v,
            None => write_shared(&mut obj.cells, i, v),
        }
        let w = &mut obj.dirty[i / PAGE_CELLS];
        if *w == 0 {
            if obj.touched.is_empty() {
                self.touched_objs.push(handle);
            }
            obj.touched.push((i / PAGE_CELLS) as u32);
        }
        *w |= 1 << (i % PAGE_CELLS);
        Ok(())
    }

    /// Appends every dirty `(object, page)` pair to `out` (unsorted)
    /// and clears the dirty set — O(dirty pages).
    pub fn drain_dirty_pages(&mut self, out: &mut Vec<(u32, u32)>) {
        for &h in &self.touched_objs {
            let obj = &mut self.objects[h as usize];
            for &p in &obj.touched {
                obj.dirty[p as usize] = 0;
                out.push((h, p));
            }
            obj.touched.clear();
        }
        self.touched_objs.clear();
    }

    /// Clears the dirty set without reporting it — the reset at a
    /// resume boundary, where the restored snapshot *is* the baseline.
    pub fn reset_dirty(&mut self) {
        for &h in &self.touched_objs {
            let obj = &mut self.objects[h as usize];
            for &p in &obj.touched {
                obj.dirty[p as usize] = 0;
            }
            obj.touched.clear();
        }
        self.touched_objs.clear();
    }

    /// The trace-event cell identity for `(handle, idx)`.
    pub fn cell_of(&self, handle: u32, idx: i64) -> Cell {
        let kind = self
            .objects
            .get(handle as usize)
            .map(|o| o.kind)
            .unwrap_or(ObjKind::Heap(u32::MAX));
        Cell { obj: kind, index: idx.max(0) as u64 }
    }

    /// Snapshot of all global objects (the architecturally observable
    /// state compared against golden runs).
    pub fn globals_snapshot(&self) -> Vec<Vec<Value>> {
        self.objects[..self.global_count]
            .iter()
            .map(|o| o.cells.to_vec())
            .collect()
    }

    /// Compares the global objects against a previously taken
    /// [`Memory::globals_snapshot`] without allocating — the hot
    /// classification path of fault-injection campaigns.
    pub fn globals_equal(&self, golden: &[Vec<Value>]) -> bool {
        self.global_count == golden.len()
            && self.objects[..self.global_count]
                .iter()
                .zip(golden)
                .all(|(o, g)| *o.cells == **g)
    }

    /// Total number of objects ever created.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// `true` when `handle` names a global object (the architecturally
    /// observable segment).
    pub fn is_global(&self, handle: u32) -> bool {
        (handle as usize) < self.global_count
    }

    /// Collects into `out` every `(object, cell)` where `self` and
    /// `other` disagree, up to `cap` cells.
    ///
    /// Returns `false` — leaving `out` in an unspecified state — when
    /// the two memories are not cell-comparable (different object
    /// counts, kind variants or sizes) or the diff exceeds `cap`; `true`
    /// means `out` is the *complete* diff. The numbers inside an
    /// object's [`ObjKind`] only name it, so two objects that differ
    /// only there are compared cell by cell. The divergence splice
    /// treats `false` as "cannot certify", so the bound is a performance
    /// cap, never a soundness concern.
    ///
    /// This is the full-scan reference compare — O(state). The splice
    /// probes with [`Memory::diff_cells_dirty`], which short-circuits
    /// through the dirty bitmap and golden interval page lists to visit
    /// only pages that can possibly differ; debug builds check every
    /// probe's verdict and diff against this walk.
    pub fn diff_cells(&self, other: &Memory, cap: usize, out: &mut Vec<(u32, u32)>) -> bool {
        out.clear();
        if self.objects.len() != other.objects.len() || self.global_count != other.global_count {
            return false;
        }
        for (h, (a, b)) in self.objects.iter().zip(other.objects.iter()).enumerate() {
            if !a.same_shape(b) {
                return false;
            }
            if a.cells == b.cells {
                continue;
            }
            for (i, (va, vb)) in a.cells.iter().zip(b.cells.iter()).enumerate() {
                if va != vb {
                    if out.len() == cap {
                        return false;
                    }
                    out.push((h as u32, i as u32));
                }
            }
        }
        true
    }

    /// Incremental variant of [`Memory::diff_cells`]: compares `self`
    /// (a resumed injection run) against `golden` (a golden snapshot's
    /// memory) word by word, touching only the candidate pages in
    /// `pending`.
    ///
    /// `pending` must be sorted, deduplicated, and contain every page
    /// where equality with `golden` is not already established: pages
    /// the run wrote since the last compare (drained dirty set), pages
    /// the golden run wrote between the previous probe target and this
    /// one (interval page lists), and pages of objects allocated on
    /// either side since the resume base (allocation marks the new
    /// object fully dirty). Any page outside `pending` is
    /// bitwise-identical on both sides to the same baseline bytes and
    /// therefore equal, because `Value` equality is reflexive. On
    /// return, `pending` has been pruned to the pages that still
    /// differ — carried to the next probe, repeated compares are
    /// incremental.
    ///
    /// `base_objects` is the object count at the run's resume snapshot:
    /// objects below it are shape-identical by construction (handles
    /// are never reused and kind/size never change after allocation),
    /// so the shape check is O(objects allocated since resume).
    ///
    /// Verdict and diff contract are identical to `diff_cells`:
    /// `false` = incomparable (shape mismatch or diff past `cap`),
    /// `true` = `out` is the complete diff in ascending `(object,
    /// cell)` order. Every candidate is word-compared under the same
    /// `Value` equality the full scan uses, so the diff is exact by
    /// construction.
    pub fn diff_cells_dirty(
        &self,
        golden: &Memory,
        pending: &mut Vec<(u32, u32)>,
        base_objects: usize,
        cap: usize,
        out: &mut Vec<(u32, u32)>,
        cost: &mut ProbeCost,
    ) -> bool {
        out.clear();
        if self.objects.len() != golden.objects.len() || self.global_count != golden.global_count {
            return false;
        }
        for h in base_objects..self.objects.len() {
            if !self.objects[h].same_shape(&golden.objects[h]) {
                return false;
            }
        }
        debug_assert!(pending.windows(2).all(|w| w[0] < w[1]), "pending must be sorted+dedup");
        let mut write = 0usize;
        let mut i = 0usize;
        while i < pending.len() {
            let (obj, page) = pending[i];
            i += 1;
            let a = &self.objects[obj as usize];
            let b = &golden.objects[obj as usize];
            let start = page as usize * PAGE_CELLS;
            let end = (start + PAGE_CELLS).min(a.cells.len());
            debug_assert!(start < a.cells.len(), "pending page out of object bounds");
            let run = &a.cells[start..end];
            let gold = &b.cells[start..end];
            cost.pages_hashed += 1;
            cost.words_compared += run.len() as u64;
            let before = out.len();
            let mut capped = false;
            for (j, (va, vb)) in run.iter().zip(gold.iter()).enumerate() {
                if va != vb {
                    if out.len() == cap {
                        capped = true;
                        break;
                    }
                    out.push((obj, (start + j) as u32));
                }
            }
            if out.len() == before && !capped {
                // Bitwise-equal: equality established, prune. A later
                // run write
                // re-dirties the page; a later golden write re-enters
                // it via the interval lists.
                continue;
            }
            pending[write] = (obj, page);
            write += 1;
            if capped {
                // Keep the unprocessed tail as candidates and bail.
                for k in i..pending.len() {
                    pending[write] = pending[k];
                    write += 1;
                }
                pending.truncate(write);
                out.clear();
                return false;
            }
        }
        pending.truncate(write);
        true
    }
}

/// Splice probe cost counters: how much work the state compares did,
/// and how much the campaign memo saved.
///
/// Telemetry only — two campaign runs that classify every injection
/// identically are the *same result* regardless of how many pages each
/// probe compared, so `ProbeCost` compares equal to any other `ProbeCost`
/// and report equality does not depend on compare footprints (or probe
/// schedules). Unlike the outcomes, the counters depend on how a
/// campaign's injections are sharded: each shard's memo answers only
/// from that shard's earlier runs.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProbeCost {
    /// Splice probes attempted (classification attempts at a golden
    /// snapshot).
    pub probes: u64,
    /// Candidate pages examined by the incremental compare.
    pub pages_hashed: u64,
    /// Cells compared word-by-word against the golden snapshot.
    pub words_compared: u64,
    /// Runs the campaign memo answered at their first probe, from an
    /// earlier injection of the same shard that stood in the same state.
    pub memo_hits: u64,
    /// Dynamic instructions those runs did not execute past their first
    /// probe.
    pub memo_insts_skipped: u64,
}

impl ProbeCost {
    /// Accumulates another shard's counters.
    pub fn merge(&mut self, other: &Self) {
        self.probes += other.probes;
        self.pages_hashed += other.pages_hashed;
        self.words_compared += other.words_compared;
        self.memo_hits += other.memo_hits;
        self.memo_insts_skipped += other.memo_insts_skipped;
    }
}

impl PartialEq for ProbeCost {
    fn eq(&self, _: &Self) -> bool {
        true // cost is not part of a campaign's result; see type docs
    }
}

impl Eq for ProbeCost {}

#[cfg(test)]
mod tests {
    use super::*;
    use encore_ir::ModuleBuilder;

    fn mem() -> Memory {
        let mut mb = ModuleBuilder::new("m");
        mb.global_init("a", 4, vec![1, 2]);
        mb.global("b", 2);
        Memory::for_module(&mb.finish())
    }

    #[test]
    fn globals_initialized() {
        let m = mem();
        assert_eq!(m.read(0, 0).unwrap(), Value::Int(1));
        assert_eq!(m.read(0, 1).unwrap(), Value::Int(2));
        assert_eq!(m.read(0, 2).unwrap(), Value::ZERO);
        assert_eq!(m.read(1, 0).unwrap(), Value::ZERO);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = mem();
        m.write(1, 1, Value::Float(2.5)).unwrap();
        assert_eq!(m.read(1, 1).unwrap(), Value::Float(2.5));
    }

    #[test]
    fn bounds_checked() {
        let mut m = mem();
        assert!(m.read(0, 4).is_err());
        assert!(m.read(0, -1).is_err());
        assert!(m.write(0, 100, Value::ZERO).is_err());
        assert!(m.read(99, 0).is_err());
    }

    #[test]
    fn alloc_extends_object_table() {
        let mut m = mem();
        let h = m.alloc(ObjKind::Heap(0), 3).unwrap();
        assert_eq!(h, 2);
        m.write(h, 2, Value::Int(9)).unwrap();
        assert_eq!(m.read(h, 2).unwrap(), Value::Int(9));
        assert_eq!(m.object_count(), 3);
    }

    #[test]
    fn snapshot_covers_globals_only() {
        let mut m = mem();
        m.alloc(ObjKind::Heap(0), 8).unwrap();
        let snap = m.globals_snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0][0], Value::Int(1));
    }

    #[test]
    fn globals_equal_mirrors_snapshot() {
        let mut m = mem();
        let snap = m.globals_snapshot();
        assert!(m.globals_equal(&snap));
        m.write(1, 0, Value::Int(5)).unwrap();
        assert!(!m.globals_equal(&snap));
        m.write(1, 0, Value::ZERO).unwrap();
        m.alloc(ObjKind::Heap(0), 4).unwrap(); // heap objects are not observable
        assert!(m.globals_equal(&snap));
        assert!(!m.globals_equal(&snap[..1]));
    }

    #[test]
    fn diff_cells_enumerates_divergence() {
        let mut a = mem();
        let b = mem();
        let mut out = Vec::new();
        assert!(a.diff_cells(&b, 8, &mut out));
        assert!(out.is_empty());
        a.write(0, 1, Value::Int(99)).unwrap();
        a.write(1, 0, Value::Int(-1)).unwrap();
        assert!(a.diff_cells(&b, 8, &mut out));
        assert_eq!(out, vec![(0, 1), (1, 0)]);
        // Cap exceeded → incomparable, not a truncated diff.
        assert!(!a.diff_cells(&b, 1, &mut out));
        // Object-shape mismatch → incomparable.
        let mut c = mem();
        c.alloc(ObjKind::Heap(0), 2).unwrap();
        assert!(!a.diff_cells(&c, 8, &mut out));
    }

    /// The capped → incomparable transition at exactly the splice's
    /// `DIFF_CAP`: a diff of `DIFF_CAP` cells is still a complete,
    /// classifiable diff; one more cell makes the pair incomparable.
    #[test]
    fn diff_cells_boundary_at_splice_diff_cap() {
        use crate::splice::DIFF_CAP;
        let mut mb = ModuleBuilder::new("m");
        mb.global("wide", (DIFF_CAP + 8) as u32);
        let module = mb.finish();
        let mut a = Memory::for_module(&module);
        let b = Memory::for_module(&module);
        let mut out = Vec::new();

        // Exactly DIFF_CAP diverged words: complete diff, all enumerated.
        for i in 0..DIFF_CAP {
            a.write(0, i as i64, Value::Int(1 + i as i64)).unwrap();
        }
        assert!(a.diff_cells(&b, DIFF_CAP, &mut out), "diff at cap must stay comparable");
        assert_eq!(out.len(), DIFF_CAP);
        assert_eq!(out.first(), Some(&(0, 0)));
        assert_eq!(out.last(), Some(&(0, (DIFF_CAP - 1) as u32)));

        // DIFF_CAP + 1 diverged words: incomparable, not truncated.
        a.write(0, DIFF_CAP as i64, Value::Int(-7)).unwrap();
        assert!(!a.diff_cells(&b, DIFF_CAP, &mut out), "diff past cap must be incomparable");
    }

    /// Shape mismatches are incomparable regardless of cell contents:
    /// differing object counts (an extra allocation), kind variants and
    /// sizes all fail before any cell is compared, in both compares.
    /// Kinds that differ only in the frame or heap numbers naming the
    /// object are the same shape: both compares report an empty diff.
    #[test]
    fn diff_cells_shape_mismatches_are_incomparable() {
        let a = mem();
        let mut out = vec![(9, 9)];
        // Extra object on one side.
        let mut extra = mem();
        extra.alloc(ObjKind::Heap(0), 2).unwrap();
        assert!(!a.diff_cells(&extra, 8, &mut out));
        assert!(out.is_empty(), "failed compare must leave no stale diff");
        // Same object count, different kind.
        let mut heap_a = mem();
        heap_a.alloc(ObjKind::Heap(0), 2).unwrap();
        let mut slot_b = mem();
        slot_b.alloc(ObjKind::Slot { frame: 0, slot: 0 }, 2).unwrap();
        assert!(!heap_a.diff_cells(&slot_b, 8, &mut out));
        // Same kind, different size.
        let mut big = mem();
        big.alloc(ObjKind::Heap(0), 3).unwrap();
        assert!(!heap_a.diff_cells(&big, 8, &mut out));
        // And the symmetric view agrees.
        assert!(!extra.diff_cells(&a, 8, &mut out));

        // Both compares, resumed from `base` (globals only): `true` with
        // the diff, `false` when incomparable.
        let compare = |run: &Memory, golden: &Memory| {
            let base = mem().object_count();
            let mut full = vec![(9, 9)];
            let full_ok = run.diff_cells(golden, 8, &mut full);
            let mut pending: Vec<(u32, u32)> =
                (base as u32..run.object_count() as u32).map(|h| (h, 0)).collect();
            let mut inc = vec![(9, 9)];
            let mut cost = ProbeCost::default();
            let inc_ok = run.diff_cells_dirty(golden, &mut pending, base, 8, &mut inc, &mut cost);
            assert_eq!(full_ok, inc_ok, "the two compares disagree on comparability");
            full_ok.then(|| {
                assert_eq!(full, inc, "the two compares disagree on the diff");
                full
            })
        };
        let with = |kind, cells| {
            let mut m = mem();
            m.alloc(kind, cells).unwrap();
            m
        };
        let heap = |n| ObjKind::Heap(n);
        let slot = |frame, slot| ObjKind::Slot { frame, slot };
        // Only the names differ: comparable, nothing diverged.
        for (a, b) in [(heap(0), heap(7)), (slot(0, 0), slot(3, 0)), (slot(1, 0), slot(1, 2))] {
            assert_eq!(compare(&with(a, 2), &with(b, 2)), Some(vec![]), "{a} vs {b}");
        }
        // Renamed and one cell diverged: the diff names the handle.
        let mut renamed = with(heap(5), 2);
        renamed.write(2, 1, Value::Int(4)).unwrap();
        assert_eq!(compare(&renamed, &with(heap(0), 2)), Some(vec![(2, 1)]));
        // The variant and the size still count.
        assert_eq!(compare(&with(heap(0), 2), &with(slot(0, 0), 2)), None);
        assert_eq!(compare(&with(slot(0, 0), 2), &with(slot(9, 0), 3)), None);
    }

    #[test]
    fn globals_are_the_leading_objects() {
        let mut m = mem();
        assert!(m.is_global(0) && m.is_global(1));
        let h = m.alloc(ObjKind::Heap(0), 1).unwrap();
        assert!(!m.is_global(h));
    }

    #[test]
    fn cell_identity() {
        let m = mem();
        let c = m.cell_of(1, 0);
        assert_eq!(c.obj, ObjKind::Global(1));
    }

    // ---- dirty tracking + incremental compare ----

    #[test]
    fn writes_and_allocs_accumulate_dirty_pages() {
        let mut m = mem();
        let mut pages = Vec::new();
        m.drain_dirty_pages(&mut pages);
        assert!(pages.is_empty(), "fresh memory is its own baseline");
        m.write(0, 1, Value::Int(7)).unwrap();
        m.write(0, 2, Value::Int(8)).unwrap(); // same page: one entry
        m.write(1, 0, Value::Int(9)).unwrap();
        let h = m.alloc(ObjKind::Heap(0), PAGE_CELLS + 1).unwrap(); // 2 pages, fully dirty
        m.drain_dirty_pages(&mut pages);
        pages.sort_unstable();
        assert_eq!(pages, vec![(0, 0), (1, 0), (h, 0), (h, 1)]);
        // Drain cleared the set.
        pages.clear();
        m.drain_dirty_pages(&mut pages);
        assert!(pages.is_empty());
        // reset_dirty discards without reporting.
        m.write(0, 0, Value::Int(1)).unwrap();
        m.reset_dirty();
        m.drain_dirty_pages(&mut pages);
        assert!(pages.is_empty());
    }

    #[test]
    fn dirty_tracking_is_not_architectural_state() {
        let mut a = mem();
        let mut b = mem();
        a.write(0, 1, Value::Int(2)).unwrap(); // writes back the initial value
        assert_eq!(a, b, "dirty bits must not affect equality");
        b.reset_dirty();
        assert_eq!(a, b);
    }

    /// Incremental diff agrees with the full scan on a real divergence
    /// and prunes clean candidate pages without enumerating them.
    #[test]
    fn diff_cells_dirty_matches_full_scan() {
        let golden = mem();
        let mut run = golden.clone();
        run.reset_dirty();
        run.write(0, 1, Value::Int(99)).unwrap();
        run.write(1, 0, Value::Int(-1)).unwrap();
        let mut pending = Vec::new();
        run.drain_dirty_pages(&mut pending);
        pending.sort_unstable();
        pending.dedup();
        let (mut inc, mut full) = (Vec::new(), Vec::new());
        let mut cost = ProbeCost::default();
        assert!(run.diff_cells_dirty(
            &golden,
            &mut pending,
            golden.object_count(),
            8,
            &mut inc,
            &mut cost
        ));
        assert!(run.diff_cells(&golden, 8, &mut full));
        assert_eq!(inc, full);
        assert_eq!(inc, vec![(0, 1), (1, 0)]);
        assert_eq!(pending, vec![(0, 0), (1, 0)], "diverged pages stay pending");
        assert!(cost.pages_hashed == 2 && cost.words_compared > 0);
    }

    /// A page dirtied and then restored to its golden values is
    /// word-compared once and pruned as clean.
    #[test]
    fn dirtied_then_restored_page_is_pruned_as_clean() {
        let golden = mem();
        let mut run = golden.clone();
        run.reset_dirty();
        run.write(0, 1, Value::Int(42)).unwrap();
        run.write(0, 1, Value::Int(2)).unwrap(); // restore the golden value
        let mut pending = Vec::new();
        run.drain_dirty_pages(&mut pending);
        pending.sort_unstable();
        assert_eq!(pending, vec![(0, 0)], "the write dirtied the page");
        let mut out = Vec::new();
        let mut cost = ProbeCost::default();
        assert!(run.diff_cells_dirty(
            &golden,
            &mut pending,
            golden.object_count(),
            8,
            &mut out,
            &mut cost
        ));
        assert!(out.is_empty(), "restored page is clean");
        assert!(pending.is_empty(), "an equal page is pruned");
        assert_eq!(cost.pages_hashed, 1);
        assert_eq!(cost.words_compared, 4, "the page's four cells, once");
    }

    /// NaN pages need no special case: `Value` equality is reflexive,
    /// so a NaN the run holds bit for bit is equal and its page pruned,
    /// while a NaN of another payload is a diff — in both cases exactly
    /// the full scan's verdict.
    #[test]
    fn nan_pages_word_compare_and_match_full_scan() {
        let nan = f64::NAN;
        let other_nan = f64::from_bits(nan.to_bits() ^ 1);
        assert!(other_nan.is_nan());
        let mut golden = mem();
        golden.write(0, 3, Value::Float(nan)).unwrap();
        golden.reset_dirty();
        for (held, diff, still_pending) in
            [(nan, vec![], vec![]), (other_nan, vec![(0, 3)], vec![(0, 0)])]
        {
            let mut run = golden.clone();
            run.reset_dirty();
            run.write(0, 3, Value::Float(held)).unwrap();
            let mut pending = Vec::new();
            run.drain_dirty_pages(&mut pending);
            let (mut inc, mut full) = (Vec::new(), Vec::new());
            let mut cost = ProbeCost::default();
            assert!(run.diff_cells_dirty(
                &golden,
                &mut pending,
                golden.object_count(),
                8,
                &mut inc,
                &mut cost
            ));
            assert!(run.diff_cells(&golden, 8, &mut full));
            assert_eq!(inc, full);
            assert_eq!(inc, diff, "run holds {:#x}", held.to_bits());
            assert_eq!(pending, still_pending);
        }
    }

    /// Negative zero differs from +0.0 in its sign bit, which the
    /// program can observe, so the word compare reports a one-cell diff
    /// and keeps the page pending — exactly the full scan's verdict.
    #[test]
    fn negative_zero_page_is_a_one_cell_diff() {
        let mut golden = mem();
        golden.write(1, 1, Value::Float(0.0)).unwrap();
        golden.reset_dirty();
        let mut run = golden.clone();
        run.reset_dirty();
        run.write(1, 1, Value::Float(-0.0)).unwrap();
        let mut pending = Vec::new();
        run.drain_dirty_pages(&mut pending);
        pending.sort_unstable();
        pending.dedup();
        let (mut inc, mut full) = (Vec::new(), Vec::new());
        let mut cost = ProbeCost::default();
        assert!(run.diff_cells_dirty(
            &golden,
            &mut pending,
            golden.object_count(),
            8,
            &mut inc,
            &mut cost
        ));
        assert!(run.diff_cells(&golden, 8, &mut full));
        assert_eq!(inc, full);
        assert_eq!(inc, vec![(1, 1)], "-0.0 != +0.0 under Value equality");
        assert_eq!(pending, vec![(1, 0)], "the diverged page stays pending");
    }

    /// Cap overflow in the incremental path: incomparable verdict, and
    /// `pending` keeps both the offending page and the unprocessed
    /// tail so the next probe stays sound.
    #[test]
    fn diff_cells_dirty_cap_keeps_candidates() {
        let golden = mem();
        let mut run = golden.clone();
        run.reset_dirty();
        run.write(0, 0, Value::Int(50)).unwrap();
        run.write(0, 1, Value::Int(51)).unwrap();
        run.write(1, 0, Value::Int(52)).unwrap();
        let mut pending = Vec::new();
        run.drain_dirty_pages(&mut pending);
        pending.sort_unstable();
        pending.dedup();
        let mut out = Vec::new();
        let mut cost = ProbeCost::default();
        assert!(!run.diff_cells_dirty(
            &golden,
            &mut pending,
            golden.object_count(),
            1,
            &mut out,
            &mut cost
        ));
        assert_eq!(pending, vec![(0, 0), (1, 0)], "capped + unprocessed pages retained");
        // Full scan agrees the pair is incomparable at this cap.
        assert!(!run.diff_cells(&golden, 1, &mut out));
    }

    /// New objects allocated after the resume base are shape-checked
    /// and their (fully dirty) pages compared like any other candidate.
    #[test]
    fn diff_cells_dirty_covers_new_objects() {
        let mut golden = mem();
        let g = golden.alloc(ObjKind::Heap(0), 3).unwrap();
        golden.write(g, 1, Value::Int(5)).unwrap();
        golden.reset_dirty();
        let base = 2; // resume base had only the two globals
        let mut run = mem();
        let r = run.alloc(ObjKind::Heap(0), 3).unwrap();
        run.write(r, 1, Value::Int(6)).unwrap();
        let mut pending = Vec::new();
        run.drain_dirty_pages(&mut pending);
        pending.sort_unstable();
        pending.dedup();
        let (mut inc, mut full) = (Vec::new(), Vec::new());
        let mut cost = ProbeCost::default();
        assert!(run.diff_cells_dirty(&golden, &mut pending, base, 8, &mut inc, &mut cost));
        assert!(run.diff_cells(&golden, 8, &mut full));
        assert_eq!(inc, full);
        assert_eq!(inc, vec![(g, 1)]);
        // Mismatched new-object shape → incomparable, as in the full scan.
        let mut short = mem();
        short.alloc(ObjKind::Heap(0), 2).unwrap();
        let mut pending2 = vec![(2u32, 0u32)];
        assert!(!short.diff_cells_dirty(&golden, &mut pending2, base, 8, &mut inc, &mut cost));
    }

    /// Two cells of one page that each differ from golden only in bit
    /// 63 (an Int and a Float) are both reported. A page hash built on
    /// an FNV step `(h ^ w) * P` cancelled exactly this pair, since the
    /// multiply carries a difference only upward; the word compare has
    /// nothing to cancel.
    #[test]
    fn bit63_differences_in_two_cells_are_both_reported() {
        let mut golden = mem();
        golden.write(0, 2, Value::Int(5)).unwrap();
        golden.write(0, 3, Value::Float(1.5)).unwrap();
        golden.reset_dirty();
        let mut run = golden.clone();
        run.reset_dirty();
        for i in [2, 3] {
            let v = run.read(0, i).unwrap();
            run.write(0, i, v.flip_bits(1 << 63)).unwrap();
        }
        let mut pending = Vec::new();
        run.drain_dirty_pages(&mut pending);
        let (mut inc, mut full) = (Vec::new(), Vec::new());
        let mut cost = ProbeCost::default();
        assert!(run.diff_cells_dirty(
            &golden,
            &mut pending,
            golden.object_count(),
            8,
            &mut inc,
            &mut cost
        ));
        assert!(run.diff_cells(&golden, 8, &mut full));
        assert_eq!(inc, full);
        assert_eq!(inc, vec![(0, 2), (0, 3)]);
        assert_eq!(pending, vec![(0, 0)]);
    }

    /// ProbeCost is telemetry: never part of result equality.
    #[test]
    fn probe_cost_compares_equal_always() {
        let a = ProbeCost {
            probes: 1,
            pages_hashed: 2,
            words_compared: 3,
            memo_hits: 4,
            memo_insts_skipped: 5,
        };
        let mut b = ProbeCost::default();
        assert_eq!(a, b);
        b.merge(&a);
        assert_eq!(b.probes, 1);
        assert_eq!(b.pages_hashed, 2);
        assert_eq!(b.words_compared, 3);
        assert_eq!(b.memo_hits, 4);
        assert_eq!(b.memo_insts_skipped, 5);
    }
}
