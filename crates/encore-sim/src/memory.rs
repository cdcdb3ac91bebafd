//! Segmented machine memory.
//!
//! Memory is a table of objects (globals, per-activation stack slots,
//! heap allocations), each an array of 8-byte cells holding [`Value`]s.
//! Object handles are plain indices into the table; objects are never
//! deallocated (arena style), which keeps dangling-pointer semantics
//! deterministic during fault-injection runs.
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
use encore_ir::{Cell, Module, ObjKind};
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
    cells: Arc<Vec<Value>>,
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

/// The machine's memory state.
#[derive(Clone, Debug)]
pub struct Memory {
    objects: Vec<MemObject>,
    /// Number of globals (the first `global_count` objects).
    global_count: usize,
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
                let mut cells = vec![Value::ZERO; g.cells as usize];
                for (j, v) in g.init.iter().enumerate().take(cells.len()) {
                    cells[j] = Value::Int(*v);
                }
                MemObject {
                    kind: ObjKind::Global(i as u32),
                    dirty: vec![0; cells.len().div_ceil(PAGE_CELLS)],
                    touched: Vec::new(),
                    cells: Arc::new(cells),
                }
            })
            .collect();
        Self { objects, global_count: module.globals.len(), touched_objs: Vec::new() }
    }

    /// Allocates a fresh object of `cells` cells, returning its handle.
    ///
    /// The new object starts *fully dirty*: its contents have never
    /// been verified against anything, so every page must be a
    /// candidate at the next incremental compare.
    pub fn alloc(&mut self, kind: ObjKind, cells: usize) -> usize {
        let handle = self.objects.len();
        let pages = cells.div_ceil(PAGE_CELLS);
        self.objects.push(MemObject {
            kind,
            cells: Arc::new(vec![Value::ZERO; cells]),
            dirty: vec![!0u64; pages],
            touched: (0..pages as u32).collect(),
        });
        if pages > 0 {
            self.touched_objs.push(handle as u32);
        }
        handle
    }

    /// Reads cell `idx` of object `handle`.
    ///
    /// # Errors
    ///
    /// Out-of-bounds or negative indices and dangling handles produce a
    /// [`MemError`] (the simulator turns it into a detected symptom).
    #[inline]
    pub fn read(&self, handle: usize, idx: i64) -> Result<Value, MemError> {
        let obj = self.objects.get(handle).ok_or_else(|| MemError {
            message: format!("read from dangling object handle {handle}"),
        })?;
        if idx < 0 || idx as usize >= obj.cells.len() {
            return Err(MemError {
                message: format!(
                    "out-of-bounds read: {}[{idx}] (size {})",
                    obj.kind,
                    obj.cells.len()
                ),
            });
        }
        Ok(obj.cells[idx as usize])
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
    #[inline]
    pub fn write(&mut self, handle: usize, idx: i64, v: Value) -> Result<(), MemError> {
        let obj = self.objects.get_mut(handle).ok_or_else(|| MemError {
            message: format!("write to dangling object handle {handle}"),
        })?;
        if idx < 0 || idx as usize >= obj.cells.len() {
            return Err(MemError {
                message: format!(
                    "out-of-bounds write: {}[{idx}] (size {})",
                    obj.kind,
                    obj.cells.len()
                ),
            });
        }
        let i = idx as usize;
        Arc::make_mut(&mut obj.cells)[i] = v;
        let w = &mut obj.dirty[i / PAGE_CELLS];
        if *w == 0 {
            if obj.touched.is_empty() {
                self.touched_objs.push(handle as u32);
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
    pub fn cell_of(&self, handle: usize, idx: i64) -> Cell {
        let kind = self
            .objects
            .get(handle)
            .map(|o| o.kind)
            .unwrap_or(ObjKind::Heap(u32::MAX));
        Cell { obj: kind, index: idx.max(0) as u64 }
    }

    /// Snapshot of all global objects (the architecturally observable
    /// state compared against golden runs).
    pub fn globals_snapshot(&self) -> Vec<Vec<Value>> {
        self.objects[..self.global_count]
            .iter()
            .map(|o| o.cells.as_ref().clone())
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
                .all(|(o, g)| *o.cells == *g)
    }

    /// Total number of objects ever created.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// `true` when `handle` names a global object (the architecturally
    /// observable segment).
    pub fn is_global(&self, handle: usize) -> bool {
        handle < self.global_count
    }

    /// Collects into `out` every `(object, cell)` where `self` and
    /// `other` disagree, up to `cap` cells.
    ///
    /// Returns `false` — leaving `out` in an unspecified state — when
    /// the two memories are not cell-comparable (different object
    /// counts, kinds or sizes) or the diff exceeds `cap`; `true` means
    /// `out` is the *complete* diff. The divergence splice treats
    /// `false` as "cannot certify", so the bound is a performance cap,
    /// never a soundness concern.
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
            if a.kind != b.kind || a.cells.len() != b.cells.len() {
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
            let (a, b) = (&self.objects[h], &golden.objects[h]);
            if a.kind != b.kind || a.cells.len() != b.cells.len() {
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
                // Value-equal (bitwise-equal, or e.g. -0.0 vs +0.0):
                // equality established, prune. A later run write
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

/// Splice probe cost counters: how much work the state compares did.
///
/// Telemetry only — two campaign runs that classify every injection
/// identically are the *same result* regardless of how many pages each
/// probe compared, so `ProbeCost` compares equal to any other `ProbeCost`
/// and report equality does not depend on compare footprints (or probe
/// schedules).
#[derive(Clone, Copy, Debug, Default)]
pub struct ProbeCost {
    /// Splice probes attempted (classification attempts at a golden
    /// snapshot).
    pub probes: u64,
    /// Candidate pages examined by the incremental compare.
    pub pages_hashed: u64,
    /// Cells compared word-by-word against the golden snapshot.
    pub words_compared: u64,
}

impl ProbeCost {
    /// Accumulates another shard's counters.
    pub fn merge(&mut self, other: &Self) {
        self.probes += other.probes;
        self.pages_hashed += other.pages_hashed;
        self.words_compared += other.words_compared;
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
        let h = m.alloc(ObjKind::Heap(0), 3);
        assert_eq!(h, 2);
        m.write(h, 2, Value::Int(9)).unwrap();
        assert_eq!(m.read(h, 2).unwrap(), Value::Int(9));
        assert_eq!(m.object_count(), 3);
    }

    #[test]
    fn snapshot_covers_globals_only() {
        let mut m = mem();
        m.alloc(ObjKind::Heap(0), 8);
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
        m.alloc(ObjKind::Heap(0), 4); // heap objects are not observable
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
        c.alloc(ObjKind::Heap(0), 2);
        assert!(!a.diff_cells(&c, 8, &mut out));
    }

    /// The capped → incomparable transition at exactly the splice's
    /// `DIFF_CAP`: a diff of `DIFF_CAP` cells is still a complete,
    /// classifiable diff; one more cell makes the pair incomparable.
    #[test]
    fn diff_cells_boundary_at_splice_diff_cap() {
        use crate::interp::DIFF_CAP;
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
    /// differing object counts (an extra allocation), kinds and sizes
    /// all fail before any cell is compared.
    #[test]
    fn diff_cells_shape_mismatches_are_incomparable() {
        let a = mem();
        let mut out = vec![(9, 9)];
        // Extra object on one side.
        let mut extra = mem();
        extra.alloc(ObjKind::Heap(0), 2);
        assert!(!a.diff_cells(&extra, 8, &mut out));
        assert!(out.is_empty(), "failed compare must leave no stale diff");
        // Same object count, different kind.
        let mut heap_a = mem();
        heap_a.alloc(ObjKind::Heap(0), 2);
        let mut slot_b = mem();
        slot_b.alloc(ObjKind::Slot { frame: 0, slot: 0 }, 2);
        assert!(!heap_a.diff_cells(&slot_b, 8, &mut out));
        // Same kind, different size.
        let mut big = mem();
        big.alloc(ObjKind::Heap(0), 3);
        assert!(!heap_a.diff_cells(&big, 8, &mut out));
        // And the symmetric view agrees.
        assert!(!extra.diff_cells(&a, 8, &mut out));
    }

    #[test]
    fn globals_are_the_leading_objects() {
        let mut m = mem();
        assert!(m.is_global(0) && m.is_global(1));
        let h = m.alloc(ObjKind::Heap(0), 1);
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
        let h = m.alloc(ObjKind::Heap(0), PAGE_CELLS + 1); // 2 pages, fully dirty
        m.drain_dirty_pages(&mut pages);
        pages.sort_unstable();
        assert_eq!(pages, vec![(0, 0), (1, 0), (h as u32, 0), (h as u32, 1)]);
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

    /// Negative zero: bitwise-unequal to +0.0 but value-equal, so the
    /// word compare finds no diff and the page is pruned — exactly the
    /// full scan's verdict.
    #[test]
    fn negative_zero_page_is_pruned() {
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
        assert!(inc.is_empty(), "-0.0 == +0.0 under Value equality");
        assert!(pending.is_empty(), "value-equal page is pruned");
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
        let g = golden.alloc(ObjKind::Heap(0), 3);
        golden.write(g, 1, Value::Int(5)).unwrap();
        golden.reset_dirty();
        let base = 2; // resume base had only the two globals
        let mut run = mem();
        let r = run.alloc(ObjKind::Heap(0), 3);
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
        assert_eq!(inc, vec![(g as u32, 1)]);
        // Mismatched new-object shape → incomparable, as in the full scan.
        let mut short = mem();
        short.alloc(ObjKind::Heap(0), 2);
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
        let a = ProbeCost { probes: 1, pages_hashed: 2, words_compared: 3 };
        let mut b = ProbeCost::default();
        assert_eq!(a, b);
        b.merge(&a);
        assert_eq!(b.probes, 1);
        assert_eq!(b.pages_hashed, 2);
        assert_eq!(b.words_compared, 3);
    }
}
