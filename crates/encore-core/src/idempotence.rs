//! The Encore idempotence analysis (paper §3.1).
//!
//! For a SEME region the analysis computes, per basic block:
//!
//! * **RS** — *reachable stores* (Eq. 1): stores that could still execute
//!   once control has passed through the block (self-inclusive, matching
//!   Figure 4 of the paper);
//! * **GA** — *guarded addresses* (Eq. 2): cells guaranteed to have been
//!   overwritten on every path from the region entry to the block;
//! * **EA** — *exposed addresses* (Eq. 3): loads that may have read a cell
//!   not previously overwritten.
//!
//! The region is idempotent iff `EA(bb) ∩ RS(bb) = ∅` for every block
//! (Eq. 4), where the intersection is resolved through a conservative
//! alias oracle. Each offending store lands in the *checkpoint set* CP
//! (§3.2).
//!
//! ## Loops
//!
//! The paper summarizes loops hierarchically and notes the sets are built
//! with "multiple post-order traversals" — i.e. an iterative dataflow.
//! This implementation runs the equivalent *fixpoint* directly on the
//! region's (possibly cyclic) induced subgraph: around a cycle the RS
//! fixpoint makes every block in a loop reach every store of the loop
//! (`RS = ASˡ`, §3.1.2's cross-iteration rule), and GA/EA propagate
//! through back edges, which is exactly what the loop meta-data achieves.
//!
//! ## Engine
//!
//! The three fixpoints run on [`encore_analysis::BitSet`] dense sets over
//! function-level site universes, driven by the generic
//! [`solve_worklist`] solver (RS backward, seeded in postorder; GA/EA
//! forward, seeded in reverse postorder). Per-function inputs — block
//! effects, site tables, guard universe — are computed once per
//! [`IdempotenceAnalyzer`] and shared by every region over the same
//! function; Eq. 4 alias answers are memoized for the analyzer's
//! lifetime. The naive round-robin solver is retained as
//! [`IdempotenceAnalyzer::analyze_region_reference`] and the two are held
//! equal by differential property tests.
//!
//! ## Profile pruning (§3.4.1)
//!
//! Blocks whose execution probability (relative to the region header) is
//! `≤ Pmin` are pruned from the analysis: their memory effects vanish and
//! edges through them disappear, yielding *statistical* idempotence.

use crate::memref::{
    is_imprecise_summary, summary_addr_expr, AbsAddr, GuardAddr, GuardSet, LoadSite, StoreSite,
};
use encore_analysis::{solve_worklist, AddrSet, AliasOracle, BitSet, MemSummary};
use encore_ir::{BlockId, FuncId, Function, Inst, InstRef, Module};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

/// A candidate recovery region: a SEME subgraph of one function.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RegionSpec {
    /// Function containing the region.
    pub func: FuncId,
    /// Region header (single entry; dominates all members).
    pub header: BlockId,
    /// All member blocks, header included.
    pub blocks: BTreeSet<BlockId>,
}

/// Outcome of the idempotence test for one region.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// No WAR hazard on any live path: re-executable for free.
    Idempotent,
    /// WAR hazards exist.
    NonIdempotent {
        /// `true` if every hazard can be neutralized by checkpointing the
        /// offending stores; `false` when a live block allocates memory
        /// (re-execution would observably re-allocate).
        checkpointable: bool,
    },
    /// The region contains calls the analysis cannot see through
    /// (opaque externals / impure internals) on live paths.
    Unknown,
}

impl Verdict {
    /// `true` for [`Verdict::Idempotent`].
    pub fn is_idempotent(&self) -> bool {
        matches!(self, Verdict::Idempotent)
    }

    /// `true` when the region can be instrumented for recovery (either
    /// already idempotent or checkpointable).
    pub fn is_protectable(&self) -> bool {
        matches!(
            self,
            Verdict::Idempotent | Verdict::NonIdempotent { checkpointable: true }
        )
    }
}

/// A WAR hazard: an exposed load whose cell a reachable store may
/// overwrite.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Violation {
    /// The overwriting store (checkpoint candidate).
    pub store: StoreSite,
    /// The exposed load.
    pub load: LoadSite,
}

/// Full result of analyzing one region.
#[derive(Clone, PartialEq, Debug)]
pub struct RegionAnalysis {
    /// The verdict (Eq. 4 plus call/alloc handling).
    pub verdict: Verdict,
    /// Checkpoint set CP: stores that must be checkpointed to make the
    /// region re-executable (empty for idempotent regions).
    pub cp: Vec<StoreSite>,
    /// All WAR hazards found (one store may appear in several).
    pub violations: Vec<Violation>,
    /// Blocks that participated in the analysis after pruning, in
    /// ascending id order.
    pub live_blocks: Vec<BlockId>,
    /// Blocks pruned by the `Pmin` heuristic (or unreachable from the
    /// header once pruned blocks were removed).
    pub pruned_blocks: BTreeSet<BlockId>,
}

/// Per-block effects extracted once per function.
#[derive(Clone, Debug, Default)]
struct BlockEffects {
    may_stores: Vec<StoreSite>,
    must_guards: GuardSet,
    exposed: Vec<LoadSite>,
    unknown: bool,
    alloc: bool,
}

/// The idempotence analyzer: module-wide immutable inputs plus an alias
/// oracle, and lazily built per-function tables shared by every region
/// analysis over the same function — including across the sharded
/// pipeline's worker threads.
pub struct IdempotenceAnalyzer<'a> {
    module: &'a Module,
    memsum: MemSummary,
    oracle: &'a dyn AliasOracle,
    caches: Vec<OnceLock<FuncCache>>,
}

impl std::fmt::Debug for IdempotenceAnalyzer<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IdempotenceAnalyzer")
            .field("module", &self.module.name)
            .finish_non_exhaustive()
    }
}

impl<'a> IdempotenceAnalyzer<'a> {
    /// Creates an analyzer over `module` using `oracle` for alias
    /// queries. Inter-procedural memory summaries ([`MemSummary`]) are
    /// computed up front so call sites can be treated as bundles of
    /// loads/stores instead of pessimistic Unknowns.
    pub fn new(module: &'a Module, oracle: &'a dyn AliasOracle) -> Self {
        Self {
            module,
            memsum: MemSummary::compute(module),
            oracle,
            caches: module.funcs.iter().map(|_| OnceLock::new()).collect(),
        }
    }

    /// Returns the per-function tables, building them on first use.
    fn func_cache(&self, fid: FuncId) -> &FuncCache {
        self.caches[fid.index()].get_or_init(|| self.build_func_cache(fid))
    }

    /// Builds [`FuncCache`]: block effects, the function-level load/store
    /// site tables, the guard universe, and per-block must-guard bitsets.
    fn build_func_cache(&self, fid: FuncId) -> FuncCache {
        let func = self.module.func(fid);
        let n = func.blocks.len();
        let mut effects: Vec<BlockEffects> = vec![BlockEffects::default(); n];
        for b in func.block_ids() {
            effects[b.index()] = self.block_effects(func, b);
        }

        // Site tables: every load/store occurrence gets a dense key (a
        // call site may contribute several summarized sites, so InstRefs
        // alone are not unique keys). Indices are assigned in ascending
        // (BlockId, position-in-block) order — the same order the old
        // per-region tables followed — so ascending-index iteration
        // preserves the historical violation/CP emission order exactly.
        let mut load_table: Vec<LoadSite> = Vec::new();
        let mut store_table: Vec<StoreSite> = Vec::new();
        let mut block_loads: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut block_stores: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut guard_universe: BTreeSet<GuardAddr> = BTreeSet::new();
        for b in func.block_ids() {
            let i = b.index();
            for l in &effects[i].exposed {
                block_loads[i].push(load_table.len());
                load_table.push(*l);
            }
            for s in &effects[i].may_stores {
                block_stores[i].push(store_table.len());
                store_table.push(*s);
            }
            guard_universe.extend(effects[i].must_guards.iter().copied());
        }

        let guard_table: Vec<GuardAddr> = guard_universe.into_iter().collect();
        let guard_index: BTreeMap<GuardAddr, usize> =
            guard_table.iter().enumerate().map(|(k, g)| (*g, k)).collect();
        let must_bits: Vec<BitSet> = (0..n)
            .map(|i| {
                let mut bs = BitSet::new(guard_table.len());
                for g in effects[i].must_guards.iter() {
                    bs.insert(guard_index[g]);
                }
                bs
            })
            .collect();
        // A load is exposed unconditionally (`None`) when its address is
        // opaque or names a cell no block in the function ever guards —
        // GA ranges over the guard universe and can never cover it.
        let load_guard: Vec<Option<usize>> = load_table
            .iter()
            .map(|l| match l.addr {
                AbsAddr::Top => None,
                AbsAddr::Expr(a) => {
                    GuardAddr::of(&a).and_then(|g| guard_index.get(&g).copied())
                }
            })
            .collect();

        let conflict_rows = load_table.iter().map(|_| OnceLock::new()).collect();
        let succs: Vec<Vec<BlockId>> =
            func.block_ids().map(|b| func.block(b).successors()).collect();
        FuncCache {
            effects,
            succs,
            load_table,
            store_table,
            block_loads,
            block_stores,
            guard_table,
            must_bits,
            load_guard,
            conflict_rows,
        }
    }

    /// The stores that may conflict with load `lat` of `func` (Eq. 4
    /// resolved through the alias oracle), memoized for the analyzer's
    /// lifetime.
    fn conflict_row<'c>(&self, cache: &'c FuncCache, func: FuncId, lat: usize) -> &'c BitSet {
        cache.conflict_rows[lat].get_or_init(|| {
            let l = cache.load_table[lat];
            let mut row = BitSet::new(cache.store_table.len());
            for (sat, s) in cache.store_table.iter().enumerate() {
                if self.conflicts(func, &l, s) {
                    row.insert(sat);
                }
            }
            row
        })
    }

    /// Extracts the local effects of block `b` in `func`.
    fn block_effects(&self, func: &Function, b: BlockId) -> BlockEffects {
        let mut fx = BlockEffects::default();
        let mut local_guards: GuardSet = GuardSet::new();
        for (i, inst) in func.block(b).insts.iter().enumerate() {
            let at = InstRef::new(b, i);
            match inst {
                Inst::Load { addr, .. } => {
                    let guarded = GuardAddr::of(addr)
                        .map(|g| local_guards.contains(&g))
                        .unwrap_or(false);
                    if !guarded {
                        fx.exposed.push(LoadSite { at, addr: AbsAddr::Expr(*addr) });
                    }
                }
                Inst::Store { addr, .. } => {
                    fx.may_stores.push(StoreSite { at, addr: *addr });
                    if let Some(g) = GuardAddr::of(addr) {
                        local_guards.insert(g);
                        fx.must_guards.insert(g);
                    }
                }
                Inst::Alloc { .. } => fx.alloc = true,
                Inst::Call { callee, .. } => {
                    // A call is a bundle of its callee's (transitive)
                    // caller-visible effects. Re-executing the region
                    // re-executes the call, so callee loads are exposed
                    // loads and callee stores are may-stores at the call
                    // site; callee-internal WARs then surface naturally
                    // as call-site load/store conflicts.
                    let fx_callee = self.memsum.effects(*callee);
                    if fx_callee.allocates {
                        fx.alloc = true;
                    }
                    match &fx_callee.stores {
                        AddrSet::Top => fx.unknown = true,
                        AddrSet::Set(stores) => {
                            match &fx_callee.loads {
                                AddrSet::Top => {
                                    fx.exposed.push(LoadSite { at, addr: AbsAddr::Top })
                                }
                                AddrSet::Set(_) => {
                                    for a in fx_callee.loads.iter() {
                                        fx.exposed.push(LoadSite {
                                            at,
                                            addr: AbsAddr::Expr(summary_addr_expr(a)),
                                        });
                                    }
                                }
                            }
                            for a in stores {
                                fx.may_stores
                                    .push(StoreSite { at, addr: summary_addr_expr(a) });
                            }
                        }
                    }
                }
                Inst::CallExt { effect, .. } => match effect {
                    encore_ir::ExtEffect::Pure => {}
                    encore_ir::ExtEffect::ReadOnly => {
                        fx.exposed.push(LoadSite { at, addr: AbsAddr::Top })
                    }
                    encore_ir::ExtEffect::Opaque => fx.unknown = true,
                },
                // Encore's own instrumentation never participates: it
                // exists to preserve, not change, region semantics.
                Inst::SetRecovery { .. }
                | Inst::CheckpointMem { .. }
                | Inst::CheckpointReg { .. }
                | Inst::Restore { .. } => {}
                _ => {}
            }
        }
        fx
    }

    /// May the exposed load `l` read the cell the store `s` writes?
    /// Site-aware so profile-guided oracles can consult observed
    /// footprints.
    fn conflicts(&self, func: FuncId, l: &LoadSite, s: &StoreSite) -> bool {
        match l.addr {
            AbsAddr::Top => true,
            AbsAddr::Expr(a) => {
                let la = encore_analysis::SiteRef { func, at: l.at };
                let sa = encore_analysis::SiteRef { func, at: s.at };
                self.oracle.alias_at(Some(la), &a, Some(sa), &s.addr)
                    != encore_analysis::AliasResult::No
            }
        }
    }

    /// Analyzes `spec`, pruning blocks for which `prune` returns `true`
    /// (the header is never pruned).
    pub fn analyze_region(
        &self,
        spec: &RegionSpec,
        prune: &dyn Fn(BlockId) -> bool,
    ) -> RegionAnalysis {
        let state = self.dataflow(spec, prune);
        self.check(spec, state)
    }

    /// Runs the RS/GA/EA fixpoints over the live subgraph of `spec` on the
    /// bitset worklist engine: RS backward, seeded in postorder; GA then
    /// EA forward, seeded in reverse postorder. All three fixpoints are
    /// monotone over finite lattices, so the worklist reaches the same
    /// (unique) fixpoint as the round-robin iteration it replaces.
    fn dataflow<'c>(
        &'c self,
        spec: &RegionSpec,
        prune: &dyn Fn(BlockId) -> bool,
    ) -> DataflowState<'c> {
        let func = self.module.func(spec.func);
        let cache = self.func_cache(spec.func);

        // 1. Live set: member blocks that survive pruning *and* remain
        //    reachable from the header inside the region. One DFS over
        //    the cached successor lists yields both the live set and its
        //    postorder (Eqs. 1–3 are phrased as post-order passes; the
        //    worklist only needs the order as seeds). The traversal
        //    visits children in successor order, exactly as
        //    `order::postorder_from` does.
        let nblocks = func.blocks.len();
        let mut allowed = vec![false; nblocks];
        for &b in &spec.blocks {
            allowed[b.index()] = b == spec.header || !prune(b);
        }
        let mut visited = vec![false; nblocks];
        let mut po_blocks: Vec<BlockId> = Vec::with_capacity(spec.blocks.len());
        if allowed[spec.header.index()] {
            let mut stack: Vec<(BlockId, usize)> = vec![(spec.header, 0)];
            visited[spec.header.index()] = true;
            while let Some((b, cursor)) = stack.last_mut() {
                let succ = &cache.succs[b.index()];
                if *cursor < succ.len() {
                    let s = succ[*cursor];
                    *cursor += 1;
                    if allowed[s.index()] && !visited[s.index()] {
                        visited[s.index()] = true;
                        stack.push((s, 0));
                    }
                } else {
                    po_blocks.push(*b);
                    stack.pop();
                }
            }
        }

        // Live blocks in ascending id order — the emission order `check`
        // iterates — with a dense id → live-index map.
        let mut index_of = vec![usize::MAX; nblocks];
        let mut live_vec: Vec<BlockId> = Vec::with_capacity(po_blocks.len());
        for b in func.block_ids() {
            if visited[b.index()] {
                index_of[b.index()] = live_vec.len();
                live_vec.push(b);
            }
        }
        let n = live_vec.len();
        let pruned: BTreeSet<BlockId> =
            spec.blocks.iter().copied().filter(|b| !visited[b.index()]).collect();

        // 2. Induced edges over live indices, stored CSR-style: one flat
        //    edge array plus offsets per direction, instead of one heap
        //    `Vec` per block.
        let mut succ_off = vec![0usize; n + 1];
        let mut pred_off = vec![0usize; n + 1];
        for (i, b) in live_vec.iter().enumerate() {
            for s in &cache.succs[b.index()] {
                let j = index_of[s.index()];
                if j != usize::MAX {
                    succ_off[i + 1] += 1;
                    pred_off[j + 1] += 1;
                }
            }
        }
        for i in 0..n {
            succ_off[i + 1] += succ_off[i];
            pred_off[i + 1] += pred_off[i];
        }
        let mut succ_edges = vec![0usize; succ_off[n]];
        let mut pred_edges = vec![0usize; pred_off[n]];
        let mut pred_cur = pred_off.clone();
        let mut sc = 0;
        for (i, b) in live_vec.iter().enumerate() {
            for s in &cache.succs[b.index()] {
                let j = index_of[s.index()];
                if j != usize::MAX {
                    succ_edges[sc] = j;
                    sc += 1;
                    pred_edges[pred_cur[j]] = i;
                    pred_cur[j] += 1;
                }
            }
        }
        let succs = |i: usize| &succ_edges[succ_off[i]..succ_off[i + 1]];
        let preds = |i: usize| &pred_edges[pred_off[i]..pred_off[i + 1]];

        let unknown = live_vec.iter().any(|b| cache.effects[b.index()].unknown);
        let alloc = live_vec.iter().any(|b| cache.effects[b.index()].alloc);

        let po: Vec<usize> =
            po_blocks.iter().map(|b| index_of[b.index()]).collect();
        let rpo: Vec<usize> = po.iter().rev().copied().collect();

        let nstores = cache.store_table.len();
        let nloads = cache.load_table.len();
        let nguards = cache.guard_table.len();

        // 3. RS fixpoint (Eq. 1, self-inclusive): RS(b) = AS(b) ∪ ⋃ RS(succ).
        //    Backward: a block's RS feeds its predecessors.
        let mut rs: Vec<BitSet> = live_vec
            .iter()
            .map(|b| {
                let mut s = BitSet::new(nstores);
                for &k in &cache.block_stores[b.index()] {
                    s.insert(k);
                }
                s
            })
            .collect();
        // An empty site universe is already at fixpoint — every set is
        // and stays empty — so the solve (and its queue allocations) can
        // be skipped outright. Same below for GA and EA.
        if nstores > 0 {
            solve_worklist(&po, n, preds, |i| {
                let mut acc = std::mem::take(&mut rs[i]);
                let mut grown = false;
                for &j in succs(i) {
                    // A self-loop contributes nothing new to a union.
                    if j != i {
                        grown |= acc.union_with(&rs[j]);
                    }
                }
                rs[i] = acc;
                grown
            });
        }

        // 4. GA fixpoint (Eq. 2, must): GA(b) = ⋂_{p∈preds} (GA(p) ∪ MUST(p)),
        //    header = ∅ (nothing is guarded at region entry). `None`
        //    encodes the ⊤ initializer of a must-analysis; the transfer
        //    recomputes from the predecessors' current values.
        let entry_idx = index_of[spec.header.index()];
        let mut ga: Vec<Option<BitSet>> = vec![None; n];
        ga[entry_idx] = Some(BitSet::new(nguards));
        if nguards > 0 {
            solve_worklist(&rpo, n, succs, |i| {
                if i == entry_idx {
                    return false;
                }
                let mut acc: Option<BitSet> = None;
                for &p in preds(i) {
                    let Some(gp) = &ga[p] else { continue };
                    let must = &cache.must_bits[live_vec[p].index()];
                    match &mut acc {
                        None => {
                            let mut contrib = gp.clone();
                            contrib.union_with(must);
                            acc = Some(contrib);
                        }
                        // `cur ∩ (gp ∪ must)`; when MUST(p) is empty the
                        // union is `gp` itself and the clone is skipped.
                        Some(cur) if must.is_empty() => {
                            cur.intersect_with(gp);
                        }
                        Some(cur) => {
                            let mut contrib = gp.clone();
                            contrib.union_with(must);
                            cur.intersect_with(&contrib);
                        }
                    }
                }
                match acc {
                    Some(new) if ga[i].as_ref() != Some(&new) => {
                        ga[i] = Some(new);
                        true
                    }
                    _ => false,
                }
            });
        }

        // 5. EA fixpoint (Eq. 3, may): EA(b) = ⋃_{p} EA(p) ∪ (EAˡᵒᶜ(b) − GA(b)).
        //    Seeded with the locally exposed loads under the *final* GA,
        //    which is why GA must complete first.
        let mut ea: Vec<BitSet> = (0..n)
            .map(|i| {
                let mut s = BitSet::new(nloads);
                for &li in &cache.block_loads[live_vec[i].index()] {
                    let exposed = match cache.load_guard[li] {
                        None => true,
                        Some(g) => {
                            !ga[i].as_ref().map(|bits| bits.contains(g)).unwrap_or(false)
                        }
                    };
                    if exposed {
                        s.insert(li);
                    }
                }
                s
            })
            .collect();
        if nloads > 0 {
            solve_worklist(&rpo, n, succs, |i| {
                let mut acc = std::mem::take(&mut ea[i]);
                let mut grown = false;
                for &p in preds(i) {
                    if p != i {
                        grown |= acc.union_with(&ea[p]);
                    }
                }
                ea[i] = acc;
                grown
            });
        }

        DataflowState {
            live_vec,
            cache,
            rs,
            ea,
            unknown,
            alloc,
            pruned,
        }
    }

    /// Applies the Eq. 4 emptiness check to a completed dataflow.
    fn check(&self, spec: &RegionSpec, state: DataflowState<'_>) -> RegionAnalysis {
        let DataflowState { live_vec, cache, rs, ea, unknown, alloc, pruned } = state;
        let n = live_vec.len();
        let load_table = &cache.load_table;
        let store_table = &cache.store_table;

        // Eq. 4 check per block, recording CP. Conflict answers are pure
        // function-level facts, so each load's row of conflicting stores
        // is memoized for the analyzer's lifetime and shared across
        // every region over this function; the per-block probe is then a
        // word-level walk of `row ∩ RS`.
        let mut violations: Vec<Violation> = Vec::new();
        let mut seen_pairs: BTreeSet<(usize, usize)> = BTreeSet::new();
        let mut cp_sites: BTreeSet<usize> = BTreeSet::new();
        let mut imprecise_violation = false;
        for i in 0..n {
            for lat in ea[i].iter() {
                let l = load_table[lat];
                let row = self.conflict_row(cache, spec.func, lat);
                for sat in row.iter_and(&rs[i]) {
                    if seen_pairs.insert((sat, lat)) {
                        violations.push(Violation { store: store_table[sat], load: l });
                        cp_sites.insert(sat);
                        // A "some cell of g" callee-summary store cannot
                        // be checkpointed from a single slot.
                        if is_imprecise_summary(&store_table[sat].addr) {
                            imprecise_violation = true;
                        }
                    }
                }
            }
        }

        let mut cp: Vec<StoreSite> = Vec::new();
        for &s in &cp_sites {
            let site = store_table[s];
            if !cp.iter().any(|e| e.at == site.at && e.addr == site.addr) {
                cp.push(site);
            }
        }
        let verdict = if unknown {
            Verdict::Unknown
        } else if alloc || imprecise_violation {
            // Re-executing an allocation observably re-allocates, and a
            // dynamic-offset callee store cannot be checkpointed from a
            // single reserved slot: either way the region is
            // unprotectable.
            Verdict::NonIdempotent { checkpointable: false }
        } else if cp.is_empty() {
            Verdict::Idempotent
        } else {
            Verdict::NonIdempotent { checkpointable: true }
        };

        RegionAnalysis {
            verdict,
            cp,
            violations,
            live_blocks: live_vec,
            pruned_blocks: pruned,
        }
    }

    /// The naive reference solver the worklist engine replaced: the same
    /// RS/GA/EA equations iterated round-robin over per-region
    /// `BTreeSet`s, with no function-level caching or memoization.
    ///
    /// Kept (and exercised by the differential property tests in
    /// `tests/analysis_properties.rs`) as an executable specification:
    /// [`IdempotenceAnalyzer::analyze_region`] must agree with it
    /// bit-for-bit on every region.
    pub fn analyze_region_reference(
        &self,
        spec: &RegionSpec,
        prune: &dyn Fn(BlockId) -> bool,
    ) -> RegionAnalysis {
        let func = self.module.func(spec.func);

        let unpruned: BTreeSet<BlockId> = spec
            .blocks
            .iter()
            .copied()
            .filter(|b| *b == spec.header || !prune(*b))
            .collect();
        let live: BTreeSet<BlockId> =
            encore_analysis::order::reachable_from(func, spec.header, Some(&unpruned));
        let pruned: BTreeSet<BlockId> =
            spec.blocks.difference(&live).copied().collect();

        let live_vec: Vec<BlockId> = live.iter().copied().collect();
        let index_of: BTreeMap<BlockId, usize> =
            live_vec.iter().enumerate().map(|(i, b)| (*b, i)).collect();
        let n = live_vec.len();

        let effects: Vec<BlockEffects> =
            live_vec.iter().map(|b| self.block_effects(func, *b)).collect();
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, b) in live_vec.iter().enumerate() {
            for s in func.block(*b).successors() {
                if let Some(&j) = index_of.get(&s) {
                    succs[i].push(j);
                    preds[j].push(i);
                }
            }
        }

        let unknown = effects.iter().any(|e| e.unknown);
        let alloc = effects.iter().any(|e| e.alloc);

        let mut load_table: Vec<LoadSite> = Vec::new();
        let mut store_table: Vec<StoreSite> = Vec::new();
        let mut block_loads: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut block_stores: Vec<Vec<usize>> = vec![Vec::new(); n];
        for i in 0..n {
            for l in &effects[i].exposed {
                block_loads[i].push(load_table.len());
                load_table.push(*l);
            }
            for s in &effects[i].may_stores {
                block_stores[i].push(store_table.len());
                store_table.push(*s);
            }
        }

        // RS: round-robin to a fixpoint.
        let mut rs: Vec<BTreeSet<usize>> =
            (0..n).map(|i| block_stores[i].iter().copied().collect()).collect();
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..n {
                let mut grown = false;
                let snapshot: Vec<usize> = succs[i]
                    .iter()
                    .flat_map(|&j| rs[j].iter().copied().collect::<Vec<_>>())
                    .collect();
                for site in snapshot {
                    grown |= rs[i].insert(site);
                }
                changed |= grown;
            }
        }

        // GA: round-robin must-analysis, `None` = ⊤.
        let entry_idx = index_of[&spec.header];
        let mut ga: Vec<Option<GuardSet>> = vec![None; n];
        ga[entry_idx] = Some(GuardSet::new());
        changed = true;
        while changed {
            changed = false;
            for i in 0..n {
                if i == entry_idx {
                    continue;
                }
                let mut acc: Option<GuardSet> = None;
                for &p in &preds[i] {
                    let Some(gp) = &ga[p] else { continue };
                    let mut contrib = gp.clone();
                    contrib.extend(effects[p].must_guards.iter().copied());
                    acc = Some(match acc {
                        None => contrib,
                        Some(cur) => cur.intersection(&contrib).copied().collect(),
                    });
                }
                if let Some(new) = acc {
                    if ga[i].as_ref() != Some(&new) {
                        ga[i] = Some(new);
                        changed = true;
                    }
                }
            }
        }

        // EA: locally exposed under final GA, then round-robin union.
        let locally_exposed = |i: usize| -> Vec<usize> {
            let guards = ga[i].clone().unwrap_or_default();
            block_loads[i]
                .iter()
                .copied()
                .filter(|&li| match load_table[li].addr {
                    AbsAddr::Top => true,
                    AbsAddr::Expr(a) => GuardAddr::of(&a)
                        .map(|g| !guards.contains(&g))
                        .unwrap_or(true),
                })
                .collect()
        };
        let mut ea: Vec<BTreeSet<usize>> =
            (0..n).map(|i| locally_exposed(i).into_iter().collect()).collect();
        changed = true;
        while changed {
            changed = false;
            for i in 0..n {
                let mut grown = false;
                let snapshot: Vec<usize> = preds[i]
                    .iter()
                    .flat_map(|&p| ea[p].iter().copied().collect::<Vec<_>>())
                    .collect();
                for site in snapshot {
                    grown |= ea[i].insert(site);
                }
                changed |= grown;
            }
        }

        // Eq. 4 with a region-local pair cache.
        let mut pair_cache: BTreeMap<(usize, usize), bool> = BTreeMap::new();
        let mut violations: Vec<Violation> = Vec::new();
        let mut seen_pairs: BTreeSet<(usize, usize)> = BTreeSet::new();
        let mut cp_sites: BTreeSet<usize> = BTreeSet::new();
        let mut imprecise_violation = false;
        for i in 0..n {
            for &lat in &ea[i] {
                let l = load_table[lat];
                for &sat in &rs[i] {
                    let conflict = *pair_cache
                        .entry((lat, sat))
                        .or_insert_with(|| self.conflicts(spec.func, &l, &store_table[sat]));
                    if conflict && seen_pairs.insert((sat, lat)) {
                        violations.push(Violation { store: store_table[sat], load: l });
                        cp_sites.insert(sat);
                        if is_imprecise_summary(&store_table[sat].addr) {
                            imprecise_violation = true;
                        }
                    }
                }
            }
        }

        let mut cp: Vec<StoreSite> = Vec::new();
        for &s in &cp_sites {
            let site = store_table[s];
            if !cp.iter().any(|e| e.at == site.at && e.addr == site.addr) {
                cp.push(site);
            }
        }
        let verdict = if unknown {
            Verdict::Unknown
        } else if alloc || imprecise_violation {
            Verdict::NonIdempotent { checkpointable: false }
        } else if cp.is_empty() {
            Verdict::Idempotent
        } else {
            Verdict::NonIdempotent { checkpointable: true }
        };

        RegionAnalysis {
            verdict,
            cp,
            violations,
            live_blocks: live.iter().copied().collect(),
            pruned_blocks: pruned,
        }
    }
}

/// Per-function tables built lazily, once per [`IdempotenceAnalyzer`],
/// and shared by every region analysis over the same function.
///
/// Site indices are assigned scanning blocks in ascending `BlockId`
/// order, positions in program order within a block — the same
/// `(block, position)` order the old per-region tables followed, so
/// ascending-index iteration over the function-level tables visits sites
/// in the identical relative order within any region.
struct FuncCache {
    /// Local effects, indexed by block.
    effects: Vec<BlockEffects>,
    /// Per-block successor lists, precomputed once so region traversals
    /// never re-materialize them from terminators.
    succs: Vec<Vec<BlockId>>,
    /// Every exposed-load occurrence in the function.
    load_table: Vec<LoadSite>,
    /// Every may-store occurrence in the function.
    store_table: Vec<StoreSite>,
    /// Per-block indices into `load_table`.
    block_loads: Vec<Vec<usize>>,
    /// Per-block indices into `store_table`.
    block_stores: Vec<Vec<usize>>,
    /// Sorted universe of guard addresses (any block's `must_guards`).
    guard_table: Vec<GuardAddr>,
    /// Per-block MUST sets over `guard_table`.
    must_bits: Vec<BitSet>,
    /// Per load: `Some(g)` when the load reads guardable cell
    /// `guard_table[g]` (exposed unless GA covers `g`); `None` when it is
    /// exposed unconditionally.
    load_guard: Vec<Option<usize>>,
    /// Memoized Eq. 4 conflict answers: `conflict_rows[l]` is the set of
    /// store sites that may alias load `l`, built lazily per load and
    /// retained for the analyzer's lifetime (replacing the old
    /// per-region pair cache). Dense rows turn the per-block hazard
    /// probe into a word-level `EA ∩ RS` intersection walk.
    conflict_rows: Vec<OnceLock<BitSet>>,
}

/// Completed dataflow over a region's live subgraph. The RS and EA sets
/// (GA is spent computing EA) are dense bitsets over the owning
/// function's site universes.
struct DataflowState<'c> {
    live_vec: Vec<BlockId>,
    cache: &'c FuncCache,
    rs: Vec<BitSet>,
    ea: Vec<BitSet>,
    unknown: bool,
    alloc: bool,
    pruned: BTreeSet<BlockId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use encore_analysis::StaticAlias;
    use encore_ir::{AddrExpr, BinOp, ModuleBuilder, Operand};

    fn analyze(m: &Module, spec: &RegionSpec) -> RegionAnalysis {
        let oracle = StaticAlias;
        let az = IdempotenceAnalyzer::new(m, &oracle);
        az.analyze_region(spec, &|_| false)
    }

    fn whole_function_region(m: &Module, f: FuncId) -> RegionSpec {
        RegionSpec {
            func: f,
            header: m.func(f).entry(),
            blocks: m.func(f).block_ids().collect(),
        }
    }

    #[test]
    fn read_only_region_is_idempotent() {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global("g", 4);
        let f = mb.function("f", 0, |f| {
            let a = f.load(AddrExpr::global(g, 0));
            let b = f.load(AddrExpr::global(g, 1));
            let s = f.bin(BinOp::Add, a.into(), b.into());
            f.ret(Some(s.into()));
        });
        let m = mb.finish();
        let r = analyze(&m, &whole_function_region(&m, f));
        assert_eq!(r.verdict, Verdict::Idempotent);
        assert!(r.cp.is_empty());
    }

    #[test]
    fn war_in_single_block_detected() {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global("g", 1);
        let f = mb.function("f", 0, |f| {
            let v = f.load(AddrExpr::global(g, 0));
            let v2 = f.bin(BinOp::Add, v.into(), Operand::ImmI(1));
            f.store(AddrExpr::global(g, 0), v2.into());
            f.ret(None);
        });
        let m = mb.finish();
        let r = analyze(&m, &whole_function_region(&m, f));
        assert_eq!(r.verdict, Verdict::NonIdempotent { checkpointable: true });
        assert_eq!(r.cp.len(), 1);
        assert_eq!(r.violations.len(), 1);
    }

    #[test]
    fn store_then_load_is_idempotent() {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global("g", 1);
        let f = mb.function("f", 0, |f| {
            f.store(AddrExpr::global(g, 0), Operand::ImmI(7));
            let v = f.load(AddrExpr::global(g, 0));
            f.store(AddrExpr::global(g, 0), v.into());
            f.ret(None);
        });
        let m = mb.finish();
        let r = analyze(&m, &whole_function_region(&m, f));
        assert_eq!(r.verdict, Verdict::Idempotent);
    }

    #[test]
    fn guard_on_one_path_does_not_guard_the_other() {
        // entry branches; only the then-arm stores g[0]; join loads g[0];
        // a later store to g[0] completes the WAR on the else path.
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global("g", 1);
        let f = mb.function("f", 1, |f| {
            let p = f.param(0);
            f.if_else(
                p.into(),
                |f| f.store(AddrExpr::global(g, 0), Operand::ImmI(1)),
                |_| {},
            );
            let v = f.load(AddrExpr::global(g, 0));
            f.store(AddrExpr::global(g, 0), v.into());
            f.ret(None);
        });
        let m = mb.finish();
        let r = analyze(&m, &whole_function_region(&m, f));
        assert_eq!(r.verdict, Verdict::NonIdempotent { checkpointable: true });
    }

    #[test]
    fn guard_on_all_paths_guards_the_join() {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global("g", 1);
        let f = mb.function("f", 1, |f| {
            let p = f.param(0);
            f.if_else(
                p.into(),
                |f| f.store(AddrExpr::global(g, 0), Operand::ImmI(1)),
                |f| f.store(AddrExpr::global(g, 0), Operand::ImmI(2)),
            );
            let v = f.load(AddrExpr::global(g, 0));
            f.store(AddrExpr::global(g, 0), v.into());
            f.ret(None);
        });
        let m = mb.finish();
        let r = analyze(&m, &whole_function_region(&m, f));
        assert_eq!(r.verdict, Verdict::Idempotent);
    }

    #[test]
    fn cross_iteration_war_detected() {
        // for i in 0..n { t = g[0]; g[0] = t + i }  — WAR across iterations
        // and within one iteration.
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global("g", 1);
        let f = mb.function("f", 1, |f| {
            let n = f.param(0);
            f.for_range(Operand::ImmI(0), n.into(), |f, i| {
                let t = f.load(AddrExpr::global(g, 0));
                let t2 = f.bin(BinOp::Add, t.into(), i.into());
                f.store(AddrExpr::global(g, 0), t2.into());
            });
            f.ret(None);
        });
        let m = mb.finish();
        let r = analyze(&m, &whole_function_region(&m, f));
        assert_eq!(r.verdict, Verdict::NonIdempotent { checkpointable: true });
        assert_eq!(r.cp.len(), 1);
    }

    #[test]
    fn streaming_loop_is_idempotent() {
        // for i in 0..n { out[i] = in_[i] * 2 } — no WAR: reads and writes
        // go to different globals.
        let mut mb = ModuleBuilder::new("m");
        let src = mb.global("src", 64);
        let dst = mb.global("dst", 64);
        let f = mb.function("f", 1, |f| {
            let n = f.param(0);
            f.for_range(Operand::ImmI(0), n.into(), |f, i| {
                let v = f.load(AddrExpr::indexed(encore_ir::MemBase::Global(src), i, 1, 0));
                let v2 = f.bin(BinOp::Mul, v.into(), Operand::ImmI(2));
                f.store(AddrExpr::indexed(encore_ir::MemBase::Global(dst), i, 1, 0), v2.into());
            });
            f.ret(None);
        });
        let m = mb.finish();
        let r = analyze(&m, &whole_function_region(&m, f));
        assert_eq!(r.verdict, Verdict::Idempotent);
    }

    #[test]
    fn in_place_update_loop_may_conflict() {
        // for i in 0..n { a[i] = a[j] + 1 } with dynamic indices: the
        // conservative oracle must flag a potential cross-iteration WAR.
        let mut mb = ModuleBuilder::new("m");
        let a = mb.global("a", 64);
        let f = mb.function("f", 2, |f| {
            let n = f.param(0);
            let j = f.param(1);
            f.for_range(Operand::ImmI(0), n.into(), |f, i| {
                let v = f.load(AddrExpr::indexed(encore_ir::MemBase::Global(a), j, 1, 0));
                let v2 = f.bin(BinOp::Add, v.into(), Operand::ImmI(1));
                f.store(AddrExpr::indexed(encore_ir::MemBase::Global(a), i, 1, 0), v2.into());
            });
            f.ret(None);
        });
        let m = mb.finish();
        let r = analyze(&m, &whole_function_region(&m, f));
        assert_eq!(r.verdict, Verdict::NonIdempotent { checkpointable: true });
    }

    #[test]
    fn opaque_call_makes_region_unknown() {
        let mut mb = ModuleBuilder::new("m");
        let f = mb.function("f", 0, |f| {
            f.call_ext_void("syscall", &[], encore_ir::ExtEffect::Opaque);
            f.ret(None);
        });
        let m = mb.finish();
        let r = analyze(&m, &whole_function_region(&m, f));
        assert_eq!(r.verdict, Verdict::Unknown);
    }

    #[test]
    fn alloc_makes_region_uncheckpointable() {
        let mut mb = ModuleBuilder::new("m");
        let f = mb.function("f", 0, |f| {
            let p = f.alloc(Operand::ImmI(8));
            f.ret(Some(p.into()));
        });
        let m = mb.finish();
        let r = analyze(&m, &whole_function_region(&m, f));
        assert_eq!(r.verdict, Verdict::NonIdempotent { checkpointable: false });
        assert!(!r.verdict.is_protectable());
    }

    #[test]
    fn pruning_cold_alloc_restores_idempotence() {
        // Mirrors the 175.vpr try_swap example (paper Fig. 2c): a one-time
        // allocation path poisons the region unless it is pruned away.
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global("data", 8);
        let f = mb.function("f", 1, |f| {
            let first = f.param(0);
            f.if_then(first.into(), |f| {
                let p = f.alloc(Operand::ImmI(64));
                f.store(AddrExpr::global(g, 0), p.into());
            });
            let v = f.load(AddrExpr::global(g, 1));
            f.store(AddrExpr::global(g, 2), v.into());
            f.ret(None);
        });
        let m = mb.finish();
        let spec = whole_function_region(&m, f);
        // Without pruning: alloc poisons the region.
        let r = analyze(&m, &spec);
        assert_eq!(r.verdict, Verdict::NonIdempotent { checkpointable: false });
        // Pruning the cold then-arm (bb1): region becomes idempotent.
        let oracle = StaticAlias;
        let az = IdempotenceAnalyzer::new(&m, &oracle);
        let cold = BlockId::new(1);
        let r2 = az.analyze_region(&spec, &|b| b == cold);
        assert_eq!(r2.verdict, Verdict::Idempotent);
        assert!(r2.pruned_blocks.contains(&cold));
    }

    #[test]
    fn readonly_call_exposes_everything() {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global("g", 1);
        let f = mb.function("f", 0, |f| {
            let v = f.call_ext("peek", &[], encore_ir::ExtEffect::ReadOnly);
            f.store(AddrExpr::global(g, 0), v.into());
            f.ret(None);
        });
        let m = mb.finish();
        let r = analyze(&m, &whole_function_region(&m, f));
        assert_eq!(r.verdict, Verdict::NonIdempotent { checkpointable: true });
        assert_eq!(r.cp.len(), 1);
    }

    #[test]
    fn pure_internal_call_is_transparent() {
        let mut mb = ModuleBuilder::new("m");
        let sq = mb.function("sq", 1, |f| {
            let p = f.param(0);
            let r = f.bin(BinOp::Mul, p.into(), p.into());
            f.ret(Some(r.into()));
        });
        let g = mb.global("g", 1);
        let f = mb.function("f", 0, |f| {
            let v = f.call(sq, &[Operand::ImmI(3)]);
            f.store(AddrExpr::global(g, 0), v.into());
            f.ret(None);
        });
        let m = mb.finish();
        let r = analyze(&m, &whole_function_region(&m, f));
        assert_eq!(r.verdict, Verdict::Idempotent);
    }

    /// The worked example from Figure 4 of the paper: eight blocks, four
    /// syntactic WAR pairs, of which exactly one (instructions 7 and 10,
    /// the ⋆ pair on addresses "B") survives the path-sensitive-ish
    /// analysis — instruction 10 is the only store needing a checkpoint.
    #[test]
    fn paper_figure_4_example() {
        let mut mb = ModuleBuilder::new("m");
        let ga = mb.global("A", 1);
        let gb = mb.global("B", 1);
        let gc = mb.global("C", 1);
        let a = AddrExpr::global(ga, 0);
        let b = AddrExpr::global(gb, 0);
        let c = AddrExpr::global(gc, 0);
        let f = mb.function("fig4", 1, |f| {
            let p = f.param(0);
            // bb1: 1: Store A
            let bb2 = f.add_block();
            let bb3 = f.add_block();
            let bb4 = f.add_block();
            let bb5 = f.add_block();
            let bb6 = f.add_block();
            let bb7 = f.add_block();
            let bb8 = f.add_block();
            f.store(a, Operand::ImmI(1));
            f.branch(p.into(), bb2, bb3);
            // bb2: 2: Store B ; 3: Store C
            f.switch_to(bb2);
            f.store(b, Operand::ImmI(2));
            f.store(c, Operand::ImmI(3));
            f.jump(bb5);
            // bb3: 4: Load A ; 5: Store C
            f.switch_to(bb3);
            let v4 = f.load(a);
            f.store(c, v4.into());
            f.jump(bb4);
            // bb4: 6: Load B
            f.switch_to(bb4);
            let v6 = f.load(b);
            f.branch(v6.into(), bb5, bb6);
            // bb5: 7: Load B
            f.switch_to(bb5);
            let v7 = f.load(b);
            f.branch(v7.into(), bb7, bb8);
            // bb6: 8: Load C
            f.switch_to(bb6);
            let v8 = f.load(c);
            f.branch(v8.into(), bb7, bb8);
            // bb7: 9: Store A ; 10: Store B ; 11: Load C
            f.switch_to(bb7);
            f.store(a, Operand::ImmI(9));
            f.store(b, Operand::ImmI(10));
            let v11 = f.load(c);
            let _ = v11;
            f.ret(None);
            // bb8: 12: Store C
            f.switch_to(bb8);
            f.store(c, Operand::ImmI(12));
            f.ret(None);
        });
        let m = mb.finish();
        let r = analyze(&m, &whole_function_region(&m, f));
        assert_eq!(r.verdict, Verdict::NonIdempotent { checkpointable: true });
        // Exactly one checkpoint: instruction 10 (the store to B in bb7),
        // matching the paper's "single dependency that actually requires
        // checkpointing".
        assert_eq!(r.cp.len(), 1, "CP = {:?}", r.cp);
        let cp = &r.cp[0];
        assert_eq!(cp.addr, b);
        assert_eq!(cp.at.block, BlockId::new(6)); // bb7 in paper = block 6 here
        // Hazard pairs: loads 6 (bb4) and 7 (bb5) of B are both exposed
        // (the paper's Figure 4b shows EA = {B} at both blocks) and both
        // conflict with store 10 — two pairs, one store.
        assert_eq!(r.violations.len(), 2);
        assert!(r.violations.iter().all(|v| v.store.at == cp.at));
        // The other syntactic WARs never materialize:
        // #: 4 loads A but A is guarded by 1 (entry store) on all paths.
        // @: 8 loads C but C is guarded by 3 or 5 on both paths to bb6.
        // +: 11 loads C but 12 (store C) is not reachable from bb7.
    }
}
