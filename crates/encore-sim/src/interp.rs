//! The IR interpreter with Encore's rollback-recovery runtime.
//!
//! One machine executes one entry-point call to completion, optionally:
//!
//! * collecting an execution [`Profile`] (training runs),
//! * collecting a dynamic memory-event trace (Figure 1),
//! * attributing dynamic instructions to regions (Figure 6),
//! * injecting a single transient fault and modelling its detection
//!   (Figure 8's SFI).
//!
//! There is one executor: the sprint loop in `Machine::step`, which runs
//! pre-lowered micro-ops and intra-function jumps/branches back to back.
//! Profiling, tracing and the golden run's memory-access log are hooks
//! in that loop, compiled in only for its `OBSERVE` instantiation. Only
//! calls, returns, allocation, externs, `Restore` and an unresolvable
//! `SetRecovery` leave the loop for the general executor.
//!
//! ## Recovery semantics
//!
//! `SetRecovery` arms the current frame with the region's recovery block
//! and an empty checkpoint log; `CheckpointMem`/`CheckpointReg` append
//! undo entries; when a fault is *detected* (latency expiring, or a
//! symptom trap while a fault is live) the machine unwinds to the nearest
//! frame with an armed recovery, redirects control to the recovery block,
//! whose `Restore` applies the log in reverse and jumps back to the
//! region header. If no frame is armed, the detection is unrecoverable —
//! exactly the paper's "no hardware support, no Encore region" case.

use crate::externs::Externs;
use crate::fault::{FaultAction, FaultPlan};
use crate::memory::{Memory, ProbeCost};
use crate::predecode::{BaseMode, DecodedAddr, DecodedInst, DecodedModule, MicroOp};
use crate::snapshot::{AccessChunks, Snapshot, SnapshotLog};
use crate::value::{eval_bin, eval_un, Value};
use encore_core::RegionMap;
use encore_analysis::Profile;
use encore_ir::{
    AccessKind, BlockId, FuncId, Inst, InstRef, MemEvent, Module, ObjKind, Offset, Operand, Reg,
    RegionId, Terminator,
};
use std::collections::BTreeMap;

/// Why a run stopped abnormally.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TrapKind {
    /// Memory access violation (out of bounds / dangling handle).
    Memory(String),
    /// Operator/type error.
    Eval(String),
    /// The fuel budget was exhausted (livelock or runaway loop).
    FuelExhausted,
    /// A fault was detected but no recovery region was armed.
    DetectedUnrecoverable,
}

/// An abnormal termination.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Trap {
    /// Category.
    pub kind: TrapKind,
    /// Dynamic instruction count at the trap.
    pub at: u64,
}

impl std::fmt::Display for Trap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trap at dynamic instruction {}: {:?}", self.at, self.kind)
    }
}

impl std::error::Error for Trap {}

/// What happened to the planned fault during the run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FaultTelemetry {
    /// The fault was injected.
    pub injected: bool,
    /// Detection fired (latency expiry or symptom trap).
    pub detected: bool,
    /// A rollback to a recovery block happened.
    pub rolled_back: bool,
    /// The region rolled back to, if any.
    pub rollback_region: Option<RegionId>,
    /// Function and block executing when the fault was injected.
    pub inject_site: Option<(FuncId, BlockId)>,
}

/// Execution options.
#[derive(Clone, PartialEq, Debug)]
pub struct RunConfig {
    /// Maximum dynamic instructions before a
    /// [`TrapKind::FuelExhausted`] trap.
    pub fuel: u64,
    /// Collect a block/edge [`Profile`].
    pub collect_profile: bool,
    /// Collect a [`MemEvent`] trace.
    pub collect_trace: bool,
    /// Attribute dynamic instructions to regions (needs a region map).
    pub region_accounting: bool,
    /// Seed for the deterministic extern environment.
    pub extern_seed: u64,
    /// Fault to inject, if any.
    pub fault: Option<FaultPlan>,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            fuel: 200_000_000,
            collect_profile: false,
            collect_trace: false,
            region_accounting: false,
            extern_seed: 0x5EED,
            fault: None,
        }
    }
}

/// The outcome of a run.
#[derive(Clone, PartialEq, Debug)]
pub struct RunResult {
    /// Return value of the entry call (if the run completed).
    pub ret: Option<Value>,
    /// `true` if the program ran to completion (no trap).
    pub completed: bool,
    /// The trap, when `completed` is false.
    pub trap: Option<Trap>,
    /// Total dynamic instructions retired.
    pub dyn_insts: u64,
    /// Dynamic instructions attributable to Encore instrumentation.
    pub instr_dyn_insts: u64,
    /// Observable output channel.
    pub output: Vec<i64>,
    /// Final global memory (observable state).
    pub globals: Vec<Vec<Value>>,
    /// Training profile (when requested).
    pub profile: Option<Profile>,
    /// Memory-event trace (when requested).
    pub trace: Option<Vec<MemEvent>>,
    /// Dynamic instructions per region (when requested).
    pub region_dyn: BTreeMap<RegionId, u64>,
    /// Number of fault-eligible (value-producing) dynamic instructions —
    /// the sample space for uniform fault injection.
    pub eligible_insts: u64,
    /// Largest checkpoint-log footprint observed for any single region
    /// activation, in bytes (memory entries 16 B, register entries 8 B) —
    /// the *measured* runtime analogue of Figure 7b / Table 1 storage.
    pub ckpt_high_water_bytes: u64,
    /// Fault telemetry.
    pub fault: FaultTelemetry,
}

impl RunResult {
    /// Architecturally observable state equality: return value, output
    /// channel and final global memory.
    pub fn observably_equal(&self, other: &RunResult) -> bool {
        self.ret == other.ret && self.output == other.output && self.globals == other.globals
    }
}

#[derive(Clone)]
struct RecoveryState {
    region: RegionId,
    recovery_block: BlockId,
    log: Vec<CkptEntry>,
    /// Running byte size of `log` (memory entries 16 B, register entries
    /// 8 B), maintained incrementally so the per-checkpoint high-water
    /// update is O(1) instead of a rescan of the whole log.
    log_bytes: u64,
    /// Global activation ordinal assigned when this recovery was armed
    /// (see [`SpliceTrack`]).
    act_ordinal: u64,
}

/// Equality deliberately ignores `act_ordinal`: a rollback's re-executed
/// arming draws a fresh ordinal, so a rolled-back run's ordinals are
/// permanently offset from the golden run's even once the architectural
/// state has fully reconverged. The ordinal is only ever read when a
/// detection unwinds to the frame, which cannot happen after a
/// convergence check passes (the fault was consumed by the rollback that
/// preceded it).
impl PartialEq for RecoveryState {
    fn eq(&self, other: &Self) -> bool {
        self.region == other.region
            && self.recovery_block == other.recovery_block
            && self.log == other.log
            && self.log_bytes == other.log_bytes
    }
}

#[derive(Clone, PartialEq)]
enum CkptEntry {
    Mem { obj: usize, idx: i64, val: Value },
    Reg { reg: Reg, val: Value },
}

/// Bookkeeping for the campaign's *convergence splice*.
///
/// A rolled-back injection run usually re-executes its region cleanly
/// and then tracks the golden run instruction-for-instruction to the
/// end — all of which the campaign re-simulates just to conclude
/// "recovered". The splice shortcuts that: once the run's complete
/// architectural state *equals* a golden snapshot's, its remaining
/// execution is provably identical to the golden run's (state equality
/// is self-justifying — equal state implies equal future under the
/// deterministic interpreter), so the run can stop right there.
///
/// The only heuristic part is deciding *where* to compare. Activations
/// anchor that: the golden run logs its dynamic instruction count at
/// each `SetRecovery` (by global activation ordinal), and a rollback
/// remembers the armed ordinal so the re-executed arming can measure
/// `delta` — how far the faulted run's instruction count has drifted
/// ahead of the golden run's at the same program point. Golden
/// snapshots are then probed at `snapshot dyn + delta`. A wrong or
/// unmeasurable `delta` can only make comparisons fail, never pass, so
/// every miss falls back to plain execution.
#[derive(Default)]
struct SpliceTrack {
    /// Splice bookkeeping requested (campaign injection runs only).
    armed: bool,
    /// `SetRecovery` executions retired so far (the activation ordinal
    /// counter). Snapshots carry it so resumed runs keep numbering
    /// where the golden prefix left off.
    activations: u64,
    /// Golden capture: dyn count at each `SetRecovery`, by ordinal.
    act_log: Option<Vec<u64>>,
    /// Armed ordinal of the region a rollback unwound to; consumed by
    /// the next `SetRecovery`.
    pending_realign: Option<u64>,
    /// `(dyn at the re-executed SetRecovery, golden ordinal)` — the
    /// realignment point the splice driver probes from.
    realign: Option<(u64, u64)>,
}

impl SpliceTrack {
    /// Notes one `SetRecovery` execution at dyn count `now`, returning
    /// the activation's ordinal and whether this arming realigned a
    /// rolled-back run (a control event the sprint must surface).
    #[inline]
    fn on_set_recovery(&mut self, now: u64) -> (u64, bool) {
        let ordinal = self.activations;
        self.activations += 1;
        if let Some(log) = &mut self.act_log {
            log.push(now);
        }
        let mut event = false;
        if let Some(ord) = self.pending_realign.take() {
            self.realign = Some((now, ord));
            event = true;
        }
        (ordinal, event)
    }

    /// Notes a rollback into the recovery armed under `armed_ordinal`.
    fn on_rollback(&mut self, armed_ordinal: u64) {
        if self.armed {
            self.pending_realign = Some(armed_ordinal);
        }
    }
}

/// One activation record. `Clone` because frames are part of a
/// [`Snapshot`]; `PartialEq` because frames are part of the splice's
/// convergence predicate.
#[derive(Clone, PartialEq)]
pub(crate) struct Frame {
    func: FuncId,
    block: BlockId,
    ip: usize,
    regs: Vec<Value>,
    slots: Vec<usize>,
    recovery: Option<RecoveryState>,
    ret_dst: Option<Reg>,
}

struct FaultState {
    plan: FaultPlan,
    /// A deferred action ([`FaultAction::WrongEdge`],
    /// [`FaultAction::CorruptAddress`]) reached its eligible ordinal
    /// and now waits for its firing event (the next branch / memory
    /// access). Immediate actions never set this.
    armed: bool,
    injected: bool,
    detect_at: Option<u64>,
    detected: bool,
}

impl FaultState {
    fn new(plan: FaultPlan) -> Self {
        Self { plan, armed: false, injected: false, detect_at: None, detected: false }
    }
}

/// Which early-exit rule certified a spliced run's outcome.
///
/// Residual-diff size cap for the divergence splice: a run diverging
/// from the golden snapshot in more than this many cells is not worth
/// scanning suffix summaries for (and is very unlikely to be dead), so
/// [`Memory::diff_cells`](crate::Memory::diff_cells) reports it as
/// incomparable and the run falls back to plain execution.
pub const DIFF_CAP: usize = 64;

/// All three rules fire at a probe point where the run's control state
/// (frames, allocation counters, extern PRNG/clock) equals a golden
/// snapshot's at the realigned position — they differ only in what the
/// residual *memory/output* diff proves about the suffix.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SpliceRule {
    /// Rule (a) — generalized recovered-splice: the diff emptied (full
    /// architectural-state equality, output included). The remaining
    /// execution is bit-identical to the golden suffix: a certain
    /// `Recovered`.
    Converged,
    /// Rule (b) — dead-diff splice: the residual diff is confined to
    /// cells the golden suffix never reads, every divergent *global*
    /// cell is overwritten by the suffix (or is not architecturally
    /// observable), and the output prefix matches. The suffix executes
    /// identically and the final observable state equals golden's: a
    /// certain `Recovered` without simulating the suffix.
    DeadDiff,
    /// Rule (c) — SDC splice: the residual diff is dead (rule (b)'s
    /// read-set condition holds, so the suffix still executes
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

/// How [`Machine::run_to_end_or_splice`] finished.
pub(crate) enum SpliceRun {
    /// Ran to completion or a terminal trap, exactly like
    /// [`Machine::run_to_end`].
    Done(Option<Trap>),
    /// A splice rule certified the outcome at a probe point; the `u64`
    /// is the golden-suffix dynamic instruction count the run did *not*
    /// execute.
    Spliced(SpliceRule, u64),
}

/// Golden-capture bookkeeping for the divergence splice: the memory
/// cells read and written since the last snapshot capture, sealed into
/// one chunk per inter-snapshot interval. [`SnapshotLog`] folds the
/// chunks into per-snapshot suffix summaries. Only golden capture runs
/// carry one, so injection runs pay nothing.
#[derive(Default)]
struct MemAccessLog {
    reads: std::collections::HashSet<(u32, u32)>,
    writes: std::collections::HashSet<(u32, u32)>,
    read_chunks: AccessChunks,
    write_chunks: AccessChunks,
}

impl MemAccessLog {
    /// Closes the current interval: drains the live sets into chunks.
    fn seal(&mut self) {
        self.read_chunks.push(self.reads.drain().collect());
        self.write_chunks.push(self.writes.drain().collect());
    }
}

/// What an observed run records: the training [`Profile`], the
/// [`MemEvent`] trace and the golden capture's memory-access log. The
/// sprint loop calls these hooks only in its `OBSERVE` instantiation,
/// which the run drivers pick once per run when any observer is
/// present; every other run executes a loop with no hook code in it.
#[derive(Default)]
struct Observers {
    profile: Option<Profile>,
    trace: Option<Vec<MemEvent>>,
    mem_log: Option<Box<MemAccessLog>>,
}

impl Observers {
    fn any(&self) -> bool {
        self.profile.is_some() || self.trace.is_some() || self.mem_log.is_some()
    }

    /// One retirement of `cost` dynamic instructions inside `func`.
    #[inline]
    fn charge(&mut self, func: FuncId, cost: u64) {
        if let Some(p) = &mut self.profile {
            p.func_mut(func).dyn_insts += cost;
            p.total_dyn_insts += cost;
        }
    }

    fn block_entry(&mut self, func: FuncId, block: BlockId) {
        if let Some(p) = &mut self.profile {
            *p.func_mut(func).block_counts.entry(block).or_insert(0) += 1;
        }
    }

    /// A taken CFG edge, which also enters its target block.
    fn edge(&mut self, func: FuncId, from: BlockId, to: BlockId) {
        if let Some(p) = &mut self.profile {
            *p.func_mut(func).edge_counts.entry((from, to)).or_insert(0) += 1;
        }
        self.block_entry(func, to);
    }

    /// A program load or store of cell `(obj, idx)` by the instruction
    /// at `at`, retired at dynamic instruction `now`: a trace event, a
    /// profile footprint (for the profile-guided alias oracle) and a
    /// memory-log entry.
    #[allow(clippy::too_many_arguments)]
    fn program_access(
        &mut self,
        mem: &Memory,
        func: FuncId,
        at: InstRef,
        obj: usize,
        idx: i64,
        now: u64,
        kind: AccessKind,
    ) {
        if let Some(t) = &mut self.trace {
            t.push(MemEvent { kind, cell: mem.cell_of(obj, idx), at: now });
        }
        if let Some(p) = &mut self.profile {
            p.mem.record(encore_analysis::SiteRef { func, at }, mem.cell_of(obj, idx));
        }
        self.log_access(obj, idx, kind == AccessKind::Store);
    }

    /// Notes one memory access into the golden memory log, if any.
    #[inline]
    fn log_access(&mut self, obj: usize, idx: i64, write: bool) {
        if let Some(log) = &mut self.mem_log {
            // A successful access bounds-checked both coordinates.
            let cell = (obj as u32, idx as u32);
            if write { log.writes.insert(cell) } else { log.reads.insert(cell) };
        }
    }
}

/// Incremental-compare probe state for the divergence splice: the
/// candidate page set carried between probes, which golden interval
/// lists it has absorbed, and the accumulated compare-cost telemetry.
#[derive(Default)]
struct ProbeState {
    /// Sorted, deduplicated `(object, page)` pages where equality with
    /// the last-probed golden snapshot is not established. See
    /// [`Memory::diff_cells_dirty`] for the invariant.
    pending: Vec<(u32, u32)>,
    /// Golden snapshot index the pending set is relative to (`None` =
    /// the golden run's start): interval page lists between here and
    /// the next probe target are unioned in before each compare.
    absorbed_through: Option<usize>,
    /// Probe/page/word counters, merged into the campaign's
    /// [`SpliceStats`](crate::SpliceStats).
    cost: ProbeCost,
}

/// The interpreter. `'m` is the module's lifetime, `'c` the pre-decoded
/// stream's: a campaign owns one [`DecodedModule`] and threads it
/// through many short-lived machines.
pub(crate) struct Machine<'m, 'c> {
    module: &'m Module,
    code: &'c DecodedModule<'m>,
    map: Option<&'m RegionMap>,
    mem: Memory,
    frames: Vec<Frame>,
    externs: Externs,
    dyn_insts: u64,
    instr_dyn: u64,
    frame_seq: u32,
    heap_seq: u32,
    last_alloc_of_site: Vec<Option<usize>>,
    obs: Observers,
    region_dyn: Vec<u64>,
    region_touched: Vec<bool>,
    region_accounting: bool,
    fault: Option<FaultState>,
    telemetry: FaultTelemetry,
    eligible_seen: u64,
    ckpt_high_water: u64,
    splice: SpliceTrack,
    fuel: u64,
    final_ret: Option<Value>,
    /// Register generation mask: bit `min(reg, 63)` is set by every
    /// register write since resume. Purely a fail-fast compare hint —
    /// golden registers churn every instruction, so unlike memory
    /// pages no register compare can ever be *skipped* soundly (see
    /// DESIGN.md §13); the mask just orders the frame compare to look
    /// at recently written registers first.
    reg_dirty: u64,
    /// Object count at the machine's dirty-tracking baseline (the
    /// resume snapshot, or module globals for a scratch start):
    /// objects below it are shape-identical to every golden snapshot's
    /// by construction.
    base_objects: usize,
    /// Incremental splice-probe state (injection runs only).
    probe: ProbeState,
}

impl std::fmt::Debug for Machine<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("module", &self.module.name)
            .field("dyn_insts", &self.dyn_insts)
            .field("frames", &self.frames.len())
            .finish_non_exhaustive()
    }
}

/// Reads an operand against `frame`. Takes the frame directly so the
/// sprint resolves `frames.last_mut()` once per instruction instead of
/// once per use.
#[inline]
fn opnd(frame: &Frame, op: &Operand) -> Value {
    match op {
        Operand::Reg(r) => frame.regs[r.index()],
        Operand::ImmI(v) => Value::Int(*v),
        Operand::ImmF(v) => Value::Float(*v),
    }
}

/// Resolves a pre-decoded address to `(object handle, cell index)`,
/// with global bases already reduced to their object handle at decode
/// time.
#[inline]
fn resolve_decoded(
    frame: &Frame,
    last_alloc_of_site: &[Option<usize>],
    now: u64,
    addr: &DecodedAddr,
) -> Result<(usize, i64), Trap> {
    let (obj, base_idx) = match addr.base {
        BaseMode::Global(h) => (h, 0i64),
        BaseMode::Slot(s) => {
            let h = *frame.slots.get(s.index()).ok_or_else(|| Trap {
                kind: TrapKind::Memory(format!("undeclared slot {s}")),
                at: now,
            })?;
            (h, 0)
        }
        BaseMode::Heap(h) => {
            let handle = last_alloc_of_site
                .get(h.index())
                .copied()
                .flatten()
                .ok_or_else(|| Trap {
                    kind: TrapKind::Memory(format!("heap site {h} has no allocation")),
                    at: now,
                })?;
            (handle, 0)
        }
        BaseMode::RegPtr(r) => match frame.regs[r.index()] {
            Value::Ptr { obj, idx } => (obj, idx),
            other => {
                return Err(Trap {
                    kind: TrapKind::Memory(format!(
                        "register {r} does not hold a pointer (holds {other})"
                    )),
                    at: now,
                })
            }
        },
    };
    let off = match addr.off {
        Offset::Const(c) => c,
        Offset::Scaled { index, scale, disp } => match frame.regs[index.index()] {
            Value::Int(i) => i.wrapping_mul(scale).wrapping_add(disp),
            other => {
                return Err(Trap {
                    kind: TrapKind::Memory(format!(
                        "index register {index} is not an integer (holds {other})"
                    )),
                    at: now,
                })
            }
        },
    };
    Ok((obj, base_idx.wrapping_add(off)))
}

/// Applies the fault plan to a value-producing instruction's result,
/// taking the fault fields as split borrows so the current frame can
/// stay mutably borrowed across the call. Counts one eligible
/// instruction (even without a plan, so golden runs report the sample
/// space) and, at the plan's ordinal, dispatches on the
/// [`FaultAction`]: value corruptions apply here; deferred actions
/// (wrong-edge, address) only *arm* and fire later at their matching
/// event; a power failure marks itself injected with detection due
/// immediately (the machine dies before the next instruction). Sets
/// `fired` when the fault is injected by this call (the sprint loop
/// then tightens its detection bound).
#[allow(clippy::too_many_arguments)]
#[inline]
fn inject(
    fault: &mut Option<FaultState>,
    eligible_seen: &mut u64,
    now: u64,
    telemetry: &mut FaultTelemetry,
    site: (FuncId, BlockId),
    v: Value,
    fired: &mut bool,
) -> Value {
    let ordinal = *eligible_seen;
    *eligible_seen += 1;
    let Some(f) = fault else { return v };
    if f.injected || ordinal != f.plan.inject_at {
        return v;
    }
    match f.plan.action {
        FaultAction::FlipBits { mask } => {
            f.injected = true;
            f.detect_at = Some(now + f.plan.detect_latency);
            telemetry.injected = true;
            telemetry.inject_site = Some(site);
            *fired = true;
            v.flip_bits(mask)
        }
        FaultAction::WrongEdge | FaultAction::CorruptAddress { .. } => {
            f.armed = true;
            v
        }
        FaultAction::PowerFailure => {
            f.injected = true;
            f.detect_at = Some(now);
            telemetry.injected = true;
            telemetry.inject_site = Some(site);
            *fired = true;
            v
        }
    }
}

/// Fires an armed [`FaultAction::CorruptAddress`] fault, if any: the
/// first program load/store executed after the arming ordinal XORs the
/// plan's mask (folded to 16 bits, like pointer corruption) into its
/// resolved cell index. The corrupted access either lands in bounds
/// (silently hitting a neighbour cell) or traps — a symptom
/// [`Machine::step_detected`] converts into detection while the fault
/// is live.
#[inline]
fn corrupt_addr(
    fault: &mut Option<FaultState>,
    now: u64,
    telemetry: &mut FaultTelemetry,
    site: (FuncId, BlockId),
    idx: i64,
    fired: &mut bool,
) -> i64 {
    let Some(f) = fault else { return idx };
    if !f.armed || f.injected {
        return idx;
    }
    let FaultAction::CorruptAddress { mask } = f.plan.action else { return idx };
    f.injected = true;
    f.detect_at = Some(now + f.plan.detect_latency);
    telemetry.injected = true;
    telemetry.inject_site = Some(site);
    *fired = true;
    idx ^ crate::value::fold_mask16(mask) as i64
}

/// Executes one pre-lowered instruction against split borrows of the
/// machine: the body of the interpreter's sprint loop. With `OBSERVE`
/// set, program memory accesses are reported to `obs`; without it the
/// hooks compile away. `now` is the already-charged dynamic instruction
/// count; the caller has already advanced the instruction pointer.
///
/// Returns `Ok(true)` on a *control event* the sprint must surface:
/// either this instruction injected the planned fault (the sprint then
/// tightens its detection bound), or — with no fault live — a
/// `SetRecovery` realigned a rolled-back run (the sprint pauses so the
/// splice driver can start probing golden snapshots).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn exec_fast<const OBSERVE: bool>(
    di: &DecodedInst<'_>,
    frame: &mut Frame,
    mem: &mut Memory,
    fault: &mut Option<FaultState>,
    eligible_seen: &mut u64,
    telemetry: &mut FaultTelemetry,
    last_alloc_of_site: &[Option<usize>],
    ckpt_high_water: &mut u64,
    splice: &mut SpliceTrack,
    reg_dirty: &mut u64,
    obs: &mut Observers,
    site: (FuncId, BlockId),
    now: u64,
) -> Result<bool, Trap> {
    let mut fired = false;
    match &di.op {
        MicroOp::Bin { op, dst, lhs, rhs } => {
            let a = opnd(frame, lhs);
            let b = opnd(frame, rhs);
            let v = eval_bin(*op, a, b)
                .map_err(|e| Trap { kind: TrapKind::Eval(e.message), at: now })?;
            let v = inject(fault, eligible_seen, now, telemetry, site, v, &mut fired);
            frame.regs[dst.index()] = v;
            *reg_dirty |= 1 << dst.index().min(63);
        }
        MicroOp::Un { op, dst, src } => {
            let a = opnd(frame, src);
            let v =
                eval_un(*op, a).map_err(|e| Trap { kind: TrapKind::Eval(e.message), at: now })?;
            let v = inject(fault, eligible_seen, now, telemetry, site, v, &mut fired);
            frame.regs[dst.index()] = v;
            *reg_dirty |= 1 << dst.index().min(63);
        }
        MicroOp::Mov { dst, src } => {
            let v = opnd(frame, src);
            let v = inject(fault, eligible_seen, now, telemetry, site, v, &mut fired);
            frame.regs[dst.index()] = v;
            *reg_dirty |= 1 << dst.index().min(63);
        }
        MicroOp::Load { dst, addr } => {
            let (obj, idx) = resolve_decoded(frame, last_alloc_of_site, now, addr)?;
            let idx = corrupt_addr(fault, now, telemetry, site, idx, &mut fired);
            let v = mem
                .read(obj, idx)
                .map_err(|e| Trap { kind: TrapKind::Memory(e.message), at: now })?;
            if OBSERVE {
                obs.program_access(mem, site.0, di.at, obj, idx, now, AccessKind::Load);
            }
            let v = inject(fault, eligible_seen, now, telemetry, site, v, &mut fired);
            frame.regs[dst.index()] = v;
            *reg_dirty |= 1 << dst.index().min(63);
        }
        MicroOp::Store { addr, src } => {
            let (obj, idx) = resolve_decoded(frame, last_alloc_of_site, now, addr)?;
            let idx = corrupt_addr(fault, now, telemetry, site, idx, &mut fired);
            let v = opnd(frame, src);
            let v = inject(fault, eligible_seen, now, telemetry, site, v, &mut fired);
            mem.write(obj, idx, v)
                .map_err(|e| Trap { kind: TrapKind::Memory(e.message), at: now })?;
            if OBSERVE {
                obs.program_access(mem, site.0, di.at, obj, idx, now, AccessKind::Store);
            }
        }
        MicroOp::Lea { dst, addr } => {
            // Address materialization is not fault-eligible.
            let (obj, idx) = resolve_decoded(frame, last_alloc_of_site, now, addr)?;
            frame.regs[dst.index()] = Value::Ptr { obj, idx };
            *reg_dirty |= 1 << dst.index().min(63);
        }
        // Instrumentation (not fault-eligible). The recovery block was
        // pre-resolved at decode time; the unresolvable cases stay
        // `Slow` and trap in the general executor.
        MicroOp::SetRecovery { region, recovery_block } => {
            let (ordinal, event) = splice.on_set_recovery(now);
            frame.recovery = Some(RecoveryState {
                region: *region,
                recovery_block: *recovery_block,
                log: Vec::new(),
                log_bytes: 0,
                act_ordinal: ordinal,
            });
            if event {
                fired = true;
            }
        }
        MicroOp::CkptMem { addr } => {
            let (obj, idx) = resolve_decoded(frame, last_alloc_of_site, now, addr)?;
            let val = mem
                .read(obj, idx)
                .map_err(|e| Trap { kind: TrapKind::Memory(e.message), at: now })?;
            if OBSERVE {
                obs.log_access(obj, idx, false);
            }
            if let Some(rec) = &mut frame.recovery {
                rec.log.push(CkptEntry::Mem { obj, idx, val });
                rec.log_bytes += 16;
                *ckpt_high_water = (*ckpt_high_water).max(rec.log_bytes);
            }
        }
        MicroOp::CkptReg { reg } => {
            let val = frame.regs[reg.index()];
            if let Some(rec) = &mut frame.recovery {
                rec.log.push(CkptEntry::Reg { reg: *reg, val });
                rec.log_bytes += 8;
                *ckpt_high_water = (*ckpt_high_water).max(rec.log_bytes);
            }
        }
        // The sprint loop hands `Slow` to the general executor.
        MicroOp::Slow(_) => unreachable!("slow ops dispatch through exec_inst"),
    }
    Ok(fired)
}

/// Runs `entry(args)` on `module` under `config`. `map` supplies the
/// recovery metadata for instrumented modules (pass `None` for plain
/// ones).
///
/// Decodes the module on entry; callers that run the same module many
/// times (campaigns) should decode once and use the machine-level API
/// instead.
pub fn run_function(
    module: &Module,
    map: Option<&RegionMap>,
    entry: FuncId,
    args: &[Value],
    config: &RunConfig,
) -> RunResult {
    let code = DecodedModule::new(module, map);
    let mut m = Machine::start(module, &code, map, entry, args, config);
    let trap = m.run_to_end();
    m.into_result(trap)
}

/// Like [`run_function`] but additionally captures a [`Snapshot`] of
/// the machine every `stride` dynamic instructions (`0` disables
/// capture). The run itself is unperturbed: the returned [`RunResult`]
/// is bit-identical to [`run_function`]'s.
///
/// # Panics
///
/// Panics if `config` requests a fault, a profile or a trace — none of
/// those are part of a snapshot, so resuming would be lossy.
pub fn run_function_with_snapshots<'m>(
    module: &'m Module,
    map: Option<&'m RegionMap>,
    code: &DecodedModule<'m>,
    entry: FuncId,
    args: &[Value],
    config: &RunConfig,
    stride: u64,
) -> (RunResult, SnapshotLog) {
    assert!(config.fault.is_none(), "snapshot capture requires a fault-free run");
    assert!(
        !config.collect_profile && !config.collect_trace,
        "snapshots do not capture profiles or traces"
    );
    let mut m = Machine::start(module, code, map, entry, args, config);
    let mut log = SnapshotLog::new(stride);
    let trap = if stride == 0 {
        m.run_to_end()
    } else {
        m.enable_act_log();
        m.enable_mem_log();
        m.run_to_end_capturing(stride, &mut log)
    };
    log.set_activation_dyn(m.take_act_log());
    if stride > 0 {
        let (reads, writes) = m.take_mem_chunks();
        log.set_suffix_summaries(reads, writes);
    }
    (m.into_result(trap), log)
}

impl<'m, 'c> Machine<'m, 'c> {
    fn new(
        module: &'m Module,
        code: &'c DecodedModule<'m>,
        map: Option<&'m RegionMap>,
        config: &RunConfig,
    ) -> Self {
        Self {
            module,
            code,
            map,
            mem: Memory::for_module(module),
            frames: Vec::new(),
            externs: Externs::new(config.extern_seed),
            dyn_insts: 0,
            instr_dyn: 0,
            frame_seq: 0,
            heap_seq: 0,
            last_alloc_of_site: vec![None; code.heap_site_count],
            obs: Observers {
                profile: config.collect_profile.then(|| Profile::empty_for(module)),
                trace: config.collect_trace.then(Vec::new),
                mem_log: None,
            },
            region_dyn: vec![0; code.region_count],
            region_touched: vec![false; code.region_count],
            region_accounting: config.region_accounting,
            fault: config.fault.map(FaultState::new),
            telemetry: FaultTelemetry::default(),
            eligible_seen: 0,
            ckpt_high_water: 0,
            splice: SpliceTrack::default(),
            fuel: config.fuel,
            final_ret: None,
            reg_dirty: 0,
            base_objects: module.globals.len(),
            probe: ProbeState::default(),
        }
    }

    /// A machine poised at the first instruction of `entry(args)`.
    pub(crate) fn start(
        module: &'m Module,
        code: &'c DecodedModule<'m>,
        map: Option<&'m RegionMap>,
        entry: FuncId,
        args: &[Value],
        config: &RunConfig,
    ) -> Self {
        let mut m = Self::new(module, code, map, config);
        m.call(entry, args, None);
        m
    }

    /// A machine restored to `snap`'s state, ready to resume under
    /// `config` (which supplies the fault plan and fuel; profiles and
    /// traces cannot cross a snapshot boundary).
    pub(crate) fn from_snapshot(
        module: &'m Module,
        code: &'c DecodedModule<'m>,
        map: Option<&'m RegionMap>,
        snap: &Snapshot,
        config: &RunConfig,
    ) -> Self {
        debug_assert!(
            !config.collect_profile && !config.collect_trace,
            "profiles/traces cannot be resumed from a snapshot"
        );
        // The restored snapshot *is* the dirty-tracking baseline: every
        // cell written from here on (program stores, fault corruption,
        // rollback restores) re-enters the dirty set.
        let mut mem = snap.mem.clone();
        mem.reset_dirty();
        Self {
            module,
            code,
            map,
            mem,
            frames: snap.frames.clone(),
            externs: snap.externs.clone(),
            dyn_insts: snap.dyn_insts,
            instr_dyn: snap.instr_dyn,
            frame_seq: snap.frame_seq,
            heap_seq: snap.heap_seq,
            last_alloc_of_site: snap.last_alloc_of_site.clone(),
            obs: Observers::default(),
            region_dyn: snap.region_dyn.clone(),
            region_touched: snap.region_touched.clone(),
            region_accounting: config.region_accounting,
            // A plan whose inject ordinal precedes the snapshot cannot
            // fire after resume; [`SfiCampaign::run_one`] only resumes
            // from snapshots with `eligible_seen <= plan.inject_at`, so
            // the rebuilt (un-armed, un-injected) state is exactly what
            // a from-scratch run carries at this point — for every
            // [`FaultAction`], deferred ones included, since arming
            // happens at or after the inject ordinal.
            fault: config.fault.map(FaultState::new),
            telemetry: FaultTelemetry::default(),
            eligible_seen: snap.eligible_seen,
            ckpt_high_water: snap.ckpt_high_water,
            splice: SpliceTrack { activations: snap.activations, ..SpliceTrack::default() },
            fuel: config.fuel,
            final_ret: None,
            reg_dirty: 0,
            base_objects: snap.mem.object_count(),
            probe: ProbeState {
                absorbed_through: Some(snap.index),
                ..ProbeState::default()
            },
        }
    }

    /// Captures the complete resumable state at the current step
    /// boundary.
    fn capture_snapshot(&self) -> Snapshot {
        Snapshot {
            index: 0, // assigned by SnapshotLog::push
            frames: self.frames.clone(),
            mem: self.mem.clone(),
            externs: self.externs.clone(),
            dyn_insts: self.dyn_insts,
            instr_dyn: self.instr_dyn,
            frame_seq: self.frame_seq,
            heap_seq: self.heap_seq,
            last_alloc_of_site: self.last_alloc_of_site.clone(),
            region_dyn: self.region_dyn.clone(),
            region_touched: self.region_touched.clone(),
            eligible_seen: self.eligible_seen,
            ckpt_high_water: self.ckpt_high_water,
            activations: self.splice.activations,
        }
    }

    fn call(&mut self, func: FuncId, args: &[Value], ret_dst: Option<Reg>) {
        let f = self.module.func(func);
        let mut regs = vec![Value::ZERO; f.reg_count as usize];
        for (i, a) in args.iter().enumerate().take(f.param_count as usize) {
            regs[i] = *a;
        }
        let frame_no = self.frame_seq;
        self.frame_seq += 1;
        let slots = f
            .slots
            .iter()
            .enumerate()
            .map(|(i, s)| {
                self.mem.alloc(
                    ObjKind::Slot { frame: frame_no, slot: i as u32 },
                    s.cells as usize,
                )
            })
            .collect();
        self.obs.block_entry(func, f.entry());
        self.frames.push(Frame {
            func,
            block: f.entry(),
            ip: 0,
            regs,
            slots,
            recovery: None,
            ret_dst,
        });
    }

    fn operand(&self, op: &Operand) -> Value {
        opnd(self.frames.last().expect("no frame"), op)
    }

    fn set_reg(&mut self, r: Reg, v: Value) {
        let frame = self.frames.last_mut().expect("no frame");
        frame.regs[r.index()] = v;
        self.reg_dirty |= 1 << r.index().min(63);
    }

    /// True when a live (injected, undetected) fault should now be
    /// detected.
    fn detection_due(&self) -> bool {
        match &self.fault {
            Some(f) if f.injected && !f.detected => {
                f.detect_at.map(|d| self.dyn_insts >= d).unwrap_or(false)
            }
            _ => false,
        }
    }

    /// Fault detection fired: unwind to the nearest armed frame and
    /// redirect to its recovery block.
    ///
    /// For a [`FaultAction::PowerFailure`] the machine additionally
    /// loses the in-flight volatile state of the region it restarts:
    /// every register the recovery log checkpointed is zeroed before
    /// the recovery block runs, modeling a reboot on an intermittent
    /// device whose memory is non-volatile but whose register file is
    /// not. The recovery block's `Restore` ops must re-materialize
    /// those registers from the log — a recovery block that missed one
    /// re-executes from a zeroed value and the campaign classifies the
    /// run as silent corruption. Registers outside the checkpoint set
    /// are assumed preserved by the runtime's region-entry context save
    /// (the standard just-in-time-checkpointing contract; our log only
    /// materializes the WAR subset Encore checkpoints).
    ///
    /// Returns `Err` when no frame is armed (unrecoverable).
    fn trigger_recovery(&mut self) -> Result<(), Trap> {
        let power = matches!(
            &self.fault,
            Some(f) if matches!(f.plan.action, FaultAction::PowerFailure)
        );
        if let Some(f) = &mut self.fault {
            f.detected = true;
        }
        self.telemetry.detected = true;
        // Find the deepest armed frame.
        while let Some(frame) = self.frames.last() {
            if let Some(rec) = &frame.recovery {
                let (region, block) = (rec.region, rec.recovery_block);
                let ordinal = rec.act_ordinal;
                let lost: Vec<usize> = if power {
                    rec.log
                        .iter()
                        .filter_map(|e| match e {
                            CkptEntry::Reg { reg, .. } => Some(reg.index()),
                            CkptEntry::Mem { .. } => None,
                        })
                        .collect()
                } else {
                    Vec::new()
                };
                let frame = self.frames.last_mut().expect("frame");
                frame.block = block;
                frame.ip = 0;
                for r in lost {
                    frame.regs[r] = Value::ZERO;
                    self.reg_dirty |= 1 << r.min(63);
                }
                self.telemetry.rolled_back = true;
                self.telemetry.rollback_region = Some(region);
                self.splice.on_rollback(ordinal);
                // The fault is consumed: re-execution is fault-free.
                self.fault = None;
                return Ok(());
            }
            self.frames.pop();
        }
        Err(Trap { kind: TrapKind::DetectedUnrecoverable, at: self.dyn_insts })
    }

    /// Executes a *sprint*: consecutive pre-lowered instructions and
    /// intra-function jumps/branches in a tight loop over split borrows
    /// of the machine, then at most one item of the general executor.
    ///
    /// The sprint stops — *without* executing the next item — when
    /// `limit` is reached or a pending fault detection must fire; it
    /// hands over to the general executor at a slow instruction (after
    /// charging it) and at `Ret`. Per-item fuel, detection and `limit`
    /// checks make every observable state transition identical to
    /// executing one item per call, so snapshot capture points and
    /// fault semantics do not depend on where sprints end; `limit`
    /// exists so capturing callers get control back at exact
    /// instruction-count boundaries (pass `u64::MAX` otherwise).
    ///
    /// `OBSERVE` compiles in the profile, trace and memory-log hooks;
    /// the run drivers pick it once per run from whether any observer
    /// is present.
    ///
    /// Returns `Ok(true)` while the program is still running.
    fn step<const OBSERVE: bool>(&mut self, limit: u64) -> Result<bool, Trap> {
        if self.dyn_insts >= self.fuel {
            return Err(Trap { kind: TrapKind::FuelExhausted, at: self.dyn_insts });
        }
        if self.detection_due() {
            self.trigger_recovery()?;
        }
        let Some(frame) = self.frames.last() else {
            return Ok(false);
        };
        let func_id = frame.func;
        // Copying the `&'c DecodedModule` reference out of `self` gives
        // the instruction borrow a lifetime independent of `&mut self`,
        // so execution borrows instead of cloning.
        let code = self.code;
        let dfunc = code.func(func_id);

        /// Why the sprint handed control back.
        enum Stop<'t> {
            /// `limit` reached or a detection is due: the caller's next
            /// `step` resumes (or fires the detection) at this state.
            Boundary,
            /// This already-charged instruction needs the general
            /// executor.
            Slow(&'t Inst),
            /// The block's already-charged `Ret`.
            Ret(&'t Option<Operand>),
        }
        let stop = {
            let fuel = self.fuel;
            let region_accounting = self.region_accounting;
            let Machine {
                frames,
                mem,
                fault,
                eligible_seen,
                telemetry,
                last_alloc_of_site,
                dyn_insts,
                instr_dyn,
                region_dyn,
                region_touched,
                ckpt_high_water,
                splice,
                reg_dirty,
                obs,
                ..
            } = self;
            let frame = frames.last_mut().expect("frame");
            let mut block = dfunc.block(frame.block);
            let mut site = (func_id, frame.block);
            // `ip` lives in a local and is written back at every sprint
            // exit. A trap mid-sprint leaves it stale, which is
            // unobservable: recovery overwrites (or pops) the frame's
            // position, and terminal traps never read it.
            let mut ip = frame.ip;
            // One merged per-item pause bound: the caller's limit, the
            // fuel budget, and — once a fault is injected — its
            // detection due-time. The hit branch below disambiguates in
            // priority order: limit, then fuel, then detection.
            let mut bound = limit.min(fuel);
            if let Some(f) = &*fault {
                if f.injected && !f.detected {
                    if let Some(d) = f.detect_at {
                        bound = bound.min(d);
                    }
                }
            }
            loop {
                if *dyn_insts >= bound {
                    frame.ip = ip;
                    if *dyn_insts >= limit {
                        break Stop::Boundary;
                    }
                    if *dyn_insts >= fuel {
                        return Err(Trap { kind: TrapKind::FuelExhausted, at: *dyn_insts });
                    }
                    // Detection is due: the caller's next `step` fires
                    // it at this exact state.
                    break Stop::Boundary;
                }
                if (ip as u32) < block.len {
                    let di = &dfunc.steps[block.start as usize + ip];
                    *dyn_insts += di.cost;
                    if di.instrumentation {
                        *instr_dyn += di.cost;
                    }
                    if region_accounting {
                        if let Some(rid) = block.region {
                            region_dyn[rid.index()] += di.cost;
                            region_touched[rid.index()] = true;
                        }
                    }
                    if OBSERVE {
                        obs.charge(func_id, di.cost);
                    }
                    ip += 1;
                    if let MicroOp::Slow(inst) = di.op {
                        frame.ip = ip;
                        break Stop::Slow(inst);
                    }
                    // A symptom trap here propagates to `run_to_end`,
                    // which treats it as detection while a fault is
                    // live.
                    match exec_fast::<OBSERVE>(
                        di,
                        frame,
                        mem,
                        fault,
                        eligible_seen,
                        telemetry,
                        last_alloc_of_site,
                        ckpt_high_water,
                        splice,
                        reg_dirty,
                        obs,
                        site,
                        *dyn_insts,
                    ) {
                        Ok(false) => {}
                        Ok(true) => match &*fault {
                            // The fault was injected just now: start
                            // pausing at its detection due-time.
                            Some(f) => {
                                if let Some(d) = f.detect_at {
                                    bound = bound.min(d);
                                }
                            }
                            // No fault live: a `SetRecovery` realigned
                            // a rolled-back run. Pause so the splice
                            // driver can probe golden snapshots.
                            None => {
                                frame.ip = ip;
                                break Stop::Boundary;
                            }
                        },
                        Err(t) => {
                            frame.ip = ip;
                            return Err(t);
                        }
                    }
                } else {
                    frame.ip = ip;
                    let Some(term) = block.term else {
                        return Err(Trap {
                            kind: TrapKind::Eval(format!("unterminated block {}", frame.block)),
                            at: *dyn_insts,
                        });
                    };
                    *dyn_insts += 1;
                    if region_accounting {
                        if let Some(rid) = block.region {
                            region_dyn[rid.index()] += 1;
                            region_touched[rid.index()] = true;
                        }
                    }
                    if OBSERVE {
                        obs.charge(func_id, 1);
                    }
                    let target = match term {
                        Terminator::Jump(t) => *t,
                        Terminator::Branch { cond, then_bb, else_bb } => {
                            let mut target =
                                if opnd(frame, cond).truthy() { *then_bb } else { *else_bb };
                            // An armed wrong-edge fault fires at the
                            // first conditional branch after its
                            // ordinal, taking the not-taken edge.
                            if let Some(f) = fault.as_mut() {
                                if f.armed
                                    && !f.injected
                                    && matches!(f.plan.action, FaultAction::WrongEdge)
                                {
                                    target = if target == *then_bb { *else_bb } else { *then_bb };
                                    f.injected = true;
                                    let due = *dyn_insts + f.plan.detect_latency;
                                    f.detect_at = Some(due);
                                    telemetry.injected = true;
                                    telemetry.inject_site = Some(site);
                                    bound = bound.min(due);
                                }
                            }
                            target
                        }
                        // `Ret` pops a frame: the general executor's job.
                        Terminator::Ret(v) => break Stop::Ret(v),
                    };
                    if OBSERVE {
                        obs.edge(func_id, frame.block, target);
                    }
                    frame.block = target;
                    ip = 0;
                    block = dfunc.block(target);
                    site = (func_id, target);
                }
            }
        };

        match stop {
            Stop::Boundary => Ok(true),
            Stop::Slow(inst) => {
                self.exec_inst(inst)?;
                Ok(true)
            }
            Stop::Ret(v) => {
                self.exec_ret(func_id, v);
                Ok(!self.frames.is_empty())
            }
        }
    }

    /// The general executor: the instructions the sprint does not
    /// lower to micro-ops, already charged by the sprint.
    fn exec_inst(&mut self, inst: &Inst) -> Result<(), Trap> {
        match inst {
            Inst::Alloc { dst, site, size } => {
                let n = self
                    .operand(size)
                    .as_int()
                    .filter(|n| *n >= 0)
                    .ok_or_else(|| Trap {
                        kind: TrapKind::Memory("alloc size must be a non-negative int".into()),
                        at: self.dyn_insts,
                    })?;
                let handle = self.mem.alloc(ObjKind::Heap(self.heap_seq), n as usize);
                self.heap_seq += 1;
                // Decode sized the table over every Alloc site.
                self.last_alloc_of_site[site.index()] = Some(handle);
                self.set_reg(*dst, Value::Ptr { obj: handle, idx: 0 });
            }
            Inst::Call { callee, dst, args } => {
                let vals: Vec<Value> = args.iter().map(|a| self.operand(a)).collect();
                self.call(*callee, &vals, *dst);
            }
            Inst::CallExt { name, dst, args, .. } => {
                let frame = self.frames.last().expect("frame");
                let site = (frame.func, frame.block);
                let vals: Vec<Value> = args.iter().map(|a| opnd(frame, a)).collect();
                let r = self.externs.call(name, &vals).map_err(|e| Trap {
                    kind: TrapKind::Eval(e.message),
                    at: self.dyn_insts,
                })?;
                if let Some(d) = dst {
                    // The next `step` bounds its sprint by any detection
                    // this injection scheduled.
                    let mut fired = false;
                    let r = inject(
                        &mut self.fault,
                        &mut self.eligible_seen,
                        self.dyn_insts,
                        &mut self.telemetry,
                        site,
                        r,
                        &mut fired,
                    );
                    self.set_reg(*d, r);
                }
            }
            // Decode lowered every `SetRecovery` whose region has a
            // recovery block; one that reaches here can only trap.
            Inst::SetRecovery { region } => {
                let known = self.map.and_then(|m| m.regions.get(region.index())).is_some();
                let msg = if known {
                    format!("{region} has no recovery block")
                } else {
                    format!("SetRecovery for unknown {region}")
                };
                return Err(Trap { kind: TrapKind::Eval(msg), at: self.dyn_insts });
            }
            Inst::Restore { region } => {
                let frame = self.frames.last_mut().expect("frame");
                let Some(rec) = &mut frame.recovery else {
                    return Err(Trap {
                        kind: TrapKind::Eval(format!("Restore {region} with no armed recovery")),
                        at: self.dyn_insts,
                    });
                };
                let log = std::mem::take(&mut rec.log);
                rec.log_bytes = 0;
                for entry in log.into_iter().rev() {
                    match entry {
                        CkptEntry::Reg { reg, val } => {
                            self.frames.last_mut().expect("frame").regs[reg.index()] = val;
                        }
                        CkptEntry::Mem { obj, idx, val } => {
                            self.mem.write(obj, idx, val).map_err(|e| Trap {
                                kind: TrapKind::Memory(e.message),
                                at: self.dyn_insts,
                            })?;
                            self.obs.log_access(obj, idx, true);
                        }
                    }
                }
            }
            _ => unreachable!("{inst:?} is lowered to a micro-op"),
        }
        Ok(())
    }

    /// Returns from the current frame of `func_id` with value `v`.
    fn exec_ret(&mut self, func_id: FuncId, v: &Option<Operand>) {
        let val = v.as_ref().map(|op| self.operand(op));
        let frame = self.frames.pop().expect("frame");
        if let Some(p) = &mut self.obs.profile {
            p.func_mut(func_id).invocations += 1;
        }
        match self.frames.last_mut() {
            Some(caller) => {
                if let Some(dst) = frame.ret_dst {
                    caller.regs[dst.index()] = val.unwrap_or(Value::ZERO);
                    self.reg_dirty |= 1 << dst.index().min(63);
                }
            }
            None => self.final_ret = val,
        }
    }

    fn fault_live(&self) -> bool {
        self.fault.as_ref().map(|f| f.injected && !f.detected).unwrap_or(false)
    }

    /// One [`Machine::step`] with symptom-based detection folded in: a
    /// trap while an undetected fault is live (other than fuel
    /// exhaustion) triggers the recovery path instead of terminating
    /// the run. The shared stepping primitive of [`Machine::run_to_end`]
    /// and the splice driver, so both have identical fault semantics.
    fn step_detected<const OBSERVE: bool>(&mut self, limit: u64) -> Result<bool, Trap> {
        match self.step::<OBSERVE>(limit) {
            Ok(alive) => Ok(alive),
            Err(t) => {
                if self.fault_live() && !matches!(t.kind, TrapKind::FuelExhausted) {
                    self.trigger_recovery()?;
                    return Ok(true);
                }
                Err(t)
            }
        }
    }

    /// Runs until completion or a terminal trap, returning the trap.
    pub(crate) fn run_to_end(&mut self) -> Option<Trap> {
        if self.obs.any() {
            self.run_loop::<true>()
        } else {
            self.run_loop::<false>()
        }
    }

    fn run_loop<const OBSERVE: bool>(&mut self) -> Option<Trap> {
        loop {
            match self.step_detected::<OBSERVE>(u64::MAX) {
                Ok(true) => continue,
                Ok(false) => return None,
                Err(t) => return Some(t),
            }
        }
    }

    /// [`Machine::run_to_end`] for campaign injection runs, with the
    /// divergence-tracked splice: after a rollback realigns the run
    /// against the golden activation timeline, successive golden
    /// snapshots are probed and the run's *diff* against each is
    /// classified by [`Machine::classify_divergence`] — a certified
    /// rule ends the run early; a miss merely falls back to plain
    /// execution. See [`SpliceTrack`] for the realignment mechanics
    /// and [`SpliceRule`] for the per-rule soundness arguments.
    pub(crate) fn run_to_end_or_splice(
        &mut self,
        snapshots: &SnapshotLog,
        golden_final_dyn: u64,
    ) -> SpliceRun {
        debug_assert!(!self.obs.any(), "injection runs are not observed");
        self.splice.armed = true;
        // Phase 1: run normally until a rollback's re-executed arming
        // realigns the run (or the run just finishes).
        let (realign_dyn, ordinal) = loop {
            match self.step_detected::<false>(u64::MAX) {
                Ok(true) => {
                    if let Some(r) = self.splice.realign.take() {
                        break r;
                    }
                }
                Ok(false) => return SpliceRun::Done(None),
                Err(t) => return SpliceRun::Done(Some(t)),
            }
        };
        // `delta`: how many more dynamic instructions this run has
        // retired than the golden run had at the same program point.
        // Unmeasurable (ordinal past the golden log, or the golden run
        // was ahead) means the timelines cannot be aligned: finish
        // normally.
        let Some(delta) = snapshots
            .activation_dyn()
            .get(ordinal as usize)
            .and_then(|&golden_dyn| realign_dyn.checked_sub(golden_dyn))
        else {
            return SpliceRun::Done(self.run_to_end());
        };
        // Phase 2: execute on, pausing at golden snapshots' realigned
        // positions (`snapshot dyn + delta`) to classify the state
        // diff. The probe *schedule* is dense-then-backoff: the first
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
        let mut idx = snapshots.first_at_or_after_dyn(self.dyn_insts.saturating_sub(delta));
        let mut diff: Vec<(u32, u32)> = Vec::new();
        let mut misses = 0u32;
        let mut gap = 1usize;
        loop {
            let Some(snap) = snapshots.get(idx) else {
                // Past the last golden snapshot: finish normally.
                return SpliceRun::Done(self.run_to_end());
            };
            let target = snap.dyn_insts + delta;
            loop {
                match self.step_detected::<false>(target) {
                    Ok(true) => {
                        if self.dyn_insts >= target {
                            break;
                        }
                    }
                    Ok(false) => return SpliceRun::Done(None),
                    Err(t) => return SpliceRun::Done(Some(t)),
                }
            }
            // A probe is only meaningful when the pause landed exactly
            // on the realigned position (instruction costs can
            // overshoot a bound), no fault is pending, and the fuel
            // headroom covers the golden suffix at this run's offset —
            // otherwise the continuation could diverge by a fuel trap
            // the golden run never hit.
            if self.dyn_insts == target
                && self.fault.is_none()
                && golden_final_dyn.saturating_sub(snap.dyn_insts) + self.dyn_insts < self.fuel
            {
                self.probe.cost.probes += 1;
                if let Some(rule) = self.classify_divergence(snapshots, idx, snap, &mut diff) {
                    return SpliceRun::Spliced(rule, golden_final_dyn - snap.dyn_insts);
                }
            }
            misses += 1;
            if misses >= DENSE_PROBES && gap < GAP_CAP {
                gap *= 2;
            }
            idx += gap;
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
    /// The gate requires control-state equality — frames (registers,
    /// positions, armed recovery logs), allocation counters and the
    /// non-output extern state — so the only admissible divergence is
    /// in memory cells and the output channel. Under a deterministic
    /// interpreter, equal control state plus a memory diff no future
    /// instruction reads means the suffix executes *identically* to
    /// the golden suffix (same control flow, same writes, same output
    /// appends): the final state is then golden's, modulo exactly the
    /// divergent cells the suffix never overwrites and the
    /// already-diverged output prefix. The rules read off the outcome:
    ///
    /// * diff empty, output equal → [`SpliceRule::Converged`];
    /// * diff dead (∉ suffix reads), every divergent global cell
    ///   healed by a suffix write, output equal →
    ///   [`SpliceRule::DeadDiff`] (final state provably golden);
    /// * diff dead but output diverged or a global cell persists →
    ///   [`SpliceRule::Sdc`] (final state provably differs).
    ///
    /// Counters that influence neither the remaining execution nor the
    /// outcome classification (`dyn_insts`, `eligible_seen`,
    /// instrumentation/region accounting, the checkpoint high-water
    /// mark) are deliberately excluded; `dyn_insts` enters through the
    /// caller's fuel-headroom check instead.
    fn classify_divergence(
        &mut self,
        snapshots: &SnapshotLog,
        idx: usize,
        snap: &Snapshot,
        diff: &mut Vec<(u32, u32)>,
    ) -> Option<SpliceRule> {
        // Cheapest fields first so diverged runs fail fast.
        if self.frame_seq != snap.frame_seq
            || self.heap_seq != snap.heap_seq
            || self.last_alloc_of_site != snap.last_alloc_of_site
            || !self.externs.state_equal_ignoring_output(&snap.externs)
            || !self.frames_equal(snap)
        {
            return None;
        }
        // Bring the candidate set up to this probe target: golden pages
        // written between the last absorbed snapshot and this one
        // (interval lists — absorbed in either direction, since
        // realignment can land a probe before the resume base) and
        // pages this run wrote since the last drain. Everything outside
        // the resulting set is bitwise-identical on both sides.
        let Machine { mem, probe, base_objects, .. } = self;
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
        mem.drain_dirty_pages(&mut probe.pending);
        probe.pending.sort_unstable();
        probe.pending.dedup();
        let mem_comparable = mem.diff_cells_dirty(
            &snap.mem,
            &mut probe.pending,
            *base_objects,
            DIFF_CAP,
            diff,
            &mut probe.cost,
        );
        // The full scan is the reference the incremental compare must
        // reproduce exactly: debug builds check every probe against it.
        #[cfg(debug_assertions)]
        {
            let mut full = Vec::new();
            let full_comparable = self.mem.diff_cells(&snap.mem, DIFF_CAP, &mut full);
            assert!(
                full_comparable == mem_comparable && (!full_comparable || full == *diff),
                "incremental compare disagrees with the full scan at snapshot {idx}: \
                 incremental {mem_comparable} {diff:?}, full scan {full_comparable} {full:?}"
            );
        }
        if !mem_comparable {
            return None;
        }
        let out_eq = self.externs.output == snap.externs.output;
        if diff.is_empty() && out_eq {
            return Some(SpliceRule::Converged);
        }
        // Rules (b)/(c) need the golden suffix access summaries.
        let reads = snapshots.suffix_reads(idx)?;
        let writes = snapshots.suffix_writes(idx)?;
        if diff.iter().any(|&(o, i)| reads.contains(o, i)) {
            // A divergent cell feeds the suffix: its fate is unprovable
            // here. Keep executing — later probes may still certify.
            return None;
        }
        // Dead diff. Non-global cells are architecturally invisible;
        // a global cell the suffix overwrites heals to golden's value
        // (the suffix executes identically); one it never writes
        // persists into the final observable state.
        let persists = diff
            .iter()
            .any(|&(o, i)| self.mem.is_global(o as usize) && !writes.contains(o, i));
        if out_eq && !persists {
            Some(SpliceRule::DeadDiff)
        } else {
            Some(SpliceRule::Sdc)
        }
    }

    /// Exactly `self.frames == snap.frames`, ordered to fail fast:
    /// frames are compared innermost-first (the top frame diverges
    /// first in practice), and the top frame's recently written
    /// registers — the `reg_dirty` generation mask — are checked before
    /// the full structural compare. Pure reordering: the verdict is
    /// identical to the derived equality, because register state can
    /// never be *skipped* (golden registers change every instruction,
    /// so there is no analogue of a clean memory page here).
    fn frames_equal(&self, snap: &Snapshot) -> bool {
        if self.frames.len() != snap.frames.len() {
            return false;
        }
        if let (Some(a), Some(b)) = (self.frames.last(), snap.frames.last()) {
            let mut mask = self.reg_dirty;
            let n = a.regs.len().min(b.regs.len()).min(63);
            while mask != 0 {
                let r = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                if r < n && a.regs[r] != b.regs[r] {
                    return false;
                }
            }
        }
        self.frames.iter().rev().eq(snap.frames.iter().rev())
    }

    /// Start recording the golden activation timeline (dyn count at
    /// each `SetRecovery`, by ordinal).
    fn enable_act_log(&mut self) {
        self.splice.act_log = Some(Vec::new());
    }

    /// The recorded activation timeline.
    fn take_act_log(&mut self) -> Vec<u64> {
        self.splice.act_log.take().unwrap_or_default()
    }

    /// Start recording per-interval memory access chunks for the
    /// divergence splice's suffix summaries (golden capture runs only).
    fn enable_mem_log(&mut self) {
        self.obs.mem_log = Some(Box::default());
    }

    /// Seals the final interval and hands back `(read, write)` chunks —
    /// one per inter-snapshot interval plus the capture-to-end tail.
    fn take_mem_chunks(&mut self) -> (AccessChunks, AccessChunks) {
        let mut log = self.obs.mem_log.take().expect("mem log enabled");
        log.seal();
        (log.read_chunks, log.write_chunks)
    }

    /// [`Machine::run_to_end`] for fault-free runs, capturing a
    /// snapshot into `log` at the first step boundary past each
    /// `stride`-instruction interval.
    fn run_to_end_capturing(&mut self, stride: u64, log: &mut SnapshotLog) -> Option<Trap> {
        if self.obs.any() {
            self.capture_loop::<true>(stride, log)
        } else {
            self.capture_loop::<false>(stride, log)
        }
    }

    fn capture_loop<const OBSERVE: bool>(
        &mut self,
        stride: u64,
        log: &mut SnapshotLog,
    ) -> Option<Trap> {
        debug_assert!(stride > 0 && self.fault.is_none());
        // Each capture below drains the pages written since the
        // previous capture into that interval's page list.
        self.mem.reset_dirty();
        let mut next_at = stride;
        loop {
            if self.dyn_insts >= next_at && !self.frames.is_empty() {
                if let Some(ml) = &mut self.obs.mem_log {
                    ml.seal();
                }
                let mut interval = Vec::new();
                self.mem.drain_dirty_pages(&mut interval);
                log.push(self.capture_snapshot(), interval);
                next_at = self.dyn_insts + stride;
            }
            // Bounding the sprint by `next_at` keeps capture points at
            // exact instruction-count boundaries.
            match self.step::<OBSERVE>(next_at) {
                Ok(true) => continue,
                Ok(false) => return None,
                // No fault is live (asserted), so a trap is terminal.
                Err(t) => return Some(t),
            }
        }
    }

    /// Consumes the machine into a [`RunResult`] after `run_to_end`
    /// returned `trap`.
    pub(crate) fn into_result(self, trap: Option<Trap>) -> RunResult {
        let mut region_dyn = BTreeMap::new();
        for (i, (&count, &touched)) in
            self.region_dyn.iter().zip(self.region_touched.iter()).enumerate()
        {
            if touched {
                region_dyn.insert(RegionId::new(i as u32), count);
            }
        }
        RunResult {
            ret: self.final_ret,
            completed: trap.is_none(),
            trap,
            dyn_insts: self.dyn_insts,
            instr_dyn_insts: self.instr_dyn,
            output: self.externs.output,
            globals: self.mem.globals_snapshot(),
            profile: self.obs.profile,
            trace: self.obs.trace,
            region_dyn,
            eligible_insts: self.eligible_seen,
            ckpt_high_water_bytes: self.ckpt_high_water,
            fault: self.telemetry,
        }
    }

    /// Entry call's return value (valid once `run_to_end` reported
    /// completion).
    pub(crate) fn final_ret(&self) -> Option<Value> {
        self.final_ret
    }

    /// The observable output channel.
    pub(crate) fn output(&self) -> &[i64] {
        &self.externs.output
    }

    /// The memory state.
    pub(crate) fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Fault telemetry of this run.
    pub(crate) fn telemetry(&self) -> &FaultTelemetry {
        &self.telemetry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use encore_ir::{AddrExpr, BinOp, ExtEffect, MemBase, ModuleBuilder};

    fn run_simple(m: &Module, entry: &str, args: &[Value]) -> RunResult {
        let fid = m.func_by_name(entry).expect("entry exists");
        run_function(m, None, fid, args, &RunConfig::default())
    }

    #[test]
    fn arithmetic_and_return() {
        let mut mb = ModuleBuilder::new("m");
        mb.function("add", 2, |f| {
            let a = f.param(0);
            let b = f.param(1);
            let s = f.bin(BinOp::Add, a.into(), b.into());
            f.ret(Some(s.into()));
        });
        let m = mb.finish();
        let r = run_simple(&m, "add", &[Value::Int(2), Value::Int(40)]);
        assert!(r.completed);
        assert_eq!(r.ret, Some(Value::Int(42)));
        assert!(r.dyn_insts >= 2);
    }

    #[test]
    fn loop_sums_correctly() {
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
        let r = run_simple(&m, "sum", &[Value::Int(10)]);
        assert_eq!(r.ret, Some(Value::Int(45)));
    }

    #[test]
    fn memory_and_globals_observable() {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global("g", 2);
        mb.function("f", 0, |f| {
            f.store(AddrExpr::global(g, 0), Operand::ImmI(7));
            let v = f.load(AddrExpr::global(g, 0));
            f.store(AddrExpr::global(g, 1), v.into());
            f.ret(None);
        });
        let m = mb.finish();
        let r = run_simple(&m, "f", &[]);
        assert_eq!(r.globals[0][0], Value::Int(7));
        assert_eq!(r.globals[0][1], Value::Int(7));
    }

    #[test]
    fn calls_and_slots() {
        let mut mb = ModuleBuilder::new("m");
        let sq = mb.function("sq", 1, |f| {
            let p = f.param(0);
            let r = f.bin(BinOp::Mul, p.into(), p.into());
            f.ret(Some(r.into()));
        });
        mb.function("main", 0, |f| {
            let s = f.slot(2);
            let v = f.call(sq, &[Operand::ImmI(6)]);
            f.store(AddrExpr::slot(s, 0), v.into());
            let w = f.load(AddrExpr::slot(s, 0));
            f.ret(Some(w.into()));
        });
        let m = mb.finish();
        let r = run_simple(&m, "main", &[]);
        assert_eq!(r.ret, Some(Value::Int(36)));
    }

    #[test]
    fn recursion_works() {
        let mut mb = ModuleBuilder::new("m");
        let fib = mb.declare("fib", 1);
        mb.define(fib, |f| {
            let n = f.param(0);
            let base = f.bin(BinOp::Lt, n.into(), Operand::ImmI(2));
            f.if_then(base.into(), |f| f.ret(Some(n.into())));
            let n1 = f.bin(BinOp::Sub, n.into(), Operand::ImmI(1));
            let n2 = f.bin(BinOp::Sub, n.into(), Operand::ImmI(2));
            let a = f.call(fib, &[n1.into()]);
            let b = f.call(fib, &[n2.into()]);
            let s = f.bin(BinOp::Add, a.into(), b.into());
            f.ret(Some(s.into()));
        });
        let m = mb.finish();
        let r = run_simple(&m, "fib", &[Value::Int(10)]);
        assert_eq!(r.ret, Some(Value::Int(55)));
    }

    #[test]
    fn heap_alloc_and_pointers() {
        let mut mb = ModuleBuilder::new("m");
        mb.function("f", 0, |f| {
            let p = f.alloc(Operand::ImmI(4));
            f.store(AddrExpr::reg(p, 2), Operand::ImmI(11));
            let q = f.bin(BinOp::Add, p.into(), Operand::ImmI(2));
            let v = f.load(AddrExpr::reg(q, 0));
            f.ret(Some(v.into()));
        });
        let m = mb.finish();
        let r = run_simple(&m, "f", &[]);
        assert_eq!(r.ret, Some(Value::Int(11)));
    }

    #[test]
    fn out_of_bounds_traps() {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global("g", 1);
        mb.function("f", 0, |f| {
            f.store(AddrExpr::global(g, 5), Operand::ImmI(1));
            f.ret(None);
        });
        let m = mb.finish();
        let r = run_simple(&m, "f", &[]);
        assert!(!r.completed);
        assert!(matches!(r.trap.as_ref().unwrap().kind, TrapKind::Memory(_)));
    }

    #[test]
    fn fuel_exhaustion_traps() {
        let mut mb = ModuleBuilder::new("m");
        mb.function("f", 0, |f| {
            let header = f.add_block();
            f.jump(header);
            f.switch_to(header);
            f.jump(header);
        });
        let m = mb.finish();
        let fid = m.func_by_name("f").unwrap();
        let config = RunConfig { fuel: 1000, ..Default::default() };
        let r = run_function(&m, None, fid, &[], &config);
        assert!(!r.completed);
        assert_eq!(r.trap.unwrap().kind, TrapKind::FuelExhausted);
    }

    #[test]
    fn profile_counts_blocks_and_edges() {
        let mut mb = ModuleBuilder::new("m");
        mb.function("f", 1, |f| {
            let n = f.param(0);
            let acc = f.mov(Operand::ImmI(0));
            f.for_range(Operand::ImmI(0), n.into(), |f, i| {
                f.bin_to(acc, BinOp::Add, acc.into(), i.into());
            });
            f.ret(Some(acc.into()));
        });
        let m = mb.finish();
        let fid = m.func_by_name("f").unwrap();
        let config = RunConfig { collect_profile: true, ..Default::default() };
        let r = run_function(&m, None, fid, &[Value::Int(5)], &config);
        let p = r.profile.expect("profile collected");
        let fp = p.func(fid);
        // Entry once; loop header 6 times (5 iterations + final check);
        // body 5 times.
        assert_eq!(fp.count(BlockId::new(0)), 1);
        assert_eq!(fp.count(BlockId::new(1)), 6);
        assert_eq!(fp.count(BlockId::new(2)), 5);
        assert_eq!(fp.invocations, 1);
        assert_eq!(p.total_dyn_insts, r.dyn_insts);
    }

    #[test]
    fn trace_records_memory_events() {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global("g", 2);
        mb.function("f", 0, |f| {
            f.store(AddrExpr::global(g, 0), Operand::ImmI(1));
            let v = f.load(AddrExpr::global(g, 0));
            f.store(AddrExpr::global(g, 1), v.into());
            f.ret(None);
        });
        let m = mb.finish();
        let fid = m.func_by_name("f").unwrap();
        let config = RunConfig { collect_trace: true, ..Default::default() };
        let r = run_function(&m, None, fid, &[], &config);
        let t = r.trace.expect("trace collected");
        assert_eq!(t.len(), 3);
        assert_eq!(t[0].kind, encore_ir::AccessKind::Store);
        assert_eq!(t[1].kind, encore_ir::AccessKind::Load);
        assert_eq!(t[0].cell, t[1].cell);
    }

    #[test]
    fn externs_flow_through() {
        let mut mb = ModuleBuilder::new("m");
        mb.function("f", 0, |f| {
            let x = f.call_ext("pow", &[Operand::ImmF(2.0), Operand::ImmF(3.0)], ExtEffect::Pure);
            let i = f.un(encore_ir::UnOp::FToI, x.into());
            f.call_ext_void("print_i64", &[i.into()], ExtEffect::Opaque);
            f.ret(Some(i.into()));
        });
        let m = mb.finish();
        let r = run_simple(&m, "f", &[]);
        assert_eq!(r.ret, Some(Value::Int(8)));
        assert_eq!(r.output, vec![8]);
    }

    #[test]
    fn profiling_collects_memory_footprints() {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global("g", 8);
        mb.function("f", 1, |f| {
            let n = f.param(0);
            f.for_range(Operand::ImmI(0), n.into(), |f, i| {
                let v = f.load(AddrExpr::indexed(MemBase::Global(g), i, 1, 0));
                f.store(AddrExpr::indexed(MemBase::Global(g), i, 1, 4), v.into());
            });
            f.ret(None);
        });
        let m = mb.finish();
        let fid = m.func_by_name("f").unwrap();
        let config = RunConfig { collect_profile: true, ..Default::default() };
        let r = run_function(&m, None, fid, &[Value::Int(4)], &config);
        let profile = r.profile.expect("profile");
        assert!(profile.mem.site_count() >= 2, "load + store sites recorded");
        // The load site touched cells 0..4, the store site 4..8: disjoint.
        let sites: Vec<_> = m
            .func(fid)
            .iter_insts()
            .filter(|(_, i)| i.load_addr().is_some() || i.store_addr().is_some())
            .map(|(at, _)| encore_analysis::SiteRef { func: fid, at })
            .collect();
        assert_eq!(sites.len(), 2);
        assert!(profile.mem.observed_disjoint(sites[0], sites[1]));
    }

    #[test]
    fn deterministic_across_runs() {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global("g", 4);
        mb.function("f", 0, |f| {
            f.for_range(Operand::ImmI(0), Operand::ImmI(4), |f, i| {
                let v = f.call_ext("prng_range", &[Operand::ImmI(100)], ExtEffect::Opaque);
                f.store(
                    AddrExpr::indexed(MemBase::Global(g), i, 1, 0),
                    v.into(),
                );
            });
            f.ret(None);
        });
        let m = mb.finish();
        let a = run_simple(&m, "f", &[]);
        let b = run_simple(&m, "f", &[]);
        assert!(a.observably_equal(&b));
        assert_eq!(a.dyn_insts, b.dyn_insts);
    }
}
