//! The IR interpreter with Encore's rollback-recovery runtime.
//!
//! One machine executes one entry-point call to completion, optionally:
//!
//! * collecting an execution [`Profile`] (training runs),
//! * collecting a dynamic memory-event trace (Figure 1),
//! * injecting a single transient fault and modelling its detection
//!   (Figure 8's SFI).
//!
//! There is one executor: the sprint loop in `Machine::step`, whose one
//! `match` runs the IR's own [`Inst`]s, and whose jumps and branches
//! stay inside the function, back to back. Profiling, tracing and the
//! golden run's record are hooks in that loop, compiled in only for its
//! `OBSERVE` instantiation. The loop leaves only for `Call` and `Ret`,
//! the two instructions that push or pop a frame.
//!
//! Everything a run's future reads is one [`State`]: a snapshot holds
//! one, and capture and resume clone it whole. The campaign's
//! divergence splice, which stops injection runs early, lives in
//! `splice.rs`.
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
use crate::predecode::DecodedModule;
use crate::snapshot::{GoldenRecord, Position, Snapshot, SnapshotLog};
use crate::value::{eval_bin, eval_un, Value};
use encore_core::RegionMap;
use encore_analysis::Profile;
use encore_ir::{
    AccessKind, AddrExpr, BlockId, FuncId, Inst, InstRef, MemBase, MemEvent, Module, ObjKind,
    Offset, Operand, Reg, RegionId, Terminator,
};
use std::fmt;

/// Most activations the call stack holds. A `Call` past it raises the
/// memory trap heap exhaustion raises, so runaway recursion is a
/// symptom, not an aborted process: with at most
/// [`MAX_REGS`](encore_ir::MAX_REGS) registers of 16 bytes per frame,
/// the deepest stack's register files take at most 1 GiB.
const MAX_CALL_DEPTH: usize = 1 << 10;

/// Why a run stopped abnormally.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TrapKind {
    /// Memory access violation (out of bounds / dangling handle), or a
    /// memory bound exhausted (heap and slot cells, call depth).
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

// Trap texts are built out of line, in these two cold helpers, so that
// the sprint loop and the helpers inlined into it carry only their `Ok`
// paths.

#[cold]
#[inline(never)]
fn memory_trap(at: u64, msg: fmt::Arguments<'_>) -> Trap {
    Trap { kind: TrapKind::Memory(msg.to_string()), at }
}

#[cold]
#[inline(never)]
fn eval_trap(at: u64, msg: fmt::Arguments<'_>) -> Trap {
    Trap { kind: TrapKind::Eval(msg.to_string()), at }
}

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

/// Seed for the deterministic extern environment every run starts from.
const EXTERN_SEED: u64 = 0x5EED;

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
    /// Fault to inject, if any.
    pub fault: Option<FaultPlan>,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            fuel: 200_000_000,
            collect_profile: false,
            collect_trace: false,
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
    /// Observable output channel.
    pub output: Vec<i64>,
    /// Final global memory (observable state).
    pub globals: Vec<Vec<Value>>,
    /// Training profile (when requested).
    pub profile: Option<Profile>,
    /// Memory-event trace (when requested).
    pub trace: Option<Vec<MemEvent>>,
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

/// The recovery a `SetRecovery` armed in a frame. Its checkpoint log
/// lives in the [`Frame`].
#[derive(Clone, Copy)]
struct RecoveryState {
    region: RegionId,
    recovery_block: BlockId,
    /// Global activation ordinal assigned when this recovery was armed
    /// ([`State::activations`]; a rollback carries it into
    /// [`Injection::RolledBack`]).
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
        self.region == other.region && self.recovery_block == other.recovery_block
    }
}

/// Hashes what equality compares, leaving out `act_ordinal`.
impl std::hash::Hash for RecoveryState {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.region.hash(state);
        self.recovery_block.hash(state);
    }
}

#[derive(Clone, PartialEq, Hash)]
enum CkptEntry {
    Mem { obj: u32, idx: i64, val: Value },
    Reg { reg: Reg, val: Value },
}

// Each checkpoint retires one entry; keep it as narrow as `Value` allows.
const _: () = assert!(std::mem::size_of::<CkptEntry>() <= 32);

/// One activation record. `Clone` because frames are part of a
/// [`Snapshot`]; `PartialEq` and `Hash` because they are part of the
/// campaign memo's compare and key. The splice gate compares them with
/// [`Frame::equal_where_live`].
#[derive(Clone, PartialEq, Hash)]
pub(crate) struct Frame {
    func: FuncId,
    block: BlockId,
    /// The next instruction of `block` to execute; the block's length
    /// at its terminator. A caller's stands just past its `Call`.
    ip: usize,
    regs: Vec<Value>,
    slots: Vec<u32>,
    recovery: Option<RecoveryState>,
    /// The armed recovery's checkpoint log, empty while none is armed.
    /// It sits beside `recovery` rather than in it so that re-arming
    /// clears it in place and a recycled frame keeps its buffer.
    log: Vec<CkptEntry>,
    /// Running byte size of `log` (memory entries 16 B, register entries
    /// 8 B), maintained incrementally so the per-checkpoint high-water
    /// update is O(1) instead of a rescan of the whole log.
    log_bytes: u64,
    ret_dst: Option<Reg>,
}

impl Frame {
    /// Where the frame stands.
    pub(crate) fn position(&self) -> Position {
        (self.func, self.block, self.ip)
    }

    /// `self == golden` in every field but the registers, which are
    /// compared only where `live`, the registers live at the frame's
    /// position. Every other register is written before it is read on
    /// every path the program's own control flow takes from here, and
    /// at a landed probe no rollback can take another path, so the rest
    /// of the run never sees its value. Ordered to fail fast: the
    /// checkpoint log, the one field that grows, last.
    ///
    /// The pattern names every field, so a field added to the type
    /// does not compile until the splice gate says how it compares.
    pub(crate) fn equal_where_live(&self, golden: &Frame, live: &[u32]) -> bool {
        let Frame { func, block, ip, regs, slots, recovery, log, log_bytes, ret_dst } = self;
        (*func, *block, *ip) == golden.position()
            && live.iter().all(|&r| regs[r as usize] == golden.regs[r as usize])
            && *slots == golden.slots
            && *recovery == golden.recovery
            && *ret_dst == golden.ret_dst
            && *log_bytes == golden.log_bytes
            && *log == golden.log
    }

    /// The frame's registers, for tests that overwrite dead ones.
    #[cfg(test)]
    pub(crate) fn regs_mut(&mut self) -> &mut [Value] {
        &mut self.regs
    }
}

/// Everything a run's future reads: what a [`Snapshot`] holds and what
/// a resumed machine starts from. Capture and resume clone it whole, so
/// a field added here is captured and restored without further code.
#[derive(Clone)]
pub(crate) struct State {
    /// Frames, extern environment and the latest allocation of each
    /// heap site.
    pub(crate) control: ControlState,
    /// The memory arena.
    pub(crate) mem: Memory,
    /// Dynamic instructions retired (fuel, detection deadlines).
    pub(crate) dyn_insts: u64,
    /// Fault-eligible instructions retired (the injection ordinal).
    pub(crate) eligible_seen: u64,
    /// Largest checkpoint-log footprint of any activation, in bytes.
    pub(crate) ckpt_high_water: u64,
    /// `SetRecovery` executions retired: the activation ordinal counter,
    /// so a resumed run numbers activations where the golden prefix
    /// left off and the splice can realign it against
    /// [`SnapshotLog::activation_dyn`].
    pub(crate) activations: u64,
    /// Activations created so far. It only names slot objects
    /// ([`ObjKind::Slot`]); no instruction reads it.
    pub(crate) frame_seq: u32,
    /// Heap allocations so far. It only names heap objects
    /// ([`ObjKind::Heap`]), and equals the number of them.
    pub(crate) heap_seq: u32,
}

/// The part of [`State`] that, with memory, decides the rest of a run
/// once no fault is pending. The splice gate compares it up to the
/// output channel; the campaign memo hashes and compares it whole. The
/// counters beside it in [`State`] stay out: none of them changes what
/// the run executes or how it is classified (DESIGN.md §14).
///
/// Field order is hash order.
#[derive(Clone, PartialEq, Hash)]
pub(crate) struct ControlState {
    /// The call stack, innermost last.
    pub(crate) frames: Vec<Frame>,
    /// The latest allocation of each heap site, by raw site id.
    pub(crate) last_alloc_of_site: Vec<Option<u32>>,
    /// PRNG, clock and output channel.
    pub(crate) externs: Externs,
}

/// Where the planned fault is in its lifecycle: it fires, is detected
/// `l` instructions later (Eq. 6), rolls the run back to the armed
/// region's recovery block, and the re-executed `SetRecovery` realigns
/// the run with the golden timeline. Each phase holds only what later
/// steps and the run's [`FaultTelemetry`] read; `site` is the function
/// and block executing when the fault fired.
#[derive(Clone, Copy)]
pub(crate) enum Injection {
    /// Waiting for the plan's eligible ordinal.
    Planned(FaultPlan),
    /// A deferred action ([`FaultAction::WrongEdge`],
    /// [`FaultAction::CorruptAddress`]) reached its ordinal and waits
    /// for its firing event: the next conditional branch, or the next
    /// program load or store.
    Armed(FaultPlan),
    /// Fired and not yet detected; detection is due at dynamic
    /// instruction `detect_at`, or at an earlier symptom trap.
    Live {
        site: (FuncId, BlockId),
        detect_at: u64,
        /// A [`FaultAction::PowerFailure`]: the rollback also clears
        /// the registers the recovery log checkpointed.
        power: bool,
    },
    /// Detected and rolled back into `region`, whose recovery was
    /// armed as activation `ordinal` ([`State::activations`]).
    RolledBack { site: (FuncId, BlockId), region: RegionId, ordinal: u64 },
    /// The rollback's re-executed `SetRecovery` retired at dynamic
    /// instruction `at`, where the golden run was at activation
    /// `ordinal`: the point the splice measures its drift from.
    Realigned { site: (FuncId, BlockId), region: RegionId, ordinal: u64, at: u64 },
    /// Detected with no recovery armed: the run ends in a
    /// [`TrapKind::DetectedUnrecoverable`] trap.
    Unrecoverable { site: (FuncId, BlockId) },
}

/// What an observed run records: the training [`Profile`], the
/// [`MemEvent`] trace and the golden capture's [`GoldenRecord`]. The
/// sprint loop calls these hooks only in its `OBSERVE` instantiation,
/// which the run drivers pick once per run when any observer is
/// present; every other run executes a loop with no hook code in it.
#[derive(Default)]
pub(crate) struct Observers {
    profile: Option<Profile>,
    trace: Option<Vec<MemEvent>>,
    /// Golden capture runs only, so injection runs pay nothing.
    pub(crate) golden: Option<Box<GoldenRecord>>,
}

impl Observers {
    fn any(&self) -> bool {
        self.profile.is_some() || self.trace.is_some() || self.golden.is_some()
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
    /// golden-record stamp.
    #[allow(clippy::too_many_arguments)]
    fn program_access(
        &mut self,
        mem: &Memory,
        func: FuncId,
        at: InstRef,
        obj: u32,
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

    /// Notes one memory access into the golden record, if any.
    #[inline]
    fn log_access(&mut self, obj: u32, idx: i64, write: bool) {
        if let Some(golden) = &mut self.golden {
            // A successful access bounds-checked both coordinates.
            golden.access(obj, idx as u32, write);
        }
    }

    /// A `SetRecovery` retired at dynamic instruction `now`: the next
    /// entry of the golden activation timeline.
    #[inline]
    fn activation(&mut self, now: u64) {
        if let Some(golden) = &mut self.golden {
            golden.activation(now);
        }
    }
}

/// The interpreter. `'m` is the module's lifetime, `'c` the pre-decoded
/// stream's: a campaign owns one [`DecodedModule`] and threads it
/// through many short-lived machines.
pub(crate) struct Machine<'m, 'c> {
    module: &'m Module,
    code: &'c DecodedModule<'m>,
    /// The resumable state: what a snapshot captures.
    pub(crate) state: State,
    pub(crate) obs: Observers,
    /// The planned fault's phase; `None` for a fault-free run.
    pub(crate) fault: Option<Injection>,
    pub(crate) fuel: u64,
    final_ret: Option<Value>,
    /// Splice probe work of this run (injection runs only).
    pub(crate) probe_cost: ProbeCost,
    /// Frames popped off the call stack, kept for their buffers so the
    /// next activation allocates nothing. Not machine state: every
    /// field is reset before a frame is reused.
    spare_frames: Vec<Frame>,
}

impl std::fmt::Debug for Machine<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("module", &self.module.name)
            .field("dyn_insts", &self.state.dyn_insts)
            .field("frames", &self.state.control.frames.len())
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

/// Resolves an address to `(object handle, cell index)`. A global's
/// handle is its id: [`Memory::for_module`] lays the globals out first,
/// in id order.
#[inline(always)]
fn resolve_decoded(
    frame: &Frame,
    last_alloc_of_site: &[Option<u32>],
    now: u64,
    addr: &AddrExpr,
) -> Result<(u32, i64), Trap> {
    let (obj, base_idx) = match addr.base {
        MemBase::Global(g) => (g.raw(), 0i64),
        MemBase::Slot(s) => match frame.slots.get(s.index()) {
            Some(&h) => (h, 0),
            None => return Err(memory_trap(now, format_args!("undeclared slot {s}"))),
        },
        MemBase::Heap(h) => match last_alloc_of_site.get(h.index()).copied().flatten() {
            Some(handle) => (handle, 0),
            None => return Err(memory_trap(now, format_args!("heap site {h} has no allocation"))),
        },
        MemBase::Reg(r) => match frame.regs[r.index()] {
            Value::Ptr { obj, idx } => (obj, idx),
            other => {
                return Err(memory_trap(
                    now,
                    format_args!("register {r} does not hold a pointer (holds {other})"),
                ))
            }
        },
    };
    let off = match addr.offset {
        Offset::Const(c) => c,
        Offset::Scaled { index, scale, disp } => match frame.regs[index.index()] {
            Value::Int(i) => i.wrapping_mul(scale).wrapping_add(disp),
            other => {
                return Err(memory_trap(
                    now,
                    format_args!("index register {index} is not an integer (holds {other})"),
                ))
            }
        },
    };
    Ok((obj, base_idx.wrapping_add(off)))
}

/// Applies the fault plan to a value-producing instruction's result,
/// taking the fault phase as a split borrow so the current frame can
/// stay mutably borrowed across the call. Counts one eligible
/// instruction (even without a plan, so golden runs report the sample
/// space) and, at the plan's ordinal, dispatches on the
/// [`FaultAction`]: value corruptions apply here; deferred actions
/// (wrong-edge, address) only *arm* and fire later at their matching
/// event; a power failure fires with detection due immediately (the
/// machine dies before the next instruction). When the fault fires in
/// this call, the sprint's pause `bound` tightens to its detection
/// point.
#[inline]
fn inject(
    fault: &mut Option<Injection>,
    eligible_seen: &mut u64,
    now: u64,
    site: (FuncId, BlockId),
    v: Value,
    bound: &mut u64,
) -> Value {
    let ordinal = *eligible_seen;
    *eligible_seen += 1;
    let Some(Injection::Planned(plan)) = *fault else { return v };
    if ordinal != plan.inject_at {
        return v;
    }
    let (v, detect_at, power) = match plan.action {
        FaultAction::FlipBits { mask } => (v.flip_bits(mask), now + plan.detect_latency, false),
        FaultAction::WrongEdge | FaultAction::CorruptAddress { .. } => {
            *fault = Some(Injection::Armed(plan));
            return v;
        }
        FaultAction::PowerFailure => (v, now, true),
    };
    *fault = Some(Injection::Live { site, detect_at, power });
    *bound = (*bound).min(detect_at);
    v
}

/// Fires an armed [`FaultAction::CorruptAddress`] fault, if any: the
/// first program load/store executed after the arming ordinal XORs the
/// plan's mask (folded to 16 bits, like pointer corruption) into its
/// resolved cell index. The corrupted access either lands in bounds
/// (silently hitting a neighbour cell) or traps — a symptom
/// [`Machine::step_detected`] converts into detection while the fault
/// is live. Firing tightens the sprint's pause `bound` like [`inject`].
#[inline]
fn corrupt_addr(
    fault: &mut Option<Injection>,
    now: u64,
    site: (FuncId, BlockId),
    idx: i64,
    bound: &mut u64,
) -> i64 {
    let Some(Injection::Armed(FaultPlan {
        action: FaultAction::CorruptAddress { mask },
        detect_latency,
        ..
    })) = *fault
    else {
        return idx;
    };
    let detect_at = now + detect_latency;
    *fault = Some(Injection::Live { site, detect_at, power: false });
    *bound = (*bound).min(detect_at);
    idx ^ crate::value::fold_mask16(mask) as i64
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
    let mut m = Machine::new(module, &code, config);
    let trap = m.enter(entry, args).err().or_else(|| m.run_to_end());
    m.into_result(trap)
}

/// Like [`run_function`] but additionally captures a [`Snapshot`] of
/// the machine every `stride` dynamic instructions (`0` disables
/// capture). The run itself is unperturbed: the returned [`RunResult`]
/// is bit-identical to [`run_function`]'s. `code` must be `module`
/// decoded with `map`, which debug builds check.
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
    debug_assert!(code.decoded_with(map), "`code` was decoded with another region map");
    let mut m = Machine::new(module, code, config);
    let mut log = SnapshotLog::new(stride);
    if stride > 0 {
        m.obs.golden = Some(Box::default());
    }
    let trap = match m.enter(entry, args) {
        Err(t) => Some(t),
        Ok(()) if stride == 0 => m.run_to_end(),
        Ok(()) => m.run_to_end_capturing(stride, &mut log),
    };
    if let Some(golden) = m.obs.golden.take() {
        log.finish(module, *golden);
    }
    (m.into_result(trap), log)
}

impl<'m, 'c> Machine<'m, 'c> {
    /// A machine with no activation yet: [`Machine::enter`] makes the
    /// entry call.
    pub(crate) fn new(module: &'m Module, code: &'c DecodedModule<'m>, config: &RunConfig) -> Self {
        let control = ControlState {
            frames: Vec::new(),
            last_alloc_of_site: vec![None; code.heap_site_count],
            externs: Externs::new(EXTERN_SEED),
        };
        let state = State {
            control,
            mem: Memory::for_module(module),
            dyn_insts: 0,
            eligible_seen: 0,
            ckpt_high_water: 0,
            activations: 0,
            frame_seq: 0,
            heap_seq: 0,
        };
        let mut m = Self::with_state(module, code, state, config);
        m.obs.profile = config.collect_profile.then(|| Profile::empty_for(module));
        m.obs.trace = config.collect_trace.then(Vec::new);
        m
    }

    /// Calls `entry(args)`, leaving the machine at its first
    /// instruction.
    ///
    /// # Errors
    ///
    /// The trap of allocating the entry frame's slots.
    pub(crate) fn enter(&mut self, entry: FuncId, args: &[Value]) -> Result<(), Trap> {
        let mut frame = self.new_frame(entry, None)?;
        let params = self.module.func(entry).param_count as usize;
        for (i, a) in args.iter().enumerate().take(params) {
            frame.regs[i] = *a;
        }
        self.state.control.frames.push(frame);
        Ok(())
    }

    /// A machine restored to `snap`'s state, ready to resume under
    /// `config` (which supplies the fault plan and fuel; profiles and
    /// traces cannot cross a snapshot boundary).
    pub(crate) fn from_snapshot(
        module: &'m Module,
        code: &'c DecodedModule<'m>,
        snap: &Snapshot,
        config: &RunConfig,
    ) -> Self {
        debug_assert!(
            !config.collect_profile && !config.collect_trace,
            "profiles/traces cannot be resumed from a snapshot"
        );
        Self::with_state(module, code, snap.state.clone(), config)
    }

    /// A machine in `state` with no observer and nothing else carried
    /// over: the fault plan and fuel come from `config`.
    ///
    /// A plan whose inject ordinal precedes a resumed `state` cannot
    /// fire; [`SfiCampaign::run_one`](crate::SfiCampaign::run_one) only
    /// resumes from snapshots with `eligible_seen <= plan.inject_at`, so
    /// the fresh [`Injection::Planned`] phase is exactly what a
    /// from-scratch run carries at this point — for every
    /// [`FaultAction`], deferred ones included, since arming happens at
    /// or after the inject ordinal.
    fn with_state(
        module: &'m Module,
        code: &'c DecodedModule<'m>,
        state: State,
        config: &RunConfig,
    ) -> Self {
        Self {
            module,
            code,
            state,
            obs: Observers::default(),
            fault: config.fault.map(Injection::Planned),
            fuel: config.fuel,
            final_ret: None,
            probe_cost: ProbeCost::default(),
            spare_frames: Vec::new(),
        }
    }

    /// A new activation of `func` with zeroed registers and fresh slot
    /// objects, not yet on the call stack: the caller fills in the
    /// parameters, reading its own frame if it is a `Call`, and pushes
    /// it. Reuses a spare frame's buffers when there is one.
    fn new_frame(&mut self, func: FuncId, ret_dst: Option<Reg>) -> Result<Frame, Trap> {
        let f = self.module.func(func);
        let (mut regs, mut slots, mut log) = match self.spare_frames.pop() {
            Some(spare) => (spare.regs, spare.slots, spare.log),
            None => Default::default(),
        };
        regs.clear();
        regs.resize(f.reg_count as usize, Value::ZERO);
        slots.clear();
        log.clear();
        let state = &mut self.state;
        let frame_no = state.frame_seq;
        state.frame_seq += 1;
        for (i, s) in f.slots.iter().enumerate() {
            let kind = ObjKind::Slot { frame: frame_no, slot: i as u32 };
            let handle = state
                .mem
                .alloc(kind, s.cells as usize)
                .map_err(|e| Trap { kind: TrapKind::Memory(e.message), at: state.dyn_insts })?;
            slots.push(handle);
        }
        self.obs.block_entry(func, f.entry());
        Ok(Frame {
            func,
            block: f.entry(),
            ip: 0,
            regs,
            slots,
            recovery: None,
            log,
            log_bytes: 0,
            ret_dst,
        })
    }

    fn operand(&self, op: &Operand) -> Value {
        opnd(self.state.control.frames.last().expect("no frame"), op)
    }

    /// Detection of the live fault fired at `site`: unwind to the
    /// nearest armed frame and redirect to its recovery block, moving
    /// the fault to [`Injection::RolledBack`].
    ///
    /// For a [`FaultAction::PowerFailure`] (`power`) the machine also
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
    /// Returns `Err` when no frame is armed, leaving the fault
    /// [`Injection::Unrecoverable`].
    fn trigger_recovery(&mut self, site: (FuncId, BlockId), power: bool) -> Result<(), Trap> {
        // Find the deepest armed frame.
        while let Some(frame) = self.state.control.frames.last_mut() {
            if let Some(rec) = frame.recovery {
                frame.block = rec.recovery_block;
                frame.ip = 0;
                if power {
                    for entry in &frame.log {
                        if let CkptEntry::Reg { reg, .. } = entry {
                            frame.regs[reg.index()] = Value::ZERO;
                        }
                    }
                }
                // The fault is consumed: re-execution is fault-free.
                self.fault = Some(Injection::RolledBack {
                    site,
                    region: rec.region,
                    ordinal: rec.act_ordinal,
                });
                return Ok(());
            }
            let popped = self.state.control.frames.pop().expect("frame");
            self.spare_frames.push(popped);
        }
        self.fault = Some(Injection::Unrecoverable { site });
        Err(Trap { kind: TrapKind::DetectedUnrecoverable, at: self.state.dyn_insts })
    }

    /// Executes a *sprint*: consecutive instructions and intra-function
    /// jumps/branches in a tight loop over split borrows of the machine,
    /// then at most one `Call` or `Ret`, the two instructions that push
    /// or pop a frame.
    ///
    /// The sprint stops — *without* executing the next item — when
    /// `limit` is reached or a pending fault detection must fire. It
    /// also pauses, after the item, when a `SetRecovery` moves the fault
    /// from [`Injection::RolledBack`] to [`Injection::Realigned`], so
    /// the splice driver can start probing golden snapshots. A fault
    /// that fires mid-sprint tightens the pause bound to its detection
    /// point. Per-item fuel, detection and `limit` checks make every
    /// observable state transition identical to executing one item per
    /// call, so snapshot capture points and fault semantics do not
    /// depend on where sprints end; `limit` exists so capturing callers
    /// get control back at exact instruction-count boundaries (pass
    /// `u64::MAX` otherwise).
    ///
    /// `OBSERVE` compiles in the profile, trace and golden-record hooks;
    /// the run drivers pick it once per run from whether any observer
    /// is present.
    ///
    /// Returns `Ok(true)` while the program is still running.
    fn step<const OBSERVE: bool>(&mut self, limit: u64) -> Result<bool, Trap> {
        if self.state.dyn_insts >= self.fuel {
            return Err(Trap { kind: TrapKind::FuelExhausted, at: self.state.dyn_insts });
        }
        if let Some(Injection::Live { site, detect_at, power }) = self.fault {
            if self.state.dyn_insts >= detect_at {
                self.trigger_recovery(site, power)?;
            }
        }
        let Some(frame) = self.state.control.frames.last() else {
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
            /// `limit` reached, a detection is due, or a rolled-back run
            /// realigned: the caller's next `step` resumes (or fires the
            /// detection) at this state.
            Boundary,
            /// The block's already-charged `Call`.
            Call { callee: FuncId, dst: Option<Reg>, args: &'t [Operand] },
            /// The block's already-charged `Ret`.
            Ret(&'t Option<Operand>),
        }
        let stop = {
            let fuel = self.fuel;
            let Machine { state, fault, obs, .. } = self;
            let State {
                control,
                mem,
                dyn_insts,
                eligible_seen,
                ckpt_high_water,
                activations,
                heap_seq,
                ..
            } = state;
            let ControlState { frames, last_alloc_of_site, externs } = control;
            let frame = frames.last_mut().expect("frame");
            let mut block = dfunc.block(frame.block);
            let mut site = (func_id, frame.block);
            // `ip` lives in a local and is written back at every sprint
            // exit but a trap's. A trap leaves it stale, which is
            // unobservable: recovery overwrites (or pops) the frame's
            // position, and terminal traps never read it.
            let mut ip = frame.ip;
            // One merged per-item pause bound: the caller's limit, the
            // fuel budget, and — once a fault is injected — its
            // detection due-time. The hit branch below disambiguates in
            // priority order: limit, then fuel, then detection.
            let mut bound = limit.min(fuel);
            if let Some(Injection::Live { detect_at, .. }) = *fault {
                bound = bound.min(detect_at);
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
                    let now = *dyn_insts;
                    ip += 1;
                    // A symptom trap here propagates to `run_to_end`,
                    // which treats it as detection while a fault is
                    // live.
                    match &di.inst {
                        Inst::Bin { op, dst, lhs, rhs } => {
                            let v = eval_bin(*op, opnd(frame, lhs), opnd(frame, rhs))
                                .map_err(|e| Trap { kind: TrapKind::Eval(e.message), at: now })?;
                            let v = inject(fault, eligible_seen, now, site, v, &mut bound);
                            frame.regs[dst.index()] = v;
                        }
                        Inst::Un { op, dst, src } => {
                            let v = eval_un(*op, opnd(frame, src))
                                .map_err(|e| Trap { kind: TrapKind::Eval(e.message), at: now })?;
                            let v = inject(fault, eligible_seen, now, site, v, &mut bound);
                            frame.regs[dst.index()] = v;
                        }
                        Inst::Mov { dst, src } => {
                            let v = opnd(frame, src);
                            let v = inject(fault, eligible_seen, now, site, v, &mut bound);
                            frame.regs[dst.index()] = v;
                        }
                        Inst::Load { dst, addr } => {
                            let (obj, idx) = resolve_decoded(frame, last_alloc_of_site, now, addr)?;
                            let idx = corrupt_addr(fault, now, site, idx, &mut bound);
                            let v = mem
                                .read(obj, idx)
                                .map_err(|e| Trap { kind: TrapKind::Memory(e.message), at: now })?;
                            if OBSERVE {
                                let kind = AccessKind::Load;
                                obs.program_access(mem, func_id, di.at, obj, idx, now, kind);
                            }
                            let v = inject(fault, eligible_seen, now, site, v, &mut bound);
                            frame.regs[dst.index()] = v;
                        }
                        Inst::Store { addr, src } => {
                            let (obj, idx) = resolve_decoded(frame, last_alloc_of_site, now, addr)?;
                            let idx = corrupt_addr(fault, now, site, idx, &mut bound);
                            let v = opnd(frame, src);
                            let v = inject(fault, eligible_seen, now, site, v, &mut bound);
                            mem.write(obj, idx, v)
                                .map_err(|e| Trap { kind: TrapKind::Memory(e.message), at: now })?;
                            if OBSERVE {
                                let kind = AccessKind::Store;
                                obs.program_access(mem, func_id, di.at, obj, idx, now, kind);
                            }
                        }
                        Inst::Lea { dst, addr } => {
                            // Address materialization is not fault-eligible.
                            let (obj, idx) = resolve_decoded(frame, last_alloc_of_site, now, addr)?;
                            frame.regs[dst.index()] = Value::Ptr { obj, idx };
                        }
                        // Allocation is not fault-eligible.
                        Inst::Alloc { dst, site: heap_site, size } => {
                            let Some(n) = opnd(frame, size).as_int().filter(|n| *n >= 0) else {
                                return Err(memory_trap(
                                    now,
                                    format_args!("alloc size must be a non-negative int"),
                                ));
                            };
                            let handle = mem
                                .alloc(ObjKind::Heap(*heap_seq), n as usize)
                                .map_err(|e| Trap { kind: TrapKind::Memory(e.message), at: now })?;
                            *heap_seq += 1;
                            // Decode sized the table over every Alloc site.
                            last_alloc_of_site[heap_site.index()] = Some(handle);
                            frame.regs[dst.index()] = Value::Ptr { obj: handle, idx: 0 };
                        }
                        Inst::Call { callee, dst, args } => {
                            frame.ip = ip;
                            break Stop::Call { callee: *callee, dst: *dst, args };
                        }
                        Inst::CallExt { name, dst, args, .. } => {
                            let vals: Vec<Value> = args.iter().map(|a| opnd(frame, a)).collect();
                            let r = externs
                                .call(name, &vals)
                                .map_err(|e| Trap { kind: TrapKind::Eval(e.message), at: now })?;
                            if let Some(d) = dst {
                                let r = inject(fault, eligible_seen, now, site, r, &mut bound);
                                frame.regs[d.index()] = r;
                            }
                        }
                        // Instrumentation (not fault-eligible).
                        Inst::SetRecovery { region } => {
                            let recovery_block = match code.recovery_blocks.get(region.index()) {
                                Some(&Some(block)) => block,
                                Some(None) => {
                                    return Err(eval_trap(
                                        now,
                                        format_args!("{region} has no recovery block"),
                                    ))
                                }
                                None => {
                                    return Err(eval_trap(
                                        now,
                                        format_args!("SetRecovery for unknown {region}"),
                                    ))
                                }
                            };
                            frame.recovery = Some(RecoveryState {
                                region: *region,
                                recovery_block,
                                act_ordinal: *activations,
                            });
                            *activations += 1;
                            frame.log.clear();
                            frame.log_bytes = 0;
                            if OBSERVE {
                                obs.activation(now);
                            }
                            if let Some(Injection::RolledBack { site, region, ordinal }) = *fault {
                                *fault =
                                    Some(Injection::Realigned { site, region, ordinal, at: now });
                                frame.ip = ip;
                                break Stop::Boundary;
                            }
                        }
                        Inst::CheckpointMem { addr } => {
                            let (obj, idx) = resolve_decoded(frame, last_alloc_of_site, now, addr)?;
                            let val = mem
                                .read(obj, idx)
                                .map_err(|e| Trap { kind: TrapKind::Memory(e.message), at: now })?;
                            if OBSERVE {
                                obs.log_access(obj, idx, false);
                            }
                            if frame.recovery.is_some() {
                                frame.log.push(CkptEntry::Mem { obj, idx, val });
                                frame.log_bytes += 16;
                                *ckpt_high_water = (*ckpt_high_water).max(frame.log_bytes);
                            }
                        }
                        Inst::CheckpointReg { reg } => {
                            let val = frame.regs[reg.index()];
                            if frame.recovery.is_some() {
                                frame.log.push(CkptEntry::Reg { reg: *reg, val });
                                frame.log_bytes += 8;
                                *ckpt_high_water = (*ckpt_high_water).max(frame.log_bytes);
                            }
                        }
                        Inst::Restore { region } => {
                            if frame.recovery.is_none() {
                                return Err(eval_trap(
                                    now,
                                    format_args!("Restore {region} with no armed recovery"),
                                ));
                            }
                            // Newest entry first; popping keeps the log's buffer.
                            frame.log_bytes = 0;
                            while let Some(entry) = frame.log.pop() {
                                match entry {
                                    CkptEntry::Reg { reg, val } => frame.regs[reg.index()] = val,
                                    CkptEntry::Mem { obj, idx, val } => {
                                        mem.write(obj, idx, val).map_err(|e| Trap {
                                            kind: TrapKind::Memory(e.message),
                                            at: now,
                                        })?;
                                        if OBSERVE {
                                            obs.log_access(obj, idx, true);
                                        }
                                    }
                                }
                            }
                        }
                    }
                } else {
                    frame.ip = ip;
                    let Some(term) = block.term else {
                        return Err(eval_trap(
                            *dyn_insts,
                            format_args!("unterminated block {}", frame.block),
                        ));
                    };
                    *dyn_insts += 1;
                    let target = match term {
                        Terminator::Jump(t) => *t,
                        Terminator::Branch { cond, then_bb, else_bb } => {
                            let mut target =
                                if opnd(frame, cond).truthy() { *then_bb } else { *else_bb };
                            // An armed wrong-edge fault fires at the
                            // first conditional branch after its
                            // ordinal, taking the not-taken edge.
                            if let Some(Injection::Armed(FaultPlan {
                                action: FaultAction::WrongEdge,
                                detect_latency,
                                ..
                            })) = *fault
                            {
                                target = if target == *then_bb { *else_bb } else { *then_bb };
                                let detect_at = *dyn_insts + detect_latency;
                                *fault = Some(Injection::Live { site, detect_at, power: false });
                                bound = bound.min(detect_at);
                            }
                            target
                        }
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
            Stop::Call { callee, dst, args } => {
                self.exec_call(callee, dst, args)?;
                Ok(true)
            }
            Stop::Ret(v) => {
                self.exec_ret(v);
                Ok(!self.state.control.frames.is_empty())
            }
        }
    }

    /// Calls `callee(args)` from the current frame, whose `Call` the
    /// sprint already charged: pushes the callee's activation with the
    /// arguments written straight into its register file.
    fn exec_call(
        &mut self,
        callee: FuncId,
        dst: Option<Reg>,
        args: &[Operand],
    ) -> Result<(), Trap> {
        if self.state.control.frames.len() >= MAX_CALL_DEPTH {
            return Err(memory_trap(
                self.state.dyn_insts,
                format_args!(
                    "call to `{}` exceeds the {MAX_CALL_DEPTH}-frame call-depth bound",
                    self.module.func(callee).name
                ),
            ));
        }
        let mut frame = self.new_frame(callee, dst)?;
        let caller = self.state.control.frames.last().expect("frame");
        let params = self.module.func(callee).param_count as usize;
        for (i, a) in args.iter().enumerate().take(params) {
            frame.regs[i] = opnd(caller, a);
        }
        self.state.control.frames.push(frame);
        Ok(())
    }

    /// Returns from the current frame with value `v`.
    fn exec_ret(&mut self, v: &Option<Operand>) {
        let val = v.as_ref().map(|op| self.operand(op));
        let frame = self.state.control.frames.pop().expect("frame");
        match self.state.control.frames.last_mut() {
            Some(caller) => {
                if let Some(dst) = frame.ret_dst {
                    caller.regs[dst.index()] = val.unwrap_or(Value::ZERO);
                }
            }
            None => self.final_ret = val,
        }
        self.spare_frames.push(frame);
    }

    /// `true` while the planned fault is still to come, armed or live.
    pub(crate) fn fault_pending(&self) -> bool {
        matches!(
            self.fault,
            Some(Injection::Planned(_) | Injection::Armed(_) | Injection::Live { .. })
        )
    }

    /// `true` when a profile, trace or golden record observes the run.
    pub(crate) fn observed(&self) -> bool {
        self.obs.any()
    }

    /// One [`Machine::step`] with symptom-based detection folded in: a
    /// trap while an undetected fault is live (other than fuel
    /// exhaustion) triggers the recovery path instead of terminating
    /// the run. The shared stepping primitive of [`Machine::run_to_end`]
    /// and the splice driver, so both have identical fault semantics.
    pub(crate) fn step_detected<const OBSERVE: bool>(&mut self, limit: u64) -> Result<bool, Trap> {
        match self.step::<OBSERVE>(limit) {
            Ok(alive) => Ok(alive),
            Err(t) => match self.fault {
                Some(Injection::Live { site, power, .. })
                    if !matches!(t.kind, TrapKind::FuelExhausted) =>
                {
                    self.trigger_recovery(site, power)?;
                    Ok(true)
                }
                _ => Err(t),
            },
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

    /// Steps until the dynamic instruction count reaches `target`.
    /// `Err` carries how the run ended first: completion (`None`) or a
    /// terminal trap.
    pub(crate) fn step_to(&mut self, target: u64) -> Result<(), Option<Trap>> {
        loop {
            match self.step_detected::<false>(target) {
                Ok(true) if self.state.dyn_insts >= target => return Ok(()),
                Ok(true) => {}
                Ok(false) => return Err(None),
                Err(t) => return Err(Some(t)),
            }
        }
    }

    /// Dynamic instructions retired so far.
    pub(crate) fn dyn_insts(&self) -> u64 {
        self.state.dyn_insts
    }

    /// [`Machine::run_to_end`] for the golden capture run, capturing a
    /// snapshot into `log` at the first step boundary past each
    /// `stride`-instruction interval. The run is fault-free and always
    /// observed: it fills the golden record.
    fn run_to_end_capturing(&mut self, stride: u64, log: &mut SnapshotLog) -> Option<Trap> {
        debug_assert!(stride > 0 && self.fault.is_none() && self.obs.golden.is_some());
        let mut next_at = stride;
        loop {
            if self.state.dyn_insts >= next_at && !self.state.control.frames.is_empty() {
                if let Some(golden) = &mut self.obs.golden {
                    golden.advance();
                }
                log.push(self.state.clone());
                next_at = self.state.dyn_insts + stride;
            }
            // Bounding the sprint by `next_at` keeps capture points at
            // exact instruction-count boundaries.
            match self.step::<true>(next_at) {
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
        let fault = self.telemetry();
        // Only `Machine::new`'s runs, which start at dynamic instruction
        // 0, collect a profile.
        let profile =
            self.obs.profile.map(|p| Profile { total_dyn_insts: self.state.dyn_insts, ..p });
        RunResult {
            ret: self.final_ret,
            completed: trap.is_none(),
            trap,
            dyn_insts: self.state.dyn_insts,
            output: self.state.control.externs.output,
            globals: self.state.mem.globals_snapshot(),
            profile,
            trace: self.obs.trace,
            eligible_insts: self.state.eligible_seen,
            ckpt_high_water_bytes: self.state.ckpt_high_water,
            fault,
        }
    }

    /// Entry call's return value (valid once `run_to_end` reported
    /// completion).
    pub(crate) fn final_ret(&self) -> Option<Value> {
        self.final_ret
    }

    /// The observable output channel.
    pub(crate) fn output(&self) -> &[i64] {
        &self.state.control.externs.output
    }

    /// The memory state.
    pub(crate) fn mem(&self) -> &Memory {
        &self.state.mem
    }

    /// What the planned fault has done so far: a view of its phase.
    pub(crate) fn telemetry(&self) -> FaultTelemetry {
        let (site, detected, region) = match self.fault {
            None | Some(Injection::Planned(_) | Injection::Armed(_)) => {
                return FaultTelemetry::default()
            }
            Some(Injection::Live { site, .. }) => (site, false, None),
            Some(Injection::Unrecoverable { site }) => (site, true, None),
            Some(
                Injection::RolledBack { site, region, .. }
                | Injection::Realigned { site, region, .. },
            ) => (site, true, Some(region)),
        };
        FaultTelemetry {
            injected: true,
            detected,
            rolled_back: region.is_some(),
            rollback_region: region,
            inject_site: Some(site),
        }
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
        for collect_profile in [false, true] {
            let config = RunConfig { fuel: 1000, collect_profile, ..Default::default() };
            let r = run_function(&m, None, fid, &[], &config);
            assert!(!r.completed);
            assert_eq!(r.trap.as_ref().unwrap().kind, TrapKind::FuelExhausted);
            assert_eq!(r.dyn_insts, 1000);
            if let Some(p) = r.profile {
                assert_eq!(p.total_dyn_insts, 1000);
            }
        }
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
        assert_eq!(p.total_dyn_insts, r.dyn_insts);
    }

    /// A profiled run that traps mid-block counts every instruction it
    /// retired, the trapping load included.
    #[test]
    fn profile_counts_up_to_a_trap() {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global("g", 4);
        mb.function("f", 1, |f| {
            let n = f.param(0);
            let acc = f.mov(Operand::ImmI(0));
            f.for_range(Operand::ImmI(0), n.into(), |f, i| {
                let v = f.load(AddrExpr::indexed(MemBase::Global(g), i, 1, 0));
                f.bin_to(acc, BinOp::Add, acc.into(), v.into());
            });
            f.ret(Some(acc.into()));
        });
        let m = mb.finish();
        let fid = m.func_by_name("f").unwrap();
        let config = RunConfig { collect_profile: true, ..Default::default() };
        let r = run_function(&m, None, fid, &[Value::Int(10)], &config);
        let trap = r.trap.as_ref().expect("g[4] is out of bounds");
        assert!(matches!(trap.kind, TrapKind::Memory(_)), "{trap}");
        assert_eq!(trap.at, r.dyn_insts);
        let p = r.profile.expect("profile collected");
        // The body ran for i = 0..=3 and trapped in its fifth entry.
        assert_eq!(p.func(fid).count(BlockId::new(2)), 5);
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

    /// The campaign memo's exact compare looks at every part of the
    /// state its key hashes, so a key collision can never pass as a
    /// match: each single change below makes two otherwise identical
    /// machines differ. The counters that only name objects are not
    /// part of it: machines that differ only there compare equal.
    #[test]
    fn same_probe_state_compares_everything_the_key_hashes() {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global("g", 2);
        mb.function("f", 0, |f| {
            let p = f.alloc(Operand::ImmI(1));
            f.store(AddrExpr::reg(p, 0), Operand::ImmI(3));
            f.store(AddrExpr::global(g, 1), Operand::ImmI(1));
            f.ret(None);
        });
        let m = mb.finish();
        let fid = m.func_by_name("f").expect("entry exists");
        let code = DecodedModule::new(&m, None);
        let fresh = || {
            let mut mach = Machine::new(&m, &code, &RunConfig::default());
            mach.enter(fid, &[]).expect("entry frame");
            mach
        };
        let diff = [(0u32, 1u32)];
        assert!(fresh().same_probe_state(&diff, &fresh(), &diff));
        type Change = fn(&mut Machine<'_, '_>);
        let changes: [(&str, Change); 7] = [
            ("register", |b| b.state.control.frames[0].regs[0] = Value::Int(7)),
            ("position", |b| b.state.control.frames[0].ip = 1),
            ("extern state", |b| {
                b.state.control.externs.call("prng", &[]).expect("prng");
            }),
            ("output", |b| b.state.control.externs.output.push(1)),
            ("diff cell value", |b| b.state.mem.write(0, 1, Value::Int(5)).expect("in bounds")),
            ("heap allocation", |b| b.state.control.last_alloc_of_site[0] = Some(9)),
            ("rollback flag", |b| {
                let site = (b.state.control.frames[0].func, BlockId::new(0));
                b.fault = Some(Injection::RolledBack { site, region: RegionId::new(0), ordinal: 0 });
            }),
        ];
        for (what, change) in changes {
            let mut b = fresh();
            change(&mut b);
            assert!(!fresh().same_probe_state(&diff, &b, &diff), "{what} ignored");
        }
        let names: [(&str, Change); 2] = [
            ("frame_seq", |b| b.state.frame_seq += 1),
            ("heap_seq", |b| b.state.heap_seq += 1),
        ];
        for (what, rename) in names {
            let mut b = fresh();
            rename(&mut b);
            assert!(fresh().same_probe_state(&diff, &b, &diff), "{what} compared as state");
        }
        assert!(!fresh().same_probe_state(&diff, &fresh(), &[(0, 0)]), "diff cells ignored");
        let faulted = RunConfig { fault: Some(FaultPlan::bit_flip(0, 0, 0)), ..Default::default() };
        let mut b = Machine::new(&m, &code, &faulted);
        b.enter(fid, &[]).expect("entry frame");
        assert!(!fresh().same_probe_state(&diff, &b, &diff), "pending fault ignored");
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
