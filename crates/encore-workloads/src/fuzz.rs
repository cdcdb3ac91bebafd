//! Seeded random-IR workload fuzzer.
//!
//! Generates arbitrary — but always *verifiable, terminating and
//! trap-free* — programs for differential testing of the simulator's
//! fault-injection engine, where 23 hand-written kernels cannot give
//! confidence but a few thousand machine-written ones can. It is the
//! one program grammar of the integration tests: the differential
//! suites and every random-program property (analysis laws, latency-0
//! recovery) draw from it. Beyond arithmetic, global access, branches
//! and constant-trip loops it covers everything the divergence splice's
//! proof obligations touch: aliased global/slot/heap access,
//! pointer-based stores the static alias analysis cannot see through,
//! extern output (the SDC certification channel) and data-dependent
//! loops.
//!
//! # Generator grammar
//!
//! A program is a statement tree over a register pool:
//!
//! ```text
//! prog  := stmt+                                (entry arg ∈ [1, 8])
//! stmt  := arith | select | print               (register data flow)
//!        | loadg | storeg | loadidx | storeidx  (global, const/masked index)
//!        | loadslot | storeslot                 (stack slot, const index)
//!        | loadheap | storeheap                 (heap object, masked index)
//!        | loadptr | storeptr                   (lea'd pointer, masked index)
//!        | if cond { stmt* } else { stmt* }     (branch on pool register)
//!        | for trip≤4 { stmt* }                 (constant-trip loop)
//!        | while fuel≤6 ∧ data-cond { stmt* }   (fuel-bounded loop)
//! ```
//!
//! # Termination and safety argument
//!
//! Every generated module passes [`encore_ir::verify_module`] and its golden
//! run completes within a statically bounded fuel:
//!
//! * **No trapping arithmetic.** The IR defines `Div`/`Rem` by zero as
//!   0 and masks shift amounts, so arithmetic cannot trap.
//! * **No out-of-bounds access.** Constant offsets are drawn within
//!   the object; dynamic indices are masked with
//!   `FunctionBuilder::bounded_index` against power-of-two object
//!   sizes before every use.
//! * **Bounded loops, no recursion.** `for` trips are constants ≤ 4;
//!   every `while` decrements an explicit fuel register starting ≤ 6
//!   and conjoins `fuel > 0` into its continuation condition. With
//!   nesting depth ≤ 3, one statement executes at most `6³` times.
//!
//! # Stream discipline
//!
//! [`program_for`]`(seed, index)` derives case `index` from
//! `SplitMix64::for_index(seed, index)` — the same (seed, index)
//! addressability the SFI campaign uses for fault plans, so any fuzz
//! case regenerates from two integers, independent of thread count or
//! iteration order. [`gen_program`] draws every choice through
//! [`Rng::gen_below`], so a random source that records its draws (the
//! property harness's `Gen` in `tests/common/prop.rs`) captures a
//! program as a vector of numbers, replays it, and shrinks it by
//! shrinking that vector; the grammar has no shrinker of its own.

use crate::util::lcg_data;
use encore_ir::{
    AddrExpr, BinOp, ExtEffect, FuncId, FunctionBuilder, GlobalId, MemBase, Module,
    ModuleBuilder, Operand, Reg, SlotId,
};
use encore_sim::rng::{Rng, SplitMix64};

/// Globals every generated module declares.
pub const GLOBALS: usize = 3;
/// Cells per global (power of two: dynamic indices are masked).
pub const CELLS: i64 = 16;
/// Cells in the entry function's stack slot.
pub const SLOT_CELLS: i64 = 8;
/// Cells in the entry function's heap allocation (power of two).
pub const HEAP_CELLS: i64 = 8;
/// Maximum statement-tree nesting depth.
pub const MAX_DEPTH: usize = 3;

/// One statement of a generated program. Indices (`lhs`, `src`, `cond`,
/// `idx`) select from the register pool modulo its length; `g` selects
/// a global modulo [`GLOBALS`]; offsets are taken modulo the target
/// object's size.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FuzzStmt {
    /// `pool += op(pool[lhs], rhs)` over the integer op table.
    Arith {
        /// Index into the op table.
        op: u8,
        /// Pool index of the left operand.
        lhs: u8,
        /// Immediate right operand.
        rhs: i64,
    },
    /// `pool += pool[cond] ? pool[lhs] : pool[rhs]` via a diamond.
    Select {
        /// Pool index of the condition.
        cond: u8,
        /// Pool index of the then-value.
        lhs: u8,
        /// Pool index of the else-value.
        rhs: u8,
    },
    /// Load a constant global cell into the pool.
    LoadG {
        /// Global selector.
        g: u8,
        /// Constant cell offset.
        off: u8,
    },
    /// Store a pool register to a constant global cell.
    StoreG {
        /// Global selector.
        g: u8,
        /// Constant cell offset.
        off: u8,
        /// Pool index of the stored value.
        src: u8,
    },
    /// Load through a masked dynamic index into a global.
    LoadIdx {
        /// Global selector.
        g: u8,
        /// Pool index of the raw index value.
        idx: u8,
    },
    /// Store through a masked dynamic index into a global.
    StoreIdx {
        /// Global selector.
        g: u8,
        /// Pool index of the raw index value.
        idx: u8,
        /// Pool index of the stored value.
        src: u8,
    },
    /// Load a constant stack-slot cell.
    LoadSlot {
        /// Constant cell offset.
        off: u8,
    },
    /// Store a pool register to a constant stack-slot cell.
    StoreSlot {
        /// Constant cell offset.
        off: u8,
        /// Pool index of the stored value.
        src: u8,
    },
    /// Load through a masked dynamic index into the heap object.
    LoadHeap {
        /// Pool index of the raw index value.
        idx: u8,
    },
    /// Store through a masked dynamic index into the heap object.
    StoreHeap {
        /// Pool index of the raw index value.
        idx: u8,
        /// Pool index of the stored value.
        src: u8,
    },
    /// Load a global through a `lea`'d pointer register — aliases
    /// `LoadG`/`StoreG` on the same global, but only dynamically.
    LoadPtr {
        /// Global selector.
        g: u8,
        /// Pool index of the raw index value.
        idx: u8,
    },
    /// Store a global through a `lea`'d pointer register.
    StorePtr {
        /// Global selector.
        g: u8,
        /// Pool index of the raw index value.
        idx: u8,
        /// Pool index of the stored value.
        src: u8,
    },
    /// Append a pool register to the extern output channel
    /// (`print_i64`, the observable the SDC splice rule certifies).
    Print {
        /// Pool index of the printed value.
        src: u8,
    },
    /// Two-way branch on a pool register.
    If {
        /// Pool index of the condition.
        cond: u8,
        /// Then-arm statements.
        then_s: Vec<FuzzStmt>,
        /// Else-arm statements.
        else_s: Vec<FuzzStmt>,
    },
    /// Constant-trip loop (1–4 iterations).
    For {
        /// Trip count.
        trip: u8,
        /// Body statements.
        body: Vec<FuzzStmt>,
    },
    /// Data-dependent loop bounded by an explicit fuel register: runs
    /// while `fuel > 0 ∧ (pool[cond] & 3) != 3`, decrementing fuel
    /// each iteration.
    While {
        /// Initial fuel (1–6).
        fuel: u8,
        /// Pool index of the data condition.
        cond: u8,
        /// Body statements.
        body: Vec<FuzzStmt>,
    },
}

/// A generated program: its statements plus the entry argument both
/// the profiling run and the campaign golden run use.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FuzzProgram {
    /// Entry argument (seeds the register pool).
    pub arg: i64,
    /// Top-level statements.
    pub stmts: Vec<FuzzStmt>,
}

/// Integer op table for [`FuzzStmt::Arith`] — every entry is total
/// (wrapping arithmetic, division by zero defined as 0, shifts masked).
const OPS: [BinOp; 12] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Rem,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::Shr,
    BinOp::Lt,
    BinOp::Ne,
];

/// Generates the program for case `index` of the stream keyed by
/// `seed` — a pure function of its two arguments.
pub fn program_for(seed: u64, index: u64) -> FuzzProgram {
    let mut rng = SplitMix64::for_index(seed, index);
    gen_program(&mut rng)
}

/// Generates one program from an arbitrary random source.
pub fn gen_program(rng: &mut impl Rng) -> FuzzProgram {
    FuzzProgram {
        arg: rng.gen_i64(1, 9),
        stmts: gen_stmt_list(rng, MAX_DEPTH, 2, 10),
    }
}

fn gen_stmt(rng: &mut impl Rng, depth: usize) -> FuzzStmt {
    // At positive depth, one in four statements nests.
    if depth > 0 && rng.gen_below(4) == 0 {
        return match rng.gen_below(3) {
            0 => FuzzStmt::If {
                cond: rng.gen_usize(16) as u8,
                then_s: gen_stmt_list(rng, depth - 1, 0, 4),
                else_s: gen_stmt_list(rng, depth - 1, 0, 4),
            },
            1 => FuzzStmt::For {
                trip: rng.gen_range_inclusive(1, 4) as u8,
                body: gen_stmt_list(rng, depth - 1, 1, 4),
            },
            _ => FuzzStmt::While {
                fuel: rng.gen_range_inclusive(1, 6) as u8,
                cond: rng.gen_usize(16) as u8,
                body: gen_stmt_list(rng, depth - 1, 1, 4),
            },
        };
    }
    let g = rng.gen_usize(GLOBALS) as u8;
    match rng.gen_below(16) {
        0 | 1 => FuzzStmt::Arith {
            op: rng.gen_usize(OPS.len()) as u8,
            lhs: rng.gen_usize(16) as u8,
            rhs: rng.gen_i64(-4, 17),
        },
        2 => FuzzStmt::Select {
            cond: rng.gen_usize(16) as u8,
            lhs: rng.gen_usize(16) as u8,
            rhs: rng.gen_usize(16) as u8,
        },
        3 | 4 => FuzzStmt::LoadG { g, off: rng.gen_usize(CELLS as usize) as u8 },
        5 | 6 => FuzzStmt::StoreG {
            g,
            off: rng.gen_usize(CELLS as usize) as u8,
            src: rng.gen_usize(16) as u8,
        },
        7 => FuzzStmt::LoadIdx { g, idx: rng.gen_usize(16) as u8 },
        8 => FuzzStmt::StoreIdx {
            g,
            idx: rng.gen_usize(16) as u8,
            src: rng.gen_usize(16) as u8,
        },
        9 => FuzzStmt::LoadSlot { off: rng.gen_usize(SLOT_CELLS as usize) as u8 },
        10 => FuzzStmt::StoreSlot {
            off: rng.gen_usize(SLOT_CELLS as usize) as u8,
            src: rng.gen_usize(16) as u8,
        },
        11 => FuzzStmt::LoadHeap { idx: rng.gen_usize(16) as u8 },
        12 => FuzzStmt::StoreHeap {
            idx: rng.gen_usize(16) as u8,
            src: rng.gen_usize(16) as u8,
        },
        13 => FuzzStmt::LoadPtr { g, idx: rng.gen_usize(16) as u8 },
        14 => FuzzStmt::StorePtr {
            g,
            idx: rng.gen_usize(16) as u8,
            src: rng.gen_usize(16) as u8,
        },
        _ => FuzzStmt::Print { src: rng.gen_usize(16) as u8 },
    }
}

fn gen_stmt_list(rng: &mut impl Rng, depth: usize, lo: usize, hi: usize) -> Vec<FuzzStmt> {
    let len = lo + rng.gen_usize(hi - lo);
    (0..len).map(|_| gen_stmt(rng, depth)).collect()
}

/// Emission context: the objects every statement may address.
struct Ctx {
    globals: Vec<GlobalId>,
    slot: SlotId,
    heap_ptr: Reg,
    global_ptrs: Vec<Reg>,
}

fn emit(f: &mut FunctionBuilder<'_>, pool: &mut Vec<Reg>, stmts: &[FuzzStmt], ctx: &Ctx) {
    for s in stmts {
        let pick = |pool: &[Reg], i: u8| pool[i as usize % pool.len()];
        match s {
            FuzzStmt::Arith { op, lhs, rhs } => {
                let a = pick(pool, *lhs);
                let r = f.bin(OPS[*op as usize % OPS.len()], a.into(), Operand::ImmI(*rhs));
                pool.push(r);
            }
            FuzzStmt::Select { cond, lhs, rhs } => {
                let c = pick(pool, *cond);
                let a = pick(pool, *lhs);
                let b = pick(pool, *rhs);
                let r = f.select(c.into(), a.into(), b.into());
                pool.push(r);
            }
            FuzzStmt::LoadG { g, off } => {
                let gid = ctx.globals[*g as usize % GLOBALS];
                let r = f.load(AddrExpr::global(gid, *off as i64 % CELLS));
                pool.push(r);
            }
            FuzzStmt::StoreG { g, off, src } => {
                let gid = ctx.globals[*g as usize % GLOBALS];
                let v = pick(pool, *src);
                f.store(AddrExpr::global(gid, *off as i64 % CELLS), v.into());
            }
            FuzzStmt::LoadIdx { g, idx } => {
                let gid = ctx.globals[*g as usize % GLOBALS];
                let masked = f.bounded_index(pick(pool, *idx).into(), CELLS);
                let r = f.load(AddrExpr::indexed(MemBase::Global(gid), masked, 1, 0));
                pool.push(r);
            }
            FuzzStmt::StoreIdx { g, idx, src } => {
                let gid = ctx.globals[*g as usize % GLOBALS];
                let masked = f.bounded_index(pick(pool, *idx).into(), CELLS);
                let v = pick(pool, *src);
                f.store(AddrExpr::indexed(MemBase::Global(gid), masked, 1, 0), v.into());
            }
            FuzzStmt::LoadSlot { off } => {
                let r = f.load(AddrExpr::slot(ctx.slot, *off as i64 % SLOT_CELLS));
                pool.push(r);
            }
            FuzzStmt::StoreSlot { off, src } => {
                let v = pick(pool, *src);
                f.store(AddrExpr::slot(ctx.slot, *off as i64 % SLOT_CELLS), v.into());
            }
            FuzzStmt::LoadHeap { idx } => {
                let masked = f.bounded_index(pick(pool, *idx).into(), HEAP_CELLS);
                let r = f.load(AddrExpr::indexed(MemBase::Reg(ctx.heap_ptr), masked, 1, 0));
                pool.push(r);
            }
            FuzzStmt::StoreHeap { idx, src } => {
                let masked = f.bounded_index(pick(pool, *idx).into(), HEAP_CELLS);
                let v = pick(pool, *src);
                f.store(
                    AddrExpr::indexed(MemBase::Reg(ctx.heap_ptr), masked, 1, 0),
                    v.into(),
                );
            }
            FuzzStmt::LoadPtr { g, idx } => {
                let ptr = ctx.global_ptrs[*g as usize % GLOBALS];
                let masked = f.bounded_index(pick(pool, *idx).into(), CELLS);
                let r = f.load(AddrExpr::indexed(MemBase::Reg(ptr), masked, 1, 0));
                pool.push(r);
            }
            FuzzStmt::StorePtr { g, idx, src } => {
                let ptr = ctx.global_ptrs[*g as usize % GLOBALS];
                let masked = f.bounded_index(pick(pool, *idx).into(), CELLS);
                let v = pick(pool, *src);
                f.store(AddrExpr::indexed(MemBase::Reg(ptr), masked, 1, 0), v.into());
            }
            FuzzStmt::Print { src } => {
                let v = pick(pool, *src);
                f.call_ext_void("print_i64", &[v.into()], ExtEffect::Opaque);
            }
            FuzzStmt::If { cond, then_s, else_s } => {
                let c = pick(pool, *cond);
                // Arms may define registers, but the pool must stay
                // consistent at the join: snapshot and restore.
                let mut pool_then = pool.clone();
                let mut pool_else = pool.clone();
                f.if_else(
                    c.into(),
                    |f| emit(f, &mut pool_then, then_s, ctx),
                    |f| emit(f, &mut pool_else, else_s, ctx),
                );
            }
            FuzzStmt::For { trip, body } => {
                let mut pool_body = pool.clone();
                f.for_range(Operand::ImmI(0), Operand::ImmI(*trip as i64), |f, i| {
                    pool_body.push(i);
                    emit(f, &mut pool_body, body, ctx);
                });
            }
            FuzzStmt::While { fuel, cond, body } => {
                let c = pick(pool, *cond);
                let fuel_reg = f.mov(Operand::ImmI(*fuel as i64));
                let mut pool_body = pool.clone();
                f.while_loop(
                    |f| {
                        let have = f.bin(BinOp::Lt, Operand::ImmI(0), fuel_reg.into());
                        let m = f.bin(BinOp::And, c.into(), Operand::ImmI(3));
                        let live = f.bin(BinOp::Ne, m.into(), Operand::ImmI(3));
                        Operand::Reg(f.bin(BinOp::And, have.into(), live.into()))
                    },
                    |f| {
                        emit(f, &mut pool_body, body, ctx);
                        f.bin_to(fuel_reg, BinOp::Sub, fuel_reg.into(), Operand::ImmI(1));
                    },
                );
            }
        }
    }
}

/// Materializes a program as a verified module plus its entry function.
///
/// # Panics
///
/// Panics if the emitted module fails verification — by construction it
/// never does, so a panic here is a fuzzer bug, not a test failure.
pub fn build(prog: &FuzzProgram) -> (Module, FuncId) {
    let mut mb = ModuleBuilder::new("fuzz");
    let globals: Vec<GlobalId> = (0..GLOBALS)
        .map(|g| {
            mb.global_init(
                format!("g{g}"),
                CELLS as u32,
                lcg_data(0xF0_55 + g as u64, CELLS as usize, 64),
            )
        })
        .collect();
    let entry = mb.function("main", 1, |f| {
        let p = f.param(0);
        let seed = f.bin(BinOp::Mul, p.into(), Operand::ImmI(7));
        let slot = f.slot(SLOT_CELLS as u32);
        let heap_ptr = f.alloc(Operand::ImmI(HEAP_CELLS));
        // Pointer aliases of every global, taken once at entry: stores
        // through them are `MemBase::Reg` accesses the static alias
        // analysis must treat as may-aliasing everything.
        let global_ptrs: Vec<Reg> =
            globals.iter().map(|&g| f.lea(AddrExpr::global(g, 0))).collect();
        let ctx = Ctx { globals: globals.clone(), slot, heap_ptr, global_ptrs };
        let mut pool = vec![p, seed];
        emit(f, &mut pool, &prog.stmts, &ctx);
        let last = *pool.last().expect("nonempty pool");
        f.ret(Some(last.into()));
    });
    let m = mb.finish();
    encore_ir::verify_module(&m).expect("generated module verifies");
    (m, entry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use encore_sim::{run_function, RunConfig, Value};

    #[test]
    fn generation_is_a_pure_function_of_seed_and_index() {
        for index in 0..16 {
            assert_eq!(program_for(0xF0_22, index), program_for(0xF0_22, index));
        }
        assert_ne!(program_for(0xF0_22, 0), program_for(0xF0_22, 1));
        assert_ne!(program_for(0xF0_22, 0), program_for(0xF0_23, 0));
    }

    #[test]
    fn corpus_verifies_and_terminates() {
        for index in 0..128 {
            let prog = program_for(0xC0_8085, index);
            let (m, entry) = build(&prog); // verifies internally
            let run = run_function(
                &m,
                None,
                entry,
                &[Value::Int(prog.arg)],
                &RunConfig { fuel: 1_000_000, ..Default::default() },
            );
            assert!(run.completed, "case {index} trapped: {:?}\n{prog:?}", run.trap);
        }
    }

    #[test]
    fn corpus_reaches_every_statement_kind() {
        let mut kinds = std::collections::BTreeSet::new();
        fn visit(stmts: &[FuzzStmt], kinds: &mut std::collections::BTreeSet<&'static str>) {
            for s in stmts {
                let (k, nested): (_, &[&[FuzzStmt]]) = match s {
                    FuzzStmt::Arith { .. } => ("arith", &[]),
                    FuzzStmt::Select { .. } => ("select", &[]),
                    FuzzStmt::LoadG { .. } => ("loadg", &[]),
                    FuzzStmt::StoreG { .. } => ("storeg", &[]),
                    FuzzStmt::LoadIdx { .. } => ("loadidx", &[]),
                    FuzzStmt::StoreIdx { .. } => ("storeidx", &[]),
                    FuzzStmt::LoadSlot { .. } => ("loadslot", &[]),
                    FuzzStmt::StoreSlot { .. } => ("storeslot", &[]),
                    FuzzStmt::LoadHeap { .. } => ("loadheap", &[]),
                    FuzzStmt::StoreHeap { .. } => ("storeheap", &[]),
                    FuzzStmt::LoadPtr { .. } => ("loadptr", &[]),
                    FuzzStmt::StorePtr { .. } => ("storeptr", &[]),
                    FuzzStmt::Print { .. } => ("print", &[]),
                    FuzzStmt::If { then_s, else_s, .. } => {
                        visit(then_s, kinds);
                        visit(else_s, kinds);
                        ("if", &[])
                    }
                    FuzzStmt::For { body, .. } => {
                        visit(body, kinds);
                        ("for", &[])
                    }
                    FuzzStmt::While { body, .. } => {
                        visit(body, kinds);
                        ("while", &[])
                    }
                };
                let _ = nested;
                kinds.insert(k);
            }
        }
        for index in 0..256 {
            visit(&program_for(0xC0_4E8, index).stmts, &mut kinds);
        }
        assert_eq!(kinds.len(), 16, "missing statement kinds: saw only {kinds:?}");
    }

    /// perfbench's protect-corpus workload runs exactly these programs
    /// (its default seed, 4096 cases), so a generator edit that moves
    /// them moves the benchmark's input. Re-pin only with a CHANGES.md
    /// line saying why the corpus moved.
    #[test]
    fn perfbench_corpus_is_pinned() {
        let digest = (0..4096)
            .flat_map(|index| format!("{:?}", program_for(0xE7_C04E, index)).into_bytes())
            .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            });
        assert_eq!(digest, 0x04e9_bedc_ea84_8520, "corpus digest {digest:#018x}");
    }
}
