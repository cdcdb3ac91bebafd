//! Pins the exact [`Trap`] each symptom the interpreter can raise
//! produces: its kind, its message text and the dynamic instruction it
//! fires at. The texts are what `encore run` and campaign reports show,
//! and they are built away from the paths that detect them, so a change
//! to where they are formatted must not change a character of them.
//!
//! Every case is a module whose entry `f` runs one `Mov` and then its
//! single faulty instruction, so each trap fires at dynamic instruction
//! 2 (3 after the two-cost `CheckpointMem` or a first `Alloc`, 1 at the
//! free `Restore`, and 2 per level of the recursion that exhausts the
//! call depth).

use encore_ir::{
    AddrExpr, BinOp, FunctionBuilder, GlobalId, Inst, MemBase, Module, ModuleBuilder, Operand,
    RegionId, UnOp, MAX_OBJECT_CELLS,
};
use encore_sim::{run_function, RunConfig, Trap, TrapKind, Value};

/// A module with a two-cell global `g0` and a two-parameter entry `f`
/// whose body is one `Mov` followed by `body`.
fn module(body: impl FnOnce(&mut FunctionBuilder<'_>, GlobalId)) -> Module {
    let mut mb = ModuleBuilder::new("traps");
    let g = mb.global("g", 2);
    mb.function("f", 2, |f| {
        f.mov(Operand::ImmI(0));
        body(f, g);
        f.ret(None);
    });
    mb.finish()
}

fn mem(msg: &str, at: u64) -> Trap {
    Trap { kind: TrapKind::Memory(msg.to_string()), at }
}

fn eval(msg: &str, at: u64) -> Trap {
    Trap { kind: TrapKind::Eval(msg.to_string()), at }
}

#[test]
fn every_symptom_trap_has_its_pinned_kind_text_and_position() {
    let int = Value::Int;
    let ptr = |obj, idx| Value::Ptr { obj, idx };
    let cases: Vec<(&str, Module, [Value; 2], Trap)> = vec![
        (
            "out-of-bounds read",
            module(|f, g| {
                f.load(AddrExpr::global(g, 5));
            }),
            [int(0), int(0)],
            mem("out-of-bounds read: g0[5] (size 2)", 2),
        ),
        (
            "out-of-bounds write",
            module(|f, g| f.store(AddrExpr::global(g, -1), Operand::ImmI(1))),
            [int(0), int(0)],
            mem("out-of-bounds write: g0[-1] (size 2)", 2),
        ),
        (
            "out-of-bounds checkpoint read",
            module(|f, g| f.emit(Inst::CheckpointMem { addr: AddrExpr::global(g, 9) })),
            [int(0), int(0)],
            mem("out-of-bounds read: g0[9] (size 2)", 3),
        ),
        (
            "dangling handle read",
            module(|f, _| {
                f.load(AddrExpr::reg(f.param(0), 0));
            }),
            [ptr(99, 0), int(0)],
            mem("read from dangling object handle 99", 2),
        ),
        (
            "dangling handle write",
            module(|f, _| f.store(AddrExpr::reg(f.param(0), 1), Operand::ImmI(1))),
            [ptr(99, 0), int(0)],
            mem("write to dangling object handle 99", 2),
        ),
        (
            "non-pointer base register",
            module(|f, _| {
                f.load(AddrExpr::reg(f.param(0), 0));
            }),
            [int(7), int(0)],
            mem("register r0 does not hold a pointer (holds 7)", 2),
        ),
        (
            "non-integer index register",
            module(|f, g| {
                f.load(AddrExpr::indexed(MemBase::Global(g), f.param(1), 1, 0));
            }),
            [int(0), Value::Float(0.5)],
            mem("index register r1 is not an integer (holds 0.5)", 2),
        ),
        (
            "heap site with no allocation",
            module(|f, _| {
                let h = f.heap_site();
                f.load(AddrExpr::heap(h, 0));
            }),
            [int(0), int(0)],
            mem("heap site h0 has no allocation", 2),
        ),
        (
            "negative allocation size",
            module(|f, _| {
                f.alloc(f.param(0).into());
            }),
            [int(-1), int(0)],
            mem("alloc size must be a non-negative int", 2),
        ),
        (
            "allocation past the heap bound",
            module(|f, _| {
                f.alloc(f.param(0).into());
            }),
            [int(i64::from(MAX_OBJECT_CELLS) + 1), int(0)],
            mem("alloc of 16777217 cells exceeds the heap's 16777216-cell bound (0 in use)", 2),
        ),
        (
            "allocations summing past the heap bound",
            module(|f, _| {
                f.alloc(Operand::ImmI(8));
                f.alloc(f.param(0).into());
            }),
            [int(i64::from(MAX_OBJECT_CELLS) - 7), int(0)],
            mem("alloc of 16777209 cells exceeds the heap's 16777216-cell bound (8 in use)", 3),
        ),
        (
            "an empty allocation charged one cell",
            module(|f, _| {
                f.alloc(Operand::ImmI(0));
                f.alloc(f.param(0).into());
            }),
            [int(i64::from(MAX_OBJECT_CELLS)), int(0)],
            mem("alloc of 16777216 cells exceeds the heap's 16777216-cell bound (1 in use)", 3),
        ),
        (
            "slots summing past the heap bound",
            {
                let mut mb = ModuleBuilder::new("traps");
                let leaf = mb.function("leaf", 0, |f| {
                    f.slot(MAX_OBJECT_CELLS);
                    f.ret(None);
                });
                mb.function("f", 2, |f| {
                    f.slot(8);
                    f.mov(Operand::ImmI(0));
                    f.call_void(leaf, &[]);
                    f.ret(None);
                });
                mb.finish()
            },
            [int(0), int(0)],
            mem(
                "slot of 16777216 cells exceeds the 16777216-cell bound on heap and slot cells \
                 (8 in use)",
                2,
            ),
        ),
        (
            "an empty slot charged one cell",
            {
                let mut mb = ModuleBuilder::new("traps");
                let leaf = mb.function("leaf", 0, |f| {
                    f.slot(MAX_OBJECT_CELLS);
                    f.ret(None);
                });
                mb.function("f", 2, |f| {
                    f.slot(0);
                    f.mov(Operand::ImmI(0));
                    f.call_void(leaf, &[]);
                    f.ret(None);
                });
                mb.finish()
            },
            [int(0), int(0)],
            mem(
                "slot of 16777216 cells exceeds the 16777216-cell bound on heap and slot cells \
                 (1 in use)",
                2,
            ),
        ),
        (
            "call past the depth bound",
            {
                let mut mb = ModuleBuilder::new("traps");
                let f = mb.declare("f", 2);
                mb.define(f, |b| {
                    b.mov(Operand::ImmI(0));
                    b.call_void(f, &[b.param(0).into(), b.param(1).into()]);
                    b.ret(None);
                });
                mb.finish()
            },
            [int(0), int(0)],
            mem("call to `f` exceeds the 1024-frame call-depth bound", 2 * 1024),
        ),
        (
            "bin type error",
            module(|f, _| {
                f.bin(BinOp::Add, f.param(0).into(), f.param(1).into());
            }),
            [Value::Float(1.5), int(1)],
            eval("type error: add on 1.5 and 1", 2),
        ),
        (
            "cross-object pointer order",
            module(|f, _| {
                f.bin(BinOp::Lt, f.param(0).into(), f.param(1).into());
            }),
            [ptr(0, 1), ptr(1, 0)],
            eval("type error: lt on &obj0[1] and &obj1[0]", 2),
        ),
        (
            "un type error",
            module(|f, _| {
                f.un(UnOp::FSqrt, f.param(0).into());
            }),
            [int(4), int(0)],
            eval("type error: fsqrt on 4", 2),
        ),
        (
            "set-recovery for an unknown region",
            module(|f, _| f.emit(Inst::SetRecovery { region: RegionId::new(3) })),
            [int(0), int(0)],
            eval("SetRecovery for unknown region3", 2),
        ),
        (
            "restore with no armed recovery",
            module(|f, _| f.emit(Inst::Restore { region: RegionId::new(0) })),
            [int(0), int(0)],
            eval("Restore region0 with no armed recovery", 1),
        ),
    ];
    for (name, m, args, want) in cases {
        let entry = m.func_by_name("f").expect("entry exists");
        let r = run_function(&m, None, entry, &args, &RunConfig::default());
        assert!(!r.completed, "{name}: ran to completion");
        assert_eq!(r.trap.as_ref(), Some(&want), "{name}");
    }
}
