//! Runtime values and operator evaluation.

use encore_ir::{BinOp, UnOp};
use std::fmt;

/// A runtime value held in a register or memory cell.
#[derive(Clone, Copy, Debug)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Pointer: object handle + cell index.
    Ptr {
        /// Index into the machine's object table.
        obj: u32,
        /// Cell index within the object (may be temporarily out of
        /// bounds; bounds are checked on dereference).
        idx: i64,
    },
}

// Every register, memory cell, snapshot and checkpoint entry holds
// `Value`s, so a variant or field that widened it would widen them all.
const _: () = assert!(std::mem::size_of::<Value>() == 16);

/// Equality is bit identity: floats compare by `to_bits`, so a NaN
/// equals its own bit pattern and `0.0 != -0.0`. Two equal states can
/// therefore never diverge (`print_f64` emits the bits, and
/// `pow(-0.0, -1.0)` is −∞), and equality is reflexive, which lets the
/// splice's memory compare skip every page the run and the golden
/// snapshot still share.
impl PartialEq for Value {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        match (*self, *other) {
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Ptr { obj: o1, idx: i1 }, Value::Ptr { obj: o2, idx: i2 }) => {
                o1 == o2 && i1 == i2
            }
            _ => false,
        }
    }
}

impl Eq for Value {}

/// Hashes exactly the bits equality compares.
impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match *self {
            Value::Int(v) => {
                state.write_u8(0);
                state.write_i64(v);
            }
            Value::Float(v) => {
                state.write_u8(1);
                state.write_u64(v.to_bits());
            }
            Value::Ptr { obj, idx } => {
                state.write_u8(2);
                state.write_u32(obj);
                state.write_i64(idx);
            }
        }
    }
}

impl Value {
    /// Integer zero — the initial value of registers and memory cells.
    pub const ZERO: Value = Value::Int(0);

    /// Is this value "truthy" for branches? (nonzero / non-null).
    #[inline]
    pub fn truthy(&self) -> bool {
        match self {
            Value::Int(v) => *v != 0,
            Value::Float(v) => *v != 0.0,
            Value::Ptr { .. } => true,
        }
    }

    /// The integer payload, if any.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The float payload, if any.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// XORs `mask` into the value's 64-bit representation — the general
    /// value-corruption fault (single- and multi-bit). Integers and
    /// floats flip their payload bits; pointers fold the mask into
    /// 16 bits ([`fold_mask16`]) and flip those bits of the cell index
    /// (corrupting an address computation; the corrupted index may land
    /// past the object bound — bounds are checked on dereference, so a
    /// stray becomes a symptom trap). An involution: applying the same
    /// mask twice restores the value, and composing two masks equals
    /// applying their XOR.
    pub fn flip_bits(self, mask: u64) -> Value {
        match self {
            Value::Int(v) => Value::Int(v ^ mask as i64),
            Value::Float(v) => Value::Float(f64::from_bits(v.to_bits() ^ mask)),
            Value::Ptr { obj, idx } => Value::Ptr { obj, idx: idx ^ fold_mask16(mask) as i64 },
        }
    }
}

/// XOR-folds a 64-bit corruption mask into 16 bits, preserving the
/// single-bit case exactly (`1 << b` folds to `1 << (b % 16)`, the
/// historical pointer-corruption behavior) and keeping the fold an
/// involution-compatible linear map: `fold(a ^ b) == fold(a) ^ fold(b)`.
/// Pointer cell indices are small, so corrupting within 16 bits keeps
/// strays near the object instead of teleporting them 2⁶³ cells away.
#[must_use]
pub fn fold_mask16(mask: u64) -> u64 {
    (mask ^ (mask >> 16) ^ (mask >> 32) ^ (mask >> 48)) & 0xFFFF
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Ptr { obj, idx } => write!(f, "&obj{obj}[{idx}]"),
        }
    }
}

/// An evaluation error (type confusion, division misuse of pointers, …).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EvalError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for EvalError {}

// The type-error texts are built out of line, so that inlining
// `eval_bin` and `eval_un` into the interpreter loop copies only their
// `Ok` paths.

#[cold]
#[inline(never)]
fn bin_type_err(op: BinOp, a: Value, b: Value) -> EvalError {
    EvalError { message: format!("type error: {} on {a} and {b}", op.mnemonic()) }
}

#[cold]
#[inline(never)]
fn un_type_err(op: UnOp, a: Value) -> EvalError {
    EvalError { message: format!("type error: {} on {a}", op.mnemonic()) }
}

/// Evaluates a binary operation.
///
/// Integer ops wrap; division/remainder by zero yield 0 (embedded-style
/// silent semantics keep fault-injection runs alive); pointers support
/// `Add`/`Sub` with integers and comparisons against pointers of the same
/// object.
///
/// # Errors
///
/// Returns [`EvalError`] on operand-type mismatches the machine cannot
/// interpret (e.g. float `Add`, pointer `Mul`).
#[inline(always)]
pub fn eval_bin(op: BinOp, a: Value, b: Value) -> Result<Value, EvalError> {
    use BinOp::*;
    use Value::*;
    Ok(match (op, a, b) {
        (Add, Int(x), Int(y)) => Int(x.wrapping_add(y)),
        (Sub, Int(x), Int(y)) => Int(x.wrapping_sub(y)),
        (Mul, Int(x), Int(y)) => Int(x.wrapping_mul(y)),
        (Div, Int(x), Int(y)) => Int(if y == 0 { 0 } else { x.wrapping_div(y) }),
        (Rem, Int(x), Int(y)) => Int(if y == 0 { 0 } else { x.wrapping_rem(y) }),
        (And, Int(x), Int(y)) => Int(x & y),
        (Or, Int(x), Int(y)) => Int(x | y),
        (Xor, Int(x), Int(y)) => Int(x ^ y),
        (Shl, Int(x), Int(y)) => Int(x.wrapping_shl(y as u32 & 63)),
        (Shr, Int(x), Int(y)) => Int(x.wrapping_shr(y as u32 & 63)),
        (Min, Int(x), Int(y)) => Int(x.min(y)),
        (Max, Int(x), Int(y)) => Int(x.max(y)),
        (FAdd, Float(x), Float(y)) => Float(x + y),
        (FSub, Float(x), Float(y)) => Float(x - y),
        (FMul, Float(x), Float(y)) => Float(x * y),
        (FDiv, Float(x), Float(y)) => Float(if y == 0.0 { 0.0 } else { x / y }),
        (Eq, Int(x), Int(y)) => Int((x == y) as i64),
        (Ne, Int(x), Int(y)) => Int((x != y) as i64),
        (Lt, Int(x), Int(y)) => Int((x < y) as i64),
        (Le, Int(x), Int(y)) => Int((x <= y) as i64),
        (FLt, Float(x), Float(y)) => Int((x < y) as i64),
        (FLe, Float(x), Float(y)) => Int((x <= y) as i64),
        // Pointer arithmetic.
        (Add, Ptr { obj, idx }, Int(y)) => Ptr { obj, idx: idx.wrapping_add(y) },
        (Add, Int(x), Ptr { obj, idx }) => Ptr { obj, idx: idx.wrapping_add(x) },
        (Sub, Ptr { obj, idx }, Int(y)) => Ptr { obj, idx: idx.wrapping_sub(y) },
        (Sub, Ptr { obj: o1, idx: i1 }, Ptr { obj: o2, idx: i2 }) if o1 == o2 => {
            Int(i1.wrapping_sub(i2))
        }
        (Eq, Ptr { obj: o1, idx: i1 }, Ptr { obj: o2, idx: i2 }) => {
            Int((o1 == o2 && i1 == i2) as i64)
        }
        (Ne, Ptr { obj: o1, idx: i1 }, Ptr { obj: o2, idx: i2 }) => {
            Int((o1 != o2 || i1 != i2) as i64)
        }
        (Lt, Ptr { obj: o1, idx: i1 }, Ptr { obj: o2, idx: i2 }) if o1 == o2 => {
            Int((i1 < i2) as i64)
        }
        (Le, Ptr { obj: o1, idx: i1 }, Ptr { obj: o2, idx: i2 }) if o1 == o2 => {
            Int((i1 <= i2) as i64)
        }
        (_, a, b) => return Err(bin_type_err(op, a, b)),
    })
}

/// Evaluates a unary operation.
///
/// # Errors
///
/// Returns [`EvalError`] on operand-type mismatches.
#[inline(always)]
pub fn eval_un(op: UnOp, a: Value) -> Result<Value, EvalError> {
    use UnOp::*;
    use Value::*;
    Ok(match (op, a) {
        (Neg, Int(x)) => Int(x.wrapping_neg()),
        (Not, Int(x)) => Int(!x),
        (Abs, Int(x)) => Int(x.wrapping_abs()),
        (FNeg, Float(x)) => Float(-x),
        (FSqrt, Float(x)) => Float(x.abs().sqrt()),
        (IToF, Int(x)) => Float(x as f64),
        (FToI, Float(x)) => Int(if x.is_nan() {
            0
        } else {
            x.clamp(i64::MIN as f64, i64::MAX as f64) as i64
        }),
        (_, a) => return Err(un_type_err(op, a)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIN: i64 = i64::MIN;
    const MAX: i64 = i64::MAX;
    const NAN: f64 = f64::NAN;
    const INF: f64 = f64::INFINITY;

    /// The integer operands of the arithmetic table.
    const INTS: [i64; 4] = [0, -1, MIN, MAX];
    /// The float operands: both zeros, NaN and both infinities.
    const FLOATS: [f64; 5] = [0.0, -0.0, NAN, INF, -INF];
    /// Unary float ops also take a negative non-integer.
    const FLOATS_UN: [f64; 6] = [0.0, -0.0, NAN, INF, -INF, -2.25];

    /// A binary op's results over the grid of its operand type, row by
    /// row: entry `i * n + j` is `op(grid[i], grid[j])`.
    enum BinRow {
        /// Over [`INTS`] × [`INTS`].
        Int([i64; 16]),
        /// Over [`FLOATS`] × [`FLOATS`].
        Float([f64; 25]),
        /// A comparison over [`FLOATS`] × [`FLOATS`].
        FloatCmp([i64; 25]),
    }

    /// A unary op's results over the grid of its operand type.
    enum UnRow {
        /// Over [`INTS`].
        Int([i64; 4]),
        /// A conversion over [`INTS`].
        IntToFloat([f64; 4]),
        /// Over [`FLOATS_UN`].
        Float([f64; 6]),
        /// A conversion over [`FLOATS_UN`].
        FloatToInt([i64; 6]),
    }

    /// The table's row for `op`. The match is exhaustive, so a new
    /// operation does not compile until it has a row.
    #[rustfmt::skip]
    fn bin_row(op: BinOp) -> BinRow {
        use BinRow::*;
        match op {
            BinOp::Add => Int([
                0, -1, MIN, MAX,
                -1, -2, MAX, MAX - 1,
                MIN, MAX, 0, -1,
                MAX, MAX - 1, -1, -2,
            ]),
            BinOp::Sub => Int([
                0, 1, MIN, MIN + 1,
                -1, 0, MAX, MIN,
                MIN, MIN + 1, 0, 1,
                MAX, MIN, -1, 0,
            ]),
            BinOp::Mul => Int([
                0, 0, 0, 0,
                0, 1, MIN, MIN + 1,
                0, MIN, 0, MIN,
                0, MIN + 1, MIN, 1,
            ]),
            // Division by zero gives 0, and MIN / -1 wraps to MIN.
            BinOp::Div => Int([
                0, 0, 0, 0,
                0, 1, 0, 0,
                0, MIN, 1, -1,
                0, MIN + 1, 0, 1,
            ]),
            // The remainder takes the dividend's sign; by zero it is 0.
            BinOp::Rem => Int([
                0, 0, 0, 0,
                0, 0, -1, -1,
                0, 0, 0, -1,
                0, 0, MAX, 0,
            ]),
            BinOp::And => Int([
                0, 0, 0, 0,
                0, -1, MIN, MAX,
                0, MIN, MIN, 0,
                0, MAX, 0, MAX,
            ]),
            BinOp::Or => Int([
                0, -1, MIN, MAX,
                -1, -1, -1, -1,
                MIN, -1, MIN, -1,
                MAX, -1, -1, MAX,
            ]),
            BinOp::Xor => Int([
                0, -1, MIN, MAX,
                -1, 0, MAX, MIN,
                MIN, MAX, 0, -1,
                MAX, MIN, -1, 0,
            ]),
            // Shift counts are taken mod 64: -1 and MAX shift by 63, MIN
            // by 0.
            BinOp::Shl => Int([
                0, 0, 0, 0,
                -1, MIN, -1, MIN,
                MIN, 0, MIN, 0,
                MAX, MIN, MAX, MIN,
            ]),
            // Arithmetic: the sign bit fills in.
            BinOp::Shr => Int([
                0, 0, 0, 0,
                -1, -1, -1, -1,
                MIN, -1, MIN, -1,
                MAX, 0, MAX, 0,
            ]),
            BinOp::Min => Int([
                0, -1, MIN, 0,
                -1, -1, MIN, -1,
                MIN, MIN, MIN, MIN,
                0, -1, MIN, MAX,
            ]),
            BinOp::Max => Int([
                0, 0, 0, MAX,
                0, -1, -1, MAX,
                0, -1, MIN, MAX,
                MAX, MAX, MAX, MAX,
            ]),
            BinOp::Eq => Int([
                1, 0, 0, 0,
                0, 1, 0, 0,
                0, 0, 1, 0,
                0, 0, 0, 1,
            ]),
            BinOp::Ne => Int([
                0, 1, 1, 1,
                1, 0, 1, 1,
                1, 1, 0, 1,
                1, 1, 1, 0,
            ]),
            BinOp::Lt => Int([
                0, 0, 0, 1,
                1, 0, 0, 1,
                1, 1, 0, 1,
                0, 0, 0, 0,
            ]),
            BinOp::Le => Int([
                1, 0, 0, 1,
                1, 1, 0, 1,
                1, 1, 1, 1,
                0, 0, 0, 1,
            ]),
            BinOp::FAdd => Float([
                0.0, 0.0, NAN, INF, -INF,
                0.0, -0.0, NAN, INF, -INF,
                NAN, NAN, NAN, NAN, NAN,
                INF, INF, NAN, INF, NAN,
                -INF, -INF, NAN, NAN, -INF,
            ]),
            BinOp::FSub => Float([
                0.0, 0.0, NAN, -INF, INF,
                -0.0, 0.0, NAN, -INF, INF,
                NAN, NAN, NAN, NAN, NAN,
                INF, INF, NAN, NAN, INF,
                -INF, -INF, NAN, -INF, NAN,
            ]),
            BinOp::FMul => Float([
                0.0, -0.0, NAN, NAN, NAN,
                -0.0, 0.0, NAN, NAN, NAN,
                NAN, NAN, NAN, NAN, NAN,
                NAN, NAN, NAN, INF, -INF,
                NAN, NAN, NAN, -INF, INF,
            ]),
            // Division by either zero gives +0.0, even of NaN.
            BinOp::FDiv => Float([
                0.0, 0.0, NAN, 0.0, -0.0,
                0.0, 0.0, NAN, -0.0, 0.0,
                0.0, 0.0, NAN, NAN, NAN,
                0.0, 0.0, NAN, NAN, NAN,
                0.0, 0.0, NAN, NAN, NAN,
            ]),
            // A NaN operand compares false.
            BinOp::FLt => FloatCmp([
                0, 0, 0, 1, 0,
                0, 0, 0, 1, 0,
                0, 0, 0, 0, 0,
                0, 0, 0, 0, 0,
                1, 1, 0, 1, 0,
            ]),
            BinOp::FLe => FloatCmp([
                1, 1, 0, 1, 0,
                1, 1, 0, 1, 0,
                0, 0, 0, 0, 0,
                0, 0, 0, 1, 0,
                1, 1, 0, 1, 1,
            ]),
        }
    }

    /// The table's row for `op`, exhaustive like [`bin_row`].
    fn un_row(op: UnOp) -> UnRow {
        use UnRow::*;
        match op {
            UnOp::Neg => Int([0, 1, MIN, MIN + 1]),
            UnOp::Not => Int([-1, 0, MAX, MIN]),
            UnOp::Abs => Int([0, 1, MIN, MAX]),
            // MAX rounds up to 2^63.
            UnOp::IToF => IntToFloat([0.0, -1.0, -9223372036854775808.0, 9223372036854775808.0]),
            UnOp::FNeg => Float([-0.0, 0.0, NAN, -INF, INF, 2.25]),
            // The root of the absolute value.
            UnOp::FSqrt => Float([0.0, 0.0, NAN, INF, INF, 1.5]),
            // Truncates and saturates; NaN gives 0.
            UnOp::FToI => FloatToInt([0, 0, 0, MAX, MIN, -2]),
        }
    }

    /// A NaN result matches any NaN, since Rust leaves a computed NaN's
    /// sign and payload unspecified (x86 and Arm differ); every other
    /// result matches by bit identity, so `0.0` is not `-0.0`.
    fn check(got: Result<Value, EvalError>, want: Value, what: &str) {
        let ok = match (&got, want) {
            (Ok(Value::Float(g)), Value::Float(w)) if w.is_nan() => g.is_nan(),
            (Ok(g), w) => *g == w,
            (Err(_), _) => false,
        };
        assert!(ok, "{what} = {got:?}, expected {want:?}");
    }

    /// Every operation over its operand grid gives the table's literal
    /// results, and operands of the wrong type give `Err`.
    #[test]
    fn arithmetic_table() {
        use std::mem::discriminant;
        let ints = INTS.map(Value::Int);
        let floats = FLOATS.map(Value::Float);
        let floats_un = FLOATS_UN.map(Value::Float);
        let every: Vec<Value> = ints.iter().chain(&floats_un).copied().collect();

        for &op in BinOp::all() {
            let (grid, want): (&[Value], Vec<Value>) = match bin_row(op) {
                BinRow::Int(r) => (&ints, r.map(Value::Int).into()),
                BinRow::Float(r) => (&floats, r.map(Value::Float).into()),
                BinRow::FloatCmp(r) => (&floats, r.map(Value::Int).into()),
            };
            let pairs = grid.iter().flat_map(|&a| grid.iter().map(move |&b| (a, b)));
            for ((a, b), want) in pairs.zip(want) {
                check(eval_bin(op, a, b), want, &format!("{op:?}({a:?}, {b:?})"));
            }
            let typed = |v: &Value| discriminant(v) == discriminant(&grid[0]);
            for a in &every {
                for b in every.iter().filter(|b| !(typed(a) && typed(b))) {
                    assert!(eval_bin(op, *a, *b).is_err(), "{op:?}({a:?}, {b:?}) is a type error");
                }
            }
        }

        for &op in UnOp::all() {
            let (grid, want): (&[Value], Vec<Value>) = match un_row(op) {
                UnRow::Int(r) => (&ints, r.map(Value::Int).into()),
                UnRow::IntToFloat(r) => (&ints, r.map(Value::Float).into()),
                UnRow::Float(r) => (&floats_un, r.map(Value::Float).into()),
                UnRow::FloatToInt(r) => (&floats_un, r.map(Value::Int).into()),
            };
            for (&a, want) in grid.iter().zip(want) {
                check(eval_un(op, a), want, &format!("{op:?}({a:?})"));
            }
            let typed = |v: &Value| discriminant(v) == discriminant(&grid[0]);
            for a in every.iter().filter(|a| !typed(a)) {
                assert!(eval_un(op, *a).is_err(), "{op:?}({a:?}) is a type error");
            }
        }
    }

    #[test]
    fn pointer_arithmetic() {
        let p = Value::Ptr { obj: 3, idx: 4 };
        assert_eq!(
            eval_bin(BinOp::Add, p, Value::Int(2)).unwrap(),
            Value::Ptr { obj: 3, idx: 6 }
        );
        let q = Value::Ptr { obj: 3, idx: 10 };
        assert_eq!(eval_bin(BinOp::Sub, q, p).unwrap(), Value::Int(6));
        assert_eq!(eval_bin(BinOp::Lt, p, q).unwrap(), Value::Int(1));
    }

    #[test]
    fn cross_object_pointer_compare_is_error() {
        let p = Value::Ptr { obj: 1, idx: 0 };
        let q = Value::Ptr { obj: 2, idx: 0 };
        assert!(eval_bin(BinOp::Lt, p, q).is_err());
        // Eq/Ne are fine across objects.
        assert_eq!(eval_bin(BinOp::Eq, p, q).unwrap(), Value::Int(0));
    }

    #[test]
    fn type_mismatch_errors() {
        assert!(eval_bin(BinOp::Add, Value::Float(1.0), Value::Int(1)).is_err());
        assert!(eval_bin(BinOp::FAdd, Value::Int(1), Value::Int(1)).is_err());
        assert!(eval_un(UnOp::FSqrt, Value::Int(4)).is_err());
    }

    #[test]
    fn equality_is_bit_identity() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan, nan);
        assert_ne!(nan, nan.flip_bits(1), "another NaN payload is another value");
        assert_ne!(Value::Float(0.0), Value::Float(-0.0), "the sign bit is observable");
        assert_eq!(Value::Float(-0.0), Value::Float(0.0).flip_bits(1 << 63));
        assert_ne!(Value::Int(0), Value::Float(0.0));
        assert_ne!(Value::Int(1), Value::Ptr { obj: 0, idx: 1 });
    }

    #[test]
    fn bit_63_flips_the_sign_bit() {
        // The top bit is in range for every representation: integers
        // flip sign and floats flip their sign bit.
        assert_eq!(Value::Int(1).flip_bits(1 << 63), Value::Int(1 ^ i64::MIN));
        assert_eq!(Value::Float(1.5).flip_bits(1 << 63), Value::Float(-1.5));
        assert_eq!(
            Value::Int(i64::MIN).flip_bits(1 << 63),
            Value::Int(0),
            "flipping the sign bit of MIN yields zero"
        );
    }

    #[test]
    fn pointer_corruption_can_wrap_past_the_object_bound() {
        // A pointer's corrupted index is *not* clamped to the object:
        // bounds are checked on dereference, so a stray past the end is
        // exactly how address faults become symptom traps. Bits ≥ 16
        // fold back into the 16-bit index window.
        let p = Value::Ptr { obj: 3, idx: 4 };
        assert_eq!(p.flip_bits(1 << 15), Value::Ptr { obj: 3, idx: 4 ^ (1 << 15) });
        assert_eq!(p.flip_bits(1 << 16), Value::Ptr { obj: 3, idx: 5 }); // 16 folds to bit 0
        assert_eq!(p.flip_bits(1 << 63), Value::Ptr { obj: 3, idx: 4 ^ (1 << 15) });
        // The object handle is never corrupted (the fault is an address
        // *computation* fault, not a type-system escape).
        for bit in 0..64 {
            match p.flip_bits(1 << bit) {
                Value::Ptr { obj, .. } => assert_eq!(obj, 3),
                other => panic!("flip changed representation: {other:?}"),
            }
        }
    }

    #[test]
    fn multi_bit_masks_compose_and_round_trip() {
        // flip_bits is an involution and composes by XOR — the property
        // the multi-bit model's determinism (and snapshot-resume
        // equivalence) leans on.
        let cases = [Value::Int(-77), Value::Float(3.25), Value::Ptr { obj: 1, idx: 9 }];
        let masks = [0x3u64, 0xF0F0, 1 << 63, 0xDEAD_BEEF_CAFE_F00D];
        for v in cases {
            for a in masks {
                assert_eq!(v.flip_bits(a).flip_bits(a), v, "involution failed: {v:?} {a:#x}");
                for b in masks {
                    assert_eq!(
                        v.flip_bits(a).flip_bits(b),
                        v.flip_bits(a ^ b),
                        "composition failed: {v:?} {a:#x} {b:#x}"
                    );
                }
            }
        }
        // A wrapped adjacent burst (rotate_left past bit 63) still
        // round-trips.
        let burst = 0b111u64.rotate_left(62);
        assert_eq!(Value::Int(12345).flip_bits(burst).flip_bits(burst), Value::Int(12345));
    }

    #[test]
    fn single_bit_masks_fold_to_their_bit_mod_16() {
        // A one-bit mask folds to bit `b % 16` — the historical pointer
        // corruption the default campaign stream depends on.
        for bit in 0..64 {
            assert_eq!(fold_mask16(1u64 << bit), 1u64 << (bit % 16));
        }
    }

    #[test]
    fn truthiness() {
        assert!(!Value::Int(0).truthy());
        assert!(Value::Int(-1).truthy());
        assert!(!Value::Float(0.0).truthy());
        assert!(Value::Ptr { obj: 0, idx: 0 }.truthy());
    }
}
