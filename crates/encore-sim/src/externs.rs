//! Host-provided external functions.
//!
//! Workloads call externals for math (pure), environment probes
//! (read-only) and I/O-ish effects (opaque). The effect class an
//! instruction *declares* (`ExtEffect`) is what the static analysis
//! trusts; the registry here provides the matching runtime behavior.
//! Everything is deterministic: the PRNG is a seeded LCG and "time" is a
//! call counter, so golden runs are reproducible.

use crate::value::{EvalError, Value};

/// The external-function environment of a machine.
#[derive(Clone, PartialEq, Hash, Debug)]
pub struct Externs {
    /// Values printed by `print_i64` / `print_f64` (the observable
    /// output channel compared against golden runs).
    pub output: Vec<i64>,
    prng: u64,
    clock: u64,
}

impl Externs {
    /// Creates the environment with the given PRNG seed.
    pub fn new(seed: u64) -> Self {
        Self { output: Vec::new(), prng: seed | 1, clock: 0 }
    }

    fn next_prng(&mut self) -> i64 {
        // SplitMix64 step: deterministic, decent quality.
        self.prng = self.prng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.prng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as i64
    }

    fn float_arg(args: &[Value], i: usize, name: &str) -> Result<f64, EvalError> {
        args.get(i).and_then(Value::as_float).ok_or_else(|| EvalError {
            message: format!("extern `{name}` expects float argument {i}"),
        })
    }

    fn int_arg(args: &[Value], i: usize, name: &str) -> Result<i64, EvalError> {
        args.get(i).and_then(Value::as_int).ok_or_else(|| EvalError {
            message: format!("extern `{name}` expects int argument {i}"),
        })
    }

    /// Environment-state equality modulo the output channel: PRNG and
    /// clock agree, so the two environments answer every future extern
    /// call identically even if their output histories differ. The
    /// divergence splice compares output separately (it is append-only
    /// and never rolled back, so a diverged prefix is permanent).
    pub fn state_equal_ignoring_output(&self, other: &Externs) -> bool {
        self.prng == other.prng && self.clock == other.clock
    }

    /// Invokes external `name`.
    ///
    /// # Errors
    ///
    /// Unknown names and argument-type mismatches yield an [`EvalError`]
    /// (the machine reports it as a trap).
    pub fn call(&mut self, name: &str, args: &[Value]) -> Result<Value, EvalError> {
        match name {
            // Pure math.
            "sin" => Ok(Value::Float(Self::float_arg(args, 0, name)?.sin())),
            "cos" => Ok(Value::Float(Self::float_arg(args, 0, name)?.cos())),
            "exp" => Ok(Value::Float(Self::float_arg(args, 0, name)?.exp())),
            "log" => {
                let x = Self::float_arg(args, 0, name)?;
                Ok(Value::Float(if x <= 0.0 { 0.0 } else { x.ln() }))
            }
            "floor" => Ok(Value::Float(Self::float_arg(args, 0, name)?.floor())),
            "pow" => {
                let x = Self::float_arg(args, 0, name)?;
                let y = Self::float_arg(args, 1, name)?;
                Ok(Value::Float(x.powf(y)))
            }
            // Read-only environment probes.
            "clock" => {
                self.clock += 1;
                Ok(Value::Int(self.clock as i64))
            }
            // Opaque effects.
            "prng" => Ok(Value::Int(self.next_prng())),
            "prng_range" => {
                let n = Self::int_arg(args, 0, name)?.max(1);
                Ok(Value::Int(self.next_prng().rem_euclid(n)))
            }
            "print_i64" => {
                self.output.push(Self::int_arg(args, 0, name)?);
                Ok(Value::Int(0))
            }
            "print_f64" => {
                let x = Self::float_arg(args, 0, name)?;
                self.output.push(x.to_bits() as i64);
                Ok(Value::Int(0))
            }
            other => Err(EvalError { message: format!("unknown extern `{other}`") }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn math_functions() {
        let mut e = Externs::new(1);
        let r = e.call("sin", &[Value::Float(0.0)]).unwrap();
        assert_eq!(r, Value::Float(0.0));
        assert_eq!(e.call("log", &[Value::Float(-1.0)]).unwrap(), Value::Float(0.0));
        assert_eq!(
            e.call("pow", &[Value::Float(2.0), Value::Float(10.0)]).unwrap(),
            Value::Float(1024.0)
        );
    }

    #[test]
    fn prng_is_deterministic_per_seed() {
        let mut a = Externs::new(7);
        let mut b = Externs::new(7);
        for _ in 0..10 {
            assert_eq!(a.call("prng", &[]).unwrap(), b.call("prng", &[]).unwrap());
        }
        let mut c = Externs::new(8);
        assert_ne!(a.call("prng", &[]).unwrap(), c.call("prng", &[]).unwrap());
    }

    #[test]
    fn prng_range_bounded() {
        let mut e = Externs::new(3);
        for _ in 0..100 {
            let v = e.call("prng_range", &[Value::Int(10)]).unwrap();
            let x = v.as_int().unwrap();
            assert!((0..10).contains(&x));
        }
    }

    #[test]
    fn print_collects_output() {
        let mut e = Externs::new(1);
        e.call("print_i64", &[Value::Int(42)]).unwrap();
        e.call("print_i64", &[Value::Int(-1)]).unwrap();
        assert_eq!(e.output, vec![42, -1]);
    }

    #[test]
    fn unknown_extern_errors() {
        let mut e = Externs::new(1);
        assert!(e.call("nope", &[]).is_err());
    }

    #[test]
    fn clock_advances() {
        let mut e = Externs::new(1);
        let a = e.call("clock", &[]).unwrap().as_int().unwrap();
        let b = e.call("clock", &[]).unwrap().as_int().unwrap();
        assert!(b > a);
    }
}
