//! The micro-benchmark object of Fig. 2a: an integer-valued register with a
//! cheap operation (one multiplication) and an expensive one (10 k
//! sequential multiplications).
//!
//! Its CPU cost model is what exposes the architectural difference between
//! the DSO layer (multi-worker, disjoint-access parallel) and a
//! single-threaded Redis executing Lua scripts serially.

use super::{dec, dec_create};
use crate::error::ObjectError as ObjErr;
use crate::object::{costs, CallCtx, Effects, SharedObject};

/// A shared register supporting simple and complex arithmetic updates.
#[derive(Debug, Clone, PartialEq)]
pub struct Arithmetic {
    value: f64,
}

impl Default for Arithmetic {
    fn default() -> Self {
        Arithmetic { value: 1.0 }
    }
}

impl Arithmetic {
    /// Registry type name.
    pub const TYPE: &'static str = "Arithmetic";

    /// Factory: creation args are an optional initial value.
    pub fn factory(args: &[u8]) -> Result<Box<dyn SharedObject>, ObjErr> {
        let value = dec_create(args, 1.0f64)?;
        Ok(Box::new(Arithmetic { value }))
    }
}

impl SharedObject for Arithmetic {
    fn invoke(&mut self, _call: &CallCtx, method: &str, args: &[u8]) -> Result<Effects, ObjErr> {
        match method {
            // Simple operation: one multiplication.
            "mul" => {
                let x: f64 = dec(args)?;
                self.value = mul_n(self.value, x, 1);
                Effects::value(&self.value)
            }
            // Complex operation: n sequential multiplications, charged at
            // the per-multiplication JVM cost.
            "mulN" => {
                let (x, n): (f64, u32) = dec(args)?;
                self.value = mul_n(self.value, x, n);
                Effects::value_with_cost(&self.value, costs::SIMPLE_OP + costs::PER_MULT * n)
            }
            other => Err(ObjErr::MethodNotFound(other.to_string())),
        }
    }

    fn read(&self, method: &str, _args: &[u8]) -> Option<Result<Effects, ObjErr>> {
        Some(match method {
            "get" => Effects::value(&self.value),
            _ => return None,
        })
    }

    fn save(&self) -> Vec<u8> {
        // invariant: an f64 always encodes.
        simcore::codec::to_bytes(&self.value).expect("f64 encodes")
    }

    fn restore(&mut self, state: &[u8]) -> Result<(), ObjErr> {
        self.value =
            simcore::codec::from_bytes(state).map_err(|e| ObjErr::BadState(e.to_string()))?;
        Ok(())
    }
}

/// `v * x^n`, keeping the magnitude bounded so long benchmark runs do not
/// overflow to infinity (the paper's benchmark is about throughput, not the
/// numeric result).
fn mul_n(v: f64, x: f64, n: u32) -> f64 {
    let mut out = v * x.powi(n.min(64) as i32);
    if !out.is_finite() || out == 0.0 {
        out = 1.0;
    }
    // Renormalize to avoid drifting to inf/0 over millions of ops.
    while out.abs() > 1e100 {
        out /= 1e100;
    }
    while out.abs() < 1e-100 {
        out *= 1e100;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{call, call_fx};
    use super::*;

    #[test]
    fn simple_and_complex_costs() {
        let mut a = Arithmetic::default();
        let fx = call_fx(&mut a, "mul", &2.0f64);
        assert_eq!(fx.cost, costs::SIMPLE_OP);
        let fx = call_fx(&mut a, "mulN", &(1.000001f64, 10_000u32));
        assert_eq!(fx.cost, costs::SIMPLE_OP + costs::PER_MULT * 10_000);
    }

    #[test]
    fn value_updates() {
        let mut a = Arithmetic::default();
        assert_eq!(call::<f64>(&mut a, "get", &()), 1.0);
        assert_eq!(call::<f64>(&mut a, "mul", &3.0f64), 3.0);
        assert_eq!(call::<f64>(&mut a, "mul", &2.0f64), 6.0);
    }

    #[test]
    fn stays_finite_under_extreme_inputs() {
        let mut v = 1.0;
        for _ in 0..1000 {
            v = mul_n(v, 1e50, 64);
            assert!(v.is_finite() && v != 0.0);
        }
        for _ in 0..1000 {
            v = mul_n(v, 1e-50, 64);
            assert!(v.is_finite() && v != 0.0);
        }
    }

    #[test]
    fn save_restore() {
        let mut a = Arithmetic::default();
        let _: f64 = call(&mut a, "mul", &5.0f64);
        let mut b = Arithmetic::default();
        b.restore(&a.save()).expect("restore");
        assert_eq!(a, b);
    }
}
