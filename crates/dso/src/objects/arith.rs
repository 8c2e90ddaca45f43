//! The micro-benchmark object of Fig. 2a: an integer-valued register with a
//! cheap operation (one multiplication) and an expensive one (10 k
//! sequential multiplications).
//!
//! Its CPU cost model is what exposes the architectural difference between
//! the DSO layer (multi-worker, disjoint-access parallel) and a
//! single-threaded Redis executing Lua scripts serially.

use simcore::codec::Wire;

use crate::object::{costs, Effects};
use crate::shared_object;

shared_object! {
    /// A shared register supporting simple and complex arithmetic updates.
    #[derive(Debug, Clone, PartialEq, Wire)]
    pub struct Arithmetic {
        value: f64,
    }

    type "Arithmetic";
    create(value: f64 = 1.0) { Ok(Arithmetic { value }) }

    methods(self, call) {
        /// Reads the register.
        Read get = "get"() -> f64 { Effects::value(&self.value) }
        /// One multiplication (the "simple" operation).
        Write mul = "mul"(x: f64) -> f64 {
            self.value = mul_n(self.value, x, 1);
            Effects::value(&self.value)
        }
        /// `n` sequential multiplications (the "complex" operation),
        /// charged at the per-multiplication JVM cost.
        Write mul_n = "mulN"(x: f64, n: u32) -> f64 {
            self.value = mul_n(self.value, x, n);
            Effects::value_with_cost(&self.value, costs::SIMPLE_OP + costs::PER_MULT * n)
        }
    }

    /// Typed handle to the Fig. 2a [`Arithmetic`](super::Arithmetic)
    /// register.
    handle arithmetic::Arithmetic { new(key), with_value(key, init), persistent(key, init, rf) }
}

impl Default for Arithmetic {
    fn default() -> Self {
        Arithmetic { value: 1.0 }
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
    use crate::object::SharedObject;

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
