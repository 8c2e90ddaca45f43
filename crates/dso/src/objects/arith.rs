//! The micro-benchmark object of Fig. 2a: an integer-valued register with a
//! cheap operation (one multiplication) and an expensive one (10 k
//! sequential multiplications).
//!
//! Its CPU cost model is what exposes the architectural difference between
//! the DSO layer (multi-worker, disjoint-access parallel) and a
//! single-threaded Redis executing Lua scripts serially.
//!
//! The counter family also includes [`GCounter`], the first [`Mergeable`]
//! object: a grow-only CRDT counter whose per-replica entries reconcile
//! by entrywise max under `ConsistencyMode::CrdtMerge`.

use std::collections::BTreeMap;

use super::{dec, dec_create};
use crate::error::ObjectError as ObjErr;
use crate::object::{costs, CallCtx, Effects, Mergeable, SharedObject};

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

/// A grow-only CRDT counter (G-Counter): one monotone entry per storage
/// node, total value = the sum of all entries.
///
/// `inc` bumps the entry of the *executing* replica
/// ([`CallCtx::node`]), so concurrent increments at different replicas
/// touch disjoint entries and [`Mergeable::merge`] — entrywise max — is
/// commutative, associative, and idempotent. Under
/// [`crate::ConsistencyMode::CrdtMerge`] this is the convergent
/// counterpart of `AtomicLong::incrementAndGet`: writes skip the SMR
/// multicast and replicas reconcile on anti-entropy exchange.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GCounter {
    counts: BTreeMap<u32, u64>,
}

impl GCounter {
    /// Registry type name.
    pub const TYPE: &'static str = "GCounter";

    /// Factory: creation args are an optional initial entry map.
    pub fn factory(args: &[u8]) -> Result<Box<dyn SharedObject>, ObjErr> {
        let counts = dec_create(args, BTreeMap::new())?;
        Ok(Box::new(GCounter { counts }))
    }

    /// Total value: the sum of every replica's entry.
    pub fn value(&self) -> u64 {
        self.counts.values().sum()
    }
}

impl SharedObject for GCounter {
    fn invoke(&mut self, call: &CallCtx, method: &str, args: &[u8]) -> Result<Effects, ObjErr> {
        match method {
            "inc" => {
                let d: u64 = dec(args)?;
                *self.counts.entry(call.node).or_default() += d;
                Effects::value(&self.value())
            }
            other => Err(ObjErr::MethodNotFound(other.to_string())),
        }
    }

    fn read(&self, method: &str, _args: &[u8]) -> Option<Result<Effects, ObjErr>> {
        Some(match method {
            "get" => Effects::value(&self.value()),
            _ => return None,
        })
    }

    fn save(&self) -> Vec<u8> {
        // invariant: a BTreeMap of integers always encodes.
        simcore::codec::to_bytes(&self.counts).expect("counter map encodes")
    }

    fn restore(&mut self, state: &[u8]) -> Result<(), ObjErr> {
        self.counts =
            simcore::codec::from_bytes(state).map_err(|e| ObjErr::BadState(e.to_string()))?;
        Ok(())
    }

    fn as_mergeable(&mut self) -> Option<&mut dyn Mergeable> {
        Some(self)
    }
}

impl Mergeable for GCounter {
    fn merge(&mut self, other_state: &[u8]) -> Result<(), ObjErr> {
        let other: BTreeMap<u32, u64> =
            simcore::codec::from_bytes(other_state).map_err(|e| ObjErr::BadState(e.to_string()))?;
        for (actor, n) in other {
            let e = self.counts.entry(actor).or_default();
            *e = (*e).max(n);
        }
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

    #[test]
    fn gcounter_attributes_incs_to_the_executing_node() {
        use super::super::testutil::call_at_node;
        let mut c = GCounter::default();
        assert_eq!(call_at_node::<u64>(&mut c, "inc", &3u64, 0), 3);
        assert_eq!(call_at_node::<u64>(&mut c, "inc", &2u64, 1), 5);
        assert_eq!(call_at_node::<u64>(&mut c, "inc", &1u64, 0), 6);
        assert_eq!(call::<u64>(&mut c, "get", &()), 6);
    }

    #[test]
    fn gcounter_merge_is_entrywise_max() {
        use super::super::testutil::call_at_node;
        let mut a = GCounter::default();
        let mut b = GCounter::default();
        let _: u64 = call_at_node(&mut a, "inc", &5u64, 0);
        let _: u64 = call_at_node(&mut b, "inc", &3u64, 1);
        // Merging an older copy of yourself is a no-op (idempotent), while
        // disjoint entries sum.
        let a_state = a.save();
        a.as_mergeable().expect("mergeable").merge(&b.save()).expect("merge");
        assert_eq!(a.value(), 8);
        a.as_mergeable().expect("mergeable").merge(&a_state).expect("self merge");
        assert_eq!(a.value(), 8, "re-merging own earlier state must not double-count");
        b.as_mergeable().expect("mergeable").merge(&a.save()).expect("merge");
        assert_eq!(b.value(), 8, "merge converges both replicas");
        assert!(a.as_mergeable().expect("mergeable").merge(&[0xff, 0xfe]).is_err());
    }
}
