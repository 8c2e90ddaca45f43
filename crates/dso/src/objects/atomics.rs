//! Linearizable atomic scalars: the workhorses of fine-grained shared
//! state (the π-estimation counter, k-means' iteration counter, …).

use super::{dec, dec_create};
use crate::error::ObjectError as ObjErr;
use crate::object::{costs, CallCtx, Effects, SharedObject};

/// A shared 64-bit integer with atomic read-modify-write methods,
/// mirroring `java.util.concurrent.atomic.AtomicLong`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct AtomicLong {
    value: i64,
}

impl AtomicLong {
    /// Registry type name.
    pub const TYPE: &'static str = "AtomicLong";

    /// Factory: creation args are an optional initial value.
    pub fn factory(args: &[u8]) -> Result<Box<dyn SharedObject>, ObjErr> {
        let value = dec_create(args, 0i64)?;
        Ok(Box::new(AtomicLong { value }))
    }
}

impl SharedObject for AtomicLong {
    fn invoke(&mut self, _call: &CallCtx, method: &str, args: &[u8]) -> Result<Effects, ObjErr> {
        match method {
            "set" => {
                self.value = dec(args)?;
                Effects::value(&())
            }
            "addAndGet" => {
                let d: i64 = dec(args)?;
                self.value = self.value.wrapping_add(d);
                Effects::value(&self.value)
            }
            "getAndAdd" => {
                let d: i64 = dec(args)?;
                let old = self.value;
                self.value = self.value.wrapping_add(d);
                Effects::value(&old)
            }
            "incrementAndGet" => {
                self.value = self.value.wrapping_add(1);
                Effects::value(&self.value)
            }
            "decrementAndGet" => {
                self.value = self.value.wrapping_sub(1);
                Effects::value(&self.value)
            }
            "compareAndSet" => {
                let (expect, update): (i64, i64) = dec(args)?;
                let ok = self.value == expect;
                if ok {
                    self.value = update;
                }
                Effects::value(&ok)
            }
            "getAndSet" => {
                let new: i64 = dec(args)?;
                let old = self.value;
                self.value = new;
                Effects::value(&old)
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
        // invariant: an i64 always encodes.
        simcore::codec::to_bytes(&self.value).expect("i64 encodes")
    }

    fn restore(&mut self, state: &[u8]) -> Result<(), ObjErr> {
        self.value =
            simcore::codec::from_bytes(state).map_err(|e| ObjErr::BadState(e.to_string()))?;
        Ok(())
    }
}

/// A shared boolean, mirroring `AtomicBoolean`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct AtomicBoolean {
    value: bool,
}

impl AtomicBoolean {
    /// Registry type name.
    pub const TYPE: &'static str = "AtomicBoolean";

    /// Factory: creation args are an optional initial value.
    pub fn factory(args: &[u8]) -> Result<Box<dyn SharedObject>, ObjErr> {
        let value = dec_create(args, false)?;
        Ok(Box::new(AtomicBoolean { value }))
    }
}

impl SharedObject for AtomicBoolean {
    fn invoke(&mut self, _call: &CallCtx, method: &str, args: &[u8]) -> Result<Effects, ObjErr> {
        match method {
            "set" => {
                self.value = dec(args)?;
                Effects::value(&())
            }
            "compareAndSet" => {
                let (expect, update): (bool, bool) = dec(args)?;
                let ok = self.value == expect;
                if ok {
                    self.value = update;
                }
                Effects::value(&ok)
            }
            "getAndSet" => {
                let new: bool = dec(args)?;
                let old = self.value;
                self.value = new;
                Effects::value(&old)
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
        // invariant: a bool always encodes.
        simcore::codec::to_bytes(&self.value).expect("bool encodes")
    }

    fn restore(&mut self, state: &[u8]) -> Result<(), ObjErr> {
        self.value =
            simcore::codec::from_bytes(state).map_err(|e| ObjErr::BadState(e.to_string()))?;
        Ok(())
    }
}

/// A shared mutable byte array — the 1 KB payload object of the Table 2
/// latency micro-benchmark.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct AtomicByteArray {
    data: Vec<u8>,
}

impl AtomicByteArray {
    /// Registry type name.
    pub const TYPE: &'static str = "AtomicByteArray";

    /// Factory: creation args are optional initial contents.
    pub fn factory(args: &[u8]) -> Result<Box<dyn SharedObject>, ObjErr> {
        let data = dec_create(args, Vec::new())?;
        Ok(Box::new(AtomicByteArray { data }))
    }
}

impl SharedObject for AtomicByteArray {
    fn invoke(&mut self, _call: &CallCtx, method: &str, args: &[u8]) -> Result<Effects, ObjErr> {
        match method {
            "set" => {
                self.data = dec(args)?;
                let cost = costs::SIMPLE_OP + costs::PER_BYTE * self.data.len() as u32;
                Effects::value_with_cost(&(), cost)
            }
            "setByte" => {
                let (i, b): (u64, u8) = dec(args)?;
                let i = i as usize;
                if i >= self.data.len() {
                    return Err(ObjErr::App(format!(
                        "index {i} out of bounds (len {})",
                        self.data.len()
                    )));
                }
                self.data[i] = b;
                Effects::value(&())
            }
            other => Err(ObjErr::MethodNotFound(other.to_string())),
        }
    }

    fn read(&self, method: &str, args: &[u8]) -> Option<Result<Effects, ObjErr>> {
        Some(match method {
            "get" => {
                let cost = costs::SIMPLE_OP + costs::PER_BYTE * self.data.len() as u32;
                Effects::value_with_cost(&self.data, cost)
            }
            "len" => Effects::value(&(self.data.len() as u64)),
            "getByte" => {
                dec(args).and_then(|i: u64| Effects::value(&self.data.get(i as usize).copied()))
            }
            _ => return None,
        })
    }

    fn save(&self) -> Vec<u8> {
        // invariant: a Vec<u8> always encodes.
        simcore::codec::to_bytes(&self.data).expect("bytes encode")
    }

    fn restore(&mut self, state: &[u8]) -> Result<(), ObjErr> {
        self.data =
            simcore::codec::from_bytes(state).map_err(|e| ObjErr::BadState(e.to_string()))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::call;
    use super::*;

    #[test]
    fn atomic_long_rmw_methods() {
        let mut o = AtomicLong::default();
        assert_eq!(call::<i64>(&mut o, "get", &()), 0);
        let _: () = call(&mut o, "set", &5i64);
        assert_eq!(call::<i64>(&mut o, "addAndGet", &10i64), 15);
        assert_eq!(call::<i64>(&mut o, "getAndAdd", &1i64), 15);
        assert_eq!(call::<i64>(&mut o, "incrementAndGet", &()), 17);
        assert_eq!(call::<i64>(&mut o, "decrementAndGet", &()), 16);
        assert!(call::<bool>(&mut o, "compareAndSet", &(16i64, 99i64)));
        assert!(!call::<bool>(&mut o, "compareAndSet", &(16i64, 0i64)));
        assert_eq!(call::<i64>(&mut o, "getAndSet", &7i64), 99);
        assert_eq!(call::<i64>(&mut o, "get", &()), 7);
    }

    #[test]
    fn atomic_long_save_restore_and_factory() {
        let mut o = AtomicLong::default();
        let _: () = call(&mut o, "set", &(-3i64));
        let state = o.save();
        let mut o2 = AtomicLong::default();
        o2.restore(&state).expect("restore");
        assert_eq!(call::<i64>(&mut o2, "get", &()), -3);
        let init = simcore::codec::to_bytes(&42i64).expect("encode");
        let mut o3 = AtomicLong::factory(&init).expect("factory");
        assert_eq!(call::<i64>(o3.as_mut(), "get", &()), 42);
    }

    #[test]
    fn atomic_long_unknown_method() {
        let mut o = AtomicLong::default();
        let call_ctx =
            crate::object::CallCtx { ticket: crate::object::Ticket(0), replicated: false };
        let err = o.invoke(&call_ctx, "frobnicate", &[]).unwrap_err();
        assert!(matches!(err, ObjErr::MethodNotFound(_)));
    }

    #[test]
    fn atomic_boolean() {
        let mut o = AtomicBoolean::default();
        assert!(!call::<bool>(&mut o, "get", &()));
        assert!(call::<bool>(&mut o, "compareAndSet", &(false, true)));
        assert!(call::<bool>(&mut o, "get", &()));
        assert!(call::<bool>(&mut o, "getAndSet", &false));
        assert!(!call::<bool>(&mut o, "get", &()));
    }

    #[test]
    fn byte_array_ops_and_bounds() {
        let init = simcore::codec::to_bytes(&vec![1u8, 2, 3]).expect("encode");
        let mut o = AtomicByteArray::factory(&init).expect("factory");
        assert_eq!(call::<u64>(o.as_mut(), "len", &()), 3);
        assert_eq!(call::<Option<u8>>(o.as_mut(), "getByte", &1u64), Some(2));
        assert_eq!(call::<Option<u8>>(o.as_mut(), "getByte", &9u64), None);
        let _: () = call(o.as_mut(), "setByte", &(0u64, 9u8));
        assert_eq!(call::<Vec<u8>>(o.as_mut(), "get", &()), vec![9, 2, 3]);
        let call_ctx =
            crate::object::CallCtx { ticket: crate::object::Ticket(0), replicated: false };
        let args = simcore::codec::to_bytes(&(9u64, 1u8)).expect("encode");
        assert!(o.invoke(&call_ctx, "setByte", &args).is_err());
    }

    #[test]
    fn bad_args_reported() {
        let mut o = AtomicLong::default();
        let call_ctx =
            crate::object::CallCtx { ticket: crate::object::Ticket(0), replicated: false };
        let err = o.invoke(&call_ctx, "set", &[1, 2]).unwrap_err();
        assert!(matches!(err, ObjErr::BadArgs(_)));
    }
}
