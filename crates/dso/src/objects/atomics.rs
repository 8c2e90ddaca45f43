//! Linearizable atomic scalars: the workhorses of fine-grained shared
//! state (the π-estimation counter, k-means' iteration counter, …).

use simcore::codec::Wire;

use crate::error::ObjectError as ObjErr;
use crate::object::{costs, Effects};
use crate::shared_object;

shared_object! {
    /// A shared 64-bit integer with atomic read-modify-write methods,
    /// mirroring `java.util.concurrent.atomic.AtomicLong`.
    #[derive(Debug, Default, Clone, PartialEq, Eq, Wire)]
    pub struct AtomicLong {
        value: i64,
    }

    type "AtomicLong";
    create(value: i64 = 0) { Ok(AtomicLong { value }) }

    methods(self, call) {
        /// Reads the current value.
        Read get = "get"() -> i64 { Effects::value(&self.value) }
        /// Overwrites the value.
        Write set = "set"(v: i64) -> () {
            self.value = v;
            Effects::value(&())
        }
        /// Atomically adds `d` and returns the new value.
        Write add_and_get = "addAndGet"(d: i64) -> i64 {
            self.value = self.value.wrapping_add(d);
            Effects::value(&self.value)
        }
        /// Atomically adds `d` and returns the previous value.
        Write get_and_add = "getAndAdd"(d: i64) -> i64 {
            let old = self.value;
            self.value = self.value.wrapping_add(d);
            Effects::value(&old)
        }
        /// Atomically increments and returns the new value.
        Write increment_and_get = "incrementAndGet"() -> i64 {
            self.value = self.value.wrapping_add(1);
            Effects::value(&self.value)
        }
        /// Atomically decrements and returns the new value.
        Write decrement_and_get = "decrementAndGet"() -> i64 {
            self.value = self.value.wrapping_sub(1);
            Effects::value(&self.value)
        }
        /// Compare-and-set; returns whether the swap happened.
        Write compare_and_set = "compareAndSet"(expect: i64, update: i64) -> bool {
            let ok = self.value == expect;
            if ok {
                self.value = update;
            }
            Effects::value(&ok)
        }
        /// Atomically replaces the value, returning the previous one.
        Write get_and_set = "getAndSet"(v: i64) -> i64 {
            Effects::value(&std::mem::replace(&mut self.value, v))
        }
    }

    /// Typed handle to a shared [`AtomicLong`](super::AtomicLong).
    ///
    /// # Examples
    ///
    /// See the crate-level example in [`crate`].
    handle atomic_long::AtomicLong { new(key), with_value(key, init), persistent(key, init, rf) }
}

shared_object! {
    /// A shared boolean, mirroring `AtomicBoolean`.
    #[derive(Debug, Default, Clone, PartialEq, Eq, Wire)]
    pub struct AtomicBoolean {
        value: bool,
    }

    type "AtomicBoolean";
    create(value: bool = false) { Ok(AtomicBoolean { value }) }

    methods(self, call) {
        /// Reads the current value.
        Read get = "get"() -> bool { Effects::value(&self.value) }
        /// Overwrites the value.
        Write set = "set"(v: bool) -> () {
            self.value = v;
            Effects::value(&())
        }
        /// Compare-and-set; returns whether the swap happened.
        Write compare_and_set = "compareAndSet"(expect: bool, update: bool) -> bool {
            let ok = self.value == expect;
            if ok {
                self.value = update;
            }
            Effects::value(&ok)
        }
        /// Atomically replaces the value, returning the previous one.
        Write get_and_set = "getAndSet"(v: bool) -> bool {
            Effects::value(&std::mem::replace(&mut self.value, v))
        }
    }

    /// Typed handle to a shared [`AtomicBoolean`](super::AtomicBoolean).
    handle atomic_boolean::AtomicBoolean {
        new(key),
        with_value(key, init),
        persistent(key, init, rf),
    }
}

shared_object! {
    /// A shared mutable byte array — the 1 KB payload object of the Table 2
    /// latency micro-benchmark.
    #[derive(Debug, Default, Clone, PartialEq, Eq, Wire)]
    pub struct AtomicByteArray {
        data: Vec<u8>,
    }

    type "AtomicByteArray";
    create(data: Vec<u8> = Vec::new()) { Ok(AtomicByteArray { data }) }

    methods(self, call) {
        /// Reads the whole array.
        Read get = "get"() -> Vec<u8> {
            Effects::value_with_cost(&self.data, bulk_cost(self.data.len()))
        }
        /// Length of the array.
        Read len = "len"() -> u64 { Effects::value(&(self.data.len() as u64)) }
        /// The byte at `i`, if in bounds.
        Read get_byte = "getByte"(i: u64) -> Option<u8> {
            Effects::value(&self.data.get(i as usize).copied())
        }
        /// Replaces the whole array.
        Write set = "set"(&data: Vec<u8>) -> () {
            self.data = data;
            Effects::value_with_cost(&(), bulk_cost(self.data.len()))
        }
        /// Overwrites the byte at `i`; fails out of bounds.
        Write set_byte = "setByte"(i: u64, b: u8) -> () {
            let len = self.data.len();
            let Some(slot) = self.data.get_mut(i as usize) else {
                return Err(ObjErr::App(format!("index {i} out of bounds (len {len})")));
            };
            *slot = b;
            Effects::value(&())
        }
    }

    /// Typed handle to a shared [`AtomicByteArray`](super::AtomicByteArray)
    /// — e.g. the 1 KB payload of the Table 2 latency benchmark.
    handle atomic_byte_array::AtomicByteArray {
        new(key),
        with_value(key, init),
        persistent(key, init, rf),
    }
}

/// CPU cost of a bulk access to `bytes` bytes.
fn bulk_cost(bytes: usize) -> std::time::Duration {
    costs::SIMPLE_OP + costs::PER_BYTE * bytes as u32
}

#[cfg(test)]
mod tests {
    use super::super::testutil::call;
    use super::*;
    use crate::object::SharedObject;

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
