//! The built-in shared-object library (Table 1 of the paper): atomics,
//! containers, a byte array, and server-side synchronization objects.
//!
//! Method names follow the paper's Java flavour (`addAndGet`,
//! `compareAndSet`, `await`, …) so the listings translate one-to-one.
//!
//! Each object is one [`shared_object!`](crate::shared_object)
//! declaration, which also yields its client side: a typed handle
//! (re-exported by [`crate::api`]) or, for the list, map and future, the
//! calls their element-generic handles wrap.

mod arith;
mod atomics;
mod containers;
mod sync;

pub use arith::Arithmetic;
pub use atomics::{AtomicBoolean, AtomicByteArray, AtomicLong};
pub use containers::{list, map, ListObject, MapObject};
pub use sync::{future, CountDownLatch, CyclicBarrier, Encoded, FutureObject, Semaphore};

// The typed handles, public as `crate::api::*`.
pub(crate) use arith::arithmetic;
pub(crate) use atomics::{atomic_boolean, atomic_byte_array, atomic_long};
pub(crate) use sync::{count_down_latch, cyclic_barrier, semaphore};

use crate::object::ObjectRegistry;

/// Registers every built-in type under its canonical name.
pub fn register_builtins(reg: &mut ObjectRegistry) {
    reg.register(AtomicLong::TYPE, AtomicLong::factory);
    reg.register(AtomicBoolean::TYPE, AtomicBoolean::factory);
    reg.register(AtomicByteArray::TYPE, AtomicByteArray::factory);
    reg.register(ListObject::TYPE, ListObject::factory);
    reg.register(MapObject::TYPE, MapObject::factory);
    reg.register(CyclicBarrier::TYPE, CyclicBarrier::factory);
    reg.register(Semaphore::TYPE, Semaphore::factory);
    reg.register(CountDownLatch::TYPE, CountDownLatch::factory);
    reg.register(FutureObject::TYPE, FutureObject::factory);
    reg.register(Arithmetic::TYPE, Arithmetic::factory);
}

#[cfg(test)]
pub(crate) mod testutil {
    use crate::object::{dispatch, CallCtx, Effects, Reply, SharedObject, Ticket};
    use simcore::codec::Wire;

    /// Invokes a method on a raw object and decodes the immediate value.
    pub fn call<R: Wire>(obj: &mut dyn SharedObject, method: &str, args: &impl Wire) -> R {
        value(method, call_fx(obj, method, args))
    }

    /// Invokes a method and returns the full effects.
    pub fn call_fx(obj: &mut dyn SharedObject, method: &str, args: &impl Wire) -> Effects {
        call_fx_ticket(obj, method, args, Ticket(0))
    }

    /// Invokes a method with an explicit ticket (for park/wake tests)
    /// through the server's dispatch (`read` first, then `invoke`),
    /// unflagged.
    pub fn call_fx_ticket(
        obj: &mut dyn SharedObject,
        method: &str,
        args: &impl Wire,
        ticket: Ticket,
    ) -> Effects {
        let call = CallCtx { ticket, replicated: false };
        let bytes = simcore::codec::to_bytes(args).expect("encode args");
        dispatch(obj, &call, method, &bytes, false).expect("invoke ok").0
    }

    fn value<R: Wire>(method: &str, fx: Effects) -> R {
        match fx.reply {
            Reply::Value(v) => simcore::codec::from_bytes(&v).expect("decode reply"),
            Reply::Park => panic!("unexpected park from {method}"),
        }
    }

    /// Decodes a wake payload.
    pub fn wake_value<R: Wire>(bytes: &[u8]) -> R {
        simcore::codec::from_bytes(bytes).expect("decode wake")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_register_all_types() {
        let reg = ObjectRegistry::with_builtins();
        for t in [
            "AtomicLong",
            "AtomicBoolean",
            "AtomicByteArray",
            "List",
            "Map",
            "CyclicBarrier",
            "Semaphore",
            "CountDownLatch",
            "Future",
            "Arithmetic",
        ] {
            assert!(reg.contains(t), "missing builtin {t}");
            assert!(reg.create(t, &[]).is_ok(), "default-create {t}");
        }
    }

    /// Every declared method of every built-in, called with well-formed
    /// arguments plus one trailing garbage byte, is `BadArgs`: never a
    /// success, never a panic. The same call without the byte is not.
    #[test]
    fn trailing_garbage_is_bad_args_for_every_method() {
        use crate::object::{dispatch, CallCtx, Ticket};
        use crate::ObjectError;
        use simcore::codec::{to_bytes, Wire};

        fn enc(v: &impl Wire) -> Vec<u8> {
            to_bytes(v).expect("encode")
        }
        let key = || "k".to_string();
        // (type, creation args, declared methods, (method, args) for every
        // method whose arguments are not `()`)
        type Row = (&'static str, Vec<u8>, &'static [&'static str], Vec<(&'static str, Vec<u8>)>);
        let table: [Row; 10] = [
            (
                "AtomicLong",
                enc(&0i64),
                AtomicLong::METHODS,
                ["set", "addAndGet", "getAndAdd", "getAndSet"]
                    .map(|m| (m, enc(&1i64)))
                    .into_iter()
                    .chain([("compareAndSet", enc(&(0i64, 1i64)))])
                    .collect(),
            ),
            (
                "AtomicBoolean",
                enc(&false),
                AtomicBoolean::METHODS,
                vec![
                    ("set", enc(&true)),
                    ("getAndSet", enc(&true)),
                    ("compareAndSet", enc(&(false, true))),
                ],
            ),
            (
                "AtomicByteArray",
                enc(&vec![1u8, 2, 3]),
                AtomicByteArray::METHODS,
                vec![
                    ("getByte", enc(&1u64)),
                    ("set", enc(&vec![4u8])),
                    ("setByte", enc(&(0u64, 9u8))),
                ],
            ),
            (
                "List",
                enc(&vec![vec![1u8]]),
                ListObject::METHODS,
                vec![
                    ("get", enc(&0u64)),
                    ("add", enc(&vec![2u8])),
                    ("set", enc(&(0u64, vec![3u8]))),
                ],
            ),
            (
                "Map",
                Vec::new(),
                MapObject::METHODS,
                vec![
                    ("get", enc(&key())),
                    ("containsKey", enc(&key())),
                    ("put", enc(&(key(), vec![1u8]))),
                    ("remove", enc(&key())),
                ],
            ),
            ("CyclicBarrier", enc(&2u32), CyclicBarrier::METHODS, Vec::new()),
            (
                "Semaphore",
                enc(&5i64),
                Semaphore::METHODS,
                ["acquire", "tryAcquire", "release"].map(|m| (m, enc(&1i64))).into(),
            ),
            ("CountDownLatch", enc(&1u64), CountDownLatch::METHODS, Vec::new()),
            ("Future", Vec::new(), FutureObject::METHODS, vec![("set", enc(&vec![7u8]))]),
            (
                "Arithmetic",
                Vec::new(),
                Arithmetic::METHODS,
                vec![("mul", enc(&2.0f64)), ("mulN", enc(&(2.0f64, 3u32)))],
            ),
        ];
        let reg = ObjectRegistry::with_builtins();
        assert_eq!(table.len(), reg.type_names().len(), "a builtin is missing from the table");
        let call = CallCtx { ticket: Ticket(1), replicated: false };
        for (ty, create, methods, with_args) in &table {
            for (method, _) in with_args {
                assert!(methods.contains(method), "{ty}::{method} is not declared");
            }
            for method in *methods {
                let args = with_args.iter().find(|(m, _)| m == method).map_or(&[][..], |a| &a.1);
                let mut obj = reg.create(ty, create).expect("create");
                let well_formed = dispatch(obj.as_mut(), &call, method, args, false);
                assert!(
                    !matches!(well_formed, Err(ObjectError::BadArgs(_))),
                    "{ty}::{method} rejects its own arguments"
                );
                let garbage = [args, &[0xab]].concat();
                let mut obj = reg.create(ty, create).expect("create");
                let served = dispatch(obj.as_mut(), &call, method, &garbage, false);
                assert!(
                    matches!(served, Err(ObjectError::BadArgs(_))),
                    "{ty}::{method} with a trailing byte: {served:?}"
                );
            }
        }
    }

    /// The read-only surface, pinned: `read` answers exactly these
    /// `(type, method)` pairs (it may grow, never silently shrink) and
    /// declines every write, so no write can take the read fast path.
    #[test]
    fn read_serves_exactly_the_read_only_methods() {
        // (type, served by `read`, left to `invoke`)
        let table: [(&str, &[&str], &[&str]); 10] = [
            (
                "AtomicLong",
                &["get"],
                &[
                    "set",
                    "addAndGet",
                    "getAndAdd",
                    "incrementAndGet",
                    "decrementAndGet",
                    "compareAndSet",
                    "getAndSet",
                ],
            ),
            ("AtomicBoolean", &["get"], &["set", "compareAndSet", "getAndSet"]),
            ("AtomicByteArray", &["get", "len", "getByte"], &["set", "setByte"]),
            ("List", &["get", "size", "toVec"], &["add", "set", "clear"]),
            ("Map", &["get", "containsKey", "size", "keys"], &["put", "remove", "clear"]),
            ("CyclicBarrier", &["getParties", "getNumberWaiting", "getGeneration"], &["await"]),
            (
                "Semaphore",
                &["availablePermits", "getQueueLength"],
                &["acquire", "tryAcquire", "release"],
            ),
            ("CountDownLatch", &["getCount"], &["await", "countDown"]),
            // `get` parks until `set`: a write, whatever its name says.
            ("Future", &["isDone"], &["get", "set"]),
            ("Arithmetic", &["get"], &["mul", "mulN"]),
        ];
        let reg = ObjectRegistry::with_builtins();
        assert_eq!(table.len(), reg.type_names().len(), "a builtin is missing from the table");
        // Probing every name on every type catches a method that moved.
        let names: Vec<&str> =
            table.iter().flat_map(|(_, r, w)| r.iter().chain(*w)).copied().collect();
        for (ty, reads, _) in table {
            let obj = reg.create(ty, &[]).expect("default-create");
            for name in &names {
                let served = obj.read(name, &[]).is_some();
                assert_eq!(served, reads.contains(name), "{ty}::{name} served by read: {served}");
            }
        }
    }
}
