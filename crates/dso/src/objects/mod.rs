//! The built-in shared-object library (Table 1 of the paper): atomics,
//! containers, a byte array, and server-side synchronization objects.
//!
//! Method names follow the paper's Java flavour (`addAndGet`,
//! `compareAndSet`, `await`, …) so the listings translate one-to-one.

mod arith;
mod atomics;
mod containers;
mod sync;

pub use arith::Arithmetic;
pub use atomics::{AtomicBoolean, AtomicByteArray, AtomicLong};
pub use containers::{ListObject, MapObject};
pub use sync::{CountDownLatch, CyclicBarrier, FutureObject, Semaphore};

use simcore::codec::Wire;

use crate::error::ObjectError;
use crate::object::ObjectRegistry;

/// Decodes method arguments, mapping failures to [`ObjectError::BadArgs`].
pub(crate) fn dec<T: Wire>(args: &[u8]) -> Result<T, ObjectError> {
    simcore::codec::from_bytes(args).map_err(|e| ObjectError::BadArgs(e.to_string()))
}

/// Decodes creation arguments: empty input yields the provided default.
pub(crate) fn dec_create<T: Wire>(args: &[u8], default: T) -> Result<T, ObjectError> {
    if args.is_empty() {
        Ok(default)
    } else {
        simcore::codec::from_bytes(args).map_err(|e| ObjectError::BadState(e.to_string()))
    }
}

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
