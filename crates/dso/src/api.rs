//! Typed client-side handles for shared objects — the programmer-facing
//! abstractions of Table 1 (`crucial.AtomicLong`, `CyclicBarrier`, …).
//!
//! A handle is a *reference*, not the object: it holds the `(type, key)`
//! pair, the replication factor, and the creation arguments. Handles are
//! [`Wire`], so a `Runnable` carrying them can ship to a
//! cloud function — the Rust analogue of the paper's `@Shared` fields
//! woven by AspectJ.
//!
//! Method calls go through a [`DsoClient`], which routes to the owning
//! server; methods that may block (`await`, `get` on a future,
//! `acquire`) are issued without a client timeout.

use std::marker::PhantomData;

use bytes::Bytes;
use simcore::codec::Wire;
use simcore::Ctx;

use crate::client::{BatchOp, DsoClient};
use crate::error::DsoError;
use crate::intern::intern;
use crate::object::ObjectRef;
use crate::objects;

/// Untyped core of every handle.
#[derive(Clone, Debug, Wire, PartialEq)]
pub struct RawHandle {
    obj: ObjectRef,
    rf: u8,
    create_args: Bytes,
}

impl RawHandle {
    /// Creates a handle to `(type_name, key)` with creation arguments.
    pub fn new<A: Wire>(type_name: &str, key: &str, rf: u8, create_args: &A) -> RawHandle {
        RawHandle {
            obj: ObjectRef::new(type_name, key),
            rf: rf.max(1),
            // invariant: the codec encodes every `Wire` type; creation
            // args come from the typed wrappers below.
            create_args: simcore::codec::to_bytes(create_args)
                .expect("creation args encode")
                .into(),
        }
    }

    /// The object reference.
    pub fn object_ref(&self) -> &ObjectRef {
        &self.obj
    }

    /// The replication factor (1 = ephemeral).
    pub fn rf(&self) -> u8 {
        self.rf
    }

    /// Invokes a non-blocking method.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`] from the client (see [`DsoClient::invoke`]).
    pub fn call<A, R>(
        &self,
        ctx: &mut Ctx,
        cli: &mut DsoClient,
        method: &str,
        args: &A,
    ) -> Result<R, DsoError>
    where
        A: Wire,
        R: Wire,
    {
        cli.call(
            ctx,
            &self.obj,
            method,
            args,
            self.rf,
            Some(self.create_args.clone()),
            false,
            false,
        )
    }

    /// Invokes a *read-only* method. Read-only calls take the read fast
    /// path: no state-machine replication on the server, replica routing
    /// under [`crate::ConsistencyMode::ReplicaReads`], and client-side
    /// caching when enabled. The object must serve the method from
    /// [`crate::SharedObject::read`], or the server rejects the call.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`] from the client.
    pub fn call_read<A, R>(
        &self,
        ctx: &mut Ctx,
        cli: &mut DsoClient,
        method: &str,
        args: &A,
    ) -> Result<R, DsoError>
    where
        A: Wire,
        R: Wire,
    {
        cli.call(ctx, &self.obj, method, args, self.rf, Some(self.create_args.clone()), false, true)
    }

    /// Invokes a potentially parking method (no client-side timeout).
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`] from the client.
    pub fn call_blocking<A, R>(
        &self,
        ctx: &mut Ctx,
        cli: &mut DsoClient,
        method: &str,
        args: &A,
    ) -> Result<R, DsoError>
    where
        A: Wire,
        R: Wire,
    {
        cli.call(ctx, &self.obj, method, args, self.rf, Some(self.create_args.clone()), true, false)
    }

    /// Builds a mutating [`BatchOp`] for [`DsoClient::invoke_batch`].
    ///
    /// # Panics
    ///
    /// Panics if `args` cannot be encoded.
    pub fn op<A: Wire>(&self, method: &str, args: &A) -> BatchOp {
        self.make_op(method, args, false)
    }

    /// Builds a *read-only* [`BatchOp`] for [`DsoClient::invoke_batch`].
    ///
    /// # Panics
    ///
    /// Panics if `args` cannot be encoded.
    pub fn read_op<A: Wire>(&self, method: &str, args: &A) -> BatchOp {
        self.make_op(method, args, true)
    }

    fn make_op<A: Wire>(&self, method: &str, args: &A, readonly: bool) -> BatchOp {
        BatchOp {
            obj: self.obj.clone(),
            method: intern(method),
            // invariant: the codec encodes every `Wire` type (documented
            // to panic in `op`/`read_op` otherwise).
            args: simcore::codec::to_bytes(args).expect("batch args encode").into(),
            rf: self.rf,
            create: Some(self.create_args.clone()),
            readonly,
        }
    }

    /// Explicitly materializes the object on its server (idempotent).
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`] from the client.
    pub fn ensure(&self, ctx: &mut Ctx, cli: &mut DsoClient) -> Result<(), DsoError> {
        self.call(ctx, cli, "__create", &())
    }
}

macro_rules! delegate_ctor {
    ($name:ident, $type_const:expr, $init_ty:ty, $default:expr) => {
        impl $name {
            /// Handle to an ephemeral object with a default initial value.
            pub fn new(key: &str) -> $name {
                Self::with_value(key, $default)
            }

            /// Handle with an explicit initial value.
            pub fn with_value(key: &str, init: $init_ty) -> $name {
                $name { raw: RawHandle::new($type_const, key, 1, &init) }
            }

            /// Handle to a *persistent* object replicated `rf` times —
            /// the `@Shared(persistence=true)` of the paper.
            pub fn persistent(key: &str, init: $init_ty, rf: u8) -> $name {
                $name { raw: RawHandle::new($type_const, key, rf, &init) }
            }

            /// The underlying untyped handle.
            pub fn raw(&self) -> &RawHandle {
                &self.raw
            }
        }
    };
}

// ---------------------------------------------------------------------------
// Atomics
// ---------------------------------------------------------------------------

/// Typed handle to a shared [`objects::AtomicLong`].
///
/// # Examples
///
/// See the crate-level example in [`crate`].
#[derive(Clone, Debug, Wire, PartialEq)]
pub struct AtomicLong {
    raw: RawHandle,
}

delegate_ctor!(AtomicLong, objects::AtomicLong::TYPE, i64, 0);

impl AtomicLong {
    /// Reads the current value.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`].
    pub fn get(&self, ctx: &mut Ctx, cli: &mut DsoClient) -> Result<i64, DsoError> {
        self.raw.call_read(ctx, cli, "get", &())
    }

    /// Overwrites the value.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`].
    pub fn set(&self, ctx: &mut Ctx, cli: &mut DsoClient, v: i64) -> Result<(), DsoError> {
        self.raw.call(ctx, cli, "set", &v)
    }

    /// Atomically adds `d` and returns the new value.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`].
    pub fn add_and_get(&self, ctx: &mut Ctx, cli: &mut DsoClient, d: i64) -> Result<i64, DsoError> {
        self.raw.call(ctx, cli, "addAndGet", &d)
    }

    /// Atomically increments and returns the new value.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`].
    pub fn increment_and_get(&self, ctx: &mut Ctx, cli: &mut DsoClient) -> Result<i64, DsoError> {
        self.raw.call(ctx, cli, "incrementAndGet", &())
    }

    /// Compare-and-set; returns whether the swap happened.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`].
    pub fn compare_and_set(
        &self,
        ctx: &mut Ctx,
        cli: &mut DsoClient,
        expect: i64,
        update: i64,
    ) -> Result<bool, DsoError> {
        self.raw.call(ctx, cli, "compareAndSet", &(expect, update))
    }

    /// Atomically replaces the value, returning the previous one.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`].
    pub fn get_and_set(&self, ctx: &mut Ctx, cli: &mut DsoClient, v: i64) -> Result<i64, DsoError> {
        self.raw.call(ctx, cli, "getAndSet", &v)
    }
}

/// Typed handle to a shared [`objects::AtomicBoolean`].
#[derive(Clone, Debug, Wire, PartialEq)]
pub struct AtomicBoolean {
    raw: RawHandle,
}

delegate_ctor!(AtomicBoolean, objects::AtomicBoolean::TYPE, bool, false);

impl AtomicBoolean {
    /// Reads the current value.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`].
    pub fn get(&self, ctx: &mut Ctx, cli: &mut DsoClient) -> Result<bool, DsoError> {
        self.raw.call_read(ctx, cli, "get", &())
    }

    /// Overwrites the value.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`].
    pub fn set(&self, ctx: &mut Ctx, cli: &mut DsoClient, v: bool) -> Result<(), DsoError> {
        self.raw.call(ctx, cli, "set", &v)
    }

    /// Compare-and-set; returns whether the swap happened.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`].
    pub fn compare_and_set(
        &self,
        ctx: &mut Ctx,
        cli: &mut DsoClient,
        expect: bool,
        update: bool,
    ) -> Result<bool, DsoError> {
        self.raw.call(ctx, cli, "compareAndSet", &(expect, update))
    }
}

/// Typed handle to a shared [`objects::AtomicByteArray`] — e.g. the 1 KB
/// payload of the Table 2 latency benchmark.
#[derive(Clone, Debug, Wire, PartialEq)]
pub struct AtomicByteArray {
    raw: RawHandle,
}

delegate_ctor!(AtomicByteArray, objects::AtomicByteArray::TYPE, Vec<u8>, Vec::new());

impl AtomicByteArray {
    /// Reads the whole array.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`].
    pub fn get(&self, ctx: &mut Ctx, cli: &mut DsoClient) -> Result<Vec<u8>, DsoError> {
        self.raw.call_read(ctx, cli, "get", &())
    }

    /// Replaces the whole array.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`].
    pub fn set(&self, ctx: &mut Ctx, cli: &mut DsoClient, v: &Vec<u8>) -> Result<(), DsoError> {
        self.raw.call(ctx, cli, "set", v)
    }

    /// Length of the array.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`].
    pub fn len(&self, ctx: &mut Ctx, cli: &mut DsoClient) -> Result<u64, DsoError> {
        self.raw.call_read(ctx, cli, "len", &())
    }

    /// Whether the array is empty.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`].
    pub fn is_empty(&self, ctx: &mut Ctx, cli: &mut DsoClient) -> Result<bool, DsoError> {
        Ok(self.len(ctx, cli)? == 0)
    }
}

// ---------------------------------------------------------------------------
// Containers
// ---------------------------------------------------------------------------

/// Typed handle to a shared list of `T`.
#[derive(Clone, Debug, Wire)]
pub struct SharedList<T> {
    raw: RawHandle,
    #[wire(skip)]
    _ty: PhantomData<fn(T)>,
}

impl<T: Wire> SharedList<T> {
    /// Handle to an ephemeral empty list.
    pub fn new(key: &str) -> SharedList<T> {
        SharedList {
            raw: RawHandle::new(objects::ListObject::TYPE, key, 1, &Vec::<Vec<u8>>::new()),
            _ty: PhantomData,
        }
    }

    /// Handle to a persistent list replicated `rf` times.
    pub fn persistent(key: &str, rf: u8) -> SharedList<T> {
        SharedList {
            raw: RawHandle::new(objects::ListObject::TYPE, key, rf, &Vec::<Vec<u8>>::new()),
            _ty: PhantomData,
        }
    }

    /// Appends an element; returns the new length.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`]; fails if `v` cannot be encoded.
    pub fn add(&self, ctx: &mut Ctx, cli: &mut DsoClient, v: &T) -> Result<u64, DsoError> {
        let bytes = simcore::codec::to_bytes(v)
            .map_err(|e| DsoError::Object(crate::error::ObjectError::BadArgs(e.to_string())))?;
        self.raw.call(ctx, cli, "add", &bytes)
    }

    /// Reads the element at `i`.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`]; fails if the element cannot be decoded.
    pub fn get(&self, ctx: &mut Ctx, cli: &mut DsoClient, i: u64) -> Result<Option<T>, DsoError> {
        let raw: Option<Vec<u8>> = self.raw.call_read(ctx, cli, "get", &i)?;
        raw.map(|b| {
            simcore::codec::from_bytes(&b)
                .map_err(|e| DsoError::Object(crate::error::ObjectError::BadState(e.to_string())))
        })
        .transpose()
    }

    /// Number of elements.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`].
    pub fn size(&self, ctx: &mut Ctx, cli: &mut DsoClient) -> Result<u64, DsoError> {
        self.raw.call_read(ctx, cli, "size", &())
    }

    /// Removes all elements.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`].
    pub fn clear(&self, ctx: &mut Ctx, cli: &mut DsoClient) -> Result<(), DsoError> {
        self.raw.call(ctx, cli, "clear", &())
    }

    /// Reads the whole list.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`]; fails if an element cannot be decoded.
    pub fn to_vec(&self, ctx: &mut Ctx, cli: &mut DsoClient) -> Result<Vec<T>, DsoError> {
        let raw: Vec<Vec<u8>> = self.raw.call_read(ctx, cli, "toVec", &())?;
        raw.iter()
            .map(|b| {
                simcore::codec::from_bytes(b).map_err(|e| {
                    DsoError::Object(crate::error::ObjectError::BadState(e.to_string()))
                })
            })
            .collect()
    }
}

/// Typed handle to a shared string-keyed map of `V`.
#[derive(Clone, Debug, Wire)]
pub struct SharedMap<V> {
    raw: RawHandle,
    #[wire(skip)]
    _ty: PhantomData<fn(V)>,
}

impl<V: Wire> SharedMap<V> {
    /// Handle to an ephemeral empty map.
    pub fn new(key: &str) -> SharedMap<V> {
        Self::with_rf(key, 1)
    }

    /// Handle to a persistent map replicated `rf` times.
    pub fn persistent(key: &str, rf: u8) -> SharedMap<V> {
        Self::with_rf(key, rf)
    }

    fn with_rf(key: &str, rf: u8) -> SharedMap<V> {
        SharedMap {
            raw: RawHandle::new(
                objects::MapObject::TYPE,
                key,
                rf,
                &std::collections::BTreeMap::<String, Vec<u8>>::new(),
            ),
            _ty: PhantomData,
        }
    }

    /// Inserts a value; returns the previous one if any.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`]; fails on codec errors.
    pub fn put(
        &self,
        ctx: &mut Ctx,
        cli: &mut DsoClient,
        k: &str,
        v: &V,
    ) -> Result<Option<V>, DsoError> {
        let bytes = simcore::codec::to_bytes(v)
            .map_err(|e| DsoError::Object(crate::error::ObjectError::BadArgs(e.to_string())))?;
        let old: Option<Vec<u8>> = self.raw.call(ctx, cli, "put", &(k.to_string(), bytes))?;
        old.map(|b| {
            simcore::codec::from_bytes(&b)
                .map_err(|e| DsoError::Object(crate::error::ObjectError::BadState(e.to_string())))
        })
        .transpose()
    }

    /// Reads the value under `k`.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`]; fails on codec errors.
    pub fn get(&self, ctx: &mut Ctx, cli: &mut DsoClient, k: &str) -> Result<Option<V>, DsoError> {
        let raw: Option<Vec<u8>> = self.raw.call_read(ctx, cli, "get", &k.to_string())?;
        raw.map(|b| {
            simcore::codec::from_bytes(&b)
                .map_err(|e| DsoError::Object(crate::error::ObjectError::BadState(e.to_string())))
        })
        .transpose()
    }

    /// Removes and returns the value under `k`.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`]; fails on codec errors.
    pub fn remove(
        &self,
        ctx: &mut Ctx,
        cli: &mut DsoClient,
        k: &str,
    ) -> Result<Option<V>, DsoError> {
        let raw: Option<Vec<u8>> = self.raw.call(ctx, cli, "remove", &k.to_string())?;
        raw.map(|b| {
            simcore::codec::from_bytes(&b)
                .map_err(|e| DsoError::Object(crate::error::ObjectError::BadState(e.to_string())))
        })
        .transpose()
    }

    /// Number of entries.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`].
    pub fn size(&self, ctx: &mut Ctx, cli: &mut DsoClient) -> Result<u64, DsoError> {
        self.raw.call_read(ctx, cli, "size", &())
    }

    /// All keys, sorted.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`].
    pub fn keys(&self, ctx: &mut Ctx, cli: &mut DsoClient) -> Result<Vec<String>, DsoError> {
        self.raw.call_read(ctx, cli, "keys", &())
    }
}

// ---------------------------------------------------------------------------
// Synchronization objects
// ---------------------------------------------------------------------------

/// Typed handle to a shared [`objects::CyclicBarrier`].
#[derive(Clone, Debug, Wire, PartialEq)]
pub struct CyclicBarrier {
    raw: RawHandle,
}

impl CyclicBarrier {
    /// Handle to a barrier for `parties` cloud threads.
    pub fn new(key: &str, parties: u32) -> CyclicBarrier {
        CyclicBarrier { raw: RawHandle::new(objects::CyclicBarrier::TYPE, key, 1, &parties) }
    }

    /// Blocks until all parties arrive; returns the generation index.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`].
    pub fn wait(&self, ctx: &mut Ctx, cli: &mut DsoClient) -> Result<u64, DsoError> {
        self.raw.call_blocking(ctx, cli, "await", &())
    }

    /// The underlying untyped handle.
    pub fn raw(&self) -> &RawHandle {
        &self.raw
    }
}

/// Typed handle to a shared [`objects::Semaphore`].
#[derive(Clone, Debug, Wire, PartialEq)]
pub struct Semaphore {
    raw: RawHandle,
}

impl Semaphore {
    /// Handle to a semaphore with `permits` initial permits.
    pub fn new(key: &str, permits: i64) -> Semaphore {
        Semaphore { raw: RawHandle::new(objects::Semaphore::TYPE, key, 1, &permits) }
    }

    /// Acquires `n` permits, blocking until available.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`].
    pub fn acquire(&self, ctx: &mut Ctx, cli: &mut DsoClient, n: i64) -> Result<(), DsoError> {
        self.raw.call_blocking(ctx, cli, "acquire", &n)
    }

    /// Tries to acquire `n` permits without blocking.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`].
    pub fn try_acquire(
        &self,
        ctx: &mut Ctx,
        cli: &mut DsoClient,
        n: i64,
    ) -> Result<bool, DsoError> {
        self.raw.call(ctx, cli, "tryAcquire", &n)
    }

    /// Releases `n` permits.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`].
    pub fn release(&self, ctx: &mut Ctx, cli: &mut DsoClient, n: i64) -> Result<(), DsoError> {
        self.raw.call(ctx, cli, "release", &n)
    }

    /// Currently available permits.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`].
    pub fn available_permits(&self, ctx: &mut Ctx, cli: &mut DsoClient) -> Result<i64, DsoError> {
        self.raw.call_read(ctx, cli, "availablePermits", &())
    }
}

/// Typed handle to a shared [`objects::CountDownLatch`].
#[derive(Clone, Debug, Wire, PartialEq)]
pub struct CountDownLatch {
    raw: RawHandle,
}

impl CountDownLatch {
    /// Handle to a latch starting at `count`.
    pub fn new(key: &str, count: u64) -> CountDownLatch {
        CountDownLatch { raw: RawHandle::new(objects::CountDownLatch::TYPE, key, 1, &count) }
    }

    /// Blocks until the latch reaches zero.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`].
    pub fn wait(&self, ctx: &mut Ctx, cli: &mut DsoClient) -> Result<(), DsoError> {
        self.raw.call_blocking(ctx, cli, "await", &())
    }

    /// Decrements the latch; returns the remaining count.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`].
    pub fn count_down(&self, ctx: &mut Ctx, cli: &mut DsoClient) -> Result<u64, DsoError> {
        self.raw.call(ctx, cli, "countDown", &())
    }

    /// Current count.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`].
    pub fn count(&self, ctx: &mut Ctx, cli: &mut DsoClient) -> Result<u64, DsoError> {
        self.raw.call_read(ctx, cli, "getCount", &())
    }
}

/// Typed handle to a shared write-once [`objects::FutureObject`].
#[derive(Clone, Debug, Wire)]
pub struct SharedFuture<T> {
    raw: RawHandle,
    #[wire(skip)]
    _ty: PhantomData<fn(T)>,
}

impl<T: Wire> SharedFuture<T> {
    /// Handle to an (initially unset) future.
    pub fn new(key: &str) -> SharedFuture<T> {
        SharedFuture {
            raw: RawHandle::new(objects::FutureObject::TYPE, key, 1, &Option::<Vec<u8>>::None),
            _ty: PhantomData,
        }
    }

    /// Completes the future; returns `false` if it was already set.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`]; fails if `v` cannot be encoded.
    pub fn set(&self, ctx: &mut Ctx, cli: &mut DsoClient, v: &T) -> Result<bool, DsoError> {
        let bytes = simcore::codec::to_bytes(v)
            .map_err(|e| DsoError::Object(crate::error::ObjectError::BadArgs(e.to_string())))?;
        self.raw.call(ctx, cli, "set", &bytes)
    }

    /// Blocks until the value is available, then returns it.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`]; fails if the value cannot be decoded.
    pub fn get(&self, ctx: &mut Ctx, cli: &mut DsoClient) -> Result<T, DsoError> {
        self.raw.call_blocking(ctx, cli, "get", &())
    }

    /// Whether the future has been completed.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`].
    pub fn is_done(&self, ctx: &mut Ctx, cli: &mut DsoClient) -> Result<bool, DsoError> {
        self.raw.call_read(ctx, cli, "isDone", &())
    }
}

/// Typed handle to the Fig. 2a [`objects::Arithmetic`] register.
#[derive(Clone, Debug, Wire, PartialEq)]
pub struct Arithmetic {
    raw: RawHandle,
}

delegate_ctor!(Arithmetic, objects::Arithmetic::TYPE, f64, 1.0);

impl Arithmetic {
    /// One multiplication (the "simple" operation).
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`].
    pub fn mul(&self, ctx: &mut Ctx, cli: &mut DsoClient, x: f64) -> Result<f64, DsoError> {
        self.raw.call(ctx, cli, "mul", &x)
    }

    /// `n` sequential multiplications (the "complex" operation).
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`].
    pub fn mul_n(
        &self,
        ctx: &mut Ctx,
        cli: &mut DsoClient,
        x: f64,
        n: u32,
    ) -> Result<f64, DsoError> {
        self.raw.call(ctx, cli, "mulN", &(x, n))
    }

    /// Reads the register.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`].
    pub fn get(&self, ctx: &mut Ctx, cli: &mut DsoClient) -> Result<f64, DsoError> {
        self.raw.call_read(ctx, cli, "get", &())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_serializable_references() {
        let h = AtomicLong::persistent("model", 7, 2);
        let bytes = simcore::codec::to_bytes(&h).expect("encode");
        let back: AtomicLong = simcore::codec::from_bytes(&bytes).expect("decode");
        assert_eq!(h, back);
        assert_eq!(back.raw().rf(), 2);
        assert_eq!(back.raw().object_ref().key(), "model");
    }

    #[test]
    fn generic_handles_serialize() {
        let l: SharedList<f64> = SharedList::new("xs");
        let bytes = simcore::codec::to_bytes(&l).expect("encode");
        let back: SharedList<f64> = simcore::codec::from_bytes(&bytes).expect("decode");
        assert_eq!(back.raw.object_ref().type_name(), "List");
        let f: SharedFuture<String> = SharedFuture::new("f");
        let bytes = simcore::codec::to_bytes(&f).expect("encode");
        let _back: SharedFuture<String> = simcore::codec::from_bytes(&bytes).expect("decode");
    }

    #[test]
    fn rf_is_clamped_to_one() {
        let h = RawHandle::new("AtomicLong", "x", 0, &0i64);
        assert_eq!(h.rf(), 1);
    }
}
