//! Typed client-side handles for shared objects — the programmer-facing
//! abstractions of Table 1 (`crucial.AtomicLong`, `CyclicBarrier`, …).
//!
//! A handle is a *reference*, not the object: it holds the `(type, key)`
//! pair, the replication factor, and the creation arguments. Handles are
//! [`Wire`], so a `Runnable` carrying them can ship to a
//! cloud function — the Rust analogue of the paper's `@Shared` fields
//! woven by AspectJ.
//!
//! Each typed handle comes from its object's
//! [`shared_object!`](crate::shared_object) declaration, like the
//! server-side methods it calls; this module re-exports them. What is
//! written here is the untyped [`RawHandle`] every handle wraps, and the
//! element codec of the generic [`SharedList`], [`SharedMap`] and
//! [`SharedFuture`] over their objects' declared byte-level calls.
//!
//! Method calls go through a [`DsoClient`], which routes to the owning
//! server; methods declared blocking (`await`, `get` on a future,
//! `acquire`) are issued without a client timeout.

use std::marker::PhantomData;

use bytes::Bytes;
use simcore::codec::Wire;
use simcore::Ctx;

use crate::client::DsoClient;
use crate::error::{DsoError, ObjectError};
use crate::object::{Access, ObjectRef};
use crate::objects::{self, future, list, map, Encoded};

pub use crate::objects::arithmetic::Arithmetic;
pub use crate::objects::atomic_boolean::AtomicBoolean;
pub use crate::objects::atomic_byte_array::AtomicByteArray;
pub use crate::objects::atomic_long::AtomicLong;
pub use crate::objects::count_down_latch::CountDownLatch;
pub use crate::objects::cyclic_barrier::CyclicBarrier;
pub use crate::objects::semaphore::Semaphore;

/// Untyped core of every handle.
#[derive(Clone, Debug, Wire, PartialEq)]
pub struct RawHandle {
    obj: ObjectRef,
    rf: u8,
    create_args: Bytes,
}

impl RawHandle {
    /// Creates a handle to `(type_name, key)` with creation arguments.
    #[expect(
        clippy::expect_used,
        reason = "invariant: the codec encodes every `Wire` type; creation args come from the typed handles"
    )]
    pub fn new<A: Wire>(type_name: &str, key: &str, rf: u8, create_args: &A) -> RawHandle {
        RawHandle {
            obj: ObjectRef::new(type_name, key),
            rf: rf.max(1),
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

    /// Invokes `method` with `args` (encoded in order, as their tuple) as
    /// `access` says, and decodes the reply. A `Read` must be one the
    /// object serves from [`crate::SharedObject::read`], or the server
    /// rejects the call.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`] from the client (see [`DsoClient::invoke`]);
    /// a reply that does not decode as `R` is [`ObjectError::BadState`].
    pub fn call<R: Wire>(
        &self,
        ctx: &mut Ctx,
        cli: &mut DsoClient,
        method: &str,
        access: Access,
        args: &[&dyn Wire],
    ) -> Result<R, DsoError> {
        let args = cli.encode(args);
        let create = Some(self.create_args.clone());
        let out = cli.invoke(ctx, &self.obj, method, args, self.rf, create, access)?;
        decode(&out)
    }
}

/// Decodes a reply or an element; failure means the stored bytes are not
/// the expected type.
fn decode<T: Wire>(bytes: &[u8]) -> Result<T, DsoError> {
    simcore::codec::from_bytes(bytes)
        .map_err(|e| DsoError::Object(ObjectError::BadState(e.to_string())))
}

/// Encodes an element of a generic container.
fn encode<T: Wire>(v: &T) -> Result<Vec<u8>, DsoError> {
    simcore::codec::to_bytes(v).map_err(|e| DsoError::Object(ObjectError::BadArgs(e.to_string())))
}

impl AtomicByteArray {
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
// Element-generic handles
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
        Self::persistent(key, 1)
    }

    /// Handle to a persistent list replicated `rf` times.
    pub fn persistent(key: &str, rf: u8) -> SharedList<T> {
        let raw = RawHandle::new(objects::ListObject::TYPE, key, rf, &Vec::<Vec<u8>>::new());
        SharedList { raw, _ty: PhantomData }
    }

    /// Appends an element; returns the new length.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`]; fails if `v` cannot be encoded.
    pub fn add(&self, ctx: &mut Ctx, cli: &mut DsoClient, v: &T) -> Result<u64, DsoError> {
        list::add(&self.raw, ctx, cli, encode(v)?)
    }

    /// Reads the element at `i`.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`]; fails if the element cannot be decoded.
    pub fn get(&self, ctx: &mut Ctx, cli: &mut DsoClient, i: u64) -> Result<Option<T>, DsoError> {
        list::get(&self.raw, ctx, cli, i)?.map(|b| decode(&b)).transpose()
    }

    /// Number of elements.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`].
    pub fn size(&self, ctx: &mut Ctx, cli: &mut DsoClient) -> Result<u64, DsoError> {
        list::size(&self.raw, ctx, cli)
    }

    /// Removes all elements.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`].
    pub fn clear(&self, ctx: &mut Ctx, cli: &mut DsoClient) -> Result<(), DsoError> {
        list::clear(&self.raw, ctx, cli)
    }

    /// Reads the whole list.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`]; fails if an element cannot be decoded.
    pub fn to_vec(&self, ctx: &mut Ctx, cli: &mut DsoClient) -> Result<Vec<T>, DsoError> {
        list::to_vec(&self.raw, ctx, cli)?.iter().map(|b| decode(b)).collect()
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
        Self::persistent(key, 1)
    }

    /// Handle to a persistent map replicated `rf` times.
    pub fn persistent(key: &str, rf: u8) -> SharedMap<V> {
        let empty = std::collections::BTreeMap::<String, Vec<u8>>::new();
        SharedMap {
            raw: RawHandle::new(objects::MapObject::TYPE, key, rf, &empty),
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
        map::put(&self.raw, ctx, cli, k.to_string(), encode(v)?)?.map(|b| decode(&b)).transpose()
    }

    /// Reads the value under `k`.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`]; fails on codec errors.
    pub fn get(&self, ctx: &mut Ctx, cli: &mut DsoClient, k: &str) -> Result<Option<V>, DsoError> {
        map::get(&self.raw, ctx, cli, k.to_string())?.map(|b| decode(&b)).transpose()
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
        map::remove(&self.raw, ctx, cli, k.to_string())?.map(|b| decode(&b)).transpose()
    }

    /// Number of entries.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`].
    pub fn size(&self, ctx: &mut Ctx, cli: &mut DsoClient) -> Result<u64, DsoError> {
        map::size(&self.raw, ctx, cli)
    }

    /// All keys, sorted.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`].
    pub fn keys(&self, ctx: &mut Ctx, cli: &mut DsoClient) -> Result<Vec<String>, DsoError> {
        map::keys(&self.raw, ctx, cli)
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
        future::set(&self.raw, ctx, cli, encode(v)?)
    }

    /// Blocks until the value is available, then returns it.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`]; fails if the value cannot be decoded.
    pub fn get(&self, ctx: &mut Ctx, cli: &mut DsoClient) -> Result<T, DsoError> {
        let Encoded(bytes) = future::get(&self.raw, ctx, cli)?;
        decode(&bytes)
    }

    /// Whether the future has been completed.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`].
    pub fn is_done(&self, ctx: &mut Ctx, cli: &mut DsoClient) -> Result<bool, DsoError> {
        future::is_done(&self.raw, ctx, cli)
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
