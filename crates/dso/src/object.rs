//! The shared-object model: references, the server-side object trait, and
//! the type registry ("uploading the jar" in the paper's terms).
//!
//! Fine-grained updates are *method calls shipped to the data*: a client
//! sends `(object reference, method name, encoded arguments)` and the owning
//! server runs the method against the materialized object (§4.2 of the
//! paper). Methods may also *defer* their reply — the substrate for
//! server-side synchronization objects such as barriers and futures.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use simcore::codec::Wire;

use crate::error::ObjectError;

/// Globally unique reference to a shared object: `(type name, key)`,
/// exactly as in §4.1 of the paper.
///
/// # Examples
///
/// ```
/// use dso::ObjectRef;
///
/// let r = ObjectRef::new("AtomicLong", "counter");
/// assert_eq!(r.type_name(), "AtomicLong");
/// assert_eq!(r.key(), "counter");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Wire)]
pub struct ObjectRef {
    type_name: String,
    key: String,
}

impl ObjectRef {
    /// Creates a reference from a type name and key.
    pub fn new(type_name: impl Into<String>, key: impl Into<String>) -> ObjectRef {
        ObjectRef { type_name: type_name.into(), key: key.into() }
    }

    /// The object's registered type name.
    pub fn type_name(&self) -> &str {
        &self.type_name
    }

    /// The object's key.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// 64-bit placement hash of this reference (FNV-1a over type and key).
    pub fn placement_hash(&self) -> u64 {
        let mut h = crate::ring::fnv1a(0, self.type_name.as_bytes());
        h = crate::ring::fnv1a(h, b"\0");
        crate::ring::mix(crate::ring::fnv1a(h, self.key.as_bytes()))
    }
}

impl fmt::Debug for ObjectRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ObjectRef({}:{})", self.type_name, self.key)
    }
}

impl fmt::Display for ObjectRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.type_name, self.key)
    }
}

/// A ticket identifying a deferred (parked) method call; used to complete
/// the call later.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Wire)]
pub struct Ticket(pub u64);

/// What a method call produced.
#[derive(Debug)]
pub enum Reply {
    /// Respond to the caller now with this encoded value.
    Value(Vec<u8>),
    /// Defer the response; the object stored the call's [`Ticket`] and will
    /// complete it from a later invocation (via [`Effects::wakes`]).
    Park,
}

/// Full effect of one method invocation.
#[derive(Debug)]
pub struct Effects {
    /// Response for the *current* caller.
    pub reply: Reply,
    /// CPU time this method consumes on the server (drives throughput and
    /// the disjoint-access-parallelism experiments).
    pub cost: Duration,
    /// Deferred calls completed by this invocation, with their responses.
    pub wakes: Vec<(Ticket, Vec<u8>)>,
}

impl Effects {
    /// A plain value reply with the default "simple operation" cost.
    pub fn value<T: Wire>(v: &T) -> Result<Effects, ObjectError> {
        Ok(Effects {
            reply: Reply::Value(
                simcore::codec::to_bytes(v).map_err(|e| ObjectError::App(e.to_string()))?,
            ),
            cost: costs::SIMPLE_OP,
            wakes: Vec::new(),
        })
    }

    /// A value reply with an explicit CPU cost.
    pub fn value_with_cost<T: Wire>(v: &T, cost: Duration) -> Result<Effects, ObjectError> {
        let mut e = Effects::value(v)?;
        e.cost = cost;
        Ok(e)
    }

    /// Parks the current caller (reply comes later via a wake).
    pub fn park() -> Effects {
        Effects { reply: Reply::Park, cost: costs::SIMPLE_OP, wakes: Vec::new() }
    }

    /// Adds a deferred completion to this invocation's effects.
    ///
    /// # Errors
    ///
    /// Fails if the wake value cannot be encoded.
    pub fn wake<T: Wire>(mut self, t: Ticket, v: &T) -> Result<Effects, ObjectError> {
        self.wakes
            .push((t, simcore::codec::to_bytes(v).map_err(|e| ObjectError::App(e.to_string()))?));
        Ok(self)
    }
}

/// Default CPU cost constants for object methods, calibrated so the
/// micro-benchmarks land in the paper's regimes (see DESIGN.md §4).
pub mod costs {
    use std::time::Duration;

    /// A simple operation on a Java-based DSO server (e.g. one arithmetic
    /// update): dominated by dispatch and (de)serialization of the
    /// Infinispan/Creson interceptor stack.
    pub const SIMPLE_OP: Duration = Duration::from_micros(35);

    /// Per-multiplication cost of the Fig. 2a "complex operation" loop on
    /// the JVM.
    pub const PER_MULT: Duration = Duration::from_nanos(55);

    /// Marginal (de)serialization cost per payload byte for bulk methods
    /// (e.g. byte-array get/set); calibrated so a 1 KB access lands at
    /// Table 2's ≈ 230 µs end-to-end.
    pub const PER_BYTE: Duration = Duration::from_nanos(25);
}

/// Context of one method invocation.
#[derive(Debug)]
pub struct CallCtx {
    /// The ticket of this call, for methods that park their caller.
    pub ticket: Ticket,
    /// Whether this invocation is an SMR re-execution on a replica (such
    /// invocations must not park).
    pub replicated: bool,
}

/// A server-side shared object.
///
/// Implementations are plain state machines split by receiver: `read`
/// holds the methods that only look (`&self`), `invoke` the ones that may
/// mutate (`&mut self`). Each method name has exactly one arm; callers go
/// through [`dispatch`], which tries `read` first. Both decode arguments
/// with [`simcore::codec`] and return [`Effects`]. `save`/`restore`
/// support replication and rebalancing ("marshalling" in the paper).
///
/// The `__create` method name is reserved: it is sent by client proxies to
/// initialize an object idempotently and is handled by the server, not by
/// `invoke`.
pub trait SharedObject: Send + 'static {
    /// Handles one mutating method call (any method `read` declines).
    ///
    /// # Errors
    ///
    /// Returns an [`ObjectError`] for unknown methods, undecodable
    /// arguments, or application failures; the error is shipped back to the
    /// calling client.
    fn invoke(&mut self, call: &CallCtx, method: &str, args: &[u8])
        -> Result<Effects, ObjectError>;

    /// Serves `method` if it is read-only, or returns `None` to hand it to
    /// [`invoke`](Self::invoke).
    ///
    /// A method is read-only exactly when this answers: such calls skip
    /// the SMR broadcast on replicated objects, do not advance the
    /// object's version, and — under
    /// [`crate::ConsistencyMode::ReplicaReads`] — may be served by any
    /// replica. The `&self` receiver is the purity proof. Reads reply with
    /// a plain value: they cannot park the caller or wake others. The
    /// default declines everything, which is always safe.
    fn read(&self, _method: &str, _args: &[u8]) -> Option<Result<Effects, ObjectError>> {
        None
    }

    /// Serializes the object's full state.
    fn save(&self) -> Vec<u8>;

    /// Replaces the object's state with a previously saved one.
    ///
    /// # Errors
    ///
    /// Returns [`ObjectError::BadState`] if the bytes are not a valid state.
    fn restore(&mut self, state: &[u8]) -> Result<(), ObjectError>;
}

/// Runs one method call against `obj`: [`SharedObject::read`] first,
/// [`SharedObject::invoke`] for whatever it declines. The second return is
/// whether `invoke` ran, i.e. whether the call counts as a mutation (the
/// server bumps the version and logs to the WAL only then).
///
/// `readonly` is the caller's claim — the request took the read fast path
/// and skipped the SMR order — so such a call must never reach `invoke`.
///
/// # Errors
///
/// The method's own [`ObjectError`]; [`ObjectError::App`] when a
/// `readonly` call names a method `read` declines, or when `read` tries to
/// park its caller or wake others.
pub fn dispatch(
    obj: &mut dyn SharedObject,
    call: &CallCtx,
    method: &str,
    args: &[u8],
    readonly: bool,
) -> Result<(Effects, bool), ObjectError> {
    // `&self` leaves one hole, interior mutability. Debug builds (so every
    // `cargo test`) close it by comparing the saved state across the read.
    let before = cfg!(debug_assertions).then(|| obj.save());
    match obj.read(method, args) {
        Some(served) => {
            debug_assert!(
                before.is_none_or(|b| b == obj.save()),
                "read-only method {method} changed the object's saved state"
            );
            let effects = served?;
            if matches!(effects.reply, Reply::Park) || !effects.wakes.is_empty() {
                return Err(ObjectError::App(format!(
                    "read-only method {method} may not park or wake"
                )));
            }
            Ok((effects, false))
        }
        None if readonly => Err(ObjectError::App(format!("method {method} is not read-only"))),
        None => Ok((obj.invoke(call, method, args)?, true)),
    }
}

/// Factory that builds an object from creation arguments (empty slice =
/// default construction).
pub type ObjectFactory =
    Arc<dyn Fn(&[u8]) -> Result<Box<dyn SharedObject>, ObjectError> + Send + Sync>;

/// Registry of object types available on the DSO servers.
///
/// The analogue of uploading the application jar to the servers: every type
/// used by an application must be registered before the cluster starts.
/// Registries are cheap to clone and shared between all server nodes.
///
/// # Examples
///
/// ```
/// use dso::{ObjectRegistry, objects::AtomicLong};
///
/// let mut reg = ObjectRegistry::new();
/// reg.register("AtomicLong", |args| AtomicLong::factory(args));
/// assert!(reg.contains("AtomicLong"));
/// ```
#[derive(Clone, Default)]
pub struct ObjectRegistry {
    factories: HashMap<String, ObjectFactory>,
}

impl ObjectRegistry {
    /// Creates an empty registry.
    pub fn new() -> ObjectRegistry {
        ObjectRegistry::default()
    }

    /// Creates a registry pre-loaded with the built-in object library
    /// (atomics, list, map, byte array, synchronization objects).
    pub fn with_builtins() -> ObjectRegistry {
        let mut r = ObjectRegistry::new();
        crate::objects::register_builtins(&mut r);
        r
    }

    /// Registers a type. Replaces any previous factory with the same name.
    pub fn register<F>(&mut self, type_name: &str, factory: F)
    where
        F: Fn(&[u8]) -> Result<Box<dyn SharedObject>, ObjectError> + Send + Sync + 'static,
    {
        self.factories.insert(type_name.to_string(), Arc::new(factory));
    }

    /// Whether a type is registered.
    pub fn contains(&self, type_name: &str) -> bool {
        self.factories.contains_key(type_name)
    }

    /// Instantiates an object of the given type.
    ///
    /// # Errors
    ///
    /// Returns `Err` if the type is unknown or the factory rejects `args`.
    pub fn create(
        &self,
        type_name: &str,
        args: &[u8],
    ) -> Result<Box<dyn SharedObject>, ObjectError> {
        match self.factories.get(type_name) {
            Some(f) => f(args),
            None => Err(ObjectError::App(format!("type not registered: {type_name}"))),
        }
    }

    /// Registered type names, sorted.
    pub fn type_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.factories.keys().cloned().collect();
        v.sort();
        v
    }
}

impl fmt::Debug for ObjectRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObjectRegistry").field("types", &self.type_names()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CALL: CallCtx = CallCtx { ticket: Ticket(0), replicated: false };

    struct Echo;

    impl SharedObject for Echo {
        fn invoke(
            &mut self,
            _call: &CallCtx,
            method: &str,
            args: &[u8],
        ) -> Result<Effects, ObjectError> {
            match method {
                "echo" => Ok(Effects {
                    reply: Reply::Value(args.to_vec()),
                    cost: Duration::ZERO,
                    wakes: Vec::new(),
                }),
                other => Err(ObjectError::MethodNotFound(other.to_string())),
            }
        }
        fn save(&self) -> Vec<u8> {
            Vec::new()
        }
        fn restore(&mut self, _state: &[u8]) -> Result<(), ObjectError> {
            Ok(())
        }
    }

    #[test]
    fn object_ref_accessors_and_hash() {
        let a = ObjectRef::new("T", "k1");
        let b = ObjectRef::new("T", "k2");
        let c = ObjectRef::new("U", "k1");
        assert_ne!(a.placement_hash(), b.placement_hash());
        assert_ne!(a.placement_hash(), c.placement_hash());
        assert_eq!(a.placement_hash(), ObjectRef::new("T", "k1").placement_hash());
        assert_eq!(a.to_string(), "T:k1");
    }

    #[test]
    fn registry_create_and_unknown() {
        let mut reg = ObjectRegistry::new();
        reg.register("Echo", |_| Ok(Box::new(Echo)));
        assert!(reg.contains("Echo"));
        assert!(!reg.contains("Nope"));
        let mut obj = reg.create("Echo", &[]).expect("create");
        let (fx, mutating) = dispatch(obj.as_mut(), &CALL, "echo", &[1, 2], false).expect("invoke");
        assert!(mutating, "Echo serves nothing from `read`");
        match fx.reply {
            Reply::Value(v) => assert_eq!(v, vec![1, 2]),
            Reply::Park => panic!("unexpected park"),
        }
        assert!(reg.create("Nope", &[]).is_err());
    }

    /// `peek` replies from `read` but mutates through a `Cell` — the one
    /// hole `&self` leaves; `wait` and `nudge` are reads that try to park
    /// and to wake.
    #[derive(Default)]
    struct Sneaky {
        hits: std::cell::Cell<u64>,
    }

    impl SharedObject for Sneaky {
        fn invoke(&mut self, _: &CallCtx, method: &str, _: &[u8]) -> Result<Effects, ObjectError> {
            Err(ObjectError::MethodNotFound(method.to_string()))
        }
        fn read(&self, method: &str, _args: &[u8]) -> Option<Result<Effects, ObjectError>> {
            match method {
                "peek" => {
                    self.hits.set(self.hits.get() + 1);
                    Some(Effects::value(&self.hits.get()))
                }
                "wait" => Some(Ok(Effects::park())),
                "nudge" => Some(Effects::value(&()).and_then(|fx| fx.wake(Ticket(1), &()))),
                _ => None,
            }
        }
        fn save(&self) -> Vec<u8> {
            self.hits.get().to_le_bytes().to_vec()
        }
        fn restore(&mut self, _state: &[u8]) -> Result<(), ObjectError> {
            Ok(())
        }
    }

    #[test]
    fn dispatch_keeps_readonly_calls_out_of_invoke() {
        let err = dispatch(&mut Echo, &CALL, "echo", &[], true).expect_err("echo is a write");
        assert_eq!(err.to_string(), "application error: method echo is not read-only");
    }

    #[test]
    fn dispatch_rejects_a_read_that_parks_or_wakes() {
        let mut s = Sneaky::default();
        for method in ["wait", "nudge"] {
            let err = dispatch(&mut s, &CALL, method, &[], true).expect_err("not a plain value");
            assert!(err.to_string().contains("may not park or wake"), "{method}: {err}");
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "read-only method peek changed the object's saved state")]
    fn debug_builds_catch_interior_mutation_in_read() {
        let _ = dispatch(&mut Sneaky::default(), &CALL, "peek", &[], true);
    }

    #[test]
    fn effects_builders() {
        let fx = Effects::value(&42u64).expect("encode");
        assert!(matches!(fx.reply, Reply::Value(_)));
        assert_eq!(fx.cost, costs::SIMPLE_OP);
        let fx = Effects::value_with_cost(&1u8, Duration::from_millis(1)).expect("encode");
        assert_eq!(fx.cost, Duration::from_millis(1));
        let fx = Effects::park().wake(Ticket(7), &9u32).expect("wake");
        assert!(matches!(fx.reply, Reply::Park));
        assert_eq!(fx.wakes.len(), 1);
        assert_eq!(fx.wakes[0].0, Ticket(7));
    }

    #[test]
    fn registry_reports_type_names_sorted() {
        let mut reg = ObjectRegistry::new();
        reg.register("B", |_| Ok(Box::new(Echo)));
        reg.register("A", |_| Ok(Box::new(Echo)));
        assert_eq!(reg.type_names(), vec!["A".to_string(), "B".to_string()]);
    }
}
