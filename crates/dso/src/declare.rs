//! One declaration per shared object: [`shared_object!`](crate::shared_object).
//!
//! In the paper a programmer writes an `@Shared` class once and Crucial
//! weaves its client proxy. Here the class is one declaration: the state
//! struct, its registry name, its creation argument, and one line per
//! method giving the method's Rust name, wire name, access, typed
//! arguments, reply type and body. Both sides of the object come from it.
//!
//! - **Server side.** The [`SharedObject`](crate::SharedObject) impl:
//!   `read` serves the `Read` methods and `invoke` the others (see
//!   [`Access`](crate::Access)). Each decodes exactly the declared
//!   argument types, so a malformed or over-long argument is
//!   [`ObjectError::BadArgs`]. `save`/`restore` are the state's own
//!   [`Wire`] encoding; node-local ticket queues are `#[wire(skip)]`. Also
//!   `TYPE`, `METHODS` and `factory`.
//! - **Client side**, in a nested module. Either a typed handle with one
//!   method per declared method (`handle`), or, for an object whose handle
//!   is generic over an element codec, one function per method over a
//!   [`RawHandle`](crate::api::RawHandle) (`fns`).

use simcore::codec;

use crate::error::ObjectError;
use crate::object::Effects;

/// Declares a shared object: its state, its server-side methods and its
/// client handle, in one table (see the [module docs](crate::declare)).
///
/// ```
/// use dso::{shared_object, Effects};
/// use simcore::codec::Wire;
///
/// shared_object! {
///     /// A shared tally.
///     #[derive(Debug, Default, Wire)]
///     pub struct Tally {
///         total: u64,
///     }
///
///     type "Tally";
///     create(total: u64 = 0) { Ok(Tally { total }) }
///
///     methods(self, call) {
///         /// The running total.
///         Read total = "total"() -> u64 { Effects::value(&self.total) }
///         /// Adds `n`; returns the new total.
///         Write add = "add"(n: u64) -> u64 {
///             self.total += n;
///             Effects::value(&self.total)
///         }
///     }
///
///     /// Typed handle to a shared [`Tally`].
///     handle tally::TallyHandle { new(key), persistent(key, total, rf) }
/// }
///
/// fn main() {
///     let mut reg = dso::ObjectRegistry::new();
///     reg.register(Tally::TYPE, Tally::factory);
///     assert_eq!(Tally::METHODS, ["total", "add"]);
///     let handle = tally::TallyHandle::persistent("t", 5, 2);
///     assert_eq!(handle.raw().rf(), 2);
/// }
/// ```
///
/// (The declaration must sit in a module, not a function body: the
/// client side is a nested module that names the state through `super`.)
///
/// A method's access is `Read`, `Write` or `Blocking(kind)`, `kind` being
/// the [`simcore::WaitKind`] a never-ending wait reports. Bodies see the
/// state through the first name of `methods(..)`, the call's
/// [`CallCtx`](crate::CallCtx) (its ticket) through the second, and the
/// arguments by name. An argument written `&name: T` is decoded as a `T`
/// and taken by the handle method as `name: &T`. A handle's constructors
/// are any of `name(key)` (default creation argument), `name(key, init)`
/// and `name(key, init, rf)`.
#[macro_export]
macro_rules! shared_object {
    (
        $(#[$attr:meta])*
        pub struct $State:ident $fields:tt
        type $type_name:literal;
        create($arg:ident : $Arg:ty = $default:expr) $create:block
        methods($self:ident, $call:ident) $methods:tt
        $($client:tt)*
    ) => {
        $(#[$attr])*
        pub struct $State $fields

        impl $State {
            /// Registry type name.
            pub const TYPE: &'static str = $type_name;

            /// Builds the object from its encoded creation argument, or
            /// from the default when `args` is empty.
            ///
            /// # Errors
            ///
            /// `ObjectError::BadState` for undecodable arguments, or
            /// whatever creation rejects.
            pub fn factory(
                args: &[u8],
            ) -> Result<Box<dyn $crate::SharedObject>, $crate::ObjectError> {
                #[allow(unused_variables, reason = "a `()` argument binds nothing")]
                let $arg: $Arg = $crate::declare::create_arg(args, || $default)?;
                let state: Result<$State, $crate::ObjectError> = $create;
                Ok(Box::new(state?))
            }
        }

        $crate::shared_object!(@server $State, $self, $call, $methods);
        $crate::shared_object!(@client $State, $Arg, $default; $methods $($client)*);
    };

    (@server $State:ident, $self:ident, $call:ident, {$(
        $(#[$doc:meta])*
        $kind:ident $(($wait:ident))? $name:ident = $wire:literal
            ($($(& $(@$by_ref:tt)?)? $arg:ident : $Arg:ty),* $(,)?) -> $Ret:ty $body:block
    )*}) => {
        impl $State {
            /// Wire names of the declared methods, in declaration order.
            pub const METHODS: &'static [&'static str] = &[$($wire),*];
        }

        impl $crate::SharedObject for $State {
            #[allow(unused_variables, reason = "only a parking method needs the call")]
            fn invoke(
                &mut $self,
                $call: &$crate::CallCtx,
                method: &str,
                args: &[u8],
            ) -> Result<$crate::Effects, $crate::ObjectError> {
                match method {
                    $($wire => $crate::shared_object!(@invoke $kind, method,
                        $crate::declare::run(args, |($($arg,)*): ($($Arg,)*)| $body)),)*
                    other => Err($crate::ObjectError::MethodNotFound(other.to_string())),
                }
            }

            #[allow(unused_variables, reason = "an object may declare no reads")]
            fn read(
                &$self,
                method: &str,
                args: &[u8],
            ) -> Option<Result<$crate::Effects, $crate::ObjectError>> {
                match method {
                    $($wire => $crate::shared_object!(@read $kind,
                        $crate::declare::run(args, |($($arg,)*): ($($Arg,)*)| $body)),)*
                    _ => None,
                }
            }

            fn save(&self) -> Vec<u8> {
                $crate::declare::save(self)
            }

            fn restore(&mut self, state: &[u8]) -> Result<(), $crate::ObjectError> {
                *self = $crate::declare::restore(state)?;
                Ok(())
            }
        }
    };
    (@invoke Read, $method:ident, $served:expr) => {
        Err($crate::ObjectError::MethodNotFound($method.to_string()))
    };
    (@invoke $kind:ident, $method:ident, $served:expr) => { $served };
    (@read Read, $served:expr) => { Some($served) };
    (@read $kind:ident, $served:expr) => { None };

    // One function per method over a `RawHandle`.
    (@client $State:ident, $Arg:ty, $default:expr; {$(
        $(#[$doc:meta])*
        $kind:ident $(($wait:ident))? $name:ident = $wire:literal
            ($($(& $(@$by_ref:tt)?)? $arg:ident : $ArgTy:ty),* $(,)?) -> $Ret:ty $body:block
    )*} fns $module:ident;) => {
        pub mod $module {
            #![doc = concat!("Calls on a [`RawHandle`] to a [`", stringify!($State),
                "`](super::", stringify!($State), "), one per method.")]
            #[allow(unused_imports, reason = "the methods' types may all be in scope already")]
            use super::*;
            use $crate::api::RawHandle;
            use $crate::declare::Ctx;
            use $crate::{DsoClient, DsoError};
            $(
                $(#[$doc])*
                pub fn $name(
                    raw: &RawHandle,
                    ctx: &mut Ctx,
                    cli: &mut DsoClient,
                    $($arg: $(& $(@$by_ref)?)? $ArgTy),*
                ) -> Result<$Ret, DsoError> {
                    $crate::shared_object!(@call raw ctx cli, $wire, $kind $($wait)?;
                        $(&$(*$(@$by_ref)?)? $arg),*)
                }
            )*
        }
    };
    // A typed handle struct.
    (@client $State:ident, $Arg:ty, $default:expr; {$(
        $(#[$doc:meta])*
        $kind:ident $(($wait:ident))? $name:ident = $wire:literal
            ($($(& $(@$by_ref:tt)?)? $arg:ident : $ArgTy:ty),* $(,)?) -> $Ret:ty $body:block
    )*} $(#[$handle_doc:meta])*
        handle $module:ident :: $Handle:ident { $($ctor:ident ($($param:ident),*)),* $(,)? }
    ) => {
        pub mod $module {
            #![doc = concat!("The typed handle to a [`", stringify!($State), "`](super::",
                stringify!($State), ").")]
            #[allow(unused_imports, reason = "the methods' types may all be in scope already")]
            use super::*;
            use $crate::api::RawHandle;
            use $crate::declare::Ctx;
            use $crate::{DsoClient, DsoError};

            $(#[$handle_doc])*
            #[derive(Clone, Debug, PartialEq, $crate::declare::Wire)]
            pub struct $Handle {
                raw: RawHandle,
            }

            impl $Handle {
                $($crate::shared_object!(@ctor $State, $Arg, $default; $ctor($($param),*));)*

                /// The underlying untyped handle.
                pub fn raw(&self) -> &RawHandle {
                    &self.raw
                }
                $(
                    $(#[$doc])*
                    pub fn $name(
                        &self,
                        ctx: &mut Ctx,
                        cli: &mut DsoClient,
                        $($arg: $(& $(@$by_ref)?)? $ArgTy),*
                    ) -> Result<$Ret, DsoError> {
                        let raw = &self.raw;
                        $crate::shared_object!(@call raw ctx cli, $wire, $kind $($wait)?;
                            $(&$(*$(@$by_ref)?)? $arg),*)
                    }
                )*
            }
        }
    };

    (@ctor $State:ident, $Arg:ty, $default:expr; $ctor:ident(key)) => {
        /// Handle to the ephemeral object under `key`; the first call
        /// creates it from the default argument.
        pub fn $ctor(key: &str) -> Self {
            Self { raw: RawHandle::new::<$Arg>(<super::$State>::TYPE, key, 1, &$default) }
        }
    };
    (@ctor $State:ident, $Arg:ty, $default:expr; $ctor:ident(key, $init:ident)) => {
        #[doc = concat!("Handle to the ephemeral object under `key`; the first call creates it \
            from `", stringify!($init), "`.")]
        pub fn $ctor(key: &str, $init: $Arg) -> Self {
            Self { raw: RawHandle::new(<super::$State>::TYPE, key, 1, &$init) }
        }
    };
    (@ctor $State:ident, $Arg:ty, $default:expr; $ctor:ident(key, $init:ident, rf)) => {
        #[doc = concat!("Handle to a *persistent* object replicated `rf` times, the paper's \
            `@Shared(persistence=true)`; the first call creates it from `",
            stringify!($init), "`.")]
        pub fn $ctor(key: &str, $init: $Arg, rf: u8) -> Self {
            Self { raw: RawHandle::new(<super::$State>::TYPE, key, rf, &$init) }
        }
    };

    // A declared call through `raw`, each argument as a `&dyn Wire`.
    (@call $raw:ident $ctx:ident $cli:ident, $wire:literal, $kind:ident $($wait:ident)?;
        $($arg:expr),*) => {
        $raw.call($ctx, $cli, $wire, $crate::shared_object!(@access $kind $($wait)?), &[$($arg),*])
    };
    (@access Read) => { $crate::Access::Read };
    (@access Write) => { $crate::Access::Write };
    (@access Blocking $wait:ident) => {
        $crate::Access::Blocking($crate::declare::WaitKind::$wait)
    };
}

// What the expansion of `shared_object!` names, under one path.
#[doc(hidden)]
pub use simcore::codec::Wire;
#[doc(hidden)]
pub use simcore::{Ctx, WaitKind};

/// Decodes a creation argument; an empty one is `default()`.
#[doc(hidden)]
pub fn create_arg<A: Wire>(args: &[u8], default: impl FnOnce() -> A) -> Result<A, ObjectError> {
    if args.is_empty() {
        return Ok(default());
    }
    codec::from_bytes(args).map_err(|e| ObjectError::BadState(e.to_string()))
}

/// Runs one method body on its decoded argument tuple.
#[doc(hidden)]
pub fn run<A: Wire>(
    args: &[u8],
    body: impl FnOnce(A) -> Result<Effects, ObjectError>,
) -> Result<Effects, ObjectError> {
    body(codec::from_bytes(args).map_err(|e| ObjectError::BadArgs(e.to_string()))?)
}

/// The state's own encoding.
#[doc(hidden)]
pub fn save<S: Wire>(state: &S) -> Vec<u8> {
    let mut out = Vec::new();
    state.put(&mut out);
    out
}

/// Decodes a saved state.
#[doc(hidden)]
pub fn restore<S: Wire>(state: &[u8]) -> Result<S, ObjectError> {
    codec::from_bytes(state).map_err(|e| ObjectError::BadState(e.to_string()))
}
