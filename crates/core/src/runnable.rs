//! The `Runnable` abstraction: the body of a cloud thread.
//!
//! Mirrors the paper's model (§3.1): the programmer writes a plain
//! "multi-threaded" object whose fields are inputs plus handles to shared
//! objects. Because a [`Runnable`] is [`Wire`], the whole
//! object ships to the FaaS platform as the invocation payload — the Rust
//! analogue of Java reflection instantiating the user class inside the
//! Lambda.

use std::time::Duration;

use cloudstore::S3Handle;
use dso::{DsoClient, DsoClientHandle};
use faas::FnCtx;
use simcore::codec::Wire;
use simcore::Ctx;

/// Outcome of a cloud thread body; an `Err` marks the invocation failed
/// (and retriable, §4.4).
pub type RunResult = Result<(), String>;

/// The body of a cloud thread.
///
/// # Examples
///
/// ```
/// use crucial::prelude::*;
///
/// #[derive(Wire)]
/// struct AddOne {
///     counter: AtomicLong,
/// }
///
/// impl Runnable for AddOne {
///     fn run(&mut self, env: &mut FnEnv<'_, '_>) -> RunResult {
///         let (ctx, dso) = env.dso();
///         self.counter.add_and_get(ctx, dso, 1).map_err(|e| e.to_string())?;
///         Ok(())
///     }
/// }
/// ```
pub trait Runnable: Wire + 'static {
    /// Executes the body inside a cloud function.
    ///
    /// # Errors
    ///
    /// A `String` error fails the invocation; depending on the
    /// [`crate::RetryPolicy`], the client-side thread re-invokes the
    /// function with the exact same input.
    fn run(&mut self, env: &mut FnEnv<'_, '_>) -> RunResult;
}

/// The stable function name under which a `Runnable` type is deployed.
pub fn function_name<R: Runnable>() -> String {
    std::any::type_name::<R>().replace("::", ".")
}

/// Execution environment inside a cloud function: the FaaS context plus a
/// connected DSO client and the object store.
pub struct FnEnv<'a, 'b> {
    fx: &'a mut FnCtx<'b>,
    dso: DsoClient,
    dso_factory: DsoClientHandle,
    s3: S3Handle,
}

impl<'a, 'b> FnEnv<'a, 'b> {
    /// Assembles an environment around an already-connected client (the
    /// deployment layer uses this to hand functions a client wired to the
    /// host-shared [`dso::NodeCache`]).
    pub fn with_client(
        fx: &'a mut FnCtx<'b>,
        dso: DsoClient,
        dso_factory: DsoClientHandle,
        s3: S3Handle,
    ) -> FnEnv<'a, 'b> {
        FnEnv { dso, fx, dso_factory, s3 }
    }

    /// Connects an additional DSO client (for application structures that
    /// encapsulate their own connection, like the Santa Claus runtime).
    pub fn dso_connect(&self) -> DsoClient {
        self.dso_factory.connect()
    }

    /// Raw simulation context (sleep, randomness, messaging).
    pub fn ctx(&mut self) -> &mut Ctx {
        self.fx.ctx
    }

    /// Splits the environment for a DSO call:
    /// `let (ctx, dso) = env.dso();`.
    pub fn dso(&mut self) -> (&mut Ctx, &mut DsoClient) {
        (self.fx.ctx, &mut self.dso)
    }

    /// Performs CPU work, scaled by the container's memory-derived share.
    pub fn compute(&mut self, work: Duration) {
        self.fx.compute(work);
    }

    /// Splits the environment for a call to the object store holding
    /// immutable input data (§4: "CRUCIAL may use object storage to store
    /// the immutable input data").
    pub fn s3_split(&mut self) -> (&mut Ctx, S3Handle) {
        (self.fx.ctx, self.s3.clone())
    }
}

impl std::fmt::Debug for FnEnv<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnEnv").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Wire)]
    struct Nop;

    impl Runnable for Nop {
        fn run(&mut self, _env: &mut FnEnv<'_, '_>) -> RunResult {
            Ok(())
        }
    }

    #[test]
    fn function_names_are_stable_and_distinct() {
        let a = function_name::<Nop>();
        let b = function_name::<Nop>();
        assert_eq!(a, b);
        assert!(a.contains("Nop"), "{a}");
        assert!(!a.contains("::"));
    }
}
