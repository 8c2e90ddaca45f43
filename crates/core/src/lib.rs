//! # crucial — the paper's programming model
//!
//! This crate puts the pieces together into the abstractions of Table 1:
//!
//! | Paper abstraction | Here |
//! |---|---|
//! | `CloudThread` | [`ThreadFactory::start`] + [`JoinHandle::join`] |
//! | Shared objects | [`AtomicLong`], [`AtomicBoolean`], [`AtomicByteArray`], [`SharedList`], [`SharedMap`] |
//! | Synchronization objects | [`CyclicBarrier`], [`Semaphore`], [`CountDownLatch`], [`SharedFuture`] |
//! | `@Shared` | implement [`dso::SharedObject`], register it in the [`dso::ObjectRegistry`], and reference it with [`dso::api::RawHandle`] |
//! | `@Shared(persistence=true)` | the `persistent(key, init, rf)` constructors |
//!
//! ## The π-estimation example (Listing 1 of the paper)
//!
//! ```
//! use crucial::prelude::*;
//! use rand::RngExt;
//!
//! #[derive(Wire)]
//! struct PiEstimator {
//!     points: u64,
//!     counter: AtomicLong,
//! }
//!
//! impl Runnable for PiEstimator {
//!     fn run(&mut self, env: &mut FnEnv<'_, '_>) -> RunResult {
//!         let mut inside = 0i64;
//!         for _ in 0..self.points {
//!             let x: f64 = env.ctx().rng().random_range(0.0..1.0);
//!             let y: f64 = env.ctx().rng().random_range(0.0..1.0);
//!             if x * x + y * y <= 1.0 {
//!                 inside += 1;
//!             }
//!         }
//!         let (ctx, dso) = env.dso();
//!         self.counter.add_and_get(ctx, dso, inside).map_err(|e| e.to_string())?;
//!         Ok(())
//!     }
//! }
//!
//! let mut sim = Sim::new(1);
//! let dep = Deployment::start(&sim, CrucialConfig::default());
//! dep.register::<PiEstimator>();
//! let threads = dep.threads();
//! let dso = dep.dso_handle();
//!
//! sim.spawn("main", move |ctx| {
//!     const N_THREADS: usize = 4;
//!     const POINTS: u64 = 10_000;
//!     let counter = AtomicLong::new("counter");
//!     let runnables: Vec<PiEstimator> = (0..N_THREADS)
//!         .map(|_| PiEstimator { points: POINTS, counter: counter.clone() })
//!         .collect();
//!     let handles = threads.start_all(ctx, &runnables);
//!     crucial::join_all(ctx, handles).expect("threads succeed");
//!     let mut cli = dso.connect();
//!     let inside = counter.get(ctx, &mut cli).expect("dso");
//!     let pi = 4.0 * inside as f64 / (N_THREADS as f64 * POINTS as f64);
//!     assert!((pi - std::f64::consts::PI).abs() < 0.1, "pi ≈ {pi}");
//! });
//! sim.run_until_idle().expect_quiescent();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod blackboard;
mod deploy;
mod error;
mod runnable;
mod thread;

pub use blackboard::Blackboard;
pub use deploy::{CrucialConfig, Deployment};
pub use error::CrucialError;
pub use runnable::{function_name, FnEnv, RunResult, Runnable};
pub use thread::{
    join_all, CloudError, JoinHandle, RetryPolicy, ThreadFactory, THREAD_START_OVERHEAD,
};

// Re-export the typed shared-object handles under their paper names.
pub use dso::api::{
    Arithmetic, AtomicBoolean, AtomicByteArray, AtomicLong, CountDownLatch, CyclicBarrier,
    RawHandle, Semaphore, SharedFuture, SharedList, SharedMap,
};

// The rest of the stack, so applications import one crate instead of four.
// `crucial` is the facade: everything an app needs — the simulation kernel,
// the DSO tier, the FaaS platform, the object store, and the observability
// handles — is reachable from here.
pub use cloudstore::{
    spawn_redis, spawn_s3, spawn_sqs, QueueConfig, RedisConfig, RedisHandle, S3Config, S3Handle,
    ScriptRegistry, SqsHandle,
};
pub use controlplane::{
    next_floor, spawn_controlplane, CtlConfig, CtlEvent, CtlHandle, Observed, PrewarmConfig,
    ScaleDecision, ScalingPolicy, StepScaling, TargetTracking,
};
pub use dso::{
    costs, dispatch, AdmissionConfig, BatchOp, CallCtx, ConsistencyMode, DsoClient,
    DsoClientHandle, DsoCluster, DsoConfig, DsoConfigBuilder, DsoConfigError, DsoError, Effects,
    ObjectError, ObjectRef, ObjectRegistry, Reply, SharedObject, Ticket,
};
pub use faas::{
    spawn_platform, Billing, ColdStartPolicy, FaasConfig, FaasConfigBuilder, FaasConfigError,
    FaasError, FaasHandle, FnCtx, FunctionRegistry, InvokeForked, InvokeOpts, Pricing,
    RetirementRecord, SetProvisioned, SnapshotConfig, SnapshotRecord, StartKind, FULL_VCPU_MB,
    SNAPSHOT_PAGE_BYTES,
};
pub use simcore::{codec, explore, sync};
pub use simcore::{Ctx, LatencyModel, MetricsRegistry, Sim, SimTime, SpanId, TraceCtx, Tracer};

/// One-line import for application code:
/// `use crucial::prelude::*;`.
///
/// Brings in the simulation entry points, the programming model
/// (threads + runnables), the shared/synchronization objects, the DSO
/// client types, and the observability handles.
pub mod prelude {
    pub use crate::{
        join_all, Arithmetic, AtomicBoolean, AtomicByteArray, AtomicLong, CountDownLatch,
        CrucialConfig, CrucialError, Ctx, CyclicBarrier, Deployment, DsoClient, DsoClientHandle,
        DsoConfig, FnEnv, JoinHandle, MetricsRegistry, RetryPolicy, RunResult, Runnable, Semaphore,
        SharedFuture, SharedList, SharedMap, Sim, SimTime, ThreadFactory, Tracer,
    };
    /// The wire trait and its derive: what makes a [`Runnable`](crate::Runnable)
    /// shippable. (The derive names `::simcore`, so a crate using it
    /// depends on `simcore` too.)
    pub use simcore::codec::Wire;
}
