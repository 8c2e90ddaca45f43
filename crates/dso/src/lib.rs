//! # dso — the distributed shared-object layer of Crucial
//!
//! This crate is the paper's primary contribution, rebuilt in Rust on top
//! of the [`simcore`] simulation kernel:
//!
//! * **Method-call shipping** ([`object`](crate::SharedObject),
//!   [`server`]): clients send `(reference, method, args)`; the owning
//!   server runs the method next to the data, turning O(N²) all-reduce
//!   traffic into O(N) updates (§4.2).
//! * **Consistent hashing** ([`Ring`]): placement is a local computation on
//!   every node and client (§4.1).
//! * **Linearizability**: each object is bound to one worker per node, so
//!   its operations execute serially in arrival order, while distinct
//!   objects enjoy disjoint-access parallelism (§2.3, Fig. 2a).
//! * **Persistence via SMR** ([`skeen`], [`server`]): objects declared
//!   `persistent` replicate to `rf` ring successors; writes are ordered by
//!   Skeen's total-order multicast and applied at every replica (§4.1).
//! * **View-synchronous membership** ([`spawn_coordinator`]): a coordinator
//!   issues totally-ordered views; nodes heartbeat, crashed nodes are
//!   evicted, and objects rebalance on every change (Fig. 8).
//! * **Synchronization objects** ([`objects`], [`api`]): server-side
//!   barriers, semaphores, latches and futures that *park the call* instead
//!   of polling (§6.3).
//!
//! ## Example
//!
//! ```
//! use simcore::Sim;
//! use dso::{api, DsoCluster, DsoConfig, ObjectRegistry};
//!
//! let mut sim = Sim::new(7);
//! let cluster = DsoCluster::start(&sim, 3, DsoConfig::default(),
//!                                 ObjectRegistry::with_builtins());
//! let handle = cluster.client_handle();
//!
//! // Two "cloud threads" maintaining one persistent counter (rf = 2).
//! for t in 0..2 {
//!     let handle = handle.clone();
//!     sim.spawn(&format!("thread-{t}"), move |ctx| {
//!         let mut cli = handle.connect();
//!         let counter = dso::api::AtomicLong::persistent("total", 0, 2);
//!         for _ in 0..10 {
//!             counter.add_and_get(ctx, &mut cli, 1).expect("dso reachable");
//!         }
//!     });
//! }
//! sim.run_until_idle().expect_quiescent();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod api;
mod client;
mod cluster;
mod config;
pub mod durability;
mod error;
pub mod intern;
mod membership;
mod node_cache;
mod object;
pub mod objects;
pub mod protocol;
pub mod read_policy;
mod ring;
pub mod server;
pub mod skeen;
pub mod verify;

pub use client::{BatchOp, DsoClient, DsoClientHandle, MonotonicReads};
pub use cluster::DsoCluster;
pub use config::{
    AdmissionConfig, ConsistencyMode, DsoConfig, DsoConfigBuilder, DsoConfigError,
    DurabilityConfig, DurabilityLevel,
};
pub use durability::{
    checkpoint, recover_into, spawn_checkpointer, CheckpointReport, Checkpointer, DurabilityStats,
    DurabilityStore, RecoveryReport,
};
pub use error::{DsoError, ObjectError};
pub use intern::{intern, MethodName};
pub use membership::{spawn_coordinator, spawn_coordinator_from};
pub use node_cache::{NodeCache, NodeCacheKey, NodeEntry};
pub use object::{
    costs, dispatch, CallCtx, Effects, ObjectFactory, ObjectRef, ObjectRegistry, Reply,
    SharedObject, Ticket,
};
pub use protocol::DrainNode;
pub use read_policy::ReadPolicy;
pub use ring::{fnv1a, mix, Ring, VNODES};
pub use server::{spawn_server, spawn_server_from, ServerHandle};
