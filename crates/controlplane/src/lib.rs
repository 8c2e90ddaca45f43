//! # controlplane — the elastic control plane of the Crucial reproduction
//!
//! Crucial's evaluation (Fig. 8) scales the DSO tier by hand: the harness
//! adds a node mid-run and watches throughput recover. This crate closes
//! the loop. A simulated daemon ([`spawn_controlplane`]) runs a periodic
//! reconcile tick on a virtual-time [`simcore::Ticker`], reads the shared
//! [`simcore::MetricsRegistry`] (request rate, shed rate, dispatcher queue
//! depth, FaaS cold starts), and actuates three levers:
//!
//! 1. **DSO horizontal scaling** — `DsoCluster::add_node_from` on
//!    sustained overload, graceful drain (`remove_node_from`) on sustained
//!    underload, bounded by min/max fleet sizes and cooldowns.
//! 2. **FaaS pre-warming** — a provisioned-concurrency floor per function,
//!    raised from observed cold starts and decayed when they stop
//!    ([`PrewarmConfig`]).
//! 3. **Admission control** — the token-bucket load-shedder lives in the
//!    DSO servers (`dso::AdmissionConfig`); the daemon observes its shed
//!    rate as an overload signal, closing the feedback loop.
//! 4. **Durability checkpoints** — when the cluster persists a WAL
//!    (`dso::DurabilityConfig`), the daemon can run
//!    `dso::Checkpointer::run_once` on its own cadence
//!    ([`CtlConfig::checkpoint_interval`]), bounding crash-recovery replay
//!    and garbage-collecting subsumed log segments.
//!
//! The policy, [`TargetTracking`], sizes the fleet to a per-node request
//! rate. It is a deterministic hysteresis machine, so identically seeded
//! runs make byte-identical decisions ([`CtlHandle::decision_log`]).
//! Every actuation is trace-spanned (`ctl.reconcile`, `ctl.scale_out`,
//! `ctl.drain`) for the Chrome-trace export.
//!
//! ## Example
//!
//! ```
//! use std::cell::RefCell;
//! use std::rc::Rc;
//! use std::time::Duration;
//!
//! use controlplane::{spawn_controlplane, CtlConfig, TargetTracking};
//! use dso::{api, DsoCluster, DsoConfig, ObjectRegistry};
//! use simcore::{MetricsRegistry, Sim};
//!
//! let mut sim = Sim::new(1);
//! let registry = MetricsRegistry::new();
//! sim.set_metrics(&registry);
//! let cluster = Rc::new(RefCell::new(DsoCluster::start(
//!     &sim, 1, DsoConfig::default(), ObjectRegistry::with_builtins())));
//! let handle = cluster.borrow().client_handle();
//! let ctl = spawn_controlplane(
//!     &sim,
//!     cluster,
//!     None,
//!     registry,
//!     TargetTracking::new(50.0),
//!     CtlConfig { reconcile_interval: Duration::from_millis(500), ..CtlConfig::default() },
//! );
//! sim.spawn("app", move |ctx| {
//!     let mut cli = handle.connect();
//!     let c = api::AtomicLong::new("hits");
//!     for _ in 0..200 {
//!         c.increment_and_get(ctx, &mut cli).expect("dso");
//!     }
//! });
//! sim.run_until_idle().expect_quiescent();
//! // A single steady client does not trip the scaler.
//! assert_eq!(ctl.scale_outs() + ctl.drains(), 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod daemon;
mod policy;

pub use daemon::{next_floor, spawn_controlplane, CtlConfig, CtlEvent, CtlHandle, PrewarmConfig};
pub use policy::{Observed, ScaleDecision, TargetTracking};
