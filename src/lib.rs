//! # crucial-repro — a Rust reproduction of *Crucial* (Middleware '19)
//!
//! This umbrella crate re-exports the whole stack so the top-level
//! examples and integration tests read naturally. The layered crates:
//!
//! * [`simcore`] — deterministic discrete-event simulation kernel;
//! * [`dso`] — the distributed shared-object layer (the paper's
//!   contribution): consistent hashing, method-call shipping, SMR over
//!   Skeen total-order multicast, view-synchronous membership;
//! * [`faas`] — the AWS-Lambda-like platform;
//! * [`cloudstore`] — S3/Redis/SQS/SNS baselines;
//! * [`crucial`] — the programming model (`CloudThread`, `Runnable`,
//!   typed shared objects);
//! * [`sparklite`] — the Spark/EMR baseline engine;
//! * [`crucial_ml`] / [`crucial_apps`] — the paper's applications.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the architecture
//! and the experiment index.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use cloudstore;
pub use crucial;
pub use crucial_apps;
pub use crucial_ml;
pub use dso;
pub use faas;
pub use simcore;
pub use sparklite;
