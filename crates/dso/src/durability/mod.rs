//! Durability subsystem: per-node write-ahead logs plus periodic
//! full-cluster checkpoints, both persisted to a cloud object store
//! ([`cloudstore::s3`]), with full-cluster crash-restart recovery.
//!
//! The design follows FaaSKeeper's "guarantees from serverless storage
//! primitives" recipe (see PAPERS.md) on top of the repo's calibrated S3
//! model:
//!
//! * **WAL** (`wal`, [`crate::protocol::WalSegment`]): every applied
//!   mutation is recorded as the object's *post-state* tagged with its
//!   version (a physical redo record). A per-node daemon group-commits the
//!   buffer as one segment PUT per [`DurabilityConfig::group_commit`]
//!   interval, coalescing repeated mutations of the same object — this is
//!   what amortizes the store's ~35 ms PUT off the write path. Under
//!   [`DurabilityLevel::Sync`] the client's acknowledgement rides the
//!   flush; under [`DurabilityLevel::Async`] it does not (the loss
//!   window).
//! * **Checkpoints** ([`Checkpointer`], [`crate::protocol::CheckpointBlob`]):
//!   a full-cluster snapshot (deduplicated by version across replicas),
//!   taken by [`Checkpointer::run_once`] at whatever cadence its caller
//!   keeps and written as one atomic key, carrying per-stream WAL high-water marks
//!   (`floors`). Older checkpoints and the segments they subsume are
//!   garbage-collected, keeping [`CHECKPOINT_KEEP`] blobs.
//! * **Recovery** ([`recover_into`], [`crate::DsoCluster::recover_from`]):
//!   LIST checkpoints + WAL, read-repair against the store's visibility
//!   delay (re-LIST until every floor is satisfied, every per-stream
//!   sequence is gap-free, and the listing has been stable for
//!   [`SETTLE`]), then install the newest state per
//!   object — latest checkpoint overlaid with every newer WAL record — in
//!   deterministic (object, version) order through the regular
//!   `__restore` invocation path, so placement follows the *new*
//!   cluster's ring.
//!
//! [`DurabilityLevel`]: crate::DurabilityLevel
//! [`DurabilityLevel::Sync`]: crate::DurabilityLevel::Sync
//! [`DurabilityLevel::Async`]: crate::DurabilityLevel::Async
//! [`DurabilityConfig`]: crate::DurabilityConfig
//! [`DurabilityConfig::group_commit`]: crate::DurabilityConfig::group_commit

mod checkpoint;
mod recover;
mod store;
pub(crate) mod wal;

pub use checkpoint::{CheckpointReport, Checkpointer, CHECKPOINT_KEEP};
pub use recover::{recover_into, RecoveryReport, SETTLE, SETTLE_STEP};
pub(crate) use recover::{replay, scan};
pub use store::{DurabilityStats, DurabilityStore};
pub use wal::SEGMENT_MAX_RECORDS;
