//! # cloudstore — the storage baselines the paper compares against
//!
//! Simulated equivalents of the AWS services used in the evaluation:
//!
//! * [`s3`] — a disaggregated object store with ~23–35 ms operations, long
//!   latency tails and an optional eventual-consistency window (Table 2,
//!   Fig. 6's PyWren/S3 synchronization baseline).
//! * [`redis`] — a sharded, single-threaded in-memory KV store with
//!   server-side scripts (Table 2's Redis row, Fig. 2a, the Redis tier of
//!   Fig. 5).
//! * [`queue`] — SQS-like polling queues and an SNS-like topic service
//!   (the synchronization baselines of Fig. 6 and Fig. 7a).
//!
//! Each service is a handful of simulated processes with a calibrated
//! latency/cost profile; see `DESIGN.md` for the calibration table.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod queue;
pub mod redis;
pub mod s3;

pub use queue::{spawn_sns, spawn_sqs, QueueConfig, SnsHandle, SqsHandle};
pub use redis::{spawn_redis, RedisHandle, RedisScript, ScriptRegistry};
pub use s3::{spawn_s3, S3Config, S3Handle};
