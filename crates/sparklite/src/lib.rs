//! # sparklite — the Spark/EMR baseline
//!
//! A miniature BSP engine standing in for the paper's Apache Spark on EMR
//! comparator (§6.2.2): a driver service schedules one task per partition
//! onto multi-core executors, broadcasts shared values, and collects
//! ("reduces") task results — paying per-stage scheduling, dispatch and
//! shuffle costs each iteration. Those recurring costs are precisely what
//! Crucial's fine-grained DSO updates avoid, and what Figs. 4–5 measure.
//!
//! Also hosts [`LocalVm`], the single-machine multi-threaded baseline of
//! Fig. 3 and Fig. 7c.
//!
//! ## Example
//!
//! ```
//! use simcore::Sim;
//! use sparklite::{spawn_cluster, SparkCostModel, TaskRegistry};
//! use std::time::Duration;
//!
//! let mut sim = Sim::new(1);
//! let registry = TaskRegistry::new();
//! registry.register("count", |part, _bcast, _args| {
//!     let n = part.len() as u64;
//!     (simcore::codec::to_bytes(&n).unwrap(), Duration::from_millis(1))
//! });
//! let spark = spawn_cluster(&sim, 2, 4, SparkCostModel::default(), registry);
//! sim.spawn("driver-app", move |ctx| {
//!     spark.load_partitions(ctx, vec![vec![0; 10], vec![0; 20]]);
//!     let counts: Vec<u64> = spark
//!         .run_stage(ctx, "count", Vec::new())
//!         .iter()
//!         .map(|r| simcore::codec::from_bytes(r).unwrap())
//!         .collect();
//!     assert_eq!(counts, vec![10, 20]);
//! });
//! sim.run_until_idle().expect_quiescent();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod cluster;
mod cost;
mod vm;

pub use cluster::{spawn_cluster, SparkHandle, TaskFn, TaskRegistry};
pub use cost::{ClusterPricing, SparkCostModel};
pub use vm::LocalVm;
