//! # crucial-ml — the paper's machine-learning workloads
//!
//! Everything §6.2 and §6.4 run: deterministic spark-perf-style data
//! generation ([`datagen`]), the calibrated compute-cost model mapping the
//! 100 GB / 55.6 M-point workload onto virtual time ([`cost`]), the custom
//! `@Shared` aggregation objects ([`objects`]), and complete k-means
//! ([`kmeans`]) and logistic-regression ([`logreg`]) implementations on
//! four substrates:
//!
//! * **Crucial** — cloud threads + DSO objects (Listing 2),
//! * **mini-Spark** — the MLlib-style BSP baseline (Figs. 4–5),
//! * **Redis-backed** — Crucial with its mutable state swapped to
//!   single-threaded Redis scripts (Fig. 5's third series),
//! * **single VM** — plain threads with core contention (Fig. 3).
//!
//! [`inference`] adds the Fig. 8 serving experiment over a replicated
//! model with node crash and arrival.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod cost;
pub mod datagen;
pub mod elastic;
pub mod inference;
pub mod kmeans;
pub mod logreg;
pub mod objects;
