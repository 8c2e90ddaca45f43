//! # bench — the experiment harness
//!
//! One function per table/figure of the paper's evaluation (§6), each
//! returning a structured result and able to print itself next to the
//! paper's reported numbers. The `experiments` binary dispatches on a
//! subcommand (`table2`, `fig2a`, …, `all`).
//!
//! Scale note: the default parameters are slimmed so the whole suite runs
//! in minutes; `--paper` switches every experiment to the paper's full
//! parameters (slower, same shapes).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]
// The determinism bans, off for the package for the `benchmark` binary's sake.
#![warn(clippy::disallowed_macros, clippy::disallowed_methods, clippy::disallowed_types)]

pub mod experiments;
pub mod report;

pub use report::Table;
