//! Correctness tooling for the workspace, as two CI gates:
//!
//! - `simexplore` replays a DSO cluster smoke workload under perturbed
//!   schedules and checks each history for linearizability;
//! - `tracecheck` schema-validates a Chrome trace export, with the parser
//!   in [`json`].
//!
//! The determinism rules themselves (no host clock, no native thread, no
//! seeded hasher, no process-wide state, no panic on the DSO path) are
//! clippy bans and lint levels; `fixtures/check.sh` holds them to their
//! cases.

#![forbid(unsafe_code)]

pub mod json;
