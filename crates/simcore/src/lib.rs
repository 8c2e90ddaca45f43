//! # simcore — deterministic discrete-event simulation kernel
//!
//! The substrate under the whole Crucial reproduction: a virtual clock,
//! processes — inline actors and closures on stackful coroutines — scheduled
//! one-at-a-time by the kernel (so runs are **deterministic** given a
//! seed), mailboxes with latency models, a processor-sharing CPU resource,
//! local synchronization primitives, a compact binary codec, and
//! measurement helpers.
//!
//! ## Why a simulator?
//!
//! The paper evaluates on AWS (Lambda, S3, EC2, ElastiCache). Reproducing
//! its *experiments* therefore requires a stand-in for the cloud itself.
//! A DES lets us run 800 concurrent "Lambdas" and tens of thousands of
//! 35 ms object-store operations in seconds of wall-clock time, while the
//! shapes of the results (who wins, by what factor) come out of the same
//! protocols the paper describes.
//!
//! ## Quick tour
//!
//! ```
//! use simcore::{Sim, Msg};
//! use std::time::Duration;
//!
//! let mut sim = Sim::new(7);
//! let inbox = sim.mailbox("service");
//! // A server that doubles numbers.
//! sim.spawn_daemon("server", move |ctx| loop {
//!     let req = ctx.recv(inbox).take::<simcore::Request>();
//!     let (reply_to, n) = req.take::<u64>();
//!     ctx.compute(Duration::from_micros(20));     // service time
//!     ctx.reply(reply_to, n * 2, Duration::from_micros(90));
//! });
//! sim.spawn("client", move |ctx| {
//!     let doubled: u64 = ctx.call(inbox, 21u64, Duration::from_micros(90));
//!     assert_eq!(doubled, 42);
//! });
//! sim.run_until_idle().expect_quiescent();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// The one exception is `coro`, the coroutine switch and its stacks.
#![deny(unsafe_code)]

// `#[derive(Wire)]` names the trait as `::simcore::codec::Wire`; this makes
// that path resolve inside this crate too.
extern crate self as simcore;

mod coro;
mod kernel;
mod latency;
mod metrics;
mod slab;
mod symbol;
mod time;
mod timer;
mod wheel;

pub mod codec;
pub mod cpu;
pub mod detect;
pub mod explore;
pub mod scheduler;
pub mod sync;
pub mod trace;

pub use cpu::CpuHost;
pub use detect::{DeadlockReport, StuckProc, WaitAnnotation, WaitKind};
pub use kernel::{Actor, Addr, Ctx, Msg, Pid, Proc, Request, RunOutcome, Sim, Wait, Wake};
pub use latency::{Jitter, LatencyModel};
pub use metrics::{fsum, Counter, LatencyStats, MetricsRegistry, Series};
pub use scheduler::{Decision, FifoScheduler, RandomScheduler, ReplayScheduler, Scheduler};
pub use slab::Slab;
pub use time::SimTime;
pub use timer::Ticker;
pub use trace::{SpanId, SpanKind, SpanRecord, TraceCtx, Tracer};
pub use wheel::{EntryHandle, EventQueueStats, TimingWheel};
