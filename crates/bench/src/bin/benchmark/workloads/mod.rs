//! The six workloads. Each `run` builds one fresh simulation from the
//! seed, drives it to quiescence, checks its outputs, and returns what it
//! measured. Nothing but the seed varies between two calls: virtual-time
//! numbers and counts repeat exactly, host times do not.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use simcore::{Ctx, MetricsRegistry, Sim, SpanId, TraceCtx, Tracer};

use crate::procfs::HostCounters;

mod app_kmeans;
mod dso_rw;
mod durable;
mod faas_fanout;
mod kernel_ring;

/// Workload names, in the order the full run interleaves them.
pub const NAMES: [&str; 6] = [
    "kernel_msg_ring",
    "dso_write_smr",
    "dso_read_hot",
    "faas_fanout",
    "app_kmeans",
    "durable_crash_recover",
];

/// How much work one simulation does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The measured size: 0.4–1.2 s of host time per simulation.
    Full,
    /// The same shape at a size all six finish in under three seconds
    /// together; for the tests.
    Smoke,
}

impl Scale {
    pub fn pick<T>(self, smoke: T, full: T) -> T {
        match self {
            Scale::Smoke => smoke,
            Scale::Full => full,
        }
    }
}

/// What a run installs on the simulation besides the workload.
#[derive(Clone, Default)]
pub struct Observe {
    /// Span collector and metric sink of the traced pass; timed runs
    /// install neither.
    pub tracing: Option<(Tracer, MetricsRegistry)>,
    /// Sample `/proc` around the timed region.
    pub host_counters: bool,
}

impl Observe {
    pub fn traced() -> Observe {
        Observe { tracing: Some((Tracer::new(), MetricsRegistry::new())), host_counters: false }
    }

    pub fn install(&self, sim: &Sim) {
        if let Some((tracer, metrics)) = &self.tracing {
            sim.set_tracer(tracer);
            sim.set_metrics(metrics);
        }
    }
}

/// Host clock around one simulation: set-up, then the timed region.
pub struct Stopwatch {
    // simlint: allow(wall-clock, reason = "the benchmark measures the simulator's own host time; the reading never flows into simulated state")
    started: std::time::Instant,
    // simlint: allow(wall-clock, reason = "as above: host time of the timed region")
    timed_from: Option<(std::time::Instant, Option<HostCounters>)>,
}

/// Host cost of one simulation.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostCost {
    /// Start of the run to start of the timed region.
    pub setup: Duration,
    /// The timed region.
    pub wall: Duration,
    /// `/proc` deltas over the timed region, when asked for.
    pub counters: Option<HostCounters>,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        // simlint: allow(wall-clock, reason = "host time of the benchmark's set-up phase")
        Stopwatch { started: std::time::Instant::now(), timed_from: None }
    }

    /// Ends set-up and opens the timed region.
    pub fn begin_timed(&mut self, obs: &Observe) {
        let counters = obs.host_counters.then(HostCounters::sample);
        // simlint: allow(wall-clock, reason = "host time of the timed region")
        self.timed_from = Some((std::time::Instant::now(), counters));
    }

    /// Closes the timed region.
    pub fn end_timed(self) -> HostCost {
        // simlint: allow(wall-clock, reason = "host time of the timed region")
        let now = std::time::Instant::now();
        let (from, before) = self.timed_from.expect("begin_timed ran");
        HostCost {
            setup: from - self.started,
            wall: now - from,
            counters: before.map(|b| HostCounters::sample().since(&b)),
        }
    }
}

/// Everything one simulation reports.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    pub host: HostCost,
    /// Ops issued inside the measurement window.
    pub attempted: u64,
    /// Of those, ops that failed, were shed or timed out.
    pub failed: u64,
    /// Of those, ops completed: the divisor of every per-op figure.
    pub ops: u64,
    /// Kernel events fired in the timed region; 0 where the simulation is
    /// owned by an application entry point that does not expose it.
    pub events: u64,
    /// Completed ops per virtual second.
    pub sim_ops_per_s: f64,
    /// Client-observed op latencies, virtual ns, ascending; empty where
    /// an op has no client that waits for it (a ring hop) or the
    /// application does not expose them (k-means).
    pub latencies_ns: Vec<u64>,
    /// Virtual time to finish the workload's fixed work.
    pub sim_makespan_s: f64,
    /// Dollars at `faas::Pricing` defaults; 0 where nothing is billed.
    pub sim_cost_usd: f64,
    /// Full-cluster crash to first read served; 0 where nothing crashes.
    pub sim_recovery_s: f64,
    /// Virtual window `[from, to)` ns the op-level figures cover; the
    /// traced pass attributes the spans that start inside it.
    pub window_ns: (u64, u64),
    /// Name of the span that is one op in the traced pass.
    pub root_span: &'static str,
    /// Workload-specific exact values: per-layer metrics only this
    /// workload can supply, by metric name.
    pub extra: Vec<(&'static str, f64)>,
    /// Output checks that failed; empty means the run is correct.
    pub check_failures: Vec<String>,
}

impl Rep {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// Failed, shed and timed-out ops as a share of those attempted.
    pub fn failed_op_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The virtual-time results and counts that must repeat exactly for a
    /// seed, as one comparable string.
    pub fn fingerprint(&self) -> String {
        format!(
            "ops={} attempted={} failed={} events={} ops_per_s={:?} makespan={:?} \
             cost={:?} recovery={:?} lat_n={} lat_sum={} extra={:?}",
            self.ops,
            self.attempted,
            self.failed,
            self.events,
            self.sim_ops_per_s,
            self.sim_makespan_s,
            self.sim_cost_usd,
            self.sim_recovery_s,
            self.latencies_ns.len(),
            self.latencies_ns.iter().sum::<u64>(),
            self.extra,
        )
    }
}

/// Runs the named workload once.
pub fn run(name: &str, seed: u64, scale: Scale, obs: &Observe) -> Option<Rep> {
    Some(match name {
        "kernel_msg_ring" => kernel_ring::run(seed, scale, obs),
        "dso_write_smr" => dso_rw::write_smr(seed, scale, obs),
        "dso_read_hot" => dso_rw::read_hot(seed, scale, obs),
        "faas_fanout" => faas_fanout::run(seed, scale, obs),
        "app_kmeans" => app_kmeans::run(seed, scale, obs),
        "durable_crash_recover" => durable::run(seed, scale, obs),
        _ => return None,
    })
}

/// The window of a workload whose every op counts.
const WHOLE_RUN: (u64, u64) = (0, u64::MAX);

/// Kernel events fired so far: total pushes minus still pending.
fn events_fired(sim: &Sim) -> u64 {
    let s = sim.event_queue_stats();
    (s.allocated_nodes + s.recycled_pushes).saturating_sub(s.len as u64)
}

/// Op accounting shared by the closed-loop client processes of one
/// simulation. Host-side bookkeeping only: one simulated process runs at
/// a time, so none of it is contended.
#[derive(Default)]
struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
    /// In-window latencies, ns, merged by each client as it exits.
    latencies: Mutex<Vec<u64>>,
}

impl Tally {
    /// Accounts one finished op: counted only when it was issued inside
    /// the window, its latency kept (in the client's `local` vector, merged
    /// at exit) only when it also succeeded.
    fn record(&self, local: &mut Vec<u64>, in_window: bool, ok: bool, latency: Duration) {
        if !in_window {
            return;
        }
        self.attempted.fetch_add(1, Ordering::Relaxed);
        if ok {
            local.push(latency.as_nanos() as u64);
        } else {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn merge(&self, local: Vec<u64>) {
        self.latencies.lock().expect("no client panicked holding the tally").extend(local);
    }

    /// Fills the op-level fields of `rep` for a window of `window` virtual
    /// time.
    fn fill(&self, rep: &mut Rep, window: Duration) {
        let mut lat = std::mem::take(
            &mut *self.latencies.lock().expect("no client panicked holding the tally"),
        );
        lat.sort_unstable();
        rep.attempted = self.attempted.load(Ordering::Relaxed);
        rep.failed = self.failed.load(Ordering::Relaxed);
        rep.ops = lat.len() as u64;
        rep.sim_ops_per_s = rep.ops as f64 / window.as_secs_f64();
        rep.latencies_ns = lat;
    }
}

/// Runs `op` as one benchmark op. In the traced pass the op gets a
/// `bench.op` root span and the process's trace context moves under it,
/// so every span the layers record for the op can be attributed; untraced
/// it is the bare call.
fn traced_op<R>(ctx: &mut Ctx, traced: bool, op: impl FnOnce(&mut Ctx) -> R) -> R {
    if !traced {
        return op(ctx);
    }
    let root = ctx.span_begin_under(SpanId::NONE, "bench.op", "bench");
    let outer = ctx.set_trace_ctx(TraceCtx::under(root));
    let r = op(ctx);
    ctx.set_trace_ctx(outer);
    ctx.span_end(root);
    r
}
