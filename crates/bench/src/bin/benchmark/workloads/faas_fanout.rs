//! `faas_fanout` — invocation churn: closed-loop drivers each starting and
//! joining tiny cloud threads in sequence, plus one burst of single-thread
//! drivers arriving together, which the warm pool cannot absorb. `faas::platform`
//! (dispatch, pool, cold starts, billing) and `crucial` thread start do
//! most of the work, with one small DSO call per op.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use simcore::{Sim, SimTime};

use crucial::{AtomicLong, CrucialConfig, Deployment};
use crucial_apps::pi::{PiEstimator, REAL_SAMPLE_CAP};

use super::{events_fired, traced_op, Observe, Rep, Scale, Stopwatch, Tally, WHOLE_RUN};

/// Points a sequential driver's thread draws: 91 µs of modelled compute,
/// so dispatch dominates the op.
const POINTS: u64 = 1_000;
/// Points a burst thread draws: 50 ms of modelled compute, so the warm
/// pool cannot turn the burst around inside its arrival window and most
/// of it cold-starts. Above the real-sample cap: the hits are extrapolated.
const BURST_POINTS: u64 = 550_000;

pub fn run(seed: u64, scale: Scale, obs: &Observe) -> Rep {
    let drivers: u32 = scale.pick(4, 16);
    let per_driver: u32 = scale.pick(3, 250);
    let burst: u32 = scale.pick(8, 200);
    let burst_at = SimTime::ZERO + scale.pick(Duration::from_millis(500), Duration::from_secs(5));
    let threads = u64::from(drivers * per_driver + burst);
    let traced = obs.tracing.is_some();

    let mut watch = Stopwatch::start();
    let mut sim = Sim::new(seed);
    obs.install(&sim);
    let dep = Deployment::start(&sim, CrucialConfig::default());
    dep.register::<PiEstimator>();
    let tally = Arc::new(Tally::default());
    let finished_ns = Arc::new(AtomicU64::new(0));
    let job =
        |points| PiEstimator { points, counter: AtomicLong::new("hits"), start_barrier: None };
    // Sequential drivers start at 0; each burst thread has a driver of its
    // own, all firing at `burst_at`, so the platform sees them at once.
    for d in 0..drivers + burst {
        let factory = dep.threads();
        let (tally, finished_ns) = (tally.clone(), finished_ns.clone());
        let (starts_at, ops, job) = if d < drivers {
            (SimTime::ZERO, per_driver, job(POINTS))
        } else {
            (burst_at, 1, job(BURST_POINTS))
        };
        sim.spawn(&format!("driver-{d}"), move |ctx| {
            ctx.sleep(starts_at.duration_since(ctx.now()));
            let mut lat = Vec::new();
            for _ in 0..ops {
                let t0 = ctx.now();
                let r = traced_op(ctx, traced, |ctx| factory.start(ctx, &job).join(ctx));
                tally.record(&mut lat, true, r.is_ok(), ctx.now() - t0);
            }
            finished_ns.fetch_max(ctx.now().as_nanos(), Ordering::Relaxed);
            tally.merge(lat);
        });
    }
    watch.begin_timed(obs);
    let out = sim.run_until_idle();
    let host = watch.end_timed();
    out.expect_quiescent();

    // Untimed: read the shared counter back now that every thread joined,
    // and with it the object's version, which counts its mutations.
    let hits = Arc::new(AtomicI64::new(-1));
    let adds = Arc::new(AtomicU64::new(0));
    {
        let (dso, hits, adds) = (dep.dso_handle(), hits.clone(), adds.clone());
        sim.spawn("verifier", move |ctx| {
            let mut cli = dso.connect();
            let counter = AtomicLong::new("hits");
            let v = counter.get(ctx, &mut cli).expect("dso serves reads");
            hits.store(v, Ordering::Relaxed);
            adds.store(cli.observed_version(counter.raw().object_ref()), Ordering::Relaxed);
        });
    }
    let events = events_fired(&sim);
    sim.run_until_idle().expect_quiescent();

    let makespan = Duration::from_nanos(finished_ns.load(Ordering::Relaxed));
    let billing = dep.faas.billing();
    let mut rep = Rep {
        host,
        events,
        sim_makespan_s: makespan.as_secs_f64(),
        sim_cost_usd: billing.cost(dep.faas.config().pricing),
        window_ns: WHOLE_RUN,
        root_span: "bench.op",
        ..Rep::default()
    };
    tally.fill(&mut rep, makespan);
    let joined = rep.ops;
    rep.check(joined == threads, || format!("joined {joined} cloud threads, expected {threads}"));
    let billed = billing.invocations() as u64;
    rep.check(billed == threads, || format!("{billed} invocations billed for {threads} threads"));
    // Every thread adds its hits exactly once: a lost or twice-applied add
    // of even one thread shows in the number of mutations the counter has
    // seen. What was added is only known to the threads, so the sum is
    // checked as an estimate: π/4 of all points, within 6 sigma. A thread
    // above the sample cap scales up its capped draw, and its variance
    // with it.
    let adds = adds.load(Ordering::Relaxed);
    rep.check(adds == threads, || format!("{adds} adds reached the counter of {threads} threads"));
    let hits = hits.load(Ordering::Relaxed);
    let p = std::f64::consts::FRAC_PI_4;
    let sequential = u64::from(drivers * per_driver) * POINTS;
    let points = (sequential + u64::from(burst) * BURST_POINTS) as f64;
    let burst_var = f64::from(burst) * (BURST_POINTS as f64).powi(2) / REAL_SAMPLE_CAP as f64;
    let sigma = ((sequential as f64 + burst_var) * p * (1.0 - p)).sqrt();
    rep.check((hits as f64 - points * p).abs() < 6.0 * sigma, || {
        format!("shared counter {hits} is not a hit count of {points} points (sigma {sigma:.0})")
    });
    rep.extra.push(("faas.billing.gb_seconds", billing.gb_seconds()));
    rep.extra
        .push(("faas.platform.cold_start_ratio", billing.cold_starts() as f64 / threads as f64));
    rep.extra.push(("crucial.pi.hits", hits as f64));
    rep
}
