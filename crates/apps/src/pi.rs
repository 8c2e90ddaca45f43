//! The Monte Carlo π estimation of Listing 1 — the paper's "hello world"
//! (Fig. 2b's scalability experiment, and the map phase of Fig. 6).
//!
//! The real sampling runs on a capped number of draws; virtual time is
//! charged for the full (paper-scale) number of points through
//! [`crucial_ml::cost::monte_carlo_cost`].

use std::sync::Arc;
use std::time::Duration;

use crucial::{
    join_all, AtomicLong, CrucialConfig, CyclicBarrier, Deployment, FnEnv, RunResult, Runnable, Sim,
};
use crucial_ml::cost::monte_carlo_cost;
use parking_lot::Mutex;
use rand::RngExt;
use simcore::codec::Wire;

/// Maximum real samples drawn per invocation; beyond this the hit count is
/// extrapolated (the estimate's variance is the capped sample's).
pub const REAL_SAMPLE_CAP: u64 = 50_000;

/// Draws `points` Monte Carlo samples (capped real work, extrapolated
/// count) and returns how many fell inside the unit circle.
// table4: local crucial
pub fn sample_hits(rng: &mut rand::rngs::StdRng, points: u64) -> i64 {
    let real = points.min(REAL_SAMPLE_CAP);
    let mut inside = 0u64;
    for _ in 0..real {
        let x: f64 = rng.random_range(0.0..1.0);
        let y: f64 = rng.random_range(0.0..1.0);
        if x * x + y * y <= 1.0 {
            inside += 1;
        }
    }
    if real == points {
        inside as i64
    } else {
        ((inside as f64 / real as f64) * points as f64).round() as i64
    }
}
// table4: end

/// Listing 1's `PiEstimator` runnable.
#[derive(Clone, Wire)]
pub struct PiEstimator {
    /// Paper-scale points this thread draws (`ITERATIONS` in Listing 1).
    pub points: u64,
    /// `@Shared(key = "counter")`.
    pub counter: AtomicLong,
    /// Optional start barrier so measurements exclude cold starts.
    pub start_barrier: Option<CyclicBarrier>,
}

// table4: crucial
impl Runnable for PiEstimator {
    fn run(&mut self, env: &mut FnEnv<'_, '_>) -> RunResult {
        if let Some(b) = &self.start_barrier {
            let (ctx, dso) = env.dso();
            b.wait(ctx, dso).map_err(|e| e.to_string())?;
        }
        let inside = sample_hits(env.ctx().rng(), self.points);
        env.compute(monte_carlo_cost(self.points));
        let (ctx, dso) = env.dso();
        self.counter.add_and_get(ctx, dso, inside).map_err(|e| e.to_string())?;
        Ok(())
    }
}
// table4: end

/// Outcome of a π run.
#[derive(Clone, Debug)]
pub struct PiReport {
    /// The estimate of π.
    pub estimate: f64,
    /// Wall time of the measured (post-barrier) phase.
    pub duration: Duration,
    /// Aggregate sampling throughput (points per second).
    pub points_per_sec: f64,
}

/// Runs Listing 1 with `threads` cloud threads of `points_per_thread`
/// paper-scale points each (Fig. 2b's workload).
pub fn run_pi_crucial(seed: u64, threads: u32, points_per_thread: u64) -> PiReport {
    run_pi_crucial_with(seed, threads, points_per_thread, |_| {})
}

/// [`run_pi_crucial`] with a hook that runs against the fresh [`Sim`]
/// before any process is spawned — the place to install a
/// [`crucial::Tracer`] or [`crucial::MetricsRegistry`].
pub fn run_pi_crucial_with(
    seed: u64,
    threads: u32,
    points_per_thread: u64,
    setup: impl FnOnce(&Sim),
) -> PiReport {
    let mut sim = Sim::new(seed);
    setup(&sim);
    let dep = Deployment::start(&sim, CrucialConfig::default());
    dep.register::<PiEstimator>();
    let factory = dep.threads();
    let dso = dep.dso_handle();
    let out: Arc<Mutex<Option<PiReport>>> = Arc::new(Mutex::new(None));
    let out2 = out.clone();
    sim.spawn("pi-master", move |ctx| {
        let counter = AtomicLong::new("counter");
        // threads + 1: the master participates to timestamp the barrier
        // release (excluding cold starts, as the paper does).
        let barrier = CyclicBarrier::new("start", threads + 1);
        let runnables: Vec<PiEstimator> = (0..threads)
            .map(|_| PiEstimator {
                points: points_per_thread,
                counter: counter.clone(),
                start_barrier: Some(barrier.clone()),
            })
            .collect();
        // The measurement includes starting the cloud threads (the paper
        // attributes Fig. 2b's sub-linearity to "the overhead of thread
        // creation") and the barrier keeps the sampling phase aligned.
        let t0 = ctx.now();
        let handles = factory.start_all(ctx, &runnables);
        let mut cli = dso.connect();
        barrier.wait(ctx, &mut cli).expect("all threads started");
        join_all(ctx, handles).expect("pi threads succeed");
        let duration = ctx.now() - t0;
        let inside = counter.get(ctx, &mut cli).expect("dso");
        let total = threads as u64 * points_per_thread;
        *out2.lock() = Some(PiReport {
            estimate: 4.0 * inside as f64 / total as f64,
            duration,
            points_per_sec: total as f64 / duration.as_secs_f64(),
        });
    });
    sim.run_until_idle().expect_quiescent();
    let report = out.lock().take().expect("master finished");
    report
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::rc::Rc;

    use crucial::Ctx;
    use rand::SeedableRng;

    use super::*;

    /// The single-machine twin of [`PiEstimator`]: a simulated local
    /// thread that adds its hits to a plain shared counter.
    struct LocalPiEstimator {
        points: u64,
        counter: Rc<Cell<i64>>,
    }

    // table4: local
    impl LocalPiEstimator {
        fn run(&mut self, ctx: &mut Ctx) {
            let inside = sample_hits(ctx.rng(), self.points);
            self.counter.set(self.counter.get() + inside);
        }
    }
    // table4: end

    /// Runs the local twin with `threads` threads; returns its estimate.
    fn run_pi_local(seed: u64, threads: u32, points_per_thread: u64) -> f64 {
        let mut sim = Sim::new(seed);
        let counter = Rc::new(Cell::new(0));
        for t in 0..threads {
            let mut estimator =
                LocalPiEstimator { points: points_per_thread, counter: counter.clone() };
            sim.spawn(&format!("pi-{t}"), move |ctx| estimator.run(ctx));
        }
        sim.run_until_idle().expect_quiescent();
        4.0 * counter.get() as f64 / (threads as u64 * points_per_thread) as f64
    }

    #[test]
    fn local_twin_agrees_with_crucial() {
        let local = run_pi_local(3, 8, 1_000_000);
        let crucial = run_pi_crucial(3, 8, 1_000_000).estimate;
        assert!((local - crucial).abs() < 0.05, "local {local} vs crucial {crucial}");
    }

    #[test]
    fn sample_hits_estimates_pi() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let inside = sample_hits(&mut rng, 40_000);
        let pi = 4.0 * inside as f64 / 40_000.0;
        assert!((pi - std::f64::consts::PI).abs() < 0.05, "pi ≈ {pi}");
    }

    #[test]
    fn extrapolation_beyond_cap() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let inside = sample_hits(&mut rng, 100 * REAL_SAMPLE_CAP);
        let pi = 4.0 * inside as f64 / (100 * REAL_SAMPLE_CAP) as f64;
        assert!((pi - std::f64::consts::PI).abs() < 0.05, "pi ≈ {pi}");
    }

    #[test]
    fn crucial_pi_end_to_end() {
        let report = run_pi_crucial(3, 8, 1_000_000);
        assert!((report.estimate - std::f64::consts::PI).abs() < 0.05, "pi ≈ {}", report.estimate);
        // 1M points at ~11M/s ≈ 91ms of compute, behind one cold start
        // (~1.5 s) and the per-thread start overhead.
        assert!(report.duration > Duration::from_millis(1500), "{:?}", report.duration);
        assert!(report.duration < Duration::from_millis(3000), "{:?}", report.duration);
    }

    #[test]
    fn throughput_scales_with_threads() {
        let t8 = run_pi_crucial(4, 8, 2_000_000);
        let t32 = run_pi_crucial(4, 32, 2_000_000);
        let speedup = t32.points_per_sec / t8.points_per_sec;
        assert!(speedup > 3.0 && speedup < 4.2, "32 threads should be ~4x of 8 threads: {speedup}");
    }
}
