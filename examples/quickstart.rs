//! Quickstart: Listing 1 of the paper — a Monte Carlo estimation of π
//! with cloud threads and one shared counter.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use crucial::prelude::*;
use rand::RngExt;

/// Points each cloud thread draws (paper scale: 100 M; the simulator
/// charges the full virtual compute time but samples a capped subset).
const ITERATIONS: u64 = 100_000_000;
const N_THREADS: usize = 16;

/// Listing 1's `PiEstimator implements Runnable`.
#[derive(Wire)]
struct PiEstimator {
    counter: AtomicLong, // @Shared(key = "counter")
}

impl Runnable for PiEstimator {
    fn run(&mut self, env: &mut FnEnv<'_, '_>) -> RunResult {
        // Draw a capped real sample, extrapolate the hit count, and charge
        // the full virtual compute time.
        let real = ITERATIONS.min(50_000);
        let mut inside = 0u64;
        for _ in 0..real {
            let x: f64 = env.ctx().rng().random_range(0.0..1.0);
            let y: f64 = env.ctx().rng().random_range(0.0..1.0);
            if x * x + y * y <= 1.0 {
                inside += 1;
            }
        }
        let count = ((inside as f64 / real as f64) * ITERATIONS as f64) as i64;
        env.compute(crucial_ml::cost::monte_carlo_cost(ITERATIONS));
        let (ctx, dso) = env.dso();
        self.counter.add_and_get(ctx, dso, count).map_err(|e| e.to_string())?;
        Ok(())
    }
}

fn main() {
    // Deploy the stack: DSO tier + FaaS platform + object store.
    let mut sim = Sim::new(7);
    let dep = Deployment::start(&sim, CrucialConfig::default());
    dep.register::<PiEstimator>();
    let threads = dep.threads();
    let dso = dep.dso_handle();

    sim.spawn("main", move |ctx| {
        let counter = AtomicLong::new("counter");
        let runnables: Vec<PiEstimator> =
            (0..N_THREADS).map(|_| PiEstimator { counter: counter.clone() }).collect();
        let t0 = ctx.now();
        // threads.forEach(Thread::start); threads.forEach(Thread::join);
        let handles = threads.start_all(ctx, &runnables);
        join_all(ctx, handles).expect("cloud threads succeed");
        let mut cli = dso.connect();
        let inside = counter.get(ctx, &mut cli).expect("dso reachable");
        let pi = 4.0 * inside as f64 / (N_THREADS as u64 * ITERATIONS) as f64;
        println!("pi ≈ {pi:.6}  (error {:+.6})", pi - std::f64::consts::PI);
        println!(
            "{N_THREADS} cloud threads × {ITERATIONS} points in {:?} of simulated time",
            ctx.now() - t0
        );
    });
    sim.run_until_idle().expect_quiescent();
}
