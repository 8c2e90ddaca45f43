//! Monte Carlo π estimation — Crucial cloud-thread version.
use crucial::{AtomicLong, FnEnv, RunResult, Runnable};
use simcore::codec::Wire;

const ITERATIONS: u64 = 100_000_000;
const N_THREADS: usize = 8;

#[derive(Wire)]
struct PiEstimator {
    counter: AtomicLong,
}

impl Runnable for PiEstimator {
    fn run(&mut self, env: &mut FnEnv<'_, '_>) -> RunResult {
        let rng = env.ctx().rng();
        let mut count = 0i64;
        for _ in 0..ITERATIONS {
            let x: f64 = rng.random_range(0.0..1.0);
            let y: f64 = rng.random_range(0.0..1.0);
            if x * x + y * y <= 1.0 {
                count += 1;
            }
        }
        let (ctx, dso) = env.dso();
        self.counter.add_and_get(ctx, dso, count).map_err(|e| e.to_string())?;
        Ok(())
    }
}

fn main(ctx: &mut simcore::Ctx, dep: &crucial::Deployment) {
    let counter = AtomicLong::new("counter");
    let factory = dep.threads();
    let mut threads = Vec::with_capacity(N_THREADS);
    for _ in 0..N_THREADS {
        let estimator = PiEstimator {
            counter: counter.clone(),
        };
        threads.push(factory.start(ctx, &estimator));
    }
    for t in threads {
        t.join(ctx).unwrap();
    }
    let mut cli = dep.dso_handle().connect();
    let inside = counter.get(ctx, &mut cli).unwrap();
    let output = 4.0 * inside as f64 / (N_THREADS as u64 * ITERATIONS) as f64;
    println!("pi ≈ {output}");
}
