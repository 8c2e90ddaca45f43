//! Logistic regression — Crucial cloud-thread version.
use crucial::{CyclicBarrier, FnEnv, RunResult, Runnable};
use crucial_ml::objects::WeightsHandle;
use simcore::codec::Wire;

#[derive(Wire)]
struct LogReg {
    worker_id: u32,
    workers: u32,
    iterations: u32,
    learning_rate: f64,
    weights: WeightsHandle,
    barrier: CyclicBarrier,
}

impl Runnable for LogReg {
    fn run(&mut self, env: &mut FnEnv<'_, '_>) -> RunResult {
        let (points, labels) = load_dataset_fragment(self.worker_id);
        for _ in 0..self.iterations {
            let (ctx, dso) = env.dso();
            let (_generation, w) = self.weights.read(ctx, dso).map_err(|e| e.to_string())?;
            let (grad, loss) = gradient_and_loss(&points, &labels, &w);
            let (ctx, dso) = env.dso();
            self.weights
                .update(ctx, dso, &grad, loss)
                .map_err(|e| e.to_string())?;
            self.barrier.wait(ctx, dso).map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}
