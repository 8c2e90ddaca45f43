//! k-means clustering — Crucial cloud-thread version (Listing 2).
use crucial::{AtomicLong, CyclicBarrier, FnEnv, RunResult, Runnable};
use crucial_ml::objects::{CentroidsHandle, DeltaHandle};
use simcore::codec::Wire;

#[derive(Wire)]
struct KMeans {
    worker_id: u32,
    workers: u32,
    k: usize,
    max_iterations: u32,
    centroids: CentroidsHandle,
    delta: DeltaHandle,
    global_iter_count: AtomicLong,
    barrier: CyclicBarrier,
}

impl Runnable for KMeans {
    fn run(&mut self, env: &mut FnEnv<'_, '_>) -> RunResult {
        let points = load_dataset_fragment(self.worker_id);
        let mut iter_count = 0;
        loop {
            let (ctx, dso) = env.dso();
            let (generation, correct_centroids) =
                self.centroids.read(ctx, dso).map_err(|e| e.to_string())?;
            let (sums, counts, local_delta) = compute_clusters(&points, &correct_centroids);
            {
                let (ctx, dso) = env.dso();
                self.delta
                    .add(ctx, dso, generation, local_delta)
                    .map_err(|e| e.to_string())?;
                self.centroids
                    .update(ctx, dso, &sums, &counts)
                    .map_err(|e| e.to_string())?;
            }
            let (ctx, dso) = env.dso();
            self.barrier.wait(ctx, dso).map_err(|e| e.to_string())?;
            self.global_iter_count
                .compare_and_set(ctx, dso, iter_count, iter_count + 1)
                .map_err(|e| e.to_string())?;
            iter_count += 1;
            if iter_count >= self.max_iterations || end_condition(generation) {
                break;
            }
        }
        Ok(())
    }
}
