//! Logistic regression with gradient descent (§6.2.2, Fig. 4): the Crucial
//! implementation against the MLlib-style `LogisticRegressionWithSGD`
//! baseline on mini-Spark.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use simcore::codec::Wire;

use crucial::{
    join_all, AtomicLong, CrucialConfig, CyclicBarrier, Deployment, FnEnv, RunResult, Runnable, Sim,
};
use sparklite::{spawn_cluster, ClusterPricing, SparkCostModel, TaskRegistry};

use crate::cost::{logreg_grad_cost, partition_load_cost, DatasetScale};
use crate::datagen::logreg_partition;
use crate::objects::{register_ml_objects, WeightsHandle, WeightsInit};

// ---------------------------------------------------------------------------
// Core math
// ---------------------------------------------------------------------------

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

/// One gradient pass over labelled points: `(gradient, logistic loss)`.
pub fn gradient_and_loss(points: &[Vec<f64>], labels: &[f64], w: &[f64]) -> (Vec<f64>, f64) {
    let mut grad = vec![0.0; w.len()];
    let mut loss = 0.0;
    for (x, &y) in points.iter().zip(labels) {
        let z: f64 = x.iter().zip(w).map(|(a, b)| a * b).sum();
        let p = sigmoid(z);
        let err = p - y;
        for (g, xi) in grad.iter_mut().zip(x) {
            *g += err * xi;
        }
        // Clamped log-loss for numerical safety.
        let p = p.clamp(1e-12, 1.0 - 1e-12);
        loss -= y * p.ln() + (1.0 - y) * (1.0 - p).ln();
    }
    let n = points.len().max(1) as f64;
    grad.iter_mut().for_each(|g| *g /= n);
    (grad, loss / n)
}

// ---------------------------------------------------------------------------
// Configuration and report
// ---------------------------------------------------------------------------

/// Parameters shared by both logistic-regression implementations.
#[derive(Clone, Debug, Wire)]
pub struct LogRegConfig {
    /// Simulation / data seed.
    pub seed: u64,
    /// Concurrent workers / partitions. Paper: 80.
    pub workers: u32,
    /// Gradient-descent iterations. Paper: 100 (Fig. 4).
    pub iterations: u32,
    /// Real points per worker for the math.
    pub sample_points: usize,
    /// Dimensions (paper: 100).
    pub dims: usize,
    /// SGD step size.
    pub learning_rate: f64,
    /// Paper-scale dataset for the cost model.
    pub scale: DatasetScale,
    /// Whether to model loading the input.
    pub include_load: bool,
    /// DSO storage nodes.
    pub dso_nodes: u32,
    /// Lambda memory (paper: 1792 MB for logistic regression).
    pub memory_mb: u32,
}

impl Default for LogRegConfig {
    fn default() -> Self {
        LogRegConfig {
            seed: 1,
            workers: 80,
            iterations: 100,
            sample_points: 250,
            dims: 100,
            learning_rate: 2.0,
            scale: DatasetScale::default(),
            include_load: true,
            dso_nodes: 1,
            memory_mb: 1792,
        }
    }
}

impl LogRegConfig {
    fn scale_for(&self) -> DatasetScale {
        DatasetScale { partitions: self.workers, ..self.scale }
    }
}

/// Outcome of one logistic-regression run.
#[derive(Clone, Debug)]
pub struct LogRegReport {
    /// Duration of the iteration phase (Fig. 4a).
    pub iteration_phase: Duration,
    /// End-to-end time including loading.
    pub total: Duration,
    /// Logistic loss after each iteration (Fig. 4b).
    pub loss_per_iteration: Vec<f64>,
    /// Dollar cost.
    pub cost_dollars: f64,
}

// ---------------------------------------------------------------------------
// Crucial implementation
// ---------------------------------------------------------------------------

/// Cloud-thread body: fetch weights, compute the local sub-gradient,
/// push it to the `GlobalWeights` object, synchronize (§6.2.2).
#[derive(Clone, Wire)]
pub struct LogRegWorker {
    /// Worker index.
    pub worker_id: u32,
    /// Shared configuration.
    pub cfg: LogRegConfig,
    /// The shared weight coefficients.
    pub weights: WeightsHandle,
    /// Iteration barrier.
    pub barrier: CyclicBarrier,
    /// Measured-phase instants (nanos), written by worker 0.
    pub t_start: AtomicLong,
    /// See `t_start`.
    pub t_end: AtomicLong,
}

impl Runnable for LogRegWorker {
    fn run(&mut self, env: &mut FnEnv<'_, '_>) -> RunResult {
        let scale = self.cfg.scale_for();
        if self.cfg.include_load {
            env.compute(partition_load_cost(&scale));
        }
        let part = logreg_partition(
            self.cfg.seed,
            self.worker_id as usize,
            self.cfg.sample_points,
            self.cfg.dims,
        );
        {
            let (ctx, dso) = env.dso();
            self.barrier.wait(ctx, dso).map_err(|e| e.to_string())?;
            if self.worker_id == 0 {
                let now = ctx.now().as_nanos() as i64;
                self.t_start.set(ctx, dso, now).map_err(|e| e.to_string())?;
            }
        }
        let grad_cost = logreg_grad_cost(&scale);
        for _ in 0..self.cfg.iterations {
            let (_generation, w) = {
                let (ctx, dso) = env.dso();
                self.weights.read(ctx, dso).map_err(|e| e.to_string())?
            };
            let (grad, loss) = gradient_and_loss(&part.points, &part.labels, &w);
            env.compute(grad_cost);
            {
                let (ctx, dso) = env.dso();
                self.weights.update(ctx, dso, &grad, loss).map_err(|e| e.to_string())?;
                self.barrier.wait(ctx, dso).map_err(|e| e.to_string())?;
            }
        }
        if self.worker_id == 0 {
            let (ctx, dso) = env.dso();
            let now = ctx.now().as_nanos() as i64;
            self.t_end.set(ctx, dso, now).map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}

/// Runs logistic regression on Crucial.
pub fn run_crucial_logreg(cfg: &LogRegConfig) -> LogRegReport {
    let mut sim = Sim::new(cfg.seed);
    let mut ccfg = CrucialConfig { dso_nodes: cfg.dso_nodes, ..CrucialConfig::default() };
    register_ml_objects(&mut ccfg.registry);
    let dep = Deployment::start(&sim, ccfg);
    dep.register_with_memory::<LogRegWorker>(cfg.memory_mb);
    let threads = dep.threads();
    let dso = dep.dso_handle();
    let billing = dep.faas.billing().clone();
    let pricing = dep.faas.config().pricing;
    let out: Arc<Mutex<Option<LogRegReport>>> = Arc::new(Mutex::new(None));
    let out2 = out.clone();
    let cfg = cfg.clone();
    sim.spawn("logreg-master", move |ctx| {
        let weights = WeightsHandle::new(
            "weights",
            WeightsInit {
                dims: cfg.dims as u32,
                workers: cfg.workers,
                learning_rate: cfg.learning_rate,
            },
        );
        let barrier = CyclicBarrier::new("iter-barrier", cfg.workers);
        let t_start = AtomicLong::new("t-start");
        let t_end = AtomicLong::new("t-end");
        let workers: Vec<LogRegWorker> = (0..cfg.workers)
            .map(|worker_id| LogRegWorker {
                worker_id,
                cfg: cfg.clone(),
                weights: weights.clone(),
                barrier: barrier.clone(),
                t_start: t_start.clone(),
                t_end: t_end.clone(),
            })
            .collect();
        let t_total0 = ctx.now();
        let handles = threads.start_all(ctx, &workers);
        join_all(ctx, handles).expect("logreg cloud threads succeed");
        let total = ctx.now() - t_total0;
        let mut cli = dso.connect();
        let start_ns = t_start.get(ctx, &mut cli).expect("t_start written");
        let end_ns = t_end.get(ctx, &mut cli).expect("t_end written");
        let losses = weights.losses(ctx, &mut cli).expect("loss history");
        *out2.lock() = Some(LogRegReport {
            iteration_phase: Duration::from_nanos((end_ns - start_ns).max(0) as u64),
            total,
            loss_per_iteration: losses,
            cost_dollars: billing.cost(pricing),
        });
    });
    sim.run_until_idle().expect_quiescent();
    let report = out.lock().take().expect("master finished");
    report
}

// ---------------------------------------------------------------------------
// Spark implementation
// ---------------------------------------------------------------------------

/// Cost model for `LogisticRegressionWithSGD` on EMR: one treeAggregate
/// stage per iteration with modest scheduling overhead (see
/// EXPERIMENTS.md).
pub fn spark_logreg_cost_model() -> SparkCostModel {
    SparkCostModel {
        stage_overhead: Duration::from_millis(60),
        per_task_dispatch: Duration::from_micros(700),
        ..SparkCostModel::default()
    }
}

/// Runs the MLlib-style logistic regression baseline on mini-Spark.
pub fn run_spark_logreg(cfg: &LogRegConfig) -> LogRegReport {
    let mut sim = Sim::new(cfg.seed);
    let scale = cfg.scale_for();
    let registry = TaskRegistry::new();
    {
        registry.register("lr_load", move |_p, _b, _a| (Vec::new(), partition_load_cost(&scale)));
        registry.register("lr_grad", move |part, bcast, _args| {
            let data: crate::datagen::LabeledPartition =
                crucial::codec::from_bytes(part).expect("partition decodes");
            let w: Vec<f64> = crucial::codec::from_bytes(bcast).expect("broadcast decodes");
            let (grad, loss) = gradient_and_loss(&data.points, &data.labels, &w);
            (crucial::codec::to_bytes(&(grad, loss)).expect("encode"), logreg_grad_cost(&scale))
        });
    }
    let spark = spawn_cluster(&sim, 10, 8, spark_logreg_cost_model(), registry);
    let out: Arc<Mutex<Option<LogRegReport>>> = Arc::new(Mutex::new(None));
    let out2 = out.clone();
    let cfg = cfg.clone();
    sim.spawn("spark-logreg-app", move |ctx| {
        let partitions: Vec<Vec<u8>> = (0..cfg.workers)
            .map(|p| {
                let part = logreg_partition(cfg.seed, p as usize, cfg.sample_points, cfg.dims);
                crucial::codec::to_bytes(&part).expect("encode")
            })
            .collect();
        let t_total0 = ctx.now();
        spark.load_partitions(ctx, partitions);
        if cfg.include_load {
            let _ = spark.run_stage(ctx, "lr_load", Vec::new());
        }
        let mut w = vec![0.0f64; cfg.dims];
        let mut losses = Vec::new();
        let t_iter0 = ctx.now();
        for _ in 0..cfg.iterations {
            // Broadcast the weights, aggregate the sub-gradients.
            let bcast = crucial::codec::to_bytes(&w).expect("encode");
            spark.broadcast(ctx, bcast);
            let results = spark.run_stage(ctx, "lr_grad", Vec::new());
            let mut grad = vec![0.0; cfg.dims];
            let mut loss = 0.0;
            for r in &results {
                let (g, l): (Vec<f64>, f64) = crucial::codec::from_bytes(r).expect("decode");
                for (a, b) in grad.iter_mut().zip(&g) {
                    *a += b;
                }
                loss += l;
            }
            let n = cfg.workers as f64;
            for (wi, g) in w.iter_mut().zip(&grad) {
                *wi -= cfg.learning_rate / n * g;
            }
            losses.push(loss / n);
        }
        let iteration_phase = ctx.now() - t_iter0;
        let total = ctx.now() - t_total0;
        *out2.lock() = Some(LogRegReport {
            iteration_phase,
            total,
            loss_per_iteration: losses,
            cost_dollars: ClusterPricing::default().cost_for(total),
        });
    });
    sim.run_until_idle().expect_quiescent();
    let report = out.lock().take().expect("driver finished");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> LogRegConfig {
        LogRegConfig {
            seed: 3,
            workers: 4,
            iterations: 8,
            sample_points: 100,
            dims: 10,
            learning_rate: 1.0,
            scale: DatasetScale { total_points: 200_000, dims: 10, partitions: 4 },
            include_load: false,
            dso_nodes: 1,
            memory_mb: 1792,
        }
    }

    #[test]
    fn gradient_points_downhill() {
        let part = crate::datagen::logreg_partition(1, 0, 400, 6);
        let w0 = vec![0.0; 6];
        let (grad, loss0) = gradient_and_loss(&part.points, &part.labels, &w0);
        let w1: Vec<f64> = w0.iter().zip(&grad).map(|(w, g)| w - 0.5 * g).collect();
        let (_, loss1) = gradient_and_loss(&part.points, &part.labels, &w1);
        assert!(loss1 < loss0, "one step must reduce loss: {loss0} -> {loss1}");
    }

    #[test]
    fn crucial_loss_decreases_over_iterations() {
        let report = run_crucial_logreg(&tiny_cfg());
        let losses = &report.loss_per_iteration;
        assert_eq!(losses.len(), 8);
        assert!(
            losses.last().expect("nonempty") < losses.first().expect("nonempty"),
            "loss must decrease: {losses:?}"
        );
    }

    #[test]
    fn crucial_and_spark_learn_the_same_model() {
        let a = run_crucial_logreg(&tiny_cfg());
        let b = run_spark_logreg(&tiny_cfg());
        // Same data, same updates: the loss series must match numerically.
        assert_eq!(a.loss_per_iteration.len(), b.loss_per_iteration.len());
        for (x, y) in a.loss_per_iteration.iter().zip(&b.loss_per_iteration) {
            assert!((x - y).abs() < 1e-9, "loss series diverged: {x} vs {y}");
        }
    }

    #[test]
    fn crucial_iterations_beat_spark() {
        let a = run_crucial_logreg(&tiny_cfg());
        let b = run_spark_logreg(&tiny_cfg());
        assert!(
            a.iteration_phase < b.iteration_phase,
            "crucial {:?} must beat spark {:?} (Fig. 4a)",
            a.iteration_phase,
            b.iteration_phase
        );
    }
}
