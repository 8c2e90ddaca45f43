//! Model serving over persistent shared state (§6.4, Fig. 8): a k-means
//! model of 200 centroids replicated `rf = 2` across 3 DSO nodes serves
//! inference requests from 100 cloud functions for several minutes, while
//! one storage node crashes and a fresh one joins.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use simcore::codec::Wire;

use crucial::{
    join_all, AtomicByteArray, CrucialConfig, Deployment, FnEnv, MetricsRegistry, RunResult,
    Runnable, Sim, SimTime,
};

/// Parameters of the serving experiment.
#[derive(Clone, Debug, Wire)]
pub struct InferenceConfig {
    /// Simulation seed.
    pub seed: u64,
    /// Concurrent serving functions. Paper: 100.
    pub threads: u32,
    /// Model size in centroid objects. Paper: 200.
    pub centroids: u32,
    /// Dimensions per centroid.
    pub dims: u32,
    /// Replication factor of the model objects. Paper: 2.
    pub rf: u8,
    /// Initial DSO nodes. Paper: 3.
    pub dso_nodes: u32,
    /// Worker threads per DSO node (lower it to saturate the tier with a
    /// scaled-down client population).
    pub dso_workers_per_node: u32,
    /// Experiment length. Paper: 6 min.
    pub duration: Duration,
    /// When to crash a node (virtual time), if at all.
    pub crash_at: Option<Duration>,
    /// When to add a fresh node, if at all.
    pub add_at: Option<Duration>,
    /// Local distance computation per inference on one vCPU.
    pub per_inference_compute: Duration,
}

/// Report: inference completions bucketed per second.
#[derive(Clone, Debug)]
pub struct InferenceReport {
    /// `(second, inferences completed in that second)`.
    pub per_second: Vec<(u64, u64)>,
    /// Total completed inferences.
    pub total: u64,
}

impl InferenceReport {
    /// Mean rate over `[from, to)` seconds; seconds without completions
    /// count as zero.
    pub fn mean_rate(&self, from: u64, to: u64) -> f64 {
        if to <= from {
            return 0.0;
        }
        let sum: u64 =
            self.per_second.iter().filter(|(s, _)| *s >= from && *s < to).map(|(_, n)| *n).sum();
        sum as f64 / (to - from) as f64
    }
}

/// The serving function: loops until the deadline, each inference reading
/// the whole model (200 centroid objects) and computing distances.
#[derive(Clone, Wire)]
pub struct InferenceWorker {
    /// Worker index.
    pub thread_id: u32,
    /// Shared configuration.
    pub cfg: InferenceConfig,
    /// Virtual-time deadline in nanoseconds.
    pub deadline_nanos: u64,
}

impl Runnable for InferenceWorker {
    fn run(&mut self, env: &mut FnEnv<'_, '_>) -> RunResult {
        let model: Vec<AtomicByteArray> = (0..self.cfg.centroids)
            .map(|i| AtomicByteArray::persistent(&format!("centroid-{i}"), Vec::new(), self.cfg.rf))
            .collect();
        let deadline = SimTime::from_nanos(self.deadline_nanos);
        while env.ctx().now() < deadline {
            let mut ok = true;
            for c in &model {
                let (ctx, dso) = env.dso();
                if c.get(ctx, dso).is_err() {
                    ok = false;
                    break;
                }
            }
            if !ok {
                // Node failure window: back off briefly and retry the
                // whole inference.
                env.ctx().sleep(Duration::from_millis(100));
                continue;
            }
            env.compute(self.cfg.per_inference_compute);
            env.ctx().metric_push("inference-completions", 1.0);
        }
        Ok(())
    }
}

/// Runs the full Fig. 8 experiment: train-equivalent model install, 100
/// serving functions, node crash and node arrival per `cfg`.
pub fn run_inference_serving(cfg: &InferenceConfig) -> InferenceReport {
    let mut sim = Sim::new(cfg.seed);
    let registry = MetricsRegistry::new();
    sim.set_metrics(&registry);
    let ccfg = CrucialConfig { dso_nodes: cfg.dso_nodes, ..CrucialConfig::default() };
    let mut ccfg = ccfg;
    ccfg.dso.workers_per_node = cfg.dso_workers_per_node;
    let mut dep = Deployment::start(&sim, ccfg);
    dep.register::<InferenceWorker>();
    let threads = dep.threads();
    let dso = dep.dso_handle();
    let done: Arc<Mutex<bool>> = Arc::new(Mutex::new(false));
    let done2 = done.clone();
    let cfg2 = cfg.clone();
    sim.spawn("inference-master", move |ctx| {
        // Install the trained model (§6.4: "the k-means model trained with
        // our system"): one persistent byte array per centroid.
        let mut cli = dso.connect();
        let payload = vec![0u8; cfg2.dims as usize * 8];
        for i in 0..cfg2.centroids {
            let c = AtomicByteArray::persistent(&format!("centroid-{i}"), Vec::new(), cfg2.rf);
            c.set(ctx, &mut cli, &payload).expect("model installs");
        }
        let deadline_nanos = (ctx.now() + cfg2.duration).as_nanos();
        let workers: Vec<InferenceWorker> = (0..cfg2.threads)
            .map(|thread_id| InferenceWorker { thread_id, cfg: cfg2.clone(), deadline_nanos })
            .collect();
        let handles = threads.start_all(ctx, &workers);
        join_all(ctx, handles).expect("serving functions finish");
        *done2.lock() = true;
    });
    // Drive the fault schedule from the harness, like an operator would.
    let mut crash = cfg.crash_at;
    let mut add = cfg.add_at;
    loop {
        let next = match (crash, add) {
            (Some(c), Some(a)) => Some(c.min(a)),
            (Some(c), None) => Some(c),
            (None, Some(a)) => Some(a),
            (None, None) => None,
        };
        match next {
            Some(t) => {
                sim.run_until(SimTime::ZERO + t);
                if crash == Some(t) {
                    // Crash the last of the initial nodes.
                    let idx = (cfg.dso_nodes - 1) as usize;
                    dep.dso.crash_node(&sim, idx);
                    crash = None;
                } else {
                    dep.dso.add_node(&sim);
                    add = None;
                }
            }
            None => break,
        }
    }
    sim.run_until_idle().expect_quiescent();
    assert!(*done.lock(), "master must complete");
    // Bucket completions per second.
    let points = registry.series("inference-completions").points();
    let mut buckets = std::collections::BTreeMap::<u64, u64>::new();
    for (t, _) in &points {
        *buckets.entry(t.as_nanos() / 1_000_000_000).or_insert(0) += 1;
    }
    InferenceReport { per_second: buckets.into_iter().collect(), total: points.len() as u64 }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A mechanism-sized Fig. 8: a handful of functions reading a handful
    /// of centroids for nine virtual seconds, one node crashing at 4 s and a
    /// fresh one joining at 6 s. Rates are per second from 1 s, the first
    /// second after the model install; the last one is partial.
    fn tiny_cfg() -> InferenceConfig {
        InferenceConfig {
            seed: 2,
            threads: 4,
            centroids: 6,
            dims: 100,
            rf: 2,
            dso_nodes: 3,
            dso_workers_per_node: 8,
            duration: Duration::from_secs(9),
            crash_at: Some(Duration::from_secs(4)),
            add_at: Some(Duration::from_secs(6)),
            per_inference_compute: Duration::from_millis(8),
        }
    }

    #[test]
    fn serving_survives_crash_and_recovers() {
        let report = run_inference_serving(&tiny_cfg());
        assert!(report.total > 100, "made progress: {}", report.total);
        // Steady state before the crash.
        let before = report.mean_rate(2, 4);
        // Window right after the crash (detection + failover).
        let during = report.mean_rate(4, 6);
        // After the new node joined and rebalancing settled.
        let after = report.mean_rate(7, 9);
        assert!(before > 0.0);
        assert!(during < before, "crash must dent throughput: before={before} during={during}");
        assert!(after > during, "new node must restore throughput: during={during} after={after}");
    }

    #[test]
    fn no_faults_means_steady_throughput() {
        let mut cfg = tiny_cfg();
        cfg.crash_at = None;
        cfg.add_at = None;
        let report = run_inference_serving(&cfg);
        let early = report.mean_rate(2, 4);
        let late = report.mean_rate(5, 8);
        assert!(early > 0.0);
        let rel = (late - early).abs() / early;
        assert!(rel < 0.35, "steady state: early={early} late={late}");
        // Exact per seed.
        assert_eq!(
            report.per_second,
            [
                (1, 272),
                (2, 427),
                (3, 424),
                (4, 425),
                (5, 425),
                (6, 426),
                (7, 424),
                (8, 425),
                (9, 5)
            ]
        );
    }
}
