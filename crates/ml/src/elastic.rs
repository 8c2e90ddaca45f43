//! The elasticity experiment: Fig. 8's serving workload under a 3× traffic
//! ramp, with the control plane closed-loop instead of an operator.
//!
//! A fleet of paced serving functions reads a sharded model from the DSO
//! tier (one inference = one shard scoring call + local compute). Offered load
//! ramps 1× → 3× → 1× across three equal phases. Two deployments are
//! compared by the harness:
//!
//! * **static** — the initial DSO fleet for the whole run; the 3× phase
//!   saturates it (and trips the admission controller),
//! * **autoscaled** — `controlplane::spawn_controlplane` watches the
//!   metrics registry and grows/drains the fleet, so delivered throughput
//!   tracks offered load.
//!
//! The report carries both sides of the elasticity trade: delivered
//! throughput per second, and cost — FaaS GB-seconds (execution + idle
//! pool tails) plus DSO node-seconds priced at [`NODE_SECOND_USD`].

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use simcore::codec::Wire;

use crucial::{
    function_name, join_all, spawn_controlplane, AdmissionConfig, Arithmetic, CrucialConfig,
    CtlEvent, CtlHandle, Deployment, FaasConfig, FnEnv, MetricsRegistry, RunResult, Runnable, Sim,
    SimTime, TargetTracking,
};

/// Dollars per DSO-node-second, from the paper's server tier (r5.2xlarge,
/// $0.504/h on-demand in us-east-1, 2019) — the VM-side half of the cost
/// model next to [`crucial::Pricing`]'s GB-seconds.
pub const NODE_SECOND_USD: f64 = 0.504 / 3600.0;

// The workload. One scoring call costs the serving node ≈ 35 µs + 30 k ×
// 55 ns ≈ 1.69 ms, so a 1-worker node serves ≈ 590 calls/s: the 1× phases
// (400/s offered) fit one node, the 3× phase (1200/s) needs three.

/// Serving functions active in the 1× phases.
const BASE_WORKERS: u32 = 24;
/// Serving functions active in the 3× phase.
const PEAK_WORKERS: u32 = 72;
/// Interval between inference attempts per worker (one worker offers
/// `1/PACE` inferences per second).
const PACE: Duration = Duration::from_millis(60);
/// Model shards (one DSO `Arithmetic` scoring object each).
const SHARDS: u32 = 32;
/// Multiplications per scoring call — sets the per-call server cost (55 ns
/// each), hence per-node capacity.
const OP_MULTS: u32 = 30_000;
/// Local compute per inference inside the function.
const PER_INFERENCE_COMPUTE: Duration = Duration::from_millis(2);
/// DSO nodes at the start (the static run keeps this forever), each with
/// one worker thread.
const INITIAL_NODES: u32 = 1;
/// Admission control on every DSO node: the default token bucket under
/// this cap on in-flight invocations.
const MAX_QUEUE_DEPTH: u32 = 32;
/// Target-tracking setpoint: requests/s one node serves comfortably.
const TARGET_PER_NODE: f64 = 500.0;

/// Parameters of the elasticity experiment.
#[derive(Clone, Debug)]
pub struct ElasticConfig {
    /// Simulation seed.
    pub seed: u64,
    /// Length of each of the three phases (1×, 3×, 1×).
    pub phase: Duration,
    /// Whether to run the control plane.
    pub autoscale: bool,
    /// FaaS platform configuration — the cold-start tier under test
    /// (classic vs snapshot restore) and the pricing the cost columns use.
    pub faas: FaasConfig,
}

impl Default for ElasticConfig {
    fn default() -> Self {
        ElasticConfig {
            seed: 42,
            phase: Duration::from_secs(15),
            autoscale: true,
            faas: FaasConfig::default(),
        }
    }
}

/// Result of one elastic run.
#[derive(Clone, Debug)]
pub struct ElasticReport {
    /// `(second, inferences completed in that second)`.
    pub per_second: Vec<(u64, u64)>,
    /// Total completed inferences.
    pub total: u64,
    /// Analytic offered load per phase, inferences/s: `(1x, 3x, 1x)`.
    pub offered: (f64, f64, f64),
    /// Scale-out actuations.
    pub scale_outs: usize,
    /// Drain actuations.
    pub drains: usize,
    /// Requests rejected by admission control.
    pub shed: u64,
    /// The control plane's rendered decision log (empty when static).
    pub decision_log: String,
    /// DSO node-seconds consumed (nodes integrated over the run).
    pub node_seconds: f64,
    /// FaaS execution GB-seconds.
    pub gb_seconds: f64,
    /// FaaS idle-pool GB-seconds (retired warm containers).
    pub idle_gb_seconds: f64,
    /// Snapshot-storage GB-seconds held over the run (zero under classic).
    pub snapshot_gb_seconds: f64,
    /// Dollar cost: FaaS (execution + idle + requests) and DSO nodes.
    pub faas_cost_usd: f64,
    /// Dollar cost of the DSO fleet at [`NODE_SECOND_USD`].
    pub node_cost_usd: f64,
    /// The run's metrics registry, for harness-side tables.
    pub metrics: MetricsRegistry,
}

impl ElasticReport {
    /// Mean delivered rate over `[from, to)` seconds.
    pub fn mean_rate(&self, from: u64, to: u64) -> f64 {
        if to <= from {
            return 0.0;
        }
        let sum: u64 =
            self.per_second.iter().filter(|(s, _)| *s >= from && *s < to).map(|(_, n)| *n).sum();
        sum as f64 / (to - from) as f64
    }

    /// Delivered / offered over the tail of the 3× phase (the last 40%,
    /// after the scaler has had time to react) — the headline "tracking"
    /// number.
    pub fn peak_tracking(&self, cfg: &ElasticConfig) -> f64 {
        let phase = cfg.phase.as_secs();
        let from = 2 * phase - phase * 2 / 5;
        self.mean_rate(from, 2 * phase) / self.offered.1
    }
}

/// One serving function: a rate-limited loop scoring against a model
/// shard and computing, `1/PACE` attempts per second until the deadline.
/// Falling behind (saturation, shed-retry backoff) lowers delivered
/// throughput without accumulating a burst debt.
#[derive(Clone, Wire)]
pub struct ElasticWorker {
    /// Worker index (staggers the shard access pattern).
    pub worker_id: u32,
    /// Virtual-time deadline in nanoseconds.
    pub deadline_nanos: u64,
}

impl Runnable for ElasticWorker {
    fn run(&mut self, env: &mut FnEnv<'_, '_>) -> RunResult {
        let model: Vec<Arithmetic> = (0..SHARDS).map(model_shard).collect();
        let deadline = SimTime::from_nanos(self.deadline_nanos);
        let mut next = env.ctx().now();
        let mut n = self.worker_id as usize;
        while env.ctx().now() < deadline {
            let shard = &model[n % model.len()];
            n += 1;
            let (ctx, dso) = env.dso();
            match shard.mul_n(ctx, dso, 1.0, OP_MULTS) {
                Ok(_) => {
                    env.compute(PER_INFERENCE_COMPUTE);
                    env.ctx().metric_push("elastic-completions", 1.0);
                }
                Err(_) => {
                    // Retries exhausted under overload: back off and try
                    // the next slot.
                    env.ctx().sleep(Duration::from_millis(100));
                }
            }
            // Rate limiting without burst debt: a worker that fell behind
            // resumes at the current time, it does not replay missed slots.
            let now = env.ctx().now();
            next = (next + PACE).max(now);
            if next > now {
                env.ctx().sleep(next - now);
            }
        }
        Ok(())
    }
}

/// The `i`-th model shard, unreplicated.
fn model_shard(i: u32) -> Arithmetic {
    Arithmetic::persistent(&format!("shard-{i}"), 1.0, 1)
}

/// Integrates the live-node count over the run from the decision log.
fn node_seconds(initial: u32, events: &[CtlEvent], t_end: SimTime) -> f64 {
    let mut nodes = f64::from(initial);
    let mut last = SimTime::ZERO;
    let mut acc = 0.0;
    for e in events {
        let (at, after) = match e {
            CtlEvent::ScaleOut { at, nodes } => (*at, *nodes),
            CtlEvent::Drain { at, nodes, .. } => (*at, *nodes),
            CtlEvent::Prewarm { .. } => continue,
        };
        acc += nodes * (at.saturating_duration_since(last)).as_secs_f64();
        nodes = f64::from(after);
        last = at;
    }
    acc + nodes * t_end.saturating_duration_since(last).as_secs_f64()
}

/// Runs the elastic serving experiment.
pub fn run_elastic(cfg: &ElasticConfig) -> ElasticReport {
    run_elastic_with(cfg, |_| {})
}

/// [`run_elastic`] with a setup hook on the fresh `Sim` (e.g. to install a
/// tracer). The metrics registry is installed before the hook runs, so the
/// hook must not replace it: the control plane reads its counters, the
/// serving functions push their completions into it (`elastic-completions`),
/// and the report carries it.
pub fn run_elastic_with(cfg: &ElasticConfig, setup: impl FnOnce(&Sim)) -> ElasticReport {
    let mut sim = Sim::new(cfg.seed);
    let registry = MetricsRegistry::new();
    sim.set_metrics(&registry);
    setup(&sim);
    let mut ccfg = CrucialConfig { dso_nodes: INITIAL_NODES, ..CrucialConfig::default() };
    ccfg.dso.workers_per_node = 1;
    ccfg.dso.admission =
        Some(AdmissionConfig { max_queue_depth: MAX_QUEUE_DEPTH, ..AdmissionConfig::default() });
    ccfg.faas = cfg.faas.clone();
    let dep = Deployment::start(&sim, ccfg);
    dep.register::<ElasticWorker>();
    let threads = dep.threads();
    let dso_handle = dep.dso_handle();
    let faas = dep.faas.clone();
    let cluster = Rc::new(RefCell::new(dep.dso));
    let ctl = if cfg.autoscale {
        spawn_controlplane(
            &sim,
            cluster.clone(),
            Some((faas.clone(), &function_name::<ElasticWorker>())),
            registry.clone(),
            TargetTracking::new(TARGET_PER_NODE),
        )
    } else {
        CtlHandle::default()
    };
    let t_end = SimTime::ZERO + 3 * cfg.phase;
    let phase = cfg.phase;
    sim.spawn("elastic-master", move |ctx| {
        let worker = |worker_id: u32, deadline: SimTime| ElasticWorker {
            worker_id,
            deadline_nanos: deadline.as_nanos(),
        };
        // Install the model shards before the fleet starts.
        let mut cli = dso_handle.connect();
        for i in 0..SHARDS {
            model_shard(i).mul(ctx, &mut cli, 1.0).expect("model installs");
        }
        // Base fleet serves the whole run.
        let base: Vec<ElasticWorker> =
            (0..BASE_WORKERS).map(|i| worker(i, SimTime::ZERO + 3 * phase)).collect();
        let mut handles = threads.start_all(ctx, &base);
        // The 3× ramp: extra workers for the middle phase only.
        let ramp_at = SimTime::ZERO + phase;
        if ramp_at > ctx.now() {
            ctx.sleep(ramp_at.saturating_duration_since(ctx.now()));
        }
        let extra: Vec<ElasticWorker> =
            (BASE_WORKERS..PEAK_WORKERS).map(|i| worker(i, SimTime::ZERO + 2 * phase)).collect();
        handles.extend(threads.start_all(ctx, &extra));
        join_all(ctx, handles).expect("serving functions finish");
    });
    sim.run_until_idle().expect_quiescent();
    let points = registry.series("elastic-completions").points();
    let mut buckets = std::collections::BTreeMap::<u64, u64>::new();
    for (t, _) in &points {
        *buckets.entry(t.as_nanos() / 1_000_000_000).or_insert(0) += 1;
    }
    let events = ctl.events();
    let per_worker = 1.0 / PACE.as_secs_f64();
    let node_s = node_seconds(INITIAL_NODES, &events, t_end);
    let billing = faas.billing();
    let gb_seconds = billing.gb_seconds();
    let idle_gb_seconds = billing.idle_gb_seconds().max(0.0);
    let snapshot_gb_seconds = billing.snapshot_gb_seconds(t_end);
    let pricing = cfg.faas.pricing;
    ElasticReport {
        per_second: buckets.into_iter().collect(),
        total: points.len() as u64,
        offered: (
            f64::from(BASE_WORKERS) * per_worker,
            f64::from(PEAK_WORKERS) * per_worker,
            f64::from(BASE_WORKERS) * per_worker,
        ),
        scale_outs: ctl.scale_outs(),
        drains: ctl.drains(),
        shed: registry.counter_value("dso.shed"),
        decision_log: ctl.decision_log(),
        node_seconds: node_s,
        gb_seconds,
        idle_gb_seconds,
        snapshot_gb_seconds,
        faas_cost_usd: billing.cost(pricing)
            + idle_gb_seconds * pricing.per_gb_second
            + billing.snapshot_cost(pricing, t_end),
        node_cost_usd: node_s * NODE_SECOND_USD,
        metrics: registry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the tests read of one run; the report itself holds an `Rc`
    /// registry, so it cannot be shared between test threads.
    struct Run {
        per_second: Vec<(u64, u64)>,
        total: u64,
        scale_outs: usize,
        drains: usize,
        shed: u64,
        decision_log: String,
        peak_tracking: f64,
    }

    impl Run {
        fn of(cfg: &ElasticConfig) -> Run {
            let r = run_elastic(cfg);
            Run {
                peak_tracking: r.peak_tracking(cfg),
                per_second: r.per_second,
                total: r.total,
                scale_outs: r.scale_outs,
                drains: r.drains,
                shed: r.shed,
                decision_log: r.decision_log,
            }
        }
    }

    /// The default (quick-scale) autoscaled run and its static twin, run
    /// once for the whole test binary.
    fn runs() -> &'static (Run, Run) {
        #[expect(
            clippy::disallowed_types,
            reason = "test-only memo of two whole runs; each run is still a pure function of its seed"
        )]
        static RUNS: std::sync::OnceLock<(Run, Run)> = std::sync::OnceLock::new();
        RUNS.get_or_init(|| {
            let cfg = ElasticConfig::default();
            (Run::of(&cfg), Run::of(&ElasticConfig { autoscale: false, ..cfg }))
        })
    }

    #[test]
    fn autoscaler_tracks_the_ramp_and_drains_after() {
        let (auto, _) = runs();
        assert!(auto.scale_outs >= 1, "ramp must trigger a scale-out:\n{}", auto.decision_log);
        assert!(auto.drains >= 1, "ramp-down must trigger a drain:\n{}", auto.decision_log);
        assert!(auto.total > 0);
    }

    #[test]
    fn static_fleet_saturates_where_autoscaled_tracks() {
        let (auto, stat) = runs();
        assert!(
            auto.peak_tracking > stat.peak_tracking,
            "autoscaling must beat static during the 3x phase: auto={:.2} static={:.2}",
            auto.peak_tracking,
            stat.peak_tracking
        );
        assert!(stat.shed > 0, "the saturated static fleet must shed");
    }

    #[test]
    fn identically_seeded_runs_make_identical_decisions() {
        // Exact per seed: another run of the same seed (`experiments
        // elastic`, `BENCH_elastic.json`) must reproduce every figure.
        let (auto, _) = runs();
        assert_eq!(auto.total, 25_929);
        assert_eq!(
            auto.decision_log,
            concat!(
                "t=2.000000s prewarm fn=crucial_ml.elastic.ElasticWorker n=8\n",
                "t=8.000000s prewarm fn=crucial_ml.elastic.ElasticWorker n=7\n",
                "t=13.000000s prewarm fn=crucial_ml.elastic.ElasticWorker n=6\n",
                "t=17.000000s prewarm fn=crucial_ml.elastic.ElasticWorker n=8\n",
                "t=18.000000s scale_out nodes=2\n",
                "t=21.000000s scale_out nodes=3\n",
                "t=23.000000s prewarm fn=crucial_ml.elastic.ElasticWorker n=7\n",
                "t=24.000000s scale_out nodes=4\n",
                "t=28.000000s prewarm fn=crucial_ml.elastic.ElasticWorker n=6\n",
                "t=33.000000s drain node=3 nodes=3\n",
                "t=33.000000s prewarm fn=crucial_ml.elastic.ElasticWorker n=5\n",
                "t=38.000000s prewarm fn=crucial_ml.elastic.ElasticWorker n=4\n",
                "t=42.000000s drain node=2 nodes=2\n",
                "t=43.000000s prewarm fn=crucial_ml.elastic.ElasticWorker n=3\n",
            )
        );
        assert_eq!(
            auto.per_second,
            [
                (1, 146),
                (2, 399),
                (3, 399),
                (4, 401),
                (5, 400),
                (6, 399),
                (7, 401),
                (8, 400),
                (9, 399),
                (10, 401),
                (11, 400),
                (12, 399),
                (13, 401),
                (14, 400),
                (15, 531),
                (16, 583),
                (17, 594),
                (18, 941),
                (19, 1004),
                (20, 921),
                (21, 1175),
                (22, 1173),
                (23, 1199),
                (24, 1219),
                (25, 1200),
                (26, 1199),
                (27, 1201),
                (28, 1199),
                (29, 1200),
                (30, 402),
                (31, 401),
                (32, 400),
                (33, 71),
                (34, 348),
                (35, 403),
                (36, 399),
                (37, 398),
                (38, 403),
                (39, 399),
                (40, 398),
                (41, 403),
                (42, 29),
                (43, 392),
                (44, 399)
            ]
        );
    }
}
