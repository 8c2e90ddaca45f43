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
    CtlConfig, CtlEvent, CtlHandle, Deployment, FaasConfig, FnEnv, MetricsRegistry, PrewarmConfig,
    RunResult, Runnable, Sim, SimTime, TargetTracking, FULL_VCPU_MB,
};

/// Dollars per DSO-node-second, from the paper's server tier (r5.2xlarge,
/// $0.504/h on-demand in us-east-1, 2019) — the VM-side half of the cost
/// model next to [`crucial::Pricing`]'s GB-seconds.
pub const NODE_SECOND_USD: f64 = 0.504 / 3600.0;

/// Parameters of the elasticity experiment.
#[derive(Clone, Debug)]
pub struct ElasticConfig {
    /// Simulation seed.
    pub seed: u64,
    /// Serving functions active in the 1× phases.
    pub base_workers: u32,
    /// Serving functions active in the 3× phase.
    pub peak_workers: u32,
    /// Interval between inference attempts per worker (one worker offers
    /// `1/pace` inferences per second).
    pub pace: Duration,
    /// Model shards (one DSO `Arithmetic` scoring object each).
    pub shards: u32,
    /// Multiplications per scoring call — sets the per-call server cost
    /// (55 ns each), hence per-node capacity.
    pub op_mults: u32,
    /// Replication factor of the shards.
    pub rf: u8,
    /// DSO nodes at the start (the static run keeps this forever).
    pub initial_nodes: u32,
    /// Worker threads per DSO node.
    pub dso_workers_per_node: u32,
    /// Length of each of the three phases (1×, 3×, 1×).
    pub phase: Duration,
    /// Local compute per inference inside the function.
    pub per_inference_compute: Duration,
    /// Admission control installed on every DSO node.
    pub admission: Option<AdmissionConfig>,
    /// Whether to run the control plane.
    pub autoscale: bool,
    /// Control-plane parameters (used when `autoscale`).
    pub ctl: CtlConfig,
    /// Target-tracking setpoint: requests/s one node serves comfortably.
    pub target_per_node: f64,
    /// FaaS platform configuration — the cold-start tier under test
    /// (classic vs snapshot restore) and the pricing the cost columns use.
    pub faas: FaasConfig,
}

impl Default for ElasticConfig {
    fn default() -> Self {
        // One scoring call costs the serving node ≈ 35 µs + 30 k × 55 ns
        // ≈ 1.69 ms, so a 1-worker node serves ≈ 590 calls/s: the 1×
        // phases (400/s offered) fit one node, the 3× phase (1200/s) needs
        // three.
        ElasticConfig {
            seed: 42,
            base_workers: 24,
            peak_workers: 72,
            pace: Duration::from_millis(60),
            shards: 32,
            op_mults: 30_000,
            rf: 1,
            initial_nodes: 1,
            dso_workers_per_node: 1,
            phase: Duration::from_secs(15),
            per_inference_compute: Duration::from_millis(2),
            admission: Some(AdmissionConfig { max_queue_depth: 32, ..AdmissionConfig::default() }),
            autoscale: true,
            ctl: CtlConfig {
                reconcile_interval: Duration::from_secs(1),
                min_nodes: 1,
                max_nodes: 4,
                scale_out_cooldown: Duration::from_secs(3),
                drain_cooldown: Duration::from_secs(8),
                prewarm: None, // filled per-run with the worker's function name
                checkpoint_interval: None,
            },
            target_per_node: 500.0,
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
/// shard and computing, `1/pace` attempts per second until the deadline.
/// Falling behind (saturation, shed-retry backoff) lowers delivered
/// throughput without accumulating a burst debt.
#[derive(Clone, Wire)]
pub struct ElasticWorker {
    /// Worker index (staggers the shard access pattern).
    pub worker_id: u32,
    /// Model shards to cycle through.
    pub shards: u32,
    /// Replication factor.
    pub rf: u8,
    /// Multiplications per scoring call.
    pub op_mults: u32,
    /// Attempt interval in nanoseconds.
    pub pace_nanos: u64,
    /// Local compute per inference, nanoseconds.
    pub compute_nanos: u64,
    /// Virtual-time deadline in nanoseconds.
    pub deadline_nanos: u64,
}

impl Runnable for ElasticWorker {
    fn run(&mut self, env: &mut FnEnv<'_, '_>) -> RunResult {
        let model: Vec<Arithmetic> = (0..self.shards)
            .map(|i| Arithmetic::persistent(&format!("shard-{i}"), 1.0, self.rf))
            .collect();
        let pace = Duration::from_nanos(self.pace_nanos);
        let compute = Duration::from_nanos(self.compute_nanos);
        let deadline = SimTime::from_nanos(self.deadline_nanos);
        let mut next = env.ctx().now();
        let mut n = self.worker_id as usize;
        while env.ctx().now() < deadline {
            let shard = &model[n % model.len()];
            n += 1;
            let (ctx, dso) = env.dso();
            match shard.mul_n(ctx, dso, 1.0, self.op_mults) {
                Ok(_) => {
                    env.compute(compute);
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
            next = (next + pace).max(now);
            if next > now {
                env.ctx().sleep(next - now);
            }
        }
        Ok(())
    }
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
            CtlEvent::Prewarm { .. } | CtlEvent::Checkpoint { .. } => continue,
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
    let mut ccfg = CrucialConfig { dso_nodes: cfg.initial_nodes, ..CrucialConfig::default() };
    ccfg.dso.workers_per_node = cfg.dso_workers_per_node;
    ccfg.dso.admission = cfg.admission;
    ccfg.faas = cfg.faas.clone();
    let dep = Deployment::start(&sim, ccfg);
    dep.register::<ElasticWorker>();
    let threads = dep.threads();
    let dso_handle = dep.dso_handle();
    let faas = dep.faas.clone();
    let cluster = Rc::new(RefCell::new(dep.dso));
    let ctl = if cfg.autoscale {
        let mut ctl_cfg = cfg.ctl.clone();
        if ctl_cfg.prewarm.is_none() {
            // Sized from the platform's cold-start tier: under snapshot
            // restores the penalty drops below the threshold and the
            // daemon stops buying provisioned floors.
            ctl_cfg.prewarm = Some(PrewarmConfig::for_platform(
                &cfg.faas,
                FULL_VCPU_MB,
                &function_name::<ElasticWorker>(),
                8,
            ));
        }
        spawn_controlplane(
            &sim,
            cluster.clone(),
            Some(faas.clone()),
            registry.clone(),
            Box::new(TargetTracking::new(cfg.target_per_node)),
            ctl_cfg,
        )
    } else {
        CtlHandle::default()
    };
    let t_end = SimTime::ZERO + 3 * cfg.phase;
    let cfg2 = cfg.clone();
    sim.spawn("elastic-master", move |ctx| {
        let worker = |worker_id: u32, deadline: SimTime| ElasticWorker {
            worker_id,
            shards: cfg2.shards,
            rf: cfg2.rf,
            op_mults: cfg2.op_mults,
            pace_nanos: cfg2.pace.as_nanos() as u64,
            compute_nanos: cfg2.per_inference_compute.as_nanos() as u64,
            deadline_nanos: deadline.as_nanos(),
        };
        // Install the model shards before the fleet starts.
        let mut cli = dso_handle.connect();
        for i in 0..cfg2.shards {
            let shard = Arithmetic::persistent(&format!("shard-{i}"), 1.0, cfg2.rf);
            shard.mul(ctx, &mut cli, 1.0).expect("model installs");
        }
        // Base fleet serves the whole run.
        let base: Vec<ElasticWorker> =
            (0..cfg2.base_workers).map(|i| worker(i, SimTime::ZERO + 3 * cfg2.phase)).collect();
        let mut handles = threads.start_all(ctx, &base);
        // The 3× ramp: extra workers for the middle phase only.
        let ramp_at = SimTime::ZERO + cfg2.phase;
        if ramp_at > ctx.now() {
            ctx.sleep(ramp_at.saturating_duration_since(ctx.now()));
        }
        let extra: Vec<ElasticWorker> = (cfg2.base_workers..cfg2.peak_workers)
            .map(|i| worker(i, SimTime::ZERO + 2 * cfg2.phase))
            .collect();
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
    let per_worker = 1.0 / cfg.pace.as_secs_f64();
    let node_s = if cfg.autoscale {
        node_seconds(cfg.initial_nodes, &events, t_end)
    } else {
        f64::from(cfg.initial_nodes) * t_end.as_secs_f64()
    };
    let billing = faas.billing();
    let gb_seconds = billing.gb_seconds();
    let idle_gb_seconds = billing.idle_gb_seconds().max(0.0);
    let snapshot_gb_seconds = billing.snapshot_gb_seconds(t_end);
    let pricing = cfg.faas.pricing;
    ElasticReport {
        per_second: buckets.into_iter().collect(),
        total: points.len() as u64,
        offered: (
            f64::from(cfg.base_workers) * per_worker,
            f64::from(cfg.peak_workers) * per_worker,
            f64::from(cfg.base_workers) * per_worker,
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

    /// A debug-build-friendly scale: ~2k operations per run. One node
    /// serves ≈ 150 scoring calls/s (120 k multiplications each), the 1×
    /// phases offer 60/s, the 3× phase 180/s.
    fn tiny() -> ElasticConfig {
        let mut cfg = ElasticConfig {
            seed: 3,
            base_workers: 6,
            peak_workers: 18,
            pace: Duration::from_millis(100),
            op_mults: 120_000,
            phase: Duration::from_secs(6),
            target_per_node: 120.0,
            admission: Some(AdmissionConfig { max_queue_depth: 8, ..AdmissionConfig::default() }),
            ..ElasticConfig::default()
        };
        // With 6 s phases, the default 8 s drain cooldown (counted from the
        // last scale-out) would push the drain past the end of the run.
        cfg.ctl.drain_cooldown = Duration::from_secs(5);
        cfg
    }

    #[test]
    fn autoscaler_tracks_the_ramp_and_drains_after() {
        let cfg = tiny();
        let r = run_elastic(&cfg);
        assert!(r.scale_outs >= 1, "ramp must trigger a scale-out:\n{}", r.decision_log);
        assert!(r.drains >= 1, "ramp-down must trigger a drain:\n{}", r.decision_log);
        assert!(r.total > 0);
    }

    #[test]
    fn static_fleet_saturates_where_autoscaled_tracks() {
        let auto = run_elastic(&tiny());
        let stat = run_elastic(&ElasticConfig { autoscale: false, ..tiny() });
        let cfg = tiny();
        let auto_track = auto.peak_tracking(&cfg);
        let stat_track = stat.peak_tracking(&cfg);
        assert!(
            auto_track > stat_track,
            "autoscaling must beat static during the 3x phase: auto={auto_track:.2} static={stat_track:.2}"
        );
        assert!(stat.shed > 0, "the saturated static fleet must shed");
    }

    #[test]
    fn identically_seeded_runs_make_identical_decisions() {
        let a = run_elastic(&tiny());
        let b = run_elastic(&tiny());
        assert!(!a.decision_log.is_empty());
        assert_eq!(a.decision_log, b.decision_log, "decision log must be deterministic");
        // Exact per seed.
        assert_eq!(a.total, 1528);
        assert_eq!(
            a.per_second,
            [
                (1, 18),
                (2, 60),
                (3, 60),
                (4, 60),
                (5, 60),
                (6, 120),
                (7, 142),
                (8, 151),
                (9, 190),
                (10, 181),
                (11, 177),
                (12, 63),
                (13, 60),
                (14, 60),
                (15, 23),
                (16, 42),
                (17, 60),
                (18, 1),
            ]
        );
    }
}
