//! Iterative tasks: multiple FaaS stages vs. one stage with a barrier
//! (§6.3.2, Fig. 7b).
//!
//! Approach **A** launches a fresh set of cloud threads for every
//! iteration: each pays the invocation overhead and re-reads its input
//! from the object store. Approach **B** launches one set that runs all
//! iterations, reading the input once and synchronizing with the DSO
//! barrier. The per-phase breakdown (Invocation, S3 read, Compute, Sync)
//! comes out of the blackboard.

use std::sync::Arc;
use std::time::Duration;

use crucial::{
    join_all, CrucialConfig, CyclicBarrier, Deployment, FnEnv, RunResult, Runnable, Sim,
};
use parking_lot::Mutex;
use simcore::codec::Wire;

/// Experiment parameters.
#[derive(Clone, Debug, Wire)]
pub struct StagesConfig {
    /// Seed.
    pub seed: u64,
    /// Concurrent threads (paper: 10).
    pub threads: u32,
    /// Iterations of the task (paper's figure shows a handful).
    pub iterations: u32,
    /// Input object size (drives the S3 read time).
    pub input_bytes: usize,
    /// Compute time per iteration.
    pub compute: Duration,
}

impl Default for StagesConfig {
    fn default() -> Self {
        StagesConfig {
            seed: 1,
            threads: 10,
            iterations: 3,
            input_bytes: 8 * 1024 * 1024,
            compute: Duration::from_secs(1),
        }
    }
}

/// Per-phase time totals (averaged per thread).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// Invocation overhead (thread start to function body).
    pub invocation: Duration,
    /// Reading input from the object store.
    pub s3_read: Duration,
    /// Computation.
    pub compute: Duration,
    /// Synchronization (barrier waits / join gaps).
    pub sync: Duration,
}

impl PhaseBreakdown {
    /// Sum of all phases.
    pub fn total(&self) -> Duration {
        self.invocation + self.s3_read + self.compute + self.sync
    }
}

/// Conditionally recording view of the blackboard.
#[derive(Clone)]
pub struct Recorder {
    bb: crucial::Blackboard,
    on: bool,
}

impl Recorder {
    /// Wraps a blackboard; `on = false` silences all recordings.
    pub fn new(bb: crucial::Blackboard, on: bool) -> Recorder {
        Recorder { bb, on }
    }

    /// Records a duration into the named stats if enabled.
    pub fn record(&self, name: &str, d: Duration) {
        if self.on {
            self.bb.stats(name).record(d);
        }
    }
}

/// One iteration's work as a standalone stage (approach A).
#[derive(Clone, Wire)]
pub struct StageTask {
    /// Thread index.
    pub id: u32,
    /// When the client called `start` (nanos) — for the invocation phase.
    pub started_nanos: u64,
    /// Shared parameters.
    pub cfg: StagesConfig,
    /// Whether to record phase stats (off during warm-up).
    pub record: bool,
}

impl Runnable for StageTask {
    fn run(&mut self, env: &mut FnEnv<'_, '_>) -> RunResult {
        let bb = crate::stages::Recorder::new(env.blackboard().clone(), self.record);
        let t_enter = env.ctx().now();
        bb.record(
            "a-invocation",
            t_enter.saturating_duration_since(crucial::SimTime::from_nanos(self.started_nanos)),
        );
        // S3 read of the input.
        let t0 = env.ctx().now();
        let (ctx, s3) = env.s3_split();
        let _ = s3.get(ctx, &format!("input/{}", self.id));
        ctx.sleep(Duration::from_secs_f64(
            self.cfg.input_bytes as f64 / crucial_ml::cost::S3_READ_BW,
        ));
        let t1 = env.ctx().now();
        bb.record("a-s3", t1 - t0);
        env.compute(self.cfg.compute);
        let t2 = env.ctx().now();
        bb.record("a-compute", t2 - t1);
        Ok(())
    }
}

/// All iterations in one function, synchronized by a barrier (approach B).
#[derive(Clone, Wire)]
pub struct BarrierTask {
    /// Thread index.
    pub id: u32,
    /// When the client called `start` (nanos).
    pub started_nanos: u64,
    /// Shared parameters.
    pub cfg: StagesConfig,
    /// The iteration barrier.
    pub barrier: CyclicBarrier,
    /// Whether to record phase stats (off during warm-up).
    pub record: bool,
}

impl Runnable for BarrierTask {
    fn run(&mut self, env: &mut FnEnv<'_, '_>) -> RunResult {
        let bb = crate::stages::Recorder::new(env.blackboard().clone(), self.record);
        let t_enter = env.ctx().now();
        bb.record(
            "b-invocation",
            t_enter.saturating_duration_since(crucial::SimTime::from_nanos(self.started_nanos)),
        );
        // Input is fetched once.
        let t0 = env.ctx().now();
        let (ctx, s3) = env.s3_split();
        let _ = s3.get(ctx, &format!("input/{}", self.id));
        ctx.sleep(Duration::from_secs_f64(
            self.cfg.input_bytes as f64 / crucial_ml::cost::S3_READ_BW,
        ));
        let t1 = env.ctx().now();
        bb.record("b-s3", t1 - t0);
        for _ in 0..self.cfg.iterations {
            let c0 = env.ctx().now();
            env.compute(self.cfg.compute);
            let c1 = env.ctx().now();
            bb.record("b-compute", c1 - c0);
            let (ctx, dso) = env.dso();
            self.barrier.wait(ctx, dso).map_err(|e| e.to_string())?;
            let c2 = env.ctx().now();
            bb.record("b-sync", c2 - c1);
        }
        Ok(())
    }
}

/// Result of the comparison.
#[derive(Clone, Debug)]
pub struct StagesReport {
    /// Approach A (one stage per iteration): per-thread breakdown.
    pub multi_stage: PhaseBreakdown,
    /// Approach A total wall time.
    pub multi_stage_total: Duration,
    /// Approach B (single stage + barrier): per-thread breakdown.
    pub single_stage: PhaseBreakdown,
    /// Approach B total wall time.
    pub single_stage_total: Duration,
}

/// Runs both approaches and collects the Fig. 7b breakdown.
pub fn run_stages(cfg: &StagesConfig) -> StagesReport {
    let mut sim = Sim::new(cfg.seed);
    let dep = Deployment::start(&sim, CrucialConfig::default());
    dep.register::<StageTask>();
    dep.register::<BarrierTask>();
    let threads = dep.threads();
    let bb = dep.blackboard().clone();
    let s3 = dep.s3.clone();
    let out: Arc<Mutex<Option<(Duration, Duration)>>> = Arc::new(Mutex::new(None));
    let out2 = out.clone();
    let cfg2 = cfg.clone();
    sim.spawn("stages-master", move |ctx| {
        // Stage inputs.
        for id in 0..cfg2.threads {
            s3.put(ctx, &format!("input/{id}"), vec![0u8; 1024]);
        }
        // Warm the platform so both approaches run on warm containers.
        let warm: Vec<StageTask> = (0..cfg2.threads)
            .map(|id| StageTask {
                id,
                started_nanos: ctx.now().as_nanos(),
                cfg: StagesConfig { compute: Duration::ZERO, input_bytes: 0, ..cfg2.clone() },
                record: false,
            })
            .collect();
        let handles = threads.start_all(ctx, &warm);
        join_all(ctx, handles).expect("warm-up");
        let warm_b: Vec<BarrierTask> = (0..cfg2.threads)
            .map(|id| BarrierTask {
                id,
                started_nanos: ctx.now().as_nanos(),
                cfg: StagesConfig {
                    compute: Duration::ZERO,
                    input_bytes: 0,
                    iterations: 1,
                    ..cfg2.clone()
                },
                barrier: CyclicBarrier::new("warm-barrier", cfg2.threads),
                record: false,
            })
            .collect();
        let handles = threads.start_all(ctx, &warm_b);
        join_all(ctx, handles).expect("warm-up b");

        // Approach A: a fresh stage per iteration.
        let t0 = ctx.now();
        for _ in 0..cfg2.iterations {
            let tasks: Vec<StageTask> = (0..cfg2.threads)
                .map(|id| StageTask {
                    id,
                    started_nanos: ctx.now().as_nanos(),
                    cfg: cfg2.clone(),
                    record: true,
                })
                .collect();
            let handles = threads.start_all(ctx, &tasks);
            join_all(ctx, handles).expect("stage A");
        }
        let a_total = ctx.now() - t0;

        // Approach B: one stage with a barrier.
        let t0 = ctx.now();
        let barrier = CyclicBarrier::new("iter-barrier", cfg2.threads);
        let tasks: Vec<BarrierTask> = (0..cfg2.threads)
            .map(|id| BarrierTask {
                id,
                started_nanos: ctx.now().as_nanos(),
                cfg: cfg2.clone(),
                barrier: barrier.clone(),
                record: true,
            })
            .collect();
        let handles = threads.start_all(ctx, &tasks);
        join_all(ctx, handles).expect("stage B");
        let b_total = ctx.now() - t0;
        *out2.lock() = Some((a_total, b_total));
    });
    sim.run_until_idle().expect_quiescent();
    let (a_total, b_total) = out.lock().take().expect("master finished");
    let per_thread = |name: &str, scale: u32| -> Duration {
        let s = bb.stats(name);
        if s.count() == 0 {
            Duration::ZERO
        } else {
            s.mean() * scale
        }
    };
    let n_iter = cfg.iterations;
    StagesReport {
        multi_stage: PhaseBreakdown {
            // Warm-up runs also recorded; means are per call, scaled by
            // the number of calls in the measured phase.
            invocation: per_thread("a-invocation", n_iter),
            s3_read: per_thread("a-s3", n_iter),
            compute: per_thread("a-compute", n_iter),
            sync: Duration::ZERO,
        },
        multi_stage_total: a_total,
        single_stage: PhaseBreakdown {
            invocation: per_thread("b-invocation", 1),
            s3_read: per_thread("b-s3", 1),
            compute: per_thread("b-compute", n_iter),
            sync: per_thread("b-sync", n_iter),
        },
        single_stage_total: b_total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_stage_with_barrier_beats_multi_stage() {
        let cfg = StagesConfig {
            seed: 4,
            threads: 6,
            iterations: 3,
            input_bytes: 8 * 1024 * 1024,
            compute: Duration::from_millis(500),
        };
        let r = run_stages(&cfg);
        assert!(
            r.single_stage_total < r.multi_stage_total,
            "B {:?} must beat A {:?} (Fig. 7b)",
            r.single_stage_total,
            r.multi_stage_total
        );
        // A pays the S3 read every iteration, B only once.
        assert!(r.multi_stage.s3_read > r.single_stage.s3_read * 2);
        // B's sync (barrier) must be a small fraction of its compute.
        assert!(
            r.single_stage.sync < r.single_stage.compute / 2,
            "sync {:?} vs compute {:?}",
            r.single_stage.sync,
            r.single_stage.compute
        );
    }
}
