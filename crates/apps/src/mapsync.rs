//! Synchronizing a map phase (§6.3.1, Fig. 6): five ways for a reducer to
//! learn that 100 mappers are done and to collect their outputs.
//!
//! 1. **S3 polling** — mappers write results to the object store; the
//!    reducer polls `LIST` until all keys are visible (PyWren's original
//!    mechanism, with S3's latency, tail and visibility delays).
//! 2. **KV polling** — same pattern over the low-latency in-memory store
//!    (polling an Infinispan-like map's size).
//! 3. **SQS** — mappers post to a queue; the reducer polls `Receive`.
//! 4. **Futures** — each mapper completes a DSO future; the reducer's
//!    blocking `get`s are *pushed* the values the moment they exist.
//! 5. **Auto-reduce** — mappers aggregate directly into one shared object
//!    and count down a latch; the reduce phase disappears (§4.2).

use std::sync::Arc;
use std::time::Duration;

use crucial::{
    join_all, spawn_sqs, AtomicLong, CountDownLatch, CrucialConfig, CyclicBarrier, Deployment,
    FnEnv, QueueConfig, RunResult, Runnable, SharedFuture, SharedMap, Sim, SimTime, SqsHandle,
};
use crucial_ml::cost::monte_carlo_cost;
use parking_lot::Mutex;
use simcore::codec::Wire;

use crate::pi::sample_hits;

/// The five strategies of Fig. 6.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Wire)]
pub enum SyncStrategy {
    /// PyWren-style polling on the object store.
    S3Polling,
    /// Polling a map in the in-memory store.
    KvPolling,
    /// Amazon SQS-style queue polling.
    Sqs,
    /// One DSO future per mapper (push).
    Futures,
    /// Aggregation inside the DSO layer plus a latch (push, no reduce).
    AutoReduce,
}

impl SyncStrategy {
    /// All strategies, in the paper's order.
    pub const ALL: [SyncStrategy; 5] = [
        SyncStrategy::S3Polling,
        SyncStrategy::KvPolling,
        SyncStrategy::Sqs,
        SyncStrategy::Futures,
        SyncStrategy::AutoReduce,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            SyncStrategy::S3Polling => "PyWren/S3 polling",
            SyncStrategy::KvPolling => "KV (Infinispan) polling",
            SyncStrategy::Sqs => "Amazon SQS",
            SyncStrategy::Futures => "Crucial futures",
            SyncStrategy::AutoReduce => "Crucial auto-reduce",
        }
    }
}

/// Experiment parameters.
#[derive(Clone, Debug, Wire)]
pub struct MapSyncConfig {
    /// Seed.
    pub seed: u64,
    /// Mappers (paper: 100).
    pub mappers: u32,
    /// Monte Carlo points per mapper (paper: 100 M).
    pub points: u64,
    /// Reducer poll interval for the polling strategies.
    pub poll_interval: Duration,
}

impl Default for MapSyncConfig {
    fn default() -> Self {
        MapSyncConfig {
            seed: 1,
            mappers: 100,
            points: 100_000_000,
            poll_interval: Duration::from_millis(500),
        }
    }
}

/// Outcome of one run.
#[derive(Clone, Debug)]
pub struct MapSyncReport {
    /// Time from the last mapper finishing its computation until the
    /// reducer holds the final result — the synchronization cost.
    pub sync_time: Duration,
    /// Total measured run (post-warm-up barrier to final result).
    pub total_time: Duration,
    /// The π estimate, as a sanity check that every strategy reduced the
    /// same data.
    pub estimate: f64,
}

/// The mapper function: simulate the points, then publish the local count
/// using the configured strategy.
#[derive(Clone, Wire)]
pub struct MapSyncMapper {
    /// Mapper index.
    pub id: u32,
    /// Strategy to publish with.
    pub strategy: SyncStrategy,
    /// Shared configuration.
    pub cfg: MapSyncConfig,
    /// Start barrier (mappers + master) to exclude cold starts.
    pub start_barrier: CyclicBarrier,
    /// SQS handle (used by the SQS strategy).
    pub sqs: SqsHandle,
}

impl Runnable for MapSyncMapper {
    fn run(&mut self, env: &mut FnEnv<'_, '_>) -> RunResult {
        {
            let (ctx, dso) = env.dso();
            self.start_barrier.wait(ctx, dso).map_err(|e| e.to_string())?;
        }
        let inside = sample_hits(env.ctx().rng(), self.cfg.points);
        // ±5% compute jitter: mappers straggle, like real Lambdas.
        let base = monte_carlo_cost(self.cfg.points);
        let jitter: f64 = {
            use rand::RngExt;
            env.ctx().rng().random_range(0.95..1.05)
        };
        env.compute(base.mul_f64(jitter));
        // Record when the map phase's computation finished.
        let finished = env.blackboard().series("map-finish");
        let now = env.ctx().now();
        finished.push(now, 1.0);
        // Publish the result.
        let value = inside;
        match self.strategy {
            SyncStrategy::S3Polling => {
                let bytes = crucial::codec::to_bytes(&value).map_err(|e| e.to_string())?;
                let (ctx, s3) = env.s3_split();
                s3.put(ctx, &format!("map-out/{}", self.id), bytes);
            }
            SyncStrategy::KvPolling => {
                let map: SharedMap<i64> = SharedMap::new("map-out");
                let (ctx, dso) = env.dso();
                map.put(ctx, dso, &format!("{}", self.id), &value).map_err(|e| e.to_string())?;
            }
            SyncStrategy::Sqs => {
                let bytes = crucial::codec::to_bytes(&value).map_err(|e| e.to_string())?;
                let sqs = self.sqs.clone();
                sqs.send(env.ctx(), "map-out", bytes);
            }
            SyncStrategy::Futures => {
                let fut: SharedFuture<i64> = SharedFuture::new(&format!("map-out-{}", self.id));
                let (ctx, dso) = env.dso();
                fut.set(ctx, dso, &value).map_err(|e| e.to_string())?;
            }
            SyncStrategy::AutoReduce => {
                let acc = AtomicLong::new("map-acc");
                let latch = CountDownLatch::new("map-latch", self.cfg.mappers as u64);
                let (ctx, dso) = env.dso();
                acc.add_and_get(ctx, dso, value).map_err(|e| e.to_string())?;
                latch.count_down(ctx, dso).map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    }
}

/// Runs the map phase under `strategy` and measures the synchronization
/// cost at the reducer.
pub fn run_mapsync(strategy: SyncStrategy, cfg: &MapSyncConfig) -> MapSyncReport {
    let mut sim = Sim::new(cfg.seed);
    let dep = Deployment::start(&sim, CrucialConfig::default());
    let sqs = spawn_sqs(&sim, QueueConfig::default());
    dep.register::<MapSyncMapper>();
    let threads = dep.threads();
    let dso = dep.dso_handle();
    let s3 = dep.s3.clone();
    let blackboard = dep.blackboard().clone();
    let out: Arc<Mutex<Option<MapSyncReport>>> = Arc::new(Mutex::new(None));
    let out2 = out.clone();
    let cfg2 = cfg.clone();
    let bb2 = blackboard.clone();
    sim.spawn("reducer", move |ctx| {
        let start_barrier = CyclicBarrier::new("map-start", cfg2.mappers + 1);
        let mappers: Vec<MapSyncMapper> = (0..cfg2.mappers)
            .map(|id| MapSyncMapper {
                id,
                strategy,
                cfg: cfg2.clone(),
                start_barrier: start_barrier.clone(),
                sqs: sqs.clone(),
            })
            .collect();
        let handles = threads.start_all(ctx, &mappers);
        let mut cli = dso.connect();
        start_barrier.wait(ctx, &mut cli).expect("mappers warm");
        let t0 = ctx.now();
        // Collect according to the strategy.
        let n = cfg2.mappers as usize;
        let total: i64 = match strategy {
            SyncStrategy::S3Polling => {
                loop {
                    let keys = s3.list(ctx, "map-out/");
                    if keys.len() >= n {
                        break;
                    }
                    ctx.sleep(cfg2.poll_interval);
                }
                // Reduce phase: fetch all outputs (in parallel, as PyWren's
                // result threads do) and sum locally.
                let mut sum = 0;
                for id in 0..n {
                    let bytes = s3.get(ctx, &format!("map-out/{id}")).expect("listed key");
                    sum += crucial::codec::from_bytes::<i64>(&bytes).expect("decode");
                }
                sum
            }
            SyncStrategy::KvPolling => {
                let map: SharedMap<i64> = SharedMap::new("map-out");
                loop {
                    let size = map.size(ctx, &mut cli).expect("dso");
                    if size as usize >= n {
                        break;
                    }
                    ctx.sleep(cfg2.poll_interval / 5);
                }
                let mut sum = 0;
                for id in 0..n {
                    sum += map.get(ctx, &mut cli, &format!("{id}")).expect("dso").expect("present");
                }
                sum
            }
            SyncStrategy::Sqs => {
                let sqs2 = sqs.clone();
                let mut got = Vec::new();
                while got.len() < n {
                    let msgs = sqs2.receive(ctx, "map-out", 10);
                    if msgs.is_empty() {
                        ctx.sleep(cfg2.poll_interval / 5);
                    }
                    got.extend(msgs);
                }
                got.iter().map(|m| crucial::codec::from_bytes::<i64>(m).expect("decode")).sum()
            }
            SyncStrategy::Futures => {
                let mut sum = 0;
                for id in 0..n {
                    let fut: SharedFuture<i64> = SharedFuture::new(&format!("map-out-{id}"));
                    sum += fut.get(ctx, &mut cli).expect("dso");
                }
                sum
            }
            SyncStrategy::AutoReduce => {
                let latch = CountDownLatch::new("map-latch", cfg2.mappers as u64);
                latch.wait(ctx, &mut cli).expect("dso");
                let acc = AtomicLong::new("map-acc");
                acc.get(ctx, &mut cli).expect("dso")
            }
        };
        let t_result = ctx.now();
        join_all(ctx, handles).expect("mappers succeed");
        // Sync time: from the *last mapper's* compute end to the result.
        let finishes = bb2.series("map-finish").points();
        let last_finish = finishes.iter().map(|(t, _)| *t).max().unwrap_or(SimTime::ZERO);
        let sync_time = t_result.saturating_duration_since(last_finish);
        let total_points = cfg2.mappers as u64 * cfg2.points;
        *out2.lock() = Some(MapSyncReport {
            sync_time,
            total_time: t_result - t0,
            estimate: 4.0 * total as f64 / total_points as f64,
        });
    });
    sim.run_until_idle().expect_quiescent();
    let report = out.lock().take().expect("reducer finished");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> MapSyncConfig {
        MapSyncConfig {
            seed: 9,
            mappers: 20,
            points: 20_000_000, // ~1.8 s of compute per mapper
            poll_interval: Duration::from_millis(500),
        }
    }

    #[test]
    fn every_strategy_reduces_the_same_sum() {
        for strategy in SyncStrategy::ALL {
            let r = run_mapsync(strategy, &quick_cfg());
            assert!(
                (r.estimate - std::f64::consts::PI).abs() < 0.05,
                "{strategy:?}: pi ≈ {}",
                r.estimate
            );
        }
    }

    #[test]
    fn push_beats_polling_beats_queues() {
        let cfg = quick_cfg();
        let s3 = run_mapsync(SyncStrategy::S3Polling, &cfg).sync_time;
        let kv = run_mapsync(SyncStrategy::KvPolling, &cfg).sync_time;
        let sqs = run_mapsync(SyncStrategy::Sqs, &cfg).sync_time;
        let fut = run_mapsync(SyncStrategy::Futures, &cfg).sync_time;
        let auto = run_mapsync(SyncStrategy::AutoReduce, &cfg).sync_time;
        // Fig. 6's ordering.
        assert!(sqs > s3, "SQS ({sqs:?}) slowest, S3 ({s3:?}) next");
        assert!(s3 > kv, "S3 ({s3:?}) slower than KV polling ({kv:?})");
        assert!(kv > fut, "KV polling ({kv:?}) slower than futures ({fut:?})");
        assert!(fut >= auto, "futures ({fut:?}) >= auto-reduce ({auto:?})");
    }
}
