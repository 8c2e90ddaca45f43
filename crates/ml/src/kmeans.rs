//! k-means clustering (§6.2): the core math plus four complete
//! implementations — Crucial cloud threads (Listing 2), the mini-Spark
//! baseline, the Redis-backed Crucial variant, and a single-machine
//! multi-threaded solution (Fig. 3's VM baselines).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use crucial::{
    join_all, spawn_redis, AtomicLong, CrucialConfig, CyclicBarrier, Deployment, FnEnv,
    RedisConfig, RedisHandle, RunResult, Runnable, ScriptRegistry, Sim, SimTime,
};
use parking_lot::Mutex;
use simcore::codec::Wire;
use sparklite::{spawn_cluster, ClusterPricing, LocalVm, SparkCostModel, TaskRegistry};

use crate::cost::{kmeans_assign_cost, partition_load_cost, DatasetScale};
use crate::datagen::kmeans_partition;
use crate::objects::{
    register_ml_objects, CentroidsHandle, CentroidsInit, DeltaHandle, GlobalCentroids,
};

// ---------------------------------------------------------------------------
// Core math
// ---------------------------------------------------------------------------

/// Centroids whose distances one pass of the inner loop computes together.
const LANES: usize = 4;

/// Dimensions of every block summed before any block is visited: the head
/// partials that choose which block is visited first.
const HEAD: usize = 8;

/// Dimensions between two tests of a block's running sums against the best
/// distance so far. The last `1..=STRIDE` dimensions are summed untested.
const STRIDE: usize = 16;

/// Adds `(row[j] − x)²` for each dimension to each lane's running sum.
// table4: local crucial
#[inline(always)]
fn add_terms(acc: &mut [f64; LANES], rows: &[[f64; LANES]], xs: &[f64]) {
    for (row, &x) in rows.iter().zip(xs) {
        for (a, &c) in acc.iter_mut().zip(row) {
            *a += (c - x) * (c - x);
        }
    }
}
// table4: end

/// One assignment pass: per-cluster coordinate sums, per-cluster counts,
/// and the within-cluster sum of squared errors. Each point goes to its
/// nearest centroid, the lowest index among equals.
///
/// **Layout.** The centroids are packed once per call into blocks of four
/// (`LANES`), each block dimension-major:
/// `packed[(b·dims + d)·LANES + j] = centroids[LANES·b + j][d]`. The lanes
/// past the last centroid hold `+∞`. For each point and block the loop
/// keeps one running sum per lane and adds `(row[j] − x)²` for every
/// dimension: four independent chains in place of one chain per centroid
/// that waits on its previous add, which the compiler turns into vector
/// arithmetic on any x86-64 without reassociating a sum.
///
/// **Pruning.** Per point the pass first sums the first `HEAD` dimensions
/// of every block. It visits first the block whose head partial holds the
/// smallest lane, then the others in index order, each continuing from its
/// head partial. Every `STRIDE` dimensions it skips the rest of a block
/// once every lane's running sum is strictly `>` the best distance so far.
/// The winner is the least `(d², index)`, starting from index 0 at `+∞`.
/// Once the centroids have settled, the first block visited usually holds
/// the winner and most others are skipped within the first half of the
/// dimensions. On random centroids next to nothing is skipped, and the
/// head pass and the tests cost a few percent.
///
/// **Same bits as one `.sum()` per centroid.** Each lane adds exactly the
/// terms a per-centroid `.sum()` adds, in the same order. It starts from
/// `0.0` where std's float sum may start from `−0.0`, which gives the same
/// bits for every term a square can be. A `+∞` pad never compares less
/// than anything, and with no dimensions every distance is `0.0` and
/// centroid 0 wins. Skipping changes none of it:
/// - Round-to-nearest is monotone: for a partial `s ≥ 0` and a term
///   `t = (c − x)²`, which is `≥ 0` or `+∞`, `fl(s + t) ≥ s`. A lane whose
///   partial is already `> best` ends `> best`, and can neither win nor tie.
/// - The test is strict `>`: an equal partial may still tie, and a tie
///   goes to the lower index, as the first minimum does in index order.
/// - A NaN compares false, so a block with a NaN lane is never skipped,
///   and a NaN distance never wins, exactly as in index order with `<`.
///   A `+∞` pad lane is skippable and never wins.
/// - The least `(d², index)` over the distances that are not NaN, and
///   `(+∞, 0)`, is what the strict `<` in index order keeps whatever the
///   visiting order. The lanes that survive add the same terms in the same
///   order from `0.0`, and the sums, counts and SSE depend only on the
///   winner and its distance.
///
/// The sums, counts and SSE are therefore the bits the per-centroid loop
/// returns (`kmeans::tests` holds the two to that on random inputs, points
/// near centroids and exact ties).
// table4: local crucial
pub fn assign_partials(
    points: &[Vec<f64>],
    centroids: &[Vec<f64>],
) -> (Vec<Vec<f64>>, Vec<u64>, f64) {
    let k = centroids.len();
    let dims = centroids.first().map_or(0, Vec::len);
    let mut sums = vec![vec![0.0; dims]; k];
    let mut counts = vec![0u64; k];
    // Packed after the outputs, so that freeing the copy on return leaves
    // no hole under them in the allocator (the other order measured
    // +0.24 MB of peak RSS on the acceptance benchmark's k-means run).
    let block_len = dims * LANES;
    let blocks = k.div_ceil(LANES);
    let mut packed = vec![f64::INFINITY; blocks * block_len];
    for (c, centre) in centroids.iter().enumerate() {
        let block = &mut packed[c / LANES * block_len..][..block_len];
        for (row, &v) in block.as_chunks_mut::<LANES>().0.iter_mut().zip(centre) {
            row[c % LANES] = v;
        }
    }
    // Each block's rows by index, not by chunk: with no dimensions the
    // blocks are empty and still have to be compared.
    let rows: Vec<&[[f64; LANES]]> =
        (0..blocks).map(|b| packed[b * block_len..][..block_len].as_chunks().0).collect();
    let mut heads = vec![[0.0; LANES]; blocks];
    let mut sse = 0.0;
    for p in points {
        let p = &p[..dims.min(p.len())];
        let (len, head) = (p.len(), HEAD.min(p.len()));
        for (acc, rows) in heads.iter_mut().zip(&rows) {
            *acc = [0.0; LANES];
            // A head of fixed length, which the compiler unrolls.
            match (rows[..len].first_chunk::<HEAD>(), p.first_chunk::<HEAD>()) {
                (Some(rows), Some(xs)) => add_terms(acc, rows, xs),
                _ => add_terms(acc, &rows[..len], p),
            }
        }
        let (mut first, mut first_d2) = (0, f64::INFINITY);
        for (b, acc) in heads.iter().enumerate() {
            let d2 = acc.iter().copied().fold(f64::INFINITY, f64::min);
            if d2 < first_d2 {
                (first, first_d2) = (b, d2);
            }
        }
        let (mut best, mut best_d2) = (0, f64::INFINITY);
        let order = std::iter::once(first).chain((0..blocks).filter(|&b| b != first));
        'blocks: for b in order {
            let rows = &rows[b][..len];
            let mut acc = heads[b];
            let mut d = head;
            while len - d > STRIDE {
                add_terms(&mut acc, &rows[d..d + STRIDE], &p[d..d + STRIDE]);
                d += STRIDE;
                if acc.iter().all(|&a| a > best_d2) {
                    continue 'blocks;
                }
            }
            add_terms(&mut acc, &rows[d..], &p[d..]);
            for (j, &d2) in acc.iter().enumerate() {
                let c = b * LANES + j;
                if d2 < best_d2 || (d2 == best_d2 && c < best) {
                    (best, best_d2) = (c, d2);
                }
            }
        }
        for (s, x) in sums[best].iter_mut().zip(p) {
            *s += x;
        }
        counts[best] += 1;
        sse += best_d2;
    }
    (sums, counts, sse)
}
// table4: end

/// Random initial centroids in the data range, deterministic in `seed`.
pub fn initial_centroids(seed: u64, k: u32, dims: usize) -> Vec<Vec<f64>> {
    use rand::{RngExt, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed.wrapping_add(0xC0FFEE));
    (0..k).map(|_| (0..dims).map(|_| rng.random_range(-10.0..10.0)).collect()).collect()
}

fn flatten(v: &[Vec<f64>]) -> Vec<f64> {
    v.iter().flatten().copied().collect()
}

fn unflatten(v: &[f64], dims: usize) -> Vec<Vec<f64>> {
    v.chunks(dims).map(<[f64]>::to_vec).collect()
}

// ---------------------------------------------------------------------------
// Configuration and report
// ---------------------------------------------------------------------------

/// Parameters shared by all k-means implementations.
#[derive(Clone, Debug, Wire)]
pub struct KMeansConfig {
    /// Simulation / data seed.
    pub seed: u64,
    /// Concurrent workers (cloud threads / partitions). Paper: 80.
    pub workers: u32,
    /// Clusters.
    pub k: u32,
    /// Iterations to run. Paper: 10 (Fig. 5).
    pub iterations: u32,
    /// Real points per worker for the math (scaled-down sample).
    pub sample_points: usize,
    /// Dimensions (kept at the paper's 100 so shared-state payloads are
    /// paper-sized).
    pub dims: usize,
    /// Paper-scale dataset for the cost model. Each worker processes one
    /// partition of it, so the total input grows with the worker count —
    /// Fig. 3's scale-up setup.
    pub scale: DatasetScale,
    /// Whether to model loading the input from the object store.
    pub include_load: bool,
    /// DSO storage nodes (paper: 1 for §6.2).
    pub dso_nodes: u32,
    /// Lambda memory (paper: 2048 MB for k-means).
    pub memory_mb: u32,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig {
            seed: 1,
            workers: 80,
            k: 25,
            iterations: 10,
            sample_points: 200,
            dims: 100,
            scale: DatasetScale::default(),
            include_load: true,
            dso_nodes: 1,
            memory_mb: 2048,
        }
    }
}

/// Outcome of one k-means run.
#[derive(Clone, Debug)]
pub struct KMeansReport {
    /// Duration of the measured iteration phase (excludes provisioning,
    /// loading, cold starts — like Fig. 5).
    pub iteration_phase: Duration,
    /// End-to-end time including loading (like Table 3's "total").
    pub total: Duration,
    /// Within-cluster SSE after each iteration (the convergence signal).
    pub sse_per_iteration: Vec<f64>,
    /// Dollar cost of the run (Lambda GB-seconds or cluster time).
    pub cost_dollars: f64,
}

// ---------------------------------------------------------------------------
// Crucial implementation (Listing 2)
// ---------------------------------------------------------------------------

/// The cloud-thread body of Listing 2.
#[derive(Clone, Wire)]
pub struct KMeansWorker {
    /// Worker index (also the partition index).
    pub worker_id: u32,
    /// Shared configuration.
    pub cfg: KMeansConfig,
    /// `@Shared(key = "centroids")`.
    pub centroids: CentroidsHandle,
    /// `@Shared(key = "delta")`.
    pub delta: DeltaHandle,
    /// `@Shared(key = "iterations")`.
    pub iterations: AtomicLong,
    /// The synchronization object coordinating iterations.
    pub barrier: CyclicBarrier,
    /// Start/end instants of the measured phase (nanos), written by worker 0.
    pub t_start: AtomicLong,
    /// See `t_start`.
    pub t_end: AtomicLong,
}

// table4: crucial
impl Runnable for KMeansWorker {
    fn run(&mut self, env: &mut FnEnv<'_, '_>) -> RunResult {
        let scale = self.cfg.scale;
        // loadDatasetFragment(): S3 fetch + parse of this worker's share.
        if self.cfg.include_load {
            env.compute(partition_load_cost(&scale));
        }
        let part = kmeans_partition(
            self.cfg.seed,
            self.worker_id as usize,
            self.cfg.sample_points,
            self.cfg.dims,
            self.cfg.k as usize,
        );
        // Global barrier before measurement (footnote 8 of the paper).
        {
            let (ctx, dso) = env.dso();
            self.barrier.wait(ctx, dso).map_err(|e| e.to_string())?;
            if self.worker_id == 0 {
                let now = ctx.now().as_nanos() as i64;
                self.t_start.set(ctx, dso, now).map_err(|e| e.to_string())?;
            }
        }
        let assign_cost = kmeans_assign_cost(&scale, self.cfg.k);
        for _ in 0..self.cfg.iterations {
            // Fetch current centroids (remote method, §4.2).
            let (generation, current) = {
                let (ctx, dso) = env.dso();
                self.centroids.read(ctx, dso).map_err(|e| e.to_string())?
            };
            // computeClusters(): the real math on the sample, charged at
            // paper scale.
            let (sums, counts, sse) = assign_partials(&part.points, &current);
            env.compute(assign_cost);
            {
                let (ctx, dso) = env.dso();
                // globalDelta.update(localDelta)
                self.delta.add(ctx, dso, generation, sse).map_err(|e| e.to_string())?;
                // centroids.update(localCentroids, localSizes)
                self.centroids.update(ctx, dso, &sums, &counts).map_err(|e| e.to_string())?;
                // barrier.await()
                self.barrier.wait(ctx, dso).map_err(|e| e.to_string())?;
                // globalIterCount.compareAndSet(iterCount, iterCount + 1)
                let i = generation as i64;
                self.iterations.compare_and_set(ctx, dso, i, i + 1).map_err(|e| e.to_string())?;
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
// table4: end

/// Runs k-means on Crucial (cloud threads + DSO), returning the report.
pub fn run_crucial_kmeans(cfg: &KMeansConfig) -> KMeansReport {
    run_crucial_kmeans_with(cfg, |_| {})
}

/// [`run_crucial_kmeans`] with a hook that runs against the fresh [`Sim`]
/// before any process is spawned — the place to install a
/// [`crucial::Tracer`] or [`crucial::MetricsRegistry`].
pub fn run_crucial_kmeans_with(cfg: &KMeansConfig, setup: impl FnOnce(&Sim)) -> KMeansReport {
    let mut sim = Sim::new(cfg.seed);
    setup(&sim);
    let mut ccfg = CrucialConfig { dso_nodes: cfg.dso_nodes, ..CrucialConfig::default() };
    register_ml_objects(&mut ccfg.registry);
    let dep = Deployment::start(&sim, ccfg);
    dep.register_with_memory::<KMeansWorker>(cfg.memory_mb);
    let threads = dep.threads();
    let dso = dep.dso_handle();
    let billing = dep.faas.billing().clone();
    let pricing = dep.faas.config().pricing;
    let out: Arc<Mutex<Option<KMeansReport>>> = Arc::new(Mutex::new(None));
    let out2 = out.clone();
    let cfg = cfg.clone();
    sim.spawn("kmeans-master", move |ctx| {
        let init = CentroidsInit {
            k: cfg.k,
            dims: cfg.dims as u32,
            workers: cfg.workers,
            initial: flatten(&initial_centroids(cfg.seed, cfg.k, cfg.dims)),
        };
        let centroids = CentroidsHandle::new("centroids", init);
        let delta = DeltaHandle::new("delta");
        let iterations = AtomicLong::new("iterations");
        let barrier = CyclicBarrier::new("iter-barrier", cfg.workers);
        let t_start = AtomicLong::new("t-start");
        let t_end = AtomicLong::new("t-end");
        let workers: Vec<KMeansWorker> = (0..cfg.workers)
            .map(|worker_id| KMeansWorker {
                worker_id,
                cfg: cfg.clone(),
                centroids: centroids.clone(),
                delta: delta.clone(),
                iterations: iterations.clone(),
                barrier: barrier.clone(),
                t_start: t_start.clone(),
                t_end: t_end.clone(),
            })
            .collect();
        let t_total0 = ctx.now();
        let handles = threads.start_all(ctx, &workers);
        join_all(ctx, handles).expect("k-means cloud threads succeed");
        let total = ctx.now() - t_total0;
        let mut cli = dso.connect();
        let start_ns = t_start.get(ctx, &mut cli).expect("t_start written");
        let end_ns = t_end.get(ctx, &mut cli).expect("t_end written");
        let hist = delta.history(ctx, &mut cli).expect("delta history");
        let sse = hist.iter().map(|(_, s, _)| *s).collect();
        *out2.lock() = Some(KMeansReport {
            iteration_phase: Duration::from_nanos((end_ns - start_ns).max(0) as u64),
            total,
            sse_per_iteration: sse,
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

/// The Spark cost model fitted for MLlib k-means on EMR (two aggregation
/// passes per iteration plus heavyweight stage scheduling; see
/// EXPERIMENTS.md).
pub fn spark_kmeans_cost_model() -> SparkCostModel {
    SparkCostModel {
        stage_overhead: Duration::from_millis(220),
        per_task_dispatch: Duration::from_millis(3),
        ..SparkCostModel::default()
    }
}

/// Runs the MLlib-style k-means baseline on the mini-Spark cluster.
pub fn run_spark_kmeans(cfg: &KMeansConfig) -> KMeansReport {
    let mut sim = Sim::new(cfg.seed);
    let scale = cfg.scale;
    let registry = TaskRegistry::new();
    {
        let k = cfg.k;
        let dims = cfg.dims;
        registry
            .register("km_load", move |_part, _b, _a| (Vec::new(), partition_load_cost(&scale)));
        registry.register("km_assign", move |part, bcast, _args| {
            let points: crate::datagen::PointsPartition =
                crucial::codec::from_bytes(part).expect("partition decodes");
            let centroids = unflatten(
                &crucial::codec::from_bytes::<Vec<f64>>(bcast).expect("broadcast decodes"),
                dims,
            );
            let (sums, counts, sse) = assign_partials(&points.points, &centroids);
            let out = crucial::codec::to_bytes(&(flatten(&sums), counts, sse)).expect("encode");
            (out, kmeans_assign_cost(&scale, k))
        });
        // MLlib's extra cost-evaluation pass per iteration: it reuses the
        // cached point norms, so its CPU cost is a small fraction of the
        // assignment pass — but it is a full extra *stage* (scheduling,
        // dispatch, collect), which is what hurts Spark in Fig. 5.
        registry.register("km_cost", move |part, bcast, _args| {
            let points: crate::datagen::PointsPartition =
                crucial::codec::from_bytes(part).expect("partition decodes");
            let centroids = unflatten(
                &crucial::codec::from_bytes::<Vec<f64>>(bcast).expect("broadcast decodes"),
                dims,
            );
            let (_, _, sse) = assign_partials(&points.points, &centroids);
            let out = crucial::codec::to_bytes(&sse).expect("encode");
            (out, kmeans_assign_cost(&scale, k) / 10)
        });
    }
    // 10 m5.2xlarge core nodes with 8 cores each (§6.2.2).
    let spark = spawn_cluster(&sim, 10, 8, spark_kmeans_cost_model(), registry);
    let out: Arc<Mutex<Option<KMeansReport>>> = Arc::new(Mutex::new(None));
    let out2 = out.clone();
    let cfg = cfg.clone();
    sim.spawn("spark-driver-app", move |ctx| {
        let partitions: Vec<Vec<u8>> = (0..cfg.workers)
            .map(|p| {
                let part = kmeans_partition(
                    cfg.seed,
                    p as usize,
                    cfg.sample_points,
                    cfg.dims,
                    cfg.k as usize,
                );
                crucial::codec::to_bytes(&part).expect("encode")
            })
            .collect();
        let t_total0 = ctx.now();
        spark.load_partitions(ctx, partitions);
        if cfg.include_load {
            let _ = spark.run_stage(ctx, "km_load", Vec::new());
        }
        let mut centroids = initial_centroids(cfg.seed, cfg.k, cfg.dims);
        let mut sse_series = Vec::new();
        let t_iter0 = ctx.now();
        for _ in 0..cfg.iterations {
            let bcast = crucial::codec::to_bytes(&flatten(&centroids)).expect("encode");
            spark.broadcast(ctx, bcast.clone());
            let results = spark.run_stage(ctx, "km_assign", Vec::new());
            // Reduce at the driver.
            let dims = cfg.dims;
            let mut sums = vec![vec![0.0; dims]; cfg.k as usize];
            let mut counts = vec![0u64; cfg.k as usize];
            for r in &results {
                let (s, c, _sse): (Vec<f64>, Vec<u64>, f64) =
                    crucial::codec::from_bytes(r).expect("decode");
                for (i, v) in s.iter().enumerate() {
                    sums[i / dims][i % dims] += v;
                }
                for (a, b) in counts.iter_mut().zip(&c) {
                    *a += b;
                }
            }
            for c in 0..cfg.k as usize {
                if counts[c] > 0 {
                    for j in 0..dims {
                        centroids[c][j] = sums[c][j] / counts[c] as f64;
                    }
                }
            }
            // Cost-evaluation pass (sse of the *new* centroids).
            let bcast = crucial::codec::to_bytes(&flatten(&centroids)).expect("encode");
            spark.broadcast(ctx, bcast);
            let costs = spark.run_stage(ctx, "km_cost", Vec::new());
            let sse: f64 =
                costs.iter().map(|r| crucial::codec::from_bytes::<f64>(r).expect("decode")).sum();
            sse_series.push(sse);
        }
        let iteration_phase = ctx.now() - t_iter0;
        let total = ctx.now() - t_total0;
        *out2.lock() = Some(KMeansReport {
            iteration_phase,
            total,
            sse_per_iteration: sse_series,
            cost_dollars: ClusterPricing::default().cost_for(total),
        });
    });
    sim.run_until_idle().expect_quiescent();
    let report = out.lock().take().expect("driver finished");
    report
}

// ---------------------------------------------------------------------------
// Redis-backed variant (Fig. 5's third series)
// ---------------------------------------------------------------------------

/// Cloud-thread body of the Redis-backed k-means: identical to
/// [`KMeansWorker`] except the centroid state lives in Redis and its
/// "object methods" are server-side scripts executed serially per shard.
#[derive(Clone, Wire)]
pub struct KMeansRedisWorker {
    /// Worker index.
    pub worker_id: u32,
    /// Shared configuration.
    pub cfg: KMeansConfig,
    /// Handle to the Redis tier.
    pub redis: RedisHandle,
    /// Iteration barrier (kept on the DSO tier, as in the paper's hybrid).
    pub barrier: CyclicBarrier,
    /// Measured-phase instants, written by worker 0.
    pub t_start: AtomicLong,
    /// See `t_start`.
    pub t_end: AtomicLong,
}

/// Redis scripts implementing the centroid object's methods.
pub fn kmeans_redis_scripts() -> ScriptRegistry {
    let mut reg = ScriptRegistry::new();
    // Lua cost model: interpreting the update over k*d doubles.
    fn script_cost(bytes: usize) -> Duration {
        Duration::from_micros(5) + Duration::from_nanos(60) * bytes as u32
    }
    reg.register("km_init", |cur, args| {
        // Idempotent: only initialize when absent.
        let bytes = args.len();
        match cur {
            Some(v) => (Vec::new(), Some(v), script_cost(bytes)),
            None => (Vec::new(), Some(args.to_vec()), script_cost(bytes)),
        }
    });
    reg.register("km_read", |cur, _args| {
        let v = cur.clone().unwrap_or_default();
        let state: GlobalCentroids =
            crucial::codec::from_bytes(&v).expect("centroid state decodes");
        let reply = crucial::codec::to_bytes(&state.snapshot()).expect("encode");
        let cost = script_cost(reply.len());
        (reply, cur, cost)
    });
    reg.register("km_update", |cur, args| {
        let v = cur.unwrap_or_default();
        let mut state: GlobalCentroids =
            crucial::codec::from_bytes(&v).expect("centroid state decodes");
        let (sums, counts): (Vec<f64>, Vec<u64>) =
            crucial::codec::from_bytes(args).expect("update args decode");
        let generation = state.apply_update(&sums, &counts).expect("shapes match");
        let reply = crucial::codec::to_bytes(&generation).expect("encode");
        let cost = script_cost(args.len());
        (reply, Some(crucial::codec::to_bytes(&state).expect("encode")), cost)
    });
    reg
}

impl Runnable for KMeansRedisWorker {
    fn run(&mut self, env: &mut FnEnv<'_, '_>) -> RunResult {
        let scale = self.cfg.scale;
        if self.cfg.include_load {
            env.compute(partition_load_cost(&scale));
        }
        let part = kmeans_partition(
            self.cfg.seed,
            self.worker_id as usize,
            self.cfg.sample_points,
            self.cfg.dims,
            self.cfg.k as usize,
        );
        {
            let (ctx, dso) = env.dso();
            self.barrier.wait(ctx, dso).map_err(|e| e.to_string())?;
        }
        if self.worker_id == 0 {
            let (ctx, dso) = env.dso();
            let now = ctx.now().as_nanos() as i64;
            self.t_start.set(ctx, dso, now).map_err(|e| e.to_string())?;
        }
        let assign_cost = kmeans_assign_cost(&scale, self.cfg.k);
        for _ in 0..self.cfg.iterations {
            let raw = {
                let redis = self.redis.clone();
                redis.eval(env.ctx(), "km_read", "centroids", Vec::new())
            };
            let (_generation, flat): (u64, Vec<f64>) =
                crucial::codec::from_bytes(&raw).map_err(|e| e.to_string())?;
            let current = unflatten(&flat, self.cfg.dims);
            let (sums, counts, _sse) = assign_partials(&part.points, &current);
            env.compute(assign_cost);
            {
                let args = crucial::codec::to_bytes(&(flatten(&sums), counts))
                    .map_err(|e| e.to_string())?;
                let redis = self.redis.clone();
                let _ = redis.eval(env.ctx(), "km_update", "centroids", args);
            }
            let (ctx, dso) = env.dso();
            self.barrier.wait(ctx, dso).map_err(|e| e.to_string())?;
        }
        if self.worker_id == 0 {
            let (ctx, dso) = env.dso();
            let now = ctx.now().as_nanos() as i64;
            self.t_end.set(ctx, dso, now).map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}

/// Runs the Redis-backed k-means (Fig. 5's "Crucial + Redis" series).
pub fn run_redis_kmeans(cfg: &KMeansConfig) -> KMeansReport {
    let mut sim = Sim::new(cfg.seed);
    let mut ccfg = CrucialConfig { dso_nodes: cfg.dso_nodes, ..CrucialConfig::default() };
    register_ml_objects(&mut ccfg.registry);
    let dep = Deployment::start(&sim, ccfg);
    // One r5.2xlarge Redis instance (the paper's storage swap).
    let redis = spawn_redis(&sim, 1, RedisConfig::default(), kmeans_redis_scripts());
    dep.register_with_memory::<KMeansRedisWorker>(cfg.memory_mb);
    let threads = dep.threads();
    let dso = dep.dso_handle();
    let billing = dep.faas.billing().clone();
    let pricing = dep.faas.config().pricing;
    let out: Arc<Mutex<Option<KMeansReport>>> = Arc::new(Mutex::new(None));
    let out2 = out.clone();
    let cfg = cfg.clone();
    sim.spawn("kmeans-redis-master", move |ctx| {
        // Initialize the centroid state in Redis.
        let init_state = GlobalCentroids::new_init(CentroidsInit {
            k: cfg.k,
            dims: cfg.dims as u32,
            workers: cfg.workers,
            initial: flatten(&initial_centroids(cfg.seed, cfg.k, cfg.dims)),
        })
        .expect("valid init");
        let _ = redis.eval(
            ctx,
            "km_init",
            "centroids",
            crucial::codec::to_bytes(&init_state).expect("encode"),
        );
        let barrier = CyclicBarrier::new("iter-barrier", cfg.workers);
        let t_start = AtomicLong::new("t-start");
        let t_end = AtomicLong::new("t-end");
        let workers: Vec<KMeansRedisWorker> = (0..cfg.workers)
            .map(|worker_id| KMeansRedisWorker {
                worker_id,
                cfg: cfg.clone(),
                redis: redis.clone(),
                barrier: barrier.clone(),
                t_start: t_start.clone(),
                t_end: t_end.clone(),
            })
            .collect();
        let t_total0 = ctx.now();
        let handles = threads.start_all(ctx, &workers);
        join_all(ctx, handles).expect("redis k-means threads succeed");
        let total = ctx.now() - t_total0;
        let mut cli = dso.connect();
        let start_ns = t_start.get(ctx, &mut cli).expect("t_start written");
        let end_ns = t_end.get(ctx, &mut cli).expect("t_end written");
        *out2.lock() = Some(KMeansReport {
            iteration_phase: Duration::from_nanos((end_ns - start_ns).max(0) as u64),
            total,
            sse_per_iteration: Vec::new(),
            cost_dollars: billing.cost(pricing),
        });
    });
    sim.run_until_idle().expect_quiescent();
    let report = out.lock().take().expect("master finished");
    report
}

// ---------------------------------------------------------------------------
// Single-machine implementation (Fig. 3 baseline)
// ---------------------------------------------------------------------------

/// Runs k-means with plain threads on one VM with `cores` cores; input
/// grows with the thread count, exactly like Fig. 3.
pub fn run_local_kmeans(cfg: &KMeansConfig, cores: u32) -> KMeansReport {
    let mut sim = Sim::new(cfg.seed);
    let vm = LocalVm::new(&sim, "vm", cores);
    let out: Arc<Mutex<Option<KMeansReport>>> = Arc::new(Mutex::new(None));
    // The aggregator the DSO runs, here in process, and the SSE of each
    // generation, keyed as `GlobalDelta` keys it.
    let init = CentroidsInit {
        k: cfg.k,
        dims: cfg.dims as u32,
        workers: cfg.workers,
        initial: flatten(&initial_centroids(cfg.seed, cfg.k, cfg.dims)),
    };
    let centroids = Arc::new(Mutex::new(GlobalCentroids::new_init(init).expect("valid init")));
    let delta: Arc<Mutex<BTreeMap<u64, f64>>> = Arc::new(Mutex::new(BTreeMap::new()));
    let barrier = crucial::sync::LocalBarrier::new(cfg.workers as usize);
    let done = crucial::sync::WaitGroup::new(cfg.workers as usize);
    let t_end = Arc::new(Mutex::new(SimTime::ZERO));
    for w in 0..cfg.workers {
        let vm = vm.clone();
        let centroids = centroids.clone();
        let delta = delta.clone();
        let barrier = barrier.clone();
        let done = done.clone();
        let cfg = cfg.clone();
        let t_end = t_end.clone();
        // table4: local
        sim.spawn(&format!("local-{w}"), move |ctx| {
            let part =
                kmeans_partition(cfg.seed, w as usize, cfg.sample_points, cfg.dims, cfg.k as usize);
            let assign_cost = kmeans_assign_cost(&cfg.scale, cfg.k);
            for _ in 0..cfg.iterations {
                // Fetch current centroids.
                let (generation, current) = centroids.lock().snapshot();
                let current = unflatten(&current, cfg.dims);
                // computeClusters(): the real math on the sample, charged at
                // paper scale.
                let (sums, counts, sse) = assign_partials(&part.points, &current);
                vm.compute(ctx, assign_cost);
                // globalDelta.update(localDelta)
                *delta.lock().entry(generation).or_default() += sse;
                // centroids.update(localCentroids, localSizes)
                centroids.lock().apply_update(&flatten(&sums), &counts).expect("shapes match");
                // barrier.await()
                barrier.wait(ctx);
            }
            {
                let mut e = t_end.lock();
                if ctx.now() > *e {
                    *e = ctx.now();
                }
            }
            done.done(ctx);
        });
        // table4: end
    }
    let out2 = out.clone();
    let t_end2 = t_end.clone();
    sim.spawn("local-master", move |ctx| {
        done.wait(ctx);
        let end = *t_end2.lock();
        let report = KMeansReport {
            iteration_phase: end.saturating_duration_since(SimTime::ZERO),
            total: end.saturating_duration_since(SimTime::ZERO),
            sse_per_iteration: delta.lock().values().copied().collect(),
            cost_dollars: 0.0,
        };
        *out2.lock() = Some(report);
    });
    sim.run_until_idle().expect_quiescent();
    let report = out.lock().take().expect("master finished");
    report
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn tiny_cfg() -> KMeansConfig {
        KMeansConfig {
            seed: 5,
            workers: 4,
            k: 3,
            iterations: 3,
            sample_points: 60,
            dims: 8,
            scale: DatasetScale { total_points: 400_000, dims: 8, partitions: 4 },
            include_load: false,
            dso_nodes: 1,
            memory_mb: 2048,
        }
    }

    /// SSE per iteration of [`tiny_cfg`] on each substrate, as `to_bits()`,
    /// recorded with the one-chain-per-centroid assignment loop (now
    /// [`assign_partials_reference`]). The local VM folds its workers'
    /// partials in another order than the DSO, hence its last bit in
    /// iteration 1; Spark's series is evaluated after each update.
    const CRUCIAL_SSE_BITS: [u64; 3] =
        [0x40f8_44a0_51f9_9633, 0x40da_1068_7be2_cd0c, 0x40d5_0417_8f8f_66b2];
    const SPARK_SSE_BITS: [u64; 3] =
        [0x40da_1068_7be2_cd0d, 0x40d5_0417_8f8f_66b2, 0x40d5_0417_8f8f_66b2];
    const LOCAL_SSE_BITS: [u64; 3] =
        [0x40f8_44a0_51f9_9634, 0x40da_1068_7be2_cd0c, 0x40d5_0417_8f8f_66b2];

    /// The bit patterns of `xs`, so that float results compare exactly
    /// (`-0.0` and `0.0` differ).
    fn bits<'a>(xs: impl IntoIterator<Item = &'a f64>) -> Vec<u64> {
        xs.into_iter().map(|x| x.to_bits()).collect()
    }

    /// The assignment pass as it was first written, verbatim: one `.sum()`
    /// chain per (point, centroid) pair, centroids compared in index order.
    /// [`assign_partials`] must return the same bits.
    fn assign_partials_reference(
        points: &[Vec<f64>],
        centroids: &[Vec<f64>],
    ) -> (Vec<Vec<f64>>, Vec<u64>, f64) {
        let k = centroids.len();
        let dims = centroids.first().map_or(0, Vec::len);
        let mut sums = vec![vec![0.0; dims]; k];
        let mut counts = vec![0u64; k];
        let mut sse = 0.0;
        for p in points {
            let mut best = 0usize;
            let mut best_d2 = f64::INFINITY;
            for (c, centre) in centroids.iter().enumerate() {
                let d2: f64 = centre.iter().zip(p).map(|(a, b)| (a - b) * (a - b)).sum();
                if d2 < best_d2 {
                    best_d2 = d2;
                    best = c;
                }
            }
            for (s, x) in sums[best].iter_mut().zip(p) {
                *s += x;
            }
            counts[best] += 1;
            sse += best_d2;
        }
        (sums, counts, sse)
    }

    /// Asserts that `assign_partials` and the reference agree bit for bit.
    fn assert_matches_reference(
        points: &[Vec<f64>],
        centroids: &[Vec<f64>],
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let (sums, counts, sse) = assign_partials(points, centroids);
        let (ref_sums, ref_counts, ref_sse) = assign_partials_reference(points, centroids);
        prop_assert_eq!(counts, ref_counts);
        prop_assert_eq!(sse.to_bits(), ref_sse.to_bits());
        prop_assert_eq!(sums.len(), ref_sums.len());
        prop_assert_eq!(bits(sums.iter().flatten()), bits(ref_sums.iter().flatten()));
        Ok(())
    }

    /// Most dimensions and points a case draws; the pool holds one row of
    /// `MAX_DIMS` coordinates per centroid and per point.
    const MAX_DIMS: usize = 130;
    const MAX_K: usize = 40;
    const MAX_POINTS: usize = 40;

    /// One case's coordinate pool: small integers, which make distances
    /// tie exactly, or arbitrary finite values.
    fn coordinate_pool() -> impl Strategy<Value = Vec<f64>> {
        let n = (MAX_K + MAX_POINTS) * MAX_DIMS;
        prop_oneof![
            proptest::collection::vec((-3i32..=3).prop_map(f64::from), n..n + 1),
            proptest::collection::vec(any::<f64>(), n..n + 1),
        ]
    }

    /// One case's offsets, a row of `MAX_DIMS` per centroid and per point:
    /// mostly `0`, a quarter `±1`.
    fn offset_pool() -> impl Strategy<Value = Vec<f64>> {
        let n = (MAX_K + MAX_POINTS) * MAX_DIMS;
        let offset = (0u8..8).prop_map(|v| match v {
            0 => -1.0,
            1 => 1.0,
            _ => 0.0,
        });
        proptest::collection::vec(offset, n..n + 1)
    }

    /// How a case lays out its centroids and points.
    #[derive(Clone, Copy, Debug)]
    enum Shape {
        /// Centroids and points are independent rows of the pool: rarely
        /// close enough to each other for a block to be skipped.
        Rows,
        /// Point `i` is centroid `i % k` plus its offsets. The others pass
        /// its distance within a few dimensions, so whole blocks are
        /// skipped.
        NearCentroids,
        /// Centroids and points are all one row plus their offsets. Their
        /// distances are small integers that tie exactly, and which block's
        /// head partial is least depends on where the offsets fall, so the
        /// block visited first often holds a tie with a higher index than a
        /// later one.
        NearOneRow,
    }

    proptest! {
        #[test]
        fn assignment_matches_the_one_chain_reference(
            (k, dims, n, period) in (1..=MAX_K, 0..=MAX_DIMS, 0..=MAX_POINTS, 1..=MAX_K),
            shape in prop_oneof![
                Just(Shape::Rows),
                Just(Shape::NearCentroids),
                Just(Shape::NearOneRow),
            ],
            pool in coordinate_pool(),
            offsets in offset_pool(),
        ) {
            let row = |pool: &[f64], i: usize| pool[i * MAX_DIMS..][..dims].to_vec();
            let shifted = |base: &[f64], i: usize| -> Vec<f64> {
                base.iter().zip(row(&offsets, i)).map(|(x, o)| x + o).collect()
            };
            // Centroid `c` repeats centroid `c % period`: duplicates tie
            // exactly, within a block of lanes and across blocks.
            let centroids: Vec<Vec<f64>> = (0..k)
                .map(|c| match shape {
                    Shape::Rows | Shape::NearCentroids => row(&pool, c % period),
                    Shape::NearOneRow => shifted(&row(&pool, 0), c % period),
                })
                .collect();
            let points: Vec<Vec<f64>> = (MAX_K..MAX_K + n)
                .map(|i| match shape {
                    Shape::Rows => row(&pool, i),
                    Shape::NearCentroids => shifted(&centroids[i % k], i),
                    Shape::NearOneRow => shifted(&row(&pool, 0), i),
                })
                .collect();
            assert_matches_reference(&points, &centroids)?;
        }
    }

    #[test]
    fn no_dimensions_assigns_every_point_to_centroid_zero() {
        let points = vec![Vec::new(); 3];
        let centroids = vec![Vec::new(); 6];
        let (_, counts, sse) = assign_partials(&points, &centroids);
        assert_eq!(counts, vec![3, 0, 0, 0, 0, 0]);
        assert_eq!(sse.to_bits(), 0.0f64.to_bits());
        assert_matches_reference(&points, &centroids).expect("same bits as the reference");
    }

    #[test]
    fn assign_partials_matches_hand_example() {
        let points = vec![vec![0.0, 0.0], vec![0.2, 0.0], vec![10.0, 10.0]];
        let centroids = vec![vec![0.0, 0.0], vec![10.0, 10.0]];
        let (sums, counts, sse) = assign_partials(&points, &centroids);
        assert_eq!(counts, vec![2, 1]);
        assert!((sums[0][0] - 0.2).abs() < 1e-12);
        assert_eq!(sums[1], vec![10.0, 10.0]);
        assert!((sse - 0.04).abs() < 1e-12);
    }

    #[test]
    fn sse_decreases_monotonically_on_crucial() {
        let report = run_crucial_kmeans(&tiny_cfg());
        assert_eq!(bits(&report.sse_per_iteration), CRUCIAL_SSE_BITS);
        for w in report.sse_per_iteration.windows(2) {
            assert!(
                w[1] <= w[0] * 1.0001,
                "k-means SSE must not increase: {:?}",
                report.sse_per_iteration
            );
        }
        assert!(report.cost_dollars > 0.0);
        assert!(report.iteration_phase > Duration::ZERO);
        assert!(report.total >= report.iteration_phase);
    }

    #[test]
    fn spark_and_crucial_converge_to_similar_sse() {
        let crucial = run_crucial_kmeans(&tiny_cfg());
        let spark = run_spark_kmeans(&tiny_cfg());
        assert_eq!(bits(&crucial.sse_per_iteration), CRUCIAL_SSE_BITS);
        assert_eq!(bits(&spark.sse_per_iteration), SPARK_SSE_BITS);
        let a = *crucial.sse_per_iteration.last().expect("iterations ran");
        let b = *spark.sse_per_iteration.last().expect("iterations ran");
        // Same data, same algorithm, same initial centroids: the final SSE
        // must agree closely (spark's series is evaluated post-update, so
        // allow slack of one iteration of improvement).
        let rel = (a - b).abs() / a.max(b);
        assert!(rel < 0.25, "crucial SSE {a} vs spark SSE {b}");
    }

    #[test]
    fn crucial_iterations_are_faster_than_spark() {
        let crucial = run_crucial_kmeans(&tiny_cfg());
        let spark = run_spark_kmeans(&tiny_cfg());
        assert!(
            crucial.iteration_phase < spark.iteration_phase,
            "crucial {:?} must beat spark {:?} (Fig. 5)",
            crucial.iteration_phase,
            spark.iteration_phase
        );
    }

    #[test]
    fn redis_variant_runs_and_is_slower_than_crucial() {
        // Paper-sized shared state (k=25, d=100 => 20 KB payloads): the
        // single-threaded Redis shard serializes the scripts while the DSO
        // worker pool absorbs them.
        let cfg = KMeansConfig {
            seed: 5,
            workers: 8,
            k: 25,
            iterations: 3,
            sample_points: 40,
            dims: 100,
            scale: DatasetScale { total_points: 80_000, dims: 100, partitions: 8 },
            include_load: false,
            dso_nodes: 1,
            memory_mb: 2048,
        };
        let crucial = run_crucial_kmeans(&cfg);
        let redis = run_redis_kmeans(&cfg);
        assert!(
            redis.iteration_phase > crucial.iteration_phase,
            "redis-backed {:?} must be slower than crucial {:?} (Fig. 5)",
            redis.iteration_phase,
            crucial.iteration_phase
        );
    }

    #[test]
    fn local_vm_runs_and_converges() {
        let report = run_local_kmeans(&tiny_cfg(), 8);
        assert_eq!(bits(&report.sse_per_iteration), LOCAL_SSE_BITS);
        for w in report.sse_per_iteration.windows(2) {
            assert!(w[1] <= w[0] * 1.0001);
        }
    }

    /// `run_local_kmeans` on [`tiny_cfg`] with 8 cores, pinned: its virtual
    /// time and its SSE bits.
    #[test]
    fn local_vm_run_is_pinned() {
        let report = run_local_kmeans(&tiny_cfg(), 8);
        assert_eq!(report.iteration_phase.as_nanos(), 9_144_000);
        assert_eq!(bits(&report.sse_per_iteration), LOCAL_SSE_BITS);
    }

    #[test]
    fn local_vm_slows_down_past_core_count() {
        let mut cfg = tiny_cfg();
        cfg.workers = 4;
        let t4 = run_local_kmeans(&cfg, 2).iteration_phase;
        cfg.workers = 2;
        let t2 = run_local_kmeans(&cfg, 2).iteration_phase;
        // Same per-worker input, twice the threads on 2 cores: ~2x slower.
        let ratio = t4.as_secs_f64() / t2.as_secs_f64();
        assert!(ratio > 1.6, "4 threads on 2 cores should be ~2x slower: {ratio}");
    }
}
