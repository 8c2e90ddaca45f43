//! k-means clustering (§6.2): the core math plus four complete
//! implementations — Crucial cloud threads (Listing 2), the mini-Spark
//! baseline, the Redis-backed Crucial variant, and a single-machine
//! multi-threaded solution (Fig. 3's VM baselines).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use crucial::{
    join_all, spawn_redis, AtomicLong, CrucialConfig, CyclicBarrier, Deployment, FnEnv,
    RedisHandle, RunResult, Runnable, ScriptRegistry, Sim, SimTime,
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

/// Relative margin that widens both sides of [`Assigner`]'s bound test,
/// 2⁻³²: far above the relative rounding error of a computed distance
/// over at most [`BOUNDED_DIMS`] dimensions, which is below 2⁻³⁶.
const MARGIN: f64 = f64::from_bits((1023 - 32) << 52);

/// Absolute margin of a bound, 2⁻⁵⁰⁰: far above the root of what
/// underflow can take from a sum of at most [`BOUNDED_DIMS`] squares,
/// below 2⁻⁵²⁹.
const TINY: f64 = f64::from_bits((1023 - 500) << 52);

/// Cap on a lower bound, 2⁵⁰⁰: a computed sum that overflowed to `+∞`
/// still bounds the exact distance from below by 2⁵¹¹.
const LIMIT: f64 = f64::from_bits((1023 + 500) << 52);

/// Most dimensions for which [`Assigner`] keeps bounds; past it every
/// point is searched in full.
const BOUNDED_DIMS: usize = 1 << 16;

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

/// Lane `j`'s sum alone: the same terms in the same order from `0.0`.
// table4: local crucial
#[inline(always)]
fn lane_sum(rows: &[[f64; LANES]], xs: &[f64], j: usize) -> f64 {
    rows.iter().zip(xs).fold(0.0, |s, (row, &x)| s + (row[j] - x) * (row[j] - x))
}
// table4: end

/// An upper bound on the exact distance whose computed square is `d2`;
/// `+∞` for a NaN.
// table4: local crucial
fn upper_root(d2: f64) -> f64 {
    if d2.is_nan() {
        f64::INFINITY
    } else {
        d2.sqrt() * (1.0 + MARGIN) + TINY
    }
}
// table4: end

/// A lower bound on the exact distance whose computed square, or a partial
/// of it, is `d2` (never NaN), capped at [`LIMIT`].
// table4: local crucial
fn lower_root(d2: f64) -> f64 {
    (d2.sqrt() * (1.0 - MARGIN) - TINY).min(LIMIT)
}
// table4: end

/// What an [`Assigner`] knows of one point from its last pass.
// table4: local crucial
#[derive(Clone, Copy, Debug)]
struct Bounds {
    /// The centroid the point went to.
    winner: usize,
    /// At least the exact distance to `winner`.
    upper: f64,
    /// At most the exact distance to every other centroid.
    lower: f64,
}

impl Bounds {
    /// Bounds that separate nothing, so the next pass searches in full.
    const NONE: Bounds = Bounds { winner: 0, upper: f64::INFINITY, lower: 0.0 };
}
// table4: end

/// Assignment passes over one set of points that carry what each pass
/// learned about every point to the next: its winner, an upper bound on
/// the distance to it and a lower bound on the distance to every other
/// centroid (Hamerly's bounds). A worker holds one for its whole body, as
/// Listing 2's cloud thread holds its partition.
///
/// **A pass.** The centroids are packed into blocks of four (`LANES`),
/// each block dimension-major: `packed[(b·dims + d)·LANES + j] =
/// centroids[LANES·b + j][d]`, `+∞` in the lanes past the last centroid.
/// The assigner keeps the last pass's centroids rounded to `f32`, half the
/// size of a copy, with each copy's distance from the centroid it rounds.
/// A centroid's drift `δ`, a bound on how far it moved, is its distance
/// from that copy plus the copy's own. A point then takes the fast path
/// when its bounds still separate,
/// `(upper + δ[winner])·(1 + m) < (lower − max δ of the others)·(1 − m)`
/// with `m` = 2⁻³², and recomputes only its winner's d², with the same
/// terms in the same order from `0.0` as that centroid's lane. Every other
/// point runs the block search, which also yields its new lower bound.
///
/// **The block search.** It first sums the first `HEAD` dimensions of
/// every block, four independent chains per block that the compiler turns
/// into vector arithmetic without reassociating a sum. It visits first the
/// block whose head partial holds the smallest lane, then the others in
/// index order, each continuing from its head partial. Every `STRIDE`
/// dimensions it skips the rest of a block once every lane's running sum
/// is strictly `>` the best distance so far. The winner is the least
/// `(d², index)`, starting from index 0 at `+∞`. The new lower bound is the
/// root of the least other lane: its partial when its block was skipped,
/// else its full sum.
///
/// **Same bits as one `.sum()` per centroid.** Each lane adds exactly the
/// terms a per-centroid `.sum()` adds, in the same order, from `0.0` where
/// std's float sum may start from `−0.0`, which gives the same bits for
/// every term a square can be. A `+∞` pad never compares less than
/// anything, and with no dimensions every distance is `0.0` and centroid 0
/// wins. Skipping changes none of it:
/// - Round-to-nearest is monotone: for a partial `s ≥ 0` and a term
///   `t = (c − x)²`, which is `≥ 0` or `+∞`, `fl(s + t) ≥ s`. A lane whose
///   partial is already `> best` ends `> best`, and can neither win nor tie.
/// - The test is strict `>`: an equal partial may still tie, and a tie
///   goes to the lower index, as the first minimum does in index order.
/// - A NaN compares false, so a block with a NaN lane is never skipped,
///   and a NaN distance never wins, exactly as in index order with `<`.
/// - The least `(d², index)` over the distances that are not NaN, and
///   `(+∞, 0)`, is what the strict `<` in index order keeps whatever the
///   visiting order.
///
/// The fast path keeps those bits too. Let `D` be exact distances over the
/// dimensions the point has, `ε` = 2⁻⁵³ and `n ≤ BOUNDED_DIMS` the terms:
/// - Triangle inequality: the distance from the kept copy plus the copy's
///   own bounds how far a centroid moved, and a centroid that moved by at
///   most `δ` is now within `D + δ` and at least `D − δ` of the point. So
///   the winner is now at most `upper + δ[winner]` away and every other
///   centroid at least `lower − max δ` away.
/// - Rounding of a computed d²: with no overflow, each term is off by a
///   factor within `(1 ± ε)²` plus `2⁻¹⁰⁷⁵` of underflow, and each add by
///   `1 ± ε`, so a sum (or partial) `s` of `n` squares lies within
///   `S·(1 ± ε)ⁿ⁺²` `± n·2⁻¹⁰⁷⁵` of the exact sum `S`: a relative error
///   below 2⁻³⁶, and after the root an absolute one below 2⁻⁵²⁹. Hence
///   `√s·(1 + m) + 2⁻⁵⁰⁰` rounded is `≥ D` and `√s·(1 − m) − 2⁻⁵⁰⁰` is
///   `≤ D`, drifts included. A sum that overflowed to `+∞` makes no upper
///   bound (`+∞` fails every test) and means `D ≥ 2⁵¹¹`, above the 2⁵⁰⁰
///   cap on a lower bound. Partials are no larger than the full sum.
/// - The strict margin: the test's `(1 ± m)` covers the few adds and
///   multiplies that build it, so a passing test means the winner is now
///   exactly closer than every other centroid by a factor below `1 − m`,
///   at a distance above 2⁻⁵⁰⁰. That gap exceeds what rounding can take from both
///   computed d², so the winner's computed d² is strictly the least: no
///   tie, whatever the indices, and the winner is the one-chain loop's.
/// - A full search whenever the argument fails: a NaN or `+∞` drift counts
///   as `+∞`, a NaN lane (a centroid with a NaN coordinate, whose drift is
///   then NaN) bounds nothing, a point no centroid is finitely close to
///   keeps an upper bound of `+∞`, and past `BOUNDED_DIMS` dimensions, or
///   when `k` or `dims` changes, no bounds are kept. A lower bound that
///   drifts to `≤ 0` fails the test against any upper bound.
///
/// The sums, counts and SSE depend only on each point's winner and its
/// d², and are therefore the bits the per-centroid loop returns
/// (`kmeans::tests` holds the two to that over sequences of centroids).
// table4: local crucial
pub struct Assigner<'p> {
    points: &'p [Vec<f64>],
    /// `(k, dims)` of the last pass's centroids; `None` before a pass.
    shape: Option<(usize, usize)>,
    /// The last pass's centroids rounded to `f32`, packed as they were.
    kept: Vec<[f32; LANES]>,
    /// Per centroid and pad lane, at least the distance between its `kept`
    /// copy and the centroid the copy rounds.
    kept_off: Vec<f64>,
    /// Per point, from the last pass.
    bounds: Vec<Bounds>,
    /// Points the last pass searched in full.
    searched: usize,
}

impl<'p> Assigner<'p> {
    /// An assigner over `points`, which knows nothing of them yet.
    pub fn new(points: &'p [Vec<f64>]) -> Self {
        Assigner {
            points,
            shape: None,
            kept: Vec::new(),
            kept_off: Vec::new(),
            bounds: Vec::new(),
            searched: 0,
        }
    }

    /// Points the last pass searched in full, not on the fast path.
    pub fn searched(&self) -> usize {
        self.searched
    }

    /// One assignment pass: per-cluster coordinate sums, flattened
    /// (`k × dims`, cluster-major), per-cluster counts, and the
    /// within-cluster sum of squared errors. Each point goes to its nearest
    /// centroid, the lowest index among equals. Bounds carry over from the
    /// last pass when `k` and `dims` are the same.
    pub fn assign(&mut self, centroids: &[Vec<f64>]) -> (Vec<f64>, Vec<u64>, f64) {
        let k = centroids.len();
        let dims = centroids.first().map_or(0, Vec::len);
        let block_len = dims * LANES;
        let blocks = k.div_ceil(LANES);
        let kept = self.shape == Some((k, dims));
        if !kept {
            self.shape = Some((k, dims));
            self.kept = vec![[f32::NAN; LANES]; blocks * dims];
            self.kept_off = vec![f64::INFINITY; blocks * LANES];
            self.bounds = vec![Bounds::NONE; self.points.len()];
        }
        let mut sums = vec![0.0; k * dims];
        let mut counts = vec![0u64; k];
        // Packed after the outputs, so that freeing the copy on return leaves
        // no hole under them in the allocator (the other order measured
        // +0.24 MB of peak RSS on the acceptance benchmark's k-means run).
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
        // Each centroid's drift, measured against its kept copy and that
        // copy's own error, four at a time, before the copies are replaced.
        // With no copy kept, every point is searched, and no drift is read.
        let mut drift = Vec::with_capacity(if kept { k } else { 0 });
        for (b, rows) in rows.iter().enumerate() {
            let (mut moved, mut off) = ([0.0; LANES], [0.0; LANES]);
            for (row, copy) in rows.iter().zip(&mut self.kept[b * dims..][..dims]) {
                for j in 0..LANES {
                    if kept {
                        let last = f64::from(copy[j]);
                        moved[j] += (row[j] - last) * (row[j] - last);
                    }
                    copy[j] = row[j] as f32;
                    let error = row[j] - f64::from(copy[j]);
                    off[j] += error * error;
                }
            }
            let kept_off = &mut self.kept_off[b * LANES..][..LANES];
            for ((kept_off, moved), off) in kept_off.iter_mut().zip(moved).zip(off) {
                if kept {
                    drift.push(upper_root(moved) + *kept_off);
                }
                *kept_off = upper_root(off);
            }
        }
        drift.truncate(k);
        // The largest drift, its centroid, and the largest of the others.
        let (mut far, mut far_at, mut next) = (0.0, k, 0.0);
        for (c, &d) in drift.iter().enumerate() {
            if d > far {
                (next, far, far_at) = (far, d, c);
            } else if d > next {
                next = d;
            }
        }
        let mut heads = vec![[0.0; LANES]; blocks];
        let mut sse = 0.0;
        self.searched = 0;
        for (p, bounds) in self.points.iter().zip(&mut self.bounds) {
            let p = &p[..dims.min(p.len())];
            let a = bounds.winner;
            let others = if a == far_at { next } else { far };
            let lower = (bounds.lower - others) * (1.0 - MARGIN);
            let (best, best_d2) = if kept && (bounds.upper + drift[a]) * (1.0 + MARGIN) < lower {
                let d2 = lane_sum(&rows[a / LANES][..p.len()], p, a % LANES);
                *bounds = Bounds { winner: a, upper: upper_root(d2), lower };
                (a, d2)
            } else {
                self.searched += 1;
                let (best, best_d2, second) = search(&rows, &mut heads, p);
                *bounds = if dims <= BOUNDED_DIMS {
                    Bounds { winner: best, upper: upper_root(best_d2), lower: lower_root(second) }
                } else {
                    Bounds::NONE
                };
                (best, best_d2)
            };
            for (s, x) in sums[best * dims..][..dims].iter_mut().zip(p) {
                *s += x;
            }
            counts[best] += 1;
            sse += best_d2;
        }
        (sums, counts, sse)
    }
}
// table4: end

/// The block search for one point: its winner, the winner's d², and the
/// least d² or skipped partial of every other lane.
// table4: local crucial
fn search(rows: &[&[[f64; LANES]]], heads: &mut [[f64; LANES]], p: &[f64]) -> (usize, f64, f64) {
    let (len, head) = (p.len(), HEAD.min(p.len()));
    for (acc, rows) in heads.iter_mut().zip(rows) {
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
    let (mut best, mut best_d2, mut second) = (0, f64::INFINITY, f64::INFINITY);
    let order = std::iter::once(first).chain((0..rows.len()).filter(|&b| b != first));
    'blocks: for b in order {
        let rows = &rows[b][..len];
        let mut acc = heads[b];
        let mut d = head;
        while len - d > STRIDE {
            add_terms(&mut acc, &rows[d..d + STRIDE], &p[d..d + STRIDE]);
            d += STRIDE;
            if acc.iter().all(|&a| a > best_d2) {
                second = acc.iter().fold(second, |s, &a| s.min(a));
                continue 'blocks;
            }
        }
        add_terms(&mut acc, &rows[d..], &p[d..]);
        for (j, &d2) in acc.iter().enumerate() {
            let c = b * LANES + j;
            if d2 < best_d2 || (d2 == best_d2 && c < best) {
                second = second.min(best_d2);
                (best, best_d2) = (c, d2);
            } else {
                second = second.min(d2);
            }
        }
    }
    (best, best_d2, second)
}
// table4: end

/// One assignment pass with nothing carried over: the first pass of a
/// fresh [`Assigner`], for a caller that holds no state between passes.
// table4: local crucial
pub fn assign_partials(points: &[Vec<f64>], centroids: &[Vec<f64>]) -> (Vec<f64>, Vec<u64>, f64) {
    Assigner::new(points).assign(centroids)
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
        let mut assigner = Assigner::new(&part.points);
        for _ in 0..self.cfg.iterations {
            // Fetch current centroids (remote method, §4.2).
            let (generation, current) = {
                let (ctx, dso) = env.dso();
                self.centroids.read(ctx, dso).map_err(|e| e.to_string())?
            };
            // computeClusters(): the real math on the sample, charged at
            // paper scale.
            let (sums, counts, sse) = assigner.assign(&current);
            drop(current);
            env.compute(assign_cost);
            {
                let (ctx, dso) = env.dso();
                // globalDelta.update(localDelta)
                self.delta.add(ctx, dso, generation, sse).map_err(|e| e.to_string())?;
                // centroids.update(localCentroids, localSizes)
                self.centroids.update(ctx, dso, sums, counts).map_err(|e| e.to_string())?;
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
            let out = crucial::codec::to_bytes(&(sums, counts, sse)).expect("encode");
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
        let mut assigner = Assigner::new(&part.points);
        for _ in 0..self.cfg.iterations {
            let raw = {
                let redis = self.redis.clone();
                redis.eval(env.ctx(), "km_read", "centroids", Vec::new())
            };
            let (_generation, flat): (u64, Vec<f64>) =
                crucial::codec::from_bytes(&raw).map_err(|e| e.to_string())?;
            let current = unflatten(&flat, self.cfg.dims);
            let (sums, counts, _sse) = assigner.assign(&current);
            env.compute(assign_cost);
            {
                let args = crucial::codec::to_bytes(&(sums, counts)).map_err(|e| e.to_string())?;
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
    let redis = spawn_redis(&sim, 1, kmeans_redis_scripts());
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
            let mut assigner = Assigner::new(&part.points);
            for _ in 0..cfg.iterations {
                // Fetch current centroids.
                let (generation, current) = centroids.lock().snapshot();
                let current = unflatten(&current, cfg.dims);
                // computeClusters(): the real math on the sample, charged at
                // paper scale.
                let (sums, counts, sse) = assigner.assign(&current);
                drop(current);
                vm.compute(ctx, assign_cost);
                // globalDelta.update(localDelta)
                *delta.lock().entry(generation).or_default() += sse;
                // centroids.update(localCentroids, localSizes)
                centroids.lock().apply_update(&sums, &counts).expect("shapes match");
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
        assert_reference_bits(assign_partials(points, centroids), points, centroids)
    }

    /// Asserts that `pass`, a pass over `points` and `centroids`, holds the
    /// bits the reference returns.
    fn assert_reference_bits(
        (sums, counts, sse): (Vec<f64>, Vec<u64>, f64),
        points: &[Vec<f64>],
        centroids: &[Vec<f64>],
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let (ref_sums, ref_counts, ref_sse) = assign_partials_reference(points, centroids);
        prop_assert_eq!(counts, ref_counts);
        prop_assert_eq!(sse.to_bits(), ref_sse.to_bits());
        prop_assert_eq!(bits(&sums), bits(ref_sums.iter().flatten()));
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
        /// Centroids and points on the diagonal, centroid `c` at `2(k − c)`
        /// and the points at `0` or below: every point's winner is the last
        /// centroid, the one before it comes next, and the triangle
        /// inequality is an equality, so only rounding can say on which
        /// side of a bound a distance falls. The coordinates are small
        /// integers, exact in `f32`, so the kept copies add no slack.
        Diagonal,
    }

    /// Any of the case shapes.
    fn shape() -> impl Strategy<Value = Shape> {
        prop_oneof![
            Just(Shape::Rows),
            Just(Shape::NearCentroids),
            Just(Shape::NearOneRow),
            Just(Shape::Diagonal),
        ]
    }

    /// A case's points and centroids: `k` centroids of `dims` dimensions,
    /// centroid `c` repeating centroid `c % period`, and `n` points, laid
    /// out as `shape` says.
    fn layout(
        (k, dims, n, period): (usize, usize, usize, usize),
        shape: Shape,
        pool: &[f64],
        offsets: &[f64],
    ) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let row = |pool: &[f64], i: usize| pool[i * MAX_DIMS..][..dims].to_vec();
        let shifted = |base: &[f64], i: usize| -> Vec<f64> {
            base.iter().zip(row(offsets, i)).map(|(x, o)| x + o).collect()
        };
        let diagonal = |t: f64| vec![t; dims];
        // Duplicates tie exactly, within a block of lanes and across blocks.
        let centroids: Vec<Vec<f64>> = (0..k)
            .map(|c| match shape {
                Shape::Rows | Shape::NearCentroids => row(pool, c % period),
                Shape::NearOneRow => shifted(&row(pool, 0), c % period),
                Shape::Diagonal => diagonal(2.0 * (k - c) as f64),
            })
            .collect();
        let points = (MAX_K..MAX_K + n)
            .map(|i| match shape {
                Shape::Rows => row(pool, i),
                Shape::NearCentroids => shifted(&centroids[i % k], i),
                Shape::NearOneRow => shifted(&row(pool, 0), i),
                Shape::Diagonal => diagonal(-((pool[i].to_bits() % 31) as f64)),
            })
            .collect();
        (points, centroids)
    }

    proptest! {
        #[test]
        fn assignment_matches_the_one_chain_reference(
            sizes in (1..=MAX_K, 0..=MAX_DIMS, 0..=MAX_POINTS, 1..=MAX_K),
            shape in shape(),
            pool in coordinate_pool(),
            offsets in offset_pool(),
        ) {
            let (points, centroids) = layout(sizes, shape, &pool, &offsets);
            assert_matches_reference(&points, &centroids)?;
        }
    }

    /// How one pass's centroids become the next pass's.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        /// The same centroids again, bit for bit.
        Repeat,
        /// Every coordinate moves by its offset times the scale.
        Drift(f64),
        /// Centroid `to` jumps onto centroid `from`: an exact tie, which the
        /// lower index wins whichever block is visited first.
        Copy { from: usize, to: usize },
        /// Every centroid but the last jumps onto the next one: each ties
        /// the one after it, which a point may have won.
        Shift,
        /// Centroid `c` jumps to a pool row times `scale`, far off.
        Jump { c: usize, scale: f64 },
        /// A Lloyd step: each centroid moves to the mean of the points it
        /// won, and one that won none stays where it is.
        Lloyd,
        /// Coordinate `d` of centroid `c` becomes `v`: NaN or ±∞.
        Poison { c: usize, d: usize, v: f64 },
    }

    fn step() -> impl Strategy<Value = Step> {
        let special = prop_oneof![Just(f64::NAN), Just(f64::INFINITY), Just(f64::NEG_INFINITY)];
        prop_oneof![
            Just(Step::Repeat),
            prop_oneof![Just(1e-9), Just(1e-3), Just(0.25), Just(1.0)].prop_map(Step::Drift),
            (0..MAX_K, 0..MAX_K).prop_map(|(from, to)| Step::Copy { from, to }),
            Just(Step::Shift),
            Just(Step::Shift),
            (0..MAX_K, prop_oneof![Just(1e3), Just(1e9)])
                .prop_map(|(c, scale)| Step::Jump { c, scale }),
            Just(Step::Lloyd),
            Just(Step::Lloyd),
            (0..MAX_K, 0..MAX_DIMS, special).prop_map(|(c, d, v)| Step::Poison { c, d, v }),
        ]
    }

    /// Applies `step`, the `i`th of a sequence, to `centroids`.
    fn apply(
        step: Step,
        i: usize,
        centroids: &mut [Vec<f64>],
        points: &[Vec<f64>],
        pool: &[f64],
        offsets: &[f64],
    ) {
        let k = centroids.len();
        fn row(pool: &[f64], r: usize) -> &[f64] {
            &pool[r % (MAX_K + MAX_POINTS) * MAX_DIMS..]
        }
        match step {
            Step::Repeat => {}
            Step::Drift(scale) => {
                for (c, centre) in centroids.iter_mut().enumerate() {
                    for (x, o) in centre.iter_mut().zip(row(offsets, c + 7 * i)) {
                        *x += o * scale;
                    }
                }
            }
            Step::Copy { from, to } => centroids[to % k] = centroids[from % k].clone(),
            Step::Shift => {
                for c in 1..k {
                    centroids[c - 1] = centroids[c].clone();
                }
            }
            Step::Jump { c, scale } => {
                for (x, &v) in centroids[c % k].iter_mut().zip(row(pool, c + 3 * i)) {
                    *x = v * scale;
                }
            }
            Step::Lloyd => {
                let (sums, counts, _) = assign_partials_reference(points, centroids);
                for ((centre, sum), n) in centroids.iter_mut().zip(sums).zip(counts) {
                    if n > 0 {
                        *centre = sum.iter().map(|s| s / n as f64).collect();
                    }
                }
            }
            Step::Poison { c, d, v } => {
                let centre = &mut centroids[c % k];
                if !centre.is_empty() {
                    let d = d % centre.len();
                    centre[d] = v;
                }
            }
        }
    }

    proptest! {
        #[test]
        fn assigner_matches_the_one_chain_reference_pass_after_pass(
            sizes in (
                prop_oneof![1..=5usize, 1..=MAX_K],
                prop_oneof![0..=3usize, 0..=MAX_DIMS],
                0..=MAX_POINTS,
                1..=MAX_K,
            ),
            pool in coordinate_pool(),
            offsets in offset_pool(),
            steps in proptest::collection::vec(step(), 1..8),
        ) {
            for shape in [Shape::Rows, Shape::NearCentroids, Shape::NearOneRow, Shape::Diagonal] {
                let (points, mut centroids) = layout(sizes, shape, &pool, &offsets);
                let mut assigner = Assigner::new(&points);
                assert_reference_bits(assigner.assign(&centroids), &points, &centroids)?;
                prop_assert_eq!(assigner.searched(), points.len());
                // Small integers: a point that is exactly one centroid and no
                // other is one unit or more from the rest, so a pass over the
                // same centroids keeps it on the fast path. (With no
                // dimensions the pad lanes tie too.)
                if pool.iter().all(|x| x.fract() == 0.0) && !centroids[0].is_empty() {
                    let mut again = Assigner::new(&points);
                    again.assign(&centroids);
                    again.assign(&centroids);
                    let alone = points
                        .iter()
                        .filter(|p| centroids.iter().filter(|c| c == p).count() == 1)
                        .count();
                    prop_assert!(
                        again.searched() <= points.len() - alone,
                        "{shape:?}: {} of {} points searched; {alone} sit on a centroid of \
                         their own",
                        again.searched(),
                        points.len()
                    );
                }
                for (i, &step) in steps.iter().enumerate() {
                    apply(step, i, &mut centroids, &points, &pool, &offsets);
                    assert_reference_bits(assigner.assign(&centroids), &points, &centroids)?;
                }
            }
        }
    }

    /// A winner's own drift does not count against the other centroids.
    #[test]
    fn a_centroid_that_drifts_alone_keeps_its_points() {
        let points = vec![vec![1.0, 0.0]];
        let mut assigner = Assigner::new(&points);
        assigner.assign(&[vec![0.0, 0.0], vec![6.0, 0.0]]);
        assert_eq!(assigner.searched(), 1);
        // Centroid 0 moves by 3: the point is now at most 1 + 3 from it, and
        // 5 from centroid 1, which stayed.
        let centroids = [vec![3.0, 0.0], vec![6.0, 0.0]];
        let pass = assigner.assign(&centroids);
        assert_eq!(assigner.searched(), 0);
        assert_eq!(pass.1, vec![1, 0]);
        assert_reference_bits(pass, &points, &centroids).expect("same bits as the reference");
    }

    #[test]
    fn past_the_bounded_dimensions_every_point_is_searched() {
        let dims = BOUNDED_DIMS + 1;
        let points = vec![vec![1.0; dims], vec![-1.0; dims]];
        let centroids = [vec![2.0; dims], vec![-2.0; dims]];
        let mut assigner = Assigner::new(&points);
        for _ in 0..2 {
            let pass = assigner.assign(&centroids);
            assert_eq!(assigner.searched(), 2);
            assert_reference_bits(pass, &points, &centroids).expect("same bits as the reference");
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
        assert!((sums[0] - 0.2).abs() < 1e-12);
        assert_eq!(sums[2..], [10.0, 10.0]);
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
