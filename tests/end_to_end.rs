//! Cross-crate integration tests: the whole stack — simulation kernel,
//! DSO tier, FaaS platform, programming model, applications — exercised
//! end to end.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use simcore::codec::Wire;
use simcore::Sim;

use crucial::{
    join_all, AtomicByteArray, CrucialConfig, Deployment, FnEnv, RetryPolicy, RunResult, Runnable,
    SharedFuture,
};
use crucial_apps::pi::run_pi_crucial;
use crucial_ml::cost::DatasetScale;
use crucial_ml::kmeans::{run_crucial_kmeans, run_local_kmeans, run_spark_kmeans, KMeansConfig};

#[test]
fn whole_stack_is_deterministic() {
    let a = run_pi_crucial(99, 12, 5_000_000);
    let b = run_pi_crucial(99, 12, 5_000_000);
    assert_eq!(a.estimate, b.estimate);
    assert_eq!(a.duration, b.duration);
    let c = run_pi_crucial(100, 12, 5_000_000);
    assert_ne!(a.duration, c.duration, "different seeds must differ");
}

#[test]
fn kmeans_substrates_converge_to_the_same_clustering() {
    let cfg = KMeansConfig {
        seed: 8,
        workers: 4,
        k: 3,
        iterations: 4,
        sample_points: 80,
        dims: 10,
        scale: DatasetScale { total_points: 200_000, dims: 10, partitions: 4 },
        include_load: false,
        dso_nodes: 1,
        memory_mb: 2048,
    };
    let crucial = run_crucial_kmeans(&cfg);
    let spark = run_spark_kmeans(&cfg);
    let local = run_local_kmeans(&cfg, 8);
    // Same data, same algorithm, same initial centroids: the crucial and
    // local SSE series must agree exactly (they evaluate pre-update).
    for (c, l) in crucial.sse_per_iteration.iter().zip(&local.sse_per_iteration) {
        assert!((c - l).abs() < 1e-6, "crucial {c} vs local {l}");
    }
    // Spark's series is evaluated post-update (MLlib's cost pass), so it
    // leads by one step; its final cost must be at or below crucial's.
    let c_last = *crucial.sse_per_iteration.last().expect("ran");
    let s_last = *spark.sse_per_iteration.last().expect("ran");
    assert!(s_last <= c_last * 1.001, "spark final SSE {s_last} vs crucial {c_last}");
}

/// Train (install) a replicated model through the full stack, crash a
/// storage node, and verify the model survives — §4.4 + §6.4 in one test.
#[derive(Wire)]
struct ModelReader {
    centroids: u32,
    rf: u8,
    expected_len: usize,
    result: SharedFuture<bool>,
}

impl Runnable for ModelReader {
    fn run(&mut self, env: &mut FnEnv<'_, '_>) -> RunResult {
        let mut ok = true;
        for i in 0..self.centroids {
            let c = AtomicByteArray::persistent(&format!("m-{i}"), Vec::new(), self.rf);
            let (ctx, dso) = env.dso();
            let v = c.get(ctx, dso).map_err(|e| e.to_string())?;
            ok &= v.len() == self.expected_len;
        }
        let (ctx, dso) = env.dso();
        let _ = self.result.set(ctx, dso, &ok).map_err(|e| e.to_string())?;
        Ok(())
    }
}

#[test]
fn replicated_model_survives_node_crash_read_from_a_function() {
    let mut sim = Sim::new(17);
    let cfg = CrucialConfig { dso_nodes: 3, ..CrucialConfig::default() };
    let dep = Deployment::start(&sim, cfg);
    dep.register::<ModelReader>();
    let threads = dep.threads();
    let dso = dep.dso_handle();
    let outcome = Arc::new(Mutex::new(None::<bool>));
    let out2 = outcome.clone();
    let servers: Vec<_> = dep.dso.servers().to_vec();
    sim.spawn("trainer", move |ctx| {
        let mut cli = dso.connect();
        for i in 0..16 {
            let c = AtomicByteArray::persistent(&format!("m-{i}"), Vec::new(), 2);
            c.set(ctx, &mut cli, &vec![7u8; 800]).expect("install");
        }
        // Crash one storage node; rf = 2 tolerates it.
        servers[1].crash_from(ctx);
        ctx.sleep(Duration::from_secs(10)); // failure detection + rebalance
        let result: SharedFuture<bool> = SharedFuture::new("verdict");
        let reader =
            ModelReader { centroids: 16, rf: 2, expected_len: 800, result: result.clone() };
        let h = threads.start(ctx, &reader);
        h.join(ctx).expect("reader runs");
        *out2.lock() = Some(result.get(ctx, &mut cli).expect("verdict"));
    });
    sim.run_until_idle().expect_quiescent();
    assert_eq!(*outcome.lock(), Some(true), "model intact after the crash");
}

/// Futures are idempotent (`set` is write-once), so map workers can crash
/// and retry without corrupting the reduced result.
#[derive(Wire)]
struct FlakyMapper {
    id: u32,
    out: SharedFuture<i64>,
}

impl Runnable for FlakyMapper {
    fn run(&mut self, env: &mut FnEnv<'_, '_>) -> RunResult {
        env.compute(Duration::from_millis(50));
        let value = (self.id as i64) * 10;
        let (ctx, dso) = env.dso();
        let _ = self.out.set(ctx, dso, &value).map_err(|e| e.to_string())?;
        Ok(())
    }
}

#[test]
fn flaky_functions_with_retries_produce_an_exact_reduce() {
    let mut sim = Sim::new(18);
    let mut cfg = CrucialConfig::default();
    cfg.faas.failure_rate = 0.4;
    let dep = Deployment::start(&sim, cfg);
    dep.register::<FlakyMapper>();
    let threads = dep.threads().with_retry(RetryPolicy::retries(25));
    let dso = dep.dso_handle();
    let sum = Arc::new(Mutex::new(0i64));
    let sum2 = sum.clone();
    const N: u32 = 12;
    sim.spawn("reducer", move |ctx| {
        let mappers: Vec<FlakyMapper> = (0..N)
            .map(|id| FlakyMapper { id, out: SharedFuture::new(&format!("out-{id}")) })
            .collect();
        let handles = threads.start_all(ctx, &mappers);
        join_all(ctx, handles).expect("all eventually succeed");
        let mut cli = dso.connect();
        let mut total = 0;
        for id in 0..N {
            let f: SharedFuture<i64> = SharedFuture::new(&format!("out-{id}"));
            total += f.get(ctx, &mut cli).expect("set exactly once");
        }
        *sum2.lock() = total;
    });
    sim.run_until_idle().expect_quiescent();
    // sum of id*10 for id in 0..12 = 660, exactly once each despite crashes.
    assert_eq!(*sum.lock(), 660);
}
