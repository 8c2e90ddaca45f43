//! The snapshot/fork cold-start tier, observed precisely: the
//! `faas.start.*` and `faas.snapshot_cache.*` counters are asserted
//! *exactly* for a deterministic scenario (the style of the DSO two-tier
//! cache counter test), and the whole tier — restores, evictions, forks,
//! injected container crashes — holds its invariants across perturbed
//! schedules under `explore_seeds`.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use simcore::explore::{explore_seeds, Check};
use simcore::{MetricsRegistry, Sim};

use faas::{
    spawn_platform, ColdStartPolicy, FaasConfig, FnCtx, FunctionRegistry, CONTAINER_IDLE_TIMEOUT,
};

fn tier_cfg(policy: ColdStartPolicy, capacity: usize, failure_rate: f64) -> FaasConfig {
    FaasConfig {
        cold_start_policy: policy,
        snapshot_cache_capacity: capacity,
        failure_rate,
        ..FaasConfig::default()
    }
}

/// Every `faas.start.*` and `faas.snapshot_cache.*` counter, exactly:
///
/// 1. `a` cold → cache miss, classic start, snapshot `a` captured.
/// 2. idle past the timeout, `a` again → container reaped, cache hit,
///    restore start.
/// 3. `b` cold → miss, classic; inserting `b`'s snapshot into the
///    capacity-1 cache evicts `a`.
/// 4. `a` again (its container long reaped) → miss, classic; inserting
///    `a` evicts `b`.
/// 5. a 2-way fork of `f` with no warm parent → miss, the parent boots
///    classically off the request path (counted as a classic start),
///    inserting `f` evicts `a`; both branches are fork starts.
#[test]
fn start_and_snapshot_cache_counters_exact() {
    let mut sim = Sim::new(71);
    let metrics = MetricsRegistry::new();
    sim.set_metrics(&metrics);
    let reg = FunctionRegistry::new();
    reg.register("a", 1792, |_env: &mut FnCtx<'_>, p: Vec<u8>| Ok(p));
    reg.register("b", 1792, |_env: &mut FnCtx<'_>, p: Vec<u8>| Ok(p));
    reg.register_with_policy("f", 1792, ColdStartPolicy::Fork, |_env: &mut FnCtx<'_>, p| Ok(p));
    let faas = spawn_platform(&sim, tier_cfg(ColdStartPolicy::SnapshotRestore, 1, 0.0), reg);
    let f2 = faas.clone();
    sim.spawn("client", move |ctx| {
        let _ = f2.invoke(ctx, "a", vec![1]).expect("step 1");
        ctx.sleep(CONTAINER_IDLE_TIMEOUT + Duration::from_secs(1));
        let _ = f2.invoke(ctx, "a", vec![2]).expect("step 2");
        ctx.sleep(CONTAINER_IDLE_TIMEOUT + Duration::from_secs(1));
        let _ = f2.invoke(ctx, "b", vec![3]).expect("step 3");
        ctx.sleep(CONTAINER_IDLE_TIMEOUT + Duration::from_secs(1));
        let _ = f2.invoke(ctx, "a", vec![4]).expect("step 4");
        ctx.sleep(CONTAINER_IDLE_TIMEOUT + Duration::from_secs(1));
        let results = f2.invoke_forked(ctx, "f", vec![vec![5], vec![6]]);
        assert!(results.iter().all(Result::is_ok), "step 5: {results:?}");
    });
    sim.run_until_idle().expect_quiescent();

    assert_eq!(metrics.counter_value("faas.start.classic"), 4, "steps 1, 3, 4 + fork parent");
    assert_eq!(metrics.counter_value("faas.start.restore"), 1, "step 2");
    assert_eq!(metrics.counter_value("faas.start.fork"), 2, "two branches");
    assert_eq!(metrics.counter_value("faas.snapshot_cache.hit"), 1, "step 2");
    assert_eq!(metrics.counter_value("faas.snapshot_cache.miss"), 4, "steps 1, 3, 4, 5");
    assert_eq!(metrics.counter_value("faas.snapshot_cache.evict"), 3, "steps 3, 4, 5");

    // The same families as latency histograms.
    assert_eq!(metrics.histogram("faas.start.classic").count(), 4);
    assert_eq!(metrics.histogram("faas.start.restore").count(), 1);
    assert_eq!(metrics.histogram("faas.start.fork").count(), 2);
    let restore = metrics.histogram("faas.start.restore").mean();
    assert!(
        restore > Duration::from_millis(150) && restore < Duration::from_millis(250),
        "dirty-page cost model: {restore:?}"
    );
    // Step 5's parent was cold: the branch latency histogram includes
    // the parent's classic boot the branches waited out (warm-parent
    // forks at pure 10–50 ms fork latency are covered in the crate's
    // unit tests).
    let fork = metrics.histogram("faas.start.fork").mean();
    assert!(
        fork > Duration::from_millis(1000) && fork < Duration::from_millis(2100),
        "cold-parent fork = classic boot + fork: {fork:?}"
    );

    // Billing agrees with the counters.
    assert_eq!(faas.billing().restores(), 1);
    assert_eq!(faas.billing().forks(), 2);
    assert_eq!(faas.billing().snapshots_taken(), 4, "a, b, a again, f");
    assert!(faas.billing().snapshot_gb_seconds(sim.now()) > 0.0, "storage is billed");
}

/// The tier under schedule exploration with a crash schedule: container
/// crashes are injected (`failure_rate`) while three clients mix plain
/// invokes, an idle-out/restore cycle, and fork fan-outs. Whatever the
/// schedule, every caller gets exactly one reply per payload, and the
/// cache/start accounting stays consistent: every snapshot hit is a
/// restore start, every miss a classic start (no floors configured).
#[test]
fn tier_invariants_hold_across_schedules_and_crashes() {
    let scenario = |sim: &mut Sim| -> Check {
        let metrics = MetricsRegistry::new();
        sim.set_metrics(&metrics);
        let reg = FunctionRegistry::new();
        reg.register_with_policy(
            "work",
            1792,
            ColdStartPolicy::Fork,
            |env: &mut FnCtx<'_>, p: Vec<u8>| {
                env.compute(Duration::from_millis(2));
                Ok(p)
            },
        );
        let faas = spawn_platform(sim, tier_cfg(ColdStartPolicy::SnapshotRestore, 4, 0.3), reg);
        let replies: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        for c in 0..3u8 {
            let f = faas.clone();
            let replies = replies.clone();
            sim.spawn(&format!("client-{c}"), move |ctx| {
                // Plain invokes race each other's cold starts.
                let r1 = f.invoke(ctx, "work", vec![c]);
                let r2 = f.invoke(ctx, "work", vec![c, c]);
                // Idle out the pool, then come back: restores under
                // crashes and reordered schedules.
                ctx.sleep(CONTAINER_IDLE_TIMEOUT + Duration::from_secs(2));
                let r3 = f.invoke(ctx, "work", vec![c, c, c]);
                let forked = f.invoke_forked(ctx, "work", vec![vec![c], vec![c + 1]]);
                let mut g = replies.lock();
                g.push([r1, r2, r3].iter().filter(|r| r.is_ok()).count());
                g.push(forked.len());
            });
        }
        Box::new(move || {
            let replies = replies.lock();
            if replies.len() != 6 {
                return Err(format!("clients under-reported: {replies:?}"));
            }
            // One reply per fork payload, every time (errors included).
            for (i, &n) in replies.iter().enumerate() {
                if i % 2 == 1 && n != 2 {
                    return Err(format!("fork fan-out lost a branch reply: {replies:?}"));
                }
            }
            let hits = metrics.counter_value("faas.snapshot_cache.hit");
            let misses = metrics.counter_value("faas.snapshot_cache.miss");
            let classic = metrics.counter_value("faas.start.classic");
            let restores = metrics.counter_value("faas.start.restore");
            let forks = metrics.counter_value("faas.start.fork");
            if hits != restores {
                return Err(format!(
                    "every cache hit must restore: {hits} hits, {restores} restores"
                ));
            }
            if misses != classic {
                return Err(format!(
                    "every miss must fall back to classic: {misses} misses, {classic} classic"
                ));
            }
            if forks != 6 {
                return Err(format!("3 clients x 2 branches, got {forks} fork starts"));
            }
            if hits + misses == 0 {
                return Err("scenario never exercised the snapshot cache".into());
            }
            Ok(())
        })
    };
    explore_seeds(600, 25, scenario).expect_clean();
}
