//! # faas — a serverless (AWS-Lambda-like) platform simulator
//!
//! The compute substrate of the Crucial reproduction: user code is deployed
//! as named functions ([`FunctionRegistry`]); clients invoke them
//! synchronously ([`FaasHandle::invoke`], the paper's `RequestResponse`
//! mode); the platform manages warm/cold containers, scales CPU with the
//! configured memory (footnote 7), enforces a concurrency limit and the
//! 15-minute cap, injects failures on demand, and bills GB-seconds at AWS
//! prices for the Table 3 cost experiments.
//!
//! ## Example
//!
//! ```
//! use simcore::Sim;
//! use faas::{spawn_platform, FaasConfig, FunctionRegistry, FnCtx};
//! use std::time::Duration;
//!
//! let mut sim = Sim::new(5);
//! let registry = FunctionRegistry::new();
//! registry.register("double", 1792, |env: &mut FnCtx<'_>, payload: Vec<u8>| {
//!     env.compute(Duration::from_millis(50));
//!     Ok(payload.iter().map(|b| b * 2).collect())
//! });
//! let faas = spawn_platform(&sim, FaasConfig::default(), registry);
//!
//! sim.spawn("client", move |ctx| {
//!     let out = faas.invoke(ctx, "double", vec![1, 2, 3]).expect("ok");
//!     assert_eq!(out, vec![2, 4, 6]);
//! });
//! sim.run_until_idle().expect_quiescent();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod billing;
mod config;
mod function;
mod platform;

pub use billing::{
    Billing, InvocationRecord, Pricing, RetirementRecord, SnapshotRecord, StartKind,
};
pub use config::{
    ColdStartPolicy, FaasConfig, COLD_START, DIRTY_FRACTION, FORK, RESTORE_BASE, RESTORE_PER_PAGE,
    SNAPSHOT_PAGE_BYTES,
};
pub use function::{
    cpu_share_for, CloudFunction, FnCtx, FunctionRegistry, FunctionSpec, FULL_VCPU_MB,
};
pub use platform::{
    spawn_platform, FaasError, FaasHandle, InvokeFn, InvokeForked, InvokeOpts, InvokeResult,
    SetProvisioned, CONTAINERS_PER_HOST, RESPONSE, WARM_DISPATCH,
};

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use simcore::{Sim, SimTime};
    use std::sync::Arc;
    use std::time::Duration;

    fn echo_registry() -> FunctionRegistry {
        let reg = FunctionRegistry::new();
        reg.register("echo", 1792, |_env: &mut FnCtx<'_>, p: Vec<u8>| Ok(p));
        reg.register("sleepy", 1792, |env: &mut FnCtx<'_>, p: Vec<u8>| {
            env.compute(Duration::from_millis(100));
            Ok(p)
        });
        reg
    }

    fn spawn_with(cfg: FaasConfig) {
        let sim = Sim::new(0);
        let _ = spawn_platform(&sim, cfg, echo_registry());
    }

    #[test]
    #[should_panic(expected = "concurrency_limit must be >= 1")]
    fn spawn_rejects_a_zero_concurrency_limit() {
        spawn_with(FaasConfig { concurrency_limit: 0, ..FaasConfig::default() });
    }

    #[test]
    #[should_panic(expected = "max_duration must be positive")]
    fn spawn_rejects_a_zero_max_duration() {
        spawn_with(FaasConfig { max_duration: Duration::ZERO, ..FaasConfig::default() });
    }

    #[test]
    #[should_panic(expected = "failure_rate must be within [0, 1]")]
    fn spawn_rejects_a_failure_rate_above_one() {
        spawn_with(FaasConfig { failure_rate: 1.5, ..FaasConfig::default() });
    }

    #[test]
    #[should_panic(expected = "snapshot_cache_capacity must be >= 1")]
    fn spawn_rejects_a_zero_snapshot_cache() {
        spawn_with(FaasConfig {
            cold_start_policy: ColdStartPolicy::SnapshotRestore,
            snapshot_cache_capacity: 0,
            ..FaasConfig::default()
        });
    }

    #[test]
    fn cold_then_warm_invocations() {
        let mut sim = Sim::new(1);
        let faas = spawn_platform(&sim, FaasConfig::default(), echo_registry());
        let f2 = faas.clone();
        sim.spawn("client", move |ctx| {
            let t0 = ctx.now();
            let out = f2.invoke(ctx, "echo", vec![7]).expect("ok");
            assert_eq!(out, vec![7]);
            let cold_time = ctx.now() - t0;
            assert!(cold_time > Duration::from_millis(1000), "cold start: {cold_time:?}");
            let t0 = ctx.now();
            let _ = f2.invoke(ctx, "echo", vec![8]).expect("ok");
            let warm_time = ctx.now() - t0;
            assert!(warm_time < Duration::from_millis(60), "warm invoke: {warm_time:?}");
        });
        sim.run_until_idle().expect_quiescent();
        assert_eq!(faas.billing().invocations(), 2);
        assert_eq!(faas.billing().cold_starts(), 1);
    }

    #[test]
    fn unknown_function_is_an_error() {
        let mut sim = Sim::new(2);
        let faas = spawn_platform(&sim, FaasConfig::default(), echo_registry());
        sim.spawn("client", move |ctx| {
            let err = faas.invoke(ctx, "nope", vec![]).unwrap_err();
            assert!(matches!(err, FaasError::UnknownFunction(_)));
        });
        sim.run_until_idle().expect_quiescent();
    }

    #[test]
    fn parallel_invocations_scale_out() {
        let mut sim = Sim::new(3);
        let faas = spawn_platform(&sim, FaasConfig::default(), echo_registry());
        let latest = Arc::new(Mutex::new(SimTime::ZERO));
        for i in 0..50 {
            let faas = faas.clone();
            let latest = latest.clone();
            sim.spawn(&format!("c{i}"), move |ctx| {
                let _ = faas.invoke(ctx, "sleepy", vec![]).expect("ok");
                let mut g = latest.lock();
                if ctx.now() > *g {
                    *g = ctx.now();
                }
            });
        }
        sim.run_until_idle().expect_quiescent();
        // 50 concurrent 100ms functions behind cold starts: all finish in
        // ~1 cold start + 100ms, not 50x sequentially.
        assert!(*latest.lock() < SimTime::from_millis(2500), "{}", *latest.lock());
    }

    #[test]
    fn concurrency_limit_queues_invocations() {
        let mut sim = Sim::new(4);
        let cfg = FaasConfig { concurrency_limit: 1, ..FaasConfig::default() };
        let faas = spawn_platform(&sim, cfg, echo_registry());
        let latest = Arc::new(Mutex::new(SimTime::ZERO));
        for i in 0..4 {
            let faas = faas.clone();
            let latest = latest.clone();
            sim.spawn(&format!("c{i}"), move |ctx| {
                let _ = faas.invoke(ctx, "sleepy", vec![]).expect("ok");
                let mut g = latest.lock();
                if ctx.now() > *g {
                    *g = ctx.now();
                }
            });
        }
        sim.run_until_idle().expect_quiescent();
        // 4 x 100ms serialized (plus one cold start) ≥ 400ms.
        assert!(
            *latest.lock() > SimTime::from_millis(400),
            "limit=1 must serialize: {}",
            *latest.lock()
        );
    }

    #[test]
    fn memory_scales_compute_time() {
        let mut sim = Sim::new(5);
        let reg = FunctionRegistry::new();
        reg.register("half", 896, |env: &mut FnCtx<'_>, _| {
            env.compute(Duration::from_millis(100));
            Ok(Vec::new())
        });
        reg.register("full", 1792, |env: &mut FnCtx<'_>, _| {
            env.compute(Duration::from_millis(100));
            Ok(Vec::new())
        });
        let faas = spawn_platform(&sim, FaasConfig::default(), reg);
        let out = Arc::new(Mutex::new((Duration::ZERO, Duration::ZERO)));
        let out2 = out.clone();
        sim.spawn("client", move |ctx| {
            // Warm both.
            let _ = faas.invoke(ctx, "half", vec![]);
            let _ = faas.invoke(ctx, "full", vec![]);
            let t0 = ctx.now();
            let _ = faas.invoke(ctx, "half", vec![]);
            let half = ctx.now() - t0;
            let t0 = ctx.now();
            let _ = faas.invoke(ctx, "full", vec![]);
            let full = ctx.now() - t0;
            *out2.lock() = (half, full);
        });
        sim.run_until_idle().expect_quiescent();
        let (half, full) = *out.lock();
        let dcompute = half.as_secs_f64() - full.as_secs_f64();
        assert!(
            (dcompute - 0.1).abs() < 0.03,
            "896MB should pay ~100ms extra compute, paid {dcompute}s"
        );
    }

    #[test]
    fn provisioned_concurrency_prewarms_and_skips_cold_starts() {
        let mut sim = Sim::new(21);
        let registry = simcore::MetricsRegistry::new();
        sim.set_metrics(&registry);
        let faas = spawn_platform(&sim, FaasConfig::default(), echo_registry());
        let f2 = faas.clone();
        sim.spawn("client", move |ctx| {
            let none = f2.invoke_with(ctx, "echo", Vec::new(), InvokeOpts::provision(3));
            assert!(none.is_empty(), "a pure control action returns no results");
            // Give the pre-warms time to boot (cold start ≈ 1–2 s).
            ctx.sleep(Duration::from_secs(3));
            for i in 0..3 {
                let t0 = ctx.now();
                let _ = f2.invoke(ctx, "echo", vec![i]).expect("ok");
                let warm_time = ctx.now() - t0;
                assert!(
                    warm_time < Duration::from_millis(60),
                    "pre-warmed invoke {i} must not pay a cold start: {warm_time:?}"
                );
            }
        });
        sim.run_until_idle().expect_quiescent();
        assert_eq!(faas.billing().cold_starts(), 0, "no invoker paid a cold start");
        assert_eq!(registry.counter_value("faas.prewarms"), 3);
        assert!(
            !registry.series("faas.pool_size").points().is_empty(),
            "pool dynamics must be observable"
        );
    }

    #[test]
    fn idle_containers_are_retired_with_billing_and_floor() {
        let mut sim = Sim::new(22);
        let registry = simcore::MetricsRegistry::new();
        sim.set_metrics(&registry);
        let cfg =
            FaasConfig { container_idle_timeout: Duration::from_secs(5), ..FaasConfig::default() };
        let faas = spawn_platform(&sim, cfg, echo_registry());
        let f2 = faas.clone();
        sim.spawn("client", move |ctx| {
            // Build a pool of 4 via the provisioning path.
            let _ = f2.invoke_with(ctx, "echo", Vec::new(), InvokeOpts::provision(4));
            ctx.sleep(Duration::from_secs(3));
            // Drop the floor to 1 and let the pool sit past the timeout.
            let _ = f2.invoke_with(ctx, "echo", Vec::new(), InvokeOpts::provision(1));
            ctx.sleep(Duration::from_secs(10));
            // Next dispatch reaps lazily: 3 expire, the floor keeps 1.
            let _ = f2.invoke(ctx, "echo", vec![1]).expect("ok");
        });
        sim.run_until_idle().expect_quiescent();
        assert_eq!(faas.billing().retirements(), 3, "pool of 4, floor 1");
        assert!(faas.billing().idle_gb_seconds() > 0.0, "idle tail is billed");
        assert_eq!(registry.counter_value("faas.retirements"), 3);
    }

    fn snapshot_cfg(policy: ColdStartPolicy) -> FaasConfig {
        FaasConfig {
            cold_start_policy: policy,
            container_idle_timeout: Duration::from_secs(5),
            ..FaasConfig::default()
        }
    }

    #[test]
    fn snapshot_restore_collapses_the_second_cold_start() {
        let mut sim = Sim::new(31);
        let faas =
            spawn_platform(&sim, snapshot_cfg(ColdStartPolicy::SnapshotRestore), echo_registry());
        let f2 = faas.clone();
        sim.spawn("client", move |ctx| {
            // First cold start provisions classically and snapshots.
            let t0 = ctx.now();
            let _ = f2.invoke(ctx, "echo", vec![1]).expect("ok");
            assert!(ctx.now() - t0 > Duration::from_millis(1000), "first start is classic");
            // Let the container idle out, then cold-start again: the
            // snapshot restore replaces the 1.5 s provision.
            ctx.sleep(Duration::from_secs(10));
            let t0 = ctx.now();
            let _ = f2.invoke(ctx, "echo", vec![2]).expect("ok");
            let restored = ctx.now() - t0;
            assert!(
                restored > Duration::from_millis(120) && restored < Duration::from_millis(400),
                "restore should cost ~150–250 ms plus dispatch, took {restored:?}"
            );
        });
        sim.run_until_idle().expect_quiescent();
        assert_eq!(faas.billing().restores(), 1);
        assert_eq!(faas.billing().cold_starts(), 1, "only the first start was classic");
        assert_eq!(faas.billing().snapshots_taken(), 1);
    }

    #[test]
    fn fork_fans_out_in_order_at_fork_latencies() {
        let mut sim = Sim::new(32);
        let faas = spawn_platform(&sim, snapshot_cfg(ColdStartPolicy::Fork), echo_registry());
        let f2 = faas.clone();
        sim.spawn("client", move |ctx| {
            // Warm a parent (classic boot + snapshot capture).
            let _ = f2.invoke(ctx, "echo", vec![0]).expect("ok");
            let t0 = ctx.now();
            let results = f2.invoke_forked(ctx, "echo", vec![vec![1], vec![2], vec![3]]);
            let took = ctx.now() - t0;
            assert_eq!(results.len(), 3);
            for (i, r) in results.iter().enumerate() {
                assert_eq!(r.as_deref().expect("branch ok"), &[i as u8 + 1], "payload order");
            }
            assert!(
                took < Duration::from_millis(120),
                "3 CoW branches off a warm parent cost ~10–50 ms each in \
                 parallel, not a provision: {took:?}"
            );
        });
        sim.run_until_idle().expect_quiescent();
        assert_eq!(faas.billing().forks(), 3);
        assert_eq!(faas.billing().invocations(), 4);
    }

    #[test]
    fn fork_with_no_warm_parent_provisions_one_first() {
        let mut sim = Sim::new(33);
        let faas = spawn_platform(&sim, snapshot_cfg(ColdStartPolicy::Fork), echo_registry());
        let f2 = faas.clone();
        sim.spawn("client", move |ctx| {
            let t0 = ctx.now();
            let results = f2.invoke_forked(ctx, "echo", vec![vec![1], vec![2]]);
            let took = ctx.now() - t0;
            assert!(results.iter().all(Result::is_ok));
            assert!(
                took > Duration::from_millis(1000),
                "no snapshot yet: the parent pays a classic provision first, {took:?}"
            );
            // The parent joined the pool and its boot captured a
            // snapshot; a second fan-out is pure fork latency.
            let t0 = ctx.now();
            let results = f2.invoke_forked(ctx, "echo", vec![vec![3], vec![4]]);
            let took = ctx.now() - t0;
            assert!(results.iter().all(Result::is_ok));
            assert!(took < Duration::from_millis(120), "warm parent: {took:?}");
        });
        sim.run_until_idle().expect_quiescent();
        assert_eq!(faas.billing().forks(), 4);
        assert_eq!(faas.billing().snapshots_taken(), 1);
    }

    #[test]
    fn fork_on_a_non_fork_function_is_a_typed_error() {
        let mut sim = Sim::new(34);
        // Classic platform, and "echo" has no policy override.
        let faas = spawn_platform(&sim, FaasConfig::default(), echo_registry());
        let f2 = faas.clone();
        sim.spawn("client", move |ctx| {
            let results = f2.invoke_forked(ctx, "echo", vec![vec![1], vec![2]]);
            assert_eq!(results.len(), 2);
            for r in results {
                assert!(
                    matches!(r, Err(FaasError::ForkUnsupported(ref f)) if f == "echo"),
                    "{r:?}"
                );
            }
            let results = f2.invoke_forked(ctx, "nope", vec![vec![1]]);
            assert!(matches!(results[0], Err(FaasError::UnknownFunction(_))));
        });
        sim.run_until_idle().expect_quiescent();
    }

    #[test]
    fn invoke_with_runs_a_batch_in_payload_order() {
        let mut sim = Sim::new(35);
        let faas = spawn_platform(&sim, FaasConfig::default(), echo_registry());
        let f2 = faas.clone();
        sim.spawn("client", move |ctx| {
            let results =
                f2.invoke_with(ctx, "echo", vec![vec![9], vec![8]], InvokeOpts::default());
            assert_eq!(results.len(), 2);
            assert_eq!(results[0].as_deref().unwrap(), &[9]);
            assert_eq!(results[1].as_deref().unwrap(), &[8]);
        });
        sim.run_until_idle().expect_quiescent();
    }

    #[test]
    fn failure_injection_fails_some_invocations() {
        let mut sim = Sim::new(6);
        let cfg = FaasConfig { failure_rate: 0.5, ..FaasConfig::default() };
        let faas = spawn_platform(&sim, cfg, echo_registry());
        let failures = Arc::new(Mutex::new(0usize));
        let f2 = failures.clone();
        sim.spawn("client", move |ctx| {
            for _ in 0..40 {
                if faas.invoke(ctx, "echo", vec![]).is_err() {
                    *f2.lock() += 1;
                }
            }
        });
        sim.run_until_idle().expect_quiescent();
        let f = *failures.lock();
        assert!((8..=32).contains(&f), "≈50% of 40 invocations should fail, got {f}");
    }

    #[test]
    fn handler_errors_propagate() {
        let mut sim = Sim::new(7);
        let reg = FunctionRegistry::new();
        reg.register(
            "bad",
            1792,
            |_env: &mut FnCtx<'_>, _| Err("application exploded".to_string()),
        );
        let faas = spawn_platform(&sim, FaasConfig::default(), reg);
        let f2 = faas.clone();
        sim.spawn("client", move |ctx| match f2.invoke(ctx, "bad", vec![]) {
            Err(FaasError::Failed(e)) => assert!(e.contains("exploded")),
            other => panic!("expected failure, got {other:?}"),
        });
        sim.run_until_idle().expect_quiescent();
        assert_eq!(faas.billing().invocations(), 1);
    }

    #[test]
    fn timeout_cap_enforced() {
        let mut sim = Sim::new(8);
        let cfg = FaasConfig { max_duration: Duration::from_millis(50), ..FaasConfig::default() };
        let reg = FunctionRegistry::new();
        reg.register("forever", 1792, |env: &mut FnCtx<'_>, _| {
            env.compute(Duration::from_secs(10));
            Ok(Vec::new())
        });
        let faas = spawn_platform(&sim, cfg, reg);
        let f2 = faas.clone();
        sim.spawn("client", move |ctx| {
            let err = f2.invoke(ctx, "forever", vec![]).unwrap_err();
            assert_eq!(err, FaasError::TimedOut);
        });
        sim.run_until_idle().expect_quiescent();
        // Billed at most the cap.
        assert!(faas.billing().total_duration() <= Duration::from_millis(50));
    }
}
