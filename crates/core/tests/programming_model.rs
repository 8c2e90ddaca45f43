//! End-to-end tests of the Crucial programming model: fork/join cloud
//! threads, shared state, synchronization, and the retry/idempotence
//! pattern of §4.4.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use simcore::codec::Wire;
use simcore::Sim;

use crucial::{
    join_all, AtomicLong, CrucialConfig, CyclicBarrier, Deployment, FnEnv, RetryPolicy, RunResult,
    Runnable, SharedList, Tracer,
};

#[derive(Wire)]
struct Adder {
    amount: i64,
    counter: AtomicLong,
}

impl Runnable for Adder {
    fn run(&mut self, env: &mut FnEnv<'_, '_>) -> RunResult {
        let (ctx, dso) = env.dso();
        self.counter.add_and_get(ctx, dso, self.amount).map_err(|e| e.to_string())?;
        Ok(())
    }
}

#[test]
fn fork_join_accumulates_shared_state() {
    let mut sim = Sim::new(21);
    let dep = Deployment::start(&sim, CrucialConfig::default());
    dep.register::<Adder>();
    let threads = dep.threads();
    let dso = dep.dso_handle();
    let total = Arc::new(Mutex::new(0i64));
    let total2 = total.clone();
    sim.spawn("main", move |ctx| {
        let counter = AtomicLong::new("sum");
        let runnables: Vec<Adder> =
            (1..=10).map(|i| Adder { amount: i, counter: counter.clone() }).collect();
        let handles = threads.start_all(ctx, &runnables);
        join_all(ctx, handles).expect("all threads succeed");
        let mut cli = dso.connect();
        *total2.lock() = counter.get(ctx, &mut cli).expect("dso");
    });
    sim.run_until_idle().expect_quiescent();
    assert_eq!(*total.lock(), 55);
}

#[derive(Wire)]
struct BarrierWorker {
    id: u32,
    barrier: CyclicBarrier,
    order: SharedList<(u32, u64)>, // (worker, phase)
}

impl Runnable for BarrierWorker {
    fn run(&mut self, env: &mut FnEnv<'_, '_>) -> RunResult {
        for phase in 0..3u64 {
            // Uneven work before the barrier.
            let work = Duration::from_millis(10 * (self.id as u64 + 1));
            env.compute(work);
            let (ctx, dso) = env.dso();
            self.order.add(ctx, dso, &(self.id, phase)).map_err(|e| e.to_string())?;
            self.barrier.wait(ctx, dso).map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}

#[test]
fn barrier_keeps_cloud_threads_in_lockstep() {
    let mut sim = Sim::new(22);
    let dep = Deployment::start(&sim, CrucialConfig::default());
    dep.register::<BarrierWorker>();
    let threads = dep.threads();
    let dso = dep.dso_handle();
    let log = Arc::new(Mutex::new(Vec::<(u32, u64)>::new()));
    let log2 = log.clone();
    const PARTIES: u32 = 5;
    sim.spawn("main", move |ctx| {
        let barrier = CyclicBarrier::new("phase-barrier", PARTIES);
        let order: SharedList<(u32, u64)> = SharedList::new("order");
        let runnables: Vec<BarrierWorker> = (0..PARTIES)
            .map(|id| BarrierWorker { id, barrier: barrier.clone(), order: order.clone() })
            .collect();
        let handles = threads.start_all(ctx, &runnables);
        join_all(ctx, handles).expect("all threads succeed");
        let mut cli = dso.connect();
        *log2.lock() = order.to_vec(ctx, &mut cli).expect("dso");
    });
    sim.run_until_idle().expect_quiescent();
    let log = log.lock();
    assert_eq!(log.len(), (PARTIES * 3) as usize);
    // Lockstep: all phase-p entries precede all phase-(p+1) entries.
    let phases: Vec<u64> = log.iter().map(|(_, p)| *p).collect();
    let mut sorted = phases.clone();
    sorted.sort();
    assert_eq!(phases, sorted, "a worker entered phase p+1 before the barrier: {log:?}");
}

/// The idempotent-retry pattern of §4.4: a thread that can crash mid-run
/// checks a shared progress counter and skips already-applied work when
/// re-executed.
#[derive(Wire)]
struct IdempotentWorker {
    steps: i64,
    progress: AtomicLong, // how many steps have been applied
    acc: AtomicLong,      // the actual accumulated state
}

impl Runnable for IdempotentWorker {
    fn run(&mut self, env: &mut FnEnv<'_, '_>) -> RunResult {
        let (ctx, dso) = env.dso();
        let done = self.progress.get(ctx, dso).map_err(|e| e.to_string())?;
        for step in done..self.steps {
            self.acc.add_and_get(ctx, dso, 1).map_err(|e| e.to_string())?;
            self.progress.compare_and_set(ctx, dso, step, step + 1).map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}

#[test]
fn retries_with_shared_progress_counter_are_exactly_once() {
    let mut sim = Sim::new(23);
    let mut cfg = CrucialConfig::default();
    // Half of all invocations crash mid-run.
    cfg.faas.failure_rate = 0.5;
    let dep = Deployment::start(&sim, cfg);
    dep.register::<IdempotentWorker>();
    let threads = dep.threads().with_retry(RetryPolicy::retries(30));
    let dso = dep.dso_handle();
    let result = Arc::new(Mutex::new((0i64, 0usize)));
    let result2 = result.clone();
    sim.spawn("main", move |ctx| {
        let worker = IdempotentWorker {
            steps: 20,
            progress: AtomicLong::new("progress"),
            acc: AtomicLong::new("acc"),
        };
        let acc = worker.acc.clone();
        let h = threads.start(ctx, &worker);
        h.join(ctx).expect("eventually succeeds");
        let mut cli = dso.connect();
        let v = acc.get(ctx, &mut cli).expect("dso");
        *result2.lock() = (v, 0);
    });
    sim.run_until_idle().expect_quiescent();
    // NOTE: the inner loop applies acc+1 *then* bumps progress, so a crash
    // between the two can double-apply one step. The paper's §4.4 pattern
    // (fetch the iteration counter, continue from there) has the same
    // at-least-once window per iteration; we assert the value is within it.
    let (v, _) = *result.lock();
    assert!(v >= 20, "all steps applied at least once, got {v}");
    assert!(v <= 50, "retries must skip completed work, got {v}");
}

#[test]
fn failed_threads_report_errors_without_retries() {
    #[derive(Wire)]
    struct AlwaysFails;
    impl Runnable for AlwaysFails {
        fn run(&mut self, _env: &mut FnEnv<'_, '_>) -> RunResult {
            Err("intentional".to_string())
        }
    }
    let mut sim = Sim::new(24);
    let dep = Deployment::start(&sim, CrucialConfig::default());
    dep.register::<AlwaysFails>();
    let threads = dep.threads();
    let failed = Arc::new(Mutex::new(false));
    let failed2 = failed.clone();
    sim.spawn("main", move |ctx| {
        let h = threads.start(ctx, &AlwaysFails);
        *failed2.lock() = h.join(ctx).is_err();
    });
    sim.run_until_idle().expect_quiescent();
    assert!(*failed.lock(), "error must propagate to join()");
}

#[test]
fn many_cloud_threads_run_concurrently() {
    let mut sim = Sim::new(25);
    let dep = Deployment::start(&sim, CrucialConfig::default());
    dep.register::<Adder>();
    let threads = dep.threads();
    let dso = dep.dso_handle();
    let elapsed = Arc::new(Mutex::new((0i64, 0.0f64)));
    let elapsed2 = elapsed.clone();
    const N: usize = 100;
    sim.spawn("main", move |ctx| {
        let counter = AtomicLong::new("wide");
        let runnables: Vec<Adder> =
            (0..N).map(|_| Adder { amount: 1, counter: counter.clone() }).collect();
        let t0 = ctx.now();
        let handles = threads.start_all(ctx, &runnables);
        join_all(ctx, handles).expect("all succeed");
        let took = (ctx.now() - t0).as_secs_f64();
        let mut cli = dso.connect();
        let v = counter.get(ctx, &mut cli).expect("dso");
        *elapsed2.lock() = (v, took);
    });
    sim.run_until_idle().expect_quiescent();
    let (v, took) = *elapsed.lock();
    assert_eq!(v, N as i64);
    // 100 threads with ~1.5s cold starts each: parallel ≈ 2s, serial ≈ 150s.
    assert!(took < 10.0, "cloud threads must run in parallel, took {took}s");
}

/// One seeded, traced run of three cloud threads: its JSONL trace export.
fn traced_three_threads() -> String {
    let mut sim = Sim::new(26);
    let tracer = Tracer::new();
    sim.set_tracer(&tracer);
    let dep = Deployment::start(&sim, CrucialConfig::default());
    dep.register::<Adder>();
    let threads = dep.threads();
    sim.spawn("main", move |ctx| {
        let counter = AtomicLong::new("names");
        let runnables: Vec<Adder> =
            (0..3).map(|_| Adder { amount: 1, counter: counter.clone() }).collect();
        let handles = threads.start_all(ctx, &runnables);
        join_all(ctx, handles).expect("all succeed");
    });
    sim.run_until_idle().expect_quiescent();
    tracer.export_jsonl()
}

#[test]
fn cloud_threads_are_named_per_deployment() {
    // Both runs name their threads cloudthread-0..2, however many ran
    // before them in this process.
    let first = traced_three_threads();
    assert!(first.contains("\"proc\":\"cloudthread-2\""), "threads are numbered from 0");
    assert_eq!(first, traced_three_threads());
}
