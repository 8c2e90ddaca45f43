//! `durable_crash_recover` — the only workload where `dso::durability`
//! (WAL append, group commit, checkpoint, GC, recovery scan) and
//! `cloudstore::s3` sit on the op's blocking path, and the only one with a
//! fault: Sync-durable writers, then a full-cluster crash and
//! `DsoCluster::recover_from`.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rand::RngExt;
use simcore::{Sim, SimTime, Ticker};

use cloudstore::{spawn_s3, S3Config};
use dso::api::AtomicLong;
use dso::{
    Checkpointer, DsoCluster, DsoConfig, DurabilityConfig, DurabilityLevel, DurabilityStore,
    ObjectRegistry, RecoveryReport,
};
use faas::Pricing;

use super::{events_fired, traced_op, Observe, Rep, Scale, Stopwatch, Tally};

const NODES: u32 = 3;
const OBJECTS: u32 = 64;
const GROUP_COMMIT: Duration = Duration::from_millis(25);
const CHECKPOINT_EVERY: Duration = Duration::from_secs(1);
const PROBE_BYTES: usize = 4096;

/// What the injector learns, for the checks after the run.
struct Verdict {
    sum_before_crash: i64,
    sum_after_recovery: i64,
    recovery: Duration,
    /// When the recovered cluster served its first read.
    served_again: SimTime,
    report: RecoveryReport,
}

pub fn run(seed: u64, scale: Scale, obs: &Observe) -> Rep {
    let writers: u32 = scale.pick(8, 64);
    let probes: u32 = scale.pick(4, 40);
    let warmup = scale.pick(Duration::from_millis(100), Duration::from_millis(500));
    let window = scale.pick(Duration::from_millis(400), Duration::from_secs(8));
    let start = SimTime::ZERO + warmup;
    let deadline = start + window;
    let traced = obs.tracing.is_some();
    let counter = |i: u32| AtomicLong::persistent(&format!("c{i}"), 0, 2);

    let mut watch = Stopwatch::start();
    let mut sim = Sim::new(seed);
    obs.install(&sim);
    let s3 = spawn_s3(&sim, S3Config::default());
    let mut durability = DurabilityConfig::new(DurabilityStore::new(s3.clone(), "bench"));
    durability.level = DurabilityLevel::Sync;
    durability.group_commit = GROUP_COMMIT;
    let store = durability.store.clone();
    let cfg = DsoConfig { durability: Some(durability.clone()), ..DsoConfig::default() };
    let mut cluster = DsoCluster::start(&sim, NODES, cfg.clone(), ObjectRegistry::with_builtins());

    let tally = Arc::new(Tally::default());
    let acked = Arc::new(AtomicI64::new(0));
    // One bit per counter some acknowledged write touched: the objects
    // that exist, and so the objects recovery must bring back.
    let touched = Arc::new(AtomicU64::new(0));
    let writers_done = Arc::new(AtomicU64::new(0));
    for w in 0..writers {
        let handle = cluster.client_handle();
        let (tally, acked, writers_done) = (tally.clone(), acked.clone(), writers_done.clone());
        let touched = touched.clone();
        sim.spawn(&format!("writer-{w}"), move |ctx| {
            let mut cli = handle.connect();
            let counters: Vec<AtomicLong> = (0..OBJECTS).map(counter).collect();
            let mut lat = Vec::new();
            while ctx.now() < deadline {
                let i = ctx.rng().random_range(0..OBJECTS) as usize;
                let t0 = ctx.now();
                let r = traced_op(ctx, traced, |ctx| counters[i].increment_and_get(ctx, &mut cli));
                if r.is_ok() {
                    acked.fetch_add(1, Ordering::Relaxed);
                    touched.fetch_or(1 << i, Ordering::Relaxed);
                }
                tally.record(&mut lat, t0 >= start, r.is_ok(), ctx.now() - t0);
            }
            writers_done.fetch_add(1, Ordering::Relaxed);
            tally.merge(lat);
        });
    }
    // Times the object store from outside, in virtual time.
    let probe_ns: Arc<Mutex<(Vec<u64>, Vec<u64>)>> = Arc::default();
    {
        let probe_ns = probe_ns.clone();
        sim.spawn("s3-probe", move |ctx| {
            let (mut puts, mut gets) = (Vec::new(), Vec::new());
            for i in 0..probes {
                let key = format!("probe/{i}");
                let t0 = ctx.now();
                s3.put(ctx, &key, vec![i as u8; PROBE_BYTES]);
                let t1 = ctx.now();
                // A fresh PUT may not be visible yet; the GET is timed
                // either way.
                let _ = s3.get(ctx, &key);
                puts.push((t1 - t0).as_nanos() as u64);
                gets.push((ctx.now() - t1).as_nanos() as u64);
            }
            puts.sort_unstable();
            gets.sort_unstable();
            *probe_ns.lock().expect("only the probe writes") = (puts, gets);
        });
    }
    let verdict: Arc<Mutex<Option<Verdict>>> = Arc::default();
    {
        let verdict = verdict.clone();
        sim.spawn("injector", move |ctx| {
            // Checkpoints are driven synchronously, so the last round and
            // its WAL garbage collection finish before the crash; one left
            // in flight would keep deleting segments during the recovery
            // scan and the workload would time scheduler racing.
            let mut checkpointer = Checkpointer::new(durability);
            let mut cli = cluster.client_handle().connect();
            let mut tick = Ticker::new(ctx.now(), CHECKPOINT_EVERY);
            while tick.wait(ctx) < deadline {
                // A failed round shows as a missing `dso.checkpoints` count.
                let _ = checkpointer.run_once(ctx, &mut cli);
            }
            while writers_done.load(Ordering::Relaxed) < u64::from(writers) {
                ctx.sleep(Duration::from_millis(5));
            }
            let sum = |cli: &mut dso::DsoClient, ctx: &mut simcore::Ctx| -> i64 {
                (0..OBJECTS).map(|i| counter(i).get(ctx, cli).expect("cluster serves reads")).sum()
            };
            let sum_before_crash = sum(&mut cli, ctx);
            for idx in 0..NODES as usize {
                cluster.crash_node_from(ctx, idx);
            }
            ctx.sleep(Duration::from_millis(50));
            let t0 = ctx.now();
            let (recovered, report) =
                DsoCluster::recover_from(ctx, NODES, cfg, ObjectRegistry::with_builtins())
                    .expect("recovery succeeds");
            // The clock stops once the recovered view serves a read.
            let mut cli = recovered.client_handle().connect();
            counter(0).get(ctx, &mut cli).expect("read after recovery");
            let served_again = ctx.now();
            let sum_after_recovery = sum(&mut cli, ctx);
            *verdict.lock().expect("only the injector writes") = Some(Verdict {
                sum_before_crash,
                sum_after_recovery,
                recovery: served_again - t0,
                served_again,
                report,
            });
        });
    }
    sim.run_until(start);
    let events_before = events_fired(&sim);
    watch.begin_timed(obs);
    let out = sim.run_until_idle();
    let host = watch.end_timed();
    out.expect_quiescent();

    let v = verdict.lock().expect("injector exited").take().expect("the injector ran to its end");
    let stats = store.stats(out.time);
    let mut rep = Rep {
        host,
        events: events_fired(&sim) - events_before,
        // The whole scenario: write window, crash, recovery to first read.
        sim_makespan_s: (v.served_again - start).as_secs_f64(),
        sim_recovery_s: v.recovery.as_secs_f64(),
        sim_cost_usd: Pricing::default().storage_cost(stats.requests(), stats.stored_gb_seconds),
        window_ns: (start.as_nanos(), deadline.as_nanos()),
        root_span: "bench.op",
        ..Rep::default()
    };
    tally.fill(&mut rep, window);
    // Writers only stop between ops and the crash waits for them, so every
    // increment was acknowledged: the sums are exact on both sides.
    let acked = acked.load(Ordering::Relaxed);
    rep.check(v.sum_before_crash == acked, || {
        format!("counters sum to {} before the crash, acknowledged {acked}", v.sum_before_crash)
    });
    rep.check(v.sum_after_recovery == acked, || {
        format!("counters sum to {} after recovery, acknowledged {acked}", v.sum_after_recovery)
    });
    let (recovered, written) = (v.report.objects, touched.load(Ordering::Relaxed).count_ones());
    rep.check(recovered == written as usize, || {
        format!("recovered {recovered} objects, {written} were written")
    });
    let (puts, gets) = std::mem::take(&mut *probe_ns.lock().expect("probe exited"));
    let p50_us = |v: &[u64]| crate::stats::percentile(v, 0.5, 0).map_or(0.0, |ns| ns as f64 / 1e3);
    rep.extra.push(("cloudstore.s3.put_us_p50", p50_us(&puts)));
    rep.extra.push(("cloudstore.s3.get_us_p50", p50_us(&gets)));
    rep.extra.push(("cloudstore.s3.requests", stats.requests() as f64));
    rep.extra.push(("dso.durability.recover_bytes", v.report.wal_bytes as f64));
    rep.extra.push(("dso.durability.recover_segments", v.report.wal_segments as f64));
    rep
}
