//! The consistency spectrum under schedule exploration: every mode must
//! pass its machine checker from [`dso::verify`] across perturbed
//! schedules, including runs that crash a storage node mid-flight and
//! force a view change + rebalance.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use simcore::explore::{explore_seeds, Check};
use simcore::Sim;

use dso::verify::{check_causal, check_staleness_bound, Op, SessionKind, SessionOp};
use dso::{api, ConsistencyMode, DsoCluster, DsoConfig, NodeCache, ObjectRegistry};

/// `Causal` across schedules and a crash: three sessions mix increments
/// and round-robin replica reads on one rf=2 counter; a chaos process
/// kills a node at 5 s. Whatever the schedule, each session must read
/// monotonically and never miss its own writes ([`check_causal`]) — the
/// Lamport frontier piggybacked on every reply is what enforces this when
/// a read lands on a replica that has not applied the session's write yet.
#[test]
fn causal_sessions_hold_across_schedules_and_a_crash() {
    let scenario = |sim: &mut Sim| -> Check {
        let cfg = DsoConfig::builder()
            .consistency(ConsistencyMode::Causal)
            .build()
            .expect("valid causal config");
        let cluster = DsoCluster::start(sim, 3, cfg, ObjectRegistry::with_builtins());
        let handle = cluster.client_handle();
        let history: Arc<Mutex<Vec<SessionOp>>> = Arc::new(Mutex::new(Vec::new()));
        for client in 0..3u32 {
            let handle = handle.clone();
            let history = history.clone();
            sim.spawn(&format!("session-{client}"), move |ctx| {
                let mut cli = handle.connect();
                let counter = api::AtomicLong::persistent("causal", 0, 2);
                let record = |start, end, kind, value| {
                    history.lock().push(SessionOp { client, start, end, kind, value });
                };
                // Before the crash: interleaved write/read pairs.
                for _ in 0..3 {
                    let start = ctx.now();
                    let v = counter.increment_and_get(ctx, &mut cli).expect("reachable");
                    record(start, ctx.now(), SessionKind::Write, v);
                    let start = ctx.now();
                    let v = counter.get(ctx, &mut cli).expect("reachable");
                    record(start, ctx.now(), SessionKind::Read, v);
                    ctx.sleep(Duration::from_micros(200));
                }
                // After failure detection and rebalance: the session
                // guarantees must survive the view change.
                ctx.sleep(Duration::from_secs(25));
                let start = ctx.now();
                let v = counter.increment_and_get(ctx, &mut cli).expect("reachable after crash");
                record(start, ctx.now(), SessionKind::Write, v);
                for _ in 0..2 {
                    let start = ctx.now();
                    let v = counter.get(ctx, &mut cli).expect("reachable after crash");
                    record(start, ctx.now(), SessionKind::Read, v);
                }
            });
        }
        let servers: Vec<_> = cluster.servers().to_vec();
        sim.spawn("chaos", move |ctx| {
            ctx.sleep(Duration::from_secs(5));
            servers[0].crash_from(ctx);
        });
        Box::new(move || {
            let _keep = cluster;
            let history = history.lock();
            assert!(history.len() >= 3 * 8, "sessions under-recorded: {}", history.len());
            check_causal(&history).map_err(|v| format!("causal sessions violated: {v}"))
        })
    };
    explore_seeds(200, 25, scenario).expect_clean();
}

/// Bounded staleness is `Linearizable` plus a leased client cache,
/// across schedules and a crash: leased cached reads may lag the primary,
/// but never by more than the lease of virtual time
/// ([`check_staleness_bound`]). The writer's unit increments
/// still go through SMR, so they stay linearizable — the checker verifies
/// that precondition too.
#[test]
fn bounded_staleness_reads_stay_within_the_bound_across_schedules() {
    const BOUND: Duration = Duration::from_millis(100);
    let scenario = |sim: &mut Sim| -> Check {
        let cfg = DsoConfig::builder()
            .consistency(ConsistencyMode::Linearizable)
            .read_cache(true)
            .cache_lease(BOUND)
            .build()
            .expect("valid leased config");
        let cluster = DsoCluster::start(sim, 3, cfg, ObjectRegistry::with_builtins());
        let handle = cluster.client_handle();
        let incs: Arc<Mutex<Vec<Op>>> = Arc::new(Mutex::new(Vec::new()));
        let reads: Arc<Mutex<Vec<Op>>> = Arc::new(Mutex::new(Vec::new()));
        {
            let handle = handle.clone();
            let incs = incs.clone();
            sim.spawn("writer", move |ctx| {
                let mut cli = handle.connect();
                let counter = api::AtomicLong::persistent("bounded", 0, 2);
                for _ in 0..6 {
                    let start = ctx.now();
                    let value = counter.increment_and_get(ctx, &mut cli).expect("reachable");
                    incs.lock().push(Op { start, end: ctx.now(), value });
                    ctx.sleep(Duration::from_millis(80));
                }
            });
        }
        for r in 0..2 {
            let handle = handle.clone();
            let reads = reads.clone();
            sim.spawn(&format!("reader-{r}"), move |ctx| {
                let mut cli = handle.connect();
                let counter = api::AtomicLong::persistent("bounded", 0, 2);
                // Dense reads while the counter moves: most are served
                // from the lease and genuinely stale — within the bound.
                for _ in 0..12 {
                    let start = ctx.now();
                    let value = counter.get(ctx, &mut cli).expect("reachable");
                    reads.lock().push(Op { start, end: ctx.now(), value });
                    ctx.sleep(Duration::from_millis(40));
                }
                // After the crash settles, leases from before the view
                // change have long expired; reads refetch and stay bounded.
                ctx.sleep(Duration::from_secs(25));
                for _ in 0..2 {
                    let start = ctx.now();
                    let value = counter.get(ctx, &mut cli).expect("reachable after crash");
                    reads.lock().push(Op { start, end: ctx.now(), value });
                }
            });
        }
        let servers: Vec<_> = cluster.servers().to_vec();
        sim.spawn("chaos", move |ctx| {
            ctx.sleep(Duration::from_secs(5));
            servers[0].crash_from(ctx);
        });
        Box::new(move || {
            let _keep = cluster;
            let incs = incs.lock();
            let reads = reads.lock();
            assert_eq!(incs.len(), 6, "writer under-recorded");
            check_staleness_bound(&incs, &reads, BOUND)
                .map_err(|v| format!("staleness bound violated: {v}"))
        })
    };
    explore_seeds(300, 25, scenario).expect_clean();
}

/// The host-shared [`NodeCache`] must never break a session guarantee:
/// three readers sharing one cache (as co-located containers do) still
/// read monotonically, because every lease hit re-passes the client's own
/// read policy before being served.
#[test]
fn shared_node_cache_preserves_per_session_monotonic_reads() {
    let scenario = |sim: &mut Sim| -> Check {
        let cfg = DsoConfig::builder()
            .consistency(ConsistencyMode::ReplicaReads)
            .read_cache(true)
            .cache_lease(Duration::from_millis(2))
            .node_cache(true)
            .build()
            .expect("valid node-cache config");
        let cluster = DsoCluster::start(sim, 3, cfg, ObjectRegistry::with_builtins());
        let handle = cluster.client_handle();
        let host_cache = Arc::new(NodeCache::new());
        let history: Arc<Mutex<Vec<SessionOp>>> = Arc::new(Mutex::new(Vec::new()));
        {
            let handle = handle.clone();
            let history = history.clone();
            sim.spawn("writer", move |ctx| {
                let mut cli = handle.connect();
                let counter = api::AtomicLong::persistent("hosted", 0, 2);
                for _ in 0..6 {
                    let start = ctx.now();
                    let v = counter.increment_and_get(ctx, &mut cli).expect("reachable");
                    history.lock().push(SessionOp {
                        client: 0,
                        start,
                        end: ctx.now(),
                        kind: SessionKind::Write,
                        value: v,
                    });
                    ctx.sleep(Duration::from_millis(1));
                }
            });
        }
        for r in 1..4u32 {
            let handle = handle.clone();
            let history = history.clone();
            let host_cache = host_cache.clone();
            sim.spawn(&format!("reader-{r}"), move |ctx| {
                let mut cli = handle.connect_with_node_cache(host_cache);
                let counter = api::AtomicLong::persistent("hosted", 0, 2);
                for _ in 0..8 {
                    let start = ctx.now();
                    let v = counter.get(ctx, &mut cli).expect("reachable");
                    history.lock().push(SessionOp {
                        client: r,
                        start,
                        end: ctx.now(),
                        kind: SessionKind::Read,
                        value: v,
                    });
                    ctx.sleep(Duration::from_micros(500));
                }
            });
        }
        Box::new(move || {
            let _keep = cluster;
            let history = history.lock();
            check_causal(&history).map_err(|v| format!("node cache broke a session: {v}"))
        })
    };
    explore_seeds(500, 25, scenario).expect_clean();
}
