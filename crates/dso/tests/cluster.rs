//! End-to-end tests of the DSO layer: clients, servers, SMR, membership
//! changes and crash-failover.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use simcore::{Sim, SimTime};

use dso::api;
use dso::{Access, DsoCluster, DsoConfig, ObjectRegistry};

fn start(sim: &Sim, nodes: u32) -> DsoCluster {
    DsoCluster::start(sim, nodes, DsoConfig::default(), ObjectRegistry::with_builtins())
}

#[test]
fn concurrent_counter_updates_are_atomic() {
    let mut sim = Sim::new(11);
    let cluster = start(&sim, 2);
    let handle = cluster.client_handle();
    const THREADS: usize = 20;
    const OPS: i64 = 25;
    for t in 0..THREADS {
        let handle = handle.clone();
        sim.spawn(&format!("t{t}"), move |ctx| {
            let mut cli = handle.connect();
            let counter = api::AtomicLong::new("shared-counter");
            for _ in 0..OPS {
                counter.add_and_get(ctx, &mut cli, 1).expect("reachable");
            }
        });
    }
    let total = Arc::new(Mutex::new(0i64));
    let total2 = total.clone();
    let handle2 = handle.clone();
    sim.spawn("checker", move |ctx| {
        // Run after the writers by sleeping past their work.
        ctx.sleep(Duration::from_secs(30));
        let mut cli = handle2.connect();
        let counter = api::AtomicLong::new("shared-counter");
        *total2.lock() = counter.get(ctx, &mut cli).expect("reachable");
    });
    sim.run_until_idle().expect_quiescent();
    assert_eq!(*total.lock(), (THREADS as i64) * OPS);
}

#[test]
fn barrier_releases_all_parties_together() {
    let mut sim = Sim::new(12);
    let cluster = start(&sim, 2);
    let handle = cluster.client_handle();
    const PARTIES: u32 = 8;
    let releases: Arc<Mutex<Vec<(u64, SimTime)>>> = Arc::new(Mutex::new(Vec::new()));
    for t in 0..PARTIES {
        let handle = handle.clone();
        let releases = releases.clone();
        sim.spawn(&format!("t{t}"), move |ctx| {
            let mut cli = handle.connect();
            let barrier = api::CyclicBarrier::new("b", PARTIES);
            // Stagger arrivals.
            ctx.sleep(Duration::from_millis(t as u64 * 10));
            let generation = barrier.wait(ctx, &mut cli).expect("reachable");
            releases.lock().push((generation, ctx.now()));
            // Second round to prove the barrier is cyclic.
            let generation = barrier.wait(ctx, &mut cli).expect("reachable");
            releases.lock().push((generation, ctx.now()));
        });
    }
    sim.run_until_idle().expect_quiescent();
    let rel = releases.lock();
    assert_eq!(rel.len(), PARTIES as usize * 2);
    let g0: Vec<_> = rel.iter().filter(|(g, _)| *g == 0).collect();
    let g1: Vec<_> = rel.iter().filter(|(g, _)| *g == 1).collect();
    assert_eq!(g0.len(), PARTIES as usize);
    assert_eq!(g1.len(), PARTIES as usize);
    // All of generation 0 released within ~a network RTT of each other.
    let tmin = g0.iter().map(|(_, t)| *t).min().expect("nonempty");
    let tmax = g0.iter().map(|(_, t)| *t).max().expect("nonempty");
    assert!(tmax - tmin < Duration::from_millis(2), "release spread {:?}", tmax - tmin);
    // Nobody passed before the last arrival (t=70ms stagger).
    assert!(tmin >= SimTime::from_millis(70));
}

#[test]
fn semaphore_bounds_critical_section_occupancy() {
    let mut sim = Sim::new(13);
    let cluster = start(&sim, 1);
    let handle = cluster.client_handle();
    let in_cs = Arc::new(Mutex::new((0i32, 0i32))); // (current, max)
    for t in 0..10 {
        let handle = handle.clone();
        let in_cs = in_cs.clone();
        sim.spawn(&format!("t{t}"), move |ctx| {
            let mut cli = handle.connect();
            let sem = api::Semaphore::new("sem", 3);
            sem.acquire(ctx, &mut cli, 1).expect("reachable");
            {
                let mut g = in_cs.lock();
                g.0 += 1;
                g.1 = g.1.max(g.0);
            }
            ctx.sleep(Duration::from_millis(5));
            {
                in_cs.lock().0 -= 1;
            }
            sem.release(ctx, &mut cli, 1).expect("reachable");
        });
    }
    sim.run_until_idle().expect_quiescent();
    let (cur, max) = *in_cs.lock();
    assert_eq!(cur, 0);
    assert!(max <= 3, "semaphore admitted {max} > 3");
    assert!(max >= 2, "semaphore should admit more than one");
}

#[test]
fn future_transfers_a_value_between_threads() {
    let mut sim = Sim::new(14);
    let cluster = start(&sim, 2);
    let handle = cluster.client_handle();
    let got = Arc::new(Mutex::new(None::<String>));
    {
        let handle = handle.clone();
        let got = got.clone();
        sim.spawn("consumer", move |ctx| {
            let mut cli = handle.connect();
            let f: api::SharedFuture<String> = api::SharedFuture::new("f1");
            let v = f.get(ctx, &mut cli).expect("reachable");
            *got.lock() = Some(v);
        });
    }
    sim.spawn("producer", move |ctx| {
        ctx.sleep(Duration::from_millis(20));
        let mut cli = handle.connect();
        let f: api::SharedFuture<String> = api::SharedFuture::new("f1");
        assert!(f.set(ctx, &mut cli, &"result".to_string()).expect("reachable"));
    });
    sim.run_until_idle().expect_quiescent();
    assert_eq!(got.lock().clone(), Some("result".to_string()));
}

#[test]
fn persistent_object_survives_primary_crash() {
    let mut sim = Sim::new(15);
    let cluster = start(&sim, 3);
    let handle = cluster.client_handle();
    let observed = Arc::new(Mutex::new(Vec::<i64>::new()));

    // Writer: set the replicated counter to 100 early on.
    {
        let handle = handle.clone();
        sim.spawn("writer", move |ctx| {
            let mut cli = handle.connect();
            let counter = api::AtomicLong::persistent("model", 0, 2);
            counter.set(ctx, &mut cli, 100).expect("reachable");
        });
    }
    // Fault injector: crash every node in turn except one; rf=2 tolerates
    // one joint failure, so crash exactly one (the others keep quorum).
    let servers: Vec<_> = cluster.servers().to_vec();
    sim.spawn("chaos", move |ctx| {
        ctx.sleep(Duration::from_secs(5));
        servers[0].crash_from(ctx);
    });
    // Reader: after the crash is detected and rebalancing ran, the value
    // must still be 100 regardless of which node held it.
    {
        let handle = handle.clone();
        let observed = observed.clone();
        sim.spawn("reader", move |ctx| {
            let mut cli = handle.connect();
            let counter = api::AtomicLong::persistent("model", 0, 2);
            ctx.sleep(Duration::from_secs(15));
            for _ in 0..5 {
                let v = counter.get(ctx, &mut cli).expect("readable after crash");
                observed.lock().push(v);
                ctx.sleep(Duration::from_millis(100));
            }
        });
    }
    sim.run_until_idle().expect_quiescent();
    let obs = observed.lock();
    assert_eq!(obs.len(), 5);
    assert!(obs.iter().all(|v| *v == 100), "lost the replicated value: {obs:?}");
}

#[test]
fn ephemeral_object_resets_after_crash_but_stays_usable() {
    let mut sim = Sim::new(16);
    let cluster = start(&sim, 2);
    let handle = cluster.client_handle();
    let results = Arc::new(Mutex::new(Vec::<i64>::new()));
    let servers: Vec<_> = cluster.servers().to_vec();
    {
        let handle = handle.clone();
        let results = results.clone();
        sim.spawn("app", move |ctx| {
            let mut cli = handle.connect();
            let counter = api::AtomicLong::new("eph");
            counter.set(ctx, &mut cli, 42).expect("reachable");
            results.lock().push(counter.get(ctx, &mut cli).expect("reachable"));
            // Crash both nodes; restart-equivalent: spawn happens below.
            servers[0].crash_from(ctx);
            // Wait for failure detection and the view change.
            ctx.sleep(Duration::from_secs(10));
            // The object may have been lost (if it lived on the dead node);
            // either way it is usable and holds a well-defined value.
            let v = counter.get(ctx, &mut cli).expect("reachable after crash");
            results.lock().push(v);
        });
    }
    sim.run_until_idle().expect_quiescent();
    let r = results.lock();
    assert_eq!(r[0], 42);
    assert!(r[1] == 42 || r[1] == 0, "unexpected value {}", r[1]);
}

#[test]
fn new_node_joins_and_serves() {
    let mut sim = Sim::new(17);
    let mut cluster = start(&sim, 1);
    let handle = cluster.client_handle();
    // Seed some objects.
    {
        let handle = handle.clone();
        sim.spawn("seed", move |ctx| {
            let mut cli = handle.connect();
            for i in 0..20 {
                let c = api::AtomicLong::new(&format!("c{i}"));
                c.set(ctx, &mut cli, i as i64).expect("reachable");
            }
        });
    }
    sim.run_until(SimTime::from_secs(2));
    // Grow the cluster; placement changes move some objects to node 1.
    cluster.add_node(&sim);
    let handle = cluster.client_handle();
    let ok = Arc::new(Mutex::new(false));
    let ok2 = ok.clone();
    sim.spawn("verify", move |ctx| {
        ctx.sleep(Duration::from_secs(5));
        let mut cli = handle.connect();
        for i in 0..20 {
            let c = api::AtomicLong::new(&format!("c{i}"));
            let v = c.get(ctx, &mut cli).expect("reachable after join");
            assert_eq!(v, i as i64, "object c{i} lost its value after rebalancing");
        }
        *ok2.lock() = true;
    });
    sim.run_until_idle().expect_quiescent();
    assert!(*ok.lock());
}

#[test]
fn shared_list_and_map_round_trip() {
    let mut sim = Sim::new(18);
    let cluster = start(&sim, 2);
    let handle = cluster.client_handle();
    sim.spawn("app", move |ctx| {
        let mut cli = handle.connect();
        let list: api::SharedList<(u32, f64)> = api::SharedList::new("pairs");
        assert_eq!(list.add(ctx, &mut cli, &(1, 0.5)).expect("dso"), 1);
        assert_eq!(list.add(ctx, &mut cli, &(2, 1.5)).expect("dso"), 2);
        assert_eq!(list.get(ctx, &mut cli, 0).expect("dso"), Some((1, 0.5)));
        assert_eq!(list.to_vec(ctx, &mut cli).expect("dso"), vec![(1, 0.5), (2, 1.5)]);

        let map: api::SharedMap<Vec<f64>> = api::SharedMap::new("weights");
        assert!(map.put(ctx, &mut cli, "w0", &vec![1.0, 2.0]).expect("dso").is_none());
        assert_eq!(map.get(ctx, &mut cli, "w0").expect("dso"), Some(vec![1.0, 2.0]));
        assert_eq!(map.size(ctx, &mut cli).expect("dso"), 1);
        assert_eq!(map.keys(ctx, &mut cli).expect("dso"), vec!["w0".to_string()]);
        assert_eq!(map.remove(ctx, &mut cli, "w0").expect("dso"), Some(vec![1.0, 2.0]));
    });
    sim.run_until_idle().expect_quiescent();
}

#[test]
fn smr_latency_is_roughly_double_the_unreplicated_latency() {
    let mut sim = Sim::new(19);
    let cluster = start(&sim, 3);
    let handle = cluster.client_handle();
    let out = Arc::new(Mutex::new((Duration::ZERO, Duration::ZERO)));
    let out2 = out.clone();
    sim.spawn("probe", move |ctx| {
        let mut cli = handle.connect();
        let plain = api::AtomicLong::new("plain");
        let repl = api::AtomicLong::persistent("repl", 0, 2);
        // Warm both (creation, view fetch).
        plain.get(ctx, &mut cli).expect("dso");
        repl.get(ctx, &mut cli).expect("dso");
        const N: u32 = 200;
        let t0 = ctx.now();
        for _ in 0..N {
            plain.add_and_get(ctx, &mut cli, 1).expect("dso");
        }
        let plain_total = ctx.now() - t0;
        let t0 = ctx.now();
        for _ in 0..N {
            repl.add_and_get(ctx, &mut cli, 1).expect("dso");
        }
        let repl_total = ctx.now() - t0;
        *out2.lock() = (plain_total / N, repl_total / N);
    });
    sim.run_until_idle().expect_quiescent();
    let (plain, repl) = *out.lock();
    // Table 2: ~230 µs unreplicated, ~505 µs with rf=2.
    assert!(
        plain > Duration::from_micros(150) && plain < Duration::from_micros(350),
        "unreplicated latency {plain:?}"
    );
    let ratio = repl.as_secs_f64() / plain.as_secs_f64();
    assert!(ratio > 1.6 && ratio < 3.0, "rf=2 latency ratio {ratio}");
}

#[test]
fn deterministic_across_runs() {
    fn run() -> (i64, u64) {
        let mut sim = Sim::new(42);
        let cluster = start(&sim, 2);
        let handle = cluster.client_handle();
        let result = Arc::new(Mutex::new(0i64));
        for t in 0..5 {
            let handle = handle.clone();
            let result = result.clone();
            sim.spawn(&format!("t{t}"), move |ctx| {
                let mut cli = handle.connect();
                let c = api::AtomicLong::new("det");
                let v = c.add_and_get(ctx, &mut cli, t as i64).expect("dso");
                let mut g = result.lock();
                *g = g.wrapping_add(v * (t as i64 + 1));
            });
        }
        let out = sim.run_until_idle();
        let total = *result.lock();
        (total, out.time.as_nanos())
    }
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed must reproduce byte-identical outcomes");
}

// ---------------------------------------------------------------------------
// Read fast path: replica reads and the read caches
// ---------------------------------------------------------------------------

#[test]
fn replica_reads_observe_monotonic_versions_and_values() {
    use dso::ConsistencyMode;
    let mut sim = Sim::new(71);
    let cfg = DsoConfig { consistency: ConsistencyMode::ReplicaReads, ..DsoConfig::default() };
    let cluster = DsoCluster::start(&sim, 3, cfg, ObjectRegistry::with_builtins());
    let handle = cluster.client_handle();
    let writer = handle.clone();
    sim.spawn("writer", move |ctx| {
        let mut cli = writer.connect();
        let c = api::AtomicLong::persistent("rr", 0, 3);
        for _ in 0..60 {
            c.increment_and_get(ctx, &mut cli).expect("write");
            ctx.sleep(Duration::from_micros(300));
        }
    });
    let observations: Arc<Mutex<Vec<(i64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let obs2 = observations.clone();
    sim.spawn("reader", move |ctx| {
        let mut cli = handle.connect();
        let c = api::AtomicLong::persistent("rr", 0, 3);
        for _ in 0..120 {
            let v = c.get(ctx, &mut cli).expect("read");
            let version = cli.observed_version(c.raw().object_ref());
            obs2.lock().push((v, version));
            ctx.sleep(Duration::from_micros(150));
        }
    });
    sim.run_until_idle().expect_quiescent();
    let obs = observations.lock();
    assert_eq!(obs.len(), 120);
    // Reads rotate over all three replicas, yet the session never moves
    // backwards: values and versions are non-decreasing.
    assert!(
        obs.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1),
        "monotonic reads violated: {obs:?}"
    );
    assert!(obs.last().expect("nonempty").0 > 0, "reader saw progress");
}

#[test]
fn read_cache_with_lease_skips_round_trips_and_writes_invalidate() {
    let mut sim = Sim::new(72);
    let cfg = DsoConfig {
        read_cache: true,
        cache_lease: Some(Duration::from_millis(5)),
        ..DsoConfig::default()
    };
    let cluster = DsoCluster::start(&sim, 2, cfg, ObjectRegistry::with_builtins());
    let handle = cluster.client_handle();
    let checked = Arc::new(Mutex::new(false));
    let checked2 = checked.clone();
    sim.spawn("client", move |ctx| {
        let mut cli = handle.connect();
        let c = api::AtomicLong::new("cached");
        c.set(ctx, &mut cli, 7).expect("write");
        let first = c.get(ctx, &mut cli).expect("read");
        assert_eq!(first, 7);
        // Within the lease the cached read costs only local work — far
        // below a network round-trip.
        let t0 = ctx.now();
        let second = c.get(ctx, &mut cli).expect("read");
        assert_eq!(second, 7);
        assert!(
            ctx.now() - t0 < Duration::from_micros(5),
            "leased cache hit must skip the network: {:?}",
            ctx.now() - t0
        );
        // A write through the same client invalidates the entry.
        c.set(ctx, &mut cli, 8).expect("write");
        assert_eq!(c.get(ctx, &mut cli).expect("read"), 8);
        *checked2.lock() = true;
    });
    sim.run_until_idle().expect_quiescent();
    assert!(*checked.lock());
}

#[test]
fn read_cache_validation_catches_other_clients_writes() {
    let mut sim = Sim::new(73);
    let cfg = DsoConfig {
        read_cache: true,
        cache_lease: None, // validate every hit against the object version
        ..DsoConfig::default()
    };
    let cluster = DsoCluster::start(&sim, 2, cfg, ObjectRegistry::with_builtins());
    let handle = cluster.client_handle();
    let handle2 = handle.clone();
    let checked = Arc::new(Mutex::new(false));
    let checked2 = checked.clone();
    sim.spawn("reader", move |ctx| {
        let mut cli = handle.connect();
        let c = api::AtomicLong::new("xwrite");
        c.set(ctx, &mut cli, 1).expect("write");
        assert_eq!(c.get(ctx, &mut cli).expect("read"), 1);
        // Let the other client write.
        ctx.sleep(Duration::from_millis(50));
        // Version validation must reject the cached 1 and refetch.
        assert_eq!(c.get(ctx, &mut cli).expect("read"), 2);
        *checked2.lock() = true;
    });
    sim.spawn("writer", move |ctx| {
        ctx.sleep(Duration::from_millis(20));
        let mut cli = handle2.connect();
        let c = api::AtomicLong::new("xwrite");
        c.set(ctx, &mut cli, 2).expect("write");
    });
    sim.run_until_idle().expect_quiescent();
    assert!(*checked.lock());
}

/// The two cache tiers report under distinct counter families:
/// `dso.read_cache.*` for the per-client cache and `dso.node_cache.*` for
/// the host-shared tier — so a dashboard can tell client-local warmth from
/// co-location wins. Exact counts are pinned; the retired pre-refactor
/// name (`dso.cache_hits`) must stay dead.
#[test]
fn cache_tiers_report_under_distinct_counters() {
    let mut sim = Sim::new(75);
    let metrics = simcore::MetricsRegistry::new();
    sim.set_metrics(&metrics);
    let cfg = DsoConfig::builder()
        .read_cache(true)
        .cache_lease(Duration::from_millis(5))
        .node_cache(true)
        .build()
        .expect("valid two-tier cache config");
    let cluster = DsoCluster::start(&sim, 2, cfg, ObjectRegistry::with_builtins());
    let handle = cluster.client_handle();
    sim.spawn("host", move |ctx| {
        // Two clients on one host share one node cache — the co-located
        // container pair of the deployment layer, inlined.
        let host_cache = std::sync::Arc::new(dso::NodeCache::new());
        let mut a = handle.connect_with_node_cache(host_cache.clone());
        let mut b = handle.connect_with_node_cache(host_cache);
        let c = api::AtomicLong::new("tiers");
        c.set(ctx, &mut a, 5).expect("write");
        // a: both tiers cold — one miss each, then the fetch warms both.
        assert_eq!(c.get(ctx, &mut a).expect("read"), 5);
        // a again: leased hit in a's own client cache.
        assert_eq!(c.get(ctx, &mut a).expect("read"), 5);
        // b: client cache cold, but the shared node cache is warm.
        assert_eq!(c.get(ctx, &mut b).expect("read"), 5);
        // a writes: the shared entry is torn down…
        c.set(ctx, &mut a, 6).expect("write");
        // …so b refetches and sees the new value (miss on both tiers).
        assert_eq!(c.get(ctx, &mut b).expect("read"), 6);
    });
    sim.run_until_idle().expect_quiescent();
    assert_eq!(metrics.counter_value("dso.read_cache.hit"), 1, "a's leased re-read");
    assert_eq!(metrics.counter_value("dso.read_cache.miss"), 3, "first reads + post-write");
    assert_eq!(metrics.counter_value("dso.node_cache.hit"), 1, "b rides a's warmth");
    assert_eq!(metrics.counter_value("dso.node_cache.miss"), 2, "cold start + post-write");
    assert_eq!(metrics.counter_value("dso.node_cache.invalidate"), 1, "a's second write");
    assert_eq!(metrics.counter_value("dso.cache_hits"), 0, "pre-refactor name retired");
}

/// A leased client-cache hit passes the session's admission, as a leased
/// node-cache hit does: once `get` has shown the array at v2, a `getByte`
/// cached at v1 is behind the session, live lease or not, and is fetched
/// again.
#[test]
fn leased_client_cache_hit_never_moves_a_session_backwards() {
    let mut sim = Sim::new(74);
    let cfg = DsoConfig {
        read_cache: true,
        cache_lease: Some(Duration::from_millis(50)),
        ..DsoConfig::default()
    };
    let cluster = DsoCluster::start(&sim, 2, cfg, ObjectRegistry::with_builtins());
    let handle = cluster.client_handle();
    let writer = handle.clone();
    let seen = Arc::new(Mutex::new(None));
    let seen2 = seen.clone();
    sim.spawn("reader", move |ctx| {
        let mut cli = handle.connect();
        let a = api::AtomicByteArray::new("arr");
        a.set(ctx, &mut cli, &vec![1; 4]).expect("write");
        assert_eq!(a.get_byte(ctx, &mut cli, 0).expect("read"), Some(1));
        // The writer moves the array to v2 inside the lease.
        ctx.sleep(Duration::from_millis(20));
        assert_eq!(a.get(ctx, &mut cli).expect("read"), vec![2; 4]);
        *seen2.lock() = Some(a.get_byte(ctx, &mut cli, 0).expect("read"));
    });
    sim.spawn("writer", move |ctx| {
        ctx.sleep(Duration::from_millis(10));
        let mut cli = writer.connect();
        api::AtomicByteArray::new("arr").set(ctx, &mut cli, &vec![2; 4]).expect("write");
    });
    sim.run_until_idle().expect_quiescent();
    assert_eq!(*seen.lock(), Some(Some(2)), "the session moved backwards");
}

#[test]
fn declared_readonly_mismatch_is_rejected() {
    let mut sim = Sim::new(76);
    let cluster = start(&sim, 2);
    let handle = cluster.client_handle();
    let checked = Arc::new(Mutex::new(false));
    let checked2 = checked.clone();
    sim.spawn("client", move |ctx| {
        let mut cli = handle.connect();
        let c = api::AtomicLong::new("strict");
        c.set(ctx, &mut cli, 1).expect("write");
        // Claiming a mutating method is read-only must fail loudly rather
        // than silently skipping replication.
        let err = c.raw().call::<()>(ctx, &mut cli, "set", Access::Read, &[&2i64]).unwrap_err();
        assert!(err.to_string().contains("method set is not read-only"), "{err}");
        assert_eq!(c.get(ctx, &mut cli).expect("read"), 1, "the rejected write did not apply");
        *checked2.lock() = true;
    });
    sim.run_until_idle().expect_quiescent();
    assert!(*checked.lock());
}

/// Every typed-handle method that takes the read fast path, once against
/// a live node: the server must serve each from `SharedObject::read`.
/// (`Arithmetic::get` was rejected as "not read-only" before reads moved
/// to `&self`.)
#[test]
fn every_typed_read_is_served_on_the_read_path() {
    let mut sim = Sim::new(77);
    let cluster = start(&sim, 1);
    let handle = cluster.client_handle();
    let checked = Arc::new(Mutex::new(false));
    let checked2 = checked.clone();
    sim.spawn("client", move |ctx| {
        let cli = &mut handle.connect();
        let long = api::AtomicLong::with_value("long", 7);
        assert_eq!(long.get(ctx, cli), Ok(7));
        let flag = api::AtomicBoolean::with_value("flag", true);
        assert_eq!(flag.get(ctx, cli), Ok(true));
        let bytes = api::AtomicByteArray::with_value("bytes", vec![1, 2, 3]);
        assert_eq!(bytes.get(ctx, cli), Ok(vec![1, 2, 3]));
        assert_eq!(bytes.len(ctx, cli), Ok(3));
        assert_eq!(bytes.is_empty(ctx, cli), Ok(false));
        let list = api::SharedList::<u32>::new("list");
        list.add(ctx, cli, &9).expect("write");
        assert_eq!(list.get(ctx, cli, 0), Ok(Some(9)));
        assert_eq!(list.size(ctx, cli), Ok(1));
        assert_eq!(list.to_vec(ctx, cli), Ok(vec![9]));
        let map = api::SharedMap::<u32>::new("map");
        map.put(ctx, cli, "k", &4).expect("write");
        assert_eq!(map.get(ctx, cli, "k"), Ok(Some(4)));
        assert_eq!(map.size(ctx, cli), Ok(1));
        assert_eq!(map.keys(ctx, cli), Ok(vec!["k".to_string()]));
        assert_eq!(api::Semaphore::new("sem", 2).available_permits(ctx, cli), Ok(2));
        assert_eq!(api::CountDownLatch::new("latch", 3).count(ctx, cli), Ok(3));
        assert_eq!(api::SharedFuture::<u32>::new("future").is_done(ctx, cli), Ok(false));
        let arith = api::Arithmetic::new("arith");
        assert_eq!(arith.mul(ctx, cli, 3.0), Ok(3.0));
        assert_eq!(arith.get(ctx, cli), Ok(3.0));
        *checked2.lock() = true;
    });
    sim.run_until_idle().expect_quiescent();
    assert!(*checked.lock());
}
