//! Golden hashes of the DSO client's observable behaviour.
//!
//! One traced scenario drives every way a client call can end and both
//! read-cache tiers: each attempt outcome the call span can record
//! (`stale-replica`, `not-owner`, `retry`, `overloaded`, `timeout`,
//! `error`, `gave-up`), a blocking `await`, client-tier hits (leased and
//! probe-validated) and node-tier hits (`node-leased`, `node-validated`),
//! plus a node-tier revalidation that fails after another client's write.
//! The Chrome export and a sorted counter dump are pinned on two seeds, so
//! any change to what the client sends, sleeps, counts or traces shows up
//! as a hash mismatch. Every object is read only through `get`, one cache
//! key per object.

use std::sync::Arc;
use std::time::Duration;

use dso::api::{AtomicLong, CyclicBarrier};
use dso::{
    Access, AdmissionConfig, ConsistencyMode, DsoClientHandle, DsoCluster, DsoConfig, DsoError,
    NodeCache, ObjectRegistry,
};
use simcore::{LatencyModel, MetricsRegistry, Sim, Tracer};

/// FNV-1a over bytes: stable, dependency-free fingerprint.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Cache lease of the caching clients below.
const LEASE: Duration = Duration::from_millis(5);

/// Runs the scenario on `seed`; returns the Chrome export and the counter
/// dump (`name=value` lines, in name order).
fn scenario(seed: u64) -> (String, String) {
    let mut sim = Sim::new(seed);
    let tracer = Tracer::new();
    let metrics = MetricsRegistry::new();
    sim.set_tracer(&tracer);
    sim.set_metrics(&metrics);
    // Peer links are slower than client links, so a replica can trail
    // what a client has already read. Admission is generous except for
    // queue depth, so only the burst below is shed.
    let admission = AdmissionConfig {
        rate: 1e6,
        burst: 1e6,
        max_queue_depth: 4,
        retry_after: Duration::from_millis(2),
    };
    let cfg = DsoConfig {
        peer_net: LatencyModel::uniform(Duration::from_millis(1), 0.10),
        admission: Some(admission),
        ..DsoConfig::default()
    };
    let mut cluster = DsoCluster::start(&sim, 3, cfg.clone(), ObjectRegistry::with_builtins());
    let coordinator = cluster.coordinator();
    let handle = cluster.client_handle();
    let with = |cfg: DsoConfig| DsoClientHandle::new(coordinator, cfg);
    let replica = with(DsoConfig { consistency: ConsistencyMode::ReplicaReads, ..cfg.clone() });
    let leased = with(DsoConfig {
        read_cache: true,
        cache_lease: Some(LEASE),
        node_cache: true,
        ..cfg.clone()
    });
    let probing = with(DsoConfig { read_cache: true, ..cfg.clone() });
    let impatient = with(DsoConfig { max_retries: 2, ..cfg });

    sim.spawn("app", move |ctx| {
        let mut cli = handle.connect();

        // error: a method the object does not have.
        let c = AtomicLong::new("plain");
        c.set(ctx, &mut cli, 1).expect("write");
        let err = c.raw().call::<()>(ctx, &mut cli, "nosuch", Access::Write, &[]).unwrap_err();
        assert!(matches!(err, DsoError::Object(_)), "{err}");

        // A blocking await, released by a second party.
        let party = handle.clone();
        ctx.spawn("party", move |ctx| {
            ctx.sleep(Duration::from_millis(3));
            let mut cli = party.connect();
            CyclicBarrier::new("gate", 2).wait(ctx, &mut cli).expect("released");
        });
        CyclicBarrier::new("gate", 2).wait(ctx, &mut cli).expect("released");

        // stale-replica: the replicas trail the primary by a peer hop, which
        // is slower than the client's round trip.
        let writer = handle.clone();
        ctx.spawn("rr-writer", move |ctx| {
            let mut cli = writer.connect();
            let c = AtomicLong::persistent("rr", 0, 3);
            for _ in 0..10 {
                c.increment_and_get(ctx, &mut cli).expect("write");
            }
        });
        let mut reader = replica.connect();
        let rr = AtomicLong::persistent("rr", 0, 3);
        for _ in 0..30 {
            rr.get(ctx, &mut reader).expect("read");
            ctx.sleep(Duration::from_micros(300));
        }
        ctx.sleep(Duration::from_millis(20));

        // retry: a replicated object read before anyone created it (no
        // creation arguments) is awaiting transfer until a writer makes it.
        let creator = handle.clone();
        ctx.spawn("creator", move |ctx| {
            ctx.sleep(Duration::from_millis(3));
            let mut cli = creator.connect();
            AtomicLong::persistent("late", 0, 2).set(ctx, &mut cli, 5).expect("write");
        });
        let late = AtomicLong::persistent("late", 0, 2);
        let args = cli.encode(&[]);
        let got = cli.invoke(ctx, late.raw().object_ref(), "get", args, 2, None, Access::Read);
        assert_eq!(simcore::codec::from_bytes::<i64>(&got.expect("read")).expect("i64"), 5);

        // overloaded: a burst on one object overflows its node's queue.
        for i in 0..16 {
            let burst = handle.clone();
            ctx.spawn(&format!("burst-{i}"), move |ctx| {
                let mut cli = burst.connect();
                AtomicLong::new("hot").increment_and_get(ctx, &mut cli).expect("write");
            });
        }
        ctx.sleep(Duration::from_millis(200));
        assert_eq!(AtomicLong::new("hot").get(ctx, &mut cli).expect("read"), 16);

        // Client tier, leased: miss, then a hit inside the lease.
        let mut a = leased.connect();
        let c1 = AtomicLong::new("leased");
        c1.set(ctx, &mut a, 1).expect("write");
        assert_eq!(c1.get(ctx, &mut a).expect("read"), 1);
        assert_eq!(c1.get(ctx, &mut a).expect("read"), 1);
        // Client tier, no lease: every hit is version-probed.
        let mut p = probing.connect();
        let c2 = AtomicLong::new("probed");
        c2.set(ctx, &mut p, 1).expect("write");
        assert_eq!(c2.get(ctx, &mut p).expect("read"), 1);
        assert_eq!(c2.get(ctx, &mut p).expect("read"), 1);

        // Node tier: co-located clients share one host cache.
        let host = Arc::new(NodeCache::new());
        let c3 = AtomicLong::new("shared");
        let mut x = leased.connect_with_node_cache(host.clone());
        c3.set(ctx, &mut x, 1).expect("write");
        assert_eq!(c3.get(ctx, &mut x).expect("read"), 1);
        // node-leased: a fresh co-located client rides x's warmth.
        let mut y = leased.connect_with_node_cache(host.clone());
        assert_eq!(c3.get(ctx, &mut y).expect("read"), 1);
        // node-validated: past the lease, a version probe confirms it.
        ctx.sleep(LEASE * 2);
        let mut z = leased.connect_with_node_cache(host.clone());
        assert_eq!(c3.get(ctx, &mut z).expect("read"), 1);
        // A write from off the host goes unseen until the probe fails.
        c3.set(ctx, &mut cli, 2).expect("write");
        ctx.sleep(LEASE * 2);
        let mut w = leased.connect_with_node_cache(host);
        assert_eq!(c3.get(ctx, &mut w).expect("read"), 2);

        // not-owner: a node joins and ownership moves under a cached view.
        let moved: Vec<AtomicLong> =
            (0..8).map(|i| AtomicLong::persistent(&format!("m{i}"), 0, 2)).collect();
        for m in &moved {
            m.increment_and_get(ctx, &mut cli).expect("write");
        }
        cluster.add_node_from(ctx);
        ctx.sleep(Duration::from_millis(50));
        for m in &moved {
            assert_eq!(m.increment_and_get(ctx, &mut cli).expect("write"), 2);
        }

        // timeout: a node crashes under calls routed to it.
        cluster.crash_node_from(ctx, 0);
        for m in &moved {
            m.increment_and_get(ctx, &mut cli).expect("survives one crash at rf=2");
        }

        // gave-up: two attempts against a dead cluster.
        for idx in 1..cluster.servers().len() {
            cluster.crash_node_from(ctx, idx);
        }
        let mut last = impatient.connect();
        let err = moved[0].get(ctx, &mut last).unwrap_err();
        assert!(matches!(err, DsoError::GaveUp { attempts: 2 }), "{err}");
    });
    sim.run_until_idle().expect_quiescent();
    let counters: String =
        metrics.counters().iter().map(|(name, v)| format!("{name}={v}\n")).collect();
    (tracer.export_chrome_json(), counters)
}

/// Every outcome and cache label the scenario exists to cover.
const LABELS: &[&str] = &[
    r#""outcome":"stale-replica""#,
    r#""outcome":"not-owner""#,
    r#""outcome":"retry""#,
    r#""outcome":"overloaded""#,
    r#""outcome":"timeout""#,
    r#""outcome":"error""#,
    r#""outcome":"gave-up""#,
    r#""method":"await""#,
    r#""cache":"hit""#,
    r#""cache":"node-hit""#,
    r#""source":"node-leased""#,
    r#""source":"node-validated""#,
];

fn hashes(seed: u64) -> (u64, u64) {
    let (chrome, counters) = scenario(seed);
    let missing: Vec<&str> = LABELS.iter().copied().filter(|l| !chrome.contains(l)).collect();
    assert!(missing.is_empty(), "seed {seed}: not in the trace: {missing:?}");
    // Two client-tier hits (leased, probed); two node-tier hits, and two
    // node-tier misses: the cold read and the failed revalidation.
    for line in ["dso.read_cache.hit=2\n", "dso.node_cache.hit=2\n", "dso.node_cache.miss=2\n"] {
        assert!(counters.contains(line), "seed {seed}: no {line:?} in\n{counters}");
    }
    (fnv1a(chrome.as_bytes()), fnv1a(counters.as_bytes()))
}

#[test]
fn client_behaviour_matches_golden_hashes() {
    assert_eq!(hashes(3), GOLDEN_SEED3, "seed 3 diverged");
    assert_eq!(hashes(8), GOLDEN_SEED8, "seed 8 diverged");
}

// (Chrome export, counter dump) per seed, recorded before batched
// invocation was deleted and the two cache probes were merged.
const GOLDEN_SEED3: (u64, u64) = (15_243_481_593_319_490_180, 6_380_661_540_215_252_310);
const GOLDEN_SEED8: (u64, u64) = (4_212_797_510_656_442_932, 1_839_355_847_532_094_596);

/// Prints the constants above (run with `--ignored --nocapture`).
#[test]
#[ignore]
fn print_golden() {
    eprintln!("SEED3 {:?}", hashes(3));
    eprintln!("SEED8 {:?}", hashes(8));
}
