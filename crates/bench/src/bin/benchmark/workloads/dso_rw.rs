//! `dso_write_smr` and `dso_read_hot` — the same 3-node DSO cluster and 16
//! closed-loop clients, used the two opposite ways: every op a Skeen
//! total-order round, or nearly every op a cache hit.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rand::RngExt;
use simcore::{Sim, SimTime};

use dso::api::{AtomicByteArray, AtomicLong};
use dso::{ConsistencyMode, DsoCluster, DsoConfig, NodeCache, ObjectRegistry};

use super::{events_fired, traced_op, Observe, Rep, Scale, Stopwatch, Tally};

const NODES: u32 = 3;
const CLIENTS: u32 = 16;

/// Virtual milliseconds to `Duration`.
const fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

/// 64 persistent counters at rf = 2, 100 % `increment_and_get`.
pub fn write_smr(seed: u64, scale: Scale, obs: &Observe) -> Rep {
    const OBJECTS: u32 = 64;
    // Warm-up, then the measurement window: ~35 ops per virtual ms.
    let (warmup, window) = scale.pick((ms(10), ms(20)), (ms(50), ms(250)));
    let start = SimTime::ZERO + warmup;
    let deadline = start + window;
    let traced = obs.tracing.is_some();
    let counter = |i: u32| AtomicLong::persistent(&format!("c{i}"), 0, 2);

    let mut watch = Stopwatch::start();
    let mut sim = Sim::new(seed);
    obs.install(&sim);
    let cluster =
        DsoCluster::start(&sim, NODES, DsoConfig::default(), ObjectRegistry::with_builtins());
    let tally = Arc::new(Tally::default());
    // Every acknowledged increment, warm-up included: what the counters
    // must sum to.
    let acked = Arc::new(AtomicU64::new(0));
    let unacked = Arc::new(AtomicU64::new(0));
    for c in 0..CLIENTS {
        let handle = cluster.client_handle();
        let (tally, acked, unacked) = (tally.clone(), acked.clone(), unacked.clone());
        sim.spawn(&format!("client-{c}"), move |ctx| {
            let mut cli = handle.connect();
            let counters: Vec<AtomicLong> = (0..OBJECTS).map(counter).collect();
            let mut lat = Vec::new();
            while ctx.now() < deadline {
                let i = ctx.rng().random_range(0..OBJECTS) as usize;
                let t0 = ctx.now();
                let r = traced_op(ctx, traced, |ctx| counters[i].increment_and_get(ctx, &mut cli));
                let outcome = if r.is_ok() { &acked } else { &unacked };
                outcome.fetch_add(1, Ordering::Relaxed);
                tally.record(&mut lat, t0 >= start, r.is_ok(), ctx.now() - t0);
            }
            tally.merge(lat);
        });
    }
    // Reads every counter back once the clients have drained.
    let total = Arc::new(AtomicI64::new(-1));
    {
        let handle = cluster.client_handle();
        let total = total.clone();
        sim.spawn("verifier", move |ctx| {
            ctx.sleep((deadline + Duration::from_millis(10)).duration_since(ctx.now()));
            let mut cli = handle.connect();
            let sum: i64 = (0..OBJECTS)
                .map(|i| counter(i).get(ctx, &mut cli).expect("cluster serves reads"))
                .sum();
            total.store(sum, Ordering::Relaxed);
        });
    }
    sim.run_until(start);
    let events_before = events_fired(&sim);
    watch.begin_timed(obs);
    let out = sim.run_until_idle();
    let host = watch.end_timed();
    out.expect_quiescent();

    let mut rep = Rep {
        host,
        events: events_fired(&sim) - events_before,
        sim_makespan_s: (out.time - start).as_secs_f64(),
        window_ns: (start.as_nanos(), deadline.as_nanos()),
        root_span: "bench.op",
        ..Rep::default()
    };
    tally.fill(&mut rep, window);
    let (sum, acked, unacked) = (
        total.load(Ordering::Relaxed),
        acked.load(Ordering::Relaxed) as i64,
        unacked.load(Ordering::Relaxed) as i64,
    );
    // An increment whose acknowledgement was lost may still have applied.
    rep.check((acked..=acked + unacked).contains(&sum), || {
        format!("counters sum to {sum}, acknowledged {acked} (+{unacked} unacknowledged)")
    });
    rep
}

const PAYLOAD: usize = 1024;
const LEASE: Duration = Duration::from_millis(2);
/// How far beyond the lease a read may lag the newest acknowledged write:
/// a replica applies a write one peer hop after the primary acknowledged
/// it, and a validated cache entry is one client round trip old.
const STALE_SLACK: Duration = Duration::from_millis(1);

/// Local work consuming each value read, and the gap between two
/// invocations on one container (dispatch and billing tail): the churn
/// shape of `experiments consistency-ablate`. Neither counts towards an
/// op's latency. Without them a leased hit costs 1 µs and a client spins
/// through a million ops per virtual second between two misses.
const THINK: Duration = Duration::from_micros(20);
const INVOCATION_GAP: Duration = Duration::from_micros(100);

/// Acknowledged writes to one hot object, `(ack time ns, stamp)` in order.
/// Each object has one writer, so stamps and ack times both ascend.
type WriteLog = Mutex<Vec<(u64, u64)>>;

/// 8 hot 1 KB byte arrays at rf = 3, 95 % `get` / 5 % `set`, replica reads
/// through the leased client cache and a host-shared node cache, clients
/// reconnecting every 8 ops as FaaS containers do.
pub fn read_hot(seed: u64, scale: Scale, obs: &Observe) -> Rep {
    const OBJECTS: u32 = 8;
    const OPS_PER_CONNECTION: u32 = 8;
    const CLIENTS_PER_HOST: u32 = 8;
    // Warm-up, then the measurement window.
    let (warmup, window) = scale.pick((ms(10), ms(10)), (ms(20), ms(300)));
    let start = SimTime::ZERO + warmup;
    let deadline = start + window;
    let traced = obs.tracing.is_some();
    let object = |i: u32| AtomicByteArray::persistent(&format!("m{i}"), Vec::new(), 3);
    // A value is its stamp repeated, so a torn or short read shows.
    let payload = |stamp: u64| stamp.to_le_bytes().repeat(PAYLOAD / 8);

    let mut watch = Stopwatch::start();
    let mut sim = Sim::new(seed);
    obs.install(&sim);
    let cfg = DsoConfig::builder()
        .consistency(ConsistencyMode::ReplicaReads)
        .read_cache(true)
        .cache_lease(LEASE)
        .node_cache(true)
        .build()
        .expect("the read-hot configuration is valid");
    let cluster = DsoCluster::start(&sim, NODES, cfg, ObjectRegistry::with_builtins());
    let tally = Arc::new(Tally::default());
    let logs: Arc<Vec<WriteLog>> = Arc::new((0..OBJECTS).map(|_| Mutex::default()).collect());
    let bad_values = Arc::new(AtomicU64::new(0));
    let max_stale_ns = Arc::new(AtomicU64::new(0));
    {
        let handle = cluster.client_handle();
        sim.spawn("installer", move |ctx| {
            let mut cli = handle.connect();
            for i in 0..OBJECTS {
                object(i).set(ctx, &mut cli, &payload(0)).expect("install");
            }
        });
    }
    let hosts: Vec<Arc<NodeCache>> =
        (0..CLIENTS.div_ceil(CLIENTS_PER_HOST)).map(|_| Arc::new(NodeCache::new())).collect();
    for c in 0..CLIENTS {
        let handle = cluster.client_handle();
        let host_cache = hosts[(c / CLIENTS_PER_HOST) as usize].clone();
        let (tally, logs) = (tally.clone(), logs.clone());
        let (bad_values, max_stale_ns) = (bad_values.clone(), max_stale_ns.clone());
        sim.spawn(&format!("client-{c}"), move |ctx| {
            // Let the installer finish first.
            ctx.sleep(Duration::from_millis(5));
            let objects: Vec<AtomicByteArray> = (0..OBJECTS).map(object).collect();
            // Clients 0..OBJECTS each own the writes of one object, at
            // twice the 5 % rate, so that half the clients writing gives
            // the 95/5 mix and every object has exactly one writer. Every
            // tenth op of a writer is the write, from a seeded phase: a
            // coin per op would make the number of writes, and with it
            // every virtual-time result, vary 2.5 % between seeds.
            let owned = (c < OBJECTS).then_some(c as usize);
            let mut nth_op = ctx.rng().random_range(0..10u32);
            let mut stamp = 0u64;
            let mut lat = Vec::new();
            while ctx.now() < deadline {
                let mut cli = handle.connect_with_node_cache(host_cache.clone());
                for _ in 0..OPS_PER_CONNECTION {
                    if ctx.now() >= deadline {
                        break;
                    }
                    nth_op += 1;
                    let write = owned.filter(|_| nth_op % 10 == 0);
                    let t0 = ctx.now();
                    let ok = match write {
                        Some(i) => {
                            stamp += 1;
                            let value = payload(stamp);
                            let r =
                                traced_op(ctx, traced, |ctx| objects[i].set(ctx, &mut cli, &value));
                            if r.is_ok() {
                                let ack = ctx.now().as_nanos();
                                logs[i].lock().expect("one process at a time").push((ack, stamp));
                            }
                            r.is_ok()
                        }
                        None => {
                            let i = ctx.rng().random_range(0..OBJECTS) as usize;
                            let r = traced_op(ctx, traced, |ctx| objects[i].get(ctx, &mut cli));
                            if let Ok(value) = &r {
                                match read_stamp(value) {
                                    Some(seen) => {
                                        let log = logs[i].lock().expect("one process at a time");
                                        let stale = staleness_ns(&log, seen, t0.as_nanos());
                                        max_stale_ns.fetch_max(stale, Ordering::Relaxed);
                                    }
                                    None => {
                                        bad_values.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                            }
                            r.is_ok()
                        }
                    };
                    tally.record(&mut lat, t0 >= start, ok, ctx.now() - t0);
                    let think = ctx.rng().random_range(0.5..1.5);
                    ctx.sleep(THINK.mul_f64(think));
                }
                let gap = ctx.rng().random_range(0.5..1.5);
                ctx.sleep(INVOCATION_GAP.mul_f64(gap));
            }
            tally.merge(lat);
        });
    }
    sim.run_until(start);
    let events_before = events_fired(&sim);
    watch.begin_timed(obs);
    let out = sim.run_until_idle();
    let host = watch.end_timed();
    out.expect_quiescent();

    let mut rep = Rep {
        host,
        events: events_fired(&sim) - events_before,
        sim_makespan_s: (out.time - start).as_secs_f64(),
        window_ns: (start.as_nanos(), deadline.as_nanos()),
        root_span: "bench.op",
        ..Rep::default()
    };
    tally.fill(&mut rep, window);
    let bad = bad_values.load(Ordering::Relaxed);
    rep.check(bad == 0, || format!("{bad} reads returned a short or torn value"));
    let stale = Duration::from_nanos(max_stale_ns.load(Ordering::Relaxed));
    rep.check(stale <= LEASE + STALE_SLACK, || {
        format!("a read lagged an acknowledged write by {stale:?}, lease {LEASE:?}")
    });
    rep.extra.push(("dso.read_policy.max_staleness_us", stale.as_secs_f64() * 1e6));
    rep
}

/// The stamp a full, untorn 1 KB value carries.
fn read_stamp(value: &[u8]) -> Option<u64> {
    let first: [u8; 8] = value.get(..8)?.try_into().ok()?;
    (value.len() == PAYLOAD && value.chunks_exact(8).all(|w| w == first))
        .then(|| u64::from_le_bytes(first))
}

/// How long before `read_at` the first write newer than `seen` had been
/// acknowledged: 0 when the read returned the newest acknowledged value.
fn staleness_ns(log: &[(u64, u64)], seen: u64, read_at: u64) -> u64 {
    let newer = log.partition_point(|&(_, stamp)| stamp <= seen);
    log.get(newer).map_or(0, |&(ack, _)| read_at.saturating_sub(ack))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_and_staleness() {
        let v = 7u64.to_le_bytes().repeat(PAYLOAD / 8);
        assert_eq!(read_stamp(&v), Some(7));
        assert_eq!(read_stamp(&v[..PAYLOAD - 8]), None);
        let mut torn = v.clone();
        torn[512] ^= 1;
        assert_eq!(read_stamp(&torn), None);
        let log = [(100, 1), (200, 2), (300, 3)];
        assert_eq!(staleness_ns(&log, 3, 1000), 0);
        assert_eq!(staleness_ns(&log, 1, 250), 50);
        assert_eq!(staleness_ns(&log, 0, 90), 0, "write 1 not yet acknowledged");
    }
}
