//! `kernel-bench` — what a switch to a thread process's stack costs next to
//! an inline actor wake-up, what a spawn costs, what a payload costs to encode, and what
//! the k-means object method costs, gated in CI.
//!
//! Five sections, the same ring twice, a spawn loop, a codec loop and a
//! k-means assignment loop:
//!
//! 1. **ping_ring** — message passing on thread processes: a hop-countdown
//!    token circulating a ring of processes, one delivery event and one
//!    resume of a suspended stack per hop.
//! 2. **actor_ring** — the same ring, hops and link latency with actor
//!    nodes: one delivery event per hop and no stack switch, so the ratio
//!    to `ping_ring` is what the resume per hop costs.
//! 3. **spawn_churn** — one thread parent spawning one-shot children and
//!    joining each before the next, the shape of a driver starting cloud
//!    threads: what a spawn costs when a stack is free.
//! 4. **codec_bytes** — Table 2's 1 KB value encoded and decoded through
//!    [`simcore::codec`], once as a `Vec<u8>` and once as a `Bytes`: the
//!    two have the same bytes on the wire, so they should cost alike.
//! 5. **kmeans_assign** — Fig. 5's assignment pass (200 points of 100
//!    dimensions against k = 25 centroids) through
//!    [`crucial_ml::kmeans::assign_partials`], and through a yardstick
//!    written here that computes each distance as one chain of adds, the
//!    way the pass was first written: the two return the same bits, and
//!    the ratio is what computing four centroids at once buys.
//!
//! Each section is wall-clock timed (the one legitimate use of host time
//! in the workspace: measuring the simulator itself) and reports kernel
//! events/sec, computed from [`simcore::EventQueueStats`] — total pushes
//! (fresh allocations + free-list recycles) minus events still pending —
//! and its ops (hops, spawns, round trips or distance terms) per second;
//! the codec and k-means loops run no kernel and keep their fastest batch.
//! [`check`] holds three relations — `ping_ring` runs at least a third of
//! `actor_ring`'s events/sec, a `Vec<u8>` round trip costs at most 3x a
//! `Bytes` one, and the assignment pass runs at least 1.3x the yardstick's
//! distance terms/sec — a floor under the actor ring, and a count:
//! `spawn_churn` runs on two stacks however many children it spawns. The
//! thread ring and the spawn loop keep no floor of their own: the wheel,
//! the resume and the DSO path are measured pinned and repeated by the
//! acceptance benchmark (`BENCHMARK.json`).

use std::hint::black_box;
use std::time::Duration;

use bytes::Bytes;
use crucial_ml::datagen::kmeans_partition;
use crucial_ml::kmeans::{assign_partials, initial_centroids};
use simcore::codec::{self, Wire};
use simcore::{Actor, Addr, Msg, Proc, Sim, Wait, Wake};

use super::Scale;
use crate::report::{fmt_dur, Table};

/// One measured section.
#[derive(Clone, Debug)]
pub struct Section {
    /// Section name.
    pub name: &'static str,
    /// What an op is: `"hops"` of the token, `"spawns"`, codec
    /// `"round trips"`, or k-means `"distance terms"`.
    pub op: &'static str,
    /// Ops made.
    pub ops: u64,
    /// Kernel events processed.
    pub events: u64,
    /// Stacks the kernel mapped ([`Sim::stacks_allocated`]).
    pub stacks: u64,
    /// Host wall time for the timed region.
    pub elapsed: Duration,
}

impl Section {
    /// Events per wall-clock second.
    pub fn events_per_s(&self) -> f64 {
        self.events as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Ops per wall-clock second.
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Every section's run.
#[derive(Clone, Debug)]
pub struct KernelBenchReport {
    /// The ring on thread-backed processes.
    pub ping_ring: Section,
    /// The ring on actors.
    pub actor_ring: Section,
    /// Sequential spawn-and-join of one-shot thread children.
    pub spawn_churn: Section,
    /// 1 KB round trips through the codec as a `Vec<u8>`.
    pub codec_vec: Section,
    /// The same round trips as a `Bytes`.
    pub codec_bytes: Section,
    /// Fig. 5's assignment pass through [`assign_partials`].
    pub kmeans_assign: Section,
    /// The same pass, one chain of adds per distance.
    pub kmeans_yardstick: Section,
}

/// `ping_ring` must run at least `1 /` this of `actor_ring`'s events/sec:
/// same ring, same hops, plus a resume of a suspended stack per hop, which
/// costs about as much as an actor wake-up (~2.1 M against 2.3 M events/s
/// on a 2-core box). A handoff between OS threads per hop ran ~1/10 and
/// fails.
const THREAD_RING_SHARE: f64 = 3.0;
/// Floor under `actor_ring`'s events/sec, an order of magnitude below a
/// typical release-build run (~2–5 M): it runs on the run thread alone,
/// so host scheduling noise does not reach it.
const ACTOR_RING_FLOOR: f64 = 300_000.0;

/// Stacks `spawn_churn` maps: its parent's, and one each child runs on in
/// turn. A stack per process would make it one per spawn more.
const SPAWN_CHURN_STACKS: u64 = 2;

/// A `Vec<u8>` round trip may cost at most this many `Bytes` round trips.
/// Both are one count and one block copy each way (~1x); a `Vec<u8>` coded
/// one `Wire` call per byte costs ~20x.
const CODEC_VEC_OVER_BYTES: f64 = 3.0;

/// The assignment pass must run at least this many times the yardstick's
/// distance terms/sec. Four centroids at once run ~1.7–1.8x; one chain of adds
/// per distance, which is what the yardstick computes, runs ~1x.
const KMEANS_OVER_YARDSTICK: f64 = 1.3;

/// The claims `kernel-bench` holds; `Err` names the first broken one.
pub fn check(r: &KernelBenchReport) -> Result<(), String> {
    let (actors, ping) = (r.actor_ring.events_per_s(), r.ping_ring.events_per_s());
    claim!(
        actors >= ACTOR_RING_FLOOR,
        "actor_ring runs {actors:.0} events/s, below the {ACTOR_RING_FLOOR:.0} floor — \
         kernel throughput regressed by an order of magnitude"
    );
    claim!(
        ping * THREAD_RING_SHARE >= actors,
        "ping_ring ({ping:.0} events/s) is not at least 1/{THREAD_RING_SHARE} of actor_ring \
         ({actors:.0}) — a thread process's wake-up costs like an OS thread handoff again"
    );
    let churn = &r.spawn_churn;
    claim!(
        churn.stacks == SPAWN_CHURN_STACKS,
        "spawn_churn mapped {} stacks for {} sequential spawns, not {SPAWN_CHURN_STACKS} — \
         a finished process's stack no longer serves the next spawn",
        churn.stacks,
        churn.ops
    );
    let (vec, bytes) = (r.codec_vec.ops_per_s(), r.codec_bytes.ops_per_s());
    claim!(
        vec * CODEC_VEC_OVER_BYTES >= bytes,
        "codec_bytes: a 1 KB Vec<u8> round trip ({vec:.0}/s) costs more than \
         {CODEC_VEC_OVER_BYTES}x a Bytes one ({bytes:.0}/s) — scalar sequences stopped \
         crossing the wire as one block"
    );
    let (kmeans, yardstick) = (r.kmeans_assign.ops_per_s(), r.kmeans_yardstick.ops_per_s());
    claim!(
        kmeans >= yardstick * KMEANS_OVER_YARDSTICK,
        "kmeans_assign: the assignment pass ({kmeans:.0} distance terms/s) is not at least \
         {KMEANS_OVER_YARDSTICK}x the one-chain yardstick ({yardstick:.0}) — its distances \
         stopped being computed four centroids at once"
    );
    Ok(())
}

/// Times `f` on the host clock.
fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    // simlint: allow(wall-clock, reason = "kernel-bench measures the simulator's own host-time throughput; the reading never flows into simulated state")
    let t0 = std::time::Instant::now();
    let r = f();
    (r, t0.elapsed())
}

/// Kernel events fired so far: total pushes minus still-pending.
fn events_fired(sim: &Sim) -> u64 {
    let s = sim.event_queue_stats();
    (s.allocated_nodes + s.recycled_pushes).saturating_sub(s.len as u64)
}

/// The ring both message sections run: size, laps, and link latency.
const RING_NODES: usize = 16;
const RING_LAT: Duration = Duration::from_micros(1);

fn ring_rounds(scale: Scale) -> u64 {
    scale.pick(4_000, 40_000)
}

fn ping_ring(scale: Scale) -> Section {
    let nodes = RING_NODES;
    let rounds = ring_rounds(scale);
    let hops = rounds * nodes as u64;
    let lat = RING_LAT;
    let mut sim = Sim::new(2);
    let mbs: Vec<_> = (0..nodes).map(|i| sim.mailbox(&format!("ring-{i}"))).collect();
    for i in 0..nodes {
        let rx = mbs[i];
        let tx = mbs[(i + 1) % nodes];
        sim.spawn(&format!("node-{i}"), move |ctx| {
            if i == 0 {
                // The token counts remaining hops down to zero; each node
                // therefore receives it exactly `rounds` times.
                ctx.send(tx, Msg::new(hops - 1), lat);
            }
            for _ in 0..rounds {
                let v = ctx.recv(rx).take::<u64>();
                if v > 0 {
                    ctx.send(tx, Msg::new(v - 1), lat);
                }
            }
        });
    }
    let (out, elapsed) = timed(|| sim.run_until_idle());
    out.expect_quiescent();
    let events = events_fired(&sim);
    assert!(events >= hops, "every hop is at least one kernel event");
    let stacks = sim.stacks_allocated();
    Section { name: "ping_ring", op: "hops", ops: hops, events, stacks, elapsed }
}

/// One node of [`actor_ring`]: what a `ping_ring` closure does, one
/// receive per wake-up.
struct RingNode {
    rx: Addr,
    tx: Addr,
    /// The token this node serves on start (node 0 only).
    serve: Option<u64>,
    /// Receives left before the node exits.
    left: u64,
}

impl Actor for RingNode {
    fn on_wake(&mut self, ctx: &mut Proc, wake: Wake) -> Wait {
        match wake {
            Wake::Start => {
                if let Some(token) = self.serve.take() {
                    ctx.send(self.tx, Msg::new(token), RING_LAT);
                }
            }
            Wake::Msg(m) => {
                let v = m.take::<u64>();
                if v > 0 {
                    ctx.send(self.tx, Msg::new(v - 1), RING_LAT);
                }
                self.left -= 1;
            }
            Wake::Timeout | Wake::Slept => unreachable!("a ring node only receives"),
        }
        if self.left == 0 {
            Wait::Exit
        } else {
            Wait::Recv(self.rx)
        }
    }
}

fn actor_ring(scale: Scale) -> Section {
    let rounds = ring_rounds(scale);
    let hops = rounds * RING_NODES as u64;
    let mut sim = Sim::new(2);
    let mbs: Vec<_> = (0..RING_NODES).map(|i| sim.mailbox(&format!("ring-{i}"))).collect();
    for i in 0..RING_NODES {
        let node = RingNode {
            rx: mbs[i],
            tx: mbs[(i + 1) % RING_NODES],
            serve: (i == 0).then_some(hops - 1),
            left: rounds,
        };
        sim.spawn_actor(&format!("node-{i}"), node);
    }
    let (out, elapsed) = timed(|| sim.run_until_idle());
    out.expect_quiescent();
    let events = events_fired(&sim);
    assert_eq!(events, hops, "one delivery per hop, exactly as the thread ring");
    let stacks = sim.stacks_allocated();
    Section { name: "actor_ring", op: "hops", ops: hops, events, stacks, elapsed }
}

fn spawn_churn(scale: Scale) -> Section {
    let spawns = scale.pick(4_000, 40_000);
    let mut sim = Sim::new(2);
    sim.spawn("parent", move |ctx| {
        let done = ctx.mailbox("done");
        for _ in 0..spawns {
            ctx.spawn("child", move |c| c.send(done, Msg::new(()), RING_LAT));
            ctx.recv(done);
        }
    });
    let (out, elapsed) = timed(|| sim.run_until_idle());
    out.expect_quiescent();
    let (events, stacks) = (events_fired(&sim), sim.stacks_allocated());
    assert_eq!(events, spawns, "one delivery per join");
    Section { name: "spawn_churn", op: "spawns", ops: spawns, events, stacks, elapsed }
}

/// Timed batches per codec or k-means measurement; the fastest counts, so
/// a preemption inside one batch does not reach the claim.
const BATCHES: usize = 5;

/// Host time of the fastest of [`BATCHES`] runs of `batch`.
fn fastest_batch(mut batch: impl FnMut()) -> Duration {
    (0..BATCHES).map(|_| timed(&mut batch).1).min().unwrap_or_default()
}

/// Encodes and decodes `payload` `trips` times per batch; the section's
/// time is the fastest batch's.
fn codec_round_trips<T: Wire>(name: &'static str, payload: &T, trips: u64) -> Section {
    let elapsed = fastest_batch(|| {
        for _ in 0..trips {
            let bytes = codec::to_bytes(black_box(payload)).expect("every value encodes");
            black_box(codec::from_bytes::<T>(&bytes).expect("its own encoding decodes"));
        }
    });
    Section { name, op: "round trips", ops: trips, events: 0, stacks: 0, elapsed }
}

/// Table 2's 1 KB value as a `Vec<u8>` and as a `Bytes`.
fn codec_bytes(scale: Scale) -> (Section, Section) {
    let payload: Vec<u8> = (0..1024).map(|i| i as u8).collect();
    let trips = scale.pick(20_000, 200_000);
    let vec = codec_round_trips("codec_bytes (Vec<u8>)", &payload, trips);
    let bytes = codec_round_trips("codec_bytes (Bytes)", &Bytes::from(payload), trips);
    (vec, bytes)
}

/// The yardstick for [`assign_partials`]: the same pass over row-major
/// centroids, each distance one `.sum()` chain that waits on its previous
/// add.
fn assign_one_chain(points: &[Vec<f64>], centroids: &[Vec<f64>]) -> (Vec<Vec<f64>>, Vec<u64>, f64) {
    let dims = centroids.first().map_or(0, Vec::len);
    let mut sums = vec![vec![0.0; dims]; centroids.len()];
    let mut counts = vec![0u64; centroids.len()];
    let mut sse = 0.0;
    for p in points {
        let (mut best, mut best_d2) = (0, f64::INFINITY);
        for (c, centre) in centroids.iter().enumerate() {
            let d2: f64 = centre.iter().zip(p).map(|(a, b)| (a - b) * (a - b)).sum();
            if d2 < best_d2 {
                (best, best_d2) = (c, d2);
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

/// Fig. 5's shape: one worker's sample points, their dimensions, and k.
const KMEANS_POINTS: usize = 200;
const KMEANS_DIMS: usize = 100;
const KMEANS_K: u32 = 25;

/// Fig. 5's assignment pass through [`assign_partials`] and through the
/// yardstick, after checking that the two return the same bits.
fn kmeans_assign(scale: Scale) -> (Section, Section) {
    type Pass = fn(&[Vec<f64>], &[Vec<f64>]) -> (Vec<Vec<f64>>, Vec<u64>, f64);
    let seed = 1;
    let points = kmeans_partition(seed, 0, KMEANS_POINTS, KMEANS_DIMS, KMEANS_K as usize).points;
    let centroids = initial_centroids(seed, KMEANS_K, KMEANS_DIMS);
    let bits = |(sums, counts, sse): (Vec<Vec<f64>>, Vec<u64>, f64)| {
        let sums: Vec<u64> = sums.iter().flatten().map(|x| x.to_bits()).collect();
        (sums, counts, sse.to_bits())
    };
    assert_eq!(
        bits(assign_partials(&points, &centroids)),
        bits(assign_one_chain(&points, &centroids)),
        "kmeans_assign: the assignment pass and its yardstick disagree"
    );
    let calls = scale.pick(50, 500);
    let terms = calls * (KMEANS_POINTS * KMEANS_DIMS) as u64 * u64::from(KMEANS_K);
    let section = |name, pass: Pass| {
        let elapsed = fastest_batch(|| {
            for _ in 0..calls {
                black_box(pass(black_box(&points), black_box(&centroids)));
            }
        });
        Section { name, op: "distance terms", ops: terms, events: 0, stacks: 0, elapsed }
    };
    (
        section("kmeans_assign", assign_partials),
        section("kmeans_assign (yardstick)", assign_one_chain),
    )
}

/// Runs every section, holds the claims, renders the table.
pub fn kernel_bench(scale: Scale) -> Table {
    let (codec_vec, codec_bytes) = codec_bytes(scale);
    let (kmeans_assign, kmeans_yardstick) = kmeans_assign(scale);
    let report = KernelBenchReport {
        ping_ring: ping_ring(scale),
        actor_ring: actor_ring(scale),
        spawn_churn: spawn_churn(scale),
        codec_vec,
        codec_bytes,
        kmeans_assign,
        kmeans_yardstick,
    };
    check(&report).unwrap_or_else(|broken| panic!("kernel-bench: {broken}"));
    let mut t = Table::new(
        "kernel-bench — one ring on threads and on actors, a spawn loop, a codec loop and a \
         k-means loop",
        &["Section", "Ops", "Kernel events", "Stacks", "Wall time", "Events/sec", "Ops/sec"],
    );
    let sections = [
        &report.ping_ring,
        &report.actor_ring,
        &report.spawn_churn,
        &report.codec_vec,
        &report.codec_bytes,
        &report.kmeans_assign,
        &report.kmeans_yardstick,
    ];
    for s in sections {
        t.row(&[
            s.name.into(),
            format!("{} {}", s.ops, s.op),
            s.events.to_string(),
            s.stacks.to_string(),
            fmt_dur(s.elapsed),
            format!("{:.0}", s.events_per_s()),
            format!("{:.0}", s.ops_per_s()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report with the two rings at the given events/sec, 4 000 spawns
    /// on `churn_stacks` stacks, codec round trips at 1 M/s as
    /// `Bytes` and `codec_vec` per second as `Vec<u8>`, and the k-means
    /// yardstick at 100 M distance terms/s against `kmeans` for the pass.
    fn report(
        ping: u64,
        actors: u64,
        churn_stacks: u64,
        codec_vec: u64,
        kmeans: u64,
    ) -> KernelBenchReport {
        let section = |name, op, ops, stacks| Section {
            name,
            op,
            ops,
            events: ops,
            stacks,
            elapsed: Duration::from_secs(1),
        };
        KernelBenchReport {
            ping_ring: section("ping_ring", "hops", ping, 16),
            actor_ring: section("actor_ring", "hops", actors, 0),
            spawn_churn: section("spawn_churn", "spawns", 4_000, churn_stacks),
            codec_vec: section("codec_bytes (Vec<u8>)", "round trips", codec_vec, 0),
            codec_bytes: section("codec_bytes (Bytes)", "round trips", 1_000_000, 0),
            kmeans_assign: section("kmeans_assign", "distance terms", kmeans, 0),
            kmeans_yardstick: section(
                "kmeans_assign (yardstick)",
                "distance terms",
                100_000_000,
                0,
            ),
        }
    }

    #[test]
    fn check_holds_each_claim() {
        let k = 170_000_000;
        assert_eq!(check(&report(2_050_000, 2_310_000, 2, 1_000_000, k)), Ok(()));
        // The thread ring at exactly a third of the actor ring still passes,
        // and it may outrun it.
        assert_eq!(check(&report(1_000_000, 3_000_000, 2, 1_000_000, k)), Ok(()));
        assert_eq!(check(&report(5_000_000, 2_310_000, 2, 1_000_000, k)), Ok(()));
        // A handoff between OS threads per hop: ~1/10 of the actor ring.
        let err = check(&report(240_000, 2_310_000, 2, 1_000_000, k)).unwrap_err();
        assert!(err.contains("is not at least 1/3 of actor_ring"), "{err}");
        let err = check(&report(10_000, 200_000, 2, 1_000_000, k)).unwrap_err();
        assert!(err.contains("below the 300000 floor"), "{err}");
        // A stack per process: the parent's plus one per child.
        let err = check(&report(2_050_000, 2_310_000, 4_001, 1_000_000, k)).unwrap_err();
        assert!(err.contains("mapped 4001 stacks for 4000 sequential spawns"), "{err}");
        // A Vec<u8> at exactly a third of Bytes' rate still passes; one
        // `Wire` call per byte (~20x) does not.
        assert_eq!(check(&report(2_050_000, 2_310_000, 2, 333_334, k)), Ok(()));
        let err = check(&report(2_050_000, 2_310_000, 2, 50_000, k)).unwrap_err();
        assert!(err.contains("costs more than 3x a Bytes one"), "{err}");
        // The pass at exactly 1.3x the yardstick still passes; one chain
        // per distance (~1x) does not.
        assert_eq!(check(&report(2_050_000, 2_310_000, 2, 1_000_000, 130_000_000)), Ok(()));
        let err = check(&report(2_050_000, 2_310_000, 2, 1_000_000, 100_000_000)).unwrap_err();
        assert!(err.contains("is not at least 1.3x the one-chain yardstick"), "{err}");
    }
}
