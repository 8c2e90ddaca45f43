//! `kernel-bench` — what a kernel event costs next to the bare event queue,
//! what a switch to a thread process's stack costs next to an inline actor
//! wake-up, what a spawn costs, what a payload costs to encode, and what the
//! k-means object method costs, gated in CI.
//!
//! Seven sections, the same ring twice, a ring of timed RPCs, a spawn loop,
//! the event queue alone, a codec loop and a k-means assignment loop:
//!
//! 1. **ping_ring** — message passing on thread processes: a hop-countdown
//!    token circulating a ring of processes, one delivery event and one
//!    resume of a suspended stack per hop.
//! 2. **actor_ring** — the same ring, hops and link latency with actor
//!    nodes: one delivery event per hop and no stack switch, so the ratio
//!    to `ping_ring` is what the resume per hop costs.
//! 3. **timed_rpc** — thread clients each calling the next one's actor
//!    server with [`simcore::Ctx::call_timeout`], every call answered long
//!    before its timeout, the shape of a DSO client's attempt: the wheel
//!    must hold no timer per past call when the clients are done. Each
//!    server waits with its next heartbeat as the timeout, as the DSO
//!    dispatcher does, and keeps that wake across the requests that wake
//!    it first.
//! 4. **spawn_churn** — one thread parent spawning one-shot children and
//!    joining each before the next, the shape of a driver starting cloud
//!    threads: what a spawn costs when a stack is free.
//! 5. **wheel** — pop one event and push a replacement on a primed
//!    [`simcore::TimingWheel`], as `benchmark layers` does: the part of an
//!    `actor_ring` hop the event queue does, so the ratio is what the
//!    delivery, the wake and the send cost on top.
//! 6. **codec_bytes** — Table 2's 1 KB value encoded and decoded through
//!    [`simcore::codec`], once as a `Vec<u8>` and once as a `Bytes`: the
//!    two have the same bytes on the wire, so they should cost alike.
//! 7. **kmeans_assign** — Fig. 5's assignment pass (200 points of 100
//!    dimensions against k = 25 centroids) through
//!    [`crucial_ml::kmeans::assign_partials`], and through a yardstick
//!    written here that computes each distance as one chain of adds, the
//!    way the pass was first written: the two return the same bits. On the
//!    random initial centroids no block is skipped, so the ratio is what
//!    computing four centroids at once buys; on the centroids a few Lloyd
//!    steps later (`kmeans_assign (converged)`) it is that and what skipping
//!    the blocks a partial distance rules out buys. `kmeans_lloyd` runs the
//!    passes of ten Lloyd steps through one
//!    [`crucial_ml::kmeans::Assigner`], as a worker does, against a fresh
//!    pass per step: the ratio is what carrying each point's distance bounds
//!    from one pass to the next buys.
//!
//! Each section is wall-clock timed (the one legitimate use of host time
//! in the workspace: measuring the simulator itself) and reports kernel
//! events/sec, computed from [`simcore::EventQueueStats`] — total pushes
//! (fresh allocations + free-list recycles) minus events still pending and
//! timers cancelled unfired — and its ops (hops, calls, spawns, pops, round
//! trips or distance terms) per second. The rings, the wheel, the codec and
//! the k-means loops keep the fastest of several runs; a k-means pass and
//! its yardstick take turns. [`check`] holds six relations — `actor_ring`
//! spends at most 2.5x the wheel's ns per event, `ping_ring` runs at least a
//! third of `actor_ring`'s events/sec, a `Vec<u8>` round trip costs at most
//! 3x a `Bytes` one, the assignment pass runs at least 1.3x the
//! yardstick's distance terms/sec on random centroids and 2x on converged
//! ones, and ten Lloyd steps through one assigner run at least 1.5x as fast
//! as fresh passes — a floor under the actor ring, and three counts:
//! `spawn_churn` runs on two stacks however many children it spawns, and
//! `timed_rpc` ends with at most one event pending per process and pushes
//! at most three events per call and one per heartbeat period. The thread
//! ring and the spawn loop keep no floor of their own: the resume and the
//! DSO path are measured pinned and repeated by the acceptance benchmark
//! (`BENCHMARK.json`).

use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use crucial_ml::datagen::kmeans_partition;
use crucial_ml::kmeans::{assign_partials, initial_centroids, Assigner};
use simcore::codec::{self, Wire};
use simcore::{Actor, Addr, Msg, Proc, Request, Sim, SimTime, Ticker, TimingWheel, Wait, Wake};

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
    /// Kernel events still pending when the section ended.
    pub pending: u64,
    /// Events pushed on the wheel, fired, pending or cancelled.
    pub pushes: u64,
    /// Heartbeat periods the section's processes waited through, the first
    /// one of each included.
    pub beats: u64,
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

    /// Wall-clock ns per event.
    pub fn ns_per_event(&self) -> f64 {
        self.elapsed.as_nanos() as f64 / self.events.max(1) as f64
    }
}

/// Every section's run.
#[derive(Clone, Debug)]
pub struct KernelBenchReport {
    /// The ring on thread-backed processes.
    pub ping_ring: Section,
    /// The ring on actors.
    pub actor_ring: Section,
    /// Thread clients calling actor servers with a timeout.
    pub timed_rpc: Section,
    /// Sequential spawn-and-join of one-shot thread children.
    pub spawn_churn: Section,
    /// Pop+push on a primed event queue, no kernel around it.
    pub wheel: Section,
    /// 1 KB round trips through the codec as a `Vec<u8>`.
    pub codec_vec: Section,
    /// The same round trips as a `Bytes`.
    pub codec_bytes: Section,
    /// Fig. 5's assignment pass through [`assign_partials`].
    pub kmeans_assign: Section,
    /// The same pass, one chain of adds per distance.
    pub kmeans_yardstick: Section,
    /// The assignment pass on centroids a few Lloyd steps on.
    pub kmeans_converged: Section,
    /// The yardstick on those centroids.
    pub kmeans_converged_yardstick: Section,
    /// Ten Lloyd steps' passes through one [`Assigner`].
    pub kmeans_lloyd: Section,
    /// The same passes, each through a fresh one.
    pub kmeans_lloyd_fresh: Section,
}

/// `actor_ring` may spend at most this many times the wheel's host ns per
/// event. A hop is one pop and one push on the wheel plus a delivery, an
/// inline wake-up and a send, each an index into the process or mailbox
/// table: ~1.3–1.7x on a 2-core box. SipHash tables for the two ran
/// ~3.6–3.8x (134 ns against 36 ns, 167 ns against 44 ns) and fail.
const ACTOR_RING_OVER_WHEEL: f64 = 2.5;

/// `ping_ring` must run at least `1 /` this of `actor_ring`'s events/sec:
/// same ring, same hops, plus a resume of a suspended stack per hop, which
/// costs about as much as the rest of the hop (~0.5–0.6x: 11 M against 21 M
/// events/s on a 2-core box). A handoff between OS threads per hop ran ~1/10
/// and fails.
const THREAD_RING_SHARE: f64 = 3.0;
/// Floor under `actor_ring`'s events/sec, an order of magnitude below a
/// typical release-build run (~2–5 M): it runs on the run thread alone,
/// so host scheduling noise does not reach it.
const ACTOR_RING_FLOOR: f64 = 300_000.0;

/// Stacks `spawn_churn` maps: its parent's, and one each child runs on in
/// turn. A stack per process would make it one per spawn more.
const SPAWN_CHURN_STACKS: u64 = 2;

/// Processes in `timed_rpc`: a client and a server per ring node. When the
/// section ends, the wheel may hold at most one event for each: the timed
/// waits a reply ended left it, so none is left per past call (64 000 at
/// quick scale when they stay behind).
const TIMED_RPC_PROCS: u64 = 2 * RING_NODES as u64;

/// Wheel pushes `timed_rpc` may make per answered call, besides one per
/// heartbeat period of each server: the request, the reply and the client's
/// timeout. A server a request woke waits again to the same heartbeat
/// deadline, and keeps its pending wake for it; re-pushing that wake after
/// every message makes it 4.
const TIMED_RPC_PUSHES_PER_CALL: u64 = 3;

/// A `Vec<u8>` round trip may cost at most this many `Bytes` round trips.
/// Both are one count and one block copy each way (~1x); a `Vec<u8>` coded
/// one `Wire` call per byte costs ~20x.
const CODEC_VEC_OVER_BYTES: f64 = 3.0;

/// The assignment pass must run at least this many times the yardstick's
/// distance terms/sec. Four centroids at once run ~1.5–1.7x; one chain of adds
/// per distance, which is what the yardstick computes, runs ~1x.
const KMEANS_OVER_YARDSTICK: f64 = 1.3;

/// On centroids a few Lloyd steps on, the assignment pass must run at least
/// this many times the yardstick's distance terms/sec on the same centroids.
/// Skipping a block once its partial sums pass the best distance runs
/// ~2.7–3.2x; summing every block in full, as on random centroids, ~1.5–1.8x.
const KMEANS_CONVERGED_OVER_YARDSTICK: f64 = 2.0;

/// The passes of ten Lloyd steps through one [`Assigner`] must run at least
/// this many times the distance terms/sec of the same passes through fresh
/// ones. Carrying each point's bounds runs ~2.0-2.3x; bounds that never
/// let a point skip its search, ~1x.
const KMEANS_LLOYD_OVER_FRESH: f64 = 1.5;

/// The claims `kernel-bench` holds; `Err` names the first broken one.
pub fn check(r: &KernelBenchReport) -> Result<(), String> {
    let (actors, ping) = (r.actor_ring.events_per_s(), r.ping_ring.events_per_s());
    let (ring_ns, wheel_ns) = (r.actor_ring.ns_per_event(), r.wheel.ns_per_event());
    claim!(
        ring_ns <= wheel_ns * ACTOR_RING_OVER_WHEEL,
        "actor_ring spends {ring_ns:.1} ns per event, more than {ACTOR_RING_OVER_WHEEL}x the \
         wheel's pop+push ({wheel_ns:.1} ns) — a process or mailbox lookup on the event path \
         is no longer an index"
    );
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
    let rpc = &r.timed_rpc;
    claim!(
        rpc.pending <= TIMED_RPC_PROCS,
        "timed_rpc ended with {} events pending for {TIMED_RPC_PROCS} processes after {} \
         answered calls — a timed wait that a reply ended left its timer in the wheel",
        rpc.pending,
        rpc.ops
    );
    claim!(
        rpc.pushes <= TIMED_RPC_PUSHES_PER_CALL * rpc.ops + rpc.beats,
        "timed_rpc pushed {} events for {} answered calls and {} heartbeat periods, more than \
         {TIMED_RPC_PUSHES_PER_CALL} per call and one per period — a server that waits again \
         to the same heartbeat deadline pushes its wake again",
        rpc.pushes,
        rpc.ops,
        rpc.beats
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
    let (kmeans, yardstick) =
        (r.kmeans_converged.ops_per_s(), r.kmeans_converged_yardstick.ops_per_s());
    claim!(
        kmeans >= yardstick * KMEANS_CONVERGED_OVER_YARDSTICK,
        "kmeans_assign (converged): the assignment pass ({kmeans:.0} distance terms/s) is not \
         at least {KMEANS_CONVERGED_OVER_YARDSTICK}x the one-chain yardstick ({yardstick:.0}) \
         — it stopped skipping the blocks a partial distance already rules out"
    );
    let (carried, fresh) = (r.kmeans_lloyd.ops_per_s(), r.kmeans_lloyd_fresh.ops_per_s());
    claim!(
        carried >= fresh * KMEANS_LLOYD_OVER_FRESH,
        "kmeans_lloyd: one assigner over ten Lloyd steps ({carried:.0} distance terms/s) is not \
         at least {KMEANS_LLOYD_OVER_FRESH}x a fresh pass per step ({fresh:.0}) — its points \
         stopped keeping their winners on the bounds from the last pass"
    );
    Ok(())
}

/// Times `f` on the host clock.
#[expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "kernel-bench measures the simulator's own host-time throughput; the reading never flows into simulated state"
)]
fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t0 = std::time::Instant::now();
    let r = f();
    (r, t0.elapsed())
}

/// Kernel events pushed so far: fresh allocations plus free-list recycles.
fn pushes(sim: &Sim) -> u64 {
    let s = sim.event_queue_stats();
    s.allocated_nodes + s.recycled_pushes
}

/// Kernel events fired so far: total pushes minus still pending and
/// cancelled.
fn events_fired(sim: &Sim) -> u64 {
    let s = sim.event_queue_stats();
    pushes(sim).saturating_sub(s.len as u64 + s.cancelled)
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
    let pushes = pushes(&sim);
    Section {
        name: "ping_ring",
        op: "hops",
        ops: hops,
        events,
        pending: 0,
        pushes,
        beats: 0,
        stacks,
        elapsed,
    }
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
    let pushes = pushes(&sim);
    Section {
        name: "actor_ring",
        op: "hops",
        ops: hops,
        events,
        pending: 0,
        pushes,
        beats: 0,
        stacks,
        elapsed,
    }
}

/// The period of a [`timed_rpc`] server's heartbeat: one per 500 calls it
/// answers.
const RPC_HEARTBEAT: Duration = Duration::from_millis(1);

/// A [`timed_rpc`] server: answers each call with its argument and, like
/// the DSO dispatcher, waits with its next heartbeat as the timeout.
struct RpcServer {
    inbox: Addr,
    hb: Option<Ticker>,
    /// Over every server: heartbeat periods begun, and the ones a timeout
    /// rather than a message ended.
    beats: Rc<Cell<(u64, u64)>>,
}

impl Actor for RpcServer {
    fn on_wake(&mut self, ctx: &mut Proc, wake: Wake) -> Wait {
        let now = ctx.now();
        let hb = self.hb.get_or_insert_with(|| Ticker::new(now, RPC_HEARTBEAT));
        let (begun, timeouts) = self.beats.get();
        let begun = begun + u64::from(hb.poll(now) || matches!(wake, Wake::Start));
        self.beats.set((begun, timeouts + u64::from(matches!(wake, Wake::Timeout))));
        if let Wake::Msg(m) = wake {
            let (reply_to, n) = m.take::<Request>().take::<u64>();
            ctx.reply(reply_to, n, RING_LAT);
        }
        Wait::RecvTimeout(self.inbox, hb.remaining(now))
    }
}

/// Client `i` calls server `i + 1` `ring_rounds` times, each call answered
/// after two link latencies, a millionth of its timeout.
fn timed_rpc(scale: Scale) -> Section {
    let rounds = ring_rounds(scale);
    let calls = rounds * RING_NODES as u64;
    let mut sim = Sim::new(2);
    let beats = Rc::new(Cell::new((0, 0)));
    let mbs: Vec<_> = (0..RING_NODES).map(|i| sim.mailbox(&format!("server-{i}"))).collect();
    for (i, &inbox) in mbs.iter().enumerate() {
        let server = RpcServer { inbox, hb: None, beats: beats.clone() };
        sim.spawn_daemon_actor(&format!("server-{i}"), server);
        let to = mbs[(i + 1) % RING_NODES];
        sim.spawn(&format!("client-{i}"), move |ctx| {
            for n in 0..rounds {
                let r: Option<u64> = ctx.call_timeout(to, n, RING_LAT, Duration::from_secs(1));
                assert_eq!(r, Some(n), "a timed call was not answered in time");
            }
        });
    }
    let (out, elapsed) = timed(|| sim.run_until_idle());
    out.expect_quiescent();
    let (events, stacks) = (events_fired(&sim), sim.stacks_allocated());
    let (beats, timeouts) = beats.get();
    assert_eq!(
        events,
        2 * calls + timeouts,
        "a request and a reply per call, and no call times out"
    );
    let (pending, pushes) = (sim.event_queue_stats().len as u64, pushes(&sim));
    Section {
        name: "timed_rpc",
        op: "calls",
        ops: calls,
        events,
        pending,
        pushes,
        beats,
        stacks,
        elapsed,
    }
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
    let pushes = pushes(&sim);
    Section {
        name: "spawn_churn",
        op: "spawns",
        ops: spawns,
        events,
        pending: 0,
        pushes,
        beats: 0,
        stacks,
        elapsed,
    }
}

/// Timed batches per ring, wheel, codec or k-means measurement; the
/// fastest counts, so a preemption inside one batch does not reach a claim.
const BATCHES: usize = 5;

/// Host time of the fastest of [`BATCHES`] runs of `batch`.
fn fastest_batch(mut batch: impl FnMut()) -> Duration {
    (0..BATCHES).map(|_| timed(&mut batch).1).min().unwrap_or_default()
}

/// Host times of the fastest of [`BATCHES`] runs of `a` and of `b`, run in
/// turn, so that a slow spell of the host reaches both.
fn fastest_batches(mut a: impl FnMut(), mut b: impl FnMut()) -> (Duration, Duration) {
    (0..BATCHES).fold((Duration::MAX, Duration::MAX), |(ta, tb), _| {
        (ta.min(timed(&mut a).1), tb.min(timed(&mut b).1))
    })
}

/// The fastest of [`BATCHES`] runs of a ring, each on a fresh `Sim`.
fn fastest_ring(scale: Scale, ring: fn(Scale) -> Section) -> Section {
    (0..BATCHES).map(|_| ring(scale)).min_by_key(|s| s.elapsed).expect("BATCHES > 0")
}

/// Pops one event and pushes a replacement at 4096 pending, across seven
/// delay magnitudes: `benchmark layers`' `wheel_pop_push`.
fn wheel(scale: Scale) -> Section {
    const DELAYS_NS: [u64; 7] = [700, 1_024, 9_999, 65_536, 1_000_000, 33_554_432, 2_000_000_000];
    let mut wheel: TimingWheel<u64> = TimingWheel::new();
    let mut seq = 0u64;
    for i in 0..4096u64 {
        wheel.push(SimTime::from_nanos(1 + i * 37), seq, i);
        seq += 1;
    }
    let pops = scale.pick(200_000, 2_000_000);
    let elapsed = fastest_batch(|| {
        for i in 0..pops {
            let (t, _, v) = wheel.pop().expect("the wheel stays primed");
            let delay = DELAYS_NS[(i % 7) as usize];
            wheel.push(t + Duration::from_nanos(delay), seq, black_box(v));
            seq += 1;
        }
    });
    let pending = wheel.len() as u64;
    Section {
        name: "wheel",
        op: "pops",
        ops: pops,
        events: pops,
        pending,
        pushes: pops,
        beats: 0,
        stacks: 0,
        elapsed,
    }
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
    Section {
        name,
        op: "round trips",
        ops: trips,
        events: 0,
        pending: 0,
        pushes: 0,
        beats: 0,
        stacks: 0,
        elapsed,
    }
}

/// Table 2's 1 KB value as a `Vec<u8>` and as a `Bytes`.
fn codec_bytes(scale: Scale) -> (Section, Section) {
    let payload: Vec<u8> = (0..1024).map(|i| i as u8).collect();
    let trips = scale.pick(20_000, 200_000);
    let vec = codec_round_trips("codec_bytes (Vec<u8>)", &payload, trips);
    let bytes = codec_round_trips("codec_bytes (Bytes)", &Bytes::from(payload), trips);
    (vec, bytes)
}

/// An assignment pass's sums, counts and SSE.
type Partials = (Vec<f64>, Vec<u64>, f64);

/// A pass's output as bit patterns, so that `-0.0` and `0.0` differ.
fn bits((sums, counts, sse): Partials) -> (Vec<u64>, Vec<u64>, u64) {
    (sums.iter().map(|x| x.to_bits()).collect(), counts, sse.to_bits())
}

/// The yardstick for [`assign_partials`]: the same pass over row-major
/// centroids, each distance one `.sum()` chain that waits on its previous
/// add.
fn assign_one_chain(points: &[Vec<f64>], centroids: &[Vec<f64>]) -> Partials {
    let dims = centroids.first().map_or(0, Vec::len);
    let mut sums = vec![0.0; centroids.len() * dims];
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
        for (s, x) in sums[best * dims..][..dims].iter_mut().zip(p) {
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

/// Lloyd steps from the initial centroids on a worker's points before the
/// converged section: by then each point's nearest centroid barely moves.
/// `kmeans_lloyd` runs twice as many, Fig. 5's ten iterations.
const KMEANS_LLOYD_STEPS: usize = 5;

/// `centroids` and the centroids after each of `steps` Lloyd steps of
/// [`assign_partials`] on `points`; a centroid that no point chose stays
/// where it was.
fn lloyd_sequence(points: &[Vec<f64>], centroids: &[Vec<f64>], steps: usize) -> Vec<Vec<Vec<f64>>> {
    let mut sequence = vec![centroids.to_vec()];
    for _ in 0..steps {
        let mut centroids = sequence.last().expect("starts with one").clone();
        let (sums, counts, _) = assign_partials(points, &centroids);
        let dims = centroids.first().map_or(0, Vec::len);
        for ((centre, sum), &n) in centroids.iter_mut().zip(sums.chunks(dims)).zip(&counts) {
            if n > 0 {
                *centre = sum.iter().map(|s| s / n as f64).collect();
            }
        }
        sequence.push(centroids);
    }
    sequence
}

/// Fig. 5's assignment pass through [`assign_partials`] and through the
/// yardstick on the same centroids, after checking that the two return the
/// same bits.
fn kmeans_sections(
    scale: Scale,
    points: &[Vec<f64>],
    centroids: &[Vec<f64>],
    names: [&'static str; 2],
) -> (Section, Section) {
    type Pass = fn(&[Vec<f64>], &[Vec<f64>]) -> Partials;
    assert_eq!(
        bits(assign_partials(points, centroids)),
        bits(assign_one_chain(points, centroids)),
        "{}: the assignment pass and its yardstick disagree",
        names[0]
    );
    let calls = scale.pick(50, 500);
    let ops = calls * (points.len() * KMEANS_DIMS * centroids.len()) as u64;
    let batch = |pass: Pass| {
        move || {
            for _ in 0..calls {
                black_box(pass(black_box(points), black_box(centroids)));
            }
        }
    };
    let (pass, yardstick) = fastest_batches(batch(assign_partials), batch(assign_one_chain));
    let section = |name, elapsed| Section {
        name,
        op: "distance terms",
        ops,
        events: 0,
        pending: 0,
        pushes: 0,
        beats: 0,
        stacks: 0,
        elapsed,
    };
    (section(names[0], pass), section(names[1], yardstick))
}

/// A pass per centroid set of `sequence` through one [`Assigner`], and
/// through a fresh one each, after checking that the two return the same
/// bits at every step.
fn kmeans_lloyd(scale: Scale, points: &[Vec<f64>], sequence: &[Vec<Vec<f64>>]) -> [Section; 2] {
    let mut assigner = Assigner::new(points);
    for (step, centroids) in sequence.iter().enumerate() {
        assert_eq!(
            bits(assigner.assign(centroids)),
            bits(assign_partials(points, centroids)),
            "kmeans_lloyd: one assigner and a fresh pass disagree at step {step}"
        );
    }
    let calls = scale.pick(5, 50);
    let terms: usize = sequence.iter().map(|c| points.len() * KMEANS_DIMS * c.len()).sum();
    let ops = calls * terms as u64;
    let (carried, fresh) = fastest_batches(
        || {
            for _ in 0..calls {
                let mut assigner = Assigner::new(black_box(points));
                for centroids in sequence {
                    black_box(assigner.assign(black_box(centroids)));
                }
            }
        },
        || {
            for _ in 0..calls {
                for centroids in sequence {
                    black_box(assign_partials(black_box(points), black_box(centroids)));
                }
            }
        },
    );
    let section = |name, elapsed| Section {
        name,
        op: "distance terms",
        ops,
        events: 0,
        pending: 0,
        pushes: 0,
        beats: 0,
        stacks: 0,
        elapsed,
    };
    [section("kmeans_lloyd", carried), section("kmeans_lloyd (fresh passes)", fresh)]
}

/// The assignment pass and its yardstick on random initial centroids, where
/// no block is skipped, then on the centroids [`KMEANS_LLOYD_STEPS`] Lloyd
/// steps later, where most are; then the passes of twice as many steps
/// through one assigner and through fresh ones.
fn kmeans_assign(scale: Scale) -> [Section; 6] {
    let seed = 1;
    let points = kmeans_partition(seed, 0, KMEANS_POINTS, KMEANS_DIMS, KMEANS_K as usize).points;
    let initial = initial_centroids(seed, KMEANS_K, KMEANS_DIMS);
    let sequence = lloyd_sequence(&points, &initial, 2 * KMEANS_LLOYD_STEPS);
    let (random, random_yardstick) =
        kmeans_sections(scale, &points, &initial, ["kmeans_assign", "kmeans_assign (yardstick)"]);
    let (converged, converged_yardstick) = kmeans_sections(
        scale,
        &points,
        &sequence[KMEANS_LLOYD_STEPS],
        ["kmeans_assign (converged)", "kmeans_assign (converged, yardstick)"],
    );
    let [lloyd, lloyd_fresh] = kmeans_lloyd(scale, &points, &sequence);
    [random, random_yardstick, converged, converged_yardstick, lloyd, lloyd_fresh]
}

/// Runs every section, holds the claims, renders the table.
pub fn kernel_bench(scale: Scale) -> Table {
    let (codec_vec, codec_bytes) = codec_bytes(scale);
    let [random, random_yardstick, converged, converged_yardstick, lloyd, lloyd_fresh] =
        kmeans_assign(scale);
    let report = KernelBenchReport {
        ping_ring: fastest_ring(scale, ping_ring),
        actor_ring: fastest_ring(scale, actor_ring),
        timed_rpc: fastest_ring(scale, timed_rpc),
        spawn_churn: spawn_churn(scale),
        wheel: wheel(scale),
        codec_vec,
        codec_bytes,
        kmeans_assign: random,
        kmeans_yardstick: random_yardstick,
        kmeans_converged: converged,
        kmeans_converged_yardstick: converged_yardstick,
        kmeans_lloyd: lloyd,
        kmeans_lloyd_fresh: lloyd_fresh,
    };
    check(&report).unwrap_or_else(|broken| panic!("kernel-bench: {broken}"));
    let mut t = Table::new(
        "kernel-bench — one ring on threads and on actors, a ring of timed RPCs, a spawn loop, \
         the event queue, a codec loop and a k-means loop",
        &[
            "Section",
            "Ops",
            "Kernel events",
            "Pushes",
            "Pending",
            "Stacks",
            "Wall time",
            "Events/sec",
            "Ops/sec",
        ],
    );
    let sections = [
        &report.ping_ring,
        &report.actor_ring,
        &report.timed_rpc,
        &report.spawn_churn,
        &report.wheel,
        &report.codec_vec,
        &report.codec_bytes,
        &report.kmeans_assign,
        &report.kmeans_yardstick,
        &report.kmeans_converged,
        &report.kmeans_converged_yardstick,
        &report.kmeans_lloyd,
        &report.kmeans_lloyd_fresh,
    ];
    for s in sections {
        t.row(&[
            s.name.into(),
            format!("{} {}", s.ops, s.op),
            s.events.to_string(),
            s.pushes.to_string(),
            s.pending.to_string(),
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

    /// A section of `ops` ops, one event each, in one second.
    fn section(name: &'static str, op: &'static str, ops: u64, stacks: u64) -> Section {
        let elapsed = Duration::from_secs(1);
        Section { name, op, ops, events: ops, pending: 0, pushes: ops, beats: 0, stacks, elapsed }
    }

    /// A report with the two rings at the given events/sec, the wheel at
    /// twice the actor ring's, 64 000 timed calls that left 2 events
    /// pending, 4 000 spawns on `churn_stacks` stacks, codec
    /// round trips at 1 M/s as `Bytes` and `codec_vec` per second as
    /// `Vec<u8>`, and the k-means yardstick at 100 M distance terms/s
    /// against `kmeans` for the pass, on random centroids and on converged
    /// ones, and fresh Lloyd passes at 100 M against `kmeans` for one
    /// assigner.
    fn report(
        ping: u64,
        actors: u64,
        churn_stacks: u64,
        codec_vec: u64,
        kmeans: u64,
    ) -> KernelBenchReport {
        KernelBenchReport {
            ping_ring: section("ping_ring", "hops", ping, 16),
            actor_ring: section("actor_ring", "hops", actors, 0),
            timed_rpc: section("timed_rpc", "calls", 64_000, 2),
            spawn_churn: section("spawn_churn", "spawns", 4_000, churn_stacks),
            wheel: section("wheel", "pops", 2 * actors, 0),
            codec_vec: section("codec_bytes (Vec<u8>)", "round trips", codec_vec, 0),
            codec_bytes: section("codec_bytes (Bytes)", "round trips", 1_000_000, 0),
            kmeans_assign: section("kmeans_assign", "distance terms", kmeans, 0),
            kmeans_yardstick: section(
                "kmeans_assign (yardstick)",
                "distance terms",
                100_000_000,
                0,
            ),
            kmeans_converged: section("kmeans_assign (converged)", "distance terms", kmeans, 0),
            kmeans_converged_yardstick: section(
                "kmeans_assign (converged, yardstick)",
                "distance terms",
                100_000_000,
                0,
            ),
            kmeans_lloyd: section("kmeans_lloyd", "distance terms", kmeans, 0),
            kmeans_lloyd_fresh: section(
                "kmeans_lloyd (fresh passes)",
                "distance terms",
                100_000_000,
                0,
            ),
        }
    }

    #[test]
    fn check_holds_each_claim() {
        let k = 250_000_000;
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
        let with_random = |kmeans| KernelBenchReport {
            kmeans_assign: section("kmeans_assign", "distance terms", kmeans, 0),
            ..report(2_050_000, 2_310_000, 2, 1_000_000, k)
        };
        assert_eq!(check(&with_random(130_000_000)), Ok(()));
        let err = check(&with_random(100_000_000)).unwrap_err();
        assert!(err.contains("is not at least 1.3x the one-chain yardstick"), "{err}");
        // On converged centroids exactly 2x still passes; the pass without
        // skipping (~1.7x) does not.
        assert_eq!(check(&report(2_050_000, 2_310_000, 2, 1_000_000, 200_000_000)), Ok(()));
        let err = check(&report(2_050_000, 2_310_000, 2, 1_000_000, 170_000_000)).unwrap_err();
        assert!(err.contains("(converged): the assignment pass"), "{err}");
        assert!(err.contains("stopped skipping the blocks"), "{err}");
        // One assigner at exactly 1.5x fresh passes still passes; bounds
        // that keep no point on the fast path (~1x) do not.
        let with_lloyd = |kmeans| KernelBenchReport {
            kmeans_lloyd: section("kmeans_lloyd", "distance terms", kmeans, 0),
            ..report(2_050_000, 2_310_000, 2, 1_000_000, k)
        };
        assert_eq!(check(&with_lloyd(150_000_000)), Ok(()));
        let err = check(&with_lloyd(100_000_000)).unwrap_err();
        assert!(err.contains("is not at least 1.5x a fresh pass per step"), "{err}");
    }

    #[test]
    fn timed_rpc_leaves_no_timer_per_call() {
        let with_pending = |pending| {
            let mut r = report(2_050_000, 2_310_000, 2, 1_000_000, 250_000_000);
            r.timed_rpc.pending = pending;
            r
        };
        // Cancelled timeouts: nothing left, or a timer per process at most.
        assert_eq!(check(&with_pending(0)), Ok(()));
        assert_eq!(check(&with_pending(32)), Ok(()));
        // One more than the processes could hold.
        let err = check(&with_pending(33)).unwrap_err();
        assert!(err.contains("ended with 33 events pending for 32 processes"), "{err}");
        // Each answered call's timeout left behind.
        let err = check(&with_pending(64_000)).unwrap_err();
        assert!(err.contains("left its timer in the wheel"), "{err}");
    }

    #[test]
    fn timed_rpc_keeps_its_heartbeat_wake() {
        // 64 000 calls and 2 000 heartbeat periods.
        let with_pushes = |pushes| {
            let mut r = report(2_050_000, 2_310_000, 2, 1_000_000, 250_000_000);
            (r.timed_rpc.pushes, r.timed_rpc.beats) = (pushes, 2_000);
            r
        };
        // A request, a reply and a timeout per call, and a wake per period.
        assert_eq!(check(&with_pushes(3 * 64_000 + 2_000)), Ok(()));
        // The server's wake pushed again after every request.
        let err = check(&with_pushes(4 * 64_000 + 2_000)).unwrap_err();
        assert!(err.contains("pushed 258000 events for 64000 answered calls"), "{err}");
        assert!(err.contains("pushes its wake again"), "{err}");
    }

    #[test]
    fn actor_ring_is_held_to_the_wheel() {
        // The actor ring at 2 M events/s: 500 ns per event.
        let with_wheel = |wheel_per_s| KernelBenchReport {
            wheel: section("wheel", "pops", wheel_per_s, 0),
            ..report(2_050_000, 2_000_000, 2, 1_000_000, 250_000_000)
        };
        // Dense tables: ~1.3x the wheel's ns per event.
        assert_eq!(check(&with_wheel(2_600_000)), Ok(()));
        // Exactly 2.5x still passes.
        assert_eq!(check(&with_wheel(5_000_000)), Ok(()));
        // Hashed process and mailbox tables: ~3.6x.
        let err = check(&with_wheel(7_200_000)).unwrap_err();
        assert!(err.contains("more than 2.5x the wheel's pop+push (138.9 ns)"), "{err}");
    }
}
