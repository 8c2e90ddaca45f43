//! `kernel-bench` — what a thread handoff costs next to an inline actor
//! wake-up, what a spawn costs, and what a payload costs to encode, gated
//! in CI.
//!
//! Four sections, the same ring twice, a spawn loop and a codec loop:
//!
//! 1. **ping_ring** — message passing on threads: a hop-countdown token
//!    circulating a ring of processes, one delivery event per hop.
//! 2. **actor_ring** — the same ring, hops and link latency with actor
//!    nodes: one delivery event per hop and no thread handoff, so the
//!    ratio to `ping_ring` is what the one direct handoff per hop costs.
//! 3. **spawn_churn** — one thread parent spawning one-shot children and
//!    joining each before the next, the shape of a driver starting cloud
//!    threads: what a spawn costs when a worker thread is idle.
//! 4. **codec_bytes** — Table 2's 1 KB value encoded and decoded through
//!    [`simcore::codec`], once as a `Vec<u8>` and once as a `Bytes`: the
//!    two have the same bytes on the wire, so they should cost alike.
//!
//! Each section is wall-clock timed (the one legitimate use of host time
//! in the workspace: measuring the simulator itself) and reports kernel
//! events/sec, computed from [`simcore::EventQueueStats`] — total pushes
//! (fresh allocations + free-list recycles) minus events still pending —
//! and its ops (hops, spawns or round trips) per second; the codec loop
//! runs no kernel and keeps its fastest batch. [`check`] holds two
//! relations — `actor_ring` runs at least 3x `ping_ring`'s events/sec, and
//! a `Vec<u8>` round trip costs at most 3x a `Bytes` one — a floor under
//! the single-threaded actor ring, and a count: `spawn_churn` runs on two
//! OS threads however many children it spawns. The thread ring and the
//! spawn loop keep no host-time floor: their rates are the host
//! scheduler's, and the wheel, the handoff and the DSO path are measured
//! pinned and repeated by the acceptance benchmark (`BENCHMARK.json`).

use std::hint::black_box;
use std::time::Duration;

use bytes::Bytes;
use simcore::codec::{self, Wire};
use simcore::{Actor, Addr, Ctx, Msg, Sim, Wait, Wake};

use super::Scale;
use crate::report::{fmt_dur, Table};

/// One measured section.
#[derive(Clone, Debug)]
pub struct Section {
    /// Section name.
    pub name: &'static str,
    /// What an op is: `"hops"` of the token, `"spawns"`, or codec
    /// `"round trips"`.
    pub op: &'static str,
    /// Ops made.
    pub ops: u64,
    /// Kernel events processed.
    pub events: u64,
    /// OS threads the kernel started ([`Sim::threads_spawned`]).
    pub threads: u64,
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
}

/// `actor_ring` must run at least this many times `ping_ring`'s
/// events/sec (~8x pinned to one CPU, 550 k against 4.6 M): same ring, same
/// hops, no thread handoff.
const ACTOR_RING_SPEEDUP: f64 = 3.0;
/// Floor under `actor_ring`'s events/sec, an order of magnitude below a
/// typical release-build run (~4.6 M): it runs on the run thread alone,
/// so host scheduling noise does not reach it.
const ACTOR_RING_FLOOR: f64 = 300_000.0;

/// OS threads `spawn_churn` runs on: its parent's, and one each child runs
/// on in turn. A thread per process would make it one per spawn more.
const SPAWN_CHURN_THREADS: u64 = 2;

/// A `Vec<u8>` round trip may cost at most this many `Bytes` round trips.
/// Both are one count and one block copy each way (~1x); a `Vec<u8>` coded
/// one `Wire` call per byte costs ~20x.
const CODEC_VEC_OVER_BYTES: f64 = 3.0;

/// The claims `kernel-bench` holds; `Err` names the first broken one.
pub fn check(r: &KernelBenchReport) -> Result<(), String> {
    let (actors, threads) = (r.actor_ring.events_per_s(), r.ping_ring.events_per_s());
    claim!(
        actors >= ACTOR_RING_FLOOR,
        "actor_ring runs {actors:.0} events/s, below the {ACTOR_RING_FLOOR:.0} floor — \
         kernel throughput regressed by an order of magnitude"
    );
    claim!(
        actors >= threads * ACTOR_RING_SPEEDUP,
        "actor_ring ({actors:.0} events/s) is not at least {ACTOR_RING_SPEEDUP}x ping_ring \
         ({threads:.0}) — an actor wake-up stopped being cheaper than a thread handoff"
    );
    let churn = &r.spawn_churn;
    claim!(
        churn.threads == SPAWN_CHURN_THREADS,
        "spawn_churn started {} OS threads for {} sequential spawns, not {SPAWN_CHURN_THREADS} — \
         a finished process's thread no longer serves the next spawn",
        churn.threads,
        churn.ops
    );
    let (vec, bytes) = (r.codec_vec.ops_per_s(), r.codec_bytes.ops_per_s());
    claim!(
        vec * CODEC_VEC_OVER_BYTES >= bytes,
        "codec_bytes: a 1 KB Vec<u8> round trip ({vec:.0}/s) costs more than \
         {CODEC_VEC_OVER_BYTES}x a Bytes one ({bytes:.0}/s) — scalar sequences stopped \
         crossing the wire as one block"
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
    let threads = sim.threads_spawned();
    Section { name: "ping_ring", op: "hops", ops: hops, events, threads, elapsed }
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
    fn on_wake(&mut self, ctx: &mut Ctx, wake: Wake) -> Wait {
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
    let threads = sim.threads_spawned();
    Section { name: "actor_ring", op: "hops", ops: hops, events, threads, elapsed }
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
    let (events, threads) = (events_fired(&sim), sim.threads_spawned());
    assert_eq!(events, spawns, "one delivery per join");
    Section { name: "spawn_churn", op: "spawns", ops: spawns, events, threads, elapsed }
}

/// Timed batches per codec measurement; the fastest counts, so a
/// preemption inside one batch does not reach the claim.
const CODEC_BATCHES: usize = 5;

/// Encodes and decodes `payload` `trips` times per batch; the section's
/// time is the fastest batch's.
fn codec_round_trips<T: Wire>(name: &'static str, payload: &T, trips: u64) -> Section {
    let batch = || {
        let ((), elapsed) = timed(|| {
            for _ in 0..trips {
                let bytes = codec::to_bytes(black_box(payload)).expect("every value encodes");
                black_box(codec::from_bytes::<T>(&bytes).expect("its own encoding decodes"));
            }
        });
        elapsed
    };
    let elapsed = (0..CODEC_BATCHES).map(|_| batch()).min().unwrap_or_default();
    Section { name, op: "round trips", ops: trips, events: 0, threads: 0, elapsed }
}

/// Table 2's 1 KB value as a `Vec<u8>` and as a `Bytes`.
fn codec_bytes(scale: Scale) -> (Section, Section) {
    let payload: Vec<u8> = (0..1024).map(|i| i as u8).collect();
    let trips = scale.pick(20_000, 200_000);
    let vec = codec_round_trips("codec_bytes (Vec<u8>)", &payload, trips);
    let bytes = codec_round_trips("codec_bytes (Bytes)", &Bytes::from(payload), trips);
    (vec, bytes)
}

/// Runs every section, holds the claims, renders the table.
pub fn kernel_bench(scale: Scale) -> Table {
    let (codec_vec, codec_bytes) = codec_bytes(scale);
    let report = KernelBenchReport {
        ping_ring: ping_ring(scale),
        actor_ring: actor_ring(scale),
        spawn_churn: spawn_churn(scale),
        codec_vec,
        codec_bytes,
    };
    check(&report).unwrap_or_else(|broken| panic!("kernel-bench: {broken}"));
    let mut t = Table::new(
        "kernel-bench — one ring on threads and on actors, a spawn loop and a codec loop",
        &["Section", "Ops", "Kernel events", "OS threads", "Wall time", "Events/sec", "Ops/sec"],
    );
    let sections = [&report.ping_ring, &report.actor_ring, &report.spawn_churn];
    for s in sections.into_iter().chain([&report.codec_vec, &report.codec_bytes]) {
        t.row(&[
            s.name.into(),
            format!("{} {}", s.ops, s.op),
            s.events.to_string(),
            s.threads.to_string(),
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
    /// on `churn_threads` OS threads, and codec round trips at 1 M/s as
    /// `Bytes` and `codec_vec` per second as `Vec<u8>`.
    fn report(ping: u64, actors: u64, churn_threads: u64, codec_vec: u64) -> KernelBenchReport {
        let section = |name, op, ops, threads| Section {
            name,
            op,
            ops,
            events: ops,
            threads,
            elapsed: Duration::from_secs(1),
        };
        KernelBenchReport {
            ping_ring: section("ping_ring", "hops", ping, 16),
            actor_ring: section("actor_ring", "hops", actors, 0),
            spawn_churn: section("spawn_churn", "spawns", 4_000, churn_threads),
            codec_vec: section("codec_bytes (Vec<u8>)", "round trips", codec_vec, 0),
            codec_bytes: section("codec_bytes (Bytes)", "round trips", 1_000_000, 0),
        }
    }

    #[test]
    fn check_holds_each_claim() {
        assert_eq!(check(&report(550_000, 4_600_000, 2, 1_000_000)), Ok(()));
        // The thread ring keeps no floor of its own: a slow host passes.
        assert_eq!(check(&report(5_000, 4_600_000, 2, 1_000_000)), Ok(()));
        let err = check(&report(2_000_000, 4_600_000, 2, 1_000_000)).unwrap_err();
        assert!(err.contains("not at least 3x ping_ring"), "{err}");
        let err = check(&report(10_000, 200_000, 2, 1_000_000)).unwrap_err();
        assert!(err.contains("below the 300000 floor"), "{err}");
        // A thread per process: the parent's plus one per child.
        let err = check(&report(550_000, 4_600_000, 4_001, 1_000_000)).unwrap_err();
        assert!(err.contains("started 4001 OS threads for 4000 sequential spawns"), "{err}");
        // A Vec<u8> at exactly a third of Bytes' rate still passes; one
        // `Wire` call per byte (~20x) does not.
        assert_eq!(check(&report(550_000, 4_600_000, 2, 333_334)), Ok(()));
        let err = check(&report(550_000, 4_600_000, 2, 50_000)).unwrap_err();
        assert!(err.contains("costs more than 3x a Bytes one"), "{err}");
    }
}
