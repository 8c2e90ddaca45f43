//! `kernel-bench` — what a thread handoff costs next to an inline actor
//! wake-up, gated in CI.
//!
//! Two sections, the same ring twice:
//!
//! 1. **ping_ring** — message passing on threads: a hop-countdown token
//!    circulating a ring of processes, one delivery event per hop.
//! 2. **actor_ring** — the same ring, hops and link latency with actor
//!    nodes: one delivery event per hop and no thread handoff, so the
//!    ratio to `ping_ring` is what the one direct handoff per hop costs.
//!
//! Each section is wall-clock timed (the one legitimate use of host time
//! in the workspace: measuring the simulator itself) and reports kernel
//! events/sec, computed from [`simcore::EventQueueStats`] — total pushes
//! (fresh allocations + free-list recycles) minus events still pending.
//! [`check`] holds the relation — `actor_ring` runs at least 3x
//! `ping_ring`'s events/sec — and a floor under the single-threaded actor
//! ring. The thread ring keeps no absolute floor: its rate is the host
//! scheduler's, and the wheel, the handoff and the DSO path are measured
//! pinned and repeated by the acceptance benchmark (`BENCHMARK.json`).

use std::time::Duration;

use simcore::{Actor, Addr, Ctx, Msg, Sim, Wait, Wake};

use super::Scale;
use crate::report::{fmt_dur, Table};

/// One measured run of the ring.
#[derive(Clone, Debug)]
pub struct Section {
    /// Section name.
    pub name: &'static str,
    /// Message hops the token made.
    pub hops: u64,
    /// Kernel events processed.
    pub events: u64,
    /// Host wall time for the timed region.
    pub elapsed: Duration,
}

impl Section {
    /// Events per wall-clock second.
    pub fn events_per_s(&self) -> f64 {
        self.events as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Both runs of the ring.
#[derive(Clone, Debug)]
pub struct KernelBenchReport {
    /// The ring on thread-backed processes.
    pub ping_ring: Section,
    /// The ring on actors.
    pub actor_ring: Section,
}

/// `actor_ring` must run at least this many times `ping_ring`'s
/// events/sec (~8x pinned to one CPU, 550 k against 4.6 M): same ring, same
/// hops, no thread handoff.
const ACTOR_RING_SPEEDUP: f64 = 3.0;
/// Floor under `actor_ring`'s events/sec, an order of magnitude below a
/// typical release-build run (~4.6 M): it runs on the run thread alone,
/// so host scheduling noise does not reach it.
const ACTOR_RING_FLOOR: f64 = 300_000.0;

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
    Section { name: "ping_ring", hops, events, elapsed }
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
    Section { name: "actor_ring", hops, events, elapsed }
}

/// Runs both rings, holds the claims, renders the table.
pub fn kernel_bench(scale: Scale) -> Table {
    let report = KernelBenchReport { ping_ring: ping_ring(scale), actor_ring: actor_ring(scale) };
    check(&report).unwrap_or_else(|broken| panic!("kernel-bench: {broken}"));
    let mut t = Table::new(
        "kernel-bench — one ring on threads and on actors",
        &["Section", "Message hops", "Kernel events", "Wall time", "Events/sec"],
    );
    for s in [&report.ping_ring, &report.actor_ring] {
        t.row(&[
            s.name.into(),
            s.hops.to_string(),
            s.events.to_string(),
            fmt_dur(s.elapsed),
            format!("{:.0}", s.events_per_s()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report with the two rings at the given events/sec.
    fn report(ping: u64, actors: u64) -> KernelBenchReport {
        let section =
            |name, events| Section { name, hops: events, events, elapsed: Duration::from_secs(1) };
        KernelBenchReport {
            ping_ring: section("ping_ring", ping),
            actor_ring: section("actor_ring", actors),
        }
    }

    #[test]
    fn check_holds_each_claim() {
        assert_eq!(check(&report(550_000, 4_600_000)), Ok(()));
        // The thread ring keeps no floor of its own: a slow host passes.
        assert_eq!(check(&report(5_000, 4_600_000)), Ok(()));
        let err = check(&report(2_000_000, 4_600_000)).unwrap_err();
        assert!(err.contains("not at least 3x ping_ring"), "{err}");
        let err = check(&report(10_000, 200_000)).unwrap_err();
        assert!(err.contains("below the 300000 floor"), "{err}");
    }
}
