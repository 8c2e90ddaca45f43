//! `kernel-bench` — raw kernel speed baseline, gated in CI.
//!
//! Five sections, coarse to fine:
//!
//! 1. **wheel_raw** — the timing wheel alone: pop an expiry, push a
//!    replacement, across seven delay magnitudes. No kernel, no threads;
//!    this is the data-structure ceiling.
//! 2. **timer_churn** — empty-cycle timer churn through the full kernel:
//!    eight daemons sleeping on co-prime periods. Every event is a wake,
//!    so the cost measured is queue + context-switch, no application work.
//! 3. **ping_ring** — message passing: a hop-countdown token circulating
//!    a ring of processes, one delivery event per hop.
//! 4. **actor_ring** — the same ring, hops and link latency with actor
//!    nodes: one delivery event per hop and no thread handoff, so the
//!    ratio to `ping_ring` is what a handoff costs.
//! 5. **dso_smoke** — end-to-end: a 2-node DSO cluster serving
//!    `AtomicLong` increments and reads, many kernel events per op. The
//!    nodes and the coordinator are actors; the six clients are threads.
//!
//! Each section is wall-clock timed (the one legitimate use of host time
//! in the workspace: measuring the simulator itself) and reports kernel
//! events/sec, computed from [`simcore::EventQueueStats`] — total pushes
//! (fresh allocations + free-list recycles) minus events still pending.
//! Results go to `BENCH_kernel.json`; `simcheck`'s `benchcheck` bin
//! asserts the file is well-formed, each section clears a conservative
//! sanity floor (~1/10 of typical release-build numbers), so a silent
//! 10x regression in kernel speed fails CI without flaking on host noise,
//! and `actor_ring` runs at least 5x `ping_ring`'s events/sec.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use simcore::{Actor, Addr, Ctx, Msg, Sim, SimTime, TimingWheel, Wait, Wake};

use crucial::{AtomicLong, DsoCluster, DsoConfig, ObjectRegistry};

use super::Scale;
use crate::report::{fmt_dur, Table};

/// One measured section of the kernel bench.
#[derive(Clone, Debug)]
pub struct Section {
    /// Section name (stable; `benchcheck` keys on it).
    pub name: &'static str,
    /// Application-level work units and what they are.
    pub work: u64,
    /// What one work unit is.
    pub work_unit: &'static str,
    /// Kernel events processed (for `wheel_raw`: wheel pop/push cycles).
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

/// All sections, in run order.
#[derive(Clone, Debug)]
pub struct KernelBenchReport {
    /// Measured sections.
    pub sections: Vec<Section>,
}

impl KernelBenchReport {
    /// Looks up a section by name.
    pub fn section(&self, name: &str) -> &Section {
        self.sections.iter().find(|s| s.name == name).expect("known section name")
    }
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

/// Sleep periods for the churn daemons: co-prime-ish and spanning wheel
/// levels 0-3, so cascades and slot reuse both stay hot.
const PERIODS_NS: [u64; 8] = [700, 1_024, 3_000, 17_000, 65_536, 250_000, 1_000_000, 4_194_304];

fn wheel_raw(scale: Scale) -> Section {
    let cycles: u64 = scale.pick(500_000, 5_000_000);
    let delays_ns: [u64; 7] = [700, 1_024, 9_999, 65_536, 1_000_000, 33_554_432, 2_000_000_000];
    let mut wheel: TimingWheel<u64> = TimingWheel::new();
    let mut seq = 0u64;
    // Prime a realistic pending population before timing starts.
    for i in 0..4096u64 {
        wheel.push(SimTime::from_nanos(1 + i * 37), seq, i);
        seq += 1;
    }
    let (_, elapsed) = timed(|| {
        for i in 0..cycles {
            let (t, _, v) = wheel.pop().expect("wheel stays primed");
            let d = delays_ns[i as usize % delays_ns.len()];
            wheel.push(t + Duration::from_nanos(d), seq, v);
            seq += 1;
        }
    });
    let stats = wheel.stats();
    assert_eq!(stats.len, 4096, "pop/push pairs keep the population fixed");
    assert!(
        stats.recycled_pushes > cycles / 2,
        "steady-state churn must recycle slab nodes, got {stats:?}"
    );
    Section { name: "wheel_raw", work: cycles, work_unit: "timer cycles", events: cycles, elapsed }
}

fn timer_churn(scale: Scale) -> Section {
    let run = Duration::from_millis(scale.pick(150, 1_500));
    let mut sim = Sim::new(1);
    for (i, period_ns) in PERIODS_NS.into_iter().enumerate() {
        sim.spawn_daemon(&format!("tick-{i}"), move |ctx| loop {
            ctx.sleep(Duration::from_nanos(period_ns));
        });
    }
    let (_, elapsed) = timed(|| sim.run_for(run));
    let events = events_fired(&sim);
    assert!(events > 1_000, "churn must fire many timer events, got {events}");
    Section { name: "timer_churn", work: events, work_unit: "timer wakes", events, elapsed }
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
    Section { name: "ping_ring", work: hops, work_unit: "message hops", events, elapsed }
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
    Section { name: "actor_ring", work: hops, work_unit: "message hops", events, elapsed }
}

fn dso_smoke(scale: Scale) -> Section {
    let writers: u64 = 4;
    let readers: u64 = 2;
    let incs: u64 = scale.pick(300, 3_000);
    let reads: u64 = scale.pick(150, 1_500);
    let mut sim = Sim::new(3);
    let cluster = DsoCluster::start(&sim, 2, DsoConfig::default(), ObjectRegistry::with_builtins());
    let handle = cluster.client_handle();
    let high_water: Arc<AtomicU64> = Arc::new(AtomicU64::new(0));
    for w in 0..writers {
        let handle = handle.clone();
        let high_water = high_water.clone();
        sim.spawn(&format!("writer-{w}"), move |ctx| {
            let mut cli = handle.connect();
            let counter = AtomicLong::new("bench-counter");
            for _ in 0..incs {
                let v = counter.increment_and_get(ctx, &mut cli).expect("cluster reachable");
                high_water.fetch_max(v as u64, Ordering::Relaxed);
            }
        });
    }
    for r in 0..readers {
        let handle = handle.clone();
        sim.spawn(&format!("reader-{r}"), move |ctx| {
            let mut cli = handle.connect();
            let counter = AtomicLong::new("bench-counter");
            for _ in 0..reads {
                counter.get(ctx, &mut cli).expect("cluster reachable");
            }
        });
    }
    let (out, elapsed) = timed(|| sim.run_until_idle());
    out.expect_quiescent();
    assert_eq!(
        high_water.load(Ordering::Relaxed),
        writers * incs,
        "every increment must land exactly once"
    );
    let ops = writers * incs + readers * reads;
    let events = events_fired(&sim);
    Section { name: "dso_smoke", work: ops, work_unit: "object ops", events, elapsed }
}

/// Runs every section, renders the table, writes `BENCH_kernel.json`.
pub fn kernel_bench(scale: Scale) -> (Table, KernelBenchReport) {
    let report = KernelBenchReport {
        sections: vec![
            wheel_raw(scale),
            timer_churn(scale),
            ping_ring(scale),
            actor_ring(scale),
            dso_smoke(scale),
        ],
    };
    let mut t = Table::new(
        "kernel-bench — event-queue and kernel throughput",
        &["Section", "Work", "Kernel events", "Wall time", "Events/sec"],
    );
    for s in &report.sections {
        t.row(&[
            s.name.into(),
            format!("{} {}", s.work, s.work_unit),
            s.events.to_string(),
            fmt_dur(s.elapsed),
            format!("{:.0}", s.events_per_s()),
        ]);
    }
    if let Err(e) = write_json(scale, &report) {
        eprintln!("could not write BENCH_kernel.json: {e}");
    }
    (t, report)
}

fn write_json(scale: Scale, report: &KernelBenchReport) -> std::io::Result<()> {
    let sections = report
        .sections
        .iter()
        .map(|s| {
            format!(
                "    {{\"name\": \"{}\", \"work\": {}, \"work_unit\": \"{}\", \
                 \"events\": {}, \"elapsed_s\": {:.6}, \"events_per_s\": {:.1}}}",
                s.name,
                s.work,
                s.work_unit,
                s.events,
                s.elapsed.as_secs_f64(),
                s.events_per_s(),
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"bench\": \"kernel\",\n  \"scale\": \"{}\",\n  \"sections\": [\n{}\n  ]\n}}\n",
        match scale {
            Scale::Quick => "quick",
            Scale::Paper => "paper",
        },
        sections,
    );
    std::fs::write("BENCH_kernel.json", &json)?;
    println!("wrote BENCH_kernel.json");
    Ok(())
}
