//! `kernel_msg_ring` — bare `simcore`: a token ring of processes plus
//! timer daemons. The kernel's process handoff and the timing wheel do all
//! the work and every other layer none.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use simcore::{LatencyModel, Msg, Sim};

use super::{events_fired, Observe, Rep, Scale, Stopwatch, WHOLE_RUN};

const NODES: usize = 16;

/// Sleep periods of the timer daemons: co-prime-ish and spanning wheel
/// levels 0-3, so cascades and slot reuse both stay hot (the periods of
/// `experiments kernel-bench`).
const PERIODS_NS: [u64; 8] = [700, 1_024, 3_000, 17_000, 65_536, 250_000, 1_000_000, 4_194_304];

pub fn run(seed: u64, scale: Scale, obs: &Observe) -> Rep {
    let rounds: u64 = scale.pick(150, 1_500);
    let hops = rounds * NODES as u64;
    // 1 µs links; the seed draws each hop's jitter.
    let link = LatencyModel::uniform(Duration::from_micros(1), 0.25);

    let mut watch = Stopwatch::start();
    let mut sim = Sim::new(seed);
    obs.install(&sim);
    let wakes = Arc::new(AtomicU64::new(0));
    for (i, period_ns) in PERIODS_NS.into_iter().enumerate() {
        let wakes = wakes.clone();
        sim.spawn_daemon(&format!("tick-{i}"), move |ctx| loop {
            ctx.sleep(Duration::from_nanos(period_ns));
            wakes.fetch_add(1, Ordering::Relaxed);
        });
    }
    let mbs: Vec<_> = (0..NODES).map(|i| sim.mailbox(&format!("ring-{i}"))).collect();
    let received = Arc::new(AtomicU64::new(0));
    for i in 0..NODES {
        let (rx, tx) = (mbs[i], mbs[(i + 1) % NODES]);
        let received = received.clone();
        sim.spawn(&format!("node-{i}"), move |ctx| {
            if i == 0 {
                // The token counts remaining hops down to zero, so each
                // node receives it exactly `rounds` times.
                let lat = link.sample(ctx.rng());
                ctx.send(tx, Msg::new(hops - 1), lat);
            }
            for _ in 0..rounds {
                let left = ctx.recv(rx).take::<u64>();
                received.fetch_add(1, Ordering::Relaxed);
                if left > 0 {
                    let lat = link.sample(ctx.rng());
                    ctx.send(tx, Msg::new(left - 1), lat);
                }
            }
        });
    }
    watch.begin_timed(obs);
    let out = sim.run_until_idle();
    let host = watch.end_timed();
    out.expect_quiescent();

    let wakes = wakes.load(Ordering::Relaxed);
    let ops = hops + wakes;
    let makespan = out.time.as_secs_f64();
    let mut rep = Rep {
        host,
        attempted: ops,
        ops,
        events: events_fired(&sim),
        sim_ops_per_s: ops as f64 / makespan,
        sim_makespan_s: makespan,
        window_ns: WHOLE_RUN,
        root_span: "bench.op",
        ..Rep::default()
    };
    let got = received.load(Ordering::Relaxed);
    rep.check(got == hops, || format!("ring delivered {got} hops, expected {hops}"));
    let events = rep.events;
    rep.check(events >= ops, || format!("{events} events for {ops} ops"));
    rep
}
