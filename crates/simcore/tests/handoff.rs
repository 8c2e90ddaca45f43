//! The scheduler loop runs on whichever OS thread holds the run token, so a
//! process thread that blocks is usually the one that fires the next event
//! and picks the next process. These tests hold what that must not change
//! — a panic, a deadline, a kill and an actor all end up where they did
//! when only the `run_*` caller ran the loop — and count the token
//! transfers the design exists to save, and the OS threads the worker pool
//! does.
//!
//! The first group are races between OS threads: each scenario is repeated,
//! because one pass proves little.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::Duration;

use parking_lot::Mutex;
use simcore::{
    Actor, Addr, Ctx, Msg, Pid, Request, Scheduler, Sim, SimTime, SpanId, TraceCtx, Wait, Wake,
};

const MS: Duration = Duration::from_millis(1);
const REPEATS: usize = 200;

/// The message of the panic `f` ends in.
fn panic_message(f: impl FnOnce()) -> String {
    let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("the run must panic");
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => payload.downcast::<&str>().map(|s| s.to_string()).unwrap_or_default(),
    }
}

/// Panics on the first contended pick, noting which OS thread asked.
struct ExplodingScheduler {
    asked_on: Arc<Mutex<Option<ThreadId>>>,
}

impl Scheduler for ExplodingScheduler {
    fn pick(&mut self, _runnable: &[Pid]) -> usize {
        *self.asked_on.lock() = Some(std::thread::current().id());
        panic!("scheduler exploded");
    }
}

// (a) A panic of the loop itself, raised while a process thread drives:
// one that has just blocked, and one whose body has returned.
#[test]
fn scheduler_panic_under_a_process_driver_surfaces_from_run() {
    for blocks in (0..REPEATS).map(|i| i % 2 == 0) {
        let asked_on = Arc::new(Mutex::new(None));
        let mut sim =
            Sim::with_scheduler(1, Box::new(ExplodingScheduler { asked_on: asked_on.clone() }));
        sim.spawn("main", move |ctx| {
            ctx.spawn("a", |c| c.sleep(MS));
            ctx.spawn("b", |c| c.sleep(MS));
            // Blocks or exits with two children runnable: the contended
            // pick happens on this thread.
            if blocks {
                ctx.sleep(MS);
            }
        });
        let message = panic_message(|| drop(sim.run_until_idle()));
        assert_eq!(message, "scheduler exploded");
        let asked = asked_on.lock().expect("the scheduler was consulted");
        assert_ne!(asked, std::thread::current().id(), "the pick must be made by a process thread");
    }
}

// (b) A process body panics after another process thread, or the process
// itself, was the last to drive.
#[test]
fn body_panic_after_a_process_driver_surfaces_from_run() {
    for _ in 0..REPEATS {
        let mut sim = Sim::new(1);
        sim.spawn("bad", |ctx| {
            ctx.sleep(MS);
            panic!("boom after a handoff");
        });
        // Blocks second: it fires bad's wake and hands it the token.
        sim.spawn("bystander", |ctx| ctx.sleep(2 * MS));
        assert_eq!(panic_message(|| drop(sim.run_until_idle())), "boom after a handoff");

        let mut sim = Sim::new(1);
        sim.spawn("solo", |ctx| {
            ctx.sleep(MS); // picks itself: no other thread is involved
            panic!("boom on my own");
        });
        assert_eq!(panic_message(|| drop(sim.run_until_idle())), "boom on my own");
    }
}

// (c) A deadline reached while a process thread drives.
#[test]
fn run_until_stops_on_the_deadline_under_a_process_driver_and_resumes() {
    for _ in 0..REPEATS {
        let mut sim = Sim::new(1);
        let wakes = Arc::new(Mutex::new(Vec::new()));
        let log = wakes.clone();
        sim.spawn("ticker", move |ctx| {
            for _ in 0..8 {
                ctx.sleep(3 * MS);
                log.lock().push(ctx.now());
            }
        });
        let at = |ms: &[u64]| ms.iter().map(|ms| SimTime::from_millis(*ms)).collect::<Vec<_>>();

        let out = sim.run_until(SimTime::from_millis(10));
        assert_eq!((out.time, sim.now()), (SimTime::from_millis(10), SimTime::from_millis(10)));
        assert_eq!(out.blocked, ["ticker"]);
        assert_eq!(*wakes.lock(), at(&[3, 6, 9]));

        let out = sim.run_until(SimTime::from_millis(20));
        assert_eq!(out.time, SimTime::from_millis(20));
        assert_eq!(*wakes.lock(), at(&[3, 6, 9, 12, 15, 18]));

        let out = sim.run_until_idle();
        out.expect_quiescent();
        assert_eq!(out.time, SimTime::from_millis(24));
        assert_eq!(sim.live_processes(), 0);
    }
}

// (d) Kills that the driving process thread has to carry out: of a runnable
// process it picks next, and of itself.
#[test]
fn kills_are_carried_out_by_a_process_driver() {
    for _ in 0..REPEATS {
        let survived = Arc::new(AtomicBool::new(false));
        let mut sim = Sim::new(1);
        let (never_ran, woke) = (survived.clone(), survived.clone());
        sim.spawn("killer", move |ctx| {
            let fresh = ctx.spawn("fresh", move |_| never_ran.store(true, Ordering::SeqCst));
            let parked = ctx.spawn("parked", move |c| {
                c.park();
                woke.store(true, Ordering::SeqCst);
            });
            ctx.kill(fresh); // runnable, never started
            ctx.sleep(MS); // "parked" runs and parks
            ctx.unpark(parked);
            ctx.kill(parked); // runnable again, killed before it is picked
            ctx.sleep(MS);
        });
        sim.run_until_idle().expect_quiescent();
        assert_eq!(sim.live_processes(), 0);

        let after = survived.clone();
        sim.spawn("suicide", move |ctx| {
            ctx.kill(ctx.pid());
            ctx.sleep(MS); // fires its own wake, picks itself, finds itself killed
            after.store(true, Ordering::SeqCst);
        });
        let out = sim.run_until_idle();
        out.expect_quiescent();
        assert_eq!(out.time, SimTime::from_millis(3));
        assert_eq!(sim.live_processes(), 0);
        assert!(!survived.load(Ordering::SeqCst), "a killed process ran on");
    }
}

/// Runs `f` on an OS thread of its own.
fn on_another_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| s.spawn(f).join().expect("the thread finishes"))
}

// (e) The run thread is whoever calls `run_*`, each time.
#[test]
fn a_sim_can_be_run_from_a_different_os_thread_each_time() {
    let ticks = Arc::new(AtomicU64::new(0));
    let counter = ticks.clone();
    let mut sim = on_another_thread(|| {
        let sim = Sim::new(1);
        sim.spawn_daemon("ticker", move |ctx| loop {
            ctx.sleep(MS);
            counter.fetch_add(1, Ordering::SeqCst);
        });
        sim
    });
    for runs in 1..=2u64 {
        sim = on_another_thread(move || {
            let out = sim.run_for(10 * MS);
            assert_eq!(out.time, SimTime::from_millis(10 * runs));
            sim
        });
        assert_eq!(ticks.load(Ordering::SeqCst), 10 * runs);
    }
}

/// Doubles numbers, noting the OS thread of every wake-up.
struct Doubler {
    inbox: Addr,
    woken_on: Arc<Mutex<Vec<ThreadId>>>,
}

impl Actor for Doubler {
    fn on_wake(&mut self, ctx: &mut Ctx, wake: Wake) -> Wait {
        self.woken_on.lock().push(std::thread::current().id());
        if let Wake::Msg(m) = wake {
            let (reply_to, n) = m.take::<Request>().take::<u64>();
            ctx.reply(reply_to, n * 2, Duration::from_micros(90));
        }
        Wait::Recv(self.inbox)
    }
}

/// A `Doubler` and one thread client calling it `calls` times.
fn doubler_sim(calls: u64) -> (Sim, Arc<Mutex<Vec<ThreadId>>>) {
    let sim = Sim::new(7);
    let inbox = sim.mailbox("doubler");
    let woken_on = Arc::new(Mutex::new(Vec::new()));
    sim.spawn_daemon_actor("doubler", Doubler { inbox, woken_on: woken_on.clone() });
    sim.spawn("client", move |ctx| {
        for n in 0..calls {
            let doubled: u64 = ctx.call(inbox, n, Duration::from_micros(90));
            assert_eq!(doubled, n * 2);
        }
    });
    (sim, woken_on)
}

// (f) Actors run on the `run_*` caller's thread, whoever picked them.
#[test]
fn actors_only_ever_run_on_the_run_thread() {
    let (mut sim, woken_on) = doubler_sim(50);
    sim.run_until_idle().expect_quiescent();
    let woken_on = woken_on.lock();
    assert_eq!(woken_on.len(), 51, "the start and one wake-up per call");
    // Every call blocked its thread, which then picked the actor itself.
    assert!(woken_on.iter().all(|id| *id == std::thread::current().id()));
}

#[test]
fn a_process_that_wakes_itself_hands_nothing_off() {
    let mut sim = Sim::new(1);
    sim.spawn("sleeper", |ctx| (0..1_000).for_each(|_| ctx.sleep(MS)));
    sim.run_until_idle().expect_quiescent();
    assert_eq!(sim.thread_handoffs(), 2, "one to start it, one back when it exits");
}

/// A 16-thread ring that has passed a token for `rounds` laps.
fn ring(rounds: u64) -> Sim {
    const NODES: u64 = 16;
    let mut sim = Sim::new(2);
    let mbs: Vec<_> = (0..NODES).map(|i| sim.mailbox(&format!("ring-{i}"))).collect();
    for i in 0..NODES as usize {
        let (rx, tx) = (mbs[i], mbs[(i + 1) % mbs.len()]);
        sim.spawn(&format!("node-{i}"), move |ctx| {
            if i == 0 {
                ctx.send(tx, Msg::new(()), Duration::from_micros(1));
            }
            for _ in 0..rounds {
                let token = ctx.recv(rx);
                ctx.send(tx, token, Duration::from_micros(1));
            }
        });
    }
    sim.run_until_idle().expect_quiescent();
    sim
}

/// Handoffs of [`ring`].
fn ring_handoffs(rounds: u64) -> u64 {
    ring(rounds).thread_handoffs()
}

#[test]
fn a_thread_ring_hands_off_once_per_hop() {
    let (short, long) = (ring_handoffs(10), ring_handoffs(110));
    assert_eq!(long - short, 100 * 16, "one handoff per hop, not two");
    // Over the hops: one to start each node, and the last node to exit
    // handing back to the run thread.
    assert_eq!(short, 10 * 16 + 16 + 1);
}

#[test]
fn a_call_to_an_actor_costs_two_handoffs() {
    let handoffs = |calls| {
        let (mut sim, _) = doubler_sim(calls);
        sim.run_until_idle().expect_quiescent();
        sim.thread_handoffs()
    };
    // Thread to the run thread with the actor it picked, and back with the
    // reply.
    assert_eq!(handoffs(60) - handoffs(10), 2 * 50);
}

// Worker threads: a body that returns leaves its OS thread idle for the
// next spawn; a killed one takes its thread with it.

#[test]
fn children_joined_in_sequence_share_one_thread() {
    let mut sim = Sim::new(1);
    sim.spawn("parent", |ctx| {
        let done = ctx.mailbox("done");
        for i in 0..1_000u64 {
            ctx.spawn("child", move |c| c.send(done, Msg::new(i), MS));
            assert_eq!(ctx.recv(done).take::<u64>(), i);
        }
    });
    sim.run_until_idle().expect_quiescent();
    assert_eq!(sim.threads_spawned(), 2, "the parent's, and one each child runs on in turn");
}

#[test]
fn a_thread_ring_starts_one_thread_per_node() {
    assert_eq!(ring(10).threads_spawned(), 16);
}

#[test]
fn a_killed_process_takes_its_thread_with_it() {
    let mut sim = Sim::new(1);
    let never = sim.mailbox("never");
    let blocked = sim.spawn("blocked", move |ctx| drop(ctx.recv(never)));
    assert_eq!(sim.run_until_idle().blocked, ["blocked"]);
    sim.kill(blocked);
    sim.spawn("next", |ctx| ctx.sleep(MS));
    assert_eq!(sim.threads_spawned(), 2, "the blocked process's thread is not reused");

    // So does a process killed before its body ever ran.
    let unstarted = sim.spawn("unstarted", |ctx| ctx.sleep(MS));
    sim.kill(unstarted);
    sim.run_until_idle().expect_quiescent();
    sim.spawn("after", |ctx| ctx.sleep(MS)); // reuses next's thread
    sim.spawn("fresh", |ctx| ctx.sleep(MS));
    sim.run_until_idle().expect_quiescent();
    assert_eq!(sim.threads_spawned(), 4);
}

#[test]
fn a_reused_thread_starts_each_body_afresh() {
    type Seen = (std::thread::ThreadId, Pid, String, TraceCtx);
    let seen: Arc<Mutex<Vec<Seen>>> = Arc::default();
    let mut sim = Sim::new(1);
    let mut pids = Vec::new();
    for name in ["first", "second"] {
        let seen = seen.clone();
        pids.push(sim.spawn(name, move |ctx| {
            let id = std::thread::current().id();
            seen.lock().push((id, ctx.pid(), ctx.name().to_string(), ctx.trace_ctx()));
            ctx.set_trace_ctx(TraceCtx::under(SpanId(7)));
        }));
        sim.run_until_idle().expect_quiescent();
    }
    assert_eq!(sim.threads_spawned(), 1);
    let seen = seen.lock();
    assert_eq!(seen[0].0, seen[1].0, "both bodies ran on one thread");
    let got: Vec<_> = seen.iter().map(|(_, pid, name, tc)| (*pid, name.as_str(), *tc)).collect();
    assert_eq!(got, [(pids[0], "first", TraceCtx::root()), (pids[1], "second", TraceCtx::root())]);
}

#[test]
fn dropping_the_sim_drops_every_body_it_holds() {
    let held = Arc::new(());
    let mut sim = Sim::new(1);
    for _ in 0..3 {
        sim.spawn("one-shot", |ctx| ctx.sleep(MS));
    }
    sim.run_until_idle().expect_quiescent();
    let never = sim.mailbox("never");
    let h = held.clone();
    sim.spawn("blocked", move |ctx| {
        let _held = h;
        drop(ctx.recv(never));
    });
    assert_eq!(sim.run_until_idle().blocked, ["blocked"]);
    let h = held.clone();
    sim.spawn("never-ran", move |_| drop(h));
    // One worker is still idle, one holds a body that never ran, one is
    // parked mid-body.
    assert_eq!((sim.threads_spawned(), Arc::strong_count(&held)), (3, 3));
    drop(sim);
    assert_eq!(Arc::strong_count(&held), 1);
}
