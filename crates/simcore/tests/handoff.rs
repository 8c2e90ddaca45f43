//! The scheduler loop runs on the thread that called `Sim::run_*`, and a
//! thread process is a stackful coroutine that loop switches to. These
//! tests hold what the switch must keep — a panic, a deadline, a kill and
//! an actor end up where they always did — and count the switches and
//! stacks the design costs.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::Duration;

use parking_lot::Mutex;
use simcore::{
    Actor, Addr, Msg, Pid, Proc, Request, Scheduler, Sim, SimTime, SpanId, TraceCtx, Wait,
    WaitAnnotation, WaitKind, Wake,
};

const MS: Duration = Duration::from_millis(1);

/// The message of the panic `f` ends in.
fn panic_message(f: impl FnOnce()) -> String {
    let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("the run must panic");
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => payload.downcast::<&str>().map(|s| s.to_string()).unwrap_or_default(),
    }
}

/// Panics on the first contended pick.
struct ExplodingScheduler;

impl Scheduler for ExplodingScheduler {
    fn pick(&mut self, _runnable: &[Pid]) -> usize {
        panic!("scheduler exploded");
    }
}

// (a) A panic of the loop itself, on the first pick after a process has
// blocked, and after one has returned.
#[test]
fn scheduler_panic_surfaces_from_run() {
    for blocks in [true, false] {
        let mut sim = Sim::with_scheduler(1, Box::new(ExplodingScheduler));
        sim.spawn("main", move |ctx| {
            ctx.spawn("a", |c| c.sleep(MS));
            ctx.spawn("b", |c| c.sleep(MS));
            // Blocks or exits with two children runnable: the next pick is
            // contended.
            if blocks {
                ctx.sleep(MS);
            }
        });
        let message = panic_message(|| drop(sim.run_until_idle()));
        assert_eq!(message, "scheduler exploded");
    }
}

// (b) A process body panics after it blocked, with another process
// suspended beside it, and alone.
#[test]
fn body_panic_after_a_block_surfaces_from_run() {
    let mut sim = Sim::new(1);
    sim.spawn("bad", |ctx| {
        ctx.sleep(MS);
        panic!("boom after a switch");
    });
    sim.spawn("bystander", |ctx| ctx.sleep(2 * MS));
    assert_eq!(panic_message(|| drop(sim.run_until_idle())), "boom after a switch");

    let mut sim = Sim::new(1);
    sim.spawn("solo", |ctx| {
        ctx.sleep(MS);
        panic!("boom on my own");
    });
    assert_eq!(panic_message(|| drop(sim.run_until_idle())), "boom on my own");
}

// (c) A deadline reached while a process is suspended, and the run resumed.
#[test]
fn run_until_stops_on_the_deadline_and_resumes() {
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

// (d) Kills of a runnable process picked next, and of a process by itself.
#[test]
fn kills_of_runnable_processes_are_carried_out_when_picked() {
    let survived = Rc::new(Cell::new(false));
    let mut sim = Sim::new(1);
    let (never_ran, woke) = (survived.clone(), survived.clone());
    sim.spawn("killer", move |ctx| {
        let fresh = ctx.spawn("fresh", move |_| never_ran.set(true));
        let parked = ctx.spawn("parked", move |c| {
            let site = "handoff".to_string();
            c.park(WaitAnnotation {
                resource: 0,
                resource_name: "p".into(),
                kind: WaitKind::Lock,
                site,
            });
            woke.set(true);
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
        let me = ctx.pid();
        ctx.kill(me);
        ctx.sleep(MS); // its own wake makes it runnable, and the pick finds it killed
        after.set(true);
    });
    let out = sim.run_until_idle();
    out.expect_quiescent();
    assert_eq!(out.time, SimTime::from_millis(3));
    assert_eq!(sim.live_processes(), 0);
    assert!(!survived.get(), "a killed process ran on");
}

// (e) A blocked process killed by a running one unwinds on its own stack
// before `kill` returns: what it held is dropped by then.
#[test]
fn killing_a_blocked_process_drops_what_its_stack_holds_before_kill_returns() {
    let held = Arc::new(());
    let mut sim = Sim::new(1);
    let never = sim.mailbox("never");
    let h = held.clone();
    let victim = sim.spawn("victim", move |ctx| {
        let _held = h;
        drop(ctx.recv(never));
        unreachable!("nothing is ever sent");
    });
    let probe = held.clone();
    sim.spawn("killer", move |ctx| {
        ctx.sleep(MS);
        assert_eq!(Arc::strong_count(&probe), 3, "the victim's stack holds one");
        ctx.kill(victim);
        assert_eq!(Arc::strong_count(&probe), 2, "the victim's stack let go of it");
    });
    sim.run_until_idle().expect_quiescent();
    assert_eq!(Arc::strong_count(&held), 1);
    assert_eq!(sim.stacks_allocated(), 2);
}

/// Doubles numbers, noting the OS thread of every wake-up.
struct Doubler {
    inbox: Addr,
    woken_on: Arc<Mutex<Vec<ThreadId>>>,
}

impl Actor for Doubler {
    #[expect(
        clippy::disallowed_methods,
        reason = "the OS thread a process runs on is what this test checks"
    )]
    fn on_wake(&mut self, ctx: &mut Proc, wake: Wake) -> Wait {
        self.woken_on.lock().push(std::thread::current().id());
        if let Wake::Msg(m) = wake {
            let (reply_to, n) = m.take::<Request>().take::<u64>();
            ctx.reply(reply_to, n * 2, Duration::from_micros(90));
        }
        Wait::Recv(self.inbox)
    }
}

/// A `Doubler` and one thread client calling it `calls` times, which notes
/// its OS thread after every call.
#[expect(
    clippy::disallowed_methods,
    reason = "the OS thread a process runs on is what this test checks"
)]
fn doubler_sim(calls: u64) -> (Sim, Arc<Mutex<Vec<ThreadId>>>) {
    let sim = Sim::new(7);
    let inbox = sim.mailbox("doubler");
    let woken_on = Arc::new(Mutex::new(Vec::new()));
    sim.spawn_daemon_actor("doubler", Doubler { inbox, woken_on: woken_on.clone() });
    let client_on = woken_on.clone();
    sim.spawn("client", move |ctx| {
        for n in 0..calls {
            let doubled: u64 = ctx.call(inbox, n, Duration::from_micros(90));
            assert_eq!(doubled, n * 2);
            client_on.lock().push(std::thread::current().id());
        }
    });
    (sim, woken_on)
}

// (f) Actors and thread processes alike run on the `run_*` caller's thread.
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "the OS thread a process runs on is what this test checks"
)]
fn every_process_runs_on_the_run_thread() {
    let (mut sim, woken_on) = doubler_sim(50);
    sim.run_until_idle().expect_quiescent();
    let woken_on = woken_on.lock();
    assert_eq!(woken_on.len(), 51 + 50, "the start, one wake-up per call, one return per call");
    assert!(woken_on.iter().all(|id| *id == std::thread::current().id()));
}

#[test]
fn a_process_that_wakes_itself_is_resumed_once_per_wake() {
    let mut sim = Sim::new(1);
    sim.spawn("sleeper", |ctx| (0..1_000).for_each(|_| ctx.sleep(MS)));
    sim.run_until_idle().expect_quiescent();
    assert_eq!(sim.resumes(), 1 + 1_000, "one to start it, one per sleep");
    assert_eq!(sim.stacks_allocated(), 1);
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

#[test]
fn a_thread_ring_resumes_once_per_hop() {
    let (short, long) = (ring(10).resumes(), ring(110).resumes());
    assert_eq!(long - short, 100 * 16, "one resume per hop");
    // One to start each node, and one per token it receives.
    assert_eq!(short, 16 * (1 + 10));
}

#[test]
fn a_call_to_an_actor_costs_one_resume() {
    let resumes = |calls| {
        let (mut sim, _) = doubler_sim(calls);
        sim.run_until_idle().expect_quiescent();
        sim.resumes()
    };
    // The client blocks for the reply; the actor runs inline.
    assert_eq!(resumes(60) - resumes(10), 50);
}

// Stacks: a body that ends, returned or killed, leaves its stack to the
// next one to start.

#[test]
fn children_joined_in_sequence_share_one_stack() {
    let mut sim = Sim::new(1);
    sim.spawn("parent", |ctx| {
        let done = ctx.mailbox("done");
        for i in 0..1_000u64 {
            ctx.spawn("child", move |c| c.send(done, Msg::new(i), MS));
            assert_eq!(ctx.recv(done).take::<u64>(), i);
        }
    });
    sim.run_until_idle().expect_quiescent();
    assert_eq!(sim.stacks_allocated(), 2, "the parent's, and one each child runs on in turn");
    assert_eq!(
        sim.resumes(),
        1 + 2 * 1_000,
        "the parent's start, and per child its start and a wake"
    );
}

#[test]
fn a_thread_ring_maps_one_stack_per_node() {
    assert_eq!(ring(10).stacks_allocated(), 16);
}

#[test]
fn a_killed_process_leaves_its_stack_to_the_next() {
    let mut sim = Sim::new(1);
    let never = sim.mailbox("never");
    let blocked = sim.spawn("blocked", move |ctx| drop(ctx.recv(never)));
    assert_eq!(sim.run_until_idle().blocked, ["blocked"]);
    sim.kill(blocked);
    assert_eq!(sim.resumes(), 2, "its start, and its unwind");
    sim.spawn("next", |ctx| ctx.sleep(MS));
    // A process killed before its body ever ran never takes a stack.
    let unstarted = sim.spawn("unstarted", |ctx| ctx.sleep(MS));
    sim.kill(unstarted);
    sim.run_until_idle().expect_quiescent();
    assert_eq!((sim.stacks_allocated(), sim.resumes()), (1, 4));
}

#[test]
fn a_reused_stack_starts_each_body_afresh() {
    type Seen = (Pid, String, TraceCtx);
    let seen: Arc<Mutex<Vec<Seen>>> = Arc::default();
    let mut sim = Sim::new(1);
    let mut pids = Vec::new();
    for name in ["first", "second"] {
        let seen = seen.clone();
        pids.push(sim.spawn(name, move |ctx| {
            seen.lock().push((ctx.pid(), ctx.name().to_string(), ctx.trace_ctx()));
            ctx.set_trace_ctx(TraceCtx::under(SpanId(7)));
        }));
        sim.run_until_idle().expect_quiescent();
    }
    assert_eq!(sim.stacks_allocated(), 1);
    let seen = seen.lock();
    let got: Vec<_> = seen.iter().map(|(pid, name, tc)| (*pid, name.as_str(), *tc)).collect();
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
    // Two stacks are free, one holds a suspended body, and one body never
    // started.
    assert_eq!((sim.stacks_allocated(), Arc::strong_count(&held)), (3, 3));
    drop(sim);
    assert_eq!(Arc::strong_count(&held), 1);
}

/// Notes its name when its stack unwinds.
struct Tell(Arc<Mutex<Vec<String>>>, String);

impl Drop for Tell {
    fn drop(&mut self) {
        self.0.lock().push(self.1.clone());
    }
}

#[test]
fn blocked_processes_are_reported_and_dropped_in_pid_order() {
    let unwound = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Sim::new(1);
    let names: Vec<String> = (0..6).map(|i| format!("p{i}")).collect();
    for name in &names {
        let never = sim.mailbox("never");
        let tell = Tell(unwound.clone(), name.clone());
        sim.spawn(name, move |ctx| {
            let _tell = tell;
            drop(ctx.recv(never));
        });
    }
    assert_eq!(sim.run_until_idle().blocked, names);
    drop(sim);
    assert_eq!(*unwound.lock(), names);
}
