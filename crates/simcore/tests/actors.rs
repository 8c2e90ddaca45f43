//! Actors against thread processes: the same server written both ways must
//! be the same simulation — same virtual times, same scheduler decisions,
//! same event pushes — and an actor must die, panic and deadlock the way a
//! thread does.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use rand::RngExt;
use simcore::{
    Actor, Addr, Ctx, Decision, Msg, Proc, RandomScheduler, ReplayScheduler, Request, Scheduler,
    Sim, SimTime, Ticker, Wait, WaitKind, Wake,
};

type Log = Arc<Mutex<Vec<(u64, u64)>>>;

const HEARTBEAT: Duration = Duration::from_micros(150);

/// One request on its way from the echo server to the worker.
struct Job {
    reply_to: Addr,
    n: u64,
}

fn log(log: &Log, ctx: &Proc, value: u64) {
    log.lock().push((ctx.now().as_nanos(), value));
}

/// The echo server's per-message work, shared by both versions: forward
/// the request to the worker after a random (per-process rng) delay.
fn echo_forward(ctx: &mut Proc, worker: Addr, msg: Msg) {
    let (reply_to, n) = msg.take::<Request>().take::<u64>();
    let jitter = Duration::from_nanos(ctx.rng().random_range(0..2_000));
    ctx.send(worker, Msg::new(Job { reply_to, n }), jitter);
}

fn job_cost(n: u64) -> Duration {
    Duration::from_micros(5 + n % 3)
}

fn worker_reply(ctx: &mut Proc, out: &Log, job: &Job) {
    log(out, ctx, job.n);
    let lat = Duration::from_nanos(ctx.rng().random_range(500..1_500));
    ctx.reply(job.reply_to, job.n * 2, lat);
}

// --- the thread versions ---------------------------------------------------

fn echo_thread(ctx: &mut Ctx, inbox: Addr, worker: Addr, out: Log) {
    let mut hb = Ticker::new(ctx.now(), HEARTBEAT);
    loop {
        let msg = ctx.recv_timeout(inbox, hb.remaining(ctx.now()));
        if hb.poll(ctx.now()) {
            log(&out, ctx, u64::MAX);
        }
        if let Some(msg) = msg {
            echo_forward(ctx, worker, msg);
        }
    }
}

fn worker_thread(ctx: &mut Ctx, requests: Addr, out: Log) -> ! {
    // The inbox is made inside the process, so mailbox ids must line up too.
    let inbox = ctx.mailbox("worker-inbox");
    ctx.send(inbox, Msg::new(()), Duration::ZERO); // a queued message: the recv fast path
    let _ = ctx.recv(inbox);
    loop {
        let job = ctx.recv(requests).take::<Job>();
        ctx.compute(job_cost(job.n));
        worker_reply(ctx, &out, &job);
    }
}

// --- the actor versions ----------------------------------------------------

struct EchoActor {
    inbox: Addr,
    worker: Addr,
    out: Log,
    hb: Option<Ticker>,
}

impl Actor for EchoActor {
    fn on_wake(&mut self, ctx: &mut Proc, wake: Wake) -> Wait {
        let now = ctx.now();
        let hb = self.hb.get_or_insert_with(|| Ticker::new(now, HEARTBEAT));
        if !matches!(wake, Wake::Start) && hb.poll(now) {
            log(&self.out, ctx, u64::MAX);
        }
        if let Wake::Msg(msg) = wake {
            echo_forward(ctx, self.worker, msg);
        }
        Wait::RecvTimeout(self.inbox, hb.remaining(ctx.now()))
    }
}

struct WorkerActor {
    requests: Addr,
    out: Log,
    job: Option<Job>,
}

impl Actor for WorkerActor {
    fn on_wake(&mut self, ctx: &mut Proc, wake: Wake) -> Wait {
        match wake {
            Wake::Start => {
                let inbox = ctx.mailbox("worker-inbox");
                ctx.send(inbox, Msg::new(()), Duration::ZERO);
                Wait::Recv(inbox)
            }
            Wake::Msg(m) if m.is::<()>() => Wait::Recv(self.requests),
            Wake::Msg(m) => {
                let job = m.take::<Job>();
                let cost = job_cost(job.n);
                self.job = Some(job);
                Wait::Sleep(cost)
            }
            Wake::Slept => {
                let job = self.job.take().expect("slept on a job");
                worker_reply(ctx, &self.out, &job);
                Wait::Recv(self.requests)
            }
            Wake::Timeout => unreachable!("no timed wait"),
        }
    }
}

#[derive(Copy, Clone, PartialEq, Debug)]
enum Kind {
    Threads,
    Actors,
}

#[derive(PartialEq, Debug)]
struct Outcome {
    log: Vec<(u64, u64)>,
    end: SimTime,
    decisions: Vec<Decision>,
    pushes: u64,
}

/// Echo server + worker + three thread clients, servers of the given kind.
fn scenario(kind: Kind, seed: u64, scheduler: Box<dyn Scheduler>) -> Outcome {
    let mut sim = Sim::with_scheduler(seed, scheduler);
    let inbox = sim.mailbox("echo-inbox");
    let worker = sim.mailbox("worker-requests");
    let out: Log = Arc::new(Mutex::new(Vec::new()));
    match kind {
        Kind::Threads => {
            let o = out.clone();
            sim.spawn_daemon("echo", move |ctx| echo_thread(ctx, inbox, worker, o));
            let o = out.clone();
            sim.spawn_daemon("worker", move |ctx| worker_thread(ctx, worker, o));
        }
        Kind::Actors => {
            sim.spawn_daemon_actor("echo", EchoActor { inbox, worker, out: out.clone(), hb: None });
            sim.spawn_daemon_actor(
                "worker",
                WorkerActor { requests: worker, out: out.clone(), job: None },
            );
        }
    }
    for c in 0..3u64 {
        let out = out.clone();
        sim.spawn(&format!("client-{c}"), move |ctx| {
            for i in 0..6u64 {
                let think = Duration::from_micros(ctx.rng().random_range(0..40));
                ctx.sleep(think);
                let n = c * 100 + i;
                let r: u64 = ctx.call(inbox, n, Duration::from_micros(20));
                assert_eq!(r, n * 2);
                log(&out, ctx, 1_000_000 + n);
            }
        });
    }
    let end = sim.run_until_idle();
    end.expect_quiescent();
    let stats = sim.event_queue_stats();
    let log = out.lock().clone();
    Outcome {
        log,
        end: end.time,
        decisions: sim.decision_trace(),
        pushes: stats.allocated_nodes + stats.recycled_pushes,
    }
}

#[test]
fn actor_servers_are_the_thread_servers_under_fifo() {
    for seed in [1, 2, 3] {
        let threads = scenario(Kind::Threads, seed, Box::new(simcore::FifoScheduler));
        let actors = scenario(Kind::Actors, seed, Box::new(simcore::FifoScheduler));
        assert!(threads.log.iter().any(|(_, v)| *v == u64::MAX), "heartbeats fired");
        assert!(!threads.decisions.is_empty(), "the scenario has contended picks");
        assert_eq!(threads, actors, "seed {seed}");
    }
}

#[test]
fn actor_servers_are_the_thread_servers_under_random_schedules() {
    for seed in 0..12 {
        let threads = scenario(Kind::Threads, seed, Box::new(RandomScheduler::new(seed)));
        let actors = scenario(Kind::Actors, seed, Box::new(RandomScheduler::new(seed)));
        assert_eq!(threads, actors, "seed {seed}");
        // The actor run's decisions replay it.
        let choices = actors.decisions.iter().map(|d| d.choice);
        let replayed = scenario(Kind::Actors, seed, Box::new(ReplayScheduler::new(choices)));
        assert_eq!(actors, replayed, "replay of seed {seed}");
    }
}

// --- lifecycle ---------------------------------------------------------------

/// Owns an inbox (published through `slot`), counts messages, exits on the
/// third.
struct Counter {
    slot: Arc<Mutex<Option<Addr>>>,
    seen: u32,
}

impl Actor for Counter {
    fn on_wake(&mut self, ctx: &mut Proc, wake: Wake) -> Wait {
        match wake {
            Wake::Start => {
                let inbox = ctx.mailbox("counter-inbox");
                *self.slot.lock() = Some(inbox);
            }
            Wake::Msg(_) => self.seen += 1,
            other => unreachable!("{other:?}"),
        }
        if self.seen == 3 {
            return Wait::Exit;
        }
        Wait::Recv(self.slot.lock().expect("published on start"))
    }
}

fn spawn_counter(sim: &Sim) -> (simcore::Pid, Arc<Mutex<Option<Addr>>>) {
    let slot = Arc::new(Mutex::new(None));
    let pid = sim.spawn_actor("counter", Counter { slot: slot.clone(), seen: 0 });
    (pid, slot)
}

#[test]
fn exit_closes_owned_mailboxes_and_drops_live_count() {
    let mut sim = Sim::new(1);
    let (_, slot) = spawn_counter(&sim);
    let s = slot.clone();
    sim.spawn("sender", move |ctx| {
        ctx.sleep(Duration::from_micros(1));
        let inbox = s.lock().expect("counter started");
        for _ in 0..3 {
            ctx.send(inbox, Msg::new(()), Duration::from_micros(1));
        }
    });
    sim.run_until_idle().expect_quiescent();
    assert_eq!(sim.live_processes(), 0);
    // The inbox closed with its owner: receiving on it is the closed-mailbox
    // panic, exactly as for a thread's mailbox.
    let inbox = slot.lock().expect("counter started");
    sim.spawn("late", move |ctx| {
        let _ = ctx.recv(inbox);
    });
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run_until_idle()))
        .expect_err("recv on a closed mailbox panics");
    let text = err.downcast_ref::<String>().expect("panic message");
    assert!(text.contains("closed mailbox counter-inbox"), "{text}");
}

#[test]
fn killing_a_blocked_actor_closes_its_mailboxes() {
    let mut sim = Sim::new(1);
    let (pid, slot) = spawn_counter(&sim);
    sim.run_until_idle(); // the counter is now blocked in its first Recv
    assert_eq!(sim.live_processes(), 1);
    sim.kill(pid);
    assert_eq!(sim.live_processes(), 0);
    let inbox = slot.lock().expect("counter started");
    sim.spawn("late", move |ctx| {
        let _ = ctx.recv(inbox);
    });
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run_until_idle()))
        .expect_err("recv on a closed mailbox panics");
    assert!(err.downcast_ref::<String>().expect("panic message").contains("closed mailbox"));
}

#[test]
fn killing_a_runnable_actor_ends_it_before_it_runs() {
    let mut sim = Sim::new(1);
    let (pid, slot) = spawn_counter(&sim);
    sim.kill(pid); // spawned, runnable, never ran
    assert_eq!(sim.live_processes(), 1, "a runnable process ends when the kernel pops it");
    sim.run_until_idle().expect_quiescent();
    assert_eq!(sim.live_processes(), 0);
    assert!(slot.lock().is_none(), "on_wake never ran");

    // Runnable because a message just woke it: the message dies with it.
    let (pid, slot) = spawn_counter(&sim);
    sim.run_until_idle();
    let inbox = slot.lock().expect("counter started");
    sim.spawn("killer", move |ctx| {
        ctx.send(inbox, Msg::new(()), Duration::ZERO);
        ctx.sleep(Duration::ZERO); // the delivery fires; the counter is runnable behind us
        ctx.kill(pid);
    });
    sim.run_until_idle().expect_quiescent();
    assert_eq!(sim.live_processes(), 0);
}

struct Bomb;

impl Actor for Bomb {
    fn on_wake(&mut self, _ctx: &mut Proc, _wake: Wake) -> Wait {
        panic!("actor boom");
    }
}

#[test]
#[should_panic(expected = "actor boom")]
fn panic_in_on_wake_propagates_out_of_run() {
    let mut sim = Sim::new(1);
    sim.spawn_actor("bomb", Bomb);
    sim.run_until_idle();
}

/// A server that owns its inbox and never answers.
struct Mute {
    slot: Arc<Mutex<Option<Addr>>>,
}

impl Actor for Mute {
    fn on_wake(&mut self, ctx: &mut Proc, wake: Wake) -> Wait {
        if let Wake::Start = wake {
            *self.slot.lock() = Some(ctx.mailbox("node-inbox"));
        }
        Wait::Recv(self.slot.lock().expect("published on start"))
    }
}

#[test]
fn client_stuck_on_a_crashed_actor_node_is_in_the_deadlock_report() {
    let mut sim = Sim::new(9);
    let slot = Arc::new(Mutex::new(None));
    let node = sim.spawn_daemon_actor("node", Mute { slot: slot.clone() });
    let s = slot.clone();
    sim.spawn("client", move |ctx| {
        ctx.sleep(Duration::from_micros(5));
        let inbox = s.lock().expect("node started");
        ctx.annotate_wait(inbox.into_raw(), WaitKind::Call, "node", "client::get");
        let _: u64 = ctx.call(inbox, 1u64, Duration::from_micros(10));
    });
    sim.spawn("fault", move |ctx| {
        ctx.sleep(Duration::from_micros(1));
        ctx.kill(node);
    });
    let out = sim.run_until_idle();
    assert_eq!(out.blocked, vec!["client".to_string()]);
    let report = sim.deadlock_report().expect("the client is wedged");
    assert_eq!(report.stuck.len(), 1);
    let wait = report.stuck[0].wait.as_ref().expect("the call annotated its wait");
    assert_eq!(wait.kind, WaitKind::Call);
    assert_eq!(wait.resource, slot.lock().expect("node started").into_raw());
    assert!(report.to_string().contains("client::get"), "{report}");
}

#[test]
fn unannotated_untimed_call_is_in_the_deadlock_report() {
    let mut sim = Sim::new(9);
    let slot = Arc::new(Mutex::new(None));
    let node = sim.spawn_daemon_actor("node", Mute { slot: slot.clone() });
    let s = slot.clone();
    sim.spawn("client", move |ctx| {
        ctx.sleep(Duration::from_micros(5));
        let inbox = s.lock().expect("node started");
        let _: u64 = ctx.call(inbox, 1u64, Duration::from_micros(10));
    });
    sim.spawn("fault", move |ctx| {
        ctx.sleep(Duration::from_micros(1));
        ctx.kill(node);
    });
    let out = sim.run_until_idle();
    assert_eq!(out.blocked, vec!["client".to_string()]);
    let report = sim.deadlock_report().expect("the client is wedged");
    assert_eq!(report.stuck.len(), 1);
    let wait = report.stuck[0].wait.as_ref().expect("the call annotated its own wait");
    assert_eq!(wait.kind, WaitKind::Call);
    assert_eq!(wait.resource, slot.lock().expect("node started").into_raw());
    assert_eq!(wait.resource_name, "node-inbox");
    assert!(wait.site.contains("actors.rs"), "{report}");
}
