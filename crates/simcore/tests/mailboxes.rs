//! A mailbox's address outlives the mailbox: a reply can still be in
//! flight to an RPC that gave up on it. Whatever the kernel does with the
//! removed mailbox's slot, that address must keep reaching nothing. And a
//! timed wait that a message ends leaves no timer behind: its wake is kept
//! for a next wait to the same deadline, and cancelled by any other.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use simcore::{Actor, Addr, Msg, Proc, Request, Sim, SimTime, Ticker, Wait, Wake};

const MS: Duration = Duration::from_millis(1);
const US: Duration = Duration::from_micros(1);

#[test]
fn a_late_reply_to_a_timed_out_call_is_dropped() {
    let mut sim = Sim::new(1);
    let (slow, echo) = (sim.mailbox("slow"), sim.mailbox("echo"));
    // Answers after 5 ms, with a type no caller below expects.
    sim.spawn_daemon("slow", move |ctx| loop {
        let (reply_to, ()) = ctx.recv(slow).take::<Request>().take::<()>();
        ctx.sleep(5 * MS);
        ctx.reply(reply_to, "late", Duration::ZERO);
    });
    sim.spawn_daemon("echo", move |ctx| loop {
        let (reply_to, n) = ctx.recv(echo).take::<Request>().take::<u32>();
        ctx.reply(reply_to, n * 2, 10 * MS);
    });
    sim.spawn("client", move |ctx| {
        let gave_up: Option<&str> = ctx.call_timeout(slow, (), Duration::ZERO, MS);
        assert_eq!(gave_up, None);
        // This call's reply mailbox is created after the first one was
        // removed, and the slow reply lands at 5 ms, while it waits.
        let doubled: u32 = ctx.call(echo, 7u32, 10 * MS);
        assert_eq!(doubled, 14, "the second call gets its own reply");
        assert_eq!(ctx.now(), SimTime::from_millis(21));
    });
    sim.run_until_idle().expect_quiescent();
}

/// A server in the DSO dispatcher's shape: it answers each request, and
/// every wake-up waits again to its heartbeat as the timeout of its next
/// receive.
struct Dispatcher {
    inbox: Addr,
    hb: Option<Ticker>,
}

impl Actor for Dispatcher {
    fn on_wake(&mut self, ctx: &mut Proc, wake: Wake) -> Wait {
        let hb = self.hb.get_or_insert_with(|| Ticker::new(ctx.now(), 100 * MS));
        hb.poll(ctx.now());
        if let Wake::Msg(m) = wake {
            let (reply_to, n) = m.take::<Request>().take::<u64>();
            ctx.reply(reply_to, n + 1, US);
        }
        Wait::RecvTimeout(self.inbox, hb.remaining(ctx.now()))
    }
}

#[test]
fn an_answered_timeout_leaves_nothing_behind() {
    const CALLS: u64 = 1_000;
    let mut sim = Sim::new(3);
    let server = sim.mailbox("server");
    sim.spawn_daemon_actor("server", Dispatcher { inbox: server, hb: None });
    sim.spawn("client", move |ctx| {
        let call = |ctx: &mut simcore::Ctx, n: u64| {
            let r: Option<u64> = ctx.call_timeout(server, n, US, Duration::from_secs(1));
            assert_eq!(r, Some(n + 1), "answered in time");
        };
        // Warm-up, then a pause the test reads the queue in.
        (0..10).for_each(|n| call(ctx, n));
        ctx.sleep(MS);
        (0..CALLS).for_each(|n| call(ctx, n));
    });
    sim.run_until(SimTime::from_micros(500));
    let warm = sim.event_queue_stats();
    sim.run_until_idle().expect_quiescent();
    let after = sim.event_queue_stats();
    // Each call ended two timed waits early, and one wake is cancelled: the
    // client's, whose next wait has another deadline. The server waits
    // again to the same heartbeat, so it keeps its wake under a fresh seq.
    assert_eq!(after.cancelled - warm.cancelled, CALLS, "{warm:?} -> {after:?}");
    // The one live timer left is the server's heartbeat.
    assert!(after.len <= 1, "{} events pending after {CALLS} answered calls", after.len);
    assert_eq!(after.capacity, warm.capacity, "the event slab grew: {warm:?} -> {after:?}");
}

/// Receives on `inbox` until `deadline` of the instant it starts waiting,
/// and logs every wake; exits on the first timeout.
struct Waiter {
    inbox: Addr,
    deadline: fn(SimTime) -> SimTime,
    log: Rc<RefCell<Vec<(SimTime, &'static str)>>>,
}

impl Actor for Waiter {
    fn on_wake(&mut self, ctx: &mut Proc, wake: Wake) -> Wait {
        let what = match wake {
            Wake::Start => "start",
            Wake::Msg(_) => "msg",
            Wake::Timeout => "timeout",
            Wake::Slept => unreachable!("a waiter never sleeps"),
        };
        self.log.borrow_mut().push((ctx.now(), what));
        if what == "timeout" {
            return Wait::Exit;
        }
        Wait::RecvTimeout(self.inbox, (self.deadline)(ctx.now()).duration_since(ctx.now()))
    }
}

/// Spawns a [`Waiter`] and a sender that sends it `n` messages, one per
/// millisecond.
fn waiter_and_sender(
    sim: &Sim,
    deadline: fn(SimTime) -> SimTime,
    n: u64,
) -> Rc<RefCell<Vec<(SimTime, &'static str)>>> {
    let inbox = sim.mailbox("waiter");
    let log = Rc::new(RefCell::new(Vec::new()));
    sim.spawn_actor("waiter", Waiter { inbox, deadline, log: log.clone() });
    sim.spawn("sender", move |ctx| {
        for _ in 0..n {
            ctx.sleep(MS);
            ctx.send(inbox, Msg::new(()), Duration::ZERO);
        }
    });
    log
}

#[test]
fn a_kept_wake_still_times_out_at_its_deadline() {
    let mut sim = Sim::new(5);
    let log = waiter_and_sender(&sim, |_| SimTime::from_millis(10), 3);
    sim.run_until_idle().expect_quiescent();
    let ms = SimTime::from_millis;
    assert_eq!(
        *log.borrow(),
        [(ms(0), "start"), (ms(1), "msg"), (ms(2), "msg"), (ms(3), "msg"), (ms(10), "timeout")]
    );
    let stats = sim.event_queue_stats();
    // The waiter's one wake, kept across three messages, and the sender's
    // three sleeps and three sends.
    assert_eq!(stats.allocated_nodes + stats.recycled_pushes, 7, "{stats:?}");
    assert_eq!(stats.cancelled, 0, "{stats:?}");
}

#[test]
fn a_wait_to_another_deadline_cancels_the_kept_wake() {
    const MSGS: u64 = 1_000;
    let mut sim = Sim::new(6);
    let log = waiter_and_sender(&sim, |now| now + 5 * MS, 10 + MSGS);
    sim.run_until(SimTime::from_micros(10_500));
    let warm = sim.event_queue_stats();
    sim.run_until_idle().expect_quiescent();
    let after = sim.event_queue_stats();
    // Each message moves the deadline: the wake it left is cancelled.
    assert_eq!(after.cancelled - warm.cancelled, MSGS, "{warm:?} -> {after:?}");
    assert_eq!(after.capacity, warm.capacity, "the event slab grew: {warm:?} -> {after:?}");
    let last = SimTime::from_millis(10 + MSGS + 5);
    assert_eq!(log.borrow().last(), Some(&(last, "timeout")));
}
