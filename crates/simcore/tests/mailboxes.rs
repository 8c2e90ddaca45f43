//! A mailbox's address outlives the mailbox: a reply can still be in
//! flight to an RPC that gave up on it. Whatever the kernel does with the
//! removed mailbox's slot, that address must keep reaching nothing.

use std::time::Duration;

use simcore::{Request, Sim, SimTime};

const MS: Duration = Duration::from_millis(1);

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
