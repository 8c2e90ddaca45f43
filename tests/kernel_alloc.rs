//! Counting-allocator proof that the kernel hot path (schedule → fire →
//! deliver) performs **zero heap allocations** in steady state.
//!
//! The event queue is a timing wheel over a slab arena with free-list
//! recycling, so once the arena and the kernel's queues have grown to the
//! workload's high-water mark, a sleep/wake cycle touches no allocator at
//! all. This test installs a counting `GlobalAlloc`, warms a timer-churn
//! simulation past every growth point, then asserts that continuing the
//! same churn allocates nothing.
//!
//! Lives in its own integration-test binary because `#[global_allocator]`
//! is process-wide — and so is the count, which is why the binary has no
//! libtest harness (`harness = false`): libtest's main thread allocates
//! when it reports a test as running for over 60 seconds, inside whatever
//! window is being counted. A plain `main` runs the three regions back to
//! back, so no thread outside the simulation exists during a window, and
//! prints libtest's lines so the output reads like any other test binary's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use crucial::Sim;
use simcore::{Actor, Addr, Ctx, Msg, Wait, Wake};

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn steady_state_timer_churn_allocates_nothing() {
    let mut sim = Sim::new(11);
    // Eight daemons sleeping on periods spanning sub-tick to milliseconds,
    // so the churn exercises several wheel levels (staging, cascades, and
    // same-instant wakes included: periods share common multiples).
    for (i, period_ns) in
        [700, 1_024, 3_000, 17_000, 65_536, 250_000, 1_000_000, 4_194_304].into_iter().enumerate()
    {
        sim.spawn_daemon(&format!("ticker-{i}"), move |ctx| loop {
            ctx.sleep(Duration::from_nanos(period_ns));
        });
    }
    // Warm-up: grow the slab arena, the wheel's staging buffer and the
    // runnable queue to steady state.
    sim.run_for(Duration::from_millis(50));
    let warm = sim.event_queue_stats();

    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    sim.run_for(Duration::from_millis(100));
    COUNTING.store(false, Ordering::SeqCst);

    let counted = ALLOCS.load(Ordering::SeqCst);
    let after = sim.event_queue_stats();
    // Twice the warm-up's virtual time: thousands of schedule→fire→wake
    // cycles, every one served from recycled arena slots.
    assert!(
        after.recycled_pushes > warm.recycled_pushes + 1_000,
        "churn must ride the free list: {warm:?} -> {after:?}"
    );
    assert_eq!(
        after.allocated_nodes, warm.allocated_nodes,
        "steady state grew the event arena: {warm:?} -> {after:?}"
    );
    assert_eq!(counted, 0, "kernel hot path allocated {counted} times in steady state");
}

/// Bounces whatever it receives to `peer`.
struct Bouncer {
    inbox: Addr,
    peer: Addr,
}

impl Actor for Bouncer {
    fn on_wake(&mut self, ctx: &mut Ctx, wake: Wake) -> Wait {
        if let Wake::Msg(ball) = wake {
            ctx.send(self.peer, ball, Duration::from_micros(3));
        }
        Wait::Recv(self.inbox)
    }
}

fn steady_state_actor_ping_pong_allocates_nothing() {
    let mut sim = Sim::new(12);
    let (a, b) = (sim.mailbox("a"), sim.mailbox("b"));
    sim.spawn_daemon_actor("ping", Bouncer { inbox: a, peer: b });
    sim.spawn_daemon_actor("pong", Bouncer { inbox: b, peer: a });
    sim.spawn("serve", move |ctx| ctx.send(a, Msg::new(0u64), Duration::ZERO));
    sim.run_for(Duration::from_millis(1));
    let warm = sim.event_queue_stats();

    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    sim.run_for(Duration::from_millis(30));
    COUNTING.store(false, Ordering::SeqCst);

    let counted = ALLOCS.load(Ordering::SeqCst);
    let after = sim.event_queue_stats();
    // One delivery, one inline `on_wake` and one send per 3 µs hop: the
    // ball is the same boxed message throughout.
    assert!(
        after.recycled_pushes >= warm.recycled_pushes + 9_000,
        "the ball must keep moving: {warm:?} -> {after:?}"
    );
    assert_eq!(counted, 0, "an actor wake-up allocated {counted} times in steady state");
}

fn steady_state_thread_ring_allocates_nothing() {
    let mut sim = Sim::new(13);
    let mbs: Vec<_> = (0..8).map(|i| sim.mailbox(&format!("ring-{i}"))).collect();
    for i in 0..mbs.len() {
        let (rx, tx) = (mbs[i], mbs[(i + 1) % mbs.len()]);
        sim.spawn_daemon(&format!("node-{i}"), move |ctx| loop {
            let ball = ctx.recv(rx);
            ctx.send(tx, ball, Duration::from_micros(3));
        });
    }
    let first = mbs[0];
    sim.spawn("serve", move |ctx| ctx.send(first, Msg::new(0u64), Duration::ZERO));
    sim.run_for(Duration::from_millis(1));
    let (warm, warm_handoffs) = (sim.event_queue_stats(), sim.thread_handoffs());

    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    sim.run_for(Duration::from_millis(30));
    COUNTING.store(false, Ordering::SeqCst);

    let counted = ALLOCS.load(Ordering::SeqCst);
    let after = sim.event_queue_stats();
    // One delivery per 3 µs hop, each waking a thread parked in `recv`: the
    // blocking thread fires it and hands the token straight to the next.
    assert!(
        after.recycled_pushes >= warm.recycled_pushes + 9_000,
        "the ball must keep moving: {warm:?} -> {after:?}"
    );
    assert!(sim.thread_handoffs() >= warm_handoffs + 9_000, "every hop is a thread handoff");
    assert_eq!(counted, 0, "a thread handoff allocated {counted} times in steady state");
}

fn main() {
    let tests: [(&str, fn()); 3] = [
        ("steady_state_timer_churn_allocates_nothing", steady_state_timer_churn_allocates_nothing),
        (
            "steady_state_actor_ping_pong_allocates_nothing",
            steady_state_actor_ping_pong_allocates_nothing,
        ),
        ("steady_state_thread_ring_allocates_nothing", steady_state_thread_ring_allocates_nothing),
    ];
    // What `cargo test -- --list` asks of every test binary.
    if std::env::args().any(|a| a == "--list") {
        tests.iter().for_each(|(name, _)| println!("{name}: test"));
        return;
    }
    println!("\nrunning {} tests", tests.len());
    for (name, test) in tests {
        // A failed assertion panics: the process exits non-zero there.
        test();
        println!("test {name} ... ok");
    }
    println!(
        "\ntest result: ok. {} passed; 0 failed; 0 ignored; 0 measured; 0 filtered out\n",
        tests.len()
    );
}
