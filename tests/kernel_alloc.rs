//! Counting-allocator proof that the kernel hot path (schedule → fire →
//! deliver) performs **zero heap allocations** in steady state, and that
//! an RPC, timed or not, allocates only its payloads.
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
//! window is being counted. A plain `main` runs the regions back to
//! back, so no thread outside the simulation exists during a window, and
//! prints libtest's lines so the output reads like any other test binary's.
//! The same holds for the last test, which counts the process's OS threads
//! to show a simulation never starts one.
//!
//! Three more regions count the DSO layer: cloning a request (what a retry
//! does) allocates nothing, a steady-state replicated `increment_and_get`
//! on a 3-node cluster at rf = 2 allocates and pushes timers a fixed,
//! exact number of times per op, and a client that connects afresh for
//! every read, as a FaaS container does, allocates a fixed number of
//! times, whole cluster included both times.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{self, Ordering};
use std::time::Duration;

use crucial::Sim;
use dso::api::AtomicLong;
use dso::protocol::InvokeReq;
use dso::{DsoClientHandle, DsoCluster, DsoConfig, ObjectRef, ObjectRegistry};
use simcore::{Actor, Addr, Ctx, Msg, Proc, Request, SimTime, SpanId, Wait, Wake};

struct CountingAlloc;

// A global allocator has only statics to count with.
#[expect(clippy::disallowed_types, reason = "the allocator's switch; no simulated code reads it")]
static COUNTING: atomic::AtomicBool = atomic::AtomicBool::new(false);
#[expect(clippy::disallowed_types, reason = "the allocator's count; no simulated code reads it")]
static ALLOCS: atomic::AtomicU64 = atomic::AtomicU64::new(0);

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
    fn on_wake(&mut self, ctx: &mut Proc, wake: Wake) -> Wait {
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
    let (warm, warm_resumes) = (sim.event_queue_stats(), sim.resumes());

    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    sim.run_for(Duration::from_millis(30));
    COUNTING.store(false, Ordering::SeqCst);

    let counted = ALLOCS.load(Ordering::SeqCst);
    let after = sim.event_queue_stats();
    // One delivery per 3 µs hop, each waking a thread process suspended in
    // `recv`: the loop fires it and switches to that process's stack.
    assert!(
        after.recycled_pushes >= warm.recycled_pushes + 9_000,
        "the ball must keep moving: {warm:?} -> {after:?}"
    );
    assert!(sim.resumes() >= warm_resumes + 9_000, "every hop is a resume");
    assert_eq!(counted, 0, "a resume allocated {counted} times in steady state");
}

fn steady_state_rpc_allocates_only_its_payloads() {
    const CALLS: u64 = 1_000;
    let mut sim = Sim::new(15);
    let server = sim.mailbox("server");
    sim.spawn_daemon("server", move |ctx| loop {
        let (reply_to, n) = ctx.recv(server).take::<Request>().take::<u64>();
        ctx.reply(reply_to, n + 1, Duration::from_micros(3));
    });
    // The client counts its own window: it opens once a warm-up call has
    // grown every queue, and closes when its last reply is in, with the
    // server blocked in `recv` at both ends.
    sim.spawn("client", move |ctx| {
        let _: u64 = ctx.call(server, 0u64, Duration::from_micros(3));
        ALLOCS.store(0, Ordering::SeqCst);
        COUNTING.store(true, Ordering::SeqCst);
        for i in 0..CALLS {
            let r: u64 = ctx.call(server, i, Duration::from_micros(3));
            assert_eq!(r, i + 1);
        }
        COUNTING.store(false, Ordering::SeqCst);
    });
    sim.run_until_idle().expect_quiescent();

    // The request's body box, the `Msg` envelope around it and the reply's
    // box. The reply mailbox reuses its slot and borrows its name.
    let counted = ALLOCS.load(Ordering::SeqCst);
    let per_call = counted as f64 / CALLS as f64;
    assert_eq!(counted, 3 * CALLS, "an RPC allocated {per_call:.3} times per call, not 3");
}

/// The `call_timeout` twin of the test above: a timed RPC answered in time
/// cancels its timeout, so the event queue holds no timer per past call
/// and never grows.
fn steady_state_timed_rpc_allocates_only_its_payloads() {
    const CALLS: u64 = 1_000;
    let mut sim = Sim::new(16);
    let server = sim.mailbox("server");
    sim.spawn_daemon("server", move |ctx| loop {
        let (reply_to, n) = ctx.recv(server).take::<Request>().take::<u64>();
        ctx.reply(reply_to, n + 1, Duration::from_micros(3));
    });
    sim.spawn("client", move |ctx| {
        let timeout = Duration::from_secs(1);
        let _: Option<u64> = ctx.call_timeout(server, 0u64, Duration::from_micros(3), timeout);
        ALLOCS.store(0, Ordering::SeqCst);
        COUNTING.store(true, Ordering::SeqCst);
        for i in 0..CALLS {
            let r: Option<u64> = ctx.call_timeout(server, i, Duration::from_micros(3), timeout);
            assert_eq!(r, Some(i + 1));
        }
        COUNTING.store(false, Ordering::SeqCst);
    });
    sim.run_until_idle().expect_quiescent();

    let counted = ALLOCS.load(Ordering::SeqCst);
    let per_call = counted as f64 / CALLS as f64;
    assert_eq!(counted, 3 * CALLS, "a timed RPC allocated {per_call:.3} times per call, not 3");
}

/// A request is cloned per retry: every field of it is shared, so a clone
/// is reference-count bumps only.
fn cloning_a_request_allocates_nothing() {
    let obj = ObjectRef::new("AtomicLong", "counter-17");
    let req = InvokeReq {
        obj: obj.clone(),
        method: "incrementAndGet",
        args: vec![1, 2, 3].into(),
        rf: 2,
        create: Some(vec![0; 8].into()),
        readonly: false,
        dep: 0,
        span: SpanId::NONE,
    };
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let clones = (obj.clone(), req.clone());
    COUNTING.store(false, Ordering::SeqCst);
    let counted = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(clones.1.obj, obj);
    drop(clones);
    assert_eq!(counted, 0, "cloning an ObjectRef and an InvokeReq allocated {counted} times");
}

/// Allocations per replicated write over the whole cluster: the client's
/// request and reply, the op the Skeen round shares, its messages between
/// the two replicas, both applies (only the initiator's keeps its reply)
/// and the dispatcher and worker hops. Debug builds add one per replica:
/// `dispatch` saves the object's state before each apply, to catch a read
/// that mutates.
const ALLOCS_PER_SMR_WRITE: u64 = if cfg!(debug_assertions) { 16 } else { 14 };

/// Timing-wheel pushes over 1 000 replicated writes: ten per write (its
/// seven messages, both workers' CPU sleeps, the client's attempt timeout),
/// and the heartbeats that fall in the window. A dispatcher a message woke
/// waits again to the same heartbeat deadline and keeps that wake instead
/// of pushing it again; re-pushing it made this 14 009.
const SMR_WRITE_PUSHES: u64 = 10_009;

/// One client's steady-state `increment_and_get`s on a 3-node cluster at
/// rf = 2, after a warm-up that has materialized the counter and grown
/// every table; then, after a pause to a fixed instant that the wheel's
/// counts can be read at, as many again. Each window also holds what the
/// servers do meanwhile (replica applies, heartbeats), so both counts are
/// exact for this seed.
fn steady_state_smr_write_allocates_a_fixed_count() {
    const WARMUP: u64 = 200;
    const OPS: u64 = 1_000;
    let window = SimTime::from_secs(2);
    let mut sim = Sim::new(17);
    let cluster = DsoCluster::start(&sim, 3, DsoConfig::default(), ObjectRegistry::with_builtins());
    let handle = cluster.client_handle();
    sim.spawn("client", move |ctx| {
        let mut cli = handle.connect();
        let counter = AtomicLong::persistent("c", 0, 2);
        for _ in 0..WARMUP {
            counter.increment_and_get(ctx, &mut cli).expect("warm-up write");
        }
        ALLOCS.store(0, Ordering::SeqCst);
        COUNTING.store(true, Ordering::SeqCst);
        for i in 0..OPS {
            let v = counter.increment_and_get(ctx, &mut cli).expect("write");
            assert_eq!(v, (WARMUP + i + 1) as i64);
        }
        COUNTING.store(false, Ordering::SeqCst);
        // The event window: the same writes again from a fixed instant.
        assert!(ctx.now() < window, "the allocation window ran past {window}");
        ctx.sleep(window.duration_since(ctx.now()));
        for _ in 0..OPS {
            counter.increment_and_get(ctx, &mut cli).expect("write");
        }
    });
    // Stops short of the client's wake at the window's start.
    sim.run_until(SimTime::from_nanos(window.as_nanos() - 1));
    let pushes = |sim: &Sim| {
        let stats = sim.event_queue_stats();
        stats.allocated_nodes + stats.recycled_pushes
    };
    let before = pushes(&sim);
    sim.run_until_idle();
    let counted = ALLOCS.load(Ordering::SeqCst);
    let per_op = counted as f64 / OPS as f64;
    println!("smr write: {counted} allocations over {OPS} ops, {per_op:.3} per op");
    assert_eq!(
        counted,
        ALLOCS_PER_SMR_WRITE * OPS,
        "a replicated write allocated {per_op:.3} times per op, not {ALLOCS_PER_SMR_WRITE}"
    );
    let pushed = pushes(&sim) - before;
    let per_op = pushed as f64 / OPS as f64;
    println!("smr write: {pushed} wheel pushes over {OPS} ops, {per_op:.3} per op");
    assert_eq!(pushed, SMR_WRITE_PUSHES, "wheel pushes over {OPS} replicated writes");
}

/// Allocations per connection over the whole cluster: a fresh client, its
/// view fetch, and one primary read with its dispatcher and worker hops.
/// The view arrives with the ring the coordinator built for it, so a
/// connection builds no ring of its own: rebuilding one per connection,
/// and placing through a `Vec`, made it 44 in release.
/// Debug builds add two: `dispatch` saves the object's state before and
/// after the read, to catch a read that mutates.
const ALLOCS_PER_CONNECTION: u64 = if cfg!(debug_assertions) { 12 } else { 10 };

/// Connects a fresh client and reads the counter once.
fn connect_and_get(ctx: &mut Ctx, handle: &DsoClientHandle, counter: &AtomicLong) -> i64 {
    let mut cli = handle.connect();
    counter.get(ctx, &mut cli).expect("read")
}

/// One reader on a 3-node cluster that reconnects before every read, the
/// way short-lived function containers reach the DSO layer. The warm-up
/// creates the counter and grows every table, so the count is exact for
/// this seed.
fn reconnecting_reader_allocates_a_fixed_count() {
    const WARMUP: u64 = 20;
    const CONNECTIONS: u64 = 200;
    let mut sim = Sim::new(18);
    let cluster = DsoCluster::start(&sim, 3, DsoConfig::default(), ObjectRegistry::with_builtins());
    let handle = cluster.client_handle();
    sim.spawn("client", move |ctx| {
        let counter = AtomicLong::persistent("c", 7, 2);
        for _ in 0..WARMUP {
            assert_eq!(connect_and_get(ctx, &handle, &counter), 7);
        }
        ALLOCS.store(0, Ordering::SeqCst);
        COUNTING.store(true, Ordering::SeqCst);
        for _ in 0..CONNECTIONS {
            assert_eq!(connect_and_get(ctx, &handle, &counter), 7);
        }
        COUNTING.store(false, Ordering::SeqCst);
    });
    sim.run_until_idle();
    let counted = ALLOCS.load(Ordering::SeqCst);
    let per_connection = counted as f64 / CONNECTIONS as f64;
    println!("connection: {counted} allocations over {CONNECTIONS}, {per_connection:.3} each");
    assert_eq!(
        counted,
        ALLOCS_PER_CONNECTION * CONNECTIONS,
        "a connection allocated {per_connection:.3} times, not {ALLOCS_PER_CONNECTION}"
    );
}

/// This process's OS threads, as `/proc/self/task` lists them.
fn os_threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("procfs lists this process's threads").count()
}

/// Counts threads process-wide, so it too needs a binary with nothing
/// running beside it.
fn a_sim_never_starts_an_os_thread() {
    let before = os_threads();
    let same = |when: &str| assert_eq!(os_threads(), before, "OS thread count changed {when}");
    let mut sim = Sim::new(14);
    for i in 0..4 {
        sim.spawn(&format!("one-shot-{i}"), |ctx| ctx.sleep(Duration::from_micros(1)));
    }
    same("on spawn");
    sim.run_until_idle().expect_quiescent();
    same("running processes to their end");
    let (never, also_never) = (sim.mailbox("never"), sim.mailbox("also-never"));
    sim.spawn("blocked", move |ctx| drop(ctx.recv(never)));
    let killed = sim.spawn("killed", move |ctx| drop(ctx.recv(also_never)));
    sim.run_until_idle();
    same("with processes suspended");
    sim.kill(killed);
    same("on a kill");
    // Four stacks: the one-shots ran side by side, and the two blocked
    // processes took two of them.
    assert_eq!(sim.stacks_allocated(), 4);
    drop(sim);
    same("on drop");
}

fn main() {
    let tests: [(&str, fn()); 9] = [
        ("steady_state_timer_churn_allocates_nothing", steady_state_timer_churn_allocates_nothing),
        (
            "steady_state_actor_ping_pong_allocates_nothing",
            steady_state_actor_ping_pong_allocates_nothing,
        ),
        ("steady_state_thread_ring_allocates_nothing", steady_state_thread_ring_allocates_nothing),
        (
            "steady_state_rpc_allocates_only_its_payloads",
            steady_state_rpc_allocates_only_its_payloads,
        ),
        (
            "steady_state_timed_rpc_allocates_only_its_payloads",
            steady_state_timed_rpc_allocates_only_its_payloads,
        ),
        ("a_sim_never_starts_an_os_thread", a_sim_never_starts_an_os_thread),
        (
            "steady_state_smr_write_allocates_a_fixed_count",
            steady_state_smr_write_allocates_a_fixed_count,
        ),
        ("cloning_a_request_allocates_nothing", cloning_a_request_allocates_nothing),
        (
            "reconnecting_reader_allocates_a_fixed_count",
            reconnecting_reader_allocates_a_fixed_count,
        ),
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
