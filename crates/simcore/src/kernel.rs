//! The discrete-event simulation kernel.
//!
//! The kernel hands out a single *run token*: exactly one process (or the
//! scheduler loop) executes at any moment, and whichever OS thread holds
//! the token runs the loop. There are two kinds of process:
//!
//! - a **thread process** ([`Sim::spawn`]) runs on a pooled OS thread: a
//!   worker whose body has returned parks and runs the next spawn's.
//!   Blocking operations — [`Ctx::sleep`], [`Ctx::recv`], [`Ctx::call`] —
//!   register the wait and then drive the scheduler themselves: the thread
//!   advances the virtual clock to the next event and hands the token
//!   straight to the thread that event wakes, or keeps it when that is
//!   itself. For code that blocks mid-function: application bodies,
//!   clients, drivers.
//! - an **actor** ([`Sim::spawn_actor`]) is a value the thread that called
//!   `Sim::run_*` invokes inline: [`Actor::on_wake`] runs to completion
//!   and returns the one thing it waits for next ([`Wait`]). No OS thread,
//!   no handoff. For message-driven servers, which only ever block at the
//!   top of a loop.
//!
//! Each [`Wait`] is exactly one of the blocking primitives, and both kinds
//! share the block-state, epoch, mailbox and runnable-queue bookkeeping, so
//! a loop ported from one kind to the other pushes the same events in the
//! same order and meets the scheduler at the same points.
//!
//! Because only one process runs at a time and ties are broken by event
//! sequence numbers, a simulation is **fully deterministic** for a given
//! seed, while application code stays plain imperative Rust (no async).

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::Thread;
use std::time::Duration;

use parking_lot::{Mutex, MutexGuard};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::detect::{StuckProc, WaitAnnotation, WaitKind};
use crate::metrics::MetricsRegistry;
use crate::scheduler::{Decision, FifoScheduler, Scheduler};
use crate::time::SimTime;
use crate::trace::{SpanId, TraceCtx, Tracer};
use crate::wheel::{EventQueueStats, TimingWheel};

/// Identifier of a simulated process.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub(crate) u64);

impl fmt::Debug for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pid({})", self.0)
    }
}

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Address of a mailbox; the unit of message delivery.
///
/// An `Addr` can be freely cloned and shared between processes; anyone can
/// send to it, while receiving is reserved for one process at a time.
/// Addresses serialize as their raw id, so service handles can travel
/// inside function payloads (like connection strings in Lambda env vars).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, crate::codec::Wire)]
pub struct Addr(pub(crate) u64);

impl Addr {
    /// Reconstructs an address from its raw id.
    ///
    /// Only meaningful for ids previously obtained from [`Addr::into_raw`];
    /// mainly useful in tests and tables keyed by raw ids.
    pub fn from_raw(id: u64) -> Addr {
        Addr(id)
    }

    /// The raw mailbox id behind this address.
    pub fn into_raw(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Addr({})", self.0)
    }
}

/// A message in flight or delivered to a mailbox.
pub struct Msg {
    /// The payload. Downcast it with [`Msg::take`].
    pub body: Box<dyn Any + Send>,
    /// Simulated wire size in bytes (used by bandwidth-aware models).
    pub size: usize,
}

impl Msg {
    /// Creates a message with a zero simulated size.
    pub fn new<T: Any + Send>(body: T) -> Msg {
        Msg { body: Box::new(body), size: 0 }
    }

    /// Creates a message carrying a simulated wire size.
    pub fn sized<T: Any + Send>(body: T, size: usize) -> Msg {
        Msg { body: Box::new(body), size }
    }

    /// Downcasts the payload to `T`.
    ///
    /// # Panics
    ///
    /// Panics if the payload is not a `T`; message types are part of each
    /// service's protocol, so a mismatch is a programming error.
    pub fn take<T: Any>(self) -> T {
        *self
            .body
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("message downcast to {} failed", std::any::type_name::<T>()))
    }

    /// Attempts to downcast the payload to `T`, returning `self` on failure.
    pub fn try_take<T: Any>(self) -> Result<T, Msg> {
        let size = self.size;
        match self.body.downcast::<T>() {
            Ok(b) => Ok(*b),
            Err(body) => Err(Msg { body, size }),
        }
    }

    /// Whether the payload is a `T` (without consuming the message).
    pub fn is<T: Any>(&self) -> bool {
        self.body.is::<T>()
    }
}

impl fmt::Debug for Msg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Msg").field("size", &self.size).finish_non_exhaustive()
    }
}

/// RPC envelope: a request carrying the address to reply to.
///
/// Servers receive `Request` values from their mailbox, handle
/// `body`, and reply by sending the response to `reply_to` — immediately or
/// later (deferred replies are how server-side synchronization objects such
/// as barriers release their waiters).
pub struct Request {
    /// Where the caller is waiting for the response.
    pub reply_to: Addr,
    /// The request payload; downcast to the protocol type.
    pub body: Box<dyn Any + Send>,
}

impl Request {
    /// Downcasts the request payload.
    ///
    /// # Panics
    ///
    /// Panics if the payload is not a `T`.
    pub fn take<T: Any>(self) -> (Addr, T) {
        let reply_to = self.reply_to;
        let body = *self.body.downcast::<T>().unwrap_or_else(|_| {
            panic!("request downcast to {} failed", std::any::type_name::<T>())
        });
        (reply_to, body)
    }
}

impl fmt::Debug for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Request").field("reply_to", &self.reply_to).finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// Actors
// ---------------------------------------------------------------------------

/// Why the kernel is invoking an actor: how its last [`Wait`] ended.
#[derive(Debug)]
pub enum Wake {
    /// First invocation — where a thread process's closure would begin.
    Start,
    /// A message arrived on the mailbox of a [`Wait::Recv`] or
    /// [`Wait::RecvTimeout`].
    Msg(Msg),
    /// A [`Wait::RecvTimeout`] expired with no message.
    Timeout,
    /// A [`Wait::Sleep`] elapsed.
    Slept,
}

/// What an actor waits for next; each is one blocking primitive of a thread
/// process.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Wait {
    /// [`Ctx::recv`]: the next message on the mailbox.
    Recv(Addr),
    /// [`Ctx::recv_timeout`]: the next message, or the timeout.
    RecvTimeout(Addr, Duration),
    /// [`Ctx::sleep`] / [`Ctx::compute`]: virtual time passing.
    Sleep(Duration),
    /// Returning from the closure: the process ends and its owned mailboxes
    /// close.
    Exit,
}

/// A run-to-completion process: the run thread calls [`Actor::on_wake`]
/// inline each time the actor's [`Wait`] ends, instead of handing the run
/// token to a parked OS thread.
///
/// `on_wake` gets the same [`Ctx`] as a thread process — send, reply,
/// spawn, kill, rng, spans and metrics all work — except that it must not
/// block: [`Ctx::sleep`], [`Ctx::recv`], [`Ctx::recv_timeout`],
/// [`Ctx::call`] and [`Ctx::park`] panic on an actor's context. State that
/// a thread would keep in locals across a block lives in the actor's
/// fields.
///
/// # Examples
///
/// ```
/// use simcore::{Actor, Addr, Ctx, Sim, Wait, Wake};
/// use std::time::Duration;
///
/// /// Doubles numbers; `inbox` is created on `Start`, as a closure would.
/// struct Doubler { inbox: Addr }
///
/// impl Actor for Doubler {
///     fn on_wake(&mut self, ctx: &mut Ctx, wake: Wake) -> Wait {
///         if let Wake::Msg(m) = wake {
///             let (reply_to, n) = m.take::<simcore::Request>().take::<u64>();
///             ctx.reply(reply_to, n * 2, Duration::from_micros(90));
///         }
///         Wait::Recv(self.inbox)
///     }
/// }
///
/// let mut sim = Sim::new(7);
/// let inbox = sim.mailbox("service");
/// sim.spawn_daemon_actor("server", Doubler { inbox });
/// sim.spawn("client", move |ctx| {
///     let doubled: u64 = ctx.call(inbox, 21u64, Duration::from_micros(90));
///     assert_eq!(doubled, 42);
/// });
/// sim.run_until_idle().expect_quiescent();
/// ```
pub trait Actor: Send + 'static {
    /// Handles one wake-up and returns what to wait for next.
    fn on_wake(&mut self, ctx: &mut Ctx, wake: Wake) -> Wait;
}

/// An actor at rest in its [`ProcSlot`]: its state, its context, and the
/// wait it last returned (`None` before the first run).
struct ActorCell {
    actor: Box<dyn Actor>,
    ctx: Ctx,
    wait: Option<Wait>,
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

enum EventKind {
    /// Wake a process blocked in `sleep`, or time out a blocked `recv`.
    Wake { pid: Pid, epoch: u64 },
    /// Deliver a message to a mailbox.
    Deliver { mailbox: u64, msg: Msg },
}

/// How long (in virtual time) `run_until_idle` keeps firing events that
/// cannot directly wake a non-daemon process after the last non-daemon ran.
/// Past this, the surviving processes are wedged: only daemon housekeeping
/// (heartbeats, pollers) is left, and none of it can free them. Daemon
/// request/reply chains serving a blocked client stay well under this.
const STALL_LIMIT: Duration = Duration::from_secs(60);

/// Whether firing this event can directly hand progress to a non-daemon
/// process: a wake for a live non-daemon (sleep or recv timeout), or a
/// delivery to a mailbox a non-daemon is blocked on. Such events are
/// exempt from the stall cutoff in `Kernel::drive` — a client sleeping for an
/// hour is idle, not wedged.
///
/// A free function over the individual tables (rather than a
/// `KernelState` method) so `drive` can consult it while the event
/// queue is borrowed by `peek`.
fn event_can_progress(
    procs: &HashMap<u64, ProcSlot>,
    mailboxes: &HashMap<u64, MailboxState>,
    kind: &EventKind,
) -> bool {
    match kind {
        EventKind::Wake { pid, .. } => procs.get(&pid.0).is_some_and(|p| !p.daemon),
        EventKind::Deliver { mailbox, .. } => mailboxes
            .get(mailbox)
            .and_then(|mb| mb.waiting)
            .and_then(|pid| procs.get(&pid.0))
            .is_some_and(|p| !p.daemon),
    }
}

// ---------------------------------------------------------------------------
// Gates (token handoff)
// ---------------------------------------------------------------------------

/// Gate commands, in the order `fetch_max` needs: a grant never overwrites
/// `EXIT`.
const PARK: u8 = 0;
const RUN: u8 = 1;
const EXIT: u8 = 2;

/// Where one OS thread waits for the run token: a command word and the
/// handle that wakes the waiter.
#[derive(Clone)]
struct Gate {
    cmd: Arc<AtomicU8>,
    waiter: Thread,
}

impl Gate {
    /// Blocks the calling thread, the waiter of `cmd`, until it is granted
    /// the token (`true`) or told to terminate (`false`). Spurious
    /// wake-ups and the unpark tokens of grants taken without parking fall
    /// out of the loop.
    fn wait(cmd: &AtomicU8) -> bool {
        loop {
            match cmd.compare_exchange(RUN, PARK, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => return true,
                Err(EXIT) => return false,
                Err(_) => std::thread::park(),
            }
        }
    }

    fn set(&self, c: u8) {
        self.cmd.fetch_max(c, Ordering::SeqCst);
        self.waiter.unpark();
    }
}

/// The calling thread's handle, for a gate to wake it by.
fn this_thread() -> Thread {
    // simlint: allow(determinism-taint, reason = "the handle is only ever unparked; nothing reads the thread's identity into simulated state")
    std::thread::current()
}

/// Gives the run token to the waiter of `to`. Takes the state lock to
/// count the transfer and releases it first, so the woken thread does not
/// run into it. The caller no longer holds the token: `false`.
fn pass(mut st: MutexGuard<'_, KernelState>, to: &Gate) -> bool {
    st.handoffs += 1;
    drop(st);
    to.set(RUN);
    false
}

/// Gives the run token to the caller of `Sim::run_*`.
fn pass_to_run_thread(st: MutexGuard<'_, KernelState>) -> bool {
    let run = st.run_gate.clone();
    pass(st, &run)
}

/// Which OS thread is running the scheduler loop ([`Kernel::drive`]).
#[derive(Copy, Clone, PartialEq, Eq)]
enum Driver {
    /// The caller of `Sim::run_*`.
    RunThread,
    /// A process thread that has just registered its wait.
    Blocked(Pid),
    /// A worker whose body has finished, already back in the idle pool.
    Exiting,
}

/// Panic payload used to unwind process threads on shutdown/kill.
struct ShutdownSignal;

// ---------------------------------------------------------------------------
// Kernel state
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq, Eq)]
enum BlockState {
    Runnable,
    Sleeping,
    Receiving { mailbox: u64 },
    Parked,
    Exited,
}

/// What runs when a process holds the token.
enum ProcBody {
    /// A body on a parked worker thread; the worker's gate hands it the
    /// token.
    Thread(Gate),
    /// An actor the run thread invokes inline; `None` while it runs and
    /// once it has exited.
    Actor(Option<Box<ActorCell>>),
}

impl ProcBody {
    /// Ends the process without running it again. A thread is told to
    /// unwind; it does not take the token, so the caller keeps running. An
    /// actor's state is handed back for the caller to drop once the state
    /// lock is released.
    fn retire(&mut self) -> Option<Box<ActorCell>> {
        match self {
            ProcBody::Thread(gate) => {
                gate.set(EXIT);
                None
            }
            ProcBody::Actor(cell) => cell.take(),
        }
    }
}

/// A thread process's body, waiting in a worker's slot to run.
struct Job {
    pid: Pid,
    name: String,
    body: Box<dyn FnOnce(&mut Ctx) + Send>,
}

/// An OS thread that runs thread-process bodies one after another: its
/// gate, and the slot `spawn_process` puts the next body in.
#[derive(Clone)]
struct Worker {
    gate: Gate,
    job: Arc<Mutex<Option<Job>>>,
}

struct ProcSlot {
    name: String,
    body: ProcBody,
    blocked: BlockState,
    epoch: u64,
    delivered: Option<Msg>,
    killed: bool,
    park_permit: bool,
    /// Daemon processes (long-lived services) are excluded from the
    /// blocked-process report: a quiescent simulation with only daemons
    /// waiting for requests is not a deadlock.
    daemon: bool,
    /// What this process is blocked on, as registered by the blocking
    /// primitive via [`Ctx::annotate_wait`]; cleared on wakeup. Feeds the
    /// wait-for graph in [`crate::detect`].
    waiting_on: Option<WaitAnnotation>,
    /// Mailboxes this process owns, closed when it exits.
    owned: Vec<u64>,
}

struct MailboxState {
    name: String,
    queue: VecDeque<Msg>,
    waiting: Option<Pid>,
    closed: bool,
}

pub(crate) struct KernelState {
    now: SimTime,
    next_seq: u64,
    events: TimingWheel<EventKind>,
    procs: HashMap<u64, ProcSlot>,
    runnable: VecDeque<Pid>,
    mailboxes: HashMap<u64, MailboxState>,
    next_pid: u64,
    next_mailbox: u64,
    panic: Option<Box<dyn Any + Send>>,
    live: usize,
    live_nondaemon: usize,
    trace: bool,
    /// Picks the next runnable process when several are ready at once.
    scheduler: Box<dyn Scheduler>,
    /// Every contended pick, in order; replaying these choices reproduces
    /// the schedule (see [`crate::scheduler::ReplayScheduler`]).
    decisions: Vec<Decision>,
    /// Current holder of each annotated resource (`resource id -> (pid,
    /// name)`), maintained by [`Ctx::resource_acquired`] and friends.
    holders: HashMap<u64, (Pid, String)>,
    /// Virtual time a non-daemon process last received the run token; the
    /// stall detector in [`Kernel::drive`] keys off this.
    last_nondaemon_run: SimTime,
    /// Where the current `Sim::run_*` call stops; `None` runs until idle.
    deadline: Option<SimTime>,
    /// The gate of the thread that called `Sim::run_*`, its waiter captured
    /// at each entry.
    run_gate: Gate,
    /// An actor picked by a process thread, for the run thread to run
    /// without picking again.
    carried: Option<Pid>,
    /// Times the run token moved from one OS thread to another.
    handoffs: u64,
    /// Workers whose last body returned, waiting for the next spawn.
    idle: Vec<Worker>,
    /// Every worker thread started, joined when the `Sim` drops.
    workers: Vec<std::thread::JoinHandle<()>>,
    /// Span collector, if observability is enabled ([`Sim::set_tracer`]).
    /// `None` makes every `Ctx::span_*` call a no-op.
    tracer: Option<Tracer>,
    /// Metric sink, if installed ([`Sim::set_metrics`]); `None` makes every
    /// `Ctx::metric_*` call a no-op.
    metrics: Option<MetricsRegistry>,
}

impl KernelState {
    fn push_event(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(time, seq, kind);
    }

    fn make_runnable(&mut self, pid: Pid) {
        if let Some(p) = self.procs.get_mut(&pid.0) {
            if p.blocked != BlockState::Exited && p.blocked != BlockState::Runnable {
                p.blocked = BlockState::Runnable;
                p.waiting_on = None; // the wait ended
                self.runnable.push_back(pid);
            }
        }
    }

    /// Removes the next process to run from the runnable queue. Contended
    /// picks (≥ 2 candidates) go through the scheduler and are recorded in
    /// the decision trace.
    fn pick_runnable(&mut self) -> Option<Pid> {
        match self.runnable.len() {
            0 => None,
            1 => self.runnable.pop_front(),
            n => {
                let idx = self.scheduler.pick(self.runnable.make_contiguous()).min(n - 1);
                self.decisions.push(Decision { options: n as u32, choice: idx as u32 });
                self.runnable.remove(idx)
            }
        }
    }

    fn apply_event(&mut self, kind: EventKind) {
        match kind {
            EventKind::Wake { pid, epoch } => {
                let wake = match self.procs.get(&pid.0) {
                    Some(p) => {
                        p.epoch == epoch
                            && matches!(
                                p.blocked,
                                BlockState::Sleeping | BlockState::Receiving { .. }
                            )
                    }
                    None => false,
                };
                if wake {
                    // A recv timeout leaves `delivered` empty — the receiver
                    // interprets that as expiry.
                    self.make_runnable(pid);
                }
            }
            EventKind::Deliver { mailbox, msg } => {
                let waiter = match self.mailboxes.get_mut(&mailbox) {
                    Some(mb) if !mb.closed => {
                        if let Some(pid) = mb.waiting.take() {
                            Some((pid, msg))
                        } else {
                            mb.queue.push_back(msg);
                            None
                        }
                    }
                    // Closed or unknown mailbox: the message is dropped,
                    // like a packet to a dead host.
                    _ => None,
                };
                if let Some((pid, msg)) = waiter {
                    if let Some(p) = self.procs.get_mut(&pid.0) {
                        p.delivered = Some(msg);
                        // Invalidate any pending recv-timeout for this block.
                        p.epoch += 1;
                    }
                    self.make_runnable(pid);
                }
            }
        }
    }

    fn proc_exited(&mut self, pid: Pid) {
        let mut owned = Vec::new();
        if let Some(p) = self.procs.get_mut(&pid.0) {
            if p.blocked == BlockState::Exited {
                return;
            }
            owned = std::mem::take(&mut p.owned);
            // Clean a dangling recv registration.
            if let BlockState::Receiving { mailbox } = p.blocked {
                if let Some(mb) = self.mailboxes.get_mut(&mailbox) {
                    if mb.waiting == Some(pid) {
                        mb.waiting = None;
                    }
                }
            }
            p.blocked = BlockState::Exited;
            p.waiting_on = None;
            self.live -= 1;
            if !p.daemon {
                self.live_nondaemon -= 1;
            }
        }
        // A dead process holds nothing.
        if !self.holders.is_empty() {
            self.holders.retain(|_, (holder, _)| *holder != pid);
        }
        for id in owned {
            if let Some(mb) = self.mailboxes.get_mut(&id) {
                mb.closed = true;
                mb.queue.clear();
            }
        }
    }

    /// Blocks `pid` in a sleep of `d`: the bookkeeping half of
    /// [`Ctx::sleep`] and [`Wait::Sleep`].
    fn begin_sleep(&mut self, pid: Pid, d: Duration) {
        let now = self.now;
        let p = self.procs.get_mut(&pid.0).expect("own slot");
        p.epoch += 1;
        let epoch = p.epoch;
        p.blocked = BlockState::Sleeping;
        self.push_event(now + d, EventKind::Wake { pid, epoch });
    }

    /// If a message is queued on `mb`, returns it; otherwise registers
    /// `pid` as the waiter (with an optional timeout event) and returns
    /// `None`. The bookkeeping half of [`Ctx::recv`] /
    /// [`Ctx::recv_timeout`] and of [`Wait::Recv`] / [`Wait::RecvTimeout`].
    fn begin_recv(&mut self, pid: Pid, mb: Addr, timeout: Option<Duration>) -> Option<Msg> {
        let now = self.now;
        let q = self
            .mailboxes
            .get_mut(&mb.0)
            .unwrap_or_else(|| panic!("recv on unknown mailbox {:?}", mb));
        assert!(!q.closed, "recv on closed mailbox {} ({:?})", q.name, mb);
        if let Some(m) = q.queue.pop_front() {
            return Some(m);
        }
        assert!(q.waiting.is_none(), "mailbox {} already has a waiting receiver", q.name);
        q.waiting = Some(pid);
        let p = self.procs.get_mut(&pid.0).expect("own slot");
        p.epoch += 1;
        let epoch = p.epoch;
        p.blocked = BlockState::Receiving { mailbox: mb.0 };
        if let Some(t) = timeout {
            self.push_event(now + t, EventKind::Wake { pid, epoch });
        }
        None
    }

    /// What a woken receiver finds: the delivered message, or — the
    /// timeout fired first — nothing, and its registration on `mb` is
    /// withdrawn.
    fn end_recv(&mut self, pid: Pid, mb: Addr) -> Option<Msg> {
        let delivered = self.procs.get_mut(&pid.0).expect("own slot").delivered.take();
        if delivered.is_none() {
            if let Some(q) = self.mailboxes.get_mut(&mb.0) {
                if q.waiting == Some(pid) {
                    q.waiting = None;
                }
            }
        }
        delivered
    }
}

// ---------------------------------------------------------------------------
// Kernel and Sim
// ---------------------------------------------------------------------------

pub(crate) struct Kernel {
    state: Mutex<KernelState>,
    /// The command word of `KernelState::run_gate`, where the run thread
    /// waits without the state lock.
    run_cmd: Arc<AtomicU8>,
    seed: u64,
}

impl Kernel {
    /// Runs the scheduler loop on the calling thread, which holds the run
    /// token, until the token leaves it or comes to rest: `true` if the
    /// caller still holds it — a process thread that picked itself, or the
    /// run thread with nothing left to fire.
    ///
    /// A panic of the loop itself on a process thread belongs to the
    /// `run_*` caller, who is parked: it is recorded for `run_*` to
    /// re-raise and the token goes there, rather than unwinding a process
    /// body that did nothing wrong.
    fn drive(&self, driver: Driver) -> bool {
        if driver == Driver::RunThread {
            return self.turn(driver);
        }
        catch_unwind(AssertUnwindSafe(|| self.turn(driver))).unwrap_or_else(|panic| {
            let mut st = self.state.lock();
            st.panic.get_or_insert(panic);
            pass_to_run_thread(st)
        })
    }

    /// The loop behind [`Kernel::drive`].
    fn turn(&self, driver: Driver) -> bool {
        let on_run_thread = driver == Driver::RunThread;
        loop {
            let mut guard = self.state.lock();
            let st = &mut *guard;
            if st.panic.is_some() && !on_run_thread {
                return pass_to_run_thread(guard);
            }
            if let Some(panic) = st.panic.take() {
                drop(guard);
                resume_unwind(panic);
            }
            // Run every currently runnable process to its next block point.
            if let Some(pid) = st.carried.take().or_else(|| st.pick_runnable()) {
                let Some(p) = st.procs.get_mut(&pid.0).filter(|p| p.blocked != BlockState::Exited)
                else {
                    continue;
                };
                if !on_run_thread && matches!(p.body, ProcBody::Actor(_)) {
                    // Actors run on the run thread only: an `on_wake` frame
                    // never lands on a 256 KB process stack. The decision
                    // is already recorded, so the pick travels with the
                    // token instead of being made again.
                    st.carried = Some(pid);
                    return pass_to_run_thread(guard);
                }
                if p.killed {
                    let cell = p.body.retire();
                    st.proc_exited(pid);
                    drop(guard);
                    drop(cell);
                    continue;
                }
                if !p.daemon {
                    st.last_nondaemon_run = st.now;
                }
                match &mut p.body {
                    ProcBody::Thread(_) if driver == Driver::Blocked(pid) => return true,
                    ProcBody::Thread(gate) => {
                        let gate = gate.clone();
                        pass(guard, &gate);
                        if !on_run_thread {
                            return false;
                        }
                        let granted = Gate::wait(&self.run_cmd);
                        debug_assert!(granted, "nothing retires the run thread");
                    }
                    ProcBody::Actor(cell) => {
                        let cell = cell.take().expect("a runnable actor is at rest in its slot");
                        drop(guard);
                        self.run_actor(pid, cell);
                    }
                }
                continue;
            }
            // Advance to the next event. Without a deadline, stop once
            // every non-daemon process has exited: the remaining events
            // belong to long-lived services (heartbeats, pollers) that
            // would otherwise tick forever. The stall bound covers the
            // deadlocked-but-daemons-keep-ticking case: if no non-daemon
            // has run for that long in virtual time, the survivors are
            // wedged and firing more daemon timers can never free them.
            let fire = match st.events.peek() {
                Some((time, _, kind)) => match st.deadline {
                    Some(d) => time <= d,
                    None => {
                        st.live_nondaemon > 0
                            && (time <= st.last_nondaemon_run + STALL_LIMIT
                                || event_can_progress(&st.procs, &st.mailboxes, kind))
                    }
                },
                None => false,
            };
            if !fire {
                // The run is over; its caller builds the outcome.
                return on_run_thread || pass_to_run_thread(guard);
            }
            let (time, _, kind) = st.events.pop().expect("peeked event");
            debug_assert!(time >= st.now, "event in the past");
            st.now = time;
            st.apply_event(kind);
        }
    }

    /// Invokes an actor inline until it blocks or exits: turn how its last
    /// wait ended into a [`Wake`], call it with the state lock released,
    /// apply the [`Wait`] it returns, and go round again while a receive
    /// finds a message already queued — what a thread's `recv` fast path
    /// does without yielding.
    fn run_actor(&self, pid: Pid, mut cell: Box<ActorCell>) {
        let mut wake = match cell.wait {
            None => Wake::Start,
            Some(Wait::Sleep(_)) => Wake::Slept,
            Some(Wait::Recv(mb)) => Wake::Msg(
                // invariant: an untimed receive pushes no wake event, so
                // only a delivery makes its process runnable.
                self.state.lock().end_recv(pid, mb).expect("recv woken by a delivery"),
            ),
            Some(Wait::RecvTimeout(mb, _)) => {
                self.state.lock().end_recv(pid, mb).map_or(Wake::Timeout, Wake::Msg)
            }
            Some(Wait::Exit) => unreachable!("an exited actor is never runnable"),
        };
        loop {
            let ActorCell { actor, ctx, .. } = &mut *cell;
            let result = catch_unwind(AssertUnwindSafe(|| actor.on_wake(ctx, wake)));
            let mut st = self.state.lock();
            let wait = match result {
                Ok(wait) => wait,
                Err(panic) => {
                    st.proc_exited(pid);
                    drop(st);
                    drop(cell);
                    resume_unwind(panic);
                }
            };
            let queued = match wait {
                Wait::Sleep(d) => {
                    st.begin_sleep(pid, d);
                    None
                }
                Wait::Recv(mb) => st.begin_recv(pid, mb, None),
                Wait::RecvTimeout(mb, t) => st.begin_recv(pid, mb, Some(t)),
                Wait::Exit => {
                    st.proc_exited(pid);
                    drop(st);
                    return;
                }
            };
            match queued {
                Some(msg) => wake = Wake::Msg(msg),
                None => {
                    cell.wait = Some(wait);
                    let p = st.procs.get_mut(&pid.0).expect("own slot");
                    p.body = ProcBody::Actor(Some(cell));
                    return;
                }
            }
        }
    }
}

/// Outcome of a [`Sim::run_until_idle`] call.
#[derive(Debug)]
pub struct RunOutcome {
    /// Virtual time when the run stopped.
    pub time: SimTime,
    /// Names of processes that are still alive but blocked forever
    /// (no event can ever wake them). Empty for a clean quiescent run.
    pub blocked: Vec<String>,
}

impl RunOutcome {
    /// Panics if any live process is blocked with no pending event —
    /// i.e. the simulation deadlocked.
    ///
    /// # Panics
    ///
    /// Panics with the list of blocked processes.
    pub fn expect_quiescent(&self) {
        assert!(
            self.blocked.is_empty(),
            "simulation deadlocked at {} with blocked processes: {:?}",
            self.time,
            self.blocked
        );
    }
}

/// A deterministic discrete-event simulation.
///
/// # Examples
///
/// ```
/// use simcore::{Sim, SimTime};
/// use std::time::Duration;
///
/// let mut sim = Sim::new(42);
/// let inbox = sim.mailbox("inbox");
/// sim.spawn("echo", move |ctx| {
///     let msg = ctx.recv(inbox);
///     assert_eq!(msg.take::<u32>(), 7);
/// });
/// sim.spawn("sender", move |ctx| {
///     ctx.sleep(Duration::from_millis(5));
///     ctx.send(inbox, simcore::Msg::new(7u32), Duration::from_micros(100));
/// });
/// let out = sim.run_until_idle();
/// out.expect_quiescent();
/// assert_eq!(out.time, SimTime::from_nanos(5_100_000));
/// ```
pub struct Sim {
    kernel: Arc<Kernel>,
}

impl fmt::Debug for Sim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.kernel.state.lock();
        f.debug_struct("Sim")
            .field("now", &st.now)
            .field("live", &st.live)
            .field("pending_events", &st.events.len())
            .finish()
    }
}

impl Sim {
    /// Creates a simulation seeded with `seed`; the same seed gives the same
    /// run, event for event. Runnable-queue ties are broken in FIFO order
    /// ([`FifoScheduler`]); see [`Sim::with_scheduler`] to explore other
    /// schedules.
    pub fn new(seed: u64) -> Sim {
        Sim::with_scheduler(seed, Box::new(FifoScheduler))
    }

    /// Creates a simulation whose runnable-queue ties are broken by
    /// `scheduler` instead of FIFO order. Used by [`crate::explore`] to
    /// search over schedules and to replay a failing one.
    pub fn with_scheduler(seed: u64, scheduler: Box<dyn Scheduler>) -> Sim {
        let trace = std::env::var("SIM_TRACE").map(|v| v == "1").unwrap_or(false);
        let run_cmd = Arc::new(AtomicU8::new(PARK));
        Sim {
            kernel: Arc::new(Kernel {
                state: Mutex::new(KernelState {
                    now: SimTime::ZERO,
                    next_seq: 0,
                    events: TimingWheel::new(),
                    procs: HashMap::new(),
                    runnable: VecDeque::new(),
                    mailboxes: HashMap::new(),
                    next_pid: 0,
                    next_mailbox: 0,
                    panic: None,
                    live: 0,
                    live_nondaemon: 0,
                    trace,
                    scheduler,
                    decisions: Vec::new(),
                    holders: HashMap::new(),
                    last_nondaemon_run: SimTime::ZERO,
                    deadline: None,
                    run_gate: Gate { cmd: run_cmd.clone(), waiter: this_thread() },
                    carried: None,
                    handoffs: 0,
                    idle: Vec::new(),
                    workers: Vec::new(),
                    tracer: None,
                    metrics: None,
                }),
                run_cmd,
                seed,
            }),
        }
    }

    /// The seed this simulation was created with.
    pub fn seed(&self) -> u64 {
        self.kernel.seed
    }

    /// Allocation and occupancy accounting for the kernel event queue.
    /// Used by the zero-allocation assertions in tests and the kernel
    /// bench report.
    pub fn event_queue_stats(&self) -> EventQueueStats {
        self.kernel.state.lock().events.stats()
    }

    /// Times the run token has moved from one OS thread to another: the
    /// host cost thread processes add over actors, as a count.
    pub fn thread_handoffs(&self) -> u64 {
        self.kernel.state.lock().handoffs
    }

    /// OS threads the kernel has started for thread processes. A thread
    /// whose body returns runs the next spawn's body, and a spawn starts a
    /// thread only when none is idle; a killed process's thread ends. Every
    /// spawn and every return to the pool happens under the run token, so
    /// the count is exact per seed, like [`Sim::thread_handoffs`].
    pub fn threads_spawned(&self) -> u64 {
        self.kernel.state.lock().workers.len() as u64
    }

    /// Installs a span collector: from now on `Ctx::span_begin` and friends
    /// record into `tracer`. Recording is pure bookkeeping — it consumes no
    /// virtual time, no randomness, and adds no events, so an instrumented
    /// run is event-for-event identical to an uninstrumented one.
    pub fn set_tracer(&self, tracer: &Tracer) {
        self.kernel.state.lock().tracer = Some(tracer.clone());
    }

    /// Installs a metric sink: from now on `Ctx::metric_incr` /
    /// `Ctx::metric_record` write into `metrics`. Like tracing, recording
    /// never perturbs the simulation.
    pub fn set_metrics(&self, metrics: &MetricsRegistry) {
        self.kernel.state.lock().metrics = Some(metrics.clone());
    }

    /// The installed span collector, if any.
    pub fn tracer(&self) -> Option<Tracer> {
        self.kernel.state.lock().tracer.clone()
    }

    /// The installed metric sink, if any.
    pub fn metrics(&self) -> Option<MetricsRegistry> {
        self.kernel.state.lock().metrics.clone()
    }

    /// The scheduling decisions made so far (contended picks only).
    /// Feeding the choices to a [`crate::scheduler::ReplayScheduler`] on a
    /// fresh `Sim` with the same seed reproduces this run's schedule.
    pub fn decision_trace(&self) -> Vec<Decision> {
        self.kernel.state.lock().decisions.clone()
    }

    /// Snapshot of the permanently blocked non-daemon processes plus the
    /// resource-holder table, for [`Sim::deadlock_report`].
    pub(crate) fn stuck_snapshot(&self) -> (SimTime, Vec<StuckProc>, HashMap<u64, (Pid, String)>) {
        let st = self.kernel.state.lock();
        let mut stuck: Vec<StuckProc> = st
            .procs
            .iter()
            .filter(|(_, p)| {
                !p.daemon && !matches!(p.blocked, BlockState::Exited | BlockState::Runnable)
            })
            .map(|(id, p)| StuckProc {
                pid: Pid(*id),
                name: p.name.clone(),
                block_state: match p.blocked {
                    BlockState::Sleeping => "sleeping".to_string(),
                    BlockState::Receiving { mailbox } => {
                        let name =
                            st.mailboxes.get(&mailbox).map(|mb| mb.name.as_str()).unwrap_or("?");
                        format!("receiving on {name}")
                    }
                    BlockState::Parked => "parked".to_string(),
                    _ => unreachable!("filtered above"),
                },
                wait: p.waiting_on.clone(),
            })
            .collect();
        stuck.sort_by_key(|p| p.pid);
        (st.now, stuck, st.holders.clone())
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.kernel.state.lock().now
    }

    /// Creates an unowned mailbox (never auto-closed).
    pub fn mailbox(&self, name: &str) -> Addr {
        create_mailbox(&self.kernel, name, None)
    }

    /// Spawns a thread process. It becomes runnable at the current virtual
    /// time; `f` runs on an idle worker thread, or on a new one when none
    /// is idle (see [`Sim::threads_spawned`]).
    pub fn spawn<F>(&self, name: &str, f: F) -> Pid
    where
        F: FnOnce(&mut Ctx) + Send + 'static,
    {
        spawn_process(&self.kernel, name, false, f)
    }

    /// Spawns a daemon process: a long-lived service that is allowed to be
    /// blocked waiting for requests when the simulation goes quiescent.
    pub fn spawn_daemon<F>(&self, name: &str, f: F) -> Pid
    where
        F: FnOnce(&mut Ctx) + Send + 'static,
    {
        spawn_process(&self.kernel, name, true, f)
    }

    /// Spawns an actor: a process the kernel invokes inline (see [`Actor`]).
    /// It becomes runnable at the current virtual time and is first woken
    /// with [`Wake::Start`].
    pub fn spawn_actor(&self, name: &str, actor: impl Actor) -> Pid {
        spawn_actor(&self.kernel, name, false, Box::new(actor))
    }

    /// Spawns a daemon actor (see [`Sim::spawn_daemon`]).
    pub fn spawn_daemon_actor(&self, name: &str, actor: impl Actor) -> Pid {
        spawn_actor(&self.kernel, name, true, Box::new(actor))
    }

    /// Runs until no events remain.
    pub fn run_until_idle(&mut self) -> RunOutcome {
        self.run_inner(None)
    }

    /// Runs until virtual time `t`; events after `t` stay pending and the
    /// clock is left at exactly `t`.
    pub fn run_until(&mut self, t: SimTime) -> RunOutcome {
        self.run_inner(Some(t))
    }

    /// Runs for `d` more virtual time.
    pub fn run_for(&mut self, d: Duration) -> RunOutcome {
        let t = self.now() + d;
        self.run_until(t)
    }

    fn run_inner(&mut self, deadline: Option<SimTime>) -> RunOutcome {
        {
            let mut st = self.kernel.state.lock();
            st.deadline = deadline;
            // Captured per run: a `Sim` may move between calls.
            st.run_gate.waiter = this_thread();
        }
        self.kernel.drive(Driver::RunThread);
        let mut st = self.kernel.state.lock();
        if let Some(d) = deadline {
            if st.now < d {
                st.now = d;
            }
        }
        let blocked = st
            .procs
            .values()
            .filter(|p| {
                !p.daemon && p.blocked != BlockState::Exited && p.blocked != BlockState::Runnable
            })
            .map(|p| p.name.clone())
            .collect();
        RunOutcome { time: st.now, blocked }
    }

    /// Marks a process for termination. If it is blocked it unwinds without
    /// ever running again; if it is runnable it unwinds instead of running.
    pub fn kill(&self, pid: Pid) {
        kill_process(&self.kernel, pid);
    }

    /// Number of processes that have not exited.
    pub fn live_processes(&self) -> usize {
        self.kernel.state.lock().live
    }
}

impl Drop for Sim {
    fn drop(&mut self) {
        // Tell every worker to end — an idle one directly, one with a
        // process by retiring the process — then join them all. Actors at
        // rest are dropped here too: their `Ctx` holds the kernel, which
        // holds them.
        let (cells, workers) = {
            let mut st = self.kernel.state.lock();
            for w in st.idle.drain(..) {
                w.gate.set(EXIT);
            }
            let cells: Vec<_> = st
                .procs
                .values_mut()
                .filter(|p| p.blocked != BlockState::Exited)
                .filter_map(|p| p.body.retire())
                .collect();
            (cells, std::mem::take(&mut st.workers))
        };
        drop(cells);
        for w in workers {
            let _ = w.join();
        }
    }
}

fn create_mailbox(kernel: &Arc<Kernel>, name: &str, owner: Option<Pid>) -> Addr {
    let mut st = kernel.state.lock();
    let id = st.next_mailbox;
    st.next_mailbox += 1;
    st.mailboxes.insert(
        id,
        MailboxState {
            name: name.to_string(),
            queue: VecDeque::new(),
            waiting: None,
            closed: false,
        },
    );
    if let Some(p) = owner.and_then(|pid| st.procs.get_mut(&pid.0)) {
        p.owned.push(id);
    }
    Addr(id)
}

fn kill_process(kernel: &Arc<Kernel>, pid: Pid) {
    let mut st = kernel.state.lock();
    let Some(p) = st.procs.get_mut(&pid.0).filter(|p| p.blocked != BlockState::Exited) else {
        return;
    };
    p.killed = true;
    // A runnable process is handled when the kernel pops it from the
    // runnable queue; a blocked one ends here and never runs again.
    if p.blocked != BlockState::Runnable {
        let cell = p.body.retire();
        st.proc_exited(pid);
        drop(st);
        drop(cell);
    }
}

/// Allocates the next pid.
fn next_pid(kernel: &Kernel) -> Pid {
    let mut st = kernel.state.lock();
    let id = st.next_pid;
    st.next_pid += 1;
    Pid(id)
}

/// The context of process `pid`, with its per-pid random stream.
fn new_ctx(kernel: &Arc<Kernel>, pid: Pid, name: &str, gate: Option<Arc<AtomicU8>>) -> Ctx {
    let seed = kernel.seed ^ pid.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    Ctx {
        kernel: kernel.clone(),
        pid,
        gate,
        rng: StdRng::seed_from_u64(seed),
        name: name.to_string(),
        trace_ctx: TraceCtx::root(),
    }
}

/// Registers a new process, runnable at the current virtual time.
fn insert_proc(kernel: &Kernel, pid: Pid, name: &str, daemon: bool, body: ProcBody) {
    let mut st = kernel.state.lock();
    st.procs.insert(
        pid.0,
        ProcSlot {
            name: name.to_string(),
            body,
            blocked: BlockState::Runnable,
            epoch: 0,
            delivered: None,
            killed: false,
            park_permit: false,
            daemon,
            waiting_on: None,
            owned: Vec::new(),
        },
    );
    st.live += 1;
    if !daemon {
        st.live_nondaemon += 1;
    }
    st.runnable.push_back(pid);
}

fn spawn_actor(kernel: &Arc<Kernel>, name: &str, daemon: bool, actor: Box<dyn Actor>) -> Pid {
    let pid = next_pid(kernel);
    let cell = ActorCell { actor, ctx: new_ctx(kernel, pid, name, None), wait: None };
    insert_proc(kernel, pid, name, daemon, ProcBody::Actor(Some(Box::new(cell))));
    pid
}

fn spawn_process<F>(kernel: &Arc<Kernel>, name: &str, daemon: bool, f: F) -> Pid
where
    F: FnOnce(&mut Ctx) + Send + 'static,
{
    let pid = next_pid(kernel);
    // Only the token holder spawns, and a worker returns to `idle` before
    // it passes the token on, so an idle worker is at most on its way back
    // to its gate, whose `RUN` waits for it.
    let idle = kernel.state.lock().idle.pop();
    let worker = idle.unwrap_or_else(|| start_worker(kernel));
    *worker.job.lock() = Some(Job { pid, name: name.to_string(), body: Box::new(f) });
    insert_proc(kernel, pid, name, daemon, ProcBody::Thread(worker.gate));
    pid
}

/// Starts a worker thread, parked on its gate with an empty slot.
fn start_worker(kernel: &Arc<Kernel>) -> Worker {
    let cmd = Arc::new(AtomicU8::new(PARK));
    let job = Arc::new(Mutex::new(None));
    let (thread_kernel, thread_cmd, thread_job) = (kernel.clone(), cmd.clone(), job.clone());
    let handle = std::thread::Builder::new()
        .name("sim-worker".to_string())
        .stack_size(256 * 1024)
        .spawn(move || {
            let gate = Gate { cmd: thread_cmd, waiter: this_thread() };
            run_worker(&thread_kernel, Worker { gate, job: thread_job });
        })
        .expect("failed to spawn simulation thread");
    let worker = Worker { gate: Gate { cmd, waiter: handle.thread().clone() }, job };
    kernel.state.lock().workers.push(handle);
    worker
}

/// A worker's life: each time it is granted the token, run the body in its
/// slot on a fresh context, then rejoin `idle` and drive the scheduler on.
/// It ends when `EXIT` reaches it: parked (a kill before the body ran, or
/// the `Sim` dropping), or mid-body (a kill or shutdown unwinding it). A
/// body that never ran goes with its slot.
fn run_worker(kernel: &Arc<Kernel>, me: Worker) {
    while Gate::wait(&me.gate.cmd) {
        let Job { pid, name, body } =
            me.job.lock().take().expect("a worker is granted the token only with a body");
        let result = {
            let mut ctx = new_ctx(kernel, pid, &name, Some(me.gate.cmd.clone()));
            catch_unwind(AssertUnwindSafe(|| body(&mut ctx)))
        };
        let mut st = kernel.state.lock();
        st.proc_exited(pid);
        match result {
            // A shutdown unwinds a body out of its wait, so the token is
            // elsewhere and the gate stays `EXIT`; any other way out of the
            // body still holds the token.
            Err(p) if p.is::<ShutdownSignal>() => return,
            Err(p) => st.panic = Some(p),
            Ok(()) => {}
        }
        st.idle.push(me.clone());
        drop(st);
        kernel.drive(Driver::Exiting);
    }
}

// ---------------------------------------------------------------------------
// Ctx: the process-side API
// ---------------------------------------------------------------------------

/// The execution context handed to every simulated process.
///
/// In a thread process, the methods that block (`sleep`, `recv`, `call`,
/// `park`) pass the run token on and resume when the corresponding event
/// fires. In an [`Actor`] they panic: an actor blocks
/// only by returning a [`Wait`].
pub struct Ctx {
    kernel: Arc<Kernel>,
    pid: Pid,
    /// The command word of the thread's token gate; `None` for an actor,
    /// which has no thread to park.
    gate: Option<Arc<AtomicU8>>,
    rng: StdRng,
    name: String,
    /// Current trace context; spans started with [`Ctx::span_begin`] are
    /// parented under it. Not inherited on spawn — infrastructure code
    /// forwards it explicitly inside its messages.
    trace_ctx: TraceCtx,
}

impl fmt::Debug for Ctx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ctx").field("pid", &self.pid).field("name", &self.name).finish()
    }
}

impl Ctx {
    /// This process's id.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// This process's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.kernel.state.lock().now
    }

    /// Deterministic per-process random number generator.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Emits a trace line when `SIM_TRACE=1`.
    pub fn trace(&self, msg: impl AsRef<str>) {
        let st = self.kernel.state.lock();
        if st.trace {
            eprintln!("[{}] {}: {}", st.now, self.name, msg.as_ref());
        }
    }

    // --- observability -----------------------------------------------------
    //
    // All of these are no-ops when no tracer / metrics registry is installed
    // on the kernel, and recording itself is pure bookkeeping: no virtual
    // time, no events, no RNG — instrumented runs stay deterministic and
    // event-for-event identical to uninstrumented ones.

    /// Current time plus the installed tracer, fetched under one lock.
    fn tracer_now(&self) -> (SimTime, Option<Tracer>) {
        let st = self.kernel.state.lock();
        (st.now, st.tracer.clone())
    }

    /// This process's current trace context (the parent for new spans).
    pub fn trace_ctx(&self) -> TraceCtx {
        self.trace_ctx
    }

    /// Replaces the current trace context, returning the previous one so
    /// callers can scope a context and restore it.
    pub fn set_trace_ctx(&mut self, tc: TraceCtx) -> TraceCtx {
        std::mem::replace(&mut self.trace_ctx, tc)
    }

    /// Begins a span under the current trace context. Returns
    /// [`SpanId::NONE`] (and records nothing) when no tracer is installed.
    pub fn span_begin(&self, name: &str, cat: &str) -> SpanId {
        self.span_begin_under(self.trace_ctx.span, name, cat)
    }

    /// Begins a span under an explicit parent (e.g. a span id carried in a
    /// request message).
    pub fn span_begin_under(&self, parent: SpanId, name: &str, cat: &str) -> SpanId {
        let (now, tracer) = self.tracer_now();
        match tracer {
            Some(t) => t.begin(now, self.pid.0, &self.name, parent, name, cat),
            None => SpanId::NONE,
        }
    }

    /// Ends a span at the current virtual time (no-op for
    /// [`SpanId::NONE`]).
    pub fn span_end(&self, id: SpanId) {
        if id.is_none() {
            return;
        }
        let (now, tracer) = self.tracer_now();
        if let Some(t) = tracer {
            t.end(id, now);
        }
    }

    /// Attaches a `key = value` annotation to a span. `value` is formatted
    /// only when a tracer holds the span, so an untraced run pays nothing.
    pub fn span_annotate(&self, id: SpanId, key: &str, value: impl fmt::Display) {
        if id.is_none() {
            return;
        }
        if let Some(t) = self.kernel.state.lock().tracer.clone() {
            t.annotate(id, key, value);
        }
    }

    /// Records a point event under the current trace context.
    pub fn span_instant(&self, name: &str, cat: &str) -> SpanId {
        let (now, tracer) = self.tracer_now();
        match tracer {
            Some(t) => t.instant(now, self.pid.0, &self.name, self.trace_ctx.span, name, cat),
            None => SpanId::NONE,
        }
    }

    /// The installed metric sink, if any.
    pub fn metrics(&self) -> Option<MetricsRegistry> {
        self.kernel.state.lock().metrics.clone()
    }

    /// The installed span collector, if any.
    pub fn tracer(&self) -> Option<Tracer> {
        self.kernel.state.lock().tracer.clone()
    }

    /// Increments the counter named `name` (no-op without a registry).
    pub fn metric_incr(&self, name: &str) {
        if let Some(m) = self.metrics() {
            m.incr(name);
        }
    }

    /// Adds `n` to the counter named `name` (no-op without a registry).
    pub fn metric_add(&self, name: &str, n: u64) {
        if let Some(m) = self.metrics() {
            m.add(name, n);
        }
    }

    /// Records one observation into the histogram named `name` (no-op
    /// without a registry).
    pub fn metric_record(&self, name: &str, d: Duration) {
        if let Some(m) = self.metrics() {
            m.record(name, d);
        }
    }

    /// Appends `(now, value)` to the time series named `name` (no-op
    /// without a registry) — gauge-style measurements such as queue depths
    /// or pool sizes, stamped with virtual time.
    pub fn metric_push(&self, name: &str, value: f64) {
        if let Some(m) = self.metrics() {
            let now = self.now();
            m.series(name).push(now, value);
        }
    }

    /// Checked on entry to every blocking call.
    ///
    /// # Panics
    ///
    /// Panics in an actor, naming it, the `call` it made and what to do
    /// `instead`.
    fn must_be_thread(&self, call: &str, instead: &str) {
        assert!(
            self.gate.is_some(),
            "actor {} called blocking Ctx::{call}; an actor never blocks mid-function: {instead}",
            self.name
        );
    }

    /// Called with this process's wait registered: drives the scheduler
    /// and, unless the next pick is this process, parks until it is.
    fn yield_to_kernel(&mut self) {
        let cmd = self.gate.as_deref().expect("blocking calls start with must_be_thread");
        if !self.kernel.drive(Driver::Blocked(self.pid)) && !Gate::wait(cmd) {
            // resume_unwind skips the panic hook: shutdown is not an error.
            std::panic::resume_unwind(Box::new(ShutdownSignal));
        }
    }

    /// Advances this process's clock by `d` (e.g. network or think time).
    pub fn sleep(&mut self, d: Duration) {
        self.must_be_thread("sleep", "return Wait::Sleep from on_wake");
        self.kernel.state.lock().begin_sleep(self.pid, d);
        self.yield_to_kernel();
    }

    /// Models CPU work taking `d` of virtual time.
    ///
    /// Semantically identical to [`Ctx::sleep`], but code reads better; use
    /// [`crate::cpu::CpuHost`] instead when the CPU is *shared* and
    /// contention matters.
    pub fn compute(&mut self, d: Duration) {
        self.sleep(d);
    }

    /// Creates a mailbox owned by this process (closed automatically when the
    /// process exits).
    pub fn mailbox(&mut self, name: &str) -> Addr {
        create_mailbox(&self.kernel, name, Some(self.pid))
    }

    /// Creates an unowned mailbox that outlives this process.
    pub fn shared_mailbox(&mut self, name: &str) -> Addr {
        create_mailbox(&self.kernel, name, None)
    }

    /// Closes a mailbox; further sends to it are dropped.
    pub fn close_mailbox(&mut self, addr: Addr) {
        let mut st = self.kernel.state.lock();
        if let Some(mb) = st.mailboxes.get_mut(&addr.0) {
            mb.closed = true;
            mb.queue.clear();
        }
    }

    /// Sends `msg` to `to`, arriving after `latency`.
    pub fn send(&mut self, to: Addr, msg: Msg, latency: Duration) {
        let mut st = self.kernel.state.lock();
        let at = st.now + latency;
        st.push_event(at, EventKind::Deliver { mailbox: to.0, msg });
    }

    /// Receives the next message from `mb`, blocking until one arrives.
    ///
    /// # Panics
    ///
    /// Panics if the mailbox is closed or another process is already
    /// receiving on it.
    pub fn recv(&mut self, mb: Addr) -> Msg {
        self.must_be_thread("recv", "return Wait::Recv from on_wake");
        loop {
            if let Some(m) = self.kernel.state.lock().begin_recv(self.pid, mb, None) {
                return m;
            }
            self.yield_to_kernel();
            if let Some(m) = self.kernel.state.lock().end_recv(self.pid, mb) {
                return m;
            }
            // Spurious wake (e.g. mailbox closed under us): retry.
        }
    }

    /// Receives with a timeout; `None` means the timeout expired first.
    pub fn recv_timeout(&mut self, mb: Addr, timeout: Duration) -> Option<Msg> {
        self.must_be_thread("recv_timeout", "return Wait::RecvTimeout from on_wake");
        if let Some(m) = self.kernel.state.lock().begin_recv(self.pid, mb, Some(timeout)) {
            return Some(m);
        }
        self.yield_to_kernel();
        self.kernel.state.lock().end_recv(self.pid, mb)
    }

    /// Issues a synchronous RPC: sends `req` to `to` and blocks for the
    /// response. The request travels with `latency`; the response latency is
    /// chosen by the server.
    ///
    /// # Panics
    ///
    /// Panics if the response cannot be downcast to `Resp`.
    pub fn call<Req, Resp>(&mut self, to: Addr, req: Req, latency: Duration) -> Resp
    where
        Req: Any + Send,
        Resp: Any + Send,
    {
        self.must_be_thread("call", "send the request and return Wait::Recv on its reply mailbox");
        self.call_sized::<Req, Resp>(to, req, latency, 0)
    }

    /// Like [`Ctx::call`] but carries a simulated payload size.
    pub fn call_sized<Req, Resp>(
        &mut self,
        to: Addr,
        req: Req,
        latency: Duration,
        size: usize,
    ) -> Resp
    where
        Req: Any + Send,
        Resp: Any + Send,
    {
        self.must_be_thread(
            "call_sized",
            "send the request and return Wait::Recv on its reply mailbox",
        );
        let reply_to = self.mailbox("rpc-reply");
        self.send(to, Msg::sized(Request { reply_to, body: Box::new(req) }, size), latency);
        let resp = self.recv(reply_to);
        self.close_mailbox(reply_to);
        self.drop_mailbox(reply_to);
        resp.take::<Resp>()
    }

    /// Issues an RPC with a timeout; `None` means no reply arrived in time
    /// (e.g. the server crashed). A late reply is silently dropped.
    pub fn call_timeout<Req, Resp>(
        &mut self,
        to: Addr,
        req: Req,
        latency: Duration,
        timeout: Duration,
    ) -> Option<Resp>
    where
        Req: Any + Send,
        Resp: Any + Send,
    {
        self.must_be_thread(
            "call_timeout",
            "send the request and return Wait::Recv on its reply mailbox",
        );
        let reply_to = self.mailbox("rpc-reply");
        self.send(to, Msg::new(Request { reply_to, body: Box::new(req) }), latency);
        let resp = self.recv_timeout(reply_to, timeout);
        self.close_mailbox(reply_to);
        self.drop_mailbox(reply_to);
        resp.map(|m| m.take::<Resp>())
    }

    /// Replies to an RPC received as a [`Request`].
    pub fn reply<Resp: Any + Send>(&mut self, reply_to: Addr, resp: Resp, latency: Duration) {
        self.send(reply_to, Msg::new(resp), latency);
    }

    /// Removes a mailbox entirely (frees its id).
    fn drop_mailbox(&mut self, addr: Addr) {
        let mut st = self.kernel.state.lock();
        st.mailboxes.remove(&addr.0);
        // Reply mailboxes come and go in stack order, so this is the last.
        let owned = &mut st.procs.get_mut(&self.pid.0).expect("own slot").owned;
        if let Some(i) = owned.iter().rposition(|id| *id == addr.0) {
            owned.swap_remove(i);
        }
    }

    /// Spawns a child thread process, runnable at the current virtual time
    /// (see [`Sim::spawn`]).
    pub fn spawn<F>(&mut self, name: &str, f: F) -> Pid
    where
        F: FnOnce(&mut Ctx) + Send + 'static,
    {
        spawn_process(&self.kernel, name, false, f)
    }

    /// Spawns a daemon process (see [`Sim::spawn_daemon`]).
    pub fn spawn_daemon<F>(&mut self, name: &str, f: F) -> Pid
    where
        F: FnOnce(&mut Ctx) + Send + 'static,
    {
        spawn_process(&self.kernel, name, true, f)
    }

    /// Spawns a child actor (see [`Sim::spawn_actor`]).
    pub fn spawn_actor(&mut self, name: &str, actor: impl Actor) -> Pid {
        spawn_actor(&self.kernel, name, false, Box::new(actor))
    }

    /// Spawns a daemon actor (see [`Sim::spawn_daemon`]).
    pub fn spawn_daemon_actor(&mut self, name: &str, actor: impl Actor) -> Pid {
        spawn_actor(&self.kernel, name, true, Box::new(actor))
    }

    /// Kills another process (see [`Sim::kill`]).
    pub fn kill(&mut self, pid: Pid) {
        kill_process(&self.kernel, pid);
    }

    /// Annotates this process as about to block waiting for `resource`.
    ///
    /// Synchronization primitives call this just before blocking; the
    /// annotation is cleared automatically when the process is woken (or
    /// when a pending park permit makes the block a no-op). It feeds the
    /// wait-for graph behind [`Sim::deadlock_report`].
    pub fn annotate_wait(
        &mut self,
        resource: u64,
        kind: WaitKind,
        resource_name: impl Into<String>,
        site: impl Into<String>,
    ) {
        let mut st = self.kernel.state.lock();
        if let Some(p) = st.procs.get_mut(&self.pid.0) {
            p.waiting_on = Some(WaitAnnotation {
                resource,
                resource_name: resource_name.into(),
                kind,
                site: site.into(),
            });
        }
    }

    /// Registers this process as the holder of `resource` (a lock or
    /// semaphore-like primitive identified by a stable id).
    pub fn resource_acquired(&mut self, resource: u64, name: &str) {
        let mut st = self.kernel.state.lock();
        st.holders.insert(resource, (self.pid, name.to_string()));
    }

    /// Records a direct ownership handoff of `resource` to `to` (e.g. FIFO
    /// lock transfer on release).
    pub fn resource_passed(&mut self, resource: u64, to: Pid, name: &str) {
        let mut st = self.kernel.state.lock();
        st.holders.insert(resource, (to, name.to_string()));
    }

    /// Releases `resource` if this process holds it.
    pub fn resource_released(&mut self, resource: u64) {
        let mut st = self.kernel.state.lock();
        if st.holders.get(&resource).is_some_and(|(h, _)| *h == self.pid) {
            st.holders.remove(&resource);
        }
    }

    /// Blocks until another process calls [`Ctx::unpark`] with this pid.
    /// A pending permit (unpark before park) is consumed immediately.
    pub fn park(&mut self) {
        self.must_be_thread("park", "only a thread process can park");
        {
            let mut st = self.kernel.state.lock();
            let p = st.procs.get_mut(&self.pid.0).expect("own slot");
            if p.park_permit {
                p.park_permit = false;
                p.waiting_on = None;
                return;
            }
            p.epoch += 1;
            p.blocked = BlockState::Parked;
        }
        self.yield_to_kernel();
    }

    /// Makes a parked process runnable, or stores a permit if it is not
    /// parked yet.
    pub fn unpark(&mut self, pid: Pid) {
        let mut st = self.kernel.state.lock();
        let parked = match st.procs.get_mut(&pid.0) {
            Some(p) => {
                if p.blocked == BlockState::Parked {
                    true
                } else {
                    if p.blocked != BlockState::Exited {
                        p.park_permit = true;
                    }
                    false
                }
            }
            None => false,
        };
        if parked {
            st.make_runnable(pid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sim_is_idle() {
        let mut sim = Sim::new(1);
        let out = sim.run_until_idle();
        out.expect_quiescent();
        assert_eq!(out.time, SimTime::ZERO);
    }

    #[test]
    fn sleep_advances_virtual_time() {
        let mut sim = Sim::new(1);
        sim.spawn("sleeper", |ctx| {
            ctx.sleep(Duration::from_millis(10));
            ctx.sleep(Duration::from_millis(5));
        });
        let out = sim.run_until_idle();
        out.expect_quiescent();
        assert_eq!(out.time, SimTime::from_millis(15));
    }

    #[test]
    fn messages_arrive_after_latency() {
        let mut sim = Sim::new(1);
        let mb = sim.mailbox("mb");
        sim.spawn("rx", move |ctx| {
            let m = ctx.recv(mb);
            assert_eq!(m.take::<&'static str>(), "hello");
            assert_eq!(ctx.now(), SimTime::from_millis(2));
        });
        sim.spawn("tx", move |ctx| {
            ctx.send(mb, Msg::new("hello"), Duration::from_millis(2));
        });
        sim.run_until_idle().expect_quiescent();
    }

    #[test]
    fn queued_message_received_without_waiting() {
        let mut sim = Sim::new(1);
        let mb = sim.mailbox("mb");
        sim.spawn("tx", move |ctx| {
            ctx.send(mb, Msg::new(1u8), Duration::ZERO);
            ctx.send(mb, Msg::new(2u8), Duration::ZERO);
        });
        sim.spawn("rx", move |ctx| {
            ctx.sleep(Duration::from_millis(1));
            assert_eq!(ctx.recv(mb).take::<u8>(), 1);
            assert_eq!(ctx.recv(mb).take::<u8>(), 2);
            assert_eq!(ctx.now(), SimTime::from_millis(1));
        });
        sim.run_until_idle().expect_quiescent();
    }

    #[test]
    fn recv_timeout_expires() {
        let mut sim = Sim::new(1);
        let mb = sim.mailbox("mb");
        sim.spawn("rx", move |ctx| {
            let r = ctx.recv_timeout(mb, Duration::from_millis(3));
            assert!(r.is_none());
            assert_eq!(ctx.now(), SimTime::from_millis(3));
            // A message after the timeout is still receivable later.
            let m = ctx.recv(mb);
            assert_eq!(m.take::<u8>(), 9);
        });
        sim.spawn("tx", move |ctx| {
            ctx.sleep(Duration::from_millis(10));
            ctx.send(mb, Msg::new(9u8), Duration::ZERO);
        });
        sim.run_until_idle().expect_quiescent();
    }

    #[test]
    fn recv_timeout_receives_in_time() {
        let mut sim = Sim::new(1);
        let mb = sim.mailbox("mb");
        sim.spawn("tx", move |ctx| {
            ctx.send(mb, Msg::new(5u8), Duration::from_millis(1));
        });
        sim.spawn("rx", move |ctx| {
            let r = ctx.recv_timeout(mb, Duration::from_millis(100));
            assert_eq!(r.expect("delivered").take::<u8>(), 5);
            assert_eq!(ctx.now(), SimTime::from_millis(1));
        });
        sim.run_until_idle().expect_quiescent();
    }

    #[test]
    fn rpc_round_trip() {
        let mut sim = Sim::new(1);
        let server = sim.mailbox("server");
        sim.spawn("server", move |ctx| {
            for _ in 0..3 {
                let req = ctx.recv(server).take::<Request>();
                let (reply_to, n) = req.take::<u32>();
                ctx.reply(reply_to, n * 2, Duration::from_micros(100));
            }
        });
        sim.spawn("client", move |ctx| {
            for i in 0..3u32 {
                let r: u32 = ctx.call(server, i, Duration::from_micros(100));
                assert_eq!(r, i * 2);
            }
            // 3 calls x 200us round trip
            assert_eq!(ctx.now(), SimTime::from_nanos(600_000));
        });
        sim.run_until_idle().expect_quiescent();
    }

    #[test]
    fn call_timeout_on_dead_server() {
        let mut sim = Sim::new(1);
        let server = sim.mailbox("server");
        // No server process: requests pile up unanswered.
        sim.spawn("client", move |ctx| {
            let r: Option<u32> = ctx.call_timeout(
                server,
                1u32,
                Duration::from_micros(100),
                Duration::from_millis(5),
            );
            assert!(r.is_none());
            assert_eq!(ctx.now(), SimTime::from_millis(5));
        });
        sim.run_until_idle().expect_quiescent();
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Sim::new(1);
        sim.spawn("sleeper", |ctx| {
            ctx.sleep(Duration::from_secs(100));
        });
        let out = sim.run_until(SimTime::from_secs(1));
        assert_eq!(out.time, SimTime::from_secs(1));
        assert_eq!(out.blocked.len(), 1);
        // Resume to the end.
        let out = sim.run_until_idle();
        out.expect_quiescent();
        assert_eq!(out.time, SimTime::from_secs(100));
    }

    #[test]
    fn deadlock_is_reported() {
        let mut sim = Sim::new(1);
        let mb = sim.mailbox("never");
        sim.spawn("stuck", move |ctx| {
            let _ = ctx.recv(mb);
        });
        let out = sim.run_until_idle();
        assert_eq!(out.blocked, vec!["stuck".to_string()]);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn process_panic_propagates() {
        let mut sim = Sim::new(1);
        sim.spawn("bad", |_ctx| panic!("boom"));
        sim.run_until_idle();
    }

    #[test]
    fn kill_blocked_process() {
        let mut sim = Sim::new(1);
        let mb = sim.mailbox("never");
        let pid = sim.spawn("victim", move |ctx| {
            let _ = ctx.recv(mb);
            unreachable!("killed before any message");
        });
        sim.spawn("killer", move |ctx| {
            ctx.sleep(Duration::from_millis(1));
            ctx.kill(pid);
        });
        let out = sim.run_until_idle();
        out.expect_quiescent();
        assert_eq!(sim.live_processes(), 0);
    }

    #[test]
    fn messages_to_dead_process_mailbox_are_dropped() {
        let mut sim = Sim::new(1);
        // The victim owns its inbox; when it exits the inbox closes and
        // later sends are dropped instead of piling up.
        let inbox_cell: Arc<Mutex<Option<Addr>>> = Arc::new(Mutex::new(None));
        let cell = inbox_cell.clone();
        sim.spawn("victim", move |ctx| {
            let inbox = ctx.mailbox("victim-inbox");
            *cell.lock() = Some(inbox);
            // Exits immediately; inbox closes.
        });
        let cell = inbox_cell.clone();
        sim.spawn("sender", move |ctx| {
            ctx.sleep(Duration::from_millis(1));
            let inbox = cell.lock().take().expect("victim ran first");
            ctx.send(inbox, Msg::new(1u8), Duration::ZERO);
            ctx.sleep(Duration::from_millis(1));
        });
        sim.run_until_idle().expect_quiescent();
    }

    #[test]
    fn spawn_from_process() {
        let mut sim = Sim::new(1);
        let mb = sim.mailbox("mb");
        sim.spawn("parent", move |ctx| {
            ctx.spawn("child", move |c| {
                c.sleep(Duration::from_millis(2));
                c.send(mb, Msg::new(7u8), Duration::ZERO);
            });
            let m = ctx.recv(mb);
            assert_eq!(m.take::<u8>(), 7);
            assert_eq!(ctx.now(), SimTime::from_millis(2));
        });
        sim.run_until_idle().expect_quiescent();
    }

    #[test]
    fn park_unpark_with_permit() {
        let mut sim = Sim::new(1);
        sim.spawn("main", move |ctx| {
            let me = ctx.pid();
            ctx.spawn("waker", move |c| {
                c.unpark(me); // permit stored before the park
            });
            ctx.sleep(Duration::from_millis(1));
            ctx.park(); // consumes the permit, no block
            assert_eq!(ctx.now(), SimTime::from_millis(1));
        });
        sim.run_until_idle().expect_quiescent();
    }

    #[test]
    fn park_then_unpark() {
        let mut sim = Sim::new(1);
        sim.spawn("a", move |ctx| {
            let me = ctx.pid();
            ctx.spawn("waker", move |c| {
                c.sleep(Duration::from_millis(4));
                c.unpark(me);
            });
            ctx.park();
            assert_eq!(ctx.now(), SimTime::from_millis(4));
        });
        sim.run_until_idle().expect_quiescent();
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn run(seed: u64) -> Vec<u64> {
            let mut sim = Sim::new(seed);
            let mb = sim.mailbox("mb");
            let log: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
            for i in 0..10u64 {
                let log = log.clone();
                sim.spawn(&format!("w{i}"), move |ctx| {
                    use rand::RngExt;
                    let jitter: u64 = ctx.rng().random_range(0..1000);
                    ctx.sleep(Duration::from_micros(jitter));
                    ctx.send(mb, Msg::new(i), Duration::from_micros(50));
                    log.lock().push(ctx.now().as_nanos());
                });
            }
            let log2 = log.clone();
            sim.spawn("collector", move |ctx| {
                for _ in 0..10 {
                    let m = ctx.recv(mb);
                    log2.lock().push(m.take::<u64>());
                }
            });
            sim.run_until_idle().expect_quiescent();
            let v = log.lock().clone();
            v
        }
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b, "same seed must give identical traces");
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn many_processes() {
        let mut sim = Sim::new(3);
        let mb = sim.mailbox("sink");
        const N: u64 = 300;
        for i in 0..N {
            sim.spawn(&format!("w{i}"), move |ctx| {
                ctx.sleep(Duration::from_micros(i));
                ctx.send(mb, Msg::new(i), Duration::from_micros(10));
            });
        }
        sim.spawn("sink", move |ctx| {
            let mut sum = 0u64;
            for _ in 0..N {
                sum += ctx.recv(mb).take::<u64>();
            }
            assert_eq!(sum, N * (N - 1) / 2);
        });
        sim.run_until_idle().expect_quiescent();
    }

    #[test]
    fn zero_latency_send_still_ordered() {
        let mut sim = Sim::new(1);
        let mb = sim.mailbox("mb");
        sim.spawn("tx", move |ctx| {
            for i in 0..5u32 {
                ctx.send(mb, Msg::new(i), Duration::ZERO);
            }
        });
        sim.spawn("rx", move |ctx| {
            for i in 0..5u32 {
                assert_eq!(ctx.recv(mb).take::<u32>(), i);
            }
        });
        sim.run_until_idle().expect_quiescent();
    }

    /// Walks through every `Wait`, logging how each one ended.
    struct Tour {
        inbox: Addr,
        log: Arc<Mutex<Vec<(String, SimTime)>>>,
    }

    impl Actor for Tour {
        fn on_wake(&mut self, ctx: &mut Ctx, wake: Wake) -> Wait {
            let (what, next) = match wake {
                Wake::Start => ("start", Wait::RecvTimeout(self.inbox, Duration::from_millis(2))),
                Wake::Timeout => ("timeout", Wait::Recv(self.inbox)),
                Wake::Msg(m) => {
                    assert_eq!(m.take::<u8>(), 7);
                    ("msg", Wait::Sleep(Duration::from_millis(1)))
                }
                Wake::Slept => ("slept", Wait::Exit),
            };
            self.log.lock().push((what.to_string(), ctx.now()));
            next
        }
    }

    #[test]
    fn each_wait_ends_in_its_wake() {
        let mut sim = Sim::new(1);
        let inbox = sim.mailbox("tour");
        let log = Arc::new(Mutex::new(Vec::new()));
        sim.spawn_actor("tour", Tour { inbox, log: log.clone() });
        sim.spawn("tx", move |ctx| {
            ctx.sleep(Duration::from_millis(5));
            ctx.send(inbox, Msg::new(7u8), Duration::ZERO);
        });
        let out = sim.run_until_idle();
        out.expect_quiescent();
        assert_eq!(out.time, SimTime::from_millis(6));
        assert_eq!(sim.live_processes(), 0);
        let at = |what: &str, ms| (what.to_string(), SimTime::from_millis(ms));
        assert_eq!(*log.lock(), [at("start", 0), at("timeout", 2), at("msg", 5), at("slept", 6)]);
    }

    #[test]
    fn exit_closes_exactly_the_owned_mailboxes() {
        let mut sim = Sim::new(1);
        let server = sim.mailbox("server");
        sim.spawn_daemon("server", move |ctx| loop {
            let (reply_to, n) = ctx.recv(server).take::<Request>().take::<u32>();
            ctx.reply(reply_to, n, Duration::ZERO);
        });
        let ids = Arc::new(Mutex::new(None));
        let ids2 = ids.clone();
        let pid = sim.spawn("owner", move |ctx| {
            let mine = ctx.mailbox("mine");
            for i in 0..3u32 {
                let _: u32 = ctx.call(server, i, Duration::ZERO); // reply mailboxes come and go
            }
            let shared = ctx.shared_mailbox("shared");
            *ids2.lock() = Some((mine, shared));
            let _ = ctx.recv(mine);
        });
        sim.run_until_idle();
        let (mine, shared) = ids.lock().expect("owner ran");
        {
            let st = sim.kernel.state.lock();
            assert_eq!(st.procs[&pid.0].owned, [mine.0], "dropped reply mailboxes are forgotten");
        }
        sim.kill(pid);
        let st = sim.kernel.state.lock();
        assert!(st.mailboxes[&mine.0].closed);
        assert!(!st.mailboxes[&shared.0].closed);
        assert!(!st.mailboxes[&server.0].closed);
    }
}
