//! The discrete-event simulation kernel.
//!
//! Exactly one process runs at any moment, and everything runs on the
//! thread that called `Sim::run_*` (the *run thread*), which runs the
//! scheduler loop. There are two kinds of process:
//!
//! - a **thread process** ([`Sim::spawn`]) is a closure on a stack of its
//!   own, a stackful coroutine: the loop switches to it when it is picked.
//!   Blocking operations — [`Ctx::sleep`], [`Ctx::recv`], [`Ctx::call`] —
//!   register the wait and switch back to the loop, which resumes the body
//!   where it blocked once the wait ends. A finished body's stack serves the
//!   next spawn. For code that blocks mid-function: application bodies,
//!   clients, drivers.
//! - an **actor** ([`Sim::spawn_actor`]) is a value the loop invokes
//!   inline: [`Actor::on_wake`] runs to completion and returns the one
//!   thing it waits for next ([`Wait`]). No stack of its own. For
//!   message-driven servers, which only ever block at the top of a loop.
//!
//! Each [`Wait`] is exactly one of the blocking primitives, and both kinds
//! share the block-state, timer, mailbox and runnable-queue bookkeeping, so
//! a loop ported from one kind to the other pushes the same events in the
//! same order and meets the scheduler at the same points.
//!
//! Because only one process runs at a time and ties are broken by event
//! sequence numbers, a simulation is **fully deterministic** for a given
//! seed, while application code stays plain imperative Rust (no async).

use std::any::Any;
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe, Location};
use std::rc::Rc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::coro::{Coroutine, Stack, Step, Yielder};
use crate::detect::{StuckProc, WaitAnnotation, WaitKind};
use crate::hash::FxHashMap;
use crate::metrics::MetricsRegistry;
use crate::scheduler::{Decision, FifoScheduler, Scheduler};
use crate::slab::Slab;
use crate::time::SimTime;
use crate::trace::{SpanId, TraceCtx, Tracer};
use crate::wheel::{EntryHandle, EventQueueStats, TimingWheel};

/// Identifier of a simulated process: its index in the kernel's process
/// table, in spawn order. Pids are never reused, because a process's random
/// stream and its trace rows derive from the number.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub(crate) u64);

impl Pid {
    fn idx(self) -> usize {
        self.0 as usize
    }
}

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
///
/// The raw id is a key into the kernel's mailbox slab, `generation << 32 |
/// slot`: a removed mailbox's slot serves the next one created, under the
/// next generation, and the old address reaches neither.
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
    pub body: Box<dyn Any>,
    /// Simulated wire size in bytes.
    pub size: usize,
}

impl Msg {
    /// Creates a message with a zero simulated size.
    pub fn new<T: Any>(body: T) -> Msg {
        Msg { body: Box::new(body), size: 0 }
    }

    /// Creates a message carrying a simulated wire size.
    pub fn sized<T: Any>(body: T, size: usize) -> Msg {
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
    pub body: Box<dyn Any>,
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
/// inline each time the actor's [`Wait`] ends, instead of switching to a
/// stack of its own.
///
/// `on_wake` gets a [`Proc`]: send, reply, spawn, kill, rng, spans and
/// metrics all work, and nothing blocks, because the blocking calls are
/// [`Ctx`]'s alone. An actor blocks only by returning a [`Wait`]; state
/// that a thread would keep in locals across a block lives in its fields.
///
/// # Examples
///
/// ```
/// use simcore::{Actor, Addr, Proc, Sim, Wait, Wake};
/// use std::time::Duration;
///
/// /// Doubles numbers; `inbox` is created on `Start`, as a closure would.
/// struct Doubler { inbox: Addr }
///
/// impl Actor for Doubler {
///     fn on_wake(&mut self, ctx: &mut Proc, wake: Wake) -> Wait {
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
pub trait Actor: 'static {
    /// Handles one wake-up and returns what to wait for next.
    fn on_wake(&mut self, ctx: &mut Proc, wake: Wake) -> Wait;
}

/// An actor at rest in its [`ProcSlot`]: its state, its context, and the
/// wait it last returned (`None` before the first run).
struct ActorCell {
    actor: Box<dyn Actor>,
    ctx: Proc,
    wait: Option<Wait>,
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

enum EventKind {
    /// Wake a process blocked in `sleep`, or time out a blocked `recv`.
    /// Cancelled when the wait ends some other way, so it is never stale.
    Wake { pid: Pid },
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
/// process: a wake for a non-daemon (sleep or recv timeout; every pending
/// wake is live, since a wait that ends another way cancels it), or a
/// delivery to a mailbox a non-daemon is blocked on. Such events are
/// exempt from the stall cutoff in `Kernel::turn` — a client sleeping for an
/// hour is idle, not wedged.
///
/// A free function over the individual tables (rather than a
/// `KernelState` method) so `turn` can consult it while the event
/// queue is borrowed by `peek`.
fn event_can_progress(
    procs: &[ProcSlot],
    mailboxes: &Slab<MailboxState>,
    kind: &EventKind,
) -> bool {
    match kind {
        EventKind::Wake { pid } => !procs[pid.idx()].daemon,
        EventKind::Deliver { mailbox, .. } => mailboxes
            .get_key(*mailbox)
            .and_then(|mb| mb.waiting)
            .is_some_and(|pid| !procs[pid.idx()].daemon),
    }
}

/// Panic payload that unwinds a killed thread process, or one still live
/// when its `Sim` drops.
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

/// What runs when a process is picked.
enum ProcBody {
    /// A thread process whose body has not started: it starts on a stack
    /// from the pool.
    Fresh(Box<dyn FnOnce(&mut Ctx)>),
    /// A thread process suspended in a blocking call.
    Suspended(Coroutine),
    /// An actor at rest.
    Actor(Box<ActorCell>),
}

struct ProcSlot {
    name: String,
    /// `None` while the process runs and once it has exited.
    body: Option<ProcBody>,
    blocked: BlockState,
    /// The pending wake of a sleep or a timed receive; cancelled when the
    /// wait ends another way or the process exits.
    timer: Option<EntryHandle>,
    delivered: Option<Msg>,
    killed: bool,
    park_permit: bool,
    /// Daemon processes (long-lived services) are excluded from the
    /// blocked-process report: a quiescent simulation with only daemons
    /// waiting for requests is not a deadlock.
    daemon: bool,
    /// What this process is blocked on; cleared on wakeup. Feeds the
    /// wait-for graph in [`crate::detect`].
    waiting_on: Option<Waiting>,
    /// Mailboxes this process owns, closed when it exits.
    owned: Vec<u64>,
}

/// What a blocked process waits on, for [`Sim::deadlock_report`].
enum Waiting {
    /// Set by [`Proc::annotate_wait`] or [`Ctx::park`].
    Annotated(WaitAnnotation),
    /// Set by an untimed [`Ctx::call`] that no annotation preceded: the
    /// callee's mailbox and the caller's source location, named only when
    /// a report is built.
    Call(u64, &'static Location<'static>),
}

struct MailboxState {
    /// Borrowed for the kernel's own mailboxes, so an RPC's reply mailbox
    /// costs no allocation for its name.
    name: Cow<'static, str>,
    queue: VecDeque<Msg>,
    waiting: Option<Pid>,
    closed: bool,
}

pub(crate) struct KernelState {
    now: SimTime,
    next_seq: u64,
    events: TimingWheel<EventKind>,
    /// Every process ever spawned, indexed by pid; an exited one keeps its
    /// slot, so iteration is in pid order.
    procs: Vec<ProcSlot>,
    runnable: VecDeque<Pid>,
    /// Mailboxes keyed by [`Addr`]: a removed one frees its slot for the
    /// next, and a stale address finds nothing, like an unknown one.
    mailboxes: Slab<MailboxState>,
    live: usize,
    live_nondaemon: usize,
    trace: bool,
    /// Picks the next runnable process when several are ready at once.
    scheduler: Box<dyn Scheduler>,
    /// Every contended pick, in order; replaying these choices reproduces
    /// the schedule (see [`crate::scheduler::ReplayScheduler`]).
    decisions: Vec<Decision>,
    /// Current holder of each annotated resource (`resource id -> (pid,
    /// name)`), maintained by [`Proc::resource_acquired`] and friends.
    holders: FxHashMap<u64, (Pid, String)>,
    /// Virtual time a non-daemon process last ran; the stall detector in
    /// [`Kernel::turn`] keys off this.
    last_nondaemon_run: SimTime,
    /// Where the current `Sim::run_*` call stops; `None` runs until idle.
    deadline: Option<SimTime>,
    /// Stacks whose body has ended, for the next thread process to start on.
    stacks: Vec<Stack>,
    /// Stacks mapped so far; see [`Sim::stacks_allocated`].
    stacks_allocated: u64,
    /// Switches to a thread process's stack; see [`Sim::resumes`].
    resumes: u64,
    /// Span collector, if observability is enabled ([`Sim::set_tracer`]).
    /// `None` makes every `Ctx::span_*` call a no-op.
    tracer: Option<Tracer>,
    /// Metric sink, if installed ([`Sim::set_metrics`]); `None` makes every
    /// `Ctx::metric_*` call a no-op.
    metrics: Option<MetricsRegistry>,
}

impl KernelState {
    fn push_event(&mut self, time: SimTime, kind: EventKind) -> EntryHandle {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(time, seq, kind)
    }

    fn make_runnable(&mut self, pid: Pid) {
        let p = &mut self.procs[pid.idx()];
        if p.blocked != BlockState::Exited && p.blocked != BlockState::Runnable {
            p.blocked = BlockState::Runnable;
            p.waiting_on = None; // the wait ended
            self.runnable.push_back(pid);
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
            EventKind::Wake { pid } => {
                let p = &mut self.procs[pid.idx()];
                assert!(
                    matches!(p.blocked, BlockState::Sleeping | BlockState::Receiving { .. }),
                    "a wake for {pid}, which is not in a sleep or a timed receive"
                );
                debug_assert!(p.timer.is_some(), "a wake for {pid}, which holds no timer");
                p.timer = None;
                // A recv timeout leaves `delivered` empty — the receiver
                // interprets that as expiry.
                self.make_runnable(pid);
            }
            EventKind::Deliver { mailbox, msg } => {
                let waiter = match self.mailboxes.get_key_mut(mailbox) {
                    Some(mb) if !mb.closed => {
                        if let Some(pid) = mb.waiting.take() {
                            Some((pid, msg))
                        } else {
                            mb.queue.push_back(msg);
                            None
                        }
                    }
                    // Closed, removed or unknown mailbox: the message is
                    // dropped, like a packet to a dead host.
                    _ => None,
                };
                if let Some((pid, msg)) = waiter {
                    let p = &mut self.procs[pid.idx()];
                    p.delivered = Some(msg);
                    // The receive is over: its timeout leaves the wheel.
                    if let Some(timer) = p.timer.take() {
                        self.events.cancel(timer);
                    }
                    self.make_runnable(pid);
                }
            }
        }
    }

    fn proc_exited(&mut self, pid: Pid) {
        let p = &mut self.procs[pid.idx()];
        if p.blocked == BlockState::Exited {
            return;
        }
        let owned = std::mem::take(&mut p.owned);
        if let Some(timer) = p.timer.take() {
            self.events.cancel(timer);
        }
        // Clean a dangling recv registration.
        if let BlockState::Receiving { mailbox } = p.blocked {
            if let Some(mb) = self.mailboxes.get_key_mut(mailbox) {
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
        // A dead process holds nothing.
        if !self.holders.is_empty() {
            self.holders.retain(|_, (holder, _)| *holder != pid);
        }
        for id in owned {
            if let Some(mb) = self.mailboxes.get_key_mut(id) {
                mb.closed = true;
                mb.queue.clear();
            }
        }
    }

    /// Blocks `pid` in a sleep of `d`: the bookkeeping half of
    /// [`Ctx::sleep`] and [`Wait::Sleep`].
    fn begin_sleep(&mut self, pid: Pid, d: Duration) {
        let now = self.now;
        let timer = self.push_event(now + d, EventKind::Wake { pid });
        let p = &mut self.procs[pid.idx()];
        debug_assert!(p.timer.is_none(), "{pid} sleeps with a timer pending");
        p.blocked = BlockState::Sleeping;
        p.timer = Some(timer);
    }

    /// If a message is queued on `mb`, returns it; otherwise registers
    /// `pid` as the waiter (with an optional timeout event) and returns
    /// `None`. The bookkeeping half of [`Ctx::recv`] /
    /// [`Ctx::recv_timeout`] and of [`Wait::Recv`] / [`Wait::RecvTimeout`].
    fn begin_recv(&mut self, pid: Pid, mb: Addr, timeout: Option<Duration>) -> Option<Msg> {
        let now = self.now;
        let q = self
            .mailboxes
            .get_key_mut(mb.0)
            .unwrap_or_else(|| panic!("recv on unknown mailbox {:?}", mb));
        assert!(!q.closed, "recv on closed mailbox {} ({:?})", q.name, mb);
        if let Some(m) = q.queue.pop_front() {
            return Some(m);
        }
        assert!(q.waiting.is_none(), "mailbox {} already has a waiting receiver", q.name);
        q.waiting = Some(pid);
        let timer = timeout.map(|t| self.push_event(now + t, EventKind::Wake { pid }));
        let p = &mut self.procs[pid.idx()];
        debug_assert!(p.timer.is_none(), "{pid} receives with a timer pending");
        p.blocked = BlockState::Receiving { mailbox: mb.0 };
        p.timer = timer;
        None
    }

    /// What a woken receiver finds: the delivered message, or — the
    /// timeout fired first — nothing, and its registration on `mb` is
    /// withdrawn.
    fn end_recv(&mut self, pid: Pid, mb: Addr) -> Option<Msg> {
        let delivered = self.procs[pid.idx()].delivered.take();
        if delivered.is_none() {
            if let Some(q) = self.mailboxes.get_key_mut(mb.0) {
                if q.waiting == Some(pid) {
                    q.waiting = None;
                }
            }
        }
        delivered
    }

    /// What a process woken from an untimed receive finds. Always a
    /// message: an untimed receive pushes no wake event, so only a delivery
    /// makes its process runnable again.
    fn end_untimed_recv(&mut self, pid: Pid, mb: Addr) -> Msg {
        self.end_recv(pid, mb).expect("an untimed recv is woken only by a delivery")
    }
}

// ---------------------------------------------------------------------------
// Kernel and Sim
// ---------------------------------------------------------------------------

pub(crate) struct Kernel {
    state: RefCell<KernelState>,
    seed: u64,
}

impl Kernel {
    /// The scheduler loop, on the run thread: runs every runnable process
    /// to its next block point, fires the next event, and so on until the
    /// run is over. A process body's panic is re-raised here.
    fn turn(self: &Rc<Self>) {
        loop {
            let mut guard = self.state.borrow_mut();
            let st = &mut *guard;
            // Run every currently runnable process to its next block point.
            if let Some(pid) = st.pick_runnable() {
                let p = &mut st.procs[pid.idx()];
                if p.blocked == BlockState::Exited {
                    continue;
                }
                let body = p.body.take().expect("a runnable process is at rest in its slot");
                if p.killed {
                    st.proc_exited(pid);
                    drop(guard);
                    if let Some(panic) = self.retire(body) {
                        resume_unwind(panic);
                    }
                    continue;
                }
                if !p.daemon {
                    st.last_nondaemon_run = st.now;
                }
                let step = match body {
                    ProcBody::Actor(cell) => {
                        drop(guard);
                        self.run_actor(pid, cell);
                        continue;
                    }
                    ProcBody::Fresh(f) => {
                        let name = p.name.clone();
                        let stack = st.stacks.pop().unwrap_or_else(|| {
                            st.stacks_allocated += 1;
                            Stack::new()
                        });
                        st.resumes += 1;
                        drop(guard);
                        let kernel = self.clone();
                        Coroutine::start(stack, move |yielder| {
                            f(&mut Ctx { proc: new_proc(&kernel, pid, &name), yielder });
                        })
                    }
                    ProcBody::Suspended(coroutine) => {
                        st.resumes += 1;
                        drop(guard);
                        coroutine.resume()
                    }
                };
                self.settle(pid, step);
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
                return;
            }
            let (time, _, kind) = st.events.pop().expect("peeked event");
            debug_assert!(time >= st.now, "event in the past");
            st.now = time;
            st.apply_event(kind);
        }
    }

    /// Puts a thread process back after a switch to its stack: at rest in
    /// its slot if it blocked; exited, with its stack back in the pool, if
    /// its body ended — re-raising a panic the body ended in.
    fn settle(&self, pid: Pid, step: Step) {
        let mut st = self.state.borrow_mut();
        match step {
            Step::Suspended(coroutine) => {
                st.procs[pid.idx()].body = Some(ProcBody::Suspended(coroutine));
            }
            Step::Done(stack, done) => {
                st.stacks.push(stack);
                st.proc_exited(pid);
                drop(st);
                if let Err(panic) = done {
                    resume_unwind(panic);
                }
            }
        }
    }

    /// Ends a body taken from the slot of an exited process without running
    /// it on: a suspended thread unwinds on its own stack, which then
    /// returns to the pool; anything else is dropped. Call it with the state
    /// not borrowed. Returns a panic other than the shutdown's that the
    /// unwinding body ended in, for the caller to re-raise.
    fn retire(&self, body: ProcBody) -> Option<Box<dyn Any + Send>> {
        let ProcBody::Suspended(coroutine) = body else {
            return None;
        };
        let (stack, done) = coroutine.kill();
        let mut st = self.state.borrow_mut();
        st.resumes += 1;
        st.stacks.push(stack);
        done.err().filter(|panic| !panic.is::<ShutdownSignal>())
    }

    /// Invokes an actor inline until it blocks or exits: turn how its last
    /// wait ended into a [`Wake`], call it with the state not borrowed,
    /// apply the [`Wait`] it returns, and go round again while a receive
    /// finds a message already queued — what a thread's `recv` fast path
    /// does without yielding.
    fn run_actor(&self, pid: Pid, mut cell: Box<ActorCell>) {
        let mut wake = match cell.wait {
            None => Wake::Start,
            Some(Wait::Sleep(_)) => Wake::Slept,
            Some(Wait::Recv(mb)) => Wake::Msg(self.state.borrow_mut().end_untimed_recv(pid, mb)),
            Some(Wait::RecvTimeout(mb, _)) => {
                self.state.borrow_mut().end_recv(pid, mb).map_or(Wake::Timeout, Wake::Msg)
            }
            Some(Wait::Exit) => unreachable!("an exited actor is never runnable"),
        };
        loop {
            let ActorCell { actor, ctx, .. } = &mut *cell;
            let result = catch_unwind(AssertUnwindSafe(|| actor.on_wake(ctx, wake)));
            let mut st = self.state.borrow_mut();
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
                    st.procs[pid.idx()].body = Some(ProcBody::Actor(cell));
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
///
/// A simulation lives on the thread that made it: `Sim` holds its kernel
/// in an `Rc`, so it is neither `Send` nor `Sync`, and what its processes
/// share needs no lock.
///
/// ```compile_fail,E0277
/// fn assert_send<T: Send>() {}
/// assert_send::<simcore::Sim>();
/// ```
pub struct Sim {
    kernel: Rc<Kernel>,
}

impl fmt::Debug for Sim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.kernel.state.borrow();
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
        Sim {
            kernel: Rc::new(Kernel {
                state: RefCell::new(KernelState {
                    now: SimTime::ZERO,
                    next_seq: 0,
                    events: TimingWheel::new(),
                    procs: Vec::new(),
                    runnable: VecDeque::new(),
                    mailboxes: Slab::new(),
                    live: 0,
                    live_nondaemon: 0,
                    trace,
                    scheduler,
                    decisions: Vec::new(),
                    holders: FxHashMap::default(),
                    last_nondaemon_run: SimTime::ZERO,
                    deadline: None,
                    stacks: Vec::new(),
                    stacks_allocated: 0,
                    resumes: 0,
                    tracer: None,
                    metrics: None,
                }),
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
        self.kernel.state.borrow().events.stats()
    }

    /// Stacks mapped for thread processes. A body starts on a stack whose
    /// last body has ended, returned or killed, and a new one is mapped
    /// only when none is free, so the count is the most thread processes
    /// ever started and not yet ended at once. Exact per seed.
    pub fn stacks_allocated(&self) -> u64 {
        self.kernel.state.borrow().stacks_allocated
    }

    /// Switches from the run thread to a thread process's stack: one to
    /// start each body, one each time a blocking call returns, and one to
    /// unwind a body killed mid-way. The host cost a thread process adds
    /// over an actor, as a count; exact per seed.
    pub fn resumes(&self) -> u64 {
        self.kernel.state.borrow().resumes
    }

    /// Installs a span collector: from now on `Ctx::span_begin` and friends
    /// record into `tracer`. Recording is pure bookkeeping — it consumes no
    /// virtual time, no randomness, and adds no events, so an instrumented
    /// run is event-for-event identical to an uninstrumented one.
    pub fn set_tracer(&self, tracer: &Tracer) {
        self.kernel.state.borrow_mut().tracer = Some(tracer.clone());
    }

    /// Installs a metric sink: from now on `Ctx::metric_incr` /
    /// `Ctx::metric_record` write into `metrics`. Like tracing, recording
    /// never perturbs the simulation.
    pub fn set_metrics(&self, metrics: &MetricsRegistry) {
        self.kernel.state.borrow_mut().metrics = Some(metrics.clone());
    }

    /// The installed span collector, if any.
    pub fn tracer(&self) -> Option<Tracer> {
        self.kernel.state.borrow().tracer.clone()
    }

    /// The installed metric sink, if any.
    pub fn metrics(&self) -> Option<MetricsRegistry> {
        self.kernel.state.borrow().metrics.clone()
    }

    /// The scheduling decisions made so far (contended picks only).
    /// Feeding the choices to a [`crate::scheduler::ReplayScheduler`] on a
    /// fresh `Sim` with the same seed reproduces this run's schedule.
    pub fn decision_trace(&self) -> Vec<Decision> {
        self.kernel.state.borrow().decisions.clone()
    }

    /// Snapshot of the permanently blocked non-daemon processes plus the
    /// resource-holder table, for [`Sim::deadlock_report`].
    pub(crate) fn stuck_snapshot(
        &self,
    ) -> (SimTime, Vec<StuckProc>, FxHashMap<u64, (Pid, String)>) {
        let st = self.kernel.state.borrow();
        let stuck: Vec<StuckProc> = st
            .procs
            .iter()
            .enumerate()
            .filter(|(_, p)| {
                !p.daemon && !matches!(p.blocked, BlockState::Exited | BlockState::Runnable)
            })
            .map(|(id, p)| StuckProc {
                pid: Pid(id as u64),
                name: p.name.clone(),
                block_state: match p.blocked {
                    BlockState::Sleeping => "sleeping".to_string(),
                    BlockState::Receiving { mailbox } => {
                        let name = st.mailboxes.get_key(mailbox).map_or("?", |mb| &mb.name);
                        format!("receiving on {name}")
                    }
                    BlockState::Parked => "parked".to_string(),
                    _ => unreachable!("filtered above"),
                },
                wait: p.waiting_on.as_ref().map(|w| match w {
                    Waiting::Annotated(a) => a.clone(),
                    Waiting::Call(mailbox, site) => WaitAnnotation {
                        resource: *mailbox,
                        resource_name: st
                            .mailboxes
                            .get_key(*mailbox)
                            .map_or_else(|| "?".to_string(), |mb| mb.name.to_string()),
                        kind: WaitKind::Call,
                        site: site.to_string(),
                    },
                }),
            })
            .collect();
        (st.now, stuck, st.holders.clone())
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.kernel.state.borrow().now
    }

    /// Creates an unowned mailbox (never auto-closed).
    pub fn mailbox(&self, name: &str) -> Addr {
        create_mailbox(&self.kernel, Cow::Owned(name.to_owned()), None)
    }

    /// Spawns a thread process. It becomes runnable at the current virtual
    /// time; `f` runs on a stack of its own, a free one if there is one
    /// (see [`Sim::stacks_allocated`]), which the run thread switches to
    /// whenever the process is picked.
    pub fn spawn<F>(&self, name: &str, f: F) -> Pid
    where
        F: FnOnce(&mut Ctx) + 'static,
    {
        spawn_process(&self.kernel, name, false, f)
    }

    /// Spawns a daemon process: a long-lived service that is allowed to be
    /// blocked waiting for requests when the simulation goes quiescent.
    pub fn spawn_daemon<F>(&self, name: &str, f: F) -> Pid
    where
        F: FnOnce(&mut Ctx) + 'static,
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
        self.kernel.state.borrow_mut().deadline = deadline;
        self.kernel.turn();
        let mut st = self.kernel.state.borrow_mut();
        if let Some(d) = deadline {
            if st.now < d {
                st.now = d;
            }
        }
        let blocked = st
            .procs
            .iter()
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
        self.kernel.state.borrow().live
    }
}

impl Drop for Sim {
    fn drop(&mut self) {
        // End every live process in pid order: a thread process that has
        // started unwinds on its own stack, anything else is dropped. Each
        // holds the kernel through its `Ctx`, and the kernel holds it.
        let bodies: Vec<ProcBody> = {
            let mut st = self.kernel.state.borrow_mut();
            (0..st.procs.len() as u64)
                .map(Pid)
                .filter_map(|pid| {
                    let body = st.procs[pid.idx()].body.take();
                    st.proc_exited(pid);
                    body
                })
                .collect()
        };
        for body in bodies {
            // A body that unwinds into some other panic has no `run_*`
            // caller left to re-raise it.
            drop(self.kernel.retire(body));
        }
    }
}

fn create_mailbox(kernel: &Rc<Kernel>, name: Cow<'static, str>, owner: Option<Pid>) -> Addr {
    let mut st = kernel.state.borrow_mut();
    let mb = MailboxState { name, queue: VecDeque::new(), waiting: None, closed: false };
    let id = st.mailboxes.insert_keyed(mb);
    if let Some(pid) = owner {
        st.procs[pid.idx()].owned.push(id);
    }
    Addr(id)
}

fn kill_process(kernel: &Kernel, pid: Pid) {
    let mut st = kernel.state.borrow_mut();
    let Some(p) = st.procs.get_mut(pid.idx()).filter(|p| p.blocked != BlockState::Exited) else {
        return;
    };
    p.killed = true;
    // A runnable process is handled when the kernel pops it from the
    // runnable queue; a blocked one ends here and never runs again.
    if p.blocked != BlockState::Runnable {
        let body = p.body.take();
        st.proc_exited(pid);
        drop(st);
        if let Some(panic) = body.and_then(|body| kernel.retire(body)) {
            resume_unwind(panic);
        }
    }
}

/// The context of process `pid`, with its per-pid random stream.
fn new_proc(kernel: &Rc<Kernel>, pid: Pid, name: &str) -> Proc {
    let seed = kernel.seed ^ pid.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    Proc {
        kernel: kernel.clone(),
        pid,
        rng: StdRng::seed_from_u64(seed),
        name: name.to_string(),
        trace_ctx: TraceCtx::root(),
    }
}

/// Registers a new process under the next pid, runnable at the current
/// virtual time, with the body `body` makes for that pid.
fn insert_proc(
    kernel: &Kernel,
    name: &str,
    daemon: bool,
    body: impl FnOnce(Pid) -> ProcBody,
) -> Pid {
    let mut st = kernel.state.borrow_mut();
    let pid = Pid(st.procs.len() as u64);
    st.procs.push(ProcSlot {
        name: name.to_string(),
        body: Some(body(pid)),
        blocked: BlockState::Runnable,
        timer: None,
        delivered: None,
        killed: false,
        park_permit: false,
        daemon,
        waiting_on: None,
        owned: Vec::new(),
    });
    st.live += 1;
    if !daemon {
        st.live_nondaemon += 1;
    }
    st.runnable.push_back(pid);
    pid
}

fn spawn_actor(kernel: &Rc<Kernel>, name: &str, daemon: bool, actor: Box<dyn Actor>) -> Pid {
    insert_proc(kernel, name, daemon, |pid| {
        ProcBody::Actor(Box::new(ActorCell { actor, ctx: new_proc(kernel, pid, name), wait: None }))
    })
}

fn spawn_process<F>(kernel: &Kernel, name: &str, daemon: bool, f: F) -> Pid
where
    F: FnOnce(&mut Ctx) + 'static,
{
    insert_proc(kernel, name, daemon, |_| ProcBody::Fresh(Box::new(f)))
}

// ---------------------------------------------------------------------------
// Proc and Ctx: the process-side API
// ---------------------------------------------------------------------------

/// What any process may do without blocking: its identity, clock, rng,
/// spans and metrics, messages and mailboxes, spawn and kill, wait
/// annotations, resource bookkeeping and [`Proc::unpark`].
///
/// An [`Actor`] gets a `Proc`, so it cannot block: the blocking calls are
/// [`Ctx`]'s alone, and each of them fails to compile on an actor's
/// context.
///
/// ```compile_fail,E0599
/// # use simcore::{Actor, Proc, Wait, Wake}; use std::time::Duration;
/// struct A;
/// impl Actor for A {
///     fn on_wake(&mut self, ctx: &mut Proc, _: Wake) -> Wait {
///         ctx.sleep(Duration::from_micros(1));
///         Wait::Exit
///     }
/// }
/// ```
///
/// ```compile_fail,E0599
/// # use simcore::{Actor, Proc, Wait, Wake}; use std::time::Duration;
/// struct A;
/// impl Actor for A {
///     fn on_wake(&mut self, ctx: &mut Proc, _: Wake) -> Wait {
///         ctx.compute(Duration::from_micros(1));
///         Wait::Exit
///     }
/// }
/// ```
///
/// ```compile_fail,E0599
/// # use simcore::{Actor, Proc, Wait, Wake};
/// struct A;
/// impl Actor for A {
///     fn on_wake(&mut self, ctx: &mut Proc, _: Wake) -> Wait {
///         let mb = ctx.mailbox("mb");
///         let _ = ctx.recv(mb);
///         Wait::Exit
///     }
/// }
/// ```
///
/// ```compile_fail,E0599
/// # use simcore::{Actor, Proc, Wait, Wake}; use std::time::Duration;
/// struct A;
/// impl Actor for A {
///     fn on_wake(&mut self, ctx: &mut Proc, _: Wake) -> Wait {
///         let mb = ctx.mailbox("mb");
///         let _ = ctx.recv_timeout(mb, Duration::from_micros(1));
///         Wait::Exit
///     }
/// }
/// ```
///
/// ```compile_fail,E0599
/// # use simcore::{Actor, Proc, Wait, Wake}; use std::time::Duration;
/// struct A;
/// impl Actor for A {
///     fn on_wake(&mut self, ctx: &mut Proc, _: Wake) -> Wait {
///         let mb = ctx.shared_mailbox("nobody");
///         let _: u8 = ctx.call(mb, 1u8, Duration::ZERO);
///         Wait::Exit
///     }
/// }
/// ```
///
/// ```compile_fail,E0599
/// # use simcore::{Actor, Proc, Wait, Wake}; use std::time::Duration;
/// struct A;
/// impl Actor for A {
///     fn on_wake(&mut self, ctx: &mut Proc, _: Wake) -> Wait {
///         let mb = ctx.shared_mailbox("nobody");
///         let _: u8 = ctx.call_sized(mb, 1u8, Duration::ZERO, 64);
///         Wait::Exit
///     }
/// }
/// ```
///
/// ```compile_fail,E0599
/// # use simcore::{Actor, Proc, Wait, Wake}; use std::time::Duration;
/// struct A;
/// impl Actor for A {
///     fn on_wake(&mut self, ctx: &mut Proc, _: Wake) -> Wait {
///         let mb = ctx.shared_mailbox("nobody");
///         let _: Option<u8> = ctx.call_timeout(mb, 1u8, Duration::ZERO, Duration::ZERO);
///         Wait::Exit
///     }
/// }
/// ```
///
/// ```compile_fail,E0599
/// # use simcore::{Actor, Proc, Wait, WaitAnnotation, WaitKind, Wake};
/// struct A;
/// impl Actor for A {
///     fn on_wake(&mut self, ctx: &mut Proc, _: Wake) -> Wait {
///         let (resource, kind) = (0, WaitKind::Lock);
///         ctx.park(WaitAnnotation { resource, kind, resource_name: "m".into(), site: "".into() });
///         Wait::Exit
///     }
/// }
/// ```
///
/// Nor can a helper two calls away: a function that blocks needs a
/// [`Ctx`], and an actor has none to pass it.
///
/// ```compile_fail,E0308
/// # use simcore::{Actor, Addr, Ctx, Proc, Wait, Wake}; use std::time::Duration;
/// # const POLL: Duration = Duration::from_millis(1);
/// struct Poller { inbox: Addr, misses: u32 }
/// impl Actor for Poller {
///     fn on_wake(&mut self, ctx: &mut Proc, wake: Wake) -> Wait {
///         if let Wake::Timeout = wake {
///             self.refresh(ctx);
///         }
///         Wait::RecvTimeout(self.inbox, POLL)
///     }
/// }
/// impl Poller {
///     fn refresh(&mut self, ctx: &mut Ctx) {
///         self.misses += 1;
///         backoff(ctx, self.misses);
///     }
/// }
/// fn backoff(ctx: &mut Ctx, misses: u32) {
///     ctx.sleep(POLL * misses);
/// }
/// ```
///
/// Like [`Sim`], a `Proc` never leaves the run thread.
pub struct Proc {
    kernel: Rc<Kernel>,
    pid: Pid,
    rng: StdRng,
    name: String,
    /// Current trace context; spans started with [`Proc::span_begin`] are
    /// parented under it. Not inherited on spawn — infrastructure code
    /// forwards it explicitly inside its messages.
    trace_ctx: TraceCtx,
}

impl fmt::Debug for Proc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Proc").field("pid", &self.pid).field("name", &self.name).finish()
    }
}

impl Proc {
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
        self.kernel.state.borrow().now
    }

    /// Deterministic per-process random number generator.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Emits a trace line when `SIM_TRACE=1`.
    pub fn trace(&self, msg: impl AsRef<str>) {
        let st = self.kernel.state.borrow();
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

    /// Current time plus the installed tracer, fetched under one borrow.
    fn tracer_now(&self) -> (SimTime, Option<Tracer>) {
        let st = self.kernel.state.borrow();
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
        if let Some(t) = self.tracer() {
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
        self.kernel.state.borrow().metrics.clone()
    }

    /// The installed span collector, if any.
    pub fn tracer(&self) -> Option<Tracer> {
        self.kernel.state.borrow().tracer.clone()
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
    /// without a registry) — gauges such as queue depths or pool sizes, and
    /// events a harness counts per second, such as Fig. 8's completions.
    /// The only way to add a point, so every point is stamped by the kernel.
    pub fn metric_push(&self, name: &str, value: f64) {
        if let Some(m) = self.metrics() {
            let now = self.now();
            m.series(name).push(now, value);
        }
    }

    /// Creates a mailbox owned by this process (closed automatically when the
    /// process exits).
    pub fn mailbox(&mut self, name: &str) -> Addr {
        create_mailbox(&self.kernel, Cow::Owned(name.to_owned()), Some(self.pid))
    }

    /// Creates an unowned mailbox that outlives this process.
    pub fn shared_mailbox(&mut self, name: &str) -> Addr {
        create_mailbox(&self.kernel, Cow::Owned(name.to_owned()), None)
    }

    /// Closes a mailbox; further sends to it are dropped.
    pub fn close_mailbox(&mut self, addr: Addr) {
        let mut st = self.kernel.state.borrow_mut();
        if let Some(mb) = st.mailboxes.get_key_mut(addr.0) {
            mb.closed = true;
            mb.queue.clear();
        }
    }

    /// Sends `msg` to `to`, arriving after `latency`.
    pub fn send(&mut self, to: Addr, msg: Msg, latency: Duration) {
        let mut st = self.kernel.state.borrow_mut();
        let at = st.now + latency;
        st.push_event(at, EventKind::Deliver { mailbox: to.0, msg });
    }

    /// Replies to an RPC received as a [`Request`].
    pub fn reply<Resp: Any>(&mut self, reply_to: Addr, resp: Resp, latency: Duration) {
        self.send(reply_to, Msg::new(resp), latency);
    }

    /// Creates the mailbox an RPC's reply comes back to, owned by this
    /// process, until `drop_mailbox` removes it.
    fn reply_mailbox(&mut self) -> Addr {
        create_mailbox(&self.kernel, Cow::Borrowed("rpc-reply"), Some(self.pid))
    }

    /// Removes a mailbox entirely: its slot serves the next mailbox created,
    /// and anything still addressed to it is dropped.
    fn drop_mailbox(&mut self, addr: Addr) {
        let mut st = self.kernel.state.borrow_mut();
        st.mailboxes.remove_key(addr.0);
        // Reply mailboxes come and go in stack order, so this is the last.
        let owned = &mut st.procs[self.pid.idx()].owned;
        if let Some(i) = owned.iter().rposition(|id| *id == addr.0) {
            owned.swap_remove(i);
        }
    }

    /// Spawns a child thread process, runnable at the current virtual time
    /// (see [`Sim::spawn`]).
    pub fn spawn<F>(&mut self, name: &str, f: F) -> Pid
    where
        F: FnOnce(&mut Ctx) + 'static,
    {
        spawn_process(&self.kernel, name, false, f)
    }

    /// Spawns a daemon process (see [`Sim::spawn_daemon`]).
    pub fn spawn_daemon<F>(&mut self, name: &str, f: F) -> Pid
    where
        F: FnOnce(&mut Ctx) + 'static,
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
    /// Call it just before a blocking call when the wait is more than that
    /// call says (an object behind a client, a function behind a
    /// platform); the annotation is cleared when the process is woken. It
    /// feeds the wait-for graph behind [`Sim::deadlock_report`].
    pub fn annotate_wait(
        &mut self,
        resource: u64,
        kind: WaitKind,
        resource_name: impl Into<String>,
        site: impl Into<String>,
    ) {
        let mut st = self.kernel.state.borrow_mut();
        st.procs[self.pid.idx()].waiting_on = Some(Waiting::Annotated(WaitAnnotation {
            resource,
            resource_name: resource_name.into(),
            kind,
            site: site.into(),
        }));
    }

    /// Registers this process as the holder of `resource` (a lock or
    /// semaphore-like primitive identified by a stable id).
    pub fn resource_acquired(&mut self, resource: u64, name: &str) {
        let mut st = self.kernel.state.borrow_mut();
        st.holders.insert(resource, (self.pid, name.to_string()));
    }

    /// Records a direct ownership handoff of `resource` to `to` (e.g. FIFO
    /// lock transfer on release).
    pub fn resource_passed(&mut self, resource: u64, to: Pid, name: &str) {
        let mut st = self.kernel.state.borrow_mut();
        st.holders.insert(resource, (to, name.to_string()));
    }

    /// Releases `resource` if this process holds it.
    pub fn resource_released(&mut self, resource: u64) {
        let mut st = self.kernel.state.borrow_mut();
        if st.holders.get(&resource).is_some_and(|(h, _)| *h == self.pid) {
            st.holders.remove(&resource);
        }
    }

    /// Makes a parked process runnable, or stores a permit if it is not
    /// parked yet.
    pub fn unpark(&mut self, pid: Pid) {
        let mut st = self.kernel.state.borrow_mut();
        let parked = match st.procs.get_mut(pid.idx()) {
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

/// The context of a thread process: a [`Proc`] plus the way back to the
/// scheduler loop, which its blocking calls take. `sleep`, `recv`, `call`
/// and `park` register the wait, switch to the loop and return when the
/// corresponding event fires. Everything else is [`Proc`]'s, through
/// `Deref`.
///
/// Like [`Sim`], a `Ctx` never leaves the run thread:
///
/// ```compile_fail,E0277
/// fn assert_send<T: Send>() {}
/// assert_send::<simcore::Ctx>();
/// ```
pub struct Ctx {
    proc: Proc,
    yielder: Yielder,
}

impl fmt::Debug for Ctx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ctx").field("pid", &self.pid).field("name", &self.name).finish()
    }
}

impl Deref for Ctx {
    type Target = Proc;

    fn deref(&self) -> &Proc {
        &self.proc
    }
}

impl DerefMut for Ctx {
    fn deref_mut(&mut self) -> &mut Proc {
        &mut self.proc
    }
}

impl Ctx {
    /// Called with this process's wait registered: switches back to the
    /// scheduler loop, which switches back here once the wait has ended —
    /// or unwinds the body if the process is killed or its `Sim` drops.
    fn yield_to_kernel(&mut self) {
        if !self.yielder.suspend() {
            // resume_unwind skips the panic hook: shutdown is not an error.
            resume_unwind(Box::new(ShutdownSignal));
        }
    }

    /// Advances this process's clock by `d` (e.g. network or think time).
    pub fn sleep(&mut self, d: Duration) {
        self.kernel.state.borrow_mut().begin_sleep(self.pid, d);
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

    /// Receives the next message from `mb`, blocking until one arrives.
    ///
    /// # Panics
    ///
    /// Panics if the mailbox is closed or another process is already
    /// receiving on it.
    pub fn recv(&mut self, mb: Addr) -> Msg {
        if let Some(m) = self.kernel.state.borrow_mut().begin_recv(self.pid, mb, None) {
            return m;
        }
        self.yield_to_kernel();
        self.kernel.state.borrow_mut().end_untimed_recv(self.pid, mb)
    }

    /// Receives with a timeout; `None` means the timeout expired first.
    pub fn recv_timeout(&mut self, mb: Addr, timeout: Duration) -> Option<Msg> {
        if let Some(m) = self.kernel.state.borrow_mut().begin_recv(self.pid, mb, Some(timeout)) {
            return Some(m);
        }
        self.yield_to_kernel();
        self.kernel.state.borrow_mut().end_recv(self.pid, mb)
    }

    /// Issues a synchronous RPC: sends `req` to `to` and blocks for the
    /// response. The request travels with `latency`; the response latency is
    /// chosen by the server.
    ///
    /// Unless an annotation was set since this process last woke
    /// ([`Proc::annotate_wait`]), the wait is annotated as a
    /// [`WaitKind::Call`] on `to`, named after its mailbox, at the caller's
    /// source location.
    ///
    /// # Panics
    ///
    /// Panics if the response cannot be downcast to `Resp`.
    #[track_caller]
    pub fn call<Req, Resp>(&mut self, to: Addr, req: Req, latency: Duration) -> Resp
    where
        Req: Any,
        Resp: Any,
    {
        self.call_sized::<Req, Resp>(to, req, latency, 0)
    }

    /// Like [`Ctx::call`] but carries a simulated payload size.
    #[track_caller]
    pub fn call_sized<Req, Resp>(
        &mut self,
        to: Addr,
        req: Req,
        latency: Duration,
        size: usize,
    ) -> Resp
    where
        Req: Any,
        Resp: Any,
    {
        let reply_to = self.reply_mailbox();
        self.send(to, Msg::sized(Request { reply_to, body: Box::new(req) }, size), latency);
        {
            let mut st = self.kernel.state.borrow_mut();
            let p = &mut st.procs[self.pid.idx()];
            p.waiting_on.get_or_insert(Waiting::Call(to.0, Location::caller()));
        }
        let resp = self.recv(reply_to);
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
        Req: Any,
        Resp: Any,
    {
        let reply_to = self.reply_mailbox();
        self.send(to, Msg::new(Request { reply_to, body: Box::new(req) }), latency);
        let resp = self.recv_timeout(reply_to, timeout);
        self.drop_mailbox(reply_to);
        resp.map(|m| m.take::<Resp>())
    }

    /// Blocks until another process calls [`Proc::unpark`] with this pid,
    /// annotated with `wait` for [`Sim::deadlock_report`]. A pending permit
    /// (unpark before park) is consumed immediately.
    pub fn park(&mut self, wait: WaitAnnotation) {
        {
            let mut st = self.kernel.state.borrow_mut();
            let p = &mut st.procs[self.pid.idx()];
            if p.park_permit {
                p.park_permit = false;
                return;
            }
            p.blocked = BlockState::Parked;
            p.waiting_on = Some(Waiting::Annotated(wait));
        }
        self.yield_to_kernel();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::Arc;

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

    fn parked() -> WaitAnnotation {
        let site = "test".to_string();
        WaitAnnotation { resource: 0, resource_name: "r".into(), kind: WaitKind::Lock, site }
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
            ctx.park(parked()); // consumes the permit, no block
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
            ctx.park(parked());
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
        fn on_wake(&mut self, ctx: &mut Proc, wake: Wake) -> Wait {
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
            let st = sim.kernel.state.borrow();
            assert_eq!(
                st.procs[pid.idx()].owned,
                [mine.0],
                "dropped reply mailboxes are forgotten"
            );
        }
        sim.kill(pid);
        let st = sim.kernel.state.borrow();
        let closed = |mb: Addr| st.mailboxes.get_key(mb.0).expect("a live mailbox").closed;
        assert!(closed(mine));
        assert!(!closed(shared));
        assert!(!closed(server));
    }

    #[test]
    fn sequential_calls_reuse_one_reply_slot() {
        let mut sim = Sim::new(1);
        let server = sim.mailbox("server");
        sim.spawn_daemon("server", move |ctx| loop {
            let (reply_to, n) = ctx.recv(server).take::<Request>().take::<u32>();
            ctx.reply(reply_to, n + 1, Duration::from_micros(1));
        });
        sim.spawn("client", move |ctx| {
            for i in 0..1_000u32 {
                let r: u32 = ctx.call(server, i, Duration::from_micros(1));
                assert_eq!(r, i + 1);
            }
        });
        sim.run_until_idle().expect_quiescent();
        let st = sim.kernel.state.borrow();
        // The warm high-water mark: the server's inbox and one reply
        // mailbox, whose slot every later call reuses.
        assert_eq!(st.mailboxes.capacity(), 2, "{:?}", st.mailboxes);
        assert_eq!((st.mailboxes.allocated(), st.mailboxes.recycled()), (2, 999));
        assert_eq!(st.mailboxes.len(), 1, "only the server's inbox is left");
    }
}
