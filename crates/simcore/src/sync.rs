//! In-simulation synchronization primitives.
//!
//! These coordinate *simulated processes on the same machine* — the
//! "plain old Java objects" baselines of the paper (e.g. the local
//! Santa Claus solution, or a client joining its cloud threads). They cost
//! (virtually) nothing and resolve contention in deterministic FIFO order.
//!
//! For *distributed* synchronization across cloud threads, use the DSO
//! synchronization objects from the `dso` crate instead.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

use crate::detect::{WaitAnnotation, WaitKind};
use crate::kernel::{Addr, Ctx, Msg, Pid, Sim};

// ---------------------------------------------------------------------------
// Oneshot
// ---------------------------------------------------------------------------

/// Creates a one-shot channel carrying a single `T` between two processes.
///
/// # Examples
///
/// ```
/// use simcore::{Sim, sync::oneshot};
/// use std::time::Duration;
///
/// let mut sim = Sim::new(1);
/// let (tx, rx) = oneshot::<u32>(&sim);
/// sim.spawn("producer", move |ctx| {
///     ctx.sleep(Duration::from_millis(1));
///     tx.send(ctx, 42);
/// });
/// sim.spawn("consumer", move |ctx| {
///     assert_eq!(rx.recv(ctx), 42);
/// });
/// sim.run_until_idle().expect_quiescent();
/// ```
pub fn oneshot<T: 'static>(sim: &Sim) -> (OneshotSender<T>, OneshotReceiver<T>) {
    let mb = sim.mailbox("oneshot");
    (
        OneshotSender { mb, _ty: std::marker::PhantomData },
        OneshotReceiver { mb, _ty: std::marker::PhantomData },
    )
}

/// Creates a one-shot channel from inside a process.
pub fn oneshot_in<T: 'static>(ctx: &mut Ctx) -> (OneshotSender<T>, OneshotReceiver<T>) {
    let mb = ctx.shared_mailbox("oneshot");
    (
        OneshotSender { mb, _ty: std::marker::PhantomData },
        OneshotReceiver { mb, _ty: std::marker::PhantomData },
    )
}

/// Sending half of a one-shot channel.
pub struct OneshotSender<T> {
    mb: Addr,
    _ty: std::marker::PhantomData<fn(T)>,
}

impl<T> fmt::Debug for OneshotSender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OneshotSender").field("mb", &self.mb).finish()
    }
}

impl<T: 'static> OneshotSender<T> {
    /// Delivers the value (instantaneously, in virtual time).
    pub fn send(self, ctx: &mut Ctx, value: T) {
        ctx.send(self.mb, Msg::new(value), std::time::Duration::ZERO);
    }
}

/// Receiving half of a one-shot channel.
pub struct OneshotReceiver<T> {
    mb: Addr,
    _ty: std::marker::PhantomData<fn() -> T>,
}

impl<T> fmt::Debug for OneshotReceiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OneshotReceiver").field("mb", &self.mb).finish()
    }
}

impl<T: 'static> OneshotReceiver<T> {
    /// Blocks until the value arrives.
    pub fn recv(self, ctx: &mut Ctx) -> T {
        let m = ctx.recv(self.mb);
        ctx.close_mailbox(self.mb);
        m.take::<T>()
    }
}

// ---------------------------------------------------------------------------
// Monitor (Java-style)
// ---------------------------------------------------------------------------

#[derive(Default)]
struct MonState {
    /// Resource id for the deadlock report, drawn from the kernel on first
    /// use.
    id: Option<u64>,
    holder: Option<Pid>,
    entry_q: VecDeque<Pid>,
    wait_q: VecDeque<Pid>,
}

/// A Java-style monitor: a mutex with `wait`/`notify`/`notify_all`.
///
/// Lock handoff and wakeups are FIFO, so simulations are deterministic.
/// Operations take negligible virtual time (they model memory operations on
/// a single machine).
///
/// # Examples
///
/// ```
/// use simcore::{Sim, sync::Monitor};
/// use std::cell::Cell;
/// use std::rc::Rc;
/// use std::time::Duration;
///
/// let mut sim = Sim::new(1);
/// let m = Monitor::new("m");
/// let flag = Rc::new(Cell::new(false));
///
/// let (m2, flag2) = (m.clone(), flag.clone());
/// sim.spawn("waiter", move |ctx| {
///     m2.enter(ctx);
///     while !flag2.get() {
///         m2.wait(ctx);
///     }
///     m2.exit(ctx);
/// });
/// sim.spawn("setter", move |ctx| {
///     ctx.sleep(Duration::from_millis(1));
///     m.enter(ctx);
///     flag.set(true);
///     m.notify(ctx);
///     m.exit(ctx);
/// });
/// sim.run_until_idle().expect_quiescent();
/// ```
#[derive(Clone)]
pub struct Monitor {
    name: Rc<String>,
    state: Rc<RefCell<MonState>>,
}

impl fmt::Debug for Monitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Monitor({})", self.name)
    }
}

impl Monitor {
    /// Creates a monitor.
    pub fn new(name: &str) -> Monitor {
        Monitor {
            name: Rc::new(name.to_string()),
            state: Rc::new(RefCell::new(MonState::default())),
        }
    }

    /// Identity of this monitor in the deadlock detector's wait-for graph
    /// (clones share state, hence identity): a kernel-issued id, taken on
    /// first use, so it is the same in every run of one seed.
    fn resource_id(&self, ctx: &mut Ctx) -> u64 {
        *self.state.borrow_mut().id.get_or_insert_with(|| ctx.new_resource_id())
    }

    /// What a process parked in `Monitor::{op}` waits on.
    fn wait_on(&self, ctx: &mut Ctx, kind: WaitKind, op: &str) -> WaitAnnotation {
        WaitAnnotation {
            resource: self.resource_id(ctx),
            resource_name: self.name.to_string(),
            kind,
            site: format!("Monitor::{op}({})", self.name),
        }
    }

    /// Acquires the monitor, blocking while another process holds it.
    pub fn enter(&self, ctx: &mut Ctx) {
        let me = ctx.pid();
        let acquired = {
            let mut st = self.state.borrow_mut();
            if st.holder.is_none() {
                st.holder = Some(me);
                true
            } else {
                assert_ne!(st.holder, Some(me), "monitor {} is not reentrant", self.name);
                st.entry_q.push_back(me);
                false
            }
        };
        if acquired {
            let id = self.resource_id(ctx);
            ctx.resource_acquired(id, &self.name);
            return;
        }
        let wait = self.wait_on(ctx, WaitKind::Lock, "enter");
        ctx.park(wait);
        debug_assert_eq!(self.state.borrow().holder, Some(me), "woken as holder");
    }

    /// Releases the monitor.
    ///
    /// # Panics
    ///
    /// Panics if the calling process does not hold it.
    pub fn exit(&self, ctx: &mut Ctx) {
        let me = ctx.pid();
        let next = {
            let mut st = self.state.borrow_mut();
            assert_eq!(st.holder, Some(me), "exit of monitor {} by non-holder", self.name);
            match st.entry_q.pop_front() {
                Some(n) => {
                    st.holder = Some(n);
                    Some(n)
                }
                None => {
                    st.holder = None;
                    None
                }
            }
        };
        let id = self.resource_id(ctx);
        match next {
            Some(n) => {
                ctx.resource_passed(id, n, &self.name);
                ctx.unpark(n);
            }
            None => ctx.resource_released(id),
        }
    }

    /// Atomically releases the monitor and waits for a notification; the
    /// monitor is re-held when `wait` returns.
    ///
    /// # Panics
    ///
    /// Panics if the calling process does not hold the monitor.
    pub fn wait(&self, ctx: &mut Ctx) {
        let me = ctx.pid();
        let next = {
            let mut st = self.state.borrow_mut();
            assert_eq!(st.holder, Some(me), "wait on monitor {} by non-holder", self.name);
            st.wait_q.push_back(me);
            match st.entry_q.pop_front() {
                Some(n) => {
                    st.holder = Some(n);
                    Some(n)
                }
                None => {
                    st.holder = None;
                    None
                }
            }
        };
        let id = self.resource_id(ctx);
        match next {
            Some(n) => {
                ctx.resource_passed(id, n, &self.name);
                ctx.unpark(n);
            }
            None => ctx.resource_released(id),
        }
        // Parked until a notify moves us to the entry queue *and* the lock
        // is handed to us.
        let wait = self.wait_on(ctx, WaitKind::Condition, "wait");
        ctx.park(wait);
        debug_assert_eq!(self.state.borrow().holder, Some(me), "woken as holder");
    }

    /// Moves one waiter to the entry queue (it will run once the lock frees).
    ///
    /// # Panics
    ///
    /// Panics if the calling process does not hold the monitor.
    pub fn notify(&self, ctx: &mut Ctx) {
        let me = ctx.pid();
        let mut st = self.state.borrow_mut();
        assert_eq!(st.holder, Some(me), "notify on monitor {} by non-holder", self.name);
        if let Some(w) = st.wait_q.pop_front() {
            st.entry_q.push_back(w);
        }
    }

    /// Moves all waiters to the entry queue.
    ///
    /// # Panics
    ///
    /// Panics if the calling process does not hold the monitor.
    pub fn notify_all(&self, ctx: &mut Ctx) {
        let me = ctx.pid();
        let mut st = self.state.borrow_mut();
        assert_eq!(st.holder, Some(me), "notify_all on monitor {} by non-holder", self.name);
        while let Some(w) = st.wait_q.pop_front() {
            st.entry_q.push_back(w);
        }
    }

    /// Runs `f` while holding the monitor. `f` must not call [`Monitor::wait`].
    pub fn with<R>(&self, ctx: &mut Ctx, f: impl FnOnce(&mut Ctx) -> R) -> R {
        self.enter(ctx);
        let r = f(ctx);
        self.exit(ctx);
        r
    }
}

// ---------------------------------------------------------------------------
// WaitGroup
// ---------------------------------------------------------------------------

/// Counts down from `n`; `wait` blocks until zero. The local analogue of
/// joining `n` threads.
#[derive(Clone)]
pub struct WaitGroup {
    monitor: Monitor,
    left: Rc<Cell<usize>>,
}

impl fmt::Debug for WaitGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WaitGroup(left={})", self.left.get())
    }
}

impl WaitGroup {
    /// Creates a group expecting `n` completions.
    pub fn new(n: usize) -> WaitGroup {
        WaitGroup { monitor: Monitor::new("waitgroup"), left: Rc::new(Cell::new(n)) }
    }

    /// Signals one completion.
    ///
    /// # Panics
    ///
    /// Panics if called more than `n` times.
    pub fn done(&self, ctx: &mut Ctx) {
        self.monitor.enter(ctx);
        let left = self.left.get();
        assert!(left > 0, "WaitGroup::done called too many times");
        self.left.set(left - 1);
        if left == 1 {
            self.monitor.notify_all(ctx);
        }
        self.monitor.exit(ctx);
    }

    /// Blocks until all `n` completions have been signalled.
    pub fn wait(&self, ctx: &mut Ctx) {
        self.monitor.enter(ctx);
        while self.left.get() > 0 {
            self.monitor.wait(ctx);
        }
        self.monitor.exit(ctx);
    }
}

// ---------------------------------------------------------------------------
// LocalBarrier
// ---------------------------------------------------------------------------

/// A cyclic barrier for simulated processes on the same machine (the
/// local analogue of the DSO `CyclicBarrier`).
#[derive(Clone)]
pub struct LocalBarrier {
    monitor: Monitor,
    state: Rc<Cell<(usize, u64)>>, // (waiting, generation)
    parties: usize,
}

impl fmt::Debug for LocalBarrier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LocalBarrier(parties={})", self.parties)
    }
}

impl LocalBarrier {
    /// Creates a barrier for `parties` processes.
    ///
    /// # Panics
    ///
    /// Panics if `parties` is zero.
    pub fn new(parties: usize) -> LocalBarrier {
        assert!(parties > 0, "barrier needs at least one party");
        LocalBarrier {
            monitor: Monitor::new("local-barrier"),
            state: Rc::new(Cell::new((0, 0))),
            parties,
        }
    }

    /// Blocks until all parties arrive; returns the generation index.
    pub fn wait(&self, ctx: &mut Ctx) -> u64 {
        self.monitor.enter(ctx);
        let (waiting, my_generation) = self.state.get();
        if waiting + 1 == self.parties {
            // Last arrival: open the next generation and release everyone.
            self.state.set((0, my_generation + 1));
            self.monitor.notify_all(ctx);
        } else {
            self.state.set((waiting + 1, my_generation));
            while self.state.get().1 == my_generation {
                self.monitor.wait(ctx);
            }
        }
        self.monitor.exit(ctx);
        my_generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn monitor_mutual_exclusion_and_fifo() {
        let mut sim = Sim::new(1);
        let m = Monitor::new("m");
        let order: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
        for i in 0..5u32 {
            let m = m.clone();
            let order = order.clone();
            sim.spawn(&format!("t{i}"), move |ctx| {
                // Stagger arrival so the queue order is i-ascending.
                ctx.sleep(Duration::from_micros(i as u64));
                m.enter(ctx);
                order.lock().push(i);
                ctx.sleep(Duration::from_millis(1)); // hold across time
                m.exit(ctx);
            });
        }
        sim.run_until_idle().expect_quiescent();
        assert_eq!(*order.lock(), vec![0, 1, 2, 3, 4]);
    }

    /// Two deadlocks of one seed report the same resource ids, with both
    /// simulations alive in one process.
    #[test]
    fn monitor_deadlock_reports_are_equal_per_seed() {
        let deadlock = || {
            let mut sim = Sim::new(5);
            let (a, b) = (Monitor::new("a"), Monitor::new("b"));
            for (name, first, second) in [("p", a.clone(), b.clone()), ("q", b, a)] {
                sim.spawn(name, move |ctx| {
                    first.enter(ctx);
                    ctx.sleep(Duration::from_millis(1));
                    second.enter(ctx);
                });
            }
            let _ = sim.run_until_idle();
            sim
        };
        let resources = |sim: &Sim| -> Vec<u64> {
            let report = sim.deadlock_report().expect("p and q deadlock");
            report.stuck.iter().map(|p| p.wait.as_ref().expect("annotated").resource).collect()
        };
        let (one, two) = (deadlock(), deadlock());
        assert_eq!(resources(&one).len(), 2);
        assert_eq!(resources(&one), resources(&two));
    }

    #[test]
    fn wait_notify() {
        let mut sim = Sim::new(1);
        let m = Monitor::new("m");
        let data: Arc<Mutex<Option<u32>>> = Arc::new(Mutex::new(None));
        {
            let m = m.clone();
            let data = data.clone();
            sim.spawn("consumer", move |ctx| {
                m.enter(ctx);
                while data.lock().is_none() {
                    m.wait(ctx);
                }
                assert_eq!(*data.lock(), Some(9));
                m.exit(ctx);
                assert_eq!(ctx.now(), crate::SimTime::from_millis(2));
            });
        }
        sim.spawn("producer", move |ctx| {
            ctx.sleep(Duration::from_millis(2));
            m.enter(ctx);
            *data.lock() = Some(9);
            m.notify(ctx);
            m.exit(ctx);
        });
        sim.run_until_idle().expect_quiescent();
    }

    #[test]
    fn notify_all_wakes_everyone() {
        let mut sim = Sim::new(1);
        let m = Monitor::new("m");
        let go = Arc::new(Mutex::new(false));
        let done = Arc::new(Mutex::new(0u32));
        for i in 0..4 {
            let (m, go, done) = (m.clone(), go.clone(), done.clone());
            sim.spawn(&format!("w{i}"), move |ctx| {
                m.enter(ctx);
                while !*go.lock() {
                    m.wait(ctx);
                }
                *done.lock() += 1;
                m.exit(ctx);
            });
        }
        sim.spawn("broadcaster", move |ctx| {
            ctx.sleep(Duration::from_millis(1));
            m.enter(ctx);
            *go.lock() = true;
            m.notify_all(ctx);
            m.exit(ctx);
        });
        sim.run_until_idle().expect_quiescent();
        assert_eq!(*done.lock(), 4);
    }

    #[test]
    fn waitgroup_joins() {
        let mut sim = Sim::new(1);
        let wg = WaitGroup::new(3);
        for i in 0..3u64 {
            let wg = wg.clone();
            sim.spawn(&format!("w{i}"), move |ctx| {
                ctx.sleep(Duration::from_millis(i + 1));
                wg.done(ctx);
            });
        }
        sim.spawn("joiner", move |ctx| {
            wg.wait(ctx);
            assert_eq!(ctx.now(), crate::SimTime::from_millis(3));
        });
        sim.run_until_idle().expect_quiescent();
    }

    #[test]
    fn oneshot_from_ctx() {
        let mut sim = Sim::new(1);
        sim.spawn("parent", move |ctx| {
            let (tx, rx) = oneshot_in::<String>(ctx);
            ctx.spawn("child", move |c| {
                c.sleep(Duration::from_millis(7));
                tx.send(c, "done".to_string());
            });
            assert_eq!(rx.recv(ctx), "done");
            assert_eq!(ctx.now(), crate::SimTime::from_millis(7));
        });
        sim.run_until_idle().expect_quiescent();
    }

    #[test]
    #[should_panic(expected = "non-holder")]
    fn exit_without_enter_panics() {
        let mut sim = Sim::new(1);
        let m = Monitor::new("m");
        sim.spawn("bad", move |ctx| {
            m.exit(ctx);
        });
        sim.run_until_idle();
    }

    #[test]
    fn local_barrier_releases_together_and_is_cyclic() {
        let mut sim = Sim::new(1);
        let b = LocalBarrier::new(3);
        let releases = Arc::new(Mutex::new(Vec::<(u64, u64)>::new()));
        for i in 0..3u64 {
            let b = b.clone();
            let releases = releases.clone();
            sim.spawn(&format!("t{i}"), move |ctx| {
                for _round in 0..2 {
                    ctx.sleep(Duration::from_millis(i + 1));
                    let generation = b.wait(ctx);
                    releases.lock().push((generation, ctx.now().as_nanos()));
                }
            });
        }
        sim.run_until_idle().expect_quiescent();
        let rel = releases.lock();
        assert_eq!(rel.len(), 6);
        let g0: Vec<u64> = rel.iter().filter(|(g, _)| *g == 0).map(|(_, t)| *t).collect();
        assert_eq!(g0.len(), 3);
        assert!(g0.iter().all(|t| *t == g0[0]), "same release instant {g0:?}");
        assert_eq!(rel.iter().filter(|(g, _)| *g == 1).count(), 3);
    }
}
