//! The invocation service: synchronous (`RequestResponse`) calls, a warm
//! container pool per function, a tiered cold-start model (classic
//! provisioning, snapshot restore, CoW forking), an account-wide
//! concurrency limit, failure injection, and billing.

use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use std::time::Duration;

use rand::RngExt;
use simcore::{
    Actor, Addr, Ctx, FxHashMap, LatencyModel, Msg, Pid, Proc, Request, Sim, SimTime, SpanId,
    TraceCtx, Wait, Wake,
};

use crate::billing::{Billing, InvocationRecord, RetirementRecord, StartKind};
use crate::config::{
    page_restore_cost, ColdStartPolicy, FaasConfig, COLD_START, CONTAINER_IDLE_TIMEOUT, FORK,
    RESTORE_BASE,
};
use crate::function::{FnCtx, FunctionRegistry, FunctionSpec};

/// One-way latency of the invoke control path when a warm container is
/// available (the "Invocation" segment of Fig. 7b).
pub const WARM_DISPATCH: LatencyModel = LatencyModel::uniform(Duration::from_millis(13), 0.3);

/// One-way latency of the response path.
pub const RESPONSE: LatencyModel = LatencyModel::uniform(Duration::from_millis(8), 0.3);

/// How many containers share one physical host. Container `id` runs on
/// host `id / CONTAINERS_PER_HOST` — a deterministic bin-packing stand-in
/// for the provider's placement. Deployment layers use the host id
/// ([`crate::FnCtx::host`]) to share per-host resources (e.g. the DSO node
/// cache) between co-located containers.
pub const CONTAINERS_PER_HOST: u64 = 8;

/// Invocation outcome delivered to the caller.
pub type InvokeResult = Result<Vec<u8>, FaasError>;

/// Errors surfaced to invokers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaasError {
    /// No such function is deployed.
    UnknownFunction(String),
    /// The handler failed (or failure injection fired).
    Failed(String),
    /// The invocation exceeded the platform's duration cap.
    TimedOut,
    /// `invoke_forked` was used on a function whose effective cold-start
    /// policy is not [`ColdStartPolicy::Fork`].
    ForkUnsupported(String),
}

impl std::fmt::Display for FaasError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaasError::UnknownFunction(n) => write!(f, "unknown function: {n}"),
            FaasError::Failed(e) => write!(f, "function failed: {e}"),
            FaasError::TimedOut => write!(f, "function timed out"),
            FaasError::ForkUnsupported(n) => {
                write!(f, "function not fork-enabled: {n}")
            }
        }
    }
}

impl std::error::Error for FaasError {}

/// The platform daemon's protocol. `Invoke` and `Fork` arrive as the body
/// of a [`Request`] (the caller blocks on the reply); the rest are one-way.
#[derive(Debug)]
enum PlatformMsg {
    /// Invoke `function` with `payload`. `span` is the caller's: the
    /// container parents its execution spans under it.
    Invoke { function: String, payload: Vec<u8>, span: SpanId },
    /// Fan `payloads` out as CoW branches of one warm container of
    /// `function`; replied with a `Vec<InvokeResult>` in payload order.
    Fork { function: String, payloads: Vec<Vec<u8>>, span: SpanId },
    /// Keep at least `n` warm containers of `function` provisioned.
    Provision { function: String, n: u32 },
    /// A container finished a job: it releases its running slot and
    /// rejoins the pool.
    Free { function: String, container: Addr },
    /// A pre-warmed container finished booting and enters the pool. It
    /// releases no running slot: it never held one.
    WarmReady { function: String, container: Addr },
    /// A snapshot-tier container finished a classic boot and captured a
    /// memory snapshot; the platform caches it for later restores.
    SnapshotTaken { function: String, memory_mb: u32 },
}

#[derive(Debug)]
struct Job {
    payload: Vec<u8>,
    reply_to: Addr,
    /// How the serving container starts for this job (`Warm` when it is
    /// already booted; the cold kinds make the container pay the
    /// corresponding boot before executing).
    start: StartKind,
    /// Platform-planned restore latency when `start == Restore` (base
    /// sample + dirtied-page faults).
    restore_cost: Duration,
    span: SpanId,
}

/// One branch of a forked invocation finished.
#[derive(Debug)]
struct BranchDone {
    index: usize,
    result: InvokeResult,
}

/// How a pre-warm-style container boots (floors and fork parents).
#[derive(Clone, Copy, Debug)]
enum BootPlan {
    /// Sample a classic provision inside the container (the provisioned
    /// -concurrency floor path).
    ClassicSampled,
    /// Boot with a platform-planned kind and cost (a snapshot restore,
    /// or the classic boot of a fork parent whose branches wait on it).
    Planned { kind: StartKind, cost: Duration },
}

/// Handle to a running platform.
#[derive(Clone, Debug)]
pub struct FaasHandle {
    addr: Addr,
    billing: Billing,
    cfg: FaasConfig,
    /// Client threads started against this platform so far; see
    /// [`FaasHandle::next_thread_seq`].
    threads: Rc<Cell<u64>>,
}

impl FaasHandle {
    /// Synchronously invokes a function (AWS `RequestResponse` mode); blocks
    /// until the function returns. Retries are the *caller's* decision,
    /// exactly as the paper argues (§4.4).
    pub fn invoke(&self, ctx: &mut Ctx, function: &str, payload: Vec<u8>) -> InvokeResult {
        let lat = WARM_DISPATCH.sample(ctx.rng());
        // A synchronous invoke can park indefinitely (the function may
        // itself block on shared objects); tell the deadlock detector
        // which function this caller is waiting on.
        ctx.annotate_wait(
            wait_resource(function),
            simcore::WaitKind::Call,
            function,
            format!("FaasHandle::invoke {function}"),
        );
        let span = ctx.span_begin("faas.invoke", "faas");
        ctx.span_annotate(span, "function", function);
        let invoke = PlatformMsg::Invoke { function: function.to_string(), payload, span };
        let result: InvokeResult = ctx.call(self.addr, invoke, lat);
        if let Err(e) = &result {
            ctx.span_annotate(span, "error", e);
        }
        ctx.span_end(span);
        result
    }

    /// Fans `payloads` out as copy-on-write branches of one warm
    /// container of `function` — the snapshot tier's burst primitive
    /// (~10–50 ms per branch instead of a provision each). The parent is
    /// restored (or classically provisioned) first if no warm container
    /// exists; branches bypass the account concurrency limit. Results come
    /// back in payload order; with no payloads the call returns at once.
    ///
    /// Functions whose effective policy is not [`ColdStartPolicy::Fork`]
    /// answer every branch with [`FaasError::ForkUnsupported`].
    pub fn invoke_forked(
        &self,
        ctx: &mut Ctx,
        function: &str,
        payloads: Vec<Vec<u8>>,
    ) -> Vec<InvokeResult> {
        if payloads.is_empty() {
            return Vec::new();
        }
        let lat = WARM_DISPATCH.sample(ctx.rng());
        ctx.annotate_wait(
            wait_resource(function),
            simcore::WaitKind::Call,
            function,
            format!("FaasHandle::invoke_forked {function}"),
        );
        let span = ctx.span_begin("faas.invoke_forked", "faas");
        ctx.span_annotate(span, "function", function);
        ctx.span_annotate(span, "fanout", payloads.len());
        let fork = PlatformMsg::Fork { function: function.to_string(), payloads, span };
        let results: Vec<InvokeResult> = ctx.call(self.addr, fork, lat);
        ctx.span_end(span);
        results
    }

    /// Keeps at least `n` warm containers of `function` provisioned. The
    /// platform boots the shortfall at once, off the request path, so
    /// nobody waits on these cold starts, and exempts the floor from idle
    /// reclamation. Lowering `n` lets the surplus age out through the
    /// idle timeout. The caller does not wait.
    pub fn provision(&self, ctx: &mut Proc, function: &str, n: u32) {
        let lat = WARM_DISPATCH.sample(ctx.rng());
        let provision = PlatformMsg::Provision { function: function.to_string(), n };
        ctx.send(self.addr, Msg::new(provision), lat);
    }

    /// The shared billing ledger.
    pub fn billing(&self) -> &Billing {
        &self.billing
    }

    /// The platform configuration.
    pub fn config(&self) -> &FaasConfig {
        &self.cfg
    }

    /// Numbers the next client thread started against this platform: 0, 1,
    /// … per platform, shared by every clone of the handle, so the callers
    /// of two identical simulations get the same numbers.
    pub fn next_thread_seq(&self) -> u64 {
        self.threads.replace(self.threads.get() + 1)
    }
}

/// Deadlock-detector resource id for a function name (FNV-1a).
fn wait_resource(function: &str) -> u64 {
    function.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Spawns the platform service.
///
/// # Panics
///
/// When a [`FaasConfig`] field is out of range: `concurrency_limit == 0`,
/// a zero `max_duration`, a `failure_rate` outside `[0, 1]`, or
/// `snapshot_cache_capacity == 0`.
pub fn spawn_platform(sim: &Sim, cfg: FaasConfig, registry: FunctionRegistry) -> FaasHandle {
    assert!(cfg.concurrency_limit >= 1, "invalid FaasConfig: concurrency_limit must be >= 1");
    assert!(!cfg.max_duration.is_zero(), "invalid FaasConfig: max_duration must be positive");
    assert!(
        (0.0..=1.0).contains(&cfg.failure_rate),
        "invalid FaasConfig: failure_rate must be within [0, 1], got {}",
        cfg.failure_rate
    );
    assert!(
        cfg.snapshot_cache_capacity >= 1,
        "invalid FaasConfig: snapshot_cache_capacity must be >= 1 (a zero-entry cache can never hit)"
    );
    let inbox = sim.mailbox("faas");
    let billing = Billing::new();
    let handle = FaasHandle {
        addr: inbox,
        billing: billing.clone(),
        cfg: cfg.clone(),
        threads: Rc::default(),
    };
    let platform = Platform {
        inbox,
        cfg,
        registry,
        billing,
        warm: FxHashMap::default(),
        pending: VecDeque::new(),
        running: 0,
        next_container: 0,
        next_fork: 0,
        provisioned: FxHashMap::default(),
        prewarming: FxHashMap::default(),
        pids: FxHashMap::default(),
        snapshots: BTreeMap::new(),
    };
    sim.spawn_daemon_actor("faas", platform);
    handle
}

struct WarmContainer {
    addr: Addr,
    last_used: SimTime,
}

/// A cached function snapshot (the bytes are notional; the cost model
/// only needs the captured memory size and recency).
struct Snapshot {
    memory_mb: u32,
    last_used: SimTime,
}

/// The platform daemon. It is an actor because nothing it does blocks;
/// the containers, fork branches and fork collectors it spawns are
/// threads, because they run or await handler bodies.
struct Platform {
    inbox: Addr,
    cfg: FaasConfig,
    registry: FunctionRegistry,
    billing: Billing,
    warm: FxHashMap<String, Vec<WarmContainer>>,
    pending: VecDeque<(String, Job)>,
    running: u32,
    next_container: u64,
    next_fork: u64,
    /// Provisioned-concurrency floor per function
    /// ([`FaasHandle::provision`]).
    provisioned: FxHashMap<String, u32>,
    /// Pre-warms in flight per function (booting, not yet in the pool) —
    /// keeps repeated provision requests from over-spawning.
    prewarming: FxHashMap<String, u32>,
    /// Process of each container, so retirement can actually reclaim it.
    pids: FxHashMap<Addr, Pid>,
    /// Snapshot cache, bounded by
    /// [`FaasConfig::snapshot_cache_capacity`]; LRU by virtual
    /// time (name as the deterministic tie-break). `BTreeMap` so victim
    /// selection never depends on hash order.
    snapshots: BTreeMap<String, Snapshot>,
}

impl Actor for Platform {
    fn on_wake(&mut self, ctx: &mut Proc, wake: Wake) -> Wait {
        let Wake::Msg(msg) = wake else { return Wait::Recv(self.inbox) };
        let (reply_to, msg) = match msg.try_take::<Request>() {
            Ok(req) => {
                let (reply_to, msg) = req.take::<PlatformMsg>();
                (Some(reply_to), msg)
            }
            Err(msg) => (None, msg.take::<PlatformMsg>()),
        };
        match (msg, reply_to) {
            (PlatformMsg::Invoke { function, payload, span }, Some(reply_to)) => {
                let start = StartKind::Warm;
                let job = Job { payload, reply_to, start, restore_cost: Duration::ZERO, span };
                self.invoke(ctx, function, job);
            }
            (PlatformMsg::Fork { function, payloads, span }, Some(reply_to)) => {
                self.fork(ctx, reply_to, function, payloads, span);
            }
            (PlatformMsg::Provision { function, n }, _) => {
                if self.registry.get(&function).is_some() {
                    self.provisioned.insert(function.clone(), n);
                    self.prewarm_shortfall(ctx, &function);
                }
            }
            (PlatformMsg::Free { function, container }, _) => {
                self.running = self.running.saturating_sub(1);
                self.pool(ctx, function, container);
                // Admit one queued invocation, if any.
                if let Some((function, job)) = self.pending.pop_front() {
                    self.dispatch(ctx, function, job);
                }
            }
            (PlatformMsg::WarmReady { function, container }, _) => {
                if let Some(n) = self.prewarming.get_mut(&function) {
                    *n = n.saturating_sub(1);
                }
                self.pool(ctx, function, container);
            }
            (PlatformMsg::SnapshotTaken { function, memory_mb }, _) => {
                self.insert_snapshot(ctx, &function, memory_mb);
            }
            (PlatformMsg::Invoke { .. } | PlatformMsg::Fork { .. }, None) => {
                unreachable!("an invocation arrives as a request")
            }
        }
        Wait::Recv(self.inbox)
    }
}

impl Platform {
    /// Admits one invocation: an unknown function is answered at once, and
    /// past the account limit the invocation waits in the queue.
    fn invoke(&mut self, ctx: &mut Proc, function: String, job: Job) {
        if self.registry.get(&function).is_none() {
            let lat = RESPONSE.sample(ctx.rng());
            let unknown: InvokeResult = Err(FaasError::UnknownFunction(function));
            ctx.reply(job.reply_to, unknown, lat);
            return;
        }
        if self.running >= self.cfg.concurrency_limit {
            // The account limit throttles the invocation into the queue;
            // the counter is what the control plane watches for pressure.
            ctx.metric_incr("faas.throttled");
            self.pending.push_back((function, job));
            return;
        }
        self.dispatch(ctx, function, job);
    }

    /// Routes one job to a warm container, or provisions a cold one
    /// (classically, or from a cached snapshot under the snapshot tier).
    fn dispatch(&mut self, ctx: &mut Proc, function: String, mut job: Job) {
        self.running += 1;
        self.reap_expired(ctx, &function);
        let pool = self.warm.entry(function.clone()).or_default();
        let target = if let Some(c) = pool.pop() {
            c.addr
        } else {
            let (kind, cost) = self.plan_cold_start(ctx, &function);
            job.start = kind;
            job.restore_cost = cost;
            self.spawn_container(ctx, &function, None)
        };
        self.push_pool_size(ctx);
        // Intra-service handoff; the client already paid the dispatch latency.
        ctx.send(target, Msg::new(job), Duration::ZERO);
    }

    /// Puts an idle container into `function`'s warm pool.
    fn pool(&mut self, ctx: &mut Proc, function: String, container: Addr) {
        let idle = WarmContainer { addr: container, last_used: ctx.now() };
        self.warm.entry(function).or_default().push(idle);
        self.push_pool_size(ctx);
    }

    /// Decides how the next container of `function` starts when the pool
    /// is empty: classic under [`ColdStartPolicy::Classic`]; under the
    /// snapshot policies, a restore when the cache holds the function's
    /// snapshot (`faas.snapshot_cache.hit`) and a classic fallback that
    /// will repopulate it otherwise (`faas.snapshot_cache.miss`).
    fn plan_cold_start(&mut self, ctx: &mut Proc, function: &str) -> (StartKind, Duration) {
        let policy =
            self.cfg.effective_policy(self.registry.get(function).and_then(|s| s.cold_start));
        if !policy.uses_snapshots() {
            return (StartKind::Classic, Duration::ZERO);
        }
        if let Some(s) = self.snapshots.get_mut(function) {
            s.last_used = ctx.now();
            ctx.metric_incr("faas.snapshot_cache.hit");
            let cost = RESTORE_BASE.sample(ctx.rng()) + page_restore_cost(s.memory_mb);
            (StartKind::Restore, cost)
        } else {
            ctx.metric_incr("faas.snapshot_cache.miss");
            (StartKind::Classic, Duration::ZERO)
        }
    }

    /// Caches a freshly captured snapshot, evicting the least recently
    /// used one (virtual-time LRU, name as the deterministic tie-break)
    /// when the cache is full. Storage is billed from capture to
    /// eviction ([`crate::SnapshotRecord`]).
    fn insert_snapshot(&mut self, ctx: &mut Proc, function: &str, memory_mb: u32) {
        if let Some(s) = self.snapshots.get_mut(function) {
            // Already cached (another container of the same function
            // also booted classically); just refresh recency.
            s.last_used = ctx.now();
            return;
        }
        if self.snapshots.len() >= self.cfg.snapshot_cache_capacity {
            let victim = self
                .snapshots
                .iter()
                .min_by(|a, b| (a.1.last_used, a.0).cmp(&(b.1.last_used, b.0)))
                .map(|(name, _)| name.clone());
            if let Some(name) = victim {
                self.snapshots.remove(&name);
                ctx.metric_incr("faas.snapshot_cache.evict");
                self.billing.mark_snapshot_evicted(&name, ctx.now());
            }
        }
        self.snapshots.insert(function.to_string(), Snapshot { memory_mb, last_used: ctx.now() });
        self.billing.record_snapshot_created(function, memory_mb, ctx.now());
    }

    /// Fans one forked invocation out into per-payload CoW branch
    /// processes. If no warm parent container exists, one is provisioned
    /// first (restore or classic, planned here so the branches know how
    /// long to wait) and joins the pool. Branches run outside the
    /// account concurrency limit — a fork is a burst primitive sharing
    /// one container's resources, not N new containers.
    fn fork(
        &mut self,
        ctx: &mut Proc,
        reply_to: Addr,
        function: String,
        payloads: Vec<Vec<u8>>,
        span: SpanId,
    ) {
        let n = payloads.len();
        let refuse = |ctx: &mut Proc, err: FaasError| {
            let lat = RESPONSE.sample(ctx.rng());
            ctx.reply::<Vec<InvokeResult>>(reply_to, vec![Err(err); n], lat);
        };
        let Some(spec) = self.registry.get(&function) else {
            return refuse(ctx, FaasError::UnknownFunction(function));
        };
        if self.cfg.effective_policy(spec.cold_start) != ColdStartPolicy::Fork {
            return refuse(ctx, FaasError::ForkUnsupported(function));
        }
        self.reap_expired(ctx, &function);
        // The CoW parent: a warm container if one exists (forking leaves
        // it reusable, so it stays pooled), else provision one now —
        // restore on a snapshot hit, classic on a miss — and make the
        // branches wait out its boot.
        let parent_delay = match self.warm.get_mut(&function).and_then(|pool| pool.last_mut()) {
            Some(c) => {
                c.last_used = ctx.now();
                Duration::ZERO
            }
            None => {
                let (kind, planned) = self.plan_cold_start(ctx, &function);
                let cost = match kind {
                    StartKind::Restore => planned,
                    _ => COLD_START.sample(ctx.rng()),
                };
                self.spawn_container(ctx, &function, Some(BootPlan::Planned { kind, cost }));
                cost
            }
        };
        self.push_pool_size(ctx);
        let collector = ctx.mailbox(&format!("fork-{function}-{}", self.next_fork));
        self.next_fork += 1;
        for (index, payload) in payloads.into_iter().enumerate() {
            let (id, runner) = self.runner(&function, spec.clone());
            // Branch latencies are planned by the platform (its RNG), so
            // branch processes stay schedule-independent.
            let delay = parent_delay + FORK.sample(ctx.rng());
            // A branch is a one-shot process, not a pooled container: the
            // pooled parent is what serves later plain invokes.
            ctx.spawn(&format!("fork-{function}-{id}"), move |bc| {
                bc.set_trace_ctx(TraceCtx::under(span));
                let fork_span = bc.span_begin("faas.fork", "faas");
                bc.span_annotate(fork_span, "function", &runner.function);
                bc.span_annotate(fork_span, "branch", index);
                bc.sleep(delay);
                bc.span_end(fork_span);
                record_start(bc, StartKind::Fork, delay);
                let result = runner.run(bc, StartKind::Fork, payload);
                bc.send(collector, Msg::new(BranchDone { index, result }), Duration::ZERO);
            });
        }
        ctx.spawn(&format!("fork-collect-{}", self.next_fork - 1), move |cc| {
            let mut results: Vec<InvokeResult> =
                vec![Err(FaasError::Failed("fork branch lost".into())); n];
            for _ in 0..n {
                let done = cc.recv(collector).take::<BranchDone>();
                results[done.index] = done.result;
            }
            let lat = RESPONSE.sample(cc.rng());
            cc.reply(reply_to, results, lat);
        });
    }

    /// Numbers the next container or fork branch of `function` and places
    /// it on a host.
    fn runner(&mut self, function: &str, spec: FunctionSpec) -> (u64, Runner) {
        let id = self.next_container;
        self.next_container += 1;
        // Deterministic bin-packing: no RNG draw, so placement never
        // perturbs golden schedules.
        let host = id / CONTAINERS_PER_HOST;
        let runner = Runner {
            function: function.to_string(),
            spec,
            cfg: self.cfg.clone(),
            billing: self.billing.clone(),
            host,
        };
        (id, runner)
    }

    /// Spawns a fresh container process for `function`. With a `prewarm`
    /// boot plan it boots immediately and reports `WarmReady`; otherwise
    /// it boots on its first job (the invoker pays the start).
    fn spawn_container(
        &mut self,
        ctx: &mut Proc,
        function: &str,
        prewarm: Option<BootPlan>,
    ) -> Addr {
        let spec = self.registry.get(function).expect("function deployed");
        let (id, runner) = self.runner(function, spec);
        let mailbox = ctx.mailbox(&format!("ctr-{function}-{id}"));
        let platform = self.inbox;
        let pid = ctx.spawn_daemon(&format!("ctr-{function}-{id}"), move |cc| {
            container_loop(cc, mailbox, platform, runner, prewarm);
        });
        self.pids.insert(mailbox, pid);
        mailbox
    }

    /// Boots warm containers until pool + in-flight pre-warms reach the
    /// provisioned floor for `function`.
    fn prewarm_shortfall(&mut self, ctx: &mut Proc, function: &str) {
        let floor = self.provisioned.get(function).copied().unwrap_or(0) as usize;
        let have = self.warm.get(function).map_or(0, Vec::len)
            + self.prewarming.get(function).copied().unwrap_or(0) as usize;
        for _ in have..floor {
            *self.prewarming.entry(function.to_string()).or_insert(0) += 1;
            self.spawn_container(ctx, function, Some(BootPlan::ClassicSampled));
        }
    }

    /// Retires containers of `function` idle past
    /// [`CONTAINER_IDLE_TIMEOUT`], keeping at least the provisioned floor
    /// warm. Retirements are traced (`faas.retire`) and billed
    /// ([`RetirementRecord`]) — a reclaimed container is a real platform
    /// event, not a silent `Vec::retain`. The function's cached snapshot
    /// (if any) survives its containers — that is the tier's point.
    fn reap_expired(&mut self, ctx: &mut Proc, function: &str) {
        let Some(pool) = self.warm.get_mut(function) else { return };
        let now = ctx.now();
        let floor = self.provisioned.get(function).copied().unwrap_or(0) as usize;
        let expired = pool
            .iter()
            .filter(|c| now.saturating_duration_since(c.last_used) > CONTAINER_IDLE_TIMEOUT)
            .count();
        let retire_n = expired.min(pool.len().saturating_sub(floor));
        if retire_n == 0 {
            return;
        }
        // Retire the longest-idle containers first; the floor keeps the
        // freshest ones even past their timeout.
        pool.sort_by_key(|c| c.last_used);
        let memory_mb = self.registry.get(function).map_or(0, |s| s.memory_mb);
        for c in pool.drain(..retire_n) {
            let idle = now.saturating_duration_since(c.last_used);
            ctx.metric_incr("faas.retirements");
            let mark = ctx.span_instant("faas.retire", "faas");
            ctx.span_annotate(mark, "function", function);
            self.billing.record_retirement(RetirementRecord {
                function: function.to_string(),
                memory_mb,
                idle,
            });
            if let Some(pid) = self.pids.remove(&c.addr) {
                ctx.kill(pid);
            }
        }
    }

    /// Publishes the total warm-pool size (all functions) as the
    /// `faas.pool_size` series.
    fn push_pool_size(&self, ctx: &mut Proc) {
        let total: usize = self.warm.values().map(Vec::len).sum();
        ctx.metric_push("faas.pool_size", total as f64);
    }
}

/// What a process that runs `function`'s handler holds: a container keeps
/// it for its life, a fork branch for its one run.
struct Runner {
    function: String,
    spec: FunctionSpec,
    cfg: FaasConfig,
    billing: Billing,
    /// The physical host the process is placed on.
    host: u64,
}

impl Runner {
    /// Runs one invocation on a container that started as `kind`, and
    /// bills it: the one place a handler runs.
    fn run(&self, ctx: &mut Ctx, kind: StartKind, payload: Vec<u8>) -> InvokeResult {
        ctx.metric_incr("faas.invocations");
        if kind == StartKind::Classic {
            ctx.metric_incr("faas.cold_starts");
        }
        let exec_span = ctx.span_begin("faas.exec", "faas");
        ctx.span_annotate(exec_span, "function", &self.function);
        let t0 = ctx.now();
        // Failure injection: crash after a random fraction of a second.
        let injected_failure = self.cfg.failure_rate > 0.0 && {
            let p: f64 = ctx.rng().random_range(0.0..1.0);
            p < self.cfg.failure_rate
        };
        // Work the handler causes (e.g. DSO calls) nests under the exec span.
        ctx.set_trace_ctx(TraceCtx::under(exec_span));
        let result: Result<Vec<u8>, String> = if injected_failure {
            let partial: f64 = ctx.rng().random_range(0.0..1.0);
            ctx.sleep(Duration::from_secs_f64(partial));
            Err("container crashed (injected)".to_string())
        } else {
            let mut env = FnCtx::with_host(ctx, self.spec.memory_mb, self.host);
            self.spec.handler.invoke(&mut env, payload)
        };
        let elapsed = ctx.now().saturating_duration_since(t0);
        ctx.span_end(exec_span);
        let timed_out = elapsed > self.cfg.max_duration;
        self.billing.record(InvocationRecord {
            function: self.function.clone(),
            duration: elapsed.min(self.cfg.max_duration),
            memory_mb: self.spec.memory_mb,
            kind,
            failed: result.is_err() || timed_out,
        });
        if timed_out {
            Err(FaasError::TimedOut)
        } else {
            result.map_err(FaasError::Failed)
        }
    }

    /// Counts a boot of `kind` that took `latency`. After a classic boot
    /// of a snapshot-tier function it also reports the captured snapshot
    /// to the platform, so later cold starts restore instead.
    fn booted(&self, ctx: &mut Ctx, platform: Addr, kind: StartKind, latency: Duration) {
        record_start(ctx, kind, latency);
        if kind == StartKind::Classic
            && self.cfg.effective_policy(self.spec.cold_start).uses_snapshots()
        {
            let function = self.function.clone();
            let taken = PlatformMsg::SnapshotTaken { function, memory_mb: self.spec.memory_mb };
            ctx.send(platform, Msg::new(taken), Duration::ZERO);
        }
    }
}

/// One container: runs jobs for a single function, sequentially, reporting
/// back to the platform between jobs. With a `prewarm` boot plan it boots
/// up front (off anyone's request path) and reports itself warm; without
/// one, its first job is a classic or restore start.
fn container_loop(
    ctx: &mut Ctx,
    inbox: Addr,
    platform: Addr,
    runner: Runner,
    prewarm: Option<BootPlan>,
) {
    if let Some(plan) = prewarm {
        let (kind, boot) = match plan {
            BootPlan::ClassicSampled => (StartKind::Classic, COLD_START.sample(ctx.rng())),
            BootPlan::Planned { kind, cost } => (kind, cost),
        };
        let boot_span = ctx.span_begin("faas.prewarm", "faas");
        ctx.span_annotate(boot_span, "function", &runner.function);
        if kind == StartKind::Restore {
            ctx.span_annotate(boot_span, "start", "restore");
        }
        ctx.sleep(boot);
        ctx.span_end(boot_span);
        runner.booted(ctx, platform, kind, boot);
        if matches!(plan, BootPlan::ClassicSampled) {
            ctx.metric_incr("faas.prewarms");
        }
        let ready = PlatformMsg::WarmReady { function: runner.function.clone(), container: inbox };
        ctx.send(platform, Msg::new(ready), Duration::ZERO);
    }
    loop {
        let job = ctx.recv(inbox).take::<Job>();
        // Adopt the invoker's trace context for the whole job.
        ctx.set_trace_ctx(TraceCtx::under(job.span));
        match job.start {
            StartKind::Restore => {
                let boot_span = ctx.span_begin("faas.restore", "faas");
                ctx.span_annotate(boot_span, "function", &runner.function);
                ctx.sleep(job.restore_cost);
                ctx.span_end(boot_span);
                runner.booted(ctx, platform, StartKind::Restore, job.restore_cost);
            }
            StartKind::Classic => {
                let boot = COLD_START.sample(ctx.rng());
                let boot_span = ctx.span_begin("faas.coldstart", "faas");
                ctx.sleep(boot);
                ctx.span_end(boot_span);
                runner.booted(ctx, platform, StartKind::Classic, boot);
            }
            StartKind::Warm | StartKind::Fork => {}
        }
        let reply = runner.run(ctx, job.start, job.payload);
        let lat = RESPONSE.sample(ctx.rng());
        ctx.reply(job.reply_to, reply, lat);
        let free = PlatformMsg::Free { function: runner.function.clone(), container: inbox };
        ctx.send(platform, Msg::new(free), Duration::ZERO);
    }
}

/// Counts a container start in the `faas.start.{classic,restore,fork}`
/// counter and latency histogram of its kind. Host-side only — never a
/// simulation event, so classic schedules are untouched.
fn record_start(ctx: &mut Ctx, kind: StartKind, latency: Duration) {
    let name = match kind {
        StartKind::Classic => "faas.start.classic",
        StartKind::Restore => "faas.start.restore",
        StartKind::Fork => "faas.start.fork",
        StartKind::Warm => return,
    };
    ctx.metric_incr(name);
    ctx.metric_record(name, latency);
}
