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
    Addr, Ctx, FxHashMap, LatencyModel, Msg, Pid, Request, Sim, SimTime, SpanId, TraceCtx,
};

use crate::billing::{Billing, InvocationRecord, RetirementRecord, StartKind};
use crate::config::{
    page_restore_cost, ColdStartPolicy, FaasConfig, COLD_START, FORK, RESTORE_BASE,
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

/// Client request: invoke `function` with `payload` synchronously.
#[derive(Debug)]
pub struct InvokeFn {
    /// Deployed function name.
    pub function: String,
    /// Opaque payload bytes.
    pub payload: Vec<u8>,
    /// Caller's trace span; the container parents its execution spans under
    /// it ([`SpanId::NONE`] when untraced).
    pub span: SpanId,
}

/// Client request: fan `payloads` out as copy-on-write branches of one
/// warm container of `function` (see
/// [`FaasHandle::invoke_forked`]). Replied with a
/// `Vec<`[`InvokeResult`]`>` in payload order.
#[derive(Debug)]
pub struct InvokeForked {
    /// Deployed function name (its effective policy must be
    /// [`ColdStartPolicy::Fork`]).
    pub function: String,
    /// One opaque payload per branch.
    pub payloads: Vec<Vec<u8>>,
    /// Caller's trace span.
    pub span: SpanId,
}

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
    /// The account's concurrency limit rejected the invocation.
    Throttled,
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
            FaasError::Throttled => write!(f, "throttled by concurrency limit"),
            FaasError::ForkUnsupported(n) => {
                write!(f, "function not fork-enabled: {n}")
            }
        }
    }
}

impl std::error::Error for FaasError {}

// Platform-internal messages.
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

#[derive(Debug)]
struct ContainerFree {
    function: String,
    container: Addr,
}

/// A pre-warmed container finished booting and enters the warm pool.
/// Unlike [`ContainerFree`] it does *not* release a running slot — the
/// container never held one.
#[derive(Debug)]
struct WarmReady {
    function: String,
    container: Addr,
}

/// A snapshot-tier container finished a classic boot and captured a
/// memory snapshot; the platform caches it for later restores.
#[derive(Debug)]
struct SnapshotTaken {
    function: String,
    memory_mb: u32,
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

/// Control-plane request: keep (at least) `n` warm containers provisioned
/// for `function`. The platform boots the shortfall immediately (off the
/// request path, so nobody waits on these cold starts) and exempts the
/// floor from idle reclamation. Lowering `n` lets the surplus age out
/// through the normal idle timeout.
#[derive(Debug)]
pub struct SetProvisioned {
    /// Deployed function name.
    pub function: String,
    /// Number of warm containers to keep provisioned.
    pub n: u32,
}

/// Options for [`FaasHandle::invoke_with`] — the single entrypoint that
/// plain, provisioned, and forked invocation share.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InvokeOpts {
    /// Fan the payloads out as CoW branches of one warm container
    /// ([`InvokeForked`]) instead of invoking them independently.
    /// Requires the function's effective policy to be
    /// [`ColdStartPolicy::Fork`].
    pub forked: bool,
    /// Set the provisioned-concurrency floor for the function before
    /// invoking (the [`SetProvisioned`] control message; fire-and-forget).
    pub provision: Option<u32>,
}

impl InvokeOpts {
    /// Options for a forked fan-out invocation.
    pub fn forked() -> InvokeOpts {
        InvokeOpts { forked: true, ..InvokeOpts::default() }
    }

    /// Options that only adjust the provisioned-concurrency floor
    /// (combine with empty payloads for a pure control action).
    pub fn provision(n: u32) -> InvokeOpts {
        InvokeOpts { provision: Some(n), ..InvokeOpts::default() }
    }
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
    /// The unified invocation entrypoint: invokes `function` once per
    /// payload, after applying `opts` (floor adjustment, fork fan-out).
    /// Results come back in payload order. With empty `payloads` only the
    /// control action runs and the call does not block.
    ///
    /// [`invoke`](Self::invoke) and [`invoke_forked`](Self::invoke_forked)
    /// are thin sugar over this.
    pub fn invoke_with(
        &self,
        ctx: &mut Ctx,
        function: &str,
        payloads: Vec<Vec<u8>>,
        opts: InvokeOpts,
    ) -> Vec<InvokeResult> {
        if let Some(n) = opts.provision {
            let lat = WARM_DISPATCH.sample(ctx.rng());
            ctx.send(
                self.addr,
                Msg::new(SetProvisioned { function: function.to_string(), n }),
                lat,
            );
        }
        if payloads.is_empty() {
            return Vec::new();
        }
        if opts.forked {
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
            let results: Vec<InvokeResult> = ctx.call(
                self.addr,
                InvokeForked { function: function.to_string(), payloads, span },
                lat,
            );
            ctx.span_end(span);
            results
        } else {
            payloads.into_iter().map(|p| self.invoke_one(ctx, function, p)).collect()
        }
    }

    /// Synchronously invokes a function (AWS `RequestResponse` mode); blocks
    /// until the function returns. Retries are the *caller's* decision,
    /// exactly as the paper argues (§4.4). Sugar for
    /// [`invoke_with`](Self::invoke_with) with one payload and default
    /// options.
    pub fn invoke(&self, ctx: &mut Ctx, function: &str, payload: Vec<u8>) -> InvokeResult {
        self.invoke_with(ctx, function, vec![payload], InvokeOpts::default())
            .pop()
            .expect("one payload yields one result")
    }

    /// Fans `payloads` out as copy-on-write branches of one warm
    /// container of `function` — the snapshot tier's burst primitive
    /// (~10–50 ms per branch instead of a provision each). The parent is
    /// restored (or classically provisioned) first if no warm container
    /// exists; branches bypass the account concurrency limit. Sugar for
    /// [`invoke_with`](Self::invoke_with) with [`InvokeOpts::forked`].
    ///
    /// Functions whose effective policy is not [`ColdStartPolicy::Fork`]
    /// answer every branch with [`FaasError::ForkUnsupported`].
    pub fn invoke_forked(
        &self,
        ctx: &mut Ctx,
        function: &str,
        payloads: Vec<Vec<u8>>,
    ) -> Vec<InvokeResult> {
        self.invoke_with(ctx, function, payloads, InvokeOpts::forked())
    }

    /// The plain invocation path shared by [`invoke_with`](Self::invoke_with):
    /// one payload, one synchronous call.
    fn invoke_one(&self, ctx: &mut Ctx, function: &str, payload: Vec<u8>) -> InvokeResult {
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
        let result: InvokeResult =
            ctx.call(self.addr, InvokeFn { function: function.to_string(), payload, span }, lat);
        if let Err(e) = &result {
            ctx.span_annotate(span, "error", e);
        }
        ctx.span_end(span);
        result
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
    sim.spawn_daemon("faas", move |ctx| {
        platform_loop(ctx, inbox, cfg, registry, billing);
    });
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

/// Mutable state of the platform daemon.
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
    /// Provisioned-concurrency floor per function ([`SetProvisioned`]).
    provisioned: FxHashMap<String, u32>,
    /// Pre-warms in flight per function (booting, not yet in the pool) —
    /// keeps repeated [`SetProvisioned`] requests from over-spawning.
    prewarming: FxHashMap<String, u32>,
    /// Process of each container, so retirement can actually reclaim it.
    pids: FxHashMap<Addr, Pid>,
    /// Snapshot cache, bounded by
    /// [`FaasConfig::snapshot_cache_capacity`]; LRU by virtual
    /// time (name as the deterministic tie-break). `BTreeMap` so victim
    /// selection never depends on hash order.
    snapshots: BTreeMap<String, Snapshot>,
}

fn platform_loop(
    ctx: &mut Ctx,
    inbox: Addr,
    cfg: FaasConfig,
    registry: FunctionRegistry,
    billing: Billing,
) {
    let mut p = Platform {
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
    loop {
        let msg = ctx.recv(inbox);
        let msg = match msg.try_take::<ContainerFree>() {
            Ok(free) => {
                p.running = p.running.saturating_sub(1);
                p.warm
                    .entry(free.function)
                    .or_default()
                    .push(WarmContainer { addr: free.container, last_used: ctx.now() });
                p.push_pool_size(ctx);
                // Admit one queued invocation, if any.
                if let Some((function, job)) = p.pending.pop_front() {
                    p.dispatch(ctx, function, job);
                }
                continue;
            }
            Err(m) => m,
        };
        let msg = match msg.try_take::<WarmReady>() {
            Ok(ready) => {
                // A pre-warm finished booting: into the pool, no running
                // slot to release (it never held one).
                if let Some(n) = p.prewarming.get_mut(&ready.function) {
                    *n = n.saturating_sub(1);
                }
                p.warm
                    .entry(ready.function)
                    .or_default()
                    .push(WarmContainer { addr: ready.container, last_used: ctx.now() });
                p.push_pool_size(ctx);
                continue;
            }
            Err(m) => m,
        };
        let msg = match msg.try_take::<SnapshotTaken>() {
            Ok(snap) => {
                p.insert_snapshot(ctx, &snap.function, snap.memory_mb);
                continue;
            }
            Err(m) => m,
        };
        let msg = match msg.try_take::<SetProvisioned>() {
            Ok(SetProvisioned { function, n }) => {
                if p.registry.get(&function).is_some() {
                    p.provisioned.insert(function.clone(), n);
                    p.prewarm_shortfall(ctx, &function);
                }
                continue;
            }
            Err(m) => m,
        };
        let req = msg.take::<Request>();
        if req.body.is::<InvokeForked>() {
            let (reply_to, fork) = req.take::<InvokeForked>();
            p.handle_fork(ctx, reply_to, fork);
            continue;
        }
        let (reply_to, invoke) = req.take::<InvokeFn>();
        if p.registry.get(&invoke.function).is_none() {
            let lat = RESPONSE.sample(ctx.rng());
            ctx.reply::<InvokeResult>(
                reply_to,
                Err(FaasError::UnknownFunction(invoke.function)),
                lat,
            );
            continue;
        }
        let job = Job {
            payload: invoke.payload,
            reply_to,
            start: StartKind::Warm,
            restore_cost: Duration::ZERO,
            span: invoke.span,
        };
        if p.running >= p.cfg.concurrency_limit {
            // The account limit throttles the invocation into the queue;
            // the counter is what the control plane watches for pressure.
            ctx.metric_incr("faas.throttled");
            p.pending.push_back((invoke.function, job));
            continue;
        }
        p.dispatch(ctx, invoke.function, job);
    }
}

impl Platform {
    /// Routes one job to a warm container, or provisions a cold one
    /// (classically, or from a cached snapshot under the snapshot tier).
    fn dispatch(&mut self, ctx: &mut Ctx, function: String, mut job: Job) {
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

    /// Decides how the next container of `function` starts when the pool
    /// is empty: classic under [`ColdStartPolicy::Classic`]; under the
    /// snapshot policies, a restore when the cache holds the function's
    /// snapshot (`faas.snapshot_cache.hit`) and a classic fallback that
    /// will repopulate it otherwise (`faas.snapshot_cache.miss`).
    fn plan_cold_start(&mut self, ctx: &mut Ctx, function: &str) -> (StartKind, Duration) {
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
    fn insert_snapshot(&mut self, ctx: &mut Ctx, function: &str, memory_mb: u32) {
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

    /// Fans one [`InvokeForked`] request out into per-payload CoW branch
    /// processes. If no warm parent container exists, one is provisioned
    /// first (restore or classic, planned here so the branches know how
    /// long to wait) and joins the pool. Branches run outside the
    /// account concurrency limit — a fork is a burst primitive sharing
    /// one container's resources, not N new containers.
    fn handle_fork(&mut self, ctx: &mut Ctx, reply_to: Addr, fork: InvokeForked) {
        let n = fork.payloads.len();
        let Some(spec) = self.registry.get(&fork.function) else {
            let lat = RESPONSE.sample(ctx.rng());
            let res: Vec<InvokeResult> =
                (0..n).map(|_| Err(FaasError::UnknownFunction(fork.function.clone()))).collect();
            ctx.reply(reply_to, res, lat);
            return;
        };
        let policy = self.cfg.effective_policy(spec.cold_start);
        if policy != ColdStartPolicy::Fork {
            let lat = RESPONSE.sample(ctx.rng());
            let res: Vec<InvokeResult> =
                (0..n).map(|_| Err(FaasError::ForkUnsupported(fork.function.clone()))).collect();
            ctx.reply(reply_to, res, lat);
            return;
        }
        if n == 0 {
            let lat = RESPONSE.sample(ctx.rng());
            ctx.reply::<Vec<InvokeResult>>(reply_to, Vec::new(), lat);
            return;
        }
        self.reap_expired(ctx, &fork.function);
        // The CoW parent: a warm container if one exists (forking leaves
        // it reusable, so it stays pooled), else provision one now —
        // restore on a snapshot hit, classic on a miss — and make the
        // branches wait out its boot.
        let parent_delay = match self.warm.get_mut(&fork.function).and_then(|pool| pool.last_mut())
        {
            Some(c) => {
                c.last_used = ctx.now();
                Duration::ZERO
            }
            None => {
                let (kind, planned) = self.plan_cold_start(ctx, &fork.function);
                let cost = match kind {
                    StartKind::Restore => planned,
                    _ => COLD_START.sample(ctx.rng()),
                };
                let plan = BootPlan::Planned { kind, cost };
                self.spawn_container(ctx, &fork.function, Some(plan));
                cost
            }
        };
        self.push_pool_size(ctx);
        let collector = ctx.mailbox(&format!("fork-{}-{}", fork.function, self.next_fork));
        self.next_fork += 1;
        for (index, payload) in fork.payloads.into_iter().enumerate() {
            let id = self.next_container;
            self.next_container += 1;
            let host = id / CONTAINERS_PER_HOST;
            // Branch latencies are planned by the platform (its RNG), so
            // branch processes stay schedule-independent.
            let delay = parent_delay + FORK.sample(ctx.rng());
            let spec2 = spec.clone();
            let cfg2 = self.cfg.clone();
            let billing2 = self.billing.clone();
            let fname = fork.function.clone();
            let span = fork.span;
            ctx.spawn(&format!("fork-{fname}-{id}"), move |bc| {
                branch_run(
                    bc, collector, index, fname, spec2, cfg2, billing2, payload, delay, span, host,
                );
            });
        }
        ctx.spawn(&format!("fork-collect-{}", self.next_fork - 1), move |cc| {
            let mut results: Vec<InvokeResult> =
                (0..n).map(|_| Err(FaasError::Failed("fork branch lost".into()))).collect();
            for _ in 0..n {
                let done = cc.recv(collector).take::<BranchDone>();
                results[done.index] = done.result;
            }
            let lat = RESPONSE.sample(cc.rng());
            cc.reply(reply_to, results, lat);
        });
    }

    /// Spawns a fresh container process for `function`. With a `prewarm`
    /// boot plan it boots immediately and reports [`WarmReady`];
    /// otherwise it boots on its first job (the invoker pays the start).
    fn spawn_container(
        &mut self,
        ctx: &mut Ctx,
        function: &str,
        prewarm: Option<BootPlan>,
    ) -> Addr {
        let id = self.next_container;
        self.next_container += 1;
        // Deterministic bin-packing: no RNG draw, so placement never
        // perturbs golden schedules.
        let host = id / CONTAINERS_PER_HOST;
        let mailbox = ctx.mailbox(&format!("ctr-{function}-{id}"));
        let platform_inbox = self.inbox;
        let cfg2 = self.cfg.clone();
        let registry2 = self.registry.clone();
        let billing2 = self.billing.clone();
        let fname = function.to_string();
        let pid = ctx.spawn_daemon(&format!("ctr-{function}-{id}"), move |cc| {
            container_loop(
                cc,
                mailbox,
                platform_inbox,
                fname,
                cfg2,
                registry2,
                billing2,
                prewarm,
                host,
            );
        });
        self.pids.insert(mailbox, pid);
        mailbox
    }

    /// Boots warm containers until pool + in-flight pre-warms reach the
    /// provisioned floor for `function`.
    fn prewarm_shortfall(&mut self, ctx: &mut Ctx, function: &str) {
        let floor = self.provisioned.get(function).copied().unwrap_or(0) as usize;
        let have = self.warm.get(function).map_or(0, Vec::len)
            + self.prewarming.get(function).copied().unwrap_or(0) as usize;
        for _ in have..floor {
            *self.prewarming.entry(function.to_string()).or_insert(0) += 1;
            self.spawn_container(ctx, function, Some(BootPlan::ClassicSampled));
        }
    }

    /// Retires idle-expired containers of `function`, keeping at least the
    /// provisioned floor warm. Retirements are traced (`faas.retire`) and
    /// billed ([`RetirementRecord`]) — a reclaimed container is a real
    /// platform event, not a silent `Vec::retain`. The function's cached
    /// snapshot (if any) survives its containers — that is the tier's
    /// point.
    fn reap_expired(&mut self, ctx: &mut Ctx, function: &str) {
        let Some(pool) = self.warm.get_mut(function) else { return };
        let now = ctx.now();
        let timeout = self.cfg.container_idle_timeout;
        let floor = self.provisioned.get(function).copied().unwrap_or(0) as usize;
        let expired =
            pool.iter().filter(|c| now.saturating_duration_since(c.last_used) > timeout).count();
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
    fn push_pool_size(&self, ctx: &mut Ctx) {
        let total: usize = self.warm.values().map(Vec::len).sum();
        ctx.metric_push("faas.pool_size", total as f64);
    }
}

/// One container: runs jobs for a single function, sequentially, reporting
/// back to the platform between jobs. With a `prewarm` boot plan it boots
/// up front (off anyone's request path) and announces [`WarmReady`].
#[allow(clippy::too_many_arguments)]
fn container_loop(
    ctx: &mut Ctx,
    inbox: Addr,
    platform: Addr,
    function: String,
    cfg: FaasConfig,
    registry: FunctionRegistry,
    billing: Billing,
    prewarm: Option<BootPlan>,
    host: u64,
) {
    let mut first = true;
    if let Some(plan) = prewarm {
        let (kind, boot) = match plan {
            BootPlan::ClassicSampled => (StartKind::Classic, COLD_START.sample(ctx.rng())),
            BootPlan::Planned { kind, cost } => (kind, cost),
        };
        let boot_span = ctx.span_begin("faas.prewarm", "faas");
        ctx.span_annotate(boot_span, "function", &function);
        if kind == StartKind::Restore {
            ctx.span_annotate(boot_span, "start", "restore");
        }
        ctx.sleep(boot);
        ctx.span_end(boot_span);
        record_start(ctx, kind, boot);
        announce_snapshot(ctx, platform, &function, &cfg, &registry, kind);
        if matches!(plan, BootPlan::ClassicSampled) {
            ctx.metric_incr("faas.prewarms");
        }
        first = false;
        ctx.send(
            platform,
            Msg::new(WarmReady { function: function.clone(), container: inbox }),
            Duration::ZERO,
        );
    }
    loop {
        let job = ctx.recv(inbox).take::<Job>();
        // Adopt the invoker's trace context for the whole job.
        ctx.set_trace_ctx(TraceCtx::under(job.span));
        if job.start == StartKind::Restore {
            let boot_span = ctx.span_begin("faas.restore", "faas");
            ctx.span_annotate(boot_span, "function", &function);
            ctx.sleep(job.restore_cost);
            ctx.span_end(boot_span);
            record_start(ctx, StartKind::Restore, job.restore_cost);
            first = false;
        } else if job.start == StartKind::Classic || first {
            let boot = COLD_START.sample(ctx.rng());
            let boot_span = ctx.span_begin("faas.coldstart", "faas");
            ctx.sleep(boot);
            ctx.span_end(boot_span);
            record_start(ctx, StartKind::Classic, boot);
            announce_snapshot(ctx, platform, &function, &cfg, &registry, StartKind::Classic);
            first = false;
        }
        ctx.metric_incr("faas.invocations");
        if job.start == StartKind::Classic {
            ctx.metric_incr("faas.cold_starts");
        }
        let spec = registry.get(&function).expect("function deployed");
        let exec_span = ctx.span_begin("faas.exec", "faas");
        ctx.span_annotate(exec_span, "function", &function);
        let t0 = ctx.now();
        // Failure injection: crash after a random fraction of a second.
        let injected_failure = cfg.failure_rate > 0.0 && {
            let p: f64 = ctx.rng().random_range(0.0..1.0);
            p < cfg.failure_rate
        };
        // Work the handler causes (e.g. DSO calls) nests under the exec span.
        ctx.set_trace_ctx(TraceCtx::under(exec_span));
        let result: Result<Vec<u8>, String> = if injected_failure {
            let partial: f64 = ctx.rng().random_range(0.0..1.0);
            ctx.sleep(Duration::from_secs_f64(partial));
            Err("container crashed (injected)".to_string())
        } else {
            let mut env = FnCtx::with_host(ctx, spec.memory_mb, host);
            spec.handler.invoke(&mut env, job.payload)
        };
        let elapsed = ctx.now().saturating_duration_since(t0);
        ctx.span_end(exec_span);
        let timed_out = elapsed > cfg.max_duration;
        billing.record(InvocationRecord {
            function: function.clone(),
            duration: elapsed.min(cfg.max_duration),
            memory_mb: spec.memory_mb,
            cold_start: job.start == StartKind::Classic,
            kind: job.start,
            failed: result.is_err() || timed_out,
        });
        let reply: InvokeResult =
            if timed_out { Err(FaasError::TimedOut) } else { result.map_err(FaasError::Failed) };
        let lat = RESPONSE.sample(ctx.rng());
        ctx.reply(job.reply_to, reply, lat);
        ctx.send(
            platform,
            Msg::new(ContainerFree { function: function.clone(), container: inbox }),
            Duration::ZERO,
        );
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

/// After a classic boot of a snapshot-tier function, report the captured
/// snapshot to the platform so later cold starts restore instead.
fn announce_snapshot(
    ctx: &mut Ctx,
    platform: Addr,
    function: &str,
    cfg: &FaasConfig,
    registry: &FunctionRegistry,
    kind: StartKind,
) {
    if kind != StartKind::Classic {
        return;
    }
    let Some(spec) = registry.get(function) else { return };
    if cfg.effective_policy(spec.cold_start).uses_snapshots() {
        ctx.send(
            platform,
            Msg::new(SnapshotTaken { function: function.to_string(), memory_mb: spec.memory_mb }),
            Duration::ZERO,
        );
    }
}

/// One forked CoW branch: waits for the parent (if it is still booting)
/// plus its own fork latency, runs the handler once, reports to the
/// fork's collector. Branches are one-shot processes, not pooled
/// containers — the pooled parent is what serves later plain invokes.
#[allow(clippy::too_many_arguments)]
fn branch_run(
    ctx: &mut Ctx,
    collector: Addr,
    index: usize,
    function: String,
    spec: FunctionSpec,
    cfg: FaasConfig,
    billing: Billing,
    payload: Vec<u8>,
    delay: Duration,
    span: SpanId,
    host: u64,
) {
    ctx.set_trace_ctx(TraceCtx::under(span));
    let fork_span = ctx.span_begin("faas.fork", "faas");
    ctx.span_annotate(fork_span, "function", &function);
    ctx.span_annotate(fork_span, "branch", index);
    ctx.sleep(delay);
    ctx.span_end(fork_span);
    record_start(ctx, StartKind::Fork, delay);
    ctx.metric_incr("faas.invocations");
    let exec_span = ctx.span_begin("faas.exec", "faas");
    ctx.span_annotate(exec_span, "function", &function);
    let t0 = ctx.now();
    let injected_failure = cfg.failure_rate > 0.0 && {
        let p: f64 = ctx.rng().random_range(0.0..1.0);
        p < cfg.failure_rate
    };
    ctx.set_trace_ctx(TraceCtx::under(exec_span));
    let result: Result<Vec<u8>, String> = if injected_failure {
        let partial: f64 = ctx.rng().random_range(0.0..1.0);
        ctx.sleep(Duration::from_secs_f64(partial));
        Err("container crashed (injected)".to_string())
    } else {
        let mut env = FnCtx::with_host(ctx, spec.memory_mb, host);
        spec.handler.invoke(&mut env, payload)
    };
    let elapsed = ctx.now().saturating_duration_since(t0);
    ctx.span_end(exec_span);
    let timed_out = elapsed > cfg.max_duration;
    billing.record(InvocationRecord {
        function: function.clone(),
        duration: elapsed.min(cfg.max_duration),
        memory_mb: spec.memory_mb,
        cold_start: false,
        kind: StartKind::Fork,
        failed: result.is_err() || timed_out,
    });
    let reply: InvokeResult =
        if timed_out { Err(FaasError::TimedOut) } else { result.map_err(FaasError::Failed) };
    ctx.send(collector, Msg::new(BranchDone { index, result: reply }), Duration::ZERO);
}
