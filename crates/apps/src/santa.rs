//! The Santa Claus problem (§6.3.3, Fig. 7c): 9 reindeer, 10 elves, and
//! Santa coordinate through groups and gates. Three solutions share one
//! algorithm:
//!
//! * **local** — plain objects on one machine (monitors + local barriers),
//! * **dso** — the same objects stored in the DSO layer (`@Shared`),
//! * **cloud** — additionally running every entity as a cloud thread.
//!
//! The algorithm (after Ben-Ari): entities join their group; the last
//! member of a full group posts it to Santa's inbox; Santa takes groups —
//! reindeer first — and everyone synchronizes through per-batch entry and
//! exit gates (barriers of `group size + 1`, Santa included).

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use crucial::sync::{LocalBarrier, Monitor, WaitGroup};
use crucial::{
    join_all, AtomicLong, CallCtx, CrucialConfig, Ctx, CyclicBarrier, Deployment, DsoClient,
    Effects, FnEnv, ObjectError, ObjectRegistry, RawHandle, RunResult, Runnable, SharedObject, Sim,
    SimTime,
};
use parking_lot::Mutex;
use rand::RngExt;
use simcore::codec::Wire;

/// Entity kinds.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Wire)]
pub enum Kind {
    /// One of the 9 reindeer (group size 9, priority at Santa's door).
    Reindeer,
    /// One of the 10 elves (group size 3).
    Elf,
}

impl Kind {
    /// Members needed to form a group.
    pub fn group_size(self) -> u64 {
        match self {
            Kind::Reindeer => 9,
            Kind::Elf => 3,
        }
    }

    fn tag(self) -> u8 {
        match self {
            Kind::Reindeer => 0,
            Kind::Elf => 1,
        }
    }

    fn from_tag(t: u8) -> Kind {
        if t == 0 {
            Kind::Reindeer
        } else {
            Kind::Elf
        }
    }
}

/// Entry or exit gate of a batch.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Gate {
    /// Passed before Santa serves the group.
    Entry,
    /// Passed after.
    Exit,
}

/// Problem parameters.
#[derive(Copy, Clone, Debug, Wire)]
pub struct SantaConfig {
    /// Seed for work-time jitter.
    pub seed: u64,
    /// Toy deliveries to complete (paper: 15).
    pub deliveries: u64,
    /// Consultations per elf (10 elves × 3 = 10 groups of 3).
    pub consults_per_elf: u64,
    /// Santa's time to deliver toys.
    pub delivery_time: Duration,
    /// Santa's time to consult a group of elves.
    pub consult_time: Duration,
    /// Upper bound of an entity's independent work between rounds.
    pub max_work_time: Duration,
}

impl Default for SantaConfig {
    fn default() -> Self {
        SantaConfig {
            seed: 1,
            deliveries: 15,
            consults_per_elf: 3,
            delivery_time: Duration::from_millis(50),
            consult_time: Duration::from_millis(20),
            max_work_time: Duration::from_millis(100),
        }
    }
}

impl SantaConfig {
    /// Total elf groups Santa serves.
    pub fn elf_groups(&self) -> u64 {
        10 * self.consults_per_elf / Kind::Elf.group_size()
    }

    /// Global join quota per kind.
    pub fn quota(&self, kind: Kind) -> u64 {
        match kind {
            Kind::Reindeer => Kind::Reindeer.group_size() * self.deliveries,
            Kind::Elf => Kind::Elf.group_size() * self.elf_groups(),
        }
    }
}

/// Outcome: when the last (15th) toy delivery completed.
#[derive(Clone, Debug)]
pub struct SantaReport {
    /// Virtual time of the final delivery.
    pub completion: Duration,
}

// ---------------------------------------------------------------------------
// The shared-object interface of the algorithm
// ---------------------------------------------------------------------------

/// Operations the algorithm needs; each variant provides them over its own
/// substrate.
pub trait SantaOps {
    /// Claims the next slot in a group of `kind`, up to `quota` total
    /// slots per kind; returns the batch index, or `None` once the run's
    /// work is exhausted. The claimer of a batch's last slot posts the
    /// full group to Santa's inbox.
    ///
    /// Slots are a *global* quota rather than a per-entity round count:
    /// any free entity may take the next slot. (With fixed per-entity
    /// rounds, the run can strand its final group: its missing member may
    /// be an entity already parked inside that very group.)
    fn join_group(&mut self, ctx: &mut Ctx, kind: Kind, quota: u64) -> Option<u64>;
    /// Santa's blocking take: the next full group, reindeer first.
    fn santa_take(&mut self, ctx: &mut Ctx) -> (Kind, u64);
    /// Synchronizes on a batch gate (barrier of `group size + 1`).
    fn pass_gate(&mut self, ctx: &mut Ctx, kind: Kind, batch: u64, gate: Gate);
}

/// One entity's life: work, join, pass both gates, repeat until the
/// kind's quota is consumed.
pub fn entity_loop(ops: &mut dyn SantaOps, ctx: &mut Ctx, kind: Kind, cfg: &SantaConfig) {
    let quota = cfg.quota(kind);
    loop {
        let work_ns = ctx.rng().random_range(0..cfg.max_work_time.as_nanos() as u64);
        ctx.sleep(Duration::from_nanos(work_ns));
        let Some(batch) = ops.join_group(ctx, kind, quota) else {
            return;
        };
        ops.pass_gate(ctx, kind, batch, Gate::Entry);
        // Santa performs the delivery/consultation between the gates.
        ops.pass_gate(ctx, kind, batch, Gate::Exit);
    }
}

/// Santa's life: take the next full group, harness/consult, release.
/// Returns the instant the final toy delivery finished.
pub fn santa_loop(ops: &mut dyn SantaOps, ctx: &mut Ctx, cfg: &SantaConfig) -> SimTime {
    let mut deliveries = 0;
    let mut consults = 0;
    let mut last_delivery = ctx.now();
    while deliveries < cfg.deliveries || consults < cfg.elf_groups() {
        let (kind, batch) = ops.santa_take(ctx);
        ops.pass_gate(ctx, kind, batch, Gate::Entry);
        match kind {
            Kind::Reindeer => {
                ctx.sleep(cfg.delivery_time);
                deliveries += 1;
            }
            Kind::Elf => {
                ctx.sleep(cfg.consult_time);
                consults += 1;
            }
        }
        ops.pass_gate(ctx, kind, batch, Gate::Exit);
        if kind == Kind::Reindeer {
            last_delivery = ctx.now();
        }
    }
    last_delivery
}

// ---------------------------------------------------------------------------
// Local (POJO) implementation
// ---------------------------------------------------------------------------

struct LocalShared {
    joined: HashMap<Kind, u64>,
    reindeer_q: VecDeque<u64>,
    elf_q: VecDeque<u64>,
    gates: HashMap<(Kind, u64, Gate), LocalBarrier>,
}

/// The plain-old-objects solution: monitors and local barriers.
#[derive(Clone)]
pub struct LocalOps {
    monitor: Monitor,
    shared: Arc<Mutex<LocalShared>>,
}

impl LocalOps {
    /// Creates the shared local objects.
    pub fn new() -> LocalOps {
        LocalOps {
            monitor: Monitor::new("santa"),
            shared: Arc::new(Mutex::new(LocalShared {
                joined: HashMap::new(),
                reindeer_q: VecDeque::new(),
                elf_q: VecDeque::new(),
                gates: HashMap::new(),
            })),
        }
    }

    fn gate(&self, kind: Kind, batch: u64, gate: Gate) -> LocalBarrier {
        let mut st = self.shared.lock();
        st.gates
            .entry((kind, batch, gate))
            .or_insert_with(|| LocalBarrier::new(kind.group_size() as usize + 1))
            .clone()
    }
}

impl Default for LocalOps {
    fn default() -> Self {
        Self::new()
    }
}

impl SantaOps for LocalOps {
    fn join_group(&mut self, ctx: &mut Ctx, kind: Kind, quota: u64) -> Option<u64> {
        self.monitor.enter(ctx);
        let batch = {
            let mut st = self.shared.lock();
            let n = st.joined.entry(kind).or_insert(0);
            if *n >= quota {
                None
            } else {
                *n += 1;
                let joined = *n;
                let batch = (joined - 1) / kind.group_size();
                if joined.is_multiple_of(kind.group_size()) {
                    match kind {
                        Kind::Reindeer => st.reindeer_q.push_back(batch),
                        Kind::Elf => st.elf_q.push_back(batch),
                    }
                }
                Some(batch)
            }
        };
        // A full group wakes Santa if he is waiting.
        self.monitor.notify_all(ctx);
        self.monitor.exit(ctx);
        batch
    }

    fn santa_take(&mut self, ctx: &mut Ctx) -> (Kind, u64) {
        self.monitor.enter(ctx);
        let out = loop {
            let popped = {
                let mut st = self.shared.lock();
                if let Some(b) = st.reindeer_q.pop_front() {
                    Some((Kind::Reindeer, b))
                } else {
                    st.elf_q.pop_front().map(|b| (Kind::Elf, b))
                }
            };
            match popped {
                Some(x) => break x,
                None => self.monitor.wait(ctx),
            }
        };
        self.monitor.exit(ctx);
        out
    }

    fn pass_gate(&mut self, ctx: &mut Ctx, kind: Kind, batch: u64, gate: Gate) {
        let b = self.gate(kind, batch, gate);
        b.wait(ctx);
    }
}

/// Runs the POJO solution on simulated local threads.
pub fn run_santa_local(cfg: &SantaConfig) -> SantaReport {
    let mut sim = Sim::new(cfg.seed);
    let ops = LocalOps::new();
    let done = WaitGroup::new(19); // 9 reindeer + 10 elves
    for r in 0..9 {
        let mut ops = ops.clone();
        let done = done.clone();
        let cfg = *cfg;
        sim.spawn(&format!("reindeer-{r}"), move |ctx| {
            entity_loop(&mut ops, ctx, Kind::Reindeer, &cfg);
            done.done(ctx);
        });
    }
    for e in 0..10 {
        let mut ops = ops.clone();
        let done = done.clone();
        let cfg = *cfg;
        sim.spawn(&format!("elf-{e}"), move |ctx| {
            entity_loop(&mut ops, ctx, Kind::Elf, &cfg);
            done.done(ctx);
        });
    }
    let out: Arc<Mutex<Option<SimTime>>> = Arc::new(Mutex::new(None));
    let out2 = out.clone();
    let cfg2 = *cfg;
    let mut santa_ops = ops;
    sim.spawn("santa", move |ctx| {
        let t = santa_loop(&mut santa_ops, ctx, &cfg2);
        *out2.lock() = Some(t);
    });
    sim.run_until_idle().expect_quiescent();
    let t = out.lock().take().expect("santa finished");
    SantaReport { completion: t.saturating_duration_since(SimTime::ZERO) }
}

// ---------------------------------------------------------------------------
// The SantaInbox shared object (DSO variants)
// ---------------------------------------------------------------------------

/// Santa's inbox as a custom `@Shared` object: full groups are offered,
/// Santa's `take` parks until one is available, reindeer first.
#[derive(Debug, Default, Clone, Wire)]
pub struct SantaInbox {
    reindeer_q: VecDeque<u64>,
    elf_q: VecDeque<u64>,
    #[wire(skip)]
    waiting: Option<crucial::Ticket>,
}

impl SantaInbox {
    /// Registry type name.
    pub const TYPE: &'static str = "SantaInbox";

    /// Factory (no creation arguments).
    pub fn factory(args: &[u8]) -> Result<Box<dyn SharedObject>, ObjectError> {
        if !args.is_empty() {
            let _: () = crucial::codec::from_bytes(args)
                .map_err(|e| ObjectError::BadState(e.to_string()))?;
        }
        Ok(Box::<SantaInbox>::default())
    }

    fn pop(&mut self) -> Option<(u8, u64)> {
        if let Some(b) = self.reindeer_q.pop_front() {
            Some((0, b))
        } else {
            self.elf_q.pop_front().map(|b| (1, b))
        }
    }
}

impl SharedObject for SantaInbox {
    fn invoke(
        &mut self,
        call: &CallCtx,
        method: &str,
        args: &[u8],
    ) -> Result<Effects, ObjectError> {
        match method {
            "offer" => {
                let (tag, batch): (u8, u64) = crucial::codec::from_bytes(args)
                    .map_err(|e| ObjectError::BadArgs(e.to_string()))?;
                match tag {
                    0 => self.reindeer_q.push_back(batch),
                    _ => self.elf_q.push_back(batch),
                }
                let mut fx = Effects::value(&())?;
                if let Some(t) = self.waiting.take() {
                    let next = self.pop().expect("just offered");
                    fx = fx.wake(t, &next)?;
                }
                Ok(fx)
            }
            "take" => match self.pop() {
                Some(next) => Effects::value(&next),
                None => {
                    self.waiting = Some(call.ticket);
                    Ok(Effects::park())
                }
            },
            other => Err(ObjectError::MethodNotFound(other.to_string())),
        }
    }

    fn save(&self) -> Vec<u8> {
        crucial::codec::to_bytes(self).expect("inbox encodes")
    }

    fn restore(&mut self, state: &[u8]) -> Result<(), ObjectError> {
        *self =
            crucial::codec::from_bytes(state).map_err(|e| ObjectError::BadState(e.to_string()))?;
        Ok(())
    }
}

/// Registers the Santa application objects.
pub fn register_santa_objects(reg: &mut ObjectRegistry) {
    reg.register(SantaInbox::TYPE, SantaInbox::factory);
}

// ---------------------------------------------------------------------------
// DSO implementation
// ---------------------------------------------------------------------------

/// The `@Shared` solution: the exact same algorithm, with the objects in
/// the DSO layer. (Per Table 4, only the object bindings change.)
pub struct DsoOps {
    cli: DsoClient,
    joined_reindeer: AtomicLong,
    joined_elf: AtomicLong,
    inbox: RawHandle,
    gates: HashMap<(Kind, u64, Gate), CyclicBarrier>,
}

impl DsoOps {
    /// Binds the shared objects through a DSO client.
    pub fn new(cli: DsoClient) -> DsoOps {
        DsoOps {
            cli,
            joined_reindeer: AtomicLong::new("santa-joined-reindeer"),
            joined_elf: AtomicLong::new("santa-joined-elf"),
            inbox: RawHandle::new(SantaInbox::TYPE, "santa-inbox", 1, &()),
            gates: HashMap::new(),
        }
    }

    fn gate(&mut self, kind: Kind, batch: u64, gate: Gate) -> CyclicBarrier {
        self.gates
            .entry((kind, batch, gate))
            .or_insert_with(|| {
                let g = match gate {
                    Gate::Entry => "in",
                    Gate::Exit => "out",
                };
                CyclicBarrier::new(
                    &format!("santa-gate-{}-{batch}-{g}", kind.tag()),
                    kind.group_size() as u32 + 1,
                )
            })
            .clone()
    }
}

impl SantaOps for DsoOps {
    fn join_group(&mut self, ctx: &mut Ctx, kind: Kind, quota: u64) -> Option<u64> {
        let counter = match kind {
            Kind::Reindeer => &self.joined_reindeer,
            Kind::Elf => &self.joined_elf,
        };
        // Claim a slot with CAS so the quota is never exceeded.
        let joined = loop {
            let cur = counter.get(ctx, &mut self.cli).expect("dso");
            if cur as u64 >= quota {
                return None;
            }
            if counter.compare_and_set(ctx, &mut self.cli, cur, cur + 1).expect("dso") {
                break (cur + 1) as u64;
            }
        };
        let batch = (joined - 1) / kind.group_size();
        if joined % kind.group_size() == 0 {
            let _: () =
                self.inbox.call(ctx, &mut self.cli, "offer", &(kind.tag(), batch)).expect("dso");
        }
        Some(batch)
    }

    fn santa_take(&mut self, ctx: &mut Ctx) -> (Kind, u64) {
        let (tag, batch): (u8, u64) =
            self.inbox.call_blocking(ctx, &mut self.cli, "take", &()).expect("dso");
        (Kind::from_tag(tag), batch)
    }

    fn pass_gate(&mut self, ctx: &mut Ctx, kind: Kind, batch: u64, gate: Gate) {
        let b = self.gate(kind, batch, gate);
        b.wait(ctx, &mut self.cli).expect("dso");
    }
}

/// Runs the DSO solution with *local* threads (the paper's middle variant).
pub fn run_santa_dso(cfg: &SantaConfig) -> SantaReport {
    let mut sim = Sim::new(cfg.seed);
    let mut ccfg = CrucialConfig::default();
    register_santa_objects(&mut ccfg.registry);
    let dep = Deployment::start(&sim, ccfg);
    let handle = dep.dso_handle();
    let done = WaitGroup::new(19);
    for r in 0..9 {
        let handle = handle.clone();
        let done = done.clone();
        let cfg = *cfg;
        sim.spawn(&format!("reindeer-{r}"), move |ctx| {
            let mut ops = DsoOps::new(handle.connect());
            entity_loop(&mut ops, ctx, Kind::Reindeer, &cfg);
            done.done(ctx);
        });
    }
    for e in 0..10 {
        let handle = handle.clone();
        let done = done.clone();
        let cfg = *cfg;
        sim.spawn(&format!("elf-{e}"), move |ctx| {
            let mut ops = DsoOps::new(handle.connect());
            entity_loop(&mut ops, ctx, Kind::Elf, &cfg);
            done.done(ctx);
        });
    }
    let out: Arc<Mutex<Option<SimTime>>> = Arc::new(Mutex::new(None));
    let out2 = out.clone();
    let cfg2 = *cfg;
    sim.spawn("santa", move |ctx| {
        let mut ops = DsoOps::new(handle.connect());
        let t = santa_loop(&mut ops, ctx, &cfg2);
        *out2.lock() = Some(t);
    });
    sim.run_until_idle().expect_quiescent();
    let t = out.lock().take().expect("santa finished");
    SantaReport { completion: t.saturating_duration_since(SimTime::ZERO) }
}

// ---------------------------------------------------------------------------
// Cloud-thread implementation
// ---------------------------------------------------------------------------

/// An entity (or Santa) as a cloud function.
#[derive(Clone, Wire)]
pub struct SantaEntity {
    /// Role: `None` is Santa, otherwise the entity's kind.
    pub kind: Option<Kind>,
    /// Problem parameters.
    pub cfg: SantaConfig,
    /// Start barrier for all 20 participants: the measurement starts when
    /// everyone is warm ("we do not include cold starts", §6.3.3).
    pub start_barrier: CyclicBarrier,
    /// Where Santa reports the measured span (nanos).
    pub completion: AtomicLong,
}

impl Runnable for SantaEntity {
    fn run(&mut self, env: &mut FnEnv<'_, '_>) -> RunResult {
        let mut ops = DsoOps::new(env.dso_connect());
        {
            let (ctx, cli) = env.dso();
            self.start_barrier.wait(ctx, cli).map_err(|e| e.to_string())?;
        }
        match self.kind {
            Some(kind) => {
                entity_loop(&mut ops, env.ctx(), kind, &self.cfg);
            }
            None => {
                let t0 = env.ctx().now();
                let t = santa_loop(&mut ops, env.ctx(), &self.cfg);
                let span = t.saturating_duration_since(t0);
                let (ctx, cli) = env.dso();
                self.completion.set(ctx, cli, span.as_nanos() as i64).map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    }
}

/// Runs the fully serverless solution: the same DSO objects, with every
/// entity (Santa included) as a cloud thread.
pub fn run_santa_cloud(cfg: &SantaConfig) -> SantaReport {
    let mut sim = Sim::new(cfg.seed);
    let mut ccfg = CrucialConfig::default();
    register_santa_objects(&mut ccfg.registry);
    let dep = Deployment::start(&sim, ccfg);
    dep.register::<SantaEntity>();
    let threads = dep.threads();
    let dso = dep.dso_handle();
    let out: Arc<Mutex<Option<Duration>>> = Arc::new(Mutex::new(None));
    let out2 = out.clone();
    let cfg2 = *cfg;
    sim.spawn("santa-master", move |ctx| {
        let completion = AtomicLong::new("santa-completion");
        let start_barrier = CyclicBarrier::new("santa-start", 20);
        let mut entities: Vec<SantaEntity> = Vec::new();
        for _ in 0..9 {
            entities.push(SantaEntity {
                kind: Some(Kind::Reindeer),
                cfg: cfg2,
                start_barrier: start_barrier.clone(),
                completion: completion.clone(),
            });
        }
        for _ in 0..10 {
            entities.push(SantaEntity {
                kind: Some(Kind::Elf),
                cfg: cfg2,
                start_barrier: start_barrier.clone(),
                completion: completion.clone(),
            });
        }
        entities.push(SantaEntity {
            kind: None,
            cfg: cfg2,
            start_barrier: start_barrier.clone(),
            completion: completion.clone(),
        });
        let handles = threads.start_all(ctx, &entities);
        join_all(ctx, handles).expect("entities finish");
        let mut cli = dso.connect();
        let span = completion.get(ctx, &mut cli).expect("dso") as u64;
        *out2.lock() = Some(Duration::from_nanos(span));
    });
    sim.run_until_idle().expect_quiescent();
    let completion = out.lock().take().expect("master finished");
    SantaReport { completion }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> SantaConfig {
        SantaConfig {
            seed: 7,
            deliveries: 5,
            consults_per_elf: 3,
            delivery_time: Duration::from_millis(50),
            consult_time: Duration::from_millis(20),
            max_work_time: Duration::from_millis(100),
        }
    }

    #[test]
    fn local_solution_completes() {
        let r = run_santa_local(&quick_cfg());
        // 5 deliveries of 50ms plus work gaps: bounded both ways.
        assert!(r.completion > Duration::from_millis(250), "{:?}", r.completion);
        assert!(r.completion < Duration::from_secs(10), "{:?}", r.completion);
    }

    #[test]
    fn dso_solution_completes_with_small_overhead() {
        // Shrink the random work gaps and average over several seeds: the
        // messaging overhead being measured is fixed per operation, and a
        // single run's random work times would otherwise swamp it.
        let (mut local_t, mut dso_t) = (0.0f64, 0.0f64);
        for seed in [7, 11, 23, 41] {
            let cfg = SantaConfig { seed, max_work_time: Duration::from_millis(5), ..quick_cfg() };
            local_t += run_santa_local(&cfg).completion.as_secs_f64();
            dso_t += run_santa_dso(&cfg).completion.as_secs_f64();
        }
        let ratio = dso_t / local_t;
        // Fig. 7c: storing the objects in Crucial costs ~8%.
        assert!(
            ratio > 1.0 && ratio < 1.5,
            "dso/local = {ratio} (local sum {local_t}s, dso sum {dso_t}s)"
        );
    }

    #[test]
    fn cloud_solution_close_to_dso() {
        let dso = run_santa_dso(&quick_cfg());
        let cloud = run_santa_cloud(&quick_cfg());
        let ratio = cloud.completion.as_secs_f64() / dso.completion.as_secs_f64();
        // Fig. 7c: "almost no difference in the completion time".
        assert!(
            (0.8..1.6).contains(&ratio),
            "cloud/dso = {ratio} (dso {:?}, cloud {:?})",
            dso.completion,
            cloud.completion
        );
    }

    #[test]
    fn deliveries_and_consults_all_served_deterministically() {
        let a = run_santa_local(&quick_cfg());
        let b = run_santa_local(&quick_cfg());
        assert_eq!(a.completion, b.completion, "deterministic replay");
    }
}
