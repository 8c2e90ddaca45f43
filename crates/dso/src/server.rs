//! A DSO storage node.
//!
//! Each node runs one *dispatcher* process (its network-facing mailbox) and
//! a pool of *worker* processes, all of them [`simcore::Actor`]s: a
//! wake-up handles one message and returns to waiting, with no stack of
//! its own behind it. Requests are routed to a worker by the
//! object's placement hash, which gives both per-object serialization
//! (linearizability) and disjoint-access parallelism across objects — the
//! property behind Crucial's Fig. 2a win on complex operations.
//!
//! Persistent objects (`rf > 1`) take the SMR path: the contacted replica
//! initiates a Skeen total-order multicast among the replica group; every
//! replica applies the delivered operation, and the initiating node replies
//! to the client.

use std::cell::{Cell, RefCell};
use std::collections::hash_map::Entry;
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use simcore::{
    Actor, Addr, FxHashMap, LatencyModel, Msg, Pid, Proc, Request, Sim, SimTime, SpanId, Ticker,
    Wait, Wake,
};

use crate::config::{AdmissionConfig, DsoConfig, DurabilityLevel};
use crate::durability::wal::{wal_daemon, PendingAck, WalState};
use crate::object::costs::{CLIENT_NET, TRANSFER_BANDWIDTH};
use crate::object::{dispatch, CallCtx, ObjectRef, ObjectRegistry, Reply, SharedObject, Ticket};
use crate::protocol::{
    DrainNode, InvokeReq, InvokeResp, MemberMsg, NodeId, PeerMsg, SmrOp, VersionReq, VersionResp,
    View, ViewUpdate, WalRecord,
};
use crate::skeen::{Action, Skeen};

/// Handle to a running storage node, used by harnesses and the control
/// plane to crash it abruptly or drain it gracefully.
#[derive(Clone, Debug)]
pub struct ServerHandle {
    /// The node's id.
    pub node: NodeId,
    pids: Rc<RefCell<Vec<Pid>>>,
    /// The dispatcher's inbox, published once the node is up and cleared
    /// when it retires — the target for [`DrainNode`].
    inbox: Rc<Cell<Option<Addr>>>,
    peer_net: LatencyModel,
}

impl ServerHandle {
    /// Kills the dispatcher and all workers without any goodbye — the
    /// "(abrupt) removal of a node" from Fig. 8. The membership
    /// coordinator notices through missed heartbeats.
    pub fn crash(&self, sim: &Sim) {
        for pid in self.pids.borrow().iter() {
            sim.kill(*pid);
        }
    }

    /// Kills the node from inside the simulation (e.g. from a fault
    /// injector process).
    pub fn crash_from(&self, ctx: &mut Proc) {
        for pid in self.pids.borrow().iter() {
            ctx.kill(*pid);
        }
    }

    /// Asks the node to drain gracefully: it leaves the membership view,
    /// transfers every object it still stores to the new owners under the
    /// leave view, then retires its processes. Returns `false` when the
    /// node is not (or no longer) running. See [`DrainNode`].
    pub fn drain_from(&self, ctx: &mut Proc) -> bool {
        let Some(addr) = self.inbox.get() else { return false };
        let lat = self.peer_net.sample(ctx.rng());
        ctx.send(addr, Msg::new(DrainNode), lat);
        true
    }
}

struct Stored {
    obj: Box<dyn SharedObject>,
    rf: u8,
    version: u64,
    /// Lamport stamp of the last applied mutation. Stamped as
    /// `max(stored, req.dep) + 1`, which is deterministic per applied
    /// write, so SMR replicas assign identical stamps without exchanging
    /// clocks.
    lamport: u64,
}

struct NodeShared {
    node: NodeId,
    cfg: DsoConfig,
    registry: ObjectRegistry,
    objects: RefCell<FxHashMap<ObjectRef, Stored>>,
    parked: RefCell<FxHashMap<Ticket, Addr>>,
    next_ticket: Cell<u64>,
    /// Invocations routed to workers and not yet finished (queued +
    /// executing) — the "queue depth" the admission controller bounds.
    inflight: Cell<u64>,
    /// The node's write-ahead-log buffer; `Some` only when durability is
    /// active (see [`crate::DurabilityConfig`]). Workers append applied
    /// mutations, the per-node WAL daemon group-commits them.
    wal: Option<Rc<WalState>>,
}

/// Per-node admission controller: a token bucket (sustained rate + burst)
/// and a queue-depth cap, both over virtual time. See [`AdmissionConfig`].
struct Shedder {
    cfg: AdmissionConfig,
    tokens: f64,
    last_refill: SimTime,
}

impl Shedder {
    fn new(cfg: AdmissionConfig, now: SimTime) -> Shedder {
        Shedder { tokens: cfg.burst, last_refill: now, cfg }
    }

    /// Refills by elapsed virtual time and takes one token; `false` means
    /// the request must be shed (bucket empty or queue full).
    fn admit(&mut self, now: SimTime, inflight: u64) -> bool {
        let dt = now.saturating_duration_since(self.last_refill).as_secs_f64();
        self.last_refill = now;
        self.tokens = (self.tokens + dt * self.cfg.rate).min(self.cfg.burst);
        if self.tokens < 1.0 || inflight >= u64::from(self.cfg.max_queue_depth) {
            return false;
        }
        self.tokens -= 1.0;
        true
    }
}

enum WorkItem {
    Client {
        req: InvokeReq,
        reply_to: Addr,
    },
    /// A delivered replicated write; `respond_to` is the op's own address at
    /// the initiating node and `None` at every other replica.
    Apply {
        op: Rc<SmrOp>,
        respond_to: Option<Addr>,
    },
}

/// Spawns a storage node (dispatcher + workers). The node joins the
/// membership coordinator at `coordinator` and serves once a view that
/// includes it is installed.
pub fn spawn_server(
    sim: &Sim,
    node: NodeId,
    cfg: DsoConfig,
    registry: ObjectRegistry,
    coordinator: Addr,
) -> ServerHandle {
    let (handle, dispatcher) = prepare_server(node, cfg, registry, coordinator);
    let main = sim.spawn_daemon_actor(&format!("dso-{node}"), dispatcher);
    handle.pids.borrow_mut().push(main);
    handle
}

/// [`spawn_server`] from inside the simulation — used by the control plane
/// to scale out without leaving virtual time.
pub fn spawn_server_from(
    ctx: &mut Proc,
    node: NodeId,
    cfg: DsoConfig,
    registry: ObjectRegistry,
    coordinator: Addr,
) -> ServerHandle {
    let (handle, dispatcher) = prepare_server(node, cfg, registry, coordinator);
    let main = ctx.spawn_daemon_actor(&format!("dso-{node}"), dispatcher);
    handle.pids.borrow_mut().push(main);
    handle
}

fn prepare_server(
    node: NodeId,
    cfg: DsoConfig,
    registry: ObjectRegistry,
    coordinator: Addr,
) -> (ServerHandle, Dispatcher) {
    let pids = Rc::new(RefCell::new(Vec::new()));
    let inbox_slot = Rc::new(Cell::new(None));
    let handle = ServerHandle {
        node,
        pids: pids.clone(),
        inbox: inbox_slot.clone(),
        peer_net: cfg.peer_net,
    };
    let wal = cfg.durability.as_ref().map(|_| Rc::new(WalState::new(node)));
    let shared = Rc::new(NodeShared {
        node,
        cfg,
        registry,
        objects: RefCell::new(FxHashMap::default()),
        parked: RefCell::new(FxHashMap::default()),
        next_ticket: Cell::new(1),
        inflight: Cell::new(0),
        wal,
    });
    (handle, Dispatcher { coordinator, shared, pids, inbox_slot, up: None })
}

/// The node's network-facing process: one wake-up handles one message (or
/// one heartbeat timeout) and goes back to waiting on the inbox.
struct Dispatcher {
    coordinator: Addr,
    shared: Rc<NodeShared>,
    pids: Rc<RefCell<Vec<Pid>>>,
    inbox_slot: Rc<Cell<Option<Addr>>>,
    /// Built on the first wake-up, inside the simulation: mailbox ids, pids
    /// and the join's latency draw are part of the schedule.
    up: Option<Serving>,
}

/// A running dispatcher's state.
struct Serving {
    coordinator: Addr,
    shared: Rc<NodeShared>,
    inbox: Addr,
    workers: Vec<Addr>,
    worker_pids: Vec<Pid>,
    view: View,
    skeen: Skeen<Rc<SmrOp>>,
    /// Skeen's output, drained by [`process_skeen_actions`] after every
    /// step: one buffer for the node's life, empty between messages.
    actions: Vec<Action<Rc<SmrOp>>>,
    /// A replicated write's replica group, built here and copied once into
    /// the group Skeen shares: one buffer for the node's life.
    group: Vec<NodeId>,
    hb: Ticker,
    shedder: Option<Shedder>,
    draining: bool,
}

impl Dispatcher {
    /// Opens the inbox, starts the worker pool and the WAL daemon, and
    /// joins the cluster.
    fn start(&self, ctx: &mut Proc) -> Serving {
        let node = self.shared.node;
        let cfg = &self.shared.cfg;
        let inbox = ctx.mailbox(&format!("dso-{node}-inbox"));
        self.inbox_slot.set(Some(inbox));

        // Worker pool. Worker mailboxes are owned by the dispatcher, so an
        // abrupt node crash closes them all at once.
        let mut workers: Vec<Addr> = Vec::with_capacity(cfg.workers_per_node as usize);
        let mut worker_pids: Vec<Pid> = Vec::with_capacity(cfg.workers_per_node as usize);
        for w in 0..cfg.workers_per_node {
            let wmb = ctx.mailbox(&format!("dso-{node}-w{w}"));
            workers.push(wmb);
            let worker = Worker { inbox: wmb, shared: self.shared.clone(), running: None };
            let pid = ctx.spawn_daemon_actor(&format!("dso-{node}-w{w}"), worker);
            worker_pids.push(pid);
            self.pids.borrow_mut().push(pid);
        }

        // The WAL daemon exists only when durability is configured; every
        // other configuration runs the exact pre-existing process set, which
        // keeps default-config schedules (and their golden hashes)
        // byte-identical.
        if let (Some(wal), Some(d)) = (self.shared.wal.clone(), cfg.durability.clone()) {
            let pid = ctx.spawn_daemon(&format!("dso-{node}-wal"), move |wc| {
                wal_daemon(wc, wal, d);
            });
            self.pids.borrow_mut().push(pid);
        }

        // Join the cluster.
        let lat = cfg.peer_net.sample(ctx.rng());
        ctx.send(self.coordinator, Msg::new(MemberMsg::Join { node, addr: inbox }), lat);

        Serving {
            coordinator: self.coordinator,
            shared: self.shared.clone(),
            inbox,
            workers,
            worker_pids,
            view: View::empty(),
            skeen: Skeen::new(node),
            actions: Vec::new(),
            group: Vec::new(),
            hb: Ticker::new(ctx.now(), cfg.heartbeat_interval),
            shedder: cfg.admission.map(|a| Shedder::new(a, ctx.now())),
            draining: false,
        }
    }
}

impl Actor for Dispatcher {
    fn on_wake(&mut self, ctx: &mut Proc, wake: Wake) -> Wait {
        let msg = match wake {
            Wake::Start => {
                let up = self.start(ctx);
                let wait = up.next_wait(ctx);
                self.up = Some(up);
                return wait;
            }
            Wake::Msg(msg) => Some(msg),
            // The heartbeat is due (the dispatcher never sleeps).
            Wake::Timeout | Wake::Slept => None,
        };
        #[expect(
            clippy::expect_used,
            reason = "invariant: `Wake::Start` comes first and fills `up`"
        )]
        let up = self.up.as_mut().expect("dispatcher started");
        up.tick(ctx);
        if let Some(msg) = msg {
            if up.handle(ctx, msg) == Next::Retire {
                self.inbox_slot.take();
                return Wait::Exit;
            }
        }
        up.next_wait(ctx)
    }
}

/// Whether the dispatcher keeps serving after a message.
#[derive(PartialEq)]
enum Next {
    Serve,
    /// Drained: the process ends, which closes the owned mailboxes.
    Retire,
}

impl Serving {
    /// The next message, or the heartbeat deadline.
    fn next_wait(&self, ctx: &Proc) -> Wait {
        Wait::RecvTimeout(self.inbox, self.hb.remaining(ctx.now()))
    }

    /// Sends the heartbeat if it is due.
    fn tick(&mut self, ctx: &mut Proc) {
        let shared = &self.shared;
        if self.hb.poll(ctx.now()) {
            let lat = shared.cfg.peer_net.sample(ctx.rng());
            ctx.send(self.coordinator, Msg::new(MemberMsg::Heartbeat { node: shared.node }), lat);
            // Queue-depth gauge, stamped on the heartbeat cadence so the
            // control plane (and operators) can see dispatcher pressure.
            ctx.metric_push("dso.queue_depth", shared.inflight.get() as f64);
        }
    }

    /// Handles one inbox message.
    fn handle(&mut self, ctx: &mut Proc, msg: Msg) -> Next {
        let Serving { coordinator, shared, workers, view, skeen, actions, group, shedder, .. } =
            self;
        let shared = &*shared;
        let node = shared.node;
        let cfg = &shared.cfg;
        let msg = match msg.try_take::<Request>() {
            Ok(req) => {
                if req.body.is::<crate::protocol::SnapshotAll>() {
                    let (reply_to, _) = req.take::<crate::protocol::SnapshotAll>();
                    let records = snapshot_all(shared);
                    let bytes: usize = records.iter().map(|r| r.state.len()).sum();
                    let lat = CLIENT_NET.sample(ctx.rng())
                        + Duration::from_secs_f64(bytes as f64 / TRANSFER_BANDWIDTH);
                    ctx.reply(reply_to, crate::protocol::SnapshotReply(records), lat);
                    return Next::Serve;
                }
                if req.body.is::<VersionReq>() {
                    // Version probe: answered straight from the dispatcher,
                    // no worker hop, no method CPU — the cheap half of the
                    // read caches' validate-then-reuse protocol.
                    let (reply_to, probe) = req.take::<VersionReq>();
                    let owned = view
                        .ring()
                        .placement_iter(probe.obj.placement_hash(), probe.rf.max(1))
                        .any(|n| n == shared.node);
                    let version = if owned {
                        shared.objects.borrow().get(&probe.obj).map(|s| s.version)
                    } else {
                        None
                    };
                    let lat = CLIENT_NET.sample(ctx.rng());
                    ctx.reply(reply_to, VersionResp(version), lat);
                    return Next::Serve;
                }
                let (reply_to, invoke) = req.take::<InvokeReq>();
                handle_client_invoke(
                    ctx, shared, view, workers, skeen, actions, group, shedder, invoke, reply_to,
                );
                return Next::Serve;
            }
            Err(other) => other,
        };
        let msg = match msg.try_take::<PeerMsg>() {
            Ok(PeerMsg::Smr { from, epoch, msg }) => {
                // Stale- or future-epoch SMR traffic is dropped; the client
                // retries once both replicas share the view.
                if epoch == view.id() {
                    skeen.handle_into(from, msg, actions);
                    process_skeen_actions(ctx, shared, view, workers, skeen, actions);
                }
                return Next::Serve;
            }
            Ok(PeerMsg::Transfer { obj, rf, state, version, lamport }) => {
                install_transfer(shared, obj, rf, state, version, lamport);
                return Next::Serve;
            }
            Err(other) => other,
        };
        let msg = match msg.try_take::<ViewUpdate>() {
            Ok(ViewUpdate(new_view)) => {
                if new_view.id() > view.id() {
                    rebalance(ctx, shared, view, &new_view);
                    // Abort in-flight SMR: a departed replica can never
                    // answer, and a stalled message would head-of-line
                    // block every later delivery. Clients retry.
                    skeen.reset();
                    *view = new_view;
                    if self.draining && view.addr_of(node).is_none() {
                        // The leave view is installed and `rebalance` has
                        // pushed every object to its new owners (this node
                        // is in no placement). Retire: kill the workers and
                        // exit, which closes the owned mailboxes.
                        ctx.trace(format!("dso-{node}: drained, retiring"));
                        // Records buffered before the drain (and any Sync
                        // acks riding them) must not die with the node: the
                        // WAL daemon outlives it by one last flush.
                        if let Some(wal) = &shared.wal {
                            wal.retire();
                        }
                        for p in &self.worker_pids {
                            ctx.kill(*p);
                        }
                        return Next::Retire;
                    }
                }
                return Next::Serve;
            }
            Err(other) => other,
        };
        match msg.try_take::<DrainNode>() {
            Ok(DrainNode) => {
                if !self.draining {
                    self.draining = true;
                    ctx.metric_incr("dso.drains");
                    let mark = ctx.span_instant("dso.drain", "dso");
                    ctx.span_annotate(mark, "node", node);
                    // Announce the graceful departure; the coordinator's
                    // next view excludes this node and is also pushed to
                    // it, which triggers the transfer-out + retire above.
                    let lat = cfg.peer_net.sample(ctx.rng());
                    ctx.send(*coordinator, Msg::new(MemberMsg::Leave { node }), lat);
                }
            }
            Err(other) => {
                ctx.trace(format!("dso-{node}: dropping unknown message {other:?}"));
            }
        }
        Next::Serve
    }
}

#[expect(
    clippy::too_many_arguments,
    reason = "the dispatcher's state, passed by field so each borrow stays disjoint"
)]
fn handle_client_invoke(
    ctx: &mut Proc,
    shared: &Rc<NodeShared>,
    view: &View,
    workers: &[Addr],
    skeen: &mut Skeen<Rc<SmrOp>>,
    actions: &mut Vec<Action<Rc<SmrOp>>>,
    group: &mut Vec<NodeId>,
    shedder: &mut Option<Shedder>,
    req: InvokeReq,
    reply_to: Addr,
) {
    if let Some(s) = shedder {
        // Admission gate, ahead of any ownership or routing work: shedding
        // here keeps queueing (and thus latency) bounded under overload.
        if !s.admit(ctx.now(), shared.inflight.get()) {
            ctx.metric_incr("dso.shed");
            let mark = ctx.span_instant("dso.shed", "dso");
            ctx.span_annotate(mark, "obj", &req.obj);
            let lat = CLIENT_NET.sample(ctx.rng());
            let resp = InvokeResp::Overloaded { retry_after: s.cfg.retry_after };
            ctx.reply(reply_to, resp, lat);
            return;
        }
    }
    // Declared read-only operations never mutate, so they skip the SMR
    // broadcast even on replicated objects: this node serves them from its
    // local copy (the read fast path). Under the default primary-only
    // routing this stays linearizable; under replica reads the client
    // enforces monotonicity via the returned version. So only a replicated
    // write needs its whole replica group; anything else needs a yes/no.
    let mut placement = view.ring().placement_iter(req.obj.placement_hash(), req.rf.max(1));
    group.clear();
    let owned = if req.rf > 1 && !req.readonly {
        group.extend(placement);
        group.contains(&shared.node)
    } else {
        placement.any(|n| n == shared.node)
    };
    if !owned {
        let lat = CLIENT_NET.sample(ctx.rng());
        ctx.reply(reply_to, InvokeResp::NotOwner { view: view.id() }, lat);
        return;
    }
    if group.len() > 1 {
        // SMR path: totally-order the operation among the replica group.
        // The round span covers multicast through total-order delivery at
        // the initiating node; every replica's apply span nests under it.
        let round_span = ctx.span_begin_under(req.span, "dso.smr_round", "dso");
        ctx.span_annotate(round_span, "obj", &req.obj);
        ctx.metric_incr("dso.smr_rounds");
        let op = Rc::new(SmrOp { req, respond_to: reply_to, round_span });
        skeen.multicast_into(&group[..], op, actions);
        process_skeen_actions(ctx, shared, view, workers, skeen, actions);
    } else {
        route_to_worker(ctx, shared, workers, WorkItem::Client { req, reply_to });
    }
}

/// Executes one step's Skeen actions, left in `stack` in protocol order:
/// peer sends go on the wire, self-sends loop back through the state
/// machine immediately (zero network cost), deliveries are dispatched to
/// workers in order. Leaves `stack` empty.
fn process_skeen_actions(
    ctx: &mut Proc,
    shared: &Rc<NodeShared>,
    view: &View,
    workers: &[Addr],
    skeen: &mut Skeen<Rc<SmrOp>>,
    stack: &mut Vec<Action<Rc<SmrOp>>>,
) {
    let node = shared.node;
    // Popped from the back, so each batch is reversed in place: actions run
    // in protocol order, and a self-send's own batch runs before the rest
    // of the batch that produced it.
    stack.reverse();
    while let Some(action) = stack.pop() {
        match action {
            Action::Send { to, msg } => {
                if to == node {
                    let batch = stack.len();
                    skeen.handle_into(node, msg, stack);
                    stack[batch..].reverse();
                } else if let Some(addr) = view.addr_of(to) {
                    let lat = shared.cfg.peer_net.sample(ctx.rng());
                    let smr = PeerMsg::Smr { from: node, epoch: view.id(), msg };
                    ctx.send(addr, Msg::new(smr), lat);
                } else {
                    // Peer not in our view (crashed / not yet seen): the
                    // multicast stalls and the client retries after its
                    // timeout.
                    ctx.trace(format!("dso-{node}: dropping SMR message to absent {to}"));
                }
            }
            Action::Deliver { mid, payload: op, .. } => {
                // Only the initiating replica answers the client.
                let respond_to = (mid.node == node).then_some(op.respond_to);
                if respond_to.is_some() {
                    // Delivered back at the initiator: the ordering round
                    // is decided (the applies are children of it).
                    ctx.span_end(op.round_span);
                }
                route_to_worker(ctx, shared, workers, WorkItem::Apply { op, respond_to });
            }
        }
    }
}

fn route_to_worker(ctx: &mut Proc, shared: &Rc<NodeShared>, workers: &[Addr], item: WorkItem) {
    let obj = match &item {
        WorkItem::Client { req, .. } => &req.obj,
        WorkItem::Apply { op, .. } => &op.req.obj,
    };
    // One worker per object (by placement hash): per-object serialization,
    // disjoint-access parallelism across objects.
    let idx = (obj.placement_hash() % workers.len() as u64) as usize;
    shared.inflight.set(shared.inflight.get() + 1);
    // Intra-node handoff costs nothing on the simulated network.
    ctx.send(workers[idx], Msg::new(item), Duration::ZERO);
}

/// Buffers the post-state of an applied mutation into the node's WAL
/// (a physical redo record — replay installs the newest version per
/// object). Returns whether anything was logged, i.e. whether durability
/// is active on this node.
fn wal_log(shared: &Rc<NodeShared>, obj: &ObjectRef, stored: &Stored, req: &InvokeReq) -> bool {
    let Some(wal) = &shared.wal else { return false };
    wal.log(WalRecord {
        obj: obj.clone(),
        rf: stored.rf,
        method: req.method.into(),
        version: stored.version,
        lamport: stored.lamport,
        state: stored.obj.save(),
    });
    true
}

/// Marshals every locally-stored object (the passivation dump).
fn snapshot_all(shared: &Rc<NodeShared>) -> Vec<crate::protocol::ObjectRecord> {
    let objects = shared.objects.borrow();
    let mut records: Vec<crate::protocol::ObjectRecord> = objects
        .iter()
        .map(|(obj, stored)| crate::protocol::ObjectRecord {
            obj: obj.clone(),
            rf: stored.rf,
            version: stored.version,
            state: stored.obj.save(),
        })
        .collect();
    records.sort_by(|a, b| a.obj.cmp(&b.obj));
    records
}

fn install_transfer(
    shared: &Rc<NodeShared>,
    obj: ObjectRef,
    rf: u8,
    state: Vec<u8>,
    version: u64,
    lamport: u64,
) {
    let mut objects = shared.objects.borrow_mut();
    let newer = objects.get(&obj).is_none_or(|s| s.version < version);
    if !newer {
        return;
    }
    let mut instance = match shared.registry.create(obj.type_name(), &[]) {
        Ok(i) => i,
        Err(_) => return, // unknown type on this node: drop the transfer
    };
    if instance.restore(&state).is_ok() {
        objects.insert(obj, Stored { obj: instance, rf, version, lamport });
    }
}

/// On a view change, push object state to new owners and drop objects this
/// node no longer holds (§4.1: "the nodes re-balance data according to the
/// new view").
fn rebalance(ctx: &mut Proc, shared: &Rc<NodeShared>, old_view: &View, new_view: &View) {
    let node = shared.node;
    let (old_ring, new_ring) = (old_view.ring(), new_view.ring());
    let mut to_remove: Vec<ObjectRef> = Vec::new();
    let mut to_send: Vec<(Addr, ObjectRef, u8, Vec<u8>, u64, u64)> = Vec::new();
    {
        let objects = shared.objects.borrow();
        for (obj_ref, stored) in objects.iter() {
            let rf = stored.rf.max(1);
            let newp = new_ring.placement(obj_ref, rf);
            let oldp = old_ring.placement(obj_ref, rf);
            let keep = newp.contains(&node);
            let targets: Vec<NodeId> = if keep {
                newp.iter().copied().filter(|p| *p != node && !oldp.contains(p)).collect()
            } else {
                to_remove.push(obj_ref.clone());
                newp
            };
            if !targets.is_empty() {
                let state = stored.obj.save();
                for t in targets {
                    if let Some(addr) = new_view.addr_of(t) {
                        to_send.push((
                            addr,
                            obj_ref.clone(),
                            rf,
                            state.clone(),
                            stored.version,
                            stored.lamport,
                        ));
                    }
                }
            }
        }
    }
    // Sent in object order, never the table's: each transfer draws a peer
    // latency, so this order is part of the schedule.
    to_send.sort_by(|a, b| a.1.cmp(&b.1));
    for (addr, obj, rf, state, version, lamport) in to_send {
        let lat = shared.cfg.peer_net.sample(ctx.rng())
            + Duration::from_secs_f64(state.len() as f64 / TRANSFER_BANDWIDTH);
        ctx.send(addr, Msg::new(PeerMsg::Transfer { obj, rf, state, version, lamport }), lat);
    }
    if !to_remove.is_empty() {
        let mut objects = shared.objects.borrow_mut();
        for r in &to_remove {
            objects.remove(r);
        }
    }
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

enum CallOutcome {
    Reply(InvokeResp, Duration),
    Parked(Duration),
}

/// A method call that has run against the object store and now owes its
/// CPU cost, its wakes and its reply — what [`execute`] hands to
/// [`finish`], across the worker's one sleep.
struct Executed {
    ticket: Ticket,
    reply_to: Option<Addr>,
    outcome: CallOutcome,
    wakes: Vec<(Ticket, Vec<u8>)>,
    /// Whether the call's effect was WAL-logged: under `Sync` durability
    /// such a reply is deferred until the covering segment is flushed.
    logged: bool,
    exec_span: SpanId,
}

impl Executed {
    /// The method's CPU cost.
    fn cost(&self) -> Duration {
        match &self.outcome {
            CallOutcome::Reply(_, c) | CallOutcome::Parked(c) => *c,
        }
    }
}

/// One of the node's pool of executors: takes a work item, runs the method,
/// sleeps its CPU cost, then completes it.
struct Worker {
    inbox: Addr,
    shared: Rc<NodeShared>,
    /// The call whose CPU cost is being slept.
    running: Option<Executed>,
}

impl Actor for Worker {
    fn on_wake(&mut self, ctx: &mut Proc, wake: Wake) -> Wait {
        let done = match wake {
            // (A worker's receive has no timeout.)
            Wake::Start | Wake::Timeout => return Wait::Recv(self.inbox),
            Wake::Msg(msg) => {
                let done = match msg.take::<WorkItem>() {
                    WorkItem::Client { req, reply_to } => {
                        // Execution parents directly under the client's attempt span.
                        execute(ctx, &self.shared, &req, Some(reply_to), false, req.span)
                    }
                    WorkItem::Apply { op, respond_to } => {
                        // Replicated applies parent under the SMR round span.
                        execute(ctx, &self.shared, &op.req, respond_to, true, op.round_span)
                    }
                };
                let cost = done.cost();
                if !cost.is_zero() {
                    self.running = Some(done);
                    return Wait::Sleep(cost);
                }
                done
            }
            #[expect(
                clippy::expect_used,
                reason = "invariant: the only sleep is the one taken above, with `running` set"
            )]
            Wake::Slept => self.running.take().expect("slept on a running call"),
        };
        finish(ctx, &self.shared, done);
        self.shared.inflight.set(self.shared.inflight.get() - 1);
        Wait::Recv(self.inbox)
    }
}

/// Runs one method call against the object store: materializes the object
/// if needed and invokes the method. What is left — charging the CPU cost,
/// completing the deferred calls it woke, and replying — is [`finish`]'s,
/// after the worker has slept the cost. `parent` is the trace span this
/// execution belongs to (the client's attempt span, or the SMR round span
/// for replicated applies).
fn execute(
    ctx: &mut Proc,
    shared: &Rc<NodeShared>,
    req: &InvokeReq,
    reply_to: Option<Addr>,
    replicated: bool,
    parent: SpanId,
) -> Executed {
    let exec_span = ctx.span_begin_under(parent, "dso.exec", "dso");
    ctx.span_annotate(exec_span, "obj", &req.obj);
    ctx.span_annotate(exec_span, "method", req.method);
    if replicated {
        ctx.span_annotate(exec_span, "replicated", "true");
    }
    let ticket = Ticket(shared.next_ticket.replace(shared.next_ticket.get() + 1));
    if let Some(rt) = reply_to {
        shared.parked.borrow_mut().insert(ticket, rt);
    }
    let mut done = Executed {
        ticket,
        reply_to,
        // Until the method has run, the answer is "try again".
        outcome: CallOutcome::Reply(InvokeResp::Retry, Duration::ZERO),
        wakes: Vec::new(),
        logged: false,
        exec_span,
    };
    if req.method == "__restore" {
        (done.outcome, done.logged) = restore_object(shared, req);
        return done;
    }
    done.outcome = {
        let mut objects = shared.objects.borrow_mut();
        let stored = match objects.entry(req.obj.clone()) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => match materialize(shared, req) {
                Ok(Some(stored)) => e.insert(stored),
                // Persistent object awaiting transfer from a replica.
                Ok(None) => return done,
                Err(err) => {
                    done.outcome = CallOutcome::Reply(InvokeResp::Error(err), Duration::ZERO);
                    return done;
                }
            },
        };
        if req.method == "__create" {
            // Idempotent explicit creation: materialization above (or a
            // pre-existing object) is all that is needed. Logged so the
            // object exists after recovery even if never mutated.
            done.logged = wal_log(shared, &req.obj, stored, req);
            CallOutcome::Reply(
                InvokeResp::Value {
                    bytes: unit_bytes(),
                    version: stored.version,
                    lamport: stored.lamport,
                },
                crate::object::costs::SIMPLE_OP,
            )
        } else {
            let call = CallCtx { ticket, replicated };
            // A flagged read skipped the SMR order, so `dispatch` rejects
            // it rather than let it reach `invoke` and fork the replicas.
            match dispatch(stored.obj.as_mut(), &call, req.method, &req.args, req.readonly) {
                Ok((effects, mutating)) => {
                    // The version counts *mutations*, so read-only calls
                    // leave it unchanged — that is what lets replicas and
                    // caches compare versions meaningfully. The Lamport
                    // stamp advances past the caller's piggybacked
                    // dependency, deterministically per applied write.
                    if mutating {
                        stored.version += 1;
                        stored.lamport = stored.lamport.max(req.dep) + 1;
                        done.logged = wal_log(shared, &req.obj, stored, req);
                    }
                    let version = stored.version;
                    let lamport = stored.lamport;
                    done.wakes = effects.wakes;
                    match effects.reply {
                        // A replica that does not answer keeps no copy of
                        // the value.
                        Reply::Value(v) => CallOutcome::Reply(
                            InvokeResp::Value {
                                bytes: if reply_to.is_some() { v.into() } else { Bytes::new() },
                                version,
                                lamport,
                            },
                            effects.cost,
                        ),
                        Reply::Park if replicated => CallOutcome::Reply(
                            InvokeResp::Error(crate::error::ObjectError::App(
                                "blocking methods are not allowed on replicated objects"
                                    .to_string(),
                            )),
                            effects.cost,
                        ),
                        Reply::Park => CallOutcome::Parked(effects.cost),
                    }
                }
                Err(e) => CallOutcome::Reply(InvokeResp::Error(e), Duration::ZERO),
            }
        }
    };
    done
}

/// The encoded unit value `()`, shared by maintenance replies.
#[expect(
    clippy::expect_used,
    reason = "invariant: encoding the unit type is infallible in the codec"
)]
fn unit_bytes() -> Bytes {
    simcore::codec::to_bytes(&()).expect("unit encodes").into()
}

/// Un-passivates an object: rebuilds it from a marshalled snapshot,
/// keeping whichever version is newer. Arguments: `(state, version)`.
/// The second return is whether the install was WAL-logged — a recovered
/// object is re-logged under the new cluster's generation, which is what
/// lets garbage collection retire the old generation's segments.
fn restore_object(shared: &Rc<NodeShared>, req: &InvokeReq) -> (CallOutcome, bool) {
    let parsed: Result<(Vec<u8>, u64), _> = simcore::codec::from_bytes(&req.args);
    let (state, version) = match parsed {
        Ok(p) => p,
        Err(e) => {
            return (
                CallOutcome::Reply(
                    InvokeResp::Error(crate::error::ObjectError::BadArgs(e.to_string())),
                    Duration::ZERO,
                ),
                false,
            )
        }
    };
    let mut logged = false;
    let mut objects = shared.objects.borrow_mut();
    let newer = objects.get(&req.obj).is_none_or(|s| s.version <= version);
    if newer {
        let instance = shared
            .registry
            .create(req.obj.type_name(), &[])
            .and_then(|mut o| o.restore(&state).map(|()| o));
        match instance {
            Ok(obj) => {
                // Passivation records carry no Lamport stamp; the version
                // is a sound floor (stamps advance at least as fast).
                let stored = Stored { obj, rf: req.rf.max(1), version, lamport: version };
                logged = wal_log(shared, &req.obj, &stored, req);
                objects.insert(req.obj.clone(), stored);
            }
            Err(e) => return (CallOutcome::Reply(InvokeResp::Error(e), Duration::ZERO), false),
        }
    }
    let cost =
        crate::object::costs::SIMPLE_OP + crate::object::costs::PER_BYTE * state.len() as u32;
    (
        CallOutcome::Reply(
            InvokeResp::Value { bytes: unit_bytes(), version, lamport: version },
            cost,
        ),
        logged,
    )
}

/// Creates the object for `req` if possible: from the request's creation
/// arguments, or default-constructed for ephemeral objects. Returns
/// `Ok(None)` when a persistent object should instead arrive by transfer.
fn materialize(
    shared: &Rc<NodeShared>,
    req: &InvokeReq,
) -> Result<Option<Stored>, crate::error::ObjectError> {
    let args: Option<&[u8]> = req.create.as_deref();
    let args = match args {
        Some(a) => a,
        None if req.rf <= 1 => &[],
        None => return Ok(None),
    };
    let obj = shared.registry.create(req.obj.type_name(), args)?;
    Ok(Some(Stored { obj, rf: req.rf.max(1), version: 0, lamport: 0 }))
}

/// Wakes deferred callers, replies, and closes the execution span, once
/// the call's CPU cost has been charged. Calls whose effect was WAL-logged
/// have, under [`DurabilityLevel::Sync`], their successful replies parked
/// on the WAL and sent by the daemon once the covering segment PUT returns
/// — the ack contract is "durable at the replying replica". Wakes
/// (deferred blocking-call completions) always reply immediately: the
/// state change that woke them is acknowledged through the waking call
/// itself.
fn finish(ctx: &mut Proc, shared: &Rc<NodeShared>, done: Executed) {
    let Executed { ticket, reply_to, outcome, wakes, logged, exec_span } = done;
    for (t, bytes) in wakes {
        let target = shared.parked.borrow_mut().remove(&t);
        if let Some(addr) = target {
            let lat = CLIENT_NET.sample(ctx.rng());
            // Deferred wakes complete blocking calls; version 0 marks "no
            // version observed" (lamport likewise).
            let resp = InvokeResp::Value { bytes: bytes.into(), version: 0, lamport: 0 };
            ctx.reply(addr, resp, lat);
        }
    }
    match outcome {
        CallOutcome::Reply(resp, _) => {
            shared.parked.borrow_mut().remove(&ticket);
            if let Some(rt) = reply_to {
                let sync =
                    shared.cfg.durability.as_ref().map(|d| d.level) == Some(DurabilityLevel::Sync);
                let defer = logged && sync && matches!(resp, InvokeResp::Value { .. });
                match (&shared.wal, defer) {
                    (Some(wal), true) => {
                        ctx.metric_incr("dso.sync_deferred_acks");
                        wal.queue_ack(PendingAck { reply_to: rt, resp });
                    }
                    _ => {
                        let lat = CLIENT_NET.sample(ctx.rng());
                        ctx.reply(rt, resp, lat);
                    }
                }
            }
        }
        CallOutcome::Parked(_) => {
            // Ticket stays registered; a later invocation wakes it. The
            // span still closes here: the method body has run, what
            // remains is waiting for another call to complete it.
            ctx.span_annotate(exec_span, "parked", "true");
        }
    }
    ctx.span_end(exec_span);
}
