//! Deployment helper: starts a coordinator plus `n` storage nodes and hands
//! out client handles — the analogue of provisioning the DSO tier
//! ("a CRUCIAL storage instance starts in 30 seconds", §6.2.3, minus the
//! waiting).

use simcore::{Addr, Ctx, Proc, Sim};

use crate::client::DsoClientHandle;
use crate::config::DsoConfig;
use crate::durability::RecoveryReport;
use crate::error::DsoError;
use crate::membership::{spawn_coordinator, spawn_coordinator_from};
use crate::object::ObjectRegistry;
use crate::protocol::NodeId;
use crate::server::{spawn_server, spawn_server_from, ServerHandle};

/// A running DSO deployment inside a simulation.
///
/// # Examples
///
/// ```
/// use simcore::Sim;
/// use dso::{DsoCluster, DsoConfig, ObjectRegistry, api};
///
/// let mut sim = Sim::new(1);
/// let cluster = DsoCluster::start(&sim, 2, DsoConfig::default(),
///                                 ObjectRegistry::with_builtins());
/// let handle = cluster.client_handle();
/// sim.spawn("app", move |ctx| {
///     let mut cli = handle.connect();
///     let counter = api::AtomicLong::new("hits");
///     assert_eq!(counter.add_and_get(ctx, &mut cli, 5).expect("dso"), 5);
/// });
/// sim.run_until_idle().expect_quiescent();
/// ```
#[derive(Debug)]
pub struct DsoCluster {
    coordinator: Addr,
    cfg: DsoConfig,
    registry: ObjectRegistry,
    servers: Vec<ServerHandle>,
    /// Liveness flags aligned with `servers`: `false` once the node was
    /// crashed or drained through this handle.
    alive: Vec<bool>,
    next_node: u32,
}

impl DsoCluster {
    /// Starts a coordinator and `n` storage nodes.
    pub fn start(sim: &Sim, n: u32, cfg: DsoConfig, registry: ObjectRegistry) -> DsoCluster {
        let coordinator = spawn_coordinator(sim, cfg.clone());
        let mut cluster = DsoCluster {
            coordinator,
            cfg,
            registry,
            servers: Vec::new(),
            alive: Vec::new(),
            next_node: 0,
        };
        for _ in 0..n {
            cluster.add_node(sim);
        }
        cluster
    }

    /// Rebuilds a deployment from its durability store after a
    /// full-cluster crash: scan the store (with read repair against LIST
    /// visibility lag), start a fresh coordinator plus `n` nodes writing
    /// under a bumped generation — so the new WAL never collides with the
    /// dead cluster's keys — wait for the `n`-member view, then replay
    /// the newest checkpoint overlaid with every newer WAL record.
    ///
    /// The recovered cluster may be any size; placement follows its own
    /// ring. `cfg.durability` must be set (it carries the store); the
    /// durability *level* may differ from the dead cluster's.
    ///
    /// # Errors
    ///
    /// [`DsoError::Timeout`] when the store listing does not settle or
    /// the view does not form; propagates replay errors.
    ///
    /// # Panics
    ///
    /// Panics when `cfg.durability` is `None`.
    pub fn recover_from(
        ctx: &mut Ctx,
        n: u32,
        mut cfg: DsoConfig,
        registry: ObjectRegistry,
    ) -> Result<(DsoCluster, RecoveryReport), DsoError> {
        #[expect(
            clippy::expect_used,
            reason = "invariant: the documented API contract (see # Panics): there is nothing to recover without a store to recover from"
        )]
        let d = cfg.durability.clone().expect("recover_from requires DsoConfig.durability");
        let span = ctx.span_begin("dso.recover", "dso");
        let scan = match crate::durability::scan(ctx, &d) {
            Ok(s) => s,
            Err(e) => {
                ctx.span_annotate(span, "outcome", "scan-timeout");
                ctx.span_end(span);
                return Err(e);
            }
        };
        #[expect(
            clippy::expect_used,
            reason = "invariant: checked Some at the top of the function"
        )]
        let durability = cfg.durability.as_mut().expect("durability checked");
        durability.store = d.store.with_generation(scan.next_gen);
        let coordinator = spawn_coordinator_from(ctx, cfg.clone());
        let mut cluster = DsoCluster {
            coordinator,
            cfg,
            registry,
            servers: Vec::new(),
            alive: Vec::new(),
            next_node: 0,
        };
        for _ in 0..n {
            cluster.add_node_from(ctx);
        }
        // Wait for every node to join before replaying, so placement is
        // computed against the full ring and nothing rebalances mid-way.
        let mut cli = cluster.client_handle().connect();
        let mut formed = false;
        for _ in 0..200 {
            if cli.refresh_view(ctx).members().len() == n as usize {
                formed = true;
                break;
            }
            ctx.sleep(cluster.cfg.heartbeat_interval);
        }
        if !formed {
            ctx.span_annotate(span, "outcome", "view-timeout");
            ctx.span_end(span);
            return Err(DsoError::Timeout);
        }
        let result = crate::durability::replay(ctx, &mut cli, scan, &d);
        match &result {
            Ok(report) => {
                ctx.span_annotate(span, "generation", report.generation);
                ctx.span_annotate(span, "objects", report.objects);
                ctx.span_annotate(span, "wal_segments", report.wal_segments);
                ctx.span_annotate(span, "relist_rounds", report.relist_rounds);
            }
            Err(e) => ctx.span_annotate(span, "outcome", format_args!("{e:?}")),
        }
        ctx.span_end(span);
        result.map(|report| (cluster, report))
    }

    /// The coordinator's address.
    pub fn coordinator(&self) -> Addr {
        self.coordinator
    }

    /// The deployment's configuration.
    pub fn config(&self) -> &DsoConfig {
        &self.cfg
    }

    /// A `Send` handle from which processes create their own clients.
    pub fn client_handle(&self) -> DsoClientHandle {
        DsoClientHandle::new(self.coordinator, self.cfg.clone())
    }

    /// Adds a fresh storage node (elasticity; Fig. 8's node addition).
    pub fn add_node(&mut self, sim: &Sim) -> ServerHandle {
        let node = NodeId(self.next_node);
        self.next_node += 1;
        let h = spawn_server(sim, node, self.cfg.clone(), self.registry.clone(), self.coordinator);
        self.servers.push(h.clone());
        self.alive.push(true);
        h
    }

    /// Adds a fresh storage node from inside the simulation (the [`Proc`]
    /// form of [`DsoCluster::add_node`], used by the control plane).
    pub fn add_node_from(&mut self, ctx: &mut Proc) -> ServerHandle {
        let node = NodeId(self.next_node);
        self.next_node += 1;
        let h =
            spawn_server_from(ctx, node, self.cfg.clone(), self.registry.clone(), self.coordinator);
        self.servers.push(h.clone());
        self.alive.push(true);
        h
    }

    /// Handles of all nodes ever started (including crashed and drained
    /// ones).
    pub fn servers(&self) -> &[ServerHandle] {
        &self.servers
    }

    /// Number of nodes not yet crashed or drained through this handle.
    pub fn live_nodes(&self) -> usize {
        self.alive.iter().filter(|a| **a).count()
    }

    /// Index of the most recently added node still live, if any — scale-in
    /// policies retire youngest-first so long-lived nodes keep their
    /// placement stability.
    pub fn newest_live(&self) -> Option<usize> {
        self.alive.iter().rposition(|a| *a)
    }

    /// Crashes the `idx`-th node abruptly.
    ///
    /// Naming convention (shared with [`ServerHandle::crash`] /
    /// [`ServerHandle::crash_from`]): the bare verb takes a [`Sim`] (host
    /// side), the `_from` form takes a [`Proc`] (from inside the
    /// simulation, e.g. a fault-injector process; a thread's [`Ctx`]
    /// derefs to one).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn crash_node(&mut self, sim: &Sim, idx: usize) {
        self.servers[idx].crash(sim);
        self.alive[idx] = false;
    }

    /// Crashes the `idx`-th node from inside the simulation (the [`Proc`]
    /// form of [`DsoCluster::crash_node`]).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn crash_node_from(&mut self, ctx: &mut Proc, idx: usize) {
        self.servers[idx].crash_from(ctx);
        self.alive[idx] = false;
    }

    /// Gracefully drains the `idx`-th node: it leaves the view, transfers
    /// its objects to the new owners, then retires (scale-in; the inverse
    /// of [`DsoCluster::add_node`]). The drain itself is asynchronous —
    /// this sends the [`crate::DrainNode`] request via a one-shot helper
    /// process and returns.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn remove_node(&mut self, sim: &Sim, idx: usize) {
        let h = self.servers[idx].clone();
        self.alive[idx] = false;
        sim.spawn(&format!("dso-drain-{}", h.node), move |ctx| {
            h.drain_from(ctx);
        });
    }

    /// Drains the `idx`-th node from inside the simulation (the [`Proc`]
    /// form of [`DsoCluster::remove_node`]). Returns `false` when the node
    /// was not running.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn remove_node_from(&mut self, ctx: &mut Proc, idx: usize) -> bool {
        self.alive[idx] = false;
        self.servers[idx].drain_from(ctx)
    }
}
