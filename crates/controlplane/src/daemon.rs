//! The reconcile daemon: observe → decide → actuate, once per tick.
//!
//! The daemon is an ordinary simulated process on a [`Ticker`], so its
//! schedule is pure virtual time. Each tick it summarizes the metrics
//! registry into an [`Observed`] (counter deltas over the tick, series
//! means over the tick window), asks the [`ScalingPolicy`] for a
//! [`ScaleDecision`], and actuates: `DsoCluster::add_node_from` on `Out`,
//! graceful drain via `DsoCluster::remove_node_from` on `In`, and the
//! FaaS provisioned-concurrency floor from observed cold starts. Every
//! actuation is trace-spanned (`ctl.reconcile` → `ctl.scale_out` /
//! `ctl.drain`) and appended to the [`CtlHandle`] decision log, whose
//! rendering is byte-identical across identically-seeded runs.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use dso::{Checkpointer, DsoClient, DsoCluster};
use faas::{FaasHandle, InvokeOpts};
use parking_lot::Mutex;
use simcore::{MetricsRegistry, Sim, SimTime, Ticker};

use crate::policy::{Observed, ScaleDecision, ScalingPolicy};

/// Configuration of the reconcile daemon.
#[derive(Clone, Debug)]
pub struct CtlConfig {
    /// Time between reconcile ticks.
    pub reconcile_interval: Duration,
    /// Never drain below this many live nodes.
    pub min_nodes: u32,
    /// Never scale out beyond this many live nodes.
    pub max_nodes: u32,
    /// Minimum spacing between scale-outs, so a freshly added node gets a
    /// chance to absorb load before the fleet grows again.
    pub scale_out_cooldown: Duration,
    /// Minimum spacing between drains, also counted from the last
    /// scale-out (never tear down what just went up).
    pub drain_cooldown: Duration,
    /// The FaaS pre-warming lever; `None` leaves provisioned concurrency
    /// alone.
    pub prewarm: Option<PrewarmConfig>,
    /// The durability lever: run a cluster checkpoint
    /// ([`dso::Checkpointer::run_once`]) whenever at least this much time
    /// has passed since the previous one, bounding both crash-recovery
    /// replay and WAL storage growth. `None` disables scheduling; it is
    /// also ignored when the cluster has no
    /// [`dso::DsoConfig::durability`] configured (there is no store to
    /// checkpoint to).
    pub checkpoint_interval: Option<Duration>,
}

impl Default for CtlConfig {
    fn default() -> CtlConfig {
        CtlConfig {
            reconcile_interval: Duration::from_secs(1),
            min_nodes: 1,
            max_nodes: 8,
            scale_out_cooldown: Duration::from_secs(3),
            drain_cooldown: Duration::from_secs(10),
            prewarm: None,
            checkpoint_interval: None,
        }
    }
}

/// The FaaS pre-warming lever: keep a floor of warm containers for one
/// function, sized from observed cold starts — but only while a cold
/// start is actually expensive.
///
/// Each tick that cold starts occurred, the floor rises by the number
/// observed (capped at `max_provisioned`); after `decay_ticks` quiet
/// ticks it decays by one, releasing warm capacity the workload no
/// longer needs. The rise is gated on the cost model: floors trade idle
/// GB-seconds against start latency, a trade that only pays while the
/// start `penalty` is at least `floor_threshold`. Under the snapshot
/// tier (restore ≈ 150–250 ms instead of 1.5 s) the gate closes and the
/// daemon stops buying floors — [`PrewarmConfig::for_platform`] wires
/// the platform's [`FaasConfig::expected_start_penalty`] in.
///
/// [`FaasConfig::expected_start_penalty`]: faas::FaasConfig::expected_start_penalty
#[derive(Clone, Debug)]
pub struct PrewarmConfig {
    /// Function whose pool the daemon manages.
    pub function: String,
    /// Hard cap on the provisioned floor.
    pub max_provisioned: u32,
    /// Cold-start-free ticks before the floor decays by one (default 5).
    pub decay_ticks: u32,
    /// What one cold start of this function costs its invoker (classic
    /// provision, snapshot restore, or fork, per the platform's policy).
    pub penalty: Duration,
    /// Floors only rise while `penalty >= floor_threshold`; below it,
    /// paying the start at the door is cheaper than idling containers
    /// (default 500 ms).
    pub floor_threshold: Duration,
}

impl PrewarmConfig {
    /// A pre-warm lever for `function` capped at `max_provisioned`,
    /// assuming classic 1.5 s cold starts (the pre-snapshot-tier
    /// behavior).
    pub fn new(function: &str, max_provisioned: u32) -> PrewarmConfig {
        PrewarmConfig {
            function: function.to_string(),
            max_provisioned,
            decay_ticks: 5,
            penalty: Duration::from_millis(1500),
            floor_threshold: Duration::from_millis(500),
        }
    }

    /// A pre-warm lever sized from `cfg`'s actual cold-start tier: the
    /// penalty is [`FaasConfig::expected_start_penalty`] at `memory_mb`,
    /// so a platform on snapshot restores (≈ 210 ms < the 500 ms
    /// threshold) disables floor raises entirely.
    ///
    /// [`FaasConfig::expected_start_penalty`]: faas::FaasConfig::expected_start_penalty
    pub fn for_platform(
        cfg: &faas::FaasConfig,
        memory_mb: u32,
        function: &str,
        max_provisioned: u32,
    ) -> PrewarmConfig {
        PrewarmConfig {
            penalty: cfg.expected_start_penalty(memory_mb),
            ..PrewarmConfig::new(function, max_provisioned)
        }
    }
}

/// One tick of the floor controller, as a pure function (unit-testable
/// without a simulation): given the current floor, quiet-tick count, and
/// the tick's observed cold starts, returns the next `(floor, calm_ticks)`.
///
/// Raising is gated on the cost model ([`PrewarmConfig::penalty`] vs
/// [`PrewarmConfig::floor_threshold`]); when starts are cheap, observed
/// cold starts no longer buy floors and an existing floor decays away.
pub fn next_floor(cfg: &PrewarmConfig, floor: u32, calm_ticks: u32, cold_delta: u32) -> (u32, u32) {
    let worth_prewarming = cfg.penalty >= cfg.floor_threshold;
    if cold_delta > 0 && worth_prewarming {
        ((floor + cold_delta).min(cfg.max_provisioned), 0)
    } else if floor > 0 {
        let calm = calm_ticks + 1;
        if calm >= cfg.decay_ticks {
            (floor - 1, 0)
        } else {
            (floor, calm)
        }
    } else {
        (0, 0)
    }
}

/// One actuation, as recorded in the decision log.
#[derive(Clone, Debug, PartialEq)]
pub enum CtlEvent {
    /// A node was added; `nodes` is the live count afterwards.
    ScaleOut {
        /// Tick time of the decision.
        at: SimTime,
        /// Live nodes after the add.
        nodes: u32,
    },
    /// A node began a graceful drain; `nodes` is the live count afterwards.
    Drain {
        /// Tick time of the decision.
        at: SimTime,
        /// Index of the drained node in `DsoCluster::servers`.
        node: usize,
        /// Live nodes after the drain.
        nodes: u32,
    },
    /// A scheduled cluster checkpoint completed.
    Checkpoint {
        /// Tick time of the decision.
        at: SimTime,
        /// Objects captured in the checkpoint blob.
        objects: usize,
        /// Marshalled bytes written to the store.
        bytes: usize,
    },
    /// The provisioned-concurrency floor changed.
    Prewarm {
        /// Tick time of the decision.
        at: SimTime,
        /// Function whose floor moved.
        function: String,
        /// The new floor.
        provisioned: u32,
    },
}

/// Handle to a running control plane: the decision log.
///
/// Cloneable; all clones observe the same log. [`CtlHandle::decision_log`]
/// renders the log deterministically, so two identically-seeded runs can
/// be compared byte-for-byte.
#[derive(Clone, Debug, Default)]
pub struct CtlHandle {
    events: Arc<Mutex<Vec<CtlEvent>>>,
}

impl CtlHandle {
    /// Snapshot of all actuations in decision order.
    pub fn events(&self) -> Vec<CtlEvent> {
        self.events.lock().clone()
    }

    /// Number of scale-outs so far.
    pub fn scale_outs(&self) -> usize {
        self.events.lock().iter().filter(|e| matches!(e, CtlEvent::ScaleOut { .. })).count()
    }

    /// Number of drains so far.
    pub fn drains(&self) -> usize {
        self.events.lock().iter().filter(|e| matches!(e, CtlEvent::Drain { .. })).count()
    }

    /// One line per actuation, e.g. `t=12.000s scale_out nodes=3`. The
    /// rendering is a pure function of the log, so identically-seeded runs
    /// produce byte-identical output — the determinism tests diff this.
    pub fn decision_log(&self) -> String {
        let mut out = String::new();
        for e in self.events.lock().iter() {
            match e {
                CtlEvent::ScaleOut { at, nodes } => {
                    out.push_str(&format!("t={at} scale_out nodes={nodes}\n"));
                }
                CtlEvent::Drain { at, node, nodes } => {
                    out.push_str(&format!("t={at} drain node={node} nodes={nodes}\n"));
                }
                CtlEvent::Checkpoint { at, objects, bytes } => {
                    out.push_str(&format!("t={at} checkpoint objects={objects} bytes={bytes}\n"));
                }
                CtlEvent::Prewarm { at, function, provisioned } => {
                    out.push_str(&format!("t={at} prewarm fn={function} n={provisioned}\n"));
                }
            }
        }
        out
    }
}

/// Counter values the daemon differentiates between ticks.
#[derive(Clone, Copy)]
struct CounterSnap {
    invokes: u64,
    shed: u64,
    cold_starts: u64,
}

impl CounterSnap {
    fn take(m: &MetricsRegistry) -> CounterSnap {
        CounterSnap {
            invokes: m.counter_value("dso.invokes"),
            shed: m.counter_value("dso.shed"),
            cold_starts: m.counter_value("faas.cold_starts"),
        }
    }
}

struct PrewarmState {
    cfg: PrewarmConfig,
    floor: u32,
    calm_ticks: u32,
}

/// Scheduling state of the checkpoint lever. Owns its own [`DsoClient`]
/// so checkpoint rounds never hold the cluster borrow across blocking
/// calls, and the [`Checkpointer`] so sequence numbers stay monotonic
/// across rounds.
struct CkptState {
    interval: Duration,
    last: SimTime,
    cp: Checkpointer,
    cli: DsoClient,
}

/// Spawns the reconcile daemon.
///
/// The daemon owns no state of its own beyond the policy: it reads
/// `registry`, borrows `cluster` only around actuations (never across a
/// blocking call), and optionally moves the provisioned-concurrency floor
/// of `faas`. It runs forever as a daemon process — the simulation stays
/// quiescible.
pub fn spawn_controlplane(
    sim: &Sim,
    cluster: Rc<RefCell<DsoCluster>>,
    faas: Option<FaasHandle>,
    registry: MetricsRegistry,
    mut policy: Box<dyn ScalingPolicy>,
    cfg: CtlConfig,
) -> CtlHandle {
    let handle = CtlHandle::default();
    let events = handle.events.clone();
    sim.spawn_daemon("controlplane", move |ctx| {
        let mut tick = Ticker::new(ctx.now(), cfg.reconcile_interval);
        let mut prev = CounterSnap::take(&registry);
        let mut prev_t = ctx.now();
        let mut last_scale_out: Option<SimTime> = None;
        let mut last_drain: Option<SimTime> = None;
        let mut prewarm =
            cfg.prewarm.clone().map(|cfg| PrewarmState { cfg, floor: 0, calm_ticks: 0 });
        let mut ckpt = cfg.checkpoint_interval.and_then(|interval| {
            let cl = cluster.borrow();
            let d = cl.config().durability.clone()?;
            Some(CkptState {
                interval,
                last: ctx.now(),
                cp: Checkpointer::new(d),
                cli: cl.client_handle().connect(),
            })
        });
        loop {
            let now = tick.wait(ctx);
            let dt = now.saturating_duration_since(prev_t).as_secs_f64().max(1e-9);
            let snap = CounterSnap::take(&registry);
            let obs = Observed {
                request_rate: (snap.invokes - prev.invokes) as f64 / dt,
                shed_rate: (snap.shed - prev.shed) as f64 / dt,
                queue_depth: registry.series("dso.queue_depth").mean_in(prev_t, now).unwrap_or(0.0),
                cold_start_rate: (snap.cold_starts - prev.cold_starts) as f64 / dt,
                nodes: cluster.borrow().live_nodes() as u32,
            };
            let span = ctx.span_begin("ctl.reconcile", "ctl");
            let decision = policy.decide(&obs);
            ctx.span_annotate(span, "policy", policy.name());
            ctx.span_annotate(span, "rate", format_args!("{:.1}", obs.request_rate));
            ctx.span_annotate(span, "shed_rate", format_args!("{:.1}", obs.shed_rate));
            ctx.span_annotate(span, "queue_depth", format_args!("{:.1}", obs.queue_depth));
            ctx.span_annotate(span, "nodes", obs.nodes);
            ctx.span_annotate(span, "decision", format_args!("{decision:?}"));
            match decision {
                ScaleDecision::Out => {
                    let cooling = last_scale_out
                        .is_some_and(|t| now.saturating_duration_since(t) < cfg.scale_out_cooldown);
                    let mut cl = cluster.borrow_mut();
                    if !cooling && (cl.live_nodes() as u32) < cfg.max_nodes {
                        let s = ctx.span_begin_under(span, "ctl.scale_out", "ctl");
                        cl.add_node_from(ctx);
                        let nodes = cl.live_nodes() as u32;
                        drop(cl);
                        ctx.metric_incr("ctl.scale_outs");
                        ctx.span_annotate(s, "nodes", nodes);
                        ctx.span_end(s);
                        events.lock().push(CtlEvent::ScaleOut { at: now, nodes });
                        last_scale_out = Some(now);
                    }
                }
                ScaleDecision::In => {
                    let cooling = last_drain
                        .into_iter()
                        .chain(last_scale_out)
                        .any(|t| now.saturating_duration_since(t) < cfg.drain_cooldown);
                    let mut cl = cluster.borrow_mut();
                    if !cooling && (cl.live_nodes() as u32) > cfg.min_nodes {
                        if let Some(idx) = cl.newest_live() {
                            let s = ctx.span_begin_under(span, "ctl.drain", "ctl");
                            cl.remove_node_from(ctx, idx);
                            let nodes = cl.live_nodes() as u32;
                            drop(cl);
                            ctx.metric_incr("ctl.drains");
                            ctx.span_annotate(s, "node", idx);
                            ctx.span_annotate(s, "nodes", nodes);
                            ctx.span_end(s);
                            events.lock().push(CtlEvent::Drain { at: now, node: idx, nodes });
                            last_drain = Some(now);
                        }
                    }
                }
                ScaleDecision::Hold => {}
            }
            if let (Some(f), Some(pw)) = (&faas, prewarm.as_mut()) {
                let cold_delta = (snap.cold_starts - prev.cold_starts) as u32;
                let (target, calm) = next_floor(&pw.cfg, pw.floor, pw.calm_ticks, cold_delta);
                pw.calm_ticks = calm;
                if target != pw.floor {
                    pw.floor = target;
                    f.invoke_with(ctx, &pw.cfg.function, Vec::new(), InvokeOpts::provision(target));
                    ctx.metric_push("ctl.provisioned", f64::from(target));
                    events.lock().push(CtlEvent::Prewarm {
                        at: now,
                        function: pw.cfg.function.clone(),
                        provisioned: target,
                    });
                }
            }
            if let Some(ck) = ckpt.as_mut() {
                if now.saturating_duration_since(ck.last) >= ck.interval {
                    ck.last = now;
                    let s = ctx.span_begin_under(span, "ctl.checkpoint", "ctl");
                    match ck.cp.run_once(ctx, &mut ck.cli) {
                        Ok(report) => {
                            ctx.span_annotate(s, "objects", report.objects);
                            ctx.span_annotate(s, "bytes", report.bytes);
                            events.lock().push(CtlEvent::Checkpoint {
                                at: now,
                                objects: report.objects,
                                bytes: report.bytes,
                            });
                        }
                        Err(e) => {
                            ctx.metric_incr("ctl.checkpoint_failures");
                            ctx.span_annotate(s, "outcome", format_args!("{e:?}"));
                        }
                    }
                    ctx.span_end(s);
                }
            }
            ctx.metric_push("ctl.nodes", cluster.borrow().live_nodes() as f64);
            ctx.span_end(span);
            prev = snap;
            prev_t = now;
        }
    });
    handle
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas::{ColdStartPolicy, FaasConfig, COLD_START, FULL_VCPU_MB};

    #[test]
    fn checkpoint_lever_runs_on_its_own_cadence() {
        use cloudstore::{spawn_s3, S3Config};
        use dso::{api, DsoConfig, DurabilityConfig, DurabilityStore, ObjectRegistry};

        let mut sim = Sim::new(7);
        let registry = MetricsRegistry::new();
        sim.set_metrics(&registry);
        let s3 = spawn_s3(&sim, S3Config::default());
        let d = DurabilityConfig::new(DurabilityStore::new(s3, "ctl"));
        let cfg = DsoConfig { durability: Some(d), ..DsoConfig::default() };
        let cluster =
            Rc::new(RefCell::new(DsoCluster::start(&sim, 2, cfg, ObjectRegistry::with_builtins())));
        let handle = cluster.borrow().client_handle();
        let ctl = spawn_controlplane(
            &sim,
            cluster,
            None,
            registry,
            Box::new(crate::policy::TargetTracking::new(1e6)),
            CtlConfig {
                reconcile_interval: Duration::from_millis(100),
                checkpoint_interval: Some(Duration::from_millis(400)),
                ..CtlConfig::default()
            },
        );
        sim.spawn("app", move |ctx| {
            let mut cli = handle.connect();
            for i in 0..8 {
                api::AtomicLong::new(&format!("c{i}")).set(ctx, &mut cli, i).expect("dso");
            }
        });
        sim.run_until(SimTime::from_secs(2));
        let ckpts: Vec<_> = ctl
            .events()
            .into_iter()
            .filter_map(|e| match e {
                CtlEvent::Checkpoint { objects, .. } => Some(objects),
                _ => None,
            })
            .collect();
        // 2 s of run at one checkpoint per 400 ms, minus start-up slack.
        assert!(ckpts.len() >= 3, "expected several scheduled checkpoints, got {ckpts:?}");
        assert!(ckpts.contains(&8), "a checkpoint captured the full dataset");
        assert!(ctl.decision_log().contains(" checkpoint objects="), "log renders the lever");
    }

    #[test]
    fn floor_rises_with_cold_starts_and_decays_when_calm() {
        let cfg = PrewarmConfig::new("f", 4);
        assert_eq!(next_floor(&cfg, 0, 0, 3), (3, 0), "raise by the delta");
        assert_eq!(next_floor(&cfg, 3, 0, 5), (4, 0), "capped at max_provisioned");
        // Four calm ticks hold, the fifth decays by one and resets calm.
        let (mut floor, mut calm) = (4, 0);
        for _ in 0..4 {
            let next = next_floor(&cfg, floor, calm, 0);
            floor = next.0;
            calm = next.1;
        }
        assert_eq!((floor, calm), (4, 4));
        assert_eq!(next_floor(&cfg, floor, calm, 0), (3, 0));
        assert_eq!(next_floor(&cfg, 0, 0, 0), (0, 0), "no floor, nothing to decay");
    }

    #[test]
    fn cheap_starts_close_the_floor_gate() {
        let cfg =
            PrewarmConfig { penalty: Duration::from_millis(210), ..PrewarmConfig::new("f", 4) };
        // Cold starts no longer buy floors; they count as calm ticks, so
        // an existing floor drifts down even under sustained cold starts.
        assert_eq!(next_floor(&cfg, 0, 0, 3), (0, 0));
        assert_eq!(next_floor(&cfg, 2, 3, 1), (2, 4));
        assert_eq!(next_floor(&cfg, 2, 4, 1), (1, 0));
    }

    #[test]
    fn for_platform_sizes_the_penalty_from_the_tier() {
        let classic = FaasConfig::default();
        let pw = PrewarmConfig::for_platform(&classic, FULL_VCPU_MB, "f", 8);
        assert_eq!(pw.penalty, COLD_START.base);
        assert!(pw.penalty >= pw.floor_threshold, "classic starts are worth prewarming");

        let snap = FaasConfig { cold_start_policy: ColdStartPolicy::SnapshotRestore, ..classic };
        let pw = PrewarmConfig::for_platform(&snap, FULL_VCPU_MB, "f", 8);
        assert!(
            pw.penalty < pw.floor_threshold,
            "a ~210 ms restore is cheaper than idling a floor: {:?}",
            pw.penalty
        );
    }
}
