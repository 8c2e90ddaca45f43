//! The reconcile daemon: observe → decide → actuate, once per tick.
//!
//! The daemon is an actor that sleeps on a [`Ticker`], so its schedule is
//! pure virtual time. Each tick it summarizes the metrics
//! registry into an [`Observed`] (counter deltas over the tick, series
//! means over the tick window), asks the [`TargetTracking`] policy for a
//! [`ScaleDecision`], and actuates: `DsoCluster::add_node_from` on `Out`,
//! graceful drain via `DsoCluster::remove_node_from` on `In`, and the
//! FaaS provisioned-concurrency floor from observed cold starts. Every
//! actuation is trace-spanned (`ctl.reconcile` → `ctl.scale_out` /
//! `ctl.drain`) and appended to the [`CtlHandle`] decision log, whose
//! rendering is byte-identical across identically-seeded runs.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use dso::DsoCluster;
use faas::{FaasHandle, FULL_VCPU_MB};
use simcore::{Actor, MetricsRegistry, Proc, Sim, SimTime, Ticker, Wait, Wake};

use crate::policy::{Observed, ScaleDecision, TargetTracking};

/// Time between reconcile ticks.
const RECONCILE_INTERVAL: Duration = Duration::from_secs(1);
/// Never drain below this many live nodes.
const MIN_NODES: u32 = 1;
/// Never scale out beyond this many live nodes.
const MAX_NODES: u32 = 4;
/// Minimum spacing between scale-outs, so a freshly added node gets a
/// chance to absorb load before the fleet grows again.
const SCALE_OUT_COOLDOWN: Duration = Duration::from_secs(3);
/// Minimum spacing between drains, also counted from the last scale-out
/// (never tear down what just went up).
const DRAIN_COOLDOWN: Duration = Duration::from_secs(8);

/// Hard cap on the provisioned-concurrency floor.
const MAX_PROVISIONED: u32 = 8;
/// Cold-start-free ticks before the floor decays by one.
const DECAY_TICKS: u32 = 5;
/// Floors only rise while one cold start costs at least this much; below
/// it, paying the start at the door is cheaper than idling containers.
const FLOOR_THRESHOLD: Duration = Duration::from_millis(500);

/// Whether cold starts on this platform cost enough to buy floors: the
/// platform's [`FaasConfig::expected_start_penalty`] at one full vCPU
/// against [`FLOOR_THRESHOLD`]. A classic 1.5 s provision does; a ≈ 210 ms
/// snapshot restore does not.
///
/// [`FaasConfig::expected_start_penalty`]: faas::FaasConfig::expected_start_penalty
fn worth_prewarming(cfg: &faas::FaasConfig) -> bool {
    cfg.expected_start_penalty(FULL_VCPU_MB) >= FLOOR_THRESHOLD
}

/// One tick of the floor controller, as a pure function (unit-testable
/// without a simulation): given the current floor, quiet-tick count, and
/// the tick's observed cold starts, returns the next `(floor, calm_ticks)`.
///
/// Each tick that cold starts occurred, the floor rises by the number
/// observed (capped at [`MAX_PROVISIONED`]); after [`DECAY_TICKS`] quiet
/// ticks it decays by one, releasing warm capacity the workload no longer
/// needs. Raising is gated on the cost model ([`worth_prewarming`]): when
/// starts are cheap, observed cold starts no longer buy floors and an
/// existing floor decays away.
fn next_floor(worth_prewarming: bool, floor: u32, calm_ticks: u32, cold_delta: u32) -> (u32, u32) {
    if cold_delta > 0 && worth_prewarming {
        ((floor + cold_delta).min(MAX_PROVISIONED), 0)
    } else if floor > 0 {
        let calm = calm_ticks + 1;
        if calm >= DECAY_TICKS {
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
    events: Rc<RefCell<Vec<CtlEvent>>>,
}

impl CtlHandle {
    /// Snapshot of all actuations in decision order.
    pub fn events(&self) -> Vec<CtlEvent> {
        self.events.borrow().clone()
    }

    /// Number of scale-outs so far.
    pub fn scale_outs(&self) -> usize {
        self.events.borrow().iter().filter(|e| matches!(e, CtlEvent::ScaleOut { .. })).count()
    }

    /// Number of drains so far.
    pub fn drains(&self) -> usize {
        self.events.borrow().iter().filter(|e| matches!(e, CtlEvent::Drain { .. })).count()
    }

    /// One line per actuation, e.g. `t=12.000s scale_out nodes=3`. The
    /// rendering is a pure function of the log, so identically-seeded runs
    /// produce byte-identical output — the determinism tests diff this.
    pub fn decision_log(&self) -> String {
        let mut out = String::new();
        for e in self.events.borrow().iter() {
            match e {
                CtlEvent::ScaleOut { at, nodes } => {
                    out.push_str(&format!("t={at} scale_out nodes={nodes}\n"));
                }
                CtlEvent::Drain { at, node, nodes } => {
                    out.push_str(&format!("t={at} drain node={node} nodes={nodes}\n"));
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

/// The pre-warming lever's state: the function whose floor it moves and
/// the floor controller's memory.
struct Prewarm {
    faas: FaasHandle,
    function: String,
    worth_prewarming: bool,
    floor: u32,
    calm_ticks: u32,
}

/// The reconcile daemon. It is an actor because nothing it does blocks:
/// between ticks it sleeps, and every actuation is a spawn or a send.
struct ControlPlane {
    cluster: Rc<RefCell<DsoCluster>>,
    registry: MetricsRegistry,
    policy: TargetTracking,
    prewarm: Option<Prewarm>,
    events: Rc<RefCell<Vec<CtlEvent>>>,
    tick: Ticker,
    prev: CounterSnap,
    prev_t: SimTime,
    last_scale_out: Option<SimTime>,
    last_drain: Option<SimTime>,
}

/// Spawns the reconcile daemon. It ticks once a second of virtual time;
/// the first tick's counter deltas count from now.
///
/// The daemon owns no state of its own beyond the policy: it reads
/// `registry`, borrows `cluster` only around actuations, and, given
/// `prewarm`, moves the provisioned-concurrency floor of that platform's
/// function. It runs forever as a daemon process — the simulation stays
/// quiescible.
pub fn spawn_controlplane(
    sim: &Sim,
    cluster: Rc<RefCell<DsoCluster>>,
    prewarm: Option<(FaasHandle, &str)>,
    registry: MetricsRegistry,
    policy: TargetTracking,
) -> CtlHandle {
    let handle = CtlHandle::default();
    let prewarm = prewarm.map(|(faas, function)| Prewarm {
        worth_prewarming: worth_prewarming(faas.config()),
        faas,
        function: function.to_string(),
        floor: 0,
        calm_ticks: 0,
    });
    let now = sim.now();
    let daemon = ControlPlane {
        cluster,
        prev: CounterSnap::take(&registry),
        registry,
        policy,
        prewarm,
        events: handle.events.clone(),
        tick: Ticker::new(now, RECONCILE_INTERVAL),
        prev_t: now,
        last_scale_out: None,
        last_drain: None,
    };
    sim.spawn_daemon_actor("controlplane", daemon);
    handle
}

impl Actor for ControlPlane {
    fn on_wake(&mut self, ctx: &mut Proc, wake: Wake) -> Wait {
        if matches!(wake, Wake::Slept) && self.tick.poll(ctx.now()) {
            self.reconcile(ctx);
        }
        Wait::Sleep(self.tick.remaining(ctx.now()))
    }
}

impl ControlPlane {
    /// One tick: observe, decide, actuate.
    fn reconcile(&mut self, ctx: &mut Proc) {
        let now = ctx.now();
        let registry = &self.registry;
        let dt = now.saturating_duration_since(self.prev_t).as_secs_f64().max(1e-9);
        let snap = CounterSnap::take(registry);
        let prev = self.prev;
        let obs = Observed {
            request_rate: (snap.invokes - prev.invokes) as f64 / dt,
            shed_rate: (snap.shed - prev.shed) as f64 / dt,
            queue_depth: registry
                .series("dso.queue_depth")
                .mean_in(self.prev_t, now)
                .unwrap_or(0.0),
            cold_start_rate: (snap.cold_starts - prev.cold_starts) as f64 / dt,
            nodes: self.cluster.borrow().live_nodes() as u32,
        };
        let span = ctx.span_begin("ctl.reconcile", "ctl");
        let decision = self.policy.decide(&obs);
        ctx.span_annotate(span, "policy", "target-tracking");
        ctx.span_annotate(span, "rate", format_args!("{:.1}", obs.request_rate));
        ctx.span_annotate(span, "shed_rate", format_args!("{:.1}", obs.shed_rate));
        ctx.span_annotate(span, "queue_depth", format_args!("{:.1}", obs.queue_depth));
        ctx.span_annotate(span, "nodes", obs.nodes);
        ctx.span_annotate(span, "decision", format_args!("{decision:?}"));
        match decision {
            ScaleDecision::Out => {
                let cooling = self
                    .last_scale_out
                    .is_some_and(|t| now.saturating_duration_since(t) < SCALE_OUT_COOLDOWN);
                let mut cl = self.cluster.borrow_mut();
                if !cooling && (cl.live_nodes() as u32) < MAX_NODES {
                    let s = ctx.span_begin_under(span, "ctl.scale_out", "ctl");
                    cl.add_node_from(ctx);
                    let nodes = cl.live_nodes() as u32;
                    drop(cl);
                    ctx.metric_incr("ctl.scale_outs");
                    ctx.span_annotate(s, "nodes", nodes);
                    ctx.span_end(s);
                    self.events.borrow_mut().push(CtlEvent::ScaleOut { at: now, nodes });
                    self.last_scale_out = Some(now);
                }
            }
            ScaleDecision::In => {
                let cooling = self
                    .last_drain
                    .into_iter()
                    .chain(self.last_scale_out)
                    .any(|t| now.saturating_duration_since(t) < DRAIN_COOLDOWN);
                let mut cl = self.cluster.borrow_mut();
                if !cooling && (cl.live_nodes() as u32) > MIN_NODES {
                    if let Some(idx) = cl.newest_live() {
                        let s = ctx.span_begin_under(span, "ctl.drain", "ctl");
                        cl.remove_node_from(ctx, idx);
                        let nodes = cl.live_nodes() as u32;
                        drop(cl);
                        ctx.metric_incr("ctl.drains");
                        ctx.span_annotate(s, "node", idx);
                        ctx.span_annotate(s, "nodes", nodes);
                        ctx.span_end(s);
                        self.events.borrow_mut().push(CtlEvent::Drain {
                            at: now,
                            node: idx,
                            nodes,
                        });
                        self.last_drain = Some(now);
                    }
                }
            }
            ScaleDecision::Hold => {}
        }
        if let Some(pw) = self.prewarm.as_mut() {
            let cold_delta = (snap.cold_starts - prev.cold_starts) as u32;
            let (target, calm) =
                next_floor(pw.worth_prewarming, pw.floor, pw.calm_ticks, cold_delta);
            pw.calm_ticks = calm;
            if target != pw.floor {
                pw.floor = target;
                pw.faas.provision(ctx, &pw.function, target);
                ctx.metric_push("ctl.provisioned", f64::from(target));
                self.events.borrow_mut().push(CtlEvent::Prewarm {
                    at: now,
                    function: pw.function.clone(),
                    provisioned: target,
                });
            }
        }
        ctx.metric_push("ctl.nodes", self.cluster.borrow().live_nodes() as f64);
        ctx.span_end(span);
        self.prev = snap;
        self.prev_t = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas::{ColdStartPolicy, FaasConfig};

    #[test]
    fn floor_rises_with_cold_starts_and_decays_when_calm() {
        assert_eq!(next_floor(true, 0, 0, 3), (3, 0), "raise by the delta");
        assert_eq!(next_floor(true, 3, 0, 9), (MAX_PROVISIONED, 0), "capped");
        // Four calm ticks hold, the fifth decays by one and resets calm.
        let (mut floor, mut calm) = (8, 0);
        for _ in 0..4 {
            let next = next_floor(true, floor, calm, 0);
            floor = next.0;
            calm = next.1;
        }
        assert_eq!((floor, calm), (8, 4));
        assert_eq!(next_floor(true, floor, calm, 0), (7, 0));
        assert_eq!(next_floor(true, 0, 0, 0), (0, 0), "no floor, nothing to decay");
    }

    #[test]
    fn cheap_starts_close_the_floor_gate() {
        // Cold starts no longer buy floors; they count as calm ticks, so
        // an existing floor drifts down even under sustained cold starts.
        assert_eq!(next_floor(false, 0, 0, 3), (0, 0));
        assert_eq!(next_floor(false, 2, 3, 1), (2, 4));
        assert_eq!(next_floor(false, 2, 4, 1), (1, 0));
    }

    #[test]
    fn the_platform_tier_sets_whether_floors_pay() {
        let classic = FaasConfig::default();
        assert!(worth_prewarming(&classic), "classic 1.5 s starts are worth prewarming");
        let snap = FaasConfig { cold_start_policy: ColdStartPolicy::SnapshotRestore, ..classic };
        let penalty = snap.expected_start_penalty(FULL_VCPU_MB);
        assert!(
            penalty < FLOOR_THRESHOLD,
            "a ~210 ms restore is cheaper than a floor: {penalty:?}"
        );
        assert!(!worth_prewarming(&snap));
    }
}
