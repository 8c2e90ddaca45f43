//! The membership coordinator: issues a totally-ordered sequence of views
//! (the "variation of view synchrony" of §4.1) and detects crashed storage
//! nodes through heartbeats.
//!
//! Servers `Join` when they start and heartbeat periodically; a server
//! silent for longer than [`crate::DsoConfig::failure_timeout`] is removed
//! from the view. Every view change is broadcast to the members, which
//! rebalance objects accordingly; clients pull views on demand with
//! [`crate::protocol::GetView`].

use std::collections::BTreeMap;

use simcore::{Actor, Addr, Ctx, Msg, Proc, Request, Sim, SimTime, Wait, Wake};

use crate::config::DsoConfig;
use crate::protocol::{GetView, MemberMsg, NodeId, View, ViewUpdate};

/// Spawns the coordinator process; returns its mailbox address.
pub fn spawn_coordinator(sim: &Sim, cfg: DsoConfig) -> Addr {
    let inbox = sim.mailbox("dso-coordinator");
    sim.spawn_daemon_actor("dso-coordinator", Coordinator::new(inbox, cfg));
    inbox
}

/// [`spawn_coordinator`] from inside the simulation — used by
/// [`crate::DsoCluster::recover_from`] to rebuild a crashed deployment
/// without leaving virtual time.
pub fn spawn_coordinator_from(ctx: &mut Ctx, cfg: DsoConfig) -> Addr {
    let inbox = ctx.shared_mailbox("dso-coordinator");
    ctx.spawn_daemon_actor("dso-coordinator", Coordinator::new(inbox, cfg));
    inbox
}

struct MemberState {
    addr: Addr,
    last_heartbeat: SimTime,
}

/// The coordinator: one wake-up handles one message (or one silent
/// heartbeat interval), sweeps for dead members and pushes a new view if
/// the membership changed.
struct Coordinator {
    inbox: Addr,
    cfg: DsoConfig,
    members: BTreeMap<NodeId, MemberState>,
    view_id: u64,
}

impl Coordinator {
    fn new(inbox: Addr, cfg: DsoConfig) -> Coordinator {
        Coordinator { inbox, cfg, members: BTreeMap::new(), view_id: 0 }
    }
}

impl Actor for Coordinator {
    fn on_wake(&mut self, ctx: &mut Proc, wake: Wake) -> Wait {
        let Coordinator { inbox, cfg, members, view_id } = self;
        let wait = Wait::RecvTimeout(*inbox, cfg.heartbeat_interval);
        let msg = match wake {
            Wake::Start => return wait,
            Wake::Msg(msg) => Some(msg),
            // A silent heartbeat interval (the coordinator never sleeps).
            Wake::Timeout | Wake::Slept => None,
        };
        let mut changed = false;
        // Graceful leavers this round: they are no longer members, but the
        // leave view must still be pushed to them — a draining node
        // transfers its objects out only once it sees the view excluding
        // it. (Crashed nodes get nothing: they cannot receive.)
        let mut leavers: Vec<Addr> = Vec::new();
        if let Some(msg) = msg {
            match msg.try_take::<Request>() {
                Ok(req) => {
                    // Client (or server) asking for the current view.
                    let (reply_to, GetView) = req.take::<GetView>();
                    let view = make_view(*view_id, members);
                    let lat = crate::costs::CLIENT_NET.sample(ctx.rng());
                    ctx.reply(reply_to, view, lat);
                }
                Err(other) => match other.take::<MemberMsg>() {
                    MemberMsg::Join { node, addr } => {
                        ctx.trace(format!("join {node}"));
                        members.insert(node, MemberState { addr, last_heartbeat: ctx.now() });
                        changed = true;
                    }
                    MemberMsg::Heartbeat { node } => {
                        if let Some(m) = members.get_mut(&node) {
                            m.last_heartbeat = ctx.now();
                        }
                    }
                    MemberMsg::Leave { node } => {
                        if let Some(st) = members.remove(&node) {
                            ctx.trace(format!("leave {node}"));
                            leavers.push(st.addr);
                            changed = true;
                        }
                    }
                },
            }
        }
        // Failure detection sweep.
        let now = ctx.now();
        let dead: Vec<NodeId> = members
            .iter()
            .filter(|(_, m)| now.saturating_duration_since(m.last_heartbeat) > cfg.failure_timeout)
            .map(|(&n, _)| n)
            .collect();
        for n in dead {
            ctx.trace(format!("declare dead {n}"));
            members.remove(&n);
            changed = true;
        }
        if changed {
            *view_id += 1;
            ctx.metric_incr("dso.view_changes");
            let mark = ctx.span_instant("dso.view_change", "dso");
            ctx.span_annotate(mark, "view", &view_id);
            let view = make_view(*view_id, members);
            for addr in members.values().map(|m| m.addr).chain(leavers) {
                let lat = cfg.peer_net.sample(ctx.rng());
                ctx.send(addr, Msg::new(ViewUpdate(view.clone())), lat);
            }
        }
        wait
    }
}

fn make_view(id: u64, members: &BTreeMap<NodeId, MemberState>) -> View {
    View { id, members: members.iter().map(|(&n, m)| (n, m.addr)).collect() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    use parking_lot::Mutex;

    fn cfg() -> DsoConfig {
        DsoConfig::default()
    }

    #[test]
    fn join_produces_views_and_getview_reflects_them() {
        let mut sim = Sim::new(1);
        let coord = spawn_coordinator(&sim, cfg());
        let views: Arc<Mutex<Vec<View>>> = Arc::new(Mutex::new(Vec::new()));
        // Two fake servers that join and record pushed views.
        for i in 0..2u32 {
            let views = views.clone();
            sim.spawn_daemon(&format!("srv{i}"), move |ctx| {
                let inbox = ctx.mailbox(&format!("srv{i}-inbox"));
                ctx.send(
                    coord,
                    Msg::new(MemberMsg::Join { node: NodeId(i), addr: inbox }),
                    Duration::from_micros(90),
                );
                loop {
                    let m = ctx.recv(inbox);
                    if let Ok(ViewUpdate(v)) = m.try_take::<ViewUpdate>() {
                        views.lock().push(v);
                    }
                }
            });
        }
        let got: Arc<Mutex<Option<View>>> = Arc::new(Mutex::new(None));
        let got2 = got.clone();
        sim.spawn("client", move |ctx| {
            ctx.sleep(Duration::from_millis(50));
            let v: View = ctx.call(coord, GetView, Duration::from_micros(90));
            *got2.lock() = Some(v);
        });
        sim.run_until(SimTime::from_millis(100));
        let v = got.lock().clone().expect("client got view");
        assert_eq!(v.members.len(), 2);
        assert!(v.id >= 2, "two joins bump the view twice");
        // Both servers eventually saw the final view.
        let vs = views.lock();
        assert!(vs.iter().any(|x| x.members.len() == 2));
    }

    #[test]
    fn silent_member_is_removed() {
        let mut sim = Sim::new(2);
        let mut c = cfg();
        c.heartbeat_interval = Duration::from_millis(100);
        c.failure_timeout = Duration::from_millis(300);
        let coord = spawn_coordinator(&sim, c.clone());
        // A member that joins and heartbeats forever.
        sim.spawn_daemon("alive", move |ctx| {
            let inbox = ctx.mailbox("alive-inbox");
            ctx.send(
                coord,
                Msg::new(MemberMsg::Join { node: NodeId(0), addr: inbox }),
                Duration::ZERO,
            );
            loop {
                ctx.sleep(Duration::from_millis(100));
                ctx.send(coord, Msg::new(MemberMsg::Heartbeat { node: NodeId(0) }), Duration::ZERO);
            }
        });
        // A member that joins and goes silent.
        sim.spawn_daemon("silent", move |ctx| {
            let inbox = ctx.mailbox("silent-inbox");
            ctx.send(
                coord,
                Msg::new(MemberMsg::Join { node: NodeId(1), addr: inbox }),
                Duration::ZERO,
            );
            loop {
                let _ = ctx.recv(inbox);
            }
        });
        let got: Arc<Mutex<Option<View>>> = Arc::new(Mutex::new(None));
        let got2 = got.clone();
        sim.spawn("client", move |ctx| {
            ctx.sleep(Duration::from_secs(2));
            let v: View = ctx.call(coord, GetView, Duration::ZERO);
            *got2.lock() = Some(v);
        });
        sim.run_until(SimTime::from_secs(3));
        let v = got.lock().clone().expect("view");
        assert_eq!(v.node_ids(), vec![NodeId(0)], "silent node evicted");
    }

    #[test]
    fn leave_is_immediate() {
        let mut sim = Sim::new(3);
        let coord = spawn_coordinator(&sim, cfg());
        sim.spawn("srv", move |ctx| {
            let inbox = ctx.shared_mailbox("srv-inbox");
            ctx.send(
                coord,
                Msg::new(MemberMsg::Join { node: NodeId(5), addr: inbox }),
                Duration::ZERO,
            );
            ctx.sleep(Duration::from_millis(10));
            ctx.send(coord, Msg::new(MemberMsg::Leave { node: NodeId(5) }), Duration::ZERO);
            ctx.sleep(Duration::from_millis(10));
            let v: View = ctx.call(coord, GetView, Duration::ZERO);
            assert!(v.members.is_empty());
        });
        sim.run_until(SimTime::from_secs(1));
    }
}
