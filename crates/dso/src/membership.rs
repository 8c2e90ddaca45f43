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
    /// The current view, rebuilt (ring included) only when the members
    /// change; every `GetView` and `ViewUpdate` carries a clone of it.
    view: View,
}

impl Coordinator {
    fn new(inbox: Addr, cfg: DsoConfig) -> Coordinator {
        Coordinator { inbox, cfg, members: BTreeMap::new(), view: View::empty() }
    }
}

impl Actor for Coordinator {
    fn on_wake(&mut self, ctx: &mut Proc, wake: Wake) -> Wait {
        let Coordinator { inbox, cfg, members, view } = self;
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
                    let lat = crate::costs::CLIENT_NET.sample(ctx.rng());
                    ctx.reply(reply_to, view.clone(), lat);
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
            *view = View::new(view.id() + 1, members.iter().map(|(&n, m)| (n, m.addr)).collect());
            ctx.metric_incr("dso.view_changes");
            let mark = ctx.span_instant("dso.view_change", "dso");
            ctx.span_annotate(mark, "view", view.id());
            for addr in members.values().map(|m| m.addr).chain(leavers) {
                let lat = cfg.peer_net.sample(ctx.rng());
                ctx.send(addr, Msg::new(ViewUpdate(view.clone())), lat);
            }
        }
        wait
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::time::Duration;

    fn cfg() -> DsoConfig {
        DsoConfig::default()
    }

    #[test]
    fn join_produces_views_and_getview_reflects_them() {
        let mut sim = Sim::new(1);
        let coord = spawn_coordinator(&sim, cfg());
        let views: Rc<RefCell<Vec<View>>> = Rc::default();
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
                        views.borrow_mut().push(v);
                    }
                }
            });
        }
        let got: Rc<RefCell<Option<View>>> = Rc::default();
        let got2 = got.clone();
        sim.spawn("client", move |ctx| {
            ctx.sleep(Duration::from_millis(50));
            let v: View = ctx.call(coord, GetView, Duration::from_micros(90));
            *got2.borrow_mut() = Some(v);
        });
        sim.run_until(SimTime::from_millis(100));
        let v = got.borrow().clone().expect("client got view");
        assert_eq!(v.members().len(), 2);
        assert!(v.id() >= 2, "two joins bump the view twice");
        // Both servers eventually saw the final view.
        let vs = views.borrow();
        assert!(vs.iter().any(|x| x.members().len() == 2));
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
        let got: Rc<RefCell<Option<View>>> = Rc::default();
        let got2 = got.clone();
        sim.spawn("client", move |ctx| {
            ctx.sleep(Duration::from_secs(2));
            let v: View = ctx.call(coord, GetView, Duration::ZERO);
            *got2.borrow_mut() = Some(v);
        });
        sim.run_until(SimTime::from_secs(3));
        let v = got.borrow().clone().expect("view");
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
            assert!(v.members().is_empty());
        });
        sim.run_until(SimTime::from_secs(1));
    }

    /// Every holder of one view id shares the ring the coordinator built
    /// for it, and each new view's ring is over exactly its members.
    #[test]
    fn one_ring_per_view() {
        let mut sim = Sim::new(4);
        let mut c = cfg();
        c.heartbeat_interval = Duration::from_millis(100);
        c.failure_timeout = Duration::from_millis(300);
        let coord = spawn_coordinator(&sim, c);
        // Every view pushed to any member.
        let pushed: Rc<RefCell<Vec<View>>> = Rc::default();
        for i in 0..3u32 {
            let pushed = pushed.clone();
            sim.spawn_daemon(&format!("srv{i}"), move |ctx| {
                let inbox = ctx.mailbox(&format!("srv{i}-inbox"));
                let join = MemberMsg::Join { node: NodeId(i), addr: inbox };
                ctx.send(coord, Msg::new(join), Duration::ZERO);
                loop {
                    let m = ctx.recv_timeout(inbox, Duration::from_millis(100));
                    if let Some(Ok(ViewUpdate(v))) = m.map(Msg::try_take::<ViewUpdate>) {
                        pushed.borrow_mut().push(v);
                    }
                    // Node 2 never heartbeats: it is declared dead.
                    if i != 2 {
                        let beat = MemberMsg::Heartbeat { node: NodeId(i) };
                        ctx.send(coord, Msg::new(beat), Duration::ZERO);
                    }
                }
            });
        }
        // Two clients ask for the view at once, after the joins and
        // before the crash is detected.
        let got: Rc<RefCell<Vec<View>>> = Rc::default();
        for k in 0..2 {
            let got = got.clone();
            sim.spawn(&format!("client{k}"), move |ctx| {
                ctx.sleep(Duration::from_millis(50));
                let v: View = ctx.call(coord, GetView, Duration::ZERO);
                got.borrow_mut().push(v);
            });
        }
        sim.run_until(SimTime::from_secs(2));
        let got = got.borrow();
        let (a, b) = (&got[0], &got[1]);
        assert_eq!(a.node_ids(), vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert!(std::ptr::eq(a.ring(), b.ring()), "two GetView replies built two rings");
        let pushed = pushed.borrow();
        let same_id: Vec<&View> = pushed.iter().filter(|v| v.id() == a.id()).collect();
        assert_eq!(same_id.len(), 3, "every member was pushed view {}", a.id());
        assert!(same_id.iter().all(|v| std::ptr::eq(v.ring(), a.ring())));
        // Three joins, then the crash: each made a view whose ring is over
        // exactly its members.
        let mut ids: Vec<u64> = pushed.iter().map(View::id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids, vec![1, 2, 3, 4]);
        let last = pushed.last().expect("views pushed");
        assert_eq!(last.node_ids(), vec![NodeId(0), NodeId(1)], "silent node evicted");
        for v in pushed.iter() {
            assert_eq!(v.ring().nodes(), &v.node_ids()[..], "view {}", v.id());
        }
    }
}
