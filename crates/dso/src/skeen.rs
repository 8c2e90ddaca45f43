//! Skeen's total-order multicast, the ordering layer under state machine
//! replication (§5 of the paper: "The current implementation uses Skeen's
//! algorithm" via JGroups TOA).
//!
//! This module is a *pure* protocol state machine: feeding it messages
//! yields actions (sends and deliveries) without any I/O, which makes it
//! directly unit- and property-testable. The DSO server drives it with the
//! simulated network.
//!
//! The protocol, per message `m` multicast to group `G` by initiator `i`:
//!
//! 1. `i` sends `Run(m)` to every member of `G`.
//! 2. Each member stamps `m` with its incremented Lamport clock and sends
//!    the proposal back to `i`, holding `m` as *pending*.
//! 3. `i` takes the maximum proposal as the final timestamp and sends
//!    `Final` to every member.
//! 4. Members deliver pending messages in final-timestamp order, as soon as
//!    no other pending message could receive a smaller timestamp.

use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use simcore::FxHashMap;

use crate::protocol::NodeId;

/// Globally unique multicast-message id: `(initiator, sequence)`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Mid {
    /// Initiating node.
    pub node: NodeId,
    /// Initiator-local sequence number.
    pub seq: u64,
}

impl fmt::Debug for Mid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Mid({}/{})", self.node.0, self.seq)
    }
}

/// A logical timestamp, made unique by the stamping node's id.
pub type Stamp = (u64, NodeId);

/// Wire messages of the protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum SkeenMsg<M> {
    /// Step 1: initiator disseminates the payload to the group.
    Run {
        /// Message id.
        mid: Mid,
        /// Full destination group, shared by every `Run` of one multicast.
        group: Rc<[NodeId]>,
        /// Application payload.
        payload: M,
    },
    /// Step 2: member proposes a timestamp to the initiator.
    Propose {
        /// Message id.
        mid: Mid,
        /// Proposed stamp.
        ts: Stamp,
    },
    /// Step 3: initiator announces the agreed (maximum) timestamp.
    Final {
        /// Message id.
        mid: Mid,
        /// Final stamp.
        ts: Stamp,
    },
}

/// An instruction for the driver: either put a message on the wire or hand
/// a payload to the application in total order.
#[derive(Debug, PartialEq)]
pub enum Action<M> {
    /// Send `msg` to node `to` (possibly the local node itself).
    Send {
        /// Destination.
        to: NodeId,
        /// Protocol message.
        msg: SkeenMsg<M>,
    },
    /// Deliver `payload` locally; deliveries happen in the same order at
    /// every group member.
    Deliver {
        /// Message id.
        mid: Mid,
        /// Final stamp (identical at all members).
        ts: Stamp,
        /// Application payload.
        payload: M,
    },
}

struct Pending<M> {
    ts: Stamp,
    is_final: bool,
    payload: M,
}

struct Collecting {
    group: Rc<[NodeId]>,
    max: Stamp,
    awaiting: usize,
}

/// Per-node protocol state.
///
/// # Examples
///
/// ```
/// use dso::skeen::{Skeen, Action};
/// use dso::protocol::NodeId;
///
/// let (a, b) = (NodeId(0), NodeId(1));
/// let mut sa = Skeen::<String>::new(a);
/// let mut sb = Skeen::<String>::new(b);
/// let mut actions = Vec::new();
/// sa.multicast_into(vec![a, b], "op".to_string(), &mut actions);
/// // Drive the messages by hand (normally the server/network does this)…
/// # let mut delivered = 0;
/// # let mut queue: Vec<(NodeId, NodeId, dso::skeen::SkeenMsg<String>)> =
/// #     actions.drain(..).map(|x| match x {
/// #         Action::Send { to, msg } => (a, to, msg),
/// #         _ => unreachable!(),
/// #     }).collect();
/// # while let Some((from, to, msg)) = queue.pop() {
/// #     let node = if to == a { &mut sa } else { &mut sb };
/// #     node.handle_into(from, msg, &mut actions);
/// #     for act in actions.drain(..) {
/// #         match act {
/// #             Action::Send { to: t, msg: m } => queue.push((to, t, m)),
/// #             Action::Deliver { .. } => delivered += 1,
/// #         }
/// #     }
/// # }
/// # assert_eq!(delivered, 2);
/// ```
pub struct Skeen<M> {
    node: NodeId,
    clock: u64,
    next_seq: u64,
    pending: FxHashMap<Mid, Pending<M>>,
    // Delivery frontier ordered by (stamp, mid).
    order: BTreeMap<(Stamp, Mid), Mid>,
    collecting: FxHashMap<Mid, Collecting>,
}

impl<M: fmt::Debug> fmt::Debug for Skeen<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Skeen")
            .field("node", &self.node)
            .field("clock", &self.clock)
            .field("pending", &self.pending.len())
            .finish()
    }
}

impl<M: Clone> Skeen<M> {
    /// Creates the state machine for `node`.
    pub fn new(node: NodeId) -> Skeen<M> {
        Skeen {
            node,
            clock: 0,
            next_seq: 0,
            pending: FxHashMap::default(),
            order: BTreeMap::new(),
            collecting: FxHashMap::default(),
        }
    }

    /// Aborts every in-flight multicast (pending deliveries and open
    /// collections), keeping the logical clock and sequence numbers.
    ///
    /// Called on a view change: a crashed member can never answer its
    /// proposal, so undelivered messages would otherwise block the
    /// delivery queue head forever (view synchrony discards them; the
    /// calling clients time out and retry under the new view).
    pub fn reset(&mut self) {
        self.pending.clear();
        self.order.clear();
        self.collecting.clear();
    }

    /// Starts a multicast of `payload` to `group` (which should include the
    /// local node if it must deliver too), appending the `Run` sends to
    /// `out`.
    ///
    /// # Panics
    ///
    /// Panics if `group` is empty.
    pub fn multicast_into(
        &mut self,
        group: impl Into<Rc<[NodeId]>>,
        payload: M,
        out: &mut Vec<Action<M>>,
    ) -> Mid {
        let group: Rc<[NodeId]> = group.into();
        assert!(!group.is_empty(), "multicast group must not be empty");
        let mid = Mid { node: self.node, seq: self.next_seq };
        self.next_seq += 1;
        out.extend(group.iter().map(|&to| Action::Send {
            to,
            msg: SkeenMsg::Run { mid, group: group.clone(), payload: payload.clone() },
        }));
        let awaiting = group.len();
        self.collecting.insert(mid, Collecting { group, max: (0, NodeId(0)), awaiting });
        mid
    }

    /// [`Skeen::multicast_into`] into a fresh `Vec`, for a caller that
    /// takes one batch at a time (`benchmark layers`' Skeen round).
    pub fn multicast(&mut self, group: Vec<NodeId>, payload: M) -> (Mid, Vec<Action<M>>) {
        let mut out = Vec::new();
        let mid = self.multicast_into(group, payload, &mut out);
        (mid, out)
    }

    /// Feeds one protocol message, appending the resulting sends and
    /// deliveries to `out`.
    pub fn handle_into(&mut self, _from: NodeId, msg: SkeenMsg<M>, out: &mut Vec<Action<M>>) {
        match msg {
            SkeenMsg::Run { mid, payload, .. } => {
                self.clock += 1;
                let ts: Stamp = (self.clock, self.node);
                self.pending.insert(mid, Pending { ts, is_final: false, payload });
                self.order.insert((ts, mid), mid);
                out.push(Action::Send { to: mid.node, msg: SkeenMsg::Propose { mid, ts } });
            }
            SkeenMsg::Propose { mid, ts } => {
                // A late or duplicate proposal finds its collection finished.
                let Some(c) = self.collecting.get_mut(&mid) else { return };
                if ts > c.max {
                    c.max = ts;
                }
                c.awaiting -= 1;
                if c.awaiting > 0 {
                    return;
                }
                #[expect(
                    clippy::expect_used,
                    reason = "invariant: `get_mut` found this very key just above, with no intervening removal"
                )]
                let c = self.collecting.remove(&mid).expect("collecting entry");
                let ts = c.max;
                out.extend(
                    c.group.iter().map(|&to| Action::Send { to, msg: SkeenMsg::Final { mid, ts } }),
                );
            }
            SkeenMsg::Final { mid, ts } => {
                self.clock = self.clock.max(ts.0);
                if let Some(p) = self.pending.get_mut(&mid) {
                    let old = (p.ts, mid);
                    p.ts = ts;
                    p.is_final = true;
                    self.order.remove(&old);
                    self.order.insert((ts, mid), mid);
                }
                self.drain(out);
            }
        }
    }

    /// [`Skeen::handle_into`] into a fresh `Vec` (see [`Skeen::multicast`]).
    pub fn handle(&mut self, from: NodeId, msg: SkeenMsg<M>) -> Vec<Action<M>> {
        let mut out = Vec::new();
        self.handle_into(from, msg, &mut out);
        out
    }

    /// Delivers every head-of-line finalized message.
    fn drain(&mut self, out: &mut Vec<Action<M>>) {
        while let Some((&key, &mid)) = self.order.iter().next() {
            let ((ts, _), mid) = (key, mid);
            let deliverable = self.pending.get(&mid).map(|p| p.is_final).unwrap_or(false);
            if !deliverable {
                break;
            }
            self.order.remove(&(ts, mid));
            #[expect(
                clippy::expect_used,
                reason = "invariant: `deliverable` required pending[mid].is_final just above; order and pending are mutated in lockstep"
            )]
            let p = self.pending.remove(&mid).expect("pending entry");
            out.push(Action::Deliver { mid, ts, payload: p.payload });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, VecDeque};

    type Net<M> = VecDeque<(NodeId, NodeId, SkeenMsg<M>)>; // (from, to, msg)

    /// Drives a set of nodes to quiescence, picking the next in-flight
    /// message with `pick`. Returns per-node delivery logs.
    fn drive<M: Clone + fmt::Debug>(
        nodes: &mut BTreeMap<NodeId, Skeen<M>>,
        net: &mut Net<M>,
        mut pick: impl FnMut(usize) -> usize,
    ) -> BTreeMap<NodeId, Vec<(Mid, M)>> {
        let mut logs: BTreeMap<NodeId, Vec<(Mid, M)>> = BTreeMap::new();
        let mut actions = Vec::new();
        while !net.is_empty() {
            let idx = pick(net.len());
            let (from, to, msg) = net.remove(idx).expect("index in range");
            nodes.get_mut(&to).expect("node exists").handle_into(from, msg, &mut actions);
            for a in actions.drain(..) {
                match a {
                    Action::Send { to: t, msg: m } => net.push_back((to, t, m)),
                    Action::Deliver { mid, payload, .. } => {
                        logs.entry(to).or_default().push((mid, payload));
                    }
                }
            }
        }
        logs
    }

    fn start<M: Clone>(
        nodes: &mut BTreeMap<NodeId, Skeen<M>>,
        net: &mut Net<M>,
        initiator: NodeId,
        group: &[NodeId],
        payload: M,
    ) -> Mid {
        let mut actions = Vec::new();
        let mid = nodes.get_mut(&initiator).expect("initiator").multicast_into(
            group.to_vec(),
            payload,
            &mut actions,
        );
        for a in actions {
            match a {
                Action::Send { to, msg } => net.push_back((initiator, to, msg)),
                Action::Deliver { .. } => panic!("multicast never delivers directly"),
            }
        }
        mid
    }

    fn make_nodes(n: u32) -> BTreeMap<NodeId, Skeen<String>> {
        (0..n).map(|i| (NodeId(i), Skeen::new(NodeId(i)))).collect()
    }

    #[test]
    fn single_message_delivered_everywhere() {
        let mut nodes = make_nodes(3);
        let mut net = Net::new();
        let group: Vec<NodeId> = (0..3).map(NodeId).collect();
        start(&mut nodes, &mut net, NodeId(0), &group, "a".to_string());
        let logs = drive(&mut nodes, &mut net, |_| 0);
        for n in &group {
            assert_eq!(logs[n].len(), 1, "node {n:?}");
            assert_eq!(logs[n][0].1, "a");
        }
    }

    #[test]
    fn concurrent_messages_same_order_fifo_network() {
        let mut nodes = make_nodes(3);
        let mut net = Net::new();
        let group: Vec<NodeId> = (0..3).map(NodeId).collect();
        for i in 0..5 {
            let initiator = NodeId(i % 3);
            start(&mut nodes, &mut net, initiator, &group, format!("m{i}"));
        }
        let logs = drive(&mut nodes, &mut net, |_| 0);
        let reference: Vec<_> = logs[&NodeId(0)].iter().map(|(m, _)| *m).collect();
        assert_eq!(reference.len(), 5);
        for n in &group {
            let seq: Vec<_> = logs[n].iter().map(|(m, _)| *m).collect();
            assert_eq!(seq, reference, "node {n:?} diverged");
        }
    }

    #[test]
    fn lifo_network_still_totally_ordered() {
        let mut nodes = make_nodes(4);
        let mut net = Net::new();
        let group: Vec<NodeId> = (0..4).map(NodeId).collect();
        for i in 0..6 {
            start(&mut nodes, &mut net, NodeId(i % 4), &group, format!("m{i}"));
        }
        let logs = drive(&mut nodes, &mut net, |len| len - 1);
        let reference: Vec<_> = logs[&NodeId(0)].iter().map(|(m, _)| *m).collect();
        assert_eq!(reference.len(), 6);
        for n in &group {
            let seq: Vec<_> = logs[n].iter().map(|(m, _)| *m).collect();
            assert_eq!(seq, reference);
        }
    }

    #[test]
    fn two_member_group_latency_is_three_one_way_hops_for_remote() {
        // Structural check used by the latency calibration: for rf=2 the
        // non-initiator replica receives Run, sends Propose, receives
        // Final — three one-way message hops before delivery.
        let mut a = Skeen::<u8>::new(NodeId(0));
        let mut b = Skeen::<u8>::new(NodeId(1));
        let handle = |s: &mut Skeen<u8>, from: NodeId, msg: SkeenMsg<u8>| {
            let mut out = Vec::new();
            s.handle_into(from, msg, &mut out);
            out
        };
        let mut acts = Vec::new();
        let mid = a.multicast_into(vec![NodeId(0), NodeId(1)], 9, &mut acts);
        assert_eq!(acts.len(), 2);
        // Hop 1: Run reaches b.
        let run_msg = acts
            .into_iter()
            .find_map(|x| match x {
                Action::Send { to: NodeId(1), msg } => Some(msg),
                Action::Send { to: NodeId(0), msg } => {
                    // Self-run handled locally.
                    let _ = handle(&mut a, NodeId(0), msg);
                    None
                }
                _ => None,
            })
            .expect("run to b");
        let acts_b = handle(&mut b, NodeId(0), run_msg);
        // Hop 2: Propose back to a (plus a's own self-propose).
        let propose = match &acts_b[0] {
            Action::Send { to, msg } => {
                assert_eq!(*to, NodeId(0));
                msg.clone()
            }
            other => panic!("unexpected {other:?}"),
        };
        let self_propose = SkeenMsg::Propose { mid, ts: (1, NodeId(0)) };
        let _ = handle(&mut a, NodeId(0), self_propose);
        let acts_a = handle(&mut a, NodeId(1), propose);
        // Hop 3: Finals (one reaches b, one loops to a).
        let mut delivered_b = 0;
        for act in acts_a {
            match act {
                Action::Send { to, msg } => {
                    if to == NodeId(1) {
                        for x in handle(&mut b, NodeId(0), msg) {
                            if matches!(x, Action::Deliver { .. }) {
                                delivered_b += 1;
                            }
                        }
                    } else {
                        let _ = handle(&mut a, NodeId(0), msg);
                    }
                }
                Action::Deliver { .. } => {}
            }
        }
        assert_eq!(delivered_b, 1);
    }

    /// The appending forms leave what `out` already held in place, and the
    /// `Vec`-returning forms return exactly what they append.
    #[test]
    fn actions_are_appended() {
        let (mut a, mut b) = (Skeen::<u8>::new(NodeId(0)), Skeen::<u8>::new(NodeId(0)));
        let mut out = vec![Action::Deliver {
            mid: Mid { node: NodeId(9), seq: 9 },
            ts: (0, NodeId(9)),
            payload: 0,
        }];
        let mid = a.multicast_into(vec![NodeId(0), NodeId(1)], 7, &mut out);
        let (mid_b, fresh) = b.multicast(vec![NodeId(0), NodeId(1)], 7);
        assert_eq!(mid, mid_b);
        assert_eq!(out.len(), 3);
        assert_eq!(out[1..], fresh[..]);
        let Action::Send { msg, .. } = out.pop().expect("a run") else { panic!("not a send") };
        let before = out.len();
        a.handle_into(NodeId(0), msg.clone(), &mut out);
        assert_eq!(out[before..], b.handle(NodeId(0), msg)[..]);
    }

    /// A mid's hash under the simulation's fixed hasher: the layout of
    /// Skeen's `pending` and `collecting` tables follows from it.
    #[test]
    fn mid_hash_is_pinned() {
        use std::hash::BuildHasher;
        let fx = simcore::FxBuildHasher::default();
        assert_eq!(fx.hash_one(Mid { node: NodeId(7), seq: 3 }), 0xcd8a_9808_c2d8_6dd8);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_group_rejected() {
        let mut s = Skeen::<u8>::new(NodeId(0));
        let _ = s.multicast_into(vec![], 1, &mut Vec::new());
    }
}

#[cfg(test)]
mod proptests {
    use super::tests_support::pop_pick;
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Under arbitrary message interleavings, every group member
        /// delivers the same sequence (total order + agreement), containing
        /// every multicast exactly once (validity, integrity).
        #[test]
        fn total_order_under_random_interleaving(
            n in 2u32..6,
            msgs in 1usize..12,
            picks in proptest::collection::vec(0usize..1000, 0..600),
        ) {
            // One group shared by every multicast, as the server's placement is.
            let group: Rc<[NodeId]> = (0..n).map(NodeId).collect();
            let mut nodes: BTreeMap<NodeId, Skeen<usize>> =
                group.iter().map(|&i| (i, Skeen::new(i))).collect();
            let mut net = std::collections::VecDeque::new();
            let mut mids = Vec::new();
            let mut actions = Vec::new();
            for i in 0..msgs {
                let initiator = NodeId((i as u32) % n);
                let mid = nodes
                    .get_mut(&initiator)
                    .expect("initiator")
                    .multicast_into(group.clone(), i, &mut actions);
                mids.push(mid);
                for a in actions.drain(..) {
                    if let Action::Send { to, msg } = a {
                        net.push_back((initiator, to, msg));
                    }
                }
            }
            let mut logs: BTreeMap<NodeId, Vec<Mid>> = BTreeMap::new();
            let mut k = 0usize;
            while let Some((from, to, msg)) = pop_pick(&mut net, picks.get(k).copied()) {
                k += 1;
                nodes.get_mut(&to).expect("node").handle_into(from, msg, &mut actions);
                for a in actions.drain(..) {
                    match a {
                        Action::Send { to: t, msg: m } => net.push_back((to, t, m)),
                        Action::Deliver { mid, .. } => logs.entry(to).or_default().push(mid),
                    }
                }
            }
            let reference = logs.get(&NodeId(0)).cloned().unwrap_or_default();
            prop_assert_eq!(reference.len(), msgs, "all messages delivered");
            let mut sorted = reference.clone();
            sorted.sort();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), msgs, "no duplicates");
            for m in group.iter() {
                prop_assert_eq!(logs.get(m).cloned().unwrap_or_default(), reference.clone());
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    use std::collections::VecDeque;

    /// Removes an element chosen by `pick % len` (front if `None`).
    pub fn pop_pick<T>(q: &mut VecDeque<T>, pick: Option<usize>) -> Option<T> {
        if q.is_empty() {
            return None;
        }
        let idx = pick.unwrap_or(0) % q.len();
        q.remove(idx)
    }
}
