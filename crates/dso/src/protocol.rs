//! Wire protocol of the DSO layer: node ids, views, client requests and
//! server-to-server messages.

use std::fmt;

use bytes::Bytes;
use simcore::codec::Wire;
use simcore::{Addr, SpanId};

use crate::error::ObjectError;
use crate::intern::MethodName;
use crate::object::ObjectRef;
use crate::skeen::{Mid, SkeenMsg, Stamp};

/// Identifier of a DSO storage node.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Wire)]
pub struct NodeId(pub u32);

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A totally-ordered membership view (view synchrony, §4.1).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct View {
    /// Monotonically increasing view id.
    pub id: u64,
    /// Member nodes with their mailbox addresses, sorted by node id.
    pub members: Vec<(NodeId, Addr)>,
}

impl View {
    /// An empty pre-initialization view.
    pub fn empty() -> View {
        View { id: 0, members: Vec::new() }
    }

    /// Node ids of the members.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.members.iter().map(|(n, _)| *n).collect()
    }

    /// Address of a member, if present.
    pub fn addr_of(&self, node: NodeId) -> Option<Addr> {
        self.members.iter().find(|(n, _)| *n == node).map(|(_, a)| *a)
    }
}

/// A client's invocation request (also carried inside SMR payloads).
///
/// Cloning is cheap: the method name is interned and the payloads are
/// reference-counted [`Bytes`], so the client constructs the request once
/// and clones it per retry or batch item.
#[derive(Clone, Debug)]
pub struct InvokeReq {
    /// Target object.
    pub obj: ObjectRef,
    /// Method name; `"__create"` is reserved for idempotent initialization.
    pub method: MethodName,
    /// Codec-encoded arguments.
    pub args: Bytes,
    /// Replication factor of the object (1 = ephemeral, unreplicated).
    pub rf: u8,
    /// Creation arguments, sent once per client proxy so the object can be
    /// materialized if absent (idempotent).
    pub create: Option<Bytes>,
    /// Declared read-only: the method must not mutate the object. Read-only
    /// requests skip the SMR path on replicated objects and, under
    /// [`crate::ConsistencyMode::ReplicaReads`], may be served by any
    /// replica.
    pub readonly: bool,
    /// Causal dependency piggybacked by the client, `TraceCtx`-style: the
    /// highest Lamport stamp the session has observed (`0` = none, the
    /// value every non-causal policy sends). Mutations are stamped
    /// strictly above it — `max(stored, dep) + 1` — deterministically per
    /// applied write, so SMR replicas assign identical stamps.
    pub dep: u64,
    /// Client-side trace span of this attempt; server-side execution spans
    /// are parented under it ([`SpanId::NONE`] when untraced).
    pub span: SpanId,
}

/// Server's reply to an invocation.
#[derive(Clone, Debug, PartialEq)]
pub enum InvokeResp {
    /// The method's encoded return value.
    Value {
        /// Encoded return value.
        bytes: Bytes,
        /// The object's version (mutation count) when the method ran; `0`
        /// also for replies without a meaningful version (deferred wakes,
        /// unit replies of maintenance methods). Clients use it for
        /// monotonic reads and cache validation.
        version: u64,
        /// The object's Lamport stamp when the method ran (`0` where
        /// `version` is also meaningless). Under
        /// [`crate::ConsistencyMode::Causal`] the client folds it into
        /// its session frontier and rejects replica reads behind it.
        lamport: u64,
    },
    /// Contacted node is not an owner; the attached view id hints the
    /// client to refresh.
    NotOwner {
        /// Server's current view id.
        view: u64,
    },
    /// Transient failure (object in transfer, SMR aborted by view change).
    Retry,
    /// The node's admission controller shed the request (token bucket
    /// empty or dispatch queue full). Retryable: the client backs off for
    /// at least `retry_after` and tries again, without refreshing the view
    /// (ownership is not in question).
    Overloaded {
        /// Server's hint for the minimum client backoff.
        retry_after: std::time::Duration,
    },
    /// The object rejected the call.
    Error(ObjectError),
}

/// Payload replicated through total-order multicast for persistent objects.
#[derive(Clone, Debug)]
pub struct SmrOp {
    /// The original invocation.
    pub req: InvokeReq,
    /// Reply address of the calling client; only the initiating node
    /// responds, the others apply silently.
    pub respond_to: Option<Addr>,
    /// When the operation arrived inside a [`BatchReq`], the item tag the
    /// reply must carry (the reply is then a [`BatchItemResp`]).
    pub respond_tag: Option<u32>,
    /// Trace span of the SMR round, begun by the initiating node when it
    /// multicasts; replicas parent their apply spans under it.
    pub round_span: SpanId,
}

/// A batch of independent invocations for objects homed on one node,
/// shipped as a single message. The server fans the items out to its
/// workers; each item is answered individually as a [`BatchItemResp`]
/// carrying the item's tag, so replies stream back as they complete.
#[derive(Debug)]
pub struct BatchReq {
    /// `(tag, operation)` pairs; tags are echoed in the replies.
    pub items: Vec<(u32, InvokeReq)>,
}

/// Reply to one item of a [`BatchReq`].
#[derive(Clone, Debug)]
pub struct BatchItemResp {
    /// The tag of the [`BatchReq`] item this answers.
    pub tag: u32,
    /// The item's outcome.
    pub resp: InvokeResp,
}

/// Cheap version probe, answered directly by a node's dispatcher without
/// touching a worker: used by clients to validate cached read results.
#[derive(Debug, Clone)]
pub struct VersionReq {
    /// The object whose version is asked for.
    pub obj: ObjectRef,
    /// Its replication factor (needed for the ownership check).
    pub rf: u8,
}

/// Reply to a [`VersionReq`]. `None` means the node does not currently
/// store the object (not an owner, or not yet materialized) — clients must
/// treat that as a cache miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionResp(pub Option<u64>);

/// Server-to-server messages.
#[derive(Debug)]
pub enum PeerMsg {
    /// A Skeen protocol message carrying an [`SmrOp`].
    Smr {
        /// Sending node.
        from: NodeId,
        /// View id the sender ran in. Messages from another view are
        /// dropped: both sides of a membership change must agree on the
        /// multicast group, otherwise a reset on one side leaves a
        /// never-finalized message blocking the other side's delivery
        /// queue forever.
        epoch: u64,
        /// Protocol message.
        msg: SkeenMsg<SmrOp>,
    },
    /// State transfer of an object during rebalancing.
    Transfer {
        /// Object being moved/copied.
        obj: ObjectRef,
        /// Replication factor recorded at creation.
        rf: u8,
        /// Serialized object state.
        state: Vec<u8>,
        /// Version (applied-operation count) for conflict resolution.
        version: u64,
        /// Lamport stamp travelling with the state, so causal sessions
        /// survive rebalancing.
        lamport: u64,
    },
}

/// Messages understood by the membership coordinator.
#[derive(Debug)]
pub enum MemberMsg {
    /// A server announces itself (on start or restart).
    Join {
        /// Its node id.
        node: NodeId,
        /// Its request mailbox.
        addr: Addr,
    },
    /// Periodic liveness signal.
    Heartbeat {
        /// Sending node.
        node: NodeId,
    },
    /// Graceful departure.
    Leave {
        /// Departing node.
        node: NodeId,
    },
}

/// Control-plane request to a storage node: leave the cluster gracefully.
/// The node announces [`MemberMsg::Leave`], waits for the view excluding
/// it, transfers every object it still stores to the new owners, then
/// retires. Contrast with a crash, where state on the node is simply lost
/// (recovered only via replication).
#[derive(Debug, Clone, Copy)]
pub struct DrainNode;

/// RPC to the coordinator: fetch the current view (used by clients and by
/// servers that fall behind).
#[derive(Debug, Clone, Copy)]
pub struct GetView;

/// RPC to a storage node: dump every locally-stored object (passivation,
/// §4.1: objects "can be passivated to stable storage using standard
/// mechanisms").
#[derive(Debug, Clone, Copy)]
pub struct SnapshotAll;

/// One marshalled object in a snapshot.
#[derive(Debug, Clone, Wire)]
pub struct ObjectRecord {
    /// The object's reference.
    pub obj: ObjectRef,
    /// Its replication factor.
    pub rf: u8,
    /// Applied-operation count, for conflict resolution.
    pub version: u64,
    /// Marshalled state.
    pub state: Vec<u8>,
}

/// Reply to [`SnapshotAll`].
#[derive(Debug, Clone)]
pub struct SnapshotReply(pub Vec<ObjectRecord>);

/// One entry of a node's write-ahead log: the post-state of an applied
/// mutation, tagged with the version that produced it. A physical redo
/// record rather than a replayable command — installing the state at its
/// version is idempotent and deterministic regardless of the method's
/// blocking/merge semantics, and replicas logging the same SMR apply
/// produce byte-identical records.
#[derive(Debug, Clone, Wire)]
pub struct WalRecord {
    /// The mutated object.
    pub obj: ObjectRef,
    /// Its replication factor.
    pub rf: u8,
    /// The method that produced this state (observability only; replay
    /// installs `state` directly and never re-executes the method).
    pub method: MethodName,
    /// The object's version after the mutation.
    pub version: u64,
    /// The object's Lamport stamp after the mutation.
    pub lamport: u64,
    /// Marshalled post-mutation state.
    pub state: Vec<u8>,
}

/// One group-commit batch of [`WalRecord`]s, written to the durability
/// store as a single versioned key
/// (`{prefix}/wal/{gen:08}-{node:08}-{seq:016}`). Sequence numbers are
/// contiguous per `(gen, node)` stream, which is what lets recovery detect
/// a LIST hiding a segment (eventual consistency) as a gap and re-list.
#[derive(Debug, Clone, Wire)]
pub struct WalSegment {
    /// Cluster incarnation the segment belongs to (bumped per recovery so
    /// a recovered cluster never overwrites its predecessor's log).
    pub gen: u32,
    /// The node that wrote the segment.
    pub node: NodeId,
    /// Contiguous per-`(gen, node)` sequence number, starting at 1.
    pub seq: u64,
    /// Mutations coalesced into the records below (group commit keeps only
    /// the newest state per object per batch).
    pub coalesced: u64,
    /// The batch, sorted by object reference.
    pub records: Vec<WalRecord>,
}

/// A full-cluster checkpoint blob, written to the durability store as a
/// single key (`{prefix}/ckpt/{gen:08}-{seq:016}`) so the object states
/// and their metadata become visible atomically.
#[derive(Debug, Clone, Wire)]
pub struct CheckpointBlob {
    /// Cluster incarnation that took the checkpoint.
    pub gen: u32,
    /// Checkpoint sequence within the incarnation, starting at 1.
    pub seq: u64,
    /// WAL high-water marks observed (via LIST) *before* the snapshot was
    /// taken: `(gen, node, highest segment seq)` per stream. Monotonic
    /// lower bounds — the snapshot state subsumes at least these segments,
    /// and recovery re-LISTs until every floor is satisfied (read repair
    /// against the store's visibility delay).
    pub floors: Vec<(u32, NodeId, u64)>,
    /// Deduplicated object states (newest version per object), sorted by
    /// object reference.
    pub objects: Vec<ObjectRecord>,
}

/// Coordinator's push of a new view to the members.
#[derive(Debug, Clone)]
pub struct ViewUpdate(pub View);

/// Convenience alias re-exported for driver code.
pub type SmrStamp = Stamp;
/// Convenience alias re-exported for driver code.
pub type SmrMid = Mid;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_lookup() {
        let a = Addr::from_raw(1);
        let b = Addr::from_raw(2);
        let v = View { id: 3, members: vec![(NodeId(0), a), (NodeId(2), b)] };
        assert_eq!(v.node_ids(), vec![NodeId(0), NodeId(2)]);
        assert_eq!(v.addr_of(NodeId(2)), Some(b));
        assert_eq!(v.addr_of(NodeId(1)), None);
        assert_eq!(View::empty().id, 0);
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(4).to_string(), "n4");
        assert_eq!(format!("{:?}", NodeId(4)), "n4");
    }
}
