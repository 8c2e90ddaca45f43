//! The client side of the DSO layer: view discovery, read/write routing,
//! retries with backoff, the read fast path (replica reads, version-validated
//! caching, monotonic-read enforcement), batched invocation, and the raw
//! `invoke` used by the typed handles in [`crate::api`].

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use simcore::codec::Wire;
use simcore::{Addr, Ctx, SimTime, SpanId, TraceCtx, WaitKind};

use crate::config::DsoConfig;
use crate::error::DsoError;
use crate::intern::{intern, MethodName};
use crate::node_cache::{NodeCache, NodeEntry};
use crate::object::{Access, ObjectRef};
use crate::protocol::{
    BatchItemResp, BatchReq, GetView, InvokeReq, InvokeResp, VersionReq, VersionResp, View,
};
use crate::read_policy::ReadPolicy;
use crate::ring::Ring;

/// Cheap, `Send` handle describing how to reach a DSO deployment. Each
/// simulated process turns it into its own [`DsoClient`] with
/// [`DsoClientHandle::connect`].
#[derive(Clone)]
pub struct DsoClientHandle {
    coordinator: Addr,
    cfg: DsoConfig,
}

impl fmt::Debug for DsoClientHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DsoClientHandle").field("coordinator", &self.coordinator).finish()
    }
}

impl DsoClientHandle {
    /// Creates a handle from the coordinator address and configuration.
    pub fn new(coordinator: Addr, cfg: DsoConfig) -> DsoClientHandle {
        DsoClientHandle { coordinator, cfg }
    }

    /// Instantiates a per-process client.
    pub fn connect(&self) -> DsoClient {
        DsoClient {
            policy: ReadPolicy::new(&self.cfg),
            h: self.clone(),
            view: None,
            cache: HashMap::new(),
            node_cache: None,
            scratch: Vec::new(),
        }
    }

    /// Instantiates a per-process client that additionally consults (and
    /// fills) a host-shared [`NodeCache`] on its read path. Used by the
    /// FaaS deployment layer when [`DsoConfig::node_cache`] is on: every
    /// container on one host connects against the same cache, so warmth
    /// survives the containers.
    pub fn connect_with_node_cache(&self, node_cache: Arc<NodeCache>) -> DsoClient {
        let mut client = self.connect();
        client.node_cache = Some(node_cache);
        client
    }
}

/// One operation of a batched invocation (see [`DsoClient::invoke_batch`]).
///
/// Cheap to clone (interned method, shared buffers), so a hot loop can
/// build its batch once and clone it per round.
#[derive(Clone, Debug)]
pub struct BatchOp {
    /// Target object.
    pub obj: ObjectRef,
    /// Method name.
    pub method: MethodName,
    /// Codec-encoded arguments.
    pub args: Bytes,
    /// Replication factor.
    pub rf: u8,
    /// Creation arguments (idempotent materialization).
    pub create: Option<Bytes>,
    /// Declared read-only (see [`InvokeReq::readonly`]).
    pub readonly: bool,
}

/// Client-side monotonic-read enforcement: the highest version observed per
/// object. A replica may trail the primary, so a read served by one could
/// travel back in time relative to an earlier read (or write) by the same
/// client; rejecting any version below the high-water mark restores the
/// *monotonic reads* session guarantee under
/// [`crate::ConsistencyMode::ReplicaReads`].
#[derive(Debug, Default)]
pub struct MonotonicReads {
    seen: HashMap<ObjectRef, u64>,
}

impl MonotonicReads {
    /// An empty tracker.
    pub fn new() -> MonotonicReads {
        MonotonicReads::default()
    }

    /// Records `version` as observed for `obj` (writes and accepted reads).
    pub fn observe(&mut self, obj: &ObjectRef, version: u64) {
        // Updated in place: the key is cloned only the first time.
        match self.seen.get_mut(obj) {
            Some(seen) => *seen = (*seen).max(version),
            None => {
                self.seen.insert(obj.clone(), version);
            }
        }
    }

    /// Whether a read of `obj` at `version` is admissible (not older than
    /// anything this client already observed). Accepting also records it.
    pub fn admit(&mut self, obj: &ObjectRef, version: u64) -> bool {
        if version < self.high_water(obj) {
            return false;
        }
        self.observe(obj, version);
        true
    }

    /// The highest version observed for `obj` (0 if never seen).
    pub fn high_water(&self, obj: &ObjectRef) -> u64 {
        self.seen.get(obj).copied().unwrap_or(0)
    }
}

struct CacheEntry {
    bytes: Bytes,
    version: u64,
    validated_at: SimTime,
}

/// Local cost of serving a read from the client cache within its lease
/// (hashing + copy). Non-zero so a closed loop of leased hits still
/// advances simulated time.
const CACHE_HIT_COST: Duration = Duration::from_micros(1);

/// A per-process DSO client with a cached view.
pub struct DsoClient {
    h: DsoClientHandle,
    view: Option<(View, Ring)>,
    /// The session's consistency state: routing, admission (it owns the
    /// [`MonotonicReads`] table), dependency piggybacking and the lease,
    /// per [`crate::ConsistencyMode`].
    policy: ReadPolicy,
    /// Client-private read cache (`dso.read_cache.*`): dies with this
    /// client — i.e. with the function invocation that connected it.
    cache: HashMap<(ObjectRef, MethodName, Bytes), CacheEntry>,
    /// Host-shared read cache (`dso.node_cache.*`), consulted after the
    /// client cache; survives this client. See [`NodeCache`].
    node_cache: Option<Arc<NodeCache>>,
    /// Reusable argument-encoding buffer; plateaus at the largest request
    /// this client has built, so per-call encoding stops allocating a
    /// fresh `Vec` (see [`DsoClient::encode`]).
    scratch: Vec<u8>,
}

impl fmt::Debug for DsoClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DsoClient")
            .field("view", &self.view.as_ref().map(|(v, _)| v.id))
            .field("consistency", &self.h.cfg.consistency)
            .field("cached", &self.cache.len())
            .finish()
    }
}

impl DsoClient {
    /// The client configuration.
    pub fn config(&self) -> &DsoConfig {
        &self.h.cfg
    }

    /// The highest version this client has observed for `obj`.
    pub fn observed_version(&self, obj: &ObjectRef) -> u64 {
        self.policy.observed_version(obj)
    }

    /// Forces a view refresh from the coordinator.
    pub fn refresh_view(&mut self, ctx: &mut Ctx) -> View {
        let lat = self.h.cfg.client_net.sample(ctx.rng());
        ctx.annotate_wait(
            self.h.coordinator.into_raw(),
            WaitKind::Call,
            "coordinator",
            "DsoClient::refresh_view",
        );
        let view: View = ctx.call(self.h.coordinator, GetView, lat);
        let ring = Ring::new(&view.node_ids());
        self.view = Some((view.clone(), ring));
        view
    }

    fn view(&mut self, ctx: &mut Ctx) -> &(View, Ring) {
        if self.view.is_none() {
            self.refresh_view(ctx);
        }
        // invariant: refresh_view stored Some just above when it was None.
        self.view.as_ref().expect("view cached")
    }

    /// Picks the node to contact for one attempt: the primary for writes
    /// (and for all reads under [`crate::ConsistencyMode::Linearizable`]),
    /// any node of the placement set — round-robin — for read-only calls
    /// under the replica-reading modes.
    fn route(&mut self, ctx: &mut Ctx, obj: &ObjectRef, rf: u8, readonly: bool) -> Option<Addr> {
        if self.view.is_none() {
            self.refresh_view(ctx);
        }
        // invariant: refresh_view stored Some just above when it was None.
        let (view, ring) = self.view.as_ref().expect("view cached");
        let node = if readonly { self.policy.route_read(ring, obj, rf) } else { ring.primary(obj) };
        node.and_then(|n| view.addr_of(n))
    }

    /// Invokes `method(args)` on the object, routing per the consistency
    /// mode and retrying transparently on ownership changes, transfers in
    /// progress, stale replicas, and node failures.
    ///
    /// `access` is the method's declared [`Access`]: a read takes the read
    /// fast path (no SMR, optional replica routing and caching); a blocking
    /// method may legitimately park on the server (barrier `await`, future
    /// `get`), so it is issued without a client-side timeout and its wait
    /// is annotated with its kind for the deadlock report.
    ///
    /// # Errors
    ///
    /// [`DsoError::Object`] for application-level failures, or
    /// [`DsoError::GaveUp`] when retries are exhausted.
    #[allow(clippy::too_many_arguments)]
    pub fn invoke(
        &mut self,
        ctx: &mut Ctx,
        obj: &ObjectRef,
        method: &str,
        args: Bytes,
        rf: u8,
        create: Option<Bytes>,
        access: Access,
    ) -> Result<Bytes, DsoError> {
        let readonly = access == Access::Read;
        // One logical call = one "dso.call" span; each attempt below is a
        // sibling "dso.attempt" child, so retries stay visually grouped.
        let call_span = ctx.span_begin("dso.call", "dso");
        ctx.span_annotate(call_span, "obj", obj);
        ctx.span_annotate(call_span, "method", method);
        ctx.metric_incr("dso.invokes");
        // Client-cache fast path: a validated (or leased) earlier result.
        if readonly && self.h.cfg.read_cache {
            if let Some(bytes) = self.cached_read(ctx, obj, method, &args, rf) {
                ctx.span_annotate(call_span, "cache", "hit");
                ctx.metric_incr("dso.read_cache.hit");
                ctx.span_end(call_span);
                return Ok(bytes);
            }
            ctx.metric_incr("dso.read_cache.miss");
        }
        // Host-shared cache, second: warmth put there by other containers
        // on this host (or by this client's earlier incarnations).
        if readonly && self.node_cache.is_some() {
            if let Some(bytes) = self.node_cached_read(ctx, obj, method, &args, rf) {
                ctx.span_annotate(call_span, "cache", "node-hit");
                ctx.span_end(call_span);
                return Ok(bytes);
            }
        }
        // Built once; every retry reuses it with a cheap clone (satellite
        // of the read-path work: no per-attempt String/Vec churn).
        let req = InvokeReq {
            obj: obj.clone(),
            method: intern(method),
            args,
            rf,
            create,
            readonly,
            dep: self.policy.dep(),
            span: SpanId::NONE,
        };
        let max = self.h.cfg.max_retries;
        let mut force_primary = false;
        for attempt in 0..max {
            if attempt > 0 {
                ctx.metric_incr("dso.retries");
            }
            let target = if force_primary {
                let (view, ring) = self.view(ctx);
                ring.primary(obj).and_then(|p| view.addr_of(p))
            } else {
                self.route(ctx, obj, rf, readonly)
            };
            let Some(addr) = target else {
                // Empty view: wait for servers to join.
                let backoff = self.h.cfg.backoff_for(attempt);
                ctx.sleep(backoff);
                self.refresh_view(ctx);
                continue;
            };
            let attempt_span = ctx.span_begin_under(call_span, "dso.attempt", "dso");
            let mut attempt_req = req.clone();
            attempt_req.span = attempt_span;
            let lat = self.h.cfg.client_net.sample(ctx.rng());
            let resp: Option<InvokeResp> = if let Access::Blocking(kind) = access {
                // A blocking call may legitimately park on the server (e.g.
                // barrier await) with no timeout; tell the deadlock detector
                // which object we are waiting on.
                ctx.annotate_wait(
                    obj.placement_hash(),
                    kind,
                    obj.to_string(),
                    format!("DsoClient::invoke {obj}::{method}"),
                );
                Some(ctx.call(addr, attempt_req, lat))
            } else {
                ctx.call_timeout(addr, attempt_req, lat, self.h.cfg.call_timeout)
            };
            match resp {
                Some(InvokeResp::Value { bytes, version, lamport }) => {
                    if readonly && !self.policy.admit(obj, version, lamport) {
                        // Stale replica: behind something this session
                        // already observed (a version regression, or a
                        // Lamport stamp below the causal frontier). Go
                        // straight to the primary, which is never behind
                        // an acknowledged write.
                        ctx.span_annotate(attempt_span, "outcome", "stale-replica");
                        ctx.span_end(attempt_span);
                        ctx.metric_incr("dso.stale_reads");
                        force_primary = true;
                        continue;
                    }
                    if !readonly {
                        self.policy.observe_write(obj, version, lamport);
                        self.invalidate(obj);
                        if let Some(nc) = &self.node_cache {
                            if nc.invalidate(obj) > 0 {
                                ctx.metric_incr("dso.node_cache.invalidate");
                            }
                        }
                    } else {
                        if self.h.cfg.read_cache {
                            self.cache.insert(
                                (obj.clone(), req.method.clone(), req.args.clone()),
                                CacheEntry {
                                    bytes: bytes.clone(),
                                    version,
                                    validated_at: ctx.now(),
                                },
                            );
                        }
                        if let Some(nc) = &self.node_cache {
                            nc.insert(
                                (obj.clone(), req.method.clone(), req.args.clone()),
                                NodeEntry {
                                    bytes: bytes.clone(),
                                    version,
                                    lamport,
                                    validated_at: ctx.now(),
                                },
                            );
                        }
                    }
                    ctx.span_end(attempt_span);
                    ctx.span_end(call_span);
                    return Ok(bytes);
                }
                Some(InvokeResp::Error(e)) => {
                    ctx.span_annotate(attempt_span, "outcome", "error");
                    ctx.span_end(attempt_span);
                    ctx.span_end(call_span);
                    return Err(DsoError::Object(e));
                }
                Some(InvokeResp::NotOwner { .. }) => {
                    ctx.span_annotate(attempt_span, "outcome", "not-owner");
                    ctx.span_end(attempt_span);
                    self.refresh_view(ctx);
                }
                Some(InvokeResp::Retry) => {
                    ctx.span_annotate(attempt_span, "outcome", "retry");
                    ctx.span_end(attempt_span);
                    let backoff = self.h.cfg.backoff_for(attempt);
                    ctx.sleep(backoff);
                    self.refresh_view(ctx);
                }
                Some(InvokeResp::Overloaded { retry_after }) => {
                    // The node shed the request: it is healthy but over
                    // capacity, so back off (at least its hint) and retry
                    // the same route — no view refresh, ownership is not
                    // in question.
                    ctx.span_annotate(attempt_span, "outcome", "overloaded");
                    ctx.span_end(attempt_span);
                    ctx.metric_incr("dso.overloaded");
                    let backoff = self.h.cfg.backoff_for(attempt).max(retry_after);
                    ctx.sleep(backoff);
                }
                None => {
                    // Timeout: the node may have crashed; refresh and retry.
                    ctx.span_annotate(attempt_span, "outcome", "timeout");
                    ctx.span_end(attempt_span);
                    let backoff = self.h.cfg.backoff_for(attempt);
                    ctx.sleep(backoff);
                    self.refresh_view(ctx);
                }
            }
        }
        ctx.span_annotate(call_span, "outcome", "gave-up");
        ctx.span_end(call_span);
        Err(DsoError::GaveUp { attempts: max })
    }

    /// Serves a read from the client cache if possible: within the lease
    /// without any message, otherwise after a dispatcher-level version
    /// probe confirming the entry is current. Returns `None` on miss (the
    /// entry, if any, is dropped).
    fn cached_read(
        &mut self,
        ctx: &mut Ctx,
        obj: &ObjectRef,
        method: &str,
        args: &Bytes,
        rf: u8,
    ) -> Option<Bytes> {
        let key = (obj.clone(), intern(method), args.clone());
        let (version, lease_ok) = {
            let entry = self.cache.get(&key)?;
            let lease_ok = self
                .policy
                .lease()
                .is_some_and(|l| ctx.now().saturating_duration_since(entry.validated_at) < l);
            (entry.version, lease_ok)
        };
        if lease_ok {
            ctx.sleep(CACHE_HIT_COST);
            return self.cache.get(&key).map(|e| e.bytes.clone());
        }
        // Validate: one round-trip, no worker hop, no method CPU.
        let target = self.route(ctx, obj, rf, true)?;
        let lat = self.h.cfg.client_net.sample(ctx.rng());
        let resp: Option<VersionResp> = ctx.call_timeout(
            target,
            VersionReq { obj: obj.clone(), rf },
            lat,
            self.h.cfg.call_timeout,
        );
        match resp {
            Some(VersionResp(Some(v))) if v == version && self.policy.admit_version(obj, v) => {
                match self.cache.get_mut(&key) {
                    Some(entry) => {
                        entry.validated_at = ctx.now();
                        Some(entry.bytes.clone())
                    }
                    // Entry evicted while validating: treat as a miss.
                    None => None,
                }
            }
            _ => {
                // Changed version, unknown object, not an owner, or
                // timeout: drop the entry and take the full read path.
                self.cache.remove(&key);
                None
            }
        }
    }

    /// Serves a read from the host-shared [`NodeCache`] if possible:
    /// within the policy's lease without any message (gated by the
    /// policy's admission check, so a session never accepts a shared
    /// entry behind its own frontier), otherwise after a
    /// dispatcher-level version probe confirming the entry is current.
    /// Returns `None` on miss; a failed revalidation drops the entry.
    fn node_cached_read(
        &mut self,
        ctx: &mut Ctx,
        obj: &ObjectRef,
        method: &str,
        args: &Bytes,
        rf: u8,
    ) -> Option<Bytes> {
        let nc = self.node_cache.as_ref()?.clone();
        let key = (obj.clone(), intern(method), args.clone());
        let Some(entry) = nc.get(&key) else {
            ctx.metric_incr("dso.node_cache.miss");
            return None;
        };
        let lease_ok = self
            .policy
            .lease()
            .is_some_and(|l| ctx.now().saturating_duration_since(entry.validated_at) < l);
        if lease_ok {
            if !self.policy.admit(obj, entry.version, entry.lamport) {
                // Another container's older result: stale for *this*
                // session even though the lease is live.
                ctx.metric_incr("dso.node_cache.miss");
                return None;
            }
            let mark = ctx.span_instant("dso.cache", "dso");
            ctx.span_annotate(mark, "obj", obj);
            ctx.span_annotate(mark, "source", "node-leased");
            ctx.metric_incr("dso.node_cache.hit");
            ctx.sleep(CACHE_HIT_COST);
            return Some(entry.bytes);
        }
        // Lease expired (or the policy validates every hit): one cheap
        // version probe, no worker hop, no method CPU.
        let target = self.route(ctx, obj, rf, true)?;
        let lat = self.h.cfg.client_net.sample(ctx.rng());
        let resp: Option<VersionResp> = ctx.call_timeout(
            target,
            VersionReq { obj: obj.clone(), rf },
            lat,
            self.h.cfg.call_timeout,
        );
        match resp {
            Some(VersionResp(Some(v)))
                if v == entry.version && self.policy.admit(obj, entry.version, entry.lamport) =>
            {
                nc.revalidate(&key, ctx.now());
                let mark = ctx.span_instant("dso.cache", "dso");
                ctx.span_annotate(mark, "obj", obj);
                ctx.span_annotate(mark, "source", "node-validated");
                ctx.metric_incr("dso.node_cache.hit");
                Some(entry.bytes)
            }
            _ => {
                // Changed version, unknown object, not an owner, or
                // timeout: drop the shared entry and take the full path.
                nc.remove(&key);
                ctx.metric_incr("dso.node_cache.miss");
                None
            }
        }
    }

    /// Drops every cached result for `obj` (called on mutations through
    /// this client).
    fn invalidate(&mut self, obj: &ObjectRef) {
        self.cache.retain(|(o, _, _), _| o != obj);
    }

    /// Invokes a batch of independent, non-blocking operations, grouping
    /// them by destination node so each node receives *one* message for
    /// all its operations instead of one round-trip per operation. Results
    /// come back per-operation and are returned in input order.
    ///
    /// Items that cannot be answered from the batch (ownership moved, node
    /// crashed, object in transfer, stale replica) transparently fall back
    /// to the single-call path with its full retry loop, so the error
    /// behaviour matches N separate [`DsoClient::invoke`] calls.
    ///
    /// Blocking (parking) methods are not allowed in batches; the server
    /// rejects them.
    pub fn invoke_batch(&mut self, ctx: &mut Ctx, ops: &[BatchOp]) -> Vec<Result<Bytes, DsoError>> {
        // One span for the whole fan-out; per-item server executions (and
        // any fallback single calls) nest under it.
        let batch_span = ctx.span_begin("dso.batch", "dso");
        ctx.span_annotate(batch_span, "ops", ops.len());
        ctx.metric_incr("dso.batches");
        let prev_tc = ctx.set_trace_ctx(TraceCtx::under(batch_span));
        let mut results: Vec<Option<Result<Bytes, DsoError>>> = Vec::new();
        results.resize_with(ops.len(), || None);

        // Cache fast path per read-only item. Hits are counted here and
        // misses where the item is answered (the batch reply below, or the
        // fallback `invoke`), so each item counts exactly once.
        if self.h.cfg.read_cache {
            for (i, op) in ops.iter().enumerate() {
                if op.readonly {
                    if let Some(bytes) = self.cached_read(ctx, &op.obj, &op.method, &op.args, op.rf)
                    {
                        ctx.metric_incr("dso.read_cache.hit");
                        results[i] = Some(Ok(bytes));
                    }
                }
            }
        }

        // Group the remainder by destination address.
        let mut groups: HashMap<Addr, Vec<(u32, InvokeReq)>> = HashMap::new();
        for (i, op) in ops.iter().enumerate() {
            if results[i].is_some() {
                continue;
            }
            let Some(addr) = self.route(ctx, &op.obj, op.rf, op.readonly) else {
                continue; // empty view: the fallback path will wait it out
            };
            groups.entry(addr).or_default().push((
                i as u32,
                InvokeReq {
                    obj: op.obj.clone(),
                    method: op.method.clone(),
                    args: op.args.clone(),
                    rf: op.rf,
                    create: op.create.clone(),
                    readonly: op.readonly,
                    dep: self.policy.dep(),
                    span: batch_span,
                },
            ));
        }

        for (addr, items) in groups {
            let n = items.len();
            let lat = self.h.cfg.client_net.sample(ctx.rng());
            let replies: Vec<BatchItemResp> =
                ctx.call_collect(addr, BatchReq { items }, lat, n, self.h.cfg.call_timeout);
            for BatchItemResp { tag, resp } in replies {
                let i = tag as usize;
                let op = &ops[i];
                let answer = match resp {
                    InvokeResp::Value { bytes, version, lamport } => {
                        if op.readonly && !self.policy.admit(&op.obj, version, lamport) {
                            continue; // stale replica: retry via fallback
                        }
                        if !op.readonly {
                            self.policy.observe_write(&op.obj, version, lamport);
                            self.invalidate(&op.obj);
                            if let Some(nc) = &self.node_cache {
                                if nc.invalidate(&op.obj) > 0 {
                                    ctx.metric_incr("dso.node_cache.invalidate");
                                }
                            }
                        } else if self.h.cfg.read_cache {
                            self.cache.insert(
                                (op.obj.clone(), op.method.clone(), op.args.clone()),
                                CacheEntry {
                                    bytes: bytes.clone(),
                                    version,
                                    validated_at: ctx.now(),
                                },
                            );
                        }
                        Ok(bytes)
                    }
                    InvokeResp::Error(e) => Err(DsoError::Object(e)),
                    // Left unanswered: the fallback below retries with
                    // backoff (and, where warranted, a view refresh).
                    InvokeResp::NotOwner { .. }
                    | InvokeResp::Retry
                    | InvokeResp::Overloaded { .. } => continue,
                };
                if op.readonly && self.h.cfg.read_cache {
                    ctx.metric_incr("dso.read_cache.miss");
                }
                results[i] = Some(answer);
            }
        }

        // Fallback: anything still unanswered goes through the standard
        // retrying single-call path (its "dso.call" spans nest under the
        // batch span via the trace context set above).
        let out = ops
            .iter()
            .zip(results)
            .map(|(op, r)| match r {
                Some(r) => r,
                None => {
                    let access = if op.readonly { Access::Read } else { Access::Write };
                    let (args, create) = (op.args.clone(), op.create.clone());
                    self.invoke(ctx, &op.obj, &op.method, args, op.rf, create, access)
                }
            })
            .collect();
        ctx.set_trace_ctx(prev_tc);
        ctx.span_end(batch_span);
        out
    }

    /// Encodes a method's arguments, in order, into a request payload
    /// through the client's reusable scratch buffer: the encoder writes
    /// into capacity that plateaus at the largest request, so a typed call
    /// performs a single allocation (the shared payload) instead of
    /// encode-buffer + payload.
    pub fn encode(&mut self, args: &[&dyn Wire]) -> Bytes {
        self.scratch.clear();
        for arg in args {
            arg.put(&mut self.scratch);
        }
        Bytes::copy_from_slice(&self.scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(k: &str) -> ObjectRef {
        ObjectRef::new("T", k)
    }

    #[test]
    fn monotonic_tracker_rejects_regressions() {
        let mut m = MonotonicReads::new();
        assert!(m.admit(&obj("a"), 0));
        assert!(m.admit(&obj("a"), 3));
        assert!(!m.admit(&obj("a"), 2), "older than high water");
        assert!(m.admit(&obj("a"), 3), "equal is fine");
        assert!(m.admit(&obj("b"), 1), "independent per object");
        m.observe(&obj("a"), 10);
        assert_eq!(m.high_water(&obj("a")), 10);
        assert!(!m.admit(&obj("a"), 9));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    // Model of a replicated object: the primary applies every write
    // immediately; each replica has applied some *prefix* of the write
    // sequence (replicas trail, they never reorder — Skeen delivery is
    // totally ordered). A "read" probes a schedule-chosen replica and is
    // filtered through `MonotonicReads`, retrying at the primary when
    // rejected — exactly the client's read path.
    //
    // Property: the sequence of versions returned to the client never
    // decreases, whatever the interleaving of writes, replica lags, and
    // replica choices.
    proptest! {
        #[test]
        fn replica_reads_are_monotonic(
            // Each event: (is_write, replica_index, lag) — lag is how far
            // the probed replica trails the primary at that moment.
            events in proptest::collection::vec((any::<bool>(), 0usize..3, 0u64..5), 1..120),
        ) {
            let mut primary_version = 0u64;
            let mut tracker = MonotonicReads::new();
            let target = ObjectRef::new("AtomicLong", "x");
            let mut returned = Vec::new();
            for (is_write, _replica, lag) in events {
                if is_write {
                    primary_version += 1;
                    tracker.observe(&target, primary_version);
                } else {
                    let replica_version = primary_version.saturating_sub(lag);
                    let v = if tracker.admit(&target, replica_version) {
                        replica_version
                    } else {
                        // Stale: the client retries at the primary.
                        tracker.observe(&target, primary_version);
                        primary_version
                    };
                    returned.push(v);
                }
            }
            prop_assert!(
                returned.windows(2).all(|w| w[0] <= w[1]),
                "returned versions must be non-decreasing: {returned:?}"
            );
        }
    }
}
