//! The client side of the DSO layer: view discovery, read/write routing,
//! retries with backoff, and the raw `invoke` used by the typed handles in
//! [`crate::api`].
//!
//! A call has one path. A declared read first consults the read caches,
//! the client's own tier and then its host's, through one probe that
//! serves a hit only if the session's [`ReadPolicy`] admits it. Anything
//! else goes to the object's owner through `invoke`'s single retry loop.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use simcore::codec::Wire;
use simcore::{Addr, Ctx, FxHashMap, SpanId};

use crate::config::DsoConfig;
use crate::error::DsoError;
use crate::node_cache::{NodeCache, NodeCacheKey, NodeEntry};
use crate::object::costs::CLIENT_NET;
use crate::object::{Access, ObjectRef};
use crate::protocol::{GetView, InvokeReq, InvokeResp, VersionReq, VersionResp, View};
use crate::read_policy::ReadPolicy;

/// Cheap, cloneable handle describing how to reach a DSO deployment. Each
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
        let own = self.cfg.read_cache.then(|| (&CLIENT_TIER, Arc::new(NodeCache::new())));
        DsoClient {
            policy: ReadPolicy::new(&self.cfg),
            h: self.clone(),
            view: None,
            caches: own.into_iter().collect(),
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
        client.caches.push((&NODE_TIER, node_cache));
        client
    }
}

/// Client-side monotonic-read enforcement: the highest version observed per
/// object. A replica may trail the primary, so a read served by one could
/// travel back in time relative to an earlier read (or write) by the same
/// client; rejecting any version below the high-water mark restores the
/// *monotonic reads* session guarantee under
/// [`crate::ConsistencyMode::ReplicaReads`].
#[derive(Debug, Default)]
pub struct MonotonicReads {
    seen: FxHashMap<ObjectRef, u64>,
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

/// What tells one read-cache tier from the other besides where its
/// entries live: the names it counts and traces under.
struct Tier {
    /// Counter of reads this tier served.
    hit: &'static str,
    /// Counter of reads it could not serve.
    miss: &'static str,
    /// Counter of writes through this client that dropped entries.
    invalidate: Option<&'static str>,
    /// The `dso.call` span's `cache` annotation on a hit.
    annotation: &'static str,
    /// `source` of the `dso.cache` instant marking a leased and a
    /// validated hit, when the tier marks its hits.
    sources: Option<[&'static str; 2]>,
}

/// The client-private tier (`dso.read_cache.*`): dies with this client,
/// i.e. with the function invocation that connected it.
static CLIENT_TIER: Tier = Tier {
    hit: "dso.read_cache.hit",
    miss: "dso.read_cache.miss",
    invalidate: None,
    annotation: "hit",
    sources: None,
};

/// The host-shared tier (`dso.node_cache.*`): survives this client. See
/// [`NodeCache`].
static NODE_TIER: Tier = Tier {
    hit: "dso.node_cache.hit",
    miss: "dso.node_cache.miss",
    invalidate: Some("dso.node_cache.invalidate"),
    annotation: "node-hit",
    sources: Some(["node-leased", "node-validated"]),
};

/// Local cost of serving a read from a cache within its lease (hashing +
/// copy). Non-zero so a closed loop of leased hits still advances
/// simulated time.
const CACHE_HIT_COST: Duration = Duration::from_micros(1);

/// Client-side RPC timeout for non-blocking calls.
pub const CALL_TIMEOUT: Duration = Duration::from_millis(1000);

/// Initial client retry backoff; it doubles per retry, capped at 64×.
pub const RETRY_BACKOFF: Duration = Duration::from_millis(1);

/// Backoff before retrying after the given (0-based) attempt: exponential
/// from [`RETRY_BACKOFF`], capped at 64×.
fn backoff_for(attempt: u32) -> Duration {
    RETRY_BACKOFF * (1u32 << attempt.min(6))
}

/// A per-process DSO client with a cached view.
pub struct DsoClient {
    h: DsoClientHandle,
    view: Option<View>,
    /// The session's consistency state: routing, admission (it owns the
    /// [`MonotonicReads`] table), dependency piggybacking and the lease,
    /// per [`crate::ConsistencyMode`].
    policy: ReadPolicy,
    /// The read caches, in probe order: the client tier (with
    /// [`DsoConfig::read_cache`]), then the host's node tier (when
    /// connected with one).
    caches: Vec<(&'static Tier, Arc<NodeCache>)>,
    /// Reusable argument-encoding buffer; plateaus at the largest request
    /// this client has built, so per-call encoding stops allocating a
    /// fresh `Vec` (see [`DsoClient::encode`]).
    scratch: Vec<u8>,
}

impl fmt::Debug for DsoClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DsoClient")
            .field("view", &self.view.as_ref().map(View::id))
            .field("consistency", &self.h.cfg.consistency)
            .field("cached", &self.caches.iter().map(|(_, c)| c.len()).collect::<Vec<_>>())
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

    /// Forces a view refresh from the coordinator. The view arrives with
    /// its ring, shared with every other holder.
    pub fn refresh_view(&mut self, ctx: &mut Ctx) -> View {
        let lat = CLIENT_NET.sample(ctx.rng());
        let view: View = ctx.call(self.h.coordinator, GetView, lat);
        self.view = Some(view.clone());
        view
    }

    /// Picks the node to contact for one attempt: the primary for writes
    /// (and for all reads under [`crate::ConsistencyMode::Linearizable`]),
    /// any node of the placement set — round-robin — for read-only calls
    /// under the replica-reading modes.
    fn route(&mut self, ctx: &mut Ctx, obj: &ObjectRef, rf: u8, readonly: bool) -> Option<Addr> {
        if self.view.is_none() {
            self.refresh_view(ctx);
        }
        #[expect(
            clippy::expect_used,
            reason = "invariant: refresh_view stored Some just above when it was None"
        )]
        let view = self.view.as_ref().expect("view cached");
        let ring = view.ring();
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
    #[expect(
        clippy::too_many_arguments,
        reason = "one call names its object, method, args, rf and wait kind"
    )]
    pub fn invoke(
        &mut self,
        ctx: &mut Ctx,
        obj: &ObjectRef,
        method: &'static str,
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
        // A read with caches to consult (and to fill from the reply).
        let key =
            (readonly && !self.caches.is_empty()).then(|| (obj.clone(), method, args.clone()));
        if let Some(key) = &key {
            for i in 0..self.caches.len() {
                let (tier, cache) = self.caches[i].clone();
                if let Some(bytes) = self.cached_read(ctx, tier, &cache, key, rf) {
                    ctx.span_annotate(call_span, "cache", tier.annotation);
                    ctx.span_end(call_span);
                    return Ok(bytes);
                }
            }
        }
        // Built once; every retry reuses it with a cheap clone (satellite
        // of the read-path work: no per-attempt String/Vec churn).
        let req = InvokeReq {
            obj: obj.clone(),
            method,
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
            let Some(addr) = self.route(ctx, obj, rf, readonly && !force_primary) else {
                // Empty view: wait for servers to join.
                let backoff = backoff_for(attempt);
                ctx.sleep(backoff);
                self.refresh_view(ctx);
                continue;
            };
            let attempt_span = ctx.span_begin_under(call_span, "dso.attempt", "dso");
            let mut attempt_req = req.clone();
            attempt_req.span = attempt_span;
            let lat = CLIENT_NET.sample(ctx.rng());
            let resp: Option<InvokeResp> = if let Access::Blocking(kind) = access {
                // A blocking call may legitimately park on the server (e.g.
                // barrier await) with no timeout; tell the deadlock detector
                // which object we are waiting on.
                ctx.annotate_wait(
                    obj.placement_hash(),
                    kind,
                    obj.to_string(),
                    format!("DsoClient::invoke {obj}::{}", req.method),
                );
                Some(ctx.call(addr, attempt_req, lat))
            } else {
                ctx.call_timeout(addr, attempt_req, lat, CALL_TIMEOUT)
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
                        for (tier, cache) in &self.caches {
                            if cache.invalidate(obj) > 0 {
                                if let Some(counter) = tier.invalidate {
                                    ctx.metric_incr(counter);
                                }
                            }
                        }
                    } else if let Some(key) = &key {
                        let validated_at = ctx.now();
                        let entry =
                            NodeEntry { bytes: bytes.clone(), version, lamport, validated_at };
                        for (_, cache) in &self.caches {
                            cache.insert(key.clone(), entry.clone());
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
                    let backoff = backoff_for(attempt);
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
                    let backoff = backoff_for(attempt).max(retry_after);
                    ctx.sleep(backoff);
                }
                None => {
                    // Timeout: the node may have crashed; refresh and retry.
                    ctx.span_annotate(attempt_span, "outcome", "timeout");
                    ctx.span_end(attempt_span);
                    let backoff = backoff_for(attempt);
                    ctx.sleep(backoff);
                    self.refresh_view(ctx);
                }
            }
        }
        ctx.span_annotate(call_span, "outcome", "gave-up");
        ctx.span_end(call_span);
        Err(DsoError::GaveUp { attempts: max })
    }

    /// Serves a read from one cache tier if the session may use the
    /// entry: within the policy's lease with no message, otherwise after a
    /// dispatcher-level version probe confirms it is current. Either way
    /// the session's admission must accept it, so a cached result never
    /// moves a session backwards, whichever client or container cached
    /// it. Returns `None` on a miss; a failed revalidation drops the entry.
    fn cached_read(
        &mut self,
        ctx: &mut Ctx,
        tier: &Tier,
        cache: &NodeCache,
        key: &NodeCacheKey,
        rf: u8,
    ) -> Option<Bytes> {
        let obj = &key.0;
        let entry = cache.get(key);
        let lease = self.policy.lease();
        let leased = entry.as_ref().is_some_and(|e| {
            lease.is_some_and(|l| ctx.now().saturating_duration_since(e.validated_at) < l)
        });
        let usable = match &entry {
            None => false,
            // A live lease skips the round trip, not the admission: the
            // entry may be older than what this session has already read.
            Some(e) if leased => self.policy.admit(obj, e.version, e.lamport),
            Some(e) => {
                // Lease expired (or the policy validates every hit): one
                // cheap version probe, no worker hop, no method CPU.
                let probed = self.route(ctx, obj, rf, true).and_then(|target| {
                    let lat = CLIENT_NET.sample(ctx.rng());
                    let probe = VersionReq { obj: obj.clone(), rf };
                    ctx.call_timeout(target, probe, lat, CALL_TIMEOUT).and_then(|VersionResp(v)| v)
                });
                let current =
                    probed == Some(e.version) && self.policy.admit(obj, e.version, e.lamport);
                if current {
                    cache.revalidate(key, ctx.now());
                } else {
                    // Changed version, unknown object, not an owner, or
                    // timeout: drop the entry and take the full path.
                    cache.remove(key);
                }
                current
            }
        };
        let Some(entry) = entry.filter(|_| usable) else {
            ctx.metric_incr(tier.miss);
            return None;
        };
        if let Some([leased_source, validated_source]) = tier.sources {
            let mark = ctx.span_instant("dso.cache", "dso");
            ctx.span_annotate(mark, "obj", obj);
            ctx.span_annotate(
                mark,
                "source",
                if leased { leased_source } else { validated_source },
            );
        }
        ctx.metric_incr(tier.hit);
        if leased {
            ctx.sleep(CACHE_HIT_COST);
        }
        Some(entry.bytes)
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

    #[test]
    fn backoff_grows_and_caps() {
        assert_eq!(backoff_for(0), Duration::from_millis(1));
        assert_eq!(backoff_for(1), Duration::from_millis(2));
        assert_eq!(backoff_for(6), Duration::from_millis(64));
        assert_eq!(backoff_for(20), Duration::from_millis(64), "capped");
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
