//! The client's read-path policy: *where* a declared read-only call is
//! routed, *which* replies a session may accept, and *how long* a cached
//! result may be served without revalidation.
//!
//! The three [`ConsistencyMode`]s differ in exactly two decisions — reads
//! round-robin over the placement set or go to the primary; admission adds
//! a Lamport frontier to the monotonic-version filter or not — so one
//! [`ReadPolicy`] per [`crate::DsoClient`] holds the state for both. The
//! client asks it for a route, sends the request, and filters the reply
//! through [`ReadPolicy::admit`]; a rejected reply retries at the primary,
//! which is never behind an acknowledged write. Writes always go to the
//! primary.
//!
//! RNG draws, round-robin arithmetic and admission results are pinned by
//! the golden determinism hashes in `tests/kernel_determinism.rs`.

use std::collections::HashMap;
use std::time::Duration;

use crate::client::MonotonicReads;
use crate::config::{ConsistencyMode, DsoConfig};
use crate::object::ObjectRef;
use crate::protocol::NodeId;
use crate::ring::Ring;

/// One session's consistency state: routing, admission, dependency
/// piggybacking and the cache lease. Lives as long as its
/// [`crate::DsoClient`].
#[derive(Debug)]
pub struct ReadPolicy {
    mode: ConsistencyMode,
    lease: Option<Duration>,
    /// Round-robin cursor over the placement set (replica-reading modes).
    rr: u64,
    /// Highest version observed per object, in every mode.
    monotonic: MonotonicReads,
    /// [`ConsistencyMode::Causal`]: highest Lamport stamp observed
    /// anywhere in this session.
    clock: u64,
    /// [`ConsistencyMode::Causal`]: per-object Lamport frontier, the
    /// minimum stamp a read may return.
    deps: HashMap<ObjectRef, u64>,
}

impl ReadPolicy {
    /// The policy of a fresh session under `cfg`.
    pub fn new(cfg: &DsoConfig) -> ReadPolicy {
        ReadPolicy {
            mode: cfg.consistency,
            lease: cfg.cache_lease,
            rr: 0,
            monotonic: MonotonicReads::new(),
            clock: 0,
            deps: HashMap::new(),
        }
    }

    /// Picks the node a declared read-only call contacts: the primary
    /// under [`ConsistencyMode::Linearizable`], otherwise the next node of
    /// the placement set. The cursor advances only when a replica choice
    /// was actually made (`rf > 1`).
    pub fn route_read(&mut self, ring: &Ring, obj: &ObjectRef, rf: u8) -> Option<NodeId> {
        if self.mode == ConsistencyMode::Linearizable || rf <= 1 {
            return ring.primary(obj);
        }
        let placement = ring.placement(obj, rf);
        let node = if placement.is_empty() {
            None
        } else {
            Some(placement[(self.rr % placement.len() as u64) as usize])
        };
        self.rr = self.rr.wrapping_add(1);
        node
    }

    /// The causal dependency to piggyback on a request
    /// ([`crate::protocol::InvokeReq::dep`]): the session clock under
    /// [`ConsistencyMode::Causal`], so a write's server-side stamp lands
    /// strictly above everything the session has seen on any object;
    /// `0` (none) otherwise.
    pub fn dep(&self) -> u64 {
        match self.mode {
            ConsistencyMode::Causal => self.clock,
            ConsistencyMode::Linearizable | ConsistencyMode::ReplicaReads => 0,
        }
    }

    /// Whether a read reply carrying `(version, lamport)` is admissible
    /// for this session. Every mode rejects a version below one the
    /// session already observed (**monotonic reads**; the primary
    /// trivially passes). [`ConsistencyMode::Causal`] also rejects a
    /// Lamport stamp behind the object's frontier, which adds
    /// **read-your-writes** — the two guarantees
    /// [`crate::verify::check_causal`] checks. Accepting records the
    /// observation; rejecting makes the client retry at the primary.
    pub fn admit(&mut self, obj: &ObjectRef, version: u64, lamport: u64) -> bool {
        let causal = self.mode == ConsistencyMode::Causal;
        if causal && lamport < self.deps.get(obj).copied().unwrap_or(0) {
            return false;
        }
        if !self.monotonic.admit(obj, version) {
            return false;
        }
        if causal {
            self.clock = self.clock.max(lamport);
            self.deps.insert(obj.clone(), lamport);
        }
        true
    }

    /// [`admit`](Self::admit) for a version probe, which carries no
    /// Lamport stamp: the monotonic-version filter alone.
    pub fn admit_version(&mut self, obj: &ObjectRef, version: u64) -> bool {
        self.monotonic.admit(obj, version)
    }

    /// Records the outcome of an acknowledged write through this session.
    pub fn observe_write(&mut self, obj: &ObjectRef, version: u64, lamport: u64) {
        self.monotonic.observe(obj, version);
        if self.mode == ConsistencyMode::Causal {
            self.clock = self.clock.max(lamport);
            let e = self.deps.entry(obj.clone()).or_insert(0);
            *e = (*e).max(lamport);
        }
    }

    /// The highest version this session has observed for `obj`.
    pub fn observed_version(&self, obj: &ObjectRef) -> u64 {
        self.monotonic.high_water(obj)
    }

    /// How long a cached read result may be served without revalidation
    /// ([`DsoConfig::cache_lease`]); `None` means every cache hit is
    /// version-validated.
    pub fn lease(&self) -> Option<Duration> {
        self.lease
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring() -> Ring {
        Ring::new(&[NodeId(0), NodeId(1), NodeId(2)])
    }

    fn obj(k: &str) -> ObjectRef {
        ObjectRef::new("T", k)
    }

    fn policy(mode: ConsistencyMode) -> ReadPolicy {
        ReadPolicy::new(&DsoConfig { consistency: mode, ..DsoConfig::default() })
    }

    #[test]
    fn linearizable_always_routes_to_the_primary() {
        let r = ring();
        let mut p = policy(ConsistencyMode::Linearizable);
        let o = obj("a");
        let primary = r.primary(&o);
        for _ in 0..5 {
            assert_eq!(p.route_read(&r, &o, 3), primary);
        }
        assert_eq!(p.rr, 0);
    }

    #[test]
    fn replica_reads_round_robin_only_when_replicated() {
        let r = ring();
        let mut p = policy(ConsistencyMode::ReplicaReads);
        let o = obj("a");
        let placement = r.placement(&o, 3);
        let picks: Vec<_> = (0..6).map(|_| p.route_read(&r, &o, 3).expect("routed")).collect();
        assert_eq!(picks[0..3], placement[..], "cycles the placement set in order");
        assert_eq!(picks[3..6], placement[..]);
        // Unreplicated reads go to the primary and do not advance the
        // round-robin counter.
        assert_eq!(p.rr, 6);
        assert_eq!(p.route_read(&r, &o, 1), r.primary(&o));
        assert_eq!(p.rr, 6);
        // No frontier outside Causal: only versions gate admission.
        p.observe_write(&o, 1, 7);
        assert_eq!(p.dep(), 0);
        assert!(p.admit(&o, 1, 6));
        assert!(!p.admit(&o, 0, 9), "version regression");
    }

    #[test]
    fn causal_frontier_gates_reads_and_feeds_deps() {
        let mut p = policy(ConsistencyMode::Causal);
        let o = obj("a");
        assert_eq!(p.dep(), 0, "fresh session has no dependencies");
        // A write stamped 7 raises the session clock and the object's
        // frontier.
        p.observe_write(&o, 1, 7);
        assert_eq!(p.dep(), 7);
        assert_eq!(p.observed_version(&o), 1);
        // A replica still at stamp 6 is behind the frontier: rejected
        // (read-your-writes); a caught-up one is admitted.
        assert!(!p.admit(&o, 1, 6));
        assert!(p.admit(&o, 1, 7));
        // Reads ratchet the frontier too (monotonic reads).
        assert!(p.admit(&o, 2, 9));
        assert!(!p.admit(&o, 2, 8));
        // The clock is global across objects; per-object frontiers are not.
        assert_eq!(p.dep(), 9);
        assert!(p.admit(&obj("b"), 1, 0), "object b has no frontier yet");
    }
}
