//! Tunable parameters of the DSO layer.

use std::time::Duration;

use simcore::codec::Wire;
use simcore::LatencyModel;

/// How read-only method calls are routed (see DESIGN.md §4).
///
/// Writes always go through the primary (and, for replicated objects, the
/// SMR total-order multicast); this mode only governs *declared read-only*
/// methods on replicated objects.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default, Wire)]
pub enum ConsistencyMode {
    /// Reads are served by the object's primary only. Together with
    /// per-object serialization on the primary this preserves
    /// linearizability, and is the default. A [`DsoConfig::cache_lease`]
    /// weakens the guarantee to **bounded staleness**: a leased read
    /// trails the write frontier by at most the lease (see there).
    #[default]
    Linearizable,
    /// Reads may be served by *any* replica in the object's placement set.
    /// Replicas can trail the primary, so reads may be stale; the client
    /// enforces **monotonic reads** per object via returned version
    /// numbers (a read never observes an older version than one the same
    /// client already saw).
    ReplicaReads,
    /// Session-causal reads: every reply carries the object's Lamport
    /// stamp, the client tracks the stamps it has observed (its causal
    /// frontier) and piggybacks them as dependencies on later requests.
    /// A replica reply behind the client's frontier for that object is
    /// rejected and retried at the primary, restoring **monotonic reads**
    /// and **read-your-writes** per session on top of replica routing.
    Causal,
}

/// How applied mutations are acknowledged once they are persisted to the
/// durability store (see `dso::durability` and DESIGN.md "Durability &
/// recovery"). No durability at all is [`DsoConfig::durability`] `None`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DurabilityLevel {
    /// Mutations are acknowledged immediately and the per-node WAL daemon
    /// group-commits them to the store in the background. Write latency is
    /// unchanged; a crash loses at most one group-commit window of
    /// acknowledged writes (the loss window).
    Async,
    /// A mutation is acknowledged only after the group-commit batch
    /// containing it has been PUT to the store. Zero loss window for
    /// acknowledged writes, at the cost of up to one group-commit interval
    /// plus one store PUT (~35 ms) of added write latency.
    Sync,
}

/// Configuration of the durability subsystem: where WAL segments and
/// checkpoints go, and how writes are acknowledged. Segment size,
/// checkpoint retention and recovery's settle loop are constants
/// ([`crate::durability`]).
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// The cloud object store (plus key prefix and generation) that holds
    /// WAL segments and checkpoints.
    pub store: crate::durability::DurabilityStore,
    /// Write-acknowledgement contract.
    pub level: DurabilityLevel,
    /// Group-commit interval: how often each node's WAL daemon flushes its
    /// buffered records as one segment PUT (amortizing the ~35 ms PUT).
    pub group_commit: Duration,
}

impl DurabilityConfig {
    /// A durability configuration over `store` with the defaults:
    /// [`DurabilityLevel::Async`] and a 5 ms group commit.
    pub fn new(store: crate::durability::DurabilityStore) -> DurabilityConfig {
        DurabilityConfig {
            store,
            level: DurabilityLevel::Async,
            group_commit: Duration::from_millis(5),
        }
    }
}

/// Admission control at each storage node's dispatcher (load shedding).
///
/// Two independent gates, both checked *before* any ownership or routing
/// work: a **token bucket** bounding the sustained request rate, and a
/// **queue-depth cap** bounding the number of invocations a node holds
/// in flight (queued + executing). A request failing either gate is
/// answered with a retryable `Overloaded(retry_after)` instead of being
/// queued — shedding early keeps latency bounded where an unbounded queue
/// would let it collapse. Cheap dispatcher-level probes (version checks,
/// snapshots, membership traffic) are never shed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdmissionConfig {
    /// Sustained admission rate, tokens (requests) per second.
    pub rate: f64,
    /// Bucket capacity: how many requests may burst above the rate.
    pub burst: f64,
    /// Maximum in-flight invocations (queued + executing) per node.
    pub max_queue_depth: u32,
    /// Backoff hint returned to shed clients.
    pub retry_after: Duration,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            rate: 20_000.0,
            burst: 2_000.0,
            max_queue_depth: 512,
            retry_after: Duration::from_millis(10),
        }
    }
}

/// Configuration of a DSO deployment.
///
/// The defaults are calibrated against the paper's evaluation setup
/// (r5.2xlarge storage nodes inside a VPC): ~90 µs one-way in-VPC latency
/// and 8 worker threads per node put a simple remote method call at
/// ≈ 230 µs, matching Table 2. The client-facing network, the client's
/// timeout and backoff, and the state-transfer bandwidth are constants
/// ([`crate::costs`], [`crate::CALL_TIMEOUT`], [`crate::RETRY_BACKOFF`]).
#[derive(Clone, Debug)]
pub struct DsoConfig {
    /// Worker threads per storage node (vCPUs of r5.2xlarge).
    pub workers_per_node: u32,
    /// One-way server ↔ server network latency.
    pub peer_net: LatencyModel,
    /// How often servers heartbeat the membership coordinator.
    pub heartbeat_interval: Duration,
    /// Silence after which the coordinator declares a node dead.
    pub failure_timeout: Duration,
    /// Maximum client attempts before giving up.
    pub max_retries: u32,
    /// Routing of declared read-only methods (default: primary-only,
    /// linearizable).
    pub consistency: ConsistencyMode,
    /// Opt-in client-side cache for read-only results, validated against
    /// the object's version (or served within [`DsoConfig::cache_lease`]).
    /// Mutations through the same client invalidate the object's entries.
    pub read_cache: bool,
    /// With `read_cache`, how long a validated entry may be re-served
    /// without *any* server round-trip. `None` (the default) validates
    /// every hit with a cheap dispatcher-level version probe; reads are
    /// then never staler than the probed replica. A lease on
    /// primary-routed reads ([`ConsistencyMode::Linearizable`]) *is* the
    /// bounded-staleness contract: an entry is installed or revalidated
    /// from the primary, which is globally current at that instant, so a
    /// lease-served read trails the write frontier by at most the lease
    /// (`dso::verify::check_staleness_bound` checks exactly this). A
    /// lease bounds staleness but never breaks monotonic reads: a leased
    /// hit in either cache tier still passes the session's admission.
    pub cache_lease: Option<Duration>,
    /// Opt-in co-located cache tier: one [`NodeCache`] per FaaS host,
    /// shared by all containers (and their DSO clients) on that host.
    /// Kept coherent by write-through invalidation from co-located
    /// clients, version probes, and lease expiry. Counted separately from
    /// the per-client cache (`dso.node_cache.*` vs `dso.read_cache.*`).
    ///
    /// [`NodeCache`]: crate::node_cache::NodeCache
    pub node_cache: bool,
    /// Per-node admission control (token bucket + queue-depth shedding).
    /// `None` (the default) admits everything, the pre-existing behavior.
    pub admission: Option<AdmissionConfig>,
    /// Durability subsystem: per-node WAL + periodic checkpoints persisted
    /// to a cloud object store, with full-cluster crash-restart recovery
    /// ([`crate::DsoCluster::recover_from`]). `None` (the default) is the
    /// pre-existing RAM-only behavior.
    pub durability: Option<DurabilityConfig>,
}

impl Default for DsoConfig {
    fn default() -> Self {
        DsoConfig {
            workers_per_node: 8,
            peer_net: LatencyModel::uniform(Duration::from_micros(90), 0.10),
            heartbeat_interval: Duration::from_millis(500),
            failure_timeout: Duration::from_millis(1600),
            max_retries: 12,
            consistency: ConsistencyMode::default(),
            read_cache: false,
            cache_lease: None,
            node_cache: false,
            admission: None,
            durability: None,
        }
    }
}

impl DsoConfig {
    /// Starts a validating builder from the defaults.
    ///
    /// ```
    /// use dso::DsoConfig;
    /// use std::time::Duration;
    ///
    /// let cfg = DsoConfig::builder()
    ///     .read_cache(true)
    ///     .cache_lease(Duration::from_millis(2))
    ///     .build()
    ///     .expect("valid");
    /// assert_eq!(cfg.cache_lease, Some(Duration::from_millis(2)));
    /// ```
    pub fn builder() -> DsoConfigBuilder {
        DsoConfigBuilder { cfg: DsoConfig::default() }
    }
}

/// An invalid [`DsoConfig`] combination, reported by
/// [`DsoConfigBuilder::build`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DsoConfigError(String);

impl std::fmt::Display for DsoConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid DsoConfig: {}", self.0)
    }
}

impl std::error::Error for DsoConfigError {}

/// Builder for [`DsoConfig`] that validates the combination on
/// [`build`](DsoConfigBuilder::build). It exists for the cross-field
/// rules `build` enforces; every [`DsoConfig`] field is `pub`, and one
/// without a setter is set with struct-update syntax. Setters are named
/// after the fields they set and chain by value (the convention shared
/// with `ThreadFactory::with_*`).
#[derive(Clone, Debug)]
pub struct DsoConfigBuilder {
    cfg: DsoConfig,
}

impl DsoConfigBuilder {
    /// Sets the maximum client attempts before giving up.
    pub fn max_retries(mut self, n: u32) -> Self {
        self.cfg.max_retries = n;
        self
    }

    /// Sets the read-routing consistency mode.
    pub fn consistency(mut self, mode: ConsistencyMode) -> Self {
        self.cfg.consistency = mode;
        self
    }

    /// Enables or disables the client-side read cache.
    pub fn read_cache(mut self, on: bool) -> Self {
        self.cfg.read_cache = on;
        self
    }

    /// Sets the cache lease (requires the read cache to be enabled).
    /// Accepts a bare `Duration` or an `Option`; an explicit
    /// `Some(Duration::ZERO)` is rejected at [`build`](Self::build) —
    /// omit the lease (or pass `None`) to validate every hit instead.
    pub fn cache_lease(mut self, lease: impl Into<Option<Duration>>) -> Self {
        self.cfg.cache_lease = lease.into();
        self
    }

    /// Enables or disables the co-located per-host node cache tier.
    pub fn node_cache(mut self, on: bool) -> Self {
        self.cfg.node_cache = on;
        self
    }

    /// Enables per-node admission control (token bucket + queue-depth
    /// shedding), or disables it with `None`.
    pub fn admission(mut self, a: Option<AdmissionConfig>) -> Self {
        self.cfg.admission = a;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`DsoConfigError`] when a field is out of range
    /// (`max_retries == 0`, a zero lease, an admission parameter) or the
    /// combination is inconsistent (a cache lease without the read cache).
    pub fn build(self) -> Result<DsoConfig, DsoConfigError> {
        let c = self.cfg;
        if c.max_retries == 0 {
            return Err(DsoConfigError("max_retries must be >= 1".into()));
        }
        if c.cache_lease.is_some() && !c.read_cache {
            return Err(DsoConfigError("cache_lease requires read_cache".into()));
        }
        // The lease/cache dependency used to be checked only one way: a
        // lease without the cache failed, but an explicit zero lease (and
        // a cache silently promising lease semantics it cannot honor)
        // passed. Every explicit lease value is validated now.
        if c.cache_lease == Some(Duration::ZERO) {
            return Err(DsoConfigError(
                "cache_lease must be positive; pass None to validate every hit instead".into(),
            ));
        }
        if let Some(a) = &c.admission {
            if a.rate <= 0.0 || a.rate.is_nan() {
                return Err(DsoConfigError("admission.rate must be positive".into()));
            }
            if a.burst < 1.0 || a.burst.is_nan() {
                return Err(DsoConfigError("admission.burst must be >= 1".into()));
            }
            if a.max_queue_depth == 0 {
                return Err(DsoConfigError("admission.max_queue_depth must be >= 1".into()));
            }
            if a.retry_after.is_zero() {
                return Err(DsoConfigError("admission.retry_after must be non-zero".into()));
            }
        }
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = DsoConfig::default();
        assert!(c.workers_per_node >= 1);
        assert!(c.failure_timeout > c.heartbeat_interval * 2);
        assert!(crate::CALL_TIMEOUT > crate::costs::CLIENT_NET.base * 4);
        // The read fast path must be opt-in: linearizable, uncached.
        assert_eq!(c.consistency, ConsistencyMode::Linearizable);
        assert!(!c.read_cache);
        assert_eq!(c.cache_lease, None);
    }

    #[test]
    fn builder_validates() {
        assert!(DsoConfig::builder().build().is_ok(), "defaults are valid");
        assert!(DsoConfig::builder().max_retries(0).build().is_err());
        assert!(
            DsoConfig::builder().cache_lease(Some(Duration::from_millis(5))).build().is_err(),
            "lease without cache is inert, reject it"
        );
        let cfg = DsoConfig::builder()
            .read_cache(true)
            .cache_lease(Some(Duration::from_millis(5)))
            .consistency(ConsistencyMode::ReplicaReads)
            .build()
            .expect("valid combination");
        assert!(cfg.read_cache);
        assert_eq!(cfg.consistency, ConsistencyMode::ReplicaReads);
    }

    #[test]
    fn consistency_spectrum_validates() {
        let err = |b: DsoConfigBuilder| b.build().unwrap_err().to_string();
        // The old asymmetry: an explicit zero lease used to pass silently.
        assert!(err(DsoConfig::builder().read_cache(true).cache_lease(Duration::ZERO))
            .contains("cache_lease must be positive"),);
        // A bare Duration is accepted too (the `None` asymmetry fix made
        // the setter take `impl Into<Option<Duration>>`).
        assert!(DsoConfig::builder()
            .read_cache(true)
            .cache_lease(Duration::from_millis(2))
            .build()
            .is_ok());
        assert!(DsoConfig::builder().consistency(ConsistencyMode::Causal).build().is_ok());
    }

    #[test]
    fn admission_validates() {
        assert_eq!(DsoConfig::default().admission, None, "shedding is opt-in");
        let ok = DsoConfig::builder().admission(Some(AdmissionConfig::default())).build();
        assert!(ok.is_ok());
        let bad = |a: AdmissionConfig| DsoConfig::builder().admission(Some(a)).build().is_err();
        assert!(bad(AdmissionConfig { rate: 0.0, ..Default::default() }));
        assert!(bad(AdmissionConfig { rate: f64::NAN, ..Default::default() }));
        assert!(bad(AdmissionConfig { burst: 0.5, ..Default::default() }));
        assert!(bad(AdmissionConfig { max_queue_depth: 0, ..Default::default() }));
        assert!(bad(AdmissionConfig { retry_after: Duration::ZERO, ..Default::default() }));
    }
}
