//! Platform configuration: latency models, limits, pricing, and the
//! cold-start tier (snapshot/restore and CoW forking), with a validating
//! builder mirroring `DsoConfig::builder`.

use std::time::Duration;

use simcore::LatencyModel;

use crate::billing::Pricing;

/// Snapshot page size used by the dirty-page restore cost model (4 KiB,
/// the unit Firecracker/CRIU-style snapshotting restores lazily).
pub const SNAPSHOT_PAGE_BYTES: u64 = 4096;

/// Pages per MB of configured function memory.
const PAGES_PER_MB: u64 = 1024 * 1024 / SNAPSHOT_PAGE_BYTES;

/// How a function's containers come into existence when no warm one is
/// available (see DESIGN.md "Cold-start tiers").
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum ColdStartPolicy {
    /// Full provisioning on every cold start (§6.3.3's 1–2 s), the
    /// pre-existing behavior and the default.
    #[default]
    Classic,
    /// First cold start provisions classically and captures a memory
    /// snapshot; later cold starts restore from it, paying
    /// [`SnapshotConfig::restore_base`] plus a per-dirtied-page cost
    /// (~150–250 ms at Lambda-like sizes) instead of full provisioning.
    SnapshotRestore,
    /// Everything `SnapshotRestore` does, plus the function may be
    /// invoked through [`crate::FaasHandle::invoke_forked`]: one warm
    /// container fans out into N copy-on-write branches at
    /// [`SnapshotConfig::fork`] each (~10–50 ms).
    Fork,
}

impl ColdStartPolicy {
    /// Whether this policy uses the snapshot machinery at all.
    pub fn uses_snapshots(self) -> bool {
        !matches!(self, ColdStartPolicy::Classic)
    }
}

/// Cost model of the snapshot tier.
///
/// Restoring a snapshot costs `restore_base` plus `restore_per_page` for
/// every dirtied page, where the number of dirtied pages is
/// `memory_mb × 256 × dirty_fraction` (4 KiB pages). At the defaults a
/// 1792 MB function restores in ≈ 120 ms + 92 ms ≈ 210 ms — an order of
/// magnitude under the classic 1.5 s provision, matching what
/// snapshot-restore systems (Faasm's Faaslets, Firecracker snapshots)
/// report.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotConfig {
    /// Base latency of mapping a snapshot back in (page-table setup,
    /// device reconnect) before any page is touched.
    pub restore_base: LatencyModel,
    /// Cost of faulting one dirtied page back in.
    pub restore_per_page: Duration,
    /// Fraction of the function's pages dirtied between snapshot and
    /// first use (the working set that must actually be restored).
    pub dirty_fraction: f64,
    /// Latency of forking one CoW branch off a warm container
    /// (§"Fork semantics" in DESIGN.md; 10–50 ms).
    pub fork: LatencyModel,
    /// Maximum number of function snapshots kept; the least recently
    /// used (by virtual time, name as the deterministic tie-break) is
    /// evicted when a new one would exceed it. A miss falls back to
    /// classic provisioning and repopulates the cache.
    pub snapshot_cache_capacity: usize,
}

impl Default for SnapshotConfig {
    fn default() -> Self {
        SnapshotConfig {
            restore_base: LatencyModel::uniform(Duration::from_millis(120), 0.25),
            restore_per_page: Duration::from_micros(10),
            dirty_fraction: 0.02,
            fork: LatencyModel::uniform(Duration::from_millis(25), 0.6),
            snapshot_cache_capacity: 64,
        }
    }
}

impl SnapshotConfig {
    /// Pages that must be faulted back in when restoring a snapshot of a
    /// `memory_mb` function.
    pub fn dirty_pages(&self, memory_mb: u32) -> u64 {
        let total = u64::from(memory_mb) * PAGES_PER_MB;
        (total as f64 * self.dirty_fraction).round() as u64
    }

    /// The deterministic part of a restore: per-page fault cost for the
    /// dirtied working set (the base is sampled per restore).
    pub fn page_restore_cost(&self, memory_mb: u32) -> Duration {
        self.restore_per_page * self.dirty_pages(memory_mb) as u32
    }
}

/// Platform configuration, calibrated to AWS Lambda in 2019.
///
/// Construct it with [`FaasConfig::builder`] (validated) or
/// [`FaasConfig::default`]; the fields stay public for reading.
#[derive(Clone, Debug)]
pub struct FaasConfig {
    /// One-way latency of the invoke control path when a warm container is
    /// available (the "Invocation" segment of Fig. 7b).
    pub warm_dispatch: LatencyModel,
    /// Container provisioning delay (§6.3.3: "cold starts … add 1 to 2
    /// seconds of invocation delay").
    pub cold_start: LatencyModel,
    /// One-way latency of the response path.
    pub response: LatencyModel,
    /// Idle time after which a warm container is reclaimed.
    pub container_idle_timeout: Duration,
    /// Account-wide concurrent-execution limit.
    pub concurrency_limit: u32,
    /// Hard cap on function duration (15 min on Lambda).
    pub max_duration: Duration,
    /// Probability that an invocation crashes mid-run (failure injection).
    pub failure_rate: f64,
    /// How many containers share one physical host. Container `id` runs
    /// on host `id / containers_per_host` — a deterministic bin-packing
    /// stand-in for the provider's placement. Deployment layers use the
    /// host id ([`crate::FnCtx::host`]) to share per-host resources (e.g.
    /// the DSO node cache) between co-located containers.
    pub containers_per_host: u32,
    /// Platform-wide default cold-start policy; a function registered
    /// with [`crate::FunctionRegistry::register_with_policy`] overrides
    /// it. Non-classic policies require [`FaasConfig::snapshot`].
    pub cold_start_policy: ColdStartPolicy,
    /// Cost model of the snapshot tier; `None` (the default) disables it
    /// and every function starts classically.
    pub snapshot: Option<SnapshotConfig>,
    /// Billing prices.
    pub pricing: Pricing,
}

impl Default for FaasConfig {
    fn default() -> Self {
        FaasConfig {
            warm_dispatch: LatencyModel::uniform(Duration::from_millis(13), 0.3),
            cold_start: LatencyModel::uniform(Duration::from_millis(1500), 0.33),
            response: LatencyModel::uniform(Duration::from_millis(8), 0.3),
            container_idle_timeout: Duration::from_secs(600),
            concurrency_limit: 3000,
            max_duration: Duration::from_secs(900),
            failure_rate: 0.0,
            containers_per_host: 8,
            cold_start_policy: ColdStartPolicy::Classic,
            snapshot: None,
            pricing: Pricing::default(),
        }
    }
}

impl FaasConfig {
    /// Starts a validating builder from the defaults.
    ///
    /// ```
    /// use faas::{ColdStartPolicy, FaasConfig, SnapshotConfig};
    ///
    /// let cfg = FaasConfig::builder()
    ///     .cold_start_policy(ColdStartPolicy::SnapshotRestore)
    ///     .snapshot(SnapshotConfig::default())
    ///     .build()
    ///     .expect("valid");
    /// assert!(cfg.snapshot.is_some());
    /// ```
    pub fn builder() -> FaasConfigBuilder {
        FaasConfigBuilder { cfg: FaasConfig::default() }
    }

    /// The policy a function effectively runs under: its per-function
    /// override if set, else the platform default — clamped to `Classic`
    /// when no [`FaasConfig::snapshot`] model is configured.
    pub fn effective_policy(&self, function_override: Option<ColdStartPolicy>) -> ColdStartPolicy {
        let p = function_override.unwrap_or(self.cold_start_policy);
        if p.uses_snapshots() && self.snapshot.is_none() {
            ColdStartPolicy::Classic
        } else {
            p
        }
    }

    /// Expected start penalty an invoker pays when no warm container is
    /// available, for a function of `memory_mb` under the platform
    /// default policy: the classic provision under `Classic`, the mean
    /// snapshot restore under `SnapshotRestore`, one fork under `Fork`.
    /// The control plane compares this against its floor threshold to
    /// decide whether provisioned-concurrency floors are still worth
    /// their idle cost.
    pub fn expected_start_penalty(&self, memory_mb: u32) -> Duration {
        match (self.effective_policy(None), &self.snapshot) {
            (ColdStartPolicy::SnapshotRestore, Some(s)) => {
                s.restore_base.base + s.page_restore_cost(memory_mb)
            }
            (ColdStartPolicy::Fork, Some(s)) => s.fork.base,
            _ => self.cold_start.base,
        }
    }
}

/// An invalid [`FaasConfig`] combination, reported by
/// [`FaasConfigBuilder::build`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaasConfigError(String);

impl std::fmt::Display for FaasConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid FaasConfig: {}", self.0)
    }
}

impl std::error::Error for FaasConfigError {}

/// Builder for [`FaasConfig`] that validates the combination on
/// [`build`](FaasConfigBuilder::build). Setters are named after the
/// fields they set and chain by value (the convention shared with
/// `DsoConfig::builder`).
#[derive(Clone, Debug)]
pub struct FaasConfigBuilder {
    cfg: FaasConfig,
}

impl FaasConfigBuilder {
    /// Sets the idle timeout after which warm containers are reclaimed.
    pub fn container_idle_timeout(mut self, d: Duration) -> Self {
        self.cfg.container_idle_timeout = d;
        self
    }

    /// Sets the account-wide concurrency limit.
    pub fn concurrency_limit(mut self, n: u32) -> Self {
        self.cfg.concurrency_limit = n;
        self
    }

    /// Sets the hard cap on function duration.
    pub fn max_duration(mut self, d: Duration) -> Self {
        self.cfg.max_duration = d;
        self
    }

    /// Sets the failure-injection probability.
    pub fn failure_rate(mut self, p: f64) -> Self {
        self.cfg.failure_rate = p;
        self
    }

    /// Sets the platform-wide default cold-start policy.
    pub fn cold_start_policy(mut self, p: ColdStartPolicy) -> Self {
        self.cfg.cold_start_policy = p;
        self
    }

    /// Installs the snapshot-tier cost model. Accepts a bare
    /// `SnapshotConfig` or an `Option`; required whenever a non-classic
    /// policy is selected anywhere.
    pub fn snapshot(mut self, s: impl Into<Option<SnapshotConfig>>) -> Self {
        self.cfg.snapshot = s.into();
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FaasConfigError`] when a field is out of range
    /// (`concurrency_limit == 0`, a zero `max_duration`, a `failure_rate`
    /// outside `[0, 1]`) or the snapshot tier is inconsistent (a
    /// non-classic `cold_start_policy` without a `snapshot` model, a zero snapshot
    /// cache capacity, a `dirty_fraction` outside `[0, 1]`, or a
    /// restore/fork model that is not actually cheaper than the classic
    /// cold start it replaces).
    pub fn build(self) -> Result<FaasConfig, FaasConfigError> {
        let c = self.cfg;
        if c.concurrency_limit == 0 {
            return Err(FaasConfigError("concurrency_limit must be >= 1".into()));
        }
        if c.max_duration.is_zero() {
            return Err(FaasConfigError("max_duration must be positive".into()));
        }
        if !(0.0..=1.0).contains(&c.failure_rate) {
            return Err(FaasConfigError(format!(
                "failure_rate must be within [0, 1], got {}",
                c.failure_rate
            )));
        }
        if c.cold_start_policy.uses_snapshots() && c.snapshot.is_none() {
            return Err(FaasConfigError(format!(
                "cold_start_policy {:?} requires a snapshot cost model (set .snapshot(..))",
                c.cold_start_policy
            )));
        }
        if let Some(s) = &c.snapshot {
            if s.snapshot_cache_capacity == 0 {
                return Err(FaasConfigError(
                    "snapshot_cache_capacity must be >= 1 (a zero-entry cache can never hit)"
                        .into(),
                ));
            }
            if !(0.0..=1.0).contains(&s.dirty_fraction) {
                return Err(FaasConfigError(format!(
                    "snapshot dirty_fraction must be within [0, 1], got {}",
                    s.dirty_fraction
                )));
            }
            if s.restore_base.base >= c.cold_start.base {
                return Err(FaasConfigError(
                    "snapshot restore_base must be cheaper than the classic cold start \
                     it replaces"
                        .into(),
                ));
            }
            if s.fork.base >= s.restore_base.base {
                return Err(FaasConfigError(
                    "fork must be cheaper than a snapshot restore (CoW branches skip the \
                     page faults)"
                        .into(),
                ));
            }
        }
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_build() {
        let cfg = FaasConfig::builder().build().expect("defaults are valid");
        assert_eq!(cfg.cold_start_policy, ColdStartPolicy::Classic);
        assert!(cfg.snapshot.is_none());
    }

    #[test]
    fn snapshot_policy_requires_snapshot_model() {
        let err = FaasConfig::builder()
            .cold_start_policy(ColdStartPolicy::SnapshotRestore)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("requires a snapshot cost model"), "{err}");
        let err =
            FaasConfig::builder().cold_start_policy(ColdStartPolicy::Fork).build().unwrap_err();
        assert!(err.to_string().contains("requires a snapshot cost model"), "{err}");
    }

    #[test]
    fn zero_cache_capacity_is_rejected() {
        let err = FaasConfig::builder()
            .cold_start_policy(ColdStartPolicy::SnapshotRestore)
            .snapshot(SnapshotConfig { snapshot_cache_capacity: 0, ..SnapshotConfig::default() })
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("snapshot_cache_capacity must be >= 1"), "{err}");
    }

    #[test]
    fn restore_must_beat_classic_and_fork_must_beat_restore() {
        let slow_restore = SnapshotConfig {
            restore_base: LatencyModel::fixed(Duration::from_secs(2)),
            ..SnapshotConfig::default()
        };
        let err = FaasConfig::builder()
            .cold_start_policy(ColdStartPolicy::SnapshotRestore)
            .snapshot(slow_restore)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("cheaper than the classic cold start"), "{err}");

        let slow_fork = SnapshotConfig {
            fork: LatencyModel::fixed(Duration::from_millis(500)),
            ..SnapshotConfig::default()
        };
        let err = FaasConfig::builder()
            .cold_start_policy(ColdStartPolicy::Fork)
            .snapshot(slow_fork)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("fork must be cheaper than a snapshot restore"), "{err}");
    }

    #[test]
    fn range_checks() {
        let err = FaasConfig::builder().concurrency_limit(0).build().unwrap_err();
        assert!(err.to_string().contains("concurrency_limit must be >= 1"), "{err}");
        let err = FaasConfig::builder().max_duration(Duration::ZERO).build().unwrap_err();
        assert!(err.to_string().contains("max_duration must be positive"), "{err}");
        let err = FaasConfig::builder().failure_rate(1.5).build().unwrap_err();
        assert!(err.to_string().contains("failure_rate must be within [0, 1]"), "{err}");
        let err = FaasConfig::builder()
            .cold_start_policy(ColdStartPolicy::SnapshotRestore)
            .snapshot(SnapshotConfig { dirty_fraction: 1.2, ..SnapshotConfig::default() })
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("dirty_fraction must be within [0, 1]"), "{err}");
    }

    #[test]
    fn dirty_page_cost_model_lands_in_the_150_to_250ms_band() {
        let s = SnapshotConfig::default();
        // 1792 MB × 256 pages/MB × 2% ≈ 9175 pages ≈ 92 ms of faults.
        let pages = s.dirty_pages(1792);
        assert!((9000..9500).contains(&pages), "{pages}");
        let total = Duration::from_millis(120) + s.page_restore_cost(1792);
        assert!(
            total > Duration::from_millis(150) && total < Duration::from_millis(250),
            "expected mean restore in the 150–250 ms band, got {total:?}"
        );
    }

    #[test]
    fn effective_policy_clamps_without_snapshot_model() {
        let cfg = FaasConfig::default();
        assert_eq!(
            cfg.effective_policy(Some(ColdStartPolicy::SnapshotRestore)),
            ColdStartPolicy::Classic,
            "no snapshot model configured"
        );
        let cfg = FaasConfig::builder()
            .cold_start_policy(ColdStartPolicy::SnapshotRestore)
            .snapshot(SnapshotConfig::default())
            .build()
            .unwrap();
        assert_eq!(cfg.effective_policy(None), ColdStartPolicy::SnapshotRestore);
        assert_eq!(
            cfg.effective_policy(Some(ColdStartPolicy::Fork)),
            ColdStartPolicy::Fork,
            "per-function override wins"
        );
        assert_eq!(cfg.effective_policy(Some(ColdStartPolicy::Classic)), ColdStartPolicy::Classic);
    }

    #[test]
    fn expected_start_penalty_tracks_the_policy() {
        let classic = FaasConfig::default();
        assert_eq!(classic.expected_start_penalty(1792), Duration::from_millis(1500));
        let snap = FaasConfig::builder()
            .cold_start_policy(ColdStartPolicy::SnapshotRestore)
            .snapshot(SnapshotConfig::default())
            .build()
            .unwrap();
        let p = snap.expected_start_penalty(1792);
        assert!(p < Duration::from_millis(250), "restore penalty, got {p:?}");
        let fork = FaasConfig::builder()
            .cold_start_policy(ColdStartPolicy::Fork)
            .snapshot(SnapshotConfig::default())
            .build()
            .unwrap();
        assert_eq!(fork.expected_start_penalty(1792), Duration::from_millis(25));
    }
}
