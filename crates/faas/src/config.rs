//! Platform configuration: limits, pricing and the cold-start tier
//! (snapshot/restore and CoW forking), plus the calibrated start costs.

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
    /// [`RESTORE_BASE`] plus a per-dirtied-page cost
    /// (~150–250 ms at Lambda-like sizes) instead of full provisioning.
    SnapshotRestore,
    /// Everything `SnapshotRestore` does, plus the function may be
    /// invoked through [`crate::FaasHandle::invoke_forked`]: one warm
    /// container fans out into N copy-on-write branches at
    /// [`FORK`] each (~10–50 ms).
    Fork,
}

impl ColdStartPolicy {
    /// Whether this policy uses the snapshot machinery at all.
    pub fn uses_snapshots(self) -> bool {
        !matches!(self, ColdStartPolicy::Classic)
    }
}

/// Container provisioning delay (§6.3.3: "cold starts … add 1 to 2
/// seconds of invocation delay").
pub const COLD_START: LatencyModel = LatencyModel::uniform(Duration::from_millis(1500), 0.33);

/// Base latency of mapping a snapshot back in (page-table setup, device
/// reconnect) before any page is touched.
///
/// A restore costs this plus [`RESTORE_PER_PAGE`] for every dirtied page,
/// where the number of dirtied pages is `memory_mb × 256 ×`
/// [`DIRTY_FRACTION`] (4 KiB pages). A 1792 MB function restores in
/// ≈ 120 ms + 92 ms ≈ 210 ms — an order of magnitude under the classic
/// 1.5 s provision, matching what snapshot-restore systems (Faasm's
/// Faaslets, Firecracker snapshots) report.
pub const RESTORE_BASE: LatencyModel = LatencyModel::uniform(Duration::from_millis(120), 0.25);

/// Cost of faulting one dirtied page back in.
pub const RESTORE_PER_PAGE: Duration = Duration::from_micros(10);

/// Fraction of the function's pages dirtied between snapshot and first use
/// (the working set that must actually be restored).
pub const DIRTY_FRACTION: f64 = 0.02;

/// Latency of forking one CoW branch off a warm container (§"Fork
/// semantics" in DESIGN.md; 10–50 ms).
pub const FORK: LatencyModel = LatencyModel::uniform(Duration::from_millis(25), 0.6);

// A restore must be cheaper than the classic cold start it replaces, and a
// fork cheaper than a restore (CoW branches skip the page faults).
const _: () = assert!(RESTORE_BASE.base.as_nanos() < COLD_START.base.as_nanos());
const _: () = assert!(FORK.base.as_nanos() < RESTORE_BASE.base.as_nanos());

/// Pages that must be faulted back in when restoring a snapshot of a
/// `memory_mb` function.
fn dirty_pages(memory_mb: u32) -> u64 {
    let total = u64::from(memory_mb) * PAGES_PER_MB;
    (total as f64 * DIRTY_FRACTION).round() as u64
}

/// The deterministic part of a restore: per-page fault cost for the
/// dirtied working set (the base is sampled per restore).
pub(crate) fn page_restore_cost(memory_mb: u32) -> Duration {
    RESTORE_PER_PAGE * dirty_pages(memory_mb) as u32
}

/// Idle time after which a warm container is reclaimed (beyond the
/// provisioned floor).
pub const CONTAINER_IDLE_TIMEOUT: Duration = Duration::from_secs(600);

/// Platform configuration, calibrated to AWS Lambda in 2019.
///
/// [`crate::spawn_platform`] checks the ranges of the fields. The start
/// and dispatch latencies and the idle timeout are constants
/// ([`COLD_START`], [`crate::WARM_DISPATCH`], [`CONTAINER_IDLE_TIMEOUT`]
/// and their neighbours).
#[derive(Clone, Debug)]
pub struct FaasConfig {
    /// Account-wide concurrent-execution limit.
    pub concurrency_limit: u32,
    /// Hard cap on function duration (15 min on Lambda).
    pub max_duration: Duration,
    /// Probability that an invocation crashes mid-run (failure injection).
    pub failure_rate: f64,
    /// Platform-wide default cold-start policy; a function registered
    /// with [`crate::FunctionRegistry::register_with_policy`] overrides
    /// it.
    pub cold_start_policy: ColdStartPolicy,
    /// Maximum number of function snapshots the snapshot tier keeps; the
    /// least recently used (by virtual time, name as the deterministic
    /// tie-break) is evicted when a new one would exceed it. A miss falls
    /// back to classic provisioning and repopulates the cache.
    pub snapshot_cache_capacity: usize,
    /// Billing prices.
    pub pricing: Pricing,
}

impl Default for FaasConfig {
    fn default() -> Self {
        FaasConfig {
            concurrency_limit: 3000,
            max_duration: Duration::from_secs(900),
            failure_rate: 0.0,
            cold_start_policy: ColdStartPolicy::Classic,
            snapshot_cache_capacity: 64,
            pricing: Pricing::default(),
        }
    }
}

impl FaasConfig {
    /// The policy a function effectively runs under: its per-function
    /// override if set, else the platform default.
    pub fn effective_policy(&self, function_override: Option<ColdStartPolicy>) -> ColdStartPolicy {
        function_override.unwrap_or(self.cold_start_policy)
    }

    /// Expected start penalty an invoker pays when no warm container is
    /// available, for a function of `memory_mb` under the platform
    /// default policy: the classic provision under `Classic`, the mean
    /// snapshot restore under `SnapshotRestore`, one fork under `Fork`.
    /// The control plane compares this against its floor threshold to
    /// decide whether provisioned-concurrency floors are still worth
    /// their idle cost.
    pub fn expected_start_penalty(&self, memory_mb: u32) -> Duration {
        match self.cold_start_policy {
            ColdStartPolicy::Classic => COLD_START.base,
            ColdStartPolicy::SnapshotRestore => RESTORE_BASE.base + page_restore_cost(memory_mb),
            ColdStartPolicy::Fork => FORK.base,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirty_page_cost_model_lands_in_the_150_to_250ms_band() {
        // 1792 MB × 256 pages/MB × 2% ≈ 9175 pages ≈ 92 ms of faults.
        let pages = dirty_pages(1792);
        assert!((9000..9500).contains(&pages), "{pages}");
        let total = RESTORE_BASE.base + page_restore_cost(1792);
        assert!(
            total > Duration::from_millis(150) && total < Duration::from_millis(250),
            "expected mean restore in the 150–250 ms band, got {total:?}"
        );
    }

    #[test]
    fn effective_policy_prefers_the_function_override() {
        let cfg = FaasConfig {
            cold_start_policy: ColdStartPolicy::SnapshotRestore,
            ..FaasConfig::default()
        };
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
        let with = |p| FaasConfig { cold_start_policy: p, ..FaasConfig::default() };
        let classic = with(ColdStartPolicy::Classic);
        assert_eq!(classic.expected_start_penalty(1792), Duration::from_millis(1500));
        let p = with(ColdStartPolicy::SnapshotRestore).expected_start_penalty(1792);
        assert!(p < Duration::from_millis(250), "restore penalty, got {p:?}");
        let fork = with(ColdStartPolicy::Fork);
        assert_eq!(fork.expected_start_penalty(1792), Duration::from_millis(25));
    }
}
