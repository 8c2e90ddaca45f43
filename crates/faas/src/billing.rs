//! Invocation billing: duration × memory accounting at AWS Lambda prices
//! (Table 3 of the paper).

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::time::Duration;

use simcore::SimTime;

/// Prices used by the cost experiments (us-east-1, 2019).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pricing {
    /// Dollars per GB-second of function duration.
    pub per_gb_second: f64,
    /// Dollars per invocation request.
    pub per_request: f64,
    /// Dollars per GB-second of *stored* function snapshot (S3-like
    /// storage: ~$0.08/GB-month).
    pub per_snapshot_gb_second: f64,
    /// Dollars per object-store request (PUT/GET/LIST/DELETE), the line
    /// the DSO durability tier pays for WAL segments and checkpoints
    /// (S3 PUT: ~$0.005 per 1 000 requests).
    pub per_s3_request: f64,
    /// Dollars per GB-second of object-store *data* held (S3 standard:
    /// ~$0.023/GB-month) — WAL segments and checkpoint blobs between
    /// their PUT and garbage collection.
    pub per_storage_gb_second: f64,
}

impl Default for Pricing {
    fn default() -> Self {
        Pricing {
            per_gb_second: 0.000_016_666_7,
            per_request: 0.000_000_2,
            per_snapshot_gb_second: 0.08 / (30.0 * 24.0 * 3600.0),
            per_s3_request: 0.000_005,
            per_storage_gb_second: 0.023 / (30.0 * 24.0 * 3600.0),
        }
    }
}

impl Pricing {
    /// Dollar cost of object-store durability traffic: `requests` store
    /// calls plus `stored_gb_seconds` of data held. The inputs match
    /// `dso::DurabilityStats::requests()` and
    /// `dso::DurabilityStats::stored_gb_seconds`, kept as scalars so the
    /// billing crate stays decoupled from the DSO tier.
    pub fn storage_cost(&self, requests: u64, stored_gb_seconds: f64) -> f64 {
        requests as f64 * self.per_s3_request + stored_gb_seconds * self.per_storage_gb_second
    }
}

/// How an invocation's container came to be running.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum StartKind {
    /// Served by a container already in the warm pool — no start paid.
    #[default]
    Warm,
    /// Full classic provisioning (§6.3.3's 1–2 s cold start).
    Classic,
    /// Restored from a cached memory snapshot (base + dirtied pages).
    Restore,
    /// A copy-on-write branch forked off a warm parent container.
    Fork,
}

/// One billed invocation.
#[derive(Clone, Debug)]
pub struct InvocationRecord {
    /// Function name.
    pub function: String,
    /// Billed duration (excludes the provider-side cold start, as AWS does).
    pub duration: Duration,
    /// Configured memory.
    pub memory_mb: u32,
    /// How the serving container started ([`StartKind::Warm`] when it was
    /// already in the pool); `Classic` marks the invocation that paid a
    /// classic cold start.
    pub kind: StartKind,
    /// Whether the invocation failed.
    pub failed: bool,
}

/// One stored function snapshot: created when a snapshot-tier function
/// first boots classically, open-ended until the cache evicts or
/// replaces it. Storage is billed by GB-seconds held
/// ([`Billing::snapshot_gb_seconds`]).
#[derive(Clone, Debug)]
pub struct SnapshotRecord {
    /// Function the snapshot belongs to.
    pub function: String,
    /// Snapshot size: the function's configured memory, in GB.
    pub size_gb: f64,
    /// When the snapshot was captured.
    pub created: SimTime,
    /// When the cache evicted (or replaced) it; `None` while stored.
    pub evicted: Option<SimTime>,
}

/// One reclaimed warm container: the pool held it idle for `idle` before
/// retiring it. The idle tail is what a provisioned pool *costs* — compute
/// paid for but not serving requests — so it is part of the ledger, not a
/// silent `Vec::retain`.
#[derive(Clone, Debug)]
pub struct RetirementRecord {
    /// Function whose pool the container belonged to.
    pub function: String,
    /// Configured memory of the function.
    pub memory_mb: u32,
    /// How long the container sat unused before reclamation.
    pub idle: Duration,
}

/// Shared ledger of invocations; clones share it.
#[derive(Clone, Default)]
pub struct Billing {
    pub(crate) records: Rc<RefCell<Vec<InvocationRecord>>>,
    retired: Rc<RefCell<Vec<RetirementRecord>>>,
    snapshots: Rc<RefCell<Vec<SnapshotRecord>>>,
}

impl Billing {
    /// Creates an empty ledger.
    pub fn new() -> Billing {
        Billing::default()
    }

    /// Appends a record.
    pub fn record(&self, rec: InvocationRecord) {
        self.records.borrow_mut().push(rec);
    }

    /// Number of recorded invocations.
    pub fn invocations(&self) -> usize {
        self.records.borrow().len()
    }

    /// Number of invocations that paid a classic cold start.
    pub fn cold_starts(&self) -> usize {
        self.records.borrow().iter().filter(|r| r.kind == StartKind::Classic).count()
    }

    /// Number of invocations served after a snapshot restore.
    pub fn restores(&self) -> usize {
        self.records.borrow().iter().filter(|r| r.kind == StartKind::Restore).count()
    }

    /// Number of invocations served by forked CoW branches.
    pub fn forks(&self) -> usize {
        self.records.borrow().iter().filter(|r| r.kind == StartKind::Fork).count()
    }

    /// Total GB-seconds across all invocations.
    pub fn gb_seconds(&self) -> f64 {
        // fsum, not Iterator::sum: an empty ledger must report +0.0
        // (f64's empty sum is -0.0, which leaks a "-0.00" into rendered
        // cost tables).
        simcore::fsum(
            self.records
                .borrow()
                .iter()
                .map(|r| r.duration.as_secs_f64() * (r.memory_mb as f64 / 1024.0)),
        )
    }

    /// Total compute time across all invocations.
    pub fn total_duration(&self) -> Duration {
        self.records.borrow().iter().map(|r| r.duration).sum()
    }

    /// Dollar cost under `pricing`.
    pub fn cost(&self, pricing: Pricing) -> f64 {
        self.gb_seconds() * pricing.per_gb_second + self.invocations() as f64 * pricing.per_request
    }

    /// Appends a container-retirement record.
    pub fn record_retirement(&self, rec: RetirementRecord) {
        self.retired.borrow_mut().push(rec);
    }

    /// Number of retired (idle-reclaimed) containers.
    pub fn retirements(&self) -> usize {
        self.retired.borrow().len()
    }

    /// GB-seconds containers sat idle before retirement — the cost of
    /// keeping pools warm, reported next to the execution GB-seconds.
    pub fn idle_gb_seconds(&self) -> f64 {
        // fsum: +0.0 on an empty ledger, see gb_seconds.
        simcore::fsum(
            self.retired
                .borrow()
                .iter()
                .map(|r| r.idle.as_secs_f64() * (r.memory_mb as f64 / 1024.0)),
        )
    }

    /// Opens a snapshot-storage record for `function` (the cache just
    /// captured or replaced its snapshot).
    pub fn record_snapshot_created(&self, function: &str, memory_mb: u32, at: SimTime) {
        self.snapshots.borrow_mut().push(SnapshotRecord {
            function: function.to_string(),
            size_gb: f64::from(memory_mb) / 1024.0,
            created: at,
            evicted: None,
        });
    }

    /// Closes the open snapshot-storage record for `function` (the cache
    /// evicted or replaced it). No-op if none is open.
    pub fn mark_snapshot_evicted(&self, function: &str, at: SimTime) {
        let mut g = self.snapshots.borrow_mut();
        if let Some(r) = g.iter_mut().rev().find(|r| r.function == function && r.evicted.is_none())
        {
            r.evicted = Some(at);
        }
    }

    /// Number of snapshots ever captured.
    pub fn snapshots_taken(&self) -> usize {
        self.snapshots.borrow().len()
    }

    /// GB-seconds of snapshot storage held, counting open records up to
    /// `until` (typically the end of the run).
    pub fn snapshot_gb_seconds(&self, until: SimTime) -> f64 {
        // fsum: +0.0 on an empty ledger, see gb_seconds.
        simcore::fsum(self.snapshots.borrow().iter().map(|r| {
            let end = r.evicted.unwrap_or(until);
            r.size_gb * end.saturating_duration_since(r.created).as_secs_f64()
        }))
    }

    /// Dollar cost of snapshot storage held up to `until`.
    pub fn snapshot_cost(&self, pricing: Pricing, until: SimTime) -> f64 {
        self.snapshot_gb_seconds(until) * pricing.per_snapshot_gb_second
    }

    /// Forgets all records (e.g. to exclude a warm-up phase from Table 3).
    pub fn reset(&self) {
        self.records.borrow_mut().clear();
        self.retired.borrow_mut().clear();
        self.snapshots.borrow_mut().clear();
    }
}

impl fmt::Debug for Billing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Billing")
            .field("invocations", &self.invocations())
            .field("gb_seconds", &self.gb_seconds())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ms: u64, mem: u32) -> InvocationRecord {
        InvocationRecord {
            function: "f".into(),
            duration: Duration::from_millis(ms),
            memory_mb: mem,
            kind: StartKind::Warm,
            failed: false,
        }
    }

    #[test]
    fn gb_seconds_and_cost() {
        let b = Billing::new();
        b.record(rec(1000, 1024)); // 1 GB-s
        b.record(rec(500, 2048)); // 1 GB-s
        assert!((b.gb_seconds() - 2.0).abs() < 1e-9);
        let p = Pricing::default();
        let expected = 2.0 * p.per_gb_second + 2.0 * p.per_request;
        assert!((b.cost(p) - expected).abs() < 1e-12);
        assert_eq!(b.invocations(), 2);
        assert_eq!(b.total_duration(), Duration::from_millis(1500));
    }

    #[test]
    fn reset_clears() {
        let b = Billing::new();
        b.record(rec(100, 128));
        b.reset();
        assert_eq!(b.invocations(), 0);
        assert_eq!(b.gb_seconds(), 0.0);
    }

    #[test]
    fn start_kinds_are_counted() {
        let b = Billing::new();
        b.record(InvocationRecord { kind: StartKind::Restore, ..rec(10, 1792) });
        b.record(InvocationRecord { kind: StartKind::Fork, ..rec(10, 1792) });
        b.record(InvocationRecord { kind: StartKind::Fork, ..rec(10, 1792) });
        b.record(rec(10, 1792));
        assert_eq!(b.restores(), 1);
        assert_eq!(b.forks(), 2);
        assert_eq!(b.cold_starts(), 0);
    }

    #[test]
    fn snapshot_storage_is_billed_by_gb_seconds_held() {
        let b = Billing::new();
        // 1024 MB = 1 GB, held from t=10s to t=40s → 30 GB-s.
        b.record_snapshot_created("f", 1024, SimTime::from_secs(10));
        b.mark_snapshot_evicted("f", SimTime::from_secs(40));
        // 2048 MB = 2 GB, open from t=50s; counted up to `until`.
        b.record_snapshot_created("g", 2048, SimTime::from_secs(50));
        let gbs = b.snapshot_gb_seconds(SimTime::from_secs(60));
        assert!((gbs - (30.0 + 20.0)).abs() < 1e-9, "{gbs}");
        assert_eq!(b.snapshots_taken(), 2);
        let cost = b.snapshot_cost(Pricing::default(), SimTime::from_secs(60));
        assert!((cost - gbs * Pricing::default().per_snapshot_gb_second).abs() < 1e-15);
        // Evicting a function with no open record is a no-op.
        b.mark_snapshot_evicted("f", SimTime::from_secs(99));
        assert!((b.snapshot_gb_seconds(SimTime::from_secs(60)) - gbs).abs() < 1e-9);
    }

    #[test]
    fn empty_ledgers_report_positive_zero() {
        let b = Billing::new();
        // -0.0 == 0.0 under IEEE comparison, so check the sign bit: a
        // negative zero would render as "-0.00" in cost tables.
        assert!(!b.gb_seconds().is_sign_negative());
        assert!(!b.idle_gb_seconds().is_sign_negative());
        assert!(!b.snapshot_gb_seconds(SimTime::from_secs(1)).is_sign_negative());
    }

    #[test]
    fn storage_cost_charges_requests_and_held_bytes() {
        let p = Pricing::default();
        assert_eq!(p.storage_cost(0, 0.0), 0.0);
        // 1000 requests at $0.005/1000 plus one GB-month of storage.
        let month = 30.0 * 24.0 * 3600.0;
        let cost = p.storage_cost(1000, month);
        assert!((cost - (0.005 + 0.023)).abs() < 1e-9, "{cost}");
    }

    #[test]
    fn lambda_pricing_magnitude_matches_paper() {
        // §6.2.3: 80 functions at 1792 MB ≈ 0.25 cents per second.
        let b = Billing::new();
        for _ in 0..80 {
            b.record(rec(1000, 1792));
        }
        let per_second = b.cost(Pricing::default());
        assert!(
            per_second > 0.0022 && per_second < 0.0027,
            "80x1792MB costs ${per_second}/s, expected ~$0.0024/s"
        );
    }
}
