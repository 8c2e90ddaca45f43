//! Crash-restart recovery: scan the durability store (with read repair
//! against LIST visibility lag), then replay — newest checkpoint overlaid
//! with every newer WAL record — into a cluster through the regular
//! `__restore` invocation path.

use std::collections::BTreeMap;
use std::time::Duration;

use simcore::{Ctx, SimTime};

use crate::client::DsoClient;
use crate::config::DurabilityConfig;
use crate::error::DsoError;
use crate::object::{Access, ObjectRef};
use crate::protocol::{CheckpointBlob, NodeId};

/// Re-LIST rounds before a scan gives up with [`DsoError::Timeout`].
const MAX_ROUNDS: u32 = 512;

/// Recovery read-repair window: recovery keeps re-LISTing until the
/// listing has been stable (and every checkpoint floor satisfied) for this
/// long. The zero-loss contract of [`DurabilityLevel::Sync`] holds when
/// this dominates the store's visibility delay.
///
/// [`DurabilityLevel::Sync`]: crate::DurabilityLevel::Sync
pub const SETTLE: Duration = Duration::from_millis(250);

/// Cadence of recovery's re-LIST rounds within the [`SETTLE`] window.
pub const SETTLE_STEP: Duration = Duration::from_millis(50);
const _: () = assert!(!SETTLE_STEP.is_zero() && SETTLE_STEP.as_nanos() <= SETTLE.as_nanos());

/// What a settled scan of the durability store found.
pub(crate) struct Scan {
    /// Newest checkpoint, fetched during the scan (its floors drive the
    /// read repair), with its key.
    pub ckpt: Option<(String, CheckpointBlob)>,
    /// Every visible WAL segment key, in `(gen, node, seq)` order.
    pub wal_keys: Vec<String>,
    /// `max(generation over all keys) + 1`: the generation a recovered
    /// cluster must write under so it never collides with its
    /// predecessor's keys.
    pub next_gen: u32,
    /// Rounds that observed an incomplete or still-changing listing — 0
    /// when nothing was hidden, ≥ 1 when read repair actually repaired.
    pub relist_rounds: u32,
}

/// Scans the store until the listing is trustworthy: every floor of the
/// newest checkpoint satisfied, every per-stream sequence run gap-free
/// (GC only removes stream *prefixes*, so a gap can only be a
/// not-yet-visible segment), and the listing unchanged for
/// [`SETTLE`]. Sleeps [`SETTLE_STEP`] between rounds.
///
/// The zero-loss contract: with [`DurabilityLevel::Sync`] acks and
/// [`SETTLE`] at least the store's maximum visibility delay, every
/// acknowledged write is in some listed segment when the scan returns.
///
/// [`DurabilityLevel::Sync`]: crate::DurabilityLevel::Sync
///
/// # Errors
///
/// [`DsoError::Timeout`] when the listing does not settle within
/// [`MAX_ROUNDS`] rounds.
pub(crate) fn scan(ctx: &mut Ctx, d: &DurabilityConfig) -> Result<Scan, DsoError> {
    let store = &d.store;
    let mut relist_rounds = 0u32;
    let mut prev: Option<(Vec<String>, Vec<String>)> = None;
    let mut stable_since = SimTime::ZERO;
    let mut ckpt: Option<(String, CheckpointBlob)> = None;
    for round in 0..MAX_ROUNDS {
        if round > 0 {
            ctx.sleep(SETTLE_STEP);
        }
        let ckpts = store.list_ckpts(ctx);
        let wals = store.list_wal(ctx);
        // Fetch the newest checkpoint when it changed hands.
        let newest = ckpts.last();
        let mut fetch_failed = false;
        match newest {
            Some(k) if ckpt.as_ref().map(|(key, _)| key) != Some(k) => {
                match store.get_checkpoint(ctx, k) {
                    Some(blob) => ckpt = Some((k.clone(), blob)),
                    None => fetch_failed = true,
                }
            }
            _ => {}
        }
        let complete =
            !fetch_failed && listing_complete(store, ckpt.as_ref().map(|(_, b)| b), &wals);
        let listing = (ckpts, wals);
        let changed = prev.as_ref().is_some_and(|p| *p != listing);
        if changed || !complete {
            relist_rounds += 1;
        }
        if changed || prev.is_none() {
            stable_since = ctx.now();
        }
        prev = Some(listing);
        if complete && ctx.now().saturating_duration_since(stable_since) >= SETTLE {
            #[expect(clippy::expect_used, reason = "invariant: prev was set to Some just above")]
            let (ckpts, wals) = prev.expect("listing recorded");
            let max_gen = ckpts
                .iter()
                .filter_map(|k| store.parse_ckpt_key(k).map(|(g, _)| g))
                .chain(wals.iter().filter_map(|k| store.parse_wal_key(k).map(|(g, _, _)| g)))
                .max();
            return Ok(Scan {
                ckpt,
                wal_keys: wals,
                next_gen: max_gen.map_or(1, |g| g + 1),
                relist_rounds,
            });
        }
    }
    Err(DsoError::Timeout)
}

/// Whether a WAL listing is self-consistent: newest checkpoint's floors
/// reached and per-stream sequence runs contiguous. A floored stream that
/// is entirely absent is fine — GC removed it wholesale; a *partial*
/// stream below its floor, or a mid-stream gap, can only be visibility
/// lag, because GC deletes prefixes.
#[expect(clippy::expect_used, reason = "invariant: streams entries are built non-empty")]
fn listing_complete(
    store: &crate::durability::DurabilityStore,
    ckpt: Option<&CheckpointBlob>,
    wal_keys: &[String],
) -> bool {
    let mut streams: BTreeMap<(u32, NodeId), Vec<u64>> = BTreeMap::new();
    for key in wal_keys {
        if let Some((g, n, s)) = store.parse_wal_key(key) {
            streams.entry((g, n)).or_default().push(s);
        }
    }
    if let Some(blob) = ckpt {
        for &(g, n, floor) in &blob.floors {
            if let Some(seqs) = streams.get(&(g, n)) {
                if *seqs.last().expect("non-empty stream") < floor {
                    return false;
                }
            }
        }
    }
    streams.values().all(|seqs| seqs.windows(2).all(|w| w[1] == w[0] + 1))
}

/// Result of a recovery.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Generation the recovered cluster writes under.
    pub generation: u32,
    /// `(gen, seq)` of the checkpoint recovered from, if any.
    pub checkpoint: Option<(u32, u64)>,
    /// Distinct objects installed.
    pub objects: usize,
    /// WAL segments fetched and replayed.
    pub wal_segments: usize,
    /// WAL records scanned across those segments.
    pub wal_records: usize,
    /// Encoded bytes of replayed WAL segments — the log-read cost a more
    /// frequent checkpoint cadence buys down.
    pub wal_bytes: usize,
    /// Scan rounds that saw an incomplete or changing listing (read
    /// repair against LIST visibility lag).
    pub relist_rounds: u32,
}

/// Replays a settled [`Scan`] into the cluster behind `cli`: newest
/// version per object wins between the checkpoint and the WAL (fetched
/// in `(gen, node, seq)` order, so ties resolve deterministically), then
/// objects are installed in sorted order through `__restore` — placement
/// follows the *new* cluster's ring, and a concurrently newer version is
/// never downgraded.
///
/// # Errors
///
/// [`DsoError::Retry`] if a listed segment vanished before its GET;
/// propagates install errors.
pub(crate) fn replay(
    ctx: &mut Ctx,
    cli: &mut DsoClient,
    scan: Scan,
    d: &DurabilityConfig,
) -> Result<RecoveryReport, DsoError> {
    let store = &d.store;
    // (rf, version, state) per object; BTreeMap gives sorted installs.
    let mut best: BTreeMap<ObjectRef, (u8, u64, Vec<u8>)> = BTreeMap::new();
    let checkpoint = scan.ckpt.as_ref().map(|(_, b)| (b.gen, b.seq));
    if let Some((_, blob)) = scan.ckpt {
        for r in blob.objects {
            best.insert(r.obj, (r.rf, r.version, r.state));
        }
    }
    let mut wal_segments = 0;
    let mut wal_records = 0;
    let mut wal_bytes = 0;
    for key in &scan.wal_keys {
        let Some((seg, size)) = store.get_segment(ctx, key) else {
            return Err(DsoError::Retry);
        };
        wal_segments += 1;
        wal_bytes += size;
        for rec in seg.records {
            wal_records += 1;
            match best.get(&rec.obj) {
                Some((_, v, _)) if *v >= rec.version => {}
                _ => {
                    best.insert(rec.obj, (rec.rf, rec.version, rec.state));
                }
            }
        }
    }
    let objects = best.len();
    for (obj, (rf, version, state)) in best {
        let args = cli.encode(&[&state, &version]);
        cli.invoke(ctx, &obj, "__restore", args, rf.max(1), None, Access::Write)?;
    }
    ctx.metric_incr("dso.recoveries");
    ctx.metric_add("dso.recover_bytes", wal_bytes as u64);
    Ok(RecoveryReport {
        generation: scan.next_gen,
        checkpoint,
        objects,
        wal_segments,
        wal_records,
        wal_bytes,
        relist_rounds: scan.relist_rounds,
    })
}

/// Recovers the durability store's contents into the (running) cluster
/// behind `cli`: scan with read repair, then replay. This is the
/// restore-into-fresh-cluster half of the old passivation API; a full
/// crash restart — which also rebuilds the cluster and bumps the write
/// generation — is [`crate::DsoCluster::recover_from`].
///
/// # Errors
///
/// [`DsoError::Timeout`] when the store's listing does not settle;
/// [`DsoError::Retry`] if a listed segment vanished before its GET; and any
/// error installing an object.
pub fn recover_into(
    ctx: &mut Ctx,
    cli: &mut DsoClient,
    d: &DurabilityConfig,
) -> Result<RecoveryReport, DsoError> {
    let span = ctx.span_begin("dso.recover", "dso");
    let result = scan(ctx, d).and_then(|s| replay(ctx, cli, s, d));
    match &result {
        Ok(report) => {
            ctx.span_annotate(span, "objects", report.objects);
            ctx.span_annotate(span, "wal_segments", report.wal_segments);
            ctx.span_annotate(span, "relist_rounds", report.relist_rounds);
        }
        Err(e) => ctx.span_annotate(span, "outcome", format_args!("{e:?}")),
    }
    ctx.span_end(span);
    result
}
