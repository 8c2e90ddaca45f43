//! Full-cluster checkpoints: a deduplicated snapshot of every object,
//! written as one atomic blob, plus garbage collection of the WAL
//! segments and older checkpoints the new blob subsumes.

use std::collections::{BTreeMap, BTreeSet};

use simcore::{Ctx, FxHashMap};

use crate::client::{DsoClient, CALL_TIMEOUT};
use crate::config::DurabilityConfig;
use crate::error::DsoError;
use crate::object::costs::CLIENT_NET;
use crate::object::ObjectRef;
use crate::protocol::{CheckpointBlob, NodeId, ObjectRecord, SnapshotAll, SnapshotReply};

/// Checkpoints retained before garbage collection deletes older
/// checkpoints and the WAL segments they subsume. At least 2, so the
/// newest checkpoint may still be inside the store's visibility window
/// while the previous one already covers every GC'd segment.
pub const CHECKPOINT_KEEP: usize = 2;
const _: () = assert!(CHECKPOINT_KEEP >= 2);

/// Result of one checkpoint round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointReport {
    /// Generation the blob was written under.
    pub gen: u32,
    /// Sequence number of the blob within the generation.
    pub seq: u64,
    /// Objects captured (replicas deduplicated by version).
    pub objects: usize,
    /// Encoded blob size in bytes.
    pub bytes: usize,
    /// Storage nodes that contributed snapshots.
    pub nodes: usize,
    /// Older checkpoint blobs garbage-collected.
    pub ckpts_deleted: usize,
    /// WAL segments garbage-collected.
    pub wal_deleted: usize,
}

/// Takes full-cluster checkpoints, one per [`Checkpointer::run_once`]
/// call, at whatever cadence the caller keeps. Owns the blob sequence
/// counter; one instance per cluster (additional instances stay correct —
/// sequence numbers are re-derived from a LIST — but waste PUTs).
#[derive(Debug)]
pub struct Checkpointer {
    d: DurabilityConfig,
    next_seq: u64,
}

impl Checkpointer {
    /// A checkpointer writing through `d`'s store.
    pub fn new(d: DurabilityConfig) -> Checkpointer {
        Checkpointer { d, next_seq: 1 }
    }

    /// Takes one checkpoint: LIST the WAL (the blob's `floors` — listed
    /// *before* the snapshots, so every floored record is also in the
    /// snapshot), snapshot every view member, dedupe replicas by version,
    /// PUT the blob, then garbage-collect blobs beyond
    /// [`CHECKPOINT_KEEP`] and the WAL segments the
    /// oldest *kept* blob subsumes.
    ///
    /// Floors cover only current-generation streams of current view
    /// members: a crashed node's stream may hold the sole copy of
    /// unreplicated objects that the live cluster can no longer snapshot,
    /// so its segments are never collected within the generation.
    ///
    /// # Errors
    ///
    /// [`DsoError::Retry`] when the view is empty, [`DsoError::Timeout`]
    /// when a member does not answer its snapshot request. Nothing is
    /// written or deleted on error.
    pub fn run_once(
        &mut self,
        ctx: &mut Ctx,
        cli: &mut DsoClient,
    ) -> Result<CheckpointReport, DsoError> {
        let store = self.d.store.clone();
        let gen = store.generation();
        let span = ctx.span_begin("dso.checkpoint", "dso");
        let view = cli.refresh_view(ctx);
        if view.members().is_empty() {
            ctx.span_annotate(span, "outcome", "empty-view");
            ctx.span_end(span);
            return Err(DsoError::Retry);
        }
        let members: BTreeSet<NodeId> = view.members().iter().map(|(n, _)| *n).collect();

        // Floors: per-stream WAL high-water marks, observed before the
        // snapshots below so they are a monotonic lower bound — every
        // record at or below a floor is captured by this blob.
        let wal_listing = store.list_wal(ctx);
        let mut floors: BTreeMap<(u32, NodeId), u64> = BTreeMap::new();
        for key in &wal_listing {
            if let Some((g, n, s)) = store.parse_wal_key(key) {
                if g == gen && members.contains(&n) {
                    let e = floors.entry((g, n)).or_insert(0);
                    *e = (*e).max(s);
                }
            }
        }
        let ckpt_listing = store.list_ckpts(ctx);

        // Snapshot every member; replicas collapse to the newest version.
        let timeout = CALL_TIMEOUT * 4;
        let mut best: FxHashMap<ObjectRef, ObjectRecord> = FxHashMap::default();
        let mut nodes = 0;
        for (_, addr) in view.members() {
            let lat = CLIENT_NET.sample(ctx.rng());
            let reply: Option<SnapshotReply> = ctx.call_timeout(*addr, SnapshotAll, lat, timeout);
            let Some(SnapshotReply(records)) = reply else {
                ctx.span_annotate(span, "outcome", "snapshot-timeout");
                ctx.span_end(span);
                return Err(DsoError::Timeout);
            };
            nodes += 1;
            for r in records {
                match best.get(&r.obj) {
                    Some(existing) if existing.version >= r.version => {}
                    _ => {
                        best.insert(r.obj.clone(), r);
                    }
                }
            }
        }
        let mut objects: Vec<ObjectRecord> = best.into_values().collect();
        objects.sort_by(|a, b| a.obj.cmp(&b.obj));

        // The sequence counter survives via LIST too, so a fresh
        // checkpointer over an old store never reuses a live key.
        let listed_max = ckpt_listing
            .iter()
            .filter_map(|k| store.parse_ckpt_key(k))
            .filter(|(g, _)| *g == gen)
            .map(|(_, s)| s)
            .max()
            .unwrap_or(0);
        let seq = self.next_seq.max(listed_max + 1);
        self.next_seq = seq + 1;

        let blob = CheckpointBlob {
            gen,
            seq,
            floors: floors.iter().map(|(&(g, n), &s)| (g, n, s)).collect(),
            objects,
        };
        let bytes = store.put_checkpoint(ctx, &blob);
        ctx.metric_incr("dso.checkpoints");
        ctx.metric_add("dso.checkpoint_bytes", bytes as u64);
        ctx.span_annotate(span, "seq", seq);
        ctx.span_annotate(span, "objects", blob.objects.len());
        ctx.span_annotate(span, "bytes", bytes);

        // Garbage collection. Safe because every blob is a *full* cluster
        // snapshot: once the oldest kept blob exists, anything older — and
        // any WAL segment it floors or from an earlier generation (whose
        // records recovery re-installed, and re-logged, under this one) —
        // is redundant.
        let mut known: Vec<String> = ckpt_listing;
        let own_key = store.ckpt_key(gen, seq);
        if !known.contains(&own_key) {
            known.push(own_key.clone());
            known.sort();
        }
        let mut ckpts_deleted = 0;
        let mut wal_deleted = 0;
        if known.len() > CHECKPOINT_KEEP {
            let cut = known.len() - CHECKPOINT_KEEP;
            let oldest_kept = if known[cut] == own_key {
                Some(blob.clone())
            } else {
                store.get_checkpoint(ctx, &known[cut])
            };
            // A listed blob that cannot be fetched (should not happen —
            // LISTed keys are visible) just skips GC until next round.
            if let Some(kept) = oldest_kept {
                // Accumulate everything doomed and delete it in one
                // batched request — GC cost must not scale per-key, or
                // tight checkpoint cadences run at their GC runtime
                // instead of their nominal interval.
                let mut doomed: Vec<String> = known[..cut].to_vec();
                ckpts_deleted = doomed.len();
                let kept_floors: FxHashMap<(u32, NodeId), u64> =
                    kept.floors.iter().map(|&(g, n, s)| ((g, n), s)).collect();
                for key in &wal_listing {
                    let Some((g, n, s)) = store.parse_wal_key(key) else { continue };
                    let subsumed =
                        g < kept.gen || kept_floors.get(&(g, n)).is_some_and(|&f| s <= f);
                    if subsumed {
                        doomed.push(key.clone());
                        wal_deleted += 1;
                    }
                }
                store.delete_many(ctx, doomed);
            }
        }
        ctx.span_end(span);
        Ok(CheckpointReport {
            gen,
            seq,
            objects: blob.objects.len(),
            bytes,
            nodes,
            ckpts_deleted,
            wal_deleted,
        })
    }
}
