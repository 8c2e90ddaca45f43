//! The durability store: a thin, ledger-keeping wrapper around
//! [`cloudstore::S3Handle`] that owns the key layout of WAL segments and
//! checkpoints.
//!
//! Key layout (all keys sort lexicographically in `(gen, …, seq)` order,
//! so one LIST per prefix returns each stream in replay order):
//!
//! ```text
//! {prefix}/ckpt/{gen:08}-{seq:016}           -> CheckpointBlob
//! {prefix}/wal/{gen:08}-{node:08}-{seq:016}  -> WalSegment
//! ```
//!
//! The ledger mirrors `faas::Billing`'s `SnapshotRecord` pattern: every
//! PUT opens a storage record, every DELETE closes one, and
//! [`DurabilityStore::stats`] reports request counts plus GB-seconds held
//! so cost tables can charge checkpoints and WAL like PR 9 charges
//! snapshots.

use std::cell::RefCell;
use std::rc::Rc;

use cloudstore::S3Handle;
use simcore::{Ctx, SimTime};

use crate::protocol::{CheckpointBlob, NodeId, WalSegment};

/// One stored durability object (a WAL segment or checkpoint blob): open
/// from PUT until the GC deletes it.
#[derive(Clone, Debug)]
struct StorageRecord {
    key: String,
    size_gb: f64,
    created: SimTime,
    deleted: Option<SimTime>,
}

#[derive(Default, Debug)]
struct LedgerInner {
    records: Vec<StorageRecord>,
    puts: u64,
    gets: u64,
    lists: u64,
    deletes: u64,
    bytes_put: u64,
}

/// Aggregated store-side counters for cost accounting, read after a run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DurabilityStats {
    /// Number of PUT requests (segments + checkpoints).
    pub puts: u64,
    /// Number of GET requests.
    pub gets: u64,
    /// Number of LIST requests.
    pub lists: u64,
    /// Number of DELETE requests (garbage collection).
    pub deletes: u64,
    /// Total bytes written across all PUTs.
    pub bytes_put: u64,
    /// GB-seconds of storage held, counting still-open records up to the
    /// query time.
    pub stored_gb_seconds: f64,
}

impl DurabilityStats {
    /// Total billable store requests.
    pub fn requests(&self) -> u64 {
        self.puts + self.gets + self.lists + self.deletes
    }
}

/// Handle to the durability store: an [`S3Handle`] plus the key prefix,
/// the cluster generation used for new keys, and a shared request/storage
/// ledger. Cheap to clone; clones share the ledger.
#[derive(Clone, Debug)]
pub struct DurabilityStore {
    s3: S3Handle,
    prefix: String,
    generation: u32,
    ledger: Rc<RefCell<LedgerInner>>,
}

impl DurabilityStore {
    /// A store writing under `prefix` at generation 0.
    pub fn new(s3: S3Handle, prefix: impl Into<String>) -> DurabilityStore {
        DurabilityStore {
            s3,
            prefix: prefix.into(),
            generation: 0,
            ledger: Rc::new(RefCell::new(LedgerInner::default())),
        }
    }

    /// The generation new WAL segments and checkpoints are written under.
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// A clone of this store writing under `gen` (same ledger). Recovery
    /// hands the recovered cluster a bumped generation so its WAL never
    /// collides with its predecessor's keys.
    pub fn with_generation(&self, gen: u32) -> DurabilityStore {
        DurabilityStore { generation: gen, ..self.clone() }
    }

    fn wal_prefix(&self) -> String {
        format!("{}/wal/", self.prefix)
    }

    fn ckpt_prefix(&self) -> String {
        format!("{}/ckpt/", self.prefix)
    }

    /// Key of a WAL segment.
    pub fn wal_key(&self, gen: u32, node: NodeId, seq: u64) -> String {
        format!("{}/wal/{gen:08}-{:08}-{seq:016}", self.prefix, node.0)
    }

    /// Key of a checkpoint blob.
    pub fn ckpt_key(&self, gen: u32, seq: u64) -> String {
        format!("{}/ckpt/{gen:08}-{seq:016}", self.prefix)
    }

    /// Parses a WAL key back into `(gen, node, seq)`.
    pub fn parse_wal_key(&self, key: &str) -> Option<(u32, NodeId, u64)> {
        let rest = key.strip_prefix(&self.wal_prefix())?;
        let mut parts = rest.splitn(3, '-');
        let gen = parts.next()?.parse().ok()?;
        let node = parts.next()?.parse().ok()?;
        let seq = parts.next()?.parse().ok()?;
        Some((gen, NodeId(node), seq))
    }

    /// Parses a checkpoint key back into `(gen, seq)`.
    pub fn parse_ckpt_key(&self, key: &str) -> Option<(u32, u64)> {
        let rest = key.strip_prefix(&self.ckpt_prefix())?;
        let (gen, seq) = rest.split_once('-')?;
        Some((gen.parse().ok()?, seq.parse().ok()?))
    }

    fn record_put(&self, ctx: &Ctx, key: String, bytes: usize) {
        let mut g = self.ledger.borrow_mut();
        g.puts += 1;
        g.bytes_put += bytes as u64;
        g.records.push(StorageRecord {
            key,
            size_gb: bytes as f64 / (1024.0 * 1024.0 * 1024.0),
            created: ctx.now(),
            deleted: None,
        });
    }

    /// Writes one WAL segment under this store's generation; returns the
    /// encoded size in bytes.
    pub fn put_segment(&self, ctx: &mut Ctx, seg: &WalSegment) -> usize {
        // invariant: encoding a `Wire` value never fails.
        let payload = simcore::codec::to_bytes(seg).expect("segment encodes");
        let key = self.wal_key(seg.gen, seg.node, seg.seq);
        let bytes = payload.len();
        self.s3.put(ctx, &key, payload);
        self.record_put(ctx, key, bytes);
        bytes
    }

    /// Writes one checkpoint blob; returns the encoded size in bytes.
    pub fn put_checkpoint(&self, ctx: &mut Ctx, blob: &CheckpointBlob) -> usize {
        // invariant: encoding a `Wire` value never fails.
        let payload = simcore::codec::to_bytes(blob).expect("checkpoint encodes");
        let key = self.ckpt_key(blob.gen, blob.seq);
        let bytes = payload.len();
        self.s3.put(ctx, &key, payload);
        self.record_put(ctx, key, bytes);
        bytes
    }

    /// Fetches and decodes a WAL segment; `None` if absent or not yet
    /// visible. Returns the segment together with its encoded size.
    pub fn get_segment(&self, ctx: &mut Ctx, key: &str) -> Option<(WalSegment, usize)> {
        self.ledger.borrow_mut().gets += 1;
        let payload = self.s3.get(ctx, key)?;
        let size = payload.len();
        simcore::codec::from_bytes(&payload).ok().map(|seg| (seg, size))
    }

    /// Fetches and decodes a checkpoint blob; `None` if absent or not yet
    /// visible.
    pub fn get_checkpoint(&self, ctx: &mut Ctx, key: &str) -> Option<CheckpointBlob> {
        self.ledger.borrow_mut().gets += 1;
        let payload = self.s3.get(ctx, key)?;
        simcore::codec::from_bytes(&payload).ok()
    }

    /// Lists the visible WAL segment keys (all generations), sorted — the
    /// lexicographic order is `(gen, node, seq)` order.
    pub fn list_wal(&self, ctx: &mut Ctx) -> Vec<String> {
        self.ledger.borrow_mut().lists += 1;
        self.s3.list(ctx, &self.wal_prefix())
    }

    /// Lists the visible checkpoint keys (all generations), sorted.
    pub fn list_ckpts(&self, ctx: &mut Ctx) -> Vec<String> {
        self.ledger.borrow_mut().lists += 1;
        self.s3.list(ctx, &self.ckpt_prefix())
    }

    /// Deletes a key (garbage collection), closing its storage record.
    pub fn delete(&self, ctx: &mut Ctx, key: &str) {
        self.s3.delete(ctx, key);
        let mut g = self.ledger.borrow_mut();
        g.deletes += 1;
        let now = ctx.now();
        if let Some(r) = g.records.iter_mut().rev().find(|r| r.key == key && r.deleted.is_none()) {
            r.deleted = Some(now);
        }
    }

    /// Deletes a batch of keys in one `DeleteObjects` round trip, closing
    /// each key's storage record. Counts one request per key in the
    /// ledger — S3 bills `DeleteObjects` per object, not per call.
    pub fn delete_many(&self, ctx: &mut Ctx, keys: Vec<String>) {
        if keys.is_empty() {
            return;
        }
        self.s3.delete_many(ctx, keys.clone());
        let mut g = self.ledger.borrow_mut();
        g.deletes += keys.len() as u64;
        let now = ctx.now();
        for key in &keys {
            if let Some(r) =
                g.records.iter_mut().rev().find(|r| r.key == *key && r.deleted.is_none())
            {
                r.deleted = Some(now);
            }
        }
    }

    /// Request counts and storage GB-seconds held up to `until`.
    pub fn stats(&self, until: SimTime) -> DurabilityStats {
        let g = self.ledger.borrow();
        let stored_gb_seconds = simcore::fsum(g.records.iter().map(|r| {
            let end = r.deleted.unwrap_or(until);
            r.size_gb * end.saturating_duration_since(r.created).as_secs_f64()
        }));
        DurabilityStats {
            puts: g.puts,
            gets: g.gets,
            lists: g.lists,
            deletes: g.deletes,
            bytes_put: g.bytes_put,
            stored_gb_seconds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> DurabilityStore {
        // Key math needs no live S3; build a handle against a dummy sim.
        let sim = simcore::Sim::new(1);
        DurabilityStore::new(cloudstore::spawn_s3(&sim, cloudstore::S3Config::default()), "dur")
    }

    #[test]
    fn keys_round_trip_and_sort_in_stream_order() {
        let s = store();
        let k = s.wal_key(3, NodeId(7), 42);
        assert_eq!(s.parse_wal_key(&k), Some((3, NodeId(7), 42)));
        let c = s.ckpt_key(3, 9);
        assert_eq!(s.parse_ckpt_key(&c), Some((3, 9)));
        assert!(s.parse_wal_key(&c).is_none());
        // Lexicographic order must equal (gen, node, seq) order.
        let mut keys = [
            s.wal_key(1, NodeId(0), 2),
            s.wal_key(0, NodeId(9), 100),
            s.wal_key(0, NodeId(9), 99),
            s.wal_key(0, NodeId(10), 1),
        ];
        keys.sort();
        let parsed: Vec<_> = keys.iter().map(|k| s.parse_wal_key(k).unwrap()).collect();
        assert_eq!(
            parsed,
            vec![(0, NodeId(9), 99), (0, NodeId(9), 100), (0, NodeId(10), 1), (1, NodeId(0), 2),]
        );
    }

    #[test]
    fn generation_clone_shares_the_ledger() {
        let s = store();
        let g1 = s.with_generation(1);
        assert_eq!(g1.generation(), 1);
        assert_eq!(s.generation(), 0);
        g1.ledger.borrow_mut().puts += 1;
        assert_eq!(s.stats(SimTime::ZERO).puts, 1, "ledger is shared");
        assert!(s.stats(SimTime::ZERO).stored_gb_seconds.is_sign_positive());
    }
}
