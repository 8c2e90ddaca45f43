//! Per-node write-ahead logging with group commit.
//!
//! Workers log the post-state of every applied mutation into a shared
//! [`WalState`] buffer (host-side only — no virtual time on the write
//! path). A per-node daemon flushes the buffer as one
//! [`WalSegment`](crate::protocol::WalSegment) PUT per group-commit
//! interval, coalescing repeated mutations of the same object to its
//! newest state. Under [`DurabilityLevel::Sync`](crate::DurabilityLevel)
//! the replying replica parks the client's acknowledgement here and the
//! daemon releases it after the PUT containing the write returns.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use simcore::{Addr, Ctx, Ticker};

use crate::config::DurabilityConfig;
use crate::object::costs::CLIENT_NET;
use crate::object::ObjectRef;
use crate::protocol::{InvokeResp, NodeId, WalRecord, WalSegment};

/// Maximum records per flushed segment; a larger backlog drains over
/// several consecutive segments within the same flush.
pub const SEGMENT_MAX_RECORDS: usize = 256;

/// A client acknowledgement withheld until the write's WAL flush (Sync).
pub(crate) struct PendingAck {
    pub reply_to: Addr,
    pub resp: InvokeResp,
}

#[derive(Default)]
struct WalInner {
    /// Buffered records, newest state per object (group-commit coalescing).
    records: BTreeMap<ObjectRef, WalRecord>,
    /// Mutations folded into `records` since the last flush.
    coalesced: u64,
    /// Sync acknowledgements riding the next flush.
    acks: Vec<PendingAck>,
    /// Next segment sequence number (contiguous per node per generation).
    next_seq: u64,
    /// The node drained and retired: the daemon ends after its next flush.
    retired: bool,
}

/// Shared WAL buffer of one storage node.
pub(crate) struct WalState {
    node: NodeId,
    inner: RefCell<WalInner>,
}

impl WalState {
    pub(crate) fn new(node: NodeId) -> WalState {
        WalState { node, inner: RefCell::new(WalInner { next_seq: 1, ..WalInner::default() }) }
    }

    /// Buffers one applied mutation (called by workers; host-side only).
    pub(crate) fn log(&self, rec: WalRecord) {
        let mut g = self.inner.borrow_mut();
        g.coalesced += 1;
        g.records.insert(rec.obj.clone(), rec);
    }

    /// Parks a Sync acknowledgement until the next flush completes.
    pub(crate) fn queue_ack(&self, ack: PendingAck) {
        self.inner.borrow_mut().acks.push(ack);
    }

    /// Marks the node retired. Nothing is logged after this (its workers
    /// are gone), so the daemon's next flush is the last and takes
    /// everything buffered before the drain, with the Sync
    /// acknowledgements riding it.
    pub(crate) fn retire(&self) {
        self.inner.borrow_mut().retired = true;
    }

    /// Buffered records awaiting flush.
    pub(crate) fn backlog(&self) -> usize {
        self.inner.borrow().records.len()
    }

    /// Flushes the buffer: drains up to [`SEGMENT_MAX_RECORDS`] records per
    /// segment (looping until empty), PUTs each segment, then releases the
    /// parked acknowledgements. Returns the number of segments written.
    pub(crate) fn flush(&self, ctx: &mut Ctx, d: &DurabilityConfig) -> usize {
        let mut segments = 0;
        loop {
            // Take one segment's worth (plus all acks on the final batch)
            // under one borrow, then do the PUT without holding it.
            let (records, coalesced, acks, seq) = {
                let mut g = self.inner.borrow_mut();
                if g.records.is_empty() {
                    let acks = std::mem::take(&mut g.acks);
                    drop(g);
                    // Acks with no pending records: their batch was taken
                    // by a previous loop iteration (or the record coalesced
                    // away); the data is durable, release them.
                    self.release(ctx, acks);
                    return segments;
                }
                let mut records: Vec<WalRecord> =
                    Vec::with_capacity(g.records.len().min(SEGMENT_MAX_RECORDS));
                while records.len() < SEGMENT_MAX_RECORDS {
                    let Some(key) = g.records.keys().next().cloned() else { break };
                    #[expect(
                        clippy::expect_used,
                        reason = "invariant: key was just observed in the map"
                    )]
                    records.push(g.records.remove(&key).expect("buffered record"));
                }
                let coalesced = std::mem::take(&mut g.coalesced);
                let acks =
                    if g.records.is_empty() { std::mem::take(&mut g.acks) } else { Vec::new() };
                let seq = g.next_seq;
                g.next_seq += 1;
                (records, coalesced, acks, seq)
            };
            let seg =
                WalSegment { gen: d.store.generation(), node: self.node, seq, coalesced, records };
            let span = ctx.span_begin("dso.wal_append", "dso");
            ctx.span_annotate(span, "node", self.node);
            ctx.span_annotate(span, "seq", seq);
            ctx.span_annotate(span, "records", seg.records.len());
            let bytes = d.store.put_segment(ctx, &seg);
            ctx.span_annotate(span, "bytes", bytes);
            ctx.span_end(span);
            ctx.metric_incr("dso.wal_appends");
            ctx.metric_add("dso.wal_records", seg.records.len() as u64);
            segments += 1;
            self.release(ctx, acks);
        }
    }

    /// Sends parked acknowledgements; the data they cover is durable.
    fn release(&self, ctx: &mut Ctx, acks: Vec<PendingAck>) {
        for ack in acks {
            let lat = CLIENT_NET.sample(ctx.rng());
            ctx.reply(ack.reply_to, ack.resp, lat);
        }
    }
}

/// The per-node WAL daemon: pushes the backlog gauge and flushes on the
/// group-commit cadence, until a flush finds the node retired. Spawned by
/// the server only when durability is configured, so default-config
/// schedules stay byte-identical.
pub(crate) fn wal_daemon(ctx: &mut Ctx, wal: Rc<WalState>, d: DurabilityConfig) {
    let mut tick = Ticker::new(ctx.now(), d.group_commit);
    loop {
        tick.wait(ctx);
        ctx.metric_push("dso.wal_backlog", wal.backlog() as f64);
        wal.flush(ctx, &d);
        // `flush` returns on an empty buffer, in this same run slice.
        if wal.inner.borrow().retired {
            return;
        }
    }
}
