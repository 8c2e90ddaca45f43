//! `recovery` — the durability subsystem's two headline curves, held by
//! [`check`] and committed, exact in virtual time, as `BENCH_recovery.json`:
//!
//! 1. **Recovery time vs checkpoint cadence.** A fixed Sync-durability
//!    workload runs against a 3-node cluster with a scheduled
//!    checkpointer at various intervals (including none), then every node
//!    crashes and [`DsoCluster::recover_from`] rebuilds the deployment
//!    from the store. More frequent checkpoints garbage-collect more of
//!    the WAL, so both the replayed log bytes and the recovery time must
//!    shrink as the cadence tightens — the check holds the endpoints
//!    (the fastest cadence beats no checkpoints ≥ 1.2× on time and
//!    strictly on replayed bytes).
//! 2. **Write-latency overhead per durability level.** The same write
//!    loop under [`DurabilityLevel::None`], `Async`, and `Sync`. Async
//!    logs off the write path, so its mean client-observed write latency
//!    must stay within 1.2× of the undurable baseline; Sync pays the
//!    group commit + segment PUT on every acknowledgement and is reported
//!    for the docs' loss-window table.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use simcore::{MetricsRegistry, Sim};

use dso::api::AtomicLong;
use dso::{
    Checkpointer, DsoCluster, DsoConfig, DurabilityConfig, DurabilityLevel, DurabilityStore,
    ObjectRegistry, RecoveryReport,
};

use cloudstore::{spawn_s3, S3Config};

use super::{OutFile, Scale};
use crate::report::{fmt_dur, Table};

/// One point of the recovery-time-vs-cadence curve.
#[derive(Clone, Debug)]
pub struct RecoveryRow {
    /// Row name (`none` or `ckpt_<interval>ms`), the key [`check`] looks
    /// rows up by.
    pub name: String,
    /// Checkpoint interval; zero means no checkpointing.
    pub checkpoint_ms: u64,
    /// Virtual time from the start of [`DsoCluster::recover_from`] to the
    /// recovered view serving reads.
    pub recovery: Duration,
    /// Encoded bytes of WAL segments fetched and replayed.
    pub replayed_bytes: usize,
    /// WAL segments replayed.
    pub wal_segments: usize,
    /// Distinct objects installed.
    pub objects: usize,
}

/// One row of the durability-level overhead table.
#[derive(Clone, Debug)]
pub struct OverheadRow {
    /// Row name: `none`, `async`, or `sync`.
    pub name: &'static str,
    /// Mean client-observed write latency.
    pub mean_write: Duration,
    /// Acknowledged writes over the run.
    pub writes: u64,
}

const NODES: u32 = 3;
const OBJECTS: u32 = 16;
const WRITERS: u32 = 4;
const GROUP_COMMIT: Duration = Duration::from_millis(25);
/// The cadence sweep; fixed across scales so the row names stay stable
/// (`Scale` only stretches the workload).
const CADENCES_MS: [u64; 3] = [2000, 1000, 500];

fn durability(s3: &cloudstore::S3Handle, level: DurabilityLevel) -> DurabilityConfig {
    let mut d = DurabilityConfig::new(DurabilityStore::new(s3.clone(), "bench"));
    d.level = level;
    d.group_commit = GROUP_COMMIT;
    d
}

/// Spawns the write loop: `WRITERS` processes spreading increments over
/// `OBJECTS` counters until `deadline`, recording acknowledgement latency.
fn spawn_writers(sim: &Sim, cluster: &DsoCluster, deadline: simcore::SimTime) {
    for w in 0..WRITERS {
        let handle = cluster.client_handle();
        sim.spawn(&format!("writer-{w}"), move |ctx| {
            use rand::RngExt;
            let mut cli = handle.connect();
            while ctx.now() < deadline {
                let i: u32 = ctx.rng().random_range(0..OBJECTS);
                let c = AtomicLong::persistent(&format!("c{i}"), 0, 2);
                let t0 = ctx.now();
                if c.increment_and_get(ctx, &mut cli).is_err() {
                    break; // cluster crashed under us
                }
                ctx.metric_incr("bench.writes");
                ctx.metric_record("bench.write_latency", ctx.now() - t0);
                ctx.sleep(Duration::from_millis(5));
            }
        });
    }
}

/// Runs the workload under Sync durability with an optional scheduled
/// checkpointer, crashes every node, recovers, and reports how long the
/// rebuild took and how much log it replayed.
fn run_recovery_cell(
    seed: u64,
    checkpoint: Option<Duration>,
    run: Duration,
) -> (Duration, RecoveryReport) {
    let mut sim = Sim::new(seed);
    let reg = MetricsRegistry::new();
    sim.set_metrics(&reg);
    let s3 = spawn_s3(&sim, S3Config::default());
    let d = durability(&s3, DurabilityLevel::Sync);
    let cfg = DsoConfig { durability: Some(d.clone()), ..DsoConfig::default() };
    let mut cluster = DsoCluster::start(&sim, NODES, cfg.clone(), ObjectRegistry::with_builtins());
    let deadline = simcore::SimTime::ZERO + run;
    spawn_writers(&sim, &cluster, deadline);
    let out: Arc<Mutex<Option<(Duration, RecoveryReport)>>> = Arc::new(Mutex::new(None));
    let out2 = out.clone();
    sim.spawn("injector", move |ctx| {
        // Drive checkpoints synchronously rather than via
        // `spawn_checkpointer`, so the last round (and its WAL garbage
        // collection) always completes before the plug is pulled — a
        // checkpoint left in flight at crash time would keep deleting
        // segments *during* the recovery scan, churning the listing and
        // measuring scheduler racing instead of the cadence curve. The
        // crash-concurrent-GC case is covered by `dso`'s own tests.
        if let Some(interval) = checkpoint {
            let mut cp = Checkpointer::new(d);
            let mut cli = cluster.client_handle().connect();
            let mut tick = simcore::Ticker::new(ctx.now(), interval);
            loop {
                let now = tick.wait(ctx);
                if now >= deadline {
                    break;
                }
                // Failed rounds surface via `dso.checkpoint` spans.
                let _ = cp.run_once(ctx, &mut cli);
            }
        }
        let crash_at = deadline + Duration::from_millis(100);
        ctx.sleep(crash_at.saturating_duration_since(ctx.now()));
        for idx in 0..NODES as usize {
            cluster.crash_node_from(ctx, idx);
        }
        ctx.sleep(Duration::from_millis(50));
        let t0 = ctx.now();
        let (recovered, report) =
            DsoCluster::recover_from(ctx, NODES, cfg, ObjectRegistry::with_builtins())
                .expect("recovery succeeds");
        // The clock stops once the recovered view serves a read again.
        let mut cli = recovered.client_handle().connect();
        AtomicLong::persistent("c0", 0, 2).get(ctx, &mut cli).expect("read after recovery");
        *out2.lock() = Some((ctx.now() - t0, report));
    });
    sim.run_until_idle().expect_quiescent();
    let got = out.lock().clone();
    // invariant: the injector either panics or stores its measurement.
    got.expect("injector ran")
}

/// Runs the write loop at `level` (no crash) and reports the mean
/// acknowledgement latency.
fn run_overhead_cell(seed: u64, level: Option<DurabilityLevel>, run: Duration) -> (Duration, u64) {
    let mut sim = Sim::new(seed);
    let reg = MetricsRegistry::new();
    sim.set_metrics(&reg);
    let s3 = spawn_s3(&sim, S3Config::default());
    let cfg = DsoConfig { durability: level.map(|l| durability(&s3, l)), ..DsoConfig::default() };
    let cluster = DsoCluster::start(&sim, NODES, cfg, ObjectRegistry::with_builtins());
    spawn_writers(&sim, &cluster, simcore::SimTime::ZERO + run);
    sim.run_until_idle().expect_quiescent();
    (reg.histogram("bench.write_latency").mean(), reg.counter_value("bench.writes"))
}

/// Recovering from the WAL alone must take at least this many times the
/// recovery atop a 500 ms checkpoint cadence (observed 2.4x).
const RECOVERY_SPEEDUP: f64 = 1.2;
/// `async` group commit must keep the mean write within this factor of no
/// durability at all (observed 1.00x).
const ASYNC_OVERHEAD_CAP: f64 = 1.2;

/// The claims `recovery` holds; `Err` names the first broken one.
pub fn check(rows: &[RecoveryRow], overhead: &[OverheadRow]) -> Result<(), String> {
    for r in rows {
        claim!(
            r.objects == OBJECTS as usize,
            "{} recovered {} of {OBJECTS} objects — recovery lost state",
            r.name,
            r.objects
        );
    }
    let row =
        |name: &str| rows.iter().find(|r| r.name == name).ok_or(format!("row {name} missing"));
    let (none, fast) = (row("none")?, row("ckpt_500ms")?);
    claim!(
        none.recovery.as_secs_f64() >= fast.recovery.as_secs_f64() * RECOVERY_SPEEDUP,
        "recovery from the WAL alone ({:?}) is not at least {RECOVERY_SPEEDUP}x ckpt_500ms \
         ({:?}) — checkpoints stopped buying down recovery",
        none.recovery,
        fast.recovery
    );
    claim!(
        fast.replayed_bytes < none.replayed_bytes,
        "ckpt_500ms replayed {} B, not fewer than none ({} B) — checkpoint GC stopped \
         truncating the WAL",
        fast.replayed_bytes,
        none.replayed_bytes
    );
    let mean = |name: &str| {
        let level = overhead.iter().find(|r| r.name == name).ok_or(format!("level {name} missing"));
        level.map(|r| r.mean_write)
    };
    let (none, async_, sync) = (mean("none")?, mean("async")?, mean("sync")?);
    claim!(
        async_.as_secs_f64() <= none.as_secs_f64() * ASYNC_OVERHEAD_CAP,
        "async mean write ({async_:?}) exceeds {ASYNC_OVERHEAD_CAP}x the no-durability mean \
         ({none:?}) — async logging leaked onto the write path"
    );
    claim!(
        sync > async_,
        "sync mean write ({sync:?}) is not above async ({async_:?}) — sync acks ride the \
         segment PUT and cannot be cheaper"
    );
    Ok(())
}

/// Runs both curves, holds the claims, prints the overhead table, renders
/// the recovery table and `BENCH_recovery.json`.
pub fn recovery(scale: Scale) -> (Table, OutFile) {
    let run = scale.pick(Duration::from_secs(4), Duration::from_secs(8));
    let mut rows = Vec::new();
    let cells: Vec<(String, Option<Duration>)> = std::iter::once(("none".to_string(), None))
        .chain(
            CADENCES_MS.iter().map(|&ms| (format!("ckpt_{ms}ms"), Some(Duration::from_millis(ms)))),
        )
        .collect();
    for (i, (name, cadence)) in cells.into_iter().enumerate() {
        let (recovery, report) = run_recovery_cell(1300 + i as u64, cadence, run);
        rows.push(RecoveryRow {
            name,
            checkpoint_ms: cadence.map_or(0, |d| d.as_millis() as u64),
            recovery,
            replayed_bytes: report.wal_bytes,
            wal_segments: report.wal_segments,
            objects: report.objects,
        });
    }
    let overhead: Vec<OverheadRow> = [
        ("none", None),
        ("async", Some(DurabilityLevel::Async)),
        ("sync", Some(DurabilityLevel::Sync)),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, (name, level))| {
        let (mean_write, writes) =
            run_overhead_cell(1400 + i as u64, level, scale.pick(Duration::from_secs(2), run));
        OverheadRow { name, mean_write, writes }
    })
    .collect();
    check(&rows, &overhead).unwrap_or_else(|broken| panic!("recovery: {broken}"));

    let mut t = Table::new(
        "Durability — full-cluster crash recovery vs checkpoint cadence (3 nodes, Sync WAL)",
        &["Checkpoint", "Recovery", "Replayed log", "WAL segments", "Objects"],
    );
    for r in &rows {
        t.row(&[
            r.name.clone(),
            fmt_dur(r.recovery),
            format!("{} B", r.replayed_bytes),
            r.wal_segments.to_string(),
            r.objects.to_string(),
        ]);
    }
    let mut t2 = Table::new(
        "Durability — write-latency overhead per level",
        &["Level", "Mean write latency", "Writes"],
    );
    for r in &overhead {
        t2.row(&[r.name.to_string(), fmt_dur(r.mean_write), r.writes.to_string()]);
    }
    t2.print();
    (t, ("BENCH_recovery.json".into(), render_json(scale, &rows, &overhead)))
}

fn render_json(scale: Scale, rows: &[RecoveryRow], overhead: &[OverheadRow]) -> String {
    let body = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"name\": \"{}\", \"checkpoint_ms\": {}, \"recovery_ms\": {:.3}, \
                 \"replayed_bytes\": {}, \"wal_segments\": {}, \"objects\": {}}}",
                r.name,
                r.checkpoint_ms,
                r.recovery.as_secs_f64() * 1e3,
                r.replayed_bytes,
                r.wal_segments,
                r.objects,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let oh = overhead
        .iter()
        .map(|r| {
            format!(
                "    {{\"name\": \"{}\", \"mean_write_ms\": {:.4}, \"writes\": {}}}",
                r.name,
                r.mean_write.as_secs_f64() * 1e3,
                r.writes,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"bench\": \"recovery\",\n  \"scale\": \"{}\",\n  \"rows\": [\n{}\n  ],\n  \
         \"overhead\": [\n{}\n  ]\n}}\n",
        scale.label(),
        body,
        oh,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A healthy report at HEAD's figures, rounded.
    fn healthy() -> (Vec<RecoveryRow>, Vec<OverheadRow>) {
        let rows = [
            ("none", 0, 8649, 52_749),
            ("ckpt_2000ms", 2000, 8676, 52_651),
            ("ckpt_1000ms", 1000, 5175, 25_533),
            ("ckpt_500ms", 500, 3568, 13_227),
        ]
        .into_iter()
        .map(|(name, checkpoint_ms, recovery_ms, replayed_bytes)| RecoveryRow {
            name: name.to_string(),
            checkpoint_ms,
            recovery: Duration::from_millis(recovery_ms),
            replayed_bytes,
            wal_segments: 100,
            objects: OBJECTS as usize,
        })
        .collect();
        let overhead = [("none", 402, 1484), ("async", 401, 1484), ("sync", 54_807, 136)]
            .into_iter()
            .map(|(name, us, writes)| OverheadRow {
                name,
                mean_write: Duration::from_micros(us),
                writes,
            })
            .collect();
        (rows, overhead)
    }

    #[test]
    fn check_holds_each_claim() {
        let (rows, overhead) = healthy();
        assert_eq!(check(&rows, &overhead), Ok(()));
        let broken = |edit: &dyn Fn(&mut [RecoveryRow], &mut [OverheadRow])| {
            let (mut rows, mut overhead) = healthy();
            edit(&mut rows, &mut overhead);
            check(&rows, &overhead).unwrap_err()
        };
        let err = broken(&|rows, _| rows[3].recovery = Duration::from_millis(8000));
        assert!(err.contains("checkpoints stopped buying down recovery"), "{err}");
        let err = broken(&|rows, _| rows[3].replayed_bytes = 52_749);
        assert!(err.contains("checkpoint GC stopped truncating the WAL"), "{err}");
        let err = broken(&|rows, _| rows[2].objects = 15);
        assert!(err.contains("ckpt_1000ms recovered 15 of 16 objects"), "{err}");
        let err = broken(&|_, overhead| overhead[1].mean_write = Duration::from_micros(5000));
        assert!(err.contains("async logging leaked onto the write path"), "{err}");
        let err = broken(&|_, overhead| overhead[2].mean_write = Duration::from_micros(401));
        assert!(err.contains("is not above async"), "{err}");
    }
}
