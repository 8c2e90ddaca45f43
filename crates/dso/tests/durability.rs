//! Durability subsystem end-to-end: WAL + checkpoints to the cloud store,
//! full-cluster crash-restart recovery, read repair against LIST
//! visibility lag, and conservation of acknowledged writes across
//! explored schedules.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use simcore::explore::{explore_seeds, Check};
use simcore::{LatencyModel, Sim, Tracer};

use cloudstore::{spawn_s3, S3Config};
use dso::{
    api, checkpoint, recover_into, DsoCluster, DsoConfig, DurabilityConfig, DurabilityLevel,
    DurabilityStore, ObjectRegistry, RecoveryReport,
};

/// A Sync-durability config over a fresh store on `s3`.
fn sync_durability(s3: &cloudstore::S3Handle, prefix: &str) -> DurabilityConfig {
    let mut d = DurabilityConfig::new(DurabilityStore::new(s3.clone(), prefix));
    d.level = DurabilityLevel::Sync;
    d
}

/// FNV-1a over bytes: stable, dependency-free fingerprint.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One full crash-restart scenario: write 10 counters under Sync
/// durability on a 3-node cluster, crash every node, recover into a
/// 2-node cluster, read everything back. Returns the observation log and
/// a fingerprint of the full trace (spans in allocation order).
fn crash_restart_run(seed: u64) -> (String, u64) {
    let mut sim = Sim::new(seed);
    let tracer = Tracer::new();
    sim.set_tracer(&tracer);
    let s3 = spawn_s3(&sim, S3Config::default());
    let d = sync_durability(&s3, "dur");
    let cfg = DsoConfig { durability: Some(d), ..DsoConfig::default() };
    let mut cluster = DsoCluster::start(&sim, 3, cfg.clone(), ObjectRegistry::with_builtins());
    let log: Arc<Mutex<String>> = Arc::new(Mutex::new(String::new()));
    let log2 = log.clone();
    let handle = cluster.client_handle();
    sim.spawn("operator", move |ctx| {
        let mut cli = handle.connect();
        for i in 0..10 {
            let c = if i % 2 == 0 {
                api::AtomicLong::new(&format!("c{i}"))
            } else {
                api::AtomicLong::persistent(&format!("c{i}"), 0, 2)
            };
            c.set(ctx, &mut cli, 100 + i as i64).expect("write");
            c.increment_and_get(ctx, &mut cli).expect("bump");
        }
        for idx in 0..3 {
            cluster.crash_node_from(ctx, idx);
        }
        ctx.sleep(Duration::from_millis(50));
        let (recovered, report) =
            DsoCluster::recover_from(ctx, 2, cfg, ObjectRegistry::with_builtins())
                .expect("recovery succeeds");
        let mut cli = recovered.client_handle().connect();
        let mut g = log2.lock();
        g.push_str(&format!(
            "gen {} ckpt {:?} objects {} segs {} relist {}\n",
            report.generation,
            report.checkpoint,
            report.objects,
            report.wal_segments,
            report.relist_rounds
        ));
        for i in 0..10 {
            let c = if i % 2 == 0 {
                api::AtomicLong::new(&format!("c{i}"))
            } else {
                api::AtomicLong::persistent(&format!("c{i}"), 0, 2)
            };
            let v = c.get(ctx, &mut cli).expect("read after recovery");
            g.push_str(&format!("c{i} {v}\n"));
        }
    });
    sim.run_until_idle().expect_quiescent();
    let log = log.lock().clone();
    (log, fnv1a(tracer.export_jsonl().as_bytes()))
}

#[test]
fn full_cluster_crash_recovers_every_acknowledged_write() {
    let (log, _) = crash_restart_run(11);
    // Every counter comes back at its acknowledged value (set + 1 bump),
    // into a cluster of a *different* size, under a bumped generation.
    assert!(log.starts_with("gen 1 "), "{log}");
    assert!(log.contains("objects 10"), "{log}");
    for i in 0..10 {
        assert!(log.contains(&format!("c{i} {}", 101 + i)), "counter c{i} lost:\n{log}");
    }
}

#[test]
fn recovery_trace_is_byte_identical_per_seed() {
    let (log_a, trace_a) = crash_restart_run(23);
    let (log_b, trace_b) = crash_restart_run(23);
    assert_eq!(log_a, log_b, "observation log must be deterministic");
    assert_eq!(trace_a, trace_b, "recovery trace must be byte-identical per seed");
}

#[test]
fn recovery_replays_wal_past_the_latest_checkpoint() {
    let mut sim = Sim::new(31);
    let s3 = spawn_s3(&sim, S3Config::default());
    let d = sync_durability(&s3, "dur");
    let cfg = DsoConfig { durability: Some(d.clone()), ..DsoConfig::default() };
    let mut cluster = DsoCluster::start(&sim, 3, cfg.clone(), ObjectRegistry::with_builtins());
    let handle = cluster.client_handle();
    let ok = Arc::new(Mutex::new(false));
    let ok2 = ok.clone();
    sim.spawn("operator", move |ctx| {
        let mut cli = handle.connect();
        // Phase A, then a checkpoint, then phase B (including overwrites
        // of phase-A objects) that lives only in the WAL.
        for i in 0..6 {
            api::AtomicLong::new(&format!("a{i}")).set(ctx, &mut cli, i as i64).expect("write");
        }
        let report = checkpoint(ctx, &mut cli, &d).expect("checkpoint");
        assert_eq!(report.objects, 6);
        assert_eq!((report.gen, report.seq), (0, 1));
        for i in 0..6 {
            api::AtomicLong::new(&format!("b{i}"))
                .set(ctx, &mut cli, 50 + i as i64)
                .expect("write");
        }
        api::AtomicLong::new("a0").set(ctx, &mut cli, 999).expect("overwrite");
        for idx in 0..3 {
            cluster.crash_node_from(ctx, idx);
        }
        ctx.sleep(Duration::from_millis(50));
        let (recovered, report) =
            DsoCluster::recover_from(ctx, 3, cfg, ObjectRegistry::with_builtins())
                .expect("recovery succeeds");
        assert_eq!(report.checkpoint, Some((0, 1)), "recovers from the checkpoint");
        assert_eq!(report.objects, 12);
        assert!(report.wal_records > 0, "phase B must come from the WAL");
        let mut cli = recovered.client_handle().connect();
        assert_eq!(api::AtomicLong::new("a0").get(ctx, &mut cli).expect("read"), 999);
        for i in 1..6 {
            let c = api::AtomicLong::new(&format!("a{i}"));
            assert_eq!(c.get(ctx, &mut cli).expect("read"), i as i64);
        }
        for i in 0..6 {
            let c = api::AtomicLong::new(&format!("b{i}"));
            assert_eq!(c.get(ctx, &mut cli).expect("read"), 50 + i as i64);
        }
        *ok2.lock() = true;
    });
    sim.run_until_idle().expect_quiescent();
    assert!(*ok.lock());
}

#[test]
fn checkpoint_gc_retires_blobs_and_subsumed_wal_segments() {
    let mut sim = Sim::new(47);
    let s3 = spawn_s3(
        &sim,
        S3Config { visibility_delay: LatencyModel::fixed(Duration::ZERO), ..S3Config::default() },
    );
    let d = sync_durability(&s3, "dur");
    let cfg = DsoConfig { durability: Some(d.clone()), ..DsoConfig::default() };
    let mut cluster = DsoCluster::start(&sim, 2, cfg.clone(), ObjectRegistry::with_builtins());
    let handle = cluster.client_handle();
    let ok = Arc::new(Mutex::new(false));
    let ok2 = ok.clone();
    sim.spawn("operator", move |ctx| {
        let mut cli = handle.connect();
        let mut cp = dso::Checkpointer::new(d.clone());
        let c = api::AtomicLong::new("hot");
        let mut last = dso::CheckpointReport {
            gen: 0,
            seq: 0,
            objects: 0,
            bytes: 0,
            nodes: 0,
            ckpts_deleted: 0,
            wal_deleted: 0,
        };
        for round in 0..3 {
            for _ in 0..4 {
                c.increment_and_get(ctx, &mut cli).expect("bump");
            }
            last = cp.run_once(ctx, &mut cli).expect("checkpoint");
            assert_eq!(last.seq, round + 1);
        }
        // checkpoint_keep = 2: the third blob evicts the first, and the
        // WAL segments the oldest *kept* blob floors go with it.
        assert_eq!(last.ckpts_deleted, 1, "third checkpoint evicts the first blob");
        assert!(last.wal_deleted > 0, "floored WAL segments are collected");
        assert_eq!(d.store.list_ckpts(ctx).len(), 2);
        let stats = d.store.stats(ctx.now());
        assert!(stats.deletes as usize > last.wal_deleted, "ledger counts per-key deletes");
        assert!(stats.stored_gb_seconds > 0.0);
        // GC must never delete data recovery still needs.
        for idx in 0..2 {
            cluster.crash_node_from(ctx, idx);
        }
        ctx.sleep(Duration::from_millis(50));
        let (recovered, _) = DsoCluster::recover_from(ctx, 2, cfg, ObjectRegistry::with_builtins())
            .expect("recovery succeeds");
        let mut cli = recovered.client_handle().connect();
        assert_eq!(c.get(ctx, &mut cli).expect("read"), 12);
        *ok2.lock() = true;
    });
    sim.run_until_idle().expect_quiescent();
    assert!(*ok.lock());
}

/// Satellite: S3 LIST visibility lag hides the newest WAL segment at
/// recovery time; the scan's read repair (re-LIST until stable) must find
/// it, and the acknowledged write it carries must survive.
#[test]
fn recovery_read_repairs_wal_segments_hidden_by_list_visibility() {
    let mut sim = Sim::new(59);
    // Every key takes 150 ms to become visible to GET/LIST after its PUT
    // completes — well inside the scan's 250 ms settle window.
    let s3 = spawn_s3(
        &sim,
        S3Config {
            visibility_delay: LatencyModel::fixed(Duration::from_millis(150)),
            ..S3Config::default()
        },
    );
    let d = sync_durability(&s3, "dur");
    let cfg = DsoConfig { durability: Some(d), ..DsoConfig::default() };
    let mut cluster = DsoCluster::start(&sim, 2, cfg.clone(), ObjectRegistry::with_builtins());
    let handle = cluster.client_handle();
    let ok = Arc::new(Mutex::new(false));
    let ok2 = ok.clone();
    sim.spawn("operator", move |ctx| {
        let mut cli = handle.connect();
        let c = api::AtomicLong::new("hidden");
        for _ in 0..5 {
            c.increment_and_get(ctx, &mut cli).expect("bump");
        }
        // Crash immediately after the last Sync ack: the segment carrying
        // it is durable (PUT completed) but not yet LISTable.
        for idx in 0..2 {
            cluster.crash_node_from(ctx, idx);
        }
        let (recovered, report) =
            DsoCluster::recover_from(ctx, 2, cfg, ObjectRegistry::with_builtins())
                .expect("recovery succeeds");
        assert!(
            report.relist_rounds >= 1,
            "the scan must observe an incomplete or changing listing, got {report:?}"
        );
        let mut cli = recovered.client_handle().connect();
        assert_eq!(c.get(ctx, &mut cli).expect("read"), 5, "zero acknowledged-write loss");
        *ok2.lock() = true;
    });
    sim.run_until_idle().expect_quiescent();
    assert!(*ok.lock());
}

/// Satellite: conservation under schedule exploration. Writers bump a
/// replicated counter under Sync durability; a fault injector crashes the
/// whole cluster mid-workload — between group-commit batches — and then
/// recovers it. On every schedule, the recovered counter must hold at
/// least the highest acknowledged value (an ack = the covering WAL PUT
/// returned) and the acknowledged values themselves must be distinct.
#[test]
fn acknowledged_writes_are_conserved_across_explored_crash_schedules() {
    let scenario = |sim: &mut Sim| -> Check {
        let s3 = spawn_s3(sim, S3Config::default());
        let mut d = DurabilityConfig::new(DurabilityStore::new(s3.clone(), "dur"));
        d.level = DurabilityLevel::Sync;
        d.group_commit = Duration::from_millis(10);
        let cfg = DsoConfig { durability: Some(d), ..DsoConfig::default() };
        let mut cluster = DsoCluster::start(sim, 3, cfg.clone(), ObjectRegistry::with_builtins());
        let handle = cluster.client_handle();
        let acked: Arc<Mutex<Vec<i64>>> = Arc::new(Mutex::new(Vec::new()));
        for w in 0..2 {
            let handle = handle.clone();
            let acked = acked.clone();
            sim.spawn(&format!("writer-{w}"), move |ctx| {
                let mut cli = handle.connect();
                let c = api::AtomicLong::persistent("conserved", 0, 2);
                for _ in 0..30 {
                    match c.increment_and_get(ctx, &mut cli) {
                        Ok(v) => acked.lock().push(v),
                        Err(_) => break, // cluster crashed under us
                    }
                }
            });
        }
        let outcome: Arc<Mutex<Option<(i64, RecoveryReport)>>> = Arc::new(Mutex::new(None));
        let outcome2 = outcome.clone();
        sim.spawn("injector", move |ctx| {
            // 137 ms is deliberately not a multiple of the 10 ms group
            // commit: the crash lands between batches, with acked records
            // flushed and some applied-but-unflushed ones in the buffer.
            ctx.sleep(Duration::from_millis(137));
            for idx in 0..3 {
                cluster.crash_node_from(ctx, idx);
            }
            ctx.sleep(Duration::from_millis(50));
            let (recovered, report) =
                DsoCluster::recover_from(ctx, 2, cfg, ObjectRegistry::with_builtins())
                    .expect("recovery succeeds");
            let mut cli = recovered.client_handle().connect();
            let v = api::AtomicLong::persistent("conserved", 0, 2)
                .get(ctx, &mut cli)
                .expect("read after recovery");
            *outcome2.lock() = Some((v, report));
        });
        Box::new(move || {
            let acked = acked.lock().clone();
            let Some((recovered, report)) = outcome.lock().clone() else {
                return Err("recovery never completed".to_string());
            };
            let mut sorted = acked.clone();
            sorted.sort_unstable();
            sorted.dedup();
            if sorted.len() != acked.len() {
                return Err(format!("duplicated acknowledged increments: {acked:?}"));
            }
            let high = acked.iter().copied().max().unwrap_or(0);
            if recovered < high {
                return Err(format!(
                    "acknowledged write lost: recovered {recovered} < acked {high} ({report:?})"
                ));
            }
            if recovered > 60 {
                return Err(format!("recovered {recovered} exceeds total attempts"));
            }
            Ok(())
        })
    };
    explore_seeds(0, 25, scenario).expect_clean();
}

// ---------------------------------------------------------------------------
// Passivation (§4.1: objects "can be passivated to stable storage using
// standard mechanisms"): a one-shot `checkpoint` of a cluster that runs no
// WAL, and `recover_into` a cluster that is already up.
// ---------------------------------------------------------------------------

/// A store config on an S3 whose writes are visible at once, so a
/// checkpoint can be read back in the same instant it was written.
fn immediate_store(sim: &Sim, prefix: &str) -> DurabilityConfig {
    let s3 = spawn_s3(
        sim,
        S3Config { visibility_delay: LatencyModel::fixed(Duration::ZERO), ..S3Config::default() },
    );
    DurabilityConfig::new(DurabilityStore::new(s3, prefix))
}

/// Runs `body` as the only process of `sim` and asserts it ran to its end.
fn run_operator(mut sim: Sim, body: impl FnOnce(&mut simcore::Ctx) + Send + 'static) {
    let done = Arc::new(Mutex::new(false));
    let done2 = done.clone();
    sim.spawn("operator", move |ctx| {
        body(ctx);
        *done2.lock() = true;
    });
    sim.run_until_idle().expect_quiescent();
    assert!(*done.lock());
}

#[test]
fn drained_node_flushes_its_wal_buffer_before_it_is_gone() {
    // Async durability with a long group-commit window: the writes are
    // acknowledged at once and sit in each node's WAL buffer. Node 1 is
    // drained inside that window, so its objects' only durable copy is the
    // flush its WAL daemon makes after the node retired (a transfer is not
    // logged at the receiver). Then the survivor crashes too.
    let mut sim = Sim::new(54);
    let s3 = spawn_s3(&sim, S3Config::default());
    let mut d = DurabilityConfig::new(DurabilityStore::new(s3, "drain"));
    d.level = DurabilityLevel::Async;
    d.group_commit = Duration::from_millis(200);
    let cfg = DsoConfig { durability: Some(d), ..DsoConfig::default() };
    let mut cluster = DsoCluster::start(&sim, 2, cfg.clone(), ObjectRegistry::with_builtins());
    let handle = cluster.client_handle();
    let done = Arc::new(Mutex::new(false));
    let done2 = done.clone();
    sim.spawn("operator", move |ctx| {
        let mut cli = handle.connect();
        for i in 0..16 {
            api::AtomicLong::new(&format!("c{i}")).set(ctx, &mut cli, 100 + i).expect("write");
        }
        assert!(ctx.now() < simcore::SimTime::from_millis(150), "still inside the first window");
        assert!(cluster.remove_node_from(ctx, 1));
        ctx.sleep(Duration::from_millis(500));
        cluster.crash_node_from(ctx, 0);
        ctx.sleep(Duration::from_millis(50));
        let (recovered, report) =
            DsoCluster::recover_from(ctx, 2, cfg, ObjectRegistry::with_builtins())
                .expect("recovery succeeds");
        assert_eq!(report.objects, 16);
        let mut cli = recovered.client_handle().connect();
        for i in 0..16 {
            let v = api::AtomicLong::new(&format!("c{i}")).get(ctx, &mut cli).expect("read");
            assert_eq!(v, 100 + i, "c{i} was on the drained node and is lost");
        }
        *done2.lock() = true;
    });
    sim.run_until_idle().expect_quiescent();
    assert!(*done.lock());
}

#[test]
fn checkpoint_restores_into_a_fresh_cluster_of_another_size() {
    let sim = Sim::new(51);
    let d = immediate_store(&sim, "backup");
    let a = DsoCluster::start(&sim, 2, DsoConfig::default(), ObjectRegistry::with_builtins());
    let b = DsoCluster::start(&sim, 3, DsoConfig::default(), ObjectRegistry::with_builtins());
    let (ha, hb) = (a.client_handle(), b.client_handle());
    // A mix of plain and replicated objects.
    let counter = |i: usize| match i % 2 {
        0 => api::AtomicLong::new(&format!("c{i}")),
        _ => api::AtomicLong::persistent(&format!("c{i}"), 0, 2),
    };
    run_operator(sim, move |ctx| {
        let mut ca = ha.connect();
        for i in 0..12 {
            counter(i).set(ctx, &mut ca, 100 + i as i64).expect("write");
        }
        let report = checkpoint(ctx, &mut ca, &d).expect("checkpoint");
        assert_eq!((report.objects, report.nodes), (12, 2));
        assert!(report.bytes > 0);
        // Placement and replication follow the *target* cluster's ring.
        let mut cb = hb.connect();
        let restored = recover_into(ctx, &mut cb, &d).expect("recover");
        assert_eq!(restored.objects, 12);
        for i in 0..12 {
            assert_eq!(counter(i).get(ctx, &mut cb).expect("read"), 100 + i as i64, "c{i}");
        }
    });
}

#[test]
fn recover_into_does_not_downgrade_newer_objects() {
    let sim = Sim::new(52);
    let d = immediate_store(&sim, "snap");
    let cluster = DsoCluster::start(&sim, 2, DsoConfig::default(), ObjectRegistry::with_builtins());
    let handle = cluster.client_handle();
    run_operator(sim, move |ctx| {
        let mut cli = handle.connect();
        let c = api::AtomicLong::new("x");
        c.set(ctx, &mut cli, 1).expect("write");
        checkpoint(ctx, &mut cli, &d).expect("checkpoint");
        // Mutate after the snapshot: the live version runs ahead of it.
        for _ in 0..5 {
            c.increment_and_get(ctx, &mut cli).expect("bump");
        }
        let before = c.get(ctx, &mut cli).expect("read");
        recover_into(ctx, &mut cli, &d).expect("recover");
        let after = c.get(ctx, &mut cli).expect("read");
        assert_eq!(after, before, "recovery must not roll back newer state");
    });
}

#[test]
fn checkpoint_deduplicates_replicas() {
    let sim = Sim::new(53);
    let d = immediate_store(&sim, "dedupe");
    let cluster = DsoCluster::start(&sim, 3, DsoConfig::default(), ObjectRegistry::with_builtins());
    let handle = cluster.client_handle();
    run_operator(sim, move |ctx| {
        let mut cli = handle.connect();
        // rf = 3 on a 3-node cluster: every node holds a copy.
        let c = api::AtomicLong::persistent("tripled", 0, 3);
        c.set(ctx, &mut cli, 9).expect("write");
        let report = checkpoint(ctx, &mut cli, &d).expect("checkpoint");
        assert_eq!(report.objects, 1, "three replicas collapse to one record");
        assert_eq!(report.nodes, 3);
    });
}
