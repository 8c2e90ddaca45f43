//! Golden-hash regression tests for the event-queue refactor.
//!
//! The kernel's event queue was swapped from a binary heap to a timing
//! wheel + slab arena; Fifo-scheduled runs must stay **byte-identical**
//! across that swap. These tests pin two workloads — the DSO cluster smoke
//! and the traced π estimation — to hashes recorded on the pre-refactor
//! kernel (commit 75bae45 lineage), on two seeds each. Any change to event
//! ordering, span allocation order, or export formatting shows up here as
//! a hash mismatch.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crucial::{AtomicLong, DsoCluster, DsoConfig, ObjectRegistry, Sim, Tracer};
use crucial_apps::pi::run_pi_crucial_with;

/// FNV-1a over bytes: stable, dependency-free fingerprint.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The simexplore smoke workload under the default Fifo scheduler: a
/// 2-node cluster, 4 writers x 5 increments plus 2 readers x 4 reads on
/// one shared counter. Returns a fingerprint of the complete event order
/// as observed by the application: every op's (start, end, value) in
/// completion order, plus the final virtual time.
fn cluster_smoke_hash(seed: u64) -> u64 {
    let mut sim = Sim::new(seed);
    let cluster = DsoCluster::start(&sim, 2, DsoConfig::default(), ObjectRegistry::with_builtins());
    let handle = cluster.client_handle();
    let log: Arc<Mutex<String>> = Arc::new(Mutex::new(String::new()));
    for w in 0..4 {
        let handle = handle.clone();
        let log = log.clone();
        sim.spawn(&format!("writer-{w}"), move |ctx| {
            let mut cli = handle.connect();
            let counter = AtomicLong::new("smoke-counter");
            for _ in 0..5 {
                let start = ctx.now();
                let value = counter.increment_and_get(ctx, &mut cli).expect("cluster reachable");
                let mut g = log.lock();
                g.push_str(&format!("w{w} {start} {} {value}\n", ctx.now()));
            }
        });
    }
    for r in 0..2 {
        let handle = handle.clone();
        let log = log.clone();
        sim.spawn(&format!("reader-{r}"), move |ctx| {
            let mut cli = handle.connect();
            let counter = AtomicLong::new("smoke-counter");
            for _ in 0..4 {
                let start = ctx.now();
                let value = counter.get(ctx, &mut cli).expect("cluster reachable");
                {
                    let mut g = log.lock();
                    g.push_str(&format!("r{r} {start} {} {value}\n", ctx.now()));
                }
                ctx.sleep(Duration::from_micros(200));
            }
        });
    }
    let out = sim.run_until_idle();
    out.expect_quiescent();
    let mut g = log.lock();
    g.push_str(&format!("end {}\n", out.time));
    fnv1a(g.as_bytes())
}

/// Traced π estimation: fingerprints of both exports, which encode span
/// allocation order (= execution order) and the exact export bytes.
fn trace_pi_hashes(seed: u64) -> (u64, u64) {
    let tracer = Tracer::new();
    let t2 = tracer.clone();
    let r = run_pi_crucial_with(seed, 4, 100_000, move |sim| {
        sim.set_tracer(&t2);
    });
    assert!(r.estimate > 2.0 && r.estimate < 4.5, "sane π estimate");
    (fnv1a(tracer.export_chrome_json().as_bytes()), fnv1a(tracer.export_jsonl().as_bytes()))
}

#[test]
fn cluster_smoke_matches_pre_refactor_golden_hashes() {
    assert_eq!(cluster_smoke_hash(0), GOLDEN_SMOKE_SEED0, "smoke seed 0 diverged");
    assert_eq!(cluster_smoke_hash(7), GOLDEN_SMOKE_SEED7, "smoke seed 7 diverged");
}

#[test]
fn traced_pi_matches_pre_refactor_golden_hashes() {
    assert_eq!(trace_pi_hashes(42), GOLDEN_PI_SEED42, "trace-pi seed 42 diverged");
    assert_eq!(trace_pi_hashes(1007), GOLDEN_PI_SEED1007, "trace-pi seed 1007 diverged");
}

// Recorded on the pre-refactor kernel (BinaryHeap event queue, String
// span records) so the wheel/slab/symbol-table refactor is pinned to it.
const GOLDEN_SMOKE_SEED0: u64 = 0xfb1e_7bd3_8c7b_1823;
const GOLDEN_SMOKE_SEED7: u64 = 0xc229_2e63_762f_0c68;
const GOLDEN_PI_SEED42: (u64, u64) = (8_345_115_569_156_730_087, 2_620_947_996_597_035_789);
// Re-recorded when cloud threads came to be numbered per deployment: the
// first recording named this second run's threads `cloudthread-4..7`, and
// renaming them `0..3` in its exports gives exactly these bytes.
const GOLDEN_PI_SEED1007: (u64, u64) = (7_349_235_755_382_806_387, 7_772_807_851_963_352_706);

/// Re-records the constants above (run with `--ignored --nocapture`) when
/// an *intentional* behavior change moves the goldens.
#[test]
#[ignore]
fn print_golden() {
    eprintln!("SMOKE0 {:#x}", cluster_smoke_hash(0));
    eprintln!("SMOKE7 {:#x}", cluster_smoke_hash(7));
    eprintln!("PI42 {:?}", trace_pi_hashes(42));
    eprintln!("PI1007 {:?}", trace_pi_hashes(1007));
}
