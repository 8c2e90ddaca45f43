//! `consistency-ablate` — the consistency spectrum × cache-tier matrix on
//! a hot, fully replicated, read-mostly workload served through *churning*
//! clients: every simulated invocation connects a fresh `DsoClient` (the
//! FaaS reality — a container's client dies with the invocation), does a
//! handful of reads, and drops it. Client-side warmth therefore dies every
//! iteration; the host-shared [`NodeCache`] is the only tier that survives
//! churn, which is exactly the ablation this table isolates.
//!
//! [`check`] holds the ablation's claims — every row makes progress,
//! replica reads beat primary-only reads, the leased `client_cache` beats
//! plain replica reads even under churn, and the `node_cache` row beats
//! the `client_cache` one — and the figures, exact in virtual time, are
//! committed as `BENCH_consistency.json`.

use std::sync::Arc;
use std::time::Duration;

use simcore::{MetricsRegistry, Sim};

use dso::api::AtomicByteArray;
use dso::{ConsistencyMode, DsoCluster, DsoConfig, NodeCache, ObjectRegistry};

use super::{OutFile, Scale};
use crate::report::{fmt_dur, Table};

/// One cell of the mode × cache matrix.
#[derive(Clone, Debug)]
pub struct ConsistencyRow {
    /// Row name (`<mode>/<cache>`), the key [`check`] looks rows up by.
    pub name: String,
    /// Consistency-mode label.
    pub mode: &'static str,
    /// Cache-tier label: `none`, `client_cache`, or `node_cache`.
    pub cache: &'static str,
    /// Completed reads per second over the measurement window.
    pub reads_per_sec: f64,
    /// Mean read latency.
    pub read_latency: Duration,
}

// A small, hot, fully replicated model under churn: two 1 KB rf=3
// objects (so primary-only reads leave a node idle that replica reads can
// recruit), 40 invocation loops, 8 loops per simulated host.
const OBJECTS: u32 = 2;
const PAYLOAD: usize = 1024;
const READERS: u32 = 40;
const READERS_PER_HOST: u32 = 8;
const READS_PER_INVOCATION: u32 = 8;
const RF: u8 = 3;
const LEASE: Duration = Duration::from_millis(2);

/// Which cache tiers a row enables.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum CacheTier {
    None,
    /// PR-1 baseline: the per-client cache with a short lease. Dies with
    /// every churned client.
    Client,
    /// The client cache *plus* the host-shared node cache (as the
    /// deployment layer wires co-located containers).
    Node,
}

impl CacheTier {
    fn label(self) -> &'static str {
        match self {
            CacheTier::None => "none",
            CacheTier::Client => "client_cache",
            CacheTier::Node => "node_cache",
        }
    }
}

fn run_cell(seed: u64, scale: Scale, cfg: DsoConfig, tier: CacheTier) -> (f64, Duration) {
    let run = scale.pick(Duration::from_millis(400), Duration::from_secs(5));
    let mut sim = Sim::new(seed);
    let reg = MetricsRegistry::new();
    sim.set_metrics(&reg);
    // One worker per node: the storage tier is the bottleneck, so cache
    // hits (which never reach it) translate directly into throughput.
    let cfg = DsoConfig { workers_per_node: 1, ..cfg };
    let cluster = DsoCluster::start(&sim, 3, cfg, ObjectRegistry::with_builtins());
    let handle = cluster.client_handle();
    let start = simcore::SimTime::ZERO + Duration::from_secs(1);
    let deadline = start + run;
    // Writer: installs the model, then keeps mutating one object every
    // 2 ms — read-mostly, not read-only.
    {
        let handle = handle.clone();
        sim.spawn("writer", move |ctx| {
            use rand::RngExt;
            let mut cli = handle.connect();
            let payload = vec![7u8; PAYLOAD];
            for i in 0..OBJECTS {
                let o = AtomicByteArray::persistent(&format!("m{i}"), Vec::new(), RF);
                o.set(ctx, &mut cli, &payload).expect("install");
            }
            while ctx.now() < deadline {
                ctx.sleep(Duration::from_millis(2));
                let i: u32 = ctx.rng().random_range(0..OBJECTS);
                let o = AtomicByteArray::persistent(&format!("m{i}"), Vec::new(), RF);
                o.set(ctx, &mut cli, &payload).expect("update");
            }
        });
    }
    // One shared cache per simulated host, as `containers_per_host` packs
    // them in the FaaS tier.
    let hosts: Vec<Arc<NodeCache>> =
        (0..READERS.div_ceil(READERS_PER_HOST)).map(|_| Arc::new(NodeCache::new())).collect();
    for t in 0..READERS {
        let handle = handle.clone();
        let host_cache = hosts[(t / READERS_PER_HOST) as usize].clone();
        sim.spawn(&format!("inv{t}"), move |ctx| {
            use rand::RngExt;
            // Let the writer install the model first.
            ctx.sleep(Duration::from_millis(200));
            let objs: Vec<AtomicByteArray> = (0..OBJECTS)
                .map(|i| AtomicByteArray::persistent(&format!("m{i}"), Vec::new(), RF))
                .collect();
            while ctx.now() < deadline {
                // One invocation: a fresh client (container-lifetime
                // state), a burst of reads, then the client dies.
                let mut cli = match tier {
                    CacheTier::Node => handle.connect_with_node_cache(host_cache.clone()),
                    _ => handle.connect(),
                };
                for _ in 0..READS_PER_INVOCATION {
                    let i = ctx.rng().random_range(0..OBJECTS) as usize;
                    let t0 = ctx.now();
                    if objs[i].get(ctx, &mut cli).is_ok() && t0 >= start && ctx.now() < deadline {
                        ctx.metric_incr("bench.reads");
                        ctx.metric_record("bench.read_latency", ctx.now() - t0);
                    }
                    // Local work consuming each read.
                    ctx.sleep(Duration::from_micros(20));
                }
                // Invocation gap (dispatch + billing tail).
                ctx.sleep(Duration::from_micros(100));
            }
        });
    }
    sim.run_until_idle().expect_quiescent();
    let total = reg.counter_value("bench.reads");
    (total as f64 / run.as_secs_f64(), reg.histogram("bench.read_latency").mean())
}

/// The matrix. Invalid combinations of the config space (a lease without
/// the cache) are simply not rows — the builder rejects them, which
/// `dso`'s config tests pin.
fn cells() -> Vec<(&'static str, CacheTier, DsoConfig)> {
    let b = DsoConfig::builder;
    vec![
        ("linearizable", CacheTier::None, b().build().expect("valid")),
        (
            "replica-reads",
            CacheTier::None,
            b().consistency(ConsistencyMode::ReplicaReads).build().expect("valid"),
        ),
        (
            "causal",
            CacheTier::None,
            b().consistency(ConsistencyMode::Causal).build().expect("valid"),
        ),
        (
            "replica-reads",
            CacheTier::Client,
            b().consistency(ConsistencyMode::ReplicaReads)
                .read_cache(true)
                .cache_lease(LEASE)
                .build()
                .expect("valid"),
        ),
        (
            "linearizable",
            CacheTier::Client,
            b().read_cache(true).cache_lease(LEASE).build().expect("valid"),
        ),
        (
            "replica-reads",
            CacheTier::Node,
            b().consistency(ConsistencyMode::ReplicaReads)
                .read_cache(true)
                .cache_lease(LEASE)
                .node_cache(true)
                .build()
                .expect("valid"),
        ),
    ]
}

/// `(faster, slower, margin)`: `faster`'s reads/s must be at least
/// `margin`x `slower`'s (observed 1.35x, 3.03x and 5.7x).
const CLAIMS: [(&str, &str, f64); 3] = [
    ("replica-reads/none", "linearizable/none", 1.2),
    ("replica-reads/client_cache", "replica-reads/none", 2.0),
    ("replica-reads/node_cache", "replica-reads/client_cache", 1.2),
];

/// The claims `consistency-ablate` holds; `Err` names the first broken one.
pub fn check(rows: &[ConsistencyRow]) -> Result<(), String> {
    for r in rows {
        claim!(r.reads_per_sec > 0.0, "{} made no progress", r.name);
    }
    let rate = |name: &str| {
        let row = rows.iter().find(|r| r.name == name).ok_or(format!("row {name} missing"));
        row.map(|r| r.reads_per_sec)
    };
    for (faster, slower, margin) in CLAIMS {
        let (f, s) = (rate(faster)?, rate(slower)?);
        claim!(
            f >= s * margin,
            "{faster} ({f:.0} reads/s) does not beat {slower} ({s:.0}) by {margin}x"
        );
    }
    Ok(())
}

/// Runs the mode × cache matrix, holds the claims, renders
/// `BENCH_consistency.json`.
pub fn consistency_ablate(scale: Scale) -> (Table, OutFile) {
    let mut rows = Vec::new();
    for (i, (mode, tier, cfg)) in cells().into_iter().enumerate() {
        let (reads_per_sec, read_latency) = run_cell(960 + i as u64, scale, cfg, tier);
        rows.push(ConsistencyRow {
            name: format!("{mode}/{}", tier.label()),
            mode,
            cache: tier.label(),
            reads_per_sec,
            read_latency,
        });
    }
    check(&rows).unwrap_or_else(|broken| panic!("consistency-ablate: {broken}"));
    let mut t = Table::new(
        "Ablation — consistency × cache tier (3 nodes, hot rf = 3 model, churning clients)",
        &["Mode", "Cache", "Reads/s", "Mean read latency", "Speedup"],
    );
    let base = rows[0].reads_per_sec;
    for r in &rows {
        t.row(&[
            r.mode.to_string(),
            r.cache.to_string(),
            format!("{:.0}", r.reads_per_sec),
            fmt_dur(r.read_latency),
            format!("{:.2}x", r.reads_per_sec / base.max(1e-9)),
        ]);
    }
    (t, ("BENCH_consistency.json".into(), render_json(scale, &rows)))
}

fn render_json(scale: Scale, rows: &[ConsistencyRow]) -> String {
    let body = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"name\": \"{}\", \"mode\": \"{}\", \"cache\": \"{}\", \
                 \"reads_per_s\": {:.1}, \"mean_read_latency_s\": {:.9}}}",
                r.name,
                r.mode,
                r.cache,
                r.reads_per_sec,
                r.read_latency.as_secs_f64(),
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"bench\": \"consistency\",\n  \"scale\": \"{}\",\n  \"rows\": [\n{}\n  ]\n}}\n",
        scale.label(),
        body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A healthy report at HEAD's figures, rounded.
    fn healthy() -> Vec<ConsistencyRow> {
        [
            ("linearizable", "none", 31_745.0),
            ("replica-reads", "none", 42_847.0),
            ("causal", "none", 42_840.0),
            ("replica-reads", "client_cache", 129_855.0),
            ("linearizable", "client_cache", 129_800.0),
            ("replica-reads", "node_cache", 734_485.0),
        ]
        .into_iter()
        .map(|(mode, cache, reads_per_sec)| ConsistencyRow {
            name: format!("{mode}/{cache}"),
            mode,
            cache,
            reads_per_sec,
            read_latency: Duration::from_micros(100),
        })
        .collect()
    }

    /// `healthy()` with one row's rate replaced.
    fn with_rate(name: &str, reads_per_sec: f64) -> Vec<ConsistencyRow> {
        let mut rows = healthy();
        rows.iter_mut().find(|r| r.name == name).expect("known row").reads_per_sec = reads_per_sec;
        rows
    }

    #[test]
    fn check_holds_each_claim() {
        assert_eq!(check(&healthy()), Ok(()));
        for (name, rate, broken) in [
            ("causal/none", 0.0, "causal/none made no progress"),
            // 1.15x: under the 1.2x the docs claim.
            ("replica-reads/none", 36_500.0, "does not beat linearizable/none"),
            // 1.87x: the lease must at least double plain replica reads.
            ("replica-reads/client_cache", 80_000.0, "does not beat replica-reads/none"),
            ("replica-reads/node_cache", 150_000.0, "does not beat replica-reads/client_cache"),
        ] {
            let err = check(&with_rate(name, rate)).unwrap_err();
            assert!(err.contains(broken), "{name}: {err}");
        }
        let err = check(&healthy()[1..]).unwrap_err();
        assert!(err.contains("row linearizable/none missing"), "{err}");
    }
}
