//! `coldstart` — the cold-start tier comparison: classic provisioning vs
//! snapshot restore, each carried through the full elastic 3× ramp, plus
//! the fork fan-out microbench on a warm parent.
//!
//! The two elastic runs differ only in [`FaasConfig::cold_start_policy`]:
//! the classic run pays ~1.5 s provisioning boots (and its control plane
//! buys provisioned-concurrency floors to hide them), the snapshot run
//! pays ~200 ms dirty-page restores (and its control plane, seeing the
//! penalty under its threshold, buys none). The fork microbench forks a
//! warm parent into 8 CoW branches per round, so the branch latency is
//! the pure 10–50 ms fork cost. Start-latency CDFs come straight from
//! the `faas.start.{classic,restore,fork}` histograms; the cost table
//! carries execution, idle-pool, and snapshot-storage GB-seconds.
//! [`check`] holds the documented claims — a snapshot restore collapses
//! the classic cold start by ≥ 4×, and a fork undercuts the restore by
//! ≥ 2× — and the headline numbers, exact in virtual time, are committed
//! as `BENCH_coldstart.json`.

use std::time::Duration;

use simcore::{LatencyStats, MetricsRegistry, Sim};

use faas::{
    spawn_platform, ColdStartPolicy, FaasConfig, FnCtx, FunctionRegistry, SnapshotConfig,
    FULL_VCPU_MB,
};

use crucial_ml::elastic::{run_elastic, ElasticConfig, ElasticReport};

use super::{OutFile, Scale};
use crate::report::Table;

/// One tier's headline numbers, as rendered into `BENCH_coldstart.json`.
#[derive(Clone, Debug)]
pub struct ModeStats {
    /// Tier name: `classic`, `snapshot`, or `fork`.
    pub name: &'static str,
    /// Starts of this kind observed (CDF sample count).
    pub starts: usize,
    /// Mean start latency, milliseconds.
    pub mean_start_ms: f64,
    /// Median start latency, milliseconds.
    pub p50_ms: f64,
    /// 90th-percentile start latency, milliseconds.
    pub p90_ms: f64,
    /// 99th-percentile start latency, milliseconds.
    pub p99_ms: f64,
    /// Start-latency CDF: milliseconds at p10, p20, …, p100.
    pub cdf_ms: Vec<f64>,
    /// FaaS execution GB-seconds of the run that produced the starts.
    pub gb_seconds: f64,
    /// Idle-pool GB-seconds (warm floors and retired containers).
    pub idle_gb_seconds: f64,
    /// Snapshot-storage GB-seconds held (zero under classic).
    pub snapshot_gb_seconds: f64,
    /// FaaS dollar cost (execution + requests + idle + snapshot storage).
    pub faas_cost_usd: f64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn mode_stats(
    name: &'static str,
    hist: &LatencyStats,
    gb_seconds: f64,
    idle_gb_seconds: f64,
    snapshot_gb_seconds: f64,
    faas_cost_usd: f64,
) -> ModeStats {
    ModeStats {
        name,
        starts: hist.count(),
        mean_start_ms: ms(hist.mean()),
        p50_ms: ms(hist.percentile(50.0)),
        p90_ms: ms(hist.percentile(90.0)),
        p99_ms: ms(hist.percentile(99.0)),
        cdf_ms: (1..=10).map(|i| ms(hist.percentile(i as f64 * 10.0))).collect(),
        gb_seconds,
        idle_gb_seconds,
        snapshot_gb_seconds,
        faas_cost_usd,
    }
}

/// The platform under the snapshot tier: default cost model
/// (120 ms base + 10 µs/dirtied page ≈ 210 ms at one full vCPU).
fn snapshot_faas() -> FaasConfig {
    FaasConfig::builder()
        .cold_start_policy(ColdStartPolicy::SnapshotRestore)
        .snapshot(SnapshotConfig::default())
        .build()
        .expect("snapshot tier config is valid")
}

fn elastic_cfg(scale: Scale) -> ElasticConfig {
    ElasticConfig {
        phase: scale.pick(Duration::from_secs(15), Duration::from_secs(60)),
        ..ElasticConfig::default()
    }
}

/// The fork fan-out microbench: one warm parent forked into `fanout`
/// branches per round. Returns the run's metrics and the platform's
/// billing-derived cost columns.
fn fork_bench(scale: Scale) -> (MetricsRegistry, f64, f64, f64, f64) {
    let rounds = scale.pick(15u32, 60u32);
    let fanout = 8u8;
    let mut sim = Sim::new(97);
    let metrics = MetricsRegistry::new();
    sim.set_metrics(&metrics);
    let reg = FunctionRegistry::new();
    reg.register_with_policy(
        "burst",
        FULL_VCPU_MB,
        ColdStartPolicy::Fork,
        |env: &mut FnCtx<'_>, p: Vec<u8>| {
            env.compute(Duration::from_millis(1));
            Ok(p)
        },
    );
    let faas = spawn_platform(&sim, snapshot_faas(), reg);
    let f = faas.clone();
    sim.spawn("fork-driver", move |ctx| {
        // Warm the parent once, off the fork path, so every measured
        // branch pays only the fork itself.
        f.invoke(ctx, "burst", vec![0]).expect("warmup invoke");
        for r in 0..rounds {
            let payloads: Vec<Vec<u8>> = (0..fanout).map(|i| vec![r as u8, i]).collect();
            let results = f.invoke_forked(ctx, "burst", payloads);
            assert!(results.iter().all(Result::is_ok), "round {r}: {results:?}");
            ctx.sleep(Duration::from_millis(250));
        }
    });
    sim.run_until_idle().expect_quiescent();
    let expected = u64::from(rounds) * u64::from(fanout);
    assert_eq!(
        metrics.counter_value("faas.start.fork"),
        expected,
        "every branch must be a fork start"
    );
    let billing = faas.billing();
    let end = simcore::SimTime::ZERO + Duration::from_millis(260) * rounds;
    let pricing = FaasConfig::default().pricing;
    let snapshot_gb_s = billing.snapshot_gb_seconds(end);
    let cost = billing.cost(pricing) + billing.snapshot_cost(pricing, end);
    (metrics, billing.gb_seconds(), billing.idle_gb_seconds().max(0.0), snapshot_gb_s, cost)
}

/// `(slower, faster, margin)`: `faster`'s mean start must be at most
/// `slower`'s divided by `margin` (observed 7.1x and 9.1x).
const CLAIMS: [(&str, &str, f64); 2] = [("classic", "snapshot", 4.0), ("snapshot", "fork", 2.0)];

/// The claims `coldstart` holds; `Err` names the first broken one.
pub fn check(modes: &[ModeStats]) -> Result<(), String> {
    for m in modes {
        claim!(m.starts > 0, "tier {} paid no starts", m.name);
    }
    let mean = |name: &str| {
        let mode = modes.iter().find(|m| m.name == name).ok_or(format!("mode {name} missing"));
        mode.map(|m| m.mean_start_ms)
    };
    for (slower, faster, margin) in CLAIMS {
        let (s, f) = (mean(slower)?, mean(faster)?);
        claim!(
            f * margin <= s,
            "{faster} ({f:.1} ms mean start) does not undercut {slower} ({s:.1} ms) by {margin}x"
        );
    }
    Ok(())
}

/// Runs the three-tier comparison, holds the claims, renders the table
/// and `BENCH_coldstart.json`.
pub fn coldstart(scale: Scale) -> (Table, OutFile) {
    let cfg = elastic_cfg(scale);
    let classic = run_elastic(&cfg);
    let snap = run_elastic(&ElasticConfig { faas: snapshot_faas(), ..cfg.clone() });
    let (fork_metrics, fork_gb, fork_idle, fork_snap_gb, fork_cost) = fork_bench(scale);

    // Tier mechanics (ci runs this target as the coldstart smoke).
    let classic_hist = classic.metrics.histogram("faas.start.classic");
    let restore_hist = snap.metrics.histogram("faas.start.restore");
    let fork_hist = fork_metrics.histogram("faas.start.fork");
    assert_eq!(
        classic.metrics.counter_value("faas.start.restore"),
        0,
        "classic run must never restore"
    );
    assert!(snap.snapshot_gb_seconds > 0.0, "snapshot storage must be billed");
    // The control-plane side of the trade: expensive classic starts buy
    // provisioned floors, cheap restores do not.
    assert!(
        classic.decision_log.contains("prewarm"),
        "classic starts must buy floors:\n{}",
        classic.decision_log
    );
    assert!(
        !snap.decision_log.contains("prewarm"),
        "restores under the floor threshold must not buy floors:\n{}",
        snap.decision_log
    );
    let elastic_mode = |name: &'static str, hist: &LatencyStats, r: &ElasticReport| {
        mode_stats(
            name,
            hist,
            r.gb_seconds,
            r.idle_gb_seconds,
            r.snapshot_gb_seconds,
            r.faas_cost_usd,
        )
    };
    let modes = vec![
        elastic_mode("classic", &classic_hist, &classic),
        elastic_mode("snapshot", &restore_hist, &snap),
        mode_stats("fork", &fork_hist, fork_gb, fork_idle, fork_snap_gb, fork_cost),
    ];
    check(&modes).unwrap_or_else(|broken| panic!("coldstart: {broken}"));

    let mut t = Table::new(
        "coldstart — start tiers: classic vs snapshot restore vs fork",
        &["Metric", "classic", "snapshot", "fork"],
    );
    let row = |t: &mut Table, label: &str, f: &dyn Fn(&ModeStats) -> String| {
        let cells: Vec<String> =
            std::iter::once(label.to_string()).chain(modes.iter().map(f)).collect();
        t.row(&cells);
    };
    row(&mut t, "starts", &|m| m.starts.to_string());
    row(&mut t, "mean start (ms)", &|m| format!("{:.1}", m.mean_start_ms));
    row(&mut t, "p50 / p90 / p99 (ms)", &|m| {
        format!("{:.0} / {:.0} / {:.0}", m.p50_ms, m.p90_ms, m.p99_ms)
    });
    row(&mut t, "GB-seconds (exec + idle)", &|m| {
        format!("{:.1} + {:.1}", m.gb_seconds, m.idle_gb_seconds)
    });
    row(&mut t, "snapshot GB-seconds", &|m| format!("{:.2}", m.snapshot_gb_seconds));
    row(&mut t, "FaaS cost", &|m| format!("${:.5}", m.faas_cost_usd));

    (t, ("BENCH_coldstart.json".into(), render_json(&cfg, &modes)))
}

fn render_json(cfg: &ElasticConfig, modes: &[ModeStats]) -> String {
    let mode_json = |m: &ModeStats| {
        let cdf = m.cdf_ms.iter().map(|v| format!("{v:.2}")).collect::<Vec<_>>().join(", ");
        format!(
            "{{\"name\": \"{}\", \"starts\": {}, \"mean_start_ms\": {:.3}, \
             \"p50_ms\": {:.3}, \"p90_ms\": {:.3}, \"p99_ms\": {:.3}, \"cdf_ms\": [{cdf}], \
             \"gb_seconds\": {:.3}, \"idle_gb_seconds\": {:.3}, \
             \"snapshot_gb_seconds\": {:.3}, \"faas_cost_usd\": {:.6}}}",
            m.name,
            m.starts,
            m.mean_start_ms,
            m.p50_ms,
            m.p90_ms,
            m.p99_ms,
            m.gb_seconds,
            m.idle_gb_seconds,
            m.snapshot_gb_seconds,
            m.faas_cost_usd,
        )
    };
    let body = modes.iter().map(mode_json).collect::<Vec<_>>().join(",\n    ");
    format!(
        "{{\n  \"bench\": \"coldstart\",\n  \"phase_secs\": {},\n  \"modes\": [\n    {body}\n  ]\n}}\n",
        cfg.phase.as_secs(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The three tiers with the given `(starts, mean start ms)`.
    fn modes(classic: (usize, f64), snapshot: (usize, f64), fork: (usize, f64)) -> Vec<ModeStats> {
        [("classic", classic), ("snapshot", snapshot), ("fork", fork)]
            .into_iter()
            .map(|(name, (starts, mean_start_ms))| ModeStats {
                name,
                starts,
                mean_start_ms,
                p50_ms: mean_start_ms,
                p90_ms: mean_start_ms,
                p99_ms: mean_start_ms,
                cdf_ms: vec![mean_start_ms; 10],
                gb_seconds: 10.0,
                idle_gb_seconds: 0.0,
                snapshot_gb_seconds: 0.0,
                faas_cost_usd: 0.01,
            })
            .collect()
    }

    #[test]
    fn check_holds_each_claim() {
        assert_eq!(check(&modes((80, 1512.7), (48, 212.4), (120, 23.4))), Ok(()));
        let err = check(&modes((80, 1512.7), (48, 600.0), (120, 23.4))).unwrap_err();
        assert!(err.contains("snapshot (600.0 ms mean start) does not undercut classic"), "{err}");
        let err = check(&modes((80, 1512.7), (48, 212.4), (120, 150.0))).unwrap_err();
        assert!(err.contains("fork (150.0 ms mean start) does not undercut snapshot"), "{err}");
        let err = check(&modes((80, 1512.7), (0, 0.0), (120, 23.4))).unwrap_err();
        assert!(err.contains("tier snapshot paid no starts"), "{err}");
    }
}
