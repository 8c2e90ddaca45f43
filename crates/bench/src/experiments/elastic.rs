//! `elastic` — the control-plane elasticity experiment: a 3× traffic ramp
//! served by an autoscaled DSO fleet vs the same fleet held static.
//!
//! Runs [`crucial_ml::elastic::run_elastic`] twice (autoscale on/off),
//! renders the comparison table, the autoscaled run's trace exports
//! `results/trace-elastic.{chrome.json,jsonl}` (reconcile/scale/drain
//! spans and shed instants included), and the headline numbers, exact in
//! virtual time and committed as `BENCH_elastic.json`. The run self-checks
//! the acceptance criteria: the autoscaler must scale out and drain at
//! least once, track ≥ 90% of offered load through the 3× phase, and the
//! admission controller must have shed under the ramp.

use std::time::Duration;

use simcore::Tracer;

use crucial_ml::elastic::{run_elastic, run_elastic_with, ElasticConfig, ElasticReport};

use super::traced::trace_exports;
use super::{OutFile, Scale};
use crate::report::Table;

fn config(scale: Scale) -> ElasticConfig {
    ElasticConfig {
        phase: scale.pick(Duration::from_secs(15), Duration::from_secs(60)),
        ..ElasticConfig::default()
    }
}

fn usd(v: f64) -> String {
    format!("${v:.5}")
}

/// Runs the comparison and renders the table and the output files. Returns
/// the autoscaled run's report beside them.
pub fn elastic(scale: Scale) -> (Table, ElasticReport, Vec<OutFile>) {
    let cfg = config(scale);
    let tracer = Tracer::new();
    let t2 = tracer.clone();
    let auto = run_elastic_with(&cfg, move |sim| sim.set_tracer(&t2));
    let stat = run_elastic(&ElasticConfig { autoscale: false, ..cfg.clone() });

    // Acceptance checks (ci runs this target as the elastic smoke).
    let auto_track = auto.peak_tracking(&cfg);
    let stat_track = stat.peak_tracking(&cfg);
    assert!(auto.scale_outs >= 1, "ramp must trigger a scale-out:\n{}", auto.decision_log);
    assert!(auto.drains >= 1, "ramp-down must trigger a drain:\n{}", auto.decision_log);
    assert!(
        auto_track >= 0.9,
        "autoscaled fleet must track >=90% of offered load in the 3x phase, got {auto_track:.2}"
    );
    assert!(auto.shed > 0, "the ramp must trip admission control before the scale-out lands");
    let spans = tracer.spans();
    for name in ["ctl.reconcile", "ctl.scale_out", "ctl.drain", "dso.shed"] {
        assert!(spans.iter().any(|s| s.name == name), "span {name} missing from the trace");
    }

    let phase = cfg.phase.as_secs();
    let mut t = Table::new(
        "elastic — 3x ramp: autoscaled vs static DSO fleet",
        &["Metric", "Autoscaled", "Static"],
    );
    t.row(&[
        "offered 1x / 3x (inf/s)".into(),
        format!("{:.0} / {:.0}", auto.offered.0, auto.offered.1),
        format!("{:.0} / {:.0}", stat.offered.0, stat.offered.1),
    ]);
    t.row(&[
        "delivered, 3x tail (inf/s)".into(),
        format!("{:.0}", auto.mean_rate(2 * phase - phase * 2 / 5, 2 * phase)),
        format!("{:.0}", stat.mean_rate(2 * phase - phase * 2 / 5, 2 * phase)),
    ]);
    t.row(&[
        "peak tracking".into(),
        format!("{:.0}%", auto_track * 100.0),
        format!("{:.0}%", stat_track * 100.0),
    ]);
    t.row(&["completed inferences".into(), auto.total.to_string(), stat.total.to_string()]);
    t.row(&[
        "scale-outs / drains".into(),
        format!("{} / {}", auto.scale_outs, auto.drains),
        "0 / 0".into(),
    ]);
    t.row(&["requests shed".into(), auto.shed.to_string(), stat.shed.to_string()]);
    t.row(&[
        "node-seconds".into(),
        format!("{:.0}", auto.node_seconds),
        format!("{:.0}", stat.node_seconds),
    ]);
    t.row(&[
        "FaaS GB-seconds (exec + idle)".into(),
        format!("{:.1} + {:.1}", auto.gb_seconds, auto.idle_gb_seconds),
        format!("{:.1} + {:.1}", stat.gb_seconds, stat.idle_gb_seconds),
    ]);
    t.row(&["FaaS cost".into(), usd(auto.faas_cost_usd), usd(stat.faas_cost_usd)]);
    t.row(&["DSO node cost".into(), usd(auto.node_cost_usd), usd(stat.node_cost_usd)]);
    t.row(&[
        "total cost".into(),
        usd(auto.faas_cost_usd + auto.node_cost_usd),
        usd(stat.faas_cost_usd + stat.node_cost_usd),
    ]);

    let mut files = Vec::from(trace_exports("elastic", &tracer));
    let json = render_json(&cfg, &auto, &stat, auto_track, stat_track);
    files.push(("BENCH_elastic.json".into(), json));
    (t, auto, files)
}

fn render_json(
    cfg: &ElasticConfig,
    auto: &ElasticReport,
    stat: &ElasticReport,
    auto_track: f64,
    stat_track: f64,
) -> String {
    let side =
        |r: &ElasticReport, track: f64| {
            format!(
            "{{\"peak_tracking\": {track:.3}, \"total\": {}, \"scale_outs\": {}, \"drains\": {}, \
             \"shed\": {}, \"node_seconds\": {:.1}, \"gb_seconds\": {:.2}, \
             \"faas_cost_usd\": {:.6}, \"node_cost_usd\": {:.6}}}",
            r.total, r.scale_outs, r.drains, r.shed, r.node_seconds, r.gb_seconds,
            r.faas_cost_usd, r.node_cost_usd,
        )
        };
    format!(
        "{{\n  \"bench\": \"elastic\",\n  \"offered_peak_per_s\": {:.1},\n  \"phase_secs\": {},\n  \
         \"autoscaled\": {},\n  \"static\": {}\n}}\n",
        auto.offered.1,
        cfg.phase.as_secs(),
        side(auto, auto_track),
        side(stat, stat_track),
    )
}
