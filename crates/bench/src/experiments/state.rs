//! Persistent-state experiments: Fig. 8 (elastic, fault-tolerant serving)
//! and Table 4 (lines changed per ported application).

use std::time::Duration;

use crucial_apps::table4::table4 as port_reports;
use crucial_ml::inference::{run_inference_serving, InferenceConfig};

use super::Scale;
use crate::report::Table;

/// Runs Fig. 8: throughput over time with a node crash and a node join.
///
/// The quick scale shrinks everything proportionally (fewer threads and
/// centroids, fewer workers per storage node) so the tier stays the
/// bottleneck and the −30% crash dip remains visible.
pub fn fig8(scale: Scale) -> (Table, Vec<(u64, u64)>) {
    let cfg = match scale {
        Scale::Quick => InferenceConfig {
            seed: 81,
            threads: 24,
            centroids: 24,
            dims: 100,
            rf: 2,
            dso_nodes: 3,
            dso_workers_per_node: 1,
            duration: Duration::from_secs(36),
            crash_at: Some(Duration::from_secs(12)),
            add_at: Some(Duration::from_secs(24)),
            per_inference_compute: Duration::ZERO,
        },
        Scale::Paper => InferenceConfig {
            seed: 81,
            threads: 100,
            centroids: 200,
            dims: 100,
            rf: 2,
            dso_nodes: 3,
            dso_workers_per_node: 8,
            duration: Duration::from_secs(360),
            crash_at: Some(Duration::from_secs(120)),
            add_at: Some(Duration::from_secs(240)),
            per_inference_compute: Duration::ZERO,
        },
    };
    let crash_s = cfg.crash_at.expect("crash scheduled").as_secs();
    let add_s = cfg.add_at.expect("join scheduled").as_secs();
    let end_s = cfg.duration.as_secs();
    let report = run_inference_serving(&cfg);
    let before = report.mean_rate(crash_s / 2, crash_s);
    let during = report.mean_rate(crash_s + 3, add_s);
    let after = report.mean_rate(add_s + 6, end_s);
    let mut t = Table::new(
        "Fig. 8 — inference serving with a crash and a join (rf = 2)",
        &["Window", "Mean inferences/s", "Relative"],
    );
    t.row(&[format!("steady state (t < {crash_s}s)"), format!("{before:.0}"), "100%".to_string()]);
    t.row(&[
        format!("after crash ({}..{add_s}s)", crash_s + 3),
        format!("{during:.0}"),
        format!("{:.0}%", 100.0 * during / before.max(1e-9)),
    ]);
    t.row(&[
        format!("after join ({}..{end_s}s)", add_s + 6),
        format!("{after:.0}"),
        format!("{:.0}%", 100.0 * after / before.max(1e-9)),
    ]);
    t.row(&[
        "paper".to_string(),
        "490/s baseline; crash −30%; restored ~20 s after join".to_string(),
        String::new(),
    ]);
    (t, report.per_second)
}

/// Renders Table 4 from the marked regions of the applications' sources.
pub fn table4() -> Table {
    let reports = port_reports();
    let mut t = Table::new(
        "Table 4 — lines changed to port each application to Crucial",
        &["Application", "Total lines", "Changed lines", "Changed %", "paper (total/changed)"],
    );
    let paper = ["44 / 2", "430 / 10", "329 / 8", "255 / 15"];
    for (r, p) in reports.iter().zip(paper.iter()) {
        t.row(&[
            r.name.to_string(),
            r.total_lines.to_string(),
            r.changed_lines.to_string(),
            format!("{:.0}%", 100.0 * r.changed_fraction()),
            p.to_string(),
        ]);
    }
    t.note("Both versions are regions of the code that runs. Rust has no AspectJ weaving,");
    t.note("so handles and error plumbing are real lines (see EXPERIMENTS.md).");
    t
}
