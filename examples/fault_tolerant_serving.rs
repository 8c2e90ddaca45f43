//! Persistent state under failures (§6.4, Fig. 8): a replicated k-means
//! model serves inferences while a storage node crashes and a fresh one
//! joins.
//!
//! ```sh
//! cargo run --release --example fault_tolerant_serving
//! ```

use std::time::Duration;

use crucial_ml::inference::{run_inference_serving, InferenceConfig};

fn main() {
    let cfg = InferenceConfig {
        seed: 3,
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
    };
    println!(
        "serving a {}-centroid model (rf = {}) from {} DSO nodes with {} functions;",
        cfg.centroids, cfg.rf, cfg.dso_nodes, cfg.threads
    );
    println!("crash at t = 12 s, fresh node joins at t = 24 s\n");

    let report = run_inference_serving(&cfg);
    let peak = report.per_second.iter().map(|(_, n)| *n).max().unwrap_or(1).max(1);
    for (s, n) in &report.per_second {
        let bar = "#".repeat((n * 50 / peak) as usize);
        let marker = match *s {
            12 => "  <- node crash",
            24 => "  <- node joins",
            _ => "",
        };
        println!("t={s:>3}s {n:>7}/s |{bar}{marker}");
    }
    println!(
        "\nsteady {:.0}/s, after crash {:.0}/s, after join {:.0}/s (paper: −30% after the crash, restored after the join)",
        report.mean_rate(6, 12),
        report.mean_rate(15, 24),
        report.mean_rate(30, 36),
    );
}
