//! `trace-pi` / `trace-kmeans` — run an application with the observability
//! subsystem installed and export its traces.
//!
//! Each run installs a [`Tracer`] and a [`MetricsRegistry`] on the fresh
//! `Sim` (via the `run_*_with` setup hooks), then renders
//!
//! * `results/trace-<app>.chrome.json` — Chrome trace-event JSON; open it
//!   in `chrome://tracing` / Perfetto to see the causal span tree
//!   (client `dso.call` → per-attempt `dso.attempt` → server `dso.exec`,
//!   with `dso.smr_round` children for replicated writes),
//! * `results/trace-<app>.jsonl` — one span per line with integer
//!   nanosecond timestamps, for scripted analysis,
//!
//! for the `experiments` binary to write, and prints a table of the
//! registry's counters. Everything is stamped with simulated time only, so
//! identical seeds produce byte-identical exports.

use simcore::{MetricsRegistry, Tracer};

use crucial_apps::pi::run_pi_crucial_with;
use crucial_ml::kmeans::{run_crucial_kmeans_with, KMeansConfig};

use super::{OutFile, Scale};
use crate::report::Table;

/// Counter names worth a row in the summary table, with labels.
const COUNTERS: &[(&str, &str)] = &[
    ("core.thread_starts", "cloud threads started"),
    ("core.thread_retries", "cloud-thread retries"),
    ("faas.invocations", "function invocations"),
    ("faas.cold_starts", "cold starts"),
    ("dso.invokes", "DSO calls"),
    ("dso.retries", "DSO retries"),
    ("dso.smr_rounds", "SMR rounds"),
    ("dso.view_changes", "view changes"),
];

fn summary_table(app: &str, reg: &MetricsRegistry, tracer: &Tracer) -> Table {
    let mut t = Table::new(&format!("{app} — observability summary"), &["Metric", "Value"]);
    for (name, label) in COUNTERS {
        t.row(&[label.to_string(), reg.counter_value(name).to_string()]);
    }
    t.row(&["spans recorded".to_string(), tracer.len().to_string()]);
    t
}

/// The two exports of `tracer`, as `results/trace-<app>.*`.
pub(super) fn trace_exports(app: &str, tracer: &Tracer) -> [OutFile; 2] {
    [
        (format!("results/trace-{app}.chrome.json"), tracer.export_chrome_json()),
        (format!("results/trace-{app}.jsonl"), tracer.export_jsonl()),
    ]
}

/// Traced π estimation (Listing 1): prints the metric counters of the run
/// and returns the trace exports.
pub fn trace_pi(scale: Scale) -> [OutFile; 2] {
    let threads = scale.pick(8, 200);
    let points = scale.pick(1_000_000, 100_000_000);
    let tracer = Tracer::new();
    let reg = MetricsRegistry::new();
    let (t2, r2) = (tracer.clone(), reg.clone());
    let r = run_pi_crucial_with(42, threads, points, move |sim| {
        sim.set_tracer(&t2);
        sim.set_metrics(&r2);
    });
    println!("pi ≈ {:.6} in {:?} of simulated time", r.estimate, r.duration);
    summary_table("pi", &reg, &tracer).print();
    trace_exports("pi", &tracer)
}

/// Traced k-means training (Listing 2): prints the metric counters of the
/// run and returns the trace exports.
pub fn trace_kmeans(scale: Scale) -> [OutFile; 2] {
    let cfg = KMeansConfig {
        seed: 42,
        workers: scale.pick(10, 80),
        iterations: scale.pick(3, 10),
        ..KMeansConfig::default()
    };
    let tracer = Tracer::new();
    let reg = MetricsRegistry::new();
    let (t2, r2) = (tracer.clone(), reg.clone());
    let r = run_crucial_kmeans_with(&cfg, move |sim| {
        sim.set_tracer(&t2);
        sim.set_metrics(&r2);
    });
    println!(
        "k-means: {} iterations in {:?} (total {:?})",
        r.sse_per_iteration.len(),
        r.iteration_phase,
        r.total
    );
    summary_table("kmeans", &reg, &tracer).print();
    trace_exports("kmeans", &tracer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_pi_produces_causal_spans() {
        let tracer = Tracer::new();
        let reg = MetricsRegistry::new();
        let (t2, r2) = (tracer.clone(), reg.clone());
        run_pi_crucial_with(7, 4, 100_000, move |sim| {
            sim.set_tracer(&t2);
            sim.set_metrics(&r2);
        });
        assert_eq!(reg.counter_value("core.thread_starts"), 4);
        assert_eq!(reg.counter_value("faas.invocations"), 4);
        assert!(reg.counter_value("dso.invokes") > 0);
        let spans = tracer.spans();
        assert!(spans.iter().any(|s| s.name == "cloud.thread"));
        assert!(spans.iter().any(|s| s.name == "faas.exec"));
        // Every faas.exec span hangs under a faas.invoke or cloud.thread.
        for s in spans.iter().filter(|s| s.name == "faas.exec") {
            assert!(!s.parent.is_none(), "faas.exec without a parent");
        }
    }
}
