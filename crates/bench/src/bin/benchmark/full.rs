//! The full run: every workload in its own pinned child process, timed
//! repeats interleaved across workloads so a noisy minute hits all alike,
//! then one traced pass and the layer microbenches; and the A/A mode that
//! runs two such sets and holds them to the benchmark's own bounds.

use std::process::Command;

use crate::json::{Metric, RunLine};
use crate::metrics::{Clock, EndToEnd, END_TO_END, PER_LAYER};
use crate::stats::{summarize, Summary};
use crate::workloads::NAMES;

/// What a full run does.
#[derive(Clone, Debug)]
pub struct FullSpec {
    pub seed: u64,
    /// Seconds each child measures for.
    pub seconds: f64,
    pub smoke: bool,
}

/// Timed runs per workload in a set.
pub const REPEATS: usize = 5;

/// One workload's results within a set.
pub struct WorkloadResult {
    pub timed: Vec<RunLine>,
    pub traced: RunLine,
}

/// One full set.
pub struct Set {
    /// A result per workload, in [`NAMES`] order.
    pub workloads: Vec<WorkloadResult>,
    /// The layer microbenches, which do not depend on the workload.
    pub layers: RunLine,
}

/// Runs this executable again with `args`, pinned by itself, and reads the
/// result off the last line it prints.
fn child(what: &str, args: &[&str]) -> Result<RunLine, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own executable: {e}"))?;
    // `output` waits for the child and collects both pipes.
    let out = Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| format!("cannot start the {what} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        return Err(format!("{what} child failed ({}):\n{stdout}{stderr}", out.status));
    }
    let last = stdout.lines().rev().find(|l| !l.trim().is_empty()).unwrap_or("");
    let line = RunLine::parse(last).map_err(|e| format!("{what} child printed no result: {e}"))?;
    if !line.correct {
        return Err(format!("{what} failed its output checks:\n{stdout}"));
    }
    Ok(line)
}

fn run_child(spec: &FullSpec, workload: &str, traced: bool) -> Result<RunLine, String> {
    let (seed, seconds) = (spec.seed.to_string(), spec.seconds.to_string());
    let mut args = vec!["--workload", workload, "--seed", &seed, "--seconds", &seconds];
    args.extend(["--trace", if traced { "1" } else { "0" }]);
    if spec.smoke {
        args.push("--smoke");
    }
    child(workload, &args)
}

/// Runs one set. Fails on the first child that cannot be trusted.
pub fn run_set(spec: &FullSpec) -> Result<Set, String> {
    let mut timed: Vec<Vec<RunLine>> = NAMES.iter().map(|_| Vec::new()).collect();
    for repeat in 0..REPEATS {
        for (w, name) in NAMES.iter().enumerate() {
            eprintln!("[{}/{REPEATS}] {name}", repeat + 1);
            timed[w].push(run_child(spec, name, false)?);
        }
    }
    let mut workloads = Vec::new();
    for (name, timed) in NAMES.iter().zip(timed) {
        eprintln!("[traced] {name}");
        workloads.push(WorkloadResult { timed, traced: run_child(spec, name, true)? });
    }
    eprintln!("[layers]");
    Ok(Set { workloads, layers: child("layers", &["layers"])? })
}

/// What the set measured of one end-to-end metric on one workload: a value
/// per timed run, or the traced pass's one value where the timed runs do
/// not print the metric.
fn values(result: &WorkloadResult, metric: &EndToEnd) -> Vec<f64> {
    match metric.across_seeds {
        Some(_) => result.timed.iter().filter_map(|l| l.metric(metric.name)).collect(),
        None => result.traced.metric(metric.name).into_iter().collect(),
    }
}

/// How one end-to-end metric of one workload came out over the repeats.
#[derive(Debug, PartialEq)]
pub enum Status {
    /// Host metric whose spread is inside its bound.
    Steady,
    /// Host metric whose spread exceeds its bound: it can show neither a
    /// gain nor the absence of a regression.
    Unresolved,
    /// Virtual metric that read the same on every repeat.
    Exact,
    /// Virtual metric that did not: the simulation is not deterministic.
    NotExact,
}

pub fn status(metric: &EndToEnd, values: &[f64], summary: &Summary) -> Status {
    match metric.clock {
        Clock::Virtual if values.windows(2).all(|w| w[0] == w[1]) => Status::Exact,
        Clock::Virtual => Status::NotExact,
        Clock::Host => {
            let spread = summary.q3 - summary.q1;
            if summary.iqr_share() <= metric.bound || spread <= metric.floor {
                Status::Steady
            } else {
                Status::Unresolved
            }
        }
    }
}

/// Prints a set; returns whether every virtual metric was exact and every
/// host metric steady.
pub fn report(set: &Set) -> bool {
    let mut ok = true;
    for (name, result) in NAMES.iter().zip(&set.workloads) {
        println!("\n== {name} ({} timed runs)", result.timed.len());
        println!(
            "  {:<18} {:>14} {:>14} {:>14} {:>9} {:>6}  {:<5} {:<6} status",
            "end-to-end", "median", "q1", "q3", "iqr", "bound", "unit", "better"
        );
        for metric in &END_TO_END {
            let v = values(result, metric);
            // Not this workload's to report: no latency samples, no bill,
            // no crash. No failed op is a result.
            if metric.across_seeds.is_none() && v == [0.0] && metric.name != "failed_op_share" {
                continue;
            }
            let s = summarize(&v);
            let st = status(metric, &v, &s);
            ok &= matches!(st, Status::Steady | Status::Exact);
            println!(
                "  {:<18} {:>14.6} {:>14.6} {:>14.6} {:>8.2}% {:>5.0}%  {:<5} {:<6} {}",
                metric.name,
                s.median,
                s.q1,
                s.q3,
                s.iqr_share() * 100.0,
                metric.bound * 100.0,
                metric.unit,
                if metric.higher_is_better { "higher" } else { "lower" },
                match st {
                    Status::Steady => "ok",
                    Status::Unresolved => "unresolved",
                    Status::Exact => "exact",
                    Status::NotExact => "NOT EXACT",
                },
            );
        }
        println!("  per layer (traced pass; 0 where the layer did no work is left out)");
        let layer = |m: &&Metric| m.value != 0.0 && END_TO_END.iter().all(|e| e.name != m.name);
        for m in result.traced.metrics.iter().filter(layer) {
            println!("{}", crate::run::show(m));
        }
    }
    println!("\n== layers (host microbenches, the same for every workload)");
    for m in &set.layers.metrics {
        println!("{}", crate::run::show(m));
    }
    ok
}

/// Holds two sets of one seed to the benchmark's own bounds; prints every
/// disagreement and returns whether there was none. The layer microbenches
/// are ceilings, not results: they are printed and not compared.
pub fn agree(a: &Set, b: &Set) -> bool {
    let mut ok = true;
    let mut differ = |what: String| {
        println!("A/A DISAGREE: {what}");
        ok = false;
    };
    for ((name, ra), rb) in NAMES.iter().zip(&a.workloads).zip(&b.workloads) {
        for metric in &END_TO_END {
            let (ma, mb) =
                (summarize(&values(ra, metric)).median, summarize(&values(rb, metric)).median);
            match metric.clock {
                Clock::Virtual if ma != mb => {
                    differ(format!("{name} {}: {ma:?} vs {mb:?}", metric.name))
                }
                Clock::Virtual => {}
                Clock::Host => {
                    let gap = (ma - mb).abs();
                    if gap > metric.bound * ma.min(mb) && gap > metric.floor {
                        differ(format!(
                            "{name} {}: medians {ma:.6} vs {mb:.6} {} differ by more than {:.0}%",
                            metric.name,
                            metric.unit,
                            metric.bound * 100.0
                        ));
                    }
                }
            }
        }
        for (layer, _, _) in PER_LAYER.iter().filter(|m| m.2 == Clock::Virtual) {
            let (va, vb) = (ra.traced.metric(layer), rb.traced.metric(layer));
            if va != vb {
                differ(format!("{name} {layer}: {va:?} vs {vb:?}"));
            }
        }
        if (ra.traced.attempted, ra.traced.failed) != (rb.traced.attempted, rb.traced.failed) {
            differ(format!("{name}: attempted/failed counts differ"));
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workload's result whose every host metric read `host` on the
    /// timed runs and whose every virtual metric read `sim` everywhere.
    fn result(host: &[f64], sim: f64) -> WorkloadResult {
        let line = |h: f64, timed: bool| RunLine {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: END_TO_END
                .iter()
                .filter(|m| m.across_seeds.is_some() == timed)
                .map(|m| Metric::new(m.name, if m.clock == Clock::Host { h } else { sim }, m.unit))
                .collect(),
        };
        WorkloadResult {
            timed: host.iter().map(|&h| line(h, true)).collect(),
            traced: line(0.0, false),
        }
    }

    fn set(host: &[f64], sim: f64) -> Set {
        Set {
            workloads: NAMES.iter().map(|_| result(host, sim)).collect(),
            layers: RunLine { correct: true, attempted: 0, failed: 0, metrics: vec![] },
        }
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_a_pass() {
        let wall = END_TO_END.iter().find(|m| m.name == "host_wall_s").expect("listed");
        let steady = [1.00, 1.01, 1.02, 1.01, 1.00];
        assert_eq!(status(wall, &steady, &summarize(&steady)), Status::Steady);
        let noisy = [1.0, 1.4, 0.8, 1.3, 1.0];
        assert_eq!(status(wall, &noisy, &summarize(&noisy)), Status::Unresolved);
        // A 3 ms set-up that doubles is still inside the absolute floor.
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("listed");
        let tiny = [0.003, 0.006, 0.003, 0.005, 0.004];
        assert_eq!(status(setup, &tiny, &summarize(&tiny)), Status::Steady);
        let sim = END_TO_END.iter().find(|m| m.clock == Clock::Virtual).expect("listed");
        assert_eq!(status(sim, &[2.5, 2.5, 2.5], &summarize(&[2.5; 3])), Status::Exact);
        assert_eq!(status(sim, &[2.5, 2.5, 2.6], &summarize(&[2.5; 3])), Status::NotExact);
    }

    #[test]
    fn two_sets_agree_within_bounds_or_are_called_out() {
        assert!(agree(&set(&[1.0, 1.02, 1.01], 7.0), &set(&[1.05, 1.03, 1.04], 7.0)));
        assert!(!agree(&set(&[1.0, 1.02, 1.01], 7.0), &set(&[1.15, 1.15, 1.15], 7.0)));
        // The traced pass's p50, cost and recovery time are held to the
        // same digits as the timed runs' throughput and makespan.
        assert!(!agree(&set(&[1.0], 7.0), &set(&[1.0], 7.000001)));
        let mut moved = set(&[1.0], 7.0);
        moved.workloads[5].traced.metrics.retain(|m| m.name != "sim_recovery_s");
        moved.workloads[5].traced.metrics.push(Metric::new("sim_recovery_s", 7.05, "vs"));
        assert!(!agree(&set(&[1.0], 7.0), &moved));
    }
}
