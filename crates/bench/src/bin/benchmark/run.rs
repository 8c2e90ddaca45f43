//! One pinned run of one workload: repeat the simulation for the asked
//! number of seconds, check it, and reduce the repeats to one result line.

use std::path::PathBuf;

use crate::json::{Metric, RunLine};
use crate::metrics::{end_to_end, per_layer, HostLayer, FAILED_OP_SHARE_MAX};
use crate::procfs;
use crate::stats::median;
use crate::workloads::{self, Observe, Rep, Scale};

/// What to run.
#[derive(Clone, Debug)]
pub struct RunSpec {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub scale: Scale,
}

/// A finished run: the result line, and the lines printed before it.
pub struct RunReport {
    pub line: RunLine,
    pub notes: Vec<String>,
}

/// Host seconds since `since`.
// simlint: allow(wall-clock, reason = "the run length is host time by definition")
fn elapsed_s(since: std::time::Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Where the traced pass writes its spans: under the build directory, so
/// it stays inside the checkout and out of version control.
fn trace_path(workload: &str) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    target.join("benchmark").join(format!("trace-{workload}.jsonl"))
}

/// Folds the repeats' check failures and the determinism check into notes;
/// returns whether the run is correct.
fn verdict(reps: &[&Rep], notes: &mut Vec<String>) -> bool {
    let mut correct = true;
    for (i, rep) in reps.iter().enumerate() {
        for failure in &rep.check_failures {
            notes.push(format!("CHECK FAILED (repeat {i}): {failure}"));
            correct = false;
        }
    }
    // The workloads are sized so that no op fails; the seed is the same on
    // every repeat, so the first speaks for all.
    let (failed, attempted, share) = (reps[0].failed, reps[0].attempted, reps[0].failed_op_share());
    if share > FAILED_OP_SHARE_MAX {
        notes.push(format!(
            "CHECK FAILED: {failed} of {attempted} ops failed, more than {FAILED_OP_SHARE_MAX} of them"
        ));
        correct = false;
    }
    // Same seed, same inputs: every virtual-time figure and count must
    // repeat exactly, traced or not.
    let first = reps[0].fingerprint();
    for (i, rep) in reps.iter().enumerate().skip(1) {
        let fp = rep.fingerprint();
        if fp != first {
            notes.push(format!(
                "CHECK FAILED: repeat {i} is not repeat 0\n  0: {first}\n  {i}: {fp}"
            ));
            correct = false;
        }
    }
    correct
}

/// Runs the spec. `Err` means no host number can be trusted (unknown
/// workload, or the process could not be pinned), and nothing is printed.
pub fn run(spec: &RunSpec) -> Result<RunReport, String> {
    if !workloads::NAMES.contains(&spec.workload.as_str()) {
        return Err(format!("unknown workload {:?}; one of {:?}", spec.workload, workloads::NAMES));
    }
    let cpu = procfs::pin_to_one_cpu()
        .map_err(|e| format!("not pinned, so host timings would be noise: {e}"))?;
    // simlint: allow(wall-clock, reason = "the run length is host time by definition")
    let t0 = std::time::Instant::now();
    let mut notes = vec![format!(
        "workload={} seed={} seconds={} traced={} pinned_cpu={cpu}",
        spec.workload, spec.seed, spec.seconds, spec.traced
    )];
    let sim = |obs: &Observe| {
        workloads::run(&spec.workload, spec.seed, spec.scale, obs).expect("workload name checked")
    };

    if !spec.traced {
        // Peak memory of one simulation: read after the first, because the
        // allocator keeps what later repeats free and the number of
        // repeats depends on the host's speed.
        let mut reps = vec![sim(&Observe::default())];
        let rss = procfs::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
        while elapsed_s(t0) < spec.seconds {
            reps.push(sim(&Observe::default()));
        }
        let correct = verdict(&reps.iter().collect::<Vec<_>>(), &mut notes);
        let metrics = end_to_end(&reps, rss);
        notes.push(format!("repeats={} ops_per_repeat={}", reps.len(), reps[0].ops));
        let each = |f: fn(&Rep) -> std::time::Duration| {
            reps.iter().map(|r| format!("{:.4}", f(r).as_secs_f64())).collect::<Vec<_>>().join(" ")
        };
        notes.push(format!("walls_s={}", each(|r| r.host.wall)));
        notes.push(format!("setups_s={}", each(|r| r.host.setup)));
        let (attempted, failed) = (reps[0].attempted, reps[0].failed);
        return Ok(RunReport { line: RunLine { correct, attempted, failed, metrics }, notes });
    }

    // Traced pass: untraced and traced simulations alternating, so both
    // see the same host conditions. The first traced one supplies the
    // spans and counters.
    let probe = Observe { tracing: None, host_counters: true };
    let mut untraced: Vec<Rep> = Vec::new();
    let mut traced_walls: Vec<f64> = Vec::new();
    let mut first_traced: Option<(Rep, Observe)> = None;
    while first_traced.is_none() || elapsed_s(t0) < spec.seconds {
        untraced.push(sim(&probe));
        let obs = Observe::traced();
        let rep = sim(&obs);
        traced_walls.push(rep.host.wall.as_secs_f64());
        first_traced.get_or_insert((rep, obs));
    }
    let (traced, obs) = first_traced.expect("the loop ran once");
    let (tracer, registry) = obs.tracing.expect("Observe::traced installs both");
    let mut all: Vec<&Rep> = untraced.iter().collect();
    all.push(&traced);
    let correct = verdict(&all, &mut notes);

    let counters = |f: fn(&procfs::HostCounters) -> u64| {
        median(
            &untraced
                .iter()
                .filter_map(|r| r.host.counters.as_ref().map(|c| f(c) as f64))
                .collect::<Vec<_>>(),
        )
    };
    let host = HostLayer {
        untraced_wall_s: median(
            &untraced.iter().map(|r| r.host.wall.as_secs_f64()).collect::<Vec<_>>(),
        ),
        traced_wall_s: median(&traced_walls),
        handoffs: counters(|c| c.voluntary_switches),
        utime: counters(|c| c.utime),
        stime: counters(|c| c.stime),
        pinned_cpu: cpu,
    };
    let spans = tracer.spans();
    let (metrics, self_times) = per_layer(&traced, &spans, &registry, &host);
    notes.push(format!(
        "repeats={}x2 spans={} op root span={}",
        untraced.len(),
        spans.len(),
        traced.root_span
    ));
    notes.extend(self_times);
    let path = trace_path(&spec.workload);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, tracer.export_jsonl()));
    match written {
        Ok(()) => notes.push(format!("wrote {}", path.display())),
        // The spans are a by-product; the metrics above do not need the file.
        Err(e) => notes.push(format!("could not write {}: {e}", path.display())),
    }
    let (attempted, failed) = (traced.attempted, traced.failed);
    Ok(RunReport { line: RunLine { correct, attempted, failed, metrics }, notes })
}

/// Renders a metric for the human-readable lines.
pub fn show(m: &Metric) -> String {
    format!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit)
}
