//! The repository's benchmark: six seeded workloads over the whole stack,
//! each reporting what the modelled system does in virtual time and what
//! the simulator costs in host time, end to end and per layer. See
//! `README.md` beside this file and `BENCHMARK.json` at the repository
//! root.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one pinned run; the last line of output is the result as JSON
//! benchmark [--seed <n>] [--seconds <s>] [--aa]
//!     the full run: every workload in a pinned child, five timed runs
//!     each, interleaved, then a traced pass and the layer microbenches;
//!     --aa runs two sets and fails unless they agree within the
//!     benchmark's own bounds
//! benchmark layers
//!     the per-layer host microbenches alone
//! ```
//!
//! `--smoke` shrinks every workload to test size.

use std::process::ExitCode;

mod full;
mod json;
mod layers;
mod metrics;
mod procfs;
mod run;
mod spans;
mod stats;
mod workloads;

use full::FullSpec;
use run::RunSpec;
use workloads::Scale;

/// Parsed command line.
#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    aa: bool,
    layers: bool,
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let mut argv = argv.into_iter();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        fn num<T: std::str::FromStr>(flag: &str, text: String) -> Result<T, String> {
            text.parse().map_err(|_| format!("{flag}: cannot read {text:?}"))
        }
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => args.seed = Some(num(&flag, value("a number")?)?),
            "--seconds" => {
                let s: f64 = num(&flag, value("a number of seconds")?)?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds: {s} is not a run length"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
                })
            }
            "--smoke" => args.smoke = true,
            "--aa" => args.aa = true,
            "layers" => args.layers = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn one_run(args: &Args, workload: &str) -> Result<bool, String> {
    let spec = RunSpec {
        workload: workload.to_string(),
        seed: args.seed.unwrap_or(1),
        seconds: args.seconds.unwrap_or(10.0),
        traced: args.trace.unwrap_or(false),
        scale: if args.smoke { Scale::Smoke } else { Scale::Full },
    };
    let report = run::run(&spec)?;
    for note in &report.notes {
        println!("{note}");
    }
    for m in &report.line.metrics {
        println!("{}", run::show(m));
    }
    println!("{}", report.line.to_json());
    Ok(report.line.correct)
}

fn full_run(args: &Args) -> Result<bool, String> {
    let spec = FullSpec {
        seed: args.seed.unwrap_or(1),
        seconds: args.seconds.unwrap_or(if args.smoke { 0.0 } else { 6.0 }),
        smoke: args.smoke,
    };
    println!(
        "benchmark: seed {} · {} timed runs x {} workloads · {} s each",
        spec.seed,
        full::REPEATS,
        workloads::NAMES.len(),
        spec.seconds
    );
    let a = full::run_set(&spec)?;
    let mut ok = full::report(&a);
    if args.aa {
        println!("\n#### A/A: second set");
        let b = full::run_set(&spec)?;
        ok &= full::report(&b);
        let same = full::agree(&a, &b);
        println!("\nA/A: {}", if same && ok { "the two sets agree" } else { "FAILED" });
        ok &= same;
    }
    Ok(ok)
}

/// The layer microbenches, printed like a run: the last line is the JSON
/// the full run reads back.
fn layers_only() -> Result<bool, String> {
    let cpu = procfs::pin_to_one_cpu()
        .map_err(|e| format!("not pinned, so host timings would be noise: {e}"))?;
    println!("layers: pinned_cpu={cpu}, min of 7 batches of >= 50 ms each");
    let metrics = layers::run();
    for m in &metrics {
        println!("{}", run::show(m));
    }
    let line = json::RunLine { correct: true, attempted: metrics.len() as u64, failed: 0, metrics };
    println!("{}", line.to_json());
    Ok(true)
}

fn main() -> ExitCode {
    let outcome = parse_args(std::env::args().skip(1)).and_then(|args| match &args.workload {
        Some(workload) => one_run(&args, workload),
        None if args.layers => layers_only(),
        None => full_run(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Result<Args, String> {
        parse_args(text.split_whitespace().map(str::to_string))
    }

    #[test]
    fn the_contract_command_line_parses() {
        let a = args("--workload dso_read_hot --seed 42 --seconds 10 --trace 1").expect("valid");
        assert_eq!(a.workload.as_deref(), Some("dso_read_hot"));
        assert_eq!((a.seed, a.seconds, a.trace), (Some(42), Some(10.0), Some(true)));
        assert!(args("--trace 2").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--seconds -1").is_err());
        assert!(args("--frobnicate").is_err());
        assert!(args("layers").expect("valid").layers);
    }

    /// All six workloads at smoke size, output checks on, traced and not:
    /// the same seed must give the same simulation both ways.
    #[test]
    fn smoke_scale_drives_every_workload_and_tracing_does_not_perturb_it() {
        for name in workloads::NAMES {
            let plain = workloads::run(name, 7, Scale::Smoke, &workloads::Observe::default())
                .expect("known workload");
            assert_eq!(plain.check_failures, Vec::<String>::new(), "{name}");
            assert!(plain.ops > 0 && plain.attempted >= plain.ops, "{name}: {plain:?}");
            assert!(plain.sim_ops_per_s > 0.0 && plain.sim_makespan_s > 0.0, "{name}");
            let obs = workloads::Observe::traced();
            let traced = workloads::run(name, 7, Scale::Smoke, &obs).expect("known workload");
            assert_eq!(traced.fingerprint(), plain.fingerprint(), "{name}");
            let (tracer, registry) = obs.tracing.expect("traced");
            let host = metrics::HostLayer::default();
            let (layer, _) = metrics::per_layer(&traced, &tracer.spans(), &registry, &host);
            assert_eq!(layer.len(), metrics::traced_metrics().count());
            assert!(layer.iter().all(|m| m.value.is_finite()), "{name}: {layer:?}");
            let other = workloads::run(name, 8, Scale::Smoke, &workloads::Observe::default())
                .expect("known workload");
            assert_ne!(other.fingerprint(), plain.fingerprint(), "{name}: the seed must matter");
        }
        assert!(workloads::run("nope", 7, Scale::Smoke, &workloads::Observe::default()).is_none());
    }
}
