//! The experiment runner: regenerates every table and figure of the
//! paper's evaluation.
//!
//! ```text
//! experiments <target> [--paper]
//!
//! targets: table2 fig2a fig2b fig3 fig4 fig5 table3 fig6 fig7a fig7b
//!          fig7c fig8 table4 ablate-rf ablate-workers ablate-barrier
//!          consistency-ablate trace-pi trace-kmeans elastic coldstart
//!          recovery kernel-bench all
//! ```
//!
//! `--paper` switches to the paper's full parameters (much slower).
//!
//! The gated targets (`kernel-bench`, `consistency-ablate`, `coldstart`,
//! `recovery`, `elastic`) hold their own claims and panic when one breaks.
//! This binary is the only writer of output files (`BENCH_*.json`,
//! `results/trace-*`), relative to the working directory; a failed write
//! exits 1.

use bench::experiments::{
    ablate, coldstart, consistency, elastic, kernelbench, micro, ml, recovery, state, sync, traced,
    OutFile, Scale,
};
use bench::Table;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--paper") { Scale::Paper } else { Scale::Quick };
    let target = args.iter().find(|a| !a.starts_with("--")).cloned().unwrap_or_else(|| {
        eprintln!("usage: experiments <target> [--paper]");
        eprintln!(
            "targets: table2 fig2a fig2b fig3 fig4 fig5 table3 fig6 fig7a \
                 fig7b fig7c fig8 table4 ablate-rf ablate-workers ablate-barrier \
                 consistency-ablate trace-pi trace-kmeans elastic coldstart \
                 recovery kernel-bench all"
        );
        std::process::exit(2);
    });
    run(&target, scale);
}

/// Writes what an experiment rendered; a stale file must not outlive a
/// failed write, so an error ends the run.
fn write(files: &[OutFile]) {
    for (path, contents) in files {
        let dir = std::path::Path::new(path).parent().expect("a file path has a parent");
        let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(path, contents));
        if let Err(e) = written {
            eprintln!("could not write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
}

/// Prints a gated experiment's table and writes its `BENCH_*.json`.
fn emit((table, file): (Table, OutFile)) {
    table.print();
    write(&[file]);
}

fn run(target: &str, scale: Scale) {
    // simlint: allow(wall-clock, reason = "operator-facing host runtime of the bench driver, not simulated time")
    let t0 = std::time::Instant::now();
    match target {
        "table2" => micro::table2(scale).0.print(),
        "fig2a" => micro::fig2a(scale).0.print(),
        "fig2b" => micro::fig2b(scale).0.print(),
        "fig3" => ml::fig3(scale).0.print(),
        "fig4" => {
            let (t, r) = ml::fig4(scale);
            t.print();
            ml::fig4b_table(&r).print();
        }
        "fig5" => ml::fig5(scale).0.print(),
        "table3" => ml::table3(scale).print(),
        "fig6" => sync::fig6(scale).0.print(),
        "fig7a" => sync::fig7a(scale).0.print(),
        "fig7b" => sync::fig7b(scale).print(),
        "fig7c" => sync::fig7c(scale).0.print(),
        "fig8" => {
            let (t, series) = state::fig8(scale);
            t.print();
            println!("\nper-second series (t, inferences/s):");
            for (s, n) in &series {
                println!("  {s:>4}s  {n}");
            }
        }
        "table4" => state::table4().print(),
        "ablate-rf" => ablate::ablate_rf(scale).0.print(),
        "ablate-workers" => ablate::ablate_workers(scale).0.print(),
        "ablate-barrier" => ablate::ablate_barrier(scale).0.print(),
        "consistency-ablate" => emit(consistency::consistency_ablate(scale)),
        "trace-pi" => write(&traced::trace_pi(scale)),
        "trace-kmeans" => write(&traced::trace_kmeans(scale)),
        "kernel-bench" => kernelbench::kernel_bench(scale).print(),
        "coldstart" => emit(coldstart::coldstart(scale)),
        "recovery" => emit(recovery::recovery(scale)),
        "elastic" => {
            let (t, auto, files) = elastic::elastic(scale);
            t.print();
            write(&files);
            println!("\ncontrol-plane decisions:");
            for line in auto.decision_log.lines() {
                println!("  {line}");
            }
        }
        "all" => {
            for t in [
                "table2",
                "fig2a",
                "fig2b",
                "fig3",
                "fig4",
                "fig5",
                "table3",
                "fig6",
                "fig7a",
                "fig7b",
                "fig7c",
                "fig8",
                "table4",
                "ablate-rf",
                "ablate-workers",
                "ablate-barrier",
            ] {
                run(t, scale);
            }
            return;
        }
        other => {
            eprintln!("unknown target: {other}");
            std::process::exit(2);
        }
    }
    eprintln!("[{target} finished in {:.1?}]", t0.elapsed());
}
