//! CI gate: runs the interprocedural determinism/purity/wait analyses
//! (`simcheck::analyze`) over every `.rs` file under `crates/`. Exits
//! non-zero when any finding survives.
//!
//! Usage:
//! `cargo run -p simcheck --bin simanalyze [-- [--readonly-report PATH] [<root>]]`
//!
//! - `--readonly-report PATH` writes the proven-pure readonly method
//!   report (one `Type method` per line); the DSO runtime loads it via
//!   `DsoConfig::pure_methods` to skip snapshot verification for proven
//!   methods.
//! - `<root>` defaults to the workspace root (the current directory if
//!   it contains `crates/`, otherwise two levels above this crate's
//!   manifest).

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    report: Option<PathBuf>,
    root: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut report = None;
    let mut root = None;
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--readonly-report" => {
                let p = argv.next().ok_or("--readonly-report needs a path")?;
                report = Some(PathBuf::from(p));
            }
            _ if a.starts_with("--") => return Err(format!("unknown flag {a}")),
            _ => root = Some(PathBuf::from(a)),
        }
    }
    let root = root.unwrap_or_else(|| {
        let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
        if cwd.join("crates").is_dir() {
            cwd
        } else {
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
        }
    });
    Ok(Args { report, root })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simanalyze: {e}");
            return ExitCode::FAILURE;
        }
    };
    let root = args.root.join("crates");
    let analysis = match simcheck::analyze::analyze_tree(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simanalyze: cannot walk {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.report {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(path, analysis.pure.to_text()) {
            eprintln!("simanalyze: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    for f in &analysis.findings {
        println!("{f}");
    }
    if analysis.findings.is_empty() {
        println!(
            "simanalyze: clean ({} proven-pure readonly methods)",
            analysis.pure.entries.len()
        );
        ExitCode::SUCCESS
    } else {
        println!("simanalyze: {} finding(s)", analysis.findings.len());
        ExitCode::FAILURE
    }
}
