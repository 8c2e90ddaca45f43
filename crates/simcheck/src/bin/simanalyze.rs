//! CI gate: runs the interprocedural determinism/wait analyses
//! (`simcheck::analyze`) over every `.rs` file under `crates/`. Exits
//! non-zero when any finding survives.
//!
//! Usage: `cargo run -p simcheck --bin simanalyze [-- <root>]`
//!
//! `<root>` defaults to the workspace root (the current directory if it
//! contains `crates/`, otherwise two levels above this crate's manifest).

use std::path::PathBuf;
use std::process::ExitCode;

fn workspace_root() -> PathBuf {
    if let Some(arg) = std::env::args().nth(1) {
        return PathBuf::from(arg);
    }
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    if cwd.join("crates").is_dir() {
        return cwd;
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn main() -> ExitCode {
    let root = workspace_root().join("crates");
    let findings = match simcheck::analyze::analyze_tree(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("simanalyze: cannot walk {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        println!("simanalyze: clean");
        ExitCode::SUCCESS
    } else {
        println!("simanalyze: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}
