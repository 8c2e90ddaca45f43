//! Meta-test: runs the linter over the fixture tree and asserts the exact
//! set of findings, including that reasoned allow directives are honored
//! and reasonless ones are not.

use std::path::Path;

use simcheck::{lint_tree, Rule};

#[test]
fn fixture_tree_yields_exactly_the_planted_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/tree");
    let findings = lint_tree(&root).expect("walk fixtures");
    let mut got: Vec<(String, Rule)> = findings
        .iter()
        .map(|f| {
            let file = f.file.rsplit('/').next().unwrap_or(&f.file).to_string();
            (file, f.rule)
        })
        .collect();
    got.sort();
    let mut want = vec![
        ("bad_allow.rs".to_string(), Rule::BadAllow),
        ("bad_allow.rs".to_string(), Rule::WallClock),
        ("panics.rs".to_string(), Rule::NoPanic),
        ("panics.rs".to_string(), Rule::NoPanic),
        ("reconcile.rs".to_string(), Rule::WallClock),
        ("threads.rs".to_string(), Rule::NativeThread),
        ("traced.rs".to_string(), Rule::TraceTime),
        ("wall.rs".to_string(), Rule::WallClock),
        ("wall.rs".to_string(), Rule::WallClock),
        ("wheel.rs".to_string(), Rule::WallClock),
    ];
    want.sort();
    assert_eq!(got, want, "full findings: {findings:#?}");
    // allowed.rs is covered by the absence of any finding for it above.
    assert!(!findings.iter().any(|f| f.file.contains("allowed.rs")));
}

#[test]
fn fixture_findings_carry_lines_and_messages() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/tree");
    let findings = lint_tree(&root).expect("walk fixtures");
    let traced = findings.iter().find(|f| f.rule == Rule::TraceTime).expect("planted");
    assert!(traced.msg.contains("SimTime"), "{}", traced.msg);
    let wall =
        findings.iter().filter(|f| f.file.contains("wall.rs")).map(|f| f.line).collect::<Vec<_>>();
    assert_eq!(wall, vec![5, 6], "one finding per offending line");
}

#[test]
fn allow_census_stays_at_twelve() {
    // Every `simlint: allow` escape hatch in shipped code, by file. The
    // census keeps the list deliberate: a new allow (or a directive that
    // stopped being needed) must update this test alongside its reason.
    // Eight of the twelve are the acceptance benchmark's host-clock reads:
    // it measures the simulator's own host time by definition.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let files = simcheck::analyze::read_tree(&root).expect("walk crates");
    let mut allows: Vec<String> = Vec::new();
    for (path, src) in &files {
        for t in simcheck::lex::lex(src) {
            if !matches!(t.kind, simcheck::lex::TokKind::LineComment) {
                continue;
            }
            let body = t.text(src).trim_start_matches('/').trim();
            if body.starts_with("simlint: allow(") {
                // read_tree shows paths relative to the walk root's
                // parent; keep only the crate-relative tail.
                allows.push(path.trim_start_matches("../").to_string());
            }
        }
    }
    allows.sort();
    assert_eq!(
        allows,
        vec![
            "apps/ports/monte_carlo_local.rs",
            "bench/src/bin/benchmark/layers.rs",
            "bench/src/bin/benchmark/run.rs",
            "bench/src/bin/benchmark/run.rs",
            "bench/src/bin/benchmark/workloads/mod.rs",
            "bench/src/bin/benchmark/workloads/mod.rs",
            "bench/src/bin/benchmark/workloads/mod.rs",
            "bench/src/bin/benchmark/workloads/mod.rs",
            "bench/src/bin/benchmark/workloads/mod.rs",
            "bench/src/bin/experiments.rs",
            "bench/src/experiments/kernelbench.rs",
            "simcore/src/kernel.rs",
        ],
        "unexpected allow census"
    );
}

#[test]
fn workspace_tree_is_clean() {
    // The real gate: the shipped sources must lint clean. Walking from the
    // crate's parent covers the whole `crates/` tree.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let findings = lint_tree(&root).expect("walk crates");
    assert!(
        findings.is_empty(),
        "workspace lint violations:\n{}",
        findings.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
}
