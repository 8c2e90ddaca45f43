//! Meta-tests for `simlint` (`simcheck::analyze`): the bad fixture tree
//! yields exactly the planted findings — including the chains a line
//! match provably cannot catch and the items only an exact test predicate
//! gets right — the good tree is clean, the allow census holds, and the
//! shipped workspace itself lints clean (the gate `simlint` enforces in
//! CI).

use std::path::Path;

use simcheck::analyze::{analyze_tree, read_tree, Workspace};
use simcheck::{Finding, Rule};

fn fixture(sub: &str) -> Vec<Finding> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(sub);
    analyze_tree(&root).expect("walk fixtures")
}

/// The one planted finding of `rule` in the file ending in `file`.
fn planted<'a>(findings: &'a [Finding], file: &str, rule: Rule) -> &'a Finding {
    findings
        .iter()
        .find(|f| f.file.ends_with(file) && f.rule == rule)
        .unwrap_or_else(|| panic!("planted {rule} in {file}: {findings:#?}"))
}

#[test]
fn bad_tree_yields_exactly_the_planted_findings() {
    let findings = fixture("bad");
    let got: Vec<(&str, usize, Rule)> =
        findings.iter().map(|f| (f.file.as_str(), f.line, f.rule)).collect();
    let want = vec![
        ("bad/app/src/bad_allow.rs", 5, Rule::BadAllow),
        ("bad/app/src/bad_allow.rs", 6, Rule::WallClock),
        ("bad/app/src/bad_allow.rs", 13, Rule::BadAllow),
        ("bad/app/src/globals.rs", 9, Rule::GlobalState),
        ("bad/app/src/globals.rs", 10, Rule::GlobalState),
        ("bad/app/src/globals.rs", 11, Rule::GlobalState),
        ("bad/app/src/globals.rs", 12, Rule::GlobalState),
        ("bad/app/src/threads.rs", 4, Rule::NativeThread),
        ("bad/app/src/traced.rs", 6, Rule::TraceTime),
        ("bad/app/src/wall.rs", 5, Rule::WallClock),
        ("bad/app/src/wall.rs", 6, Rule::WallClock),
        ("bad/controlplane/src/reconcile.rs", 7, Rule::WallClock),
        ("bad/dso/src/panics.rs", 6, Rule::NoPanic),
        ("bad/dso/src/panics.rs", 10, Rule::NoPanic),
        ("bad/dso/src/test_predicate.rs", 13, Rule::NoPanic),
        ("bad/dso/src/test_predicate.rs", 20, Rule::WallClock),
        ("bad/dso/src/test_predicate.rs", 21, Rule::DeterminismTaint),
        ("bad/kernel/src/wheel.rs", 12, Rule::WallClock),
        ("bad/src/lease.rs", 9, Rule::WallClock),
        ("bad/src/lease.rs", 15, Rule::DeterminismTaint),
        ("bad/src/nondet.rs", 13, Rule::DeterminismTaint),
        ("bad/src/restore.rs", 10, Rule::WallClock),
        ("bad/src/restore.rs", 20, Rule::DeterminismTaint),
        ("bad/src/taint_chain.rs", 7, Rule::WallClock),
        ("bad/src/taint_chain.rs", 16, Rule::DeterminismTaint),
        ("bad/src/walseg.rs", 11, Rule::WallClock),
        ("bad/src/walseg.rs", 16, Rule::DeterminismTaint),
    ];
    assert_eq!(got, want, "full findings: {findings:#?}");
}

#[test]
fn trace_time_names_sink_and_source() {
    let findings = fixture("bad");
    let f = planted(&findings, "traced.rs", Rule::TraceTime);
    assert!(f.msg.contains("SimTime"), "{}", f.msg);
}

#[test]
fn interprocedural_taint_is_beyond_any_line_regex() {
    let findings = fixture("bad");
    let f = planted(&findings, "taint_chain.rs", Rule::DeterminismTaint);
    // The finding sits in `announce`, two calls away from the clock read:
    // no token of the flagged construct names a clock API, and the trace
    // in the message walks the chain back to the true source.
    assert!(f.msg.contains("Announce"), "{}", f.msg);
    assert!(f.msg.contains("stamp_ms"), "{}", f.msg);
    assert!(f.msg.contains("raw_clock_ms"), "{}", f.msg);
    assert!(f.msg.contains("SystemTime::now"), "{}", f.msg);
}

#[test]
fn wall_clock_laundered_into_a_lease_field_is_caught() {
    let findings = fixture("bad");
    let f = planted(&findings, "lease.rs", Rule::DeterminismTaint);
    // The finding sits at the `ReadStamp` wire literal, and the trace
    // names the laundering helper and the true clock source.
    assert!(f.msg.contains("ReadStamp"), "{}", f.msg);
    assert!(f.msg.contains("lease_deadline_ms"), "{}", f.msg);
    assert!(f.msg.contains("SystemTime::now"), "{}", f.msg);
}

#[test]
fn wall_clock_laundered_into_a_restore_cost_is_caught() {
    let findings = fixture("bad");
    let f = planted(&findings, "restore.rs", Rule::DeterminismTaint);
    // The finding sits at the `RestoreBill` wire literal; the trace walks
    // through the cost helper and the dirty-page estimator back to the
    // true clock source.
    assert!(f.msg.contains("RestoreBill"), "{}", f.msg);
    assert!(f.msg.contains("restore_cost_ms"), "{}", f.msg);
    assert!(f.msg.contains("pages_since_snapshot"), "{}", f.msg);
    assert!(f.msg.contains("SystemTime::now"), "{}", f.msg);
}

#[test]
fn wall_clock_laundered_into_a_wal_header_is_caught() {
    let findings = fixture("bad");
    let f = planted(&findings, "walseg.rs", Rule::DeterminismTaint);
    // The finding sits at the `WalSegmentHeader` wire literal; the trace
    // names the seal-time helper and the true clock source.
    assert!(f.msg.contains("WalSegmentHeader"), "{}", f.msg);
    assert!(f.msg.contains("sealed_at_ms"), "{}", f.msg);
    assert!(f.msg.contains("SystemTime::now"), "{}", f.msg);
}

#[test]
fn marked_nondet_source_taints_through_a_local() {
    let findings = fixture("bad");
    let f = planted(&findings, "nondet.rs", Rule::DeterminismTaint);
    assert!(f.msg.contains("host_entropy"), "{}", f.msg);
    assert!(f.msg.contains("send"), "{}", f.msg);
}

#[test]
fn global_state_names_what_it_found() {
    let findings = fixture("bad");
    let f = planted(&findings, "globals.rs", Rule::GlobalState);
    assert!(f.msg.starts_with("static of interior-mutable AtomicU64"), "{}", f.msg);
}

#[test]
fn good_tree_is_clean() {
    let findings = fixture("good");
    assert!(findings.is_empty(), "clean tree findings: {findings:#?}");
}

#[test]
fn allow_census_stays_at_twelve() {
    // Every `simlint: allow` escape hatch in shipped code, by file, as the
    // engine parsed it. The census keeps the list deliberate: a new allow
    // (or a directive that stopped being needed) must update this test
    // alongside its reason. Eight of the twelve are the acceptance
    // benchmark's host-clock reads: it measures the simulator's own host
    // time by definition. The one `global-state` allow is the method-name
    // interner, whose names compare by content.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let ws = Workspace::build(read_tree(&root).expect("walk crates"));
    let mut allows: Vec<&str> = ws
        .files
        .iter()
        .zip(&ws.allows)
        // read_tree shows paths relative to the walk root's parent; keep
        // only the crate-relative tail.
        .flat_map(|(file, allows)| allows.iter().map(|_| file.path.trim_start_matches("../")))
        .collect();
    allows.sort_unstable();
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
            "dso/src/intern.rs",
        ],
        "unexpected allow census"
    );
}

#[test]
fn workspace_is_clean() {
    // The real gate: the shipped sources must pass every pass, the same
    // invariant `simlint` enforces in ci.sh. Walking from the crate's
    // parent covers the whole `crates/` tree.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let findings = analyze_tree(&root).expect("walk crates");
    assert!(
        findings.is_empty(),
        "workspace lint violations:\n{}",
        findings.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
}
