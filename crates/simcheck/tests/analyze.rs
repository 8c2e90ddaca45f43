//! Meta-tests for the interprocedural analyzer (`simcheck::analyze`):
//! the bad fixture tree yields exactly the planted findings — including
//! the chain a line-regex provably cannot catch — the good tree is clean
//! and proves the planted methods pure, and the shipped workspace itself
//! analyzes clean (the same gate `simanalyze` enforces in CI).

use std::path::Path;

use simcheck::analyze::analyze_tree;
use simcheck::Rule;

fn fixture(sub: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/analyze").join(sub)
}

#[test]
fn bad_tree_yields_exactly_the_planted_findings() {
    let analysis = analyze_tree(&fixture("bad")).expect("walk fixtures");
    let mut got: Vec<(String, Rule)> = analysis
        .findings
        .iter()
        .map(|f| (f.file.rsplit('/').next().unwrap_or(&f.file).to_string(), f.rule))
        .collect();
    got.sort();
    let mut want = vec![
        ("actor.rs".to_string(), Rule::ActorBlocks),
        ("impure.rs".to_string(), Rule::ReadonlyImpure),
        ("lease.rs".to_string(), Rule::DeterminismTaint),
        ("nondet.rs".to_string(), Rule::DeterminismTaint),
        ("restore.rs".to_string(), Rule::DeterminismTaint),
        ("taint_chain.rs".to_string(), Rule::DeterminismTaint),
        ("waits.rs".to_string(), Rule::WaitAnnotation),
        ("walseg.rs".to_string(), Rule::DeterminismTaint),
    ];
    want.sort();
    assert_eq!(got, want, "full findings: {:#?}", analysis.findings);
    // The lying object must not be certified pure.
    assert!(analysis.pure.entries.is_empty(), "bad tree proved: {:?}", analysis.pure.entries);
}

#[test]
fn readonly_method_that_mutates_is_caught_at_its_arm() {
    let analysis = analyze_tree(&fixture("bad")).expect("walk fixtures");
    let f = analysis
        .findings
        .iter()
        .find(|f| f.file.ends_with("impure.rs"))
        .expect("planted impure finding");
    // At the lying "peek" arm; "bump" mutates too but claims nothing.
    assert_eq!((f.rule, f.line), (Rule::ReadonlyImpure, 11));
    assert!(f.msg.contains("\"peek\"") && f.msg.contains("self.count"), "{}", f.msg);
}

#[test]
fn interprocedural_taint_is_beyond_any_line_regex() {
    let analysis = analyze_tree(&fixture("bad")).expect("walk fixtures");
    let f = analysis
        .findings
        .iter()
        .find(|f| f.file.ends_with("taint_chain.rs"))
        .expect("planted chain finding");
    assert_eq!(f.rule, Rule::DeterminismTaint);
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
    let analysis = analyze_tree(&fixture("bad")).expect("walk fixtures");
    let f = analysis
        .findings
        .iter()
        .find(|f| f.file.ends_with("lease.rs"))
        .expect("planted lease finding");
    assert_eq!(f.rule, Rule::DeterminismTaint);
    // The finding sits at the `ReadStamp` wire literal, and the trace
    // names the laundering helper and the true clock source.
    assert!(f.msg.contains("ReadStamp"), "{}", f.msg);
    assert!(f.msg.contains("lease_deadline_ms"), "{}", f.msg);
    assert!(f.msg.contains("SystemTime::now"), "{}", f.msg);
}

#[test]
fn wall_clock_laundered_into_a_restore_cost_is_caught() {
    let analysis = analyze_tree(&fixture("bad")).expect("walk fixtures");
    let f = analysis
        .findings
        .iter()
        .find(|f| f.file.ends_with("restore.rs"))
        .expect("planted restore finding");
    assert_eq!(f.rule, Rule::DeterminismTaint);
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
    let analysis = analyze_tree(&fixture("bad")).expect("walk fixtures");
    let f = analysis
        .findings
        .iter()
        .find(|f| f.file.ends_with("walseg.rs"))
        .expect("planted WAL-header finding");
    assert_eq!(f.rule, Rule::DeterminismTaint);
    // The finding sits at the `WalSegmentHeader` wire literal; the trace
    // names the seal-time helper and the true clock source.
    assert!(f.msg.contains("WalSegmentHeader"), "{}", f.msg);
    assert!(f.msg.contains("sealed_at_ms"), "{}", f.msg);
    assert!(f.msg.contains("SystemTime::now"), "{}", f.msg);
}

#[test]
fn marked_nondet_source_taints_through_a_local() {
    let analysis = analyze_tree(&fixture("bad")).expect("walk fixtures");
    let f = analysis
        .findings
        .iter()
        .find(|f| f.file.ends_with("nondet.rs"))
        .expect("planted marker finding");
    assert!(f.msg.contains("host_entropy"), "{}", f.msg);
    assert!(f.msg.contains("send"), "{}", f.msg);
}

#[test]
fn blocking_call_two_hops_below_on_wake_is_caught() {
    let analysis = analyze_tree(&fixture("bad")).expect("walk fixtures");
    let f = analysis
        .findings
        .iter()
        .find(|f| f.file.ends_with("actor.rs"))
        .expect("planted actor finding");
    // The finding sits at the `ctx.sleep` in the free function `backoff`,
    // which names no actor; the message names the actor and the chain.
    assert_eq!((f.rule, f.line), (Rule::ActorBlocks, 28));
    assert_eq!(
        f.msg,
        "blocking ctx.sleep(..) is reachable from actor Poller (via on_wake -> refresh -> \
         backoff); an actor blocks only by returning a Wait from on_wake"
    );
}

#[test]
fn good_tree_is_clean_and_proves_purity() {
    let analysis = analyze_tree(&fixture("good")).expect("walk fixtures");
    assert!(analysis.findings.is_empty(), "clean tree findings: {:#?}", analysis.findings);
    // The honest readonly methods — including the one that delegates to a
    // `&self` helper — are certified pure.
    assert!(analysis.pure.entries.contains(&("Counter".to_string(), "get".to_string())));
    assert!(analysis.pure.entries.contains(&("Counter".to_string(), "summary".to_string())));
    // Purity certificates cover declared-readonly methods only.
    assert!(!analysis.pure.entries.contains(&("Counter".to_string(), "bump".to_string())));
}

#[test]
fn pure_report_text_round_trips() {
    let analysis = analyze_tree(&fixture("good")).expect("walk fixtures");
    let text = analysis.pure.to_text();
    assert!(text.starts_with('#'), "header comment first: {text}");
    assert!(text.contains("Counter get\n"), "{text}");
    assert!(text.contains("Counter summary\n"), "{text}");
}

#[test]
fn workspace_analyzes_clean() {
    // The real gate: the shipped sources must pass all three passes, the
    // same invariant `simanalyze` enforces in ci.sh.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let analysis = analyze_tree(&root).expect("walk crates");
    assert!(
        analysis.findings.is_empty(),
        "workspace analyzer violations:\n{}",
        analysis.findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );
    // The purity pass keeps certifying the builtin read-only surface the
    // DSO runtime consumes (spot-check a few anchors, not the full list,
    // so adding objects does not churn this test).
    for (ty, m) in [("AtomicLong", "get"), ("MapObject", "size"), ("ListObject", "get")] {
        assert!(
            analysis.pure.entries.contains(&(ty.to_string(), m.to_string())),
            "expected {ty}::{m} proven pure; got {:?}",
            analysis.pure.entries
        );
    }
}
