//! Meta-tests for the interprocedural analyzer (`simcheck::analyze`):
//! the bad fixture tree yields exactly the planted findings — including
//! the chain a line-regex provably cannot catch — the good tree is clean,
//! and the shipped workspace itself analyzes clean (the same gate
//! `simanalyze` enforces in CI).

use std::path::Path;

use simcheck::analyze::analyze_tree;
use simcheck::Rule;

fn fixture(sub: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/analyze").join(sub)
}

#[test]
fn bad_tree_yields_exactly_the_planted_findings() {
    let findings = analyze_tree(&fixture("bad")).expect("walk fixtures");
    let mut got: Vec<(String, Rule)> = findings
        .iter()
        .map(|f| (f.file.rsplit('/').next().unwrap_or(&f.file).to_string(), f.rule))
        .collect();
    got.sort();
    let mut want = vec![
        ("actor.rs".to_string(), Rule::ActorBlocks),
        ("lease.rs".to_string(), Rule::DeterminismTaint),
        ("nondet.rs".to_string(), Rule::DeterminismTaint),
        ("restore.rs".to_string(), Rule::DeterminismTaint),
        ("taint_chain.rs".to_string(), Rule::DeterminismTaint),
        ("waits.rs".to_string(), Rule::WaitAnnotation),
        ("walseg.rs".to_string(), Rule::DeterminismTaint),
    ];
    want.sort();
    assert_eq!(got, want, "full findings: {findings:#?}");
}

#[test]
fn interprocedural_taint_is_beyond_any_line_regex() {
    let findings = analyze_tree(&fixture("bad")).expect("walk fixtures");
    let f = findings
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
    let findings = analyze_tree(&fixture("bad")).expect("walk fixtures");
    let f = findings.iter().find(|f| f.file.ends_with("lease.rs")).expect("planted lease finding");
    assert_eq!(f.rule, Rule::DeterminismTaint);
    // The finding sits at the `ReadStamp` wire literal, and the trace
    // names the laundering helper and the true clock source.
    assert!(f.msg.contains("ReadStamp"), "{}", f.msg);
    assert!(f.msg.contains("lease_deadline_ms"), "{}", f.msg);
    assert!(f.msg.contains("SystemTime::now"), "{}", f.msg);
}

#[test]
fn wall_clock_laundered_into_a_restore_cost_is_caught() {
    let findings = analyze_tree(&fixture("bad")).expect("walk fixtures");
    let f =
        findings.iter().find(|f| f.file.ends_with("restore.rs")).expect("planted restore finding");
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
    let findings = analyze_tree(&fixture("bad")).expect("walk fixtures");
    let f = findings
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
    let findings = analyze_tree(&fixture("bad")).expect("walk fixtures");
    let f =
        findings.iter().find(|f| f.file.ends_with("nondet.rs")).expect("planted marker finding");
    assert!(f.msg.contains("host_entropy"), "{}", f.msg);
    assert!(f.msg.contains("send"), "{}", f.msg);
}

#[test]
fn blocking_call_two_hops_below_on_wake_is_caught() {
    let findings = analyze_tree(&fixture("bad")).expect("walk fixtures");
    let f = findings.iter().find(|f| f.file.ends_with("actor.rs")).expect("planted actor finding");
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
fn good_tree_is_clean() {
    let findings = analyze_tree(&fixture("good")).expect("walk fixtures");
    assert!(findings.is_empty(), "clean tree findings: {findings:#?}");
}

#[test]
fn workspace_analyzes_clean() {
    // The real gate: the shipped sources must pass both passes, the
    // same invariant `simanalyze` enforces in ci.sh.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let findings = analyze_tree(&root).expect("walk crates");
    assert!(
        findings.is_empty(),
        "workspace analyzer violations:\n{}",
        findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );
}
