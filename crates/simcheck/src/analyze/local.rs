//! Pass 1: the token rules — what one file shows on one line.
//!
//! Each rule is a list of token patterns matched against the file's code
//! tokens (comments and literals never match), one finding per line naming
//! the first pattern of the list that matched there:
//!
//! - `wall-clock` — a host clock read anywhere, test code included:
//!   simulated code must use virtual time.
//! - `native-thread` — a native thread spawn anywhere: a simulation runs on
//!   the thread that calls `Sim::run_*`, and concurrency is spawned as
//!   simulation processes.
//! - `no-panic` — `unwrap`/`panic!`/`todo!`/… in non-test code under
//!   `dso/src`, where a panicking worker wedges the whole simulated node;
//!   `.expect(..)` passes under an `// invariant:` comment within the
//!   three lines above it.
//! - `trace-time` — a span or metric recording call fed from host time on
//!   the same line. A single host-derived duration in a histogram makes
//!   exports differ run to run, and the taint pass does not see it where
//!   the clock read carries a reasoned `wall-clock` allow (the bench
//!   driver's operator-facing timer).
//! - `global-state` — a `static` whose type has interior mutability, a
//!   `static mut` or a `thread_local!`, in non-test code outside `tests/`
//!   and `benches/`: such state outlives the `Sim` that wrote it, so the
//!   next simulation in the process would start from it.
//!
//! Plus one `bad-allow` per malformed directive.

use std::collections::{BTreeMap, HashSet};

use super::Workspace;
use crate::syntax::{match_close, FileAst};
use crate::{Finding, Rule};

const WALL_CLOCK: [&str; 4] =
    ["Instant::now", "SystemTime::now", "std::time::Instant", "std::time::SystemTime"];
const NATIVE_THREAD: [&str; 2] = ["thread::spawn", "thread::Builder"];
const HARD_PANIC: [&str; 5] =
    [".unwrap()", "panic!(", "unreachable!(", "todo!(", "unimplemented!("];
const TRACE_SINKS: [&str; 9] = [
    "span_begin",
    "span_begin_under",
    "span_instant",
    "span_end",
    "span_annotate",
    "metric_record",
    "metric_add",
    "metric_incr",
    ".record(",
];
const HOST_TIME: [&str; 3] = ["Instant", "SystemTime", ".elapsed()"];
/// Types that mutate behind a shared reference, besides every `Atomic*`.
const INTERIOR_MUT: [&str; 6] = ["Mutex", "RwLock", "OnceLock", "LazyLock", "Cell", "RefCell"];

/// Per line: the index of the first of `patterns` spelled out by a run of
/// code tokens that starts on that line with a token passing `keep`.
fn hits(
    file: &FileAst,
    code: &[usize],
    patterns: &[&str],
    keep: impl Fn(usize) -> bool,
) -> BTreeMap<usize, usize> {
    let mut out = BTreeMap::new();
    for (p, pat) in patterns.iter().enumerate() {
        let want: Vec<&str> = crate::lex::lex(pat).iter().map(|t| t.text(pat)).collect();
        for run in code.windows(want.len()) {
            if run.iter().zip(&want).all(|(&t, w)| file.toks[t].text(&file.src) == *w)
                && keep(run[0])
            {
                out.entry(file.toks[run[0]].line as usize).or_insert(p);
            }
        }
    }
    out
}

/// Per line: the process-wide mutable state declared there in non-test
/// code. A `thread_local!` counts once, with the statics inside it.
fn global_state(file: &FileAst, code: &[usize]) -> BTreeMap<usize, String> {
    let (toks, src) = (&file.toks, file.src.as_str());
    let text = |k: usize| code.get(k).map_or("", |&t| toks[t].text(src));
    let mut out = BTreeMap::new();
    let mut k = 0;
    while k < code.len() {
        let t = code[k];
        k += 1;
        if file.in_test(t) {
            continue;
        }
        let what = match (toks[t].text(src), text(k)) {
            ("thread_local", "!") => {
                // Skip the block: its statics are this one finding.
                let close =
                    match_close(toks, src, code.get(k + 1).copied().unwrap_or(t), toks.len());
                k = code.partition_point(|&c| c <= close);
                "thread_local!".to_string()
            }
            ("static", "mut") => "static mut".to_string(),
            ("static", _) => {
                // The declared type: the tokens up to the initializer.
                let mut ty = (k..code.len()).map(text).take_while(|t| !matches!(*t, "=" | ";"));
                let Some(ty) = ty.find(|t| t.starts_with("Atomic") || INTERIOR_MUT.contains(t))
                else {
                    continue;
                };
                format!("static of interior-mutable {ty}")
            }
            _ => continue,
        };
        out.entry(toks[t].line as usize).or_insert(what);
    }
    out
}

/// Lines an `// invariant:` comment vouches for: its own and the three
/// below it.
fn invariant_lines(file: &FileAst) -> HashSet<usize> {
    let mut out = HashSet::new();
    for t in file.toks.iter().filter(|t| t.is_comment()) {
        for (k, text) in t.text(&file.src).lines().enumerate() {
            if text.contains("invariant:") {
                let line = t.line as usize + k;
                out.extend(line..=line + 3);
            }
        }
    }
    out
}

/// Runs the pass over every file of the workspace.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (fi, file) in ws.files.iter().enumerate() {
        let mut report = |line: usize, rule: Rule, msg: String| {
            if !ws.allowed(fi, rule, line) {
                findings.push(Finding { file: file.path.clone(), line, rule, msg });
            }
        };
        for allow in &ws.allows[fi] {
            if let Err(msg) = &allow.rule {
                report(allow.line, Rule::BadAllow, msg.clone());
            }
        }
        let code: Vec<usize> =
            (0..file.toks.len()).filter(|&t| !file.toks[t].is_comment()).collect();
        let all = |_| true;
        for (line, p) in hits(file, &code, &WALL_CLOCK, all) {
            let msg =
                format!("wall-clock read ({}) breaks determinism; use virtual time", WALL_CLOCK[p]);
            report(line, Rule::WallClock, msg);
        }
        for line in hits(file, &code, &NATIVE_THREAD, all).into_keys() {
            let msg = "native thread spawn; spawn a simulation process";
            report(line, Rule::NativeThread, msg.to_string());
        }
        if file.path.contains("dso/src") {
            let live = |t| !file.in_test(t);
            let hard = hits(file, &code, &HARD_PANIC, live);
            for (&line, &p) in &hard {
                let msg = format!(
                    "{}..) on the DSO path; return a DsoError/ObjectError instead",
                    HARD_PANIC[p]
                );
                report(line, Rule::NoPanic, msg);
            }
            let documented = invariant_lines(file);
            for line in hits(file, &code, &[".expect("], live).into_keys() {
                if !hard.contains_key(&line) && !documented.contains(&line) {
                    let msg = ".expect() without an `// invariant:` comment documenting why it \
                               cannot fail";
                    report(line, Rule::NoPanic, msg.to_string());
                }
            }
        }
        if !file.path.contains("/tests/") && !file.path.contains("/benches/") {
            for (line, what) in global_state(file, &code) {
                let msg = format!(
                    "{what}: process-wide state outlives its Sim and leaks into the next one; \
                     keep it in a value the simulation owns"
                );
                report(line, Rule::GlobalState, msg);
            }
        }
        let host_time = hits(file, &code, &HOST_TIME, all);
        for (line, s) in hits(file, &code, &TRACE_SINKS, all) {
            if let Some(&h) = host_time.get(&line) {
                let msg = format!(
                    "{} fed from {}; stamp spans/metrics with SimTime only",
                    TRACE_SINKS[s], HOST_TIME[h]
                );
                report(line, Rule::TraceTime, msg);
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every pass over a one-file workspace.
    fn lint(path: &str, src: &str) -> Vec<Finding> {
        super::super::analyze(&Workspace::build(vec![(path.to_string(), src.to_string())]))
    }

    #[test]
    fn wall_clock_flagged_and_allowed() {
        let f = lint("crates/x/src/a.rs", "let t = Instant::now();\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::WallClock);
        assert_eq!(f[0].line, 1);
        let src = "// simlint: allow(wall-clock, reason = \"operator wall time\")\nlet t = Instant::now();\n";
        assert!(lint("crates/x/src/a.rs", src).is_empty());
        // In a string or comment it is no violation at all.
        let src = "let t = \"Instant::now\"; // Instant::now()\n";
        assert!(lint("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn allow_without_reason_is_a_finding() {
        // Exactly one `bad-allow` for the directive, and the line it fails
        // to cover keeps its finding.
        let src = "// simlint: allow(wall-clock)\nlet t = Instant::now();\n";
        let f: Vec<(usize, Rule)> =
            lint("crates/x/src/a.rs", src).iter().map(|f| (f.line, f.rule)).collect();
        assert_eq!(f, vec![(1, Rule::BadAllow), (2, Rule::WallClock)]);
        let src = "// simlint: allow(frobnicate, reason = \"x\")\n";
        let f = lint("crates/x/src/a.rs", src);
        assert!(f.iter().any(|f| f.rule == Rule::BadAllow && f.msg.contains("unknown rule")));
        // A retired rule is an unknown rule: an allow left over from the
        // deleted purity pass is flagged, not silently accepted. (Spelled
        // in two halves so a grep for the retired name stays empty.)
        let src = format!("// simlint: allow(readonly-{}, reason = \"x\")\n", "impure");
        let f = lint("crates/x/src/a.rs", &src);
        assert!(f.iter().any(|f| f.rule == Rule::BadAllow && f.msg.contains("unknown rule")));
    }

    #[test]
    fn trace_time_flagged_and_allowed() {
        let f = lint("crates/x/src/a.rs", "ctx.metric_record(\"m\", t0.elapsed());\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::TraceTime);
        assert!(f[0].msg.contains("SimTime"), "{}", f[0].msg);
        let src = "// simlint: allow(trace-time, reason = \"host duration\")\n\
                   ctx.metric_record(\"m\", t0.elapsed());\n";
        assert!(lint("crates/x/src/a.rs", src).is_empty());
        // SimTime-derived durations are no violation.
        let ok = "ctx.metric_record(\"m\", ctx.now() - t0);\n";
        assert!(lint("crates/x/src/a.rs", ok).is_empty());
        // Raw tracer/histogram calls are covered too.
        let f = lint("crates/x/src/a.rs", "hist.record(timer.elapsed());\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::TraceTime);
    }

    #[test]
    fn native_thread_flagged_everywhere() {
        let src = "std::thread::spawn(|| {});\n";
        assert_eq!(lint("crates/x/src/a.rs", src).len(), 1);
        let src = "std::thread::Builder::new();\n";
        assert_eq!(lint("crates/simcore/src/kernel.rs", src).len(), 1);
    }

    #[test]
    fn no_panic_scoped_and_test_excluded() {
        let src =
            "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn g() { y.unwrap(); }\n}\n";
        let f = lint("crates/dso/src/a.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 1);
        assert!(lint("crates/simcore/src/a.rs", src).is_empty(), "only dso scoped");
    }

    #[test]
    fn expect_needs_invariant_comment() {
        let bad = "fn f() { x.expect(\"y\"); }\n";
        assert_eq!(lint("crates/dso/src/a.rs", bad).len(), 1);
        let good = "fn f() {\n    // invariant: x was set above.\n    x.expect(\"y\");\n}\n";
        assert!(lint("crates/dso/src/a.rs", good).is_empty());
    }
}
