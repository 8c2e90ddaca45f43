//! Correctness tooling for the workspace: a determinism lint pass.
//!
//! The simulation's guarantees rest on conventions a compiler cannot see:
//! no wall-clock reads inside simulated code, no native threads outside the
//! kernel, no panics on the DSO request path, and spans stamped with
//! simulated time only. `simlint` is a hand-rolled source scanner (no
//! external parser) that enforces those conventions over `crates/**/*.rs`
//! and fails CI on violations.
//!
//! Escape hatches:
//!
//! - `// simlint: allow(<rule>, reason = "...")` on the offending line or
//!   the line above suppresses a finding; a missing or empty reason is
//!   itself a finding ([`Rule::BadAllow`]).
//! - `.expect(...)` in DSO sources is accepted when a `// invariant: ...`
//!   comment within the three preceding lines documents why the value is
//!   always present.
//!
//! The scanner strips comments and string literals before matching and
//! tracks `#[cfg(test)] mod` blocks (test code may panic freely).

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::Path;

pub mod analyze;
pub mod json;
pub mod lex;
pub mod syntax;

/// A lint rule enforced by `simlint`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// Wall-clock reads (`Instant::now`, `SystemTime`) — nondeterministic.
    WallClock,
    /// Native thread spawns outside the simulation kernel.
    NativeThread,
    /// `unwrap`/`expect`/`panic!` on the DSO request path (non-test code).
    NoPanic,
    /// A span or metric stamped from a non-`SimTime` source.
    TraceTime,
    /// A malformed `simlint: allow` directive (unknown rule, no reason).
    BadAllow,
    /// A nondeterministic value flowing interprocedurally into kernel
    /// state, a protocol message, or trace/metric ordering (`simanalyze`).
    DeterminismTaint,
    /// A blocking primitive reachable without `Ctx::annotate_wait` on the
    /// path (`simanalyze`).
    WaitAnnotation,
    /// A blocking primitive reachable from an `Actor::on_wake`, which must
    /// return a `Wait` instead (`simanalyze`).
    ActorBlocks,
}

impl Rule {
    /// The rule's directive name, as written in `allow(...)`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock",
            Rule::NativeThread => "native-thread",
            Rule::NoPanic => "no-panic",
            Rule::TraceTime => "trace-time",
            Rule::BadAllow => "bad-allow",
            Rule::DeterminismTaint => "determinism-taint",
            Rule::WaitAnnotation => "wait-annotation",
            Rule::ActorBlocks => "actor-blocks",
        }
    }

    /// Parses a directive name back into a rule.
    pub fn from_name(name: &str) -> Option<Rule> {
        match name {
            "wall-clock" => Some(Rule::WallClock),
            "native-thread" => Some(Rule::NativeThread),
            "no-panic" => Some(Rule::NoPanic),
            "trace-time" => Some(Rule::TraceTime),
            "determinism-taint" => Some(Rule::DeterminismTaint),
            "wait-annotation" => Some(Rule::WaitAnnotation),
            "actor-blocks" => Some(Rule::ActorBlocks),
            _ => None,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One lint violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Path of the offending file, as passed to [`lint_source`].
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.msg)
    }
}

/// The blanked views of a source file the line rules match against.
fn scrub(src: &str) -> lex::Views {
    // Rebuilt from the real lexer (`crate::lex`), so the line rules below
    // inherit its exactness: degenerate comments like `/*/`, multibyte
    // char literals and raw-string hash guards all tokenize correctly
    // instead of being approximated by a scanner.
    lex::views(src, &lex::lex(src))
}

/// Per-file lint context assembled once, consulted by every rule.
struct FileCtx<'a> {
    path: &'a str,
    code_lines: Vec<String>,
    /// line -> rules allowed there by a directive.
    allows: HashMap<usize, HashSet<Rule>>,
    /// Lines covered by a `// invariant:` comment.
    invariant: HashSet<usize>,
    /// Lines inside `#[cfg(test)] mod` blocks.
    test_lines: HashSet<usize>,
}

impl FileCtx<'_> {
    fn allowed(&self, rule: Rule, line: usize) -> bool {
        self.allows.get(&line).is_some_and(|set| set.contains(&rule))
    }
}

/// Parses `simlint: allow(...)` directives. `comment_lines` is the
/// comments-only scrub view, so directive text inside string literals is
/// invisible here; requiring the directive to *start* the comment keeps
/// prose that merely mentions the syntax (like this crate's docs) inert.
fn parse_allows(
    path: &str,
    comment_lines: &[&str],
    findings: &mut Vec<Finding>,
) -> HashMap<usize, HashSet<Rule>> {
    let mut allows: HashMap<usize, HashSet<Rule>> = HashMap::new();
    for (idx, raw) in comment_lines.iter().enumerate() {
        let line_no = idx + 1;
        let comment = raw.trim_start().trim_start_matches(['/', '*', '!']).trim_start();
        let Some(rest) = comment.strip_prefix("simlint: allow(") else { continue };
        let Some(close) = rest.rfind(')') else {
            findings.push(Finding {
                file: path.to_string(),
                line: line_no,
                rule: Rule::BadAllow,
                msg: "unterminated allow directive".to_string(),
            });
            continue;
        };
        let body = &rest[..close];
        let rule_name = body.split(',').next().unwrap_or("").trim();
        let Some(rule) = Rule::from_name(rule_name) else {
            findings.push(Finding {
                file: path.to_string(),
                line: line_no,
                rule: Rule::BadAllow,
                msg: format!("unknown rule {rule_name:?} in allow directive"),
            });
            continue;
        };
        // A reason is mandatory: allows without rationale rot.
        let reason_ok = body
            .find("reason")
            .map(|r| &body[r + "reason".len()..])
            .and_then(|after| after.trim_start().strip_prefix('='))
            .map(|after| after.trim_start())
            .and_then(|after| after.strip_prefix('"'))
            .is_some_and(|quoted| quoted.find('"').is_some_and(|end| end > 0));
        if !reason_ok {
            findings.push(Finding {
                file: path.to_string(),
                line: line_no,
                rule: Rule::BadAllow,
                msg: format!("allow({rule_name}) needs a non-empty reason = \"...\""),
            });
            continue;
        }
        // The directive covers its own line (trailing comment) and the next.
        allows.entry(line_no).or_default().insert(rule);
        allows.entry(line_no + 1).or_default().insert(rule);
    }
    allows
}

fn invariant_lines(comment_lines: &[&str]) -> HashSet<usize> {
    let mut covered = HashSet::new();
    for (idx, raw) in comment_lines.iter().enumerate() {
        let line_no = idx + 1;
        if raw.contains("invariant:") {
            // The comment may span a couple of lines before the expect.
            for l in line_no..=line_no + 3 {
                covered.insert(l);
            }
        }
    }
    covered
}

/// Marks every line inside a `#[cfg(test)] mod ... { }` block.
fn test_mod_lines(code: &str) -> HashSet<usize> {
    let mut out = HashSet::new();
    let line_of = line_index(code);
    let mut search = 0;
    while let Some(p) = code[search..].find("#[cfg(test)]") {
        let attr_at = search + p;
        search = attr_at + 1;
        // Find the next `mod` keyword within a few lines, then its block.
        let after = &code[attr_at..];
        let Some(m) = after.find("mod ") else { continue };
        if m > 200 {
            continue; // attribute probably on a fn or statement, not a mod
        }
        let Some(open_rel) = after[m..].find('{') else { continue };
        let open = attr_at + m + open_rel;
        let close = match_brace(code, open);
        for l in line_of(attr_at)..=line_of(close) {
            out.insert(l);
        }
    }
    out
}

/// Byte offset of the matching `}` for the `{` at `open` (or end of file).
fn match_brace(code: &str, open: usize) -> usize {
    let b = code.as_bytes();
    let mut depth = 0usize;
    for (i, &c) in b.iter().enumerate().skip(open) {
        match c {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    code.len()
}

/// Returns a closure mapping byte offsets to 1-based line numbers.
fn line_index(s: &str) -> impl Fn(usize) -> usize + '_ {
    let starts: Vec<usize> = std::iter::once(0)
        .chain(s.bytes().enumerate().filter(|(_, c)| *c == b'\n').map(|(i, _)| i + 1))
        .collect();
    move |off: usize| starts.partition_point(|&st| st <= off)
}

/// Lints one file's source. `path` is used for reporting and for the
/// path-scoped rules (kernel thread allowlist, DSO no-panic scope).
pub fn lint_source(path: &str, src: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let scrubbed = scrub(src);
    let comment_lines: Vec<&str> = scrubbed.comments.lines().collect();
    let ctx = FileCtx {
        path,
        allows: parse_allows(path, &comment_lines, &mut findings),
        invariant: invariant_lines(&comment_lines),
        test_lines: test_mod_lines(&scrubbed.code),
        code_lines: scrubbed.code.lines().map(str::to_string).collect(),
    };
    lint_wall_clock(&ctx, &mut findings);
    lint_native_thread(&ctx, &mut findings);
    lint_no_panic(&ctx, &mut findings);
    lint_trace_time(&ctx, &mut findings);
    findings
}

fn push(findings: &mut Vec<Finding>, ctx: &FileCtx<'_>, line: usize, rule: Rule, msg: String) {
    findings.push(Finding { file: ctx.path.to_string(), line, rule, msg });
}

fn lint_wall_clock(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    const PATTERNS: [&str; 4] =
        ["Instant::now", "SystemTime::now", "std::time::Instant", "std::time::SystemTime"];
    for (idx, code) in ctx.code_lines.iter().enumerate() {
        let line = idx + 1;
        if let Some(pat) = PATTERNS.iter().find(|p| code.contains(*p)) {
            if !ctx.allowed(Rule::WallClock, line) {
                push(
                    findings,
                    ctx,
                    line,
                    Rule::WallClock,
                    format!("wall-clock read ({pat}) breaks determinism; use virtual time"),
                );
            }
        }
    }
}

fn lint_trace_time(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    // Spans and metrics must be stamped with simulated time only: a single
    // host-clock-derived duration in a histogram makes exports differ run
    // to run. Catches host time flowing into a recording call even where
    // the clock read itself carries a wall-clock allow (e.g. the bench
    // driver's operator-facing timer).
    const SINKS: [&str; 8] = [
        "span_begin",
        "span_instant",
        "span_end",
        "span_annotate",
        "metric_record",
        "metric_add",
        "metric_incr",
        ".record(",
    ];
    const SOURCES: [&str; 3] = ["Instant", "SystemTime", ".elapsed()"];
    for (idx, code) in ctx.code_lines.iter().enumerate() {
        let line = idx + 1;
        let Some(sink) = SINKS.iter().find(|s| code.contains(*s)) else { continue };
        let Some(src) = SOURCES.iter().find(|s| code.contains(*s)) else { continue };
        if !ctx.allowed(Rule::TraceTime, line) {
            push(
                findings,
                ctx,
                line,
                Rule::TraceTime,
                format!("{sink} fed from {src}; stamp spans/metrics with SimTime only"),
            );
        }
    }
}

fn lint_native_thread(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    // Only the kernel backs a process with an OS thread; everything else
    // must spawn simulation processes instead.
    if ctx.path.ends_with("simcore/src/kernel.rs") {
        return;
    }
    for (idx, code) in ctx.code_lines.iter().enumerate() {
        let line = idx + 1;
        if (code.contains("thread::spawn") || code.contains("thread::Builder"))
            && !ctx.allowed(Rule::NativeThread, line)
        {
            push(
                findings,
                ctx,
                line,
                Rule::NativeThread,
                "native thread spawn outside the kernel; spawn a simulation process".to_string(),
            );
        }
    }
}

fn lint_no_panic(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    // Scope: the DSO request path. A panicking worker wedges the whole
    // simulated node, which no test asserts on.
    if !ctx.path.contains("dso/src") {
        return;
    }
    const HARD: [&str; 5] = [".unwrap()", "panic!(", "unreachable!(", "todo!(", "unimplemented!("];
    for (idx, code) in ctx.code_lines.iter().enumerate() {
        let line = idx + 1;
        if ctx.test_lines.contains(&line) || ctx.allowed(Rule::NoPanic, line) {
            continue;
        }
        if let Some(pat) = HARD.iter().find(|p| code.contains(*p)) {
            push(
                findings,
                ctx,
                line,
                Rule::NoPanic,
                format!("{pat}..) on the DSO path; return a DsoError/ObjectError instead"),
            );
        } else if code.contains(".expect(") && !ctx.invariant.contains(&line) {
            push(
                findings,
                ctx,
                line,
                Rule::NoPanic,
                ".expect() without an `// invariant:` comment documenting why it cannot fail"
                    .to_string(),
            );
        }
    }
}

/// Recursively lints every `.rs` file under `root`, skipping build output,
/// vendored compat shims and the lint fixtures themselves.
///
/// # Errors
///
/// Propagates I/O errors from walking or reading the tree.
pub fn lint_tree(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    let mut files = Vec::new();
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !matches!(name.as_ref(), "target" | "fixtures" | ".git" | "compat") {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    for path in files {
        let src = std::fs::read_to_string(&path)?;
        let shown = path.strip_prefix(root.parent().unwrap_or(root)).unwrap_or(&path);
        findings.extend(lint_source(&shown.display().to_string(), &src));
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrub_blanks_comments_and_strings() {
        let s = scrub("let x = \"Instant::now\"; // Instant::now\nlet y = 1;");
        assert!(!s.code.contains("Instant::now"));
        assert!(s.comments.contains("// Instant::now"));
        assert_eq!(s.code.len(), s.comments.len());
    }

    #[test]
    fn scrub_handles_lifetimes_and_chars() {
        let s = scrub("fn f<'a>(v: &'a str) { let c = 'q'; let d = '\\n'; }");
        assert!(s.code.contains("'a"), "lifetime preserved: {}", s.code);
        assert!(!s.code.contains('q'), "char literal blanked: {}", s.code);
        assert!(!s.code.contains("\\n"), "escape blanked: {}", s.code);
    }

    #[test]
    fn wall_clock_flagged_and_allowed() {
        let f = lint_source("crates/x/src/a.rs", "let t = Instant::now();\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::WallClock);
        assert_eq!(f[0].line, 1);
        let src = "// simlint: allow(wall-clock, reason = \"operator wall time\")\nlet t = Instant::now();\n";
        assert!(lint_source("crates/x/src/a.rs", src).is_empty());
        // In a string or comment it is no violation at all.
        let src = "let t = \"Instant::now\"; // Instant::now()\n";
        assert!(lint_source("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn allow_without_reason_is_a_finding() {
        let src = "// simlint: allow(wall-clock)\nlet t = Instant::now();\n";
        let f = lint_source("crates/x/src/a.rs", src);
        assert!(f.iter().any(|f| f.rule == Rule::BadAllow), "{f:?}");
        assert!(f.iter().any(|f| f.rule == Rule::WallClock), "unreasoned allow must not suppress");
        let src = "// simlint: allow(frobnicate, reason = \"x\")\n";
        let f = lint_source("crates/x/src/a.rs", src);
        assert!(f.iter().any(|f| f.rule == Rule::BadAllow && f.msg.contains("unknown rule")));
        // A retired rule is an unknown rule: an allow left over from the
        // deleted purity pass is flagged, not silently accepted. (Spelled
        // in two halves so a grep for the retired name stays empty.)
        let src = format!("// simlint: allow(readonly-{}, reason = \"x\")\n", "impure");
        let f = lint_source("crates/x/src/a.rs", &src);
        assert!(f.iter().any(|f| f.rule == Rule::BadAllow && f.msg.contains("unknown rule")));
    }

    #[test]
    fn trace_time_flagged_and_allowed() {
        let f = lint_source("crates/x/src/a.rs", "ctx.metric_record(\"m\", t0.elapsed());\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::TraceTime);
        assert!(f[0].msg.contains("SimTime"), "{}", f[0].msg);
        let src = "// simlint: allow(trace-time, reason = \"host duration\")\n\
                   ctx.metric_record(\"m\", t0.elapsed());\n";
        assert!(lint_source("crates/x/src/a.rs", src).is_empty());
        // SimTime-derived durations are no violation.
        let ok = "ctx.metric_record(\"m\", ctx.now() - t0);\n";
        assert!(lint_source("crates/x/src/a.rs", ok).is_empty());
        // Raw tracer/histogram calls are covered too.
        let f = lint_source("crates/x/src/a.rs", "hist.record(timer.elapsed());\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::TraceTime);
    }

    #[test]
    fn native_thread_scoped_to_non_kernel() {
        let src = "std::thread::spawn(|| {});\n";
        assert_eq!(lint_source("crates/x/src/a.rs", src).len(), 1);
        assert!(lint_source("crates/simcore/src/kernel.rs", src).is_empty());
    }

    #[test]
    fn no_panic_scoped_and_test_excluded() {
        let src =
            "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn g() { y.unwrap(); }\n}\n";
        let f = lint_source("crates/dso/src/a.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 1);
        assert!(lint_source("crates/simcore/src/a.rs", src).is_empty(), "only dso scoped");
    }

    #[test]
    fn expect_needs_invariant_comment() {
        let bad = "fn f() { x.expect(\"y\"); }\n";
        assert_eq!(lint_source("crates/dso/src/a.rs", bad).len(), 1);
        let good = "fn f() {\n    // invariant: x was set above.\n    x.expect(\"y\");\n}\n";
        assert!(lint_source("crates/dso/src/a.rs", good).is_empty());
    }
}
