//! Correctness tooling for the workspace: the `simlint` determinism lint.
//!
//! The simulation's guarantees rest on conventions a compiler cannot see:
//! no wall-clock reads inside simulated code, no native threads, no
//! process-wide mutable state, no panics on the DSO request path, spans
//! stamped with simulated time only, and no nondeterministic value reaching
//! simulation state. `simlint` enforces them over
//! `crates/**/*.rs` with one engine and no external parser: a lexer
//! ([`lex`]), an item parser ([`syntax`]) and the passes in [`analyze`],
//! all over one parsed [`analyze::Workspace`].
//!
//! Escape hatches:
//!
//! - `// simlint: allow(<rule>, reason = "...")` on the offending line or
//!   the line above suppresses a finding; a missing or empty reason is
//!   itself a finding ([`Rule::BadAllow`]).
//! - `.expect(...)` in DSO sources is accepted when a `// invariant: ...`
//!   comment within the three preceding lines documents why the value is
//!   always present.

use std::fmt;

use lex::Tok;

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
    /// state, a protocol message, or trace/metric ordering.
    DeterminismTaint,
    /// Process-wide mutable state in non-test code: a `static` of an
    /// interior-mutable type, a `static mut`, or a `thread_local!`.
    GlobalState,
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
            Rule::GlobalState => "global-state",
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
            "global-state" => Some(Rule::GlobalState),
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
    /// Path of the offending file, as given to [`analyze::Workspace::build`].
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

/// One `// simlint: allow(..)` directive. It covers its own line (a
/// trailing comment) and the next.
#[derive(Clone, Debug)]
pub struct Allow {
    /// 1-based line of the directive.
    pub line: usize,
    /// The rule it suppresses, or why it is malformed and suppresses
    /// nothing (reported as one [`Rule::BadAllow`]).
    pub rule: Result<Rule, String>,
}

impl Allow {
    /// Whether this directive suppresses `rule` at `line`.
    pub fn covers(&self, rule: Rule, line: usize) -> bool {
        self.rule == Ok(rule) && (line == self.line || line == self.line + 1)
    }
}

/// Parses every allow directive out of a file's comment tokens, so
/// directive text inside a string literal is invisible; requiring the
/// directive to *start* a comment line keeps prose that merely mentions
/// the syntax (like this crate's docs) inert.
pub fn parse_allows(src: &str, toks: &[Tok]) -> Vec<Allow> {
    let mut allows = Vec::new();
    for t in toks.iter().filter(|t| t.is_comment()) {
        for (k, raw) in t.text(src).lines().enumerate() {
            let comment = raw.trim_start().trim_start_matches(['/', '*', '!']).trim_start();
            let Some(rest) = comment.strip_prefix("simlint: allow(") else { continue };
            allows.push(Allow { line: t.line as usize + k, rule: parse_allow_body(rest) });
        }
    }
    allows
}

/// The rule named by a directive's text after `allow(`, if it is
/// well-formed.
fn parse_allow_body(rest: &str) -> Result<Rule, String> {
    let Some(close) = rest.rfind(')') else {
        return Err("unterminated allow directive".to_string());
    };
    let body = &rest[..close];
    let rule_name = body.split(',').next().unwrap_or("").trim();
    let Some(rule) = Rule::from_name(rule_name) else {
        return Err(format!("unknown rule {rule_name:?} in allow directive"));
    };
    // A reason is mandatory: allows without rationale rot.
    let reason_ok = body
        .find("reason")
        .map(|r| &body[r + "reason".len()..])
        .and_then(|after| after.trim_start().strip_prefix('='))
        .map(|after| after.trim_start())
        .and_then(|after| after.strip_prefix('"'))
        .is_some_and(|quoted| quoted.find('"').is_some_and(|end| end > 0));
    if reason_ok {
        Ok(rule)
    } else {
        Err(format!("allow({rule_name}) needs a non-empty reason = \"...\""))
    }
}
