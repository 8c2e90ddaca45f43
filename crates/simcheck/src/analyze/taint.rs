//! Pass 2: interprocedural determinism taint.
//!
//! A *source* is a call that observes the host instead of the simulation:
//! wall-clock reads (`Instant::now`, `SystemTime::now`), OS randomness
//! (`thread_rng`, `from_entropy`, `RandomState::new`), thread identity
//! (`std::thread::current`), or any function marked with a
//! `// simlint: nondet_source` comment. A *sink* is anything that
//! feeds simulation state or observable ordering: trace spans, metrics,
//! kernel timing/messaging primitives, and fields of protocol (wire
//! message) types.
//!
//! Taint flows through `let` bindings and assignments inside a function,
//! through return values via per-function summaries iterated to a
//! fixpoint, and through struct fields via a global name-keyed
//! tainted-field set (over-approximate: any field of that name anywhere).
//! A reasoned `allow(wall-clock)` or `allow(determinism-taint)` directive
//! on the source line stops taint from *originating* there; an
//! `allow(determinism-taint)` on a sink line suppresses that finding
//! only.

use std::collections::HashMap;

use super::{CallSite, FnId, Workspace};
use crate::lex::TokKind;
use crate::{Finding, Rule};

/// What a sink call feeds, by callee name.
fn sink_kind(name: &str) -> Option<&'static str> {
    match name {
        "span_begin" | "span_begin_under" | "span_instant" | "span_end" | "span_annotate" => {
            Some("trace span ordering")
        }
        "metric_record" | "metric_add" | "metric_incr" | "metric_push" | "record" => {
            Some("metrics")
        }
        "sleep" | "send" | "call" | "call_timeout" | "push_event" => {
            Some("kernel timing/messaging")
        }
        _ => None,
    }
}

/// If `call` is a nondeterminism source, describes it. `caller` narrows
/// resolution of `nondet_source`-marked callees.
fn source_desc(ws: &Workspace, caller: FnId, call: &CallSite) -> Option<String> {
    let qual = call.path.len().checked_sub(2).map(|i| call.path[i].as_str());
    match call.name.as_str() {
        "now" if matches!(qual, Some("Instant" | "SystemTime")) => {
            return Some(format!("wall-clock read {}::now", qual.unwrap_or("")));
        }
        "thread_rng" | "from_entropy" => {
            return Some(format!("OS randomness ({})", call.name));
        }
        "new" if qual == Some("RandomState") => {
            return Some("RandomState::new (random hash seed)".to_string());
        }
        "current" if qual == Some("thread") => {
            return Some("thread identity (std::thread::current)".to_string());
        }
        _ => {}
    }
    for id in ws.resolve(caller, call) {
        if ws.nondet_marks[id.file].contains(&id.idx) {
            return Some(format!("{}() (declared nondet_source)", call.name));
        }
    }
    None
}

/// Whether origination at this line is suppressed by a reasoned allow.
fn origin_allowed(ws: &Workspace, fi: usize, line: u32) -> bool {
    ws.allowed(fi, Rule::WallClock, line as usize)
        || ws.allowed(fi, Rule::DeterminismTaint, line as usize)
}

/// Splits a fn body into top-level statements (token ranges). Nested
/// blocks stay inside their enclosing statement.
fn statements(ws: &Workspace, id: FnId) -> Vec<(usize, usize)> {
    let file = &ws.files[id.file];
    let Some((lo, hi)) = file.fns[id.idx].body else { return Vec::new() };
    let b = file.src.as_bytes();
    let end = hi.saturating_sub(1); // drop the closing brace
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = lo + 1;
    for i in lo + 1..end {
        let t = &file.toks[i];
        if t.kind == TokKind::Punct {
            match b[t.lo] {
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' | b'}' => depth -= 1,
                b';' if depth == 0 => {
                    out.push((start, i + 1));
                    start = i + 1;
                }
                _ => {}
            }
        }
    }
    if start < end {
        out.push((start, end));
    }
    out
}

/// Per-function evaluation result.
#[derive(Default)]
struct FnEval {
    /// Why the return value is tainted, if it is.
    returns: Option<String>,
    /// Fields assigned a tainted value in this fn: (field, why).
    new_fields: Vec<(String, String)>,
}

struct Pass<'a> {
    ws: &'a Workspace,
    summaries: &'a HashMap<FnId, String>,
    fields: &'a HashMap<String, String>,
}

impl Pass<'_> {
    /// Why the token range holds a tainted value, if it does.
    fn range_why(
        &self,
        id: FnId,
        range: (usize, usize),
        locals: &HashMap<String, String>,
        local_fields: &HashMap<String, String>,
    ) -> Option<String> {
        let file = &self.ws.files[id.file];
        let src = &file.src;
        for i in range.0..range.1 {
            let t = &file.toks[i];
            if t.kind != TokKind::Ident {
                continue;
            }
            let text = t.text(src);
            if let Some(why) = locals.get(text) {
                return Some(why.clone());
            }
            if i > range.0 && file.toks[i - 1].is_punct(src, b'.') {
                if let Some(why) = self.fields.get(text).or_else(|| local_fields.get(text)) {
                    return Some(format!("field `{text}` ({why})"));
                }
            }
        }
        for call in self.ws.calls_of(id) {
            if call.at < range.0 || call.at >= range.1 {
                continue;
            }
            if let Some(desc) = source_desc(self.ws, id, call) {
                if !origin_allowed(self.ws, id.file, call.line) {
                    return Some(format!(
                        "{desc} at {}:{}",
                        self.ws.files[id.file].path, call.line
                    ));
                }
            }
            for callee in self.ws.resolve(id, call) {
                if let Some(why) = self.summaries.get(&callee) {
                    return Some(format!("{}() -> {why}", call.name));
                }
            }
        }
        None
    }

    /// Evaluates one function: propagates taint through its locals to a
    /// fixpoint, computes the return/field summary, and (when `findings`
    /// is given) emits sink diagnostics.
    fn eval_fn(&self, id: FnId, findings: Option<&mut Vec<Finding>>) -> FnEval {
        let file = &self.ws.files[id.file];
        let fdef = &file.fns[id.idx];
        if fdef.body.is_none() {
            return FnEval::default();
        }
        let src = &file.src;
        let stmts = statements(self.ws, id);
        let mut locals: HashMap<String, String> = HashMap::new();
        let mut local_fields: HashMap<String, String> = HashMap::new();
        for _ in 0..10 {
            let mut changed = false;
            for &stmt in &stmts {
                let Some(why) = self.range_why(id, stmt, &locals, &local_fields) else { continue };
                for name in binding_targets(file, stmt) {
                    if let std::collections::hash_map::Entry::Vacant(e) = locals.entry(name) {
                        e.insert(why.clone());
                        changed = true;
                    }
                }
                for (target, is_field) in assign_targets(file, stmt) {
                    let map = if is_field { &mut local_fields } else { &mut locals };
                    if let std::collections::hash_map::Entry::Vacant(e) = map.entry(target) {
                        e.insert(why.clone());
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        // Return summary: a tainted tail expression or `return` statement.
        let mut returns = None;
        if fdef.has_ret {
            for (si, &stmt) in stmts.iter().enumerate() {
                let is_tail = si + 1 == stmts.len() && !file.toks[stmt.1 - 1].is_punct(src, b';');
                let has_return = (stmt.0..stmt.1).any(|i| {
                    file.toks[i].kind == TokKind::Ident && file.toks[i].text(src) == "return"
                });
                if (is_tail || has_return) && returns.is_none() {
                    returns = self.range_why(id, stmt, &locals, &local_fields).map(|why| {
                        format!("via {} ({}:{}): {why}", fdef.name, file.path, fdef.line)
                    });
                }
            }
        }
        if let Some(findings) = findings {
            self.emit_sinks(id, &locals, &local_fields, findings);
            self.emit_protocol_literals(id, &locals, &local_fields, findings);
        }
        FnEval { returns, new_fields: local_fields.into_iter().collect() }
    }

    /// Findings for tainted arguments reaching sink calls.
    fn emit_sinks(
        &self,
        id: FnId,
        locals: &HashMap<String, String>,
        local_fields: &HashMap<String, String>,
        findings: &mut Vec<Finding>,
    ) {
        let file = &self.ws.files[id.file];
        for call in self.ws.calls_of(id) {
            let Some(kind) = sink_kind(&call.name) else { continue };
            if self.ws.allowed(id.file, Rule::DeterminismTaint, call.line as usize) {
                continue;
            }
            for &arg in &call.args {
                if let Some(why) = self.range_why(id, arg, locals, local_fields) {
                    findings.push(Finding {
                        file: file.path.clone(),
                        line: call.line as usize,
                        rule: Rule::DeterminismTaint,
                        msg: format!(
                            "nondeterministic value ({why}) flows into {kind} via {}(..)",
                            call.name
                        ),
                    });
                    break;
                }
            }
        }
    }

    /// Findings for tainted field expressions in protocol-type literals.
    fn emit_protocol_literals(
        &self,
        id: FnId,
        locals: &HashMap<String, String>,
        local_fields: &HashMap<String, String>,
        findings: &mut Vec<Finding>,
    ) {
        let file = &self.ws.files[id.file];
        let src = &file.src;
        let Some((lo, hi)) = file.fns[id.idx].body else { return };
        for i in lo..hi {
            let t = &file.toks[i];
            if t.kind != TokKind::Ident
                || !self.ws.protocol_types.contains(t.text(src))
                || i + 1 >= hi
                || !file.toks[i + 1].is_punct(src, b'{')
            {
                continue;
            }
            let ty = t.text(src).to_string();
            let close = crate::syntax::match_close(&file.toks, src, i + 1, hi);
            let mut depth = 0i32;
            let mut k = i + 1;
            while k < close {
                let tk = &file.toks[k];
                if tk.kind == TokKind::Punct {
                    match src.as_bytes()[tk.lo] {
                        b'{' | b'(' | b'[' => depth += 1,
                        b'}' | b')' | b']' => depth -= 1,
                        _ => {}
                    }
                }
                // A `field: expr` initializer at literal depth.
                if depth == 1
                    && tk.kind == TokKind::Ident
                    && k + 1 < close
                    && file.toks[k + 1].is_punct(src, b':')
                    && !(k + 2 < close && file.toks[k + 2].is_punct(src, b':'))
                {
                    let field = tk.text(src).to_string();
                    // Expression runs to the next depth-1 comma.
                    let mut e = k + 2;
                    let mut d2 = 0i32;
                    while e < close {
                        let te = &file.toks[e];
                        if te.kind == TokKind::Punct {
                            match src.as_bytes()[te.lo] {
                                b'{' | b'(' | b'[' => d2 += 1,
                                b'}' | b')' | b']' => d2 -= 1,
                                b',' if d2 == 0 => break,
                                _ => {}
                            }
                        }
                        e += 1;
                    }
                    let line = tk.line as usize;
                    if !self.ws.allowed(id.file, Rule::DeterminismTaint, line) {
                        if let Some(why) = self.range_why(id, (k + 2, e), locals, local_fields) {
                            findings.push(Finding {
                                file: file.path.clone(),
                                line,
                                rule: Rule::DeterminismTaint,
                                msg: format!(
                                    "nondeterministic value ({why}) stored in field `{field}` of protocol type {ty}"
                                ),
                            });
                        }
                    }
                    k = e;
                    continue;
                }
                // Shorthand `Ty { field }` reusing a tainted local.
                if depth == 1
                    && tk.kind == TokKind::Ident
                    && k + 1 < close
                    && (file.toks[k + 1].is_punct(src, b',')
                        || file.toks[k + 1].is_punct(src, b'}'))
                {
                    let field = tk.text(src);
                    let line = tk.line as usize;
                    if let Some(why) = locals.get(field) {
                        if !self.ws.allowed(id.file, Rule::DeterminismTaint, line) {
                            findings.push(Finding {
                                file: file.path.clone(),
                                line,
                                rule: Rule::DeterminismTaint,
                                msg: format!(
                                    "nondeterministic value ({why}) stored in field `{field}` of protocol type {ty}"
                                ),
                            });
                        }
                    }
                }
                k += 1;
            }
        }
    }
}

/// Names bound by `let` patterns inside the statement.
fn binding_targets(file: &crate::syntax::FileAst, stmt: (usize, usize)) -> Vec<String> {
    let src = &file.src;
    let mut out = Vec::new();
    for i in stmt.0..stmt.1 {
        if file.toks[i].kind == TokKind::Ident && file.toks[i].text(src) == "let" {
            let mut j = i + 1;
            while j < stmt.1
                && file.toks[j].kind == TokKind::Ident
                && matches!(file.toks[j].text(src), "mut" | "ref")
            {
                j += 1;
            }
            if j < stmt.1 && file.toks[j].kind == TokKind::Ident {
                let name = file.toks[j].text(src);
                if name != "_" {
                    out.push(name.to_string());
                }
            }
        }
    }
    out
}

/// Targets of plain/compound assignments in the statement:
/// `(name, is_field)` — `x = …` yields `("x", false)`, `a.b = …` yields
/// `("b", true)`.
fn assign_targets(file: &crate::syntax::FileAst, stmt: (usize, usize)) -> Vec<(String, bool)> {
    let src = &file.src;
    let b = src.as_bytes();
    let mut out = Vec::new();
    let mut depth = 0i32;
    for i in stmt.0..stmt.1 {
        let t = &file.toks[i];
        if t.kind == TokKind::Punct {
            match b[t.lo] {
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' | b'}' => depth -= 1,
                b'=' if depth == 0 && i > stmt.0 => {
                    // Not ==, =>, <=, >=, !=, or the tail of a compound op.
                    let next_eq = i + 1 < stmt.1
                        && file.toks[i + 1].is_punct(src, b'=')
                        && t.glued(&file.toks[i + 1]);
                    let prev = &file.toks[i - 1];
                    let prev_cmp = prev.kind == TokKind::Punct
                        && matches!(b[prev.lo], b'<' | b'>' | b'!')
                        && prev.glued(t);
                    if next_eq || prev_cmp {
                        continue;
                    }
                    // Walk left over a possible compound operator to the
                    // assigned place expression.
                    let mut j = i - 1;
                    while j > stmt.0
                        && file.toks[j].kind == TokKind::Punct
                        && matches!(
                            b[file.toks[j].lo],
                            b'+' | b'-' | b'*' | b'/' | b'%' | b'&' | b'|' | b'^' | b'<' | b'>'
                        )
                        && file.toks[j].glued(t)
                    {
                        j -= 1;
                    }
                    if file.toks[j].kind == TokKind::Ident {
                        let name = file.toks[j].text(src).to_string();
                        let is_field = j > stmt.0 && file.toks[j - 1].is_punct(src, b'.');
                        out.push((name, is_field));
                    }
                }
                _ => {}
            }
        }
    }
    out
}

/// Runs the pass over the workspace.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    let mut summaries: HashMap<FnId, String> = HashMap::new();
    let mut fields: HashMap<String, String> = HashMap::new();
    // Fixpoint over return-taint summaries and the global field set.
    // Taint only ever gets added, so this converges; 20 rounds bounds the
    // longest call chain the analysis follows.
    for _ in 0..20 {
        let mut changed = false;
        let pass = Pass { ws, summaries: &summaries, fields: &fields };
        let mut add_sum = Vec::new();
        let mut add_fields = Vec::new();
        for fi in 0..ws.files.len() {
            for idx in 0..ws.files[fi].fns.len() {
                let id = FnId { file: fi, idx };
                let eval = pass.eval_fn(id, None);
                if let Some(why) = eval.returns {
                    if !summaries.contains_key(&id) {
                        add_sum.push((id, why));
                    }
                }
                for (f, why) in eval.new_fields {
                    if !fields.contains_key(&f) {
                        add_fields.push((f, why));
                    }
                }
            }
        }
        for (id, why) in add_sum {
            summaries.entry(id).or_insert(why);
            changed = true;
        }
        for (f, why) in add_fields {
            fields.entry(f).or_insert(why);
            changed = true;
        }
        if !changed {
            break;
        }
    }
    // Final pass: emit findings for non-test, non-exempt code.
    let pass = Pass { ws, summaries: &summaries, fields: &fields };
    let mut findings = Vec::new();
    for fi in 0..ws.files.len() {
        if ws.exempt_file(fi) {
            continue;
        }
        for idx in 0..ws.files[fi].fns.len() {
            let id = FnId { file: fi, idx };
            if !ws.is_test(id) {
                pass.eval_fn(id, Some(&mut findings));
            }
        }
    }
    findings
}
