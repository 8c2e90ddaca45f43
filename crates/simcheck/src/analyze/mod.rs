//! The `simlint` engine: every rule, over one parsed workspace.
//!
//! [`Workspace::build`] lexes and parses every file once ([`crate::lex`],
//! [`crate::syntax`]), reads its allow directives and `nondet_source`
//! markers, and indexes functions and call sites workspace-wide. Three
//! passes run over it:
//!
//! 1. **Token rules** ([`local`]) — per file, on the code tokens:
//!    `wall-clock`, `native-thread`, `no-panic`, `trace-time`,
//!    `global-state`, and one `bad-allow` per malformed directive.
//! 2. **Determinism taint** ([`taint`]) — values originating from
//!    wall-clock reads, OS randomness or thread identity may not flow
//!    (through locals, call returns or struct fields) into protocol
//!    message types, trace/metric recording, or kernel time/messaging
//!    primitives.
//! 3. **Wait-annotation coverage** ([`waits`]) — every indefinitely
//!    blocking kernel primitive call (`ctx.park()`, untimed `ctx.call`)
//!    must be reachable only through code that calls
//!    `Ctx::annotate_wait`, so `deadlock_report()` wait-for graphs are
//!    never silently incomplete. The same pass holds that no blocking
//!    primitive at all is reachable from an `Actor::on_wake`.
//!
//! Every pass honours `// simlint: allow(<rule>, reason = "...")`
//! suppressions (a reasoned `wall-clock` allow on a source line also
//! stops taint from originating there) and asks the parser's one test
//! predicate ([`FileAst::in_test`]) what test code is. Which rules spare
//! test code, `tests/` and `benches/` trees, and the kernel's own
//! internals (`simcore/src/kernel.rs`, the determinism boundary itself)
//! is per rule; vendored `compat/` shims are never read.
//!
//! The interprocedural passes are name-based and
//! conservative-by-construction where it matters (any candidate callee
//! tainting a call, any field of a name tainting that field name), but
//! they are an *analysis of conventions*, not a soundness proof: receiver
//! types are resolved heuristically, so DESIGN.md §"Correctness tooling"
//! documents the contract.

pub mod local;
pub mod taint;
pub mod waits;

use std::collections::{BTreeSet, HashMap, HashSet};
use std::path::Path;

use crate::lex::TokKind;
use crate::syntax::{match_close, FileAst, FnDef};
use crate::{Allow, Finding, Rule};

/// Identifies one function: (file index, fn index within the file).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct FnId {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// Index into that file's [`FileAst::fns`].
    pub idx: usize,
}

/// One extracted call site inside a function body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// The callee's final name segment.
    pub name: String,
    /// Full path segments for path calls (`simcore::codec::to_bytes` →
    /// `["simcore", "codec", "to_bytes"]`); empty for method calls.
    pub path: Vec<String>,
    /// For method calls: the leftmost ident of the receiver chain
    /// (`self.items.push(…)` → `self`); `None` when the receiver is a
    /// complex expression.
    pub recv_root: Option<String>,
    /// Field idents between root and method (`self.items.push` →
    /// `["items"]`).
    pub recv_chain: Vec<String>,
    /// Whether this is a `.method(…)` call.
    pub is_method: bool,
    /// Token-index ranges of the top-level arguments.
    pub args: Vec<(usize, usize)>,
    /// Token index of the callee name.
    pub at: usize,
    /// 1-based source line of the callee name.
    pub line: u32,
}

/// The parsed workspace plus the cross-file indexes the passes share.
pub struct Workspace {
    /// Parsed files.
    pub files: Vec<FileAst>,
    /// Per file: its allow directives, malformed ones included.
    pub allows: Vec<Vec<Allow>>,
    /// Function name → definitions with that name, workspace-wide.
    pub fn_index: HashMap<String, Vec<FnId>>,
    /// Types defined in `protocol.rs` files (wire-message types).
    pub protocol_types: BTreeSet<String>,
    /// Per file: fn indices carrying a `// simlint: nondet_source` marker
    /// comment.
    pub nondet_marks: Vec<HashSet<usize>>,
    /// Per [`FnId`] (flattened): extracted call sites.
    calls: HashMap<FnId, Vec<CallSite>>,
}

impl Workspace {
    /// Builds a workspace from `(path, source)` pairs.
    pub fn build(sources: Vec<(String, String)>) -> Workspace {
        let mut files = Vec::new();
        let mut allows = Vec::new();
        let mut nondet_marks = Vec::new();
        for (path, src) in sources {
            let ast = crate::syntax::parse_file(&path, &src);
            allows.push(crate::parse_allows(&ast.src, &ast.toks));
            let marker_lines: HashSet<usize> = ast
                .toks
                .iter()
                .filter(|t| t.is_comment() && t.text(&ast.src).contains("simlint: nondet_source"))
                .map(|t| t.line as usize)
                .collect();
            let marks: HashSet<usize> = ast
                .fns
                .iter()
                .enumerate()
                .filter(|(_, f)| {
                    (1..=3).any(|d| marker_lines.contains(&(f.line as usize).saturating_sub(d)))
                })
                .map(|(i, _)| i)
                .collect();
            nondet_marks.push(marks);
            files.push(ast);
        }
        let mut fn_index: HashMap<String, Vec<FnId>> = HashMap::new();
        let mut protocol_types = BTreeSet::new();
        for (fi, file) in files.iter().enumerate() {
            for (i, f) in file.fns.iter().enumerate() {
                fn_index.entry(f.name.clone()).or_default().push(FnId { file: fi, idx: i });
            }
            let is_protocol = Path::new(&file.path).file_name().is_some_and(|n| n == "protocol.rs");
            if is_protocol {
                protocol_types.extend(file.structs.iter().map(|s| s.name.clone()));
            }
        }
        let mut ws = Workspace {
            files,
            allows,
            fn_index,
            protocol_types,
            nondet_marks,
            calls: HashMap::new(),
        };
        let mut calls = HashMap::new();
        for fi in 0..ws.files.len() {
            for i in 0..ws.files[fi].fns.len() {
                let id = FnId { file: fi, idx: i };
                if let Some(body) = ws.files[fi].fns[i].body {
                    calls.insert(id, extract_calls(&ws.files[fi], body));
                }
            }
        }
        ws.calls = calls;
        ws
    }

    /// The function's definition.
    pub fn fn_def(&self, id: FnId) -> &FnDef {
        &self.files[id.file].fns[id.idx]
    }

    /// The function's extracted call sites (empty for bodyless fns).
    pub fn calls_of(&self, id: FnId) -> &[CallSite] {
        self.calls.get(&id).map_or(&[], Vec::as_slice)
    }

    /// Whether the function is test code.
    pub fn is_test(&self, id: FnId) -> bool {
        self.files[id.file].in_test(self.fn_def(id).at)
    }

    /// Whether `rule` is allowed at `line` of file `fi`.
    pub fn allowed(&self, fi: usize, rule: Rule, line: usize) -> bool {
        self.allows[fi].iter().any(|a| a.covers(rule, line))
    }

    /// Whether the file is exempt from analysis findings: test and bench
    /// trees, and the kernel's own internals.
    pub fn exempt_file(&self, fi: usize) -> bool {
        let p = &self.files[fi].path;
        p.contains("/tests/") || p.contains("/benches/") || p.ends_with("simcore/src/kernel.rs")
    }

    /// Resolves a call site to candidate definitions. Name-based with two
    /// narrowing heuristics: an explicit `Type::name` path keeps only
    /// impls of `Type`; a `self.name(…)` call inside an impl keeps only
    /// impls of the caller's `Self` type when any exist.
    pub fn resolve(&self, caller: FnId, call: &CallSite) -> Vec<FnId> {
        let Some(cands) = self.fn_index.get(&call.name) else { return Vec::new() };
        if call.path.len() >= 2 {
            let qual = &call.path[call.path.len() - 2];
            if qual.chars().next().is_some_and(char::is_uppercase) {
                let narrowed: Vec<FnId> = cands
                    .iter()
                    .copied()
                    .filter(|id| self.fn_def(*id).impl_type.as_deref() == Some(qual))
                    .collect();
                if !narrowed.is_empty() {
                    return narrowed;
                }
            }
        }
        if call.is_method && call.recv_root.as_deref() == Some("self") && call.recv_chain.is_empty()
        {
            if let Some(ty) = &self.fn_def(caller).impl_type {
                let narrowed: Vec<FnId> = cands
                    .iter()
                    .copied()
                    .filter(|id| self.fn_def(*id).impl_type.as_deref() == Some(ty.as_str()))
                    .collect();
                if !narrowed.is_empty() {
                    return narrowed;
                }
            }
        }
        cands.clone()
    }

    /// Reverse edges: every (caller, call-site index) whose callee name is
    /// `name`.
    pub fn callers_of(&self, name: &str) -> Vec<(FnId, usize)> {
        let mut out = Vec::new();
        for (&id, sites) in &self.calls {
            for (ci, c) in sites.iter().enumerate() {
                if c.name == name {
                    out.push((id, ci));
                }
            }
        }
        out.sort_by_key(|(id, ci)| (id.file, id.idx, *ci));
        out
    }
}

/// Extracts call sites from a body token range.
fn extract_calls(file: &FileAst, body: (usize, usize)) -> Vec<CallSite> {
    let toks = &file.toks;
    let src = &file.src;
    let mut out = Vec::new();
    let (lo, hi) = body;
    for i in lo..hi {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        // A call is `name (…)`, allowing a turbofish in between; a macro
        // (`name!(…)`) is not a call.
        let mut j = i + 1;
        if j < hi && toks[j].is_punct(src, b':') && j + 1 < hi && toks[j + 1].is_punct(src, b':') {
            // `name::<T>(…)` turbofish, or a longer path — the path case
            // is handled when the *last* segment is visited.
            if j + 2 < hi && toks[j + 2].is_punct(src, b'<') {
                let mut depth = 0i32;
                j += 2;
                while j < hi {
                    if toks[j].is_punct(src, b'<') {
                        depth += 1;
                    } else if toks[j].is_punct(src, b'>') {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    j += 1;
                }
            } else {
                continue;
            }
        }
        if j >= hi || !toks[j].is_punct(src, b'(') {
            continue;
        }
        if i + 1 < hi && toks[i + 1].is_punct(src, b'!') {
            continue; // macro
        }
        let close = match_close(toks, src, j, hi);
        // Split the argument tokens at depth-1 commas.
        let mut args = Vec::new();
        let mut depth = 0i32;
        let mut start = j + 1;
        for (k, tk) in toks.iter().enumerate().take(close).skip(j) {
            if tk.kind == TokKind::Punct {
                match src.as_bytes()[tk.lo] {
                    b'(' | b'[' | b'{' => depth += 1,
                    b')' | b']' | b'}' => depth -= 1,
                    b',' if depth == 1 => {
                        args.push((start, k));
                        start = k + 1;
                    }
                    _ => {}
                }
            }
        }
        if start < close {
            args.push((start, close));
        }
        // Walk backwards: path segments or a receiver chain.
        let mut path = vec![toks[i].text(src).to_string()];
        let mut k = i;
        while k >= 2
            && toks[k - 1].is_punct(src, b':')
            && toks[k - 2].is_punct(src, b':')
            && k >= 3
            && toks[k - 3].kind == TokKind::Ident
        {
            path.insert(0, toks[k - 3].text(src).to_string());
            k -= 3;
        }
        let (is_method, recv_root, recv_chain) =
            if path.len() == 1 && k >= 1 && toks[k - 1].is_punct(src, b'.') {
                // Receiver chain: `.`-separated idents going left.
                let mut chain = Vec::new();
                let mut m = k - 1;
                let mut root = None;
                while m >= 1 && toks[m].is_punct(src, b'.') && toks[m - 1].kind == TokKind::Ident {
                    let ident = toks[m - 1].text(src).to_string();
                    if m >= 2 && toks[m - 2].is_punct(src, b'.') {
                        chain.insert(0, ident);
                        m -= 2;
                    } else {
                        root = Some(ident);
                        break;
                    }
                }
                (true, root, chain)
            } else {
                (false, None, Vec::new())
            };
        let name = path.last().cloned().unwrap_or_default();
        out.push(CallSite {
            name,
            path: if is_method { Vec::new() } else { path },
            recv_root,
            recv_chain,
            is_method,
            args,
            at: i,
            line: toks[i].line,
        });
    }
    out
}

/// Walks `.rs` files under `root` (skipping build output, fixtures,
/// vendored compat shims), producing `(path, source)` pairs with paths
/// shown relative to `root`'s parent.
///
/// # Errors
///
/// Propagates I/O errors from walking or reading the tree.
pub fn read_tree(root: &Path) -> std::io::Result<Vec<(String, String)>> {
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
    let mut out = Vec::new();
    for path in files {
        let src = std::fs::read_to_string(&path)?;
        let shown = path.strip_prefix(root.parent().unwrap_or(root)).unwrap_or(&path);
        out.push((shown.display().to_string(), src));
    }
    Ok(out)
}

/// Runs every pass over a built workspace; findings come back sorted by
/// (file, line, rule).
pub fn analyze(ws: &Workspace) -> Vec<Finding> {
    let mut findings = local::run(ws);
    findings.extend(taint::run(ws));
    findings.extend(waits::run(ws));
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
}

/// Reads a tree, builds the workspace, runs every pass: what the
/// `simlint` binary does.
///
/// # Errors
///
/// Propagates I/O errors from walking or reading the tree.
pub fn analyze_tree(root: &Path) -> std::io::Result<Vec<Finding>> {
    let ws = Workspace::build(read_tree(root)?);
    Ok(analyze(&ws))
}
