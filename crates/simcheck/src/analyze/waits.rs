//! Pass 3: wait-annotation coverage.
//!
//! `Sim::deadlock_report()` reconstructs wait-for graphs from
//! `Ctx::annotate_wait` calls. A blocking primitive reached without any
//! annotation on the call path produces a silently incomplete report —
//! the scheduler still detects the stall, but the cycle it prints is
//! missing an edge. This pass finds every indefinitely blocking kernel
//! primitive call site (`ctx.park()` and untimed `ctx.call(..)`; the
//! timed variants and `recv` wake up on their own and are deliberately
//! out of scope) and checks that either the enclosing function annotates
//! before the block site, or every non-test path in the reverse call
//! graph passes through a function that calls `annotate_wait`.
//!
//! The traversal is name-based: callers are matched by callee name, so
//! it over-approximates the real call graph. That errs toward finding
//! an annotating caller (suppressing the diagnostic), which is the safe
//! direction for a gating lint.
//!
//! The same block sites, widened to every primitive that parks the
//! calling thread (`sleep`, `compute`, `recv*`, `call*`, `park`), feed a
//! second finding: **actors never block**. An `Actor::on_wake` runs inline
//! on the run thread and blocks only by returning a `Wait`; the kernel
//! panics at run time on a blocking call from an actor's `Ctx`, and
//! [`actor_blocks`] makes it a static fact by walking the call graph
//! forward from every `impl Actor … fn on_wake`. Helpers that block
//! through the kernel (`Ticker::wait`, monitor and barrier waits) are
//! ordinary functions in this walk: it reaches their `ctx.sleep` /
//! `ctx.park`. Only calls that pass a `ctx` along, to functions whose
//! signature takes a `Ctx`, are followed — nothing else can block — and
//! the closure of a `spawn*` call is skipped: that is another process's
//! body.

use std::collections::{HashSet, VecDeque};

use super::{CallSite, FnId, Workspace};
use crate::{Finding, Rule};

/// Whether the call is a method on a `Ctx` (`ctx.f(..)`, `self.ctx.f(..)`).
fn on_ctx(call: &CallSite) -> bool {
    (call.recv_root.as_deref() == Some("ctx") && call.recv_chain.is_empty())
        || call.recv_chain.last().map(String::as_str) == Some("ctx")
}

/// Whether the call site is an indefinitely blocking kernel primitive.
fn is_block_site(call: &CallSite) -> bool {
    on_ctx(call) && matches!(call.name.as_str(), "park" | "call")
}

/// Whether the call site parks the calling thread at all, timed or not.
fn is_yield_site(call: &CallSite) -> bool {
    on_ctx(call)
        && matches!(
            call.name.as_str(),
            "sleep"
                | "compute"
                | "recv"
                | "recv_timeout"
                | "call"
                | "call_sized"
                | "call_timeout"
                | "park"
        )
}

/// Names of functions that annotate: `annotate_wait` itself plus the
/// transitive closure of functions calling an annotating function (so a
/// small `fn annotate(&self, ctx, ..)` helper wrapping `annotate_wait`
/// counts).
fn annotating_names(ws: &Workspace) -> HashSet<String> {
    let mut names: HashSet<String> = HashSet::new();
    names.insert("annotate_wait".to_string());
    loop {
        let mut changed = false;
        for fi in 0..ws.files.len() {
            for idx in 0..ws.files[fi].fns.len() {
                let id = FnId { file: fi, idx };
                let fname = &ws.fn_def(id).name;
                if names.contains(fname) {
                    continue;
                }
                if ws.calls_of(id).iter().any(|c| names.contains(&c.name)) {
                    names.insert(fname.clone());
                    changed = true;
                }
            }
        }
        if !changed {
            return names;
        }
    }
}

/// Token index of the first annotating call in the function, if any.
fn first_annotate(ws: &Workspace, id: FnId, ann: &HashSet<String>) -> Option<usize> {
    ws.calls_of(id).iter().find(|c| ann.contains(&c.name)).map(|c| c.at)
}

/// Walks the reverse call graph from `start` looking for a root function
/// (one with no non-test callers) reachable without passing an
/// annotating function. Returns a description of one such root.
fn uncovered_root(ws: &Workspace, start: FnId, ann: &HashSet<String>) -> Option<String> {
    let mut visited: HashSet<FnId> = HashSet::new();
    visited.insert(start);
    let mut stack = vec![start];
    while let Some(id) = stack.pop() {
        let name = &ws.fn_def(id).name;
        let mut has_caller = false;
        for (caller, _) in ws.callers_of(name) {
            if caller == id {
                continue; // direct recursion is not a caller
            }
            has_caller = true;
            // A test or bench driving the blocking call directly is fine:
            // deadlock reports only matter for simulated scenarios, and
            // those are started by exactly this kind of harness code.
            if ws.is_test(caller) || ws.exempt_file(caller.file) {
                continue;
            }
            if !visited.insert(caller) {
                continue;
            }
            if first_annotate(ws, caller, ann).is_some() {
                continue; // this path is covered
            }
            stack.push(caller);
        }
        if !has_caller && id != start {
            let f = ws.fn_def(id);
            return Some(format!("{} ({}:{})", f.name, ws.files[id.file].path, f.line));
        }
        if !has_caller && id == start {
            return Some("it has no callers and does not annotate".to_string());
        }
    }
    None
}

/// Whether any token of the call's arguments is the identifier `ctx`.
fn passes_ctx(ws: &Workspace, fi: usize, call: &CallSite) -> bool {
    let file = &ws.files[fi];
    call.args.iter().any(|&(lo, hi)| (lo..hi).any(|t| file.toks[t].text(&file.src) == "ctx"))
}

/// Every blocking primitive reachable from an `impl Actor … fn on_wake`,
/// one finding per block site, naming the first actor (in file order) that
/// reaches it and the call chain.
fn actor_blocks(ws: &Workspace) -> Vec<Finding> {
    let mut findings: Vec<Finding> = Vec::new();
    for fi in 0..ws.files.len() {
        if ws.exempt_file(fi) {
            continue;
        }
        for idx in 0..ws.files[fi].fns.len() {
            let root = FnId { file: fi, idx };
            let rdef = ws.fn_def(root);
            if rdef.name != "on_wake"
                || rdef.impl_trait.as_deref() != Some("Actor")
                || ws.is_test(root)
            {
                continue;
            }
            let actor = rdef.impl_type.as_deref().unwrap_or("?");
            // Breadth-first, remembering how each function was reached.
            let mut via: Vec<(FnId, Option<usize>)> = vec![(root, None)];
            let mut queue: VecDeque<usize> = VecDeque::from([0]);
            while let Some(at) = queue.pop_front() {
                let id = via[at].0;
                let calls = ws.calls_of(id);
                // Token ranges of `spawn*(.., |ctx| ..)` arguments: the
                // closure is a thread process's body, free to block.
                let spawned: Vec<(usize, usize)> = calls
                    .iter()
                    .filter(|c| c.name.starts_with("spawn"))
                    .flat_map(|c| c.args.iter().copied())
                    .collect();
                for call in calls {
                    if spawned.iter().any(|&(lo, hi)| (lo..hi).contains(&call.at)) {
                        continue;
                    }
                    if is_yield_site(call) {
                        let line = call.line as usize;
                        let file = &ws.files[id.file].path;
                        if ws.allowed(id.file, Rule::ActorBlocks, line)
                            || findings.iter().any(|f| f.file == *file && f.line == line)
                        {
                            continue;
                        }
                        let mut chain = Vec::new();
                        let mut hop = Some(at);
                        while let Some(h) = hop {
                            chain.push(ws.fn_def(via[h].0).name.as_str());
                            hop = via[h].1;
                        }
                        chain.reverse();
                        findings.push(Finding {
                            file: file.clone(),
                            line,
                            rule: Rule::ActorBlocks,
                            msg: format!(
                                "blocking ctx.{}(..) is reachable from actor {actor} (via {}); an \
                                 actor blocks only by returning a Wait from on_wake",
                                call.name,
                                chain.join(" -> ")
                            ),
                        });
                    } else if !on_ctx(call) && passes_ctx(ws, id.file, call) {
                        for callee in ws.resolve(id, call) {
                            let cdef = ws.fn_def(callee);
                            if cdef.takes_ctx
                                && !ws.is_test(callee)
                                && !ws.exempt_file(callee.file)
                                && via.iter().all(|(seen, _)| *seen != callee)
                            {
                                via.push((callee, Some(at)));
                                queue.push_back(via.len() - 1);
                            }
                        }
                    }
                }
            }
        }
    }
    findings
}

/// Runs the pass over the workspace.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    let mut findings = actor_blocks(ws);
    let ann = annotating_names(ws);
    for fi in 0..ws.files.len() {
        if ws.exempt_file(fi) {
            continue;
        }
        for idx in 0..ws.files[fi].fns.len() {
            let id = FnId { file: fi, idx };
            let fdef = ws.fn_def(id);
            if ws.is_test(id) || fdef.body.is_none() {
                continue;
            }
            let annotate_at = first_annotate(ws, id, &ann);
            for call in ws.calls_of(id) {
                if !is_block_site(call) {
                    continue;
                }
                // Untimed `call` only: `call_timeout` has its own wakeup.
                if annotate_at.is_some_and(|a| a < call.at) {
                    continue; // self-annotating before the block site
                }
                if ws.allowed(fi, Rule::WaitAnnotation, call.line as usize) {
                    continue;
                }
                if let Some(root) = uncovered_root(ws, id, &ann) {
                    findings.push(Finding {
                        file: ws.files[fi].path.clone(),
                        line: call.line as usize,
                        rule: Rule::WaitAnnotation,
                        msg: format!(
                            "blocking ctx.{}(..) is reachable without any Ctx::annotate_wait \
                             on the path (via {root}); deadlock reports will be incomplete",
                            call.name
                        ),
                    });
                }
            }
        }
    }
    findings
}
