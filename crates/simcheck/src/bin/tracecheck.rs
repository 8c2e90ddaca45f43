//! CI gate: schema-validates a Chrome trace-event JSON export produced by
//! `Tracer::export_chrome_json` (via `experiments trace-<app>`).
//!
//! Usage: `cargo run -p simcheck --bin tracecheck -- <trace.chrome.json>`
//!
//! Checks, with the shared hand-rolled parser in [`simcheck::json`] (the
//! workspace carries no JSON dependency):
//!
//! * the file is well-formed JSON: an object with a `traceEvents` array,
//! * every event has `name`/`ph`/`pid`/`tid`, non-metadata events a
//!   numeric `ts`, and `ph:"X"` events a numeric `dur`,
//! * span events carry `args.id`/`args.parent`, ids are unique and
//!   non-zero, and every non-zero parent resolves to a span in the file.
//!
//! Exits non-zero listing each violation, so a malformed export fails CI.

use std::process::ExitCode;

use simcheck::json::{parse, Json};

/// Validates one trace document; returns violations (empty = clean) plus
/// the number of span events checked.
fn validate(doc: &Json) -> (Vec<String>, usize) {
    let mut errs = Vec::new();
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        return (vec!["top-level object lacks a `traceEvents` array".to_string()], 0);
    };
    let mut ids = simcore::FxHashSet::default();
    let mut parents = Vec::new();
    let mut spans = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let at = |msg: &str| format!("event #{i}: {msg}");
        if !matches!(ev, Json::Obj(_)) {
            errs.push(at("not an object"));
            continue;
        }
        let ph = ev.get("ph").and_then(Json::as_str).unwrap_or_default().to_string();
        for key in ["name", "ph"] {
            if ev.get(key).and_then(Json::as_str).is_none() {
                errs.push(at(&format!("missing string `{key}`")));
            }
        }
        for key in ["pid", "tid"] {
            if ev.get(key).and_then(Json::as_num).is_none() {
                errs.push(at(&format!("missing numeric `{key}`")));
            }
        }
        if ph == "M" {
            continue; // metadata events carry no timestamps or span ids
        }
        match ev.get("ts").and_then(Json::as_num) {
            Some(ts) if ts >= 0.0 => {}
            Some(_) => errs.push(at("negative `ts`")),
            None => errs.push(at("missing numeric `ts`")),
        }
        if ph == "X" {
            match ev.get("dur").and_then(Json::as_num) {
                Some(dur) if dur >= 0.0 => {}
                Some(_) => errs.push(at("negative `dur`")),
                None => errs.push(at("complete event (ph:\"X\") missing numeric `dur`")),
            }
        }
        spans += 1;
        let args = ev.get("args");
        let id = args.and_then(|a| a.get("id")).and_then(Json::as_num);
        let parent = args.and_then(|a| a.get("parent")).and_then(Json::as_num);
        match id {
            Some(id) if id > 0.0 => {
                if !ids.insert(id as u64) {
                    errs.push(at(&format!("duplicate span id {id}")));
                }
            }
            Some(_) => errs.push(at("span id must be positive")),
            None => errs.push(at("missing numeric `args.id`")),
        }
        match parent {
            Some(p) => parents.push((i, p as u64)),
            None => errs.push(at("missing numeric `args.parent`")),
        }
    }
    for (i, p) in parents {
        if p != 0 && !ids.contains(&p) {
            errs.push(format!("event #{i}: parent span {p} not found in this trace"));
        }
    }
    (errs, spans)
}

fn main() -> ExitCode {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: tracecheck <trace.chrome.json>");
        return ExitCode::from(2);
    };
    let src = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("tracecheck: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let doc = match parse(&src) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("tracecheck: {path}: malformed JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (errs, spans) = validate(&doc);
    for e in &errs {
        println!("{path}: {e}");
    }
    if errs.is_empty() {
        println!("tracecheck: {path}: clean ({spans} span events)");
        ExitCode::SUCCESS
    } else {
        println!("tracecheck: {path}: {} violation(s)", errs.len());
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_a_real_export() {
        let src = r#"{"traceEvents":[
            {"name":"thread_name","ph":"M","pid":1,"tid":3,"args":{"name":"client"}},
            {"name":"dso.call","cat":"dso","ph":"X","ts":1000,"dur":2.500,"pid":1,"tid":3,"args":{"id":1,"parent":0}},
            {"name":"dso.exec","cat":"dso","ph":"X","ts":1001,"dur":1,"pid":1,"tid":4,"args":{"id":2,"parent":1}},
            {"name":"dso.view_change","cat":"dso","ph":"i","s":"t","ts":5,"pid":1,"tid":0,"args":{"id":3,"parent":0}}
        ]}"#;
        let (errs, spans) = validate(&parse(src).unwrap());
        assert!(errs.is_empty(), "{errs:?}");
        assert_eq!(spans, 3);
    }

    #[test]
    fn rejects_schema_violations() {
        // Missing dur on an X event, dangling parent, duplicate id.
        let src = r#"{"traceEvents":[
            {"name":"a","ph":"X","ts":1,"pid":1,"tid":1,"args":{"id":1,"parent":9}},
            {"name":"b","ph":"X","ts":2,"dur":1,"pid":1,"tid":1,"args":{"id":1,"parent":0}}
        ]}"#;
        let (errs, _) = validate(&parse(src).unwrap());
        assert!(errs.iter().any(|e| e.contains("missing numeric `dur`")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("parent span 9")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("duplicate span id")), "{errs:?}");
        let (errs, _) = validate(&parse("{\"other\":1}").unwrap());
        assert!(errs[0].contains("traceEvents"));
    }
}
