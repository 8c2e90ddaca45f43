//! A lightweight item and function-body parser over [`crate::lex`]
//! tokens.
//!
//! This is deliberately *not* a full Rust AST. The interprocedural passes
//! in [`crate::analyze`] need four things from a source file: which
//! functions exist (with their impl context and body span), which structs exist (with their field names), which call sites
//! appear inside a body (callee path or method name, receiver root,
//! argument spans), and which struct-literal expressions construct a
//! known type. Everything else — expressions, types, generics — is
//! skipped by balanced-bracket matching.
//!
//! The parser is resilient by construction: unrecognized tokens advance
//! the cursor, so macro-heavy or exotic code degrades to "no facts
//! extracted" rather than an error.

use crate::lex::{Tok, TokKind};

/// One `fn` item.
#[derive(Clone, Debug)]
pub struct FnDef {
    /// The function's name.
    pub name: String,
    /// `Self` type name when defined inside an `impl` block.
    pub impl_type: Option<String>,
    /// Trait name when inside an `impl Trait for Type` block.
    pub impl_trait: Option<String>,
    /// Whether the signature declares a return type (`->`).
    pub has_ret: bool,
    /// Whether a parameter's type names `Ctx` — the only way code can reach
    /// a blocking kernel primitive.
    pub takes_ctx: bool,
    /// Token-index range of the body, including the outer braces; `None`
    /// for trait-method declarations without a body.
    pub body: Option<(usize, usize)>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Inside a `#[cfg(test)]` module, or carrying `#[test]`.
    pub is_test: bool,
}

/// One `struct` or `enum` item.
#[derive(Clone, Debug)]
pub struct StructDef {
    /// The type's name.
    pub name: String,
    /// Named field idents (empty for tuple structs and enums).
    pub fields: Vec<String>,
    /// 1-based line of the declaration.
    pub line: u32,
}

/// Parsed facts about one source file.
pub struct FileAst {
    /// Path as given to [`parse_file`] (reporting only).
    pub path: String,
    /// The source text.
    pub src: String,
    /// The token stream.
    pub toks: Vec<Tok>,
    /// Every `fn` item found, in source order.
    pub fns: Vec<FnDef>,
    /// Every `struct`/`enum` item found.
    pub structs: Vec<StructDef>,
}

/// Parses one file into items. Never fails.
pub fn parse_file(path: &str, src: &str) -> FileAst {
    let toks = crate::lex::lex(src);
    let mut ast = FileAst {
        path: path.to_string(),
        src: src.to_string(),
        toks,
        fns: Vec::new(),
        structs: Vec::new(),
    };
    let end = ast.toks.len();
    let mut p = Parser { ast: &mut ast, in_test: false, impl_type: None, impl_trait: None };
    p.items(0, end);
    ast
}

/// Matching close-bracket index for the open bracket at `i` (token
/// indices); returns `end` if unbalanced.
pub fn match_close(toks: &[Tok], src: &str, i: usize, end: usize) -> usize {
    let b = src.as_bytes();
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().take(end).skip(i) {
        if t.kind == TokKind::Punct {
            match b[t.lo] {
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' | b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        return j;
                    }
                }
                _ => {}
            }
        }
    }
    end
}

struct Parser<'a> {
    ast: &'a mut FileAst,
    in_test: bool,
    impl_type: Option<String>,
    impl_trait: Option<String>,
}

impl Parser<'_> {
    fn text(&self, i: usize) -> &str {
        self.ast.toks[i].text(&self.ast.src)
    }

    fn is_punct(&self, i: usize, c: u8) -> bool {
        i < self.ast.toks.len() && self.ast.toks[i].is_punct(&self.ast.src, c)
    }

    fn is_ident(&self, i: usize, s: &str) -> bool {
        i < self.ast.toks.len() && self.ast.toks[i].kind == TokKind::Ident && self.text(i) == s
    }

    /// Skips a balanced `<…>` generics list starting at `i` if present.
    /// Angle brackets are not tracked by [`match_close`] (they are also
    /// comparison operators), so this counts them directly — safe inside
    /// a generics position.
    fn skip_generics(&self, mut i: usize, end: usize) -> usize {
        if !self.is_punct(i, b'<') {
            return i;
        }
        let mut depth = 0i32;
        while i < end {
            if self.is_punct(i, b'<') {
                depth += 1;
            } else if self.is_punct(i, b'>') {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            i += 1;
        }
        end
    }

    /// Scans attributes/doc-comments starting at `i`; returns the index
    /// after them and whether any was `#[test]`-like or `#[cfg(test)]`.
    fn skip_attrs(&self, mut i: usize, end: usize) -> (usize, bool) {
        let mut test = false;
        loop {
            while i < end
                && matches!(self.ast.toks[i].kind, TokKind::LineComment | TokKind::BlockComment)
            {
                i += 1;
            }
            if self.is_punct(i, b'#') {
                let mut j = i + 1;
                if self.is_punct(j, b'!') {
                    j += 1;
                }
                if self.is_punct(j, b'[') {
                    let close = match_close(&self.ast.toks, &self.ast.src, j, end);
                    let body: Vec<&str> =
                        (j + 1..close).map(|k| self.ast.toks[k].text(&self.ast.src)).collect();
                    if body.contains(&"test") {
                        test = true;
                    }
                    i = close + 1;
                    continue;
                }
            }
            return (i, test);
        }
    }

    /// The last segment of a type path starting at `i`; returns the name
    /// and the index after the whole path (generics skipped).
    fn type_path(&self, mut i: usize, end: usize) -> (String, usize) {
        let mut name = String::new();
        // Leading `&`, lifetimes and `dyn`/`mut` qualifiers.
        while i < end
            && (self.is_punct(i, b'&')
                || self.ast.toks[i].kind == TokKind::Lifetime
                || self.is_ident(i, "dyn")
                || self.is_ident(i, "mut"))
        {
            i += 1;
        }
        while i < end && self.ast.toks[i].kind == TokKind::Ident {
            name = self.text(i).to_string();
            i += 1;
            i = self.skip_generics(i, end);
            if self.is_punct(i, b':') && self.is_punct(i + 1, b':') {
                i += 2;
            } else {
                break;
            }
        }
        (name, i)
    }

    fn items(&mut self, mut i: usize, end: usize) {
        while i < end {
            let (after_attrs, attr_test) = self.skip_attrs(i, end);
            i = after_attrs;
            if i >= end {
                break;
            }
            if self.ast.toks[i].kind != TokKind::Ident {
                i += 1;
                continue;
            }
            match self.text(i) {
                "mod" if i + 1 < end && self.ast.toks[i + 1].kind == TokKind::Ident => {
                    // `mod name { … }` — recurse with the test flag; the
                    // attribute was scanned just above.
                    if self.is_punct(i + 2, b'{') {
                        let close = match_close(&self.ast.toks, &self.ast.src, i + 2, end);
                        let saved = self.in_test;
                        self.in_test = saved || attr_test;
                        self.items(i + 3, close);
                        self.in_test = saved;
                        i = close + 1;
                    } else {
                        i += 2; // `mod name;`
                    }
                }
                "impl" => {
                    let mut j = self.skip_generics(i + 1, end);
                    let (first, after) = self.type_path(j, end);
                    j = after;
                    let (ty, tr) = if self.is_ident(j, "for") {
                        let (ty, after) = self.type_path(j + 1, end);
                        j = after;
                        (ty, Some(first))
                    } else {
                        (first, None)
                    };
                    // Skip a where-clause to the block.
                    while j < end && !self.is_punct(j, b'{') {
                        j += 1;
                    }
                    if j >= end {
                        i = end;
                        continue;
                    }
                    let close = match_close(&self.ast.toks, &self.ast.src, j, end);
                    let (saved_ty, saved_tr) = (self.impl_type.take(), self.impl_trait.take());
                    let saved_test = self.in_test;
                    self.impl_type = Some(ty);
                    self.impl_trait = tr;
                    self.in_test = saved_test || attr_test;
                    self.items(j + 1, close);
                    self.impl_type = saved_ty;
                    self.impl_trait = saved_tr;
                    self.in_test = saved_test;
                    i = close + 1;
                }
                "fn" if i + 1 < end && self.ast.toks[i + 1].kind == TokKind::Ident => {
                    i = self.fn_item(i, end, attr_test);
                }
                "struct" | "enum" if i + 1 < end && self.ast.toks[i + 1].kind == TokKind::Ident => {
                    i = self.struct_item(i, end);
                }
                _ => i += 1,
            }
        }
    }

    fn fn_item(&mut self, at: usize, end: usize, attr_test: bool) -> usize {
        let name = self.text(at + 1).to_string();
        let line = self.ast.toks[at].line;
        let j = self.skip_generics(at + 2, end);
        if !self.is_punct(j, b'(') {
            return at + 2; // `fn` pointer type or macro fragment
        }
        let params_close = match_close(&self.ast.toks, &self.ast.src, j, end);
        let takes_ctx = (j + 1..params_close).any(|p| self.is_ident(p, "Ctx"));
        // Return type: a `->` between the parens and the body/semicolon.
        let mut j = params_close + 1;
        let mut has_ret = false;
        while j < end && !self.is_punct(j, b'{') && !self.is_punct(j, b';') {
            if self.is_punct(j, b'-') && self.is_punct(j + 1, b'>') {
                has_ret = true;
            }
            j += 1;
        }
        let body = if j < end && self.is_punct(j, b'{') {
            let close = match_close(&self.ast.toks, &self.ast.src, j, end);
            Some((j, close + 1))
        } else {
            None
        };
        self.ast.fns.push(FnDef {
            name,
            impl_type: self.impl_type.clone(),
            impl_trait: self.impl_trait.clone(),
            has_ret,
            takes_ctx,
            body,
            line,
            is_test: self.in_test || attr_test,
        });
        match body {
            Some((_, after)) => after,
            None => j.min(end) + 1,
        }
    }

    fn struct_item(&mut self, at: usize, end: usize) -> usize {
        let name = self.text(at + 1).to_string();
        let line = self.ast.toks[at].line;
        let is_enum = self.text(at) == "enum";
        let mut j = self.skip_generics(at + 2, end);
        // Skip a where-clause; stop at `{`, `(` (tuple struct) or `;`.
        while j < end
            && !self.is_punct(j, b'{')
            && !self.is_punct(j, b'(')
            && !self.is_punct(j, b';')
        {
            j += 1;
        }
        let mut fields = Vec::new();
        let after = if j < end && self.is_punct(j, b'{') {
            let close = match_close(&self.ast.toks, &self.ast.src, j, end);
            if !is_enum {
                // Named fields: idents directly followed by `:` at depth 1.
                let mut depth = 0i32;
                for k in j..close {
                    let t = &self.ast.toks[k];
                    if t.kind == TokKind::Punct {
                        match self.ast.src.as_bytes()[t.lo] {
                            b'{' | b'(' | b'[' | b'<' => depth += 1,
                            b'}' | b')' | b']' | b'>' => depth -= 1,
                            _ => {}
                        }
                    }
                    if depth == 1
                        && t.kind == TokKind::Ident
                        && self.is_punct(k + 1, b':')
                        && !self.is_punct(k + 2, b':')
                    {
                        fields.push(self.text(k).to_string());
                    }
                }
            }
            close + 1
        } else if j < end && self.is_punct(j, b'(') {
            match_close(&self.ast.toks, &self.ast.src, j, end) + 1
        } else {
            j.min(end) + 1
        };
        self.ast.structs.push(StructDef { name, fields, line });
        after
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_fn_and_method() {
        let src = "fn top(x: u8) -> u8 { x }\n\
                   impl Widget { fn poke(&mut self) { self.n += 1; } fn peek(&self) -> u8 { 0 } }\n\
                   impl Display for Widget { fn fmt(&self, f: &mut F) -> R { ok }\n}";
        let ast = parse_file("a.rs", src);
        let names: Vec<(&str, Option<&str>, Option<&str>)> = ast
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.impl_type.as_deref(), f.impl_trait.as_deref()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("top", None, None),
                ("poke", Some("Widget"), None),
                ("peek", Some("Widget"), None),
                ("fmt", Some("Widget"), Some("Display")),
            ]
        );
        assert!(ast.fns[0].has_ret);
        assert!(!ast.fns[1].has_ret);
    }

    #[test]
    fn test_mods_and_attrs_are_marked() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n    #[test]\n    fn case() {}\n}\n#[test]\nfn top_level_case() {}\n";
        let ast = parse_file("a.rs", src);
        let flags: Vec<(&str, bool)> =
            ast.fns.iter().map(|f| (f.name.as_str(), f.is_test)).collect();
        assert_eq!(
            flags,
            vec![("real", false), ("helper", true), ("case", true), ("top_level_case", true)]
        );
    }

    #[test]
    fn generic_fns_and_impls() {
        let src = "impl<T: Clone> Stack<T> { fn push2<U>(&mut self, x: T) where T: Copy { } }";
        let ast = parse_file("a.rs", src);
        assert_eq!(ast.fns.len(), 1);
        assert_eq!(ast.fns[0].name, "push2");
        assert_eq!(ast.fns[0].impl_type.as_deref(), Some("Stack"));
    }

    #[test]
    fn structs_collect_field_names() {
        let src = "pub struct Msg { pub at: u64, body: Vec<u8>, nested: Inner<A, B> }\n\
                   struct Tup(u8, u8);\npub enum Kind { A { x: u8 }, B }\n";
        let ast = parse_file("a.rs", src);
        assert_eq!(ast.structs.len(), 3);
        assert_eq!(ast.structs[0].name, "Msg");
        assert_eq!(ast.structs[0].fields, vec!["at", "body", "nested"]);
        assert_eq!(ast.structs[1].name, "Tup");
        assert!(ast.structs[1].fields.is_empty());
        assert_eq!(ast.structs[2].name, "Kind");
        assert!(ast.structs[2].fields.is_empty(), "enum variant fields are not struct fields");
    }

    #[test]
    fn trait_decls_without_bodies() {
        let src = "trait T { fn must(&self) -> u8; fn given(&self) -> u8 { 1 } }";
        let ast = parse_file("a.rs", src);
        assert_eq!(ast.fns.len(), 2);
        assert!(ast.fns[0].body.is_none());
        assert!(ast.fns[1].body.is_some());
    }
}
