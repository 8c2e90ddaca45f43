//! A hand-rolled Rust lexer: the token layer under `simlint` and
//! `simanalyze`.
//!
//! The workspace carries no external parser, so this module implements
//! just enough of the Rust lexical grammar to be *exact* about the
//! distinctions the analyses need: code vs. comment vs. literal, char
//! literal vs. lifetime, raw strings with hash guards, and nested block
//! comments. Everything downstream (the legacy line rules, the item
//! parser, the interprocedural passes) consumes these tokens instead of
//! regex-matching raw text, so an identifier inside a string literal or a
//! comment can never be mistaken for code again.
//!
//! The lexer is lossless over byte offsets: every token carries its
//! `[lo, hi)` span into the original source, and [`views`] can rebuild
//! the blanked code/comment projections the legacy rules match against,
//! preserving the exact byte length and line structure of the input.

/// Token classes. Keywords are ordinary [`TokKind::Ident`]s; multi-char
/// operators are adjacent [`TokKind::Punct`]s (check [`Tok::glued`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including raw identifiers like `r#type`).
    Ident,
    /// A lifetime or loop label, including the leading `'`.
    Lifetime,
    /// Integer or float literal, including suffix.
    Num,
    /// Any string-like literal: `"…"`, `r#"…"#`, `b"…"`, `'c'`, `b'c'`.
    Str,
    /// One punctuation byte.
    Punct,
    /// A `//…` comment, without the trailing newline.
    LineComment,
    /// A `/* … */` comment (nested blocks included), with delimiters.
    BlockComment,
}

/// One token: kind plus byte span and 1-based starting line.
#[derive(Copy, Clone, Debug)]
pub struct Tok {
    /// The token class.
    pub kind: TokKind,
    /// Byte offset of the first byte.
    pub lo: usize,
    /// Byte offset one past the last byte.
    pub hi: usize,
    /// 1-based line of `lo`.
    pub line: u32,
}

impl Tok {
    /// The token's text.
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.lo..self.hi]
    }

    /// Whether this token is the single punctuation byte `c`.
    pub fn is_punct(&self, src: &str, c: u8) -> bool {
        self.kind == TokKind::Punct && src.as_bytes()[self.lo] == c
    }

    /// Whether `next` follows this token with no gap (multi-char operator
    /// detection: `::`, `=>`, `->`, `..`).
    pub fn glued(&self, next: &Tok) -> bool {
        self.hi == next.lo
    }

    /// For [`TokKind::Str`] tokens: the literal's inner content, with the
    /// quotes, raw-string hash guards and `b`/`r` prefixes stripped (but
    /// escapes left undecoded — method-name literals never contain any).
    pub fn str_content<'a>(&self, src: &'a str) -> &'a str {
        let t = self.text(src);
        let t = t.trim_start_matches(['b', 'r']);
        let t = t.trim_matches('#');
        t.trim_matches(['"', '\''])
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

struct Lexer<'a> {
    b: &'a [u8],
    pos: usize,
    line: u32,
    out: Vec<Tok>,
}

impl Lexer<'_> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.b.get(self.pos + ahead).copied()
    }

    fn bump_line_counter(&mut self, lo: usize, hi: usize) {
        self.line += self.b[lo..hi].iter().filter(|&&c| c == b'\n').count() as u32;
    }

    fn push(&mut self, kind: TokKind, lo: usize) {
        let line = self.line;
        self.bump_line_counter(lo, self.pos);
        self.out.push(Tok { kind, lo, hi: self.pos, line });
    }

    /// Consumes a `"…"` body starting *after* the opening quote.
    fn string_body(&mut self) {
        while let Some(c) = self.peek(0) {
            self.pos += 1;
            match c {
                b'"' => return,
                b'\\'
                    // Skip the escaped byte ('\"', '\\', '\n' line-join…).
                    if self.peek(0).is_some() => {
                        self.pos += 1;
                    }
                _ => {}
            }
        }
    }

    /// Consumes a raw string body after `r##…"`, guarded by `hashes` `#`s.
    fn raw_string_body(&mut self, hashes: usize) {
        while let Some(c) = self.peek(0) {
            self.pos += 1;
            if c == b'"' {
                let close = (0..hashes).all(|k| self.peek(k) == Some(b'#'));
                if close {
                    self.pos += hashes;
                    return;
                }
            }
        }
    }

    /// Consumes a `'…'` char-literal body after the opening quote.
    fn char_body(&mut self) {
        while let Some(c) = self.peek(0) {
            self.pos += 1;
            match c {
                b'\'' => return,
                b'\\' if self.peek(0).is_some() => {
                    self.pos += 1;
                }
                _ => {}
            }
        }
    }

    /// At a `'`: char literal or lifetime? A char literal either starts
    /// with an escape or closes right after one (possibly multi-byte)
    /// character; anything else is a lifetime or loop label.
    fn quote(&mut self) {
        let lo = self.pos;
        self.pos += 1; // the '
        match self.peek(0) {
            Some(b'\\') => {
                self.char_body();
                self.push(TokKind::Str, lo);
            }
            Some(c) => {
                // Width of the first content character (UTF-8).
                let w = match c {
                    _ if c < 0x80 => 1,
                    _ if c >= 0xf0 => 4,
                    _ if c >= 0xe0 => 3,
                    _ => 2,
                };
                if self.peek(w) == Some(b'\'') {
                    self.pos += w + 1;
                    self.push(TokKind::Str, lo);
                } else {
                    while self.peek(0).is_some_and(is_ident_continue) {
                        self.pos += 1;
                    }
                    self.push(TokKind::Lifetime, lo);
                }
            }
            None => self.push(TokKind::Punct, lo),
        }
    }

    /// At an ident start: plain identifier, or one of the literal prefixes
    /// (`r"`, `r#"`, `br"`, `b"`, `b'`) or a raw identifier (`r#name`).
    fn ident_or_prefixed(&mut self) {
        let lo = self.pos;
        let rest = &self.b[self.pos..];
        // Raw-string prefixes: r / br followed by #* then a quote.
        for pre in [&b"r"[..], &b"br"[..]] {
            if rest.starts_with(pre) {
                let mut h = 0;
                while rest.get(pre.len() + h) == Some(&b'#') {
                    h += 1;
                }
                if rest.get(pre.len() + h) == Some(&b'"') {
                    self.pos += pre.len() + h + 1;
                    self.raw_string_body(h);
                    self.push(TokKind::Str, lo);
                    return;
                }
            }
        }
        if rest.starts_with(b"b\"") {
            self.pos += 2;
            self.string_body();
            self.push(TokKind::Str, lo);
            return;
        }
        if rest.starts_with(b"b'") {
            self.pos += 2;
            self.char_body();
            self.push(TokKind::Str, lo);
            return;
        }
        if rest.starts_with(b"r#") && rest.get(2).copied().is_some_and(is_ident_start) {
            self.pos += 2; // raw identifier: consume r# then the name
        }
        while self.peek(0).is_some_and(is_ident_continue) {
            self.pos += 1;
        }
        self.push(TokKind::Ident, lo);
    }

    /// At an ASCII digit: integer or float literal, suffix included.
    fn number(&mut self) {
        let lo = self.pos;
        let hex = self.b[self.pos..].starts_with(b"0x") || self.b[self.pos..].starts_with(b"0X");
        while let Some(c) = self.peek(0) {
            if c.is_ascii_alphanumeric() || c == b'_' {
                self.pos += 1;
            } else if c == b'.'
                && self.peek(1).is_some_and(|n| n.is_ascii_digit())
                && !self.b[lo..self.pos].contains(&b'.')
            {
                // `1.5` yes; `1..5` (range) and `1.method()` no.
                self.pos += 1;
            } else if (c == b'+' || c == b'-')
                && !hex
                && matches!(self.b[self.pos - 1], b'e' | b'E')
            {
                self.pos += 1; // exponent sign in 1e-3
            } else {
                break;
            }
        }
        self.push(TokKind::Num, lo);
    }

    fn run(mut self) -> Vec<Tok> {
        while let Some(c) = self.peek(0) {
            match c {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ if c.is_ascii_whitespace() => self.pos += 1,
                b'/' if self.peek(1) == Some(b'/') => {
                    let lo = self.pos;
                    while self.peek(0).is_some_and(|c| c != b'\n') {
                        self.pos += 1;
                    }
                    self.push(TokKind::LineComment, lo);
                }
                b'/' if self.peek(1) == Some(b'*') => {
                    let lo = self.pos;
                    self.pos += 2;
                    let mut depth = 1u32;
                    while depth > 0 {
                        match (self.peek(0), self.peek(1)) {
                            (Some(b'*'), Some(b'/')) => {
                                depth -= 1;
                                self.pos += 2;
                            }
                            (Some(b'/'), Some(b'*')) => {
                                depth += 1;
                                self.pos += 2;
                            }
                            (Some(_), _) => self.pos += 1,
                            (None, _) => break,
                        }
                    }
                    self.push(TokKind::BlockComment, lo);
                }
                b'"' => {
                    let lo = self.pos;
                    self.pos += 1;
                    self.string_body();
                    self.push(TokKind::Str, lo);
                }
                b'\'' => self.quote(),
                _ if c.is_ascii_digit() => self.number(),
                _ if is_ident_start(c) => self.ident_or_prefixed(),
                _ => {
                    let lo = self.pos;
                    self.pos += 1;
                    self.push(TokKind::Punct, lo);
                }
            }
        }
        self.out
    }
}

/// Lexes a source file. Never fails: unterminated literals and comments
/// extend to end of input, unknown bytes become punctuation.
pub fn lex(src: &str) -> Vec<Tok> {
    Lexer { b: src.as_bytes(), pos: 0, line: 1, out: Vec::new() }.run()
}

/// The two blanked projections of a source file the legacy line rules
/// match against. Both have exactly the original's byte length and line
/// structure, so offsets are interchangeable.
pub struct Views {
    /// Comments and literal *contents* blanked (literal delimiters kept so
    /// brace matching and quote positions survive).
    pub code: String,
    /// Everything *except* comments blanked.
    pub comments: String,
}

/// Rebuilds the blanked views from the token stream.
pub fn views(src: &str, toks: &[Tok]) -> Views {
    let base: Vec<u8> = src.bytes().map(|c| if c == b'\n' { b'\n' } else { b' ' }).collect();
    let mut code = base.clone();
    let mut com = base;
    let b = src.as_bytes();
    for t in toks {
        match t.kind {
            TokKind::LineComment | TokKind::BlockComment => {
                com[t.lo..t.hi].copy_from_slice(&b[t.lo..t.hi]);
            }
            TokKind::Str => {
                // Keep only the delimiters in the code view. First and
                // last bytes are always ASCII (quote, prefix letter, #).
                code[t.lo] = b[t.lo];
                code[t.hi - 1] = b[t.hi - 1];
            }
            _ => code[t.lo..t.hi].copy_from_slice(&b[t.lo..t.hi]),
        }
    }
    // invariant: only whole tokens (char-boundary aligned) or single ASCII
    // bytes were copied over the space-filled base, so both buffers
    // remain valid UTF-8.
    Views {
        code: String::from_utf8(code).expect("views preserve UTF-8"),
        comments: String::from_utf8(com).expect("views preserve UTF-8"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).iter().map(|t| (t.kind, t.text(src).to_string())).collect()
    }

    #[test]
    fn idents_numbers_puncts() {
        let got = kinds("let x = 42u64 + 0x1f; f(1.5e-3)");
        assert!(got.contains(&(TokKind::Num, "42u64".into())));
        assert!(got.contains(&(TokKind::Num, "0x1f".into())));
        assert!(got.contains(&(TokKind::Num, "1.5e-3".into())));
        assert!(got.contains(&(TokKind::Ident, "let".into())));
    }

    #[test]
    fn ranges_are_not_floats() {
        let got = kinds("for i in 1..20 { x.0.abs() }");
        assert!(got.contains(&(TokKind::Num, "1".into())));
        assert!(got.contains(&(TokKind::Num, "20".into())));
        assert!(got.contains(&(TokKind::Num, "0".into())), "{got:?}");
    }

    #[test]
    fn char_vs_lifetime() {
        let got = kinds("fn f<'a>(v: &'a str) { let c = 'q'; let n = '\\n'; 'outer: loop {} }");
        assert!(got.contains(&(TokKind::Lifetime, "'a".into())));
        assert!(got.contains(&(TokKind::Str, "'q'".into())));
        assert!(got.contains(&(TokKind::Str, "'\\n'".into())));
        assert!(got.contains(&(TokKind::Lifetime, "'outer".into())));
    }

    #[test]
    fn multibyte_char_literal_is_a_literal() {
        // The legacy scrubber's two-byte lookahead misread these as
        // lifetimes; the lexer measures the UTF-8 width.
        let got = kinds("let crab = '🦀'; let e = 'é';");
        assert!(got.contains(&(TokKind::Str, "'🦀'".into())), "{got:?}");
        assert!(got.contains(&(TokKind::Str, "'é'".into())), "{got:?}");
    }

    #[test]
    fn raw_and_byte_strings() {
        let got =
            kinds(r###"let a = r"x"; let b = r#""quoted""#; let c = b"bytes"; let d = b'z';"###);
        assert!(got.contains(&(TokKind::Str, "r\"x\"".into())));
        assert!(got.contains(&(TokKind::Str, "r#\"\"quoted\"\"#".into())), "{got:?}");
        assert!(got.contains(&(TokKind::Str, "b\"bytes\"".into())));
        assert!(got.contains(&(TokKind::Str, "b'z'".into())));
    }

    #[test]
    fn raw_identifiers() {
        let got = kinds("let r#type = 1;");
        assert!(got.contains(&(TokKind::Ident, "r#type".into())), "{got:?}");
    }

    #[test]
    fn comments_nested_and_degenerate() {
        let got = kinds("a /* x /* y */ z */ b");
        assert_eq!(got[1], (TokKind::BlockComment, "/* x /* y */ z */".into()));
        // `/*/` does NOT close a block comment in Rust; the legacy
        // scrubber treated the shared `*` as opener and closer at once.
        let got = kinds("x /*/ not code */ y");
        assert_eq!(got[1], (TokKind::BlockComment, "/*/ not code */".into()), "{got:?}");
        assert_eq!(got[2], (TokKind::Ident, "y".into()));
    }

    #[test]
    fn str_content_strips_delimiters() {
        let src = r###"["get", r#"raw"#, b"by", 'c']"###;
        let toks = lex(src);
        let strs: Vec<&str> =
            toks.iter().filter(|t| t.kind == TokKind::Str).map(|t| t.str_content(src)).collect();
        assert_eq!(strs, vec!["get", "raw", "by", "c"]);
    }

    #[test]
    fn views_preserve_length_and_lines() {
        let src =
            "let s = \"Instant::now\"; // Instant::now\nlet c = '🦀'; /* multi\nline */ f();\n";
        let v = views(src, &lex(src));
        assert_eq!(v.code.len(), src.len());
        assert_eq!(v.comments.len(), src.len());
        assert_eq!(v.code.lines().count(), src.lines().count());
        assert!(!v.code.contains("Instant"), "literal + comment blanked: {}", v.code);
        assert!(v.comments.contains("// Instant::now"));
        assert!(v.code.contains("f()"));
    }

    #[test]
    fn unterminated_inputs_do_not_panic() {
        for src in ["\"abc", "/* never closed", "r#\"raw", "'x", "b\"", "1e"] {
            let _ = views(src, &lex(src));
        }
    }
}
