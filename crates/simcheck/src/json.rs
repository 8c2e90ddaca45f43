//! A minimal JSON data model and recursive-descent parser.
//!
//! The workspace carries no JSON dependency, but `tracecheck` needs to
//! *read* the Chrome trace exports the tracer writes. The parser handles
//! the full JSON grammar the exporter emits — objects, arrays, strings
//! with escapes (including UTF-16 surrogate pairs), numbers as `f64` — and
//! rejects trailing garbage, which is all a checker needs.

/// A parsed JSON value. Just enough of the data model for the checkers.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; trace timestamps fit f64 exactly up to 2^53 ns.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` if `self` is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string value, if `self` is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if `self` is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Maximum container nesting [`parse`] accepts. The recursive-descent
/// parser uses the host stack, so an adversarially deep `[[[[…` in a
/// checked artifact must hit a typed error before it hits a stack
/// overflow. Real trace/bench exports nest a handful of levels.
const MAX_DEPTH: usize = 512;

/// A recursive-descent JSON parser over raw bytes.
struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Parser<'a> {
        Parser { b: src.as_bytes(), pos: 0, depth: 0 }
    }

    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.b.len() && self.b[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Parser::object),
            Some(b'[') => self.nested(Parser::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn nested(&mut self, f: fn(&mut Parser<'a>) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.pos]).map_err(|_| self.err("utf8"))?;
        text.parse::<f64>().map(Json::Num).map_err(|_| self.err("malformed number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume the whole run up to the next quote or escape
                    // in one slice. Byte-wise scanning is UTF-8-safe: the
                    // bytes of a multi-byte character never collide with
                    // ASCII '"' or '\\'. Validating per consumed character
                    // instead was quadratic in the document size.
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\') {
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.b[start..self.pos])
                        .map_err(|_| self.err("invalid utf8"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    /// Reads the four hex digits of a `\u` escape (the `\u` itself
    /// already consumed) and returns the code unit.
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .b
            .get(self.pos..self.pos + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    /// Decodes one `\uXXXX` escape, combining UTF-16 surrogate pairs:
    /// JSON spells astral-plane characters as `\uD8xx\uDCxx`. A lone or
    /// mismatched surrogate half decodes to U+FFFD (the artifact is still
    /// readable; the character is unrepresentable).
    fn unicode_escape(&mut self) -> Result<char, String> {
        let code = self.hex4()?;
        if !(0xD800..=0xDBFF).contains(&code) {
            return Ok(char::from_u32(code).unwrap_or('\u{fffd}'));
        }
        // High surrogate: try to pair it with an immediately following
        // `\uDCxx`. On a mismatched low half, rewind so the next escape
        // is decoded on its own.
        if self.b.get(self.pos..self.pos + 2) == Some(b"\\u".as_slice()) {
            let save = self.pos;
            self.pos += 2;
            let low = self.hex4()?;
            if (0xDC00..=0xDFFF).contains(&low) {
                let c = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                return Ok(char::from_u32(c).unwrap_or('\u{fffd}'));
            }
            self.pos = save;
        }
        Ok('\u{fffd}')
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parses a complete JSON document (rejecting trailing garbage).
pub fn parse(src: &str) -> Result<Json, String> {
    let mut p = Parser::new(src);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.b.len() {
        return Err(p.err("trailing data after JSON document"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_arrays_objects() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("-1.5e3").unwrap(), Json::Num(-1500.0));
        assert_eq!(parse("\"a\\\"b\\u0041\"").unwrap(), Json::Str("a\"bA".to_string()));
        let v = parse("{\"a\":[1,2],\"b\":{}}").unwrap();
        assert_eq!(v.get("a"), Some(&Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)])));
        assert!(parse("{}, trailing").is_err());
        assert!(parse("{\"a\":}").is_err());
    }

    #[test]
    fn surrogate_pairs_combine() {
        // 😀 is U+1F600, spelled \uD83D\uDE00 in JSON.
        assert_eq!(parse("\"\\ud83d\\ude00\"").unwrap(), Json::Str("😀".to_string()));
        // A lone high or low half is unrepresentable → U+FFFD.
        assert_eq!(parse("\"\\ud83d!\"").unwrap(), Json::Str("\u{fffd}!".to_string()));
        assert_eq!(parse("\"\\ude00\"").unwrap(), Json::Str("\u{fffd}".to_string()));
        // A high half followed by a non-surrogate escape: the second
        // escape still decodes on its own.
        assert_eq!(parse("\"\\ud83d\\u0041\"").unwrap(), Json::Str("\u{fffd}A".to_string()));
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing() {
        // Within the limit: parses fine.
        let ok = format!("{}null{}", "[".repeat(400), "]".repeat(400));
        assert!(parse(&ok).is_ok());
        // Past the limit: a typed error, not a stack overflow.
        let deep = format!("{}null{}", "[".repeat(100_000), "]".repeat(100_000));
        let err = parse(&deep).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
        // Mixed object/array nesting counts the same way.
        let mixed = format!("{}null{}", "[{\"k\":".repeat(50_000), "}]".repeat(50_000));
        assert!(parse(&mixed).unwrap_err().contains("nesting deeper"));
    }

    #[test]
    fn boundary_numbers_round_trip_through_f64() {
        // 2^53 is the last contiguous exact integer in f64.
        assert_eq!(parse("9007199254740992").unwrap(), Json::Num(9007199254740992.0));
        assert_eq!(parse("-9007199254740992").unwrap(), Json::Num(-9007199254740992.0));
        // i64::MAX is representable only approximately; parsing must not
        // error, and rounds like any f64 conversion.
        assert_eq!(parse("9223372036854775807").unwrap(), Json::Num(9223372036854775807i64 as f64));
        // f64 extremes: largest finite, smallest subnormal, and a clean
        // overflow to infinity (f64::from_str saturates; the data model
        // carries what f64 carries).
        assert_eq!(parse("1.7976931348623157e308").unwrap(), Json::Num(f64::MAX));
        assert_eq!(parse("5e-324").unwrap(), Json::Num(5e-324));
        assert_eq!(parse("1e400").unwrap(), Json::Num(f64::INFINITY));
        assert_eq!(parse("1e-400").unwrap(), Json::Num(0.0));
    }

    #[test]
    fn accessors_are_type_checked() {
        let v = parse("{\"s\":\"x\",\"n\":3}").unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("n").and_then(Json::as_num), Some(3.0));
        assert_eq!(v.get("s").and_then(Json::as_num), None);
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.get("s"), None);
    }
}
