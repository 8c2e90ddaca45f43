//! The result line a run prints, and the reader the full run uses to take
//! it back from its pinned children. Just the JSON this benchmark writes
//! and `BENCHMARK.json` holds: objects, arrays, strings, numbers, booleans.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        Metric { name: name.to_string(), value, unit: unit.to_string() }
    }
}

/// The last line of a run's standard output.
#[derive(Clone, Debug, PartialEq)]
pub struct RunLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

fn escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

impl RunLine {
    /// One line of JSON. Values print with every digit `f64` needs to
    /// round-trip; a non-finite value prints as `null` and so fails any
    /// reader, rather than passing as a number.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('"');
            escape(&m.name, &mut out);
            out.push_str("\": {\"value\": ");
            if m.value.is_finite() {
                let _ = write!(out, "{:?}", m.value);
            } else {
                out.push_str("null");
            }
            out.push_str(", \"unit\": \"");
            escape(&m.unit, &mut out);
            out.push_str("\"}");
        }
        out.push_str("}}");
        out
    }

    /// Parses what [`RunLine::to_json`] writes.
    pub fn parse(text: &str) -> Result<RunLine, String> {
        let root = Value::parse(text)?;
        let count = |key: &str| match root.get(key) {
            Some(Value::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
            other => Err(format!("{key}: expected a whole number, got {other:?}")),
        };
        let correct = match root.get("correct") {
            Some(Value::Bool(b)) => *b,
            other => return Err(format!("correct: expected a boolean, got {other:?}")),
        };
        let Some(Value::Obj(fields)) = root.get("metrics") else {
            return Err("metrics: expected an object".to_string());
        };
        let mut metrics = Vec::with_capacity(fields.len());
        for (name, m) in fields {
            match (m.get("value"), m.get("unit")) {
                (Some(Value::Num(v)), Some(Value::Str(u))) => {
                    metrics.push(Metric::new(name, *v, u))
                }
                _ => return Err(format!("metric {name}: expected a value and a unit")),
            }
        }
        Ok(RunLine { correct, attempted: count("attempted")?, failed: count("failed")?, metrics })
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// A parsed JSON value; no `null`, which nothing here writes.
#[derive(Debug, PartialEq)]
pub enum Value {
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Parses one JSON document.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser { s: text.as_bytes(), i: 0 };
        let root = p.value_at(0)?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing input at byte {}", p.i));
        }
        Ok(root)
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Nesting the reader accepts; the result line nests three deep.
const MAX_DEPTH: usize = 8;

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(|b| b.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&b) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.i))
        }
    }

    fn value_at(&mut self, depth: usize) -> Result<Value, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') if depth < MAX_DEPTH => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value_at(depth + 1)?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Value::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') if depth < MAX_DEPTH => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value_at(depth + 1)?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') if self.s[self.i..].starts_with(b"true") => {
                self.i += 4;
                Ok(Value::Bool(true))
            }
            Some(b'f') if self.s[self.i..].starts_with(b"false") => {
                self.i += 5;
                Ok(Value::Bool(false))
            }
            Some(b'-' | b'0'..=b'9') => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
                {
                    self.i += 1;
                }
                // The slice holds ASCII only, by the match above.
                let text =
                    std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?;
                text.parse().map(Value::Num).map_err(|_| format!("bad number {text:?}"))
            }
            _ => Err(format!("unexpected input at byte {}", self.i)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.s.get(self.i) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let esc = *self.s.get(self.i + 1).ok_or("unterminated escape")?;
                    self.i += 2;
                    match esc {
                        b'"' | b'\\' | b'/' => out.push(esc),
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u escape")?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            self.i += 4;
                            out.extend(code.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => return Err(format!("unknown escape \\{}", other as char)),
                    }
                }
                Some(&b) => {
                    out.push(b);
                    self.i += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_with_every_digit() {
        let line = RunLine {
            correct: true,
            attempted: 52_031,
            failed: 0,
            metrics: vec![
                Metric::new("host_us_per_op", 74.318_264_915_027_31, "us"),
                Metric::new("sim_ops_per_s", 34_687.333_333_333_336, "1/s"),
                Metric::new("tiny", 1.25e-9, "s"),
                Metric::new("odd \"name\"\\\u{1}", -3.0, "count"),
            ],
        };
        let text = line.to_json();
        assert!(!text.contains('\n'));
        assert_eq!(RunLine::parse(&text), Ok(line.clone()));
        assert_eq!(line.metric("tiny"), Some(1.25e-9));
        assert_eq!(line.metric("absent"), None);
    }

    #[test]
    fn reader_rejects_what_is_not_a_result_line() {
        let nan = RunLine {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: vec![Metric::new("x", f64::NAN, "s")],
        };
        assert!(RunLine::parse(&nan.to_json()).is_err(), "a non-finite value must not parse");
        for bad in [
            "",
            "{}",
            "{\"correct\": true, \"attempted\": 1.5, \"failed\": 0, \"metrics\": {}}",
            "{\"correct\": 1, \"attempted\": 1, \"failed\": 0, \"metrics\": {}}",
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {}} x",
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"a\": 1}}",
            "{{{{{{{{{{{{",
            "[[[[[[[[[[[[[[[[1]]]]]]]]]]]]]]]]",
        ] {
            assert!(RunLine::parse(bad).is_err(), "{bad:?} must not parse");
        }
        let ok = "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": {}}";
        assert_eq!(
            RunLine::parse(ok),
            Ok(RunLine { correct: false, attempted: 3, failed: 1, metrics: vec![] })
        );
    }
}
