//! The one JSON codec: campaign rows, serve requests and replies, and bench
//! rows are written by [`Writer`] and read by [`Object`], which keeps each
//! number's literal text (a `u64` parses exactly; an `f64` can be checked
//! against its re-rendering).
//!
//! The grammar is RFC 8259 for one object per line: every string escape,
//! surrogate pairs included, and whitespace between tokens. Arrays,
//! duplicate keys, trailing content, raw control characters, lone
//! surrogates, and objects nested deeper than one level (a row's stats
//! blocks) are errors. The nesting bound is a safety property: a reader
//! recursing once per `{` overflows its stack on a 100 000-deep line, and
//! a stack overflow aborts the process — `catch_unwind` cannot stop it.

use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Renders one object: fields in call order, no whitespace.
#[derive(Debug, Clone, Default)]
pub struct Writer {
    buf: String,
}

impl Writer {
    /// A string field, escaped.
    pub fn str(self, key: &str, value: &str) -> Writer {
        self.raw(key, &quote(value))
    }

    /// An unsigned integer field.
    pub fn u64(self, key: &str, value: u64) -> Writer {
        self.raw(key, &value.to_string())
    }

    /// A float field in Rust's shortest round-trip form (a whole value has
    /// no fraction). JSON has no NaN or infinity: those render as `null`.
    pub fn f64(self, key: &str, value: f64) -> Writer {
        match value.is_finite() {
            true => self.raw(key, &value.to_string()),
            false => self.raw(key, "null"),
        }
    }

    /// A boolean field.
    pub fn bool(self, key: &str, value: bool) -> Writer {
        self.raw(key, &value.to_string())
    }

    /// A field whose value is already-rendered JSON: a nested object,
    /// `null`, or a number at a fixed precision.
    pub fn raw(mut self, key: &str, json: &str) -> Writer {
        self.buf.push(if self.buf.is_empty() { '{' } else { ',' });
        self.buf += &quote(key);
        self.buf.push(':');
        self.buf += json;
        self
    }

    /// Closes the object and returns its text.
    pub fn finish(self) -> String {
        match self.buf.is_empty() {
            true => "{}".to_string(),
            false => self.buf + "}",
        }
    }
}

/// `s` as a JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One field value of an [`Object`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string, its escapes decoded.
    Str(String),
    /// A number, as its literal text.
    Num(String),
    /// `true` or `false`.
    Bool(bool),
    /// `null`.
    Null,
    /// A nested object; it holds no objects itself.
    Object(Object),
}

impl Value {
    /// The value's type as error messages name it.
    fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Num(lit) if lit.parse::<u64>().is_ok() => "unsigned integer",
            Value::Num(_) => "number",
            Value::Bool(_) => "boolean",
            Value::Null => "null",
            Value::Object(_) => "object",
        }
    }
}

/// A parsed object, fields in source order. Each `take` accessor removes
/// the field it reads, so once a reader has taken every field it knows,
/// [`leftover`](Object::leftover) names the first it does not.
#[derive(Debug, Clone, PartialEq)]
pub struct Object {
    fields: Vec<(String, Value)>,
}

impl Object {
    /// Parses `text` as exactly one object.
    pub fn parse(text: &str) -> Result<Object, String> {
        let mut p = Parser { text, pos: 0 };
        let object = p.object(false)?;
        let (next, at) = (p.peek(), p.pos);
        match next {
            None => Ok(object),
            Some(_) => Err(format!("trailing content after the object at byte {at}")),
        }
    }

    /// Removes and returns the field `key`.
    pub fn take(&mut self, key: &str) -> Option<Value> {
        let i = self.fields.iter().position(|(k, _)| k == key)?;
        Some(self.fields.remove(i).1)
    }

    fn take_as<T>(
        &mut self,
        key: &str,
        want: &str,
        read: impl FnOnce(&Value) -> Option<T>,
    ) -> Result<Option<T>, String> {
        let Some(value) = self.take(key) else {
            return Ok(None);
        };
        let got = value.type_name();
        read(&value)
            .map(Some)
            .ok_or_else(|| format!("\"{key}\" must be {want}, got {got}"))
    }

    /// Takes an unsigned integer field: digits only, within `u64`.
    pub fn take_u64(&mut self, key: &str) -> Result<Option<u64>, String> {
        self.take_as(key, "an unsigned integer", |v| match v {
            Value::Num(lit) => lit.parse().ok(),
            _ => None,
        })
    }

    /// Takes a number field; `null`, how [`Writer::f64`] renders a
    /// non-finite value, reads as NaN.
    pub fn take_f64(&mut self, key: &str) -> Result<Option<f64>, String> {
        self.take_as(key, "a number", |v| match v {
            Value::Num(lit) => lit.parse().ok(),
            Value::Null => Some(f64::NAN),
            _ => None,
        })
    }

    /// Takes a string field.
    pub fn take_str(&mut self, key: &str) -> Result<Option<String>, String> {
        self.take_as(key, "a string", |v| match v {
            Value::Str(s) => Some(s.clone()),
            _ => None,
        })
    }

    /// The key of the first field not yet taken.
    pub fn leftover(&self) -> Option<&str> {
        self.fields.first().map(|(k, _)| k.as_str())
    }
}

/// The reader. Outside a string it steps only over ASCII bytes or whole
/// strings, and inside one it stops only at ASCII bytes, so every slice
/// it takes starts and ends on a char boundary.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    /// The next byte after any whitespace.
    fn peek(&mut self) -> Option<u8> {
        let bytes = self.text.as_bytes();
        while matches!(bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
        bytes.get(self.pos).copied()
    }

    /// The character at `at`, for error messages.
    fn char_at(&self, at: usize) -> char {
        let rest = self.text.get(at..).unwrap_or_default();
        rest.chars().next().unwrap_or(char::REPLACEMENT_CHARACTER)
    }

    fn eat(&mut self, want: u8) -> Result<(), String> {
        let (next, want) = (self.peek(), want as char);
        let (at, found) = (self.pos, self.char_at(self.pos));
        match next {
            Some(b) if b as char == want => {
                self.pos += 1;
                Ok(())
            }
            Some(_) => Err(format!("expected `{want}` at byte {at}, found `{found}`")),
            None => Err(format!("expected `{want}` but the line ended")),
        }
    }

    /// `{…}`. A `nested` object holds no objects, so the recursion is at
    /// most two deep whatever the input.
    ///
    /// Keys seen so far sit in an ordered set, so a line of `k` fields
    /// costs O(k log k) key comparisons: a hostile request line cannot
    /// make the duplicate check quadratic, and no hash of network input
    /// decides the cost.
    fn object(&mut self, nested: bool) -> Result<Object, String> {
        self.eat(b'{')?;
        let mut fields: Vec<(String, Value)> = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Object { fields });
        }
        let mut seen: BTreeSet<String> = BTreeSet::new();
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            let value = self.value(nested)?;
            if !seen.insert(key.clone()) {
                return Err(format!("duplicate field \"{key}\""));
            }
            fields.push((key, value));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Object { fields });
                }
                _ => return Err("expected `,` or `}` after a field".to_string()),
            }
        }
    }

    fn value(&mut self, nested: bool) -> Result<Value, String> {
        let next = self.peek();
        let (at, found) = (self.pos, self.char_at(self.pos));
        match next {
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'{') if !nested => Ok(Value::Object(self.object(true)?)),
            Some(b'{') => Err(format!("objects nest one level deep at most (byte {at})")),
            Some(b'[') => Err(format!("arrays are not supported (byte {at})")),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(b'n') => self.keyword("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number().map(Value::Num),
            Some(_) => Err(format!("unexpected `{found}` where a value belongs")),
            None => Err("line ended where a value belongs".to_string()),
        }
    }

    fn keyword(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if !self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            return Err(format!("expected `{word}`"));
        }
        self.pos += word.len();
        Ok(value)
    }

    /// `-?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?`, as literal text.
    fn number(&mut self) -> Result<String, String> {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let digits = |at: usize| bytes[at..].iter().take_while(|b| b.is_ascii_digit());
        let mut end = start + usize::from(bytes[start] == b'-');
        let whole = digits(end).count();
        let mut ok = whole == 1 || (whole > 1 && bytes[end] != b'0');
        end += whole;
        if bytes.get(end) == Some(&b'.') {
            let fraction = digits(end + 1).count();
            ok &= fraction > 0;
            end += 1 + fraction;
        }
        if matches!(bytes.get(end), Some(b'e' | b'E')) {
            end += 1 + usize::from(matches!(bytes.get(end + 1), Some(b'+' | b'-')));
            let exponent = digits(end).count();
            ok &= exponent > 0;
            end += exponent;
        }
        if !ok {
            return Err(format!("malformed number at byte {start}"));
        }
        self.pos = end;
        Ok(self.text[start..end].to_string())
    }

    /// A string literal, its escapes decoded.
    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        let mut run = self.pos;
        loop {
            match self.text.as_bytes().get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    out += &self.text[run..self.pos];
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out += &self.text[run..self.pos];
                    self.pos += 1;
                    out.push(self.escape()?);
                    run = self.pos;
                }
                Some(&b) if b < 0x20 => {
                    let at = self.pos;
                    return Err(format!("raw control character U+{b:04X} at byte {at}"));
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    /// The character an escape names; the cursor is past the backslash.
    fn escape(&mut self) -> Result<char, String> {
        let Some(&esc) = self.text.as_bytes().get(self.pos) else {
            return Err("unterminated escape".to_string());
        };
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let mut code = self.hex4()?;
                if (0xD800..0xDC00).contains(&code) && self.text[self.pos..].starts_with("\\u") {
                    self.pos += 2;
                    let low = self.hex4()?;
                    if (0xDC00..0xE000).contains(&low) {
                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    }
                }
                // Still a surrogate: a lone half, or a high half whose
                // partner is not a low one.
                char::from_u32(code)
                    .ok_or_else(|| format!("\\u{code:04x} is not a scalar value"))?
            }
            _ => return Err(format!("unknown escape `\\{}`", self.char_at(self.pos - 1))),
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self.text.get(self.pos..self.pos + 4);
        let hex = hex.ok_or("truncated \\u escape")?;
        if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(format!("bad \\u escape `{hex}`"));
        }
        self.pos += 4;
        Ok(u32::from_str_radix(hex, 16).expect("four hex digits"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_renders_fields_in_call_order() {
        let inner = Writer::default().u64("count", 2).f64("nan", f64::NAN);
        let line = Writer::default()
            .str("s", "a\"b\\c\nd\u{1}é")
            .f64("whole", 1.25e9)
            .bool("t", true)
            .raw("inner", &inner.finish())
            .finish();
        let want = r#"{"s":"a\"b\\c\nd\u0001é","whole":1250000000,"t":true,"inner":{"count":2,"nan":null}}"#;
        assert_eq!(line, want);
        assert_eq!(Writer::default().finish(), "{}");
    }

    #[test]
    fn reader_keeps_source_order_literals_and_one_level_of_nesting() {
        let text =
            r#" { "b" : 1e0 , "a":{"x":-0.5,"y":null},"s":"\"\\\/\b\f\n\r\té\ud83d\ude00 é😀"} "#;
        let mut obj = Object::parse(text).expect("parses");
        assert_eq!(obj.leftover(), Some("b"));
        assert_eq!(
            obj.take_u64("b").unwrap_err(),
            "\"b\" must be an unsigned integer, got number"
        );
        let Some(Value::Object(mut inner)) = obj.take("a") else {
            panic!("nested object")
        };
        assert_eq!(inner.take_f64("x"), Ok(Some(-0.5)));
        assert!(inner.take_f64("y").unwrap().unwrap().is_nan());
        assert_eq!(
            obj.take_str("s").unwrap().unwrap(),
            "\"\\/\u{8}\u{c}\n\r\té😀 é😀"
        );
        assert_eq!((obj.take_str("s"), obj.leftover()), (Ok(None), None));
    }

    #[test]
    fn malformed_lines_are_errors_not_panics() {
        for (bad, needle) in [
            ("not json", "expected `{` at byte 0, found `n`"),
            (r#"{"a":[1]}"#, "arrays"),
            (r#"{"a":1,"a":2}"#, "duplicate field \"a\""),
            (r#"{"a":1} x"#, "trailing content"),
            (r#"{"a":.5}"#, "unexpected `.`"),
            (r#"{"a":01}"#, "malformed number"),
            (r#"{"a":1.}"#, "malformed number"),
            (r#"{"a":xéé}"#, "unexpected `x`"),
            (r#"{"a":nul}"#, "expected `null`"),
            (r#"{"s":"\ud83dA"}"#, "\\ud83d is not a scalar value"),
            (r#"{"s":"\ude00"}"#, "not a scalar value"),
            (r#"{"s":"\u+06f"}"#, "bad \\u escape"),
            (r#"{"s":"\é"}"#, "unknown escape `\\é`"),
            ("{\"s\":\"tab\there\"}", "raw control character"),
            (r#"{"s":"open"#, "unterminated string"),
        ] {
            let err = Object::parse(bad).expect_err(bad);
            assert!(err.contains(needle), "{bad}: {err}");
        }
    }

    #[test]
    fn wide_lines_report_the_first_repeated_key() {
        let mut line: String = (0..100_000).map(|i| format!("\"k{i}\":{i},")).collect();
        line.insert(0, '{');
        // the repeat comes before a syntax error later in the line
        line.push_str("\"k0\":1,\"k1\":[2]}");
        assert_eq!(Object::parse(&line).unwrap_err(), "duplicate field \"k0\"");
        let distinct = line.replace("\"k0\":1,\"k1\":[2]}", "\"end\":1}");
        assert_eq!(Object::parse(&distinct).unwrap().fields.len(), 100_001);
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "{\"a\":".repeat(100_000) + "1" + &"}".repeat(100_000);
        assert!(Object::parse(&deep).unwrap_err().contains("one level"));
    }
}
