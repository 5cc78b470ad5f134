//! Offline stand-in for `serde_json`.
//!
//! Serialization renders the shim `serde`'s [`Value`] tree as JSON text.
//! Deserialization runs the target type's `Deserialize` directly over the
//! input bytes through a pull reader ([`serde::de::Read`]) that borrows keys
//! and unescaped strings from the input, so no tree is built unless the
//! caller asks for a [`Value`]. Covers the subset this workspace uses:
//! `to_string`, `to_string_pretty`, `to_writer`, `from_str`, `from_reader`,
//! and the `Value` type itself.

use serde::de::{mismatch, Kind, Number, Read};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

pub use serde::Value;

/// Error produced while rendering or parsing JSON.
#[derive(Debug)]
pub struct Error(String);

impl Error {
    fn new(msg: impl Into<String>) -> Error {
        Error(msg.into())
    }
}

impl core::fmt::Display for Error {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Error {
        Error(e.to_string())
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Error {
        Error(e.to_string())
    }
}

/// `Result` alias matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

// ---------------------------------------------------------------- writing

/// Serialize `value` to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serialize `value` to a pretty-printed JSON string (two-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Serialize `value` as compact JSON into `writer`.
pub fn to_writer<W: std::io::Write, T: Serialize + ?Sized>(mut writer: W, value: &T) -> Result<()> {
    writer.write_all(to_string(value)?.as_bytes())?;
    Ok(())
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(x) => write_f64(out, *x),
        Value::Str(s) => write_escaped(out, s),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            if !items.is_empty() {
                newline_indent(out, indent, depth);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_escaped(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1);
            }
            if !entries.is_empty() {
                newline_indent(out, indent, depth);
            }
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let s = x.to_string();
        out.push_str(&s);
        // Keep floats recognisable as floats on re-parse.
        if !s.contains('.') && !s.contains('e') && !s.contains('E') {
            out.push_str(".0");
        }
    } else {
        // Real serde_json emits null for non-finite floats.
        out.push_str("null");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------- parsing

/// Deserialize a value of type `T` from a JSON string.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        src: s,
        pos: 0,
        fresh: false,
    };
    let value = T::deserialize(&mut p)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!(
            "trailing characters at byte {} of JSON input",
            p.pos
        )));
    }
    Ok(value)
}

/// Deserialize a value of type `T` from an IO reader.
pub fn from_reader<R: std::io::Read, T: Deserialize>(mut reader: R) -> Result<T> {
    let mut buf = String::new();
    reader.read_to_string(&mut buf)?;
    from_str(&buf)
}

type DeResult<T> = std::result::Result<T, serde::Error>;

/// [`Read`] over JSON text.
struct Parser<'a> {
    bytes: &'a [u8],
    src: &'a str,
    pos: usize,
    /// Just entered a container: its first element or key takes no comma.
    /// Every `seq_next`/`map_next_key` clears it, so once a nested
    /// container is left the enclosing one expects a comma again.
    fresh: bool,
}

impl<'a> Parser<'a> {
    fn peek_byte(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek_byte();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek_byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> DeResult<()> {
        match self.bump() {
            Some(got) if got == b => Ok(()),
            Some(got) => Err(serde::Error::custom(format!(
                "expected `{}` at byte {}, got `{}`",
                b as char,
                self.pos - 1,
                got as char
            ))),
            None => Err(serde::Error::custom(format!(
                "expected `{}`, got end of input",
                b as char
            ))),
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> DeResult<()> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(serde::Error::custom(format!(
                "invalid JSON at byte {}",
                self.pos
            )))
        }
    }

    fn parse_string(&mut self) -> DeResult<Cow<'a, str>> {
        self.expect(b'"')?;
        let start = self.pos;
        // Fast path: no escapes, so the string is a slice of the input
        // (its ends are ASCII quotes, hence char boundaries).
        loop {
            match self.bump() {
                None => return Err(serde::Error::custom("unterminated string in JSON input")),
                Some(b'"') => return Ok(Cow::Borrowed(&self.src[start..self.pos - 1])),
                Some(b'\\') => break,
                Some(_) => {}
            }
        }
        let mut out = self.src[start..self.pos - 1].to_string();
        self.pos -= 1;
        loop {
            match self.bump() {
                None => return Err(serde::Error::custom("unterminated string in JSON input")),
                Some(b'"') => return Ok(Cow::Owned(out)),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let code = self.parse_hex4()?;
                        // Surrogate pairs: a high surrogate must be followed
                        // by an escaped low surrogate.
                        let c = if (0xD800..0xDC00).contains(&code) {
                            self.expect(b'\\')?;
                            self.expect(b'u')?;
                            let low = self.parse_hex4()?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(serde::Error::custom(
                                    "invalid surrogate pair in JSON string",
                                ));
                            }
                            let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            char::from_u32(combined)
                                .ok_or_else(|| serde::Error::custom("invalid unicode escape"))?
                        } else {
                            char::from_u32(code)
                                .ok_or_else(|| serde::Error::custom("invalid unicode escape"))?
                        };
                        out.push(c);
                    }
                    _ => return Err(serde::Error::custom("invalid escape in JSON string")),
                },
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Multi-byte UTF-8: the input is a &str, so the
                    // sequence is valid; copy it whole.
                    let start = self.pos - 1;
                    let end = start + utf8_width(b);
                    out.push_str(&self.src[start..end]);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> DeResult<u32> {
        let mut code = 0u32;
        for _ in 0..4 {
            let b = self
                .bump()
                .ok_or_else(|| serde::Error::custom("truncated \\u escape in JSON string"))?;
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| serde::Error::custom("invalid \\u escape in JSON string"))?;
            code = code * 16 + digit;
        }
        Ok(code)
    }
}

impl<'a> Read<'a> for Parser<'a> {
    fn peek(&mut self) -> DeResult<Kind> {
        self.skip_ws();
        match self.peek_byte() {
            Some(b'n') => Ok(Kind::Null),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'"') => Ok(Kind::Str),
            Some(b'[') => Ok(Kind::Seq),
            Some(b'{') => Ok(Kind::Map),
            Some(b'-' | b'0'..=b'9') => Ok(Kind::Number),
            Some(other) => Err(serde::Error::custom(format!(
                "unexpected character `{}` at byte {}",
                other as char, self.pos
            ))),
            None => Err(serde::Error::custom("unexpected end of JSON input")),
        }
    }

    fn null(&mut self) -> DeResult<()> {
        match self.peek()? {
            Kind::Null => Ok(self.eat_keyword("null")?),
            other => Err(mismatch("null", other)),
        }
    }

    fn bool(&mut self) -> DeResult<bool> {
        match self.peek()? {
            Kind::Bool if self.peek_byte() == Some(b't') => {
                self.eat_keyword("true")?;
                Ok(true)
            }
            Kind::Bool => {
                self.eat_keyword("false")?;
                Ok(false)
            }
            other => Err(mismatch("bool", other)),
        }
    }

    fn number(&mut self) -> DeResult<Number> {
        let kind = self.peek()?;
        if kind != Kind::Number {
            return Err(mismatch("number", kind));
        }
        let start = self.pos;
        if self.peek_byte() == Some(b'-') {
            self.pos += 1;
        }
        // Plain digits accumulate as they are scanned; anything else
        // numeric marks a float and re-parses the text.
        let mut acc: Option<u128> = Some(0);
        let mut is_float = false;
        while let Some(b) = self.peek_byte() {
            match b {
                b'0'..=b'9' => {
                    acc = acc
                        .and_then(|a| a.checked_mul(10))
                        .and_then(|a| a.checked_add((b - b'0') as u128));
                    self.pos += 1;
                }
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.src[start..self.pos];
        let out = if is_float {
            text.parse::<f64>().map(Number::Float).ok()
        } else if text.starts_with('-') {
            text.parse::<i128>().map(Number::Int).ok()
        } else {
            acc.map(Number::UInt)
        };
        out.ok_or_else(|| {
            serde::Error::custom(if is_float {
                format!("invalid number `{text}` in JSON input")
            } else {
                format!("integer `{text}` out of range")
            })
        })
    }

    fn str(&mut self) -> DeResult<Cow<'a, str>> {
        match self.peek()? {
            Kind::Str => Ok(self.parse_string()?),
            other => Err(mismatch("string", other)),
        }
    }

    fn seq_begin(&mut self) -> DeResult<()> {
        match self.peek()? {
            Kind::Seq => {
                self.pos += 1;
                self.fresh = true;
                Ok(())
            }
            other => Err(mismatch("array", other)),
        }
    }

    fn seq_next(&mut self) -> DeResult<bool> {
        self.skip_ws();
        let first = std::mem::replace(&mut self.fresh, false);
        match self.peek_byte() {
            Some(b']') => {
                self.pos += 1;
                Ok(false)
            }
            _ if first => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(serde::Error::custom(format!(
                "expected `,` or `]` at byte {}",
                self.pos
            ))),
        }
    }

    fn map_begin(&mut self) -> DeResult<()> {
        match self.peek()? {
            Kind::Map => {
                self.pos += 1;
                self.fresh = true;
                Ok(())
            }
            other => Err(mismatch("object", other)),
        }
    }

    fn map_next_key(&mut self) -> DeResult<Option<Cow<'a, str>>> {
        self.skip_ws();
        let first = std::mem::replace(&mut self.fresh, false);
        match self.peek_byte() {
            Some(b'}') => {
                self.pos += 1;
                return Ok(None);
            }
            _ if first => {}
            Some(b',') => {
                self.pos += 1;
                self.skip_ws();
            }
            _ => {
                return Err(serde::Error::custom(format!(
                    "expected `,` or `}}` at byte {}",
                    self.pos
                )))
            }
        }
        let key = self.parse_string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_round_trips() {
        let v = Value::Map(vec![
            ("a".into(), Value::UInt(7)),
            (
                "b".into(),
                Value::Seq(vec![Value::Int(-3), Value::Float(1.5)]),
            ),
            ("c".into(), Value::Str("x \"y\"\nz".into())),
            ("d".into(), Value::Null),
            ("e".into(), Value::Bool(true)),
        ]);
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, v);
        let pretty = to_string_pretty(&v).unwrap();
        let back2: Value = from_str(&pretty).unwrap();
        assert_eq!(back2, v);
    }

    #[test]
    fn floats_stay_floats() {
        let text = to_string(&2.0f64).unwrap();
        assert_eq!(text, "2.0");
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, Value::Float(2.0));
    }

    #[test]
    fn unicode_escapes() {
        let s: String = from_str("\"\\u0041\\u00e9\\ud83d\\ude00\"").unwrap();
        assert_eq!(s, "Aé😀");
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(from_str::<Value>("1 2").is_err());
    }
}
