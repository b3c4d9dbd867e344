//! A small JSON value with a strict reader and a compact writer: the
//! typed format of the benchmark's report and of `BENCHMARK.json`.

use std::fmt::{self, Write as _};

/// A parsed JSON document. Objects keep their members in document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one complete document; anything but whitespace after it is an
    /// error, and so is a repeated object key.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut parser = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let value = parser.value()?;
        parser.skip_ws();
        if parser.i < parser.s.len() {
            return Err(parser.error("trailing characters"));
        }
        Ok(value)
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Compact JSON. Numbers print in Rust's shortest round-trip form, so the
/// reader gets the same bits back; a non-finite number, which JSON cannot
/// hold, prints as `null`.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) if n.is_finite() => write!(f, "{n}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_string(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            Json::Obj(members) => {
                f.write_char('{')?;
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_string(f, key)?;
                    write!(f, ": {value}")?;
                }
                f.write_char('}')
            }
        }
    }
}

fn write_string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.i)
    }

    fn skip_ws(&mut self) {
        while matches!(self.s.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    /// Consume `byte`, after optional whitespace.
    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.s.get(self.i) == Some(&byte) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    /// After an array or object element: `true` at the closing `close`,
    /// `false` after a comma.
    fn closed(&mut self, close: u8) -> Result<bool, String> {
        self.skip_ws();
        match self.s.get(self.i) {
            Some(&b) if b == close => {
                self.i += 1;
                Ok(true)
            }
            Some(b',') => {
                self.i += 1;
                Ok(false)
            }
            _ => Err(self.error(&format!("expected ',' or '{}'", close as char))),
        }
    }

    /// Consume `close` if it comes next (an empty array or object).
    fn empty(&mut self, close: u8) -> bool {
        self.skip_ws();
        let empty = self.s.get(self.i) == Some(&close);
        if empty {
            self.i += 1;
        }
        empty
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.s.get(self.i) {
            None => Err(self.error("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                if !self.empty(b']') {
                    loop {
                        items.push(self.value()?);
                        if self.closed(b']')? {
                            break;
                        }
                    }
                }
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                self.i += 1;
                let mut members: Vec<(String, Json)> = Vec::new();
                if !self.empty(b'}') {
                    loop {
                        let key = self.string()?;
                        if members.iter().any(|(k, _)| *k == key) {
                            return Err(self.error(&format!("repeated key {key:?}")));
                        }
                        self.expect(b':')?;
                        members.push((key, self.value()?));
                        if self.closed(b'}')? {
                            break;
                        }
                    }
                }
                Ok(Json::Obj(members))
            }
            Some(_) => self.number(),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(value)
        } else {
            Err(self.error("invalid literal"))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while matches!(
            self.s.get(self.i),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.i += 1;
        }
        // Only ASCII bytes were scanned, so the slice is valid UTF-8.
        let text = std::str::from_utf8(&self.s[start..self.i]).expect("ASCII number");
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => Err(format!("invalid number {text:?} at byte {start}")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.i;
            while matches!(self.s.get(self.i), Some(&b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.i += 1;
            }
            let chunk = std::str::from_utf8(&self.s[start..self.i])
                .map_err(|_| self.error("invalid UTF-8"))?;
            out.push_str(chunk);
            match self.s.get(self.i) {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let escape = self.s.get(self.i + 1).copied();
                    self.i += 2;
                    out.push(match escape {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => self.unicode_escape()?,
                        _ => return Err(self.error("invalid escape")),
                    });
                }
                _ => return Err(self.error("unterminated string")),
            }
        }
    }

    /// The four hex digits after `\u` (surrogate pairs are not supported).
    fn unicode_escape(&mut self) -> Result<char, String> {
        let c = self
            .s
            .get(self.i..self.i + 4)
            .and_then(|hex| std::str::from_utf8(hex).ok())
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
            .and_then(char::from_u32)
            .ok_or_else(|| self.error("invalid \\u escape"))?;
        self.i += 4;
        Ok(c)
    }
}
