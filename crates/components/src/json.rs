//! A minimal strict-JSON reader/writer shared by the wire formats.
//!
//! The workspace has no serde, so the delta wire format
//! ([`CatalogDelta::from_json`](crate::CatalogDelta::from_json)), the
//! durable-store record formats (`f1-store`) and the result and
//! protocol bodies of `f1-skyline` / `f1-serve` share this hand-rolled
//! reader/writer. It is deliberately strict: duplicate
//! object keys, trailing data and non-finite numbers are rejected, so a
//! document that parses here round-trips byte-for-byte through
//! [`quote`]/[`fmt_number`].

/// A parsed JSON value.
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (the reader rejects non-finite parses).
    Number(f64),
    /// A string with escapes resolved.
    String(String),
    /// An array of values.
    Array(Vec<Value>),
    /// An object as ordered `(key, value)` pairs (duplicate keys are
    /// rejected at parse time).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The object fields, or a reason when not an object.
    ///
    /// # Errors
    ///
    /// A human-readable reason when the value is not an object.
    pub fn as_object(&self) -> Result<&[(String, Value)], String> {
        match self {
            Value::Object(fields) => Ok(fields),
            _ => Err("expected a JSON object".into()),
        }
    }

    /// The array items, or a reason when not an array.
    ///
    /// # Errors
    ///
    /// A human-readable reason when the value is not an array.
    pub fn as_array(&self) -> Result<&[Value], String> {
        match self {
            Value::Array(items) => Ok(items),
            _ => Err("expected a JSON array".into()),
        }
    }

    /// The string payload, or a reason when not a string.
    ///
    /// # Errors
    ///
    /// A human-readable reason when the value is not a string.
    pub fn as_str(&self) -> Result<String, String> {
        match self {
            Value::String(s) => Ok(s.clone()),
            _ => Err("expected a JSON string".into()),
        }
    }

    /// The numeric payload, or a reason when not a number.
    ///
    /// # Errors
    ///
    /// A human-readable reason when the value is not a number.
    pub fn as_number(&self) -> Result<f64, String> {
        match self {
            Value::Number(n) => Ok(*n),
            _ => Err("expected a JSON number".into()),
        }
    }

    /// The boolean payload, or a reason when not a boolean.
    ///
    /// # Errors
    ///
    /// A human-readable reason when the value is not a boolean.
    pub fn as_bool(&self) -> Result<bool, String> {
        match self {
            Value::Bool(b) => Ok(*b),
            _ => Err("expected a JSON boolean".into()),
        }
    }
}

/// Serializes a string as a quoted JSON string literal. The escapes it
/// emits are exactly the ones [`parse`] resolves, so
/// `parse(quote(s)) == s` for every `s` — the property the durable
/// store leans on to embed whole JSON documents as string payloads
/// without byte drift.
#[must_use]
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a finite float in its shortest round-trip form (the `{v:?}`
/// canonical spelling every wire format in the workspace uses), or
/// `None` for non-finite values (which JSON cannot represent and the
/// strict reader rejects).
#[must_use]
pub fn fmt_number(v: f64) -> Option<String> {
    v.is_finite().then(|| format!("{v:?}"))
}

/// Parses one JSON document. Strict: rejects duplicate object keys,
/// trailing bytes after the document and non-finite numbers.
///
/// # Errors
///
/// A human-readable reason with a byte offset for malformed input.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}",
                char::from(byte),
                self.pos
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        // analyze::allow(indexing, reason = "pos <= len is a parser invariant; a full-range slice from pos cannot be out of bounds")
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate key {key:?}"));
            }
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(
                // analyze::allow(indexing, reason = "start <= pos <= len: pos only advances via peek-guarded steps")
                core::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid UTF-8 in string".to_owned())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    out.push(match escape {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| core::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_owned())?;
                            self.pos += 4;
                            char::from_u32(code).ok_or("non-scalar \\u escape")?
                        }
                        other => return Err(format!("unknown escape \\{}", char::from(other))),
                    });
                }
                _ => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        // analyze::allow(indexing, reason = "start <= pos <= len: pos only advances via peek-guarded steps")
        core::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|n| n.is_finite())
            .map(Value::Number)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quote_parse_round_trips_awkward_strings() {
        for s in [
            "",
            "plain",
            "with \"quotes\" and \\ backslashes",
            "newline\nand\ttab\rand\u{1}control",
            "unicode — ünïcødé ✓",
            "{\"nested\": [1, 2.5, null, true]}",
        ] {
            let quoted = quote(s);
            let back = parse(&quoted).unwrap().as_str().unwrap();
            assert_eq!(back, s, "round trip failed for {s:?}");
        }
    }

    #[test]
    fn fmt_number_is_shortest_round_trip() {
        for v in [0.0, 1.0, -2.5, 1e-307, 178.0, 0.1 + 0.2] {
            let text = fmt_number(v).unwrap();
            assert_eq!(text.parse::<f64>().unwrap(), v);
        }
        assert!(fmt_number(f64::NAN).is_none());
        assert!(fmt_number(f64::INFINITY).is_none());
    }

    #[test]
    fn as_bool_reads_booleans() {
        assert!(parse("true").unwrap().as_bool().unwrap());
        assert!(!parse("false").unwrap().as_bool().unwrap());
        assert!(parse("1").unwrap().as_bool().is_err());
    }
}
