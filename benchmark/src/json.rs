//! A small JSON value with a writer and a parser (no JSON crate is
//! vendored). Objects keep insertion order so written files diff cleanly.

use std::fmt;

#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(o) => Some(o),
            _ => None,
        }
    }
}

pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

pub fn str(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// Compact by default; `{:#}` puts each field of an object, and each object
/// of an array, on its own line, which is how files are written.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go(v: &Value, f: &mut fmt::Formatter<'_>, indent: Option<usize>) -> fmt::Result {
            let (open, sep, close) = match indent {
                Some(d) => (
                    format!("\n{}", "  ".repeat(d + 1)),
                    ",".to_string(),
                    format!("\n{}", "  ".repeat(d)),
                ),
                None => (String::new(), ", ".to_string(), String::new()),
            };
            match v {
                Value::Null => f.write_str("null"),
                Value::Bool(b) => write!(f, "{b}"),
                // Rust prints the shortest digits that round-trip, so a
                // measured value keeps all of them. JSON has no NaN/inf.
                Value::Num(n) if n.is_finite() => write!(f, "{n}"),
                Value::Num(_) => f.write_str("null"),
                Value::Str(s) => write_str(f, s),
                Value::Arr(items) => {
                    // Pretty arrays of objects get one compact object per line.
                    let rows = indent.is_some() && matches!(items.first(), Some(Value::Obj(_)));
                    f.write_str("[")?;
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            f.write_str(if rows { "," } else { ", " })?;
                        }
                        if rows {
                            f.write_str(&open)?;
                        }
                        go(item, f, None)?;
                    }
                    if rows {
                        f.write_str(&close)?;
                    }
                    f.write_str("]")
                }
                Value::Obj(fields) if fields.is_empty() => f.write_str("{}"),
                Value::Obj(fields) => {
                    f.write_str("{")?;
                    for (i, (k, item)) in fields.iter().enumerate() {
                        if i > 0 {
                            f.write_str(&sep)?;
                        }
                        f.write_str(&open)?;
                        write_str(f, k)?;
                        f.write_str(": ")?;
                        go(item, f, indent.map(|d| d + 1))?;
                    }
                    f.write_str(&close)?;
                    f.write_str("}")
                }
            }
        }
        go(self, f, f.alternate().then_some(0))
    }
}

pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, token: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            Ok(())
        } else {
            Err(format!("expected `{token}` at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of input".into()),
            Some(b'n') => self.expect("null").map(|()| Value::Null),
            Some(b't') => self.expect("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.expect("false").map(|()| Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_ws();
                    if self.bytes.get(self.pos) == Some(&b']') {
                        self.pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    if !items.is_empty() {
                        self.expect(",")?;
                    }
                    items.push(self.value()?);
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                loop {
                    self.skip_ws();
                    if self.bytes.get(self.pos) == Some(&b'}') {
                        self.pos += 1;
                        return Ok(Value::Obj(fields));
                    }
                    if !fields.is_empty() {
                        self.expect(",")?;
                        self.skip_ws();
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(":")?;
                    fields.push((key, self.value()?));
                }
            }
            Some(_) => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
                text.parse().map(Value::Num).map_err(|_| format!("bad number at byte {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect("\"")?;
        let mut out = String::new();
        loop {
            let rest = &self.bytes[self.pos..];
            let run =
                rest.iter().position(|b| matches!(b, b'"' | b'\\')).ok_or("unterminated string")?;
            out.push_str(std::str::from_utf8(&rest[..run]).map_err(|e| e.to_string())?);
            self.pos += run + 1;
            if rest[run] == b'"' {
                return Ok(out);
            }
            let esc = *self.bytes.get(self.pos).ok_or("unterminated escape")?;
            self.pos += 1;
            out.push(match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'u' => {
                    let hex = self.bytes.get(self.pos..self.pos + 4).ok_or("short \\u escape")?;
                    self.pos += 4;
                    let code = std::str::from_utf8(hex)
                        .ok()
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .ok_or("bad \\u escape")?;
                    char::from_u32(code).ok_or("bad \\u code point")?
                }
                other => return Err(format!("bad escape \\{}", other as char)),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_round_trips_through_parser() {
        let v = obj([
            ("correct", Value::Bool(true)),
            ("attempted", Value::Num(1000.0)),
            ("name", str("quote \" slash \\ tab \t bell \u{7} é")),
            ("empty", obj::<String>([])),
            (
                "metrics",
                obj([(
                    "op_ms_p50",
                    obj([("value", Value::Num(1.2034567891234)), ("unit", str("ms"))]),
                )]),
            ),
            (
                "list",
                Value::Arr(vec![
                    Value::Num(-0.5),
                    Value::Null,
                    Value::Num(1e-9),
                    Value::Arr(vec![]),
                ]),
            ),
        ]);
        assert_eq!(parse(&v.to_string()).unwrap(), v);
        assert_eq!(parse(&format!("{v:#}")).unwrap(), v);
        assert!(!v.to_string().contains('\n'), "compact form is one line");
    }

    #[test]
    fn numbers_keep_all_measured_digits() {
        let x = 0.1 + 0.2;
        let text = Value::Num(x).to_string();
        assert_eq!(text, "0.30000000000000004");
        assert_eq!(parse(&text).unwrap().as_f64(), Some(x));
        assert_eq!(Value::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in ["", "{", "{\"a\" 1}", "[1 2]", "\"open", "{} x", "nul", "-", "\"\\q\""] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"a": {"b": [1, "x", false]}}"#).unwrap();
        let b = v.get("a").and_then(|a| a.get("b")).and_then(Value::as_arr).unwrap();
        assert_eq!(b[0].as_f64(), Some(1.0));
        assert_eq!(b[1].as_str(), Some("x"));
        assert_eq!(b[2], Value::Bool(false));
        assert!(v.get("missing").is_none() && b[0].get("a").is_none());
    }
}
