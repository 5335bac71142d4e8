//! A tiny JSON codec for the [`Metrics`](crate::Metrics) wire format,
//! the Chrome trace-event export, and the daemon's structured surfaces
//! (`/status`, the access log).
//!
//! Only the subset this crate emits is supported — objects with string
//! keys, arrays, numbers, strings, and booleans — which keeps the parser
//! small and the crate dependency-free. Object order is preserved on
//! both sides so emitted documents are byte-stable.

/// A parsed JSON value (the supported subset).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// An object, in emission/parse order.
    Object(Vec<(String, Json)>),
    /// An array.
    Array(Vec<Json>),
    /// A number (all metrics values are non-negative integers that fit
    /// an `f64` exactly; `u64::MAX` sentinels survive via saturation).
    Number(f64),
    /// A string.
    String(String),
    /// A boolean (`true` / `false`).
    Bool(bool),
}

impl Json {
    /// Renders with `"key": value` pairs, two-space indentation.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, Some(0));
        out
    }

    /// Renders on a single line with no indentation — the form JSON-lines
    /// consumers (one document per line) require.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, None);
        out
    }

    /// `indent` is `None` for the compact single-line form.
    fn render_into(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Object(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                let Some(indent) = indent else {
                    out.push('{');
                    for (i, (k, v)) in pairs.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        out.push('"');
                        escape_into(k, out);
                        out.push_str("\": ");
                        v.render_into(out, None);
                    }
                    out.push('}');
                    return;
                };
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    for _ in 0..indent + 1 {
                        out.push_str("  ");
                    }
                    out.push('"');
                    escape_into(k, out);
                    out.push_str("\": ");
                    v.render_into(out, Some(indent + 1));
                    if i + 1 < pairs.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                for _ in 0..indent {
                    out.push_str("  ");
                }
                out.push('}');
            }
            Json::Array(items) => {
                // Arrays render on one line: the crate only emits arrays
                // of scalars (histogram buckets) or short trace events.
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    v.render_into(out, indent);
                }
                out.push(']');
            }
            Json::Number(n) => render_number(*n, out),
            Json::String(s) => {
                out.push('"');
                escape_into(s, out);
                out.push('"');
            }
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }

    /// The object's pairs, or an error naming `what`.
    pub fn as_object(&self, what: &str) -> Result<&[(String, Json)], String> {
        match self {
            Json::Object(pairs) => Ok(pairs),
            other => Err(format!("{what}: expected an object, got {other:?}")),
        }
    }

    /// The value as a non-negative integer, or an error naming `what`.
    pub fn as_u64(&self, what: &str) -> Result<u64, String> {
        match self {
            Json::Number(n) if *n >= 0.0 => Ok(*n as u64),
            other => Err(format!(
                "{what}: expected a non-negative number, got {other:?}"
            )),
        }
    }

    /// The array's items, or an error naming `what`.
    pub fn as_array(&self, what: &str) -> Result<&[Json], String> {
        match self {
            Json::Array(items) => Ok(items),
            other => Err(format!("{what}: expected an array, got {other:?}")),
        }
    }

    /// The value as a string slice, or an error naming `what`.
    pub fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Json::String(s) => Ok(s),
            other => Err(format!("{what}: expected a string, got {other:?}")),
        }
    }

    /// Looks up `key` in an object; `None` when absent or not an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Renders a number the way [`Json::Number`] does: integral values below
/// 2⁵³ print without a fraction. Exposed so hot paths (the access log)
/// can emit codec-identical lines without building a [`Json`] tree.
pub(crate) fn render_number(n: f64, out: &mut String) {
    if n.fract() == 0.0 && n.abs() < 9e15 {
        let _ = std::fmt::Write::write_fmt(out, format_args!("{}", n as i64));
    } else {
        let _ = std::fmt::Write::write_fmt(out, format_args!("{n}"));
    }
}

pub(crate) fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = std::fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Parses a JSON document of the supported subset.
pub fn parse(src: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'s> {
    bytes: &'s [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b" \t\r\n".contains(b))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|b| b as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            )),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected {word:?} at byte {}", self.pos))
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'n') => s.push('\n'),
                        Some(b't') => s.push('\t'),
                        Some(b'r') => s.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            s.push(char::from_u32(code).ok_or("bad \\u escape")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole unescaped run up to the next quote or
                    // backslash. Both are ASCII, so the run ends on a char
                    // boundary of the (valid UTF-8) input.
                    let rest = &self.bytes[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    s.push_str(std::str::from_utf8(&rest[..run]).map_err(|e| e.to_string())?);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(&b))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_parses_nested_objects() {
        let doc = Json::Object(vec![
            ("a".into(), Json::Number(1.0)),
            (
                "b".into(),
                Json::Object(vec![("c".into(), Json::String("x\"y".into()))]),
            ),
            ("empty".into(), Json::Object(vec![])),
        ]);
        let text = doc.render();
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_syntax() {
        assert!(parse("{} x").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn arrays_render_inline_and_round_trip() {
        let doc = Json::Array(vec![
            Json::Number(1.0),
            Json::Object(vec![("k".into(), Json::Array(vec![]))]),
            Json::String("x".into()),
        ]);
        let text = doc.render();
        assert_eq!(parse(&text).unwrap(), doc);
        assert_eq!(
            Json::Array(vec![Json::Number(1.0), Json::Number(2.0)]).render(),
            "[1, 2]"
        );
        assert_eq!(parse("[ ]").unwrap(), Json::Array(vec![]));
    }

    #[test]
    fn long_strings_with_multibyte_runs_and_escapes_round_trip() {
        let unit = "plain ascii, \"quoted\", ünïcödé 漢字 🦀\\back\tslash\n\u{1}";
        let long = unit.repeat(2_000);
        let doc = Json::Array(vec![
            Json::String(long.clone()),
            Json::String(String::new()),
        ]);
        assert_eq!(parse(&doc.render()).unwrap(), doc);
        assert_eq!(
            parse("\"a\\u00e9b\\\"c\"").unwrap(),
            Json::String("a\u{e9}b\"c".into())
        );
        let unterminated = format!("\"{}", "ü漢".repeat(1_000));
        assert_eq!(parse(&unterminated), Err("unterminated string".into()));
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Number(42.0).render(), "42");
        assert_eq!(Json::Number(1.5).render(), "1.5");
    }

    #[test]
    fn booleans_render_and_round_trip() {
        let doc = Json::Object(vec![
            ("on".into(), Json::Bool(true)),
            ("off".into(), Json::Bool(false)),
        ]);
        let text = doc.render();
        assert!(text.contains("\"on\": true"));
        assert_eq!(parse(&text).unwrap(), doc);
        assert!(parse("tru").is_err());
        assert!(parse("falsey").is_err());
    }

    #[test]
    fn compact_render_is_single_line_and_round_trips() {
        let doc = Json::Object(vec![
            ("a".into(), Json::Number(7.0)),
            (
                "b".into(),
                Json::Object(vec![("c".into(), Json::Bool(true))]),
            ),
            ("d".into(), Json::Array(vec![Json::String("x\ny".into())])),
        ]);
        let line = doc.render_compact();
        assert!(
            !line.contains('\n'),
            "compact form must be one line: {line}"
        );
        assert_eq!(line, "{\"a\": 7, \"b\": {\"c\": true}, \"d\": [\"x\\ny\"]}");
        assert_eq!(parse(&line).unwrap(), doc);
    }
}
