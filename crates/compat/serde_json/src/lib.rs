//! Offline drop-in replacement for the subset of `serde_json` this
//! workspace uses: pretty-printing of [`serde::Value`] trees produced by the
//! stubbed [`serde::Serialize`], and a small recursive-descent [`from_str`]
//! parser back into [`Value`] trees (the delta log's replay path reads
//! JSON-lines records with it). Non-finite numbers print as `null`, like
//! the real crate.

use serde::Serialize;
pub use serde::Value;

/// Serialization never fails in the stub; parsing reports a byte offset and
/// message. The single error type keeps call sites source-compatible with
/// the real crate (`.expect(...)` / `?`).
#[derive(Debug)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "serde_json stub error: {}", self.msg)
    }
}

impl std::error::Error for Error {}

/// Renders `value` as pretty-printed JSON (2-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), 0, &mut out);
    Ok(out)
}

/// Renders `value` as compact single-line JSON (like the real crate's
/// `to_string` — JSON-lines consumers depend on the one-line shape).
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_compact(&value.to_value(), &mut out);
    Ok(out)
}

/// `f64`'s `Display` is the shortest text that parses back to the same
/// bits, with no exponent and no fraction on integral values — and `-0`
/// for negative zero, which an integer cast would print as `0`.
fn write_num(n: f64, out: &mut String) {
    if n.is_finite() {
        out.push_str(&format!("{n}"));
    } else {
        out.push_str("null");
    }
}

fn write_compact(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => write_num(*n, out),
        Value::Str(s) => write_json_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (key, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_string(key, out);
                out.push(':');
                write_compact(val, out);
            }
            out.push('}');
        }
    }
}

fn write_value(v: &Value, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    let pad_in = "  ".repeat(indent + 1);
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => write_num(*n, out),
        Value::Str(s) => write_json_string(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&pad_in);
                write_value(item, indent + 1, out);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&pad);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push_str("{\n");
            for (i, (key, val)) in fields.iter().enumerate() {
                out.push_str(&pad_in);
                write_json_string(key, out);
                out.push_str(": ");
                write_value(val, indent + 1, out);
                if i + 1 < fields.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&pad);
            out.push('}');
        }
    }
}

/// Parses one JSON document into a [`Value`] tree. Trailing whitespace is
/// allowed; any other trailing content is an error.
pub fn from_str(s: &str) -> Result<Value, Error> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(Error::new(format!("trailing content at byte {pos}")));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), Error> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(Error::new(format!("expected {:?} at byte {}", c as char, *pos)))
    }
}

/// Containers may nest at most this deep (the real crate's default);
/// beyond it parsing fails cleanly instead of overflowing the stack.
const MAX_DEPTH: usize = 128;

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, Error> {
    if depth > MAX_DEPTH {
        return Err(Error::new(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos)));
    }
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(Error::new("unexpected end of input")),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Value::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(Error::new(format!("expected ',' or ']' at byte {}", *pos))),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Object(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let val = parse_value(b, pos, depth + 1)?;
                fields.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(fields));
                    }
                    _ => return Err(Error::new(format!("expected ',' or '}}' at byte {}", *pos))),
                }
            }
        }
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, Error> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(Error::new(format!("bad literal at byte {}", *pos)))
    }
}

/// Parses a number in JSON's grammar,
/// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`. A number that
/// overflows to ±∞ is an error, as in the real crate.
fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, Error> {
    let start = *pos;
    let eat = |pos: &mut usize, set: &[u8]| {
        let hit = b.get(*pos).is_some_and(|c| set.contains(c));
        *pos += usize::from(hit);
        hit
    };
    let digits = |pos: &mut usize| {
        let from = *pos;
        while eat(pos, b"0123456789") {}
        *pos > from
    };
    eat(pos, b"-");
    let well_formed = (eat(pos, b"0") || digits(pos))
        && (!eat(pos, b".") || digits(pos))
        && (!eat(pos, b"eE") || {
            eat(pos, b"+-");
            digits(pos)
        });
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| Error::new(e.to_string()))?;
    match text.parse::<f64>() {
        Ok(n) if well_formed && n.is_finite() => Ok(Value::Num(n)),
        _ => Err(Error::new(format!("bad number {text:?} at byte {start}"))),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, Error> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err(Error::new("unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        // Exactly four hex digits; no sign.
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                            .ok_or_else(|| {
                                Error::new(format!("bad \\u escape at byte {}", *pos))
                            })?;
                        let code = hex
                            .iter()
                            .fold(0, |acc, &h| acc << 4 | (h as char).to_digit(16).unwrap_or(0));
                        // Surrogates are not paired up (the writer never
                        // emits them — it escapes only control chars).
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(Error::new(format!("bad escape at byte {}", *pos))),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the unescaped run up to the next `"` or `\`. Both
                // are ASCII, so the run ends on a char boundary of the
                // UTF-8 input and each byte is decoded once.
                let start = *pos;
                while *pos < b.len() && !matches!(b[*pos], b'"' | b'\\') {
                    *pos += 1;
                }
                let run =
                    std::str::from_utf8(&b[start..*pos]).map_err(|e| Error::new(e.to_string()))?;
                out.push_str(run);
            }
        }
    }
}

fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{Strategy, TestRng};

    #[test]
    fn renders_nested_structures() {
        let v = Value::Object(vec![
            ("id".into(), Value::Str("fig5a".into())),
            ("rows".into(), Value::Array(vec![Value::Num(1.5), Value::Num(f64::NAN)])),
            ("n".into(), Value::Num(3.0)),
        ]);
        let s = to_string_pretty(&v).unwrap();
        assert!(s.contains("\"id\": \"fig5a\""));
        assert!(s.contains("null"), "NaN prints as null");
        assert!(s.contains("\"n\": 3"));
    }

    #[test]
    fn escapes_strings() {
        let s = to_string_pretty(&"a\"b\\c\nd").unwrap();
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn parse_roundtrips_writer_output() {
        let v = Value::Object(vec![
            ("name".into(), Value::Str("α \"quoted\"\n".into())),
            ("xs".into(), Value::Array(vec![Value::Num(1.0), Value::Num(-2.5), Value::Null])),
            ("ok".into(), Value::Bool(true)),
            ("empty_arr".into(), Value::Array(vec![])),
            ("empty_obj".into(), Value::Object(vec![])),
        ]);
        let s = to_string_pretty(&v).unwrap();
        assert_eq!(from_str(&s).unwrap(), v);
    }

    #[test]
    fn parse_accepts_compact_and_rejects_garbage() {
        let v = from_str(r#"{"a":[1,2.5,"x"],"b":{"c":null}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[0].as_u64(), Some(1));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Null));
        assert!(from_str("{").is_err());
        assert!(from_str("[1,]").is_err());
        assert!(from_str("12 34").is_err(), "trailing content rejected");
        assert!(from_str("\"unterminated").is_err());
        let deep = "[".repeat(100_000);
        assert!(from_str(&deep).is_err(), "bounded recursion, no stack overflow");
        assert_eq!(from_str("  -3  ").unwrap().as_i64(), Some(-3));
        assert_eq!(from_str(r#""Ab""#).unwrap().as_str(), Some("Ab"));
    }

    #[test]
    fn rejects_a_signed_unicode_escape() {
        assert!(from_str(r#""\u+041""#).is_err());
        assert_eq!(from_str(r#""A""#).unwrap().as_str(), Some("A"));
    }

    #[test]
    fn numbers_keep_their_bits() {
        for n in [-0.0, 0.0, 1.0, -7.0, 9.0e15, 1e300, 5e-324, 0.1, f64::MAX, f64::MIN] {
            let text = to_string(&Value::Num(n)).unwrap();
            match from_str(&text).unwrap() {
                Value::Num(back) => assert_eq!(back.to_bits(), n.to_bits(), "{n} via {text}"),
                other => panic!("{text} parsed as {other:?}"),
            }
        }
        assert_eq!(to_string(&Value::Num(-0.0)).unwrap(), "-0");
        assert_eq!(to_string(&Value::Num(42.0)).unwrap(), "42");
    }

    #[test]
    fn rejects_a_leading_plus() {
        assert!(from_str("+1").is_err());
    }

    #[test]
    fn rejects_a_fraction_without_integer_part() {
        assert!(from_str(".5").is_err());
        assert!(from_str("-.5").is_err());
    }

    #[test]
    fn rejects_a_fraction_without_digits() {
        assert!(from_str("1.").is_err());
        assert!(from_str("1.e3").is_err());
    }

    #[test]
    fn rejects_a_leading_zero() {
        assert!(from_str("01").is_err());
        assert!(from_str("[-01]").is_err());
        assert_eq!(from_str("[0, -0.5, 1e3, 2E-2]").unwrap().as_array().unwrap().len(), 4);
    }

    #[test]
    fn rejects_an_exponent_without_digits() {
        assert!(from_str("1e").is_err());
        assert!(from_str("1e+").is_err());
    }

    #[test]
    fn rejects_a_number_that_overflows() {
        assert!(from_str("1e400").is_err());
        assert!(from_str("-1e400").is_err());
        assert_eq!(from_str("1e-400").unwrap().as_f64(), Some(0.0), "underflow is fine");
    }

    /// One generated char per `(kind, code)`: control chars, the chars
    /// the writer escapes, printable ASCII, 2-, 3- and 4-byte UTF-8, and
    /// arbitrary scalars.
    fn gen_char(kind: u32, code: u32) -> char {
        match kind {
            0 => char::from_u32(code % 0x20).expect("control char"),
            1 => ['"', '\\', '/', '\n', '\r', '\t'][code as usize % 6],
            2 => char::from_u32(0x20 + code % 0x5f).expect("printable ASCII"),
            3 => ['é', 'α', '€', '𝄞'][code as usize % 4],
            _ => char::from_u32(code % 0x11_0000).unwrap_or('\u{fffd}'),
        }
    }

    proptest::proptest! {
        // parse ∘ to_string = id on strings, as values, keys and array
        // items, compact and pretty.
        #[test]
        fn parse_inverts_to_string_on_generated_strings(
            chars in proptest::collection::vec((0u32..5, 0u32..0x11_0000), 0..48),
        ) {
            let s: String = chars.iter().map(|&(k, c)| gen_char(k, c)).collect();
            let v = Value::Object(vec![
                (s.clone(), Value::Array(vec![Value::Str(s.clone()), Value::Num(1.0)])),
            ]);
            for text in [to_string(&v).unwrap(), to_string_pretty(&v).unwrap()] {
                assert_eq!(from_str(&text).unwrap(), v, "{text:?}");
            }
            assert_eq!(from_str(&to_string(&Value::Str(s.clone())).unwrap()).unwrap(), Value::Str(s));
        }

        // parse ∘ to_string = id on generated value trees, compact and
        // pretty; and no truncation or ASCII-byte substitution of the
        // compact text makes the parser panic.
        #[test]
        fn parse_inverts_to_string_and_never_panics_on_generated_trees(v in ArbValue(4)) {
            let text = to_string(&v).unwrap();
            assert_eq!(from_str(&text).unwrap(), v, "{text:?}");
            assert_eq!(from_str(&to_string_pretty(&v).unwrap()).unwrap(), v, "{text:?}");
            for (i, c) in text.char_indices() {
                let _ = from_str(&text[..i]);
                for sub in 0..0x80u8 {
                    let (head, tail) = (&text[..i], &text[i + c.len_utf8()..]);
                    let _ = from_str(&format!("{head}{}{tail}", sub as char));
                }
            }
        }
    }

    /// A generated `Value` tree whose containers nest at most `.0` deep:
    /// finite numbers (small integers, integers past 2⁵³, negative
    /// fractions, arbitrary bit patterns) and strings over [`gen_char`].
    struct ArbValue(u32);

    impl Strategy for ArbValue {
        type Value = Value;

        fn generate(&self, rng: &mut TestRng) -> Value {
            let string = |rng: &mut TestRng| -> String {
                (0..rng.below(8))
                    .map(|_| gen_char(rng.below(5) as u32, rng.below(0x11_0000) as u32))
                    .collect()
            };
            let child = |rng: &mut TestRng| ArbValue(self.0 - 1).generate(rng);
            match rng.below(if self.0 == 0 { 4 } else { 6 }) {
                0 => Value::Null,
                1 => Value::Bool(rng.below(2) == 1),
                2 => Value::Num(match rng.below(4) {
                    0 => rng.below(2001) as f64 - 1000.0,
                    1 => {
                        ((1u64 << 53) + rng.below(1 << 40) as u64) as f64
                            * [1.0, -1.0][rng.below(2)]
                    }
                    2 => -(rng.below(1000) as f64 + 1.0) / (rng.below(999) as f64 + 2.0),
                    _ => Some(f64::from_bits(
                        ((rng.below(1 << 32) as u64) << 32) | rng.below(1 << 32) as u64,
                    ))
                    .filter(|n| n.is_finite())
                    .unwrap_or(0.5),
                }),
                3 => Value::Str(string(rng)),
                4 => Value::Array((0..rng.below(4)).map(|_| child(rng)).collect()),
                _ => Value::Object((0..rng.below(4)).map(|_| (string(rng), child(rng))).collect()),
            }
        }
    }

    /// A string is parsed in one linear pass: a single-line document over
    /// 1 MiB (mixed multi-byte chars and escapes) parses in well under a
    /// second, even unoptimized.
    #[test]
    fn a_megabyte_line_parses_in_linear_time() {
        let s = "aé€𝄞\"\\\n\u{1}".repeat(1 << 16);
        let text = to_string(&Value::Array(vec![Value::Str(s.clone())])).unwrap();
        assert!(text.len() > 1 << 20, "{} bytes", text.len());
        let t0 = std::time::Instant::now();
        let v = from_str(&text).unwrap();
        let took = t0.elapsed();
        assert_eq!(v, Value::Array(vec![Value::Str(s)]));
        assert!(took < std::time::Duration::from_secs(1), "parse took {took:?}");
    }
}
