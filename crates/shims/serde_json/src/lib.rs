//! Offline stand-in for `serde_json`: JSON text ⇄ the shim `serde`
//! [`Value`] tree. Provides `to_string`, `to_string_pretty`, `from_str`,
//! [`from_str_member`] and a `Value` re-export — the surface this
//! workspace uses.
//!
//! The rendered bytes are a contract: request digests are FNV-1a over
//! `to_string`'s output, and golden fixtures pin reply and report
//! bytes. So the renderer never changes a byte of its output. Map
//! entries keep their stored order. Compact output has no whitespace,
//! and pretty output indents by two spaces. Integers are plain
//! decimal. A finite float is Rust's shortest round-trip `{:?}` text,
//! which always holds a `.` or an exponent (`1.0`, `1e21`); NaN and ±inf
//! render as `null`. A string escapes `"`, `\`, `\n`, `\r`
//! and `\t` as such and every other character below U+0020 as `\u00xx`
//! (lowercase hex); everything else is copied as is. The tests keep the
//! earlier allocating renderer as an oracle and compare the two byte for
//! byte on random trees.

use serde::{Deserialize, Serialize};
pub use serde::{Error, Value};
use std::fmt::Write;

/// Serializes `value` as compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    render(&value.to_value(), &mut out, None, 0);
    Ok(out)
}

/// Serializes `value` as 2-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    render(&value.to_value(), &mut out, Some(2), 0);
    Ok(out)
}

/// Parses JSON text into any [`Deserialize`] type (including [`Value`]).
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser::new(s);
    let v = p.value()?;
    p.finish()?;
    T::from_value(&v)
}

/// Parses JSON text and returns the top-level member `key`: what
/// `from_str::<Value>(s)?.get(key).cloned()` returns, errors included,
/// without building the rest of the tree. Every other member is lexed
/// and checked by the same rules as [`from_str`] (depth limit and
/// trailing-character check included) and then dropped, so it costs no
/// allocation. `Ok(None)` when the document is not an object or has no
/// such member; with duplicate keys, the first one wins.
pub fn from_str_member(s: &str, key: &str) -> Result<Option<Value>, Error> {
    let mut p = Parser::new(s);
    p.skip_ws();
    let member = if p.peek() == Some(b'{') {
        p.nested(|p| {
            let mut found = None;
            p.delimited(b'{', b'}', |p| {
                let hit = p.key_is(key)? && found.is_none();
                p.colon()?;
                if hit {
                    found = Some(p.value()?);
                    Ok(())
                } else {
                    p.skip()
                }
            })?;
            Ok(found)
        })?
    } else {
        p.skip()?;
        None
    };
    p.finish()?;
    Ok(member)
}

// --- rendering ---------------------------------------------------------

// Writes into a `String` cannot fail, so the `fmt::Result`s below are
// dropped.
fn render(v: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::UInt(u) => {
            let _ = write!(out, "{u}");
        }
        Value::Float(f) => {
            if f.is_finite() {
                // `{:?}` is the shortest representation that round-trips,
                // and for a finite f64 it always holds a `.` or an `e`, so
                // it reads back as a float
                let _ = write!(out, "{f:?}");
            } else {
                // JSON has no NaN/Infinity; match serde_json's null
                out.push_str("null");
            }
        }
        Value::Str(s) => render_string(s, out),
        Value::Seq(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                render(item, out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Map(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                render_string(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                render(val, out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat(' ').take(width * depth));
    }
}

/// Copies each run of characters that need no escape with one
/// `push_str`. Every escaped character is ASCII, so scanning bytes
/// splits `s` only at character boundaries.
fn render_string(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

// --- parsing -----------------------------------------------------------

/// Deepest array/object nesting [`from_str`] accepts (serde_json's own
/// recursion limit). The parser recurses once per level, so without a
/// bound a line of `[[[[…` overflows the thread's stack and aborts the
/// process; past the limit it returns an [`Error`] instead.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Self {
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    /// Refuses anything but whitespace after the document.
    fn finish(&mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(Error::new(format!(
                "trailing characters at byte {}",
                self.pos
            )));
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn colon(&mut self) -> Result<(), Error> {
        self.skip_ws();
        self.expect(b':')
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::seq),
            Some(b'{') => self.nested(Self::map),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(Error::new(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    /// Lexes one value by [`Parser::value`]'s rules without building it.
    fn skip(&mut self) -> Result<(), Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => self.lex_string(|_| {}),
            Some(b'[') => self.nested(|p| p.delimited(b'[', b']', Self::skip)),
            Some(b'{') => self.nested(|p| {
                p.delimited(b'{', b'}', |p| {
                    p.lex_string(|_| {})?;
                    p.colon()?;
                    p.skip()
                })
            }),
            // literals and numbers build nothing on the heap
            _ => self.value().map(drop),
        }
    }

    /// Parses one array or object one level deeper, refusing to go
    /// past [`MAX_DEPTH`].
    fn nested<T>(&mut self, parse: impl FnOnce(&mut Self) -> Result<T, Error>) -> Result<T, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::new(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    /// Walks one array (`open` `[`) or object (`open` `{`), calling
    /// `item` on each element or `key: value` member.
    fn delimited(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.expect(open)?;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `{}` at byte {}",
                        close as char, self.pos
                    )))
                }
            }
        }
    }

    fn seq(&mut self) -> Result<Value, Error> {
        let mut items = Vec::new();
        self.delimited(b'[', b']', |p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(Value::Seq(items))
    }

    fn map(&mut self) -> Result<Value, Error> {
        let mut entries = Vec::new();
        self.delimited(b'{', b'}', |p| {
            let key = p.string()?;
            p.colon()?;
            entries.push((key, p.value()?));
            Ok(())
        })?;
        Ok(Value::Map(entries))
    }

    fn string(&mut self) -> Result<String, Error> {
        let mut s = String::new();
        self.lex_string(|piece| s.push_str(piece))?;
        Ok(s)
    }

    /// Lexes one string and tells whether it decodes to `key`.
    fn key_is(&mut self, key: &str) -> Result<bool, Error> {
        let mut rest = Some(key.as_bytes());
        self.lex_string(|piece| rest = rest.and_then(|r| r.strip_prefix(piece.as_bytes())))?;
        Ok(rest.is_some_and(<[u8]>::is_empty))
    }

    /// Lexes one string literal, handing its decoded text to `piece`
    /// in order: each run between escapes, then each escaped character.
    fn lex_string(&mut self, mut piece: impl FnMut(&str)) -> Result<(), Error> {
        self.expect(b'"')?;
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\') {
                self.pos += 1;
            }
            piece(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error::new("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        Some(b'r') => '\r',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::new("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::new("bad \\u escape"))?;
                            self.pos += 4;
                            char::from_u32(code).ok_or_else(|| Error::new("bad \\u code point"))?
                        }
                        _ => return Err(Error::new("bad escape")),
                    };
                    piece(c.encode_utf8(&mut [0; 4]));
                    self.pos += 1;
                }
                None => return Err(Error::new("unterminated string")),
                _ => unreachable!(),
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("bad number"))?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::new(format!("bad number `{text}`")))
    }
}

/// The renderer as it was before it wrote numbers and strings in
/// place: one `String` per number and one push per character. The
/// byte-identity tests compare against it.
#[cfg(test)]
mod oracle {
    use super::Value;

    pub(super) fn render(v: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
        match v {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => out.push_str(&i.to_string()),
            Value::UInt(u) => out.push_str(&u.to_string()),
            Value::Float(f) => {
                if f.is_finite() {
                    // `{:?}` is the shortest representation that round-trips;
                    // ensure a decimal point or exponent so it reads as float
                    let s = format!("{f:?}");
                    out.push_str(&s);
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    // JSON has no NaN/Infinity; match serde_json's null
                    out.push_str("null");
                }
            }
            Value::Str(s) => render_string(s, out),
            Value::Seq(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    render(item, out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Value::Map(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, val)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    render_string(k, out);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    render(val, out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }

    fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat(' ').take(width * depth));
        }
    }

    fn render_string(s: &str, out: &mut String) {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_roundtrip() {
        let v = Value::Map(vec![
            ("name".into(), Value::Str("aurora".into())),
            ("cycles".into(), Value::UInt(700)),
            ("balance".into(), Value::Float(0.5)),
            (
                "layers".into(),
                Value::Seq(vec![Value::UInt(1), Value::UInt(2)]),
            ),
            ("none".into(), Value::Null),
        ]);
        let s = to_string(&v).unwrap();
        assert_eq!(
            s,
            r#"{"name":"aurora","cycles":700,"balance":0.5,"layers":[1,2],"none":null}"#
        );
        let back: Value = from_str(&s).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn pretty_has_indentation() {
        let v = Value::Map(vec![("a".into(), Value::UInt(1))]);
        assert_eq!(to_string_pretty(&v).unwrap(), "{\n  \"a\": 1\n}");
    }

    #[test]
    fn escapes_roundtrip() {
        let v = Value::Str("line\n\"quoted\"\\tab\t".into());
        let back: Value = from_str(&to_string(&v).unwrap()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn negative_and_float_numbers() {
        assert_eq!(from_str::<Value>("-12").unwrap(), Value::Int(-12));
        assert_eq!(from_str::<Value>("3.25").unwrap(), Value::Float(3.25));
        assert_eq!(from_str::<Value>("1e3").unwrap(), Value::Float(1000.0));
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(from_str::<Value>(&deep(MAX_DEPTH)).is_ok());
        let err = from_str::<Value>(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")
        );
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(from_str::<Value>(&objects).is_err());
        // a million unclosed brackets: an error, not a stack overflow
        let err = from_str::<Value>(&"[".repeat(1_000_000)).unwrap_err();
        assert!(err.to_string().starts_with("nesting deeper than"), "{err}");
    }

    #[test]
    fn typed_roundtrip() {
        let xs = vec![(1u32, -2i64), (3, 4)];
        let s = to_string(&xs).unwrap();
        let back: Vec<(u32, i64)> = from_str(&s).unwrap();
        assert_eq!(back, xs);
    }

    /// SplitMix64, the seeded source of the random trees below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
            xs[self.below(xs.len())]
        }
    }

    const FLOATS: [f64; 13] = [
        -0.0,
        0.0,
        1.0,
        -2.5,
        0.1,
        1e-7,
        1e15,
        1e21,
        f64::MIN_POSITIVE / 2.0,
        f64::MAX,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];

    /// String pieces: quotes, backslashes, `\n\r\t`, other control
    /// characters, DEL and non-ASCII text.
    const PIECES: [&str; 16] = [
        "a", "error", " ", "/", "\"", "\\", "\n", "\r", "\t", "\u{0}", "\u{8}", "\u{1f}", "\u{7f}",
        "é", "€", "😀",
    ];

    /// Keys, so that `error` recurs at every level and in every position.
    const KEYS: [&str; 5] = ["error", "report", "id", "kind", "err\"or"];

    fn random_string(rng: &mut Rng) -> String {
        (0..rng.below(6)).map(|_| rng.pick(&PIECES)).collect()
    }

    fn random_value(rng: &mut Rng, depth: usize) -> Value {
        match rng.below(if depth == 0 { 6 } else { 8 }) {
            0 => Value::Null,
            1 => Value::Bool(rng.next() & 1 == 1),
            2 => {
                let any = -((rng.next() >> 1) as i64);
                Value::Int(rng.pick(&[-1, i64::MIN, any]))
            }
            3 => {
                let any = rng.next() >> rng.below(64);
                Value::UInt(rng.pick(&[0, u64::MAX, any]))
            }
            4 => Value::Float(if rng.below(2) == 0 {
                rng.pick(&FLOATS)
            } else {
                f64::from_bits(rng.next())
            }),
            5 => Value::Str(random_string(rng)),
            6 => Value::Seq(
                (0..rng.below(4))
                    .map(|_| random_value(rng, depth - 1))
                    .collect(),
            ),
            _ => random_map(rng, depth - 1),
        }
    }

    fn random_map(rng: &mut Rng, depth: usize) -> Value {
        Value::Map(
            (0..rng.below(5))
                .map(|_| (rng.pick(&KEYS).to_string(), random_value(rng, depth)))
                .collect(),
        )
    }

    fn oracle_text(v: &Value, indent: Option<usize>) -> String {
        let mut out = String::new();
        oracle::render(v, &mut out, indent, 0);
        out
    }

    #[test]
    fn rendering_matches_the_oracle_byte_for_byte() {
        let every_float = Value::Seq(FLOATS.iter().map(|&f| Value::Float(f)).collect());
        let every_piece = Value::Map(
            PIECES
                .iter()
                .map(|&p| (p.to_string(), Value::Str(PIECES.concat() + p)))
                .collect(),
        );
        let mut rng = Rng(0x5eed_2026);
        let trees = [every_float, every_piece]
            .into_iter()
            .chain((0..3_000).map(|_| random_value(&mut rng, 4)));
        for v in trees {
            assert_eq!(to_string(&v).unwrap(), oracle_text(&v, None), "{v:?}");
            assert_eq!(
                to_string_pretty(&v).unwrap(),
                oracle_text(&v, Some(2)),
                "{v:?}"
            );
        }
    }

    /// What [`from_str_member`] must return: the member of a full parse.
    fn full_parse_member(s: &str, key: &str) -> Result<Option<Value>, String> {
        from_str::<Value>(s)
            .map(|v| v.get(key).cloned())
            .map_err(|e| e.to_string())
    }

    fn assert_member_reads_like_a_full_parse(s: &str) {
        for key in KEYS {
            assert_eq!(
                from_str_member(s, key).map_err(|e| e.to_string()),
                full_parse_member(s, key),
                "key {key:?} of {s:?}"
            );
        }
    }

    #[test]
    fn member_reads_like_a_full_parse_on_random_documents() {
        let mut rng = Rng(0xab5e_2026);
        let noise = [
            "[", "]", "{", "}", "\"", ",", ":", "\\", "-", ".", "e", "1", " ", "x",
        ];
        for i in 0..2_000 {
            let doc = if i % 10 == 0 {
                random_value(&mut rng, 3)
            } else {
                random_map(&mut rng, 3)
            };
            let text = if i % 2 == 0 {
                to_string(&doc).unwrap()
            } else {
                to_string_pretty(&doc).unwrap()
            };
            assert_member_reads_like_a_full_parse(&text);
            // a broken copy: cut short, or one stray token inserted
            let mut at = rng.below(text.len() + 1);
            while !text.is_char_boundary(at) {
                at -= 1;
            }
            assert_member_reads_like_a_full_parse(&text[..at]);
            let stray = format!("{}{}{}", &text[..at], rng.pick(&noise), &text[at..]);
            assert_member_reads_like_a_full_parse(&stray);
        }
    }

    #[test]
    fn member_reader_picks_the_top_level_first_member() {
        let report = r#"{"report":{"error":{"kind":"nested"}},"error":{"kind":"top"},"id":1}"#;
        let kind = |s: &str| {
            from_str_member(s, "error")
                .unwrap()
                .and_then(|e| e.get("kind").cloned())
        };
        assert_eq!(kind(report), Some(Value::Str("top".into())));
        // duplicates: the first one wins, as in `Value::get`
        let twice = r#"{"error":{"kind":"first"},"error":{"kind":"second"}}"#;
        assert_eq!(kind(twice), Some(Value::Str("first".into())));
        // an escaped key decodes before it is compared
        assert_eq!(
            kind(r#"{"\u0065rror":{"kind":"escaped"}}"#),
            Some(Value::Str("escaped".into()))
        );
        assert_eq!(
            from_str_member(r#"{"report":{"error":1}}"#, "error").unwrap(),
            None
        );
        assert_eq!(from_str_member("[1,2]", "error").unwrap(), None);
        assert_eq!(from_str_member("\"error\"", "error").unwrap(), None);
        for s in [report, twice, r#"{"errors":1,"erro":2}"#] {
            assert_member_reads_like_a_full_parse(s);
        }
    }

    #[test]
    fn member_reader_refuses_hostile_input() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(from_str_member(&deep(MAX_DEPTH), "error").is_ok());
        let hostile = [
            "[".repeat(1_000_000),
            format!("{{\"error\":null,\"report\":{}}}", "[".repeat(1_000_000)),
            format!("{{\"report\":{},\"error\":null}}", deep(MAX_DEPTH)),
            r#"{"error":null,"report":"unterminated}"#.into(),
            r#"{"report":{"cycles":12"#.into(),
            r#"{"report":{"cycles":-},"error":null}"#.into(),
            r#"{"report":{"cycles":1e},"error":null}"#.into(),
            r#"{"error":null} trailing"#.into(),
            r#"{"error":null}}"#.into(),
            r#"{"report":"bad \q escape","error":null}"#.into(),
            String::new(),
        ];
        for s in &hostile {
            assert!(
                from_str_member(s, "error").is_err(),
                "{:?}",
                &s[..s.len().min(60)]
            );
            assert_member_reads_like_a_full_parse(s);
        }
    }
}
