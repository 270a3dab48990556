//! A minimal JSON value type, parser, and writer — the service's wire
//! format, hand-rolled under the same std-only discipline as the rest of
//! the workspace (no serde in the offline build environment).
//!
//! Scope is exactly what the election API needs: objects, arrays,
//! strings, booleans, null, and **integer** numbers (labels are `u64`;
//! nothing in the API is fractional, so fractions and exponents are
//! rejected with a clear error instead of silently rounding). Object
//! member order is preserved, which makes `Json`'s `to_string` output
//! byte-stable — the property the `hre elect --json` ↔ `POST /elect`
//! comparability contract rests on.
//!
//! There is one grammar (`Parser`) with two consumers: [`Json::parse`]
//! builds a tree from it, and the election API's decoders
//! ([`crate::ElectRequest::from_json`], [`crate::batch_from_json`])
//! stream labels straight out of it, skipping what they do not keep with
//! the grammar's allocation-free `Parser::skip_value`. Syntax errors,
//! their byte offsets and the nesting cap ([`MAX_DEPTH`]) are therefore
//! the same on both paths. Likewise there is one printer: `write_u64`,
//! `write_i128` and `write_str` render every number and string, whether
//! `Json`'s `Display` or the API's tree-free writers emit it.

use std::fmt;

/// Deepest container nesting the grammar accepts. Election documents
/// nest 3 deep (batch array → request object → ring array) and the
/// control-plane and simulator documents a handful; the cap bounds the
/// recursive descent's stack whatever the body holds, so a body of
/// nested `[` is a `bad JSON` answer instead of a stack overflow.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value. Numbers are `i128` so the full `u64` label range
/// round-trips exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer number (fractions are not part of the API).
    Num(i128),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; member order is preserved for byte-stable output.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a number in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as a `usize`, if it is a number in range.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(n) => usize::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Json, String> {
        Parser::document(text, Parser::tree)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => write_i128(f, *n),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_str(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// The printers below write to any `fmt::Write`, so `Json`'s `Display`
/// and the API's writers share them; the API's writers write into a
/// `String`, which never fails.
const INFALLIBLE: &str = "writing into a String cannot fail";

/// Writes `v` in decimal — the workspace's one integer printer.
fn write_u64(out: &mut impl fmt::Write, mut v: u64) -> fmt::Result {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    digits[at..].iter().try_for_each(|&d| out.write_char(char::from(d)))
}

/// Writes `v` in decimal, with a leading `-` when negative. Magnitudes
/// past `u64`, which no document the workspace writes holds, go through
/// `fmt`.
fn write_i128(out: &mut impl fmt::Write, v: i128) -> fmt::Result {
    match u64::try_from(v.unsigned_abs()) {
        Ok(magnitude) => {
            if v < 0 {
                out.write_str("-")?;
            }
            write_u64(out, magnitude)
        }
        Err(_) => write!(out, "{v}"),
    }
}

/// Writes `s` as a JSON string literal — the workspace's one string
/// escaper: `"` and `\` are backslash-escaped, `\n` `\r` `\t` get their
/// short escapes, other control characters `\u00xx`, and everything
/// else (`/` and non-ASCII included) is copied as is.
fn write_str(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_str("\"")?;
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.write_str(&s[run..i])?;
        if short.is_empty() {
            write!(out, "\\u{b:04x}")?;
        } else {
            out.write_str(short)?;
        }
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_str("\"")
}

/// Appends `[v,v,…]`.
fn write_u64s(out: &mut String, values: &[u64]) {
    let mut arr = ArrayWriter::new(out);
    for &v in values {
        write_u64(arr.element(), v).expect(INFALLIBLE);
    }
    arr.finish();
}

/// Writes a compact JSON array into a caller's buffer, element by
/// element, with no tree in between: `[e,e,…]`.
pub struct ArrayWriter<'b> {
    out: &'b mut String,
    empty: bool,
}

impl<'b> ArrayWriter<'b> {
    /// Opens the array at the end of `out`.
    pub fn new(out: &'b mut String) -> ArrayWriter<'b> {
        out.push('[');
        ArrayWriter { out, empty: true }
    }

    /// The buffer, positioned for the next element: write exactly one
    /// JSON value into it.
    pub fn element(&mut self) -> &mut String {
        if !std::mem::take(&mut self.empty) {
            self.out.push(',');
        }
        self.out
    }

    /// Closes the array.
    pub fn finish(self) {
        self.out.push(']');
    }
}

/// Writes a compact JSON object into a caller's buffer, member by
/// member, with no tree in between: `{"k":v,…}`.
pub(crate) struct ObjWriter<'b> {
    out: &'b mut String,
    empty: bool,
}

impl<'b> ObjWriter<'b> {
    /// Opens the object at the end of `out`.
    pub fn new(out: &'b mut String) -> ObjWriter<'b> {
        out.push('{');
        ObjWriter { out, empty: true }
    }

    /// Writes `"key":` and returns the buffer, positioned for the
    /// member's value: write exactly one JSON value into it.
    pub fn key(&mut self, key: &str) -> &mut String {
        if !std::mem::take(&mut self.empty) {
            self.out.push(',');
        }
        write_str(self.out, key).expect(INFALLIBLE);
        self.out.push(':');
        self.out
    }

    /// A number member.
    pub fn num(&mut self, key: &str, v: u64) {
        write_u64(self.key(key), v).expect(INFALLIBLE);
    }

    /// A string member.
    pub fn str(&mut self, key: &str, s: &str) {
        write_str(self.key(key), s).expect(INFALLIBLE);
    }

    /// An array-of-numbers member.
    pub fn nums(&mut self, key: &str, values: &[u64]) {
        write_u64s(self.key(key), values);
    }

    /// Closes the object.
    pub fn finish(self) {
        self.out.push('}');
    }
}

/// The top-level elements of a JSON array document, as the exact slices
/// of `text` they occupy (no surrounding whitespace or commas), found
/// with the grammar's allocation-free skip. Fails with the error
/// [`Json::parse`] would give on malformed text, and when the document
/// is not an array.
pub fn split_array(text: &str) -> Result<Vec<&str>, String> {
    Parser::document(text, |p| {
        let mut elements = Vec::new();
        p.array(|p| {
            let start = p.pos;
            p.skip_value()?;
            elements.push(p.since(start));
            Ok(())
        })?;
        Ok(elements)
    })
}

/// What a value is, told apart by its first byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Kind {
    Null,
    True,
    False,
    Str,
    Num,
    Arr,
    Obj,
}

/// The grammar: a recursive-descent scanner over one document. Its
/// consumers ([`Parser::tree`], [`Parser::skip_value`], the API's
/// request decoders) drive it through [`Parser::kind`] and the token and
/// container methods; each method consumes exactly one token or value,
/// so every consumer sees the same syntax errors at the same offsets.
pub(crate) struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    /// Runs `value` on the document's one top-level value, allowing
    /// whitespace around it but nothing else.
    pub(crate) fn document<T>(
        text: &'a str,
        value: impl FnOnce(&mut Parser<'a>) -> Result<T, String>,
    ) -> Result<T, String> {
        let mut p = Parser { text, bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = value(&mut p)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
    }

    /// The text from byte `start` to the cursor.
    fn since(&self, start: usize) -> &'a str {
        &self.text[start..self.pos]
    }

    #[inline]
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline]
    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    /// The kind of the value at the cursor, or the error any consumer
    /// gets when no value starts there.
    #[inline]
    pub(crate) fn kind(&self) -> Result<Kind, String> {
        match self.peek() {
            Some(b'n') => Ok(Kind::Null),
            Some(b't') => Ok(Kind::True),
            Some(b'f') => Ok(Kind::False),
            Some(b'"') => Ok(Kind::Str),
            Some(b'[') => Ok(Kind::Arr),
            Some(b'{') => Ok(Kind::Obj),
            Some(b'-') | Some(b'0'..=b'9') => Ok(Kind::Num),
            Some(b) => Err(format!("unexpected '{}' at byte {}", b as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// One integer token. Up to 19 digits always fit a `u64`, so they
    /// are accumulated directly; longer tokens go through `i128`'s
    /// parser, whose range is the grammar's.
    #[inline]
    pub(crate) fn number(&mut self) -> Result<i128, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = self.pos;
        let mut small = 0u64;
        while let Some(d @ b'0'..=b'9') = self.peek() {
            small = small.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
            self.pos += 1;
        }
        if self.pos == digits {
            return Err(format!("expected digits at byte {}", self.pos));
        }
        if matches!(self.peek(), Some(b'.') | Some(b'e') | Some(b'E')) {
            return Err(format!(
                "non-integer number at byte {start}: the election API uses integers only"
            ));
        }
        if self.pos - digits <= 19 {
            let v = i128::from(small);
            return Ok(if digits > start { -v } else { v });
        }
        self.since(start).parse::<i128>().map_err(|e| format!("bad number at byte {start}: {e}"))
    }

    /// One string token, every escape validated. Returns the raw text
    /// between the quotes when it holds no escape; otherwise returns
    /// `None`, and the decoded text has been appended to `out` (when
    /// given — without it nothing is allocated).
    fn scan_string(&mut self, mut out: Option<&mut String>) -> Result<Option<&'a str>, String> {
        self.expect(b'"')?;
        let start = self.pos;
        let mut run = start;
        let mut escaped = false;
        loop {
            // Plain text runs up to the next quote, backslash or control
            // byte; bytes below 0x20 are always whole ASCII characters in
            // UTF-8, so testing bytes is testing characters.
            let plain =
                self.bytes[self.pos..].iter().position(|&b| b == b'"' || b == b'\\' || b < 0x20);
            self.pos = plain.map_or(self.bytes.len(), |n| self.pos + n);
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    let tail = self.since(run);
                    self.pos += 1;
                    if !escaped {
                        return Ok(Some(tail));
                    }
                    if let Some(out) = out {
                        out.push_str(tail);
                    }
                    return Ok(None);
                }
                Some(b'\\') => {
                    if let Some(out) = out.as_deref_mut() {
                        out.push_str(self.since(run));
                    }
                    escaped = true;
                    self.pos += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            // Surrogates are out of scope for this API.
                            char::from_u32(code).ok_or("bad \\u code point")?
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    };
                    if let Some(out) = out.as_deref_mut() {
                        out.push(c);
                    }
                    self.pos += 1;
                    run = self.pos;
                }
                Some(_) => return Err(format!("raw control character at byte {}", self.pos)),
            }
        }
    }

    /// One string token, decoded: borrowed from the input unless it
    /// holds escapes, in which case it is decoded into `buf`.
    pub(crate) fn string<'b>(&mut self, buf: &'b mut String) -> Result<&'b str, String>
    where
        'a: 'b,
    {
        buf.clear();
        match self.scan_string(Some(&mut *buf))? {
            Some(raw) => Ok(raw),
            None => Ok(buf),
        }
    }

    /// Opens a container, enforcing [`MAX_DEPTH`].
    fn open(&mut self, bracket: u8) -> Result<(), String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
        }
        self.expect(bracket)?;
        self.depth += 1;
        Ok(())
    }

    /// `[ value , … ]`: `element` is called once per element and must
    /// consume exactly one value.
    #[inline]
    pub(crate) fn array(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.open(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            element(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    /// `{ "key" : value , … }`: `member` is called once per member with
    /// its decoded key (decoded into `key_buf` only when it holds
    /// escapes) and must consume exactly one value.
    #[inline]
    pub(crate) fn object(
        &mut self,
        key_buf: &mut String,
        mut member: impl FnMut(&mut Self, &str) -> Result<(), String>,
    ) -> Result<(), String> {
        self.open(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string(key_buf)?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            member(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    /// Consumes one value, checking it exactly as [`Parser::tree`]
    /// would, but keeping nothing: no allocation unless an object key
    /// holds escapes.
    pub(crate) fn skip_value(&mut self) -> Result<(), String> {
        match self.kind()? {
            Kind::Null => self.literal("null"),
            Kind::True => self.literal("true"),
            Kind::False => self.literal("false"),
            Kind::Str => self.scan_string(None).map(drop),
            Kind::Num => self.number().map(drop),
            Kind::Arr => self.array(Parser::skip_value),
            Kind::Obj => self.object(&mut String::new(), |p, _| p.skip_value()),
        }
    }

    /// Consumes one value into a [`Json`] tree.
    fn tree(&mut self) -> Result<Json, String> {
        Ok(match self.kind()? {
            Kind::Null => {
                self.literal("null")?;
                Json::Null
            }
            Kind::True => {
                self.literal("true")?;
                Json::Bool(true)
            }
            Kind::False => {
                self.literal("false")?;
                Json::Bool(false)
            }
            Kind::Str => {
                let mut decoded = String::new();
                match self.scan_string(Some(&mut decoded))? {
                    Some(raw) => Json::Str(raw.to_owned()),
                    None => Json::Str(decoded),
                }
            }
            Kind::Num => Json::Num(self.number()?),
            Kind::Arr => {
                let mut items = Vec::new();
                self.array(|p| {
                    items.push(p.tree()?);
                    Ok(())
                })?;
                Json::Arr(items)
            }
            Kind::Obj => {
                let mut members = Vec::new();
                self.object(&mut String::new(), |p, key| {
                    members.push((key.to_owned(), p.tree()?));
                    Ok(())
                })?;
                Json::Obj(members)
            }
        })
    }
}

/// Convenience constructor for an object literal.
pub fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Convenience constructor for an array of unsigned integers.
pub fn nums(values: impl IntoIterator<Item = u64>) -> Json {
    Json::Arr(values.into_iter().map(|v| Json::Num(v as i128)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_api_shapes() {
        let text = r#"{"ring":[1,3,1,3,2,2,1,2],"algo":"ak","k":3}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get("algo").unwrap().as_str(), Some("ak"));
        assert_eq!(v.get("k").unwrap().as_usize(), Some(3));
        assert_eq!(v.get("ring").unwrap().as_arr().unwrap().len(), 8);
        // Compact output is byte-stable and reparses to the same value.
        assert_eq!(v.to_string(), text);
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn parses_whitespace_literals_and_nesting() {
        let v = Json::parse(" { \"a\" : [ true , false , null ] , \"b\" : -7 } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("b"), Some(&Json::Num(-7)));
        assert_eq!(Json::parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(Json::parse("{}").unwrap(), Json::Obj(vec![]));
    }

    #[test]
    fn full_u64_label_range_roundtrips() {
        let v = Json::parse(&format!("[{}]", u64::MAX)).unwrap();
        assert_eq!(v.as_arr().unwrap()[0].as_u64(), Some(u64::MAX));
        assert_eq!(v.to_string(), format!("[{}]", u64::MAX));
    }

    #[test]
    fn numbers_at_the_edges_of_the_fast_path_and_of_i128() {
        // Every digit count on both sides of each power of ten, both
        // signs, the u64 edge, and the i128 range.
        let mut edges = vec![u64::MAX as i128, u64::MAX as i128 + 1, i128::MAX];
        for d in 0..39 {
            edges.extend([10i128.pow(d) - 1, 10i128.pow(d)]);
        }
        for n in edges {
            for v in [n, -n] {
                assert_eq!(Json::parse(&v.to_string()).unwrap(), Json::Num(v));
                assert_eq!(Json::Num(v).to_string(), v.to_string());
            }
        }
        assert_eq!(Json::Num(i128::MIN).to_string(), i128::MIN.to_string());
        assert_eq!(Json::parse("-0").unwrap(), Json::Num(0));
        assert_eq!(Json::parse("007").unwrap(), Json::Num(7));
        let past = format!("{}0", i128::MAX);
        assert_eq!(
            Json::parse(&past).unwrap_err(),
            "bad number at byte 0: number too large to fit in target type"
        );
    }

    #[test]
    fn string_escapes_roundtrip() {
        let v = Json::parse(r#""a\"b\\c\ndAéA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndAéA"));
        let rendered = v.to_string();
        assert_eq!(Json::parse(&rendered).unwrap(), v);
        assert_eq!(Json::parse(r#""\u0041\/\b\f""#).unwrap(), Json::Str("A/\u{8}\u{c}".into()));
        assert_eq!(Json::Str("\u{1}\u{1f}\u{7f}/".into()).to_string(), "\"\\u0001\\u001f\u{7f}/\"");
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "1.5",
            "1e3",
            "[1 2]",
            "{\"a\"}",
            "\"\x01\"",
            "[1]x",
            "nullx",
            "--1",
            "-",
            "[1,]",
            "{\"a\":1,}",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\ud800\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err, format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}"));
        // Objects count too, and the skip enforces the same cap.
        let objects = format!("{}1{}", r#"{"a":"#.repeat(MAX_DEPTH + 1), "}".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&objects).unwrap_err().starts_with("nesting deeper than"));
        let deep = "[".repeat(200_000);
        assert_eq!(Json::parse(&deep), Err(err.clone()));
        assert_eq!(
            split_array(&format!("[1,{}]", nested(MAX_DEPTH))).unwrap_err(),
            format!("nesting deeper than {MAX_DEPTH} at byte {}", MAX_DEPTH + 2)
        );
    }

    #[test]
    fn split_array_returns_each_elements_exact_text() {
        let text = r#" [ {"error":"a,b]c}\"d\\"} ,[1,[2]], "x\"]" ,-3,null ] "#;
        let parts = split_array(text).unwrap();
        assert_eq!(parts, vec![r#"{"error":"a,b]c}\"d\\"}"#, "[1,[2]]", r#""x\"]""#, "-3", "null"]);
        assert_eq!(split_array("[]").unwrap(), Vec::<&str>::new());
        // Malformed arrays fail exactly as the tree parser does.
        for bad in ["[1,", "[1]x", r#"["a]"#, "[1 2]", "[1,]"] {
            assert_eq!(split_array(bad), Err(Json::parse(bad).unwrap_err()), "{bad:?}");
        }
        for not_an_array in ["", "{}", "1", "\"[]\""] {
            assert!(split_array(not_an_array).is_err(), "{not_an_array:?}");
        }
    }

    #[test]
    fn constructors_build_expected_shapes() {
        let v = obj(vec![("xs", nums([1, 2, 3])), ("ok", Json::Bool(true))]);
        assert_eq!(v.to_string(), r#"{"xs":[1,2,3],"ok":true}"#);
        let mut out = String::new();
        let mut w = ObjWriter::new(&mut out);
        w.nums("xs", &[1, 2, 3]);
        w.key("ok").push_str("true");
        w.str("s", "\"");
        w.num("n", u64::MAX);
        w.finish();
        assert_eq!(out, format!(r#"{{"xs":[1,2,3],"ok":true,"s":"\"","n":{}}}"#, u64::MAX));
    }
}
