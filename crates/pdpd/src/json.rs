//! A minimal JSON lexer, value-producing parser and encoder for the wire
//! protocol, hand-rolled against RFC 8259 in the same spirit as the
//! validating parser in `agenp_bench::json` (the workspace deliberately
//! carries no JSON dependency). Integers that fit `i64` are kept exact;
//! other numbers fall back to `f64`.
//!
//! The crate holds one JSON grammar: the pull [`Lexer`]. The tree parser
//! [`parse`], the validator [`validate`] and the wire decoder
//! (`crate::wire`) all read through it, so they accept the same inputs and
//! report the same error, at the same byte, on the same malformed one.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number with no fraction/exponent that fits `i64`.
    Int(i64),
    /// Any other number.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: every member in source order, duplicate keys included
    /// ([`Json::get`] returns the last).
    Obj(Vec<(String, Json)>),
}
impl Json {
    /// Member of an object by key, if this is an object that has it; the
    /// last such member when the key repeats.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string inside, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer inside, if any.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The boolean inside, if any.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The object members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// A parse failure, with the byte position it was detected at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub pos: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.pos)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(pos: usize, msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError {
        pos,
        msg: msg.into(),
    })
}

/// Nesting cap: a hostile request must not be able to blow the stack.
const MAX_DEPTH: usize = 64;

/// The start of one JSON value, as [`Lexer::value`] reads it: a whole
/// scalar, or the opening bracket of an object or array, whose members
/// follow through [`Lexer::next_key`] / [`Lexer::next_item`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Token<'b> {
    /// `{` was consumed.
    Obj,
    /// `[` was consumed.
    Arr,
    /// A string, escapes decoded: borrowed from the input when it holds
    /// no escape, else from the caller's scratch buffer.
    Str(&'b str),
    /// A number with no fraction/exponent that fits `i64`.
    Int(i64),
    /// Any other number.
    Num(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

/// A pull lexer over one JSON text. It allocates nothing: strings come
/// back borrowed, from the input or, when they hold escapes, from a
/// scratch buffer the caller owns and reuses.
///
/// Reading a value is `value`, then for an object `next_key` (and the
/// member's value) until it returns `None`, for an array `next_item` (and
/// the element) until it returns `false`; `finish` checks that nothing
/// trails the top-level value. `depth` is the value's nesting level, 0 at
/// the top; past 64 the lexer fails with "nesting too deep".
#[derive(Clone, Debug)]
pub struct Lexer<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// A lexer at the start of `input`.
    pub fn new(input: &'a str) -> Lexer<'a> {
        Lexer::at(input, 0)
    }

    /// A lexer at byte `pos` of `input`.
    pub fn at(input: &'a str, pos: usize) -> Lexer<'a> {
        Lexer { input, pos }
    }

    /// The current byte offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        let bytes = self.input.as_bytes();
        while self.pos < bytes.len() && matches!(bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r') {
            self.pos += 1;
        }
    }

    /// Reads the start of the value at nesting `depth`.
    ///
    /// # Errors
    ///
    /// [`JsonError`] at the offending byte.
    pub fn value<'b>(
        &mut self,
        depth: usize,
        scratch: &'b mut String,
    ) -> Result<Token<'b>, JsonError>
    where
        'a: 'b,
    {
        if depth > MAX_DEPTH {
            return err(self.pos, "nesting too deep");
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                self.pos += 1;
                Ok(Token::Obj)
            }
            Some(b'[') => {
                self.pos += 1;
                Ok(Token::Arr)
            }
            Some(b'"') => Ok(Token::Str(self.string(scratch)?)),
            Some(b't') => self.literal("true", Token::Bool(true)),
            Some(b'f') => self.literal("false", Token::Bool(false)),
            Some(b'n') => self.literal("null", Token::Null),
            Some(_) => self.number(),
            None => err(self.pos, "unexpected end of input"),
        }
    }

    /// The next member key of the object being read (its `:` consumed; the
    /// member's value comes next), or `None` once its closing brace is
    /// consumed. `first` is true right after the opening brace.
    ///
    /// # Errors
    ///
    /// [`JsonError`] at the offending byte.
    pub fn next_key<'b>(
        &mut self,
        first: bool,
        scratch: &'b mut String,
    ) -> Result<Option<&'b str>, JsonError>
    where
        'a: 'b,
    {
        self.skip_ws();
        match self.peek() {
            Some(b'}') if first => {
                self.pos += 1;
                return Ok(None);
            }
            _ if first => {}
            Some(b',') => self.pos += 1,
            Some(b'}') => {
                self.pos += 1;
                return Ok(None);
            }
            _ => return err(self.pos, "expected ',' or '}'"),
        }
        self.skip_ws();
        if self.peek() != Some(b'"') {
            return err(self.pos, "expected string");
        }
        let key = self.string(scratch)?;
        self.skip_ws();
        if self.peek() != Some(b':') {
            return err(self.pos, "expected ':'");
        }
        self.pos += 1;
        Ok(Some(key))
    }

    /// True when another element of the array being read follows (read it
    /// next), false once its closing bracket is consumed. `first` is true
    /// right after the opening bracket.
    ///
    /// # Errors
    ///
    /// [`JsonError`] at the offending byte.
    pub fn next_item(&mut self, first: bool) -> Result<bool, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b']') => {
                self.pos += 1;
                Ok(false)
            }
            _ if first => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => err(self.pos, "expected ',' or ']'"),
        }
    }

    /// Reads and discards the value at nesting `depth`, checking it as
    /// [`parse`] would.
    ///
    /// # Errors
    ///
    /// [`JsonError`] at the offending byte.
    pub fn skip_value(&mut self, depth: usize, scratch: &mut String) -> Result<(), JsonError> {
        match self.value(depth, scratch)? {
            Token::Obj => {
                let mut first = true;
                while self.next_key(first, scratch)?.is_some() {
                    first = false;
                    self.skip_value(depth + 1, scratch)?;
                }
            }
            Token::Arr => {
                let mut first = true;
                while self.next_item(first)? {
                    first = false;
                    self.skip_value(depth + 1, scratch)?;
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Reads the value at nesting `depth` into a [`Json`] tree.
    ///
    /// # Errors
    ///
    /// [`JsonError`] at the offending byte.
    pub fn tree(&mut self, depth: usize, scratch: &mut String) -> Result<Json, JsonError> {
        Ok(match self.value(depth, scratch)? {
            Token::Obj => {
                let mut members = Vec::new();
                while let Some(key) = self.next_key(members.is_empty(), scratch)? {
                    let key = key.to_owned();
                    members.push((key, self.tree(depth + 1, scratch)?));
                }
                Json::Obj(members)
            }
            Token::Arr => {
                let mut items = Vec::new();
                while self.next_item(items.is_empty())? {
                    items.push(self.tree(depth + 1, scratch)?);
                }
                Json::Arr(items)
            }
            Token::Str(s) => Json::Str(s.to_owned()),
            Token::Int(i) => Json::Int(i),
            Token::Num(f) => Json::Num(f),
            Token::Bool(b) => Json::Bool(b),
            Token::Null => Json::Null,
        })
    }

    /// Checks that only whitespace follows.
    ///
    /// # Errors
    ///
    /// "trailing content" at the first byte that is not whitespace.
    pub fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.input.len() {
            return err(self.pos, "trailing content");
        }
        Ok(())
    }

    /// A string token, the lexer on its opening quote. Borrowed from the
    /// input when it holds no escape; else decoded into `scratch`.
    fn string<'b>(&mut self, scratch: &'b mut String) -> Result<&'b str, JsonError>
    where
        'a: 'b,
    {
        let input: &'a str = self.input;
        let bytes = input.as_bytes();
        self.pos += 1; // the opening quote
        let start = self.pos;
        // The common case: no escape, so the token is a slice of the input.
        loop {
            match bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(&input[start..self.pos - 1]);
                }
                Some(b'\\') => break,
                Some(&b) if b < 0x20 => return err(self.pos, "raw control character"),
                Some(_) => self.pos += 1,
                None => return err(self.pos, "unterminated string"),
            }
        }
        scratch.clear();
        let mut run = start;
        loop {
            match bytes.get(self.pos) {
                Some(b'"') => {
                    scratch.push_str(&input[run..self.pos]);
                    self.pos += 1;
                    return Ok(scratch);
                }
                Some(b'\\') => {
                    scratch.push_str(&input[run..self.pos]);
                    self.pos += 1;
                    let c = self.escape()?;
                    scratch.push(c);
                    self.pos += 1;
                    run = self.pos;
                }
                Some(&b) if b < 0x20 => return err(self.pos, "raw control character"),
                // Multi-byte UTF-8 bytes are all >= 0x80: runs end only on
                // ASCII, so every slice falls on a char boundary.
                Some(_) => self.pos += 1,
                None => return err(self.pos, "unterminated string"),
            }
        }
    }

    /// Decodes the escape whose letter is at `pos`, leaving `pos` on its
    /// last byte.
    fn escape(&mut self) -> Result<char, JsonError> {
        Ok(match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{0008}',
            Some(b'f') => '\u{000C}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let bytes = self.input.as_bytes();
                let cp = self.hex4()?;
                if (0xD800..=0xDBFF).contains(&cp) {
                    // A surrogate pair: the low half must follow.
                    if bytes.get(self.pos + 1) != Some(&b'\\')
                        || bytes.get(self.pos + 2) != Some(&b'u')
                    {
                        return err(self.pos, "unpaired surrogate");
                    }
                    self.pos += 2;
                    let low = self.hex4()?;
                    if !(0xDC00..=0xDFFF).contains(&low) {
                        return err(self.pos, "bad low surrogate");
                    }
                    let c = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                    char::from_u32(c).ok_or(JsonError {
                        pos: self.pos,
                        msg: "bad surrogate pair".into(),
                    })?
                } else if (0xDC00..=0xDFFF).contains(&cp) {
                    return err(self.pos, "unpaired low surrogate");
                } else {
                    char::from_u32(cp).ok_or(JsonError {
                        pos: self.pos,
                        msg: "bad \\u escape".into(),
                    })?
                }
            }
            _ => return err(self.pos, "bad escape"),
        })
    }

    /// Parses the 4 hex digits after `\u`, leaving `pos` on the last digit.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut cp = 0u32;
        for _ in 0..4 {
            self.pos += 1;
            let d = match self.peek() {
                Some(b) if b.is_ascii_digit() => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return err(self.pos, "bad \\u escape"),
            };
            cp = cp * 16 + d;
        }
        Ok(cp)
    }

    fn literal<'b>(&mut self, lit: &str, token: Token<'b>) -> Result<Token<'b>, JsonError> {
        if self.input.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(token)
        } else {
            err(self.pos, "bad literal")
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number<'b>(&mut self) -> Result<Token<'b>, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let int_start = self.pos;
        if self.digits() == 0 {
            return err(start, "expected number");
        }
        let int_end = self.pos;
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if self.digits() == 0 {
                return err(self.pos, "bad fraction");
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return err(self.pos, "bad exponent");
            }
        }
        if integral {
            // Exact integers without a round trip through `str::parse`;
            // the magnitude of `i64::MIN` is one past `i64::MAX`.
            let magnitude = self.input.as_bytes()[int_start..int_end]
                .iter()
                .try_fold(0u64, |acc, &d| {
                    acc.checked_mul(10)?.checked_add(u64::from(d - b'0'))
                });
            match magnitude {
                Some(m) if !negative && m <= i64::MAX as u64 => return Ok(Token::Int(m as i64)),
                Some(m) if negative && m <= i64::MIN.unsigned_abs() => {
                    return Ok(Token::Int(0i64.wrapping_sub_unsigned(m)))
                }
                _ => {}
            }
        }
        match self.input[start..self.pos].parse::<f64>() {
            Ok(f) => Ok(Token::Num(f)),
            Err(_) => err(start, "unrepresentable number"),
        }
    }
}

/// Parses `input` as exactly one JSON value with nothing trailing.
///
/// # Errors
///
/// [`JsonError`] naming the offending byte position.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut lexer = Lexer::new(input);
    let value = lexer.tree(0, &mut String::new())?;
    lexer.finish()?;
    Ok(value)
}

/// Checks that `input` is exactly one JSON value with nothing trailing,
/// failing exactly where [`parse`] would, without building the tree.
///
/// # Errors
///
/// [`JsonError`] naming the offending byte position.
pub fn validate(input: &str) -> Result<(), JsonError> {
    let mut lexer = Lexer::new(input);
    lexer.skip_value(0, &mut String::new())?;
    lexer.finish()
}

/// Appends `s` to `out` as a JSON string literal (quoted, escaped).
pub fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    // Copy the runs between bytes that need escaping in one go; those
    // bytes are all ASCII, so every run ends on a char boundary.
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            b if b < 0x20 => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{:04x}", b);
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Appends `n` in decimal.
pub fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[i..]).expect("decimal digits are ASCII"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_structures() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("-42").unwrap(), Json::Int(-42));
        assert_eq!(parse("2.5").unwrap(), Json::Num(2.5));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".into()));
        let v = parse(r#"{"xs": [1, 2], "ok": true}"#).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("xs").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
    }

    #[test]
    fn decodes_unicode_escapes() {
        assert_eq!(parse(r#""A""#).unwrap(), Json::Str("A".into()));
        assert_eq!(parse(r#""😀""#).unwrap(), Json::Str("\u{1F600}".into()));
        assert!(parse(r#""\ud83d""#).is_err()); // unpaired high surrogate
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "1 2", "{'a': 1}", "nul"] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn rejects_hostile_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn escaping_round_trips() {
        for original in [
            "line\n\"quoted\"\ttab\\slash\u{1}",
            "",
            "plain",
            "\u{1F600} é \u{7f}\u{1f}",
        ] {
            let mut encoded = String::new();
            push_escaped(&mut encoded, original);
            assert_eq!(parse(&encoded).unwrap(), Json::Str(original.into()));
        }
        let mut encoded = String::new();
        push_escaped(&mut encoded, "a\u{8}b");
        assert_eq!(encoded, "\"a\\u0008b\"");
    }

    #[test]
    fn integers_keep_i64_exactly_and_overflow_to_floats() {
        for (text, want) in [
            ("9223372036854775807", Json::Int(i64::MAX)),
            ("-9223372036854775808", Json::Int(i64::MIN)),
            ("-0", Json::Int(0)),
            (
                "9223372036854775808",
                Json::Num(9_223_372_036_854_775_808.0),
            ),
            (
                "-9223372036854775809",
                Json::Num(-9_223_372_036_854_775_808.0),
            ),
            ("99999999999999999999999", Json::Num(1e23)),
            ("1.0", Json::Num(1.0)),
            ("1e2", Json::Num(100.0)),
            ("-2.5E-1", Json::Num(-0.25)),
        ] {
            assert_eq!(parse(text).unwrap(), want, "{text}");
        }
        let mut out = String::new();
        for n in [0, 7, 10, u64::MAX] {
            out.clear();
            push_u64(&mut out, n);
            assert_eq!(out, n.to_string());
        }
    }

    #[test]
    fn errors_name_the_offending_byte() {
        for (text, pos, msg) in [
            ("", 0, "unexpected end of input"),
            ("{\"a\" 1}", 5, "expected ':'"),
            ("{\"a\": 1,}", 8, "expected string"),
            ("[1 2]", 3, "expected ',' or ']'"),
            ("{\"a\": 1 \"b\"}", 8, "expected ',' or '}'"),
            ("\"ab", 3, "unterminated string"),
            ("\"a\u{1}\"", 2, "raw control character"),
            ("\"\\x\"", 2, "bad escape"),
            ("\"\\u12g4\"", 5, "bad \\u escape"),
            ("\"\\ud83d\"", 6, "unpaired surrogate"),
            ("\"\\udc00\"", 6, "unpaired low surrogate"),
            ("-", 0, "expected number"),
            ("1.", 2, "bad fraction"),
            ("1e+", 3, "bad exponent"),
            ("tru", 0, "bad literal"),
            ("1 2", 2, "trailing content"),
        ] {
            let want = JsonError {
                pos,
                msg: msg.into(),
            };
            assert_eq!(parse(text), Err(want.clone()), "{text:?}");
            assert_eq!(validate(text), Err(want), "{text:?}");
        }
    }

    #[test]
    fn validate_accepts_what_parse_accepts() {
        let deep = |n: usize| "[".repeat(n) + &"]".repeat(n);
        for text in [
            r#"{"a": [1, {"b": null}], "c": "\u00e9"}"#.to_string(),
            deep(65),
            deep(66),
        ] {
            assert_eq!(validate(&text), parse(&text).map(drop), "{text}");
        }
        assert!(validate(&deep(65)).is_ok());
        assert!(validate(&deep(66)).is_err());
    }

    #[test]
    fn strings_borrow_the_input_unless_escaped() {
        let text = r#"["plain", "esc\"aped"]"#;
        let mut lexer = Lexer::new(text);
        let mut scratch = String::new();
        assert_eq!(lexer.value(0, &mut scratch), Ok(Token::Arr));
        assert!(lexer.next_item(true).unwrap());
        let Token::Str(plain) = lexer.value(1, &mut scratch).unwrap() else {
            panic!("a string")
        };
        assert_eq!(plain, "plain");
        assert!(std::ptr::eq(plain.as_ptr(), text[2..].as_ptr()));
        assert!(lexer.next_item(false).unwrap());
        assert_eq!(lexer.value(1, &mut scratch), Ok(Token::Str("esc\"aped")));
        assert!(!lexer.next_item(false).unwrap());
        assert_eq!(lexer.finish(), Ok(()));
    }
}
