//! The one JSON tokenizer (RFC 8259): a pull reader over `&str`.
//!
//! [`crate::parse`] builds the `Json` tree through it; codecs that know
//! their schema walk the text with it directly and build no tree at all.
//! Strings come back borrowed from the input unless they hold an escape.

use std::borrow::Cow;

/// Error raised when parsing malformed JSON, with a byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// Human-readable description.
    pub msg: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Nesting limit: manifests are shallow; this guards against stack overflow
/// on adversarial input.
const MAX_DEPTH: usize = 128;

/// What the next value is, read off its first byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Null,
    Bool,
    Num,
    Str,
    Arr,
    Obj,
}

/// A pull reader over one JSON document.
///
/// Values are read in document order: [`Reader::begin_object`] then
/// [`Reader::next_key`] until it returns `None`, reading each key's value
/// in between; [`Reader::begin_array`] then [`Reader::next_item`] likewise;
/// scalars through their typed readers; and [`Reader::end`] once the
/// document is done.
/// Every read validates what it passes over, so a document read to its end
/// is well-formed JSON.
pub struct Reader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    /// Set between opening a container and reading its first member, the
    /// one place an immediate `}` / `]` is legal and a `,` is not.
    first: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Reader { text, bytes: text.as_bytes(), pos: 0, depth: 0, first: false }
    }

    fn err(&self, msg: &'static str) -> ParseError {
        ParseError { at: self.pos, msg }
    }

    fn peek_byte(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek_byte()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek_byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `b` or fails at the offending byte (at the last byte when
    /// the input ran out).
    fn expect(&mut self, b: u8, msg: &'static str) -> Result<(), ParseError> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            self.pos = self.pos.saturating_sub(1);
            Err(self.err(msg))
        }
    }

    /// Skips whitespace to the next value and says what it is, without
    /// consuming it.
    pub fn peek(&mut self) -> Result<Kind, ParseError> {
        self.skip_ws();
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek_byte() {
            Some(b'{') => Ok(Kind::Obj),
            Some(b'[') => Ok(Kind::Arr),
            Some(b'"') => Ok(Kind::Str),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'n') => Ok(Kind::Null),
            Some(b'-' | b'0'..=b'9') => Ok(Kind::Num),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Positions at the next value, which must be of kind `want`.
    fn value_of(&mut self, want: Kind, msg: &'static str) -> Result<(), ParseError> {
        if self.peek()? == want {
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    /// Opens an object; read its members with [`Reader::next_key`].
    pub fn begin_object(&mut self) -> Result<(), ParseError> {
        self.value_of(Kind::Obj, "expected an object")?;
        self.open();
        Ok(())
    }

    /// Opens an array; read its items with [`Reader::next_item`].
    pub fn begin_array(&mut self) -> Result<(), ParseError> {
        self.value_of(Kind::Arr, "expected an array")?;
        self.open();
        Ok(())
    }

    fn open(&mut self) {
        self.pos += 1;
        self.depth += 1;
        self.first = true;
    }

    /// Steps past the `,` before the next member or item, or past the
    /// container's `close`. Returns whether a member or item follows.
    fn next_member(&mut self, close: u8, msg: &'static str) -> Result<bool, ParseError> {
        self.skip_ws();
        let more = if std::mem::take(&mut self.first) {
            if self.peek_byte() == Some(close) {
                self.pos += 1;
                false
            } else {
                true
            }
        } else {
            match self.bump() {
                Some(b',') => true,
                Some(b) if b == close => false,
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err(msg));
                }
            }
        };
        if !more {
            self.depth -= 1;
        }
        Ok(more)
    }

    /// The open object's next key, positioned at its value; `None` once
    /// the object is closed.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, ParseError> {
        if !self.next_member(b'}', "expected ',' or '}'")? {
            return Ok(None);
        }
        self.skip_ws();
        let key = self.string_token()?;
        self.skip_ws();
        self.expect(b':', "expected ':'")?;
        Ok(Some(key))
    }

    /// Whether the open array has another item (the reader is then
    /// positioned at it); `false` once the array is closed.
    pub fn next_item(&mut self) -> Result<bool, ParseError> {
        self.next_member(b']', "expected ',' or ']'")
    }

    /// Reads a string value: borrowed from the input unless it holds an
    /// escape.
    pub fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.value_of(Kind::Str, "expected a string")?;
        self.string_token()
    }

    /// Reads a number value as the `f64` the decimal text denotes.
    pub(crate) fn number(&mut self) -> Result<f64, ParseError> {
        self.value_of(Kind::Num, "expected a number")?;
        let start = self.pos;
        let integer = self.number_token()?;
        let text = &self.text[start..self.pos];
        // `u64 as f64` rounds to the nearest double, ties to even, as the
        // decimal parser does: the same value, without parsing the text.
        if let Some(n) = integer {
            return Ok(if text.starts_with('-') { -(n as f64) } else { n as f64 });
        }
        text.parse::<f64>().map_err(|_| self.err("number out of range"))
    }

    /// Reads a number value and keeps it if it is what `Json::as_u64`
    /// accepts; `Ok(None)` for any other number.
    pub fn u64(&mut self) -> Result<Option<u64>, ParseError> {
        Ok(crate::value::u64_of(self.number()?))
    }

    /// Reads `true` or `false`.
    pub(crate) fn bool(&mut self) -> Result<bool, ParseError> {
        self.value_of(Kind::Bool, "expected a boolean")?;
        if self.literal("true") {
            Ok(true)
        } else if self.literal("false") {
            Ok(false)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    /// Reads `null`.
    pub(crate) fn null(&mut self) -> Result<(), ParseError> {
        self.value_of(Kind::Null, "expected null")?;
        if self.literal("null") {
            Ok(())
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn literal(&mut self, lit: &str) -> bool {
        let hit = self.bytes[self.pos..].starts_with(lit.as_bytes());
        if hit {
            self.pos += lit.len();
        }
        hit
    }

    /// Checks that nothing but whitespace is left.
    pub fn end(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.err("trailing characters"))
        }
    }

    /// A string token at the cursor (a key or a value). The body is
    /// scanned once to validate it and size the result; only a string
    /// with an escape is walked again to decode it into one exact-sized
    /// allocation.
    fn string_token(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.expect(b'"', "expected '\"'")?;
        let start = self.pos;
        let (len, escaped) = self.string_body(None)?;
        if !escaped {
            return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
        }
        self.pos = start;
        let mut out = String::with_capacity(len);
        self.string_body(Some(&mut out))?;
        Ok(Cow::Owned(out))
    }

    /// Walks a string body from just past its opening quote to just past
    /// its closing one, returning the decoded length in bytes and whether
    /// it held an escape. With `out`, appends the decoded text, each run
    /// between escapes in one copy.
    fn string_body(&mut self, mut out: Option<&mut String>) -> Result<(usize, bool), ParseError> {
        let (mut len, mut escaped) = (0, false);
        loop {
            let rest = &self.bytes[self.pos..];
            let run = rest.iter().position(|&b| b == b'"' || b == b'\\' || b < 0x20);
            let run = run.unwrap_or(rest.len());
            // The run ends at an ASCII byte or the end, so both ends are
            // char boundaries.
            if let Some(out) = out.as_deref_mut() {
                out.push_str(&self.text[self.pos..self.pos + run]);
            }
            len += run;
            self.pos += run;
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok((len, escaped)),
                Some(b'\\') => {
                    escaped = true;
                    let c = self.escape()?;
                    len += c.len_utf8();
                    if let Some(out) = out.as_deref_mut() {
                        out.push(c);
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
            }
        }
    }

    /// Decodes the escape after a backslash.
    fn escape(&mut self) -> Result<char, ParseError> {
        Ok(match self.bump() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let cp = self.hex4()?;
                if (0xD800..0xDC00).contains(&cp) {
                    // High surrogate: must be followed by \uDC00..DFFF.
                    self.expect(b'\\', "expected low surrogate")?;
                    self.expect(b'u', "expected low surrogate")?;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                    char::from_u32(c).ok_or_else(|| self.err("invalid codepoint"))?
                } else if (0xDC00..0xE000).contains(&cp) {
                    return Err(self.err("unpaired low surrogate"));
                } else {
                    char::from_u32(cp).ok_or_else(|| self.err("invalid codepoint"))?
                }
            }
            _ => return Err(self.err("invalid escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.bump() {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a' + 10) as u32,
                Some(b @ b'A'..=b'F') => (b - b'A' + 10) as u32,
                _ => return Err(self.err("invalid \\u escape")),
            };
            v = v * 16 + d;
        }
        Ok(v)
    }

    /// Steps over a number token. Returns its magnitude when the token is
    /// a plain (possibly negative) integer of at most 19 digits, which
    /// always fits a `u64`.
    fn number_token(&mut self) -> Result<Option<u64>, ParseError> {
        if self.peek_byte() == Some(b'-') {
            self.pos += 1;
        }
        let digits = self.pos;
        let mut n = 0u64;
        match self.peek_byte() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while let Some(b @ b'0'..=b'9') = self.peek_byte() {
                    n = n.wrapping_mul(10).wrapping_add((b - b'0') as u64);
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        let mut integer = self.pos - digits <= 19;
        if self.peek_byte() == Some(b'.') {
            integer = false;
            self.pos += 1;
            self.digits("digit required after decimal point")?;
        }
        if matches!(self.peek_byte(), Some(b'e' | b'E')) {
            integer = false;
            self.pos += 1;
            if matches!(self.peek_byte(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits("digit required in exponent")?;
        }
        Ok(integer.then_some(n))
    }

    /// Steps over one or more digits.
    fn digits(&mut self, msg: &'static str) -> Result<(), ParseError> {
        if !matches!(self.peek_byte(), Some(b'0'..=b'9')) {
            return Err(self.err(msg));
        }
        while matches!(self.peek_byte(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walks_an_object_without_building_it() {
        let mut r = Reader::new(r#" {"a": [1, -2.5e1, true, null], "b\n": "x\"y", "c": {}} "#);
        r.begin_object().unwrap();
        assert_eq!(r.next_key().unwrap().as_deref(), Some("a"));
        r.begin_array().unwrap();
        assert!(r.next_item().unwrap());
        assert_eq!(r.u64().unwrap(), Some(1));
        assert!(r.next_item().unwrap());
        assert_eq!(r.number().unwrap(), -25.0);
        assert!(r.next_item().unwrap());
        assert!(r.bool().unwrap());
        assert!(r.next_item().unwrap());
        r.null().unwrap();
        assert!(!r.next_item().unwrap());
        assert_eq!(r.next_key().unwrap().as_deref(), Some("b\n"));
        assert_eq!(r.string().unwrap(), "x\"y");
        assert_eq!(r.next_key().unwrap().as_deref(), Some("c"));
        r.begin_object().unwrap();
        assert_eq!(r.next_key().unwrap(), None);
        assert_eq!(r.next_key().unwrap(), None);
        r.end().unwrap();
    }

    #[test]
    fn strings_borrow_unless_escaped() {
        let mut r = Reader::new(r#"["plain é", "esc\u00e9"]"#);
        r.begin_array().unwrap();
        r.next_item().unwrap();
        assert!(matches!(r.string().unwrap(), Cow::Borrowed("plain é")));
        r.next_item().unwrap();
        let s = r.string().unwrap();
        assert!(matches!(&s, Cow::Owned(o) if o == "escé" && o.capacity() == o.len()));
    }

    #[test]
    fn integers_take_the_fast_path_exactly() {
        let texts = [
            "0",
            "-0",
            "7",
            "-999999999999999",
            "9007199254740993",
            "9999999999999999999",
            "-9999999999999999999",
            "18446744073709551615",
            "1e3",
            "1.0",
        ];
        for text in texts {
            let mut r = Reader::new(text);
            let got = r.number().unwrap();
            let want: f64 = text.parse().unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "{text}");
        }
        assert_eq!(Reader::new("1e3").u64().unwrap(), Some(1000));
        assert_eq!(Reader::new("-1").u64().unwrap(), None);
        assert_eq!(Reader::new("1.5").u64().unwrap(), None);
    }

    #[test]
    fn typed_reads_reject_other_kinds() {
        assert!(Reader::new("1").string().is_err());
        assert!(Reader::new("\"1\"").number().is_err());
        assert!(Reader::new("[]").begin_object().is_err());
        assert!(Reader::new("tru").bool().is_err());
    }
}
