//! Deterministic JSON serialization: the one string escaper and number
//! writer, and the `Json` printer over them.
//!
//! Output is compact (no extra whitespace) with object keys in insertion
//! order, which keeps manifest bytes — and therefore their sha256 digests —
//! reproducible across runs. Codecs that write JSON straight from their own
//! structs append through [`push_string`] and [`push_u64`], so their bytes
//! are the printer's bytes.

use crate::Json;
use std::fmt::{self, Write};

/// Appends `s` to `out` as a JSON string literal.
pub fn push_string(out: &mut String, s: &str) {
    write_string(out, s).expect("writing to a String cannot fail");
}

/// Appends `n` to `out` exactly as the printer writes `Json::from(n)`.
pub fn push_u64(out: &mut String, n: u64) {
    write_number(out, n as f64).expect("writing to a String cannot fail");
}

pub(crate) fn write_value<W: Write>(v: &Json, out: &mut W) -> fmt::Result {
    match v {
        Json::Null => out.write_str("null"),
        Json::Bool(true) => out.write_str("true"),
        Json::Bool(false) => out.write_str("false"),
        Json::Num(n) => write_number(out, *n),
        Json::Str(s) => write_string(out, s),
        Json::Arr(items) => {
            out.write_char('[')?;
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                write_value(item, out)?;
            }
            out.write_char(']')
        }
        Json::Obj(pairs) => {
            out.write_char('{')?;
            for (i, (k, val)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                write_string(out, k)?;
                out.write_char(':')?;
                write_value(val, out)?;
            }
            out.write_char('}')
        }
    }
}

/// Integers below 2^53 in plain decimal, other finite numbers through the
/// float printer. JSON has no NaN/Inf; manifests never produce them, so
/// they print as `null` rather than as invalid output.
fn write_number<W: Write>(out: &mut W, n: f64) -> fmt::Result {
    if !n.is_finite() {
        out.write_str("null")
    } else if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
        if n < 0.0 {
            out.write_char('-')?;
        }
        write_digits(out, n.abs() as u64)
    } else {
        write!(out, "{n}")
    }
}

fn write_digits<W: Write>(out: &mut W, mut n: u64) -> fmt::Result {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.write_str(std::str::from_utf8(&buf[at..]).expect("digits are ASCII"))
}

/// Quotes `s`, escaping `"`, `\` and control characters and copying each
/// run between them whole. Every byte that needs an escape is ASCII, so the
/// runs split only at char boundaries.
fn write_string<W: Write>(out: &mut W, s: &str) -> fmt::Result {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.write_char('"')?;
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0x00..=0x1f => "",
            _ => continue,
        };
        out.write_str(&s[run..i])?;
        if short.is_empty() {
            out.write_str("\\u00")?;
            out.write_char(HEX[(b >> 4) as usize] as char)?;
            out.write_char(HEX[(b & 0xf) as usize] as char)?;
        } else {
            out.write_str(short)?;
        }
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn compact_output() {
        let mut m = Json::obj();
        m.set("a", 1u64).set("b", vec!["x", "y"]);
        assert_eq!(m.to_string(), r#"{"a":1,"b":["x","y"]}"#);
    }

    #[test]
    fn integers_without_fraction() {
        assert_eq!(Json::Num(5.0).to_string(), "5");
        assert_eq!(Json::Num(5.5).to_string(), "5.5");
        assert_eq!(Json::Num(-0.0).to_string(), "0");
        assert_eq!(Json::Num(-12.0).to_string(), "-12");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn push_u64_writes_what_the_printer_writes() {
        let cases = [
            (0, "0"),
            (10, "10"),
            (u32::MAX as u64, "4294967295"),
            ((1 << 53) - 1, "9007199254740991"),
            // From 2^53 the value goes through f64, as `Json::from(u64)` does.
            ((1 << 53) + 1, "9007199254740992"),
            (u64::MAX, "18446744073709552000"),
        ];
        for (n, want) in cases {
            let mut s = String::new();
            push_u64(&mut s, n);
            assert_eq!(s, want);
            assert_eq!(Json::from(n).to_string(), want);
        }
    }

    #[test]
    fn string_escaping() {
        let got = Json::Str("a\"b\\c\nd\u{1}\u{8}\u{c}\r\t\u{1f}é".into()).to_string();
        assert_eq!(got, "\"a\\\"b\\\\c\\nd\\u0001\\b\\f\\r\\t\\u001fé\"");
        let mut pushed = String::new();
        push_string(&mut pushed, "a\"b\\c\nd\u{1}\u{8}\u{c}\r\t\u{1f}é");
        assert_eq!(pushed, got);
    }

    #[test]
    fn unicode_passthrough() {
        let s = Json::Str("日本語 😀".into());
        let encoded = s.to_string();
        assert_eq!(parse(&encoded).unwrap(), s);
    }

    #[test]
    fn roundtrip_fixpoint() {
        // parse(print(v)) == v and print is a fix-point after one iteration.
        let src = r#"{"schemaVersion":2,"layers":[{"digest":"sha256:e3b0","size":0},{"digest":"sha256:ffff","size":123456789}],"config":null,"ok":true}"#;
        let v = parse(src).unwrap();
        let printed = v.to_string();
        assert_eq!(parse(&printed).unwrap(), v);
        assert_eq!(parse(&printed).unwrap().to_string(), printed);
    }

    #[test]
    fn key_order_preserved() {
        let v = parse(r#"{"z":1,"a":2,"m":3}"#).unwrap();
        assert_eq!(v.to_string(), r#"{"z":1,"a":2,"m":3}"#);
    }
}
