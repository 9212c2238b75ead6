//! The `Json` tree, built over the one tokenizer, [`Reader`].

use crate::read::{Kind, ParseError, Reader};
use crate::Json;

/// Parses a complete JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut r = Reader::new(input);
    let v = value(&mut r)?;
    r.end()?;
    Ok(v)
}

fn value(r: &mut Reader<'_>) -> Result<Json, ParseError> {
    Ok(match r.peek()? {
        Kind::Null => {
            r.null()?;
            Json::Null
        }
        Kind::Bool => Json::Bool(r.bool()?),
        Kind::Num => Json::Num(r.number()?),
        Kind::Str => Json::Str(r.string()?.into_owned()),
        Kind::Arr => {
            r.begin_array()?;
            let mut items = Vec::new();
            while r.next_item()? {
                items.push(value(r)?);
            }
            Json::Arr(items)
        }
        Kind::Obj => {
            r.begin_object()?;
            let mut pairs = Vec::new();
            while let Some(key) = r.next_key()? {
                let val = value(r)?;
                pairs.push((key.into_owned(), val));
            }
            Json::Obj(pairs)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(parse("-1.5e3").unwrap(), Json::Num(-1500.0));
        assert_eq!(parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn nested_structure() {
        let j = parse(r#"{"layers":[{"digest":"sha256:ab","size":12}],"tag":"latest"}"#).unwrap();
        let layers = j.get("layers").unwrap().as_arr().unwrap();
        assert_eq!(layers[0].get("size").unwrap().as_u64(), Some(12));
        assert_eq!(j.get("tag").unwrap().as_str(), Some("latest"));
    }

    #[test]
    fn whitespace_tolerated() {
        let j = parse(" {\n\t\"a\" : [ 1 , 2 ] \r}\n").unwrap();
        assert_eq!(j.get("a").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn escapes() {
        let j = parse(r#""a\nb\t\"\\Aé""#).unwrap();
        assert_eq!(j.as_str(), Some("a\nb\t\"\\Aé"));
    }

    #[test]
    fn surrogate_pair() {
        let j = parse(r#""😀""#).unwrap();
        assert_eq!(j.as_str(), Some("😀"));
    }

    #[test]
    fn unpaired_surrogate_rejected() {
        assert!(parse(r#""\ud83d""#).is_err());
        assert!(parse(r#""\udc00""#).is_err());
    }

    #[test]
    fn raw_utf8_passthrough() {
        let j = parse("\"naïve — 日本語\"").unwrap();
        assert_eq!(j.as_str(), Some("naïve — 日本語"));
    }

    #[test]
    fn errors() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1,}").is_err());
        assert!(parse("01").is_err());
        assert!(parse("1.").is_err());
        assert!(parse("1e").is_err());
        assert!(parse("\"\x01\"").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("true false").is_err());
    }

    #[test]
    fn deep_nesting_bounded() {
        let deep = "[".repeat(1000) + &"]".repeat(1000);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn error_reports_offset() {
        let e = parse("{\"a\" 1}").unwrap_err();
        assert_eq!(e.at, 5);
        assert!(e.to_string().contains("byte 5"));
    }
}
