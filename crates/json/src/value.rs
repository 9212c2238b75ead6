//! The JSON value model.

use std::fmt;

/// A JSON value.
///
/// Objects preserve insertion order (a `Vec` of pairs rather than a map):
/// manifests are small, lookups are linear but cheap, and the serialized
/// byte sequence — hence the manifest digest — is deterministic.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// JSON numbers are kept as f64; manifest fields (sizes, counts) fit
    /// losslessly below 2^53.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Creates an empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Inserts (or replaces) `key` in an object; panics on non-objects.
    pub fn set(&mut self, key: &str, value: impl Into<Json>) -> &mut Self {
        match self {
            Json::Obj(pairs) => {
                if let Some(p) = pairs.iter_mut().find(|(k, _)| k == key) {
                    p.1 = value.into();
                } else {
                    pairs.push((key.to_string(), value.into()));
                }
            }
            _ => panic!("Json::set on non-object"),
        }
        self
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Returns the string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Returns the number as u64 if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().and_then(u64_of)
    }

    /// Returns the array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Returns the bool payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// `n` as a u64 if it is a non-negative integer no larger than 2^53.
pub(crate) fn u64_of(n: f64) -> Option<u64> {
    (n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53)).then_some(n as u64)
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}
impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}
impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Num(n as f64)
    }
}
impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}
impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Num(n as f64)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl fmt::Display for Json {
    /// Compact JSON, object keys in insertion order, written straight to
    /// the formatter.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::write::write_value(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_accessors() {
        let mut m = Json::obj();
        m.set("name", "nginx").set("size", 1234u64).set("ok", true);
        assert_eq!(m.get("name").unwrap().as_str(), Some("nginx"));
        assert_eq!(m.get("size").unwrap().as_u64(), Some(1234));
        assert_eq!(m.get("ok").unwrap().as_bool(), Some(true));
        assert!(m.get("missing").is_none());
    }

    #[test]
    fn set_replaces_existing_key() {
        let mut m = Json::obj();
        m.set("k", 1u64);
        m.set("k", 2u64);
        assert_eq!(m.get("k").unwrap().as_u64(), Some(2));
        if let Json::Obj(pairs) = &m {
            assert_eq!(pairs.len(), 1);
        }
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(42.0).as_u64(), Some(42));
    }

    #[test]
    fn from_vec() {
        let j: Json = vec!["a", "b"].into();
        assert_eq!(j.as_arr().unwrap().len(), 2);
    }
}
