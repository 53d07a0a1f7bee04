//! Request parsing for the serve front end.
//!
//! Requests are *flat* JSON objects (string / unsigned-integer / boolean /
//! null values only), read with the tree's one JSON cursor,
//! [`galois_runtime::json::Reader`]. Responses are built by hand with fixed
//! field order and [`escape`]d strings — canonical output needs exact byte
//! control anyway, so a serializer would buy nothing.

pub use galois_runtime::json::escape;
use galois_runtime::json::{JsonError, Reader};

/// A value a request object may carry.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    UInt(u64),
    Str(String),
}

impl JsonValue {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parses a flat JSON object — `{"key": <string|uint|bool|null>, ...}` —
/// into key/value pairs in document order. Whitespace between tokens is
/// allowed; nested containers, fractions, negatives, duplicate keys, and
/// trailing garbage are all rejected: a request either parses exactly or
/// names the reason it did not.
pub fn parse_flat_object(text: &str) -> Result<Vec<(String, JsonValue)>, String> {
    flat_object(&mut Reader::new(text)).map_err(|e| e.to_string())
}

fn flat_object(r: &mut Reader) -> Result<Vec<(String, JsonValue)>, JsonError> {
    r.ws().expect("{")?;
    let mut pairs = Vec::new();
    if !r.ws().eat("}") {
        loop {
            let key = r.ws().string()?;
            r.ws().expect(":")?;
            let value = value(r.ws())?;
            if pairs.iter().any(|(k, _)| *k == key) {
                return r.error(&format!("duplicate key {key:?}"));
            }
            pairs.push((key, value));
            if r.ws().eat("}") {
                break;
            }
            r.expect(",")?;
        }
    }
    r.ws().end()?;
    Ok(pairs)
}

fn value(r: &mut Reader) -> Result<JsonValue, JsonError> {
    match r.peek() {
        Some(b'"') => r.string().map(JsonValue::Str),
        Some(b't' | b'f') => r.bool().map(JsonValue::Bool),
        Some(b'n') => r.expect("null").map(|_| JsonValue::Null),
        Some(b'0'..=b'9') => {
            let n = r.uint()?;
            if matches!(r.peek(), Some(b'.' | b'e' | b'E')) {
                return r.error("fractional numbers are not accepted here");
            }
            Ok(JsonValue::UInt(n))
        }
        Some(b'{' | b'[') => r.error("nested objects/arrays are not accepted in requests"),
        Some(b'-') => r.error("negative numbers are not accepted here"),
        Some(_) => r.error("unexpected byte"),
        None => r.error("unexpected end of input"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_requests() {
        let pairs =
            parse_flat_object(r#" {"app": "bfs", "threads": 4, "round_log": true, "x": null} "#)
                .unwrap();
        assert_eq!(pairs[0], ("app".into(), JsonValue::Str("bfs".into())));
        assert_eq!(pairs[1], ("threads".into(), JsonValue::UInt(4)));
        assert_eq!(pairs[2], ("round_log".into(), JsonValue::Bool(true)));
        assert_eq!(pairs[3], ("x".into(), JsonValue::Null));
        assert!(parse_flat_object("{}").unwrap().is_empty());
    }

    #[test]
    fn rejects_nesting_floats_and_garbage() {
        assert!(parse_flat_object(r#"{"a": {"b": 1}}"#).is_err());
        assert!(parse_flat_object(r#"{"a": [1]}"#).is_err());
        assert!(parse_flat_object(r#"{"a": 1.5}"#).is_err());
        assert!(parse_flat_object(r#"{"a": -1}"#).is_err());
        assert!(parse_flat_object(r#"{"a": 1} extra"#).is_err());
        assert!(parse_flat_object(r#"{"a" 1}"#).is_err());
    }

    #[test]
    fn rejects_duplicate_keys() {
        assert!(parse_flat_object(r#"{"a": 1, "a": 2}"#).is_err());
        assert!(parse_flat_object(r#"{"a": 1, "b": 2, "a": 1}"#).is_err());
        // Distinct keys that merely share a prefix are fine.
        assert!(parse_flat_object(r#"{"a": 1, "aa": 2}"#).is_ok());
    }

    #[test]
    fn string_escapes_round_trip() {
        let pairs = parse_flat_object(r#"{"k": "a\"b\\c\ndAé"}"#).unwrap();
        assert_eq!(pairs[0].1.as_str().unwrap(), "a\"b\\c\ndAé");
        assert_eq!(escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }
}
