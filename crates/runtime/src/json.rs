//! The tree's one JSON codec: a byte-exact cursor ([`Reader`]), the string
//! [`escape`] every writer uses, and the checksum envelope ([`seal`] /
//! [`unseal`]) that guards the on-disk artifacts.
//!
//! The tree builds with no registry access, so there is no serde — and a
//! serializer would buy nothing: every format here is written by hand in a
//! fixed field order because canonical output needs exact byte control.
//! The reader mirrors that. Fixed-order decoders (run manifests, lockstep
//! reports, bench lines) name each key in turn and never call
//! [`Reader::ws`], so a stray space, a reordered, unknown or duplicate key,
//! or a trailing byte is a parse error. Whitespace-tolerant callers (the
//! HTTP request parser) call [`Reader::ws`] between tokens themselves.
//!
//! The envelope turns an object body `{…}` into `{…,"checksum":"%016x"}`
//! plus a newline, where the checksum is the [`Fnv64`] hash of the body
//! bytes. [`unseal`] verifies it before any field is believed, so a torn or
//! tampered file is refused as a whole.
//!
//! ```
//! use galois_runtime::json::{seal, unseal, Reader};
//!
//! let text = seal("{\"n\":7,\"tag\":\"a\\\"b\"}");
//! let body = unseal(&text).unwrap();
//! let mut r = Reader::new(&body);
//! let n = r.expect("{")?.key("n")?.uint()?;
//! let tag = r.expect(",")?.key("tag")?.string()?;
//! r.expect("}")?.end()?;
//! assert_eq!((n, tag.as_str()), (7, "a\"b"));
//! # Ok::<(), galois_runtime::json::JsonError>(())
//! ```

use crate::fingerprint::Fnv64;
use std::fmt;

/// Why a document was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// The bytes are not the expected document; the message says where.
    Syntax(String),
    /// The envelope is well formed but the body does not hash to it.
    Checksum {
        /// Checksum stored in the envelope.
        stored: u64,
        /// Checksum of the body bytes actually present.
        actual: u64,
    },
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Syntax(msg) => f.write_str(msg),
            JsonError::Checksum { stored, actual } => write!(
                f,
                "checksum mismatch: stored {stored:016x}, body hashes to {actual:016x}"
            ),
        }
    }
}

impl std::error::Error for JsonError {}

/// Escapes `s` for embedding in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

const CHECKSUM_KEY: &str = ",\"checksum\":\"";

fn body_hash(body: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write_bytes(body.as_bytes());
    h.finish()
}

/// Exactly 16 lowercase hex digits, as `{:016x}` writes them.
fn hex16(s: &str) -> Option<u64> {
    let digits = s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    if s.len() == 16 && digits {
        u64::from_str_radix(s, 16).ok()
    } else {
        None
    }
}

/// Seals an object body (`{…}`) as `{…,"checksum":"%016x"}\n`.
pub fn seal(body: &str) -> String {
    debug_assert!(
        body.starts_with('{') && body.ends_with('}'),
        "not an object"
    );
    format!(
        "{}{CHECKSUM_KEY}{:016x}\"}}\n",
        &body[..body.len() - 1],
        body_hash(body)
    )
}

/// Splits off and verifies the envelope [`seal`] wrote, returning the body
/// it signed. Trailing whitespace after the envelope is ignored.
pub fn unseal(text: &str) -> Result<String, JsonError> {
    let text = text.trim_end();
    let syntax = |msg: &str| JsonError::Syntax(msg.into());
    let at = text
        .rfind(CHECKSUM_KEY)
        .ok_or_else(|| syntax("missing checksum field"))?;
    let stored = text[at + CHECKSUM_KEY.len()..]
        .strip_suffix("\"}")
        .and_then(hex16)
        .ok_or_else(|| syntax("malformed checksum field"))?;
    let body = format!("{}}}", &text[..at]);
    let actual = body_hash(&body);
    if actual != stored {
        return Err(JsonError::Checksum { stored, actual });
    }
    Ok(body)
}

/// A byte-exact cursor over a JSON document.
///
/// Every read consumes exactly the token it names, with no whitespace
/// around it; [`ws`](Self::ws) is the only way past a space. Errors name
/// the byte offset where the document stopped matching.
#[derive(Debug)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Reader { text, pos: 0 }
    }

    /// A syntax error at the current offset.
    pub fn error<T>(&self, what: &str) -> Result<T, JsonError> {
        Err(JsonError::Syntax(format!("{what} at byte {}", self.pos)))
    }

    /// The next byte, without consuming it.
    pub fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Skips JSON whitespace.
    pub fn ws(&mut self) -> &mut Self {
        self.span(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'));
        self
    }

    /// Consumes `token` if the document continues with it.
    pub fn eat(&mut self, token: &str) -> bool {
        let hit = self.text[self.pos..].starts_with(token);
        if hit {
            self.pos += token.len();
        }
        hit
    }

    /// Consumes `token` or fails.
    pub fn expect(&mut self, token: &str) -> Result<&mut Self, JsonError> {
        if self.eat(token) {
            Ok(self)
        } else {
            self.error(&format!("expected `{token}`"))
        }
    }

    /// Consumes the object key `"name":`.
    pub fn key(&mut self, name: &str) -> Result<&mut Self, JsonError> {
        self.expect(&format!("\"{name}\":"))
    }

    /// Consumes the longest run of ASCII bytes matching `f`.
    fn span(&mut self, f: impl Fn(u8) -> bool) -> &'a str {
        let rest = &self.text[self.pos..];
        let len = rest.bytes().position(|b| !f(b)).unwrap_or(rest.len());
        self.pos += len;
        &rest[..len]
    }

    /// Reads a string literal, decoding every JSON escape. Raw control
    /// bytes and surrogate `\u` escapes are refused.
    pub fn string(&mut self) -> Result<String, JsonError> {
        self.expect("\"")?;
        let mut out = String::new();
        loop {
            let rest = &self.text[self.pos..];
            let plain = rest
                .find(|c: char| c == '"' || c == '\\' || c < ' ')
                .unwrap_or(rest.len());
            out.push_str(&rest[..plain]);
            self.pos += plain;
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escaped()?);
                }
                Some(_) => return self.error("raw control byte in string"),
                None => return self.error("unterminated string"),
            }
        }
    }

    /// Decodes the escape after a backslash.
    fn escaped(&mut self) -> Result<char, JsonError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let c = self
                    .text
                    .get(self.pos + 1..self.pos + 5)
                    .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                    .and_then(char::from_u32);
                return match c {
                    Some(c) => {
                        self.pos += 5;
                        Ok(c)
                    }
                    None => self.error("bad \\u escape"),
                };
            }
            Some(_) => return self.error("unknown escape"),
            None => return self.error("unterminated escape"),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Reads an unsigned decimal integer.
    pub fn uint(&mut self) -> Result<u64, JsonError> {
        let digits = self.span(|b| b.is_ascii_digit());
        if digits.is_empty() {
            return self.error("expected integer");
        }
        digits
            .parse()
            .or_else(|_| self.error("integer out of range"))
    }

    /// Reads a decimal number (sign, fraction and exponent allowed).
    pub fn decimal(&mut self) -> Result<f64, JsonError> {
        let number =
            self.span(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'));
        number.parse().or_else(|_| self.error("expected number"))
    }

    /// Reads a quoted 16-digit lowercase hex hash, as `"{:016x}"` writes it.
    pub fn hex(&mut self) -> Result<u64, JsonError> {
        self.expect("\"")?;
        let digits = self.span(|b| b.is_ascii_hexdigit());
        let Some(v) = hex16(digits) else {
            return self.error("expected 16-digit hex hash");
        };
        self.expect("\"")?;
        Ok(v)
    }

    /// Reads `true` or `false`.
    pub fn bool(&mut self) -> Result<bool, JsonError> {
        if self.eat("true") {
            Ok(true)
        } else if self.eat("false") {
            Ok(false)
        } else {
            self.error("expected boolean")
        }
    }

    /// Reads `null` as `None`, or else a value with `value`.
    pub fn nullable<T, E: From<JsonError>>(
        &mut self,
        value: impl FnOnce(&mut Self) -> Result<T, E>,
    ) -> Result<Option<T>, E> {
        if self.eat("null") {
            Ok(None)
        } else {
            value(self).map(Some)
        }
    }

    /// Reads `[item,item,…]`, each element with `item`.
    pub fn list<T, E: From<JsonError>>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        self.expect("[")?;
        let mut out = Vec::new();
        if self.eat("]") {
            return Ok(out);
        }
        loop {
            out.push(item(self)?);
            if !self.eat(",") {
                break;
            }
        }
        self.expect("]")?;
        Ok(out)
    }

    /// Fails unless the whole document has been consumed.
    pub fn end(&self) -> Result<(), JsonError> {
        if self.pos == self.text.len() {
            Ok(())
        } else {
            self.error("trailing bytes")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_round_trips_and_detects_tampering() {
        let sealed = seal("{\"a\":1}");
        assert!(sealed.starts_with("{\"a\":1,\"checksum\":\""));
        assert!(sealed.ends_with("\"}\n"));
        assert_eq!(unseal(&sealed).unwrap(), "{\"a\":1}");
        let flipped = sealed.replacen("\"a\":1", "\"a\":2", 1);
        assert!(matches!(unseal(&flipped), Err(JsonError::Checksum { .. })));
        assert!(matches!(unseal("{\"a\":1}"), Err(JsonError::Syntax(_))));
        let short = sealed.replacen("\":\"", "\":\"0", 1);
        assert!(matches!(unseal(&short), Err(JsonError::Syntax(_))));
    }

    #[test]
    fn reader_is_byte_exact_unless_asked() {
        let mut r = Reader::new("{\"k\": 1}");
        assert!(r.expect("{").unwrap().key("k").unwrap().uint().is_err());
        let mut r = Reader::new("{\"k\": 1 }");
        let v = r
            .expect("{")
            .unwrap()
            .key("k")
            .unwrap()
            .ws()
            .uint()
            .unwrap();
        assert_eq!(v, 1);
        assert!(r.expect("}").is_err());
        assert!(r.ws().expect("}").unwrap().end().is_ok());
    }

    #[test]
    fn scalars_and_lists() {
        let doc = "[\"00000000000000ff\",\"0123456789abcdef\"]null,true,2.5e1,x";
        let mut r = Reader::new(doc);
        assert_eq!(
            r.list(Reader::hex).unwrap(),
            vec![0xff, 0x0123_4567_89ab_cdef]
        );
        assert_eq!(r.nullable(Reader::uint).unwrap(), None);
        assert!(r.expect(",").unwrap().bool().unwrap());
        assert_eq!(r.expect(",").unwrap().decimal().unwrap(), 25.0);
        assert!(r.expect(",").unwrap().end().is_err());
        assert_eq!(
            Reader::new("[]").list(Reader::uint).unwrap(),
            Vec::<u64>::new()
        );
        assert!(Reader::new("\"ABCDEF0123456789\"").hex().is_err());
        assert!(Reader::new("\"fff\"").hex().is_err());
        assert!(Reader::new("99999999999999999999").uint().is_err());
    }

    #[test]
    fn strings_decode_escapes_and_refuse_malformed_ones() {
        let text = format!("\"{}\"", escape("a\"b\\c\nd\u{1}é✓"));
        assert_eq!(Reader::new(&text).string().unwrap(), "a\"b\\c\nd\u{1}é✓");
        assert_eq!(
            Reader::new(r#""\/\b\fA""#).string().unwrap(),
            "/\u{8}\u{c}A"
        );
        for bad in [
            r#""\x""#,
            r#""\"#,
            r#""\u12""#,
            r#""\ud800""#,
            "\"raw\u{1}\"",
            "\"open",
        ] {
            assert!(Reader::new(bad).string().is_err(), "{bad:?}");
        }
    }
}
