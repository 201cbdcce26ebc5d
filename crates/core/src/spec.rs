//! Textual scenario specs: parse JSON or TOML into a [`Scenario`]
//! (and back) without ever panicking.
//!
//! This is the wire format of the serving layer: a daemon accepts a
//! spec document, validates it into a [`Scenario`] through
//! [`scenario_from_json`] / [`scenario_from_toml`], and every failure
//! mode — syntax error, unknown field, wrong type, out-of-range value,
//! inexpressible configuration — surfaces as a typed [`SpecError`].
//! The validation here is deliberately at least as strict as the
//! engine's own config validation, so a spec that parses can always be
//! built and run.
//!
//! Both formats share one document model, [`Value`], produced by two
//! hand-rolled parsers (the workspace vendors dependency *stubs*, so
//! there is no serde_json/toml to lean on). The emitters are exact:
//! floats are printed with Rust's shortest round-trip formatting, so
//! `Scenario → spec text → Scenario` is identity — pinned for every
//! registered experiment by [`presets`] and the spec round-trip tests.
//!
//! # Example
//!
//! ```
//! use dynaquar_core::spec;
//!
//! let scenario = spec::scenario_from_toml(r#"
//!     beta = 0.8
//!     horizon = 60
//!     deployment = "hub"
//!
//!     [topology]
//!     kind = "star"
//!     leaves = 99
//! "#).unwrap();
//! let text = spec::scenario_to_toml(&scenario).unwrap();
//! assert_eq!(spec::scenario_from_toml(&text).unwrap(), scenario);
//! ```

use crate::scenario::{Scenario, TopologySpec};
use crate::strategy::{Deployment, RateLimitParams};
use dynaquar_netsim::config::{ImmunizationConfig, ImmunizationTrigger, QuarantineConfig};
use dynaquar_netsim::strategy::SimStrategy;
use dynaquar_netsim::{ShardSpec, WormBehavior};
use dynaquar_topology::lazy::RoutingKind;
use dynaquar_worms::profiles::SelectorKind;
use std::fmt;

/// Which textual format a parse error came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecFormat {
    /// JSON document.
    Json,
    /// TOML document.
    Toml,
}

impl fmt::Display for SpecFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecFormat::Json => f.write_str("JSON"),
            SpecFormat::Toml => f.write_str("TOML"),
        }
    }
}

/// Everything that can be wrong with a scenario spec. Parsing and
/// validation never panic; every failure is one of these variants.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The document is not syntactically valid JSON/TOML.
    Parse {
        /// Input format.
        format: SpecFormat,
        /// 1-based line of the offending input.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A required field is absent.
    MissingField {
        /// Dotted path of the missing field (e.g. `topology.kind`).
        field: String,
    },
    /// A field the schema does not know (typo guard: unknown keys are
    /// rejected, not ignored).
    UnknownField {
        /// Dotted path of the unknown field.
        field: String,
    },
    /// A field holds a value of the wrong type.
    WrongType {
        /// Dotted path of the field.
        field: String,
        /// What the schema expects there.
        expected: &'static str,
    },
    /// A field holds a well-typed but out-of-range or unknown value.
    InvalidValue {
        /// Dotted path of the field.
        field: String,
        /// Why the value is rejected.
        reason: String,
    },
    /// The configuration cannot be expressed in the spec schema (e.g.
    /// a scenario carrying an injected fault plan).
    Unsupported {
        /// What is not expressible.
        what: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Parse {
                format,
                line,
                message,
            } => write!(f, "{format} parse error at line {line}: {message}"),
            SpecError::MissingField { field } => write!(f, "missing field `{field}`"),
            SpecError::UnknownField { field } => write!(f, "unknown field `{field}`"),
            SpecError::WrongType { field, expected } => {
                write!(f, "field `{field}` must be {expected}")
            }
            SpecError::InvalidValue { field, reason } => {
                write!(f, "invalid value for `{field}`: {reason}")
            }
            SpecError::Unsupported { what } => write!(f, "unsupported: {what}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// The shared document model both parsers produce and both emitters
/// consume. Object entries keep insertion order so emitted documents
/// are deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null` (TOML has no null; it never produces this).
    Null,
    /// Boolean.
    Bool(bool),
    /// Integer (JSON numbers without `.`/exponent, TOML integers).
    Int(i64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object / table, in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// JSON parsing
// ---------------------------------------------------------------------------

/// Nesting guard: a hostile document of `[[[[…` must fail with a typed
/// error, not a stack overflow.
const MAX_DEPTH: usize = 64;

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> JsonParser<'a> {
    fn new(text: &'a str) -> Self {
        JsonParser {
            bytes: text.as_bytes(),
            pos: 0,
            line: 1,
        }
    }

    fn err(&self, message: impl Into<String>) -> SpecError {
        SpecError::Parse {
            format: SpecFormat::Json,
            line: self.line,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            if b == b' ' || b == b'\t' || b == b'\r' || b == b'\n' {
                self.bump();
            } else {
                break;
            }
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), SpecError> {
        match self.bump() {
            Some(b) if b == want => Ok(()),
            Some(b) => Err(self.err(format!(
                "expected `{}`, found `{}`",
                want as char, b as char
            ))),
            None => Err(self.err(format!("expected `{}`, found end of input", want as char))),
        }
    }

    fn parse_document(&mut self) -> Result<Value, SpecError> {
        self.skip_ws();
        let v = self.parse_value(0)?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after the document"));
        }
        Ok(v)
    }

    fn parse_value(&mut self, depth: usize) -> Result<Value, SpecError> {
        if depth > MAX_DEPTH {
            return Err(self.err("document nests too deeply"));
        }
        match self.peek() {
            Some(b'{') => self.parse_object(depth),
            Some(b'[') => self.parse_array(depth),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b't') | Some(b'f') => self.parse_bool(),
            Some(b'n') => {
                self.parse_keyword("null")?;
                Ok(Value::Null)
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            Some(b) => Err(self.err(format!("unexpected character `{}`", b as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_keyword(&mut self, word: &str) -> Result<(), SpecError> {
        for want in word.bytes() {
            match self.bump() {
                Some(b) if b == want => {}
                _ => return Err(self.err(format!("expected keyword `{word}`"))),
            }
        }
        Ok(())
    }

    fn parse_bool(&mut self) -> Result<Value, SpecError> {
        if self.peek() == Some(b't') {
            self.parse_keyword("true")?;
            Ok(Value::Bool(true))
        } else {
            self.parse_keyword("false")?;
            Ok(Value::Bool(false))
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<Value, SpecError> {
        self.expect(b'{')?;
        let mut entries: Vec<(String, Value)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.bump();
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected a string key"));
            }
            let key = self.parse_string()?;
            if entries.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("duplicate key `{key}`")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value(depth + 1)?;
            entries.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Object(entries)),
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<Value, SpecError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.bump();
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Array(items)),
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, SpecError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => out.push(self.parse_unicode_escape()?),
                    _ => return Err(self.err("invalid escape sequence")),
                },
                Some(b) if b < 0x20 => {
                    return Err(self.err("unescaped control character in string"))
                }
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Re-assemble the UTF-8 sequence the byte starts
                    // (the input is a &str, so it is valid UTF-8).
                    let len = if b >= 0xF0 {
                        4
                    } else if b >= 0xE0 {
                        3
                    } else {
                        2
                    };
                    let start = self.pos - 1;
                    for _ in 1..len {
                        self.bump();
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn parse_unicode_escape(&mut self) -> Result<char, SpecError> {
        let first = self.parse_hex4()?;
        if (0xD800..=0xDBFF).contains(&first) {
            // High surrogate: a low surrogate escape must follow.
            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                return Err(self.err("unpaired surrogate escape"));
            }
            let second = self.parse_hex4()?;
            if !(0xDC00..=0xDFFF).contains(&second) {
                return Err(self.err("invalid low surrogate"));
            }
            let code = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
            char::from_u32(code).ok_or_else(|| self.err("invalid surrogate pair"))
        } else {
            char::from_u32(first).ok_or_else(|| self.err("invalid unicode escape"))
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, SpecError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let b = self.bump().ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit in \\u escape"))?;
            code = code * 16 + digit;
        }
        Ok(code)
    }

    fn parse_number(&mut self) -> Result<Value, SpecError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.bump();
        }
        let mut saw_digit = false;
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.bump();
            saw_digit = true;
        }
        if !saw_digit {
            return Err(self.err("malformed number"));
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.bump();
            let mut frac = false;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.bump();
                frac = true;
            }
            if !frac {
                return Err(self.err("malformed number: digits must follow `.`"));
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.bump();
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.bump();
            }
            let mut exp = false;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.bump();
                exp = true;
            }
            if !exp {
                return Err(self.err("malformed number: digits must follow exponent"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.err("number out of range"))
        } else {
            match text.parse::<i64>() {
                Ok(i) => Ok(Value::Int(i)),
                // Integer literals beyond i64 degrade to f64 like most
                // JSON decoders do.
                Err(_) => text
                    .parse::<f64>()
                    .map(Value::Float)
                    .map_err(|_| self.err("number out of range")),
            }
        }
    }
}

/// Parses a JSON document into a [`Value`].
///
/// # Errors
///
/// Returns [`SpecError::Parse`] on any syntax error (with the 1-based
/// line of the offending input).
pub fn parse_json(text: &str) -> Result<Value, SpecError> {
    JsonParser::new(text).parse_document()
}

// ---------------------------------------------------------------------------
// TOML parsing (the subset the spec schema needs: tables, dotted table
// headers, bare keys, strings, integers, floats, booleans, single-line
// arrays, and inline tables)
// ---------------------------------------------------------------------------

struct TomlLine<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> TomlLine<'a> {
    fn err(&self, message: impl Into<String>) -> SpecError {
        SpecError::Parse {
            format: SpecFormat::Toml,
            line: self.line,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_space(&mut self) {
        while matches!(self.peek(), Some(b' ') | Some(b'\t')) {
            self.pos += 1;
        }
    }

    /// True when only whitespace or a comment remains.
    fn at_end(&mut self) -> bool {
        self.skip_space();
        matches!(self.peek(), None | Some(b'#'))
    }

    fn parse_value(&mut self, depth: usize) -> Result<Value, SpecError> {
        if depth > MAX_DEPTH {
            return Err(self.err("value nests too deeply"));
        }
        self.skip_space();
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.parse_basic_string()?)),
            Some(b'\'') => Ok(Value::Str(self.parse_literal_string()?)),
            Some(b'[') => self.parse_array(depth),
            Some(b'{') => self.parse_inline_table(depth),
            Some(b't') | Some(b'f') => self.parse_bool(),
            Some(b) if b == b'-' || b == b'+' || b.is_ascii_digit() => self.parse_number(),
            Some(b) => Err(self.err(format!("unexpected character `{}` in value", b as char))),
            None => Err(self.err("expected a value")),
        }
    }

    fn parse_bool(&mut self) -> Result<Value, SpecError> {
        let word = if self.peek() == Some(b't') { "true" } else { "false" };
        for want in word.bytes() {
            if self.bump() != Some(want) {
                return Err(self.err(format!("expected `{word}`")));
            }
        }
        Ok(Value::Bool(word == "true"))
    }

    fn parse_basic_string(&mut self) -> Result<String, SpecError> {
        self.bump(); // opening quote
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => out.push(self.parse_unicode_escape(4)?),
                    Some(b'U') => out.push(self.parse_unicode_escape(8)?),
                    _ => return Err(self.err("invalid escape sequence")),
                },
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    let len = if b >= 0xF0 {
                        4
                    } else if b >= 0xE0 {
                        3
                    } else {
                        2
                    };
                    let start = self.pos - 1;
                    for _ in 1..len {
                        self.bump();
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn parse_unicode_escape(&mut self, digits: usize) -> Result<char, SpecError> {
        let mut code = 0u32;
        for _ in 0..digits {
            let b = self.bump().ok_or_else(|| self.err("truncated unicode escape"))?;
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit in unicode escape"))?;
            code = code * 16 + digit;
        }
        char::from_u32(code).ok_or_else(|| self.err("invalid unicode scalar"))
    }

    fn parse_literal_string(&mut self) -> Result<String, SpecError> {
        self.bump(); // opening quote
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated literal string")),
                Some(b'\'') => return Ok(out),
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    let len = if b >= 0xF0 {
                        4
                    } else if b >= 0xE0 {
                        3
                    } else {
                        2
                    };
                    let start = self.pos - 1;
                    for _ in 1..len {
                        self.bump();
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<Value, SpecError> {
        self.bump(); // `[`
        let mut items = Vec::new();
        loop {
            self.skip_space();
            if self.peek() == Some(b']') {
                self.bump();
                return Ok(Value::Array(items));
            }
            items.push(self.parse_value(depth + 1)?);
            self.skip_space();
            match self.peek() {
                Some(b',') => {
                    self.bump();
                }
                Some(b']') => {}
                _ => return Err(self.err("expected `,` or `]` in array (arrays must be single-line)")),
            }
        }
    }

    fn parse_inline_table(&mut self, depth: usize) -> Result<Value, SpecError> {
        self.bump(); // `{`
        let mut entries: Vec<(String, Value)> = Vec::new();
        self.skip_space();
        if self.peek() == Some(b'}') {
            self.bump();
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_space();
            let key = self.parse_key()?;
            if entries.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("duplicate key `{key}`")));
            }
            self.skip_space();
            if self.bump() != Some(b'=') {
                return Err(self.err("expected `=` in inline table"));
            }
            let value = self.parse_value(depth + 1)?;
            entries.push((key, value));
            self.skip_space();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Object(entries)),
                _ => return Err(self.err("expected `,` or `}` in inline table")),
            }
        }
    }

    fn parse_key(&mut self) -> Result<String, SpecError> {
        self.skip_space();
        match self.peek() {
            Some(b'"') => self.parse_basic_string(),
            Some(b'\'') => self.parse_literal_string(),
            Some(b) if b.is_ascii_alphanumeric() || b == b'_' || b == b'-' => {
                let start = self.pos;
                while matches!(self.peek(), Some(b) if b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
                {
                    self.pos += 1;
                }
                Ok(std::str::from_utf8(&self.bytes[start..self.pos])
                    .expect("bare keys are ascii")
                    .to_string())
            }
            _ => Err(self.err("expected a key")),
        }
    }

    fn parse_number(&mut self) -> Result<Value, SpecError> {
        let start = self.pos;
        if matches!(self.peek(), Some(b'+') | Some(b'-')) {
            self.bump();
        }
        let mut saw_digit = false;
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {
                    saw_digit = true;
                    self.bump();
                }
                b'_' => {
                    self.bump();
                }
                b'.' | b'e' | b'E' => {
                    is_float = true;
                    self.bump();
                }
                b'+' | b'-' if is_float => {
                    // Exponent sign; only legal right after e/E, which
                    // the f64 parse below enforces.
                    self.bump();
                }
                _ => break,
            }
        }
        if !saw_digit {
            return Err(self.err("malformed number"));
        }
        let text: String = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("ascii number")
            .chars()
            .filter(|&c| c != '_')
            .collect();
        let text = text.strip_prefix('+').unwrap_or(&text);
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.err("malformed float"))
        } else {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| self.err("integer out of range"))
        }
    }
}

/// Inserts `key = value` into the table addressed by `path`, creating
/// intermediate tables on demand.
fn toml_insert(
    root: &mut Vec<(String, Value)>,
    path: &[String],
    key: String,
    value: Value,
    line: usize,
) -> Result<(), SpecError> {
    let mut table = root;
    for seg in path {
        if !table.iter().any(|(k, _)| k == seg) {
            table.push((seg.clone(), Value::Object(Vec::new())));
        }
        let slot = table
            .iter_mut()
            .find(|(k, _)| k == seg)
            .map(|(_, v)| v)
            .expect("just ensured present");
        match slot {
            Value::Object(entries) => table = entries,
            _ => {
                return Err(SpecError::Parse {
                    format: SpecFormat::Toml,
                    line,
                    message: format!("`{seg}` is not a table"),
                })
            }
        }
    }
    if table.iter().any(|(k, _)| *k == key) {
        return Err(SpecError::Parse {
            format: SpecFormat::Toml,
            line,
            message: format!("duplicate key `{key}`"),
        });
    }
    table.push((key, value));
    Ok(())
}

/// Parses a TOML document into a [`Value`] (always an object at the
/// top level).
///
/// The supported subset covers the spec schema: `[table]` and dotted
/// `[a.b]` headers, bare/quoted keys, basic and literal strings,
/// integers, floats, booleans, single-line arrays, and inline tables.
///
/// # Errors
///
/// Returns [`SpecError::Parse`] on any syntax error (with the 1-based
/// line of the offending input).
pub fn parse_toml(text: &str) -> Result<Value, SpecError> {
    let mut root: Vec<(String, Value)> = Vec::new();
    let mut current_path: Vec<String> = Vec::new();
    let mut seen_headers: Vec<Vec<String>> = Vec::new();
    for (idx, raw_line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let mut cursor = TomlLine {
            bytes: raw_line.as_bytes(),
            pos: 0,
            line: line_no,
        };
        if cursor.at_end() {
            continue;
        }
        if cursor.peek() == Some(b'[') {
            cursor.bump();
            let mut path = vec![cursor.parse_key()?];
            cursor.skip_space();
            while cursor.peek() == Some(b'.') {
                cursor.bump();
                path.push(cursor.parse_key()?);
                cursor.skip_space();
            }
            if cursor.bump() != Some(b']') {
                return Err(cursor.err("expected `]` closing the table header"));
            }
            if !cursor.at_end() {
                return Err(cursor.err("unexpected characters after table header"));
            }
            if seen_headers.contains(&path) {
                return Err(cursor.err(format!("table `[{}]` defined twice", path.join("."))));
            }
            seen_headers.push(path.clone());
            // Materialize the (possibly empty) table now so `[a]` with
            // no keys still round-trips as an empty object.
            toml_ensure_table(&mut root, &path, line_no)?;
            current_path = path;
            continue;
        }
        let key = cursor.parse_key()?;
        cursor.skip_space();
        if cursor.bump() != Some(b'=') {
            return Err(cursor.err("expected `=` after key"));
        }
        let value = cursor.parse_value(0)?;
        if !cursor.at_end() {
            return Err(cursor.err("unexpected characters after value"));
        }
        toml_insert(&mut root, &current_path, key, value, line_no)?;
    }
    Ok(Value::Object(root))
}

fn toml_ensure_table(
    root: &mut Vec<(String, Value)>,
    path: &[String],
    line: usize,
) -> Result<(), SpecError> {
    let mut table = root;
    for seg in path {
        if !table.iter().any(|(k, _)| k == seg) {
            table.push((seg.clone(), Value::Object(Vec::new())));
        }
        let slot = table
            .iter_mut()
            .find(|(k, _)| k == seg)
            .map(|(_, v)| v)
            .expect("just ensured present");
        match slot {
            Value::Object(entries) => table = entries,
            _ => {
                return Err(SpecError::Parse {
                    format: SpecFormat::Toml,
                    line,
                    message: format!("`{seg}` is not a table"),
                })
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Emission
// ---------------------------------------------------------------------------

fn escape_json(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Shortest-round-trip float formatting: `parse(emit(f)) == f` bit for
/// bit, which is what makes `Scenario → spec → Scenario` an identity.
fn format_float(f: f64) -> String {
    let text = format!("{f:?}");
    // `{:?}` prints integral floats as `2.0` and small/large ones in
    // exponent form — both are valid JSON and TOML floats.
    text
}

fn emit_json_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => out.push_str(&format_float(*f)),
        Value::Str(s) => escape_json(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                emit_json_value(item, out);
            }
            out.push(']');
        }
        Value::Object(entries) => {
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape_json(k, out);
                out.push(':');
                emit_json_value(val, out);
            }
            out.push('}');
        }
    }
}

/// Emits a [`Value`] as a single-line JSON document.
pub fn emit_json(v: &Value) -> String {
    let mut out = String::new();
    emit_json_value(v, &mut out);
    out
}

fn toml_key(k: &str) -> String {
    let bare = !k.is_empty()
        && k.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-');
    if bare {
        k.to_string()
    } else {
        let mut quoted = String::new();
        escape_json(k, &mut quoted); // TOML basic strings share JSON's escapes
        quoted
    }
}

fn emit_toml_inline(v: &Value, out: &mut String) {
    match v {
        // TOML has no null; encode it as the string "none" (the schema
        // reads both spellings for optional fields).
        Value::Null => out.push_str("\"none\""),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => out.push_str(&format_float(*f)),
        Value::Str(s) => escape_json(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                emit_toml_inline(item, out);
            }
            out.push(']');
        }
        Value::Object(entries) => {
            out.push_str("{ ");
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&toml_key(k));
                out.push_str(" = ");
                emit_toml_inline(val, out);
            }
            out.push_str(" }");
        }
    }
}

/// Emits a [`Value`] as a TOML document. Top-level objects become the
/// root table, with object-valued entries rendered as `[section]`
/// tables (scalars first, as TOML requires); any other top-level value
/// is rendered under the key `value`.
pub fn emit_toml(v: &Value) -> String {
    let entries: &[(String, Value)] = match v {
        Value::Object(entries) => entries,
        _ => {
            let mut out = String::from("value = ");
            emit_toml_inline(v, &mut out);
            out.push('\n');
            return out;
        }
    };
    let mut out = String::new();
    for (k, val) in entries {
        if !matches!(val, Value::Object(_)) {
            out.push_str(&toml_key(k));
            out.push_str(" = ");
            emit_toml_inline(val, &mut out);
            out.push('\n');
        }
    }
    for (k, val) in entries {
        if let Value::Object(section) = val {
            out.push('\n');
            out.push('[');
            out.push_str(&toml_key(k));
            out.push_str("]\n");
            for (k2, v2) in section {
                out.push_str(&toml_key(k2));
                out.push_str(" = ");
                emit_toml_inline(v2, &mut out);
                out.push('\n');
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Value → Scenario
// ---------------------------------------------------------------------------

type Entries = [(String, Value)];

fn field_path(ctx: &str, key: &str) -> String {
    if ctx.is_empty() {
        key.to_string()
    } else {
        format!("{ctx}.{key}")
    }
}

fn as_object<'a>(v: &'a Value, field: &str) -> Result<&'a Entries, SpecError> {
    match v {
        Value::Object(entries) => Ok(entries),
        _ => Err(SpecError::WrongType {
            field: field.to_string(),
            expected: "a table",
        }),
    }
}

fn get<'a>(entries: &'a Entries, key: &str) -> Option<&'a Value> {
    entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn require<'a>(entries: &'a Entries, ctx: &str, key: &str) -> Result<&'a Value, SpecError> {
    get(entries, key).ok_or_else(|| SpecError::MissingField {
        field: field_path(ctx, key),
    })
}

fn check_known(entries: &Entries, ctx: &str, allowed: &[&str]) -> Result<(), SpecError> {
    for (k, _) in entries {
        if !allowed.contains(&k.as_str()) {
            return Err(SpecError::UnknownField {
                field: field_path(ctx, k),
            });
        }
    }
    Ok(())
}

fn as_f64(v: &Value, field: &str) -> Result<f64, SpecError> {
    match v {
        Value::Float(f) => Ok(*f),
        Value::Int(i) => Ok(*i as f64),
        _ => Err(SpecError::WrongType {
            field: field.to_string(),
            expected: "a number",
        }),
    }
}

fn as_u64(v: &Value, field: &str) -> Result<u64, SpecError> {
    match v {
        Value::Int(i) if *i >= 0 => Ok(*i as u64),
        Value::Int(_) => Err(SpecError::InvalidValue {
            field: field.to_string(),
            reason: "must not be negative".to_string(),
        }),
        _ => Err(SpecError::WrongType {
            field: field.to_string(),
            expected: "an integer",
        }),
    }
}

fn as_positive_u64(v: &Value, field: &str) -> Result<u64, SpecError> {
    let n = as_u64(v, field)?;
    if n == 0 {
        return Err(SpecError::InvalidValue {
            field: field.to_string(),
            reason: "must be at least 1".to_string(),
        });
    }
    Ok(n)
}

fn as_positive_usize(v: &Value, field: &str) -> Result<usize, SpecError> {
    let n = as_positive_u64(v, field)?;
    usize::try_from(n).map_err(|_| SpecError::InvalidValue {
        field: field.to_string(),
        reason: "exceeds this platform's usize".to_string(),
    })
}

fn as_str<'a>(v: &'a Value, field: &str) -> Result<&'a str, SpecError> {
    v.as_str().ok_or_else(|| SpecError::WrongType {
        field: field.to_string(),
        expected: "a string",
    })
}

fn as_fraction(v: &Value, field: &str) -> Result<f64, SpecError> {
    let f = as_f64(v, field)?;
    if !(0.0..=1.0).contains(&f) {
        return Err(SpecError::InvalidValue {
            field: field.to_string(),
            reason: "must be in [0, 1]".to_string(),
        });
    }
    Ok(f)
}

fn as_positive_f64(v: &Value, field: &str) -> Result<f64, SpecError> {
    let f = as_f64(v, field)?;
    if !(f.is_finite() && f > 0.0) {
        return Err(SpecError::InvalidValue {
            field: field.to_string(),
            reason: "must be a positive finite number".to_string(),
        });
    }
    Ok(f)
}

/// `None` for JSON `null` / the string `"none"`, `Some` otherwise.
fn optional<'a>(v: &'a Value) -> Option<&'a Value> {
    match v {
        Value::Null => None,
        Value::Str(s) if s == "none" => None,
        _ => Some(v),
    }
}

fn topology_from(v: &Value) -> Result<TopologySpec, SpecError> {
    let entries = as_object(v, "topology")?;
    let kind = as_str(require(entries, "topology", "kind")?, "topology.kind")?;
    match kind {
        "star" => {
            check_known(entries, "topology", &["kind", "leaves"])?;
            let leaves =
                as_positive_usize(require(entries, "topology", "leaves")?, "topology.leaves")?;
            Ok(TopologySpec::Star { leaves })
        }
        "power_law" => {
            check_known(entries, "topology", &["kind", "nodes", "edges_per_node", "seed"])?;
            let nodes =
                as_positive_usize(require(entries, "topology", "nodes")?, "topology.nodes")?;
            let edges_per_node = as_positive_usize(
                require(entries, "topology", "edges_per_node")?,
                "topology.edges_per_node",
            )?;
            if nodes <= edges_per_node {
                return Err(SpecError::InvalidValue {
                    field: "topology.nodes".to_string(),
                    reason: "need more nodes than edges-per-node".to_string(),
                });
            }
            let seed = as_u64(require(entries, "topology", "seed")?, "topology.seed")?;
            Ok(TopologySpec::PowerLaw {
                nodes,
                edges_per_node,
                seed,
            })
        }
        "subnets" => {
            check_known(
                entries,
                "topology",
                &["kind", "backbone", "subnets", "hosts_per_subnet"],
            )?;
            Ok(TopologySpec::Subnets {
                backbone: as_positive_usize(
                    require(entries, "topology", "backbone")?,
                    "topology.backbone",
                )?,
                subnets: as_positive_usize(
                    require(entries, "topology", "subnets")?,
                    "topology.subnets",
                )?,
                hosts_per_subnet: as_positive_usize(
                    require(entries, "topology", "hosts_per_subnet")?,
                    "topology.hosts_per_subnet",
                )?,
            })
        }
        other => Err(SpecError::InvalidValue {
            field: "topology.kind".to_string(),
            reason: format!("unknown topology {other:?} (expected star, power_law, or subnets)"),
        }),
    }
}

fn selector_from(v: &Value) -> Result<SelectorKind, SpecError> {
    match v {
        Value::Str(s) => match s.as_str() {
            "random" => Ok(SelectorKind::Random),
            "sequential" => Ok(SelectorKind::Sequential),
            other => Err(SpecError::InvalidValue {
                field: "worm.selector".to_string(),
                reason: format!(
                    "unknown selector {other:?} (expected random, sequential, \
                     {{ local_preferential = bias }}, or {{ permutation = key }})"
                ),
            }),
        },
        Value::Object(entries) => {
            check_known(entries, "worm.selector", &["local_preferential", "permutation"])?;
            match (get(entries, "local_preferential"), get(entries, "permutation")) {
                (Some(bias), None) => Ok(SelectorKind::LocalPreferential {
                    local_bias: as_fraction(bias, "worm.selector.local_preferential")?,
                }),
                (None, Some(key)) => Ok(SelectorKind::Permutation {
                    key: as_u64(key, "worm.selector.permutation")?,
                }),
                _ => Err(SpecError::InvalidValue {
                    field: "worm.selector".to_string(),
                    reason: "exactly one selector variant must be given".to_string(),
                }),
            }
        }
        _ => Err(SpecError::WrongType {
            field: "worm.selector".to_string(),
            expected: "a string or a table",
        }),
    }
}

fn worm_from(v: &Value) -> Result<WormBehavior, SpecError> {
    let entries = as_object(v, "worm")?;
    check_known(entries, "worm", &["selector", "scans_per_tick", "self_patch_after"])?;
    let mut behavior = WormBehavior::random();
    if let Some(sel) = get(entries, "selector") {
        behavior.selector = selector_from(sel)?;
    }
    if let Some(scans) = get(entries, "scans_per_tick") {
        let n = as_positive_u64(scans, "worm.scans_per_tick")?;
        behavior.scans_per_tick = u32::try_from(n).map_err(|_| SpecError::InvalidValue {
            field: "worm.scans_per_tick".to_string(),
            reason: "exceeds u32".to_string(),
        })?;
    }
    if let Some(patch) = get(entries, "self_patch_after").and_then(optional) {
        behavior.self_patch_after = Some(as_positive_u64(patch, "worm.self_patch_after")?);
    }
    Ok(behavior)
}

fn deployment_from(v: &Value) -> Result<Deployment, SpecError> {
    match v {
        Value::Str(s) => match s.as_str() {
            "none" => Ok(Deployment::None),
            "edge_routers" => Ok(Deployment::EdgeRouters),
            "backbone" => Ok(Deployment::Backbone),
            "hub" => Ok(Deployment::Hub),
            other => Err(SpecError::InvalidValue {
                field: "deployment".to_string(),
                reason: format!(
                    "unknown deployment {other:?} (expected none, edge_routers, backbone, \
                     hub, or {{ hosts = fraction }})"
                ),
            }),
        },
        Value::Object(entries) => {
            check_known(entries, "deployment", &["hosts"])?;
            let fraction = as_fraction(
                require(entries, "deployment", "hosts")?,
                "deployment.hosts",
            )?;
            Ok(Deployment::Hosts { fraction })
        }
        _ => Err(SpecError::WrongType {
            field: "deployment".to_string(),
            expected: "a string or a table",
        }),
    }
}

fn params_from(v: &Value) -> Result<RateLimitParams, SpecError> {
    let entries = as_object(v, "params")?;
    check_known(
        entries,
        "params",
        &[
            "link_base_cap",
            "hub_forward_cap",
            "backbone_node_cap",
            "host_window_ticks",
            "host_max_new_targets",
            "host_release_period_ticks",
        ],
    )?;
    let mut params = RateLimitParams::default();
    if let Some(cap) = get(entries, "link_base_cap") {
        params.link_base_cap = as_positive_f64(cap, "params.link_base_cap")?;
    }
    if let Some(cap) = get(entries, "hub_forward_cap") {
        params.hub_forward_cap = as_positive_f64(cap, "params.hub_forward_cap")?;
    }
    if let Some(cap) = get(entries, "backbone_node_cap") {
        params.backbone_node_cap = match optional(cap) {
            None => None,
            Some(c) => Some(as_positive_f64(c, "params.backbone_node_cap")?),
        };
    }
    if let Some(window) = get(entries, "host_window_ticks") {
        params.host_window_ticks = as_positive_u64(window, "params.host_window_ticks")?;
    }
    if let Some(max) = get(entries, "host_max_new_targets") {
        params.host_max_new_targets =
            as_positive_usize(max, "params.host_max_new_targets")?;
    }
    if let Some(release) = get(entries, "host_release_period_ticks") {
        params.host_release_period_ticks = match optional(release) {
            None => None,
            Some(r) => Some(as_positive_u64(r, "params.host_release_period_ticks")?),
        };
    }
    Ok(params)
}

fn immunization_from(v: &Value) -> Result<ImmunizationConfig, SpecError> {
    let entries = as_object(v, "immunization")?;
    check_known(entries, "immunization", &["at_tick", "at_infected_fraction", "mu"])?;
    let trigger = match (get(entries, "at_tick"), get(entries, "at_infected_fraction")) {
        (Some(t), None) => ImmunizationTrigger::AtTick(as_u64(t, "immunization.at_tick")?),
        (None, Some(f)) => ImmunizationTrigger::AtInfectedFraction(as_fraction(
            f,
            "immunization.at_infected_fraction",
        )?),
        _ => {
            return Err(SpecError::InvalidValue {
                field: "immunization".to_string(),
                reason: "exactly one of at_tick / at_infected_fraction must be given"
                    .to_string(),
            })
        }
    };
    let mu = as_fraction(require(entries, "immunization", "mu")?, "immunization.mu")?;
    Ok(ImmunizationConfig { trigger, mu })
}

fn quarantine_from(v: &Value) -> Result<QuarantineConfig, SpecError> {
    let entries = as_object(v, "quarantine")?;
    check_known(entries, "quarantine", &["queue_threshold"])?;
    Ok(QuarantineConfig {
        queue_threshold: as_positive_usize(
            require(entries, "quarantine", "queue_threshold")?,
            "quarantine.queue_threshold",
        )?,
    })
}

fn routing_from(v: &Value) -> Result<RoutingKind, SpecError> {
    if let Value::Object(_) = v {
        // A table is the lazy backend's removed `{ lazy = N }`
        // capacity form: point at the string form instead of a bare
        // type error.
        return Err(SpecError::InvalidValue {
            field: "routing".to_string(),
            reason: "the lazy backend takes no options; write routing = \"lazy\"".to_string(),
        });
    }
    match as_str(v, "routing")? {
        "auto" => Ok(RoutingKind::Auto),
        "dense" => Ok(RoutingKind::Dense),
        "lazy" => Ok(RoutingKind::Lazy),
        "hier" => Ok(RoutingKind::Hier),
        other => Err(SpecError::InvalidValue {
            field: "routing".to_string(),
            reason: format!("unknown routing {other:?} (expected auto, dense, lazy, or hier)"),
        }),
    }
}

fn strategy_from(v: &Value) -> Result<SimStrategy, SpecError> {
    match as_str(v, "strategy")? {
        "auto" => Ok(SimStrategy::Auto),
        "tick" => Ok(SimStrategy::Tick),
        "event" => Ok(SimStrategy::Event),
        other => Err(SpecError::InvalidValue {
            field: "strategy".to_string(),
            reason: format!("unknown strategy {other:?} (expected auto, tick, or event)"),
        }),
    }
}

fn shards_from(v: &Value) -> Result<ShardSpec, SpecError> {
    match v {
        Value::Str(s) if s == "auto" => Ok(ShardSpec::Auto),
        Value::Int(_) => {
            let n = as_positive_u64(v, "shards")?;
            let n = u32::try_from(n).map_err(|_| SpecError::InvalidValue {
                field: "shards".to_string(),
                reason: "exceeds u32".to_string(),
            })?;
            Ok(ShardSpec::Fixed(n))
        }
        _ => Err(SpecError::WrongType {
            field: "shards".to_string(),
            expected: "\"auto\" or a positive integer",
        }),
    }
}

/// Builds a [`Scenario`] from a parsed spec document.
///
/// # Errors
///
/// Returns the [`SpecError`] variant describing the first schema
/// violation; a returned scenario is guaranteed to build and run
/// without panicking (spec validation is a superset of the engine's
/// config validation).
pub fn scenario_from_value(root: &Value) -> Result<Scenario, SpecError> {
    let entries = as_object(root, "spec")?;
    check_known(
        entries,
        "",
        &[
            "topology",
            "worm",
            "beta",
            "horizon",
            "initial_infected",
            "deployment",
            "params",
            "immunization",
            "quarantine",
            "runs",
            "seed",
            "parallelism",
            "routing",
            "strategy",
            "shards",
            "checkpoint",
        ],
    )?;
    let topology = topology_from(require(entries, "", "topology")?)?;
    let mut scenario = Scenario::new(topology);
    if let Some(v) = get(entries, "worm") {
        scenario = scenario.behavior(worm_from(v)?);
    }
    if let Some(v) = get(entries, "beta") {
        let beta = as_f64(v, "beta")?;
        if !(beta > 0.0 && beta <= 1.0) {
            return Err(SpecError::InvalidValue {
                field: "beta".to_string(),
                reason: "must be in (0, 1]".to_string(),
            });
        }
        scenario = scenario.beta(beta);
    }
    if let Some(v) = get(entries, "horizon") {
        scenario = scenario.horizon(as_positive_u64(v, "horizon")?);
    }
    if let Some(v) = get(entries, "initial_infected") {
        scenario = scenario.initial_infected(as_positive_usize(v, "initial_infected")?);
    }
    if let Some(v) = get(entries, "deployment") {
        scenario = scenario.deployment(deployment_from(v)?);
    }
    if let Some(v) = get(entries, "params") {
        scenario = scenario.params(params_from(v)?);
    }
    if let Some(v) = get(entries, "immunization").and_then(optional) {
        scenario = scenario.immunization(immunization_from(v)?);
    }
    if let Some(v) = get(entries, "quarantine").and_then(optional) {
        scenario = scenario.quarantine(quarantine_from(v)?);
    }
    if let Some(v) = get(entries, "runs") {
        scenario = scenario.runs(as_positive_usize(v, "runs")?);
    }
    if let Some(v) = get(entries, "seed") {
        scenario = scenario.seed(as_u64(v, "seed")?);
    }
    if let Some(v) = get(entries, "parallelism").and_then(optional) {
        scenario = scenario.parallelism(as_positive_usize(v, "parallelism")?);
    }
    if let Some(v) = get(entries, "routing") {
        scenario = scenario.routing(routing_from(v)?);
    }
    if let Some(v) = get(entries, "strategy") {
        scenario = scenario.strategy(strategy_from(v)?);
    }
    if let Some(v) = get(entries, "shards") {
        scenario = scenario.shards(shards_from(v)?);
    }
    if let Some(v) = get(entries, "checkpoint").and_then(optional) {
        let cp = as_object(v, "checkpoint")?;
        check_known(cp, "checkpoint", &["every_ticks", "directory"])?;
        let every = as_positive_u64(
            require(cp, "checkpoint", "every_ticks")?,
            "checkpoint.every_ticks",
        )?;
        let directory = as_str(
            require(cp, "checkpoint", "directory")?,
            "checkpoint.directory",
        )?;
        if directory.is_empty() {
            return Err(SpecError::InvalidValue {
                field: "checkpoint.directory".to_string(),
                reason: "must not be empty".to_string(),
            });
        }
        scenario = scenario.checkpoint_every(every, directory);
    }
    Ok(scenario)
}

/// Parses a JSON scenario spec.
///
/// # Errors
///
/// Returns [`SpecError::Parse`] on malformed JSON and the schema's
/// typed errors on a well-formed document that is not a valid spec.
pub fn scenario_from_json(text: &str) -> Result<Scenario, SpecError> {
    scenario_from_value(&parse_json(text)?)
}

/// Parses a TOML scenario spec.
///
/// # Errors
///
/// Returns [`SpecError::Parse`] on malformed TOML and the schema's
/// typed errors on a well-formed document that is not a valid spec.
pub fn scenario_from_toml(text: &str) -> Result<Scenario, SpecError> {
    scenario_from_value(&parse_toml(text)?)
}

// ---------------------------------------------------------------------------
// Scenario → Value
// ---------------------------------------------------------------------------

fn int_from_u64(n: u64, field: &str) -> Result<Value, SpecError> {
    i64::try_from(n).map(Value::Int).map_err(|_| SpecError::Unsupported {
        what: format!("`{field}` value {n} exceeds the spec's integer range"),
    })
}

fn int_from_usize(n: usize, field: &str) -> Result<Value, SpecError> {
    int_from_u64(n as u64, field)
}

fn topology_to_value(t: &TopologySpec) -> Result<Value, SpecError> {
    Ok(Value::Object(match *t {
        TopologySpec::Star { leaves } => vec![
            ("kind".to_string(), Value::Str("star".to_string())),
            ("leaves".to_string(), int_from_usize(leaves, "topology.leaves")?),
        ],
        TopologySpec::PowerLaw {
            nodes,
            edges_per_node,
            seed,
        } => vec![
            ("kind".to_string(), Value::Str("power_law".to_string())),
            ("nodes".to_string(), int_from_usize(nodes, "topology.nodes")?),
            (
                "edges_per_node".to_string(),
                int_from_usize(edges_per_node, "topology.edges_per_node")?,
            ),
            ("seed".to_string(), int_from_u64(seed, "topology.seed")?),
        ],
        TopologySpec::Subnets {
            backbone,
            subnets,
            hosts_per_subnet,
        } => vec![
            ("kind".to_string(), Value::Str("subnets".to_string())),
            ("backbone".to_string(), int_from_usize(backbone, "topology.backbone")?),
            ("subnets".to_string(), int_from_usize(subnets, "topology.subnets")?),
            (
                "hosts_per_subnet".to_string(),
                int_from_usize(hosts_per_subnet, "topology.hosts_per_subnet")?,
            ),
        ],
    }))
}

fn worm_to_value(b: &WormBehavior) -> Result<Value, SpecError> {
    let selector = match b.selector {
        SelectorKind::Random => Value::Str("random".to_string()),
        SelectorKind::Sequential => Value::Str("sequential".to_string()),
        SelectorKind::LocalPreferential { local_bias } => Value::Object(vec![(
            "local_preferential".to_string(),
            Value::Float(local_bias),
        )]),
        SelectorKind::Permutation { key } => Value::Object(vec![(
            "permutation".to_string(),
            int_from_u64(key, "worm.selector.permutation")?,
        )]),
    };
    let mut entries = vec![
        ("selector".to_string(), selector),
        (
            "scans_per_tick".to_string(),
            Value::Int(i64::from(b.scans_per_tick)),
        ),
    ];
    if let Some(patch) = b.self_patch_after {
        entries.push((
            "self_patch_after".to_string(),
            int_from_u64(patch, "worm.self_patch_after")?,
        ));
    }
    Ok(Value::Object(entries))
}

fn deployment_to_value(d: &Deployment) -> Value {
    match d {
        Deployment::None => Value::Str("none".to_string()),
        Deployment::EdgeRouters => Value::Str("edge_routers".to_string()),
        Deployment::Backbone => Value::Str("backbone".to_string()),
        Deployment::Hub => Value::Str("hub".to_string()),
        Deployment::Hosts { fraction } => {
            Value::Object(vec![("hosts".to_string(), Value::Float(*fraction))])
        }
    }
}

fn params_to_value(p: &RateLimitParams) -> Result<Value, SpecError> {
    let mut entries = vec![
        ("link_base_cap".to_string(), Value::Float(p.link_base_cap)),
        ("hub_forward_cap".to_string(), Value::Float(p.hub_forward_cap)),
        (
            "backbone_node_cap".to_string(),
            match p.backbone_node_cap {
                Some(cap) => Value::Float(cap),
                None => Value::Str("none".to_string()),
            },
        ),
        (
            "host_window_ticks".to_string(),
            int_from_u64(p.host_window_ticks, "params.host_window_ticks")?,
        ),
        (
            "host_max_new_targets".to_string(),
            int_from_usize(p.host_max_new_targets, "params.host_max_new_targets")?,
        ),
    ];
    if let Some(release) = p.host_release_period_ticks {
        entries.push((
            "host_release_period_ticks".to_string(),
            int_from_u64(release, "params.host_release_period_ticks")?,
        ));
    }
    Ok(Value::Object(entries))
}

fn routing_to_value(r: &RoutingKind) -> Value {
    let name = match r {
        RoutingKind::Auto => "auto",
        RoutingKind::Dense => "dense",
        RoutingKind::Lazy => "lazy",
        RoutingKind::Hier => "hier",
    };
    Value::Str(name.to_string())
}

/// Renders a [`Scenario`] as a spec document.
///
/// # Errors
///
/// Returns [`SpecError::Unsupported`] for configurations the schema
/// cannot express: injected fault plans, and integer values beyond the
/// spec's `i64` range.
pub fn scenario_to_value(s: &Scenario) -> Result<Value, SpecError> {
    if !s.faults.is_none() {
        return Err(SpecError::Unsupported {
            what: "fault plans are not expressible in scenario specs".to_string(),
        });
    }
    let mut entries = vec![
        ("topology".to_string(), topology_to_value(&s.topology)?),
        ("worm".to_string(), worm_to_value(&s.behavior)?),
        ("beta".to_string(), Value::Float(s.beta)),
        ("horizon".to_string(), int_from_u64(s.horizon, "horizon")?),
        (
            "initial_infected".to_string(),
            int_from_usize(s.initial_infected, "initial_infected")?,
        ),
        ("deployment".to_string(), deployment_to_value(&s.deployment)),
        ("params".to_string(), params_to_value(&s.params)?),
    ];
    if let Some(imm) = s.immunization {
        let mut imm_entries = Vec::new();
        match imm.trigger {
            ImmunizationTrigger::AtTick(t) => {
                imm_entries.push(("at_tick".to_string(), int_from_u64(t, "immunization.at_tick")?));
            }
            ImmunizationTrigger::AtInfectedFraction(f) => {
                imm_entries.push(("at_infected_fraction".to_string(), Value::Float(f)));
            }
        }
        imm_entries.push(("mu".to_string(), Value::Float(imm.mu)));
        entries.push(("immunization".to_string(), Value::Object(imm_entries)));
    }
    if let Some(q) = s.quarantine {
        entries.push((
            "quarantine".to_string(),
            Value::Object(vec![(
                "queue_threshold".to_string(),
                int_from_usize(q.queue_threshold, "quarantine.queue_threshold")?,
            )]),
        ));
    }
    entries.push(("runs".to_string(), int_from_usize(s.runs, "runs")?));
    entries.push(("seed".to_string(), int_from_u64(s.seed, "seed")?));
    if let Some(threads) = s.parallelism {
        entries.push(("parallelism".to_string(), int_from_usize(threads, "parallelism")?));
    }
    entries.push(("routing".to_string(), routing_to_value(&s.routing)));
    entries.push((
        "strategy".to_string(),
        Value::Str(
            match s.strategy {
                SimStrategy::Auto => "auto",
                SimStrategy::Tick => "tick",
                SimStrategy::Event => "event",
            }
            .to_string(),
        ),
    ));
    entries.push((
        "shards".to_string(),
        match s.shards {
            ShardSpec::Auto => Value::Str("auto".to_string()),
            ShardSpec::Fixed(n) => Value::Int(i64::from(n)),
        },
    ));
    if let Some(cp) = &s.checkpoint {
        let directory = cp.directory.to_str().ok_or_else(|| SpecError::Unsupported {
            what: "checkpoint directory is not valid UTF-8".to_string(),
        })?;
        entries.push((
            "checkpoint".to_string(),
            Value::Object(vec![
                (
                    "every_ticks".to_string(),
                    int_from_u64(cp.every_ticks, "checkpoint.every_ticks")?,
                ),
                ("directory".to_string(), Value::Str(directory.to_string())),
            ]),
        ));
    }
    Ok(Value::Object(entries))
}

/// Renders a [`Scenario`] as a single-line JSON spec.
///
/// # Errors
///
/// See [`scenario_to_value`].
pub fn scenario_to_json(s: &Scenario) -> Result<String, SpecError> {
    Ok(emit_json(&scenario_to_value(s)?))
}

/// Renders a [`Scenario`] as a TOML spec.
///
/// # Errors
///
/// See [`scenario_to_value`].
pub fn scenario_to_toml(s: &Scenario) -> Result<String, SpecError> {
    Ok(emit_toml(&scenario_to_value(s)?))
}

// ---------------------------------------------------------------------------
// Presets
// ---------------------------------------------------------------------------

/// One named, spec-expressible scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Preset {
    /// Stable id — one per registered experiment (the round-trip suite
    /// pins that this set covers [`crate::experiments::all`]).
    pub id: &'static str,
    /// The scenario.
    pub scenario: Scenario,
}

/// A spec-expressible scenario for every registered experiment id, in
/// paper order.
///
/// These mirror the configurations the experiment runners build
/// internally (scaled to quick sizes); the spec round-trip suite feeds
/// each one through `Scenario → spec → Scenario` in both formats and
/// asserts identity, and the daemon serves them under the `preset`
/// verb. Together they exercise every leaf of the schema: all three
/// topologies, all selector kinds, all deployments, delaying filters,
/// quarantine, immunization triggers, routing/strategy/shard overrides,
/// and checkpoint policies.
pub fn presets() -> Vec<Preset> {
    use dynaquar_netsim::strategy::SimStrategy as Strategy;
    let star = TopologySpec::Star { leaves: 199 };
    let power_law = TopologySpec::PowerLaw {
        nodes: 1000,
        edges_per_node: 2,
        seed: 3,
    };
    let subnets = TopologySpec::Subnets {
        backbone: 4,
        subnets: 20,
        hosts_per_subnet: 50,
    };
    let preset = |id, scenario| Preset { id, scenario };
    vec![
        preset("fig1a", Scenario::new(star).beta(0.8).horizon(100).runs(4)),
        preset(
            "fig1b",
            Scenario::new(star)
                .beta(0.8)
                .horizon(150)
                .deployment(Deployment::Hub)
                .runs(10),
        ),
        preset(
            "fig2",
            Scenario::new(star)
                .beta(0.8)
                .horizon(120)
                .deployment(Deployment::Hosts { fraction: 0.5 }),
        ),
        preset(
            "fig3a",
            Scenario::new(subnets)
                .deployment(Deployment::EdgeRouters)
                .horizon(150)
                .runs(4),
        ),
        preset(
            "fig3b",
            Scenario::new(subnets)
                .deployment(Deployment::EdgeRouters)
                .behavior(WormBehavior::local_preferential(0.9))
                .horizon(150)
                .runs(4),
        ),
        preset(
            "fig4",
            Scenario::new(power_law)
                .initial_infected(3)
                .horizon(200)
                .deployment(Deployment::Hosts { fraction: 1.0 })
                .routing(RoutingKind::Dense),
        ),
        preset(
            "fig5",
            Scenario::new(power_law)
                .deployment(Deployment::EdgeRouters)
                .horizon(200)
                .seed(7),
        ),
        preset(
            "fig6",
            Scenario::new(power_law)
                .behavior(WormBehavior::local_preferential(0.9))
                .deployment(Deployment::Backbone)
                .horizon(200)
                .strategy(Strategy::Tick),
        ),
        preset(
            "fig7a",
            Scenario::new(star)
                .immunization(ImmunizationConfig {
                    trigger: ImmunizationTrigger::AtTick(8),
                    mu: 0.05,
                })
                .horizon(120),
        ),
        preset(
            "fig7b",
            Scenario::new(star)
                .immunization(ImmunizationConfig {
                    trigger: ImmunizationTrigger::AtTick(8),
                    mu: 0.05,
                })
                .deployment(Deployment::Hub)
                .horizon(120),
        ),
        preset(
            "fig8a",
            Scenario::new(subnets)
                .immunization(ImmunizationConfig {
                    trigger: ImmunizationTrigger::AtInfectedFraction(0.2),
                    mu: 0.05,
                })
                .horizon(120)
                .strategy(Strategy::Event),
        ),
        preset(
            "fig8b",
            Scenario::new(subnets)
                .immunization(ImmunizationConfig {
                    trigger: ImmunizationTrigger::AtInfectedFraction(0.2),
                    mu: 0.05,
                })
                .deployment(Deployment::Backbone)
                .horizon(120)
                .shards(ShardSpec::Fixed(2)),
        ),
        preset(
            "fig9a",
            Scenario::new(star)
                .beta(0.6)
                .horizon(80)
                .deployment(Deployment::Hosts { fraction: 1.0 })
                .seed(9)
                .parallelism(2),
        ),
        preset(
            "fig9b",
            Scenario::new(star)
                .behavior(WormBehavior::random().with_scan_rate(3))
                .beta(0.6)
                .horizon(80)
                .routing(RoutingKind::Lazy),
        ),
        preset(
            "fig10",
            Scenario::new(star)
                .deployment(Deployment::Hosts { fraction: 1.0 })
                .params(RateLimitParams {
                    host_window_ticks: 50,
                    host_max_new_targets: 2,
                    ..RateLimitParams::default()
                })
                .horizon(100),
        ),
        preset(
            "tab_limits",
            // The dynamic-quarantine configuration: delaying host
            // filters feed the queue-threshold detector.
            Scenario::new(star)
                .deployment(Deployment::Hosts { fraction: 1.0 })
                .params(RateLimitParams {
                    host_window_ticks: 200,
                    host_max_new_targets: 1,
                    host_release_period_ticks: Some(10),
                    ..RateLimitParams::default()
                })
                .quarantine(QuarantineConfig { queue_threshold: 3 })
                .horizon(200)
                .seed(21),
        ),
        preset(
            "tab_worms",
            // Welchia-style: fast scanner that self-patches.
            Scenario::new(star)
                .behavior(
                    WormBehavior::random()
                        .with_scan_rate(3)
                        .with_self_patch_after(12),
                )
                .horizon(300)
                .seed(31),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_parses_scalars_and_structure() {
        let v = parse_json(r#"{"a": 1, "b": -2.5, "c": [true, null, "x\n"], "d": {"e": 1e3}}"#)
            .unwrap();
        assert_eq!(v.get("a"), Some(&Value::Int(1)));
        assert_eq!(v.get("b"), Some(&Value::Float(-2.5)));
        assert_eq!(
            v.get("c"),
            Some(&Value::Array(vec![
                Value::Bool(true),
                Value::Null,
                Value::Str("x\n".to_string()),
            ]))
        );
        assert_eq!(v.get("d").unwrap().get("e"), Some(&Value::Float(1000.0)));
    }

    #[test]
    fn json_errors_carry_line_numbers() {
        let err = parse_json("{\n  \"a\": 1,\n  \"b\": }\n").unwrap_err();
        match err {
            SpecError::Parse { format, line, .. } => {
                assert_eq!(format, SpecFormat::Json);
                assert_eq!(line, 3);
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn json_rejects_trailing_garbage_and_duplicates() {
        assert!(matches!(parse_json("{} x"), Err(SpecError::Parse { .. })));
        assert!(matches!(
            parse_json(r#"{"a": 1, "a": 2}"#),
            Err(SpecError::Parse { .. })
        ));
    }

    #[test]
    fn json_depth_bomb_is_a_typed_error() {
        let bomb = "[".repeat(10_000);
        assert!(matches!(parse_json(&bomb), Err(SpecError::Parse { .. })));
    }

    #[test]
    fn json_unicode_escapes() {
        let v = parse_json(r#"{"s": "é😀"}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("é😀"));
    }

    #[test]
    fn toml_parses_tables_and_inline_values() {
        let v = parse_toml(
            r#"
            # a comment
            beta = 0.8
            deployment = { hosts = 0.5 }
            tags = ["a", "b"]

            [topology]
            kind = "star"  # trailing comment
            leaves = 99
            "#,
        )
        .unwrap();
        assert_eq!(v.get("beta"), Some(&Value::Float(0.8)));
        assert_eq!(
            v.get("deployment").unwrap().get("hosts"),
            Some(&Value::Float(0.5))
        );
        assert_eq!(v.get("topology").unwrap().get("leaves"), Some(&Value::Int(99)));
        assert_eq!(
            v.get("tags"),
            Some(&Value::Array(vec![
                Value::Str("a".to_string()),
                Value::Str("b".to_string()),
            ]))
        );
    }

    #[test]
    fn toml_dotted_headers_nest() {
        let v = parse_toml("[a.b]\nc = 1\n").unwrap();
        assert_eq!(v.get("a").unwrap().get("b").unwrap().get("c"), Some(&Value::Int(1)));
    }

    #[test]
    fn toml_errors_carry_line_numbers() {
        let err = parse_toml("beta = 0.8\nhorizon =\n").unwrap_err();
        match err {
            SpecError::Parse { format, line, .. } => {
                assert_eq!(format, SpecFormat::Toml);
                assert_eq!(line, 2);
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn toml_rejects_duplicate_keys_and_tables() {
        assert!(matches!(parse_toml("a = 1\na = 2\n"), Err(SpecError::Parse { .. })));
        assert!(matches!(
            parse_toml("[t]\n[t]\n"),
            Err(SpecError::Parse { .. })
        ));
    }

    #[test]
    fn emitters_round_trip_through_their_parsers() {
        let v = Value::Object(vec![
            ("f".to_string(), Value::Float(0.1 + 0.2)),
            ("i".to_string(), Value::Int(-7)),
            ("s".to_string(), Value::Str("with \"quotes\" and \n".to_string())),
            (
                "a".to_string(),
                Value::Array(vec![Value::Int(1), Value::Float(2.5)]),
            ),
            // Objects last: TOML emission orders sections after
            // scalars, and the schema is order-insensitive anyway.
            (
                "o".to_string(),
                Value::Object(vec![("k".to_string(), Value::Bool(true))]),
            ),
        ]);
        assert_eq!(parse_json(&emit_json(&v)).unwrap(), v);
        assert_eq!(parse_toml(&emit_toml(&v)).unwrap(), v);
    }

    #[test]
    fn minimal_spec_uses_defaults() {
        let s = scenario_from_json(r#"{"topology": {"kind": "star", "leaves": 49}}"#).unwrap();
        assert_eq!(s, Scenario::new(TopologySpec::Star { leaves: 49 }));
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let err = scenario_from_json(
            r#"{"topology": {"kind": "star", "leaves": 49}, "betaa": 0.5}"#,
        )
        .unwrap_err();
        assert_eq!(
            err,
            SpecError::UnknownField {
                field: "betaa".to_string()
            }
        );
    }

    #[test]
    fn missing_topology_is_typed() {
        assert_eq!(
            scenario_from_json("{}").unwrap_err(),
            SpecError::MissingField {
                field: "topology".to_string()
            }
        );
    }

    #[test]
    fn out_of_range_values_are_typed() {
        let base = |extra: &str| {
            format!(r#"{{"topology": {{"kind": "star", "leaves": 49}}, {extra}}}"#)
        };
        assert!(matches!(
            scenario_from_json(&base(r#""beta": 1.5"#)).unwrap_err(),
            SpecError::InvalidValue { field, .. } if field == "beta"
        ));
        assert!(matches!(
            scenario_from_json(&base(r#""horizon": 0"#)).unwrap_err(),
            SpecError::InvalidValue { field, .. } if field == "horizon"
        ));
        assert!(matches!(
            scenario_from_json(&base(r#""deployment": {"hosts": 2.0}"#)).unwrap_err(),
            SpecError::InvalidValue { field, .. } if field == "deployment.hosts"
        ));
        assert!(matches!(
            scenario_from_json(&base(r#""shards": 0"#)).unwrap_err(),
            SpecError::InvalidValue { field, .. } if field == "shards"
        ));
    }

    #[test]
    fn lazy_routing_is_a_string_and_the_capacity_table_is_rejected() {
        let spec = |routing: &str| {
            format!(r#"{{"topology": {{"kind": "star", "leaves": 49}}, "routing": {routing}}}"#)
        };
        let scenario = scenario_from_json(&spec(r#""lazy""#)).unwrap();
        assert_eq!(scenario.routing, RoutingKind::Lazy);
        let json = scenario_to_json(&scenario).unwrap();
        assert!(json.contains(r#""lazy""#), "{json}");
        assert_eq!(scenario_from_json(&json).unwrap(), scenario);
        let toml = scenario_to_toml(&scenario).unwrap();
        assert!(toml.contains(r#""lazy""#), "{toml}");
        assert_eq!(scenario_from_toml(&toml).unwrap(), scenario);
        let toml = "routing = { lazy = 16 }\n[topology]\nkind = \"star\"\nleaves = 49\n";
        for err in [
            scenario_from_json(&spec(r#"{"lazy": 16}"#)).unwrap_err(),
            scenario_from_toml(toml).unwrap_err(),
        ] {
            match err {
                SpecError::InvalidValue { field, reason } => {
                    assert_eq!(field, "routing");
                    assert!(reason.contains(r#"routing = "lazy""#), "{reason}");
                }
                other => panic!("expected InvalidValue, got {other:?}"),
            }
        }
    }

    #[test]
    fn wrong_types_are_typed() {
        let err = scenario_from_json(
            r#"{"topology": {"kind": "star", "leaves": 49}, "beta": "high"}"#,
        )
        .unwrap_err();
        assert_eq!(
            err,
            SpecError::WrongType {
                field: "beta".to_string(),
                expected: "a number",
            }
        );
    }

    #[test]
    fn every_preset_round_trips_in_both_formats() {
        for Preset { id, scenario } in presets() {
            let json = scenario_to_json(&scenario).unwrap();
            assert_eq!(
                scenario_from_json(&json).unwrap(),
                scenario,
                "JSON round-trip diverged for preset {id}: {json}"
            );
            let toml = scenario_to_toml(&scenario).unwrap();
            assert_eq!(
                scenario_from_toml(&toml).unwrap(),
                scenario,
                "TOML round-trip diverged for preset {id}:\n{toml}"
            );
        }
    }

    #[test]
    fn presets_cover_every_registered_experiment() {
        let preset_ids: Vec<&str> = presets().iter().map(|p| p.id).collect();
        for exp in crate::experiments::all() {
            assert!(
                preset_ids.contains(&exp.id),
                "no spec preset for experiment {}",
                exp.id
            );
        }
        assert_eq!(preset_ids.len(), crate::experiments::all().len());
    }

    #[test]
    fn fault_plans_are_unsupported_in_specs() {
        let s = Scenario::new(TopologySpec::Star { leaves: 9 })
            .faults(dynaquar_netsim::FaultPlan::none().with_link_loss(0.1, 0.1));
        assert!(matches!(
            scenario_to_value(&s).unwrap_err(),
            SpecError::Unsupported { .. }
        ));
    }

    #[test]
    fn delaying_filter_and_quarantine_round_trip() {
        let s = Scenario::new(TopologySpec::Star { leaves: 199 })
            .deployment(Deployment::Hosts { fraction: 1.0 })
            .params(RateLimitParams {
                host_release_period_ticks: Some(10),
                ..RateLimitParams::default()
            })
            .quarantine(QuarantineConfig { queue_threshold: 3 });
        let json = scenario_to_json(&s).unwrap();
        let back = scenario_from_json(&json).unwrap();
        assert_eq!(back, s);
        // The delaying filter actually materializes.
        let filter = back.sim_config_for(&back.build_world());
        drop(filter);
    }

    #[test]
    fn spec_error_display_is_informative() {
        let err = SpecError::InvalidValue {
            field: "beta".to_string(),
            reason: "must be in (0, 1]".to_string(),
        };
        assert_eq!(err.to_string(), "invalid value for `beta`: must be in (0, 1]");
        let err = SpecError::Parse {
            format: SpecFormat::Toml,
            line: 4,
            message: "boom".to_string(),
        };
        assert!(err.to_string().contains("TOML parse error at line 4"));
    }
}
