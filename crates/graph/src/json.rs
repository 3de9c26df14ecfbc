//! Minimal JSON support for the wire layer: one pull tokenizer with two
//! consumers, a string-escape helper, and a [`Dag`] adjacency round-trip.
//!
//! The serving daemon (`revpebble-serve`) speaks newline-delimited JSON
//! frames, and the compat-crate constraint rules out `serde`, so this
//! module hand-rolls the minimum. [`JsonReader`] is the workspace's one
//! JSON grammar: a pull tokenizer that walks the text once and is strict
//! (it rejects trailing garbage, raw control characters in strings,
//! numbers outside RFC 8259's grammar such as `01` or `1.`, `\u` escapes
//! without four hex digits and nesting deeper than 64 levels, and
//! reports the byte offset where it stopped). It has two consumers:
//!
//! - [`parse_json`] builds a [`JsonValue`] tree, for callers that want
//!   to look values up by key;
//! - [`Dag::from_json`] reads an adjacency description straight into a
//!   [`Dag`] with no tree in between: rows borrow their names from the
//!   text, and an error value is built only when it is returned. The
//!   daemon reads its request frames with the same reader and hands the
//!   `dag` object to [`Dag::read_json`].
//!
//! [`json_escape`] is the inverse of the escapes the reader resolves.
//!
//! [`Dag::from_json`] / [`Dag::to_adjacency_json`] give remote callers a
//! way to ship non-builtin DAGs: a flat adjacency description with nodes
//! in any order, resolved topologically so cycles are rejected with a
//! typed error rather than an infinite loop.
//!
//! # Adjacency schema
//!
//! ```json
//! {
//!   "inputs": ["x", "y"],
//!   "nodes": [
//!     {"name": "g", "op": "and", "fanins": ["x", "y"]},
//!     {"name": "h", "op": "not", "fanins": ["g"], "weight": 2}
//!   ],
//!   "outputs": ["h"]
//! }
//! ```
//!
//! `inputs` and `outputs` are optional (`outputs` defaults to every
//! sink); `weight` defaults to 1; `op` names are case-insensitive
//! ([`Op::parse`]).

use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;
use std::ops::Range;

use crate::dag::{Dag, DagError, NodeId, Source};
use crate::op::Op;

/// Maximum `inputs + nodes` a [`Dag::from_json`] description may carry.
/// Table I's largest netlist (`c7552`) is ~3.5k nodes; this leaves two
/// orders of magnitude of headroom while keeping one hostile frame from
/// allocating without bound.
pub const MAX_JSON_DAG_NODES: usize = 100_000;

/// Maximum nesting depth [`JsonReader`] accepts before giving up — deep
/// enough for any real frame, shallow enough that a `[[[[…` bomb cannot
/// overflow a consumer's stack.
const MAX_JSON_DEPTH: usize = 64;

/// A parsed JSON value.
///
/// Objects keep their key order as a `Vec` of pairs;
/// [`get`](Self::get) scans them and takes the first match.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`, like JavaScript).
    Num(f64),
    /// A string, with escapes resolved.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source key order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks a key up in an object (first match, linear scan). `None`
    /// for missing keys and for non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an exact unsigned integer: a number that
    /// is whole, non-negative and strictly below 2^53. The bound is
    /// strict because 2^53 itself is where `f64` parsing starts rounding
    /// — `9007199254740993` already parses to `2^53`, so accepting it
    /// would silently return the wrong value.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().and_then(exact_u64)
    }

    /// [`as_u64`](Self::as_u64) narrowed to `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// The tree consumer of [`JsonReader`]: reads one whole value.
    fn read(reader: &mut JsonReader<'_>) -> Result<JsonValue, JsonError> {
        Ok(match reader.value()? {
            JsonToken::Object => {
                let mut pairs = Vec::new();
                reader.members(|reader, key| {
                    pairs.push((key.into_owned(), JsonValue::read(reader)?));
                    Ok(())
                })?;
                JsonValue::Object(pairs)
            }
            JsonToken::Array => {
                let mut items = Vec::new();
                reader.items(|reader| {
                    items.push(JsonValue::read(reader)?);
                    Ok(())
                })?;
                JsonValue::Array(items)
            }
            JsonToken::Str(text) => JsonValue::Str(text.into_owned()),
            JsonToken::Num(n) => JsonValue::Num(n),
            JsonToken::Bool(b) => JsonValue::Bool(b),
            JsonToken::Null => JsonValue::Null,
        })
    }
}

/// A parse failure, with the byte offset where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON value; trailing non-whitespace is an error.
pub fn parse_json(text: &str) -> Result<JsonValue, JsonError> {
    let mut reader = JsonReader::new(text);
    let value = JsonValue::read(&mut reader)?;
    reader.finish()?;
    Ok(value)
}

/// `n` as an exact unsigned integer, by the rule of [`JsonValue::as_u64`].
fn exact_u64(n: f64) -> Option<u64> {
    (n >= 0.0 && n.fract() == 0.0 && n < 9_007_199_254_740_992.0).then_some(n as u64)
}

/// Escapes `text` for embedding inside a JSON string literal: quotes,
/// backslashes, and every control character below `0x20` (named escapes
/// for the common ones, `\u00XX` otherwise). The inverse of the string
/// handling in [`JsonReader`].
pub fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for ch in text.chars() {
        match ch {
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

/// What [`JsonReader::value`] found: a whole scalar, or the bracket that
/// opens a container.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonToken<'a> {
    /// `{`: read the object with [`JsonReader::members`].
    Object,
    /// `[`: read the array with [`JsonReader::items`].
    Array,
    /// A string, with escapes resolved: borrowed from the text unless it
    /// has escapes.
    Str(Cow<'a, str>),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

/// The keys of an object that [`JsonReader::fields`] read past instead
/// of handing on.
#[derive(Debug, Default)]
pub struct StrayKeys<'a> {
    /// The first key not in the known list.
    pub unknown: Option<Cow<'a, str>>,
    /// The first known key given a second time.
    pub repeated: Option<Cow<'a, str>>,
}

/// A pull tokenizer over one JSON text.
///
/// A consumer asks for a [`value`](Self::value). When that opens an
/// object or an array, it reads the contents with
/// [`members`](Self::members), [`fields`](Self::fields) or
/// [`items`](Self::items), whose callback must read exactly one value
/// per member or item, or passes over them with [`skip`](Self::skip).
/// [`str_value`](Self::str_value), [`bool_value`](Self::bool_value) and
/// [`u64_value`](Self::u64_value) read a value that should have one
/// type. After the top-level value,
/// [`finish`](Self::finish) rejects trailing characters. A consumer that
/// reads every value has checked the whole text, whatever it keeps.
///
/// Errors carry the byte offset where reading stopped; the reader is
/// spent after one.
#[derive(Debug)]
pub struct JsonReader<'a> {
    text: &'a str,
    pos: usize,
    /// Nesting depth of the next value; the top-level value is at 0.
    depth: usize,
}

impl<'a> JsonReader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        JsonReader {
            text,
            pos: 0,
            depth: 0,
        }
    }

    /// Reads the next value: a whole scalar, or the opening bracket of a
    /// container.
    pub fn value(&mut self) -> Result<JsonToken<'a>, JsonError> {
        self.skip_ws();
        if self.depth > MAX_JSON_DEPTH {
            return Err(self.fail("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => {
                self.pos += 1;
                Ok(JsonToken::Object)
            }
            Some(b'[') => {
                self.pos += 1;
                Ok(JsonToken::Array)
            }
            Some(b'"') => self.string().map(JsonToken::Str),
            Some(b't') => self.literal("true", JsonToken::Bool(true)),
            Some(b'f') => self.literal("false", JsonToken::Bool(false)),
            Some(b'n') => self.literal("null", JsonToken::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(self.fail(format!("unexpected character {:?}", b as char))),
            None => Err(self.fail("unexpected end of input")),
        }
    }

    /// Reads the members of the object [`value`](Self::value) just
    /// opened, calling `each` with every key in source order; `each` must
    /// read that member's value.
    pub fn members(
        &mut self,
        mut each: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        self.depth += 1;
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            each(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(self.fail("expected ',' or '}'")),
            }
        }
    }

    /// Reads the members of the object [`value`](Self::value) just
    /// opened against a list of known keys. `each` gets the index in
    /// `known` of each key's first appearance and must read that
    /// member's value; every other member is read past and reported in
    /// the [`StrayKeys`], so a consumer can reject it once the whole
    /// text is read.
    ///
    /// # Panics
    ///
    /// If `known` has more than 64 keys.
    pub fn fields(
        &mut self,
        known: &[&str],
        mut each: impl FnMut(&mut Self, usize) -> Result<(), JsonError>,
    ) -> Result<StrayKeys<'a>, JsonError> {
        assert!(known.len() <= 64, "at most 64 known keys");
        let mut seen = 0u64;
        let mut stray = StrayKeys::default();
        self.members(
            |reader, key| match known.iter().position(|known| key == *known) {
                Some(index) if seen & (1 << index) == 0 => {
                    seen |= 1 << index;
                    each(reader, index)
                }
                Some(_) => {
                    stray.repeated.get_or_insert(key);
                    reader.skip_value()
                }
                None => {
                    stray.unknown.get_or_insert(key);
                    reader.skip_value()
                }
            },
        )?;
        Ok(stray)
    }

    /// Reads a string value: `None`, once read past, for a value of any
    /// other type.
    pub fn str_value(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        match self.value()? {
            JsonToken::Str(text) => Ok(Some(text)),
            other => self.skip(other).map(|()| None),
        }
    }

    /// Reads a boolean value: `None`, once read past, for a value of any
    /// other type.
    pub fn bool_value(&mut self) -> Result<Option<bool>, JsonError> {
        match self.value()? {
            JsonToken::Bool(flag) => Ok(Some(flag)),
            other => self.skip(other).map(|()| None),
        }
    }

    /// Reads a number that [`JsonValue::as_u64`] would take: `None`,
    /// once read past, for any other value.
    pub fn u64_value(&mut self) -> Result<Option<u64>, JsonError> {
        match self.value()? {
            JsonToken::Num(n) => Ok(exact_u64(n)),
            other => self.skip(other).map(|()| None),
        }
    }

    /// Reads the items of the array [`value`](Self::value) just opened,
    /// calling `each` once per item; `each` must read that item.
    pub fn items(
        &mut self,
        mut each: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        self.depth += 1;
        loop {
            each(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(self.fail("expected ',' or ']'")),
            }
        }
    }

    /// Reads past the rest of the value `token` began: the contents of
    /// an object or an array, nothing after a scalar. What it passes
    /// over is still checked.
    pub fn skip(&mut self, token: JsonToken<'a>) -> Result<(), JsonError> {
        match token {
            JsonToken::Object => self.members(|reader, _| reader.skip_value()),
            JsonToken::Array => self.items(Self::skip_value),
            _ => Ok(()),
        }
    }

    /// Reads past one whole value.
    pub fn skip_value(&mut self) -> Result<(), JsonError> {
        let token = self.value()?;
        self.skip(token)
    }

    /// Checks that only whitespace follows the top-level value.
    pub fn finish(mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.fail("trailing characters after the value"))
        }
    }

    fn fail(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.fail(format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, token: JsonToken<'a>) -> Result<JsonToken<'a>, JsonError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(token)
        } else {
            Err(self.fail(format!("expected {word:?}")))
        }
    }

    fn number(&mut self) -> Result<JsonToken<'a>, JsonError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let slice = &self.text[start..self.pos];
        match slice.parse::<f64>() {
            Ok(n) if n.is_finite() && is_json_number(slice.as_bytes()) => Ok(JsonToken::Num(n)),
            _ => Err(self.fail(format!("invalid number {slice:?}"))),
        }
    }

    /// A string literal, borrowed from the text unless it has escapes.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let text = self.text;
        let bytes = text.as_bytes();
        let mut decoded: Option<String> = None;
        let mut run = self.pos;
        loop {
            // Every byte of a multi-byte UTF-8 scalar is at least 0x80,
            // so this stops only on ASCII.
            while bytes
                .get(self.pos)
                .is_some_and(|&b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.pos += 1;
            }
            match bytes.get(self.pos) {
                None => return Err(self.fail("unterminated string")),
                Some(b'"') => {
                    let tail = &text[run..self.pos];
                    self.pos += 1;
                    return Ok(match decoded {
                        None => Cow::Borrowed(tail),
                        Some(mut out) => {
                            out.push_str(tail);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(b'\\') => {
                    let out = decoded.get_or_insert_with(String::new);
                    out.push_str(&text[run..self.pos]);
                    self.pos += 1;
                    out.push(self.escape_char()?);
                    run = self.pos;
                }
                Some(_) => return Err(self.fail("raw control character in string")),
            }
        }
    }

    fn escape_char(&mut self) -> Result<char, JsonError> {
        let Some(b) = self.peek() else {
            return Err(self.fail("unterminated escape"));
        };
        self.pos += 1;
        Ok(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let unit = self.hex4()?;
                if (0xD800..0xDC00).contains(&unit) {
                    // High surrogate: pair it with the following \uXXXX
                    // low surrogate, or degrade to U+FFFD.
                    if self.text.as_bytes()[self.pos..].starts_with(b"\\u") {
                        self.pos += 2;
                        let low = self.hex4()?;
                        if (0xDC00..0xE000).contains(&low) {
                            let scalar = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                            char::from_u32(scalar).unwrap_or('\u{FFFD}')
                        } else {
                            '\u{FFFD}'
                        }
                    } else {
                        '\u{FFFD}'
                    }
                } else {
                    char::from_u32(unit).unwrap_or('\u{FFFD}')
                }
            }
            other => {
                self.pos -= 1;
                return Err(self.fail(format!("unknown escape \\{}", other as char)));
            }
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        let slice = self
            .text
            .as_bytes()
            .get(self.pos..end)
            .ok_or_else(|| self.fail("truncated \\u escape"))?;
        // Exactly four hex digits, without a sign.
        let unit = slice.iter().try_fold(0, |unit, &b| {
            char::from(b).to_digit(16).map(|digit| unit << 4 | digit)
        });
        let unit = unit.ok_or_else(|| self.fail("bad \\u escape"))?;
        self.pos = end;
        Ok(unit)
    }
}

/// `true` when `s` is a JSON number (RFC 8259, section 6): an optional
/// minus, an integer part with no leading zero, then an optional
/// fraction and an optional exponent, each with at least one digit.
fn is_json_number(s: &[u8]) -> bool {
    let digits = |from: usize| s[from..].iter().take_while(|b| b.is_ascii_digit()).count();
    let mut at = usize::from(s.first() == Some(&b'-'));
    let int = digits(at);
    if int == 0 || (int > 1 && s[at] == b'0') {
        return false;
    }
    at += int;
    if s.get(at) == Some(&b'.') {
        let frac = digits(at + 1);
        if frac == 0 {
            return false;
        }
        at += 1 + frac;
    }
    if matches!(s.get(at), Some(b'e' | b'E')) {
        at += 1;
        if matches!(s.get(at), Some(b'+' | b'-')) {
            at += 1;
        }
        let exp = digits(at);
        if exp == 0 {
            return false;
        }
        at += exp;
    }
    at == s.len()
}

/// Why a JSON adjacency description could not become a [`Dag`].
#[derive(Debug, Clone, PartialEq)]
pub enum DagJsonError {
    /// The text is not valid JSON at all.
    Json(JsonError),
    /// A field has the wrong shape (wrong type, missing, …).
    BadField {
        /// Dotted path of the offending field, e.g. `nodes[3].op`.
        field: String,
        /// What the field should have been.
        expected: &'static str,
    },
    /// A top-level key the schema does not define (typo guard — a
    /// misspelled `"outputs"` should not silently change the DAG).
    UnknownField(String),
    /// An object repeats a key, e.g. two `"nodes"` arrays — readers take
    /// the first, so the second would be silently ignored.
    DuplicateField(String),
    /// Two inputs/nodes share a name, so fanin references are ambiguous.
    DuplicateName(String),
    /// A node's operation name is not one of [`Op::ALL`].
    UnknownOp {
        /// The node whose op failed to parse.
        node: String,
        /// The unrecognized operation name.
        op: String,
    },
    /// A fanin names neither an input nor a node.
    UnknownFanin {
        /// The referencing node.
        node: String,
        /// The name that resolved to nothing.
        fanin: String,
    },
    /// An `outputs` entry names no node.
    UnknownOutput(String),
    /// The description contains a dependency cycle (or the named node
    /// depends on one), so no topological order exists.
    Cycle {
        /// A node that could not be ordered.
        node: String,
    },
    /// More inputs+nodes than the limit allows.
    TooLarge {
        /// Inputs plus nodes in the description.
        nodes: usize,
        /// The limit that was exceeded.
        limit: usize,
    },
    /// Structurally valid JSON that violates a [`Dag`] builder rule
    /// (arity, zero weight, …).
    Dag(DagError),
}

impl fmt::Display for DagJsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagJsonError::Json(err) => write!(f, "{err}"),
            DagJsonError::BadField { field, expected } => {
                write!(f, "field {field:?} must be {expected}")
            }
            DagJsonError::UnknownField(field) => {
                write!(f, "unknown field {field:?} (expected inputs/nodes/outputs)")
            }
            DagJsonError::DuplicateField(field) => {
                write!(f, "duplicate field {field:?}")
            }
            DagJsonError::DuplicateName(name) => {
                write!(f, "duplicate name {name:?}")
            }
            DagJsonError::UnknownOp { node, op } => {
                write!(f, "node {node:?} has unknown op {op:?}")
            }
            DagJsonError::UnknownFanin { node, fanin } => {
                write!(f, "node {node:?} references unknown fanin {fanin:?}")
            }
            DagJsonError::UnknownOutput(name) => {
                write!(f, "output {name:?} names no node")
            }
            DagJsonError::Cycle { node } => {
                write!(f, "node {node:?} is part of (or depends on) a cycle")
            }
            DagJsonError::TooLarge { nodes, limit } => {
                write!(f, "description has {nodes} inputs+nodes, limit is {limit}")
            }
            DagJsonError::Dag(err) => write!(f, "{err}"),
        }
    }
}

impl std::error::Error for DagJsonError {}

impl From<JsonError> for DagJsonError {
    fn from(err: JsonError) -> Self {
        DagJsonError::Json(err)
    }
}

impl From<DagError> for DagJsonError {
    fn from(err: DagError) -> Self {
        DagJsonError::Dag(err)
    }
}

impl Dag {
    /// Parses a JSON adjacency description (see the [module
    /// docs](self) for the schema) with the default
    /// [`MAX_JSON_DAG_NODES`] size cap.
    ///
    /// Nodes may appear in any order; the description is ordered
    /// topologically, and cyclic or oversized inputs are rejected with a
    /// typed [`DagJsonError`].
    pub fn from_json(text: &str) -> Result<Dag, DagJsonError> {
        Self::from_json_bounded(text, MAX_JSON_DAG_NODES)
    }

    /// [`from_json`](Self::from_json) with an explicit `inputs + nodes`
    /// cap.
    pub fn from_json_bounded(text: &str, max_nodes: usize) -> Result<Dag, DagJsonError> {
        let mut reader = JsonReader::new(text);
        let dag = match reader.value()? {
            JsonToken::Object => Dag::read_json(&mut reader, max_nodes)?,
            other => {
                reader.skip(other)?;
                Err(DagJsonError::BadField {
                    field: "<root>".into(),
                    expected: "an object",
                })
            }
        };
        reader.finish()?;
        dag
    }

    /// Reads the adjacency description whose `{` `reader` has just
    /// returned, and builds it under an `inputs + nodes` cap: how a
    /// larger frame carries a description (the serve daemon's `dag`
    /// field).
    ///
    /// The outer error is a syntax error, which ends the whole text. The
    /// inner one says why valid JSON is not a valid description; a caller
    /// reports it only after reading the rest of its text, so that a
    /// later syntax error still comes first.
    pub fn read_json(
        reader: &mut JsonReader<'_>,
        max_nodes: usize,
    ) -> Result<Result<Dag, DagJsonError>, JsonError> {
        Ok(Description::read(reader, max_nodes)?.build(max_nodes))
    }

    /// Serializes the DAG as the adjacency description
    /// [`from_json`](Self::from_json) parses. Names are escaped, nodes
    /// are emitted in (topological) storage order, and `weight` is only
    /// written when it differs from the default 1.
    pub fn to_adjacency_json(&self) -> String {
        let source_name = |source: Source| match source {
            Source::Input(id) => self.input_names()[id.index()].as_str(),
            Source::Node(id) => self.node(id).name.as_str(),
        };
        let mut out = String::from("{\"inputs\":[");
        for (index, name) in self.input_names().iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&json_escape(name));
            out.push('"');
        }
        out.push_str("],\"nodes\":[");
        for (index, id) in self.node_ids().enumerate() {
            let node = self.node(id);
            if index > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"op\":\"{}\",\"fanins\":[",
                json_escape(&node.name),
                node.op.to_string().to_ascii_lowercase(),
            ));
            for (fanin_index, &fanin) in node.fanins.iter().enumerate() {
                if fanin_index > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(&json_escape(source_name(fanin)));
                out.push('"');
            }
            out.push(']');
            if node.weight != 1 {
                out.push_str(&format!(",\"weight\":{}", node.weight));
            }
            out.push('}');
        }
        out.push_str("],\"outputs\":[");
        for (index, &id) in self.outputs().iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&json_escape(&self.node(id).name));
            out.push('"');
        }
        out.push_str("]}");
        out
    }
}

/// One field of an adjacency description as read.
#[derive(Default)]
enum Field<T> {
    /// Not given.
    #[default]
    Absent,
    /// Given with the wrong JSON type.
    Wrong,
    /// Given.
    Given(T),
}

impl<T> From<Option<T>> for Field<T> {
    /// A value read by one of the typed readers of [`JsonReader`].
    fn from(value: Option<T>) -> Self {
        value.map_or(Field::Wrong, Field::Given)
    }
}

/// The keys of an adjacency object.
const DESCRIPTION_KEYS: [&str; 3] = ["inputs", "nodes", "outputs"];

/// The keys of a node row.
const ROW_KEYS: [&str; 4] = ["name", "op", "fanins", "weight"];

/// An adjacency object as read, before any check runs. Names borrow
/// from the text unless they have escapes.
#[derive(Default)]
struct Description<'a> {
    stray: StrayKeys<'a>,
    /// `Given(false)` when an item is not a string.
    inputs: Field<bool>,
    input_names: Vec<Cow<'a, str>>,
    nodes: Field<Rows<'a>>,
    /// `Given(false)` when an item is not a string.
    outputs: Field<bool>,
    /// The outputs before the first item that is not a string.
    output_names: Vec<Cow<'a, str>>,
}

/// The `nodes` array as read.
#[derive(Default)]
struct Rows<'a> {
    /// The rows that passed the row checks, in source order. Storing
    /// stops at the first faulty row, and once the rows alone pass the
    /// cap: no later row can change the answer then.
    rows: Vec<Row<'a>>,
    /// Every stored row's fanins, row after row.
    fanins: Vec<Cow<'a, str>>,
    /// Rows in the array, stored or not.
    count: usize,
    /// The first faulty row's error.
    fault: Option<DagJsonError>,
}

/// One node row that passed the row checks.
struct Row<'a> {
    name: Cow<'a, str>,
    op: Op,
    /// Its fanins in [`Rows::fanins`].
    fanins: Range<usize>,
    weight: u32,
}

/// What a name in a description stands for.
#[derive(Clone, Copy)]
enum Name {
    Input(Source),
    /// A row, by its index in `nodes`.
    Row(usize),
}

impl<'a> Description<'a> {
    /// Reads the members of an adjacency object. Every member is read to
    /// its end, but only the first of a repeated key is kept.
    fn read(reader: &mut JsonReader<'a>, max_nodes: usize) -> Result<Self, JsonError> {
        let mut d = Description::default();
        d.stray = reader.fields(&DESCRIPTION_KEYS, |reader, index| {
            match DESCRIPTION_KEYS[index] {
                "inputs" => d.inputs = read_names(reader, &mut d.input_names)?,
                "nodes" => d.nodes = Rows::read(reader, max_nodes)?,
                "outputs" => d.outputs = read_names(reader, &mut d.output_names)?,
                _ => unreachable!("a key of DESCRIPTION_KEYS"),
            }
            Ok(())
        })?;
        Ok(d)
    }

    /// Runs the checks in a fixed order, whatever order the members came
    /// in, then builds the DAG.
    fn build(self, max_nodes: usize) -> Result<Dag, DagJsonError> {
        let bad = |field: &str, expected| {
            Err(DagJsonError::BadField {
                field: field.into(),
                expected,
            })
        };
        if let Some(key) = self.stray.unknown {
            return Err(DagJsonError::UnknownField(key.into_owned()));
        }
        if let Some(key) = self.stray.repeated {
            return Err(DagJsonError::DuplicateField(key.into_owned()));
        }
        match self.inputs {
            Field::Wrong => return bad("inputs", "an array of strings"),
            Field::Given(false) => return bad("inputs[]", "a string"),
            _ => {}
        }
        let Field::Given(nodes) = self.nodes else {
            return bad("nodes", "an array of node objects");
        };
        let inputs = self.input_names;
        if inputs.len() + nodes.count > max_nodes {
            return Err(DagJsonError::TooLarge {
                nodes: inputs.len() + nodes.count,
                limit: max_nodes,
            });
        }
        if let Some(fault) = nodes.fault {
            return Err(fault);
        }
        let Rows { rows, fanins, .. } = nodes;

        // Inputs and nodes share one namespace, so a fanin names one
        // thing.
        let mut dag = Dag::new();
        let mut names: HashMap<&str, Name> = HashMap::with_capacity(inputs.len() + rows.len());
        for name in &inputs {
            if names
                .insert(name, Name::Input(dag.add_input(name.as_ref())))
                .is_some()
            {
                return Err(DagJsonError::DuplicateName(name.to_string()));
            }
        }
        for (index, row) in rows.iter().enumerate() {
            if names.insert(&row.name, Name::Row(index)).is_some() {
                return Err(DagJsonError::DuplicateName(row.name.to_string()));
            }
        }

        // Each fanin is looked up once; `resolved` lines up with
        // `fanins`.
        let mut resolved = Vec::with_capacity(fanins.len());
        for row in &rows {
            for fanin in &fanins[row.fanins.clone()] {
                let Some(&name) = names.get(fanin.as_ref()) else {
                    return Err(DagJsonError::UnknownFanin {
                        node: row.name.to_string(),
                        fanin: fanin.to_string(),
                    });
                };
                resolved.push(name);
            }
        }

        let mut ids: Vec<Option<NodeId>> = vec![None; rows.len()];
        for index in kahn_order(&rows, &resolved) {
            let row = &rows[index];
            let fanins = resolved[row.fanins.clone()].iter().map(|&name| match name {
                Name::Input(source) => source,
                Name::Row(dep) => {
                    Source::Node(ids[dep].expect("dependencies are added before dependents"))
                }
            });
            let id = dag.add_node_weighted(row.name.as_ref(), row.op, fanins, row.weight)?;
            ids[index] = Some(id);
        }
        if let Some(stuck) = ids.iter().position(Option::is_none) {
            return Err(DagJsonError::Cycle {
                node: rows[stuck].name.to_string(),
            });
        }

        match self.outputs {
            Field::Absent => dag.mark_sinks_as_outputs(),
            Field::Wrong => return bad("outputs", "an array of strings"),
            Field::Given(strings) => {
                for name in &self.output_names {
                    let Some(&Name::Row(index)) = names.get(name.as_ref()) else {
                        return Err(DagJsonError::UnknownOutput(name.to_string()));
                    };
                    dag.mark_output(ids[index].expect("every row was added"));
                }
                if !strings {
                    return bad("outputs[]", "a string");
                }
            }
        }
        Ok(dag)
    }
}

impl<'a> Rows<'a> {
    /// Reads the `nodes` value.
    fn read(reader: &mut JsonReader<'a>, max_nodes: usize) -> Result<Field<Self>, JsonError> {
        let token = reader.value()?;
        if !matches!(token, JsonToken::Array) {
            reader.skip(token)?;
            return Ok(Field::Wrong);
        }
        let mut rows = Rows::default();
        reader.items(|reader| {
            rows.count += 1;
            if rows.fault.is_some() || rows.count > max_nodes {
                return reader.skip_value();
            }
            match Row::read(reader, rows.count - 1, &mut rows.fanins)? {
                Ok(row) => rows.rows.push(row),
                Err(fault) => rows.fault = Some(fault),
            }
            Ok(())
        })?;
        Ok(Field::Given(rows))
    }
}

impl<'a> Row<'a> {
    /// Reads row `index`, appending its fanins to `fanins`. The inner
    /// error is the row's first fault in the fixed order of the row
    /// checks, whatever order its keys came in.
    fn read(
        reader: &mut JsonReader<'a>,
        index: usize,
        fanins: &mut Vec<Cow<'a, str>>,
    ) -> Result<Result<Self, DagJsonError>, JsonError> {
        let token = reader.value()?;
        if !matches!(token, JsonToken::Object) {
            reader.skip(token)?;
            return Ok(Err(DagJsonError::BadField {
                field: format!("nodes[{index}]"),
                expected: "an object",
            }));
        }
        let start = fanins.len();
        let (mut name, mut op, mut row_fanins, mut weight) =
            (Field::Absent, Field::Absent, Field::Absent, Field::Absent);
        let stray = reader.fields(&ROW_KEYS, |reader, index| {
            match ROW_KEYS[index] {
                "name" => name = reader.str_value()?.into(),
                "op" => op = reader.str_value()?.into(),
                "fanins" => row_fanins = read_names(reader, fanins)?,
                "weight" => {
                    let small = |weight| u32::try_from(weight).ok();
                    weight = reader.u64_value()?.and_then(small).into();
                }
                _ => unreachable!("a key of ROW_KEYS"),
            }
            Ok(())
        })?;

        let field = |suffix: &str| format!("nodes[{index}].{suffix}");
        let bad = |suffix: &str, expected| {
            Ok(Err(DagJsonError::BadField {
                field: field(suffix),
                expected,
            }))
        };
        if let Some(key) = stray.unknown {
            return Ok(Err(DagJsonError::UnknownField(field(&key))));
        }
        if let Some(key) = stray.repeated {
            return Ok(Err(DagJsonError::DuplicateField(field(&key))));
        }
        let Field::Given(name) = name else {
            return bad("name", "a string");
        };
        let op_name = match op {
            Field::Absent => Cow::Borrowed("op"),
            Field::Wrong => return bad("op", "a string"),
            Field::Given(op_name) => op_name,
        };
        let Some(op) = Op::parse(&op_name) else {
            return Ok(Err(DagJsonError::UnknownOp {
                node: name.into_owned(),
                op: op_name.into_owned(),
            }));
        };
        match row_fanins {
            Field::Wrong => return bad("fanins", "an array of strings"),
            Field::Given(false) => return bad("fanins[]", "a string"),
            _ => {}
        }
        let weight = match weight {
            Field::Absent => 1,
            Field::Wrong => return bad("weight", "a small non-negative integer"),
            Field::Given(weight) => weight,
        };
        Ok(Ok(Row {
            name,
            op,
            fanins: start..fanins.len(),
            weight,
        }))
    }
}

/// Reads an array of names, appending to `names` the items before the
/// first one that is not a string: `Given(false)` when there is one.
fn read_names<'a>(
    reader: &mut JsonReader<'a>,
    names: &mut Vec<Cow<'a, str>>,
) -> Result<Field<bool>, JsonError> {
    let token = reader.value()?;
    if !matches!(token, JsonToken::Array) {
        reader.skip(token)?;
        return Ok(Field::Wrong);
    }
    let mut strings = true;
    reader.items(|reader| match reader.value()? {
        JsonToken::Str(name) if strings => {
            names.push(name);
            Ok(())
        }
        other => {
            strings = false;
            reader.skip(other)
        }
    })?;
    Ok(Field::Given(strings))
}

/// Kahn's algorithm over the rows' row-to-row edges. The ready set is a
/// min-heap on the row index, so the order is stable; rows on or behind
/// a cycle never become ready and are left out.
fn kahn_order(rows: &[Row<'_>], resolved: &[Name]) -> Vec<usize> {
    let mut missing = vec![0usize; rows.len()];
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); rows.len()];
    let mut ready = BinaryHeap::new();
    for (index, row) in rows.iter().enumerate() {
        for &name in &resolved[row.fanins.clone()] {
            if let Name::Row(dep) = name {
                missing[index] += 1;
                dependents[dep].push(index);
            }
        }
        if missing[index] == 0 {
            ready.push(Reverse(index));
        }
    }
    let mut order = Vec::with_capacity(rows.len());
    while let Some(Reverse(index)) = ready.pop() {
        order.push(index);
        for &dependent in &dependents[index] {
            missing[dependent] -= 1;
            if missing[dependent] == 0 {
                ready.push(Reverse(dependent));
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse_json("null").unwrap(), JsonValue::Null);
        assert_eq!(parse_json(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse_json("-2.5e1").unwrap(), JsonValue::Num(-25.0));
        assert_eq!(
            parse_json("\"a\\n\\\"b\\\\c\\u0041\"").unwrap(),
            JsonValue::Str("a\n\"b\\cA".to_owned())
        );
        let value = parse_json("{\"xs\": [1, 2], \"ok\": false}").unwrap();
        assert_eq!(value.get("ok"), Some(&JsonValue::Bool(false)));
        assert_eq!(value.get("xs").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(value.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\"}",
            "tru",
            "1 2",
            "\"\x01\"",
            "nan",
            "\"unterminated",
            "{\"a\":}",
            "[1 2]",
            "\"\\q\"",
        ] {
            assert!(parse_json(bad).is_err(), "accepted {bad:?}");
        }
        let deep = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(parse_json(&deep).is_err());
    }

    #[test]
    fn numbers_follow_the_rfc_8259_grammar() {
        for (good, n) in [
            ("0", 0.0),
            ("-0", -0.0),
            ("10", 10.0),
            ("0.5", 0.5),
            ("-1.25e-2", -0.0125),
            ("1E+2", 100.0),
            ("0e0", 0.0),
        ] {
            assert_eq!(parse_json(good), Ok(JsonValue::Num(n)), "{good}");
        }
        for bad in [
            "01", "-01", "00", "1.", "-.5", ".5", "1.e5", "1e", "1e+", "+1", "--1", "-", "1.5.",
        ] {
            assert!(parse_json(bad).is_err(), "accepted {bad:?}");
        }
        for bad in ["\"\\u+041\"", "\"\\u-041\"", "\"\\u 041\"", "\"\\u00é\""] {
            assert!(parse_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn strings_borrow_from_the_text_unless_escaped() {
        let mut reader = JsonReader::new(r#"["plain", "esc\"aped"]"#);
        assert_eq!(reader.value().unwrap(), JsonToken::Array);
        let mut strings = Vec::new();
        reader
            .items(|reader| {
                strings.push(reader.value()?);
                Ok(())
            })
            .unwrap();
        reader.finish().unwrap();
        assert!(matches!(
            &strings[0],
            JsonToken::Str(Cow::Borrowed("plain"))
        ));
        assert!(matches!(&strings[1], JsonToken::Str(Cow::Owned(text)) if text == "esc\"aped"));
    }

    #[test]
    fn as_u64_only_accepts_exactly_representable_integers() {
        assert_eq!(
            parse_json("9007199254740991").unwrap().as_u64(),
            Some(9_007_199_254_740_991)
        );
        // 2^53 is where f64 parsing starts rounding: 9007199254740993
        // parses to the same f64 as 2^53, so both must be rejected
        // rather than silently returning a rounded value.
        assert_eq!(parse_json("9007199254740992").unwrap().as_u64(), None);
        assert_eq!(parse_json("9007199254740993").unwrap().as_u64(), None);
        assert_eq!(parse_json("-1").unwrap().as_u64(), None);
        assert_eq!(parse_json("1.5").unwrap().as_u64(), None);
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(
            parse_json("\"\\ud83e\\udde9\"").unwrap(),
            JsonValue::Str("🧩".to_owned())
        );
        // Lone surrogates degrade to U+FFFD instead of failing.
        assert_eq!(
            parse_json("\"\\ud800x\"").unwrap(),
            JsonValue::Str("\u{FFFD}x".to_owned())
        );
    }

    #[test]
    fn escape_round_trips_hostile_strings() {
        for hostile in [
            "plain",
            "with \"quotes\" and \\backslashes\\",
            "newline\nand\ttab and \r",
            "control\u{1}\u{1f}chars",
            "unicode ✓ 🧩",
        ] {
            let literal = format!("\"{}\"", json_escape(hostile));
            assert_eq!(
                parse_json(&literal).unwrap(),
                JsonValue::Str(hostile.to_owned()),
                "round trip failed for {hostile:?}"
            );
        }
    }

    #[test]
    fn adjacency_round_trips() {
        let mut dag = Dag::new();
        let x = dag.add_input("x");
        let y = dag.add_input("y");
        let g = dag.add_node("g", Op::And, [x, y]).unwrap();
        let h = dag
            .add_node_weighted("h", Op::Not, [Source::Node(g)], 3)
            .unwrap();
        dag.mark_output(h);
        let text = dag.to_adjacency_json();
        let parsed = Dag::from_json(&text).unwrap();
        assert_eq!(parsed, dag);
        assert_eq!(parsed.canonical_fingerprint(), dag.canonical_fingerprint());
    }

    #[test]
    fn adjacency_round_trips_hostile_names() {
        let mut dag = Dag::new();
        let x = dag.add_input("in\"put\\one");
        let g = dag
            .add_node("node\nwith\tcontrol\u{1}chars", Op::Buf, [x])
            .unwrap();
        dag.mark_output(g);
        let parsed = Dag::from_json(&dag.to_adjacency_json()).unwrap();
        assert_eq!(parsed, dag);
    }

    #[test]
    fn nodes_in_any_order_resolve_topologically() {
        let text = r#"{
            "inputs": ["x"],
            "nodes": [
                {"name": "late", "op": "not", "fanins": ["early"]},
                {"name": "early", "op": "buf", "fanins": ["x"]}
            ],
            "outputs": ["late"]
        }"#;
        let dag = Dag::from_json(text).unwrap();
        assert_eq!(dag.num_nodes(), 2);
        assert_eq!(dag.num_outputs(), 1);
    }

    #[test]
    fn outputs_default_to_sinks() {
        let text = r#"{"inputs":["x"],"nodes":[{"name":"g","op":"not","fanins":["x"]}]}"#;
        let dag = Dag::from_json(text).unwrap();
        assert_eq!(dag.num_outputs(), 1);
    }

    #[test]
    fn cycles_are_rejected() {
        let text = r#"{
            "nodes": [
                {"name": "a", "op": "not", "fanins": ["b"]},
                {"name": "b", "op": "not", "fanins": ["a"]}
            ]
        }"#;
        match Dag::from_json(text) {
            Err(DagJsonError::Cycle { node }) => assert!(node == "a" || node == "b"),
            other => panic!("expected Cycle, got {other:?}"),
        }
    }

    #[test]
    fn oversized_descriptions_are_rejected() {
        let text = r#"{"inputs":["x","y"],"nodes":[{"name":"g","op":"and","fanins":["x","y"]}]}"#;
        assert!(Dag::from_json_bounded(text, 16).is_ok());
        match Dag::from_json_bounded(text, 2) {
            Err(DagJsonError::TooLarge { nodes: 3, limit: 2 }) => {}
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn typed_errors_cover_the_schema() {
        assert!(matches!(
            Dag::from_json("[1]"),
            Err(DagJsonError::BadField { .. })
        ));
        assert!(matches!(
            Dag::from_json(r#"{"nodes":[],"surprise":1}"#),
            Err(DagJsonError::UnknownField(_))
        ));
        assert!(matches!(
            Dag::from_json(r#"{"nodes":[],"nodes":[]}"#),
            Err(DagJsonError::DuplicateField(_))
        ));
        assert!(matches!(
            Dag::from_json(r#"{"nodes":[{"name":"g","op":"buf","fanins":[],"name":"h"}]}"#),
            Err(DagJsonError::DuplicateField(_))
        ));
        assert!(matches!(
            Dag::from_json(r#"{"inputs":["x","x"],"nodes":[]}"#),
            Err(DagJsonError::DuplicateName(_))
        ));
        assert!(matches!(
            Dag::from_json(r#"{"nodes":[{"name":"g","op":"frob","fanins":[]}]}"#),
            Err(DagJsonError::UnknownOp { .. })
        ));
        assert!(matches!(
            Dag::from_json(r#"{"nodes":[{"name":"g","op":"not","fanins":["ghost"]}]}"#),
            Err(DagJsonError::UnknownFanin { .. })
        ));
        assert!(matches!(
            Dag::from_json(r#"{"inputs":["x"],"nodes":[],"outputs":["x"]}"#),
            Err(DagJsonError::UnknownOutput(_))
        ));
        // Arity violations surface as the builder's own typed error.
        assert!(matches!(
            Dag::from_json(r#"{"inputs":["x"],"nodes":[{"name":"g","op":"maj","fanins":["x"]}]}"#),
            Err(DagJsonError::Dag(DagError::ArityMismatch { .. }))
        ));
    }
}
