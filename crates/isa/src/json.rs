//! JSON for the whole workspace: a strict reader ([`parse`] into a
//! [`Json`] tree) and the one writer ([`Writer`]) through which every
//! rendered `SimResult`, event line, reply, report and `stats` object is
//! written.
//!
//! The workspace builds hermetically (DESIGN.md §8), so it takes no
//! serde. The module lives here, beside [`fnv1a`](crate::fnv1a), because
//! every crate that renders JSON already depends on this one.
//!
//! The writer has two styles. [`Style::Compact`] is the wire's form: one
//! line, `,` and `:`. [`Style::Pretty`] opens each container either
//! inline (`{"a": 1, "b": [2, 3]}`) or as a block (one member per line,
//! two-space indent), the layout `SimResult::to_json` is pinned in.
//! [`escape`] gives the string rules: quotes, backslashes and every
//! control character are escaped (an error message may carry a
//! newline); everything else is copied as is.
//!
//! Numbers parse as `f64`; integer accessors check integrality and
//! range, which covers every protocol field (cycle budgets above 2^53
//! are indistinguishable from "unlimited" for any real run).

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (see module docs on integers).
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Ordered map so iteration (and re-rendering) is
    /// deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is an integral number
    /// in `[0, 2^53]` (exactly representable in the `f64` the parser
    /// stores).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= MAX_EXACT => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Member lookup on an object (`None` for absent keys and
    /// non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object's members, if it is one.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// Compact JSON ([`Writer::value`]): object keys in the map's order,
/// integral numbers without a fraction.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut w = Writer::new(Style::Compact);
        w.value(self);
        f.write_str(&w.finish())
    }
}

/// 2^53: the largest magnitude below which every integer is an `f64`.
const MAX_EXACT: f64 = 9_007_199_254_740_992.0;

/// A parse failure: what went wrong and the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Description of the problem.
    pub message: String,
    /// Byte offset in the input.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

/// Parses one complete JSON value; trailing non-whitespace is an error
/// (a protocol line holds exactly one value).
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(v)
}

/// Nesting depth bound: protocol payloads are flat, and a bound keeps a
/// hostile `[[[[…` line from overflowing the parser's stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            at: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{', "expected '{'")?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string().map_err(|mut e| {
                e.message = "expected object key string".to_string();
                e
            })?;
            self.skip_ws();
            self.eat(b':', "expected ':' after key")?;
            self.skip_ws();
            let v = self.value(depth + 1)?;
            map.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by the
                            // protocol; map lone surrogates to the
                            // replacement character rather than erroring.
                            out.push(char::from_u32(hex).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                0x00..=0x1F => return Err(self.err("raw control character in string")),
                _ => {
                    // Bulk-consume the plain run (no quote, backslash, or
                    // control byte — UTF-8 continuation bytes are all
                    // ≥ 0x80 and pass through). Validating only the run,
                    // not the whole remaining input, keeps string parsing
                    // linear; a half-megabyte response line is parsed in
                    // milliseconds instead of seconds.
                    let start = self.pos - 1;
                    while let Some(&nb) = self.bytes.get(self.pos) {
                        if nb == b'"' || nb == b'\\' || nb < 0x20 {
                            break;
                        }
                        self.pos += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        let n: f64 = text.parse().map_err(|_| JsonError {
            message: format!("bad number `{text}`"),
            at: start,
        })?;
        if !n.is_finite() {
            return Err(JsonError {
                message: format!("non-finite number `{text}`"),
                at: start,
            });
        }
        Ok(Json::Num(n))
    }
}

/// Escapes `s` for embedding in a JSON string literal (quotes,
/// backslashes, and all control characters — a livelock detail string
/// carries newlines).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Appends `s` to `out` under [`escape`]'s rules. Every byte that needs
/// escaping is ASCII, so each cut lands on a character boundary and the
/// runs between them are copied whole.
fn escape_into(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escaped = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x00..=0x1F => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        run = i + 1;
        if escaped.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escaped);
        }
    }
    out.push_str(&s[run..]);
}

/// Strips structural whitespace from rendered JSON, yielding a single
/// line. String contents are preserved (their newlines are already
/// escaped by any correct writer). The [`Writer`] renders the compact
/// form directly; this stays as the oracle its tests compare against.
pub fn compact(rendered: &str) -> String {
    let bytes = rendered.as_bytes();
    let mut out = String::with_capacity(rendered.len());
    // Every structural byte is ASCII, and no byte of a multi-byte UTF-8
    // sequence is, so a byte scan finds them without decoding `char`s
    // and every cut lands on a character boundary. Runs between
    // whitespace bytes are copied whole.
    let mut run = 0;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b' ' | b'\t' | b'\n' | b'\r' => {
                out.push_str(&rendered[run..i]);
                run = i + 1;
            }
            b'"' => {
                // Skip the string, escapes included, to its closing quote.
                i += 1;
                while i < bytes.len() && bytes[i] != b'"' {
                    i += if bytes[i] == b'\\' { 2 } else { 1 };
                }
            }
            _ => {}
        }
        i += 1;
    }
    out.push_str(&rendered[run.min(bytes.len())..]);
    out
}

/// The writer's two output styles (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Style {
    /// One line: `{"a":1,"b":[2,3]}`.
    Compact,
    /// Inline containers as `{"a": 1, "b": [2, 3]}`, block containers
    /// one member per line with a two-space indent.
    Pretty,
}

/// A streaming JSON writer: values, keys and containers are appended to
/// one `String` in call order, and the writer tracks its own nesting.
/// A container takes a closure that writes its members, so every one
/// opened is closed. An object member is [`key`](Writer::key) then one
/// value; an array member is a value. Value methods return the writer,
/// so members chain:
///
/// ```
/// use polyflow_isa::json::{Style, Writer};
///
/// let mut w = Writer::new(Style::Compact);
/// w.object(|w| {
///     w.key("ok").bool(true).key("ids").array(|w| {
///         w.u64(1).u64(2);
///     });
/// });
/// assert_eq!(w.finish(), r#"{"ok":true,"ids":[1,2]}"#);
/// ```
#[derive(Debug, Clone)]
pub struct Writer {
    out: String,
    pretty: bool,
    /// One entry per open container: whether its members go one per line.
    blocks: Vec<bool>,
    /// The innermost container has no member yet.
    first: bool,
    /// A key was just written: the next value is its member's.
    keyed: bool,
}

impl Writer {
    /// An empty writer in `style`.
    pub fn new(style: Style) -> Writer {
        Writer {
            out: String::new(),
            pretty: style == Style::Pretty,
            blocks: Vec::new(),
            first: true,
            keyed: false,
        }
    }

    /// Reserves room for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.out.reserve(additional);
    }

    /// The text written so far.
    pub fn as_str(&self) -> &str {
        &self.out
    }

    /// Empties the writer for the next document, keeping its buffer.
    pub fn clear(&mut self) {
        debug_assert!(self.blocks.is_empty(), "cleared inside a container");
        self.out.clear();
    }

    /// The rendered text.
    pub fn finish(self) -> String {
        debug_assert!(self.blocks.is_empty(), "unclosed container");
        self.out
    }

    /// Starts a value: a keyed member's, else an array member (or the
    /// document itself), after its separator and indentation.
    fn begin_value(&mut self) {
        if !std::mem::take(&mut self.keyed) {
            self.separate();
        }
    }

    fn separate(&mut self) {
        let Some(&block) = self.blocks.last() else {
            return;
        };
        if !std::mem::replace(&mut self.first, false) {
            self.out
                .push_str(if self.pretty && !block { ", " } else { "," });
        }
        if block {
            self.newline_indent(self.blocks.len());
        }
    }

    fn newline_indent(&mut self, depth: usize) {
        self.out.push('\n');
        for _ in 0..depth {
            self.out.push_str("  ");
        }
    }

    /// Starts an object member: the next value written is its value.
    pub fn key(&mut self, key: &str) -> &mut Writer {
        debug_assert!(!self.keyed, "a key needs a value before the next key");
        self.separate();
        self.out.push('"');
        escape_into(&mut self.out, key);
        self.out.push_str(if self.pretty { "\": " } else { "\":" });
        self.keyed = true;
        self
    }

    /// An unsigned integer (formatted by hand: faster than `fmt` on the
    /// tens of thousands a large result holds).
    pub fn u64(&mut self, v: u64) -> &mut Writer {
        self.begin_value();
        let (mut digits, mut at, mut rest) = ([0u8; 20], 20, v);
        loop {
            at -= 1;
            digits[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        self.out
            .push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
        self
    }

    /// A number with exactly `decimals` digits after the point (`{:.N}`
    /// rounding); `null` if `v` is not finite, as JSON has no infinities.
    pub fn fixed(&mut self, v: f64, decimals: usize) -> &mut Writer {
        self.begin_value();
        if v.is_finite() {
            let _ = write!(self.out, "{v:.decimals$}");
        } else {
            self.out.push_str("null");
        }
        self
    }

    /// `true` or `false`.
    pub fn bool(&mut self, v: bool) -> &mut Writer {
        self.raw(if v { "true" } else { "false" })
    }

    /// `null`.
    pub fn null(&mut self) -> &mut Writer {
        self.raw("null")
    }

    /// A string, escaped.
    pub fn str(&mut self, s: &str) -> &mut Writer {
        self.display(s)
    }

    /// A value's `Display` text as a string, escaped as it is formatted.
    pub fn display(&mut self, v: impl fmt::Display) -> &mut Writer {
        struct Escaping<'a>(&'a mut String);
        impl fmt::Write for Escaping<'_> {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                escape_into(self.0, s);
                Ok(())
            }
        }
        self.begin_value();
        self.out.push('"');
        let _ = write!(Escaping(&mut self.out), "{v}");
        self.out.push('"');
        self
    }

    /// A parsed value, its containers inline: object keys in the map's
    /// order, integral numbers up to 2^53 without a fraction, any other
    /// number in Rust's shortest round-trip form.
    pub fn value(&mut self, v: &Json) -> &mut Writer {
        match v {
            Json::Null => self.null(),
            Json::Bool(b) => self.bool(*b),
            Json::Num(n) if n.fract() == 0.0 && n.abs() <= MAX_EXACT => {
                self.raw(&(*n as i64).to_string())
            }
            Json::Num(n) => self.raw(&n.to_string()),
            Json::Str(s) => self.str(s),
            Json::Arr(items) => self.array(|w| {
                for item in items {
                    w.value(item);
                }
            }),
            Json::Obj(map) => self.object(|w| {
                for (k, item) in map {
                    w.key(k).value(item);
                }
            }),
        }
    }

    /// Already-rendered JSON text, copied verbatim as the next value; it
    /// must be one valid JSON value in the writer's style.
    pub fn raw(&mut self, json: &str) -> &mut Writer {
        self.begin_value();
        self.out.push_str(json);
        self
    }

    /// An object whose members `body` writes, on one line.
    pub fn object(&mut self, body: impl FnOnce(&mut Writer)) -> &mut Writer {
        self.container(false, ['{', '}'], body)
    }

    /// An object whose members `body` writes one per line in the pretty
    /// style (on one line inside an inline container).
    pub fn block_object(&mut self, body: impl FnOnce(&mut Writer)) -> &mut Writer {
        self.container(true, ['{', '}'], body)
    }

    /// An array whose members `body` writes, on one line.
    pub fn array(&mut self, body: impl FnOnce(&mut Writer)) -> &mut Writer {
        self.container(false, ['[', ']'], body)
    }

    /// An array whose members `body` writes one per line in the pretty
    /// style (on one line inside an inline container).
    pub fn block_array(&mut self, body: impl FnOnce(&mut Writer)) -> &mut Writer {
        self.container(true, ['[', ']'], body)
    }

    fn container(
        &mut self,
        block: bool,
        [open, close]: [char; 2],
        body: impl FnOnce(&mut Writer),
    ) -> &mut Writer {
        self.begin_value();
        let block = block && self.pretty && self.blocks.last() != Some(&false);
        self.out.push(open);
        self.blocks.push(block);
        self.first = true;
        body(self);
        debug_assert!(!self.keyed, "a key without a value");
        self.blocks.pop();
        if block {
            self.newline_indent(self.blocks.len());
        }
        // The container was a member of its parent.
        self.first = false;
        self.out.push(close);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    /// The renderer [`Writer::value`] replaced, kept as its oracle.
    mod reference {
        use super::{escape, Json};

        pub fn render(v: &Json) -> String {
            match v {
                Json::Null => "null".to_string(),
                Json::Bool(b) => b.to_string(),
                Json::Num(n) => {
                    if n.fract() == 0.0 && n.abs() <= 9_007_199_254_740_992.0 {
                        format!("{}", *n as i64)
                    } else {
                        format!("{n}")
                    }
                }
                Json::Str(s) => format!("\"{}\"", escape(s)),
                Json::Arr(items) => {
                    let inner: Vec<String> = items.iter().map(render).collect();
                    format!("[{}]", inner.join(","))
                }
                Json::Obj(map) => {
                    let inner: Vec<String> = map
                        .iter()
                        .map(|(k, v)| format!("\"{}\":{}", escape(k), render(v)))
                        .collect();
                    format!("{{{}}}", inner.join(","))
                }
            }
        }

        /// The escaper before it copied runs: one `char` at a time.
        pub fn escape_chars(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
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
    }

    #[test]
    fn parses_protocol_shapes() {
        let v = parse(r#"{"workload":"twolf","policy":"postdoms","config":{"max_cycles":100000,"store_sets":true}}"#).unwrap();
        assert_eq!(v.get("workload").unwrap().as_str(), Some("twolf"));
        assert_eq!(
            v.get("config").unwrap().get("max_cycles").unwrap().as_u64(),
            Some(100_000)
        );
        assert_eq!(
            v.get("config")
                .unwrap()
                .get("store_sets")
                .unwrap()
                .as_bool(),
            Some(true)
        );
    }

    #[test]
    fn parses_scalars_arrays_and_escapes() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" -3.5e2 ").unwrap().as_f64(), Some(-350.0));
        assert_eq!(
            parse(r#"[1, "a\nb\u0041", false]"#).unwrap(),
            Json::Arr(vec![
                Json::Num(1.0),
                Json::Str("a\nbA".to_string()),
                Json::Bool(false)
            ])
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "tru",
            "\"unterminated",
            "{\"a\":1} trailing",
            "{'single':1}",
            "nan",
            "1e999",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn deep_nesting_is_bounded_not_fatal() {
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        let e = parse(&deep).unwrap_err();
        assert!(e.message.contains("nesting too deep"));
    }

    #[test]
    fn as_u64_bounds() {
        assert_eq!(parse("0").unwrap().as_u64(), Some(0));
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(
            parse("9007199254740992").unwrap().as_u64(),
            Some(9_007_199_254_740_992)
        );
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "line1\nline2\t\"quoted\" \\back\u{1}";
        let mut w = Writer::new(Style::Compact);
        w.object(|w| {
            w.key("m").str(nasty);
        });
        let v = parse(&w.finish()).unwrap();
        assert_eq!(v.get("m").unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn compact_preserves_string_contents() {
        let pretty = "{\n  \"a\": \"x y\\n z\",\n  \"b\": [1, 2]\n}\n";
        assert_eq!(compact(pretty), "{\"a\":\"x y\\n z\",\"b\":[1,2]}");
        // A string ending in an escaped backslash must close correctly.
        let tricky = "{\"p\": \"c:\\\\\" , \"q\": 1}";
        assert_eq!(compact(tricky), "{\"p\":\"c:\\\\\",\"q\":1}");
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // Regression: the string scanner used to re-validate the entire
        // remaining input for every character, turning large response
        // lines quadratic. A ~1 MB payload must parse comfortably within
        // a debug-build test's patience, with mixed escapes and
        // multibyte characters landing intact.
        let chunk = "abcdefgh π→λ \\\"quoted\\\" \\n ij";
        let big = chunk.repeat(20_000);
        let wire = format!("{{\"blob\":\"{big}\",\"n\":7}}");
        let t0 = std::time::Instant::now();
        let v = parse(&wire).unwrap();
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(5),
            "1 MB string took {:?} — the parser has gone quadratic again",
            t0.elapsed()
        );
        let blob = v.get("blob").unwrap().as_str().unwrap();
        assert_eq!(blob.len(), "abcdefgh π→λ \"quoted\" \n ij".len() * 20_000);
        assert!(blob.starts_with("abcdefgh π→λ \"quoted\" \n ij"));
        assert_eq!(v.get("n").unwrap().as_u64(), Some(7));
    }

    /// Every member kind nests, in call order, and parses back.
    #[test]
    fn writer_nests_and_parses() {
        let parsed = parse("{\"z\":1,\"a\":[true]}").unwrap();
        let mut w = Writer::new(Style::Compact);
        w.object(|w| {
            w.key("ok").bool(true).key("addr").str("h:1 \"q\"\n");
            w.key("inner").object(|w| {
                w.key("n").u64(3).key("up").bool(false);
            });
            w.key("list").array(|w| {
                for i in 0..3 {
                    w.object(|w| {
                        w.key("i").u64(i);
                    });
                }
            });
            w.key("none").array(|_| {});
            w.key("parsed").value(&parsed);
            w.key("missing").null();
            w.key("empty").block_object(|_| {});
            w.key("pc").display(format_args!("{:#06x}", 48));
            w.key("ms")
                .fixed(1.23456, 3)
                .key("inf")
                .fixed(f64::INFINITY, 2);
            w.key("pre").raw("[1,2]");
        });
        let text = w.finish();
        assert_eq!(
            text,
            "{\"ok\":true,\"addr\":\"h:1 \\\"q\\\"\\n\",\"inner\":{\"n\":3,\"up\":false},\
             \"list\":[{\"i\":0},{\"i\":1},{\"i\":2}],\"none\":[],\
             \"parsed\":{\"a\":[true],\"z\":1},\"missing\":null,\"empty\":{},\
             \"pc\":\"0x0030\",\"ms\":1.235,\"inf\":null,\"pre\":[1,2]}"
        );
        let v = parse(&text).unwrap();
        assert_eq!(v.get("addr").unwrap().as_str(), Some("h:1 \"q\"\n"));
        assert_eq!(v.get("inner").unwrap().get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("list").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("parsed"), Some(&parsed));
    }

    /// The pretty layout: blocks one member per line, inline containers
    /// on one line (also inside a block), and a block inside an inline
    /// container stays inline.
    #[test]
    fn pretty_layout_blocks_and_inline_containers() {
        let mut w = Writer::new(Style::Pretty);
        w.block_object(|w| {
            w.key("a").u64(1);
            w.key("in").object(|w| {
                w.key("x").u64(2).key("y").block_array(|w| {
                    w.u64(3).u64(4);
                });
            });
            w.key("rows").block_array(|w| {
                w.object(|w| {
                    w.key("k").null();
                });
                w.array(|w| {
                    w.bool(true).str("s");
                });
            });
            w.key("none").block_array(|_| {});
        });
        assert_eq!(
            w.finish(),
            "{\n  \"a\": 1,\n  \"in\": {\"x\": 2, \"y\": [3, 4]},\n  \"rows\": [\n    \
             {\"k\": null},\n    [true, \"s\"]\n  ],\n  \"none\": [\n  ]\n}"
        );
    }

    /// A generator of interesting JSON values: every escape class in
    /// keys and strings, integral, fractional, negative and large
    /// numbers, and containers of every size up to `depth` levels.
    fn random_json(rng: &mut SplitMix64, depth: u32) -> Json {
        const PIECES: &[&str] = &[
            "a", "Z", " ", "\"", "\\", "/", "\n", "\r", "\t", "\u{0}", "\u{1f}", "\u{7f}", "é",
            "π→λ", "🦀", "\"}}", "{", "]", ":", ",",
        ];
        let text = |rng: &mut SplitMix64| -> String {
            (0..rng.below(6))
                .map(|_| {
                    if rng.below(4) == 0 {
                        char::from_u32(rng.below(0x20) as u32).unwrap().to_string()
                    } else {
                        PIECES[rng.index(PIECES.len())].to_string()
                    }
                })
                .collect()
        };
        let leaf = depth == 0 || rng.below(3) == 0;
        match rng.below(if leaf { 4 } else { 6 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.flip()),
            2 => Json::Num(match rng.below(6) {
                0 => rng.range_i64(-1_000, 1_000) as f64,
                1 => rng.next_u64() as f64,
                2 => -((rng.next_u64() >> 11) as f64),
                3 => rng.range_i64(-1_000_000, 1_000_000) as f64 / 64.0,
                4 => (rng.next_u64() as f64) * 1e-300,
                _ => f64::from_bits(rng.next_u64() >> 2),
            }),
            3 => Json::Str(text(rng)),
            4 => Json::Arr(
                (0..rng.below(5))
                    .map(|_| random_json(rng, depth - 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..rng.below(5))
                    .map(|_| (text(rng), random_json(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    /// [`Writer::value`] renders what the replaced renderer rendered,
    /// byte for byte, on generated trees of depth ≤ 6, and what it
    /// renders parses back to the same tree.
    #[test]
    fn value_matches_the_reference_renderer() {
        let mut rng = SplitMix64::new(0x5EED_0026);
        for case in 0..3_000 {
            let depth = (case % 7) as u32;
            let v = random_json(&mut rng, depth);
            let mut w = Writer::new(Style::Compact);
            w.value(&v);
            let text = w.finish();
            assert_eq!(text, reference::render(&v), "case {case}: {v:?}");
            assert_eq!(text, v.to_string());
            assert_eq!(parse(&text).as_ref(), Ok(&v), "case {case}: {text}");
        }
    }

    /// The run-copying escaper agrees with the char-by-char one on every
    /// control byte, every escape class and multibyte text.
    #[test]
    fn escape_matches_the_char_by_char_reference() {
        let mut every: String = (0u32..0x80).filter_map(char::from_u32).collect();
        every.push_str("é π→λ 🦀 \"}} \\");
        for s in [
            "",
            "plain",
            "\"",
            "\\",
            "ends in \\",
            &every,
            "\u{1}\u{2}x\u{1f}",
        ] {
            assert_eq!(escape(s), reference::escape_chars(s), "{s:?}");
        }
    }

    /// `u64` writes every digit count, zero and the maximum.
    #[test]
    fn integers_render_like_display() {
        let mut rng = SplitMix64::new(7);
        let mut values = vec![0, 9, 10, u64::MAX];
        values.extend((0..64).map(|s| rng.next_u64() >> s));
        for v in values {
            let mut w = Writer::new(Style::Compact);
            w.u64(v);
            assert_eq!(w.finish(), v.to_string());
        }
    }
}
