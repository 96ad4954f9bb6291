//! A minimal hand-rolled JSON reader (and a few writer helpers).
//!
//! The workspace builds hermetically (DESIGN.md §8), so the service
//! cannot take serde. The *writing* side already exists throughout the
//! repo (`SimResult::to_json`, the sweep report); this module adds the
//! missing *reading* side — a strict recursive-descent parser producing
//! a [`Json`] tree — plus [`compact`] (newline-delimited protocols need
//! single-line payloads), [`escape`] (error messages may carry
//! newlines, e.g. a livelock post-mortem), and [`ObjectWriter`], which
//! composes the `stats` replies member by member so that one layer's
//! object nests inside another's without any string surgery.
//!
//! Numbers parse as `f64`; integer accessors check integrality and
//! range, which covers every protocol field (cycle budgets above 2^53
//! are indistinguishable from "unlimited" for any real run).

use std::collections::BTreeMap;
use std::fmt;

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
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= 9_007_199_254_740_992.0 => {
                Some(*n as u64)
            }
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

    /// Renders the value back to compact JSON (object keys in the
    /// deterministic map order; integral numbers without a fraction).
    pub fn render(&self) -> String {
        match self {
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
                let inner: Vec<String> = items.iter().map(Json::render).collect();
                format!("[{}]", inner.join(","))
            }
            Json::Obj(map) => {
                let inner: Vec<String> = map
                    .iter()
                    .map(|(k, v)| format!("\"{}\":{}", escape(k), v.render()))
                    .collect();
                format!("{{{}}}", inner.join(","))
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

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

/// A single-line JSON object under construction. Members render in call
/// order; [`ObjectWriter::finish`] closes the object. Nesting is by
/// value — a member object is itself an `ObjectWriter` — so a layer can
/// hand its object to the layer above, which adds members or wraps it,
/// and the result is well-formed by construction.
#[derive(Debug, Clone)]
pub struct ObjectWriter {
    out: String,
}

impl Default for ObjectWriter {
    fn default() -> Self {
        ObjectWriter::new()
    }
}

impl ObjectWriter {
    /// An empty object.
    pub fn new() -> ObjectWriter {
        ObjectWriter {
            out: String::from("{"),
        }
    }

    fn key(&mut self, key: &str) {
        if self.out.len() > 1 {
            self.out.push(',');
        }
        self.out.push('"');
        self.out.push_str(&escape(key));
        self.out.push_str("\":");
    }

    /// Appends an integer member.
    pub fn u64(mut self, key: &str, value: u64) -> ObjectWriter {
        self.key(key);
        self.out.push_str(&value.to_string());
        self
    }

    /// Appends a boolean member.
    pub fn bool(mut self, key: &str, value: bool) -> ObjectWriter {
        self.key(key);
        self.out.push_str(if value { "true" } else { "false" });
        self
    }

    /// Appends a string member (escaped).
    pub fn str(mut self, key: &str, value: &str) -> ObjectWriter {
        self.key(key);
        self.out.push('"');
        self.out.push_str(&escape(value));
        self.out.push('"');
        self
    }

    /// Appends a nested object member.
    pub fn object(mut self, key: &str, value: ObjectWriter) -> ObjectWriter {
        self.key(key);
        self.out.push_str(&value.finish());
        self
    }

    /// Appends an array of objects.
    pub fn objects(
        mut self,
        key: &str,
        items: impl IntoIterator<Item = ObjectWriter>,
    ) -> ObjectWriter {
        self.key(key);
        self.out.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            self.out.push_str(&item.finish());
        }
        self.out.push(']');
        self
    }

    /// Appends a parsed value (e.g. an object read from another
    /// process's reply), re-rendered with [`Json::render`].
    pub fn value(mut self, key: &str, value: &Json) -> ObjectWriter {
        self.key(key);
        self.out.push_str(&value.render());
        self
    }

    /// Closes the object and returns its text.
    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

/// Strips structural whitespace from rendered JSON, yielding a single
/// line — the repo's hand-rolled writers ([`SimResult::to_json`] in
/// particular) pretty-print across many lines, but the wire protocol is
/// newline-delimited. String contents are preserved (their newlines are
/// already escaped by any correct writer).
///
/// [`SimResult::to_json`]: polyflow_sim::SimResult::to_json
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

#[cfg(test)]
mod tests {
    use super::*;

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
        let wire = format!("{{\"m\":\"{}\"}}", escape(nasty));
        let v = parse(&wire).unwrap();
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

    /// The byte-run [`compact`] agrees with a char-by-char reference
    /// scan on escapes, multi-byte text, whitespace inside and outside
    /// strings, and unterminated input.
    #[test]
    fn compact_matches_the_char_by_char_reference() {
        fn reference(rendered: &str) -> String {
            let (mut out, mut in_string, mut escaped) = (String::new(), false, false);
            for c in rendered.chars() {
                if in_string {
                    out.push(c);
                    if escaped {
                        escaped = false;
                    } else if c == '\\' {
                        escaped = true;
                    } else if c == '"' {
                        in_string = false;
                    }
                } else if !matches!(c, ' ' | '\t' | '\n' | '\r') {
                    in_string = c == '"';
                    out.push(c);
                }
            }
            out
        }
        for case in [
            "",
            "   ",
            "{ \"π → λ\" : [ 1 ,\t2 ]\r\n}",
            "{\"a\": \"x \\\" y\", \"b\": \"\\\\\" }",
            "{\"é\\é\": \"tab\there\"}  ",
            "{\"open\": \"never closed ",
            "{\"trailing\": \"\\",
            "  x  y  \"  z  \"  w  ",
        ] {
            assert_eq!(compact(case), reference(case), "{case:?}");
        }
        let rendered = polyflow_sim::SimResult::default().to_json();
        assert_eq!(compact(&rendered), reference(&rendered));
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

    #[test]
    fn object_writer_nests_and_parses() {
        let inner = ObjectWriter::new().u64("n", 3).bool("up", false);
        let parsed = parse("{\"z\":1,\"a\":[true]}").unwrap();
        let text = ObjectWriter::new()
            .bool("ok", true)
            .str("addr", "h:1 \"q\"\n")
            .object("inner", inner)
            .objects("list", (0..3).map(|i| ObjectWriter::new().u64("i", i)))
            .objects("none", std::iter::empty())
            .value("parsed", &parsed)
            .value("missing", &Json::Null)
            .object("empty", ObjectWriter::new())
            .finish();
        assert_eq!(
            text,
            "{\"ok\":true,\"addr\":\"h:1 \\\"q\\\"\\n\",\"inner\":{\"n\":3,\"up\":false},\
             \"list\":[{\"i\":0},{\"i\":1},{\"i\":2}],\"none\":[],\
             \"parsed\":{\"a\":[true],\"z\":1},\"missing\":null,\"empty\":{}}"
        );
        let v = parse(&text).unwrap();
        assert_eq!(v.get("addr").unwrap().as_str(), Some("h:1 \"q\"\n"));
        assert_eq!(v.get("inner").unwrap().get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("list").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("parsed"), Some(&parsed));
    }

    #[test]
    fn compact_is_single_line_for_sim_results() {
        let r = polyflow_sim::SimResult::default();
        let c = compact(&r.to_json());
        assert!(!c.contains('\n'));
        assert!(c.starts_with('{') && c.ends_with('}'));
        // And it still parses.
        parse(&c).unwrap();
    }
}
