//! The wire codec: a hand-rolled JSON parser and the request/response
//! translation between HTTP bodies and the engine's typed structs.
//!
//! The parser is strict where it matters for robustness — depth-limited
//! recursion, no unescaped control characters, surrogate pairs handled,
//! trailing garbage rejected — and deliberately total: any byte sequence
//! produces either a [`Json`] value or an error string, never a panic.
//! Serialization reuses [`JsonWriter`] so
//! the `/metrics` endpoint, query responses, and the bench digests all
//! come from one serializer.
//!
//! ## Request shape (`POST /query`)
//!
//! ```json
//! {"k": 10,
//!  "users": "all" | [0, 7, 7] | {"range": [0, 128]},
//!  "exclude": {"3": [17, 99]}}
//! ```
//!
//! `users` defaults to `"all"`; `exclude` maps user ids (as decimal object
//! keys — JSON objects cannot have numeric keys) to item-id arrays.
//! Unknown fields are rejected so client typos surface as 400s instead of
//! silently serving the wrong query.
//!
//! ## Response shape
//!
//! ```json
//! {"backend": "maximus", "precision": "f64", "planned": true, "epoch": 0,
//!  "serve_seconds": 0.000123,
//!  "results": [{"items": [4, 1], "scores": [2.25, 1.5]}]}
//! ```
//!
//! Scores are rendered in Rust's shortest round-trippable decimal form, so
//! `str::parse::<f64>` on the client recovers the exact bits — the wire
//! preserves the engine's bit-identity guarantee.

use mips_core::engine::{
    ExclusionSet, QueryRequest, QueryResponse, QueryVector, UserSelection, VectorQueryRequest,
};
use mips_core::serve::JsonWriter;
use mips_data::sparse::SparseVec;

/// Maximum container nesting the parser accepts; deeper input is rejected
/// (depth bombs would otherwise exhaust the stack).
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true`/`false`.
    Bool(bool),
    /// Any JSON number (integers are recovered via [`Json::as_u64`]).
    Num(f64),
    /// A string, escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in input order; duplicate keys are kept (lookups return
    /// the first).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The object's fields, when this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The array's elements, when this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(elems) => Some(elems),
            _ => None,
        }
    }

    /// The string value, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, when this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an exact non-negative integer (rejects fractions,
    /// negatives, and magnitudes beyond 2^53 where f64 loses exactness).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_num()?;
        if n.is_finite() && n >= 0.0 && n.fract() == 0.0 && n <= 9_007_199_254_740_992.0 {
            Some(n as u64)
        } else {
            None
        }
    }

    /// First field with this key, when this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!(
            "trailing characters after JSON value at byte {}",
            p.pos
        ));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth >= MAX_DEPTH {
            return Err(format!("JSON nesting deeper than {MAX_DEPTH}"));
        }
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of JSON input".into()),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => {
                self.pos += 1;
                self.string().map(Json::Str)
            }
            Some(b't') => self.literal(b"true", Json::Bool(true)),
            Some(b'f') => self.literal(b"false", Json::Bool(false)),
            Some(b'n') => self.literal(b"null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(&b) => Err(format!(
                "unexpected byte 0x{b:02x} at position {}",
                self.pos
            )),
        }
    }

    fn literal(&mut self, word: &[u8], value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at position {}", self.pos))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.pos += 1; // past '{'
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b'"') {
                return Err(format!("expected object key at position {}", self.pos));
            }
            self.pos += 1;
            let key = self.string()?;
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b':') {
                return Err(format!("expected ':' at position {}", self.pos));
            }
            self.pos += 1;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at position {}", self.pos)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.pos += 1; // past '['
        let mut elems = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(elems));
        }
        loop {
            self.skip_ws();
            elems.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(elems));
                }
                _ => return Err(format!("expected ',' or ']' at position {}", self.pos)),
            }
        }
    }

    /// Parses a string body; `self.pos` is just past the opening quote.
    fn string(&mut self) -> Result<String, String> {
        let mut out = String::new();
        let mut run = self.pos; // start of the current verbatim run
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or("unterminated string literal")?;
            match b {
                b'"' => {
                    out.push_str(self.run_str(run)?);
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    out.push_str(self.run_str(run)?);
                    self.pos += 1;
                    let esc = *self.bytes.get(self.pos).ok_or("unterminated escape")?;
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
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(format!("invalid escape '\\{}'", esc as char)),
                    }
                    run = self.pos;
                }
                0x00..=0x1f => return Err("unescaped control character in string".into()),
                _ => self.pos += 1,
            }
        }
    }

    /// The verbatim bytes `run..self.pos` as UTF-8 (always valid: the input
    /// is a `&str` and both run delimiters are ASCII).
    fn run_str(&self, run: usize) -> Result<&str, String> {
        std::str::from_utf8(&self.bytes[run..self.pos]).map_err(|_| "invalid UTF-8".into())
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let chunk = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape")?;
        let mut v = 0u32;
        for &b in chunk {
            v = v * 16
                + match b {
                    b'0'..=b'9' => (b - b'0') as u32,
                    b'a'..=b'f' => (b - b'a' + 10) as u32,
                    b'A'..=b'F' => (b - b'A' + 10) as u32,
                    _ => return Err("non-hex digit in \\u escape".into()),
                };
        }
        self.pos += 4;
        Ok(v)
    }

    /// Resolves `\uXXXX` (pos just past the `u`), including surrogate
    /// pairs.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let first = self.hex4()?;
        let code = match first {
            0xD800..=0xDBFF => {
                if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                    return Err("high surrogate not followed by \\u escape".into());
                }
                self.pos += 2;
                let low = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&low) {
                    return Err("invalid low surrogate".into());
                }
                0x10000 + ((first - 0xD800) << 10) + (low - 0xDC00)
            }
            0xDC00..=0xDFFF => return Err("lone low surrogate".into()),
            c => c,
        };
        char::from_u32(code).ok_or_else(|| format!("invalid code point U+{code:04X}"))
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut digits = 0;
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
            digits += 1;
        }
        if digits == 0 {
            return Err(format!("invalid number at position {start}"));
        }
        if self.bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            let mut frac = 0;
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
                frac += 1;
            }
            if frac == 0 {
                return Err(format!("digits required after '.' at position {start}"));
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let mut exp = 0;
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
                exp += 1;
            }
            if exp == 0 {
                return Err(format!("digits required in exponent at position {start}"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid UTF-8 in number")?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("unparseable number {text:?}: {e}"))
    }
}

/// Decodes a `POST /query` body into the engine's request struct. Errors
/// are human-readable strings the caller wraps into a 400 response.
pub fn decode_query_request(body: &[u8]) -> Result<QueryRequest, String> {
    let text = std::str::from_utf8(body).map_err(|_| "request body is not valid UTF-8")?;
    let doc = parse(text)?;
    let fields = doc.as_obj().ok_or("request body must be a JSON object")?;
    let mut request = None;
    for (key, _) in fields {
        if !matches!(key.as_str(), "k" | "users" | "exclude") {
            return Err(format!(
                "unknown field {key:?} (expected \"k\", \"users\", \"exclude\")"
            ));
        }
    }
    if let Some(k) = doc.get("k") {
        let k = k.as_u64().ok_or("\"k\" must be a non-negative integer")?;
        request = Some(QueryRequest::top_k(
            usize::try_from(k).map_err(|_| "\"k\" too large")?,
        ));
    }
    let mut request = request.ok_or("missing required field \"k\"")?;
    if let Some(users) = doc.get("users") {
        request.users = decode_users(users)?;
    }
    if let Some(exclude) = doc.get("exclude") {
        let pairs = decode_exclusions(exclude)?;
        if !pairs.is_empty() {
            request = request.exclude(ExclusionSet::from_pairs(pairs));
        }
    }
    Ok(request)
}

fn decode_users(users: &Json) -> Result<UserSelection, String> {
    match users {
        Json::Str(s) if s == "all" => Ok(UserSelection::All),
        Json::Arr(ids) => {
            let mut out = Vec::with_capacity(ids.len());
            for id in ids {
                let id = id
                    .as_u64()
                    .ok_or("\"users\" ids must be non-negative integers")?;
                out.push(usize::try_from(id).map_err(|_| "\"users\" id too large")?);
            }
            Ok(UserSelection::Ids(out))
        }
        Json::Obj(_) => {
            let range = users
                .get("range")
                .and_then(Json::as_arr)
                .ok_or("\"users\" object must be {\"range\": [lo, hi]}")?;
            if range.len() != 2 {
                return Err("\"range\" must hold exactly [lo, hi]".into());
            }
            let lo = range[0]
                .as_u64()
                .ok_or("\"range\" bounds must be non-negative integers")?;
            let hi = range[1]
                .as_u64()
                .ok_or("\"range\" bounds must be non-negative integers")?;
            let lo = usize::try_from(lo).map_err(|_| "\"range\" bound too large")?;
            let hi = usize::try_from(hi).map_err(|_| "\"range\" bound too large")?;
            Ok(UserSelection::Range(lo..hi))
        }
        _ => Err("\"users\" must be \"all\", an id array, or {\"range\": [lo, hi]}".into()),
    }
}

fn decode_exclusions(exclude: &Json) -> Result<Vec<(usize, u32)>, String> {
    let fields = exclude
        .as_obj()
        .ok_or("\"exclude\" must be an object of user id -> item array")?;
    let mut pairs = Vec::new();
    for (user, items) in fields {
        let user: usize = user
            .parse()
            .map_err(|_| format!("\"exclude\" key {user:?} is not a user id"))?;
        let items = items
            .as_arr()
            .ok_or("\"exclude\" values must be item-id arrays")?;
        for item in items {
            let item = item
                .as_u64()
                .ok_or("excluded item ids must be non-negative integers")?;
            let item = u32::try_from(item).map_err(|_| "excluded item id too large")?;
            pairs.push((user, item));
        }
    }
    Ok(pairs)
}

/// Decodes a `POST /vector-query` body into the engine's ad-hoc vector
/// request. Two payload encodings, scored bit-identically by the engine:
///
/// ```json
/// {"k": 10, "vector": [0.25, 0.0, -1.5]}
/// {"k": 10, "vector": {"dim": 3, "indices": [0, 2], "values": [0.25, -1.5]}}
/// ```
///
/// The sparse form must list `indices` strictly ascending with finite,
/// nonzero `values`; violations are decode errors (400), mirroring
/// [`SparseVec::new`]'s own validation. Unknown fields are rejected like
/// the `/query` codec.
pub fn decode_vector_query_request(body: &[u8]) -> Result<VectorQueryRequest, String> {
    let text = std::str::from_utf8(body).map_err(|_| "request body is not valid UTF-8")?;
    let doc = parse(text)?;
    let fields = doc.as_obj().ok_or("request body must be a JSON object")?;
    for (key, _) in fields {
        if !matches!(key.as_str(), "k" | "vector") {
            return Err(format!(
                "unknown field {key:?} (expected \"k\", \"vector\")"
            ));
        }
    }
    let k = doc
        .get("k")
        .ok_or("missing required field \"k\"")?
        .as_u64()
        .ok_or("\"k\" must be a non-negative integer")?;
    let k = usize::try_from(k).map_err(|_| "\"k\" too large")?;
    let vector = decode_vector(
        doc.get("vector")
            .ok_or("missing required field \"vector\"")?,
    )?;
    Ok(VectorQueryRequest { k, vector })
}

fn decode_vector(vector: &Json) -> Result<QueryVector, String> {
    match vector {
        Json::Arr(elems) => {
            let mut out = Vec::with_capacity(elems.len());
            for v in elems {
                out.push(
                    v.as_num()
                        .ok_or("dense \"vector\" entries must be numbers")?,
                );
            }
            Ok(QueryVector::Dense(out))
        }
        Json::Obj(fields) => {
            for (key, _) in fields {
                if !matches!(key.as_str(), "dim" | "indices" | "values") {
                    return Err(format!(
                        "unknown field {key:?} in sparse vector \
                         (expected \"dim\", \"indices\", \"values\")"
                    ));
                }
            }
            let dim = vector
                .get("dim")
                .ok_or("sparse vector needs \"dim\"")?
                .as_u64()
                .ok_or("\"dim\" must be a non-negative integer")?;
            let dim = usize::try_from(dim).map_err(|_| "\"dim\" too large")?;
            let indices = vector
                .get("indices")
                .and_then(Json::as_arr)
                .ok_or("sparse vector needs an \"indices\" array")?;
            let values = vector
                .get("values")
                .and_then(Json::as_arr)
                .ok_or("sparse vector needs a \"values\" array")?;
            let mut idx = Vec::with_capacity(indices.len());
            for i in indices {
                let i = i
                    .as_u64()
                    .ok_or("\"indices\" entries must be non-negative integers")?;
                idx.push(u32::try_from(i).map_err(|_| "\"indices\" entry too large")?);
            }
            let mut vals = Vec::with_capacity(values.len());
            for v in values {
                vals.push(v.as_num().ok_or("\"values\" entries must be numbers")?);
            }
            let sparse = SparseVec::new(dim, idx, vals)
                .map_err(|e| format!("invalid sparse vector: {e}"))?;
            Ok(QueryVector::Sparse(sparse))
        }
        _ => Err("\"vector\" must be a dense number array or a sparse \
                  {\"dim\", \"indices\", \"values\"} object"
            .into()),
    }
}

/// Renders a [`QueryResponse`] as the `POST /query` response body.
pub fn encode_response(response: &QueryResponse) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.field_str("backend", &response.backend);
    w.field_str("precision", response.precision.as_str());
    w.field_bool("planned", response.planned);
    w.field_u64("epoch", response.epoch);
    w.field_f64("serve_seconds", response.serve_seconds, 9);
    w.begin_arr_field("results");
    for list in &response.results {
        w.begin_obj();
        w.begin_arr_field("items");
        for &item in &list.items {
            w.push_u64(item as u64);
        }
        w.end_arr();
        w.begin_arr_field("scores");
        for &score in &list.scores {
            w.push_f64_shortest(score);
        }
        w.end_arr();
        w.end_obj();
    }
    w.end_arr();
    w.end_obj();
    w.finish()
}

/// Renders an error body: `{"error": message, "status": status}`.
pub fn encode_error(status: u16, message: &str) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.field_str("error", message);
    w.field_u64("status", status as u64);
    w.end_obj();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("-2.5e2").unwrap(), Json::Num(-250.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".into()));
        assert_eq!(
            parse("[1, [2], {}]").unwrap(),
            Json::Arr(vec![
                Json::Num(1.0),
                Json::Arr(vec![Json::Num(2.0)]),
                Json::Obj(vec![]),
            ])
        );
        let obj = parse("{\"a\": 1, \"b\": \"x\"}").unwrap();
        assert_eq!(obj.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(obj.get("b").and_then(Json::as_str), Some("x"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[",
            "\"",
            "{\"a\"}",
            "{\"a\":}",
            "[1,]",
            "{,}",
            "tru",
            "01a",
            "1.",
            "1e",
            "-",
            "\"\\q\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "[1] 2",
            "nul",
            "{\"a\":1,}",
            "\u{1}",
            "\"\u{1}\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn surrogate_pairs_resolve() {
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("\u{1F600}".into())
        );
    }

    #[test]
    fn depth_limit_rejects_nesting_bombs() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(parse(&deep).unwrap_err().contains("nesting"));
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn decodes_each_request_shape() {
        let all = decode_query_request(b"{\"k\": 5}").unwrap();
        assert_eq!(all.k, 5);
        assert_eq!(all.users, UserSelection::All);
        assert!(all.exclude.is_none());

        let ids = decode_query_request(b"{\"k\": 3, \"users\": [4, 4, 0]}").unwrap();
        assert_eq!(ids.users, UserSelection::Ids(vec![4, 4, 0]));

        let range = decode_query_request(b"{\"k\": 3, \"users\": {\"range\": [2, 9]}}").unwrap();
        assert_eq!(range.users, UserSelection::Range(2..9));

        let excl =
            decode_query_request(b"{\"k\": 1, \"exclude\": {\"3\": [7, 9], \"0\": []}}").unwrap();
        let set = excl.exclude.unwrap();
        assert_eq!(set.count_for(3), 2);
        assert_eq!(set.count_for(0), 0);
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            &b"[]"[..],
            b"{}",
            b"{\"k\": -1}",
            b"{\"k\": 1.5}",
            b"{\"k\": \"5\"}",
            b"{\"k\": 1, \"users\": \"some\"}",
            b"{\"k\": 1, \"users\": {\"range\": [1]}}",
            b"{\"k\": 1, \"users\": {\"range\": [1, 2, 3]}}",
            b"{\"k\": 1, \"users\": [-1]}",
            b"{\"k\": 1, \"users\": 7}",
            b"{\"k\": 1, \"exclude\": {\"x\": [1]}}",
            b"{\"k\": 1, \"exclude\": {\"0\": 1}}",
            b"{\"k\": 1, \"exclude\": {\"0\": [4294967296]}}",
            b"{\"k\": 1, \"unknown\": true}",
            b"\xff\xfe",
        ] {
            assert!(
                decode_query_request(bad).is_err(),
                "{:?} should fail",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn decodes_vector_query_shapes() {
        let dense = decode_vector_query_request(b"{\"k\": 4, \"vector\": [0.5, 0, -1.5]}").unwrap();
        assert_eq!(dense.k, 4);
        assert_eq!(dense.vector, QueryVector::Dense(vec![0.5, 0.0, -1.5]));

        let sparse = decode_vector_query_request(
            b"{\"k\": 2, \"vector\": {\"dim\": 6, \"indices\": [1, 4], \"values\": [0.5, -2.0]}}",
        )
        .unwrap();
        assert_eq!(sparse.k, 2);
        match &sparse.vector {
            QueryVector::Sparse(v) => {
                assert_eq!(v.dim(), 6);
                assert_eq!(v.indices(), &[1, 4]);
                assert_eq!(v.values(), &[0.5, -2.0]);
            }
            other => panic!("expected sparse payload, got {other:?}"),
        }
        // The two encodings densify identically.
        assert_eq!(sparse.vector.densify(), vec![0.0, 0.5, 0.0, 0.0, -2.0, 0.0]);
    }

    #[test]
    fn rejects_malformed_vector_queries() {
        for bad in [
            &b"{\"vector\": [1.0]}"[..],                 // no k
            b"{\"k\": 1}",                               // no vector
            b"{\"k\": 1, \"vector\": 7}",                // scalar vector
            b"{\"k\": 1, \"vector\": [\"x\"]}",          // non-numeric entry
            b"{\"k\": 1, \"vector\": [1], \"typo\": 0}", // unknown field
            b"{\"k\": 1, \"vector\": {\"dim\": 4}}",     // missing postings
            b"{\"k\": 1, \"vector\": {\"dim\": 4, \"indices\": [2, 1], \"values\": [1, 1]}}", // unsorted
            b"{\"k\": 1, \"vector\": {\"dim\": 4, \"indices\": [1, 1], \"values\": [1, 1]}}", // dupes
            b"{\"k\": 1, \"vector\": {\"dim\": 2, \"indices\": [5], \"values\": [1]}}", // out of range
            b"{\"k\": 1, \"vector\": {\"dim\": 2, \"indices\": [0], \"values\": [1, 2]}}", // length skew
        ] {
            assert!(
                decode_vector_query_request(bad).is_err(),
                "{:?} should fail",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn response_roundtrips_score_bits() {
        use mips_topk::TopKList;
        let response = QueryResponse {
            results: vec![TopKList {
                items: vec![4, 1],
                scores: vec![0.1 + 0.2, 1.0 / 3.0],
            }],
            backend: "maximus".into(),
            precision: mips_core::precision::Precision::I8Rescore,
            planned: true,
            epoch: 3,
            serve_seconds: 0.25,
        };
        let body = encode_response(&response);
        let doc = parse(&body).unwrap();
        assert_eq!(doc.get("backend").and_then(Json::as_str), Some("maximus"));
        assert_eq!(
            doc.get("precision").and_then(Json::as_str),
            Some("i8-rescore")
        );
        assert_eq!(doc.get("epoch").and_then(Json::as_u64), Some(3));
        let results = doc.get("results").and_then(Json::as_arr).unwrap();
        let scores = results[0].get("scores").and_then(Json::as_arr).unwrap();
        for (wire, original) in scores.iter().zip(&response.results[0].scores) {
            assert_eq!(wire.as_num().unwrap().to_bits(), original.to_bits());
        }
    }

    #[test]
    fn error_body_is_parseable() {
        let body = encode_error(429, "server overloaded: \"queue\" full");
        let doc = parse(&body).unwrap();
        assert_eq!(doc.get("status").and_then(Json::as_u64), Some(429));
        assert!(doc
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("queue"));
    }
}
