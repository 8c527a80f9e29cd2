//! `bench diff`: the regression gate between two campaign documents
//! of one kind, and the JSON reader it (and serve) parse with.
//!
//! Each field is compared by the [`Class`] its document kind declares in
//! [`crate::schema`]; no rule here looks at a key's name:
//!
//! * **deterministic** fields (simulation reports, aggregates, labels,
//!   statuses, the harness's accounting) must be equal, shape and value;
//! * **wall** fields (durations, stage nanoseconds, latency quantiles)
//!   fail only when they grow past [`CRASH_RATIO`] above a 10 ms noise
//!   floor, and **throughput** fields only when they shrink past it. A
//!   document is one sample, and one 24-run sweep's runs/s spreads
//!   467–889 over runs of one build, so these are crash bounds;
//!   perfbench's medians over repeated trials, gated at 0.25, are the
//!   measured gate;
//! * **counter** fields (serve's `invariant_violations`) fail on any
//!   increase;
//! * **drill** fields (serve's overload counters, stage `calls`) fail
//!   when a nonzero value collapses to zero: the drill stopped
//!   exercising what it drills, or the engine stopped reading its stage
//!   clocks. A NEW sweep with nonzero `journal_skips` is exempt, because
//!   journal-restored cells carry no profile;
//! * when NEW restored **every** cell from a journal (`journal_skips`
//!   equals `harness.cells`), no cell ran, so a `null` wall field (the
//!   quantiles of no cells) and a zero throughput are not measurements
//!   and are skipped; a document with any cell run still gates both;
//! * **free** fields (`threads`, `journal_skips`, serve's traffic
//!   tallies) are not compared.
//!
//! A key missing from one side, or declared nowhere, is schema drift.
//!
//! The JSON reader is a ~150-line recursive descent, so the bench crate
//! stays dependency-free. Its nesting depth is bounded, so hostile input
//! is an error, never a stack overflow.

use std::fmt;

use crate::json::{json_array, json_object, ToJson};
use crate::schema::{Class, Schema};

/// A parsed JSON value. Object member order is preserved (the campaign
/// documents are deterministic, so order is meaningful for diffs).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true`/`false`.
    Bool(bool),
    /// Any number (f64 precision suffices for the documents' values).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses a complete JSON document.
    ///
    /// # Errors
    ///
    /// A human-readable message with the byte offset of the failure.
    pub fn parse(s: &str) -> Result<JsonValue, String> {
        let mut p = Parser::new(s);
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            JsonValue::Null => "null",
            JsonValue::Bool(_) => "bool",
            JsonValue::Num(_) => "number",
            JsonValue::Str(_) => "string",
            JsonValue::Arr(_) => "array",
            JsonValue::Obj(_) => "object",
        }
    }
}

/// Compact JSON through the campaign documents' own writer: a [`deterministic_view`](crate::deterministic_view)
/// of a writer's document renders to the bytes the writer gave it.
impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&match self {
            JsonValue::Null => "null".to_owned(),
            JsonValue::Bool(b) => b.to_json(),
            JsonValue::Num(n) => n.to_json(),
            JsonValue::Str(s) => s.to_json(),
            JsonValue::Arr(items) => json_array(items.iter().map(JsonValue::to_string)),
            JsonValue::Obj(members) => {
                let members: Vec<_> = members
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.to_string()))
                    .collect();
                json_object(&members)
            }
        })
    }
}

/// How deeply arrays and objects may nest. The reader recurses once per
/// level, so an unbounded depth would let a small hostile body (serve
/// parses request bodies with it) overflow the thread's stack; the
/// documents it reads nest a handful of levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn lit(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.bytes.get(self.pos) {
            Some(b'n') => self.lit("null", JsonValue::Null),
            Some(b't') => self.lit("true", JsonValue::Bool(true)),
            Some(b'f') => self.lit("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(&open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(_) => self.number(),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number bytes"))?;
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("invalid number `{text}` at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"', "expected `\"`")?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Campaign documents never emit surrogate
                            // pairs; map unpaired surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash at
                    // once: both are ASCII, so the run is whole UTF-8.
                    let start = self.pos;
                    let run = self.bytes[start..]
                        .iter()
                        .position(|b| matches!(b, b'"' | b'\\'));
                    self.pos = run.map_or(self.bytes.len(), |n| start + n);
                    let run = self.text.get(start..self.pos);
                    out.push_str(run.ok_or_else(|| self.err("invalid UTF-8"))?);
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.eat(b'[', "expected `[`")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.eat(b'{', "expected `{`")?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected `:`")?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

/// The growth of a wall-clock field, and the shrinkage of a throughput,
/// that fails the gate. A crash bound, not a measurement: one sweep's
/// runs/s spreads ~2× over runs of one build, so only perfbench's
/// medians over repeated trials can gate a smaller change.
pub const CRASH_RATIO: f64 = 5.0;

/// One gate failure.
#[derive(Debug, Clone)]
pub struct Regression {
    /// Dotted path of the offending field (e.g. `stages.event_dispatch.ns`).
    pub path: String,
    /// What moved and by how much.
    pub detail: String,
}

impl fmt::Display for Regression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path, self.detail)
    }
}

/// The outcome of a document diff.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// The shared schema tag of the two documents.
    pub schema: String,
    /// Fields compared.
    pub checks: u64,
    /// Gate failures, in document order.
    pub regressions: Vec<Regression>,
}

impl DiffReport {
    /// Whether any gate failed.
    pub fn is_regression(&self) -> bool {
        !self.regressions.is_empty()
    }
}

/// Diffs two campaign documents of the same schema, each field by its
/// declared [`Class`].
///
/// # Errors
///
/// A parse failure, a missing or unknown `schema` field, or a schema
/// mismatch between the two documents (that last one is drift, not a
/// measurable regression, so it is an error rather than a report).
pub fn diff_documents(old: &str, new: &str) -> Result<DiffReport, String> {
    let old = JsonValue::parse(old).map_err(|e| format!("OLD document: {e}"))?;
    let new = JsonValue::parse(new).map_err(|e| format!("NEW document: {e}"))?;
    let schema = Schema::of(&old).map_err(|e| format!("OLD {e}"))?;
    let new_schema = Schema::of(&new).map_err(|e| format!("NEW {e}"))?;
    if schema.tag != new_schema.tag {
        return Err(format!(
            "schema drift: OLD is `{}`, NEW is `{}`",
            schema.tag, new_schema.tag
        ));
    }
    let journal_skips = new.get("journal_skips");
    let mut diff = Differ {
        schema,
        journal_restored: journal_skips.is_some_and(|n| *n != JsonValue::Num(0.0)),
        all_restored: journal_skips.is_some()
            && journal_skips == new.get("harness").and_then(|h| h.get("cells")),
        checks: 0,
        regressions: Vec::new(),
    };
    diff.walk(&old, &new, &mut Vec::new());
    Ok(DiffReport {
        schema: schema.tag.to_owned(),
        checks: diff.checks,
        regressions: diff.regressions,
    })
}

struct Differ {
    schema: &'static Schema,
    /// Whether NEW restored cells from a journal (nonzero
    /// `journal_skips`); those cells carry no stage profile.
    journal_restored: bool,
    /// Whether NEW restored every cell from a journal (`journal_skips`
    /// equals `harness.cells`, which every campaign document carries):
    /// it ran nothing, so has no wall time or throughput.
    all_restored: bool,
    checks: u64,
    regressions: Vec<Regression>,
}

impl Differ {
    fn fail(&mut self, path: &[String], detail: String) {
        self.regressions.push(Regression {
            path: if path.is_empty() {
                "<root>".to_owned()
            } else {
                path.join(".")
            },
            detail,
        });
    }

    fn walk(&mut self, old: &JsonValue, new: &JsonValue, path: &mut Vec<String>) {
        let class = match self.schema.class(path) {
            Ok(class) => class.unwrap_or(Class::Deterministic),
            Err(undeclared) => return self.fail(path, format!("schema drift: {undeclared}")),
        };
        match (old, new) {
            (JsonValue::Obj(old_members), JsonValue::Obj(new_members)) => {
                let keys = |members: &[(String, JsonValue)]| -> Vec<String> {
                    members.iter().map(|(k, _)| k.clone()).collect()
                };
                let (old_keys, new_keys) = (keys(old_members), keys(new_members));
                if old_keys != new_keys {
                    let missing: Vec<_> =
                        old_keys.iter().filter(|k| !new_keys.contains(k)).collect();
                    let added: Vec<_> = new_keys.iter().filter(|k| !old_keys.contains(k)).collect();
                    return self.fail(
                        path,
                        format!("schema drift: keys removed {missing:?}, added {added:?}"),
                    );
                }
                for ((key, o), (_, n)) in old_members.iter().zip(new_members) {
                    path.push(key.clone());
                    self.walk(o, n, path);
                    path.pop();
                }
            }
            (JsonValue::Arr(old_items), JsonValue::Arr(new_items)) => {
                if old_items.len() != new_items.len() {
                    let (o, n) = (old_items.len(), new_items.len());
                    return self.fail(path, format!("schema drift: array length {o} -> {n}"));
                }
                for (i, (o, n)) in old_items.iter().zip(new_items).enumerate() {
                    path.push(i.to_string());
                    self.walk(o, n, path);
                    path.pop();
                }
            }
            _ => self.leaf(class, old, new, path),
        }
    }

    fn leaf(&mut self, class: Class, old: &JsonValue, new: &JsonValue, path: &[String]) {
        if class == Class::Free {
            return;
        }
        let never_ran = match (class, new) {
            (Class::Wall(_), JsonValue::Null) => true,
            (Class::Throughput, JsonValue::Num(n)) => *n == 0.0,
            _ => false,
        };
        if never_ran && self.all_restored {
            return;
        }
        self.checks += 1;
        if old.kind() != new.kind() {
            let detail = format!("schema drift: {} -> {}", old.kind(), new.kind());
            return self.fail(path, detail);
        }
        let (Some(o), Some(n)) = (old.as_num(), new.as_num()) else {
            if old != new {
                self.fail(path, format!("{old} -> {new}"));
            }
            return;
        };
        let finite = o.is_finite() && n.is_finite();
        let detail = match class {
            Class::Wall(floor) => (finite && n > o.max(floor) * CRASH_RATIO)
                .then(|| format!("wall time grew more than {CRASH_RATIO}x: {o:.2} -> {n:.2}")),
            Class::Throughput => (finite && o > 0.0 && n < o / CRASH_RATIO)
                .then(|| format!("throughput fell more than {CRASH_RATIO}x: {o:.2} -> {n:.2}")),
            Class::Counter => (n > o).then(|| format!("counter increased: {o} -> {n}")),
            Class::Drill => (o > 0.0 && n == 0.0 && !self.journal_restored)
                .then(|| format!("nonzero value collapsed to zero: {o} -> {n}")),
            Class::Deterministic | Class::Free => (o != n).then(|| format!("{old} -> {new}")),
        };
        if let Some(detail) = detail {
            self.fail(path, detail);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The decoder [`Parser::string`] replaced, which re-validated the
    /// rest of the input for every character: the reference it must
    /// agree with.
    impl Parser<'_> {
        fn reference_string(&mut self) -> Result<String, String> {
            self.eat(b'"', "expected `\"`")?;
            let mut out = String::new();
            loop {
                match self.bytes.get(self.pos) {
                    None => return Err(self.err("unterminated string")),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        let esc = *self
                            .bytes
                            .get(self.pos)
                            .ok_or_else(|| self.err("unterminated escape"))?;
                        self.pos += 1;
                        match esc {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b'r' => out.push('\r'),
                            b't' => out.push('\t'),
                            b'b' => out.push('\u{8}'),
                            b'f' => out.push('\u{c}'),
                            b'u' => {
                                let hex = self
                                    .bytes
                                    .get(self.pos..self.pos + 4)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .ok_or_else(|| self.err("truncated \\u escape"))?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| self.err("invalid \\u escape"))?;
                                self.pos += 4;
                                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            }
                            _ => return Err(self.err("unknown escape")),
                        }
                    }
                    Some(_) => {
                        let rest = std::str::from_utf8(&self.bytes[self.pos..])
                            .map_err(|_| self.err("invalid UTF-8"))?;
                        let c = rest.chars().next().ok_or_else(|| self.err("empty"))?;
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }
    }

    /// Decodes every string of `doc` with both decoders, asserting equal
    /// results and end positions; returns how many there were.
    fn decoders_agree(doc: &str) -> usize {
        let mut p = Parser::new(doc);
        let mut strings = 0;
        while p.pos < doc.len() {
            if p.bytes[p.pos] != b'"' {
                p.pos += 1;
                continue;
            }
            let mut reference = Parser::new(doc);
            reference.pos = p.pos;
            let (want, got) = (reference.reference_string(), p.string());
            assert_eq!(got, want, "string at byte {}", reference.pos);
            if got.is_err() {
                return strings;
            }
            assert_eq!(p.pos, reference.pos);
            strings += 1;
        }
        strings
    }

    #[test]
    fn string_decoder_agrees_with_the_reference_on_every_committed_document() {
        for doc in COMMITTED {
            assert!(decoders_agree(doc) > 10);
        }
    }

    #[test]
    fn string_decoder_agrees_with_the_reference_on_escapes_and_multibyte_text() {
        for doc in [
            r#""plain" "h\u00e9llo → ✓ 𝄞 ünïcödé""#,
            r#""a\"b\\c\/d\n\r\t\b\f" "\u0041\u00e9\u2713\ud834x" "é\"é""#,
            r#""""#,
            r#""unterminated"#,
            r#""tail\"#,
            r#""short \u12"#,
            r#""bad \uZZZZ""#,
            r#""bad \x""#,
            r#""split \u00é""#,
        ] {
            decoders_agree(doc);
        }
        assert_eq!(decoders_agree(r#"["é", "\u00e9", "\"→\""]"#), 3);
    }

    #[test]
    fn parser_round_trips_document_shapes() {
        let v = JsonValue::parse(
            "{\"a\":[1,2.5,-3e2],\"s\":\"x\\\"y\\u0041\",\"b\":true,\"n\":null,\"o\":{}}",
        )
        .unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &JsonValue::Arr(vec![
                JsonValue::Num(1.0),
                JsonValue::Num(2.5),
                JsonValue::Num(-300.0),
            ])
        );
        assert_eq!(v.get("s").unwrap().as_str(), Some("x\"yA"));
        assert_eq!(v.get("b").unwrap(), &JsonValue::Bool(true));
        assert_eq!(v.get("n").unwrap(), &JsonValue::Null);
        assert!(JsonValue::parse("{\"a\":}").is_err());
        assert!(JsonValue::parse("[1,2] trailing").is_err());
    }

    #[test]
    fn nesting_is_bounded_so_deep_input_is_an_error_not_a_stack_overflow() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(JsonValue::parse(&nested(MAX_DEPTH)).is_ok());
        let err = JsonValue::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128 levels"), "{err}");
        assert!(JsonValue::parse(&"{\"a\":".repeat(MAX_DEPTH + 1)).is_err());
        // Far deeper than any stack holds, on a thread with the default
        // 2 MiB stack: unbounded recursion would abort the process.
        let deep = std::thread::spawn(|| JsonValue::parse(&"[".repeat(65_536)).is_err());
        assert!(deep
            .join()
            .expect("the parser returns instead of overflowing"));
    }

    fn doc(runs_per_sec: f64, dispatch_ns: u64, energy: f64, poisoned: u64) -> String {
        format!(
            "{{\"schema\":\"simty-bench-sweep/v1\",\"threads\":8,\"runs\":2,\
             \"total_wall_ms\":100,\"runs_per_sec\":{runs_per_sec},\"journal_skips\":0,\
             \"harness\":{{\"cells\":2,\"ok\":2,\"poisoned\":{poisoned}}},\
             \"stages\":{{\"event_dispatch\":{{\"ns\":{dispatch_ns},\"calls\":10}}}},\
             \"results\":[{{\"label\":\"a\",\"status\":\"ok\",\"report\":{{\"energy_mj\":{energy}}}}}]}}"
        )
    }

    #[test]
    fn identical_documents_pass() {
        let d = doc(400.0, 50_000_000, 1234.5, 0);
        let report = diff_documents(&d, &d).unwrap();
        assert!(!report.is_regression(), "{:?}", report.regressions);
        assert_eq!(report.schema, "simty-bench-sweep/v1");
        assert!(report.checks > 5);
    }

    #[test]
    fn wall_noise_within_ratio_passes() {
        let old = doc(400.0, 50_000_000, 1234.5, 0);
        let new = doc(150.0, 120_000_000, 1234.5, 0);
        let report = diff_documents(&old, &new).unwrap();
        assert!(!report.is_regression(), "{:?}", report.regressions);
    }

    #[test]
    fn throughput_cliff_fails() {
        let old = doc(400.0, 50_000_000, 1234.5, 0);
        let new = doc(40.0, 50_000_000, 1234.5, 0);
        let report = diff_documents(&old, &new).unwrap();
        assert!(report.is_regression());
        assert!(report.regressions[0].path.contains("runs_per_sec"));
    }

    #[test]
    fn stage_time_blowup_fails() {
        let old = doc(400.0, 50_000_000, 1234.5, 0);
        let new = doc(400.0, 500_000_000, 1234.5, 0);
        let report = diff_documents(&old, &new).unwrap();
        assert!(report.is_regression());
        assert!(report.regressions[0].path.ends_with("event_dispatch.ns"));
    }

    #[test]
    fn a_vanished_stage_profile_fails() {
        let old = doc(400.0, 50_000_000, 1234.5, 0);
        let new = doc(400.0, 0, 1234.5, 0).replacen("\"calls\":10", "\"calls\":0", 1);
        let report = diff_documents(&old, &new).unwrap();
        assert_eq!(report.regressions.len(), 1, "{:?}", report.regressions);
        assert!(report.regressions[0].path.ends_with("event_dispatch.calls"));
        assert!(report.regressions[0].detail.contains("collapsed to zero"));
    }

    #[test]
    fn a_journal_restored_sweep_may_carry_no_stage_profile() {
        let old = doc(400.0, 50_000_000, 1234.5, 0);
        let new = doc(400.0, 0, 1234.5, 0)
            .replacen("\"calls\":10", "\"calls\":0", 1)
            .replacen("\"journal_skips\":0", "\"journal_skips\":2", 1);
        let report = diff_documents(&old, &new).unwrap();
        assert!(!report.is_regression(), "{:?}", report.regressions);
    }

    /// `doc` as a run that restored `skipped` of its 2 cells from a
    /// journal and ran the rest: with every cell restored, the
    /// wall-time quantiles are `null` and the throughput is 0.
    fn restored(skipped: u64, runs_per_sec: f64) -> String {
        let quantiles = if skipped == 2 {
            "null"
        } else {
            "{\"q50\":4.0,\"max\":5.0}"
        };
        doc(runs_per_sec, 50_000_000, 1234.5, 0)
            .replacen(
                "\"journal_skips\":0",
                &format!("\"journal_skips\":{skipped}"),
                1,
            )
            .replacen(
                "\"harness\"",
                &format!("\"quantiles\":{{\"cell_wall_ms\":{quantiles}}},\"harness\""),
                1,
            )
    }

    #[test]
    fn a_sweep_whose_every_cell_was_restored_diffs_clean() {
        let fresh = restored(0, 400.0);
        let report = diff_documents(&fresh, &restored(2, 0.0)).unwrap();
        assert!(!report.is_regression(), "{:?}", report.regressions);
    }

    #[test]
    fn a_fresh_null_wall_or_a_partly_restored_zero_throughput_still_fails() {
        let fresh = restored(0, 400.0);
        // A document that ran its cells and lost their wall times.
        let lost = fresh.replacen("{\"q50\":4.0,\"max\":5.0}", "null", 1);
        let report = diff_documents(&fresh, &lost).unwrap();
        assert_eq!(report.regressions.len(), 1, "{:?}", report.regressions);
        assert_eq!(report.regressions[0].path, "quantiles.cell_wall_ms");
        assert!(report.regressions[0].detail.contains("schema drift"));
        // A document that ran one cell and reports no throughput.
        let report = diff_documents(&fresh, &restored(1, 0.0)).unwrap();
        assert_eq!(report.regressions.len(), 1, "{:?}", report.regressions);
        assert_eq!(report.regressions[0].path, "runs_per_sec");
    }

    /// A fleet document, which has no `runs`, that restored `skipped`
    /// of its 2 shard cells from a journal and ran the rest.
    fn fleet(skipped: u64, devices_per_sec: f64) -> String {
        let cell_wall_ms = if skipped == 2 {
            "null"
        } else {
            "{\"q50\":4.0,\"max\":5.0}"
        };
        format!(
            "{{\"schema\":\"simty-fleet/v1\",\"devices\":8,\"shards\":2,\"seed\":1,\
             \"duration_ms\":60000,\"policies\":[\"NATIVE\"],\"threads\":2,\
             \"total_wall_ms\":10,\"devices_per_sec\":{devices_per_sec},\
             \"journal_skips\":{skipped},\"quantiles\":{{\"cell_wall_ms\":{cell_wall_ms},\
             \"device_power_mw\":{{\"q50\":87.5}}}},\
             \"harness\":{{\"cells\":2,\"ok\":2,\"poisoned\":0}},\"metrics\":{{}},\
             \"aggregates\":[],\"cells\":[{{\"label\":\"NATIVE/shard00\",\"status\":\"ok\"}}]}}"
        )
    }

    #[test]
    fn a_fleet_whose_every_cell_was_restored_diffs_clean() {
        let fresh = fleet(0, 400.0);
        let report = diff_documents(&fresh, &fleet(2, 0.0)).unwrap();
        assert!(!report.is_regression(), "{:?}", report.regressions);
        // One shard cell ran, so its missing throughput is a regression.
        let report = diff_documents(&fresh, &fleet(1, 0.0)).unwrap();
        assert_eq!(report.regressions.len(), 1, "{:?}", report.regressions);
        assert_eq!(report.regressions[0].path, "devices_per_sec");
    }

    #[test]
    fn deterministic_drift_fails() {
        let old = doc(400.0, 50_000_000, 1234.5, 0);
        let new = doc(400.0, 50_000_000, 1300.0, 0);
        let report = diff_documents(&old, &new).unwrap();
        assert!(report.is_regression());
        assert!(report.regressions[0].path.ends_with("energy_mj"));
    }

    #[test]
    fn new_poisoned_cell_fails() {
        let old = doc(400.0, 50_000_000, 1234.5, 0);
        let new = doc(400.0, 50_000_000, 1234.5, 1);
        let report = diff_documents(&old, &new).unwrap();
        assert!(report.is_regression());
        assert!(report.regressions[0].path.ends_with("harness.poisoned"));
    }

    #[test]
    fn schema_mismatch_is_an_error() {
        let sweep = doc(400.0, 50_000_000, 1234.5, 0);
        let chaos = sweep.replacen("simty-bench-sweep/v1", "simty-bench-chaos/v1", 1);
        assert!(diff_documents(&sweep, &chaos)
            .unwrap_err()
            .contains("schema drift"));
        assert!(diff_documents("{}", &sweep).is_err());
    }

    fn serve_doc(rps: f64, q99: f64, shed: u64, timed_out: u64, violations: u64) -> String {
        format!(
            "{{\"schema\":\"simty-serve/v1\",\
             \"harness\":{{\"connections\":400,\"seed\":1,\"profile\":\"mixed\",\
             \"wall_ms\":900,\"rps\":{rps}}},\
             \"latency_ms\":{{\"q50\":1.2,\"q90\":3.4,\"q99\":{q99},\"max\":80.0}},\
             \"load\":{{\"sent\":1200,\"ok\":900,\"deferred\":40,\"rejected\":60,\
             \"shed\":{shed},\"timed_out\":{timed_out},\"net_errors\":7,\"client_faults\":33}},\
             \"server\":{{\"accepted\":390,\"completed\":390,\"shed\":{shed},\"drain_ms\":4,\
             \"invariant_violations\":{violations},\"net_faults\":12}}}}"
        )
    }

    #[test]
    fn serve_traffic_noise_passes_but_health_counters_gate() {
        let old = serve_doc(1300.0, 25.0, 18, 3, 0);
        // Tallies wobble, latency drifts under the ratio: all fine.
        let new = serve_doc(1100.0, 60.0, 9, 11, 0);
        let report = diff_documents(&old, &new).unwrap();
        assert!(!report.is_regression(), "{:?}", report.regressions);
        assert_eq!(report.schema, "simty-serve/v1");

        // A new invariant violation is always a regression.
        let broken = serve_doc(1300.0, 25.0, 18, 3, 1);
        let report = diff_documents(&old, &broken).unwrap();
        assert!(report.is_regression());
        assert!(report.regressions[0]
            .path
            .ends_with("server.invariant_violations"));
    }

    #[test]
    fn serve_shed_collapse_and_latency_blowup_fail() {
        let old = serve_doc(1300.0, 25.0, 18, 3, 0);
        let collapsed = serve_doc(1300.0, 25.0, 0, 3, 0);
        let report = diff_documents(&old, &collapsed).unwrap();
        assert!(report.is_regression());
        assert!(report.regressions.iter().all(|r| r.path.ends_with("shed")));

        let slow = serve_doc(1300.0, 250.0, 18, 3, 0);
        let report = diff_documents(&old, &slow).unwrap();
        assert!(report.is_regression());
        assert!(report.regressions[0].path.ends_with("latency_ms.q99"));

        let stalled = serve_doc(100.0, 25.0, 18, 3, 0);
        let report = diff_documents(&old, &stalled).unwrap();
        assert!(report.is_regression());
        assert!(report.regressions[0].detail.contains("throughput fell"));
    }

    #[test]
    fn key_drift_is_reported() {
        let old = doc(400.0, 50_000_000, 1234.5, 0);
        let new = old.replacen("\"threads\":8", "\"workers\":8", 1);
        let report = diff_documents(&old, &new).unwrap();
        assert!(report.is_regression());
        assert!(report.regressions[0].detail.contains("schema drift"));
    }

    #[test]
    fn an_undeclared_field_is_drift_even_against_itself() {
        let doc = doc(400.0, 50_000_000, 1234.5, 0).replacen("\"runs\"", "\"runs_total\"", 1);
        let report = diff_documents(&doc, &doc).unwrap();
        assert_eq!(report.regressions.len(), 1, "{:?}", report.regressions);
        assert_eq!(report.regressions[0].path, "runs_total");
        assert!(report.regressions[0].detail.contains("undeclared"));
    }

    /// The committed documents, each cut to its first two `results` or
    /// `cells` rows: every field kind stays, and a case parses in
    /// microseconds (the reader revalidates a string's remaining input
    /// per character, so a whole 200 kB document takes a second).
    const COMMITTED: [&str; 6] = [
        include_str!("../../../BENCH_sweep.json"),
        include_str!("../../../BENCH_chaos.json"),
        include_str!("../../../BENCH_soak.json"),
        include_str!("../../../BENCH_storm.json"),
        include_str!("../../../BENCH_fleet.json"),
        include_str!("../../../BENCH_serve.json"),
    ];

    fn committed() -> &'static [String] {
        static DOCS: std::sync::OnceLock<Vec<String>> = std::sync::OnceLock::new();
        DOCS.get_or_init(|| {
            COMMITTED
                .iter()
                .map(|text| {
                    let mut doc = JsonValue::parse(text).expect("a committed document parses");
                    if let JsonValue::Obj(members) = &mut doc {
                        for (key, rows) in members {
                            if let (JsonValue::Arr(rows), "results" | "cells") =
                                (rows, key.as_str())
                            {
                                rows.truncate(2);
                            }
                        }
                    }
                    doc.to_string()
                })
                .collect()
        })
    }

    /// One edit of a document: a bit flip, a cut, a renamed key, or a
    /// key's value replaced by one of another type.
    fn mutate(doc: &str, (kind, at, pick): (u8, usize, usize)) -> String {
        let key_ends: Vec<usize> = doc.match_indices("\":").map(|(i, _)| i).collect();
        let key_end = key_ends.get(at % key_ends.len().max(1)).copied();
        match (kind % 4, key_end) {
            (0, _) if !doc.is_empty() => {
                let mut bytes = doc.as_bytes().to_vec();
                bytes[at % doc.len()] ^= 1 << (pick % 8);
                String::from_utf8_lossy(&bytes).into_owned()
            }
            (1, _) => {
                let cut = (0..=at % (doc.len() + 1))
                    .rev()
                    .find(|&i| doc.is_char_boundary(i))
                    .unwrap_or(0);
                doc[..cut].to_owned()
            }
            (2, Some(end)) => format!("{}_renamed{}", &doc[..end], &doc[end..]),
            (3, Some(end)) => {
                let (head, rest) = doc.split_at(end + 2);
                let len = rest.find([',', '}', ']']).unwrap_or(rest.len());
                let value = ["null", "true", "7", "\"s\"", "[]", "{}"][pick % 6];
                format!("{head}{value}{}", &rest[len..])
            }
            _ => doc.to_owned(),
        }
    }

    #[test]
    fn the_cut_committed_documents_diff_clean() {
        for doc in committed() {
            let report = diff_documents(doc, doc).unwrap();
            assert!(!report.is_regression(), "{:?}", report.regressions);
            assert!(crate::deterministic_view(doc).is_ok());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Hostile documents: mutated committed documents diff to a
        /// report or an error, either way round, and never panic; so
        /// does their deterministic view. Both string decoders agree on
        /// them.
        #[test]
        fn mutated_committed_documents_diff_or_fail_typed(
            which in 0usize..6,
            edits in prop::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 1..4),
        ) {
            let committed = &committed()[which];
            let mutated = edits.iter().fold(committed.clone(), |doc, &edit| mutate(&doc, edit));
            let _ = diff_documents(committed, &mutated);
            let _ = diff_documents(&mutated, committed);
            let _ = crate::deterministic_view(&mutated);
            decoders_agree(&mutated);
        }
    }
}
