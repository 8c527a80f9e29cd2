//! `bench diff`: a schema-aware regression differ over committed
//! campaign documents.
//!
//! Compares two campaign JSON documents of the same kind (any of the
//! six committed schemas — sweep, chaos, soak, storm, fleet, serve) and
//! reports *regressions*, classified by how each field is allowed to
//! move:
//!
//! * **wall-clock metrics** (`*_wall_ms`, stage `ns`, `cell_wall_ms`
//!   quantiles) may drift run-to-run; they fail only past a
//!   configurable ratio ([`DiffThresholds::max_wall_ratio`]) and only
//!   above a noise floor;
//! * **throughput metrics** (`runs_per_sec`, `devices_per_sec`) fail
//!   when they *shrink* past the same ratio;
//! * **harness counters** (`poisoned`, `panics`, `timeouts`,
//!   `retries`) and histogram `nonfinite` quarantine counts fail on any
//!   increase;
//! * **deterministic payload** (reports, aggregates, statuses, labels,
//!   quantile estimates over sim-clock histograms) must agree within
//!   [`DiffThresholds::max_delta_pct`] percent (strings and shapes
//!   exactly) — a mismatch is either a real behavior change or schema
//!   drift, and both should stop CI;
//! * **per-invocation bookkeeping** (`journal_skips`, `threads`) is
//!   ignored;
//! * **service traffic tallies** (the `load` and `server` sections of a
//!   `simty-serve/v1` document) vary run to run and are mostly free,
//!   except: `invariant_violations` and `telemetry_dropped` fail on any
//!   increase, and the overload counters `shed`/`rejected`/`deferred`
//!   fail when a committed nonzero value collapses to zero — the drill
//!   stopped exercising backpressure, which is itself a regression. The
//!   `latency_ms` quantiles gate on the wall-clock ratio;
//! * **stage call counts** (`stages.*.calls`) gate on the wall-clock
//!   ratio, and also fail when a committed nonzero count collapses to
//!   zero: the engine stopped reading its stage clocks. Journal-restored
//!   cells carry no profile, so a NEW document with nonzero
//!   `journal_skips` is exempt from the collapse rule.
//!
//! The module carries its own ~150-line recursive-descent JSON reader
//! so the bench crate stays dependency-free. Its nesting depth is
//! bounded, so hostile input is an error, never a stack overflow.

use std::fmt;

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
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
        };
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

/// How deeply arrays and objects may nest. The reader recurses once per
/// level, so an unbounded depth would let a small hostile body (serve
/// parses request bodies with it) overflow the thread's stack; the
/// documents it reads nest a handful of levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
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
                    // Consume one UTF-8 scalar (multi-byte safe).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().ok_or_else(|| self.err("empty"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
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

/// The configurable gates of a diff.
#[derive(Debug, Clone, Copy)]
pub struct DiffThresholds {
    /// Wall-clock metrics fail when they grow (or throughput shrinks)
    /// past this ratio. Default 5.0 — loose enough for CI-runner noise,
    /// tight enough to catch a real perf cliff.
    pub max_wall_ratio: f64,
    /// Deterministic numbers fail past this relative difference, in
    /// percent. Default 0.5 — campaign payloads are deterministic, so
    /// this mostly absorbs shortest-round-trip float formatting.
    pub max_delta_pct: f64,
}

impl Default for DiffThresholds {
    fn default() -> Self {
        DiffThresholds {
            max_wall_ratio: 5.0,
            max_delta_pct: 0.5,
        }
    }
}

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

/// The six campaign schemas `bench diff` understands.
pub const KNOWN_SCHEMAS: [&str; 6] = [
    "simty-bench-sweep/v1",
    "simty-bench-chaos/v1",
    "simty-bench-soak/v1",
    "simty-bench-storm/v1",
    "simty-fleet/v1",
    "simty-serve/v1",
];

/// Diffs two campaign documents of the same schema.
///
/// # Errors
///
/// A parse failure, a missing/unknown `schema` field, or a schema
/// mismatch between the two documents (that last one is drift, not a
/// measurable regression, so it is an error rather than a report).
pub fn diff_documents(
    old: &str,
    new: &str,
    thresholds: &DiffThresholds,
) -> Result<DiffReport, String> {
    let old = JsonValue::parse(old).map_err(|e| format!("OLD document: {e}"))?;
    let new = JsonValue::parse(new).map_err(|e| format!("NEW document: {e}"))?;
    let schema_of = |doc: &JsonValue, which: &str| -> Result<String, String> {
        let schema = doc
            .get("schema")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("{which} document carries no `schema` field"))?;
        if !KNOWN_SCHEMAS.contains(&schema) {
            return Err(format!("{which} document has unknown schema `{schema}`"));
        }
        Ok(schema.to_owned())
    };
    let old_schema = schema_of(&old, "OLD")?;
    let new_schema = schema_of(&new, "NEW")?;
    if old_schema != new_schema {
        return Err(format!(
            "schema drift: OLD is `{old_schema}`, NEW is `{new_schema}`"
        ));
    }
    let mut diff = Differ {
        thresholds: *thresholds,
        journal_restored: new
            .get("journal_skips")
            .is_some_and(|n| *n != JsonValue::Num(0.0)),
        checks: 0,
        regressions: Vec::new(),
    };
    diff.walk(&old, &new, &mut Vec::new(), Context::Deterministic);
    Ok(DiffReport {
        schema: old_schema,
        checks: diff.checks,
        regressions: diff.regressions,
    })
}

/// How the current subtree's numbers are allowed to move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Context {
    /// Byte-deterministic payload: tight relative tolerance.
    Deterministic,
    /// Wall-clock subtree (`stages`, `cell_wall_ms`, `latency_ms`):
    /// ratio gate, bigger is worse.
    Wall,
    /// Supervisor counters: increases are failures.
    Harness,
    /// Service traffic tallies (`load`/`server` in a serve document):
    /// free-moving except the keys called out by name in
    /// [`Differ::number`].
    Service,
}

/// Noise floor for wall-clock ratio checks: ignore blips where both
/// sides are under 10 ms (or, for `ns` fields, 10 ms in nanoseconds).
const WALL_FLOOR_MS: f64 = 10.0;
const WALL_FLOOR_NS: f64 = 10.0 * 1e6;

struct Differ {
    thresholds: DiffThresholds,
    /// Whether NEW restored cells from a journal (nonzero
    /// `journal_skips`); those cells carry no stage profile.
    journal_restored: bool,
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

    fn walk(&mut self, old: &JsonValue, new: &JsonValue, path: &mut Vec<String>, ctx: Context) {
        match (old, new) {
            (JsonValue::Obj(old_members), JsonValue::Obj(new_members)) => {
                let old_keys: Vec<&str> = old_members.iter().map(|(k, _)| k.as_str()).collect();
                let new_keys: Vec<&str> = new_members.iter().map(|(k, _)| k.as_str()).collect();
                if old_keys != new_keys {
                    let missing: Vec<&&str> =
                        old_keys.iter().filter(|k| !new_keys.contains(k)).collect();
                    let added: Vec<&&str> =
                        new_keys.iter().filter(|k| !old_keys.contains(k)).collect();
                    self.fail(
                        path,
                        format!("schema drift: keys removed {missing:?}, added {added:?}"),
                    );
                    return;
                }
                for (key, old_value) in old_members {
                    let new_value = new.get(key).expect("key sets verified equal");
                    if matches!(key.as_str(), "journal_skips" | "threads" | "resume_wall_ms") {
                        continue; // per-invocation bookkeeping
                    }
                    let child_ctx = match key.as_str() {
                        "stages" | "cell_wall_ms" | "latency_ms" => Context::Wall,
                        "harness" => Context::Harness,
                        "load" | "server" => Context::Service,
                        _ => ctx,
                    };
                    path.push(key.clone());
                    self.member(key, old_value, new_value, path, child_ctx);
                    path.pop();
                }
            }
            (JsonValue::Arr(old_items), JsonValue::Arr(new_items)) => {
                if old_items.len() != new_items.len() {
                    self.fail(
                        path,
                        format!(
                            "schema drift: array length {} -> {}",
                            old_items.len(),
                            new_items.len()
                        ),
                    );
                    return;
                }
                for (i, (o, n)) in old_items.iter().zip(new_items).enumerate() {
                    path.push(i.to_string());
                    self.walk(o, n, path, ctx);
                    path.pop();
                }
            }
            (JsonValue::Num(o), JsonValue::Num(n)) => {
                self.checks += 1;
                let key = path.last().map(String::as_str).unwrap_or("");
                self.number(key, *o, *n, path, ctx);
            }
            (JsonValue::Str(o), JsonValue::Str(n)) => {
                self.checks += 1;
                if o != n {
                    self.fail(path, format!("`{o}` -> `{n}`"));
                }
            }
            (JsonValue::Bool(o), JsonValue::Bool(n)) => {
                self.checks += 1;
                if o != n {
                    self.fail(path, format!("{o} -> {n}"));
                }
            }
            (JsonValue::Null, JsonValue::Null) => {}
            _ => {
                self.fail(
                    path,
                    format!("schema drift: {} -> {}", old.kind(), new.kind()),
                );
            }
        }
    }

    /// Dispatches one object member, handling the keys whose *name*
    /// picks the rule regardless of surrounding context.
    fn member(
        &mut self,
        key: &str,
        old: &JsonValue,
        new: &JsonValue,
        path: &mut Vec<String>,
        ctx: Context,
    ) {
        match (old, new) {
            (JsonValue::Num(o), JsonValue::Num(n)) => {
                self.checks += 1;
                self.number(key, *o, *n, path, ctx);
            }
            _ => self.walk(old, new, path, ctx),
        }
    }

    fn number(&mut self, key: &str, old: f64, new: f64, path: &[String], ctx: Context) {
        let ratio = self.thresholds.max_wall_ratio;
        match key {
            // Throughput: shrinking past the ratio is the regression.
            "runs_per_sec" | "devices_per_sec" | "rps" => {
                if new.is_finite() && old.is_finite() && old > 0.0 && new < old / ratio {
                    self.fail(
                        path,
                        format!("throughput fell more than {ratio}x: {old:.2} -> {new:.2}"),
                    );
                }
            }
            // Wall-clock durations anywhere in the header.
            "total_wall_ms" | "sequential_wall_ms" | "wall_ms" | "drain_ms" => {
                self.wall_ratio(old, new, WALL_FLOOR_MS, path);
            }
            // Service health counters: any increase is a failure.
            "invariant_violations" | "telemetry_dropped" if ctx == Context::Service => {
                if new > old {
                    self.fail(path, format!("counter increased: {old} -> {new}"));
                }
            }
            // Overload drill counters: the drill must keep exercising
            // backpressure, so a committed nonzero value may not
            // collapse to zero.
            "shed" | "rejected" | "deferred" if ctx == Context::Service => {
                if old > 0.0 && new == 0.0 {
                    self.fail(
                        path,
                        format!("overload counter collapsed to zero: {old} -> {new}"),
                    );
                }
            }
            // Harness-and-quarantine counters: monotone gates.
            "poisoned" | "panics" | "timeouts" | "retries" | "retried" | "nonfinite" => {
                if new > old {
                    self.fail(path, format!("counter increased: {old} -> {new}"));
                }
            }
            "ns" if ctx == Context::Wall => {
                self.wall_ratio(old, new, WALL_FLOOR_NS, path);
            }
            // Stage call counts: a profile that vanishes means the stage
            // clocks stopped being read.
            "calls" if ctx == Context::Wall => {
                if old > 0.0 && new == 0.0 && !self.journal_restored {
                    self.fail(
                        path,
                        format!("stage profile collapsed to zero calls: {old} -> {new}"),
                    );
                }
                self.wall_ratio(old, new, WALL_FLOOR_MS, path);
            }
            _ => match ctx {
                Context::Wall => self.wall_ratio(old, new, WALL_FLOOR_MS, path),
                // Traffic tallies vary run to run; only the keys named
                // above are gated.
                Context::Service => {}
                Context::Harness | Context::Deterministic => {
                    let tolerance = self.thresholds.max_delta_pct / 100.0;
                    let scale = old.abs().max(new.abs());
                    if scale > 0.0 && (new - old).abs() / scale > tolerance {
                        self.fail(
                            path,
                            format!(
                                "deterministic value moved more than {}%: {old} -> {new}",
                                self.thresholds.max_delta_pct
                            ),
                        );
                    }
                }
            },
        }
    }

    fn wall_ratio(&mut self, old: f64, new: f64, floor: f64, path: &[String]) {
        if !old.is_finite() || !new.is_finite() {
            return;
        }
        if old.max(new) < floor {
            return; // sub-noise-floor blip
        }
        let ratio = self.thresholds.max_wall_ratio;
        if new > old.max(floor) * ratio {
            self.fail(
                path,
                format!("wall time grew more than {ratio}x: {old:.2} -> {new:.2}"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let report = diff_documents(&d, &d, &DiffThresholds::default()).unwrap();
        assert!(!report.is_regression(), "{:?}", report.regressions);
        assert_eq!(report.schema, "simty-bench-sweep/v1");
        assert!(report.checks > 5);
    }

    #[test]
    fn wall_noise_within_ratio_passes() {
        let old = doc(400.0, 50_000_000, 1234.5, 0);
        let new = doc(150.0, 120_000_000, 1234.5, 0);
        let report = diff_documents(&old, &new, &DiffThresholds::default()).unwrap();
        assert!(!report.is_regression(), "{:?}", report.regressions);
    }

    #[test]
    fn throughput_cliff_fails() {
        let old = doc(400.0, 50_000_000, 1234.5, 0);
        let new = doc(40.0, 50_000_000, 1234.5, 0);
        let report = diff_documents(&old, &new, &DiffThresholds::default()).unwrap();
        assert!(report.is_regression());
        assert!(report.regressions[0].path.contains("runs_per_sec"));
    }

    #[test]
    fn stage_time_blowup_fails() {
        let old = doc(400.0, 50_000_000, 1234.5, 0);
        let new = doc(400.0, 500_000_000, 1234.5, 0);
        let report = diff_documents(&old, &new, &DiffThresholds::default()).unwrap();
        assert!(report.is_regression());
        assert!(report.regressions[0].path.ends_with("event_dispatch.ns"));
    }

    #[test]
    fn a_vanished_stage_profile_fails() {
        let old = doc(400.0, 50_000_000, 1234.5, 0);
        let new = doc(400.0, 0, 1234.5, 0).replacen("\"calls\":10", "\"calls\":0", 1);
        let report = diff_documents(&old, &new, &DiffThresholds::default()).unwrap();
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
        let report = diff_documents(&old, &new, &DiffThresholds::default()).unwrap();
        assert!(!report.is_regression(), "{:?}", report.regressions);
    }

    #[test]
    fn deterministic_drift_fails() {
        let old = doc(400.0, 50_000_000, 1234.5, 0);
        let new = doc(400.0, 50_000_000, 1300.0, 0);
        let report = diff_documents(&old, &new, &DiffThresholds::default()).unwrap();
        assert!(report.is_regression());
        assert!(report.regressions[0].path.ends_with("energy_mj"));
    }

    #[test]
    fn new_poisoned_cell_fails() {
        let old = doc(400.0, 50_000_000, 1234.5, 0);
        let new = doc(400.0, 50_000_000, 1234.5, 1);
        let report = diff_documents(&old, &new, &DiffThresholds::default()).unwrap();
        assert!(report.is_regression());
        assert!(report.regressions[0].path.ends_with("harness.poisoned"));
    }

    #[test]
    fn schema_mismatch_is_an_error() {
        let sweep = doc(400.0, 50_000_000, 1234.5, 0);
        let chaos = sweep.replacen("simty-bench-sweep/v1", "simty-bench-chaos/v1", 1);
        assert!(diff_documents(&sweep, &chaos, &DiffThresholds::default())
            .unwrap_err()
            .contains("schema drift"));
        assert!(diff_documents("{}", &sweep, &DiffThresholds::default()).is_err());
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
             \"invariant_violations\":{violations},\"telemetry_dropped\":0,\"net_faults\":12}}}}"
        )
    }

    #[test]
    fn serve_traffic_noise_passes_but_health_counters_gate() {
        let old = serve_doc(1300.0, 25.0, 18, 3, 0);
        // Tallies wobble, latency drifts under the ratio: all fine.
        let new = serve_doc(1100.0, 60.0, 9, 11, 0);
        let report = diff_documents(&old, &new, &DiffThresholds::default()).unwrap();
        assert!(!report.is_regression(), "{:?}", report.regressions);
        assert_eq!(report.schema, "simty-serve/v1");

        // A new invariant violation is always a regression.
        let broken = serve_doc(1300.0, 25.0, 18, 3, 1);
        let report = diff_documents(&old, &broken, &DiffThresholds::default()).unwrap();
        assert!(report.is_regression());
        assert!(report.regressions[0]
            .path
            .ends_with("server.invariant_violations"));
    }

    #[test]
    fn serve_shed_collapse_and_latency_blowup_fail() {
        let old = serve_doc(1300.0, 25.0, 18, 3, 0);
        let collapsed = serve_doc(1300.0, 25.0, 0, 3, 0);
        let report = diff_documents(&old, &collapsed, &DiffThresholds::default()).unwrap();
        assert!(report.is_regression());
        assert!(report.regressions.iter().all(|r| r.path.ends_with("shed")));

        let slow = serve_doc(1300.0, 250.0, 18, 3, 0);
        let report = diff_documents(&old, &slow, &DiffThresholds::default()).unwrap();
        assert!(report.is_regression());
        assert!(report.regressions[0].path.ends_with("latency_ms.q99"));

        let stalled = serve_doc(100.0, 25.0, 18, 3, 0);
        let report = diff_documents(&old, &stalled, &DiffThresholds::default()).unwrap();
        assert!(report.is_regression());
        assert!(report.regressions[0].detail.contains("throughput fell"));
    }

    #[test]
    fn key_drift_is_reported() {
        let old = doc(400.0, 50_000_000, 1234.5, 0);
        let new = old.replacen("\"threads\":8", "\"workers\":8", 1);
        let report = diff_documents(&old, &new, &DiffThresholds::default()).unwrap();
        assert!(report.is_regression());
        assert!(report.regressions[0].detail.contains("schema drift"));
    }
}
