//! Structured, sim-clock-driven tracing spans.
//!
//! A [`Span`] is one bounded slice of simulated time with a kind and a
//! small ordered attribute list; instantaneous events are spans whose
//! start equals their end. Spans carry no wall-clock data at all — the
//! timestamp is the *simulated* clock in milliseconds and the ordering
//! key is a monotone sequence number — so a run's span stream is a pure
//! function of its inputs: byte-identical across host thread counts and
//! across a checkpoint resume.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::Arc;

use crate::push_json_string;

/// The most attributes one span carries: the widest
/// [`SpanKind::attr_keys`] schema.
pub const SPAN_ATTR_CAPACITY: usize = 4;

/// The kinds of span the simulator emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// One awake period: from the CPU leaving sleep to it re-entering
    /// sleep.
    WakeCycle,
    /// One alignment-policy placement decision (instantaneous).
    PolicyPlace,
    /// One delivered alarm's task, spanning its CPU time.
    TaskRun,
    /// One checkpoint capture (instantaneous on the simulated clock).
    CheckpointWrite,
    /// One watchdog intervention: a forced release or a quarantine.
    WatchdogIntervention,
    /// One degradation-governor tier transition (instantaneous).
    DegradationTransition,
}

impl SpanKind {
    /// Every kind, in a fixed order.
    pub const ALL: [SpanKind; 6] = [
        SpanKind::WakeCycle,
        SpanKind::PolicyPlace,
        SpanKind::TaskRun,
        SpanKind::CheckpointWrite,
        SpanKind::WatchdogIntervention,
        SpanKind::DegradationTransition,
    ];

    /// The kind's stable snake_case name, used in the JSONL export.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::WakeCycle => "wake_cycle",
            SpanKind::PolicyPlace => "policy_place",
            SpanKind::TaskRun => "task_run",
            SpanKind::CheckpointWrite => "checkpoint_write",
            SpanKind::WatchdogIntervention => "watchdog_intervention",
            SpanKind::DegradationTransition => "degradation_transition",
        }
    }

    /// Parses a name produced by [`as_str`](Self::as_str).
    pub fn parse(s: &str) -> Option<SpanKind> {
        SpanKind::ALL.into_iter().find(|k| k.as_str() == s)
    }

    /// The kind's attribute schema: the keys its spans carry, in export
    /// order. A span stores only its values; the keys come from here.
    pub fn attr_keys(self) -> &'static [&'static str] {
        match self {
            SpanKind::WakeCycle | SpanKind::CheckpointWrite => &[],
            SpanKind::PolicyPlace => &["app", "alarm", "placement", "candidates"],
            SpanKind::TaskRun => &["app", "entry_size"],
            SpanKind::WatchdogIntervention => &["app", "kind"],
            SpanKind::DegradationTransition => &["from", "to", "soc_milli", "restamped"],
        }
    }
}

/// One span attribute value.
///
/// The typed variants exist for the engine's hot recording paths:
/// numbers defer their formatting to export time, shared labels bump a
/// refcount instead of copying, and fixed-vocabulary strings borrow
/// statics. Every variant renders to exactly the string the plain
/// string representation used to carry, and equality is defined over
/// that rendering — a checkpoint restore (which reads canonical
/// decimals back as [`U64`](AttrValue::U64) and everything else as
/// [`Shared`](AttrValue::Shared)) compares equal to the live value it
/// round-tripped.
#[derive(Debug, Clone, Eq)]
pub enum AttrValue {
    /// An owned string (cold paths).
    Str(Box<str>),
    /// A static string from a fixed vocabulary.
    Static(&'static str),
    /// A label shared with the rest of the simulation.
    Shared(Arc<str>),
    /// An unsigned integer, formatted lazily at export.
    U64(u64),
    /// A static prefix followed by a number, formatted lazily at export
    /// (`Indexed("existing:", 3)` renders as `existing:3`).
    Indexed(&'static str, u32),
}

impl AttrValue {
    /// The value's canonical string form — what the JSONL export and
    /// the checkpoint wire format carry.
    pub fn render(&self) -> Cow<'_, str> {
        match self {
            AttrValue::Str(s) => Cow::Borrowed(s),
            AttrValue::Static(s) => Cow::Borrowed(s),
            AttrValue::Shared(s) => Cow::Borrowed(s),
            AttrValue::U64(v) => Cow::Owned(v.to_string()),
            AttrValue::Indexed(prefix, n) => Cow::Owned(format!("{prefix}{n}")),
        }
    }

    /// Appends the rendered value to `out` as a JSON string, formatting
    /// numbers in place.
    fn push_json(&self, out: &mut String) {
        match self {
            AttrValue::U64(v) => {
                let _ = write!(out, "\"{v}\"");
            }
            AttrValue::Indexed(prefix, n) => {
                // Digits need no escaping: escape the prefix, reopen its
                // closing quote, and append the number.
                push_json_string(out, prefix);
                out.pop();
                let _ = write!(out, "{n}\"");
            }
            other => push_json_string(out, &other.render()),
        }
    }
}

impl PartialEq for AttrValue {
    fn eq(&self, other: &Self) -> bool {
        self.render() == other.render()
    }
}

impl From<String> for AttrValue {
    fn from(s: String) -> Self {
        AttrValue::Str(s.into_boxed_str())
    }
}

impl From<&'static str> for AttrValue {
    fn from(s: &'static str) -> Self {
        AttrValue::Static(s)
    }
}

impl From<Arc<str>> for AttrValue {
    fn from(s: Arc<str>) -> Self {
        AttrValue::Shared(s)
    }
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}

impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}

/// One recorded span.
///
/// Its attributes live inline, so recording one allocates nothing. They
/// follow the kind's schema ([`SpanKind::attr_keys`]): the span keeps
/// the values in key order and the keys are not stored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Monotone sequence number, unique within a collector's lifetime.
    pub seq: u64,
    /// What the span covers.
    pub kind: SpanKind,
    /// Simulated start time, in milliseconds.
    pub start_ms: u64,
    /// Simulated end time, in milliseconds (equal to `start_ms` for
    /// instantaneous events).
    pub end_ms: u64,
    /// The attribute values in schema order; `None` past the last one.
    values: [Option<AttrValue>; SPAN_ATTR_CAPACITY],
}

impl Span {
    /// A span with `attrs`, which must be `kind`'s schema keys in order
    /// (or a prefix of them) with their values. Debug builds assert the
    /// keys; release builds keep the values under the schema's keys and
    /// drop any past the schema's end.
    pub fn new(
        seq: u64,
        kind: SpanKind,
        start_ms: u64,
        end_ms: u64,
        attrs: impl IntoIterator<Item = (&'static str, AttrValue)>,
    ) -> Span {
        let keys = kind.attr_keys();
        let mut values: [Option<AttrValue>; SPAN_ATTR_CAPACITY] = Default::default();
        for (i, (key, value)) in attrs.into_iter().enumerate() {
            debug_assert_eq!(
                keys.get(i),
                Some(&key),
                "attribute {i} of a {} span is off its schema",
                kind.as_str()
            );
            if i < keys.len() {
                values[i] = Some(value);
            }
        }
        Span {
            seq,
            kind,
            start_ms,
            end_ms,
            values,
        }
    }

    /// A span whose attribute values are already laid out in `kind`'s
    /// schema order, `None` past the last one: what a checkpoint restore
    /// reads back after checking each key against the schema.
    pub fn from_values(
        seq: u64,
        kind: SpanKind,
        start_ms: u64,
        end_ms: u64,
        values: [Option<AttrValue>; SPAN_ATTR_CAPACITY],
    ) -> Span {
        debug_assert!(
            values[kind.attr_keys().len()..].iter().all(Option::is_none),
            "a {} span holds values past its schema",
            kind.as_str()
        );
        Span {
            seq,
            kind,
            start_ms,
            end_ms,
            values,
        }
    }

    /// The attributes as ordered `(key, value)` pairs. Insertion order
    /// is the schema order and part of the deterministic export.
    pub fn attrs(&self) -> impl Iterator<Item = (&'static str, &AttrValue)> + '_ {
        self.kind
            .attr_keys()
            .iter()
            .zip(&self.values)
            .map_while(|(&key, value)| Some((key, value.as_ref()?)))
    }

    /// Renders the span as one JSON object (one JSONL line, no trailing
    /// newline).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.push_json(&mut out);
        out
    }

    fn push_json(&self, out: &mut String) {
        let _ = write!(out, "{{\"seq\":{},\"kind\":", self.seq);
        push_json_string(out, self.kind.as_str());
        let _ = write!(
            out,
            ",\"start_ms\":{},\"end_ms\":{},\"attrs\":{{",
            self.start_ms, self.end_ms
        );
        for (i, (k, v)) in self.attrs().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(out, k);
            out.push(':');
            v.push_json(out);
        }
        out.push_str("}}");
    }
}

/// A bounded, ring-buffered span collector.
///
/// When the ring is full the *oldest* span is evicted and counted in
/// [`dropped`](Self::dropped), so the collector always holds the most
/// recent window of activity. Eviction is a pure function of the record
/// sequence, which keeps the surviving contents deterministic.
///
/// A [`counting`](Self::counting) collector keeps the same books without
/// the ring: it builds and retains no span, and after `n` records it
/// reports `n - capacity` evictions (floored at zero), exactly what a
/// retaining collector of that capacity would report.
///
/// # Examples
///
/// ```
/// use simty_obs::{SpanCollector, SpanKind};
///
/// let mut spans = SpanCollector::new(128);
/// spans.record(SpanKind::TaskRun, 60_000, 62_000, || [("app", "Facebook".into())]);
/// assert_eq!(spans.len(), 1);
/// assert!(spans.to_jsonl().contains("\"kind\":\"task_run\""));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanCollector {
    capacity: usize,
    spans: VecDeque<Span>,
    next_seq: u64,
    dropped: u64,
    /// Count records and evictions only; never build or retain a span.
    counting: bool,
}

impl SpanCollector {
    /// An empty collector retaining at most `capacity` spans.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a span ring needs room for at least one span");
        SpanCollector {
            capacity,
            spans: VecDeque::new(),
            next_seq: 0,
            dropped: 0,
            counting: false,
        }
    }

    /// A collector that counts `recorded` records so far, and every later
    /// one, without building or retaining any span. Its
    /// [`dropped`](Self::dropped) is `recorded - capacity`, floored at
    /// zero.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn counting(capacity: usize, recorded: u64) -> Self {
        assert!(capacity > 0, "a span ring needs room for at least one span");
        SpanCollector {
            capacity,
            spans: VecDeque::new(),
            next_seq: recorded,
            dropped: recorded.saturating_sub(capacity as u64),
            counting: true,
        }
    }

    /// Rebuilds a collector from checkpointed parts.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `spans` exceeds it.
    pub fn from_parts(capacity: usize, next_seq: u64, dropped: u64, spans: Vec<Span>) -> Self {
        assert!(capacity > 0, "a span ring needs room for at least one span");
        assert!(spans.len() <= capacity, "more spans than capacity");
        SpanCollector {
            capacity,
            spans: spans.into(),
            next_seq,
            dropped,
            counting: false,
        }
    }

    /// Records a span, returning its sequence number. Evicts the oldest
    /// span when the ring is full. `attrs` builds the attributes, which
    /// follow `kind`'s schema (see [`Span::new`]); have it return an
    /// array, so recording allocates nothing once the ring has grown to
    /// capacity. A [`counting`](Self::counting) collector never calls
    /// it, so a span it only counts builds no attribute value: no label
    /// refcount moves, no number is converted.
    pub fn record<A>(
        &mut self,
        kind: SpanKind,
        start_ms: u64,
        end_ms: u64,
        attrs: impl FnOnce() -> A,
    ) -> u64
    where
        A: IntoIterator<Item = (&'static str, AttrValue)>,
    {
        debug_assert!(start_ms <= end_ms, "span ends before it starts");
        let seq = self.next_seq;
        if self.counting {
            self.count(1);
            return seq;
        }
        self.next_seq += 1;
        if self.spans.len() == self.capacity {
            self.spans.pop_front();
            self.dropped += 1;
        }
        self.spans
            .push_back(Span::new(seq, kind, start_ms, end_ms, attrs()));
        seq
    }

    /// Counts `n` records on a [`counting`](Self::counting) collector,
    /// with the evictions they imply, and builds nothing.
    ///
    /// # Panics
    ///
    /// Panics if the collector retains spans: its evictions depend on
    /// the ring, not on a count.
    pub fn count(&mut self, n: u64) {
        assert!(
            self.counting,
            "only a counting collector counts without recording"
        );
        let cap = self.capacity as u64;
        let before = self.next_seq.saturating_sub(cap);
        self.next_seq += n;
        self.dropped += self.next_seq.saturating_sub(cap) - before;
    }

    /// Number of retained spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The ring's capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Spans evicted so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The next sequence number to be assigned (equals the total number
    /// of spans ever recorded).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The retained spans, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Span> {
        self.spans.iter()
    }

    /// Renders the retained spans as JSONL: one JSON object per line,
    /// oldest first, trailing newline after every line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            span.push_json(&mut out);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attr_values_compare_and_render_by_content() {
        assert_eq!(AttrValue::from(5u64), AttrValue::from("5".to_owned()));
        assert_eq!(AttrValue::from("x"), AttrValue::from("x".to_owned()));
        assert_eq!(
            AttrValue::Indexed("existing:", 3),
            AttrValue::from("existing:3")
        );
        let shared: Arc<str> = "app".into();
        assert_eq!(AttrValue::from(shared), AttrValue::Static("app"));
        assert_ne!(AttrValue::from(5u64), AttrValue::from(6u64));
        assert_eq!(AttrValue::from(17usize).render(), "17");
    }

    fn span_at(c: &mut SpanCollector, ms: u64) -> u64 {
        c.record(SpanKind::TaskRun, ms, ms + 10, || [])
    }

    #[test]
    fn kinds_round_trip() {
        for k in SpanKind::ALL {
            assert_eq!(SpanKind::parse(k.as_str()), Some(k));
        }
        assert_eq!(SpanKind::parse("bogus"), None);
    }

    #[test]
    fn sequence_numbers_are_monotone() {
        let mut c = SpanCollector::new(8);
        assert_eq!(span_at(&mut c, 0), 0);
        assert_eq!(span_at(&mut c, 5), 1);
        assert_eq!(c.next_seq(), 2);
        assert_eq!(c.dropped(), 0);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut c = SpanCollector::new(2);
        span_at(&mut c, 0);
        span_at(&mut c, 1);
        span_at(&mut c, 2);
        assert_eq!(c.len(), 2);
        assert_eq!(c.dropped(), 1);
        let seqs: Vec<u64> = c.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![1, 2]);
    }

    #[test]
    fn counting_collector_keeps_a_retaining_rings_books() {
        for capacity in [1, 3, 8] {
            let mut ring = SpanCollector::new(capacity);
            let mut counts = SpanCollector::counting(capacity, 0);
            for ms in 0..12 {
                assert_eq!(span_at(&mut counts, ms), span_at(&mut ring, ms));
                assert_eq!(counts.dropped(), ring.dropped(), "capacity {capacity}");
            }
            assert!(counts.is_empty() && counts.to_jsonl().is_empty());
            let mut batched = SpanCollector::counting(capacity, 0);
            batched.count(5);
            batched.count(7);
            assert_eq!(
                (batched.next_seq(), batched.dropped()),
                (12, ring.dropped())
            );
            let resumed = SpanCollector::counting(capacity, 12);
            assert_eq!(resumed, counts);
        }
    }

    #[test]
    fn a_counting_collector_builds_no_attributes() {
        let label: Arc<str> = "app".into();
        let mut counts = SpanCollector::counting(4, 0);
        counts.record(SpanKind::TaskRun, 0, 10, || -> [_; 1] {
            panic!("a counting collector built {label}'s attributes")
        });
        assert_eq!((counts.next_seq(), Arc::strong_count(&label)), (1, 1));
        let mut ring = SpanCollector::new(4);
        ring.record(SpanKind::TaskRun, 0, 10, || {
            [("app", AttrValue::from(Arc::clone(&label)))]
        });
        assert_eq!(Arc::strong_count(&label), 2);
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let mut c = SpanCollector::new(4);
        c.record(SpanKind::PolicyPlace, 60_000, 60_000, || {
            [
                ("app", "a\"b".to_string().into()),
                ("alarm", 7u64.into()),
                ("placement", AttrValue::Indexed("existing:", 2)),
            ]
        });
        span_at(&mut c, 70_000);
        let jsonl = c.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        let first = jsonl.lines().next().unwrap();
        assert_eq!(
            first,
            "{\"seq\":0,\"kind\":\"policy_place\",\"start_ms\":60000,\
             \"end_ms\":60000,\"attrs\":{\"app\":\"a\\\"b\",\"alarm\":\"7\",\
             \"placement\":\"existing:2\"}}"
        );
    }

    #[test]
    fn attrs_live_inline_under_their_schema_keys() {
        // Four inline values keep a retained span within two cache lines.
        let size = std::mem::size_of::<Span>();
        assert!(size <= 128, "{size}");
        for kind in SpanKind::ALL {
            assert!(kind.attr_keys().len() <= SPAN_ATTR_CAPACITY);
        }
        let span = Span::new(
            0,
            SpanKind::TaskRun,
            0,
            5,
            [("app", "mail".into()), ("entry_size", 2usize.into())],
        );
        let attrs: Vec<(&str, String)> = span
            .attrs()
            .map(|(k, v)| (k, v.render().into_owned()))
            .collect();
        assert_eq!(
            attrs,
            [("app", "mail".to_owned()), ("entry_size", "2".to_owned())]
        );
        let bare = Span::new(1, SpanKind::WakeCycle, 0, 1, []);
        assert_eq!(bare.attrs().count(), 0);
    }

    #[test]
    fn parts_round_trip() {
        let mut c = SpanCollector::new(2);
        span_at(&mut c, 0);
        span_at(&mut c, 1);
        span_at(&mut c, 2);
        let rebuilt = SpanCollector::from_parts(
            c.capacity(),
            c.next_seq(),
            c.dropped(),
            c.iter().cloned().collect(),
        );
        assert_eq!(rebuilt, c);
    }
}
