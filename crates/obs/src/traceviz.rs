//! Chrome Trace Event Format export for span rings and stage profiles.
//!
//! Produces the JSON-object flavor of the [Trace Event Format]
//! (`{"traceEvents":[…]}`) that `chrome://tracing`, Perfetto, and
//! catapult all load directly. The mapping:
//!
//! * each track (one per policy, or one per fleet shard) becomes a
//!   `tid` with a `thread_name` metadata (`ph:"M"`) event;
//! * spans with duration become complete events (`ph:"X"`) whose
//!   `ts`/`dur` are the span's **simulated** clock in microseconds —
//!   so traces from a deterministic run are themselves deterministic;
//! * zero-duration spans (watchdog interventions, degradation
//!   transitions) become thread-scoped instant events (`ph:"i"`,
//!   `"s":"t"`);
//! * a wall-clock [`StageProfile`] can be appended as a synthetic
//!   track of back-to-back `X` events (one per stage, widths = stage
//!   self-time). Wall time is non-deterministic, so the CLI keeps this
//!   behind an opt-in flag and the byte-identity guarantees apply only
//!   to span tracks.
//!
//! Events are emitted in exactly the order added; callers feed spans in
//! ring (sequence) order, making the full export byte-deterministic.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::{json_string, Span, Stage, StageProfile};

/// Incremental builder for one trace-event JSON document.
#[derive(Debug, Default)]
pub struct TraceBuilder {
    events: Vec<String>,
}

impl TraceBuilder {
    /// An empty trace with a `process_name` metadata event.
    pub fn new(process_name: &str) -> Self {
        let mut b = TraceBuilder { events: Vec::new() };
        b.events.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{{\"name\":{}}}}}",
            json_string(process_name)
        ));
        b
    }

    /// Declares track `tid` with a human-readable name (`thread_name`
    /// metadata event).
    pub fn add_track(&mut self, tid: u64, name: &str) {
        self.events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
             \"args\":{{\"name\":{}}}}}",
            json_string(name)
        ));
    }

    /// Adds one span to track `tid`: an `X` complete event, or an `i`
    /// instant when the span has zero duration.
    pub fn add_span(&mut self, tid: u64, span: &Span) {
        let ts = span.start_ms * 1000;
        let dur = span.end_ms.saturating_sub(span.start_ms) * 1000;
        let mut args = format!("{{\"seq\":{}", span.seq);
        for (key, value) in span.attrs() {
            args.push_str(&format!(
                ",{}:{}",
                json_string(key),
                json_string(&value.render())
            ));
        }
        args.push('}');
        let name = json_string(span.kind.as_str());
        if dur == 0 {
            self.events.push(format!(
                "{{\"name\":{name},\"cat\":\"sim\",\"ph\":\"i\",\"s\":\"t\",\
                 \"pid\":0,\"tid\":{tid},\"ts\":{ts},\"args\":{args}}}"
            ));
        } else {
            self.events.push(format!(
                "{{\"name\":{name},\"cat\":\"sim\",\"ph\":\"X\",\
                 \"pid\":0,\"tid\":{tid},\"ts\":{ts},\"dur\":{dur},\"args\":{args}}}"
            ));
        }
    }

    /// Adds every span from an iterator to track `tid`, in iteration
    /// order.
    pub fn add_spans<'a>(&mut self, tid: u64, spans: impl IntoIterator<Item = &'a Span>) {
        for span in spans {
            self.add_span(tid, span);
        }
    }

    /// Appends a stage profile as a synthetic track of back-to-back
    /// `X` events (self-time widths, µs resolution, zero-call stages
    /// skipped). Wall-clock data — non-deterministic by nature.
    pub fn add_stage_profile(&mut self, tid: u64, profile: &StageProfile) {
        let mut cursor_us = 0u64;
        for stage in Stage::ALL {
            let calls = profile.calls(stage);
            if calls == 0 {
                continue;
            }
            let dur = profile.nanos(stage) / 1_000;
            self.events.push(format!(
                "{{\"name\":{},\"cat\":\"stage\",\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\
                 \"ts\":{cursor_us},\"dur\":{dur},\"args\":{{\"calls\":{calls}}}}}",
                json_string(stage.as_str())
            ));
            cursor_us += dur;
        }
    }

    /// Number of events added so far (metadata included).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events have been added.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders the final `{"traceEvents":[…],"displayTimeUnit":"ms"}`
    /// document.
    pub fn finish(self) -> String {
        format!(
            "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}",
            self.events.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{AttrValue, SpanCollector, SpanKind};
    use std::time::Duration;

    fn sample_spans() -> SpanCollector {
        let mut c = SpanCollector::new(8);
        c.record(SpanKind::WakeCycle, 100, 150, []);
        c.record(
            SpanKind::PolicyPlace,
            120,
            120,
            [("app", AttrValue::Static("mail")), ("alarm", AttrValue::U64(7))],
        );
        c
    }

    #[test]
    fn spans_map_to_x_and_instant_events() {
        let mut b = TraceBuilder::new("standby");
        b.add_track(1, "policy=SIMTY");
        b.add_spans(1, sample_spans().iter());
        let doc = b.finish();
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.ends_with("],\"displayTimeUnit\":\"ms\"}"));
        // Complete event: sim-ms → µs.
        assert!(doc.contains(
            "{\"name\":\"wake_cycle\",\"cat\":\"sim\",\"ph\":\"X\",\"pid\":0,\
             \"tid\":1,\"ts\":100000,\"dur\":50000,\"args\":{\"seq\":0}}"
        ));
        // Zero-duration span → thread-scoped instant with attrs.
        assert!(doc.contains(
            "{\"name\":\"policy_place\",\"cat\":\"sim\",\"ph\":\"i\",\"s\":\"t\",\
             \"pid\":0,\"tid\":1,\"ts\":120000,\
             \"args\":{\"seq\":1,\"app\":\"mail\",\"alarm\":\"7\"}}"
        ));
        // Track metadata present.
        assert!(doc.contains("\"name\":\"thread_name\""));
        assert!(doc.contains("\"name\":\"process_name\""));
    }

    #[test]
    fn identical_inputs_render_identical_documents() {
        let build = || {
            let mut b = TraceBuilder::new("standby");
            b.add_track(1, "t");
            b.add_spans(1, sample_spans().iter());
            b.finish()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn stage_profile_renders_back_to_back() {
        let mut p = StageProfile::new();
        p.add_batch(Stage::QueueSearch, Duration::from_micros(5), 2);
        p.add_batch(Stage::Delivery, Duration::from_micros(3), 1);
        let mut b = TraceBuilder::new("standby");
        b.add_stage_profile(9, &p);
        let doc = b.finish();
        assert!(doc.contains("\"name\":\"queue_search\",\"cat\":\"stage\",\"ph\":\"X\",\"pid\":0,\"tid\":9,\"ts\":0,\"dur\":5"));
        assert!(doc.contains("\"name\":\"delivery\",\"cat\":\"stage\",\"ph\":\"X\",\"pid\":0,\"tid\":9,\"ts\":5,\"dur\":3"));
        assert!(!doc.contains("event_dispatch"));
    }
}
