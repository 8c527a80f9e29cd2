//! # simty-obs — deterministic observability primitives
//!
//! The instrumentation layer the paper's evaluation implies: the authors
//! inserted probes "into the hardware WakeLock APIs, as well as
//! AlarmManager" and watched a Monsoon meter live (§4.1), whereas the
//! reproduction originally scored runs only after the fact. This crate
//! supplies the three primitives the simulator threads through its
//! layers:
//!
//! * [`SpanCollector`] — ring-buffered structured spans keyed on the
//!   *simulated* clock plus a sequence number, so exports are
//!   byte-identical across host thread counts and across a checkpoint
//!   resume;
//! * [`MetricsRegistry`] — typed counters, gauges, and fixed-bucket
//!   histograms with Prometheus-style text exposition and a
//!   deterministic JSON snapshot;
//! * [`StageProfile`] — per-stage *wall-clock* accounting for the
//!   simulator's hot paths. Wall time is inherently non-deterministic,
//!   so profiles are kept strictly out of the deterministic exports and
//!   surface only in benchmark documents.
//!
//! Three observability consumers build on those primitives:
//!
//! * [`quantile`] — deterministic, merge-stable p50/p90/p99/max
//!   estimation over the fixed-bucket histograms (surfaced in the
//!   exposition, snapshots, and campaign document headers);
//! * [`telemetry`] — a bounded, never-blocking event bus campaign
//!   workers publish progress to (live TTY status line + `events.jsonl`
//!   stream, wall clock segregated into the envelope);
//! * [`traceviz`] — Chrome Trace Event Format export of span rings and
//!   stage profiles for `chrome://tracing` / Perfetto.
//!
//! The crate is dependency-free and knows nothing about the simulator:
//! timestamps are raw milliseconds, so any sim-clock representation can
//! feed it.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod metrics;
pub mod profile;
pub mod quantile;
pub mod span;
pub mod telemetry;
pub mod traceviz;

pub use metrics::{
    CounterHandle, GaugeHandle, Histogram, HistogramHandle, MetricsRegistry,
};
pub use profile::{Stage, StageProfile};
pub use quantile::QuantileSummary;
pub use span::{AttrValue, Span, SpanCollector, SpanKind};
pub use telemetry::{EventKind, ProgressState, TelemetryBus, TelemetryEvent, TelemetrySink};
pub use traceviz::TraceBuilder;

use std::fmt::Write as _;

/// Renders `s` as a quoted JSON string with the required escapes.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_json_string(&mut out, s);
    out
}

/// Appends `s` to `out` as a quoted JSON string with the required
/// escapes.
pub(crate) fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders `v` as a JSON number (`null` for non-finite values).
///
/// Rust's shortest-round-trip `Display` for `f64` is deterministic and
/// never uses scientific notation, so the output is stable across
/// platforms and runs.
pub(crate) fn json_f64(v: f64) -> String {
    let mut out = String::new();
    push_json_f64(&mut out, v);
    out
}

/// Appends `v` to `out` as a JSON number (see [`json_f64`]).
pub(crate) fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn json_f64_is_plain_decimal() {
        assert_eq!(json_f64(1.0), "1");
        assert_eq!(json_f64(0.25), "0.25");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }
}
