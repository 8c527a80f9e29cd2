//! A typed metrics registry with deterministic exports.
//!
//! Three metric types — monotone `u64` counters, `f64` gauges, and
//! fixed-bucket [`Histogram`]s — keyed by name. A name may carry
//! Prometheus-style labels inline (`sim_component_held_ms{component="wifi"}`);
//! the portion before `{` is the metric *family* and shares one
//! `# HELP`/`# TYPE` header in the text exposition. All storage is
//! `BTreeMap`-backed, so both the [text exposition](MetricsRegistry::expose)
//! and the [JSON snapshot](MetricsRegistry::to_json) are byte-deterministic.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::{push_json_f64, push_json_string};

/// Default bucket bounds for histograms observed before an explicit
/// [`MetricsRegistry::register_histogram`] call.
pub const DEFAULT_BOUNDS: [f64; 8] = [1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0];

/// A fixed-bucket histogram.
///
/// Buckets follow Prometheus `le` semantics: an observation `v` lands in
/// the first bucket whose upper bound satisfies `v <= bound`, or in the
/// implicit `+Inf` overflow bucket. [`counts`](Self::counts) holds
/// per-bucket (non-cumulative) counts with the overflow bucket last, so
/// `counts.len() == bounds.len() + 1`.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    sum: f64,
    count: u64,
    nonfinite: u64,
}

impl Histogram {
    /// An empty histogram over `bounds`.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty, non-finite, or not strictly
    /// increasing.
    pub fn new(bounds: Vec<f64>) -> Self {
        if let Err(why) = Histogram::check_bounds(&bounds) {
            panic!("{why}");
        }
        let counts = vec![0; bounds.len() + 1];
        Histogram {
            bounds,
            counts,
            sum: 0.0,
            count: 0,
            nonfinite: 0,
        }
    }

    /// Whether `bounds` can bucket a histogram: they must be non-empty,
    /// finite and strictly increasing. Callers rebuilding a histogram
    /// from untrusted bytes check here before [`from_parts`](Self::from_parts).
    ///
    /// # Errors
    ///
    /// Why the bounds cannot bucket a histogram.
    pub fn check_bounds(bounds: &[f64]) -> Result<(), &'static str> {
        if bounds.is_empty() {
            Err("a histogram needs at least one bound")
        } else if bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()) {
            Ok(())
        } else {
            Err("histogram bounds must be finite and strictly increasing")
        }
    }

    /// Rebuilds a histogram from checkpointed parts.
    ///
    /// # Panics
    ///
    /// Panics if `counts.len() != bounds.len() + 1` or the bounds are
    /// invalid.
    pub fn from_parts(bounds: Vec<f64>, counts: Vec<u64>, sum: f64, count: u64) -> Self {
        let mut h = Histogram::new(bounds);
        assert_eq!(counts.len(), h.counts.len(), "count vector length mismatch");
        h.counts = counts;
        h.sum = sum;
        h.count = count;
        h
    }

    /// Returns `self` with the quarantined non-finite observation count
    /// set (checkpoint restore; see [`Histogram::nonfinite`]).
    #[must_use]
    pub fn with_nonfinite(mut self, nonfinite: u64) -> Self {
        self.nonfinite = nonfinite;
        self
    }

    /// Records one observation.
    ///
    /// Non-finite values never represent a real measurement here — they
    /// are always an upstream bug — so they are quarantined in the
    /// [`nonfinite`](Self::nonfinite) counter instead of masquerading as
    /// a huge sample in the overflow bucket, and debug builds panic to
    /// surface the bug at its source.
    pub fn observe(&mut self, v: f64) {
        if !v.is_finite() {
            self.nonfinite += 1;
            debug_assert!(v.is_finite(), "non-finite histogram observation: {v}");
            return;
        }
        let idx = self.bucket_for(v);
        self.counts[idx] += 1;
        self.sum += v;
        self.count += 1;
    }

    /// Folds `other` into `self`: element-wise bucket addition plus
    /// sum/count accumulation. The fleet executor uses this to stream
    /// per-shard partials into one registry without holding per-device
    /// state. Counts saturate at `u64::MAX` instead of overflowing: the
    /// partials may come from a journal, and two records that each
    /// decode can still hold counts whose sum does not fit.
    ///
    /// # Panics
    ///
    /// Panics if the two histograms have different bucket bounds —
    /// merging partials observed against different bucketings would be
    /// a silent wrong answer.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "histogram partials must share bucket bounds to merge"
        );
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine = mine.saturating_add(*theirs);
        }
        self.sum += other.sum;
        self.count = self.count.saturating_add(other.count);
        self.nonfinite = self.nonfinite.saturating_add(other.nonfinite);
    }

    /// The bucket index `v` lands in: the first bound with `v <= bound`,
    /// or the overflow index `bounds.len()`.
    pub fn bucket_for(&self, v: f64) -> usize {
        self.bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len())
    }

    /// The configured upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts, overflow bucket last.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Total number of finite observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of non-finite observations quarantined by
    /// [`observe`](Self::observe) — they appear in no bucket and
    /// contribute nothing to `sum`/`count`.
    pub fn nonfinite(&self) -> u64 {
        self.nonfinite
    }

    /// Appends the histogram's JSON object to `out`.
    fn push_json(&self, out: &mut String) {
        out.push_str("{\"bounds\":[");
        for (i, &b) in self.bounds.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_f64(out, b);
        }
        out.push_str("],\"counts\":[");
        for (i, c) in self.counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{c}");
        }
        out.push_str("],\"sum\":");
        push_json_f64(out, self.sum);
        let _ = write!(
            out,
            ",\"count\":{},\"nonfinite\":{}",
            self.count, self.nonfinite
        );
        if let Some(q) = crate::quantile::QuantileSummary::from_histogram(self) {
            out.push_str(",\"quantiles\":");
            q.push_json(out);
        }
        out.push('}');
    }
}

/// Splits a metric name into its family and an optional label body, e.g.
/// `a{b="c"}` → (`a`, Some(`b="c"`)).
fn split_name(name: &str) -> (&str, Option<&str>) {
    match name.split_once('{') {
        Some((family, rest)) => (family, Some(rest.trim_end_matches('}'))),
        None => (name, None),
    }
}

/// A pre-resolved counter slot: one name lookup at registration time
/// buys direct-indexed `inc`/`add` on the hot path (see
/// [`MetricsRegistry::counter_handle`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterHandle(usize);

/// A pre-resolved gauge slot (see [`MetricsRegistry::gauge_handle`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeHandle(usize);

/// A pre-resolved histogram slot (see
/// [`MetricsRegistry::histogram_handle`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramHandle(usize);

/// A registry of named counters, gauges, and histograms.
///
/// Values live in append-only slot vectors; a `BTreeMap` per type maps
/// names to slots, so exports stay byte-deterministic (name order)
/// while handle-based recording is a bare vector index. Handles remain
/// valid for the registry's lifetime — slots are never removed.
///
/// # Examples
///
/// ```
/// use simty_obs::MetricsRegistry;
///
/// let mut m = MetricsRegistry::new();
/// m.describe("sim_wakeups_total", "CPU wakeups from sleep.");
/// m.add("sim_wakeups_total{policy=\"SIMTY\"}", 3);
/// m.set_gauge("sim_queue_depth", 7.0);
/// let text = m.expose();
/// assert!(text.contains("# TYPE sim_wakeups_total counter"));
/// assert!(text.contains("sim_wakeups_total{policy=\"SIMTY\"} 3"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counter_slots: BTreeMap<String, usize>,
    counter_vals: Vec<u64>,
    gauge_slots: BTreeMap<String, usize>,
    gauge_vals: Vec<f64>,
    hist_slots: BTreeMap<String, usize>,
    hist_vals: Vec<Histogram>,
    /// Family → help text; static text is borrowed, not copied.
    help: BTreeMap<Cow<'static, str>, Cow<'static, str>>,
}

/// Logical equality: same names mapped to the same values, regardless
/// of the slot order registration happened to assign.
impl PartialEq for MetricsRegistry {
    fn eq(&self, other: &Self) -> bool {
        self.help == other.help
            && self.counters().eq(other.counters())
            && self.gauges().eq(other.gauges())
            && self.histograms().eq(other.histograms())
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Registers help text for a metric family (the name *without*
    /// labels), shown as `# HELP` in the exposition.
    pub fn describe(
        &mut self,
        family: impl Into<Cow<'static, str>>,
        help: impl Into<Cow<'static, str>>,
    ) {
        self.help.insert(family.into(), help.into());
    }

    fn counter_slot(&mut self, name: &str) -> usize {
        if let Some(&i) = self.counter_slots.get(name) {
            return i;
        }
        let i = self.counter_vals.len();
        self.counter_vals.push(0);
        self.counter_slots.insert(name.to_owned(), i);
        i
    }

    fn gauge_slot(&mut self, name: &str) -> usize {
        if let Some(&i) = self.gauge_slots.get(name) {
            return i;
        }
        let i = self.gauge_vals.len();
        self.gauge_vals.push(0.0);
        self.gauge_slots.insert(name.to_owned(), i);
        i
    }

    /// Resolves (creating at zero if needed) a counter to a reusable
    /// handle, hoisting the name lookup out of hot loops.
    pub fn counter_handle(&mut self, name: &str) -> CounterHandle {
        CounterHandle(self.counter_slot(name))
    }

    /// Resolves (creating if needed) a gauge to a reusable handle.
    pub fn gauge_handle(&mut self, name: &str) -> GaugeHandle {
        GaugeHandle(self.gauge_slot(name))
    }

    /// Resolves a histogram to a reusable handle, creating it with
    /// [`DEFAULT_BOUNDS`] if it was never registered.
    pub fn histogram_handle(&mut self, name: &str) -> HistogramHandle {
        if let Some(&i) = self.hist_slots.get(name) {
            return HistogramHandle(i);
        }
        let i = self.hist_vals.len();
        self.hist_vals.push(Histogram::new(DEFAULT_BOUNDS.to_vec()));
        self.hist_slots.insert(name.to_owned(), i);
        HistogramHandle(i)
    }

    /// Increments a counter through its handle.
    pub fn inc_counter(&mut self, h: CounterHandle) {
        self.counter_vals[h.0] += 1;
    }

    /// Adds `delta` to a counter through its handle.
    pub fn add_counter(&mut self, h: CounterHandle, delta: u64) {
        self.counter_vals[h.0] += delta;
    }

    /// Sets a gauge through its handle.
    pub fn set_gauge_value(&mut self, h: GaugeHandle, value: f64) {
        self.gauge_vals[h.0] = value;
    }

    /// Records an observation through a histogram handle.
    pub fn observe_value(&mut self, h: HistogramHandle, v: f64) {
        self.hist_vals[h.0].observe(v);
    }

    /// Increments a counter by one, creating it at zero first if needed.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Adds `delta` to a counter, creating it at zero first if needed.
    pub fn add(&mut self, name: &str, delta: u64) {
        let i = self.counter_slot(name);
        self.counter_vals[i] += delta;
    }

    /// Overwrites a counter (checkpoint restore).
    pub fn set_counter(&mut self, name: &str, value: u64) {
        let i = self.counter_slot(name);
        self.counter_vals[i] = value;
    }

    /// Sets a gauge to `value`.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        let i = self.gauge_slot(name);
        self.gauge_vals[i] = value;
    }

    /// Registers a histogram under `name` with the given bucket bounds.
    /// Re-registering an existing histogram leaves its state untouched.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are invalid (see [`Histogram::new`]).
    pub fn register_histogram(&mut self, name: &str, bounds: Vec<f64>) {
        if !self.hist_slots.contains_key(name) {
            let i = self.hist_vals.len();
            self.hist_vals.push(Histogram::new(bounds));
            self.hist_slots.insert(name.to_owned(), i);
        }
    }

    /// Inserts (or replaces) a fully-built histogram (checkpoint
    /// restore).
    pub fn insert_histogram(&mut self, name: &str, histogram: Histogram) {
        match self.hist_slots.get(name) {
            Some(&i) => self.hist_vals[i] = histogram,
            None => {
                let i = self.hist_vals.len();
                self.hist_vals.push(histogram);
                self.hist_slots.insert(name.to_owned(), i);
            }
        }
    }

    /// Records an observation into the named histogram, creating it with
    /// [`DEFAULT_BOUNDS`] if it was never registered.
    pub fn observe(&mut self, name: &str, v: f64) {
        let h = self.histogram_handle(name);
        self.hist_vals[h.0].observe(v);
    }

    /// A counter's value (zero if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counter_slots
            .get(name)
            .map_or(0, |&i| self.counter_vals[i])
    }

    /// A gauge's value, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauge_slots.get(name).map(|&i| self.gauge_vals[i])
    }

    /// A histogram, if registered.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.hist_slots.get(name).map(|&i| &self.hist_vals[i])
    }

    /// All counters in name order (checkpoint capture).
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counter_slots
            .iter()
            .map(|(k, &i)| (k.as_str(), self.counter_vals[i]))
    }

    /// All gauges in name order (checkpoint capture).
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauge_slots
            .iter()
            .map(|(k, &i)| (k.as_str(), self.gauge_vals[i]))
    }

    /// All histograms in name order (checkpoint capture).
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.hist_slots
            .iter()
            .map(|(k, &i)| (k.as_str(), &self.hist_vals[i]))
    }

    /// Folds another registry into this one: counters add, gauges take
    /// `other`'s value (last write wins), histograms merge element-wise
    /// (see [`Histogram::merge`]), and help text is unioned. Merging is
    /// associative and, for counters and histograms, commutative — so a
    /// fleet can fold per-shard partials in any grouping and export one
    /// deterministic registry.
    ///
    /// # Panics
    ///
    /// Panics if a histogram present in both registries has different
    /// bucket bounds.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, value) in other.counters() {
            self.add(name, value);
        }
        for (name, value) in other.gauges() {
            self.set_gauge(name, value);
        }
        for (name, theirs) in other.histograms() {
            match self.hist_slots.get(name) {
                Some(&i) => self.hist_vals[i].merge(theirs),
                None => self.insert_histogram(name, theirs.clone()),
            }
        }
        for (family, help) in &other.help {
            self.help
                .entry(family.clone())
                .or_insert_with(|| help.clone());
        }
    }

    /// Renders the registry in the Prometheus text exposition format:
    /// counters, then gauges, then histograms, each family prefixed by
    /// its `# HELP` (when described) and `# TYPE` lines, keys in
    /// lexicographic order. Fully deterministic.
    pub fn expose(&self) -> String {
        let mut out = String::new();
        let mut last_family = String::new();
        for (name, value) in self.counters() {
            self.header(&mut out, name, "counter", &mut last_family);
            out.push_str(&format!("{name} {value}\n"));
        }
        for (name, value) in self.gauges() {
            self.header(&mut out, name, "gauge", &mut last_family);
            out.push_str(&format!("{name} {}\n", expose_f64(value)));
        }
        for (name, h) in self.histograms() {
            self.header(&mut out, name, "histogram", &mut last_family);
            let (family, labels) = split_name(name);
            let with = |le: &str| match labels {
                Some(l) => format!("{family}_bucket{{{l},le=\"{le}\"}}"),
                None => format!("{family}_bucket{{le=\"{le}\"}}"),
            };
            let suffixed = |suffix: &str| match labels {
                Some(l) => format!("{family}_{suffix}{{{l}}}"),
                None => format!("{family}_{suffix}"),
            };
            let mut cumulative = 0;
            for (i, &bound) in h.bounds().iter().enumerate() {
                cumulative += h.counts()[i];
                out.push_str(&format!("{} {cumulative}\n", with(&expose_f64(bound))));
            }
            out.push_str(&format!("{} {}\n", with("+Inf"), h.count()));
            out.push_str(&format!("{} {}\n", suffixed("sum"), expose_f64(h.sum())));
            out.push_str(&format!("{} {}\n", suffixed("count"), h.count()));
            out.push_str(&format!("{} {}\n", suffixed("nonfinite"), h.nonfinite()));
            if let Some(q) = crate::quantile::QuantileSummary::from_histogram(h) {
                out.push_str(&format!("{} {}\n", suffixed("q50"), expose_f64(q.q50)));
                out.push_str(&format!("{} {}\n", suffixed("q90"), expose_f64(q.q90)));
                out.push_str(&format!("{} {}\n", suffixed("q99"), expose_f64(q.q99)));
                out.push_str(&format!("{} {}\n", suffixed("max"), expose_f64(q.max)));
            }
        }
        out
    }

    fn header(&self, out: &mut String, name: &str, kind: &str, last_family: &mut String) {
        let (family, _) = split_name(name);
        if family != last_family {
            if let Some(help) = self.help.get(family) {
                out.push_str(&format!("# HELP {family} {help}\n"));
            }
            out.push_str(&format!("# TYPE {family} {kind}\n"));
            *last_family = family.to_owned();
        }
    }

    /// Renders the registry as one deterministic JSON object:
    /// `{"counters":{...},"gauges":{...},"histograms":{...}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.json_len_hint());
        out.push_str("{\"counters\":{");
        for (i, (name, value)) in self.counters().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, name);
            let _ = write!(out, ":{value}");
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, value)) in self.gauges().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, name);
            out.push(':');
            push_json_f64(&mut out, value);
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, name);
            out.push(':');
            h.push_json(&mut out);
        }
        out.push_str("}}");
        out
    }

    /// An estimate of [`to_json`](Self::to_json)'s length, so the
    /// snapshot renders into one allocation: every name plus room for a
    /// typical value, and per histogram room for its quantiles and for
    /// short bounds and counts. A longer rendering only grows the string.
    fn json_len_hint(&self) -> usize {
        const SCALAR: usize = 24;
        let names =
            |slots: &BTreeMap<String, usize>| slots.keys().map(|k| k.len() + SCALAR).sum::<usize>();
        let hists: usize = self
            .histograms()
            .map(|(name, h)| name.len() + 8 * SCALAR + 16 * h.bounds().len())
            .sum();
        64 + names(&self.counter_slots) + names(&self.gauge_slots) + hists
    }
}

/// Formats an `f64` for the text exposition (`+Inf`/`-Inf`/`NaN` in
/// Prometheus style, shortest round-trip decimal otherwise).
fn expose_f64(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_owned()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_owned()
    } else if v.is_nan() {
        "NaN".to_owned()
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = MetricsRegistry::new();
        m.inc("a");
        m.add("a", 4);
        assert_eq!(m.counter("a"), 5);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn histogram_bucket_boundaries_are_le() {
        let mut h = Histogram::new(vec![1.0, 2.0, 4.0]);
        // Exactly on a bound lands *in* that bound's bucket (le
        // semantics); just above it spills to the next.
        h.observe(1.0);
        h.observe(1.0000001);
        h.observe(4.0);
        h.observe(4.1);
        assert_eq!(h.counts(), &[1, 1, 1, 1]);
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 10.1000001).abs() < 1e-9);
    }

    #[test]
    fn exposition_renders_every_type() {
        let mut m = MetricsRegistry::new();
        m.describe("c", "a counter");
        m.add("c{k=\"v\"}", 2);
        m.set_gauge("g", 1.5);
        m.register_histogram("h", vec![1.0, 2.0]);
        m.observe("h", 1.0);
        m.observe("h", 3.0);
        let text = m.expose();
        let expected = "\
# HELP c a counter
# TYPE c counter
c{k=\"v\"} 2
# TYPE g gauge
g 1.5
# TYPE h histogram
h_bucket{le=\"1\"} 1
h_bucket{le=\"2\"} 1
h_bucket{le=\"+Inf\"} 2
h_sum 4
h_count 2
h_nonfinite 0
h_q50 1
h_q90 2
h_q99 2
h_max 2
";
        assert_eq!(text, expected);
    }

    #[test]
    fn labelled_histograms_splice_le_inside_the_braces() {
        let mut m = MetricsRegistry::new();
        m.register_histogram("h{app=\"x\"}", vec![1.0]);
        m.observe("h{app=\"x\"}", 0.5);
        let text = m.expose();
        assert!(text.contains("h_bucket{app=\"x\",le=\"1\"} 1"));
        assert!(text.contains("h_sum{app=\"x\"} 0.5"));
        assert!(text.contains("h_count{app=\"x\"} 1"));
    }

    #[test]
    fn unregistered_observation_uses_default_bounds() {
        let mut m = MetricsRegistry::new();
        m.observe("h", 3.0);
        assert_eq!(m.histogram("h").unwrap().bounds(), &DEFAULT_BOUNDS);
    }

    #[test]
    fn json_snapshot_shape() {
        let mut m = MetricsRegistry::new();
        m.add("a", 1);
        m.set_gauge("g", 0.5);
        m.register_histogram("h", vec![1.0]);
        m.observe("h", 2.0);
        assert_eq!(
            m.to_json(),
            "{\"counters\":{\"a\":1},\"gauges\":{\"g\":0.5},\"histograms\":\
             {\"h\":{\"bounds\":[1],\"counts\":[0,1],\"sum\":2,\"count\":1,\
             \"nonfinite\":0,\"quantiles\":{\"q50\":2,\"q90\":2,\"q99\":2,\"max\":2}}}}"
        );
    }

    #[test]
    fn nonfinite_observations_are_quarantined() {
        let mut h = Histogram::new(vec![1.0]);
        h.observe(0.5);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let poked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h.observe(bad)));
            // Debug builds assert at the source; release builds only count.
            assert_eq!(poked.is_err(), cfg!(debug_assertions));
        }
        // Either way the poisoned values land in the quarantine counter,
        // not in a bucket, the sum, or the sample count.
        assert_eq!(h.nonfinite(), 3);
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 0.5);
        assert_eq!(h.counts(), &[1, 0]);
        // And they survive a merge and a parts round-trip.
        let mut merged = Histogram::new(vec![1.0]);
        merged.merge(&h);
        assert_eq!(merged.nonfinite(), 3);
        let rebuilt =
            Histogram::from_parts(h.bounds().to_vec(), h.counts().to_vec(), h.sum(), h.count())
                .with_nonfinite(h.nonfinite());
        assert_eq!(rebuilt, h);
    }

    #[test]
    fn merge_folds_partials_associatively() {
        let partial = |n: u64| {
            let mut m = MetricsRegistry::new();
            m.describe("c", "a counter");
            m.add("c", n);
            m.set_gauge("g", n as f64);
            m.register_histogram("h", vec![1.0, 2.0]);
            m.observe("h", n as f64);
            m
        };
        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
        let mut left = partial(1);
        left.merge(&partial(2));
        left.merge(&partial(3));
        let mut bc = partial(2);
        bc.merge(&partial(3));
        let mut right = partial(1);
        right.merge(&bc);
        assert_eq!(left, right);
        assert_eq!(left.counter("c"), 6);
        assert_eq!(left.gauge("g"), Some(3.0));
        let h = left.histogram("h").unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(h.counts(), &[1, 1, 1]);
    }

    #[test]
    fn merge_saturates_instead_of_overflowing() {
        let big = Histogram::from_parts(vec![1.0], vec![1 << 63, 0], 1.0, 1 << 63);
        let mut merged = big.clone();
        merged.merge(&big);
        assert_eq!(merged.counts(), &[u64::MAX, 0]);
        assert_eq!(merged.count(), u64::MAX);
        assert_eq!(merged.sum(), 2.0);
    }

    #[test]
    #[should_panic(expected = "share bucket bounds")]
    fn merge_rejects_mismatched_bounds() {
        let mut a = MetricsRegistry::new();
        a.register_histogram("h", vec![1.0]);
        let mut b = MetricsRegistry::new();
        b.register_histogram("h", vec![2.0]);
        a.merge(&b);
    }

    #[test]
    fn parts_round_trip() {
        let mut h = Histogram::new(vec![1.0, 2.0]);
        h.observe(1.5);
        let rebuilt = Histogram::from_parts(
            h.bounds().to_vec(),
            h.counts().to_vec(),
            h.sum(),
            h.count(),
        );
        assert_eq!(rebuilt, h);
    }
}
