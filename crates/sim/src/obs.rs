//! The simulation's observability layer: spans, metrics, and the
//! placement-decision audit ring.
//!
//! Every piece of state here is driven exclusively by the *simulation*
//! clock and the deterministic event order, never by wall time — so the
//! span JSONL, the metrics snapshot, and the audit export are
//! byte-identical across sweep thread counts and across a mid-run
//! checkpoint/resume (both properties are asserted in tests). Wall-clock
//! self-profiling lives apart in
//! [`StageProfile`](simty_obs::StageProfile), which the engine keeps out
//! of every deterministic export.
//!
//! # Levels
//!
//! [`SimConfig::obs`](crate::config::SimConfig::obs) picks one of four
//! [`ObsLevel`]s. Each records what the one before it does, and more:
//!
//! * **Off** records nothing: every export renders empty, the report's
//!   `metrics` block renders as `null`, and the engine hoists the
//!   instrumentation branches out of its hot loop
//!   ([`SimConfig::without_obs`](crate::config::SimConfig::without_obs) /
//!   `standby sweep --no-obs`).
//! * **Counts** updates every metric exactly as Full does, so the report
//!   (its `metrics` block included) is byte-identical, and counts the
//!   spans and audits Full would record, with their ring evictions. It
//!   builds no span, audit, candidate list or alarm alias, and reads no
//!   stage clock. Fleet devices and `RunSpec::run` run here: they read
//!   only the report and the two eviction counts.
//! * **Timed** is Counts plus the wall clock read around each stage
//!   (queue search, selection, dispatch, delivery, checkpoint I/O) for
//!   the [`StageProfile`](simty_obs::StageProfile).
//!   `RunSpec::run_instrumented`, and so every sweep cell, runs here.
//! * **Full** (the default) is Timed plus the records themselves. Per
//!   delivery: the wakeup, entry and alarm counters, the entry-size,
//!   delay and hold histograms, each hardware component's active time,
//!   and one `task_run` span. Per wake cycle: a `wake_cycle` span. Per
//!   placement decision: the placement counter, a `policy_place` span,
//!   an alarm alias, and a [`PlacementAudit`] with every candidate the
//!   policy weighed.
//!
//! Two predicates say what a level records, and the engine and the
//! checkpoint codec ask only them:
//! [`counts_records`](ObsLevel::counts_records) and
//! [`reads_stage_clocks`](ObsLevel::reads_stage_clocks).
//!
//! What each level costs a run: building its workload and simulation,
//! and running it. Each run's time is its best of 9 at each level, the
//! levels interleaved; two passes on a shared 2-vCPU x86-64 Linux
//! container. A fleet device is a 10-minute paper-mix device,
//! devices `[0, 1024)` under NATIVE and SIMTY; a paper run is a 3 h run
//! of the paper's 18-run grid (EXACT, NATIVE and SIMTY, light and heavy,
//! three seeds, β = 0.96):
//!
//! | level | µs per fleet device | µs per 3 h paper run |
//! |---|---|---|
//! | Full | 139–149 | 1 846–2 086 |
//! | Timed | 108–115 | 1 454–1 582 |
//! | Counts | 86–91 | 1 033–1 111 |
//! | Off | 72–77 | 944–992 |
//!
//! At Full the hot paths allocate nothing once the rings are full:
//!
//! * a span keeps its attributes inline (see [`simty_obs::Span`]);
//!   numbers, placements (`existing:{idx}`), and labels are formatted
//!   only at export;
//! * counters are bumped through handles resolved once, on first use;
//! * the manager's audit sink keeps its buffer across drains, and each
//!   audit the ring evicts hands its candidate buffer back to the
//!   manager for the next decision;
//! * the report's metrics snapshot renders into one pre-sized string,
//!   and the help text of every family is borrowed, not copied.
//!
//! What still allocates is growth: the rings, the alias table (once per
//! new alarm), and the first series of a component. A full-ring run's
//! second half allocates within a few percent as often as an
//! uninstrumented run's, a Counts run no more often than a Full one, and
//! a Timed run exactly as often as a Counts one
//! (`tests/alloc_profile.rs`). The overhead left at Full is work, not
//! heap churn: stage clock reads, span and audit construction, counter
//! and histogram updates, and rendering the snapshot.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::Arc;

use simty_core::alarm::AlarmId;
use simty_core::audit::{AuditLevel, PlacementAudit, PlacementTally};
use simty_core::policy::Placement;
use simty_core::time::SimTime;
use simty_obs::{
    AttrValue, CounterHandle, GaugeHandle, HistogramHandle, MetricsRegistry, SpanCollector,
    SpanKind,
};

use simty_obs::json_string;

/// How many spans the ring retains before evicting the oldest.
pub const SPAN_CAPACITY: usize = 2048;

/// Default capacity of the placement-audit ring (see
/// [`SimConfig::with_audit_capacity`](crate::config::SimConfig::with_audit_capacity)).
pub const DEFAULT_AUDIT_CAPACITY: usize = 4096;

/// How much a run's observability layer records (see the
/// [module docs](self) for what each level costs). Each level records
/// what the one before it does, and more: Off < Counts < Timed < Full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsLevel {
    /// Nothing: every export renders empty, and the report's `metrics`
    /// block renders as `null`.
    Off,
    /// Every metric, exactly as at [`Full`](ObsLevel::Full), plus the
    /// number of spans and placement audits recorded and evicted. No
    /// span, audit, candidate list or alarm alias is built, and no stage
    /// clock is read.
    Counts,
    /// [`Counts`](ObsLevel::Counts), and the wall-clock stage profile.
    Timed,
    /// [`Timed`](ObsLevel::Timed), with every span and placement audit
    /// built and kept in its ring. The default.
    Full,
}

impl ObsLevel {
    /// Whether spans and placement audits are counted, with their ring
    /// evictions, but never built ([`Counts`](ObsLevel::Counts) and
    /// [`Timed`](ObsLevel::Timed)).
    pub const fn counts_records(self) -> bool {
        matches!(self, ObsLevel::Counts | ObsLevel::Timed)
    }

    /// Whether the engine reads the wall clock around each stage for the
    /// [`StageProfile`](simty_obs::StageProfile)
    /// ([`Timed`](ObsLevel::Timed) and [`Full`](ObsLevel::Full)).
    pub const fn reads_stage_clocks(self) -> bool {
        matches!(self, ObsLevel::Timed | ObsLevel::Full)
    }

    /// What the alarm manager records about each placement at this
    /// level.
    pub const fn audit_level(self) -> AuditLevel {
        match self {
            ObsLevel::Off => AuditLevel::Off,
            _ if self.counts_records() => AuditLevel::Outcomes,
            _ => AuditLevel::Full,
        }
    }

    /// The level whose `as u8` is `repr`: the engine monomorphises its
    /// event loop over that number.
    pub(crate) const fn from_repr(repr: u8) -> ObsLevel {
        match repr {
            0 => ObsLevel::Off,
            1 => ObsLevel::Counts,
            2 => ObsLevel::Timed,
            3 => ObsLevel::Full,
            _ => panic!("no observability level has this number"),
        }
    }
}

/// Spans + metrics + decision audits for one simulation.
///
/// Owned by [`Simulation`](crate::engine::Simulation); read it via
/// [`Simulation::obs`](crate::engine::Simulation::obs).
#[derive(Debug)]
pub struct ObsLayer {
    pub(crate) spans: SpanCollector,
    pub(crate) metrics: MetricsRegistry,
    pub(crate) audits: VecDeque<PlacementAudit>,
    pub(crate) audit_capacity: usize,
    pub(crate) audit_dropped: u64,
    /// Placement audits counted, retained or evicted, at a level that
    /// [counts records](ObsLevel::counts_records) (and retains none);
    /// zero at the other levels.
    pub(crate) audits_counted: u64,
    /// When the current wake cycle began (device asleep → awake), if one
    /// is open.
    pub(crate) wake_open: Option<SimTime>,
    /// Raw [`AlarmId`] → run-local ordinal (1-based, in first-placement
    /// order). Raw ids come from a process-global counter and differ
    /// between runs in one process, so exports must never contain them:
    /// every export renders the ordinal instead.
    pub(crate) aliases: BTreeMap<u64, u64>,
    /// How much the layer records.
    pub(crate) level: ObsLevel,
    /// Slot handles for every per-delivery metric, resolved once at
    /// construction so the hot path performs no name lookups at all.
    hot: HotHandles,
    /// Component name → counter handle, filled lazily; the hardware set
    /// is tiny, so a linear scan beats hashing.
    component_keys: Vec<(String, CounterHandle)>,
    /// The `existing` and `new_entry` placement counters, each resolved
    /// on its first placement (the series appears exactly when a
    /// name-keyed increment would have created it).
    placement_keys: [Option<CounterHandle>; 2],
}

/// Pre-resolved [`MetricsRegistry`] slots for the metrics touched on
/// every delivery. All of them are pre-registered by [`ObsLayer::new`],
/// so resolving handles afterwards creates no new series.
#[derive(Debug, Clone, Copy)]
struct HotHandles {
    wakeups: CounterHandle,
    entry_deliveries: CounterHandle,
    alarm_deliveries: CounterHandle,
    queue_depth: GaugeHandle,
    entry_size: HistogramHandle,
    normalized_delay: HistogramHandle,
    task_hold_ms: HistogramHandle,
}

impl HotHandles {
    fn resolve(metrics: &mut MetricsRegistry, policy: &str) -> Self {
        HotHandles {
            wakeups: metrics.counter_handle(&format!("sim_wakeups_total{{policy=\"{policy}\"}}")),
            entry_deliveries: metrics.counter_handle("sim_entry_deliveries_total"),
            alarm_deliveries: metrics.counter_handle("sim_alarm_deliveries_total"),
            queue_depth: metrics.gauge_handle("sim_wakeup_queue_depth"),
            entry_size: metrics.histogram_handle("sim_entry_size"),
            normalized_delay: metrics.histogram_handle("sim_normalized_delay"),
            task_hold_ms: metrics.histogram_handle("sim_task_hold_ms"),
        }
    }
}

/// Registers every metric family the engine records, with its help
/// text, zeroed counters and gauges, and histogram bounds.
fn register_families(metrics: &mut MetricsRegistry, policy: &str) {
    metrics.describe("sim_wakeups_total", "Device sleep-to-awake transitions.");
    metrics.describe(
        "sim_entry_deliveries_total",
        "Queue-entry (batch) deliveries.",
    );
    metrics.describe("sim_alarm_deliveries_total", "Individual alarm deliveries.");
    metrics.describe(
        "sim_placements_total",
        "Placement decisions by outcome (existing entry vs new entry).",
    );
    metrics.describe(
        "sim_watchdog_forced_releases_total",
        "Offender wakelock sets cut loose by the watchdog.",
    );
    metrics.describe(
        "sim_watchdog_quarantines_total",
        "Apps quarantined by the online watchdog.",
    );
    metrics.describe(
        "sim_watchdog_recoveries_total",
        "Apps recovered from quarantine after clean probation.",
    );
    metrics.describe(
        "sim_checkpoints_total",
        "Crash-consistent checkpoints captured.",
    );
    metrics.describe(
        "sim_component_active_ms_total",
        "Milliseconds each hardware component was held by delivered tasks.",
    );
    metrics.describe(
        "sim_wakeup_queue_depth",
        "Entries in the wakeup queue after the latest delivery round.",
    );
    metrics.describe(
        "sim_quarantined_apps",
        "Apps currently quarantined by the online watchdog.",
    );
    metrics.describe(
        "sim_entry_size",
        "Alarms per delivered queue entry (batching effectiveness).",
    );
    metrics.describe(
        "sim_normalized_delay",
        "Normalized delivery delay of repeating alarms (the paper's Fig. 4 metric).",
    );
    metrics.describe(
        "sim_task_hold_ms",
        "Milliseconds each delivered task held its wakelocks.",
    );
    metrics.describe(
        "sim_admission_decisions_total",
        "Registration front-door decisions by outcome (admit/defer/reject).",
    );
    metrics.describe(
        "sim_admission_demotions_total",
        "Apps demoted (quarantined) by the admission controller.",
    );
    metrics.describe(
        "sim_registrations_shed_total",
        "Deferrable registrations shed by the critical degradation tier.",
    );
    metrics.describe(
        "sim_storm_registrations_total",
        "Registrations attempted by an injected registration storm.",
    );
    metrics.describe(
        "sim_degradation_transitions_total",
        "Degradation-governor tier transitions.",
    );
    metrics.describe(
        "sim_degradation_tier",
        "Current degradation tier (0=normal, 1=saver, 2=critical).",
    );
    metrics.describe(
        "sim_battery_soc_milli",
        "Modeled battery state of charge in permille, at the latest governor tick.",
    );
    metrics.set_counter(&format!("sim_wakeups_total{{policy=\"{policy}\"}}"), 0);
    metrics.set_counter("sim_entry_deliveries_total", 0);
    metrics.set_counter("sim_alarm_deliveries_total", 0);
    metrics.set_counter("sim_admission_demotions_total", 0);
    metrics.set_counter("sim_registrations_shed_total", 0);
    metrics.set_counter("sim_storm_registrations_total", 0);
    metrics.set_counter("sim_degradation_transitions_total", 0);
    metrics.set_gauge("sim_wakeup_queue_depth", 0.0);
    metrics.set_gauge("sim_quarantined_apps", 0.0);
    metrics.set_gauge("sim_degradation_tier", 0.0);
    metrics.set_gauge("sim_battery_soc_milli", 1_000.0);
    metrics.register_histogram("sim_entry_size", vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0]);
    metrics.register_histogram("sim_normalized_delay", vec![0.05, 0.1, 0.2, 0.4, 0.8, 1.6]);
    metrics.register_histogram(
        "sim_task_hold_ms",
        vec![10.0, 100.0, 1_000.0, 10_000.0, 60_000.0, 300_000.0],
    );
}

impl ObsLayer {
    /// Creates the layer for a run under `policy` at `level`.
    ///
    /// Above [`ObsLevel::Off`] it registers every metric family with its
    /// help text, so the exposition is self-describing even before
    /// anything is observed. At `Off` nothing is registered, every
    /// recording method returns immediately, and every export renders
    /// empty; the engine pairs this with hoisting its instrumentation
    /// branches out of the hot loop, so an uninstrumented run pays
    /// nothing for observability while its traces and reports stay
    /// byte-identical to an instrumented run's.
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero.
    pub fn new(level: ObsLevel, policy: &str, audit_capacity: usize, span_capacity: usize) -> Self {
        assert!(
            audit_capacity > 0,
            "the audit ring needs room for one decision"
        );
        assert!(span_capacity > 0, "the span ring needs room for one span");
        let mut metrics = MetricsRegistry::new();
        let hot = if level == ObsLevel::Off {
            // Resolve the hot handles against a scratch registry so the
            // real (exported) registry stays empty; every recording
            // method checks the level before touching a handle.
            HotHandles::resolve(&mut MetricsRegistry::new(), policy)
        } else {
            register_families(&mut metrics, policy);
            HotHandles::resolve(&mut metrics, policy)
        };
        let spans = if level.counts_records() {
            SpanCollector::counting(span_capacity, 0)
        } else {
            SpanCollector::new(span_capacity)
        };
        ObsLayer {
            spans,
            metrics,
            audits: VecDeque::new(),
            audit_capacity,
            audit_dropped: 0,
            audits_counted: 0,
            wake_open: None,
            aliases: BTreeMap::new(),
            level,
            hot,
            component_keys: Vec::new(),
            placement_keys: [None; 2],
        }
    }

    /// How much the layer records.
    pub fn level(&self) -> ObsLevel {
        self.level
    }

    /// Whether the layer records metrics (every level but
    /// [`ObsLevel::Off`]).
    pub fn on(&self) -> bool {
        self.level != ObsLevel::Off
    }

    /// The span ring.
    pub fn spans(&self) -> &SpanCollector {
        &self.spans
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The retained placement audits, oldest first.
    pub fn audits(&self) -> impl Iterator<Item = &PlacementAudit> {
        self.audits.iter()
    }

    /// Audits evicted from the ring so far.
    pub fn audit_dropped(&self) -> u64 {
        self.audit_dropped
    }

    /// The audit ring's capacity.
    pub fn audit_capacity(&self) -> usize {
        self.audit_capacity
    }

    /// The run-local ordinal of an alarm (1-based, in first-placement
    /// order), if the alarm has been placed. Exports use this instead of
    /// the raw id, which is process-global and run-to-run unstable.
    pub fn alarm_ordinal(&self, id: AlarmId) -> Option<u64> {
        self.aliases.get(&id.as_u64()).copied()
    }

    fn alias(&mut self, id: AlarmId) -> u64 {
        let next = self.aliases.len() as u64 + 1;
        *self.aliases.entry(id.as_u64()).or_insert(next)
    }

    /// The `sim_placements_total` counter of one outcome (slot 0:
    /// existing entry, 1: new entry), resolved on its first placement, so
    /// the series appears exactly when a name-keyed increment would have
    /// created it.
    fn placement_counter(&mut self, slot: usize) -> CounterHandle {
        const SERIES: [&str; 2] = [
            "sim_placements_total{placement=\"existing\"}",
            "sim_placements_total{placement=\"new_entry\"}",
        ];
        let metrics = &mut self.metrics;
        *self.placement_keys[slot].get_or_insert_with(|| metrics.counter_handle(SERIES[slot]))
    }

    /// Ingests one placement decision: bumps the placement counter,
    /// records a `policy_place` span, and retains the audit. Returns the
    /// oldest audit when the full ring evicts it, so its buffers can be
    /// reused.
    pub(crate) fn note_placement(&mut self, audit: PlacementAudit) -> Option<PlacementAudit> {
        if !self.on() {
            return None;
        }
        let (slot, placement) = match audit.placement {
            Placement::Existing(idx) => (
                0,
                match u32::try_from(idx) {
                    Ok(idx) => AttrValue::Indexed("existing:", idx),
                    Err(_) => AttrValue::from(format!("existing:{idx}")),
                },
            ),
            Placement::NewEntry => (1, AttrValue::Static("new_entry")),
        };
        let handle = self.placement_counter(slot);
        self.metrics.inc_counter(handle);
        let ordinal = self.alias(audit.alarm_id);
        let at = audit.at.as_millis();
        self.spans.record(
            SpanKind::PolicyPlace,
            at,
            at,
            [
                ("app", Arc::clone(&audit.app).into()),
                ("alarm", ordinal.into()),
                ("placement", placement),
                ("candidates", audit.candidates.len().into()),
            ],
        );
        let evicted = if self.audits.len() == self.audit_capacity {
            self.audit_dropped += 1;
            self.audits.pop_front()
        } else {
            None
        };
        self.audits.push_back(audit);
        evicted
    }

    /// Ingests the placement decisions tallied at a level that
    /// [counts records](ObsLevel::counts_records):
    /// the placement counters move exactly as
    /// [`note_placement`](Self::note_placement) would move them, and the
    /// `policy_place` spans and audits are counted, with their evictions,
    /// but never built.
    pub(crate) fn note_tally(&mut self, tally: PlacementTally) {
        for (slot, n) in [(0, tally.existing), (1, tally.new_entry)] {
            if n > 0 {
                let handle = self.placement_counter(slot);
                self.metrics.add_counter(handle, n);
            }
        }
        let n = tally.total();
        self.spans.count(n);
        let cap = self.audit_capacity as u64;
        let before = self.audits_counted.saturating_sub(cap);
        self.audits_counted += n;
        self.audit_dropped += self.audits_counted.saturating_sub(cap) - before;
    }

    /// The device left sleep at `t`: opens a wake cycle and counts it.
    pub(crate) fn wake_started(&mut self, t: SimTime) {
        if !self.on() {
            return;
        }
        self.metrics.inc_counter(self.hot.wakeups);
        if self.wake_open.is_none() {
            self.wake_open = Some(t);
        }
    }

    /// One queue entry carrying `entry_size` alarms was delivered.
    pub(crate) fn entry_delivered(&mut self, entry_size: usize) {
        if !self.on() {
            return;
        }
        self.metrics.inc_counter(self.hot.entry_deliveries);
        self.metrics
            .observe_value(self.hot.entry_size, entry_size as f64);
    }

    /// One alarm was delivered: counts it and records its normalized
    /// delay (if the alarm repeats) and its task's wakelock hold time.
    pub(crate) fn alarm_delivered(&mut self, normalized_delay: Option<f64>, hold_ms: u64) {
        if !self.on() {
            return;
        }
        self.metrics.inc_counter(self.hot.alarm_deliveries);
        if let Some(nd) = normalized_delay {
            self.metrics.observe_value(self.hot.normalized_delay, nd);
        }
        self.metrics
            .observe_value(self.hot.task_hold_ms, hold_ms as f64);
    }

    /// Records the wakeup-queue depth after a delivery round.
    pub(crate) fn queue_depth(&mut self, depth: usize) {
        if !self.on() {
            return;
        }
        self.metrics
            .set_gauge_value(self.hot.queue_depth, depth as f64);
    }

    /// The device went back to sleep (or lost power) at `t`: closes the
    /// open wake cycle, if any, into a `wake_cycle` span.
    pub(crate) fn wake_ended(&mut self, t: SimTime) {
        if let Some(start) = self.wake_open.take() {
            self.spans
                .record(SpanKind::WakeCycle, start.as_millis(), t.as_millis(), []);
        }
    }

    /// Adds `ms` of active time to a hardware component's labelled
    /// counter, resolving the slot handle at most once per component
    /// name (the series is created lazily, exactly when the string API
    /// would have created it).
    pub(crate) fn component_active(&mut self, component: &str, ms: u64) {
        if !self.on() {
            return;
        }
        let handle = match self.component_keys.iter().find(|(n, _)| n == component) {
            Some((_, h)) => *h,
            None => {
                let h = self.metrics.counter_handle(&format!(
                    "sim_component_active_ms_total{{component=\"{component}\"}}"
                ));
                self.component_keys.push((component.to_owned(), h));
                h
            }
        };
        self.metrics.add_counter(handle, ms);
    }

    /// Renders the retained spans as JSONL (oldest first, one object per
    /// line).
    pub fn spans_jsonl(&self) -> String {
        self.spans.to_jsonl()
    }

    /// The Prometheus-style text exposition of every metric.
    pub fn metrics_exposition(&self) -> String {
        self.metrics.expose()
    }

    /// The metrics snapshot as one JSON object (embedded into the run
    /// report by the engine).
    pub fn metrics_json(&self) -> String {
        self.metrics.to_json()
    }

    /// Renders the retained placement audits as JSONL, oldest first: one
    /// decision per line with every candidate the policy weighed.
    pub fn audits_jsonl(&self) -> String {
        let mut out = String::new();
        for a in &self.audits {
            let ordinal = self
                .alarm_ordinal(a.alarm_id)
                .expect("every retained audit was aliased at ingest");
            out.push_str(&audit_to_json(a, ordinal));
            out.push('\n');
        }
        out
    }
}

/// Renders one placement audit as a JSON object. `alarm_ordinal` is the
/// run-local alarm number (see [`ObsLayer::alarm_ordinal`]) — raw
/// [`AlarmId`]s are process-global and must not leak into exports.
pub fn audit_to_json(a: &PlacementAudit, alarm_ordinal: u64) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"at_ms\":{},\"alarm\":{},\"app\":{},\"nominal_ms\":{},\"perceptible\":{},\"placement\":{},\"candidates\":[",
        a.at.as_millis(),
        alarm_ordinal,
        json_string(&a.app),
        a.nominal.as_millis(),
        a.perceptible,
        match a.placement {
            Placement::Existing(idx) => json_string(&format!("existing:{idx}")),
            Placement::NewEntry => json_string("new_entry"),
        }
    );
    for (i, c) in a.candidates.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"index\":{},\"delivery_ms\":{},\"time\":{},\"hw_rank\":{},\"preferability\":{},\"verdict\":{}}}",
            c.index,
            c.delivery_time.as_millis(),
            json_string(&c.time.to_string()),
            c.hw_rank.map_or_else(|| "null".to_owned(), |r| r.to_string()),
            c.preferability
                .map_or_else(|| "null".to_owned(), |p| json_string(&p.to_string())),
            json_string(c.verdict.as_str())
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use simty_core::alarm::AlarmId;
    use simty_core::audit::{CandidateAudit, CandidateVerdict};
    use simty_core::similarity::{Preferability, TimeSimilarity};

    fn sample_audit(at_s: u64) -> PlacementAudit {
        PlacementAudit {
            at: SimTime::from_secs(at_s),
            alarm_id: AlarmId::from_raw(3),
            app: "Line".into(),
            nominal: SimTime::from_secs(at_s + 60),
            perceptible: false,
            placement: Placement::Existing(0),
            candidates: vec![CandidateAudit {
                index: 0,
                delivery_time: SimTime::from_secs(at_s + 50),
                time: TimeSimilarity::High,
                hw_rank: Some(0),
                preferability: Some(Preferability::from_ranks(0, TimeSimilarity::High)),
                verdict: CandidateVerdict::Won,
            }],
        }
    }

    #[test]
    fn placement_feeds_counter_span_and_ring() {
        let mut obs = ObsLayer::new(ObsLevel::Full, "SIMTY", 2, SPAN_CAPACITY);
        obs.note_placement(sample_audit(10));
        obs.note_placement(sample_audit(20));
        obs.note_placement(sample_audit(30));
        assert_eq!(
            obs.metrics()
                .counter("sim_placements_total{placement=\"existing\"}"),
            3
        );
        assert_eq!(obs.audits().count(), 2);
        assert_eq!(obs.audit_dropped(), 1);
        assert_eq!(obs.audits().next().unwrap().at, SimTime::from_secs(20));
        assert_eq!(obs.spans().len(), 3);
        let jsonl = obs.audits_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"verdict\":\"won\""));
        assert!(jsonl.contains("\"preferability\":\"1\""));
    }

    #[test]
    fn counts_level_keeps_the_full_levels_books_without_records() {
        let mut full = ObsLayer::new(ObsLevel::Full, "SIMTY", 2, 3);
        for at in [10, 20, 30, 40] {
            full.note_placement(sample_audit(at));
        }
        for level in [ObsLevel::Counts, ObsLevel::Timed] {
            let mut counts = ObsLayer::new(level, "SIMTY", 2, 3);
            counts.note_tally(PlacementTally {
                existing: 3,
                new_entry: 0,
            });
            counts.note_tally(PlacementTally {
                existing: 1,
                new_entry: 0,
            });
            assert_eq!(counts.metrics_json(), full.metrics_json(), "{level:?}");
            assert_eq!(counts.spans().dropped(), full.spans().dropped());
            assert_eq!(counts.audit_dropped(), full.audit_dropped());
            assert_eq!((counts.audit_dropped(), counts.spans().dropped()), (2, 1));
            assert!(counts.spans_jsonl().is_empty() && counts.audits_jsonl().is_empty());
            assert_eq!(counts.alarm_ordinal(AlarmId::from_raw(3)), None);
        }
    }

    #[test]
    fn wake_cycle_opens_and_closes_once() {
        let mut obs = ObsLayer::new(ObsLevel::Full, "EXACT", 8, SPAN_CAPACITY);
        obs.wake_started(SimTime::from_secs(5));
        obs.wake_started(SimTime::from_secs(5)); // merged wake: cycle stays open
        obs.wake_ended(SimTime::from_secs(9));
        obs.wake_ended(SimTime::from_secs(9)); // no open cycle: ignored
        assert_eq!(obs.spans().len(), 1);
        let span = obs.spans().iter().next().unwrap();
        assert_eq!(span.start_ms, 5_000);
        assert_eq!(span.end_ms, 9_000);
        assert_eq!(
            obs.metrics().counter("sim_wakeups_total{policy=\"EXACT\"}"),
            2
        );
    }

    #[test]
    fn exposition_is_self_describing_before_any_event() {
        let obs = ObsLayer::new(ObsLevel::Full, "SIMTY", 4, SPAN_CAPACITY);
        let text = obs.metrics_exposition();
        for family in [
            "sim_wakeups_total",
            "sim_entry_deliveries_total",
            "sim_entry_size",
            "sim_normalized_delay",
            "sim_wakeup_queue_depth",
        ] {
            assert!(
                text.contains(&format!("# HELP {family} ")),
                "missing {family}"
            );
        }
        assert!(obs.metrics_json().starts_with('{'));
    }
}
