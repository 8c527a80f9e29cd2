//! Fleet-scale campaigns: shard a large device population across worker
//! threads with streaming aggregation, supervised fault isolation, and
//! crash-tolerant resume.
//!
//! A *fleet* runs `devices` independent device instances per policy.
//! Each device draws its workload mix and RNG seed deterministically
//! from `(fleet_seed, device_index)` through a shared
//! [`ScenarioCatalog`], so the population is identical no matter how it
//! is sharded or how many threads run it. Devices are split into
//! `shards` contiguous ranges per policy; each shard is one supervised
//! [`Sweep`] cell that runs its devices **sequentially in index order**
//! and folds every [`SimReport`] into a single running aggregate — fleet
//! memory is O(shards), not O(devices).
//!
//! Because every `SimReport` field is mergeable (energies and counters
//! sum, delay means re-weight by count, maxima take the max), a shard's
//! aggregate *is* a `SimReport` — which lets fleets reuse the campaign
//! journal, the supervisor, and the deterministic result plumbing of
//! [`Sweep`] unchanged:
//!
//! * a panicking device poisons only its own shard (the supervisor
//!   captures the payload; the rest of the fleet completes);
//! * completed shards are journaled (`kind = "fleet"`) and restored by
//!   `--resume` instead of re-run;
//! * shards additionally checkpoint mid-range through the Vfs-backed
//!   [`CheckpointStore`] every `checkpoint_stride` devices, so a killed
//!   campaign resumes from the last device stride, not the shard start;
//! * the deterministic payload ([`FleetResults::deterministic_json`])
//!   is byte-identical on any thread count, after any interruption.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use simty::apps::{DeviceMix, ScenarioCatalog, WorkloadBuilder};
use simty::core::{HardwareComponent, SimDuration, SimTime};
use simty::device::energy::EnergyMeter;
use simty::experiments::PolicyKind;
use simty::obs::telemetry::{EventKind, TelemetrySink};
use simty::obs::{Histogram, MetricsRegistry, QuantileSummary};
use simty::sim::codec::{esc, unesc};
use simty::obs::{json_f64, json_string};
use simty::sim::json::report_to_json;
use simty::sim::{
    Checkpoint, CheckpointStore, DelayStats, ObsLevel, OverloadStats, ResilienceStats, SimConfig,
    SimReport, Simulation,
};

use crate::journal::JournalError;
use crate::supervisor::HarnessStats;
use crate::sweep::{CampaignOptions, JobResult, Outcome, Sweep, SweepResults};

/// Schema tag of the fleet JSON document.
pub const FLEET_SCHEMA: &str = "simty-fleet/v1";

/// Bucket bounds (mW) of the per-device average-power histogram each
/// shard streams into. Power is duration-independent (unlike total
/// energy), so one set of bounds serves every `--minutes` choice; the
/// range spans idle light devices (~60 mW) through heavy long-tail
/// synthetic mixes. Partials merge only across identical bounds, so
/// this is a fleet-wide constant.
pub const POWER_BOUNDS: [f64; 8] = [
    60.0, 75.0, 90.0, 105.0, 120.0, 150.0, 200.0, 300.0,
];

/// Per-shard observability caps: spans and audits kept per device run.
/// Fleets shrink these far below the interactive defaults so 100k-device
/// campaigns keep instrumentation memory O(shards).
pub const FLEET_SPAN_CAPACITY: usize = 128;
/// See [`FLEET_SPAN_CAPACITY`].
pub const FLEET_AUDIT_CAPACITY: usize = 64;

/// Parameters of one fleet campaign.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Device population size (per policy).
    pub devices: u64,
    /// Contiguous device ranges per policy; each is one supervised cell.
    pub shards: usize,
    /// Policies to run the population under (one full population each).
    pub policies: Vec<PolicyKind>,
    /// Fleet seed: the root of every per-device mix draw and RNG seed.
    pub seed: u64,
    /// Simulated duration of each device run.
    pub duration: SimDuration,
    /// Grace-period factor β shared by every device workload.
    pub beta: f64,
    /// Span-ring capacity per device run (see [`FLEET_SPAN_CAPACITY`]).
    pub span_capacity: usize,
    /// Audit-ring capacity per device run.
    pub audit_capacity: usize,
    /// Devices between mid-shard checkpoint markers (0 disables; only
    /// effective when the campaign has a journal directory).
    pub checkpoint_stride: u64,
    /// The weighted scenario catalog every shard samples from.
    pub catalog: Arc<ScenarioCatalog>,
    /// Harness-test hook: the cell at this enqueue index panics instead
    /// of running, exercising shard quarantine end to end.
    pub inject_panic: Option<usize>,
}

impl FleetConfig {
    /// A fleet of `devices` devices with the default shape: 4 shards,
    /// NATIVE vs SIMTY, the paper-mix catalog, 10 simulated minutes per
    /// device, and fleet-bounded observability rings.
    pub fn new(devices: u64) -> Self {
        FleetConfig {
            devices,
            shards: 4,
            policies: vec![PolicyKind::Native, PolicyKind::Simty],
            seed: 1,
            duration: SimDuration::from_mins(10),
            beta: 0.96,
            span_capacity: FLEET_SPAN_CAPACITY,
            audit_capacity: FLEET_AUDIT_CAPACITY,
            checkpoint_stride: 0,
            catalog: Arc::new(ScenarioCatalog::paper_mix()),
            inject_panic: None,
        }
    }

    /// The device range of shard `k` (half-open, even split with the
    /// remainder spread over the leading shards).
    pub fn shard_range(&self, k: usize) -> (u64, u64) {
        let shards = self.shards as u64;
        let k = k as u64;
        (self.devices * k / shards, self.devices * (k + 1) / shards)
    }

    /// The campaign's cells, policy-major: for each policy, one
    /// [`ShardSpec`] per shard, in cell-index order.
    pub fn specs(&self) -> Vec<ShardSpec> {
        let mut specs = Vec::with_capacity(self.policies.len() * self.shards);
        for &policy in &self.policies {
            for k in 0..self.shards {
                let (start, end) = self.shard_range(k);
                specs.push(ShardSpec {
                    policy,
                    label: format!("{}/shard{k:02}", policy.name()),
                    start,
                    end,
                });
            }
        }
        specs
    }
}

/// One fleet cell: a policy evaluated over a half-open device range.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// The alignment policy every device of the shard runs.
    pub policy: PolicyKind,
    /// The cell label (`<policy>/shard<k>`), as journaled and reported.
    pub label: String,
    /// First device index of the shard (inclusive).
    pub start: u64,
    /// Past-the-end device index of the shard.
    pub end: u64,
}

/// One device run's outputs: the report plus the instrumentation-ring
/// eviction counts the bounded fleet rings dropped.
#[derive(Debug, Clone)]
pub struct DeviceRun {
    /// The device's full report.
    pub report: SimReport,
    /// Spans evicted by the bounded span ring.
    pub span_evictions: u64,
    /// Audits evicted by the bounded audit ring.
    pub audit_evictions: u64,
}

/// Runs device `device` of the fleet under `policy`: samples its mix
/// and seed from the catalog, builds the workload, and simulates it
/// with fleet-bounded observability rings.
///
/// The device runs at [`ObsLevel::Counts`]: the fleet reads only the
/// two eviction counts and the report, so no span, audit or stage clock
/// is built, while the report (its `metrics` block included) and both
/// counts equal a [`ObsLevel::Full`] run's. Not at
/// [`ObsLevel::Timed`]: a fleet document carries no stage profile, and
/// reading the clocks on every device would cost throughput.
///
/// Pure in `(config.seed, device)`: the same device produces the same
/// report no matter which shard or thread runs it.
///
/// # Panics
///
/// Panics if an alarm fails to register — inside a fleet the supervisor
/// converts that into a poisoned shard.
pub fn run_device(config: &FleetConfig, policy: PolicyKind, device: u64) -> DeviceRun {
    let seed = ScenarioCatalog::device_seed(config.seed, device);
    let mix = config.catalog.sample(config.seed, device);
    let builder = match mix {
        DeviceMix::Light => WorkloadBuilder::light(),
        DeviceMix::Heavy => WorkloadBuilder::heavy(),
        DeviceMix::Synthetic(n) => WorkloadBuilder::synthetic(n, seed),
    };
    let workload = builder
        .with_seed(seed)
        .with_beta(config.beta)
        .with_duration(config.duration)
        .build();
    let sim_config = SimConfig::new()
        .with_duration(config.duration)
        .with_span_capacity(config.span_capacity)
        .with_audit_capacity(config.audit_capacity)
        .with_obs(ObsLevel::Counts);
    let mut sim = Simulation::new(policy.build(), sim_config);
    for alarm in workload.alarms {
        sim.register(alarm)
            .unwrap_or_else(|e| panic!("fleet device {device} failed to register: {e}"));
    }
    let report = sim.run();
    let span_evictions = sim.obs().spans().dropped();
    let audit_evictions = sim.obs().audit_dropped();
    DeviceRun {
        report,
        span_evictions,
        audit_evictions,
    }
}

/// An all-zero report to fold into (also what an empty shard reports).
pub fn empty_report(policy: &str) -> SimReport {
    SimReport {
        policy: policy.to_owned(),
        duration: SimDuration::ZERO,
        energy: EnergyMeter::from_parts(0.0, 0.0, 0.0, [0.0; HardwareComponent::ALL.len()])
            .breakdown(),
        cpu_wakeups: 0,
        entry_deliveries: 0,
        total_deliveries: 0,
        awake_time: SimDuration::ZERO,
        wakeup_rows: Vec::new(),
        delays: DelayStats::default(),
        resilience: ResilienceStats::default(),
        overload: OverloadStats::default(),
        metrics_json: String::new(),
    }
}

fn weighted_mean(a: f64, an: u64, b: f64, bn: u64) -> f64 {
    let n = an + bn;
    if n == 0 {
        0.0
    } else {
        (a * an as f64 + b * bn as f64) / n as f64
    }
}

/// Folds `r` into the running aggregate `acc`.
///
/// Every field merges: energy components and counters sum, delay means
/// re-weight by delivery count, maxima take the max, and the resilience
/// means re-weight by their event counts. `acc.policy` and
/// `acc.metrics_json` are left untouched (the shard assigns its own).
/// Folding is associative over disjoint device sets, which is what
/// makes a shard aggregate equal to the fold of its devices' individual
/// reports — the property the fleet proptest pins down.
pub fn fold_report(acc: &mut SimReport, r: &SimReport) {
    acc.duration += r.duration;
    acc.awake_time += r.awake_time;

    let mut components = [0.0_f64; HardwareComponent::ALL.len()];
    for (i, c) in HardwareComponent::ALL.into_iter().enumerate() {
        components[i] = acc.energy.component_mj(c) + r.energy.component_mj(c);
    }
    acc.energy = EnergyMeter::from_parts(
        acc.energy.sleep_mj + r.energy.sleep_mj,
        acc.energy.transition_mj + r.energy.transition_mj,
        acc.energy.awake_base_mj + r.energy.awake_base_mj,
        components,
    )
    .breakdown();

    acc.cpu_wakeups += r.cpu_wakeups;
    acc.entry_deliveries += r.entry_deliveries;
    acc.total_deliveries += r.total_deliveries;

    for row in &r.wakeup_rows {
        match acc
            .wakeup_rows
            .iter_mut()
            .find(|a| a.component == row.component)
        {
            Some(a) => {
                a.actual += row.actual;
                a.expected += row.expected;
            }
            None => acc.wakeup_rows.push(*row),
        }
    }
    // Keep HardwareComponent::ALL order regardless of which device
    // introduced which component.
    acc.wakeup_rows.sort_by_key(|row| {
        HardwareComponent::ALL
            .into_iter()
            .position(|c| c == row.component)
    });

    let d = &mut acc.delays;
    d.perceptible_avg = weighted_mean(
        d.perceptible_avg,
        d.perceptible_count,
        r.delays.perceptible_avg,
        r.delays.perceptible_count,
    );
    d.perceptible_max = d.perceptible_max.max(r.delays.perceptible_max);
    d.perceptible_count += r.delays.perceptible_count;
    d.imperceptible_avg = weighted_mean(
        d.imperceptible_avg,
        d.imperceptible_count,
        r.delays.imperceptible_avg,
        r.delays.imperceptible_count,
    );
    d.imperceptible_max = d.imperceptible_max.max(r.delays.imperceptible_max);
    d.imperceptible_count += r.delays.imperceptible_count;

    let res = &mut acc.resilience;
    res.mean_time_to_recovery_ms = weighted_mean(
        res.mean_time_to_recovery_ms,
        res.recoveries,
        r.resilience.mean_time_to_recovery_ms,
        r.resilience.recoveries,
    );
    res.mean_recovery_ms = weighted_mean(
        res.mean_recovery_ms,
        res.reboots,
        r.resilience.mean_recovery_ms,
        r.resilience.reboots,
    );
    res.invariant_violations += r.resilience.invariant_violations;
    res.perceptible_window_misses += r.resilience.perceptible_window_misses;
    res.interventions += r.resilience.interventions;
    res.forced_releases += r.resilience.forced_releases;
    res.activation_retries += r.resilience.activation_retries;
    res.dropped_fire_retries += r.resilience.dropped_fire_retries;
    res.quarantines += r.resilience.quarantines;
    res.recoveries += r.resilience.recoveries;
    res.app_crashes += r.resilience.app_crashes;
    res.app_restarts += r.resilience.app_restarts;
    res.intervention_overhead_mj += r.resilience.intervention_overhead_mj;
    res.reboots += r.resilience.reboots;
    res.catch_up_entries += r.resilience.catch_up_entries;
    res.worst_catch_up_delay_ms = res
        .worst_catch_up_delay_ms
        .max(r.resilience.worst_catch_up_delay_ms);

    let over = &mut acc.overload;
    over.storm_registrations += r.overload.storm_registrations;
    over.admitted += r.overload.admitted;
    over.deferred += r.overload.deferred;
    over.rejected += r.overload.rejected;
    over.shed += r.overload.shed;
    over.demotions += r.overload.demotions;
    over.tier_changes += r.overload.tier_changes;
    over.time_in_saver_ms += r.overload.time_in_saver_ms;
    over.time_in_critical_ms += r.overload.time_in_critical_ms;
    if over.final_tier == "normal" && r.overload.final_tier != "normal" {
        over.final_tier = r.overload.final_tier.clone();
    }
    over.grace_stretch_milli = over.grace_stretch_milli.max(r.overload.grace_stretch_milli);
}

/// The fold of `reports` in iteration order, starting from
/// [`empty_report`] — what a shard over exactly those devices reports.
pub fn fold_reports<'a, I>(policy: &str, reports: I) -> SimReport
where
    I: IntoIterator<Item = &'a SimReport>,
{
    let mut acc = empty_report(policy);
    for r in reports {
        fold_report(&mut acc, r);
    }
    acc
}

/// A shard's running aggregation state — everything that must survive a
/// mid-shard checkpoint to keep the resumed fold byte-identical.
struct ShardProgress {
    /// The next device index to run.
    cursor: u64,
    report: SimReport,
    devices: u64,
    span_evictions: u64,
    audit_evictions: u64,
    power_hist: Histogram,
}

impl ShardProgress {
    fn fresh(spec: &ShardSpec) -> Self {
        ShardProgress {
            cursor: spec.start,
            report: empty_report(&spec.label),
            devices: 0,
            span_evictions: 0,
            audit_evictions: 0,
            power_hist: Histogram::new(POWER_BOUNDS.to_vec()),
        }
    }

    /// Checkpoint-marker payload: newline-separated `key=value` lines
    /// with the partial report's exact-bits record escaped inline.
    fn encode(&self) -> String {
        format!(
            "cursor={}\ndevices={}\nspan_evict={}\naudit_evict={}\nehist={}\nreport={}",
            self.cursor,
            self.devices,
            self.span_evictions,
            self.audit_evictions,
            esc(&encode_hist(&self.power_hist)),
            esc(&self.report.to_record()),
        )
    }

    fn decode(payload: &str, spec: &ShardSpec) -> Option<Self> {
        let mut cursor = None;
        let mut devices = None;
        let mut span_evictions = None;
        let mut audit_evictions = None;
        let mut power_hist = None;
        let mut report = None;
        for line in payload.lines() {
            let (key, value) = line.split_once('=')?;
            match key {
                "cursor" => cursor = value.parse::<u64>().ok(),
                "devices" => devices = value.parse::<u64>().ok(),
                "span_evict" => span_evictions = value.parse::<u64>().ok(),
                "audit_evict" => audit_evictions = value.parse::<u64>().ok(),
                "ehist" => power_hist = decode_hist(&unesc(value)),
                "report" => report = SimReport::from_record(&unesc(value)),
                _ => return None,
            }
        }
        let progress = ShardProgress {
            cursor: cursor?,
            report: report?,
            devices: devices?,
            span_evictions: span_evictions?,
            audit_evictions: audit_evictions?,
            power_hist: power_hist?,
        };
        // A marker from another shard layout (or another fleet entirely)
        // must not be trusted.
        (progress.cursor >= spec.start && progress.cursor <= spec.end).then_some(progress)
    }

    fn fold_device(&mut self, run: &DeviceRun) {
        fold_report(&mut self.report, &run.report);
        self.devices += 1;
        self.span_evictions += run.span_evictions;
        self.audit_evictions += run.audit_evictions;
        self.power_hist.observe(run.report.average_power_mw());
        self.cursor += 1;
    }

    /// The shard's own metrics snapshot (what lands in the shard
    /// report's `metrics_json`).
    fn registry(&self) -> MetricsRegistry {
        let mut registry = MetricsRegistry::new();
        registry.describe("fleet", "fleet shard aggregation");
        registry.add("fleet_devices_total", self.devices);
        registry.add("fleet_span_evictions_total", self.span_evictions);
        registry.add("fleet_audit_evictions_total", self.audit_evictions);
        registry.insert_histogram("fleet_device_power_mw", self.power_hist.clone());
        registry
    }

    /// The journaled per-cell payload the fleet document is rebuilt
    /// from after `--resume` (colons inside `ehist` are esc-protected).
    fn extra(&self) -> String {
        format!(
            "devices={},span_evict={},audit_evict={},ehist={}",
            self.devices,
            self.span_evictions,
            self.audit_evictions,
            esc(&encode_hist(&self.power_hist)),
        )
    }
}

/// `counts:…:overflow|sum-bits-hex` — exact-bits so a journal round
/// trip reproduces the histogram byte-for-byte.
fn encode_hist(h: &Histogram) -> String {
    let counts: Vec<String> = h.counts().iter().map(u64::to_string).collect();
    format!("{}|{:016x}", counts.join(":"), h.sum().to_bits())
}

fn decode_hist(s: &str) -> Option<Histogram> {
    let (counts, sum) = s.split_once('|')?;
    let counts: Vec<u64> = counts
        .split(':')
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    if counts.len() != POWER_BOUNDS.len() + 1 {
        return None;
    }
    let sum = f64::from_bits(u64::from_str_radix(sum, 16).ok()?);
    let count = counts.iter().sum();
    Some(Histogram::from_parts(
        POWER_BOUNDS.to_vec(),
        counts,
        sum,
        count,
    ))
}

/// Per-cell `extra` payload parsed back out of the journal/outcomes.
struct ShardExtra {
    devices: u64,
    span_evictions: u64,
    audit_evictions: u64,
    power_hist: Histogram,
}

fn parse_extra(extra: &str) -> Option<ShardExtra> {
    let mut devices = None;
    let mut span = None;
    let mut audit = None;
    let mut hist = None;
    for field in extra.split(',') {
        let (key, value) = field.split_once('=')?;
        match key {
            "devices" => devices = value.parse().ok(),
            "span_evict" => span = value.parse().ok(),
            "audit_evict" => audit = value.parse().ok(),
            "ehist" => hist = decode_hist(&unesc(value)),
            _ => return None,
        }
    }
    Some(ShardExtra {
        devices: devices?,
        span_evictions: span?,
        audit_evictions: audit?,
        power_hist: hist?,
    })
}

/// Runs one shard: restore mid-shard progress if a valid marker exists,
/// fold the remaining devices in index order, checkpoint every
/// `checkpoint_stride` devices. With a telemetry sink attached, the
/// shard heartbeats at every checkpoint stride (devices done, smoothed
/// devices/sec, checkpoint cursor) — wall-clock observability only,
/// never part of the deterministic payload.
fn run_shard(
    config: &FleetConfig,
    spec: &ShardSpec,
    ckpt_dir: Option<&Path>,
    telemetry: Option<&TelemetrySink>,
) -> JobResult {
    let mut store = ckpt_dir.and_then(|dir| CheckpointStore::open(dir).ok());
    let mut progress = store
        .as_ref()
        .and_then(|s| s.load_latest_good().ok())
        .and_then(|(ckpt, _)| ckpt.marker_payload())
        .and_then(|payload| ShardProgress::decode(&payload, spec))
        .unwrap_or_else(|| ShardProgress::fresh(spec));
    let mut since_marker = 0_u64;
    let started = std::time::Instant::now();
    let resumed_from = progress.cursor;
    while progress.cursor < spec.end {
        let run = run_device(config, spec.policy, progress.cursor);
        progress.fold_device(&run);
        since_marker += 1;
        if config.checkpoint_stride > 0 && since_marker >= config.checkpoint_stride {
            since_marker = 0;
            if let Some(store) = store.as_mut() {
                let marker = Checkpoint::marker(
                    SimTime::from_millis(progress.cursor),
                    &spec.label,
                    &progress.encode(),
                );
                // A failed marker save costs re-simulation on resume,
                // not correctness — keep the shard going.
                let _ = store.save(&marker);
            }
            if let Some(sink) = telemetry {
                let secs = started.elapsed().as_secs_f64();
                let done_here = progress.cursor - resumed_from;
                sink.publish(EventKind::ShardHeartbeat {
                    shard: spec.label.clone(),
                    devices_done: progress.devices,
                    devices_total: spec.end - spec.start,
                    devices_per_sec: if secs > 0.0 { done_here as f64 / secs } else { 0.0 },
                    cursor: progress.cursor,
                });
            }
        }
    }
    progress.report.metrics_json = progress.registry().to_json();
    JobResult {
        extra: Some(progress.extra()),
        report: progress.report,
        stages: None,
    }
}

/// Per-policy fold of every completed shard.
#[derive(Debug, Clone)]
pub struct PolicyAggregate {
    /// Policy display name.
    pub policy: String,
    /// Shards that completed (including journal-restored ones).
    pub shards_ok: usize,
    /// Shards quarantined by the supervisor.
    pub shards_poisoned: usize,
    /// Devices aggregated across completed shards.
    pub devices: u64,
    /// The fold of every completed shard's aggregate, or `None` when
    /// every shard was poisoned.
    pub report: Option<SimReport>,
}

/// The results of a fleet campaign.
#[derive(Debug, Clone)]
pub struct FleetResults {
    sweep: SweepResults,
    config_devices: u64,
    shards: usize,
    seed: u64,
    duration: SimDuration,
    policy_names: Vec<String>,
    aggregates: Vec<PolicyAggregate>,
    registry: MetricsRegistry,
}

impl FleetResults {
    /// Per-shard outcomes in enqueue order (policy-major).
    pub fn outcomes(&self) -> &[Outcome] {
        self.sweep.outcomes()
    }

    /// Per-policy folds.
    pub fn aggregates(&self) -> &[PolicyAggregate] {
        &self.aggregates
    }

    /// The fleet-wide metrics registry: merged shard partials plus the
    /// supervisor's harness counters.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Supervisor statistics over every shard.
    pub fn harness(&self) -> HarnessStats {
        self.sweep.harness()
    }

    /// `(label, reason)` for each quarantined shard.
    pub fn poisoned(&self) -> Vec<(String, String)> {
        self.sweep.poisoned()
    }

    /// Shards restored from the campaign journal instead of re-run.
    pub fn journal_skips(&self) -> u64 {
        self.sweep.journal_skips()
    }

    /// Worker threads used.
    pub fn threads(&self) -> usize {
        self.sweep.threads()
    }

    /// Wall-clock time of the whole campaign.
    pub fn total_wall(&self) -> Duration {
        self.sweep.total_wall()
    }

    /// Devices aggregated across every completed shard (all policies).
    pub fn devices_completed(&self) -> u64 {
        self.aggregates.iter().map(|a| a.devices).sum()
    }

    /// Bucket-estimated p50/p90/p99/max of per-device mean power (mW),
    /// from the merged `fleet_device_power_mw` histogram; `None` when no
    /// device completed. Deterministic (pure function of the merged
    /// histogram) and merge-stable across shard groupings.
    pub fn device_power_quantiles(&self) -> Option<QuantileSummary> {
        self.registry
            .histogram("fleet_device_power_mw")
            .and_then(QuantileSummary::from_histogram)
    }

    /// Completed device-simulations per wall-clock second.
    pub fn devices_per_sec(&self) -> f64 {
        let secs = self.total_wall().as_secs_f64();
        if secs > 0.0 {
            self.devices_completed() as f64 / secs
        } else {
            f64::INFINITY
        }
    }

    /// Serializes the `BENCH_fleet.json` document: population shape,
    /// throughput, the supervisor's `harness` block, the merged fleet
    /// metrics, per-policy aggregates, and per-shard status lines.
    ///
    /// The timing fields, `journal_skips`, `devices_per_sec`, and the
    /// `cell_wall_ms` quantiles vary run to run; determinism tests
    /// compare [`deterministic_json`](Self::deterministic_json) instead.
    pub fn to_json(&self) -> String {
        let opt_json =
            |q: Option<QuantileSummary>| q.map_or_else(|| "null".to_owned(), |q| q.to_json());
        let mut out = String::new();
        out.push('{');
        let _ = write!(
            out,
            "\"schema\":{},\"devices\":{},\"shards\":{},\"seed\":{},\"duration_ms\":{},\
             \"policies\":[{}],\"threads\":{},\"total_wall_ms\":{},\"devices_per_sec\":{},\
             \"journal_skips\":{},\
             \"quantiles\":{{\"cell_wall_ms\":{},\"device_power_mw\":{}}},\
             \"harness\":{},\"metrics\":{},\"aggregates\":[",
            json_string(FLEET_SCHEMA),
            self.config_devices,
            self.shards,
            self.seed,
            self.duration.as_millis(),
            self.policy_names
                .iter()
                .map(|n| json_string(n))
                .collect::<Vec<_>>()
                .join(","),
            self.threads(),
            json_f64(self.total_wall().as_secs_f64() * 1_000.0),
            json_f64(self.devices_per_sec()),
            self.journal_skips(),
            opt_json(self.sweep.cell_wall_quantiles()),
            opt_json(self.device_power_quantiles()),
            self.harness().to_json(),
            self.registry.to_json(),
        );
        for (i, agg) in self.aggregates.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"policy\":{},\"shards_ok\":{},\"shards_poisoned\":{},\"devices\":{},\"report\":{}}}",
                json_string(&agg.policy),
                agg.shards_ok,
                agg.shards_poisoned,
                agg.devices,
                agg.report
                    .as_ref()
                    .map_or_else(|| "null".to_owned(), report_to_json),
            );
        }
        out.push_str("],\"cells\":[");
        for (i, o) in self.outcomes().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let devices = o
                .extra
                .as_deref()
                .and_then(parse_extra)
                .map_or(0, |e| e.devices);
            let _ = write!(
                out,
                "{{\"label\":{},\"status\":{},\"devices\":{},\"wall_ms\":{}}}",
                json_string(&o.label),
                json_string(&o.status.token()),
                devices,
                json_f64(o.wall.as_secs_f64() * 1_000.0),
            );
        }
        out.push_str("]}");
        out
    }

    /// Serializes only the deterministic payload: population shape plus
    /// per-shard `{label, status, extra, report}` in enqueue order and
    /// the merged fleet metrics. Byte-identical on any thread count,
    /// whether or not the campaign was interrupted and resumed.
    pub fn deterministic_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"devices\":{},\"shards\":{},\"seed\":{},\"duration_ms\":{},\"cells\":[",
            self.config_devices,
            self.shards,
            self.seed,
            self.duration.as_millis(),
        );
        for (i, o) in self.outcomes().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"label\":{},\"status\":{},\"extra\":{},\"report\":{}}}",
                json_string(&o.label),
                json_string(&o.status.token()),
                o.extra
                    .as_deref()
                    .map_or_else(|| "null".to_owned(), json_string),
                o.report
                    .as_ref()
                    .map_or_else(|| "null".to_owned(), report_to_json),
            );
        }
        let _ = write!(out, "],\"metrics\":{}}}", self.registry.to_json());
        out
    }

    /// Writes [`to_json`](Self::to_json) to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write_json(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// Runs a fleet with default campaign options (every core, default
/// supervision, no journal).
///
/// # Panics
///
/// Panics on journal errors — impossible without a journal directory.
pub fn run_fleet(config: &FleetConfig) -> FleetResults {
    match run_fleet_with(config, &CampaignOptions::default()) {
        Ok(results) => results,
        Err(e) => panic!("fleet journal failed: {e}"),
    }
}

/// Runs a fleet under explicit [`CampaignOptions`].
///
/// With `options.journal_dir` set, completed shards are journaled
/// (`kind = "fleet"`) and a re-invocation over the same directory
/// restores them instead of re-running; shards additionally checkpoint
/// mid-range into `<journal_dir>/shard-<index>/` every
/// `config.checkpoint_stride` devices.
///
/// # Errors
///
/// [`JournalError`] when the journal directory cannot be opened or
/// belongs to a different campaign.
pub fn run_fleet_with(
    config: &FleetConfig,
    options: &CampaignOptions,
) -> Result<FleetResults, JournalError> {
    let specs = config.specs();
    let shared = Arc::new(config.clone());
    let mut sweep = Sweep::new();
    sweep.with_supervisor(options.supervisor);
    if let Some(dir) = &options.journal_dir {
        sweep.with_journal(dir, "fleet");
    }
    if let Some(sink) = &options.telemetry {
        sweep.with_telemetry(sink.clone());
    }
    for (index, spec) in specs.iter().enumerate() {
        let config = Arc::clone(&shared);
        let spec = spec.clone();
        let ckpt_dir = options
            .journal_dir
            .as_ref()
            .map(|dir| dir.join(format!("shard-{index:03}")));
        let telemetry = options.telemetry.clone();
        sweep.job(spec.label.clone(), move || {
            if config.inject_panic == Some(index) {
                panic!("injected fleet shard panic (cell {index})");
            }
            run_shard(&config, &spec, ckpt_dir.as_deref(), telemetry.as_ref())
        });
    }
    let sweep_results = sweep.try_run_with_threads(options.threads)?;

    let mut aggregates = Vec::with_capacity(config.policies.len());
    let mut registry = MetricsRegistry::new();
    registry.describe("fleet", "fleet-wide aggregation");
    registry.register_histogram("fleet_device_power_mw", POWER_BOUNDS.to_vec());
    for (pi, &policy) in config.policies.iter().enumerate() {
        let cells = &sweep_results.outcomes()[pi * config.shards..(pi + 1) * config.shards];
        let mut agg = PolicyAggregate {
            policy: policy.name(),
            shards_ok: 0,
            shards_poisoned: 0,
            devices: 0,
            report: None,
        };
        for outcome in cells {
            let Some(report) = &outcome.report else {
                agg.shards_poisoned += 1;
                continue;
            };
            agg.shards_ok += 1;
            match agg.report.as_mut() {
                Some(acc) => fold_report(acc, report),
                None => {
                    let mut acc = empty_report(&policy.name());
                    fold_report(&mut acc, report);
                    agg.report = Some(acc);
                }
            }
            if let Some(extra) = outcome.extra.as_deref().and_then(parse_extra) {
                agg.devices += extra.devices;
                registry.add("fleet_devices_total", extra.devices);
                registry.add("fleet_span_evictions_total", extra.span_evictions);
                registry.add("fleet_audit_evictions_total", extra.audit_evictions);
            }
        }
        aggregates.push(agg);
    }
    let mut power = Histogram::new(POWER_BOUNDS.to_vec());
    for outcome in sweep_results.outcomes() {
        if let Some(extra) = outcome.extra.as_deref().and_then(parse_extra) {
            power.merge(&extra.power_hist);
        }
    }
    registry.insert_histogram("fleet_device_power_mw", power);
    // The harness counters are deterministic except journal_skips (how
    // many shards a *this* invocation restored); zero it so the merged
    // registry stays byte-identical across interruptions — the full
    // document reports the real value separately.
    let mut harness = sweep_results.harness();
    harness.journal_skips = 0;
    harness.publish(&mut registry);

    Ok(FleetResults {
        config_devices: config.devices,
        shards: config.shards,
        seed: config.seed,
        duration: config.duration,
        policy_names: config.policies.iter().map(|p| p.name()).collect(),
        aggregates,
        registry,
        sweep: sweep_results,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tiny(devices: u64) -> FleetConfig {
        let mut config = FleetConfig::new(devices);
        config.shards = 3;
        config.policies = vec![PolicyKind::Native];
        config.duration = SimDuration::from_mins(5);
        config.checkpoint_stride = 2;
        config
    }

    #[test]
    fn shard_ranges_partition_the_population() {
        let config = tiny(10);
        let ranges: Vec<(u64, u64)> = (0..config.shards).map(|k| config.shard_range(k)).collect();
        assert_eq!(ranges, vec![(0, 3), (3, 6), (6, 10)]);
    }

    #[test]
    fn shard_aggregate_equals_fold_of_devices() {
        let config = tiny(6);
        let results = run_fleet_with(&config, &CampaignOptions::with_threads(1)).unwrap();
        let spec = &config.specs()[1];
        let devices: Vec<SimReport> = (spec.start..spec.end)
            .map(|d| run_device(&config, spec.policy, d).report)
            .collect();
        let mut expected = fold_reports(&spec.label, devices.iter());
        let shard = results.outcomes()[1].report.as_ref().unwrap();
        expected.metrics_json = shard.metrics_json.clone();
        assert_eq!(shard.to_record(), expected.to_record());
    }

    #[test]
    fn progress_round_trips_through_marker_payload() {
        let config = tiny(6);
        let spec = &config.specs()[0];
        let mut progress = ShardProgress::fresh(spec);
        for d in spec.start..spec.end {
            progress.fold_device(&run_device(&config, spec.policy, d));
        }
        let decoded = ShardProgress::decode(&progress.encode(), spec).unwrap();
        assert_eq!(decoded.cursor, progress.cursor);
        assert_eq!(decoded.devices, progress.devices);
        assert_eq!(decoded.report.to_record(), progress.report.to_record());
        assert_eq!(
            encode_hist(&decoded.power_hist),
            encode_hist(&progress.power_hist)
        );
        // A marker for a different shard layout is rejected.
        assert!(ShardProgress::decode(&progress.encode(), &config.specs()[2]).is_none());
    }

    #[test]
    fn fleet_is_thread_count_invariant() {
        let config = tiny(7);
        let one = run_fleet_with(&config, &CampaignOptions::with_threads(1)).unwrap();
        let three = run_fleet_with(&config, &CampaignOptions::with_threads(3)).unwrap();
        assert_eq!(one.deterministic_json(), three.deterministic_json());
        assert_eq!(one.devices_completed(), 7);
    }

    #[test]
    fn injected_panic_poisons_only_its_shard() {
        let mut config = tiny(6);
        config.inject_panic = Some(1);
        let results = run_fleet_with(&config, &CampaignOptions::with_threads(2)).unwrap();
        assert_eq!(results.harness().poisoned, 1);
        assert!(results.outcomes()[1].report.is_none());
        assert!(results.outcomes()[0].report.is_some());
        assert!(results.outcomes()[2].report.is_some());
        let agg = &results.aggregates()[0];
        assert_eq!(agg.shards_poisoned, 1);
        assert_eq!(agg.shards_ok, 2);
        assert_eq!(agg.devices, 4); // shard 1 covered devices 2..4
    }

    #[test]
    fn resume_restores_shards_and_markers() {
        let scratch = tempdir("fleet-resume");
        let config = tiny(9);
        let options = CampaignOptions {
            threads: 1,
            journal_dir: Some(scratch.clone()),
            ..CampaignOptions::default()
        };
        let first = run_fleet_with(&config, &options).unwrap();
        // Mid-shard markers were written (stride 2, shard size 3).
        assert!(scratch.join("shard-000").is_dir());
        let second = run_fleet_with(&config, &options).unwrap();
        assert_eq!(second.journal_skips(), 3);
        assert_eq!(first.deterministic_json(), second.deterministic_json());
        let clean = run_fleet_with(&config, &CampaignOptions::with_threads(2)).unwrap();
        assert_eq!(clean.deterministic_json(), second.deterministic_json());
        std::fs::remove_dir_all(&scratch).ok();
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "simty-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}
