//! Fleet-scale campaigns: shard a large device population across worker
//! threads with streaming aggregation, supervised fault isolation, and
//! crash-tolerant resume.
//!
//! A *fleet* runs `devices` independent device instances per policy.
//! Each device draws its workload mix and RNG seed deterministically
//! from `(fleet_seed, device_index)` through a shared
//! [`ScenarioCatalog`], so the population is identical no matter how it
//! is sharded or how many threads run it. Devices are split into
//! `shards` contiguous ranges per policy; each shard is one [`ShardSpec`]
//! cell of the [`Fleet`] campaign that runs its devices **sequentially in
//! index order** and folds every [`SimReport`] into a single running
//! aggregate — fleet memory is O(shards), not O(devices).
//!
//! Because every `SimReport` field is mergeable (energies and counters
//! sum, delay means re-weight by count, maxima take the max), a shard's
//! aggregate *is* a `SimReport`, and its device count, ring evictions and
//! power histogram are its [`ShardDrill`] — so a fleet is a campaign like
//! any other on the [campaign kernel](crate::campaign):
//!
//! * a panicking device poisons only its own shard (the supervisor
//!   captures the payload; the rest of the fleet completes);
//! * completed shards are journaled (`kind = "fleet"`, pinned to the
//!   population by [`FleetConfig::identity`]) and restored by `--resume`
//!   instead of re-run;
//! * shards additionally checkpoint mid-range through the Vfs-backed
//!   [`CheckpointStore`] every `checkpoint_stride` devices, so a killed
//!   campaign resumes from the last device stride, not the shard start;
//! * the deterministic payload ([`CampaignResults::to_json`]) is
//!   byte-identical on any thread count, after any interruption.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use simty::apps::{DeviceMix, ScenarioCatalog, WorkloadBuilder};
use simty::core::{HardwareComponent, SimDuration, SimTime};
use simty::device::energy::EnergyMeter;
use simty::experiments::PolicyKind;
use simty::obs::telemetry::{EventKind, TelemetrySink};
use simty::obs::{Histogram, MetricsRegistry, QuantileSummary};
use simty::sim::codec::{self, record, Cursor, Field, Put};
use simty::sim::{
    Checkpoint, CheckpointError, CheckpointStore, DelayStats, ObsLevel, OverloadStats,
    ResilienceStats, SimConfig, SimReport, Simulation,
};

use crate::campaign::{Campaign, CampaignResults, Cell, Drill};
use crate::journal::JournalError;
use crate::json::{json_array, json_object, json_pairs, ToJson};
use crate::sweep::CampaignOptions;

/// Schema tag of the fleet JSON document.
pub const FLEET_SCHEMA: &str = "simty-fleet/v1";

/// Bucket bounds (mW) of the per-device average-power histogram each
/// shard streams into. Power is duration-independent (unlike total
/// energy), so one set of bounds serves every `--minutes` choice; the
/// range spans idle light devices (~60 mW) through heavy long-tail
/// synthetic mixes. Partials merge only across identical bounds, so
/// this is a fleet-wide constant.
pub const POWER_BOUNDS: [f64; 8] = [60.0, 75.0, 90.0, 105.0, 120.0, 150.0, 200.0, 300.0];

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
    /// remainder spread over the leading shards), exact for every
    /// population size.
    pub fn shard_range(&self, k: usize) -> (u64, u64) {
        let bound = |k: usize| {
            let cut = u128::from(self.devices) * k as u128 / self.shards as u128;
            u64::try_from(cut).expect("a cut never exceeds the population")
        };
        (bound(k), bound(k + 1))
    }

    /// Everything beyond the shard labels that decides a shard's bytes:
    /// the population, the seed, the device horizon, β, the ring caps and
    /// the catalog. The fleet journal is pinned to it, so resuming a
    /// journal of another population is a [`JournalError::Mismatch`].
    pub fn identity(&self) -> String {
        format!(
            "devices={} seed={} duration_ms={} beta={:016x} span_cap={} audit_cap={} catalog={:?}",
            self.devices,
            self.seed,
            self.duration.as_millis(),
            self.beta.to_bits(),
            self.span_capacity,
            self.audit_capacity,
            self.catalog,
        )
    }

    /// The campaign's cells, policy-major: for each policy, one
    /// [`ShardSpec`] per shard, in cell-index order.
    ///
    /// # Panics
    ///
    /// Panics if the fleet has no policy or no shard: a fleet document
    /// describes its population through its cells.
    pub fn specs(&self) -> Vec<ShardSpec> {
        assert!(
            !self.policies.is_empty() && self.shards > 0,
            "a fleet needs at least one policy and one shard"
        );
        let config = Arc::new(self.clone());
        let mut specs = Vec::with_capacity(self.policies.len() * self.shards);
        for &policy in &self.policies {
            for k in 0..self.shards {
                let (start, end) = self.shard_range(k);
                specs.push(ShardSpec {
                    policy,
                    label: format!("{}/shard{k:02}", policy.name()),
                    start,
                    end,
                    index: specs.len(),
                    config: Arc::clone(&config),
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
    /// The cell's index in the campaign: its mid-shard checkpoint
    /// directory and the [`FleetConfig::inject_panic`] target.
    pub index: usize,
    /// The fleet the shard belongs to.
    pub config: Arc<FleetConfig>,
}

impl Cell for ShardSpec {
    fn label(&self) -> String {
        self.label.clone()
    }

    fn policy(&self) -> PolicyKind {
        self.policy
    }

    fn row(&self) -> Vec<(&'static str, String)> {
        vec![("label", self.label.to_json())]
    }
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
    let n = an.saturating_add(bn);
    if n == 0 {
        0.0
    } else {
        (a * an as f64 + b * bn as f64) / n as f64
    }
}

/// Adds each named counter of `$r` into `$acc`'s, saturating.
macro_rules! add {
    ($acc:expr, $r:expr; $($field:ident),*) => { $($acc.$field = $acc.$field.saturating_add($r.$field);)* };
}

/// Folds `r` into the running aggregate `acc`.
///
/// Every field merges: energy components and counters sum, delay means
/// re-weight by delivery count, maxima take the max, and the resilience
/// means re-weight by their event counts. Counts and durations saturate:
/// journaled shards and mid-shard markers are checked one record at a
/// time, so restored counters that each fit can overflow together.
/// `acc.policy` and `acc.metrics_json` are left untouched (the shard
/// assigns its own).
/// Folding is associative over disjoint device sets, which is what
/// makes a shard aggregate equal to the fold of its devices' individual
/// reports — the property the fleet proptest pins down.
pub fn fold_report(acc: &mut SimReport, r: &SimReport) {
    add!(acc, r; duration, awake_time, cpu_wakeups, entry_deliveries, total_deliveries);

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

    for row in &r.wakeup_rows {
        match acc
            .wakeup_rows
            .iter_mut()
            .find(|a| a.component == row.component)
        {
            Some(a) => {
                add!(a, row; actual, expected);
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
    add!(d, r.delays; perceptible_count);
    d.imperceptible_avg = weighted_mean(
        d.imperceptible_avg,
        d.imperceptible_count,
        r.delays.imperceptible_avg,
        r.delays.imperceptible_count,
    );
    d.imperceptible_max = d.imperceptible_max.max(r.delays.imperceptible_max);
    add!(d, r.delays; imperceptible_count);

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
    add!(res, r.resilience; invariant_violations, perceptible_window_misses, interventions,
        forced_releases, activation_retries, dropped_fire_retries, quarantines, recoveries,
        app_crashes, app_restarts, reboots, catch_up_entries);
    res.intervention_overhead_mj += r.resilience.intervention_overhead_mj;
    res.worst_catch_up_delay_ms = res
        .worst_catch_up_delay_ms
        .max(r.resilience.worst_catch_up_delay_ms);

    let over = &mut acc.overload;
    add!(over, r.overload; storm_registrations, admitted, deferred, rejected, shed, demotions,
        tier_changes, time_in_saver_ms, time_in_critical_ms);
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

/// A shard's per-device average-power histogram over [`POWER_BOUNDS`],
/// journaled as its bucket counts (overflow last) and then its sum's
/// exact bits, so a round trip reproduces it byte for byte.
#[derive(Debug, Clone)]
pub struct PowerHistogram(pub Histogram);

impl Default for PowerHistogram {
    fn default() -> Self {
        PowerHistogram(Histogram::new(POWER_BOUNDS.to_vec()))
    }
}

impl Field for PowerHistogram {
    const ARITY: usize = POWER_BOUNDS.len() + 2;

    fn put(&self, w: &mut Put<'_>) {
        for count in self.0.counts() {
            w.f(count);
        }
        w.f(&self.0.sum());
    }

    fn take(r: &mut Cursor<'_, '_>) -> Result<Self, CheckpointError> {
        let counts: [u64; POWER_BOUNDS.len() + 1] = r.take()?;
        let sum = r.take()?;
        let count = counts
            .iter()
            .try_fold(0_u64, |total, &n| total.checked_add(n))
            .ok_or_else(|| r.err("power histogram counts overflow"))?;
        let bounds = POWER_BOUNDS.to_vec();
        Ok(PowerHistogram(Histogram::from_parts(
            bounds,
            counts.to_vec(),
            sum,
            count,
        )))
    }
}

/// What a shard observed beside its folded report: how many devices it
/// ran, the evictions their bounded rings made, and their power
/// histogram. Journaled with the shard, so the fleet document and
/// registry are rebuilt from it after `--resume`.
#[derive(Debug, Clone, Default)]
pub struct ShardDrill {
    /// Devices folded into the shard.
    pub devices: u64,
    /// Spans evicted by the devices' bounded span rings.
    pub span_evictions: u64,
    /// Audits evicted by the devices' bounded audit rings.
    pub audit_evictions: u64,
    /// The devices' average power (mW).
    pub power: PowerHistogram,
}

record!(ShardDrill: devices, span_evictions, audit_evictions, power: PowerHistogram);

impl Drill for ShardDrill {}

impl ShardDrill {
    /// `self` and `other` summed, saturating: journaled drills each
    /// decode on their own, but their sum need not fit.
    fn absorb(mut self, other: ShardDrill) -> ShardDrill {
        self.devices = self.devices.saturating_add(other.devices);
        self.span_evictions = self.span_evictions.saturating_add(other.span_evictions);
        self.audit_evictions = self.audit_evictions.saturating_add(other.audit_evictions);
        self.power.0.merge(&other.power.0);
        self
    }

    /// The shard's metrics: its device and eviction counters and its
    /// power histogram (what lands in the shard report's
    /// `metrics_json`, and what the fleet registry merges).
    fn registry(&self) -> MetricsRegistry {
        let mut registry = MetricsRegistry::new();
        registry.describe("fleet", "fleet shard aggregation");
        registry.add("fleet_devices_total", self.devices);
        registry.add("fleet_span_evictions_total", self.span_evictions);
        registry.add("fleet_audit_evictions_total", self.audit_evictions);
        registry.insert_histogram("fleet_device_power_mw", self.power.0.clone());
        registry
    }
}

/// A shard's running aggregation state — everything that must survive a
/// mid-shard checkpoint marker to keep the resumed fold byte-identical.
#[derive(Debug)]
struct ShardProgress {
    /// The next device index to run.
    cursor: u64,
    drill: ShardDrill,
    report: SimReport,
}

record!(ShardProgress: cursor, drill: ShardDrill, report);

impl ShardProgress {
    fn fresh(spec: &ShardSpec) -> Self {
        ShardProgress {
            cursor: spec.start,
            drill: ShardDrill::default(),
            report: empty_report(&spec.label),
        }
    }

    /// Reads a marker payload written for `spec`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Malformed`] when the payload does not decode
    /// or does not continue `spec`'s range (a marker from another shard
    /// layout must not be trusted).
    fn decode(payload: &str, spec: &ShardSpec) -> Result<Self, CheckpointError> {
        let progress: ShardProgress = codec::decode(payload)?;
        let done = progress.cursor.checked_sub(spec.start);
        if progress.cursor > spec.end || done != Some(progress.drill.devices) {
            return Err(CheckpointError::Malformed {
                line: 1,
                message: format!(
                    "marker at device {} is not {}'s",
                    progress.cursor, spec.label
                ),
            });
        }
        Ok(progress)
    }

    fn fold_device(&mut self, run: &DeviceRun) {
        fold_report(&mut self.report, &run.report);
        self.drill.devices += 1;
        self.drill.span_evictions += run.span_evictions;
        self.drill.audit_evictions += run.audit_evictions;
        self.drill.power.0.observe(run.report.average_power_mw());
        self.cursor += 1;
    }
}

/// Runs one shard: restore mid-shard progress if a valid marker exists,
/// fold the remaining devices in index order, checkpoint every
/// `checkpoint_stride` devices. With a telemetry sink attached, the
/// shard heartbeats at every checkpoint stride (devices done, smoothed
/// devices/sec, checkpoint cursor) — wall-clock observability only,
/// never part of the deterministic payload.
fn run_shard(
    spec: &ShardSpec,
    ckpt_dir: Option<&Path>,
    telemetry: Option<&TelemetrySink>,
) -> (SimReport, ShardDrill) {
    let config = &spec.config;
    let mut store = ckpt_dir.and_then(|dir| CheckpointStore::open(dir).ok());
    let mut progress = store
        .as_ref()
        .and_then(|s| s.load_latest_good().ok())
        .and_then(|(ckpt, _)| ckpt.marker_payload())
        .and_then(|payload| ShardProgress::decode(&payload, spec).ok())
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
                    &codec::encode(&progress),
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
                    devices_done: progress.drill.devices,
                    devices_total: spec.end - spec.start,
                    devices_per_sec: if secs > 0.0 {
                        done_here as f64 / secs
                    } else {
                        0.0
                    },
                    cursor: progress.cursor,
                });
            }
        }
    }
    progress.report.metrics_json = progress.drill.registry().to_json();
    (progress.report, progress.drill)
}

/// Where a journaled campaign keeps `spec`'s mid-shard markers:
/// `<journal_dir>/shard-<index>/`.
fn shard_dir(spec: &ShardSpec, options: &CampaignOptions) -> Option<PathBuf> {
    let dir = options.journal_dir.as_ref()?;
    Some(dir.join(format!("shard-{:03}", spec.index)))
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

/// The fleet campaign: one [`ShardSpec`] cell per shard and policy.
#[derive(Debug, Clone, Copy)]
pub enum Fleet {}

impl Campaign for Fleet {
    type Cell = ShardSpec;
    type Drill = ShardDrill;
    type Aggregate = PolicyAggregate;

    const KIND: &'static str = "fleet";

    /// Runs the shard, checkpointing mid-range into
    /// `<journal_dir>/shard-<index>/` when the campaign journals; the
    /// cell at [`FleetConfig::inject_panic`] panics instead.
    fn run_cell(spec: &ShardSpec, options: &CampaignOptions) -> (SimReport, ShardDrill) {
        if spec.config.inject_panic == Some(spec.index) {
            panic!("injected fleet shard panic (cell {})", spec.index);
        }
        let ckpt_dir = shard_dir(spec, options);
        run_shard(spec, ckpt_dir.as_deref(), options.telemetry.as_ref())
    }

    /// Deletes the shard's markers: once its cell is journaled, a resume
    /// restores the whole shard and never reads them again.
    fn journaled(spec: &ShardSpec, options: &CampaignOptions) {
        if let Some(dir) = shard_dir(spec, options) {
            // A leftover directory only costs disk space; never fail the
            // campaign over it.
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    fn aggregate(policy: String, cells: &[(&SimReport, ShardDrill)]) -> PolicyAggregate {
        let report = fold_reports(&policy, cells.iter().map(|(shard, _)| *shard));
        PolicyAggregate {
            shards_ok: cells.len(),
            shards_poisoned: 0,
            devices: cells
                .iter()
                .fold(0, |n, (_, drill)| n.saturating_add(drill.devices)),
            report: (!cells.is_empty()).then_some(report),
            policy,
        }
    }

    /// One aggregate per entry of [`FleetConfig::policies`], in that
    /// order, counting its quarantined shards too.
    fn aggregates(results: &CampaignResults<Fleet>) -> Vec<PolicyAggregate> {
        let runs: Vec<_> = results.runs().collect();
        let shards = results.config().shards;
        runs.chunks(shards)
            .map(|cells| {
                let completed: Vec<(&SimReport, ShardDrill)> = cells
                    .iter()
                    .filter_map(|(_, _, report, drill)| {
                        Some(((*report)?, drill.clone().unwrap_or_default()))
                    })
                    .collect();
                let mut aggregate = Fleet::aggregate(cells[0].0.policy.name(), &completed);
                aggregate.shards_poisoned = cells.len() - completed.len();
                aggregate
            })
            .collect()
    }

    fn aggregate_json(agg: &PolicyAggregate) -> String {
        json_object(&json_pairs!(Some(agg); policy, shards_ok, shards_poisoned, devices, report))
    }

    fn journal_identity(cells: &[ShardSpec]) -> String {
        let config = cells.first().map(|spec| &spec.config);
        config.map_or_else(String::new, |config| config.identity())
    }

    /// The `simty-fleet/v1` document: population shape, throughput, the
    /// supervisor's `harness` block, the merged fleet metrics,
    /// per-policy aggregates, and per-shard status lines. Its
    /// per-invocation fields are `threads`, `total_wall_ms`,
    /// `devices_per_sec`, `journal_skips`, `quantiles.cell_wall_ms` and
    /// `cells[].wall_ms`.
    fn document(results: &CampaignResults<Fleet>, full: bool) -> String {
        let config = results.config();
        let ms = |wall: std::time::Duration| (wall.as_secs_f64() * 1_000.0).to_json();
        let policies = config.policies.iter().map(|p| p.name().to_json());
        let mut fields = vec![
            ("schema", FLEET_SCHEMA.to_json()),
            ("devices", config.devices.to_json()),
            ("shards", config.shards.to_json()),
            ("seed", config.seed.to_json()),
            ("duration_ms", config.duration.as_millis().to_string()),
            ("policies", json_array(policies)),
        ];
        let mut quantiles = Vec::new();
        if full {
            fields.extend([
                ("threads", results.threads().to_json()),
                ("total_wall_ms", ms(results.total_wall())),
                ("devices_per_sec", results.devices_per_sec().to_json()),
                ("journal_skips", results.journal_skips().to_json()),
            ]);
            quantiles.push(("cell_wall_ms", results.cell_wall_quantiles().to_json()));
        }
        quantiles.push((
            "device_power_mw",
            results.device_power_quantiles().to_json(),
        ));
        let aggregates = json_array(results.aggregates().iter().map(Fleet::aggregate_json));
        let cells = results
            .runs()
            .zip(results.outcomes())
            .map(|((spec, status, _, drill), o)| {
                let mut cell = spec.row();
                cell.extend([
                    ("status", status.token().to_json()),
                    ("devices", drill.map_or(0, |d| d.devices).to_json()),
                ]);
                if full {
                    cell.push(("wall_ms", ms(o.wall)));
                }
                json_object(&cell)
            });
        fields.extend([
            ("quantiles", json_object(&quantiles)),
            ("harness", results.harness().to_json()),
            ("metrics", results.registry().to_json()),
            ("aggregates", aggregates),
            ("cells", json_array(cells)),
        ]);
        json_object(&fields)
    }
}

impl CampaignResults<Fleet> {
    /// The fleet the cells belong to.
    fn config(&self) -> &FleetConfig {
        let (spec, ..) = self.runs().next().expect("a fleet has cells");
        &spec.config
    }

    /// The sum of the completed shards' drills (a shard whose drill did
    /// not decode contributes nothing); `None` when none completed.
    fn total(&self) -> Option<ShardDrill> {
        self.runs()
            .filter_map(|(_, _, report, drill)| report.and(drill))
            .reduce(ShardDrill::absorb)
    }

    /// Devices aggregated across every completed shard (all policies).
    pub fn devices_completed(&self) -> u64 {
        self.total().map_or(0, |total| total.devices)
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

    /// The fleet-wide metrics registry: the completed shards' counters
    /// and merged power histogram, plus the supervisor's harness
    /// counters (`journal_skips` zeroed, so the registry stays
    /// byte-identical across interruptions — the document reports the
    /// real value separately).
    pub fn registry(&self) -> MetricsRegistry {
        let mut registry = MetricsRegistry::new();
        registry.describe("fleet", "fleet-wide aggregation");
        registry.register_histogram("fleet_device_power_mw", POWER_BOUNDS.to_vec());
        if let Some(total) = self.total() {
            registry.merge(&total.registry());
        }
        let mut harness = self.harness();
        harness.journal_skips = 0;
        harness.publish(&mut registry);
        registry
    }

    /// Bucket-estimated p50/p90/p99/max of per-device mean power (mW),
    /// from the merged `fleet_device_power_mw` histogram; `None` when no
    /// device completed. Deterministic (pure function of the merged
    /// histogram) and merge-stable across shard groupings.
    pub fn device_power_quantiles(&self) -> Option<QuantileSummary> {
        self.registry()
            .histogram("fleet_device_power_mw")
            .and_then(QuantileSummary::from_histogram)
    }
}

/// Runs a fleet under explicit [`CampaignOptions`] on the campaign
/// kernel ([`run_campaign`](crate::campaign::run_campaign) over
/// [`FleetConfig::specs`]).
///
/// # Errors
///
/// [`JournalError`] when the journal directory cannot be opened or
/// belongs to a different campaign or population.
pub fn run_fleet_with(
    config: &FleetConfig,
    options: &CampaignOptions,
) -> Result<CampaignResults<Fleet>, JournalError> {
    crate::campaign::run_campaign::<Fleet>(&config.specs(), options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{forge_records, parse_cell, JournalEntry};
    use crate::soak::SoakRecovery;
    use crate::storm::StormRecovery;
    use crate::supervisor::CellStatus;
    use proptest::prelude::*;
    use simty::sim::codec::fnv1a64;
    use std::sync::OnceLock;

    fn tiny(devices: u64) -> FleetConfig {
        let mut config = FleetConfig::new(devices);
        config.shards = 3;
        config.policies = vec![PolicyKind::Native];
        config.duration = SimDuration::from_mins(5);
        config.checkpoint_stride = 2;
        config
    }

    /// Every shard as the executor holds it: label, status token, report
    /// record and journaled drill payload (the document folds these per
    /// policy, where a swapped or altered shard can cancel out).
    fn shards(
        results: &CampaignResults<Fleet>,
    ) -> Vec<(String, String, Option<String>, Option<String>)> {
        results
            .outcomes()
            .iter()
            .map(|o| {
                let report = o.report.as_ref().map(SimReport::to_record);
                (o.label.clone(), o.status.token(), report, o.extra.clone())
            })
            .collect()
    }

    #[test]
    fn shard_ranges_partition_the_population() {
        let config = tiny(10);
        let ranges: Vec<(u64, u64)> = (0..config.shards).map(|k| config.shard_range(k)).collect();
        assert_eq!(ranges, vec![(0, 3), (3, 6), (6, 10)]);
    }

    #[test]
    fn shard_ranges_partition_the_largest_population() {
        for shards in [2, 3, 7, 64] {
            let mut config = FleetConfig::new(u64::MAX);
            config.shards = shards;
            let mut next = 0;
            for k in 0..shards {
                let (start, end) = config.shard_range(k);
                assert_eq!(start, next, "shard {k} of {shards}");
                assert!(end > start, "shard {k} of {shards}");
                next = end;
            }
            assert_eq!(next, u64::MAX, "{shards} shards");
        }
    }

    #[test]
    fn overflowing_power_counts_are_a_typed_error() {
        let max = u64::MAX;
        let drill = format!("2,0,0,{max},1,0,0,0,0,0,0,0,{:016x}", 1.0_f64.to_bits());
        assert!(codec::decode::<ShardDrill>(&drill).is_err());
        let mut progress = ShardProgress::fresh(&tiny(4).specs()[0]);
        progress.drill = codec::decode(&drill.replace(&max.to_string(), "1")).unwrap();
        let marker = codec::encode(&progress).replacen(",1,1,", &format!(",{max},1,"), 1);
        assert!(codec::decode::<ShardProgress>(&marker).is_err());
    }

    /// Journal records are checked one at a time, so three shards that
    /// each decode can still hold counts whose sum overflows: the fleet
    /// saturates them instead of panicking (or wrapping in release).
    #[test]
    fn journaled_drills_that_overflow_together_saturate() {
        let scratch = tempdir("fleet-forged");
        let config = tiny(4);
        let options = CampaignOptions {
            threads: 1,
            journal_dir: Some(scratch.clone()),
            ..CampaignOptions::default()
        };
        run_fleet_with(&config, &options).unwrap();
        let (max, half) = (u64::MAX, 1_u64 << 63);
        let drill = format!(
            "{max},{max},0,{half},0,0,0,0,0,0,0,0,{:016x}",
            1.0_f64.to_bits()
        );
        forge_records(&scratch, |entry| entry.extra = drill.clone());
        let resumed = run_fleet_with(&config, &options).unwrap();
        std::fs::remove_dir_all(&scratch).ok();
        assert_eq!(resumed.journal_skips(), 3);
        assert_eq!(resumed.devices_completed(), max);
        assert_eq!(resumed.aggregates()[0].devices, max);
        let registry = resumed.registry();
        assert_eq!(registry.counter("fleet_span_evictions_total"), max);
        let power = registry.histogram("fleet_device_power_mw").unwrap();
        assert_eq!((power.counts()[0], power.count()), (max, max));
        assert!(resumed
            .to_json_document()
            .contains("\"devices\":18446744073709551615"));
    }

    #[test]
    fn journaled_reports_that_overflow_together_saturate() {
        let scratch = tempdir("fleet-forged-reports");
        let config = tiny(4);
        let options = CampaignOptions {
            threads: 1,
            journal_dir: Some(scratch.clone()),
            ..CampaignOptions::default()
        };
        run_fleet_with(&config, &options).unwrap();
        let half = 1_u64 << 63;
        forge_records(&scratch, |entry| {
            let r = &mut entry.report;
            r.cpu_wakeups = half;
            r.duration = SimDuration::from_millis(half);
            r.delays.perceptible_count = half;
            r.resilience.invariant_violations = half;
            r.overload.time_in_saver_ms = half;
            r.wakeup_rows[0].expected = half;
        });
        let resumed = run_fleet_with(&config, &options).unwrap();
        std::fs::remove_dir_all(&scratch).ok();
        assert_eq!(resumed.journal_skips(), 3);
        let folded = resumed.aggregates()[0].report.clone().unwrap();
        assert_eq!(folded.cpu_wakeups, u64::MAX);
        assert_eq!(folded.duration.as_millis(), u64::MAX);
        assert_eq!(folded.delays.perceptible_count, u64::MAX);
        assert_eq!(folded.resilience.invariant_violations, u64::MAX);
        assert_eq!(folded.overload.time_in_saver_ms, u64::MAX);
        assert_eq!(folded.wakeup_rows[0].expected, u64::MAX);
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
        let payload = codec::encode(&progress);
        let decoded = ShardProgress::decode(&payload, spec).unwrap();
        assert_eq!(decoded.cursor, progress.cursor);
        assert_eq!(decoded.drill.devices, progress.drill.devices);
        assert_eq!(decoded.report.to_record(), progress.report.to_record());
        assert_eq!(
            codec::encode(&decoded.drill),
            codec::encode(&progress.drill)
        );
        // A marker for a different shard layout is rejected.
        assert!(ShardProgress::decode(&payload, &config.specs()[2]).is_err());
    }

    #[test]
    fn fleet_is_thread_count_invariant() {
        let config = tiny(7);
        let one = run_fleet_with(&config, &CampaignOptions::with_threads(1)).unwrap();
        let three = run_fleet_with(&config, &CampaignOptions::with_threads(3)).unwrap();
        assert_eq!(one.to_json(), three.to_json());
        assert_eq!(shards(&one), shards(&three));
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
        // Every shard's cell is journaled, so its mid-shard markers
        // (stride 2, shard size 3) are deleted.
        assert!(!scratch.join("shard-000").exists());
        let second = run_fleet_with(&config, &options).unwrap();
        assert_eq!(second.journal_skips(), 3);
        assert_eq!(first.to_json(), second.to_json());
        assert_eq!(shards(&first), shards(&second));
        let clean = run_fleet_with(&config, &CampaignOptions::with_threads(2)).unwrap();
        assert_eq!(clean.to_json(), second.to_json());
        assert_eq!(shards(&clean), shards(&second));
        std::fs::remove_dir_all(&scratch).ok();
    }

    /// A shard that stops before its cell is journaled leaves its
    /// markers behind, and the next run of the shard resumes from the
    /// last one to the same aggregate.
    #[test]
    fn an_unjournaled_shard_resumes_from_its_marker() {
        let scratch = tempdir("fleet-marker");
        let config = tiny(9);
        let spec = &config.specs()[0];
        let (report, drill) = run_shard(spec, Some(&scratch), None);
        let store = CheckpointStore::open(&scratch).unwrap();
        let (marker, _) = store.load_latest_good().unwrap();
        let progress = ShardProgress::decode(&marker.marker_payload().unwrap(), spec).unwrap();
        assert_eq!(progress.cursor, spec.start + 2);
        let (resumed, resumed_drill) = run_shard(spec, Some(&scratch), None);
        assert_eq!(resumed.to_record(), report.to_record());
        assert_eq!(codec::encode(&resumed_drill), codec::encode(&drill));
        std::fs::remove_dir_all(&scratch).ok();
    }

    /// Values no honest writer produces, for the fuzz's field swaps.
    const HOSTILE: [&str; 16] = [
        "",
        "-1",
        "18446744073709551615",
        "18446744073709551616",
        "none",
        "ffffffffffffffff",
        "nan",
        "ok",
        "retried:x",
        "poisoned: x",
        "%",
        "%3A%2C",
        "1:2",
        "β",
        "+1",
        "cell=0",
    ];

    /// One payload of each bench-side format, from a real device run:
    /// a journal `cell=` body, a fleet marker, and the fleet, soak and
    /// storm drill extras.
    fn payloads() -> &'static [String; 5] {
        static PAYLOADS: OnceLock<[String; 5]> = OnceLock::new();
        PAYLOADS.get_or_init(|| {
            let config = tiny(4);
            let spec = &config.specs()[0];
            let mut progress = ShardProgress::fresh(spec);
            progress.fold_device(&run_device(&config, spec.policy, spec.start));
            let entry = JournalEntry {
                index: 3,
                status: CellStatus::Retried { retries: 2 },
                report: progress.report.clone(),
                extra: codec::encode(&progress.drill),
            };
            let soak = SoakRecovery {
                checkpoints: 8,
                resumed_identical: true,
                ..SoakRecovery::default()
            };
            [
                format!("cell={}", codec::encode(&entry)),
                codec::encode(&progress),
                codec::encode(&progress.drill),
                codec::encode(&soak),
                codec::encode(&StormRecovery::default()),
            ]
        })
    }

    /// `n` reduced to an index below `len` (which must be nonzero).
    fn pick(n: usize, len: usize) -> usize {
        n % len
    }

    /// One edit of a payload: a bit flip, a cut, or a field (split at
    /// `,` or `:`) replaced by a hostile value, duplicated or deleted.
    fn mutate(payload: &str, (kind, at, value): (u8, usize, usize)) -> String {
        let sep = if value % 2 == 0 { ',' } else { ':' };
        let mut fields: Vec<String> = payload.split(sep).map(str::to_owned).collect();
        let field = pick(at, fields.len());
        match kind % 5 {
            0 => {
                let mut bytes = payload.as_bytes().to_vec();
                if !bytes.is_empty() {
                    let i = pick(at, bytes.len());
                    bytes[i] ^= 1 << (value % 8);
                }
                return String::from_utf8_lossy(&bytes).into_owned();
            }
            1 => {
                let cut = (0..=pick(at, payload.len() + 1))
                    .rev()
                    .find(|&i| payload.is_char_boundary(i))
                    .unwrap_or(0);
                return payload[..cut].to_owned();
            }
            2 => fields[field] = HOSTILE[pick(value, HOSTILE.len())].to_owned(),
            3 => fields.insert(field, fields[field].clone()),
            _ => {
                fields.remove(field);
            }
        }
        fields.join(&sep.to_string())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Hostile bytes: mutated payloads of every bench-side format
        /// (the journal line re-checksummed, so its record is read) decode
        /// to a value or a typed error, never a panic.
        #[test]
        fn hostile_payloads_decode_or_fail_typed(
            format in 0usize..5,
            edits in prop::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 1..4),
        ) {
            let payload = edits
                .iter()
                .fold(payloads()[format].clone(), |p, &edit| mutate(&p, edit));
            let spec = &tiny(4).specs()[0];
            let _ = match format {
                0 => parse_cell(&format!("{payload},{:016x}", fnv1a64(payload.as_bytes())))
                    .map(drop),
                1 => ShardProgress::decode(&payload, spec).map(drop),
                2 => codec::decode::<ShardDrill>(&payload).map(drop),
                3 => codec::decode::<SoakRecovery>(&payload).map(drop),
                _ => codec::decode::<StormRecovery>(&payload).map(drop),
            };
        }
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
