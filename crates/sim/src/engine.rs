//! The simulation engine: drives the alarm manager and the device.
//!
//! A [`Simulation`] owns an [`AlarmManager`] (the system under test), a
//! [`Device`] (the energy-metered substrate), and a discrete-event loop
//! that plays the role of the real-time clock in Figure 1 of the paper:
//!
//! 1. the RTC fires at the head of the wakeup queue and awakens the
//!    device (paying the wake-transition energy and latency);
//! 2. once awake, every due entry is delivered: each member alarm's task
//!    wakelocks its hardware for its task duration;
//! 3. repeating alarms are reinserted by the manager under its policy;
//! 4. when the last wakelock is released the device lingers briefly and
//!    falls back asleep.
//!
//! Non-wakeup alarms are delivered opportunistically whenever the device
//! is awake, and external wake events (push messages, the user pressing
//! the power button) can be injected.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use simty_core::admission::{AdmissionController, AdmissionDecision};
use simty_core::alarm::{Alarm, AlarmId, AlarmKind};
use simty_core::audit::AuditLevel;
use simty_core::entry::QueueEntry;
use simty_core::error::RegisterAlarmError;
use simty_core::hardware::HardwareSet;
use simty_core::manager::AlarmManager;
use simty_core::policy::AlignmentPolicy;
use simty_core::time::{SimDuration, SimTime};
use simty_device::device::Device;
use simty_obs::{SpanKind, Stage, StageProfile};

use crate::attribution::AttributionLedger;
use crate::checkpoint::{Checkpoint, CheckpointError};
use crate::config::{InvariantMode, SimConfig};
use crate::degrade::{DegradationGovernor, DegradationTier};
use crate::error::SimError;
use crate::event::{EventKind, EventQueue};
use crate::fault::{FaultPlan, FaultState, RebootPlan};
use crate::invariant::InvariantMonitor;
use crate::metrics::{OverloadStats, SimReport};
use crate::obs::{ObsLayer, ObsLevel};
use crate::overload::{RegistrationStormPlan, StormBurst};
use crate::trace::{DeliveryRecord, InterventionKind, InterventionRecord, Trace};
use crate::watchdog::OnlineWatchdogConfig;

/// The armed-event dedup set: one `(tag, millisecond)` key per pending
/// deduplicated event (see `Simulation::schedule_once`), searched
/// linearly. It stays small (at most 65 keys over CI's grids, in
/// `standby repro`), so a scan of one short array beats hashing every
/// insert and remove. Its order is never observed: checkpoint capture
/// sorts it.
pub(crate) type ArmedSet = Vec<(u8, u64)>;

/// One outstanding task hold: who is keeping which hardware until when.
/// The engine tracks these so the online watchdog (and the targeted
/// [`Simulation::force_release_app`]) can cut a single offender loose
/// while every bystander keeps its locks.
#[derive(Debug, Clone)]
pub(crate) struct TaskHold {
    pub(crate) app: Arc<str>,
    pub(crate) hardware: HardwareSet,
    pub(crate) started: SimTime,
    pub(crate) until: SimTime,
}

/// A pending hardware-activation retry after a transient failure.
#[derive(Debug, Clone)]
pub(crate) struct RetrySlot {
    pub(crate) app: Arc<str>,
    pub(crate) hardware: HardwareSet,
    pub(crate) until: SimTime,
    pub(crate) attempt: u32,
    pub(crate) done: bool,
    /// Wake-transition energy paid so far just to run this retry.
    pub(crate) overhead_mj: f64,
}

/// A deterministic connected-standby simulation.
///
/// # Examples
///
/// ```
/// use simty_core::alarm::Alarm;
/// use simty_core::policy::SimtyPolicy;
/// use simty_core::time::{SimDuration, SimTime};
/// use simty_sim::config::SimConfig;
/// use simty_sim::engine::Simulation;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = SimConfig::new().with_duration(SimDuration::from_mins(10));
/// let mut sim = Simulation::new(Box::new(SimtyPolicy::new()), config);
/// sim.register(
///     Alarm::builder("sync")
///         .nominal(SimTime::from_secs(60))
///         .repeating_dynamic(SimDuration::from_secs(60))
///         .grace_fraction(0.9)
///         .task_duration(SimDuration::from_secs(2))
///         .build()?,
/// )?;
/// let report = sim.run();
/// assert!(report.cpu_wakeups > 0);
/// # Ok(())
/// # }
/// ```
pub struct Simulation {
    pub(crate) manager: AlarmManager,
    pub(crate) device: Device,
    pub(crate) events: EventQueue,
    pub(crate) trace: Trace,
    pub(crate) ledger: AttributionLedger,
    pub(crate) config: SimConfig,
    pub(crate) now: SimTime,
    pub(crate) armed: ArmedSet,
    pub(crate) due_buffer: Vec<QueueEntry>,
    pub(crate) faults: Option<FaultState>,
    pub(crate) monitor: Option<InvariantMonitor>,
    pub(crate) watchdog: Option<OnlineWatchdogConfig>,
    pub(crate) holds: Vec<TaskHold>,
    /// Forced-release counts per app (the quarantine trigger).
    pub(crate) offenses: BTreeMap<String, u32>,
    /// Quarantined apps: when they entered, and their clean-delivery
    /// streak toward probation.
    pub(crate) quarantined: BTreeMap<String, (SimTime, u32)>,
    pub(crate) activation_retries: Vec<RetrySlot>,
    /// Alarms cancelled by an injected crash, waiting for the restart.
    pub(crate) crash_stash: BTreeMap<String, Vec<Alarm>>,
    pub(crate) energy_checked: bool,
    /// While rebooting: when boot completes. Device-local events that
    /// fire during the outage are dead (the power is off).
    pub(crate) down_until: Option<SimTime>,
    /// Per-app registration quotas at the front door, when configured.
    pub(crate) admission: Option<AdmissionController>,
    /// The battery-aware degradation governor, when configured.
    pub(crate) governor: Option<DegradationGovernor>,
    /// Injected registration-storm bursts, indexed by
    /// [`EventKind::StormRegister`]'s `burst`.
    pub(crate) storm: Vec<StormBurst>,
    /// Admission/degradation/storm counters for the report.
    pub(crate) overload: OverloadStats,
    /// In-memory checkpoints captured by [`EventKind::Checkpoint`].
    pub(crate) checkpoints: Vec<Checkpoint>,
    /// Spans, metrics, and placement audits — all driven by the sim
    /// clock, so every export is deterministic (and checkpointed).
    pub(crate) obs: ObsLayer,
    /// Wall-clock self-profiling per engine stage. Deliberately NOT
    /// checkpointed and never part of any deterministic export: it
    /// resets on resume and feeds only the bench harness's timing block.
    pub(crate) stages: StageProfile,
}

impl Simulation {
    /// Creates a simulation with the given policy and configuration.
    pub fn new(policy: Box<dyn AlignmentPolicy>, config: SimConfig) -> Self {
        let mut sim = Self::bare(policy, config);
        if sim.config.record_waveform {
            sim.device.attach_monitor();
        }
        let wakes = sim.config.external_wakes.clone();
        for t in wakes {
            sim.schedule_once(EventKind::ExternalWake, t);
        }
        if let Some(every) = sim.config.checkpoint_every {
            sim.schedule_once(EventKind::Checkpoint, SimTime::ZERO + every);
        }
        if let Some(g) = &sim.governor {
            let first = SimTime::ZERO + g.config().check_every;
            sim.schedule_once(EventKind::GovernorTick, first);
        }
        sim
    }

    /// A simulation at time zero with nothing scheduled: [`new`](Self::new)
    /// schedules its config's events on top, and checkpoint restore
    /// overwrites every persisted part.
    pub(crate) fn bare(policy: Box<dyn AlignmentPolicy>, config: SimConfig) -> Self {
        let monitor = match config.invariants {
            InvariantMode::Off => None,
            InvariantMode::Report => Some(InvariantMonitor::new(config.power.wake_latency, false)),
            InvariantMode::Strict => Some(InvariantMonitor::new(config.power.wake_latency, true)),
        };
        let watchdog = config.online_watchdog;
        let admission = config.admission.map(AdmissionController::new);
        let governor = config.degradation.map(DegradationGovernor::new);
        let obs = ObsLayer::new(
            config.obs,
            policy.name(),
            config.audit_capacity,
            config.span_capacity,
        );
        let mut manager = AlarmManager::new(policy);
        manager.set_audit_level(config.obs.audit_level());
        Simulation {
            manager,
            device: Device::new(config.power.clone()),
            events: EventQueue::new(),
            trace: Trace::new(),
            ledger: AttributionLedger::new(config.power.clone()),
            config,
            now: SimTime::ZERO,
            armed: ArmedSet::default(),
            due_buffer: Vec::new(),
            faults: None,
            monitor,
            watchdog,
            holds: Vec::new(),
            offenses: BTreeMap::new(),
            quarantined: BTreeMap::new(),
            activation_retries: Vec::new(),
            crash_stash: BTreeMap::new(),
            energy_checked: false,
            down_until: None,
            admission,
            governor,
            storm: Vec::new(),
            overload: OverloadStats::default(),
            checkpoints: Vec::new(),
            obs,
            stages: StageProfile::new(),
        }
    }

    /// The alarm manager under test.
    pub fn manager(&self) -> &AlarmManager {
        &self.manager
    }

    /// The simulated device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The delivery trace so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The per-app energy attribution ledger.
    pub fn attribution(&self) -> &AttributionLedger {
        &self.ledger
    }

    /// The simulation clock (time processed so far).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The observability layer: deterministic spans, metrics, and
    /// placement-decision audits.
    pub fn obs(&self) -> &ObsLayer {
        &self.obs
    }

    /// Wall-clock self-profiling per engine stage (queue search,
    /// selection, event dispatch, delivery, checkpoint I/O), read only
    /// at a level that [reads stage clocks](ObsLevel::reads_stage_clocks)
    /// and empty otherwise. Not deterministic — never compare it across
    /// runs; aggregate it, as the sweep harness does.
    pub fn stage_profile(&self) -> &StageProfile {
        &self.stages
    }

    /// Registers an alarm with the manager and arms the RTC.
    ///
    /// This is the *only* registration front door: injected storms and
    /// app restarts come through here too, so admission quotas and the
    /// degradation governor see every registration. With admission
    /// configured, an over-quota registration is deferred (its first
    /// deadline slides to the deferral horizon) or rejected with
    /// [`RegisterAlarmError::QuotaExceeded`]; in the critical
    /// degradation tier, deferrable registrations may be shed with
    /// [`RegisterAlarmError::RegistrationShed`].
    ///
    /// # Errors
    ///
    /// Propagates [`RegisterAlarmError`] from the manager, plus the
    /// admission and shedding rejections above.
    pub fn register(&mut self, mut alarm: Alarm) -> Result<AlarmId, RegisterAlarmError> {
        // Quarantine is a per-app sentence: alarms registered while the
        // label is quarantined are demoted too, so re-registering cannot
        // launder an offender back to perceptible.
        if self.quarantined.contains_key(alarm.label()) {
            alarm.set_quarantined(true);
        }
        // Battery-aware shedding: under critical battery the device
        // stops accepting new deferrable work outright. Perceptible
        // registrations always pass this gate.
        if let Some(g) = &self.governor {
            if g.tier() == DegradationTier::Critical
                && g.config().shed_in_critical
                && !alarm.is_perceptible()
            {
                self.overload.shed += 1;
                if self.obs.on() {
                    self.obs.metrics.inc("sim_registrations_shed_total");
                }
                return Err(RegisterAlarmError::RegistrationShed { id: alarm.id() });
            }
        }
        if let Some(ctl) = &mut self.admission {
            let t = self.now;
            let outcome = ctl.admit(&mut alarm, &mut self.manager, t);
            if self.obs.on() {
                let key = match outcome.decision {
                    AdmissionDecision::Admit => "sim_admission_decisions_total{decision=\"admit\"}",
                    AdmissionDecision::Defer { .. } => {
                        "sim_admission_decisions_total{decision=\"defer\"}"
                    }
                    AdmissionDecision::Reject { .. } => {
                        "sim_admission_decisions_total{decision=\"reject\"}"
                    }
                };
                self.obs.metrics.inc(key);
            }
            if outcome.newly_demoted {
                // A storm offender crossed the demotion threshold: it
                // joins the same quarantine ledger the watchdog uses, so
                // the sentence is sticky across cancel/re-register.
                // `admit` has already quarantined its alarms.
                self.overload.demotions += 1;
                let app = alarm.label().to_owned();
                self.quarantined.insert(app.to_string(), (t, 0));
                if self.obs.on() {
                    self.obs.metrics.inc("sim_admission_demotions_total");
                    self.obs
                        .metrics
                        .set_gauge("sim_quarantined_apps", self.quarantined.len() as f64);
                    self.obs.spans.record(
                        SpanKind::WatchdogIntervention,
                        t.as_millis(),
                        t.as_millis(),
                        || {
                            [
                                ("app", app.to_string().into()),
                                ("kind", "admission_demotion".into()),
                            ]
                        },
                    );
                }
                self.trace.record_intervention(InterventionRecord {
                    at: t,
                    app: app.to_string(),
                    kind: InterventionKind::Quarantine,
                    overhead_mj: 0.0,
                });
            }
            match outcome.decision {
                AdmissionDecision::Admit => self.overload.admitted += 1,
                AdmissionDecision::Defer { .. } => self.overload.deferred += 1,
                AdmissionDecision::Reject { retry_after } => {
                    self.overload.rejected += 1;
                    return Err(RegisterAlarmError::QuotaExceeded {
                        id: alarm.id(),
                        retry_after,
                    });
                }
            }
        }
        let id = if self.clocked() {
            let t0 = Instant::now();
            let id = self.manager.register(alarm)?;
            self.stages.add(Stage::Selection, t0.elapsed());
            id
        } else {
            self.manager.register(alarm)?
        };
        self.arm_clocks();
        self.drain_placements();
        Ok(id)
    }

    /// Cancels an alarm mid-run (failure injection: the user disables or
    /// uninstalls an app).
    pub fn cancel(&mut self, id: AlarmId) -> Option<Alarm> {
        let alarm = self.manager.cancel(id);
        self.arm_clocks();
        alarm
    }

    /// Schedules an external wake at `t` (ignored if `t` is in the past).
    pub fn inject_external_wake(&mut self, t: SimTime) {
        if t >= self.now {
            self.schedule_once(EventKind::ExternalWake, t);
        }
    }

    /// Schedules an app re-registration of `id` at `t`: the alarm's
    /// nominal moves one repeating interval past `t` and the alarm is
    /// re-placed while its stale copy is still queued — the §2.1 path
    /// that triggers NATIVE's realignment. Ignored if `t` is in the past,
    /// or (at fire time) if the alarm is not queued or is one-shot.
    pub fn schedule_reregistration(&mut self, t: SimTime, id: AlarmId) {
        if t >= self.now {
            self.events.schedule(t, EventKind::Reregister { id });
        }
    }

    /// Compiles a [`FaultPlan`] into the run: storm arrivals become
    /// external wakes, crashes become scheduled events, the invariant
    /// monitor's slack widens by exactly the plan's declared delay bound,
    /// and per-delivery perturbations (jitter, drops, overruns, leaks,
    /// activation failures) activate. Call before [`run`](Self::run);
    /// injecting a second plan replaces the per-delivery perturbations
    /// but keeps already-scheduled storm/crash events.
    pub fn inject_faults(&mut self, plan: &FaultPlan) {
        for t in plan.storm_arrivals() {
            self.inject_external_wake(t);
        }
        for crash in plan.crashes() {
            if crash.at >= self.now {
                self.events.schedule(
                    crash.at,
                    EventKind::AppCrash {
                        app: crash.app.clone(),
                        restart_after: crash.restart_after,
                    },
                );
            }
        }
        if let Some(m) = &mut self.monitor {
            m.add_slack(plan.delivery_slack());
        }
        self.faults = Some(FaultState::new(plan.clone()));
    }

    /// Compiles a [`RebootPlan`] into the run: each scheduled reboot
    /// becomes an event that kills the simulated device mid-standby, and
    /// the invariant monitor's slack widens by the plan's worst outage
    /// (an alarm due the instant the power dies waits out the whole
    /// outage). Composable with [`inject_faults`](Self::inject_faults).
    pub fn inject_reboots(&mut self, plan: &RebootPlan) {
        for r in plan.reboots() {
            if r.at >= self.now {
                self.schedule_once(EventKind::Reboot { outage: r.outage }, r.at);
            }
        }
        if let Some(m) = &mut self.monitor {
            m.add_slack(plan.delivery_slack());
        }
    }

    /// Compiles a [`RegistrationStormPlan`] into the run: every planned
    /// registration becomes a scheduled event whose alarm will face the
    /// admission-controlled front door at fire time. Registrations whose
    /// instant is already past are dropped. Composable with fault and
    /// reboot plans, and callable more than once.
    pub fn inject_storm(&mut self, plan: &RegistrationStormPlan) {
        for b in &plan.bursts {
            let idx = self.storm.len();
            for k in 0..b.count {
                let at = b.fire_at(k);
                if at >= self.now {
                    self.events
                        .schedule(at, EventKind::StormRegister { burst: idx, k });
                }
            }
            self.storm.push(b.clone());
        }
    }

    /// The admission controller, when one is configured.
    pub fn admission(&self) -> Option<&AdmissionController> {
        self.admission.as_ref()
    }

    /// The degradation governor's current tier, when one is configured.
    pub fn degradation_tier(&self) -> Option<DegradationTier> {
        self.governor.as_ref().map(DegradationGovernor::tier)
    }

    /// The checkpoints captured so far (see
    /// [`SimConfig::with_checkpoints`]).
    pub fn checkpoints(&self) -> &[Checkpoint] {
        &self.checkpoints
    }

    /// Captures a crash-consistent checkpoint of the current state on
    /// demand (the periodic capture calls this too).
    pub fn checkpoint(&self) -> Checkpoint {
        crate::checkpoint::capture(self)
    }

    /// Rebuilds a simulation from a checkpoint, resuming exactly where
    /// the capture left off. `policy` must be the same (stateless) policy
    /// the checkpointed run used; a resumed run is byte-identical in
    /// trace and report to the straight-through run.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] if the policy name does not match
    /// the checkpoint or the snapshot is internally inconsistent.
    pub fn restore(
        policy: Box<dyn AlignmentPolicy>,
        checkpoint: &Checkpoint,
    ) -> Result<Simulation, CheckpointError> {
        crate::checkpoint::restore(policy, checkpoint)
    }

    /// The runtime invariant monitor, if one is attached.
    pub fn invariants(&self) -> Option<&InvariantMonitor> {
        self.monitor.as_ref()
    }

    /// Whether the online watchdog currently has `app` quarantined.
    pub fn is_app_quarantined(&self, app: &str) -> bool {
        self.quarantined.contains_key(app)
    }

    /// Force-releases the wakelocks of *one* app's outstanding tasks at
    /// the current instant, leaving every other task's locks and
    /// attribution untouched (the targeted no-sleep-bug remedy; the
    /// online watchdog calls this internally). Returns `false` if the
    /// app holds nothing right now.
    pub fn force_release_app(&mut self, app: &str) -> bool {
        let now = self.now;
        let held = self
            .holds
            .iter()
            .filter(|h| *h.app == *app && h.until > now)
            .map(|h| now - h.started)
            .max();
        match held {
            Some(held) => {
                self.force_release_app_inner(app, now, held);
                self.arm_sleep();
                true
            }
            None => false,
        }
    }

    /// Runs the simulation to its configured end and returns the report.
    pub fn run(&mut self) -> SimReport {
        let end = SimTime::ZERO + self.config.duration;
        self.run_until(end);
        self.report()
    }

    /// Processes events up to and including `end` (bounded by the
    /// configured duration), leaving the simulation resumable. Pausing
    /// changes nothing: a run paused here and carried on ends
    /// byte-identical to one never paused.
    pub fn run_until(&mut self, end: SimTime) {
        let end = end.min(SimTime::ZERO + self.config.duration);
        self.arm_clocks();
        match self.obs.level() {
            ObsLevel::Full => self.run_loop::<{ ObsLevel::Full as u8 }>(end),
            ObsLevel::Timed => self.run_loop::<{ ObsLevel::Timed as u8 }>(end),
            ObsLevel::Counts => self.run_loop::<{ ObsLevel::Counts as u8 }>(end),
            ObsLevel::Off => self.run_loop::<{ ObsLevel::Off as u8 }>(end),
        }
        self.now = self.now.max(end);
        if self.now < SimTime::ZERO + self.config.duration {
            // A pause leaves the open energy segment uncommitted: closing
            // it here would accrue one segment as two float sums, and the
            // paused run would end a few ULPs off the run never paused.
            // The next event, or the end of the run, commits it whole.
            return;
        }
        self.device.advance_to(self.now);
        self.ledger.advance_to(self.now, !self.device.is_asleep());
        if !self.energy_checked {
            self.energy_checked = true;
            if let Some(m) = &mut self.monitor {
                let e = self.device.energy();
                let parts = e.sleep_mj + e.transition_mj + e.awake_base_mj + e.hardware_mj();
                m.check_energy(
                    self.ledger.attributed_mj() + self.ledger.overhead_mj(),
                    e.awake_related_mj(),
                    parts,
                    e.total_mj(),
                );
                // Cross-check the recorded Monsoon waveform against the
                // meter: integrating the trace over the run must land on
                // the meter's total.
                if let Some(tr) = self.device.monitor() {
                    m.check_waveform(tr.energy_mj(self.now), e.total_mj());
                }
            }
        }
    }

    /// The batched event loop, monomorphized over the observability
    /// level (`ObsLevel as u8`) so only the levels that
    /// [read stage clocks](ObsLevel::reads_stage_clocks) compile them,
    /// and each level compiles only its own placement drain: audits at
    /// the full level, a tally at the levels that
    /// [count records](ObsLevel::counts_records), nothing when off.
    /// Same-instant events are delivered as one batch: the clock and
    /// attribution ledger advance once per distinct timestamp instead of
    /// once per event. The intermediate per-event `ledger.advance_to`
    /// calls of the old loop were zero-elapsed at a shared timestamp
    /// (they only refreshed the awake flag, which the final same-instant
    /// call re-syncs identically), so the trace and ledger stay
    /// byte-identical. Audits still drain per event — span
    /// order is part of the deterministic obs stream.
    ///
    /// `EventDispatch` is recorded as *self* time: handlers time their
    /// own stages (queue search, delivery, checkpoint I/O), and whatever
    /// they accumulated while this batch's clock was running is
    /// subtracted from the batch's elapsed time. The seed profile timed
    /// the whole batch as dispatch, which made `event_dispatch` a
    /// monolith covering >90% of stage time and hid where the loop
    /// actually spent it.
    fn run_loop<const LEVEL: u8>(&mut self, end: SimTime) {
        let clocked = const { ObsLevel::from_repr(LEVEL).reads_stage_clocks() };
        let audits = const { ObsLevel::from_repr(LEVEL).audit_level() };
        while let Some(t) = self.events.next_due(end) {
            self.now = self.now.max(t);
            // Close the attribution segment up to this instant under the
            // state that held during it, then process the whole batch and
            // re-sync.
            self.ledger.advance_to(self.now, !self.device.is_asleep());
            let t0 = if clocked { Some(Instant::now()) } else { None };
            let nested0 = if clocked {
                self.nested_stage_nanos()
            } else {
                0
            };
            let mut dispatched = 0u64;
            while let Some(event) = self.events.pop_at(t) {
                self.disarm(&event.kind, event.time);
                self.handle(event.kind, event.time);
                self.drain_at(audits);
                dispatched += 1;
            }
            if let Some(t0) = t0 {
                let nested = self.nested_stage_nanos() - nested0;
                let self_ns = (t0.elapsed().as_nanos() as u64).saturating_sub(nested);
                self.stages.add_batch(
                    Stage::EventDispatch,
                    std::time::Duration::from_nanos(self_ns),
                    dispatched,
                );
            }
            self.ledger.advance_to(self.now, !self.device.is_asleep());
        }
    }

    /// Nanoseconds accumulated so far by the stages that run *inside* a
    /// dispatch batch; the batch subtracts their growth to report
    /// dispatch self time.
    fn nested_stage_nanos(&self) -> u64 {
        self.stages.nanos(Stage::QueueSearch)
            + self.stages.nanos(Stage::Selection)
            + self.stages.nanos(Stage::Delivery)
            + self.stages.nanos(Stage::CheckpointIo)
    }

    /// The report over the time span processed so far.
    ///
    /// # Panics
    ///
    /// Panics if no time has been processed yet.
    pub fn report(&self) -> SimReport {
        self.try_report().expect("report requested before running")
    }

    /// The report over the time span processed so far, or a typed error
    /// instead of a panic when no time has been processed yet.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ReportBeforeRun`] if the simulation has not
    /// advanced past time zero.
    pub fn try_report(&self) -> Result<SimReport, SimError> {
        let span = self.now - SimTime::ZERO;
        if span.is_zero() {
            return Err(SimError::ReportBeforeRun);
        }
        // A paused run has not committed its open energy segment (see
        // `run_until`): report a copy of the device brought up to `now`.
        let device = if self.device.clock() < self.now {
            let mut ahead = self.device.clone();
            ahead.advance_to(self.now);
            Cow::Owned(ahead)
        } else {
            Cow::Borrowed(&self.device)
        };
        let mut report = SimReport::compute(self.manager.policy_name(), span, &self.trace, &device);
        if let Some(m) = &self.monitor {
            report.resilience.invariant_violations = m.violations().len() as u64;
            report.resilience.perceptible_window_misses = m.window_misses();
        }
        report.overload = self.overload.clone();
        if let Some(g) = &self.governor {
            let (saver, critical) = g.time_degraded(self.now);
            report.overload.time_in_saver_ms = saver.as_millis();
            report.overload.time_in_critical_ms = critical.as_millis();
            report.overload.final_tier = g.tier().name().to_owned();
        }
        report.overload.grace_stretch_milli = self.manager.grace_stretch();
        report.metrics_json = if self.obs.on() {
            self.obs.metrics_json()
        } else {
            String::new()
        };
        Ok(report)
    }

    /// Whether the wall-clock stage profile runs (see
    /// [`ObsLevel::reads_stage_clocks`]).
    fn clocked(&self) -> bool {
        self.obs.level().reads_stage_clocks()
    }

    /// Moves every placement decision the manager recorded since the
    /// last drain into the observability layer, at whatever level it
    /// records.
    fn drain_placements(&mut self) {
        self.drain_at(self.obs.level().audit_level());
    }

    /// [`drain_placements`](Self::drain_placements) at a known audit
    /// level. Inlined, so the event loop's constant level folds the
    /// match away.
    #[inline(always)]
    fn drain_at(&mut self, level: AuditLevel) {
        match level {
            AuditLevel::Full => self.drain_audits(),
            AuditLevel::Outcomes => self.drain_tally(),
            AuditLevel::Off => {}
        }
    }

    /// [`drain_placements`](Self::drain_placements) at
    /// [`ObsLevel::Full`]: a counter bump, a `policy_place` span, and a
    /// slot in the audit ring per decision.
    fn drain_audits(&mut self) {
        let obs = &mut self.obs;
        self.manager.drain_audits(|audit| obs.note_placement(audit));
    }

    /// [`drain_placements`](Self::drain_placements) at a level that
    /// [counts records](ObsLevel::counts_records): the same counter
    /// bumps, and the spans and audits counted, not built.
    fn drain_tally(&mut self) {
        let tally = self.manager.take_placement_tally();
        if tally.total() > 0 {
            self.obs.note_tally(tally);
        }
    }

    fn handle(&mut self, kind: EventKind, t: SimTime) {
        match kind {
            EventKind::RtcAlarm => {
                // If the head is due, wake and deliver (delivery happens at
                // the wake-transition completion if the device was asleep).
                // If the head moved later, re-arm for the new time; do NOT
                // re-arm for a due-but-undelivered head — its WakeComplete
                // event is already pending and will flush it.
                match self.manager.next_wakeup_time() {
                    Some(n) if n <= t => {
                        let dropped = match &mut self.faults {
                            Some(f) => f.drop_fire(n, t),
                            None => None,
                        };
                        if let Some(retry) = dropped {
                            let app = self
                                .manager
                                .wakeup_queue()
                                .entries()
                                .first()
                                .and_then(|e| e.alarms().first())
                                .map(|a| a.label().to_owned())
                                .unwrap_or_default();
                            self.trace.record_intervention(InterventionRecord {
                                at: t,
                                app,
                                kind: InterventionKind::DroppedFireRetry { delay: retry },
                                overhead_mj: 0.0,
                            });
                            self.schedule_once(EventKind::RtcAlarm, t + retry);
                        } else {
                            self.wake_and_deliver(t);
                        }
                    }
                    Some(n) => {
                        let fire = self.rtc_fire_time(n).max(t);
                        self.schedule_once(EventKind::RtcAlarm, fire);
                    }
                    None => {}
                }
            }
            EventKind::ExternalWake => {
                self.wake_and_deliver(t);
            }
            EventKind::Reregister { id } => {
                if let Some(alarm) = self.manager.find_alarm(id) {
                    if let Some(interval) = alarm.repeat().interval() {
                        let mut rescheduled = alarm.clone();
                        rescheduled.reschedule(t + interval);
                        self.manager
                            .register(rescheduled)
                            .expect("rescheduled nominal is in the future");
                        self.arm_clocks();
                    }
                }
            }
            EventKind::WakeComplete => {
                self.device.complete_wake(t);
                if self.device.is_awake() {
                    self.deliver_due(t);
                    self.arm_sleep();
                }
            }
            EventKind::TaskEnd => {
                self.device.release_expired(t);
                self.holds.retain(|h| h.until > t);
                self.arm_sleep();
            }
            EventKind::TrySleep => {
                if self.device.try_sleep(t) {
                    self.obs.wake_ended(t);
                }
            }
            EventKind::NonWakeupCheck => {
                if self.device.is_awake() {
                    self.deliver_due(t);
                    self.arm_sleep();
                } else if let Some(n) = self.manager.non_wakeup_queue().next_delivery_time() {
                    // Head moved later: re-arm. A due head is left alone —
                    // the next wakeup's delivery pass flushes it (§2.1).
                    if n > t {
                        self.schedule_once(EventKind::NonWakeupCheck, n);
                    }
                }
            }
            EventKind::WatchdogCheck => {
                self.watchdog_check(t);
            }
            EventKind::ActivationRetry { slot } => {
                self.activation_retry(slot, t);
            }
            EventKind::AppCrash { app, restart_after } => {
                let cancelled = self.manager.cancel_app(&app);
                let count = cancelled.len();
                self.crash_stash
                    .entry(app.clone())
                    .or_default()
                    .extend(cancelled);
                self.trace.record_intervention(InterventionRecord {
                    at: t,
                    app: app.clone(),
                    kind: InterventionKind::AppCrash { cancelled: count },
                    overhead_mj: 0.0,
                });
                self.events
                    .schedule(t + restart_after, EventKind::AppRestart { app });
                self.arm_clocks();
            }
            EventKind::AppRestart { app } => {
                let stash = self.crash_stash.remove(&app).unwrap_or_default();
                let mut reregistered = 0;
                for mut alarm in stash {
                    if alarm.nominal() < t {
                        // Advance the schedule past the outage; a one-shot
                        // whose moment passed during the crash is lost, as
                        // it would be on a real phone.
                        if !alarm.advance_after_delivery(t) {
                            continue;
                        }
                    }
                    if self.quarantined.contains_key(&app) {
                        alarm.set_quarantined(true);
                    }
                    self.manager
                        .register(alarm)
                        .expect("restart nominal is in the future");
                    reregistered += 1;
                }
                self.trace.record_intervention(InterventionRecord {
                    at: t,
                    app: app.to_string(),
                    kind: InterventionKind::AppRestart { reregistered },
                    overhead_mj: 0.0,
                });
                self.arm_clocks();
            }
            EventKind::Reboot { outage } => {
                self.reboot(t, outage);
            }
            EventKind::BootComplete => {
                self.boot_complete(t);
            }
            EventKind::Checkpoint => {
                // Arm the next capture first so the snapshot's event
                // queue already carries it — a run resumed from this
                // checkpoint keeps checkpointing on schedule.
                if let Some(every) = self.config.checkpoint_every {
                    let next = t + every;
                    if next <= SimTime::ZERO + self.config.duration {
                        self.schedule_once(EventKind::Checkpoint, next);
                    }
                }
                // Count and span the capture *before* capturing, so the
                // snapshot itself carries them: a resumed run and the
                // straight-through run then agree byte-for-byte.
                if self.obs.on() {
                    self.obs.metrics.inc("sim_checkpoints_total");
                    self.obs.spans.record(
                        SpanKind::CheckpointWrite,
                        t.as_millis(),
                        t.as_millis(),
                        || [],
                    );
                }
                if self.clocked() {
                    let t0 = Instant::now();
                    let snapshot = crate::checkpoint::capture(self);
                    self.stages.add(Stage::CheckpointIo, t0.elapsed());
                    self.checkpoints.push(snapshot);
                } else {
                    let snapshot = crate::checkpoint::capture(self);
                    self.checkpoints.push(snapshot);
                }
            }
            EventKind::GovernorTick => {
                self.governor_tick(t);
            }
            EventKind::StormRegister { burst, k: _ } => {
                self.storm_register(burst, t);
            }
        }
    }

    /// The degradation governor samples the meter and shifts tier when
    /// the state of charge crossed a hysteresis threshold.
    fn governor_tick(&mut self, t: SimTime) {
        let Some(cfg) = self.governor.as_ref().map(|g| *g.config()) else {
            return;
        };
        // Arm the next tick first so a checkpoint captured between the
        // two carries it (mirrors the Checkpoint event's own re-arm).
        let next = t + cfg.check_every;
        if next <= SimTime::ZERO + self.config.duration {
            self.schedule_once(EventKind::GovernorTick, next);
        }
        // Settle the meter through this instant so the sampled spend is
        // exact (idempotent; the run loop advances it anyway).
        self.device.advance_to(t);
        let spent = self.device.energy().total_mj();
        let g = self.governor.as_mut().expect("governor checked above");
        let soc = g.soc_milli(spent);
        let from = g.tier();
        let target = g.target_tier(soc);
        if self.obs.on() {
            self.obs
                .metrics
                .set_gauge("sim_battery_soc_milli", f64::from(soc));
        }
        if target == from {
            return;
        }
        g.transition(target, t);
        self.overload.tier_changes += 1;
        let restamped = self.manager.set_grace_stretch(cfg.stretch_for(target));
        if self.obs.on() {
            self.obs.metrics.inc("sim_degradation_transitions_total");
            self.obs
                .metrics
                .set_gauge("sim_degradation_tier", target.gauge());
            self.obs.spans.record(
                SpanKind::DegradationTransition,
                t.as_millis(),
                t.as_millis(),
                || {
                    [
                        ("from", from.name().to_owned().into()),
                        ("to", target.name().to_owned().into()),
                        ("soc_milli", soc.to_string().into()),
                        ("restamped", restamped.to_string().into()),
                    ]
                },
            );
        }
        // Restamping re-placed every queued imperceptible alarm; the
        // wakeup head may have moved either direction.
        self.drain_placements();
        self.arm_clocks();
    }

    /// One planned storm registration fires: build the burst's alarm and
    /// push it through the admission-controlled front door. The outcome
    /// (admit/defer/reject/shed) is counted there; a rejection is the
    /// expected behavior under quota, not an error of the run.
    fn storm_register(&mut self, burst: usize, t: SimTime) {
        let Some(b) = self.storm.get(burst).cloned() else {
            return;
        };
        self.overload.storm_registrations += 1;
        if self.obs.on() {
            self.obs.metrics.inc("sim_storm_registrations_total");
        }
        let _ = self.register(b.build_alarm(t));
    }

    /// Kills the simulated device at `t`: every wakelock, in-flight
    /// task, and pending retry dies with the power. Device-local events
    /// are purged from the queue; app/system-level events survive,
    /// deferred to boot completion when they land inside the outage.
    fn reboot(&mut self, t: SimTime, outage: SimDuration) {
        let boot_at = t + outage;
        self.device.reboot(t);
        // The power died: whatever wake cycle was open ends here.
        self.obs.wake_ended(t);
        self.holds.clear();
        for slot in &mut self.activation_retries {
            slot.done = true;
        }
        self.ledger.drop_all_tasks(t);
        // Rebuild the event queue. RTC fires, wake transitions, task
        // ends, sleep attempts, watchdog checks, and activation retries
        // referenced state that no longer exists; external wakes during
        // the outage hit a powered-off radio and are lost.
        let (pending, _) = self.events.snapshot();
        self.events = EventQueue::new();
        self.armed.clear();
        for ev in pending {
            match ev.kind {
                EventKind::Reboot { .. } | EventKind::BootComplete | EventKind::Checkpoint => {
                    self.schedule_once(ev.kind, ev.time);
                }
                EventKind::ExternalWake if ev.time >= boot_at => {
                    self.schedule_once(ev.kind, ev.time);
                }
                EventKind::Reregister { .. }
                | EventKind::AppCrash { .. }
                | EventKind::AppRestart { .. }
                | EventKind::StormRegister { .. } => {
                    // The OS (or the storming app) replays these once it
                    // is back up.
                    self.events.schedule(ev.time.max(boot_at), ev.kind);
                }
                EventKind::GovernorTick => {
                    // The governor resumes its cadence at boot.
                    self.schedule_once(ev.kind, ev.time.max(boot_at));
                }
                _ => {}
            }
        }
        self.down_until = Some(boot_at);
        self.trace.record_intervention(InterventionRecord {
            at: t,
            app: "device".to_owned(),
            kind: InterventionKind::Reboot { outage },
            overhead_mj: 0.0,
        });
        self.schedule_once(EventKind::BootComplete, boot_at);
    }

    /// Boot finished: account the missed-alarm catch-up, then wake and
    /// deliver everything that came due during the outage (apps
    /// re-register at boot, so the queues are intact).
    fn boot_complete(&mut self, t: SimTime) {
        match self.down_until {
            // A later reboot superseded this boot while we were down.
            Some(du) if t < du => return,
            _ => {}
        }
        self.down_until = None;
        let mut caught_up = 0usize;
        let mut worst_delay = SimDuration::ZERO;
        for entry in self.manager.wakeup_queue().entries() {
            let due = entry.delivery_time();
            if due <= t {
                caught_up += 1;
                worst_delay = worst_delay.max(t - due);
            }
        }
        self.trace.record_intervention(InterventionRecord {
            at: t,
            app: "device".to_owned(),
            kind: InterventionKind::BootCatchUp {
                caught_up,
                worst_delay,
            },
            overhead_mj: 0.0,
        });
        // Boot itself powers the device up — the catch-up deliveries (if
        // any) ride the boot transition.
        self.wake_and_deliver(t);
    }

    /// Inspects outstanding holds; any hold older than the watchdog's
    /// budget gets its app force-released, and repeat offenders are
    /// quarantined.
    fn watchdog_check(&mut self, t: SimTime) {
        let Some(cfg) = self.watchdog else { return };
        self.holds.retain(|h| h.until > t);
        let mut offenders: BTreeSet<Arc<str>> = BTreeSet::new();
        for h in &self.holds {
            if t >= h.started + cfg.policy.max_task_hold {
                offenders.insert(h.app.clone());
            }
        }
        for app in offenders {
            let held = self
                .holds
                .iter()
                .filter(|h| h.app == app)
                .map(|h| t - h.started)
                .max()
                .unwrap_or(SimDuration::ZERO);
            self.force_release_app_inner(&app, t, held);
            let offenses = self.offenses.entry(app.to_string()).or_insert(0);
            *offenses += 1;
            if *offenses >= cfg.quarantine_after && !self.quarantined.contains_key(&*app) {
                self.manager.set_app_quarantined(&app, true);
                self.quarantined.insert(app.to_string(), (t, 0));
                if self.obs.on() {
                    self.obs.metrics.inc("sim_watchdog_quarantines_total");
                    self.obs
                        .metrics
                        .set_gauge("sim_quarantined_apps", self.quarantined.len() as f64);
                    self.obs.spans.record(
                        SpanKind::WatchdogIntervention,
                        t.as_millis(),
                        t.as_millis(),
                        || {
                            [
                                ("app", app.to_string().into()),
                                ("kind", "quarantine".into()),
                            ]
                        },
                    );
                }
                self.trace.record_intervention(InterventionRecord {
                    at: t,
                    app: app.to_string(),
                    kind: InterventionKind::Quarantine,
                    overhead_mj: 0.0,
                });
            }
        }
        self.arm_clocks();
        self.arm_sleep();
    }

    /// The shared core of the targeted release: drop the offender's
    /// holds, rescope the device's wakelocks to the surviving claims,
    /// stop attributing the offender, and record the intervention.
    fn force_release_app_inner(&mut self, app: &str, now: SimTime, held: SimDuration) {
        self.holds.retain(|h| *h.app != *app && h.until > now);
        let survivors: Vec<(HardwareSet, SimTime)> =
            self.holds.iter().map(|h| (h.hardware, h.until)).collect();
        self.device.rescope_holds(&survivors, now);
        self.ledger.drop_app_tasks(app, now);
        for slot in &mut self.activation_retries {
            if *slot.app == *app {
                slot.done = true;
            }
        }
        if self.obs.on() {
            self.obs.metrics.inc("sim_watchdog_forced_releases_total");
            self.obs.spans.record(
                SpanKind::WatchdogIntervention,
                (now - held).as_millis(),
                now.as_millis(),
                || {
                    [
                        ("app", app.to_owned().into()),
                        ("kind", "forced_release".into()),
                    ]
                },
            );
        }
        self.trace.record_intervention(InterventionRecord {
            at: now,
            app: app.to_owned(),
            kind: InterventionKind::ForcedRelease { held },
            overhead_mj: 0.0,
        });
    }

    /// Retries a transiently-failed hardware activation.
    fn activation_retry(&mut self, slot: usize, t: SimTime) {
        let Some(s) = self.activation_retries.get(slot).cloned() else {
            return;
        };
        if s.done {
            return;
        }
        if s.until <= t {
            // The task ended before its hardware ever powered up.
            self.activation_retries[slot].done = true;
            return;
        }
        // The retry needs the device awake; if it went back to sleep, the
        // retry itself pays a wake transition (intervention overhead).
        let wakeups_before = self.device.wake_count();
        let ready = self.device.request_wake(t);
        if self.device.wake_count() > wakeups_before {
            self.trace.record_wakeup(t);
            self.ledger.note_wake_transition();
            self.obs.wake_started(t);
            self.activation_retries[slot].overhead_mj +=
                self.config.power.wake_transition_energy_mj;
        }
        if !self.device.is_awake() {
            self.schedule_once(EventKind::WakeComplete, ready);
            self.events
                .schedule(ready, EventKind::ActivationRetry { slot });
            return;
        }
        let fails = match &mut self.faults {
            Some(f) => f.activation_fails(s.attempt),
            None => None,
        };
        match fails {
            Some(backoff) => {
                self.activation_retries[slot].attempt += 1;
                self.events
                    .schedule(t + backoff, EventKind::ActivationRetry { slot });
            }
            None => {
                let newly = self.device.run_task(s.hardware, s.until - t, t);
                // batch size 0: the retry claims no share of the original
                // delivery's wake transition (already attributed).
                self.ledger
                    .start_task(&s.app, s.hardware, s.until, newly, 0);
                self.schedule_once(EventKind::TaskEnd, s.until);
                let done = &mut self.activation_retries[slot];
                done.done = true;
                let overhead_mj = done.overhead_mj;
                let attempt = done.attempt;
                self.trace.record_intervention(InterventionRecord {
                    at: t,
                    app: s.app.to_string(),
                    kind: InterventionKind::ActivationRetry { attempt },
                    overhead_mj,
                });
                self.arm_sleep();
            }
        }
    }

    /// A quarantined app delivered; within-budget holds count toward its
    /// probation, an over-budget hold resets the streak.
    fn note_clean_delivery(&mut self, app: &str, hold: SimDuration, t: SimTime) {
        let Some(cfg) = self.watchdog else { return };
        let Some((since, clean)) = self.quarantined.get_mut(app) else {
            return;
        };
        if hold > cfg.policy.max_task_hold {
            *clean = 0;
            return;
        }
        *clean += 1;
        if *clean < cfg.probation {
            return;
        }
        let quarantined_for = t - *since;
        self.quarantined.remove(app);
        self.offenses.remove(app);
        self.manager.set_app_quarantined(app, false);
        if self.obs.on() {
            self.obs.metrics.inc("sim_watchdog_recoveries_total");
            self.obs
                .metrics
                .set_gauge("sim_quarantined_apps", self.quarantined.len() as f64);
        }
        self.trace.record_intervention(InterventionRecord {
            at: t,
            app: app.to_owned(),
            kind: InterventionKind::Recovery { quarantined_for },
            overhead_mj: 0.0,
        });
    }

    /// The RTC fire instant for a head nominally due at `head`:
    /// jitter-shifted when a fault plan injects RTC jitter. Pure in
    /// `head`, so repeated arming stays dedup-friendly.
    fn rtc_fire_time(&self, head: SimTime) -> SimTime {
        match &self.faults {
            Some(f) => head + f.jitter_for(head),
            None => head,
        }
    }

    /// Wakes the device (if needed) and delivers everything due; if a
    /// transition is pending, delivery happens at its completion.
    fn wake_and_deliver(&mut self, t: SimTime) {
        let wakeups_before = self.device.wake_count();
        let ready = self.device.request_wake(t);
        if self.device.wake_count() > wakeups_before {
            self.trace.record_wakeup(t);
            self.ledger.note_wake_transition();
            self.obs.wake_started(t);
        }
        if self.device.is_awake() {
            self.deliver_due(t);
            self.arm_sleep();
        } else {
            self.schedule_once(EventKind::WakeComplete, ready);
        }
    }

    /// Delivers every due wakeup and non-wakeup entry at `t`. Loops
    /// because NATIVE's realignment on reinsert can re-batch pending
    /// alarms into entries that become due immediately.
    fn deliver_due(&mut self, t: SimTime) {
        debug_assert!(self.device.is_awake());
        for _round in 0..64 {
            // Reuse one buffer across rounds and calls: most rounds pop
            // zero or one entry, so a fresh Vec per round is pure churn.
            let mut entries = std::mem::take(&mut self.due_buffer);
            entries.clear();
            if self.clocked() {
                let t0 = Instant::now();
                self.manager.pop_due_into(t, &mut entries);
                self.stages.add(Stage::QueueSearch, t0.elapsed());
            } else {
                self.manager.pop_due_into(t, &mut entries);
            }
            if entries.is_empty() {
                self.due_buffer = entries;
                break;
            }
            let t0 = if self.clocked() {
                Some(Instant::now())
            } else {
                None
            };
            let batch = entries.len() as u64;
            for entry in entries.drain(..) {
                self.trace.record_entry_delivery();
                let mut alarms = entry.into_alarms();
                let entry_size = alarms.len();
                let kind = alarms[0].kind();
                self.obs.entry_delivered(entry_size);
                for alarm in alarms.drain(..) {
                    self.deliver_alarm(alarm, t, entry_size);
                }
                // The emptied buffer hosts a later new entry.
                self.manager.recycle(kind, alarms);
            }
            if let Some(t0) = t0 {
                self.stages.add_batch(Stage::Delivery, t0.elapsed(), batch);
            }
            self.due_buffer = entries;
        }
        self.obs
            .queue_depth(self.manager.wakeup_queue().entries().len());
        if let Some(m) = self.monitor.as_mut() {
            m.check_queue_order(
                self.manager
                    .wakeup_queue()
                    .entries()
                    .iter()
                    .map(QueueEntry::delivery_time),
            );
        }
        self.arm_clocks();
    }

    /// Delivers one alarm at `t`: draws this delivery's faults (overrun,
    /// leak, activation failure), runs the task, attributes it, tracks
    /// the hold for the watchdog, and checks the perceptible-window
    /// invariant.
    fn deliver_alarm(&mut self, alarm: Alarm, t: SimTime, entry_size: usize) {
        let quarantined = alarm.is_quarantined();
        // One shared label for the ledger, the retry/hold bookkeeping,
        // and the trace: every per-delivery "clone" below is a refcount
        // bump, not a string copy.
        let label = alarm.label_arc();
        let (overrun, leak, failure) = match &mut self.faults {
            Some(f) => {
                let overrun = f.overrun();
                let leak = f.leak();
                let failure = if alarm.hardware().is_empty() {
                    None
                } else {
                    f.activation_fails(0)
                };
                (overrun, leak, failure)
            }
            None => (SimDuration::ZERO, SimDuration::ZERO, None),
        };
        let cpu_until = t + alarm.task_duration() + overrun;
        let hold_until = cpu_until + leak;

        let mut rec = DeliveryRecord::observe(&alarm, t, entry_size);
        rec.task_duration = hold_until - t;
        if alarm.kind() == AlarmKind::Wakeup {
            if let Some(m) = &mut self.monitor {
                m.check_delivery(&rec, quarantined);
            }
        }
        if self.obs.on() {
            self.obs
                .alarm_delivered(rec.normalized_delay(), (hold_until - t).as_millis());
            for c in alarm.hardware().iter() {
                self.obs
                    .component_active(c.name(), (hold_until - t).as_millis());
            }
            self.obs.spans.record(
                SpanKind::TaskRun,
                t.as_millis(),
                hold_until.as_millis(),
                || {
                    [
                        ("app", Arc::clone(&label).into()),
                        ("entry_size", entry_size.into()),
                    ]
                },
            );
        }
        self.trace.record_delivery(rec);

        match failure {
            Some(backoff) => {
                // The CPU part of the task runs, but the hardware fails
                // to power up; a retry slot takes over.
                let _ = self
                    .device
                    .run_task(HardwareSet::empty(), hold_until - t, t);
                self.ledger.start_task(
                    &label,
                    HardwareSet::empty(),
                    hold_until,
                    HardwareSet::empty(),
                    entry_size,
                );
                let slot = self.activation_retries.len();
                self.activation_retries.push(RetrySlot {
                    app: Arc::clone(&label),
                    hardware: alarm.hardware(),
                    until: hold_until,
                    attempt: 1,
                    done: false,
                    overhead_mj: 0.0,
                });
                self.events
                    .schedule(t + backoff, EventKind::ActivationRetry { slot });
            }
            None => {
                let newly = self.device.run_task(alarm.hardware(), cpu_until - t, t);
                self.ledger
                    .start_task(&label, alarm.hardware(), hold_until, newly, entry_size);
                if hold_until > cpu_until {
                    // Leak: the hardware locks outlive the task's CPU time.
                    self.device.leak_locks(alarm.hardware(), hold_until, t);
                }
            }
        }
        self.schedule_once(EventKind::TaskEnd, cpu_until);
        if hold_until > cpu_until {
            self.schedule_once(EventKind::TaskEnd, hold_until);
        }
        self.holds.push(TaskHold {
            app: Arc::clone(&label),
            hardware: alarm.hardware(),
            started: t,
            until: hold_until,
        });
        if let Some(cfg) = &self.watchdog {
            if hold_until - t > cfg.policy.max_task_hold {
                self.schedule_once(EventKind::WatchdogCheck, t + cfg.policy.max_task_hold);
            }
        }
        self.manager.complete_delivery(alarm, t);
        if quarantined {
            self.note_clean_delivery(&label, hold_until - t, t);
        }
    }

    /// Arms RTC and non-wakeup check events for the current queue heads.
    fn arm_clocks(&mut self) {
        if let Some(t) = self.manager.next_wakeup_time() {
            let fire = self.rtc_fire_time(t).max(self.now);
            self.schedule_once(EventKind::RtcAlarm, fire);
        }
        if let Some(t) = self.manager.non_wakeup_queue().next_delivery_time() {
            self.schedule_once(EventKind::NonWakeupCheck, t.max(self.now));
        }
    }

    /// Arms a sleep attempt at the device's earliest allowed sleep time.
    fn arm_sleep(&mut self) {
        if let Some(t) = self.device.earliest_sleep_time() {
            self.schedule_once(EventKind::TrySleep, t.max(self.now));
        }
    }

    fn schedule_once(&mut self, kind: EventKind, t: SimTime) {
        let key = (Self::tag(&kind), t.as_millis());
        if !self.armed.contains(&key) {
            self.armed.push(key);
            self.events.schedule(t, kind);
        }
    }

    fn disarm(&mut self, kind: &EventKind, t: SimTime) {
        let key = (Self::tag(kind), t.as_millis());
        if let Some(i) = self.armed.iter().position(|&k| k == key) {
            self.armed.swap_remove(i);
        }
    }

    fn tag(kind: &EventKind) -> u8 {
        match kind {
            EventKind::RtcAlarm => 0,
            EventKind::WakeComplete => 1,
            EventKind::TaskEnd => 2,
            EventKind::TrySleep => 3,
            EventKind::NonWakeupCheck => 4,
            EventKind::ExternalWake => 5,
            // Reregister/retry/crash/restart events are scheduled directly
            // (never deduped), but still need stable tags for the disarm
            // bookkeeping.
            EventKind::Reregister { .. } => 6,
            EventKind::WatchdogCheck => 7,
            EventKind::ActivationRetry { .. } => 8,
            EventKind::AppCrash { .. } => 9,
            EventKind::AppRestart { .. } => 10,
            EventKind::Reboot { .. } => 11,
            EventKind::BootComplete => 12,
            EventKind::Checkpoint => 13,
            EventKind::GovernorTick => 14,
            // StormRegister events are scheduled directly (two distinct
            // (burst, k) registrations may share an instant, which the
            // dedup key cannot tell apart).
            EventKind::StormRegister { .. } => 15,
        }
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("policy", &self.manager.policy_name())
            .field("now", &self.now)
            .field("pending_events", &self.events.len())
            .field("deliveries", &self.trace.deliveries().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simty_core::alarm::AlarmKind;
    use simty_core::hardware::HardwareComponent;
    use simty_core::policy::{ExactPolicy, NativePolicy, SimtyPolicy};
    use simty_core::time::SimDuration;

    fn wifi_alarm(label: &str, nominal_s: u64, repeat_s: u64, alpha: f64, beta: f64) -> Alarm {
        Alarm::builder(label)
            .nominal(SimTime::from_secs(nominal_s))
            .repeating_static(SimDuration::from_secs(repeat_s))
            .window_fraction(alpha)
            .grace_fraction(beta)
            .hardware(HardwareComponent::Wifi.into())
            .task_duration(SimDuration::from_secs(2))
            .build()
            .unwrap()
    }

    fn ten_minute_sim(policy: Box<dyn AlignmentPolicy>) -> Simulation {
        Simulation::new(
            policy,
            SimConfig::new().with_duration(SimDuration::from_mins(10)),
        )
    }

    #[test]
    fn single_repeating_alarm_is_delivered_every_period() {
        let mut sim = ten_minute_sim(Box::new(ExactPolicy::new()));
        sim.register(wifi_alarm("a", 30, 60, 0.0, 0.5)).unwrap();
        let report = sim.run();
        // Nominal deliveries at 30, 90, ..., 570 -> 10 deliveries (a
        // nominal at 600 would wake at the boundary but complete after it).
        assert_eq!(report.total_deliveries, 10);
        assert_eq!(report.cpu_wakeups, 10);
        // Each delivery is slightly late by the wake latency.
        for d in sim.trace().deliveries() {
            assert_eq!(
                d.delivered_at,
                d.nominal + SimDuration::from_millis(250),
                "delivery at wake-transition completion"
            );
        }
    }

    #[test]
    fn deliveries_never_exceed_grace_under_simty() {
        let mut sim = ten_minute_sim(Box::new(SimtyPolicy::new()));
        sim.register(wifi_alarm("a", 60, 60, 0.0, 0.9)).unwrap();
        sim.register(wifi_alarm("b", 90, 120, 0.25, 0.9)).unwrap();
        sim.run();
        let latency = SimDuration::from_millis(250);
        for d in sim.trace().deliveries() {
            assert!(
                d.delivered_at <= d.grace_end + latency,
                "{d} exceeded grace {}",
                d.grace_end
            );
        }
    }

    #[test]
    fn aligned_alarms_wake_the_device_less() {
        // Two identical-period alarms, offset by half a period. EXACT wakes
        // twice per period; SIMTY (β = 0.9) aligns them into one wakeup.
        let run = |policy: Box<dyn AlignmentPolicy>| {
            let mut sim = ten_minute_sim(policy);
            sim.register(wifi_alarm("a", 60, 120, 0.0, 0.9)).unwrap();
            sim.register(wifi_alarm("b", 120, 120, 0.0, 0.9)).unwrap();
            sim.run()
        };
        let exact = run(Box::new(ExactPolicy::new()));
        let simty = run(Box::new(SimtyPolicy::new()));
        assert!(simty.cpu_wakeups < exact.cpu_wakeups);
        assert!(simty.energy.total_mj() < exact.energy.total_mj());
    }

    #[test]
    fn non_wakeup_alarm_waits_for_a_wakeup() {
        let mut sim = ten_minute_sim(Box::new(NativePolicy::new()));
        let nw = Alarm::builder("nw")
            .nominal(SimTime::from_secs(30))
            .repeating_static(SimDuration::from_secs(300))
            .kind(AlarmKind::NonWakeup)
            .task_duration(SimDuration::from_secs(1))
            .build()
            .unwrap();
        sim.register(nw).unwrap();
        sim.register(wifi_alarm("w", 100, 300, 0.0, 0.5)).unwrap();
        sim.run();
        let nw_delivery = sim
            .trace()
            .deliveries()
            .iter()
            .find(|d| &*d.label == "nw")
            .expect("non-wakeup alarm delivered");
        // Due at 30 s but the device first wakes at 100 s.
        assert!(nw_delivery.delivered_at >= SimTime::from_secs(100));
    }

    #[test]
    fn non_wakeup_alarm_delivers_promptly_while_awake() {
        let mut sim = ten_minute_sim(Box::new(NativePolicy::new()));
        // A long task keeps the device awake from 60 s to 90 s.
        let mut long_task = wifi_alarm("long", 60, 400, 0.0, 0.5);
        long_task = Alarm::builder(long_task.label())
            .nominal(SimTime::from_secs(60))
            .repeating_static(SimDuration::from_secs(400))
            .hardware(HardwareComponent::Wifi.into())
            .task_duration(SimDuration::from_secs(30))
            .build()
            .unwrap();
        sim.register(long_task).unwrap();
        let nw = Alarm::builder("nw")
            .nominal(SimTime::from_secs(70))
            .repeating_static(SimDuration::from_secs(400))
            .kind(AlarmKind::NonWakeup)
            .task_duration(SimDuration::from_secs(1))
            .build()
            .unwrap();
        sim.register(nw).unwrap();
        sim.run();
        let nw_delivery = sim
            .trace()
            .deliveries()
            .iter()
            .find(|d| &*d.label == "nw")
            .expect("delivered");
        assert_eq!(nw_delivery.delivered_at, SimTime::from_secs(70));
    }

    #[test]
    fn external_wake_flushes_due_non_wakeup_alarms() {
        let config = SimConfig::new()
            .with_duration(SimDuration::from_mins(10))
            .with_external_wakes([SimTime::from_secs(200)]);
        let mut sim = Simulation::new(Box::new(NativePolicy::new()), config);
        let nw = Alarm::builder("nw")
            .nominal(SimTime::from_secs(30))
            .repeating_static(SimDuration::from_secs(900))
            .kind(AlarmKind::NonWakeup)
            .build()
            .unwrap();
        sim.register(nw).unwrap();
        let report = sim.run();
        let d = &sim.trace().deliveries()[0];
        // Delivered when the external event wakes the device (plus latency).
        assert_eq!(d.delivered_at, SimTime::from_millis(200_250));
        assert_eq!(report.cpu_wakeups, 1);
    }

    #[test]
    fn device_sleeps_between_wakeups() {
        let mut sim = ten_minute_sim(Box::new(ExactPolicy::new()));
        sim.register(wifi_alarm("a", 60, 120, 0.0, 0.5)).unwrap();
        let report = sim.run();
        // Deliveries at 60, 180, 300, 420, 540:
        // 5 × (0.25 latency + 2 task + 0.25 linger) = 12.5 s awake.
        let awake = report.awake_time.as_secs_f64();
        assert!((awake - 12.5).abs() < 0.01, "awake {awake}");
        // Sleep energy accrues for the rest.
        assert!(report.energy.sleep_mj > 0.0);
    }

    #[test]
    fn run_is_deterministic() {
        let run = || {
            let mut sim = ten_minute_sim(Box::new(SimtyPolicy::new()));
            sim.register(wifi_alarm("a", 60, 60, 0.0, 0.9)).unwrap();
            sim.register(wifi_alarm("b", 90, 120, 0.25, 0.9)).unwrap();
            let r = sim.run();
            (
                r.total_deliveries,
                r.cpu_wakeups,
                r.energy.total_mj().to_bits(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn staged_runs_resume_cleanly() {
        let mut sim = ten_minute_sim(Box::new(ExactPolicy::new()));
        sim.register(wifi_alarm("a", 60, 60, 0.0, 0.5)).unwrap();
        sim.run_until(SimTime::from_secs(300));
        let halfway = sim.trace().deliveries().len();
        assert_eq!(halfway, 4); // 60, 120, 180, 240 delivered; 300 pending
        sim.run_until(SimTime::from_secs(600));
        assert_eq!(sim.trace().deliveries().len(), 9);
    }

    #[test]
    fn cancel_stops_future_deliveries() {
        let mut sim = ten_minute_sim(Box::new(ExactPolicy::new()));
        let id = sim.register(wifi_alarm("a", 60, 60, 0.0, 0.5)).unwrap();
        sim.run_until(SimTime::from_secs(150));
        // Delivered at 60 and 120; the same id is re-queued for 180.
        assert_eq!(sim.trace().deliveries().len(), 2);
        assert!(sim.cancel(id).is_some());
        sim.run_until(SimTime::from_secs(600));
        assert_eq!(sim.trace().deliveries().len(), 2);
    }

    #[test]
    fn online_watchdog_releases_the_offender_and_spares_bystanders() {
        use crate::watchdog::OnlineWatchdogConfig;
        let config = SimConfig::new()
            .with_duration(SimDuration::from_mins(10))
            .with_online_watchdog(OnlineWatchdogConfig::default());
        let mut sim = Simulation::new(Box::new(ExactPolicy::new()), config);
        // The buggy app holds Wi-Fi for 5 minutes; the watchdog budget is
        // 60 s, so it is cut at 60 + 60 s.
        sim.register(
            Alarm::builder("nosleep")
                .nominal(SimTime::from_secs(60))
                .repeating_static(SimDuration::from_secs(450))
                .hardware(HardwareComponent::Wifi.into())
                .task_duration(SimDuration::from_secs(300))
                .build()
                .unwrap(),
        )
        .unwrap();
        // A bystander delivered at 90 s holds GPS for 40 s (within budget).
        sim.register(
            Alarm::builder("bystander")
                .nominal(SimTime::from_secs(90))
                .repeating_static(SimDuration::from_secs(450))
                .hardware(HardwareComponent::Gps.into())
                .task_duration(SimDuration::from_secs(40))
                .build()
                .unwrap(),
        )
        .unwrap();
        let report = sim.run();
        // Deliveries at 60 s and 510 s each overrun the 60 s budget.
        assert_eq!(report.resilience.forced_releases, 2);
        let release = sim
            .trace()
            .interventions()
            .iter()
            .find(|i| matches!(i.kind, InterventionKind::ForcedRelease { .. }))
            .unwrap();
        assert_eq!(release.app, "nosleep");
        // Cut at delivery (60 s + 250 ms latency) + 60 s budget.
        assert_eq!(release.at, SimTime::from_millis(120_250));
        // The bystander's GPS hold ran its full 40 s: attribution kept it.
        let per_app = sim.attribution().per_app_mj();
        assert!(per_app.contains_key("bystander"));
        // The offender's awake time was cut: the device slept well before
        // the 300 s hold would have ended.
        assert!(report.awake_time < SimDuration::from_secs(200));
    }

    #[test]
    fn repeat_offender_is_quarantined_then_recovers_after_probation() {
        use crate::watchdog::{OnlineWatchdogConfig, WatchdogPolicy};
        let config = SimConfig::new()
            .with_duration(SimDuration::from_hours(2))
            .with_online_watchdog(OnlineWatchdogConfig {
                policy: WatchdogPolicy {
                    max_task_hold: SimDuration::from_secs(60),
                    max_duty_cycle: 0.10,
                },
                quarantine_after: 2,
                probation: 3,
            });
        let mut sim = Simulation::new(Box::new(SimtyPolicy::new()), config);
        // A 90 s task offends on every delivery (budget: 60 s). Two
        // offenses quarantine it; the app then "ships a fix" (cancel +
        // re-register with a sane duration) and must earn its way out
        // through three clean deliveries.
        let buggy_id = sim
            .register(
                Alarm::builder("buggy")
                    .nominal(SimTime::from_secs(60))
                    .repeating_static(SimDuration::from_secs(300))
                    .hardware(HardwareComponent::Wifi.into())
                    .task_duration(SimDuration::from_secs(90))
                    .build()
                    .unwrap(),
            )
            .unwrap();
        // Offense 1 at ~120 s, offense 2 at ~420 s -> quarantined.
        sim.run_until(SimTime::from_secs(500));
        assert!(sim.is_app_quarantined("buggy"));
        // The app ships a fix: same label, sane 5 s task.
        sim.cancel(buggy_id);
        sim.register(
            Alarm::builder("buggy")
                .nominal(SimTime::from_secs(600))
                .repeating_static(SimDuration::from_secs(300))
                .hardware(HardwareComponent::Wifi.into())
                .task_duration(SimDuration::from_secs(5))
                .build()
                .unwrap(),
        )
        .unwrap();
        let report = sim.run();
        assert!(!sim.is_app_quarantined("buggy"));
        assert_eq!(report.resilience.quarantines, 1);
        assert_eq!(report.resilience.recoveries, 1);
        assert!(report.resilience.mean_time_to_recovery_ms > 0.0);
        let recovery = sim
            .trace()
            .interventions()
            .iter()
            .find(|i| matches!(i.kind, InterventionKind::Recovery { .. }))
            .unwrap();
        assert_eq!(recovery.app, "buggy");
    }

    #[test]
    fn faulty_run_reaches_the_end_with_zero_violations_under_strict_invariants() {
        use crate::fault::FaultPlan;
        use crate::watchdog::OnlineWatchdogConfig;
        for policy in [
            Box::new(NativePolicy::new()) as Box<dyn AlignmentPolicy>,
            Box::new(SimtyPolicy::new()),
        ] {
            let config = SimConfig::new()
                .with_duration(SimDuration::from_mins(30))
                .with_online_watchdog(OnlineWatchdogConfig::default())
                .with_strict_invariants();
            let mut sim = Simulation::new(policy, config);
            sim.register(wifi_alarm("a", 60, 60, 0.0, 0.9)).unwrap();
            sim.register(wifi_alarm("b", 90, 120, 0.25, 0.9)).unwrap();
            sim.register(
                Alarm::builder("ring")
                    .nominal(SimTime::from_secs(300))
                    .repeating_static(SimDuration::from_secs(600))
                    .hardware(HardwareComponent::Vibrator.into())
                    .task_duration(SimDuration::from_secs(1))
                    .build()
                    .unwrap(),
            )
            .unwrap();
            let plan = FaultPlan::new(42)
                .with_rtc_jitter(SimDuration::from_secs(2))
                .with_dropped_fires(0.05, SimDuration::from_secs(1))
                .with_task_overruns(0.05, SimDuration::from_secs(120))
                .with_wakelock_leaks(0.05, SimDuration::from_secs(90))
                .with_activation_failures(0.10)
                .with_push_storm(
                    SimTime::from_secs(600),
                    SimDuration::from_secs(120),
                    SimDuration::from_secs(5),
                );
            sim.inject_faults(&plan);
            let report = sim.run();
            // Strict mode would have panicked on any violation; the run
            // also must reach its configured end.
            assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_mins(30));
            assert_eq!(report.resilience.invariant_violations, 0);
            assert!(report.total_deliveries > 0);
        }
    }

    #[test]
    fn faulty_runs_are_seed_deterministic() {
        use crate::fault::FaultPlan;
        use crate::watchdog::OnlineWatchdogConfig;
        let run = || {
            let config = SimConfig::new()
                .with_duration(SimDuration::from_mins(30))
                .with_online_watchdog(OnlineWatchdogConfig::default())
                .with_invariants();
            let mut sim = Simulation::new(Box::new(SimtyPolicy::new()), config);
            sim.register(wifi_alarm("a", 60, 60, 0.0, 0.9)).unwrap();
            sim.register(wifi_alarm("b", 90, 120, 0.25, 0.9)).unwrap();
            let plan = FaultPlan::new(7)
                .with_rtc_jitter(SimDuration::from_secs(1))
                .with_dropped_fires(0.1, SimDuration::from_secs(1))
                .with_task_overruns(0.1, SimDuration::from_secs(120))
                .with_activation_failures(0.2);
            sim.inject_faults(&plan);
            let r = sim.run();
            (
                r.total_deliveries,
                r.cpu_wakeups,
                r.energy.total_mj().to_bits(),
                r.resilience.interventions,
                r.resilience.intervention_overhead_mj.to_bits(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn activation_failures_retry_and_attribute_overhead() {
        use crate::fault::FaultPlan;
        let config = SimConfig::new()
            .with_duration(SimDuration::from_mins(10))
            .with_strict_invariants();
        let mut sim = Simulation::new(Box::new(ExactPolicy::new()), config);
        sim.register(
            Alarm::builder("sync")
                .nominal(SimTime::from_secs(60))
                .repeating_static(SimDuration::from_secs(120))
                .hardware(HardwareComponent::Wifi.into())
                .task_duration(SimDuration::from_secs(30))
                .build()
                .unwrap(),
        )
        .unwrap();
        sim.inject_faults(&FaultPlan::new(3).with_activation_failures(1.0));
        let report = sim.run();
        // p = 1: every delivery's first activation fails, and every retry
        // fails until the forced-success attempt cap.
        assert!(report.resilience.activation_retries > 0);
        let retries = sim
            .trace()
            .interventions()
            .iter()
            .filter(|i| matches!(i.kind, InterventionKind::ActivationRetry { .. }))
            .count() as u64;
        assert_eq!(retries, report.resilience.activation_retries);
        // Wi-Fi still activated (late), on every delivery.
        assert!(report.wakeup_row(HardwareComponent::Wifi).unwrap().actual > 0);
    }

    #[test]
    fn app_crash_cancels_and_restart_reregisters() {
        use crate::fault::FaultPlan;
        let config = SimConfig::new()
            .with_duration(SimDuration::from_mins(20))
            .with_strict_invariants();
        let mut sim = Simulation::new(Box::new(NativePolicy::new()), config);
        sim.register(wifi_alarm("mail", 60, 120, 0.0, 0.9)).unwrap();
        let plan = FaultPlan::new(1).with_app_crash(
            "mail",
            SimTime::from_secs(300),
            SimDuration::from_secs(120),
        );
        sim.inject_faults(&plan);
        let report = sim.run();
        assert_eq!(report.resilience.app_crashes, 1);
        assert_eq!(report.resilience.app_restarts, 1);
        // No deliveries during the outage [300, 420].
        let outage: Vec<_> = sim
            .trace()
            .deliveries()
            .iter()
            .filter(|d| {
                d.delivered_at > SimTime::from_secs(300) && d.delivered_at < SimTime::from_secs(420)
            })
            .collect();
        assert!(outage.is_empty(), "delivered during the outage: {outage:?}");
        // Deliveries resume after the restart.
        assert!(sim
            .trace()
            .deliveries()
            .iter()
            .any(|d| d.delivered_at >= SimTime::from_secs(420)));
    }

    #[test]
    fn targeted_release_drops_exactly_the_offender() {
        let mut sim = ten_minute_sim(Box::new(ExactPolicy::new()));
        sim.register(wifi_alarm("a", 60, 300, 0.0, 0.5)).unwrap();
        sim.run_until(SimTime::from_secs(61));
        assert!(!sim.device().active_components().is_empty());
        assert!(sim.force_release_app("a"));
        assert!(sim.device().active_components().is_empty());
        // force_release_app on an app with no holds reports false.
        assert!(!sim.force_release_app("a"));
    }

    #[test]
    fn report_panics_before_running() {
        let sim = ten_minute_sim(Box::new(ExactPolicy::new()));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.report()));
        assert!(result.is_err());
    }

    fn deferrable_alarm(label: &str, nominal_s: u64, repeat_s: u64) -> Alarm {
        let mut alarm = wifi_alarm(label, nominal_s, repeat_s, 0.1, 0.5);
        alarm.mark_hardware_known();
        alarm
    }

    #[test]
    fn admission_quota_rejects_storms_with_typed_errors() {
        use simty_core::admission::AdmissionConfig;
        let config = SimConfig::new()
            .with_duration(SimDuration::from_mins(10))
            .with_admission(AdmissionConfig::default());
        let mut sim = Simulation::new(Box::new(NativePolicy::new()), config);
        let (mut admitted, mut rejected) = (0u64, 0u64);
        for i in 0..30u64 {
            match sim.register(deferrable_alarm("noisy", 60 + i, 600)) {
                Ok(_) => admitted += 1,
                Err(RegisterAlarmError::QuotaExceeded { retry_after, .. }) => {
                    assert!(retry_after > SimDuration::ZERO);
                    rejected += 1;
                }
                Err(other) => panic!("unexpected rejection: {other}"),
            }
        }
        // Default deferrable quota: burst of 8, then 4 deferred admits,
        // then rejections.
        assert_eq!(admitted, 12);
        assert_eq!(rejected, 18);
        assert_eq!(sim.overload.admitted, 8);
        assert_eq!(sim.overload.deferred, 4);
        assert_eq!(sim.overload.rejected, 18);
        // Eight rejections demote the offender into quarantine.
        assert!(sim.admission().unwrap().is_demoted("noisy"));
        assert_eq!(sim.overload.demotions, 1);
        let report = sim.run();
        assert_eq!(report.overload.rejected, 18);
        assert!(report
            .metrics_json
            .contains("sim_admission_demotions_total"));
    }

    #[test]
    fn admission_debt_survives_cancel_app_and_reregister() {
        use simty_core::admission::AdmissionConfig;
        let config = SimConfig::new()
            .with_duration(SimDuration::from_mins(10))
            .with_admission(AdmissionConfig::default());
        let mut sim = Simulation::new(Box::new(NativePolicy::new()), config);
        for i in 0..30u64 {
            let _ = sim.register(deferrable_alarm("noisy", 60 + i, 600));
        }
        assert!(sim.admission().unwrap().is_demoted("noisy"));
        // Cancelling the app's alarms does not refund its quota debt.
        let cancelled = sim.manager.cancel_app("noisy");
        assert!(!cancelled.is_empty());
        match sim.register(deferrable_alarm("noisy", 300, 600)) {
            Ok(id) => {
                // Still demoted: the fresh registration lands quarantined.
                assert!(sim.manager.find_alarm(id).unwrap().is_quarantined());
            }
            Err(RegisterAlarmError::QuotaExceeded { .. }) => {}
            Err(other) => panic!("unexpected rejection: {other}"),
        }
        assert!(sim.admission().unwrap().is_demoted("noisy"));
    }

    #[test]
    fn governor_descends_tiers_and_widens_grace() {
        use crate::degrade::{DegradationTier, GovernorConfig};
        let build = |capacity: Option<f64>| {
            let mut config = SimConfig::new()
                .with_duration(SimDuration::from_mins(30))
                .with_strict_invariants();
            if let Some(capacity_mj) = capacity {
                config = config.with_degradation(GovernorConfig {
                    capacity_mj,
                    check_every: SimDuration::from_secs(30),
                    ..GovernorConfig::default()
                });
            }
            let mut sim = Simulation::new(Box::new(SimtyPolicy::new()), config);
            sim.register(wifi_alarm("clock", 60, 120, 0.0, 0.9))
                .unwrap();
            sim.register(deferrable_alarm("sync", 90, 60)).unwrap();
            sim
        };
        // Probe the workload's energy draw, then size the battery so the
        // governed run traverses both degraded tiers.
        let mut probe = build(None);
        let spent = probe.run().energy.total_mj();
        let mut sim = build(Some(spent * 1.05));
        let report = sim.run();
        assert_eq!(sim.degradation_tier(), Some(DegradationTier::Critical));
        assert_eq!(report.overload.final_tier, "critical");
        assert!(
            report.overload.tier_changes >= 2,
            "{}",
            report.overload.tier_changes
        );
        assert!(report.overload.time_in_saver_ms > 0);
        assert!(report.overload.time_in_critical_ms > 0);
        // Critical stretches imperceptible grace to 2.5x by default.
        assert_eq!(report.overload.grace_stretch_milli, 2_500);
        // Strict invariants: perceptible alarms never missed a window in
        // any tier (a violation would have panicked mid-run).
        assert_eq!(report.resilience.invariant_violations, 0);
        assert_eq!(report.resilience.perceptible_window_misses, 0);
    }

    #[test]
    fn critical_tier_sheds_deferrable_registrations_only() {
        use crate::degrade::{DegradationTier, GovernorConfig};
        let config = SimConfig::new()
            .with_duration(SimDuration::from_mins(10))
            .with_degradation(GovernorConfig {
                capacity_mj: 1.0,
                check_every: SimDuration::from_secs(30),
                ..GovernorConfig::default()
            });
        let mut sim = Simulation::new(Box::new(NativePolicy::new()), config);
        sim.register(wifi_alarm("clock", 60, 120, 0.0, 0.9))
            .unwrap();
        // A 1 mJ battery is flat by the first governor tick.
        sim.run_until(SimTime::from_secs(61));
        assert_eq!(sim.degradation_tier(), Some(DegradationTier::Critical));
        match sim.register(deferrable_alarm("late", 120, 300)) {
            Err(RegisterAlarmError::RegistrationShed { .. }) => {}
            other => panic!("expected shed, got {other:?}"),
        }
        assert_eq!(sim.overload.shed, 1);
        // Perceptible registrations are never shed.
        sim.register(wifi_alarm("urgent", 120, 300, 0.0, 0.5))
            .unwrap();
        let report = sim.run();
        assert_eq!(report.overload.shed, 1);
        assert_eq!(report.overload.final_tier, "critical");
    }

    fn fingerprint(sim: &Simulation) -> (Vec<u8>, String) {
        let mut csv = Vec::new();
        sim.trace().write_csv(&mut csv).unwrap();
        (csv, crate::json::report_to_json(&sim.report()))
    }

    fn storm_sim(capacity_mj: f64) -> Simulation {
        use crate::degrade::GovernorConfig;
        use crate::overload::{RegistrationStormPlan, StormBurst};
        use simty_core::admission::AdmissionConfig;
        let config = SimConfig::new()
            .with_duration(SimDuration::from_mins(30))
            .with_invariants()
            .with_checkpoints(SimDuration::from_mins(5))
            .with_admission(AdmissionConfig::default())
            .with_degradation(GovernorConfig {
                capacity_mj,
                check_every: SimDuration::from_secs(60),
                ..GovernorConfig::default()
            });
        let mut sim = Simulation::new(Box::new(SimtyPolicy::new()), config);
        sim.register(wifi_alarm("base", 60, 120, 0.1, 0.9)).unwrap();
        let plan = RegistrationStormPlan::new().burst(StormBurst {
            app: "flood".to_owned(),
            start: SimTime::from_secs(120),
            count: 40,
            every: SimDuration::from_secs(1),
            period: SimDuration::from_secs(300),
            perceptible: false,
            task: SimDuration::from_secs(1),
            window_milli: 100,
            grace_milli: 500,
        });
        sim.inject_storm(&plan);
        sim
    }

    #[test]
    fn storm_registrations_are_fully_accounted() {
        // A battery too large to drain: every storm registration faces
        // the quota, not the shedder.
        let mut sim = storm_sim(1.0e9);
        let report = sim.run();
        let ov = &report.overload;
        assert_eq!(ov.storm_registrations, 40);
        // Every storm registration lands in exactly one outcome bucket.
        assert_eq!(
            ov.admitted + ov.deferred + ov.rejected + ov.shed,
            41, // 40 storm registrations + the base alarm
            "{ov:?}"
        );
        assert!(ov.rejected > 0, "quota never pushed back: {ov:?}");
        assert_eq!(report.resilience.perceptible_window_misses, 0);
    }

    #[test]
    fn storm_run_resumes_byte_identically_from_every_checkpoint() {
        // A small battery so the snapshots straddle admission state,
        // storm events, AND governor tier transitions.
        let mut straight = storm_sim(2_000.0);
        straight.run();
        assert!(straight.overload.shed > 0);
        let expected = fingerprint(&straight);
        let checkpoints = straight.checkpoints().to_vec();
        assert!(!checkpoints.is_empty());
        for (i, ckpt) in checkpoints.iter().enumerate() {
            let mut resumed = Simulation::restore(Box::new(SimtyPolicy::new()), ckpt).unwrap();
            resumed.run();
            assert_eq!(fingerprint(&resumed), expected, "checkpoint {i} diverged");
        }
    }

    #[test]
    fn random_storm_plans_hold_invariants_across_policies_and_tiers() {
        use crate::degrade::GovernorConfig;
        use crate::overload::{RegistrationStormPlan, StormBurst};
        use simty_core::admission::AdmissionConfig;
        // A deterministic LCG stands in for a property-test RNG: random
        // storm shapes across all three policies and both drained and
        // healthy batteries, all under strict invariants.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for trial in 0..6u64 {
            let policy: Box<dyn AlignmentPolicy> = match trial % 3 {
                0 => Box::new(NativePolicy::new()),
                1 => Box::new(ExactPolicy::new()),
                _ => Box::new(SimtyPolicy::new()),
            };
            let drained = trial % 2 == 0;
            let config = SimConfig::new()
                .with_duration(SimDuration::from_mins(20))
                .with_strict_invariants()
                .with_admission(AdmissionConfig::default())
                .with_degradation(GovernorConfig {
                    capacity_mj: if drained { 500.0 } else { 1.0e9 },
                    check_every: SimDuration::from_secs(45),
                    ..GovernorConfig::default()
                });
            let mut sim = Simulation::new(policy, config);
            sim.register(wifi_alarm("base", 30, 90, 0.1, 0.9)).unwrap();
            let mut plan = RegistrationStormPlan::new();
            for b in 0..(1 + next() % 3) {
                plan = plan.burst(StormBurst {
                    app: format!("storm{b}"),
                    start: SimTime::from_secs(60 + next() % 600),
                    count: (4 + next() % 24) as u32,
                    every: SimDuration::from_millis(200 + next() % 3_000),
                    period: SimDuration::from_secs(60 + next() % 300),
                    perceptible: next() % 4 == 0,
                    task: SimDuration::from_millis(500 + next() % 2_000),
                    window_milli: (next() % 300) as u32,
                    grace_milli: (300 + next() % 600) as u32,
                });
            }
            let planned = plan.registrations();
            sim.inject_storm(&plan);
            let report = sim.run();
            let ov = &report.overload;
            assert_eq!(ov.storm_registrations, planned, "trial {trial}");
            assert_eq!(
                ov.admitted + ov.deferred + ov.rejected + ov.shed,
                planned + 1,
                "trial {trial}: {ov:?}"
            );
            // Strict invariants: any perceptible window miss would have
            // panicked; the report must agree.
            assert_eq!(
                report.resilience.perceptible_window_misses, 0,
                "trial {trial}"
            );
        }
    }
}
