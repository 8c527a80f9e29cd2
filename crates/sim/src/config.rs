//! Simulation configuration.

use simty_core::admission::AdmissionConfig;
use simty_core::time::{SimDuration, SimTime};
use simty_device::power::PowerModel;

use crate::degrade::GovernorConfig;
use crate::obs::ObsLevel;
use crate::watchdog::OnlineWatchdogConfig;

/// How the runtime [`InvariantMonitor`](crate::invariant::InvariantMonitor)
/// reacts to a violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantMode {
    /// No monitor attached (the default; zero overhead).
    Off,
    /// Violations accumulate and surface in the report's resilience
    /// section.
    Report,
    /// Violations panic at the instant they occur — the test mode.
    Strict,
}

/// Configuration of one simulation run.
///
/// The defaults mirror the paper's setup: a 3-hour connected-standby
/// session (§4.1) on the Nexus 5 power model.
///
/// # Examples
///
/// ```
/// use simty_core::time::SimDuration;
/// use simty_sim::config::SimConfig;
///
/// let config = SimConfig::new().with_duration(SimDuration::from_hours(1));
/// assert_eq!(config.duration, SimDuration::from_hours(1));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// How long the device stays in connected standby.
    pub duration: SimDuration,
    /// The device power model.
    pub power: PowerModel,
    /// Instants at which an external stimulus (push message, user button
    /// press) awakens the device regardless of the alarm queues.
    pub external_wakes: Vec<SimTime>,
    /// Whether to attach the simulated Monsoon monitor and record the
    /// transient power waveform (memory-proportional to state changes).
    pub record_waveform: bool,
    /// The online watchdog (force-release, quarantine, probation); `None`
    /// keeps the watchdog a post-hoc scan as in the plain paper setup.
    pub online_watchdog: Option<OnlineWatchdogConfig>,
    /// Runtime invariant checking mode.
    pub invariants: InvariantMode,
    /// Capture a crash-consistent checkpoint every this often (see
    /// [`crate::checkpoint`]); `None` disables checkpointing.
    pub checkpoint_every: Option<SimDuration>,
    /// How many placement-decision audits the observability layer retains
    /// (oldest evicted first; see [`crate::obs::ObsLayer`]).
    pub audit_capacity: usize,
    /// How many spans the observability layer's span ring retains
    /// (oldest evicted first). Fleet campaigns shrink this so a
    /// 100k-device run's instrumentation stays O(shards), not
    /// O(devices × spans).
    pub span_capacity: usize,
    /// Per-app admission quotas at the registration front door; `None`
    /// admits everything (the plain paper setup).
    pub admission: Option<AdmissionConfig>,
    /// The battery-aware degradation governor; `None` keeps the run at
    /// full fidelity regardless of the modeled state of charge.
    pub degradation: Option<GovernorConfig>,
    /// How much the observability layer (spans, metrics, placement
    /// audits) and the wall-clock stage profile record;
    /// [`Full`](ObsLevel::Full) by default. Traces stay byte-identical
    /// at every level, and so do reports outside their `metrics` block.
    /// [`Counts`](ObsLevel::Counts) keeps that block byte-identical too
    /// and only stops building the spans, audits and stage clocks that
    /// fleet devices never read; [`Off`](ObsLevel::Off) (see
    /// [`without_obs`](SimConfig::without_obs)) renders it as `null`.
    pub obs: ObsLevel,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            duration: SimDuration::from_hours(3),
            power: PowerModel::nexus5(),
            external_wakes: Vec::new(),
            record_waveform: false,
            online_watchdog: None,
            invariants: InvariantMode::Off,
            checkpoint_every: None,
            audit_capacity: crate::obs::DEFAULT_AUDIT_CAPACITY,
            span_capacity: crate::obs::SPAN_CAPACITY,
            admission: None,
            degradation: None,
            obs: ObsLevel::Full,
        }
    }
}

impl SimConfig {
    /// The paper's default configuration (3 h, Nexus 5 model).
    pub fn new() -> Self {
        SimConfig::default()
    }

    /// Overrides the simulated span.
    pub fn with_duration(mut self, duration: SimDuration) -> Self {
        self.duration = duration;
        self
    }

    /// Overrides the power model.
    pub fn with_power(mut self, power: PowerModel) -> Self {
        self.power = power;
        self
    }

    /// Adds external wake instants.
    pub fn with_external_wakes(mut self, wakes: impl IntoIterator<Item = SimTime>) -> Self {
        self.external_wakes.extend(wakes);
        self
    }

    /// Enables the transient power waveform recording.
    pub fn with_waveform(mut self) -> Self {
        self.record_waveform = true;
        self
    }

    /// Promotes the watchdog into the event loop (see
    /// [`OnlineWatchdogConfig`]).
    pub fn with_online_watchdog(mut self, watchdog: OnlineWatchdogConfig) -> Self {
        self.online_watchdog = Some(watchdog);
        self
    }

    /// Attaches the runtime invariant monitor in report mode: violations
    /// are counted into the report's resilience section.
    pub fn with_invariants(mut self) -> Self {
        self.invariants = InvariantMode::Report;
        self
    }

    /// Attaches the runtime invariant monitor in strict mode: any
    /// violation panics immediately. Use in tests.
    pub fn with_strict_invariants(mut self) -> Self {
        self.invariants = InvariantMode::Strict;
        self
    }

    /// Captures a crash-consistent in-memory checkpoint every `every` of
    /// simulated time; retrieve them with
    /// [`Simulation::checkpoints`](crate::engine::Simulation::checkpoints)
    /// and resume with
    /// [`Simulation::restore`](crate::engine::Simulation::restore).
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn with_checkpoints(mut self, every: SimDuration) -> Self {
        assert!(!every.is_zero(), "checkpoint interval must be positive");
        self.checkpoint_every = Some(every);
        self
    }

    /// Overrides how many placement-decision audits the run retains
    /// (default [`DEFAULT_AUDIT_CAPACITY`](crate::obs::DEFAULT_AUDIT_CAPACITY)).
    /// Raise it when a full run's decisions must survive for
    /// post-hoc explanation, as `standby explain` does.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_audit_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "audit capacity must be positive");
        self.audit_capacity = capacity;
        self
    }

    /// Overrides how many spans the observability span ring retains
    /// (default [`SPAN_CAPACITY`](crate::obs::SPAN_CAPACITY)). Fleet
    /// campaigns cap this per shard so instrumentation memory is
    /// bounded regardless of population size; evictions are counted in
    /// the fleet document.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_span_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "span capacity must be positive");
        self.span_capacity = capacity;
        self
    }

    /// Puts per-app admission quotas on the registration front door:
    /// over-quota registrations are deferred or rejected with typed
    /// errors, and persistent offenders are demoted into the quarantine
    /// ledger (see [`AdmissionConfig`]).
    pub fn with_admission(mut self, admission: AdmissionConfig) -> Self {
        self.admission = Some(admission);
        self
    }

    /// Sets how much the observability layer and the stage profile
    /// record (see [`ObsLevel`]).
    pub fn with_obs(mut self, level: ObsLevel) -> Self {
        self.obs = level;
        self
    }

    /// Switches the observability layer and the stage profile off: the
    /// engine's no-obs fast path skips every span, metric, audit, and
    /// wall-clock probe. The deterministic outputs (trace, report,
    /// checkpoints) are unaffected except that the report's `metrics`
    /// JSON block renders as `null`.
    pub fn without_obs(self) -> Self {
        self.with_obs(ObsLevel::Off)
    }

    /// Attaches the battery-aware degradation governor: as the modeled
    /// state of charge drains through `governor`'s thresholds, the run
    /// widens imperceptible grace intervals and (in the critical tier)
    /// sheds deferrable registrations (see [`GovernorConfig`]).
    ///
    /// # Panics
    ///
    /// Panics if `governor` fails [`GovernorConfig::validate`].
    pub fn with_degradation(mut self, governor: GovernorConfig) -> Self {
        governor.validate();
        self.degradation = Some(governor);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_papers_setup() {
        let c = SimConfig::new();
        assert_eq!(c.duration, SimDuration::from_hours(3));
        assert_eq!(c.power, PowerModel::nexus5());
        assert!(c.external_wakes.is_empty());
    }

    #[test]
    fn builders_compose() {
        let c = SimConfig::new()
            .with_duration(SimDuration::from_mins(10))
            .with_external_wakes([SimTime::from_secs(5)]);
        assert_eq!(c.duration, SimDuration::from_mins(10));
        assert_eq!(c.external_wakes, vec![SimTime::from_secs(5)]);
    }

    #[test]
    fn obs_level_defaults_to_full_and_has_one_setter() {
        assert_eq!(SimConfig::new().obs, ObsLevel::Full);
        assert_eq!(
            SimConfig::new().with_obs(ObsLevel::Counts).obs,
            ObsLevel::Counts
        );
        assert_eq!(
            SimConfig::new().without_obs(),
            SimConfig::new().with_obs(ObsLevel::Off)
        );
    }
}
