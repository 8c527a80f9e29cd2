//! Battery-aware graceful degradation.
//!
//! A device in connected standby does not get to pick how long it stays
//! there: the battery decides. The [`DegradationGovernor`] watches the
//! energy meter against a fixed battery capacity and, as the modeled
//! state of charge drops through hysteresis-guarded thresholds, moves
//! the run down a ladder of [`DegradationTier`]s:
//!
//! * **Normal** — the paper's behavior, untouched.
//! * **Saver** — imperceptible grace intervals are *stretched* (the
//!   manager multiplies each imperceptible alarm's registered grace by
//!   the tier's factor, capped below its repeating interval), buying the
//!   policy more alignment headroom at the cost of background freshness.
//! * **Critical** — grace stretches further, and (when configured) new
//!   *deferrable* registrations are shed outright with a typed error.
//!
//! Perceptible alarms are untouchable in every tier: the stretch applies
//! only to imperceptible alarms (see
//! [`Alarm::grace`](simty_core::alarm::Alarm::grace)), so the §3.1.2
//! window guarantee the user perceives survives degradation by
//! construction — and the
//! [`InvariantMonitor`](crate::invariant::InvariantMonitor) keeps
//! checking it at runtime.
//!
//! Transitions use enter/exit thresholds with a gap (hysteresis) so a
//! state of charge hovering at a boundary cannot flap the tier — and
//! with it the manager's queue order — every governor tick.
//!
//! All arithmetic is driven by the simulation clock and the
//! deterministic energy meter, so tier transitions replay bit-for-bit
//! and the governor's runtime state round-trips through the checkpoint
//! body.

use simty_core::alarm::GRACE_STRETCH_UNIT;
use simty_core::time::{SimDuration, SimTime};
use simty_device::battery::Battery;

/// The governor's current degradation level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradationTier {
    /// Full-fidelity operation.
    Normal,
    /// Battery saver: imperceptible grace intervals widen.
    Saver,
    /// Critical battery: grace widens further and deferrable
    /// registrations may be shed.
    Critical,
}

impl DegradationTier {
    /// The tier's stable lowercase name (metrics, exports, CLI).
    pub fn name(self) -> &'static str {
        match self {
            DegradationTier::Normal => "normal",
            DegradationTier::Saver => "saver",
            DegradationTier::Critical => "critical",
        }
    }

    /// The tier as a gauge value (0, 1, 2).
    pub fn gauge(self) -> f64 {
        match self {
            DegradationTier::Normal => 0.0,
            DegradationTier::Saver => 1.0,
            DegradationTier::Critical => 2.0,
        }
    }
}

/// Configuration of the battery-aware degradation governor; attach via
/// [`SimConfig::with_degradation`](crate::config::SimConfig::with_degradation).
///
/// State of charge is modeled as
/// `(capacity_mj - meter.total_mj()) / capacity_mj`, expressed in
/// *milli* (‰, 0..=1000) so every threshold comparison is integer math.
/// Each tier's `*_enter_milli` must sit strictly below its
/// `*_exit_milli` to give the hysteresis a real gap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GovernorConfig {
    /// Usable battery capacity in millijoules that the run drains from.
    /// The default is the paper's Nexus 5 pack; storm campaigns shrink
    /// it so a 3-hour standby session actually traverses the tiers.
    pub capacity_mj: f64,
    /// How often the governor samples the meter.
    pub check_every: SimDuration,
    /// Enter Saver at or below this state of charge (‰).
    pub saver_enter_milli: u32,
    /// Leave Saver at or above this state of charge (‰).
    pub saver_exit_milli: u32,
    /// Enter Critical at or below this state of charge (‰).
    pub critical_enter_milli: u32,
    /// Leave Critical at or above this state of charge (‰).
    pub critical_exit_milli: u32,
    /// Grace stretch in Saver, in milli (1500 = 1.5×; see
    /// [`GRACE_STRETCH_UNIT`]).
    pub saver_stretch_milli: u32,
    /// Grace stretch in Critical, in milli.
    pub critical_stretch_milli: u32,
    /// Whether Critical sheds new deferrable registrations outright
    /// (perceptible registrations are always admitted to the front
    /// door regardless).
    pub shed_in_critical: bool,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        GovernorConfig {
            capacity_mj: Battery::nexus5().capacity_mj(),
            check_every: SimDuration::from_secs(60),
            saver_enter_milli: 500,
            saver_exit_milli: 550,
            critical_enter_milli: 200,
            critical_exit_milli: 250,
            saver_stretch_milli: 1_500,
            critical_stretch_milli: 2_500,
            shed_in_critical: true,
        }
    }
}

impl GovernorConfig {
    /// The grace stretch (milli) the manager should run at in `tier`.
    pub fn stretch_for(&self, tier: DegradationTier) -> u32 {
        match tier {
            DegradationTier::Normal => GRACE_STRETCH_UNIT,
            DegradationTier::Saver => self.saver_stretch_milli,
            DegradationTier::Critical => self.critical_stretch_milli,
        }
    }

    /// Checks the threshold ordering that hysteresis depends on.
    ///
    /// # Panics
    ///
    /// Panics if an enter threshold is not strictly below its exit
    /// threshold, or Critical's band is not below Saver's.
    pub fn validate(&self) {
        assert!(
            self.saver_enter_milli < self.saver_exit_milli,
            "saver hysteresis needs enter < exit"
        );
        assert!(
            self.critical_enter_milli < self.critical_exit_milli,
            "critical hysteresis needs enter < exit"
        );
        assert!(
            self.critical_exit_milli <= self.saver_enter_milli,
            "critical band must sit below the saver band"
        );
        assert!(self.capacity_mj > 0.0, "battery capacity must be positive");
    }
}

/// The governor's runtime state: the current tier, when it was entered,
/// and how long the run has spent in each degraded tier.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationGovernor {
    /// The governing thresholds.
    pub(crate) config: GovernorConfig,
    /// The current tier.
    pub(crate) tier: DegradationTier,
    /// When the current tier was entered.
    pub(crate) tier_since: SimTime,
    /// Accumulated time in Saver over closed tier spells.
    pub(crate) in_saver: SimDuration,
    /// Accumulated time in Critical over closed tier spells.
    pub(crate) in_critical: SimDuration,
}

impl DegradationGovernor {
    /// Creates a governor at Normal tier, time zero.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`GovernorConfig::validate`].
    pub fn new(config: GovernorConfig) -> Self {
        config.validate();
        DegradationGovernor {
            config,
            tier: DegradationTier::Normal,
            tier_since: SimTime::ZERO,
            in_saver: SimDuration::ZERO,
            in_critical: SimDuration::ZERO,
        }
    }

    /// The governing configuration.
    pub fn config(&self) -> &GovernorConfig {
        &self.config
    }

    /// The current tier.
    pub fn tier(&self) -> DegradationTier {
        self.tier
    }

    /// The modeled state of charge (‰ of capacity) after `spent_mj` has
    /// been drained, clamped to `0..=1000`.
    pub fn soc_milli(&self, spent_mj: f64) -> u32 {
        let remaining = (self.config.capacity_mj - spent_mj).max(0.0);
        ((remaining / self.config.capacity_mj) * 1_000.0).floor() as u32
    }

    /// The tier the governor should occupy at `soc_milli`, honoring
    /// hysteresis from the current tier.
    pub fn target_tier(&self, soc_milli: u32) -> DegradationTier {
        let c = &self.config;
        match self.tier {
            DegradationTier::Normal => {
                if soc_milli <= c.critical_enter_milli {
                    DegradationTier::Critical
                } else if soc_milli <= c.saver_enter_milli {
                    DegradationTier::Saver
                } else {
                    DegradationTier::Normal
                }
            }
            DegradationTier::Saver => {
                if soc_milli <= c.critical_enter_milli {
                    DegradationTier::Critical
                } else if soc_milli >= c.saver_exit_milli {
                    DegradationTier::Normal
                } else {
                    DegradationTier::Saver
                }
            }
            DegradationTier::Critical => {
                if soc_milli < c.critical_exit_milli {
                    DegradationTier::Critical
                } else if soc_milli >= c.saver_exit_milli {
                    DegradationTier::Normal
                } else {
                    DegradationTier::Saver
                }
            }
        }
    }

    /// Moves to `tier` at `t`, closing the outgoing tier's spell into
    /// its accumulator. No-op when the tier is unchanged.
    pub(crate) fn transition(&mut self, tier: DegradationTier, t: SimTime) {
        if tier == self.tier {
            return;
        }
        let spell = t.saturating_since(self.tier_since);
        match self.tier {
            DegradationTier::Normal => {}
            DegradationTier::Saver => self.in_saver += spell,
            DegradationTier::Critical => self.in_critical += spell,
        }
        self.tier = tier;
        self.tier_since = t;
    }

    /// Time spent in (Saver, Critical) through `now`, including the
    /// still-open spell of the current tier.
    pub fn time_degraded(&self, now: SimTime) -> (SimDuration, SimDuration) {
        let open = now.saturating_since(self.tier_since);
        match self.tier {
            DegradationTier::Normal => (self.in_saver, self.in_critical),
            DegradationTier::Saver => (self.in_saver + open, self.in_critical),
            DegradationTier::Critical => (self.in_saver, self.in_critical + open),
        }
    }

    /// Rebuilds a governor from persisted runtime state (checkpoint
    /// restore).
    pub fn restore(
        config: GovernorConfig,
        tier: DegradationTier,
        tier_since: SimTime,
        in_saver: SimDuration,
        in_critical: SimDuration,
    ) -> Self {
        DegradationGovernor {
            config,
            tier,
            tier_since,
            in_saver,
            in_critical,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> GovernorConfig {
        GovernorConfig {
            capacity_mj: 1_000.0,
            ..GovernorConfig::default()
        }
    }

    #[test]
    fn soc_is_integer_permille_of_remaining_capacity() {
        let g = DegradationGovernor::new(small());
        assert_eq!(g.soc_milli(0.0), 1_000);
        assert_eq!(g.soc_milli(250.0), 750);
        assert_eq!(g.soc_milli(999.9), 0);
        assert_eq!(g.soc_milli(2_000.0), 0); // over-drain clamps
    }

    #[test]
    fn tiers_descend_through_thresholds() {
        let mut g = DegradationGovernor::new(small());
        assert_eq!(g.target_tier(1_000), DegradationTier::Normal);
        assert_eq!(g.target_tier(500), DegradationTier::Saver);
        g.transition(DegradationTier::Saver, SimTime::from_secs(10));
        assert_eq!(g.target_tier(200), DegradationTier::Critical);
        g.transition(DegradationTier::Critical, SimTime::from_secs(20));
        // A Normal-tier SoC straight from Critical recovers in one step.
        assert_eq!(g.target_tier(900), DegradationTier::Normal);
    }

    #[test]
    fn hysteresis_blocks_boundary_flapping() {
        let mut g = DegradationGovernor::new(small());
        g.transition(DegradationTier::Saver, SimTime::from_secs(10));
        // Between enter (500) and exit (550): stay put, both directions.
        for soc in [501, 520, 549] {
            assert_eq!(g.target_tier(soc), DegradationTier::Saver, "soc {soc}");
        }
        assert_eq!(g.target_tier(550), DegradationTier::Normal);
        g.transition(DegradationTier::Critical, SimTime::from_secs(20));
        for soc in [201, 230, 249] {
            assert_eq!(g.target_tier(soc), DegradationTier::Critical, "soc {soc}");
        }
        assert_eq!(g.target_tier(250), DegradationTier::Saver);
    }

    #[test]
    fn tier_spells_accumulate_per_tier() {
        let mut g = DegradationGovernor::new(small());
        g.transition(DegradationTier::Saver, SimTime::from_secs(100));
        g.transition(DegradationTier::Critical, SimTime::from_secs(250));
        g.transition(DegradationTier::Normal, SimTime::from_secs(400));
        g.transition(DegradationTier::Saver, SimTime::from_secs(500));
        let (saver, critical) = g.time_degraded(SimTime::from_secs(560));
        assert_eq!(saver, SimDuration::from_secs(150 + 60)); // closed + open spell
        assert_eq!(critical, SimDuration::from_secs(150));
    }

    #[test]
    fn stretch_follows_the_tier() {
        let c = GovernorConfig::default();
        assert_eq!(c.stretch_for(DegradationTier::Normal), GRACE_STRETCH_UNIT);
        assert_eq!(c.stretch_for(DegradationTier::Saver), 1_500);
        assert_eq!(c.stretch_for(DegradationTier::Critical), 2_500);
    }

    #[test]
    #[should_panic(expected = "enter < exit")]
    fn degenerate_hysteresis_is_rejected() {
        DegradationGovernor::new(GovernorConfig {
            saver_enter_milli: 550,
            saver_exit_milli: 550,
            ..GovernorConfig::default()
        });
    }

    #[test]
    fn restore_round_trips() {
        let mut g = DegradationGovernor::new(small());
        g.transition(DegradationTier::Saver, SimTime::from_secs(100));
        g.transition(DegradationTier::Critical, SimTime::from_secs(300));
        let r = DegradationGovernor::restore(
            g.config,
            g.tier,
            g.tier_since,
            g.in_saver,
            g.in_critical,
        );
        assert_eq!(r, g);
    }
}
