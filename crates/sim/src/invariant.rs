//! Runtime invariant checking: the referee of every chaos run.
//!
//! The paper's central guarantee is that perceptible alarms incur *zero*
//! delivery delay beyond their windows (§3.1.2, Fig. 4). Under fault
//! injection ([`crate::fault`]) that guarantee must survive dropped
//! fires, RTC jitter, overruns, leaks, crashes, and storms — so the
//! engine can carry an [`InvariantMonitor`] that checks, *while the run
//! executes*:
//!
//! 1. **Perceptible windows** — no ground-truth-perceptible wakeup alarm
//!    is delivered past `window_end + wake latency + fault slack`, where
//!    the fault slack is exactly the environmental delay bound declared
//!    by the active [`FaultPlan`](crate::fault::FaultPlan) (the policy
//!    itself gets no extra slack). Quarantined apps are exempt: the
//!    watchdog has deliberately demoted them.
//! 2. **Queue order** — the wakeup queue stays sorted by delivery time
//!    after every delivery round.
//! 3. **Energy conservation** — at the end of the run, per-app
//!    attribution plus overhead equals the meter's awake-related energy,
//!    and the meter's categories sum to its total.
//!
//! In strict mode (tests) a violation panics at the instant it happens,
//! with full context; otherwise violations accumulate and surface in the
//! [`SimReport`](crate::metrics::SimReport)'s resilience section.

use std::fmt;

use simty_core::time::{SimDuration, SimTime};

use crate::trace::DeliveryRecord;

/// One detected invariant violation.
#[derive(Debug, Clone, PartialEq)]
pub enum InvariantViolation {
    /// A perceptible wakeup alarm was delivered past its window plus the
    /// allowed latency/fault slack.
    PerceptibleWindowMiss {
        /// The offending app label.
        label: String,
        /// When it was delivered.
        delivered_at: SimTime,
        /// The window end it overshot.
        window_end: SimTime,
        /// The slack it was allowed on top of the window.
        allowed_slack: SimDuration,
    },
    /// Two adjacent wakeup-queue entries were out of delivery order.
    QueueOrderBroken {
        /// Delivery time of the earlier entry.
        earlier: SimTime,
        /// Delivery time of the later entry (which was smaller).
        later: SimTime,
    },
    /// The attribution ledger and the energy meter disagree.
    EnergyNotConserved {
        /// Ledger total: attributed + overhead, in mJ.
        ledger_mj: f64,
        /// Meter awake-related energy, in mJ.
        meter_mj: f64,
    },
    /// The integrated Monsoon power waveform and the energy meter
    /// disagree about the run's total energy.
    WaveformMismatch {
        /// Energy integrated from the recorded waveform, in mJ.
        trace_mj: f64,
        /// The meter's total, in mJ.
        meter_mj: f64,
    },
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantViolation::PerceptibleWindowMiss {
                label,
                delivered_at,
                window_end,
                allowed_slack,
            } => write!(
                f,
                "perceptible alarm `{label}` delivered at {delivered_at}, past its window end \
                 {window_end} + {allowed_slack} slack"
            ),
            InvariantViolation::QueueOrderBroken { earlier, later } => write!(
                f,
                "wakeup queue out of order: entry at {earlier} precedes entry at {later}"
            ),
            InvariantViolation::EnergyNotConserved {
                ledger_mj,
                meter_mj,
            } => write!(
                f,
                "energy not conserved: ledger {ledger_mj:.6} mJ vs meter {meter_mj:.6} mJ"
            ),
            InvariantViolation::WaveformMismatch { trace_mj, meter_mj } => write!(
                f,
                "waveform disagrees with meter: trace integrates to {trace_mj:.6} mJ vs meter \
                 {meter_mj:.6} mJ"
            ),
        }
    }
}

/// Runtime invariant monitor; attach via
/// [`SimConfig::with_invariants`](crate::config::SimConfig::with_invariants)
/// (report-only) or
/// [`SimConfig::with_strict_invariants`](crate::config::SimConfig::with_strict_invariants)
/// (panic — the test mode).
#[derive(Debug, Clone)]
pub struct InvariantMonitor {
    pub(crate) slack: SimDuration,
    pub(crate) panic_on_violation: bool,
    pub(crate) violations: Vec<InvariantViolation>,
    pub(crate) window_misses: u64,
}

impl InvariantMonitor {
    /// Creates a monitor. `base_slack` is the device wake latency (the
    /// delay the paper's guarantee already tolerates); fault plans widen
    /// it via [`add_slack`](Self::add_slack).
    pub fn new(base_slack: SimDuration, panic_on_violation: bool) -> Self {
        InvariantMonitor {
            slack: base_slack,
            panic_on_violation,
            violations: Vec::new(),
            window_misses: 0,
        }
    }

    /// Widens the allowed delivery slack by a fault plan's declared
    /// environmental delay bound.
    pub fn add_slack(&mut self, extra: SimDuration) {
        self.slack += extra;
    }

    /// The current total slack.
    pub fn slack(&self) -> SimDuration {
        self.slack
    }

    /// All violations recorded so far.
    pub fn violations(&self) -> &[InvariantViolation] {
        &self.violations
    }

    /// How many perceptible-window misses were recorded (the headline
    /// chaos metric).
    pub fn window_misses(&self) -> u64 {
        self.window_misses
    }

    /// Checks one wakeup delivery against the perceptible-window
    /// guarantee. `quarantined` exempts deliveries the watchdog has
    /// deliberately demoted. Non-wakeup alarms are never checked: by
    /// design they wait for the next wakeup (§2.1).
    pub fn check_delivery(&mut self, record: &DeliveryRecord, quarantined: bool) {
        if !record.perceptible || quarantined {
            return;
        }
        if record.delivered_at > record.window_end + self.slack {
            self.window_misses += 1;
            self.record(InvariantViolation::PerceptibleWindowMiss {
                label: record.label.to_string(),
                delivered_at: record.delivered_at,
                window_end: record.window_end,
                allowed_slack: self.slack,
            });
        }
    }

    /// Checks that delivery times are nondecreasing (call with the
    /// wakeup queue's entry delivery times after a delivery round).
    pub fn check_queue_order(&mut self, delivery_times: impl Iterator<Item = SimTime>) {
        let mut prev: Option<SimTime> = None;
        for t in delivery_times {
            if let Some(p) = prev {
                if t < p {
                    self.record(InvariantViolation::QueueOrderBroken {
                        earlier: p,
                        later: t,
                    });
                    return;
                }
            }
            prev = Some(t);
        }
    }

    /// Checks end-of-run energy conservation: the ledger (attributed +
    /// overhead) must match the meter's awake-related energy within a
    /// relative tolerance, and the meter's categories must sum to its
    /// total.
    pub fn check_energy(
        &mut self,
        ledger_mj: f64,
        meter_awake_mj: f64,
        meter_parts_mj: f64,
        meter_total_mj: f64,
    ) {
        let tol = 1e-6 * meter_total_mj.abs().max(1.0);
        if (ledger_mj - meter_awake_mj).abs() > tol {
            self.record(InvariantViolation::EnergyNotConserved {
                ledger_mj,
                meter_mj: meter_awake_mj,
            });
        }
        if (meter_parts_mj - meter_total_mj).abs() > tol {
            self.record(InvariantViolation::EnergyNotConserved {
                ledger_mj: meter_parts_mj,
                meter_mj: meter_total_mj,
            });
        }
    }

    /// Cross-checks the recorded Monsoon waveform against the energy
    /// meter: integrating the power trace over the whole run must land on
    /// the meter's total within the same relative tolerance as
    /// [`check_energy`](Self::check_energy). Only meaningful when the
    /// run recorded a waveform.
    pub fn check_waveform(&mut self, trace_mj: f64, meter_total_mj: f64) {
        let tol = 1e-6 * meter_total_mj.abs().max(1.0);
        if (trace_mj - meter_total_mj).abs() > tol {
            self.record(InvariantViolation::WaveformMismatch {
                trace_mj,
                meter_mj: meter_total_mj,
            });
        }
    }

    fn record(&mut self, violation: InvariantViolation) {
        if self.panic_on_violation {
            panic!("invariant violated: {violation}");
        }
        self.violations.push(violation);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simty_core::alarm::Alarm;

    fn perceptible_record(delivered_s: u64) -> DeliveryRecord {
        // One-shot ⇒ ground-truth perceptible; window ends at nominal.
        let alarm = Alarm::builder("p")
            .nominal(SimTime::from_secs(100))
            .build()
            .unwrap();
        DeliveryRecord::observe(&alarm, SimTime::from_secs(delivered_s), 1)
    }

    #[test]
    fn on_time_delivery_is_clean() {
        let mut m = InvariantMonitor::new(SimDuration::from_millis(250), false);
        m.check_delivery(&perceptible_record(100), false);
        assert!(m.violations().is_empty());
        assert_eq!(m.window_misses(), 0);
    }

    #[test]
    fn late_perceptible_delivery_is_a_miss() {
        let mut m = InvariantMonitor::new(SimDuration::from_millis(250), false);
        m.check_delivery(&perceptible_record(105), false);
        assert_eq!(m.window_misses(), 1);
        assert!(m.violations()[0]
            .to_string()
            .contains("past its window end"));
    }

    #[test]
    fn quarantined_deliveries_are_exempt() {
        let mut m = InvariantMonitor::new(SimDuration::from_millis(250), false);
        m.check_delivery(&perceptible_record(105), true);
        assert!(m.violations().is_empty());
    }

    #[test]
    fn fault_slack_widens_the_check() {
        let mut m = InvariantMonitor::new(SimDuration::from_millis(250), false);
        m.add_slack(SimDuration::from_secs(10));
        m.check_delivery(&perceptible_record(105), false);
        assert!(m.violations().is_empty());
        assert_eq!(m.slack(), SimDuration::from_millis(10_250));
    }

    #[test]
    #[should_panic(expected = "invariant violated")]
    fn strict_mode_panics() {
        let mut m = InvariantMonitor::new(SimDuration::from_millis(250), true);
        m.check_delivery(&perceptible_record(105), false);
    }

    #[test]
    fn queue_order_violation_is_detected() {
        let mut m = InvariantMonitor::new(SimDuration::ZERO, false);
        m.check_queue_order([1, 2, 3].into_iter().map(SimTime::from_secs));
        assert!(m.violations().is_empty());
        m.check_queue_order([1, 3, 2].into_iter().map(SimTime::from_secs));
        assert_eq!(m.violations().len(), 1);
    }

    #[test]
    fn energy_conservation_uses_relative_tolerance() {
        let mut m = InvariantMonitor::new(SimDuration::ZERO, false);
        m.check_energy(1_000_000.0, 1_000_000.0 + 1e-4, 1_000_000.0, 1_000_000.0);
        assert!(m.violations().is_empty());
        m.check_energy(1_000.0, 2_000.0, 5.0, 5.0);
        assert_eq!(m.violations().len(), 1);
    }

    #[test]
    fn waveform_cross_check_uses_relative_tolerance() {
        let mut m = InvariantMonitor::new(SimDuration::ZERO, false);
        m.check_waveform(1_000_000.0, 1_000_000.0 + 1e-4);
        assert!(m.violations().is_empty());
        m.check_waveform(900.0, 1_000.0);
        assert_eq!(m.violations().len(), 1);
        assert!(m.violations()[0]
            .to_string()
            .contains("waveform disagrees with meter"));
    }
}
