//! A WakeScope-style no-sleep watchdog.
//!
//! The paper's introduction surveys *no-sleep bugs* — apps that keep the
//! device or a component awake far longer than necessary — and runtime
//! schemes that detect them (Kim & Cha's WakeScope \[3\]). This module
//! implements that companion mechanism over the simulator's traces: it
//! scans a finished run for tasks whose wakelock holds exceed a budget
//! and for abnormally long awake streaks, and reports the offending apps.
//!
//! Two remedies exist in the engine. Post hoc, the targeted
//! [`force_release_app`](crate::engine::Simulation::force_release_app)
//! cuts one offender's holds while every other task keeps its locks and
//! attribution. Online, the
//! same [`WatchdogPolicy`] can be promoted into the event loop via
//! [`OnlineWatchdogConfig`] and
//! [`SimConfig::with_online_watchdog`](crate::config::SimConfig::with_online_watchdog):
//! the engine then detects long holds at runtime, force-releases the
//! offender, quarantines repeat offenders (demoting their alarms to
//! imperceptible, see [`simty_core::alarm::Alarm::is_quarantined`]), and
//! lifts the quarantine after a probation period of clean deliveries.
//! The fault-injection side that provokes all of this lives in
//! [`crate::fault`]; `tests/failure_injection.rs` exercises the
//! detect-then-remedy loop end to end.

use std::collections::BTreeMap;
use std::fmt;

use simty_core::time::{SimDuration, SimTime};

use crate::trace::Trace;

/// Watchdog thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogPolicy {
    /// A single task holding wakelocks longer than this is suspicious.
    pub max_task_hold: SimDuration,
    /// An app whose cumulative hold time exceeds this fraction of the
    /// observed span is suspicious even if each task is short.
    pub max_duty_cycle: f64,
}

impl Default for WatchdogPolicy {
    fn default() -> Self {
        WatchdogPolicy {
            // A background sync that holds hardware for over a minute is
            // almost certainly leaking its wakelock.
            max_task_hold: SimDuration::from_secs(60),
            max_duty_cycle: 0.10,
        }
    }
}

/// Configuration for the *online* watchdog: the same [`WatchdogPolicy`]
/// promoted into the event loop, plus the quarantine state machine.
///
/// When enabled via
/// [`SimConfig::with_online_watchdog`](crate::config::SimConfig::with_online_watchdog),
/// the engine checks every hold that outlives `policy.max_task_hold` and
/// force-releases the specific offender. An app force-released
/// `quarantine_after` times is quarantined — its alarms are demoted to
/// imperceptible so the policy may defer them — and recovers
/// automatically after `probation` consecutive clean deliveries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineWatchdogConfig {
    /// The hold/duty thresholds (only `max_task_hold` is used online;
    /// duty cycles remain a post-hoc scan concern).
    pub policy: WatchdogPolicy,
    /// Forced releases before an app is quarantined.
    pub quarantine_after: u32,
    /// Consecutive clean (within-budget) deliveries before a quarantined
    /// app recovers.
    pub probation: u32,
}

impl Default for OnlineWatchdogConfig {
    fn default() -> Self {
        OnlineWatchdogConfig {
            policy: WatchdogPolicy::default(),
            // Tolerate one incident; a second within the run is a pattern.
            quarantine_after: 2,
            probation: 3,
        }
    }
}

/// Why an app was flagged.
#[derive(Debug, Clone, PartialEq)]
pub enum Anomaly {
    /// A single delivery held its wakelocks too long.
    LongHold {
        /// The offending hold duration.
        hold: SimDuration,
        /// When the offending delivery happened.
        at: SimTime,
    },
    /// The app's cumulative hold time dominates the span.
    HighDutyCycle {
        /// Cumulative hold over the span.
        total_hold: SimDuration,
        /// The fraction of the span spent holding.
        duty_cycle: f64,
    },
}

impl fmt::Display for Anomaly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Anomaly::LongHold { hold, at } => {
                write!(f, "held wakelocks for {hold} at {at}")
            }
            Anomaly::HighDutyCycle {
                total_hold,
                duty_cycle,
            } => write!(
                f,
                "cumulative hold {total_hold} ({:.1}% duty cycle)",
                duty_cycle * 100.0
            ),
        }
    }
}

/// One flagged app.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchdogFinding {
    /// The app label.
    pub app: String,
    /// What tripped the watchdog.
    pub anomaly: Anomaly,
}

/// The watchdog report over one run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WatchdogReport {
    /// Findings, one per (app, anomaly kind), worst first within an app.
    pub findings: Vec<WatchdogFinding>,
}

impl WatchdogReport {
    /// Whether the run looks clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The flagged apps, deduplicated, in first-flagged order.
    pub fn flagged_apps(&self) -> Vec<&str> {
        let mut seen = Vec::new();
        for f in &self.findings {
            if !seen.contains(&f.app.as_str()) {
                seen.push(f.app.as_str());
            }
        }
        seen
    }
}

impl fmt::Display for WatchdogReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return f.write_str("watchdog: no wakelock anomalies");
        }
        writeln!(f, "watchdog: {} finding(s)", self.findings.len())?;
        for finding in &self.findings {
            writeln!(f, "  {:<16} {}", finding.app, finding.anomaly)?;
        }
        Ok(())
    }
}

/// Scans a finished run's trace for no-sleep anomalies. `span` is the
/// observed duration (used for duty-cycle accounting).
///
/// Task hold times are taken from the delivery records: each delivery of
/// an alarm with task duration `d` holds its hardware (and the CPU) for
/// `d` after the delivery instant.
///
/// # Panics
///
/// Panics if `span` is zero.
pub fn scan(trace: &Trace, span: SimDuration, policy: WatchdogPolicy) -> WatchdogReport {
    assert!(!span.is_zero(), "watchdog span must be positive");
    let mut report = WatchdogReport::default();
    let mut totals: BTreeMap<String, SimDuration> = BTreeMap::new();
    let mut worst: BTreeMap<String, (SimDuration, SimTime)> = BTreeMap::new();
    for d in trace.deliveries() {
        let hold = d.task_duration;
        *totals
            .entry(d.label.to_string())
            .or_insert(SimDuration::ZERO) += hold;
        let w = worst
            .entry(d.label.to_string())
            .or_insert((SimDuration::ZERO, d.delivered_at));
        if hold > w.0 {
            *w = (hold, d.delivered_at);
        }
    }
    // One candidate list per app so the documented order holds: apps in
    // name order, and within an app the finding that overshoots its
    // threshold by the larger factor first.
    for (app, total) in &totals {
        let mut candidates: Vec<(f64, Anomaly)> = Vec::new();
        if let Some((hold, at)) = worst.get(app) {
            if *hold > policy.max_task_hold {
                let severity = hold.as_secs_f64() / policy.max_task_hold.as_secs_f64();
                candidates.push((
                    severity,
                    Anomaly::LongHold {
                        hold: *hold,
                        at: *at,
                    },
                ));
            }
        }
        let duty = total.as_secs_f64() / span.as_secs_f64();
        if duty > policy.max_duty_cycle {
            let severity = duty / policy.max_duty_cycle;
            candidates.push((
                severity,
                Anomaly::HighDutyCycle {
                    total_hold: *total,
                    duty_cycle: duty,
                },
            ));
        }
        candidates.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("severities are finite"));
        for (_, anomaly) in candidates {
            report.findings.push(WatchdogFinding {
                app: app.clone(),
                anomaly,
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::DeliveryRecord;
    use simty_core::alarm::Alarm;
    use simty_core::hardware::HardwareComponent;

    fn trace_of(task_secs: u64, deliveries: &[u64]) -> Trace {
        let mut alarm = Alarm::builder("suspect")
            .nominal(SimTime::from_secs(60))
            .repeating_static(SimDuration::from_secs(600))
            .hardware(HardwareComponent::Gps.into())
            .task_duration(SimDuration::from_secs(task_secs))
            .build()
            .unwrap();
        alarm.mark_hardware_known();
        let mut t = Trace::new();
        for s in deliveries {
            t.record_delivery(DeliveryRecord::observe(&alarm, SimTime::from_secs(*s), 1));
        }
        t
    }

    #[test]
    fn clean_run_reports_nothing() {
        let t = trace_of(3, &[60, 660, 1260]);
        let r = scan(&t, SimDuration::from_hours(1), WatchdogPolicy::default());
        assert!(r.is_clean());
        assert!(r.to_string().contains("no wakelock anomalies"));
    }

    #[test]
    fn long_hold_is_flagged() {
        let t = trace_of(300, &[60]);
        let r = scan(&t, SimDuration::from_hours(1), WatchdogPolicy::default());
        assert!(!r.is_clean());
        assert_eq!(r.flagged_apps(), vec!["suspect"]);
        assert!(matches!(
            r.findings[0].anomaly,
            Anomaly::LongHold { hold, .. } if hold == SimDuration::from_secs(300)
        ));
    }

    #[test]
    fn high_duty_cycle_is_flagged_even_with_short_tasks() {
        // 30 s tasks every 60 s: each under the hold limit, but a 50 % duty
        // cycle.
        let mut deliveries = Vec::new();
        for i in 1..60 {
            deliveries.push(i * 60);
        }
        let t = trace_of(30, &deliveries);
        let r = scan(&t, SimDuration::from_hours(1), WatchdogPolicy::default());
        assert!(!r.is_clean());
        assert!(r
            .findings
            .iter()
            .any(|f| matches!(f.anomaly, Anomaly::HighDutyCycle { .. })));
        let text = r.to_string();
        assert!(text.contains("duty cycle"));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_span_is_rejected() {
        let _ = scan(&Trace::new(), SimDuration::ZERO, WatchdogPolicy::default());
    }

    #[test]
    fn findings_are_worst_first_within_an_app() {
        // One 90 s hold in a 600 s span: LongHold overshoots its 60 s
        // budget by 1.5x, while the 15 % duty cycle also exceeds the 10 %
        // budget... by the same 1.5x. Tip the balance with a second short
        // delivery: duty rises to 1.75x while the worst hold stays 1.5x,
        // so HighDutyCycle must come first.
        let mut t = trace_of(90, &[60]);
        let mut short = Alarm::builder("suspect")
            .nominal(SimTime::from_secs(300))
            .repeating_static(SimDuration::from_secs(600))
            .hardware(HardwareComponent::Gps.into())
            .task_duration(SimDuration::from_secs(15))
            .build()
            .unwrap();
        short.mark_hardware_known();
        t.record_delivery(DeliveryRecord::observe(&short, SimTime::from_secs(300), 1));
        let r = scan(&t, SimDuration::from_secs(600), WatchdogPolicy::default());
        assert_eq!(r.findings.len(), 2);
        assert_eq!(r.findings[0].app, "suspect");
        assert!(
            matches!(r.findings[0].anomaly, Anomaly::HighDutyCycle { .. }),
            "worst finding first: {:?}",
            r.findings
        );
        assert!(matches!(r.findings[1].anomaly, Anomaly::LongHold { .. }));
    }

    #[test]
    fn apps_stay_grouped_and_name_ordered() {
        let mut t = trace_of(300, &[60]);
        let mut other = Alarm::builder("another")
            .nominal(SimTime::from_secs(120))
            .repeating_static(SimDuration::from_secs(600))
            .hardware(HardwareComponent::Gps.into())
            .task_duration(SimDuration::from_secs(400))
            .build()
            .unwrap();
        other.mark_hardware_known();
        t.record_delivery(DeliveryRecord::observe(&other, SimTime::from_secs(120), 1));
        let r = scan(&t, SimDuration::from_hours(1), WatchdogPolicy::default());
        // `another` sorts before `suspect`; each app's findings stay
        // contiguous.
        assert_eq!(r.flagged_apps(), vec!["another", "suspect"]);
        let apps: Vec<&str> = r.findings.iter().map(|f| f.app.as_str()).collect();
        let mut grouped = apps.clone();
        grouped.sort();
        assert_eq!(apps, grouped);
    }

    #[test]
    fn online_config_defaults_are_sane() {
        let c = OnlineWatchdogConfig::default();
        assert_eq!(c.policy, WatchdogPolicy::default());
        assert!(c.quarantine_after >= 1);
        assert!(c.probation >= 1);
    }
}
