//! Run metrics: everything the paper's evaluation section reports.
//!
//! * energy breakdown (Fig. 3),
//! * normalized delivery delays, split perceptible/imperceptible (Fig. 4),
//! * the wakeup breakdown with actual vs expected counts (Table 4),
//! * standby-time projection (the headline claim).

use std::fmt;

use simty_core::hardware::HardwareComponent;
use simty_core::time::SimDuration;
use simty_device::device::Device;
use simty_device::energy::{EnergyBreakdown, EnergyMeter};

use crate::checkpoint::CheckpointError;
use crate::codec::{record, unesc, Cursor, Field, Parser, Put};
use crate::trace::{InterventionKind, Trace};

/// Normalized-delivery-delay statistics, split by ground-truth
/// perceptibility (the paper's Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DelayStats {
    /// Mean normalized delay over perceptible repeating-alarm deliveries.
    pub perceptible_avg: f64,
    /// Maximum normalized delay over perceptible deliveries.
    pub perceptible_max: f64,
    /// Number of perceptible repeating-alarm deliveries.
    pub perceptible_count: u64,
    /// Mean normalized delay over imperceptible deliveries.
    pub imperceptible_avg: f64,
    /// Maximum normalized delay over imperceptible deliveries.
    pub imperceptible_max: f64,
    /// Number of imperceptible repeating-alarm deliveries.
    pub imperceptible_count: u64,
}

impl DelayStats {
    /// Computes delay statistics over every repeating-alarm delivery in
    /// the trace (one-shot alarms have no repeating interval to normalize
    /// by and are excluded, as in the paper).
    pub fn from_trace(trace: &Trace) -> Self {
        let mut stats = DelayStats::default();
        let mut perceptible_sum = 0.0;
        let mut imperceptible_sum = 0.0;
        for d in trace.deliveries() {
            let Some(nd) = d.normalized_delay() else {
                continue;
            };
            if d.perceptible {
                perceptible_sum += nd;
                stats.perceptible_max = stats.perceptible_max.max(nd);
                stats.perceptible_count += 1;
            } else {
                imperceptible_sum += nd;
                stats.imperceptible_max = stats.imperceptible_max.max(nd);
                stats.imperceptible_count += 1;
            }
        }
        if stats.perceptible_count > 0 {
            stats.perceptible_avg = perceptible_sum / stats.perceptible_count as f64;
        }
        if stats.imperceptible_count > 0 {
            stats.imperceptible_avg = imperceptible_sum / stats.imperceptible_count as f64;
        }
        stats
    }
}

/// Resilience accounting for a run under fault injection: what the
/// online watchdog and [`InvariantMonitor`](crate::invariant::InvariantMonitor)
/// observed and did (see [`crate::fault`]).
///
/// All-zero for a fault-free run without the monitor attached, in which
/// case [`SimReport`]'s `Display` omits the resilience lines entirely.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResilienceStats {
    /// Total invariant violations recorded by the runtime monitor.
    pub invariant_violations: u64,
    /// Perceptible-window misses (the headline chaos metric; a subset of
    /// `invariant_violations`).
    pub perceptible_window_misses: u64,
    /// Total watchdog/engine interventions of any kind.
    pub interventions: u64,
    /// Forced releases of a single offender's wakelocks.
    pub forced_releases: u64,
    /// Hardware-activation retries after transient failures.
    pub activation_retries: u64,
    /// RTC fires that were dropped and rescheduled.
    pub dropped_fire_retries: u64,
    /// Apps quarantined (demoted to imperceptible) by the watchdog.
    pub quarantines: u64,
    /// Apps recovered from quarantine after clean probation.
    pub recoveries: u64,
    /// Injected app crashes.
    pub app_crashes: u64,
    /// App restarts that re-registered the crashed app's alarms.
    pub app_restarts: u64,
    /// Mean time from quarantine to recovery, in milliseconds (0 when no
    /// app recovered).
    pub mean_time_to_recovery_ms: f64,
    /// Energy paid by interventions themselves (e.g. extra wake
    /// transitions for activation retries), in mJ.
    pub intervention_overhead_mj: f64,
    /// Injected device reboots (see [`crate::fault::RebootPlan`]).
    pub reboots: u64,
    /// Mean outage from kill to boot completion, in milliseconds — the
    /// per-reboot recovery time (0 when no reboot was injected).
    pub mean_recovery_ms: f64,
    /// Queue entries already overdue at boot completion, summed over all
    /// reboots — alarms the boot catch-up had to deliver late.
    pub catch_up_entries: u64,
    /// Largest catch-up delay at any boot, in milliseconds: how far past
    /// its scheduled delivery the most overdue entry was.
    pub worst_catch_up_delay_ms: f64,
}

impl ResilienceStats {
    /// Derives the intervention-side counters from the trace. Monitor
    /// counters (`invariant_violations`, `perceptible_window_misses`) are
    /// not in the trace; the engine fills them in afterwards.
    pub fn from_trace(trace: &Trace) -> Self {
        let mut stats = ResilienceStats::default();
        let mut recovery_total = SimDuration::ZERO;
        let mut outage_total = SimDuration::ZERO;
        for i in trace.interventions() {
            stats.interventions += 1;
            stats.intervention_overhead_mj += i.overhead_mj;
            match i.kind {
                InterventionKind::ForcedRelease { .. } => stats.forced_releases += 1,
                InterventionKind::ActivationRetry { .. } => stats.activation_retries += 1,
                InterventionKind::DroppedFireRetry { .. } => stats.dropped_fire_retries += 1,
                InterventionKind::Quarantine => stats.quarantines += 1,
                InterventionKind::Recovery { quarantined_for } => {
                    stats.recoveries += 1;
                    recovery_total += quarantined_for;
                }
                InterventionKind::AppCrash { .. } => stats.app_crashes += 1,
                InterventionKind::AppRestart { .. } => stats.app_restarts += 1,
                InterventionKind::Reboot { outage } => {
                    stats.reboots += 1;
                    outage_total += outage;
                }
                InterventionKind::BootCatchUp {
                    caught_up,
                    worst_delay,
                } => {
                    stats.catch_up_entries += caught_up as u64;
                    stats.worst_catch_up_delay_ms = stats
                        .worst_catch_up_delay_ms
                        .max(worst_delay.as_millis() as f64);
                }
            }
        }
        if stats.recoveries > 0 {
            stats.mean_time_to_recovery_ms =
                recovery_total.as_millis() as f64 / stats.recoveries as f64;
        }
        if stats.reboots > 0 {
            stats.mean_recovery_ms = outage_total.as_millis() as f64 / stats.reboots as f64;
        }
        stats
    }

    /// Whether anything at all happened (drives `Display` brevity).
    pub fn is_quiet(&self) -> bool {
        self.invariant_violations == 0
            && self.interventions == 0
            && self.intervention_overhead_mj == 0.0
    }
}

/// Overload accounting for a run with admission control, a degradation
/// governor, or an injected registration storm attached.
///
/// All-zero (and omitted from `Display` and the JSON export) for runs
/// without any of the three, so existing reports are unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadStats {
    /// Registrations attempted by an injected registration storm.
    pub storm_registrations: u64,
    /// Registrations the admission controller admitted on the spot.
    pub admitted: u64,
    /// Registrations admitted late: the controller pushed the alarm's
    /// first deadline out to the deferral horizon.
    pub deferred: u64,
    /// Registrations rejected with
    /// [`RegisterAlarmError::QuotaExceeded`](simty_core::error::RegisterAlarmError::QuotaExceeded).
    pub rejected: u64,
    /// Registrations shed by the critical degradation tier with
    /// [`RegisterAlarmError::RegistrationShed`](simty_core::error::RegisterAlarmError::RegistrationShed).
    pub shed: u64,
    /// Apps demoted (quarantined) by the admission controller for
    /// sustained over-quota behavior.
    pub demotions: u64,
    /// Degradation-tier transitions over the run.
    pub tier_changes: u64,
    /// Simulated time spent in the Saver tier, in milliseconds.
    pub time_in_saver_ms: u64,
    /// Simulated time spent in the Critical tier, in milliseconds.
    pub time_in_critical_ms: u64,
    /// The degradation tier at the end of the run.
    pub final_tier: String,
    /// The manager's grace stretch at the end of the run, in milli
    /// (1000 = no stretch).
    pub grace_stretch_milli: u32,
}

impl Default for OverloadStats {
    fn default() -> Self {
        OverloadStats {
            storm_registrations: 0,
            admitted: 0,
            deferred: 0,
            rejected: 0,
            shed: 0,
            demotions: 0,
            tier_changes: 0,
            time_in_saver_ms: 0,
            time_in_critical_ms: 0,
            final_tier: "normal".to_owned(),
            grace_stretch_milli: simty_core::alarm::GRACE_STRETCH_UNIT,
        }
    }
}

impl OverloadStats {
    /// Whether nothing overload-related happened (drives `Display` and
    /// JSON brevity).
    pub fn is_quiet(&self) -> bool {
        self.storm_registrations == 0
            && self.admitted == 0
            && self.deferred == 0
            && self.rejected == 0
            && self.shed == 0
            && self.demotions == 0
            && self.tier_changes == 0
            && self.time_in_saver_ms == 0
            && self.time_in_critical_ms == 0
            && self.final_tier == "normal"
            && self.grace_stretch_milli == simty_core::alarm::GRACE_STRETCH_UNIT
    }
}

/// One row of the paper's Table 4: the number of wakeups that actually
/// acquired a hardware component versus the number expected if no
/// alignment policy were applied (one wakeup per alarm delivery).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WakeupRow {
    /// The hardware component (the CPU row is reported separately).
    pub component: HardwareComponent,
    /// Actual activations of the component (alignment groups deliveries).
    pub actual: u64,
    /// Alarm deliveries that acquired the component.
    pub expected: u64,
}

impl WakeupRow {
    /// `actual / expected`, the paper's measure of alignment
    /// effectiveness ("the smaller the ratio, the more effective").
    pub fn ratio(&self) -> f64 {
        if self.expected == 0 {
            1.0
        } else {
            self.actual as f64 / self.expected as f64
        }
    }
}

/// The complete report of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// The alignment policy's display name.
    pub policy: String,
    /// Simulated span.
    pub duration: SimDuration,
    /// Energy breakdown over the span.
    pub energy: EnergyBreakdown,
    /// Device sleep→awake transitions (physical wakeups; deliveries that
    /// land while the device is still awake from a previous task merge
    /// into one transition).
    pub cpu_wakeups: u64,
    /// Queue-entry (batch) deliveries — every entry delivery is a wakeup
    /// *request* to the RTC, and is what the paper's Table 4 reports in
    /// its CPU row.
    pub entry_deliveries: u64,
    /// Total alarm deliveries (Table 4's CPU "expected" count).
    pub total_deliveries: u64,
    /// Time spent waking or awake.
    pub awake_time: SimDuration,
    /// Per-hardware wakeup breakdown, one row per component that appeared
    /// in the workload, in [`HardwareComponent::ALL`] order.
    pub wakeup_rows: Vec<WakeupRow>,
    /// Normalized delivery delays.
    pub delays: DelayStats,
    /// Fault-injection resilience accounting (all-zero for clean runs).
    pub resilience: ResilienceStats,
    /// Admission/degradation/storm accounting (all-zero for runs without
    /// any of the three attached).
    pub overload: OverloadStats,
    /// The observability layer's metrics snapshot as a JSON object, or
    /// empty when the report was computed outside an engine run (the
    /// engine fills it in
    /// [`Simulation::try_report`](crate::engine::Simulation::try_report)).
    pub metrics_json: String,
}

impl SimReport {
    /// Computes the report for a finished run.
    pub fn compute(policy: &str, duration: SimDuration, trace: &Trace, device: &Device) -> Self {
        let mut wakeup_rows = Vec::new();
        for c in HardwareComponent::ALL {
            let expected = trace
                .deliveries()
                .iter()
                .filter(|d| d.hardware.contains(c))
                .count() as u64;
            let actual = device.activation_count(c);
            if expected > 0 || actual > 0 {
                wakeup_rows.push(WakeupRow {
                    component: c,
                    actual,
                    expected,
                });
            }
        }
        SimReport {
            policy: policy.to_owned(),
            duration,
            energy: device.energy(),
            cpu_wakeups: device.wake_count(),
            entry_deliveries: trace.entry_deliveries(),
            total_deliveries: trace.deliveries().len() as u64,
            awake_time: device.awake_time(),
            wakeup_rows,
            delays: DelayStats::from_trace(trace),
            resilience: ResilienceStats::from_trace(trace),
            overload: OverloadStats::default(),
            metrics_json: String::new(),
        }
    }

    /// Average power over the run (mW).
    pub fn average_power_mw(&self) -> f64 {
        self.energy.average_power_mw(self.duration)
    }

    /// The wakeup row for one component, if it appeared in the workload.
    pub fn wakeup_row(&self, c: HardwareComponent) -> Option<WakeupRow> {
        self.wakeup_rows.iter().copied().find(|r| r.component == c)
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== {} over {} ===", self.policy, self.duration)?;
        writeln!(f, "{}", self.energy)?;
        writeln!(
            f,
            "average power {:.2} mW, awake {:.1}% of the time",
            self.average_power_mw(),
            100.0 * self.awake_time.as_secs_f64() / self.duration.as_secs_f64()
        )?;
        writeln!(
            f,
            "CPU wakeups {}/{} (batch deliveries / alarm deliveries), {} device transitions",
            self.entry_deliveries, self.total_deliveries, self.cpu_wakeups
        )?;
        for row in &self.wakeup_rows {
            writeln!(
                f,
                "{:<14} {}/{} (ratio {:.2})",
                row.component.name(),
                row.actual,
                row.expected,
                row.ratio()
            )?;
        }
        write!(
            f,
            "normalized delay: perceptible {:.4} ({}), imperceptible {:.4} ({})",
            self.delays.perceptible_avg,
            self.delays.perceptible_count,
            self.delays.imperceptible_avg,
            self.delays.imperceptible_count
        )?;
        if !self.resilience.is_quiet() {
            let r = &self.resilience;
            write!(
                f,
                "\nresilience: {} violations ({} window misses), {} interventions \
                 ({} releases, {} retries, {} drops, {} quarantines, {} recoveries, \
                 {} crashes), MTTR {:.0} ms, overhead {:.2} mJ",
                r.invariant_violations,
                r.perceptible_window_misses,
                r.interventions,
                r.forced_releases,
                r.activation_retries,
                r.dropped_fire_retries,
                r.quarantines,
                r.recoveries,
                r.app_crashes,
                r.mean_time_to_recovery_ms,
                r.intervention_overhead_mj
            )?;
            if r.reboots > 0 {
                write!(
                    f,
                    "\nreboots: {} (mean recovery {:.0} ms), caught up {} overdue \
                     entries, worst catch-up delay {:.0} ms",
                    r.reboots, r.mean_recovery_ms, r.catch_up_entries, r.worst_catch_up_delay_ms
                )?;
            }
        }
        if !self.overload.is_quiet() {
            let o = &self.overload;
            write!(
                f,
                "\noverload: {} storm registrations ({} admitted, {} deferred, \
                 {} rejected, {} shed), {} demotions, {} tier changes \
                 (saver {:.0} s, critical {:.0} s, final {}, stretch {:.2}x)",
                o.storm_registrations,
                o.admitted,
                o.deferred,
                o.rejected,
                o.shed,
                o.demotions,
                o.tier_changes,
                o.time_in_saver_ms as f64 / 1_000.0,
                o.time_in_critical_ms as f64 / 1_000.0,
                o.final_tier,
                f64::from(o.grace_stretch_milli) / 1_000.0
            )?;
        }
        Ok(())
    }
}

record!(DelayStats in ':': perceptible_avg, perceptible_max, perceptible_count,
    imperceptible_avg, imperceptible_max, imperceptible_count);
record!(ResilienceStats in ':': invariant_violations, perceptible_window_misses, interventions,
    forced_releases, activation_retries, dropped_fire_retries, quarantines, recoveries,
    app_crashes, app_restarts, mean_time_to_recovery_ms, intervention_overhead_mj, reboots,
    mean_recovery_ms, catch_up_entries, worst_catch_up_delay_ms);
record!(OverloadStats in ':': storm_registrations, admitted, deferred, rejected, shed, demotions,
    tier_changes, time_in_saver_ms, time_in_critical_ms, final_tier, grace_stretch_milli);

/// The `:`-separated accumulators: sleep, transition, awake base, then
/// one per component.
impl Field for EnergyBreakdown {
    fn put(&self, w: &mut Put<'_>) {
        let mut w = w.nested(':');
        w.f(&self.sleep_mj)
            .f(&self.transition_mj)
            .f(&self.awake_base_mj);
        for c in HardwareComponent::ALL {
            w.f(&self.component_mj(c));
        }
    }

    fn take(r: &mut Cursor<'_, '_>) -> Result<Self, CheckpointError> {
        r.within(':', 3 + HardwareComponent::ALL.len(), |r| {
            let (sleep_mj, transition_mj, awake_mj) = r.take()?;
            Ok(EnergyMeter::from_parts(sleep_mj, transition_mj, awake_mj, r.take()?).breakdown())
        })
    }
}

/// `/`-separated `component:actual:expected` rows, each component as
/// its index in [`HardwareComponent::ALL`].
impl Field for Vec<WakeupRow> {
    fn put(&self, w: &mut Put<'_>) {
        let mut rows = w.nested('/');
        for row in self {
            let index = HardwareComponent::ALL
                .iter()
                .position(|c| *c == row.component)
                .expect("component is in ALL");
            rows.nested(':').f(&index).f(&row.actual).f(&row.expected);
        }
    }

    fn take(r: &mut Cursor<'_, '_>) -> Result<Self, CheckpointError> {
        let raw = r.raw()?;
        if raw.is_empty() {
            return Ok(Vec::new());
        }
        let p = r.parser();
        raw.split('/')
            .map(|row| {
                let mut f = p.cut(row, ':', 3)?;
                let index: usize = f.take()?;
                let component = *HardwareComponent::ALL
                    .get(index)
                    .ok_or_else(|| f.err(format!("invalid component index {index}")))?;
                Ok(WakeupRow {
                    component,
                    actual: f.take()?,
                    expected: f.take()?,
                })
            })
            .collect()
    }
}

impl SimReport {
    /// Serializes the report as one line of the shared
    /// [`codec`](crate::codec) dialect — comma-separated `key=value`
    /// fields, `f64`s as exact bit patterns, strings percent-escaped —
    /// for the `simty-campaign/v1` journal. Round-trips every field
    /// that feeds the JSON export bit-for-bit:
    /// `from_record(&r.to_record()) == Some(r)`.
    #[must_use]
    pub fn to_record(&self) -> String {
        let mut out = String::new();
        Put::new(&mut out, ',')
            .named("policy", &self.policy)
            .named("dur", &self.duration)
            .named("energy", &self.energy)
            .named("cw", &self.cpu_wakeups)
            .named("ed", &self.entry_deliveries)
            .named("td", &self.total_deliveries)
            .named("awake", &self.awake_time)
            .named("rows", &self.wakeup_rows)
            .named("delays", &self.delays)
            .named("res", &self.resilience)
            .named("over", &self.overload)
            .named("metrics", &self.metrics_json);
        out
    }

    /// Reverses [`to_record`](Self::to_record). `None` on any malformed
    /// field.
    #[must_use]
    pub fn from_record(record: &str) -> Option<SimReport> {
        Self::parse_record(record).ok()
    }

    fn parse_record(record: &str) -> Result<SimReport, CheckpointError> {
        let mut p = Parser::new(record);
        let mut r = p.cut(record, ',', 12)?;
        Ok(SimReport {
            policy: r.named("policy")?,
            duration: r.named("dur")?,
            energy: r.named("energy")?,
            cpu_wakeups: r.named("cw")?,
            entry_deliveries: r.named("ed")?,
            total_deliveries: r.named("td")?,
            awake_time: r.named("awake")?,
            wakeup_rows: r.named("rows")?,
            delays: r.named("delays")?,
            resilience: r.named("res")?,
            overload: r.named("over")?,
            metrics_json: r.named("metrics")?,
        })
    }
}

/// A report as one field: its [`to_record`](SimReport::to_record) line,
/// escaped.
impl Field for SimReport {
    fn put(&self, w: &mut Put<'_>) {
        w.esc(&self.to_record());
    }

    fn take(r: &mut Cursor<'_, '_>) -> Result<Self, CheckpointError> {
        let record = unesc(r.raw()?);
        SimReport::parse_record(&record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::DeliveryRecord;
    use simty_core::alarm::Alarm;
    use simty_core::hardware::HardwareComponent;
    use simty_core::time::SimTime;
    use simty_device::power::PowerModel;

    fn wifi_record(delivered_s: u64, window_end_offset: f64) -> DeliveryRecord {
        let mut alarm = Alarm::builder("w")
            .nominal(SimTime::from_secs(100))
            .repeating_static(SimDuration::from_secs(100))
            .window_fraction(window_end_offset)
            .grace_fraction(0.96)
            .hardware(HardwareComponent::Wifi.into())
            .build()
            .unwrap();
        alarm.mark_hardware_known();
        DeliveryRecord::observe(&alarm, SimTime::from_secs(delivered_s), 1)
    }

    #[test]
    fn delay_stats_split_by_perceptibility() {
        let mut t = Trace::new();
        // Window [100, 125]; delivered at 150 -> normalized 0.25.
        t.record_delivery(wifi_record(150, 0.25));
        // Delivered in window -> 0.
        t.record_delivery(wifi_record(110, 0.25));
        let mut notify = Alarm::builder("cal")
            .nominal(SimTime::from_secs(100))
            .repeating_static(SimDuration::from_secs(1800))
            .hardware(HardwareComponent::Vibrator.into())
            .build()
            .unwrap();
        notify.mark_hardware_known();
        t.record_delivery(DeliveryRecord::observe(&notify, SimTime::from_secs(100), 1));

        let s = DelayStats::from_trace(&t);
        assert_eq!(s.imperceptible_count, 2);
        assert!((s.imperceptible_avg - 0.125).abs() < 1e-12);
        assert!((s.imperceptible_max - 0.25).abs() < 1e-12);
        assert_eq!(s.perceptible_count, 1);
        assert_eq!(s.perceptible_avg, 0.0);
    }

    #[test]
    fn wakeup_rows_count_expected_per_component() {
        let mut t = Trace::new();
        t.record_delivery(wifi_record(100, 0.25));
        t.record_delivery(wifi_record(200, 0.25));
        let device = Device::new(PowerModel::nexus5());
        let r = SimReport::compute("TEST", SimDuration::from_hours(3), &t, &device);
        let wifi = r.wakeup_row(HardwareComponent::Wifi).unwrap();
        assert_eq!(wifi.expected, 2);
        assert_eq!(wifi.actual, 0); // the idle device never activated it
        assert_eq!(r.total_deliveries, 2);
        assert_eq!(r.wakeup_row(HardwareComponent::Gps), None);
    }

    #[test]
    fn ratio_handles_zero_expected() {
        let row = WakeupRow {
            component: HardwareComponent::Wifi,
            actual: 0,
            expected: 0,
        };
        assert_eq!(row.ratio(), 1.0);
    }

    #[test]
    fn resilience_stats_aggregate_interventions() {
        use crate::trace::{InterventionKind, InterventionRecord};
        let mut t = Trace::new();
        t.record_intervention(InterventionRecord {
            at: SimTime::from_secs(10),
            app: "bug".into(),
            kind: InterventionKind::Quarantine,
            overhead_mj: 0.0,
        });
        t.record_intervention(InterventionRecord {
            at: SimTime::from_secs(70),
            app: "bug".into(),
            kind: InterventionKind::Recovery {
                quarantined_for: SimDuration::from_secs(60),
            },
            overhead_mj: 0.0,
        });
        t.record_intervention(InterventionRecord {
            at: SimTime::from_secs(80),
            app: "flaky".into(),
            kind: InterventionKind::ActivationRetry { attempt: 1 },
            overhead_mj: 2.5,
        });
        let s = ResilienceStats::from_trace(&t);
        assert_eq!(s.interventions, 3);
        assert_eq!(s.quarantines, 1);
        assert_eq!(s.recoveries, 1);
        assert_eq!(s.activation_retries, 1);
        assert!((s.mean_time_to_recovery_ms - 60_000.0).abs() < 1e-9);
        assert!((s.intervention_overhead_mj - 2.5).abs() < 1e-12);
        assert!(!s.is_quiet());
        assert!(ResilienceStats::default().is_quiet());
    }

    #[test]
    fn resilience_stats_aggregate_reboots() {
        use crate::trace::{InterventionKind, InterventionRecord};
        let mut t = Trace::new();
        for (at, outage_s) in [(100u64, 20u64), (500, 40)] {
            t.record_intervention(InterventionRecord {
                at: SimTime::from_secs(at),
                app: "device".into(),
                kind: InterventionKind::Reboot {
                    outage: SimDuration::from_secs(outage_s),
                },
                overhead_mj: 0.0,
            });
            t.record_intervention(InterventionRecord {
                at: SimTime::from_secs(at + outage_s),
                app: "device".into(),
                kind: InterventionKind::BootCatchUp {
                    caught_up: 3,
                    worst_delay: SimDuration::from_secs(outage_s / 2),
                },
                overhead_mj: 0.0,
            });
        }
        let s = ResilienceStats::from_trace(&t);
        assert_eq!(s.reboots, 2);
        assert!((s.mean_recovery_ms - 30_000.0).abs() < 1e-9);
        assert_eq!(s.catch_up_entries, 6);
        assert!((s.worst_catch_up_delay_ms - 20_000.0).abs() < 1e-9);
    }

    #[test]
    fn display_stays_quiet_without_interventions() {
        let t = Trace::new();
        let device = Device::new(PowerModel::nexus5());
        let r = SimReport::compute("SIMTY", SimDuration::from_hours(3), &t, &device);
        assert!(!r.to_string().contains("resilience:"));
    }

    #[test]
    fn overload_stats_quietness_gates_display() {
        let t = Trace::new();
        let device = Device::new(PowerModel::nexus5());
        let mut r = SimReport::compute("SIMTY", SimDuration::from_hours(3), &t, &device);
        assert!(r.overload.is_quiet());
        assert!(!r.to_string().contains("overload:"));
        r.overload.storm_registrations = 12;
        r.overload.rejected = 4;
        r.overload.final_tier = "critical".to_owned();
        r.overload.grace_stretch_milli = 2_500;
        assert!(!r.overload.is_quiet());
        let s = r.to_string();
        assert!(s.contains("overload: 12 storm registrations"));
        assert!(s.contains("final critical, stretch 2.50x"));
    }

    #[test]
    fn display_mentions_policy_and_rows() {
        let t = Trace::new();
        let device = Device::new(PowerModel::nexus5());
        let r = SimReport::compute("SIMTY", SimDuration::from_hours(3), &t, &device);
        let s = r.to_string();
        assert!(s.contains("SIMTY"));
        assert!(s.contains("CPU wakeups"));
    }

    #[test]
    fn record_round_trips_every_field_exactly() {
        use simty_device::energy::EnergyMeter;
        let mut r = SimReport {
            policy: "SIMTY, β=0.5: odd%name".to_owned(),
            duration: SimDuration::from_hours(3),
            energy: EnergyMeter::from_parts(
                1.0 / 3.0,
                0.1 + 0.2, // deliberately not exactly 0.3
                7.25,
                [0.0, 1.5, 1e-300, f64::MAX, 2.0 / 7.0, 0.0, 9.9, 1e300],
            )
            .breakdown(),
            cpu_wakeups: 12_345,
            entry_deliveries: 678,
            total_deliveries: 910,
            awake_time: SimDuration::from_millis(98_765),
            wakeup_rows: vec![
                WakeupRow {
                    component: HardwareComponent::ALL[0],
                    actual: 3,
                    expected: 10,
                },
                WakeupRow {
                    component: HardwareComponent::ALL[5],
                    actual: 0,
                    expected: 2,
                },
            ],
            delays: DelayStats {
                perceptible_avg: 0.123_456_789,
                perceptible_max: 1.0 / 7.0,
                perceptible_count: 11,
                imperceptible_avg: 2.5,
                imperceptible_max: 3.75,
                imperceptible_count: 22,
            },
            resilience: ResilienceStats {
                invariant_violations: 1,
                perceptible_window_misses: 2,
                interventions: 3,
                forced_releases: 4,
                activation_retries: 5,
                dropped_fire_retries: 6,
                quarantines: 7,
                recoveries: 8,
                app_crashes: 9,
                app_restarts: 10,
                mean_time_to_recovery_ms: 1234.5678,
                intervention_overhead_mj: 0.001,
                reboots: 11,
                mean_recovery_ms: 30_000.25,
                catch_up_entries: 12,
                worst_catch_up_delay_ms: 5.5,
            },
            overload: OverloadStats {
                storm_registrations: 100,
                admitted: 90,
                deferred: 5,
                rejected: 3,
                shed: 2,
                demotions: 1,
                tier_changes: 4,
                time_in_saver_ms: 1000,
                time_in_critical_ms: 2000,
                final_tier: "critical, almost:dead".to_owned(),
                grace_stretch_milli: 2500,
            },
            metrics_json: "{\"a\":1,\"b\":[2,3],\"s\":\"x,y:z\\n\"}".to_owned(),
        };
        let back = SimReport::from_record(&r.to_record()).expect("record decodes");
        assert_eq!(back, r);
        // Empty wakeup rows and empty metrics must round-trip too.
        r.wakeup_rows.clear();
        r.metrics_json.clear();
        assert_eq!(SimReport::from_record(&r.to_record()).as_ref(), Some(&r));
        // A computed (default-ish) report as well.
        let t = Trace::new();
        let device = Device::new(PowerModel::nexus5());
        let computed = SimReport::compute("SIMTY", SimDuration::from_hours(3), &t, &device);
        assert_eq!(
            SimReport::from_record(&computed.to_record()),
            Some(computed)
        );
        // Malformed records decode to None, never panic.
        for bad in [
            "",
            "policy=x",
            "garbage",
            "policy=x,dur=9,energy=zz,cw=0,ed=0,td=0,awake=0,rows=,delays=0:0:0:0:0:0,res=,over=,metrics=",
        ] {
            assert_eq!(SimReport::from_record(bad), None, "decoded {bad:?}");
        }
    }

    /// A record an earlier build wrote (a SIMTY run with faults, a
    /// storm and the governor on, with an escaped metrics field) still
    /// decodes, and re-encodes byte for byte: journals written before
    /// a codec change must resume.
    #[test]
    fn an_earlier_builds_record_decodes_and_re_encodes_byte_for_byte() {
        let record: String = [
            "policy=SIMTY,dur=3600000,energy=410538d000000000:40a4500000000000:40d33800000000",
            "00:40d093c000000000:40b5720000000000:0000000000000000:40b8308000000000:4076d0000",
            "0000000:0000000000000000:0000000000000000:0000000000000000,cw=26,ed=23,td=144,aw",
            "ake=123000,rows=0:17:110/1:11:16/3:8:8/4:4:4,delays=0000000000000000:00000000000",
            "00000:0:3fa5d725283af08b:3fdcf678502c20a9:144,res=0:0:32:12:5:2:5:4:1:1:411cd060",
            "00000000:0000000000000000:1:40e3880000000000:0:0000000000000000,over=12:18:1:0:0",
            ":0:2:900000:1140000:critical:2500,metrics={\"sim_wakeups_total\"%3A12%2C\"tier\"%3A\"",
            "saver%3Ax%2Cy%25\"}",
        ]
        .concat();
        let report = SimReport::from_record(&record).expect("the record decodes");
        assert_eq!(report.total_deliveries, 144);
        assert_eq!(report.overload.final_tier, "critical");
        assert_eq!(
            report.metrics_json,
            r#"{"sim_wakeups_total":12,"tier":"saver:x,y%"}"#
        );
        assert_eq!(report.to_record(), record);
    }
}
