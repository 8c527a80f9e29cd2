//! Fast analytic energy estimation — "what would this workload cost?"
//! without running the simulator.
//!
//! For a workload with no alignment (the EXACT baseline), standby energy
//! decomposes in closed form: each alarm fires once per repeating
//! interval at its solo-delivery cost, and the device sleeps the rest of
//! the time. The estimator computes that decomposition, plus a best-case
//! bound under perfect alignment (every component activated only its
//! §4.2 minimum number of times). Real policies land between the two, so
//! the pair brackets any policy's achievable range — useful for sizing a
//! workload before committing to a full sweep.

use simty_core::alarm::Alarm;
use simty_core::bounds::least_component_wakeups;
use simty_core::time::SimDuration;
use simty_device::power::PowerModel;

/// An analytic standby-energy estimate (mJ).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyEstimate {
    /// Sleep-floor energy over the whole span (ignoring awake time —
    /// a slight overestimate that keeps the expression closed-form).
    pub sleep_mj: f64,
    /// Awake-related energy with no alignment at all. An *upper bound* on
    /// the EXACT policy's simulated energy: the closed form charges every
    /// delivery a full solo cost, while the simulator merges deliveries
    /// that land in a shared awake window and lets dynamic alarms drift
    /// to longer effective periods.
    pub unaligned_awake_mj: f64,
    /// Awake-related energy under perfect alignment: per-component
    /// activations at their §4.2 lower bounds, tasks perfectly stacked.
    pub best_case_awake_mj: f64,
}

impl EnergyEstimate {
    /// Unaligned total (sleep + EXACT awake).
    pub fn unaligned_total_mj(&self) -> f64 {
        self.sleep_mj + self.unaligned_awake_mj
    }

    /// Best-case total under perfect alignment.
    pub fn best_case_total_mj(&self) -> f64 {
        self.sleep_mj + self.best_case_awake_mj
    }

    /// The largest total saving any alignment policy could achieve.
    pub fn max_saving(&self) -> f64 {
        1.0 - self.best_case_total_mj() / self.unaligned_total_mj()
    }
}

/// Number of deliveries an alarm makes over `duration` with no alignment
/// (delivered at each nominal time).
fn unaligned_deliveries(alarm: &Alarm, duration: SimDuration) -> u64 {
    match alarm.repeat().interval() {
        None => u64::from(alarm.nominal() <= simty_core::time::SimTime::ZERO + duration),
        Some(interval) => duration.as_millis() / interval.as_millis(),
    }
}

/// Estimates the standby energy envelope of a workload over `duration`.
///
/// # Examples
///
/// ```
/// use simty_core::alarm::Alarm;
/// use simty_core::hardware::HardwareComponent;
/// use simty_core::time::{SimDuration, SimTime};
/// use simty_device::power::PowerModel;
/// use simty_sim::estimate::estimate;
///
/// # fn main() -> Result<(), simty_core::error::BuildAlarmError> {
/// let alarms: Vec<Alarm> = (0..3)
///     .map(|i| {
///         Alarm::builder(format!("sync-{i}"))
///             .nominal(SimTime::from_secs(300 + i * 60))
///             .repeating_static(SimDuration::from_secs(300))
///             .window_fraction(0.75)
///             .hardware(HardwareComponent::Wifi.into())
///             .task_duration(SimDuration::from_secs(3))
///             .build()
///     })
///     .collect::<Result<_, _>>()?;
/// let e = estimate(&alarms, SimDuration::from_hours(3), &PowerModel::nexus5());
/// assert!(e.best_case_awake_mj < e.unaligned_awake_mj);
/// assert!(e.max_saving() > 0.0);
/// # Ok(())
/// # }
/// ```
pub fn estimate(alarms: &[Alarm], duration: SimDuration, model: &PowerModel) -> EnergyEstimate {
    let sleep_mj = model.sleep_power_mw * duration.as_secs_f64();

    // Unaligned: every delivery pays its full solo cost.
    let mut unaligned = 0.0;
    for alarm in alarms {
        let n = unaligned_deliveries(alarm, duration) as f64;
        unaligned += n * model.solo_delivery_energy_mj(alarm.hardware(), alarm.task_duration());
    }

    // Best case: components activate at their lower bounds and stay up
    // only for the longest task that needs them per activation; the CPU
    // wakes at the rate of the most demanding alarm overall.
    let bounds = least_component_wakeups(alarms, duration);
    let mut best = 0.0;
    for (component, activations) in &bounds {
        let profile = model.component(*component);
        let longest_task = alarms
            .iter()
            .filter(|a| a.hardware().contains(*component))
            .map(|a| a.task_duration())
            .max()
            .unwrap_or(SimDuration::ZERO);
        best += *activations as f64
            * (profile.activation_energy_mj + profile.active_power_mw * longest_task.as_secs_f64());
    }
    // CPU: wakeups at the single most demanding alarm's rate, each awake
    // for the longest task + latency + linger.
    let min_wakeups = alarms
        .iter()
        .map(|a| unaligned_deliveries(a, duration))
        .max()
        .unwrap_or(0) as f64;
    let longest_task = alarms
        .iter()
        .map(Alarm::task_duration)
        .max()
        .unwrap_or(SimDuration::ZERO);
    let awake_span = model.wake_latency.as_secs_f64()
        + longest_task.as_secs_f64()
        + model.sleep_linger.as_secs_f64();
    best +=
        min_wakeups * (model.wake_transition_energy_mj + model.awake_base_power_mw * awake_span);

    EnergyEstimate {
        sleep_mj,
        unaligned_awake_mj: unaligned,
        best_case_awake_mj: best,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simty_core::hardware::HardwareComponent;
    use simty_core::time::SimTime;

    fn wifi_alarm(nominal_s: u64, repeat_s: u64) -> Alarm {
        Alarm::builder("w")
            .nominal(SimTime::from_secs(nominal_s))
            .repeating_static(SimDuration::from_secs(repeat_s))
            .window_fraction(0.5)
            .grace_fraction(0.9)
            .hardware(HardwareComponent::Wifi.into())
            .task_duration(SimDuration::from_secs(3))
            .build()
            .unwrap()
    }

    #[test]
    fn single_alarm_unaligned_matches_closed_form() {
        let model = PowerModel::nexus5();
        let alarm = wifi_alarm(600, 600);
        let e = estimate(
            std::slice::from_ref(&alarm),
            SimDuration::from_hours(1),
            &model,
        );
        let per_delivery =
            model.solo_delivery_energy_mj(alarm.hardware(), SimDuration::from_secs(3));
        assert!((e.unaligned_awake_mj - 6.0 * per_delivery).abs() < 1e-9);
        assert!((e.sleep_mj - 50.0 * 3600.0).abs() < 1e-9);
    }

    #[test]
    fn best_case_is_below_unaligned_for_alignable_workloads() {
        let alarms = vec![
            wifi_alarm(300, 300),
            wifi_alarm(400, 300),
            wifi_alarm(500, 300),
        ];
        let e = estimate(&alarms, SimDuration::from_hours(3), &PowerModel::nexus5());
        assert!(e.best_case_awake_mj < e.unaligned_awake_mj);
        assert!(e.max_saving() > 0.0 && e.max_saving() < 1.0);
    }

    #[test]
    fn one_shots_count_once() {
        let one_shot = Alarm::builder("o")
            .nominal(SimTime::from_secs(10))
            .task_duration(SimDuration::ZERO)
            .build()
            .unwrap();
        let e = estimate(
            &[one_shot],
            SimDuration::from_hours(1),
            &PowerModel::nexus5(),
        );
        assert!((e.unaligned_awake_mj - 180.0).abs() < 1e-9);
    }

    #[test]
    fn empty_workload_is_sleep_only() {
        let e = estimate(&[], SimDuration::from_hours(1), &PowerModel::nexus5());
        assert_eq!(e.unaligned_awake_mj, 0.0);
        assert_eq!(e.best_case_awake_mj, 0.0);
        assert!((e.unaligned_total_mj() - e.sleep_mj).abs() < 1e-9);
    }
}
