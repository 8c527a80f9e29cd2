//! Analytic delivery-interval bounds (§3.2.2).
//!
//! For a repeating alarm whose flexibility interval (window under NATIVE,
//! grace under SIMTY for imperceptible alarms) is `flex` times its
//! repeating interval, the paper proves:
//!
//! * the **maximum** gap between adjacent deliveries is `(1 + flex)` times
//!   the repeating interval, for both static and dynamic alarms;
//! * the **minimum** gap is `(1 − flex)` times the repeating interval for
//!   static alarms and exactly one repeating interval for dynamic alarms.
//!
//! Together these guarantee that every imperceptible alarm "will be
//! delivered once and only once in every specified repeating interval".
//! The property-based integration tests check measured delivery traces
//! against these bounds.

use std::collections::BTreeMap;

use crate::alarm::{Alarm, Repeat};
use crate::hardware::HardwareComponent;
use crate::time::SimDuration;

/// The guaranteed envelope on gaps between adjacent deliveries of a
/// repeating alarm.
///
/// # Examples
///
/// ```
/// use simty_core::alarm::Repeat;
/// use simty_core::bounds::DeliveryBounds;
/// use simty_core::time::SimDuration;
///
/// // A static 100 s alarm under SIMTY with β = 0.96.
/// let b = DeliveryBounds::new(Repeat::Static(SimDuration::from_secs(100)), 0.96).unwrap();
/// assert_eq!(b.max_gap, SimDuration::from_secs(196));
/// assert_eq!(b.min_gap, SimDuration::from_secs(4));
///
/// // Dynamic alarms can never fire early: min gap is the full interval.
/// let d = DeliveryBounds::new(Repeat::Dynamic(SimDuration::from_secs(100)), 0.96).unwrap();
/// assert_eq!(d.min_gap, SimDuration::from_secs(100));
/// assert_eq!(d.max_gap, SimDuration::from_secs(196));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryBounds {
    /// Largest guaranteed gap between adjacent deliveries.
    pub max_gap: SimDuration,
    /// Smallest guaranteed gap between adjacent deliveries.
    pub min_gap: SimDuration,
}

impl DeliveryBounds {
    /// Computes the bounds for a repetition mode and a flexibility
    /// fraction (α under NATIVE, β under SIMTY). Returns `None` for
    /// one-shot alarms, which have no adjacent deliveries.
    ///
    /// # Panics
    ///
    /// Panics if `flex` is outside `[0, 1)` — the §3.1.2 constraint
    /// `0 ≤ α ≤ β < 1`.
    pub fn new(repeat: Repeat, flex: f64) -> Option<DeliveryBounds> {
        assert!(
            (0.0..1.0).contains(&flex),
            "flexibility fraction {flex} outside [0, 1)"
        );
        let interval = repeat.interval()?;
        let max_gap = interval.mul_f64(1.0 + flex);
        let min_gap = match repeat {
            Repeat::OneShot => unreachable!("interval() returned Some"),
            Repeat::Static(_) => interval.mul_f64(1.0 - flex),
            Repeat::Dynamic(_) => interval,
        };
        Some(DeliveryBounds { max_gap, min_gap })
    }

    /// Bounds for an alarm under SIMTY, using its grace fraction β.
    /// Returns `None` for one-shot alarms.
    pub fn for_alarm_under_simty(alarm: &Alarm) -> Option<DeliveryBounds> {
        DeliveryBounds::new(alarm.repeat(), alarm.beta()?)
    }

    /// Bounds for an alarm under NATIVE, using its window fraction α.
    /// Returns `None` for one-shot alarms.
    pub fn for_alarm_under_native(alarm: &Alarm) -> Option<DeliveryBounds> {
        DeliveryBounds::new(alarm.repeat(), alarm.alpha()?)
    }

    /// Whether a measured gap lies within the envelope, with a slack term
    /// for mechanisms outside the policy's control (e.g. the device's
    /// wake-from-sleep latency delaying deliveries).
    pub fn admits(&self, gap: SimDuration, slack: SimDuration) -> bool {
        gap + slack >= self.min_gap && gap <= self.max_gap + slack
    }
}

/// The least number of times each hardware component must be activated
/// over `duration`, no matter how well a policy aligns — the paper's §4.2
/// argument for why SIMTY's Table 4 numbers are near-optimal.
///
/// Adjacent deliveries of the *same* repeating alarm can never share a
/// wakeup (its grace interval is shorter than its repeating interval), so
/// a component's activations are bounded below by the delivery count of
/// its most demanding alarm: `duration / interval` for a static alarm,
/// `duration / ((1 + β) · interval)` for a dynamic one (whose deliveries
/// can each be postponed by up to a grace interval).
///
/// Components no alarm wakelocks are absent from the map.
///
/// # Examples
///
/// ```
/// use simty_core::alarm::Alarm;
/// use simty_core::bounds::least_component_wakeups;
/// use simty_core::hardware::HardwareComponent;
/// use simty_core::time::{SimDuration, SimTime};
///
/// # fn main() -> Result<(), simty_core::error::BuildAlarmError> {
/// let tracker = Alarm::builder("tracker")
///     .nominal(SimTime::from_secs(180))
///     .repeating_static(SimDuration::from_secs(180))
///     .window_fraction(0.75)
///     .grace_fraction(0.96)
///     .hardware(HardwareComponent::Wps.into())
///     .build()?;
/// let bounds = least_component_wakeups(&[tracker], SimDuration::from_hours(3));
/// // The paper's example: 10 800 s / 180 s = 60 WPS wakeups at minimum.
/// assert_eq!(bounds[&HardwareComponent::Wps], 60);
/// # Ok(())
/// # }
/// ```
pub fn least_component_wakeups(
    alarms: &[Alarm],
    duration: SimDuration,
) -> BTreeMap<HardwareComponent, u64> {
    let mut bounds: BTreeMap<HardwareComponent, u64> = BTreeMap::new();
    for alarm in alarms {
        let Some(interval) = alarm.repeat().interval() else {
            continue; // one-shot: contributes at most one, ignore
        };
        let min_deliveries = match alarm.repeat() {
            Repeat::OneShot => unreachable!("interval() returned Some"),
            Repeat::Static(_) => duration.as_millis() / interval.as_millis(),
            Repeat::Dynamic(_) => {
                let beta = alarm.beta().unwrap_or(0.0);
                let stretched = interval.mul_f64(1.0 + beta);
                duration.as_millis() / stretched.as_millis().max(1)
            }
        };
        for c in alarm.hardware() {
            let entry = bounds.entry(c).or_insert(0);
            *entry = (*entry).max(min_deliveries);
        }
    }
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hardware::HardwareComponent;
    use crate::time::SimTime;

    #[test]
    fn one_shot_has_no_bounds() {
        assert_eq!(DeliveryBounds::new(Repeat::OneShot, 0.5), None);
    }

    #[test]
    fn native_bounds_use_alpha() {
        // §3.2.2: under NATIVE the max interval is (1 + α)·ReIn and the
        // min is (1 − α)·ReIn (static) or 1·ReIn (dynamic).
        let a = Alarm::builder("s")
            .nominal(SimTime::ZERO)
            .repeating_static(SimDuration::from_secs(200))
            .window_fraction(0.75)
            .grace_fraction(0.96)
            .build()
            .unwrap();
        let b = DeliveryBounds::for_alarm_under_native(&a).unwrap();
        assert_eq!(b.max_gap, SimDuration::from_secs(350));
        assert_eq!(b.min_gap, SimDuration::from_secs(50));
        let s = DeliveryBounds::for_alarm_under_simty(&a).unwrap();
        assert_eq!(s.max_gap, SimDuration::from_secs(392));
        assert_eq!(s.min_gap, SimDuration::from_secs(8));
    }

    #[test]
    fn dynamic_min_gap_is_the_full_interval() {
        let d = DeliveryBounds::new(Repeat::Dynamic(SimDuration::from_secs(60)), 0.75).unwrap();
        assert_eq!(d.min_gap, SimDuration::from_secs(60));
        assert_eq!(d.max_gap, SimDuration::from_secs(105));
    }

    #[test]
    fn admits_with_slack() {
        let b = DeliveryBounds::new(Repeat::Static(SimDuration::from_secs(100)), 0.5).unwrap();
        // Envelope [50, 150]; slack 2 s admits [48, 152].
        let s = SimDuration::from_secs;
        assert!(b.admits(s(50), SimDuration::ZERO));
        assert!(b.admits(s(150), SimDuration::ZERO));
        assert!(!b.admits(s(151), SimDuration::ZERO));
        assert!(b.admits(s(151), s(2)));
        assert!(!b.admits(s(47), s(2)));
        assert!(b.admits(s(48), s(2)));
    }

    #[test]
    #[should_panic(expected = "outside [0, 1)")]
    fn rejects_flex_of_one() {
        let _ = DeliveryBounds::new(Repeat::Static(SimDuration::from_secs(1)), 1.0);
    }

    fn alarm_for_bounds(hw: HardwareComponent, interval_s: u64, dynamic: bool, beta: f64) -> Alarm {
        let b = Alarm::builder("lb")
            .nominal(SimTime::from_secs(interval_s))
            .window_fraction(0.0)
            .grace_fraction(beta)
            .hardware(hw.into());
        if dynamic {
            b.repeating_dynamic(SimDuration::from_secs(interval_s))
        } else {
            b.repeating_static(SimDuration::from_secs(interval_s))
        }
        .build()
        .unwrap()
    }

    #[test]
    fn least_wakeups_uses_the_most_demanding_static_alarm() {
        // §4.2: accelerometer bound = 10 800 / 60 = 180 even though a
        // slower accelerometer alarm coexists.
        let alarms = vec![
            alarm_for_bounds(HardwareComponent::Accelerometer, 60, false, 0.96),
            alarm_for_bounds(HardwareComponent::Accelerometer, 90, false, 0.96),
            alarm_for_bounds(HardwareComponent::Wps, 180, false, 0.96),
        ];
        let bounds = least_component_wakeups(&alarms, SimDuration::from_hours(3));
        assert_eq!(bounds[&HardwareComponent::Accelerometer], 180);
        assert_eq!(bounds[&HardwareComponent::Wps], 60);
        assert!(!bounds.contains_key(&HardwareComponent::Wifi));
    }

    #[test]
    fn dynamic_alarms_give_a_weaker_bound() {
        // A 60 s dynamic alarm with β = 0.96 can be postponed to an
        // effective ~117.6 s period: bound 10 800 / 117.6 = 91.
        let alarms = vec![alarm_for_bounds(HardwareComponent::Wifi, 60, true, 0.96)];
        let bounds = least_component_wakeups(&alarms, SimDuration::from_hours(3));
        assert_eq!(bounds[&HardwareComponent::Wifi], 91);
    }

    #[test]
    fn one_shots_do_not_contribute() {
        let one_shot = Alarm::builder("o")
            .nominal(SimTime::from_secs(5))
            .hardware(HardwareComponent::Gps.into())
            .build()
            .unwrap();
        let bounds = least_component_wakeups(&[one_shot], SimDuration::from_hours(1));
        assert!(bounds.is_empty());
    }
}
