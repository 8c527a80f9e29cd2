//! Battery model and standby-time projection.
//!
//! The paper's headline claim is that SIMTY's energy savings "prolong the
//! smartphone's standby time by one-fourth to one-third". Standby time is
//! the battery capacity divided by the average standby power, so the
//! projection here turns measured energy into the paper's metric.

use std::fmt;

use simty_core::time::SimDuration;

/// A battery with a fixed usable energy capacity.
///
/// # Examples
///
/// ```
/// use simty_core::time::SimDuration;
/// use simty_device::battery::Battery;
///
/// let battery = Battery::nexus5();
/// // A 12 mW standby draw empties 31.46 kJ in about 30 days.
/// let t = battery.standby_time(12.0);
/// assert!(t > SimDuration::from_hours(24 * 29));
/// assert!(t < SimDuration::from_hours(24 * 32));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Battery {
    capacity_mj: f64,
}

impl Battery {
    /// The paper's testbed battery: 3.8 V, 2 300 mAh ⇒ 31 464 J.
    pub fn nexus5() -> Self {
        Battery::from_voltage_and_charge(3.8, 2_300.0)
    }

    /// A battery with the given usable capacity in millijoules.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_mj` is not positive.
    pub fn with_capacity_mj(capacity_mj: f64) -> Self {
        assert!(capacity_mj > 0.0, "battery capacity must be positive");
        Battery { capacity_mj }
    }

    /// A battery from nominal voltage (V) and charge (mAh).
    pub fn from_voltage_and_charge(volts: f64, milliamp_hours: f64) -> Self {
        // mAh * 3600 = mAs; mAs * V = mJ.
        Battery::with_capacity_mj(milliamp_hours * 3_600.0 * volts)
    }

    /// Usable capacity in millijoules.
    pub fn capacity_mj(&self) -> f64 {
        self.capacity_mj
    }

    /// How long the battery sustains a constant average power draw (mW).
    ///
    /// # Panics
    ///
    /// Panics if `average_power_mw` is not positive.
    pub fn standby_time(&self, average_power_mw: f64) -> SimDuration {
        assert!(average_power_mw > 0.0, "average power must be positive");
        SimDuration::from_millis((self.capacity_mj / average_power_mw * 1_000.0).round() as u64)
    }

    /// The relative standby-time extension achieved by reducing the
    /// average power from `baseline_mw` to `improved_mw` — e.g. `0.25`
    /// means standby lasts 25 % longer (the paper's "one-fourth").
    ///
    /// # Panics
    ///
    /// Panics if either power is not positive.
    pub fn standby_extension(&self, baseline_mw: f64, improved_mw: f64) -> f64 {
        assert!(
            baseline_mw > 0.0 && improved_mw > 0.0,
            "powers must be positive"
        );
        baseline_mw / improved_mw - 1.0
    }
}

impl fmt::Display for Battery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "battery {:.0} J", self.capacity_mj / 1_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nexus5_capacity() {
        let b = Battery::nexus5();
        assert!((b.capacity_mj() - 31_464_000.0).abs() < 1.0);
    }

    #[test]
    fn standby_time_scales_inversely_with_power() {
        let b = Battery::with_capacity_mj(1_000_000.0);
        let t1 = b.standby_time(10.0);
        let t2 = b.standby_time(20.0);
        assert_eq!(t1.as_millis(), 2 * t2.as_millis());
    }

    #[test]
    fn extension_matches_the_paper_arithmetic() {
        // Saving 25 % of total energy (power 100 -> 75) prolongs standby by 1/3.
        let b = Battery::nexus5();
        assert!((b.standby_extension(100.0, 75.0) - 1.0 / 3.0).abs() < 1e-9);
        // Saving 20 % (100 -> 80) prolongs it by 1/4.
        assert!((b.standby_extension(100.0, 80.0) - 0.25).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_power_is_rejected() {
        let _ = Battery::nexus5().standby_time(0.0);
    }
}
