//! Simulation time primitives.
//!
//! The alarm manager and the simulator share a millisecond-resolution
//! monotonic clock. Two newtypes keep instants and durations apart
//! ([`SimTime`] vs [`SimDuration`]), and [`Interval`] models the *closed*
//! time intervals the paper reasons about (window intervals and grace
//! intervals both start at an alarm's nominal delivery time).
//!
//! # Examples
//!
//! ```
//! use simty_core::time::{Interval, SimDuration, SimTime};
//!
//! let window = Interval::new(SimTime::from_secs(60), SimTime::from_secs(105));
//! let grace = Interval::new(SimTime::from_secs(60), SimTime::from_secs(117));
//! assert!(window.overlaps(grace));
//! assert_eq!(window.intersection(grace), Some(window));
//! assert_eq!(window.len(), SimDuration::from_secs(45));
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation clock, in milliseconds since the start of
/// the simulation.
///
/// `SimTime` is totally ordered and supports the arithmetic that makes
/// sense for instants: `SimTime + SimDuration = SimTime`,
/// `SimTime - SimTime = SimDuration`.
///
/// # Examples
///
/// ```
/// use simty_core::time::{SimDuration, SimTime};
///
/// let t = SimTime::from_secs(30) + SimDuration::from_millis(500);
/// assert_eq!(t.as_millis(), 30_500);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The origin of the simulation clock (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant `millis` milliseconds after the simulation origin.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis)
    }

    /// Creates an instant `secs` seconds after the simulation origin.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000)
    }

    /// Milliseconds since the simulation origin.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Seconds since the simulation origin, with millisecond precision.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is actually later than `self`.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Duration elapsed since `earlier`, or `None` if `earlier > self`.
    pub fn checked_since(self, earlier: SimTime) -> Option<SimDuration> {
        self.0.checked_sub(earlier.0).map(SimDuration)
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total_ms = self.0;
        let secs = total_ms / 1_000;
        let ms = total_ms % 1_000;
        if ms == 0 {
            write!(f, "{secs}s")
        } else {
            write!(f, "{secs}.{ms:03}s")
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;

    /// # Panics
    ///
    /// Panics if the subtraction would move before the simulation origin.
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction moved before the simulation origin"),
        )
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    /// # Panics
    ///
    /// Panics if `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] for the lenient variant.
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction with a later right-hand side"),
        )
    }
}

/// A span of simulation time, in milliseconds.
///
/// # Examples
///
/// ```
/// use simty_core::time::SimDuration;
///
/// let repeat = SimDuration::from_secs(200);
/// let window = repeat.mul_f64(0.75);
/// assert_eq!(window, SimDuration::from_secs(150));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis)
    }

    /// Creates a duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000)
    }

    /// Creates a duration of `mins` minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60_000)
    }

    /// Creates a duration of `hours` hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3_600_000)
    }

    /// Length in whole milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Length in seconds, with millisecond precision.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Whether this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Scales the duration by `factor`, rounding to the nearest millisecond.
    ///
    /// This is how the paper derives interval lengths: the window interval is
    /// `alpha` times the repeating interval and the grace interval `beta`
    /// times it.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "duration scale factor must be finite and non-negative, got {factor}"
        );
        SimDuration((self.0 as f64 * factor).round() as u64)
    }

    /// The ratio `self / other` as a float.
    ///
    /// Used to normalize delivery delays by the repeating interval
    /// (the paper's Fig. 4 metric).
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn div_duration_f64(self, other: SimDuration) -> f64 {
        assert!(!other.is_zero(), "division by a zero duration");
        self.0 as f64 / other.0 as f64
    }

    /// Saturating addition.
    pub fn saturating_add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// The larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// The smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let secs = self.0 / 1_000;
        let ms = self.0 % 1_000;
        if ms == 0 {
            write!(f, "{secs}s")
        } else {
            write!(f, "{secs}.{ms:03}s")
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    /// # Panics
    ///
    /// Panics on underflow; use [`SimDuration::saturating_sub`] for the
    /// lenient variant.
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration subtraction underflowed"),
        )
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;

    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;

    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

/// A closed interval `[start, end]` on the simulation clock.
///
/// Window intervals and grace intervals are both closed intervals starting
/// at an alarm's nominal delivery time. A *point* interval (`start == end`)
/// models an alarm registered with `alpha = 0` — exact delivery with no
/// alignment flexibility of its own (it can still be absorbed into another
/// alarm's window that contains the point).
///
/// # Examples
///
/// ```
/// use simty_core::time::{Interval, SimTime};
///
/// let a = Interval::new(SimTime::from_secs(0), SimTime::from_secs(10));
/// let b = Interval::point(SimTime::from_secs(10));
/// assert!(a.overlaps(b));
/// assert_eq!(a.intersection(b), Some(b));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    start: SimTime,
    end: SimTime,
}

impl Interval {
    /// Creates the closed interval `[start, end]`.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub fn new(start: SimTime, end: SimTime) -> Self {
        assert!(end >= start, "interval end {end} precedes start {start}");
        Interval { start, end }
    }

    /// Creates the degenerate interval `[t, t]`.
    pub fn point(t: SimTime) -> Self {
        Interval { start: t, end: t }
    }

    /// Creates `[start, start + len]`.
    pub fn starting_at(start: SimTime, len: SimDuration) -> Self {
        Interval {
            start,
            end: start + len,
        }
    }

    /// The inclusive lower bound.
    pub fn start(self) -> SimTime {
        self.start
    }

    /// The inclusive upper bound.
    pub fn end(self) -> SimTime {
        self.end
    }

    /// The interval's length (`end - start`).
    pub fn len(self) -> SimDuration {
        self.end - self.start
    }

    /// Whether the interval is a single point.
    pub fn is_point(self) -> bool {
        self.start == self.end
    }

    /// Whether `t` lies inside the closed interval.
    pub fn contains(self, t: SimTime) -> bool {
        self.start <= t && t <= self.end
    }

    /// Whether two closed intervals share at least one point.
    ///
    /// This is the paper's notion of "overlap" for both window and grace
    /// intervals; touching endpoints count.
    pub fn overlaps(self, other: Interval) -> bool {
        self.start <= other.end && other.start <= self.end
    }

    /// The common sub-interval, or `None` if the intervals are disjoint.
    ///
    /// Queue entries maintain their window/grace attributes as the running
    /// intersection of their members' intervals (§3.2.1).
    pub fn intersection(self, other: Interval) -> Option<Interval> {
        if self.overlaps(other) {
            Some(Interval {
                start: self.start.max(other.start),
                end: self.end.min(other.end),
            })
        } else {
            None
        }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_arithmetic_roundtrips() {
        let t = SimTime::from_secs(10) + SimDuration::from_millis(250);
        assert_eq!(t.as_millis(), 10_250);
        assert_eq!(t - SimTime::from_secs(10), SimDuration::from_millis(250));
        assert_eq!(t - SimDuration::from_millis(250), SimTime::from_secs(10));
    }

    #[test]
    fn simtime_saturating_since_clamps() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(2);
        assert_eq!(late.saturating_since(early), SimDuration::from_secs(1));
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(early.checked_since(late), None);
    }

    #[test]
    #[should_panic(expected = "later right-hand side")]
    fn simtime_sub_panics_on_underflow() {
        let _ = SimTime::from_secs(1) - SimTime::from_secs(2);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(60), SimDuration::from_mins(1));
        assert_eq!(SimDuration::from_mins(60), SimDuration::from_hours(1));
        assert_eq!(SimDuration::from_hours(3).as_millis(), 10_800_000);
    }

    #[test]
    fn duration_mul_f64_rounds_to_millisecond() {
        // alpha = 0.75 of a 200 s repeating interval -> 150 s window.
        let repeat = SimDuration::from_secs(200);
        assert_eq!(repeat.mul_f64(0.75), SimDuration::from_secs(150));
        // Rounding, not truncation.
        assert_eq!(
            SimDuration::from_millis(3).mul_f64(0.5),
            SimDuration::from_millis(2)
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn duration_mul_f64_rejects_negative() {
        let _ = SimDuration::from_secs(1).mul_f64(-0.5);
    }

    #[test]
    fn duration_ratio() {
        let delay = SimDuration::from_secs(18);
        let repeat = SimDuration::from_secs(100);
        assert!((delay.div_duration_f64(repeat) - 0.18).abs() < 1e-12);
    }

    #[test]
    fn duration_sum_over_iterator() {
        let total: SimDuration = (1..=4).map(SimDuration::from_secs).sum();
        assert_eq!(total, SimDuration::from_secs(10));
    }

    #[test]
    fn interval_overlap_is_symmetric_and_closed() {
        let a = Interval::new(SimTime::from_secs(0), SimTime::from_secs(10));
        let b = Interval::new(SimTime::from_secs(10), SimTime::from_secs(20));
        let c = Interval::new(SimTime::from_secs(11), SimTime::from_secs(20));
        assert!(a.overlaps(b) && b.overlaps(a));
        assert!(!a.overlaps(c) && !c.overlaps(a));
    }

    #[test]
    fn interval_intersection_matches_overlap() {
        let a = Interval::new(SimTime::from_secs(0), SimTime::from_secs(10));
        let b = Interval::new(SimTime::from_secs(5), SimTime::from_secs(20));
        let i = a.intersection(b).unwrap();
        assert_eq!(
            i,
            Interval::new(SimTime::from_secs(5), SimTime::from_secs(10))
        );
        let c = Interval::point(SimTime::from_secs(30));
        assert_eq!(a.intersection(c), None);
    }

    #[test]
    fn point_interval_models_alpha_zero() {
        // An alpha = 0 alarm has a point window; it overlaps a window that
        // contains its nominal time, and nothing else.
        let exact = Interval::point(SimTime::from_secs(60));
        let wide = Interval::new(SimTime::from_secs(50), SimTime::from_secs(70));
        let disjoint = Interval::new(SimTime::from_secs(61), SimTime::from_secs(70));
        assert!(exact.overlaps(wide));
        assert!(!exact.overlaps(disjoint));
        assert!(exact.is_point());
        assert_eq!(exact.len(), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "precedes start")]
    fn interval_rejects_reversed_bounds() {
        let _ = Interval::new(SimTime::from_secs(2), SimTime::from_secs(1));
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_millis(1_500).to_string(), "1.500s");
        assert_eq!(SimDuration::from_secs(3).to_string(), "3s");
        let iv = Interval::new(SimTime::ZERO, SimTime::from_secs(1));
        assert_eq!(iv.to_string(), "[0s, 1s]");
    }
}
