//! Alarm similarity metrics (§3.1) and entry preferability (Table 1).
//!
//! Two metrics govern SIMTY's alignment decisions:
//!
//! * [`HardwareSimilarity`] reflects the *degree of energy savings* obtained
//!   by aligning two alarms: *high* when their wakelocked hardware sets are
//!   identical and non-empty, *medium* when the sets are non-empty and
//!   partially identical, *low* otherwise.
//! * [`TimeSimilarity`] reflects the *impact on user experience*: *high*
//!   when window intervals overlap, *medium* when only the grace intervals
//!   overlap, *low* otherwise.
//!
//! [`Preferability`] combines the two per the paper's Table 1: applicable
//! entries are ranked 1 (best) through 6, and inapplicable ones are `∞`.
//!
//! # Examples
//!
//! ```
//! use simty_core::hardware::{HardwareComponent, HardwareSet};
//! use simty_core::similarity::{hardware_similarity, HardwareSimilarity};
//!
//! let wifi = HardwareSet::single(HardwareComponent::Wifi);
//! let wps = HardwareComponent::Wifi | HardwareComponent::Cellular;
//! assert_eq!(hardware_similarity(wifi, wifi), HardwareSimilarity::High);
//! assert_eq!(hardware_similarity(wifi, wps), HardwareSimilarity::Medium);
//! assert_eq!(hardware_similarity(wifi, HardwareSet::empty()), HardwareSimilarity::Low);
//! ```

use std::cmp::Ordering;
use std::fmt;

use crate::hardware::{HardwareComponent, HardwareSet};
use crate::time::Interval;

/// Three-level hardware similarity between two wakelocked hardware sets
/// (§3.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HardwareSimilarity {
    /// The sets are completely identical and not empty: aligning nearly
    /// halves the two alarms' energy.
    High,
    /// Both sets are non-empty and partially identical: energy is partially
    /// reduced.
    Medium,
    /// Mutually exclusive or empty sets: only the bare wakeup energy is
    /// saved.
    Low,
}

impl HardwareSimilarity {
    /// Rank within Table 1's columns: 0 = high, 1 = medium, 2 = low.
    pub fn rank(self) -> u8 {
        match self {
            HardwareSimilarity::High => 0,
            HardwareSimilarity::Medium => 1,
            HardwareSimilarity::Low => 2,
        }
    }
}

impl fmt::Display for HardwareSimilarity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            HardwareSimilarity::High => "high",
            HardwareSimilarity::Medium => "medium",
            HardwareSimilarity::Low => "low",
        })
    }
}

/// Classifies the hardware similarity between two hardware sets using the
/// paper's canonical three-level scheme (§3.1.1).
pub fn hardware_similarity(a: HardwareSet, b: HardwareSet) -> HardwareSimilarity {
    if a == b && !a.is_empty() {
        HardwareSimilarity::High
    } else if !a.is_empty() && !b.is_empty() && !a.intersection(b).is_empty() {
        HardwareSimilarity::Medium
    } else {
        HardwareSimilarity::Low
    }
}

/// Alternative hardware-similarity granularities sketched in §3.1.1.
///
/// The paper argues for three levels but notes that a two-level distinction
/// (share any component or not) and a four-level distinction (medium split
/// by whether the shared components are energy hungry) are also sensible.
/// All three are implemented so the design choice can be ablated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum HardwareGranularity {
    /// Share at least one identical component (rank 0) or not (rank 1).
    Two,
    /// The canonical high / medium / low scheme.
    #[default]
    Three,
    /// High / medium-hungry / medium-modest / low, where *medium-hungry*
    /// means the shared components include at least one energy-hungry one.
    Four,
}

/// Components the four-level scheme treats as energy hungry on the
/// Nexus 5 class of device: radios, positioning, and the screen.
const ENERGY_HUNGRY: [HardwareComponent; 5] = [
    HardwareComponent::Wifi,
    HardwareComponent::Cellular,
    HardwareComponent::Gps,
    HardwareComponent::Wps,
    HardwareComponent::Screen,
];

impl HardwareGranularity {
    /// Number of similarity levels (= exclusive upper bound of
    /// [`rank`](Self::rank)).
    pub fn levels(self) -> u8 {
        match self {
            HardwareGranularity::Two => 2,
            HardwareGranularity::Three => 3,
            HardwareGranularity::Four => 4,
        }
    }

    /// Ranks the similarity between two hardware sets; lower is more
    /// similar. [`Four`](Self::Four) counts the radios, positioning and
    /// the screen as energy hungry.
    pub fn rank(self, a: HardwareSet, b: HardwareSet) -> u8 {
        let shared = a.intersection(b);
        match self {
            HardwareGranularity::Two => u8::from(shared.is_empty()),
            HardwareGranularity::Three => hardware_similarity(a, b).rank(),
            HardwareGranularity::Four => match hardware_similarity(a, b) {
                HardwareSimilarity::High => 0,
                HardwareSimilarity::Medium => {
                    if ENERGY_HUNGRY.iter().any(|&c| shared.contains(c)) {
                        1
                    } else {
                        2
                    }
                }
                HardwareSimilarity::Low => 3,
            },
        }
    }
}

impl fmt::Display for HardwareGranularity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            HardwareGranularity::Two => "2-level",
            HardwareGranularity::Three => "3-level",
            HardwareGranularity::Four => "4-level",
        })
    }
}

/// Three-level time similarity between an alarm and a queue entry (§3.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TimeSimilarity {
    /// The window intervals overlap: the pair can be delivered together
    /// without exceeding either window.
    High,
    /// The grace intervals overlap but the window intervals do not:
    /// delivering together postpones at least one alarm beyond its window
    /// (tolerable only for imperceptible alarms).
    Medium,
    /// Not even the grace intervals overlap.
    Low,
}

impl TimeSimilarity {
    /// Rank within Table 1's rows: 0 = high, 1 = medium, 2 = low.
    pub fn rank(self) -> u8 {
        match self {
            TimeSimilarity::High => 0,
            TimeSimilarity::Medium => 1,
            TimeSimilarity::Low => 2,
        }
    }
}

impl fmt::Display for TimeSimilarity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TimeSimilarity::High => "high",
            TimeSimilarity::Medium => "medium",
            TimeSimilarity::Low => "low",
        })
    }
}

/// Classifies time similarity from window and grace intervals.
///
/// The entry-side window may be `None`: an entry formed by grace-only
/// alignment can have an empty window intersection, in which case no alarm
/// can reach *high* time similarity with it.
pub fn time_similarity(
    alarm_window: Interval,
    alarm_grace: Interval,
    entry_window: Option<Interval>,
    entry_grace: Interval,
) -> TimeSimilarity {
    if entry_window.is_some_and(|w| w.overlaps(alarm_window)) {
        TimeSimilarity::High
    } else if entry_grace.overlaps(alarm_grace) {
        TimeSimilarity::Medium
    } else {
        TimeSimilarity::Low
    }
}

/// The applicability/preferability of a queue entry for a new alarm,
/// per the paper's Table 1.
///
/// | time \ hw | high | medium | low |
/// |-----------|------|--------|-----|
/// | high      | 1    | 3      | 5   |
/// | medium    | 2    | 4      | 6   |
/// | low       | ∞    | ∞      | ∞   |
///
/// Lower ranks are preferred; [`Preferability::NotApplicable`] (`∞`) means
/// the entry cannot host the alarm. The ordering implements "prefer higher
/// hardware similarity, then higher time similarity".
///
/// # Examples
///
/// ```
/// use simty_core::similarity::{HardwareSimilarity, Preferability, TimeSimilarity};
///
/// let best = Preferability::from_similarities(HardwareSimilarity::High, TimeSimilarity::High);
/// let worst = Preferability::from_similarities(HardwareSimilarity::Low, TimeSimilarity::Medium);
/// assert_eq!(best, Preferability::Rank(1));
/// assert_eq!(worst, Preferability::Rank(6));
/// assert!(best < worst);
/// assert!(worst < Preferability::NotApplicable);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Preferability {
    /// Applicable, with Table 1 rank `1..=6` (1 is most preferable).
    Rank(u8),
    /// `∞` — the entry is not applicable (low time similarity).
    NotApplicable,
}

impl Preferability {
    /// Computes the Table 1 cell for a hardware/time similarity pair.
    pub fn from_similarities(hw: HardwareSimilarity, time: TimeSimilarity) -> Preferability {
        match time {
            TimeSimilarity::Low => Preferability::NotApplicable,
            _ => Preferability::Rank(hw.rank() * 2 + time.rank() + 1),
        }
    }

    /// Generalization of Table 1 to an arbitrary hardware-similarity
    /// granularity: rank = `hw_rank * 2 + time_rank + 1`, so hardware
    /// similarity still dominates and time similarity breaks ties.
    ///
    /// Returns [`Preferability::NotApplicable`] when time similarity is low.
    pub fn from_ranks(hw_rank: u8, time: TimeSimilarity) -> Preferability {
        match time {
            TimeSimilarity::Low => Preferability::NotApplicable,
            _ => Preferability::Rank(hw_rank * 2 + time.rank() + 1),
        }
    }

    /// Whether the entry is applicable at all.
    pub fn is_applicable(self) -> bool {
        matches!(self, Preferability::Rank(_))
    }
}

impl PartialOrd for Preferability {
    fn partial_cmp(&self, other: &Preferability) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Preferability {
    fn cmp(&self, other: &Preferability) -> Ordering {
        match (self, other) {
            (Preferability::Rank(a), Preferability::Rank(b)) => a.cmp(b),
            (Preferability::Rank(_), Preferability::NotApplicable) => Ordering::Less,
            (Preferability::NotApplicable, Preferability::Rank(_)) => Ordering::Greater,
            (Preferability::NotApplicable, Preferability::NotApplicable) => Ordering::Equal,
        }
    }
}

impl fmt::Display for Preferability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Preferability::Rank(r) => write!(f, "{r}"),
            Preferability::NotApplicable => f.write_str("∞"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn iv(start: u64, end: u64) -> Interval {
        Interval::new(SimTime::from_secs(start), SimTime::from_secs(end))
    }

    #[test]
    fn hardware_similarity_three_levels() {
        let wifi = HardwareSet::single(HardwareComponent::Wifi);
        let wps = HardwareComponent::Wifi | HardwareComponent::Cellular;
        let accel = HardwareSet::single(HardwareComponent::Accelerometer);
        let empty = HardwareSet::empty();

        assert_eq!(hardware_similarity(wps, wps), HardwareSimilarity::High);
        assert_eq!(hardware_similarity(wifi, wps), HardwareSimilarity::Medium);
        assert_eq!(hardware_similarity(wps, wifi), HardwareSimilarity::Medium);
        // Mutually exclusive sets: low.
        assert_eq!(hardware_similarity(wifi, accel), HardwareSimilarity::Low);
        // Any empty set: low — even two identical empty sets (§3.1.1 requires
        // "completely identical AND not empty" for high).
        assert_eq!(hardware_similarity(empty, empty), HardwareSimilarity::Low);
        assert_eq!(hardware_similarity(wifi, empty), HardwareSimilarity::Low);
    }

    #[test]
    fn hardware_similarity_is_symmetric() {
        let sets = [
            HardwareSet::empty(),
            HardwareSet::single(HardwareComponent::Wifi),
            HardwareComponent::Wifi | HardwareComponent::Cellular,
            HardwareSet::single(HardwareComponent::Vibrator),
        ];
        for a in sets {
            for b in sets {
                assert_eq!(hardware_similarity(a, b), hardware_similarity(b, a));
            }
        }
    }

    #[test]
    fn two_level_granularity() {
        let wifi = HardwareSet::single(HardwareComponent::Wifi);
        let wps = HardwareComponent::Wifi | HardwareComponent::Cellular;
        let accel = HardwareSet::single(HardwareComponent::Accelerometer);
        let g = HardwareGranularity::Two;
        assert_eq!(g.rank(wifi, wps), 0);
        assert_eq!(g.rank(wifi, accel), 1);
        assert_eq!(g.levels(), 2);
    }

    #[test]
    fn four_level_granularity_splits_medium_by_hunger() {
        let g = HardwareGranularity::Four;
        let wifi_acc = HardwareComponent::Wifi | HardwareComponent::Accelerometer;
        let wifi_spk = HardwareComponent::Wifi | HardwareComponent::Speaker;
        let acc_spk = HardwareComponent::Accelerometer | HardwareComponent::Speaker;
        let acc = HardwareSet::single(HardwareComponent::Accelerometer);
        // Shared component is Wi-Fi (hungry) -> rank 1.
        assert_eq!(g.rank(wifi_acc, wifi_spk), 1);
        // Shared component is the accelerometer (modest) -> rank 2.
        assert_eq!(g.rank(acc_spk, acc), 2);
        // Identical non-empty -> 0; disjoint -> 3.
        assert_eq!(g.rank(acc, acc), 0);
        assert_eq!(g.rank(acc, HardwareSet::single(HardwareComponent::Wifi)), 3);
    }

    #[test]
    fn three_level_granularity_matches_canonical() {
        let g = HardwareGranularity::Three;
        let wifi = HardwareSet::single(HardwareComponent::Wifi);
        let wps = HardwareComponent::Wifi | HardwareComponent::Cellular;
        assert_eq!(g.rank(wifi, wifi), 0);
        assert_eq!(g.rank(wifi, wps), 1);
        assert_eq!(g.rank(wifi, HardwareSet::empty()), 2);
    }

    #[test]
    fn time_similarity_levels() {
        // Windows overlap -> high.
        assert_eq!(
            time_similarity(iv(0, 10), iv(0, 50), Some(iv(5, 20)), iv(5, 60)),
            TimeSimilarity::High
        );
        // Only graces overlap -> medium.
        assert_eq!(
            time_similarity(iv(0, 10), iv(0, 50), Some(iv(20, 30)), iv(20, 60)),
            TimeSimilarity::Medium
        );
        // Nothing overlaps -> low.
        assert_eq!(
            time_similarity(iv(0, 10), iv(0, 20), Some(iv(30, 40)), iv(30, 50)),
            TimeSimilarity::Low
        );
        // Entry window empty: high is impossible.
        assert_eq!(
            time_similarity(iv(0, 10), iv(0, 50), None, iv(5, 60)),
            TimeSimilarity::Medium
        );
    }

    #[test]
    fn preferability_matches_table_1() {
        use HardwareSimilarity as H;
        use TimeSimilarity as T;
        let cell = |h, t| Preferability::from_similarities(h, t);
        assert_eq!(cell(H::High, T::High), Preferability::Rank(1));
        assert_eq!(cell(H::High, T::Medium), Preferability::Rank(2));
        assert_eq!(cell(H::Medium, T::High), Preferability::Rank(3));
        assert_eq!(cell(H::Medium, T::Medium), Preferability::Rank(4));
        assert_eq!(cell(H::Low, T::High), Preferability::Rank(5));
        assert_eq!(cell(H::Low, T::Medium), Preferability::Rank(6));
        for h in [H::High, H::Medium, H::Low] {
            assert_eq!(cell(h, T::Low), Preferability::NotApplicable);
        }
    }

    #[test]
    fn preferability_ordering_prefers_hardware_then_time() {
        let ranks: Vec<Preferability> = (1..=6).map(Preferability::Rank).collect();
        for w in ranks.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert!(Preferability::Rank(6) < Preferability::NotApplicable);
        assert_eq!(
            Preferability::NotApplicable.cmp(&Preferability::NotApplicable),
            Ordering::Equal
        );
    }

    #[test]
    fn preferability_display() {
        assert_eq!(Preferability::Rank(3).to_string(), "3");
        assert_eq!(Preferability::NotApplicable.to_string(), "∞");
    }
}
