//! Hardware components and wakelockable hardware sets.
//!
//! Only components that alarms can *autonomously wakelock* participate in
//! similarity determination (§3.1.1) — the CPU and memory are essential
//! whenever the device is awake and are therefore excluded from
//! [`HardwareSet`]. The user-perceptible components (screen, speaker,
//! vibrator) determine whether an alarm is perceptible (§3.1.2).
//!
//! # Examples
//!
//! ```
//! use simty_core::hardware::{HardwareComponent, HardwareSet};
//!
//! let wps = HardwareSet::from_iter([HardwareComponent::Wifi, HardwareComponent::Cellular]);
//! let notify = HardwareComponent::Speaker | HardwareComponent::Vibrator;
//! assert!(!wps.is_perceptible());
//! assert!(notify.is_perceptible());
//! assert!(wps.intersection(notify).is_empty());
//! ```

use std::fmt;
use std::ops::{BitAnd, BitOr, BitOrAssign};

/// A hardware component that an alarm's task can wakelock.
///
/// Mirrors the components of the paper's LG Nexus 5 testbed (Table 2) that
/// appear in the Table 3 workload: Wi-Fi, the WPS positioning pipeline
/// (Wi-Fi + cellular scanning), the accelerometer, and the perceptible
/// speaker / vibrator / screen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u16)]
pub enum HardwareComponent {
    /// 802.11 WLAN radio.
    Wifi = 1 << 0,
    /// Cellular modem (3G WCDMA on the paper's testbed).
    Cellular = 1 << 1,
    /// Satellite GPS receiver.
    Gps = 1 << 2,
    /// The Wi-Fi positioning pipeline (Wi-Fi + cellular signal scanning).
    /// The paper accounts for WPS as its own hardware row in Table 4,
    /// distinct from plain Wi-Fi connectivity, so it is modelled as a
    /// separate wakelockable component.
    Wps = 1 << 3,
    /// Accelerometer (step counting in Noom Walk / Moves).
    Accelerometer = 1 << 4,
    /// Loudspeaker — user perceptible.
    Speaker = 1 << 5,
    /// Vibration motor — user perceptible.
    Vibrator = 1 << 6,
    /// LCD panel and backlight — user perceptible.
    Screen = 1 << 7,
}

impl HardwareComponent {
    /// All components, in declaration order.
    pub const ALL: [HardwareComponent; 8] = [
        HardwareComponent::Wifi,
        HardwareComponent::Cellular,
        HardwareComponent::Gps,
        HardwareComponent::Wps,
        HardwareComponent::Accelerometer,
        HardwareComponent::Speaker,
        HardwareComponent::Vibrator,
        HardwareComponent::Screen,
    ];

    /// Whether a wakelock on this component attracts the user's attention
    /// (§3.1.2: screen, speaker, vibrator).
    pub fn is_perceptible(self) -> bool {
        matches!(
            self,
            HardwareComponent::Speaker | HardwareComponent::Vibrator | HardwareComponent::Screen
        )
    }

    /// A short stable name, used in reports and traces.
    pub fn name(self) -> &'static str {
        match self {
            HardwareComponent::Wifi => "Wi-Fi",
            HardwareComponent::Cellular => "Cellular",
            HardwareComponent::Gps => "GPS",
            HardwareComponent::Wps => "WPS",
            HardwareComponent::Accelerometer => "Accelerometer",
            HardwareComponent::Speaker => "Speaker",
            HardwareComponent::Vibrator => "Vibrator",
            HardwareComponent::Screen => "Screen",
        }
    }

    fn bit(self) -> u16 {
        self as u16
    }
}

impl fmt::Display for HardwareComponent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl BitOr for HardwareComponent {
    type Output = HardwareSet;

    fn bitor(self, rhs: HardwareComponent) -> HardwareSet {
        HardwareSet(self.bit() | rhs.bit())
    }
}

impl BitOr<HardwareSet> for HardwareComponent {
    type Output = HardwareSet;

    fn bitor(self, rhs: HardwareSet) -> HardwareSet {
        HardwareSet(self.bit() | rhs.0)
    }
}

/// A set of wakelockable hardware components, represented as a bitset.
///
/// The set an alarm wakelocks may be *empty* — such an alarm only awakens
/// the CPU (§3.1.1). Hardware similarity is defined over these sets.
///
/// # Examples
///
/// ```
/// use simty_core::hardware::{HardwareComponent, HardwareSet};
///
/// let mut set = HardwareSet::empty();
/// set.insert(HardwareComponent::Wifi);
/// assert!(set.contains(HardwareComponent::Wifi));
/// assert_eq!(set.len(), 1);
/// assert_eq!(set.to_string(), "{Wi-Fi}");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct HardwareSet(u16);

impl HardwareSet {
    /// The empty set: the alarm wakelocks nothing beyond the CPU.
    pub const fn empty() -> Self {
        HardwareSet(0)
    }

    /// The set of user-perceptible components (screen, speaker, vibrator).
    pub fn perceptible_mask() -> Self {
        HardwareComponent::Speaker | HardwareComponent::Vibrator | HardwareComponent::Screen
    }

    /// A set with a single component.
    pub fn single(component: HardwareComponent) -> Self {
        HardwareSet(component.bit())
    }

    /// The raw bit representation (for persistence).
    pub const fn bits(self) -> u16 {
        self.0
    }

    /// Rebuilds a set from its raw bits, dropping any bits that do not
    /// correspond to a known component.
    pub fn from_bits(bits: u16) -> Self {
        let mut known = 0u16;
        for c in HardwareComponent::ALL {
            known |= c.bit();
        }
        HardwareSet(bits & known)
    }

    /// Whether the set is empty.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of components in the set.
    pub const fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether `component` is in the set.
    pub fn contains(self, component: HardwareComponent) -> bool {
        self.0 & component.bit() != 0
    }

    /// Whether every component of `other` is also in `self`.
    pub fn is_superset(self, other: HardwareSet) -> bool {
        self.0 & other.0 == other.0
    }

    /// Adds a component; returns `true` if it was newly inserted.
    pub fn insert(&mut self, component: HardwareComponent) -> bool {
        let newly = !self.contains(component);
        self.0 |= component.bit();
        newly
    }

    /// Removes a component; returns `true` if it was present.
    pub fn remove(&mut self, component: HardwareComponent) -> bool {
        let present = self.contains(component);
        self.0 &= !component.bit();
        present
    }

    /// The union of two sets. Queue entries keep their hardware attribute
    /// as the union of their members' sets (§3.2.1).
    pub fn union(self, other: HardwareSet) -> HardwareSet {
        HardwareSet(self.0 | other.0)
    }

    /// The intersection of two sets.
    pub fn intersection(self, other: HardwareSet) -> HardwareSet {
        HardwareSet(self.0 & other.0)
    }

    /// Whether the set wakelocks any user-perceptible component.
    pub fn is_perceptible(self) -> bool {
        !self
            .intersection(HardwareSet::perceptible_mask())
            .is_empty()
    }

    /// Iterates over the components in the set in declaration order.
    pub fn iter(self) -> Iter {
        Iter { set: self, idx: 0 }
    }
}

impl fmt::Display for HardwareSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, c) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Binary for HardwareSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl fmt::LowerHex for HardwareSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl BitOr for HardwareSet {
    type Output = HardwareSet;

    fn bitor(self, rhs: HardwareSet) -> HardwareSet {
        self.union(rhs)
    }
}

impl BitOr<HardwareComponent> for HardwareSet {
    type Output = HardwareSet;

    fn bitor(self, rhs: HardwareComponent) -> HardwareSet {
        HardwareSet(self.0 | rhs.bit())
    }
}

impl BitOrAssign for HardwareSet {
    fn bitor_assign(&mut self, rhs: HardwareSet) {
        self.0 |= rhs.0;
    }
}

impl BitAnd for HardwareSet {
    type Output = HardwareSet;

    fn bitand(self, rhs: HardwareSet) -> HardwareSet {
        self.intersection(rhs)
    }
}

impl From<HardwareComponent> for HardwareSet {
    fn from(component: HardwareComponent) -> Self {
        HardwareSet::single(component)
    }
}

impl FromIterator<HardwareComponent> for HardwareSet {
    fn from_iter<I: IntoIterator<Item = HardwareComponent>>(iter: I) -> Self {
        let mut set = HardwareSet::empty();
        set.extend(iter);
        set
    }
}

impl Extend<HardwareComponent> for HardwareSet {
    fn extend<I: IntoIterator<Item = HardwareComponent>>(&mut self, iter: I) {
        for c in iter {
            self.insert(c);
        }
    }
}

impl IntoIterator for HardwareSet {
    type Item = HardwareComponent;
    type IntoIter = Iter;

    fn into_iter(self) -> Iter {
        self.iter()
    }
}

/// Iterator over the components of a [`HardwareSet`].
#[derive(Debug, Clone)]
pub struct Iter {
    set: HardwareSet,
    idx: usize,
}

impl Iterator for Iter {
    type Item = HardwareComponent;

    fn next(&mut self) -> Option<HardwareComponent> {
        while self.idx < HardwareComponent::ALL.len() {
            let c = HardwareComponent::ALL[self.idx];
            self.idx += 1;
            if self.set.contains(c) {
                return Some(c);
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = HardwareComponent::ALL[self.idx..]
            .iter()
            .filter(|c| self.set.contains(**c))
            .count();
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for Iter {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_properties() {
        let s = HardwareSet::empty();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(!s.is_perceptible());
        assert_eq!(s.to_string(), "{}");
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut s = HardwareSet::empty();
        assert!(s.insert(HardwareComponent::Wifi));
        assert!(!s.insert(HardwareComponent::Wifi));
        assert!(s.contains(HardwareComponent::Wifi));
        assert!(s.remove(HardwareComponent::Wifi));
        assert!(!s.remove(HardwareComponent::Wifi));
        assert!(s.is_empty());
    }

    #[test]
    fn union_and_intersection() {
        let wps = HardwareComponent::Wifi | HardwareComponent::Cellular;
        let wifi = HardwareSet::single(HardwareComponent::Wifi);
        assert_eq!(wps.union(wifi), wps);
        assert_eq!(wps.intersection(wifi), wifi);
        assert_eq!(wps & HardwareSet::empty(), HardwareSet::empty());
        assert!(wps.is_superset(wifi));
        assert!(!wifi.is_superset(wps));
    }

    #[test]
    fn perceptibility_follows_the_paper() {
        // §3.1.2: perceptible iff the set wakelocks screen, speaker or vibrator.
        assert!(HardwareSet::single(HardwareComponent::Speaker).is_perceptible());
        assert!(HardwareSet::single(HardwareComponent::Vibrator).is_perceptible());
        assert!(HardwareSet::single(HardwareComponent::Screen).is_perceptible());
        assert!(!HardwareSet::single(HardwareComponent::Wifi).is_perceptible());
        assert!(!HardwareSet::single(HardwareComponent::Gps).is_perceptible());
        assert!(!HardwareSet::single(HardwareComponent::Accelerometer).is_perceptible());
        // A mixed set with one perceptible component is perceptible.
        assert!((HardwareComponent::Wifi | HardwareComponent::Vibrator).is_perceptible());
    }

    #[test]
    fn iteration_order_is_stable() {
        let s = HardwareComponent::Vibrator | HardwareComponent::Wifi;
        let got: Vec<_> = s.iter().collect();
        assert_eq!(
            got,
            vec![HardwareComponent::Wifi, HardwareComponent::Vibrator]
        );
        assert_eq!(s.iter().len(), 2);
    }

    #[test]
    fn collect_from_iterator() {
        let s: HardwareSet = [
            HardwareComponent::Wifi,
            HardwareComponent::Cellular,
            HardwareComponent::Wifi,
        ]
        .into_iter()
        .collect();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn display_and_binary() {
        let s = HardwareComponent::Wifi | HardwareComponent::Speaker;
        assert_eq!(s.to_string(), "{Wi-Fi, Speaker}");
        assert_eq!(format!("{s:b}"), "100001");
    }
}
