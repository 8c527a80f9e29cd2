//! Queue entries: groups of alarms that are delivered together.
//!
//! An entry carries the five attributes the paper defines (§3.2.1):
//!
//! 1. **window interval** — the intersection of its members' window intervals
//!    (possibly empty after a grace-only alignment);
//! 2. **grace interval** — the intersection of its members' grace intervals;
//! 3. **hardware set** — the union of its members' *known* hardware sets;
//! 4. **perceptibility** — perceptible iff any member is perceptible;
//! 5. **delivery time** — the earliest point of the window interval for a
//!    perceptible entry, of the grace interval for an imperceptible one
//!    (under the perceptibility-aware discipline; NATIVE always uses the
//!    window).

use std::fmt;

use crate::alarm::{Alarm, AlarmId};
use crate::hardware::HardwareSet;
use crate::similarity::{time_similarity, TimeSimilarity};
use crate::time::{Interval, SimDuration, SimTime};

/// How an entry's delivery time is derived from its intervals.
///
/// NATIVE and EXACT always deliver at the start of the (window)
/// intersection; SIMTY delivers imperceptible entries at the start of the
/// *grace* intersection instead, which is what lets later alarms join them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DeliveryDiscipline {
    /// Deliver at the start of the window intersection (Android NATIVE).
    #[default]
    Window,
    /// Deliver perceptible entries at the window start and imperceptible
    /// entries at the grace start (SIMTY, §3.2.1).
    PerceptibilityAware,
    /// Deliver only on a fixed time grid: every entry is postponed to the
    /// first multiple of the quantum at or after its members' latest
    /// nominal time. Models the "immediate remedy" the paper cites from
    /// Lin et al. \[5\], which forcibly aligns background activities within
    /// fixed intervals regardless of windows.
    Quantized {
        /// The wakeup grid period.
        quantum: SimDuration,
    },
    /// Deliver only in escalating maintenance windows (Doze-style): the
    /// first `windows_per_level` windows sit `base` apart, the next batch
    /// twice that, doubling up to `max_quantum`. Entries are postponed to
    /// the first window at or after their members' latest nominal time.
    Escalating {
        /// Spacing of the earliest maintenance windows.
        base: SimDuration,
        /// The spacing cap after repeated escalation.
        max_quantum: SimDuration,
        /// How many windows elapse before each doubling.
        windows_per_level: u32,
    },
}

/// The first maintenance window at or after `t` on an escalating grid
/// (see [`DeliveryDiscipline::Escalating`]).
pub fn escalating_window_after(
    t: SimTime,
    base: SimDuration,
    max_quantum: SimDuration,
    windows_per_level: u32,
) -> SimTime {
    let target = t.as_millis();
    let mut window = 0u64;
    let mut quantum = base.as_millis().max(1);
    loop {
        for _ in 0..windows_per_level.max(1) {
            if window >= target {
                return SimTime::from_millis(window);
            }
            window += quantum;
        }
        if quantum < max_quantum.as_millis() {
            quantum = (quantum * 2).min(max_quantum.as_millis());
        }
    }
}

/// A batch of alarms scheduled for joint delivery.
///
/// # Examples
///
/// ```
/// use simty_core::alarm::Alarm;
/// use simty_core::entry::{DeliveryDiscipline, QueueEntry};
/// use simty_core::time::{SimDuration, SimTime};
///
/// # fn main() -> Result<(), simty_core::error::BuildAlarmError> {
/// let a = Alarm::builder("a")
///     .nominal(SimTime::from_secs(10))
///     .repeating_static(SimDuration::from_secs(100))
///     .window_fraction(0.75)
///     .build()?;
/// let entry = QueueEntry::new(a, DeliveryDiscipline::Window);
/// assert_eq!(entry.delivery_time(), SimTime::from_secs(10));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct QueueEntry {
    alarms: Vec<Alarm>,
    window: Option<Interval>,
    grace: Option<Interval>,
    hardware: HardwareSet,
    perceptible: bool,
    latest_nominal: SimTime,
    delivery: SimTime,
    discipline: DeliveryDiscipline,
}

impl QueueEntry {
    /// Creates an entry containing a single alarm.
    pub fn new(alarm: Alarm, discipline: DeliveryDiscipline) -> Self {
        QueueEntry::from_alarms(vec![alarm], discipline)
    }

    /// Creates an entry holding `alarms`, which must not be empty: the
    /// queue passes a recycled buffer holding one alarm.
    pub(crate) fn from_alarms(alarms: Vec<Alarm>, discipline: DeliveryDiscipline) -> Self {
        let mut entry = QueueEntry {
            alarms,
            window: None,
            grace: None,
            hardware: HardwareSet::empty(),
            perceptible: false,
            latest_nominal: SimTime::ZERO,
            delivery: SimTime::ZERO,
            discipline,
        };
        entry.recompute();
        entry
    }

    /// The member alarms, in insertion order.
    pub fn alarms(&self) -> &[Alarm] {
        &self.alarms
    }

    /// Number of member alarms.
    pub fn len(&self) -> usize {
        self.alarms.len()
    }

    /// Whether the entry has no members (only transiently true during
    /// removal; empty entries are dropped from the queue).
    pub fn is_empty(&self) -> bool {
        self.alarms.is_empty()
    }

    /// Attribute 1: the intersection of member window intervals, or `None`
    /// if it is empty (possible after grace-only alignments).
    pub fn window(&self) -> Option<Interval> {
        self.window
    }

    /// Attribute 2: the intersection of member grace intervals, or `None`
    /// if it is empty (only possible if a policy ignores time similarity).
    pub fn grace(&self) -> Option<Interval> {
        self.grace
    }

    /// Attribute 3: the union of member *known* hardware sets.
    pub fn hardware(&self) -> HardwareSet {
        self.hardware
    }

    /// Attribute 4: whether any member is perceptible.
    pub fn is_perceptible(&self) -> bool {
        self.perceptible
    }

    /// The delivery discipline this entry was created under.
    pub fn discipline(&self) -> DeliveryDiscipline {
        self.discipline
    }

    /// Attribute 5: the scheduled delivery time.
    ///
    /// Cached on every membership change (this sits on the queue's
    /// ordering hot path — every binary-search comparison reads it).
    /// Falls back to the latest member nominal time if the governing
    /// intersection is empty, so a mis-batched entry still has a defined
    /// (and experience-safe, since it is some member's nominal) time.
    pub fn delivery_time(&self) -> SimTime {
        self.delivery
    }

    /// Recomputes the delivery time from the current intervals (the
    /// Quantized/Escalating grids make this non-trivial, which is why the
    /// result is cached rather than derived per call).
    fn compute_delivery_time(&self) -> SimTime {
        let window_start = self.window.map(Interval::start);
        let grace_start = self.grace.map(Interval::start);
        let fallback = self.latest_nominal;
        match self.discipline {
            DeliveryDiscipline::Window => window_start.or(grace_start).unwrap_or(fallback),
            DeliveryDiscipline::PerceptibilityAware => {
                if self.perceptible {
                    window_start.or(grace_start).unwrap_or(fallback)
                } else {
                    grace_start.unwrap_or(fallback)
                }
            }
            DeliveryDiscipline::Quantized { quantum } => {
                let q = quantum.as_millis().max(1);
                let base = self.latest_nominal.as_millis();
                SimTime::from_millis(base.div_ceil(q) * q)
            }
            DeliveryDiscipline::Escalating {
                base,
                max_quantum,
                windows_per_level,
            } => escalating_window_after(self.latest_nominal, base, max_quantum, windows_per_level),
        }
    }

    /// Time similarity between a candidate alarm and this entry (§3.1.2),
    /// computed against the entry's intersected intervals.
    pub fn time_similarity_to(&self, alarm: &Alarm) -> TimeSimilarity {
        let entry_grace = match self.grace {
            Some(g) => g,
            // Degenerate entry: compare against the fallback point so the
            // classification stays total.
            None => Interval::point(self.latest_nominal),
        };
        time_similarity(
            alarm.window_interval(),
            alarm.grace_interval(),
            self.window,
            entry_grace,
        )
    }

    /// Whether the given alarm is a member.
    pub fn contains(&self, id: AlarmId) -> bool {
        self.alarms.iter().any(|a| a.id() == id)
    }

    /// Adds an alarm and updates the entry attributes.
    pub fn push(&mut self, alarm: Alarm) {
        self.alarms.push(alarm);
        self.recompute();
    }

    /// Removes the alarm with `id`, returning it and updating the entry
    /// attributes. Returns `None` if the alarm is not a member.
    pub fn remove(&mut self, id: AlarmId) -> Option<Alarm> {
        let idx = self.alarms.iter().position(|a| a.id() == id)?;
        let alarm = self.alarms.remove(idx);
        if !self.alarms.is_empty() {
            self.recompute();
        }
        Some(alarm)
    }

    /// Consumes the entry, yielding its members.
    pub fn into_alarms(self) -> Vec<Alarm> {
        self.alarms
    }

    fn recompute(&mut self) {
        debug_assert!(!self.alarms.is_empty(), "recompute on an empty entry");
        let mut window = Some(self.alarms[0].window_interval());
        let mut grace = Some(self.alarms[0].grace_interval());
        let mut hardware = self.alarms[0].known_hardware();
        let mut perceptible = self.alarms[0].is_perceptible();
        let mut latest_nominal = self.alarms[0].nominal();
        for alarm in &self.alarms[1..] {
            window = window.and_then(|w| w.intersection(alarm.window_interval()));
            grace = grace.and_then(|g| g.intersection(alarm.grace_interval()));
            hardware |= alarm.known_hardware();
            perceptible |= alarm.is_perceptible();
            latest_nominal = latest_nominal.max(alarm.nominal());
        }
        self.window = window;
        self.grace = grace;
        self.hardware = hardware;
        self.perceptible = perceptible;
        self.latest_nominal = latest_nominal;
        self.delivery = self.compute_delivery_time();
    }
}

impl fmt::Display for QueueEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "entry@{} [{} alarm(s), hw {}, {}]",
            self.delivery_time(),
            self.alarms.len(),
            self.hardware,
            if self.perceptible {
                "perceptible"
            } else {
                "imperceptible"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hardware::HardwareComponent;
    use crate::time::SimDuration;

    fn alarm(label: &str, nominal_s: u64, repeat_s: u64, alpha: f64, beta: f64) -> Alarm {
        Alarm::builder(label)
            .nominal(SimTime::from_secs(nominal_s))
            .repeating_static(SimDuration::from_secs(repeat_s))
            .window_fraction(alpha)
            .grace_fraction(beta)
            .hardware(HardwareComponent::Wifi.into())
            .build()
            .unwrap()
    }

    fn known(mut a: Alarm) -> Alarm {
        a.mark_hardware_known();
        a
    }

    #[test]
    fn single_alarm_entry_mirrors_the_alarm() {
        let a = alarm("a", 100, 200, 0.75, 0.96);
        let e = QueueEntry::new(a.clone(), DeliveryDiscipline::Window);
        assert_eq!(e.window(), Some(a.window_interval()));
        assert_eq!(e.grace(), Some(a.grace_interval()));
        assert_eq!(e.delivery_time(), SimTime::from_secs(100));
        assert!(e.is_perceptible()); // hardware unknown -> perceptible
        assert!(e.hardware().is_empty()); // known hardware only
    }

    #[test]
    fn attributes_are_intersections_and_unions() {
        // a: window [100, 250], grace [100, 292]; b: window [200, 275], grace [200, 296].
        let a = known(alarm("a", 100, 200, 0.75, 0.96));
        let b = known(alarm("b", 200, 100, 0.75, 0.96));
        let mut e = QueueEntry::new(a, DeliveryDiscipline::PerceptibilityAware);
        e.push(b);
        assert_eq!(
            e.window(),
            Some(Interval::new(
                SimTime::from_secs(200),
                SimTime::from_secs(250)
            ))
        );
        assert_eq!(
            e.grace(),
            Some(Interval::new(
                SimTime::from_secs(200),
                SimTime::from_secs(292)
            ))
        );
        assert_eq!(e.hardware(), HardwareComponent::Wifi.into());
        assert!(!e.is_perceptible());
    }

    #[test]
    fn perceptible_entry_delivers_at_window_start() {
        let mut a = Alarm::builder("cal")
            .nominal(SimTime::from_secs(50))
            .repeating_static(SimDuration::from_secs(1800))
            .window(SimDuration::from_secs(10))
            .grace(SimDuration::from_secs(100))
            .hardware(HardwareComponent::Vibrator.into())
            .build()
            .unwrap();
        a.mark_hardware_known();
        let e = QueueEntry::new(a, DeliveryDiscipline::PerceptibilityAware);
        assert!(e.is_perceptible());
        assert_eq!(e.delivery_time(), SimTime::from_secs(50));
    }

    #[test]
    fn imperceptible_entry_delivers_at_grace_start_under_simty() {
        let a = known(alarm("a", 100, 200, 0.1, 0.96));
        let b = known(alarm("b", 150, 200, 0.1, 0.96));
        let mut e = QueueEntry::new(a, DeliveryDiscipline::PerceptibilityAware);
        e.push(b);
        // Windows [100,120] and [150,170] are disjoint -> window is None.
        assert_eq!(e.window(), None);
        // Graces [100,292] ∩ [150,342] = [150,292]; delivery at its start.
        assert_eq!(e.delivery_time(), SimTime::from_secs(150));
    }

    #[test]
    fn window_discipline_ignores_perceptibility() {
        let a = known(alarm("a", 100, 200, 0.75, 0.96));
        let e = QueueEntry::new(a, DeliveryDiscipline::Window);
        assert!(!e.is_perceptible());
        // Imperceptible, but NATIVE still delivers at the window start.
        assert_eq!(e.delivery_time(), SimTime::from_secs(100));
    }

    #[test]
    fn remove_restores_remaining_members_attributes() {
        let a = known(alarm("a", 100, 200, 0.75, 0.96));
        let b = known(alarm("b", 200, 100, 0.75, 0.96));
        let b_id = b.id();
        let mut e = QueueEntry::new(a.clone(), DeliveryDiscipline::Window);
        e.push(b);
        let removed = e.remove(b_id).unwrap();
        assert_eq!(removed.id(), b_id);
        assert_eq!(e.len(), 1);
        assert_eq!(e.window(), Some(a.window_interval()));
        assert!(e.remove(b_id).is_none());
    }

    #[test]
    fn time_similarity_against_entry() {
        let a = known(alarm("a", 100, 200, 0.75, 0.96)); // window [100,250]
        let e = QueueEntry::new(a, DeliveryDiscipline::PerceptibilityAware);
        let overlapping = known(alarm("b", 200, 100, 0.75, 0.96)); // window [200,275]
        let grace_only = known(alarm("c", 260, 100, 0.1, 0.3)); // window [260,270], grace [260,290]
        let disjoint = known(alarm("d", 400, 100, 0.1, 0.3));
        assert_eq!(e.time_similarity_to(&overlapping), TimeSimilarity::High);
        assert_eq!(e.time_similarity_to(&grace_only), TimeSimilarity::Medium);
        assert_eq!(e.time_similarity_to(&disjoint), TimeSimilarity::Low);
    }

    #[test]
    fn contains_and_into_alarms() {
        let a = known(alarm("a", 100, 200, 0.75, 0.96));
        let id = a.id();
        let e = QueueEntry::new(a, DeliveryDiscipline::Window);
        assert!(e.contains(id));
        let alarms = e.into_alarms();
        assert_eq!(alarms.len(), 1);
        assert_eq!(alarms[0].id(), id);
    }
}
