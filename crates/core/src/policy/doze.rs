//! A Doze-flavored maintenance-window policy.

use crate::alarm::Alarm;
use crate::entry::DeliveryDiscipline;
use crate::policy::{search, AlignmentPolicy, Placement};
use crate::queue::AlarmQueue;
use crate::time::{SimDuration, SimTime};

/// Escalating maintenance windows, in the spirit of Android 6's Doze mode
/// — the platform's eventual answer to the problem this paper studies.
///
/// The timeline is divided into maintenance windows whose spacing doubles
/// with every escalation level: the first `windows_per_level` windows are
/// `base` apart, the next batch `2·base`, then `4·base`, up to
/// `max_quantum`. Every alarm is postponed to the first window at or
/// after its nominal time; alarms bound for the same window batch.
///
/// Like [`FixedIntervalPolicy`](crate::policy::FixedIntervalPolicy) this
/// ignores windows, grace intervals, and perceptibility — it is a
/// *baseline*, quantifying what the platform's blunt instrument costs in
/// user experience relative to SIMTY's similarity-aware alignment (and
/// what it saves once the device has been idle for hours).
///
/// # Examples
///
/// ```
/// use simty_core::policy::DozePolicy;
/// use simty_core::time::{SimDuration, SimTime};
///
/// let doze = DozePolicy::new(SimDuration::from_mins(5), SimDuration::from_hours(1), 6);
/// // Early on, windows sit 5 minutes apart...
/// assert_eq!(doze.window_after(SimTime::from_secs(1)), SimTime::from_secs(300));
/// // ...but deep into idle they are much sparser.
/// let late = doze.window_after(SimTime::from_secs(20_000));
/// assert!(late.as_millis() - 20_000_000 <= SimDuration::from_hours(1).as_millis());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct DozePolicy {
    base: SimDuration,
    max_quantum: SimDuration,
    windows_per_level: u32,
}

impl DozePolicy {
    /// Creates the policy.
    ///
    /// # Panics
    ///
    /// Panics if `base` is zero, `max_quantum < base`, or
    /// `windows_per_level` is zero.
    pub fn new(base: SimDuration, max_quantum: SimDuration, windows_per_level: u32) -> Self {
        assert!(!base.is_zero(), "doze base quantum must be positive");
        assert!(max_quantum >= base, "max quantum below the base quantum");
        assert!(windows_per_level > 0, "windows per level must be positive");
        DozePolicy {
            base,
            max_quantum,
            windows_per_level,
        }
    }

    /// Android-flavored defaults: 5-minute windows escalating to hourly.
    pub fn android_like() -> Self {
        DozePolicy::new(SimDuration::from_mins(5), SimDuration::from_hours(1), 6)
    }

    /// The first maintenance window at or after `t`.
    pub fn window_after(&self, t: SimTime) -> SimTime {
        crate::entry::escalating_window_after(
            t,
            self.base,
            self.max_quantum,
            self.windows_per_level,
        )
    }
}

impl AlignmentPolicy for DozePolicy {
    fn name(&self) -> &str {
        "DOZE"
    }

    fn place(&self, queue: &AlarmQueue, alarm: &Alarm) -> Placement {
        let target = self.window_after(alarm.nominal());
        search(
            queue,
            alarm,
            Some(target),
            |entry, _| entry.delivery_time() == target,
            |_, _| ((), None),
            None,
        )
    }

    fn discipline(&self) -> DeliveryDiscipline {
        DeliveryDiscipline::Escalating {
            base: self.base,
            max_quantum: self.max_quantum,
            windows_per_level: self.windows_per_level,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::QueueEntry;
    use crate::hardware::HardwareComponent;

    fn policy() -> DozePolicy {
        DozePolicy::new(SimDuration::from_secs(100), SimDuration::from_secs(400), 2)
    }

    #[test]
    fn windows_escalate_and_cap() {
        let p = policy();
        // Level 0: 100, 200 (2 windows at base).
        assert_eq!(
            p.window_after(SimTime::from_secs(1)),
            SimTime::from_secs(100)
        );
        assert_eq!(
            p.window_after(SimTime::from_secs(150)),
            SimTime::from_secs(200)
        );
        // Level 1: 400, 600 (quantum 200).
        assert_eq!(
            p.window_after(SimTime::from_secs(201)),
            SimTime::from_secs(400)
        );
        assert_eq!(
            p.window_after(SimTime::from_secs(401)),
            SimTime::from_secs(600)
        );
        // Level 2: 1000, 1400 (quantum 400, the cap).
        assert_eq!(
            p.window_after(SimTime::from_secs(601)),
            SimTime::from_secs(1_000)
        );
        // Capped thereafter: 1800, 2200, ...
        assert_eq!(
            p.window_after(SimTime::from_secs(1_401)),
            SimTime::from_secs(1_800)
        );
        assert_eq!(
            p.window_after(SimTime::from_secs(1_801)),
            SimTime::from_secs(2_200)
        );
    }

    #[test]
    fn exact_window_hits_are_not_postponed() {
        let p = policy();
        assert_eq!(
            p.window_after(SimTime::from_secs(200)),
            SimTime::from_secs(200)
        );
        assert_eq!(p.window_after(SimTime::ZERO), SimTime::ZERO);
    }

    #[test]
    fn same_window_alarms_batch() {
        let p = DozePolicy::new(SimDuration::from_secs(100), SimDuration::from_secs(100), 1);
        let alarm = |nominal_s: u64| {
            Alarm::builder("d")
                .nominal(SimTime::from_secs(nominal_s))
                .repeating_static(SimDuration::from_secs(600))
                .hardware(HardwareComponent::Wifi.into())
                .build()
                .unwrap()
        };
        let mut q = AlarmQueue::new();
        q.insert_entry(QueueEntry::new(alarm(110), p.discipline()));
        // 150 rounds to the same window (200) as 110.
        assert_eq!(p.place(&q, &alarm(150)), Placement::Existing(0));
        // 210 rounds to 300.
        assert_eq!(p.place(&q, &alarm(210)), Placement::NewEntry);
    }

    #[test]
    fn android_like_defaults() {
        let p = DozePolicy::android_like();
        assert_eq!(p.name(), "DOZE");
        assert_eq!(
            p.window_after(SimTime::from_secs(1)),
            SimTime::from_secs(300)
        );
    }

    #[test]
    #[should_panic(expected = "max quantum below")]
    fn rejects_inverted_quanta() {
        let _ = DozePolicy::new(SimDuration::from_secs(100), SimDuration::from_secs(50), 1);
    }
}
