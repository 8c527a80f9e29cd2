//! The fixed-interval alignment baseline from the paper's related work.

use crate::alarm::Alarm;
use crate::entry::{DeliveryDiscipline, QueueEntry};
use crate::policy::{search, AlignmentPolicy, Placement};
use crate::queue::AlarmQueue;
use crate::time::{SimDuration, SimTime};

/// Forcibly aligns every alarm to a fixed wakeup grid.
///
/// The paper's introduction cites an "immediate remedy, which allows a
/// smartphone to be awakened only at a fixed time interval by forcibly
/// aligning background activities within each interval" (Lin et al.,
/// ISLPED'15 \[5\]) as evidence that centralized wakeup management pays
/// off. This policy reproduces that remedy: an alarm is postponed to the
/// first grid point at or after its nominal time, and every alarm bound
/// for the same grid point shares one entry.
///
/// Unlike SIMTY, the grid ignores windows, grace intervals, *and*
/// perceptibility — perceptible alarms can be delayed arbitrarily far
/// (up to one quantum), which is exactly the user-experience cost SIMTY's
/// search phase avoids. Comparing the two quantifies what similarity
/// awareness buys over brute-force batching.
///
/// # Examples
///
/// ```
/// use simty_core::manager::AlarmManager;
/// use simty_core::policy::FixedIntervalPolicy;
/// use simty_core::time::SimDuration;
///
/// let policy = FixedIntervalPolicy::new(SimDuration::from_secs(60));
/// let manager = AlarmManager::new(Box::new(policy));
/// assert_eq!(manager.policy_name(), "FIXED");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FixedIntervalPolicy {
    quantum: SimDuration,
}

impl FixedIntervalPolicy {
    /// Creates the policy with the given grid period.
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero.
    pub fn new(quantum: SimDuration) -> Self {
        assert!(
            !quantum.is_zero(),
            "fixed-interval quantum must be positive"
        );
        FixedIntervalPolicy { quantum }
    }

    /// The grid period.
    pub fn quantum(&self) -> SimDuration {
        self.quantum
    }

    /// The grid point an alarm nominal at `t` is postponed to.
    pub fn grid_point(&self, t: SimTime) -> SimTime {
        let q = self.quantum.as_millis();
        SimTime::from_millis(t.as_millis().div_ceil(q) * q)
    }

    /// [`place`](AlignmentPolicy::place), showing `visit` every entry the
    /// search phase's filter weighs. Entries deliver only on grid points
    /// and the queue is delivery-ordered, so the scan stops at the first
    /// entry past the alarm's grid point.
    fn place_visiting(
        &self,
        queue: &AlarmQueue,
        alarm: &Alarm,
        visit: impl Fn(&QueueEntry),
    ) -> Placement {
        let target = self.grid_point(alarm.nominal());
        search(
            queue,
            alarm,
            Some(target),
            |entry, _| {
                visit(entry);
                entry.delivery_time() == target
            },
            |_, _| ((), None),
            None,
        )
    }
}

impl AlignmentPolicy for FixedIntervalPolicy {
    fn name(&self) -> &str {
        "FIXED"
    }

    fn place(&self, queue: &AlarmQueue, alarm: &Alarm) -> Placement {
        self.place_visiting(queue, alarm, |_| ())
    }

    fn discipline(&self) -> DeliveryDiscipline {
        DeliveryDiscipline::Quantized {
            quantum: self.quantum,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;
    use crate::hardware::HardwareComponent;

    fn alarm(nominal_s: u64) -> Alarm {
        Alarm::builder("f")
            .nominal(SimTime::from_secs(nominal_s))
            .repeating_static(SimDuration::from_secs(600))
            .window_fraction(0.25)
            .grace_fraction(0.5)
            .hardware(HardwareComponent::Wifi.into())
            .build()
            .unwrap()
    }

    #[test]
    fn grid_point_rounds_up() {
        let p = FixedIntervalPolicy::new(SimDuration::from_secs(60));
        assert_eq!(p.grid_point(SimTime::from_secs(0)), SimTime::from_secs(0));
        assert_eq!(p.grid_point(SimTime::from_secs(1)), SimTime::from_secs(60));
        assert_eq!(p.grid_point(SimTime::from_secs(60)), SimTime::from_secs(60));
        assert_eq!(
            p.grid_point(SimTime::from_secs(61)),
            SimTime::from_secs(120)
        );
    }

    #[test]
    fn same_bucket_alarms_share_an_entry() {
        let p = FixedIntervalPolicy::new(SimDuration::from_secs(60));
        let mut q = AlarmQueue::new();
        q.insert_entry(QueueEntry::new(alarm(10), p.discipline()));
        // Nominal 45 -> same grid point 60 -> join.
        assert_eq!(p.place(&q, &alarm(45)), Placement::Existing(0));
        // Nominal 70 -> grid point 120 -> new entry.
        assert_eq!(p.place(&q, &alarm(70)), Placement::NewEntry);
    }

    #[test]
    fn the_search_stops_at_the_first_entry_past_the_grid_point() {
        let p = FixedIntervalPolicy::new(SimDuration::from_secs(60));
        let mut q = AlarmQueue::new();
        // One entry on each grid point from 60 s to 600 s but 300 s.
        for minute in (1..=10).filter(|&m| m != 5) {
            q.insert_new_entry(alarm(minute * 60 - 30), p.discipline());
        }
        let visits = Cell::new(0);
        let count = |_: &QueueEntry| visits.set(visits.get() + 1);
        // Grid point 300 s: the four entries before it are weighed, and
        // the one at 360 s ends the scan; the five past it are not.
        let placement = p.place_visiting(&q, &alarm(270), count);
        assert_eq!((placement, visits.replace(0)), (Placement::NewEntry, 4));
        // Grid point 180 s: the first entry on it wins outright.
        let placement = p.place_visiting(&q, &alarm(150), count);
        assert_eq!((placement, visits.replace(0)), (Placement::Existing(2), 3));
        // Grid point 660 s, past every entry: all nine are weighed.
        let placement = p.place_visiting(&q, &alarm(601), count);
        assert_eq!((placement, visits.replace(0)), (Placement::NewEntry, 9));
    }

    #[test]
    fn quantized_entries_fire_on_the_grid() {
        let p = FixedIntervalPolicy::new(SimDuration::from_secs(60));
        let mut entry = QueueEntry::new(alarm(10), p.discipline());
        assert_eq!(entry.delivery_time(), SimTime::from_secs(60));
        entry.push(alarm(45));
        assert_eq!(entry.delivery_time(), SimTime::from_secs(60));
        entry.push(alarm(59));
        assert_eq!(entry.delivery_time(), SimTime::from_secs(60));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_quantum_is_rejected() {
        let _ = FixedIntervalPolicy::new(SimDuration::ZERO);
    }
}
