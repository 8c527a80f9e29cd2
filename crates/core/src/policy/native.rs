//! Android's native window-overlap alignment policy (§2.1).

use crate::alarm::Alarm;
use crate::audit::CandidateAudit;
use crate::entry::DeliveryDiscipline;
use crate::policy::{search, AlignmentPolicy, Placement};
use crate::queue::AlarmQueue;
use crate::similarity::TimeSimilarity;

/// The alignment policy Android employs since version 4.4.
///
/// When an alarm is inserted, the queue entries are examined sequentially
/// for one "in which every alarm's window interval overlaps with that of
/// the new alarm"; the alarm joins the *first* such entry, or a new entry
/// is created. Because each entry maintains the running intersection of
/// its members' windows, "every member's window overlaps the new alarm's
/// window" is equivalent to "the entry's window intersection overlaps the
/// new alarm's window" (pairwise-overlapping 1-D intervals share a common
/// point). On reinsert of a still-queued alarm, the entry-mates are also
/// realigned ([`realigns_on_reinsert`](AlignmentPolicy::realigns_on_reinsert)).
///
/// # Examples
///
/// ```
/// use simty_core::manager::AlarmManager;
/// use simty_core::policy::NativePolicy;
///
/// let manager = AlarmManager::new(Box::new(NativePolicy::new()));
/// assert_eq!(manager.policy_name(), "NATIVE");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct NativePolicy {
    realign: bool,
}

impl Default for NativePolicy {
    fn default() -> Self {
        NativePolicy { realign: true }
    }
}

impl NativePolicy {
    /// Creates the policy with realignment on reinsert enabled, as in
    /// Android (§2.1).
    pub fn new() -> Self {
        NativePolicy::default()
    }

    /// Creates the policy without the realignment step, isolating its
    /// effect for ablation.
    pub fn without_realignment() -> Self {
        NativePolicy { realign: false }
    }

    /// Both placement entry points share this search. Window overlap is
    /// exactly high time similarity, and nothing delivering after the
    /// alarm's window ends can overlap it. Every overlapping entry ranks
    /// alike, so the first one found wins.
    fn placement(
        &self,
        queue: &AlarmQueue,
        alarm: &Alarm,
        audit: Option<&mut Vec<CandidateAudit>>,
    ) -> Placement {
        search(
            queue,
            alarm,
            Some(alarm.window_interval().end()),
            |_, time| time == TimeSimilarity::High,
            |_, _| ((), None),
            audit,
        )
    }
}

impl AlignmentPolicy for NativePolicy {
    fn name(&self) -> &str {
        "NATIVE"
    }

    fn place(&self, queue: &AlarmQueue, alarm: &Alarm) -> Placement {
        self.placement(queue, alarm, None)
    }

    fn place_audited(
        &self,
        queue: &AlarmQueue,
        alarm: &Alarm,
        audit: &mut Vec<CandidateAudit>,
    ) -> Placement {
        self.placement(queue, alarm, Some(audit))
    }

    fn discipline(&self) -> DeliveryDiscipline {
        DeliveryDiscipline::Window
    }

    fn realigns_on_reinsert(&self) -> bool {
        self.realign
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::QueueEntry;
    use crate::time::{SimDuration, SimTime};

    fn alarm(nominal_s: u64, repeat_s: u64, alpha: f64) -> Alarm {
        Alarm::builder("n")
            .nominal(SimTime::from_secs(nominal_s))
            .repeating_static(SimDuration::from_secs(repeat_s))
            .window_fraction(alpha)
            .build()
            .unwrap()
    }

    fn queue_of(alarms: Vec<Alarm>) -> AlarmQueue {
        let mut q = AlarmQueue::new();
        for a in alarms {
            q.insert_entry(QueueEntry::new(a, DeliveryDiscipline::Window));
        }
        q
    }

    #[test]
    fn joins_first_window_overlapping_entry() {
        // Entries with windows [100, 175] and [150, 225].
        let q = queue_of(vec![alarm(100, 100, 0.75), alarm(150, 100, 0.75)]);
        // Window [160, 235] overlaps both; the first (earlier) entry wins.
        let a = alarm(160, 100, 0.75);
        assert_eq!(NativePolicy::new().place(&q, &a), Placement::Existing(0));
    }

    #[test]
    fn creates_new_entry_when_no_window_overlaps() {
        let q = queue_of(vec![alarm(100, 100, 0.1)]); // window [100, 110]
        let a = alarm(200, 100, 0.1); // window [200, 210]
        assert_eq!(NativePolicy::new().place(&q, &a), Placement::NewEntry);
    }

    #[test]
    fn point_window_joins_containing_entry() {
        // An alpha = 0 alarm can still be absorbed by an entry whose window
        // contains its nominal point.
        let q = queue_of(vec![alarm(100, 200, 0.75)]); // window [100, 250]
        let a = alarm(180, 60, 0.0); // point window at 180
        assert_eq!(NativePolicy::new().place(&q, &a), Placement::Existing(0));
    }

    #[test]
    fn ignores_grace_intervals_entirely() {
        let mut early = Alarm::builder("e")
            .nominal(SimTime::from_secs(100))
            .repeating_static(SimDuration::from_secs(300))
            .window_fraction(0.1)
            .grace_fraction(0.9)
            .build()
            .unwrap();
        early.mark_hardware_known();
        let q = queue_of(vec![early]);
        // Graces overlap ([100, 370] vs [200, 470]) but windows do not
        // ([100, 130] vs [200, 230]): NATIVE refuses.
        let late = alarm(200, 300, 0.1);
        assert_eq!(NativePolicy::new().place(&q, &late), Placement::NewEntry);
    }

    #[test]
    fn realignment_flag() {
        assert!(NativePolicy::new().realigns_on_reinsert());
        assert!(!NativePolicy::without_realignment().realigns_on_reinsert());
    }
}
