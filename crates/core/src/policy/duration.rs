//! DURSIM: the duration-similarity extension sketched in the paper's §5.

use crate::alarm::Alarm;
use crate::audit::CandidateAudit;
use crate::entry::{DeliveryDiscipline, QueueEntry};
use crate::policy::{AlignmentPolicy, Placement, SimtyPolicy};
use crate::queue::AlarmQueue;
use crate::similarity::{HardwareGranularity, TimeSimilarity};
use crate::time::SimDuration;

/// SIMTY extended with *duration similarity* (§5): among entries with the
/// same hardware and time similarity, prefer the one whose tasks wakelock
/// hardware for a similar amount of time, so active periods overlap
/// instead of merely sharing activation costs.
///
/// The paper notes this "requires that the duration of hardware
/// wakelocking be specified during alarm registration in Android's future
/// practice"; this library's [`Alarm`] already carries a task duration, so
/// the extension is implementable directly.
///
/// Duration similarity between an alarm and an entry is bucketed by the
/// relative difference between the alarm's task duration and the mean of
/// the entry's task durations:
/// rank 0 if the relative difference is ≤ 25 %, rank 1 if ≤ 50 %,
/// rank 2 otherwise.
///
/// Selection ranks candidates lexicographically by
/// `(hardware rank, duration rank, time rank)`, keeping hardware
/// similarity dominant as in Table 1.
///
/// # Examples
///
/// ```
/// use simty_core::manager::AlarmManager;
/// use simty_core::policy::DurationSimilarityPolicy;
///
/// let manager = AlarmManager::new(Box::new(DurationSimilarityPolicy::new()));
/// assert_eq!(manager.policy_name(), "DURSIM");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct DurationSimilarityPolicy {
    _private: (),
}

impl DurationSimilarityPolicy {
    /// Creates the policy with 3-level hardware similarity.
    pub fn new() -> Self {
        DurationSimilarityPolicy::default()
    }

    /// Buckets the similarity between a task duration and an entry's mean
    /// task duration: 0 (≤ 25 % apart), 1 (≤ 50 %), or 2.
    pub fn duration_rank(alarm_duration: SimDuration, entry_mean: SimDuration) -> u8 {
        let a = alarm_duration.as_millis() as f64;
        let b = entry_mean.as_millis() as f64;
        let longer = a.max(b);
        if longer == 0.0 {
            return 0;
        }
        let rel = (a - b).abs() / longer;
        if rel <= 0.25 {
            0
        } else if rel <= 0.5 {
            1
        } else {
            2
        }
    }

    fn entry_mean_duration(entry: &QueueEntry) -> SimDuration {
        let total: SimDuration = entry.alarms().iter().map(Alarm::task_duration).sum();
        total / entry.len() as u64
    }

    /// Both placement entry points share SIMTY's search phase, ranked by
    /// `(hardware, duration, time)`. The audited preferability is the
    /// Table 1 rank of the hardware and time ranks; the duration
    /// tie-break is DURSIM's own refinement.
    fn placement(
        &self,
        queue: &AlarmQueue,
        alarm: &Alarm,
        audit: Option<&mut Vec<CandidateAudit>>,
    ) -> Placement {
        let alarm_hw = alarm.known_hardware();
        let rank = |entry: &QueueEntry, time: TimeSimilarity| {
            let hw_rank = HardwareGranularity::Three.rank(alarm_hw, entry.hardware());
            let dur_rank =
                Self::duration_rank(alarm.task_duration(), Self::entry_mean_duration(entry));
            ((hw_rank, dur_rank, time.rank()), Some(hw_rank))
        };
        SimtyPolicy::search_phase(queue, alarm, rank, audit)
    }
}

impl AlignmentPolicy for DurationSimilarityPolicy {
    fn name(&self) -> &str {
        "DURSIM"
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
        DeliveryDiscipline::PerceptibilityAware
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hardware::HardwareComponent;
    use crate::time::SimTime;

    fn wifi_alarm(label: &str, nominal_s: u64, task_s: u64) -> Alarm {
        let mut a = Alarm::builder(label)
            .nominal(SimTime::from_secs(nominal_s))
            .repeating_static(SimDuration::from_secs(600))
            .window_fraction(0.75)
            .grace_fraction(0.9)
            .hardware(HardwareComponent::Wifi.into())
            .task_duration(SimDuration::from_secs(task_s))
            .build()
            .unwrap();
        a.mark_hardware_known();
        a
    }

    #[test]
    fn duration_rank_buckets() {
        let s = SimDuration::from_secs;
        assert_eq!(DurationSimilarityPolicy::duration_rank(s(10), s(10)), 0);
        assert_eq!(DurationSimilarityPolicy::duration_rank(s(8), s(10)), 0); // 20 %
        assert_eq!(DurationSimilarityPolicy::duration_rank(s(6), s(10)), 1); // 40 %
        assert_eq!(DurationSimilarityPolicy::duration_rank(s(2), s(10)), 2); // 80 %
        assert_eq!(DurationSimilarityPolicy::duration_rank(s(10), s(2)), 2); // symmetric
        assert_eq!(
            DurationSimilarityPolicy::duration_rank(SimDuration::ZERO, SimDuration::ZERO),
            0
        );
    }

    #[test]
    fn prefers_entries_with_similar_task_durations() {
        let mut q = AlarmQueue::new();
        // Two wifi entries, both window-overlapping the candidate, but with
        // very different task durations.
        q.insert_entry(QueueEntry::new(
            wifi_alarm("short", 100, 2),
            DeliveryDiscipline::PerceptibilityAware,
        ));
        q.insert_entry(QueueEntry::new(
            wifi_alarm("long", 110, 20),
            DeliveryDiscipline::PerceptibilityAware,
        ));
        let cand = wifi_alarm("cand", 120, 18);
        // Plain SIMTY ties on (hw high, time high) and picks the first entry.
        assert_eq!(SimtyPolicy::new().place(&q, &cand), Placement::Existing(0));
        // DURSIM breaks the tie toward the duration-similar entry.
        assert_eq!(
            DurationSimilarityPolicy::new().place(&q, &cand),
            Placement::Existing(1)
        );
    }

    #[test]
    fn hardware_similarity_still_dominates_duration() {
        let mut q = AlarmQueue::new();
        // Entry 0: same hardware, dissimilar duration.
        q.insert_entry(QueueEntry::new(
            wifi_alarm("wifi-long", 100, 20),
            DeliveryDiscipline::PerceptibilityAware,
        ));
        // Entry 1: disjoint hardware, identical duration.
        let mut accel = Alarm::builder("accel")
            .nominal(SimTime::from_secs(110))
            .repeating_static(SimDuration::from_secs(600))
            .window_fraction(0.75)
            .grace_fraction(0.9)
            .hardware(HardwareComponent::Accelerometer.into())
            .task_duration(SimDuration::from_secs(2))
            .build()
            .unwrap();
        accel.mark_hardware_known();
        q.insert_entry(QueueEntry::new(
            accel,
            DeliveryDiscipline::PerceptibilityAware,
        ));
        let cand = wifi_alarm("cand", 120, 2);
        assert_eq!(
            DurationSimilarityPolicy::new().place(&q, &cand),
            Placement::Existing(0)
        );
    }
}
