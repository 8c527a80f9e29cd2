//! SIMTY: the paper's similarity-based alignment policy (§3.2).

use crate::alarm::Alarm;
use crate::audit::{CandidateAudit, CandidateVerdict};
use crate::entry::DeliveryDiscipline;
use crate::policy::{AlignmentPolicy, Placement};
use crate::queue::AlarmQueue;
use crate::similarity::{HardwareGranularity, Preferability, TimeSimilarity};

/// The similarity-based alignment policy of the paper.
///
/// Two phases (§3.2.1):
///
/// * **Search** — scan the queue in delivery order for *applicable*
///   entries: if either the new alarm or the examined entry is
///   perceptible, time similarity must be *high* (window overlap); if both
///   are imperceptible, *high or medium* (grace overlap) suffices.
/// * **Selection** — among the applicable entries, pick the most
///   preferable per Table 1 (hardware similarity first, time similarity
///   as tie-break); among equally preferable entries the first found wins.
///
/// The hardware-similarity granularity is configurable for the §3.1.1
/// ablation (2-, 3-, or 4-level); the default is the canonical 3-level
/// scheme.
///
/// # Examples
///
/// ```
/// use simty_core::manager::AlarmManager;
/// use simty_core::policy::SimtyPolicy;
/// use simty_core::similarity::HardwareGranularity;
///
/// let manager = AlarmManager::new(Box::new(SimtyPolicy::new()));
/// assert_eq!(manager.policy_name(), "SIMTY");
///
/// let four_level = SimtyPolicy::with_granularity(HardwareGranularity::Four);
/// assert_eq!(four_level.granularity(), HardwareGranularity::Four);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SimtyPolicy {
    granularity: HardwareGranularity,
}

impl Default for SimtyPolicy {
    fn default() -> Self {
        SimtyPolicy {
            granularity: HardwareGranularity::Three,
        }
    }
}

impl SimtyPolicy {
    /// Creates the policy with the paper's 3-level hardware similarity.
    pub fn new() -> Self {
        SimtyPolicy::default()
    }

    /// Creates the policy with an alternative hardware-similarity
    /// granularity (§3.1.1 sketches 2- and 4-level variants).
    pub fn with_granularity(granularity: HardwareGranularity) -> Self {
        SimtyPolicy { granularity }
    }

    /// The configured hardware-similarity granularity.
    pub fn granularity(&self) -> HardwareGranularity {
        self.granularity
    }

    /// The search-phase applicability rule (§3.2.1): perceptibility on
    /// either side demands high time similarity; otherwise medium
    /// suffices. Low time similarity is never applicable.
    pub fn is_applicable(
        alarm_perceptible: bool,
        entry_perceptible: bool,
        time: TimeSimilarity,
    ) -> bool {
        match time {
            TimeSimilarity::High => true,
            TimeSimilarity::Medium => !alarm_perceptible && !entry_perceptible,
            TimeSimilarity::Low => false,
        }
    }

    /// Both placement entry points share this loop; `audit`, when
    /// present, receives one [`CandidateAudit`] per entry weighed and
    /// never influences the outcome.
    fn place_inner(
        &self,
        queue: &AlarmQueue,
        alarm: &Alarm,
        mut audit: Option<&mut Vec<CandidateAudit>>,
    ) -> Placement {
        let alarm_hw = alarm.known_hardware();
        let alarm_perceptible = alarm.is_perceptible();
        // Search-phase cutoff: a Window/PerceptibilityAware entry's window
        // and grace intersections both start at its delivery time (every
        // member interval starts at its own nominal, so the intersections
        // start at the latest nominal — which is the delivery time under
        // those disciplines). The queue is delivery-ordered, so once an
        // entry's delivery time passes the end of both candidate
        // intervals, no overlap — hence no applicable similarity — is
        // possible for it or anything after it.
        let cutoff = alarm.window_interval().end().max(alarm.grace_interval().end());
        let mut best: Option<(Preferability, usize)> = None;
        for (idx, entry) in queue.iter().enumerate() {
            if entry.delivery_time() > cutoff
                && matches!(
                    entry.discipline(),
                    DeliveryDiscipline::Window | DeliveryDiscipline::PerceptibilityAware
                )
            {
                // A manager's queue is discipline-homogeneous (entries are
                // only created with its policy's discipline), so everything
                // after this point is past the cutoff too.
                debug_assert!(queue.iter().skip(idx).all(|e| matches!(
                    e.discipline(),
                    DeliveryDiscipline::Window | DeliveryDiscipline::PerceptibilityAware
                )));
                if let Some(a) = audit.as_deref_mut() {
                    a.push(CandidateAudit {
                        index: idx,
                        delivery_time: entry.delivery_time(),
                        time: entry.time_similarity_to(alarm),
                        hw_rank: None,
                        preferability: None,
                        verdict: CandidateVerdict::PastCutoff,
                    });
                }
                break;
            }
            let time = entry.time_similarity_to(alarm);
            if !Self::is_applicable(alarm_perceptible, entry.is_perceptible(), time) {
                if let Some(a) = audit.as_deref_mut() {
                    a.push(CandidateAudit {
                        index: idx,
                        delivery_time: entry.delivery_time(),
                        time,
                        hw_rank: None,
                        preferability: None,
                        verdict: CandidateVerdict::NotApplicable,
                    });
                }
                continue;
            }
            let hw_rank = self.granularity.rank(
                alarm_hw,
                entry.hardware(),
                HardwareGranularity::default_energy_hungry(),
            );
            let pref = Preferability::from_ranks(hw_rank, time);
            if let Some(a) = audit.as_deref_mut() {
                // Provisionally outranked; the winner is corrected below.
                a.push(CandidateAudit {
                    index: idx,
                    delivery_time: entry.delivery_time(),
                    time,
                    hw_rank: Some(hw_rank),
                    preferability: Some(pref),
                    verdict: CandidateVerdict::Outranked,
                });
            }
            // Strictly-better comparison keeps the first found among ties.
            if best.is_none_or(|(b, _)| pref < b) {
                best = Some((pref, idx));
            }
        }
        if let (Some((_, idx)), Some(a)) = (best, audit) {
            if let Some(winner) = a.iter_mut().find(|c| c.index == idx) {
                winner.verdict = CandidateVerdict::Won;
            }
        }
        match best {
            Some((_, idx)) => Placement::Existing(idx),
            None => Placement::NewEntry,
        }
    }
}

impl AlignmentPolicy for SimtyPolicy {
    fn name(&self) -> &str {
        "SIMTY"
    }

    fn place(&self, queue: &AlarmQueue, alarm: &Alarm) -> Placement {
        self.place_inner(queue, alarm, None)
    }

    fn place_audited(
        &self,
        queue: &AlarmQueue,
        alarm: &Alarm,
        audit: &mut Vec<CandidateAudit>,
    ) -> Placement {
        self.place_inner(queue, alarm, Some(audit))
    }

    fn discipline(&self) -> DeliveryDiscipline {
        DeliveryDiscipline::PerceptibilityAware
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::QueueEntry;
    use crate::hardware::{HardwareComponent, HardwareSet};
    use crate::time::{SimDuration, SimTime};

    fn alarm_with(
        label: &str,
        nominal_s: u64,
        repeat_s: u64,
        alpha: f64,
        beta: f64,
        hw: HardwareSet,
        known: bool,
    ) -> Alarm {
        let mut a = Alarm::builder(label)
            .nominal(SimTime::from_secs(nominal_s))
            .repeating_static(SimDuration::from_secs(repeat_s))
            .window_fraction(alpha)
            .grace_fraction(beta)
            .hardware(hw)
            .build()
            .unwrap();
        if known {
            a.mark_hardware_known();
        }
        a
    }

    fn wifi() -> HardwareSet {
        HardwareComponent::Wifi.into()
    }

    fn wps() -> HardwareSet {
        HardwareComponent::Wifi | HardwareComponent::Cellular
    }

    fn queue_of(alarms: Vec<Alarm>) -> AlarmQueue {
        let mut q = AlarmQueue::new();
        for a in alarms {
            q.insert_entry(QueueEntry::new(a, DeliveryDiscipline::PerceptibilityAware));
        }
        q
    }

    #[test]
    fn applicability_rule() {
        use TimeSimilarity as T;
        // Perceptibility on either side requires high time similarity.
        assert!(SimtyPolicy::is_applicable(true, false, T::High));
        assert!(!SimtyPolicy::is_applicable(true, false, T::Medium));
        assert!(!SimtyPolicy::is_applicable(false, true, T::Medium));
        // Both imperceptible: medium suffices.
        assert!(SimtyPolicy::is_applicable(false, false, T::Medium));
        // Low is never applicable.
        assert!(!SimtyPolicy::is_applicable(false, false, T::Low));
    }

    #[test]
    fn prefers_hardware_similarity_over_time_similarity() {
        // Entry 0: wifi alarm, windows overlap the candidate (time high,
        // hw low vs wps? wifi vs wps is medium).
        // Entry 1: wps alarm, only graces overlap (time medium, hw high).
        let e0 = alarm_with("wifi", 100, 600, 0.75, 0.9, wifi(), true); // window [100,550]
        let e1 = alarm_with("wps", 700, 1000, 0.05, 0.9, wps(), true); // window [700,750], grace [700,1600]
        let q = queue_of(vec![e0, e1]);
        // Candidate: wps hardware, window [400,450], grace [400,1300].
        let cand = alarm_with("cand", 400, 1000, 0.05, 0.9, wps(), true);
        // vs e0: windows [400,450] x [100,550] overlap -> time high, hw medium -> rank 3.
        // vs e1: windows disjoint, graces overlap -> time medium, hw high -> rank 2.
        assert_eq!(SimtyPolicy::new().place(&q, &cand), Placement::Existing(1));
    }

    #[test]
    fn perceptible_alarm_only_joins_window_overlapping_entries() {
        let imperceptible = alarm_with("w", 100, 600, 0.1, 0.9, wifi(), true); // window [100,160]
        let q = queue_of(vec![imperceptible]);
        // Perceptible candidate whose grace overlaps but window does not.
        let cand = alarm_with(
            "notify",
            300,
            1800,
            0.01,
            0.9,
            HardwareComponent::Vibrator.into(),
            true,
        );
        assert_eq!(SimtyPolicy::new().place(&q, &cand), Placement::NewEntry);
    }

    #[test]
    fn unknown_hardware_alarm_is_treated_as_perceptible() {
        let imperceptible = alarm_with("w", 100, 600, 0.1, 0.9, wifi(), true);
        let q = queue_of(vec![imperceptible]);
        // Unknown hardware (not yet delivered) -> perceptible -> needs high
        // time similarity; only graces overlap here.
        let cand = alarm_with("new", 300, 600, 0.1, 0.9, wifi(), false);
        assert_eq!(SimtyPolicy::new().place(&q, &cand), Placement::NewEntry);
        // Once known, the same timing becomes applicable (both imperceptible).
        let cand_known = alarm_with("new2", 300, 600, 0.1, 0.9, wifi(), true);
        assert_eq!(SimtyPolicy::new().place(&q, &cand_known), Placement::Existing(0));
    }

    #[test]
    fn first_found_wins_among_equal_preferability() {
        let a = alarm_with("a", 100, 600, 0.75, 0.9, wifi(), true);
        let b = alarm_with("b", 110, 600, 0.75, 0.9, wifi(), true);
        let q = queue_of(vec![a, b]);
        // Candidate overlaps both windows with identical hardware -> both
        // rank 1; the earlier entry (queue position 0) is chosen.
        let cand = alarm_with("c", 120, 600, 0.75, 0.9, wifi(), true);
        assert_eq!(SimtyPolicy::new().place(&q, &cand), Placement::Existing(0));
    }

    #[test]
    fn empty_queue_creates_new_entry() {
        let q = AlarmQueue::new();
        let cand = alarm_with("c", 120, 600, 0.75, 0.9, wifi(), true);
        assert_eq!(SimtyPolicy::new().place(&q, &cand), Placement::NewEntry);
    }

    #[test]
    fn two_level_granularity_merges_medium_and_high() {
        // Entry 0: wifi entry with window overlap (time high).
        // Entry 1: wps entry with window overlap (time high), later in queue.
        let e0 = alarm_with("wifi", 100, 600, 0.75, 0.9, wifi(), true);
        let e1 = alarm_with("wps", 150, 600, 0.75, 0.9, wps(), true);
        let q = queue_of(vec![e0, e1]);
        let cand = alarm_with("c", 200, 600, 0.75, 0.9, wps(), true);
        // 3-level: e1 has hw high (rank 1) beats e0's medium (rank 3).
        assert_eq!(SimtyPolicy::new().place(&q, &cand), Placement::Existing(1));
        // 2-level: both share a component (rank 0); first found (e0) wins.
        let two = SimtyPolicy::with_granularity(HardwareGranularity::Two);
        assert_eq!(two.place(&q, &cand), Placement::Existing(0));
    }

    #[test]
    fn motivating_example_alignment() {
        // Figure 2: queue holds a calendar alarm (vibrator) whose window
        // overlaps the new WPS alarm's window, and a WPS alarm whose grace
        // interval overlaps the new alarm's grace interval. NATIVE picks the
        // calendar entry; SIMTY tolerates further postponement to join the
        // other WPS alarm.
        let calendar = alarm_with(
            "calendar",
            100,
            1800,
            0.05,
            0.06,
            HardwareComponent::Speaker | HardwareComponent::Vibrator,
            true,
        ); // window [100, 190]
        let wps_queued = alarm_with("wps1", 400, 1000, 0.05, 0.9, wps(), true); // window [400,450], grace [400,1300]
        let q = queue_of(vec![calendar, wps_queued]);
        let new_wps = alarm_with("wps2", 150, 1000, 0.05, 0.9, wps(), true); // window [150,200], grace [150,1050]

        // NATIVE behaviour (window overlap with the calendar entry).
        let native = crate::policy::NativePolicy::new();
        assert_eq!(native.place(&q, &new_wps), Placement::Existing(0));
        // SIMTY prefers the hardware-identical WPS entry via grace overlap.
        assert_eq!(SimtyPolicy::new().place(&q, &new_wps), Placement::Existing(1));
    }
}
