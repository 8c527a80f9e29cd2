//! The placement loops as each policy carried its own copy before they
//! shared [`search`](super::search), kept as the differential-testing
//! reference. The policy tests drive random queues and alarms through
//! both and assert identical placements and audit rows.

use crate::alarm::Alarm;
use crate::audit::{CandidateAudit, CandidateVerdict};
use crate::entry::{DeliveryDiscipline, QueueEntry};
use crate::policy::{DurationSimilarityPolicy, Placement, SimtyPolicy};
use crate::queue::AlarmQueue;
use crate::similarity::{HardwareGranularity, Preferability, TimeSimilarity};
use crate::time::{SimDuration, SimTime};

/// SIMTY's search and selection phases at `granularity`.
pub(crate) fn simty(
    granularity: HardwareGranularity,
    queue: &AlarmQueue,
    alarm: &Alarm,
    mut audit: Option<&mut Vec<CandidateAudit>>,
) -> Placement {
    let alarm_hw = alarm.known_hardware();
    let alarm_perceptible = alarm.is_perceptible();
    let cutoff = alarm
        .window_interval()
        .end()
        .max(alarm.grace_interval().end());
    let mut best: Option<(Preferability, usize)> = None;
    for (idx, entry) in queue.iter().enumerate() {
        if entry.delivery_time() > cutoff
            && matches!(
                entry.discipline(),
                DeliveryDiscipline::Window | DeliveryDiscipline::PerceptibilityAware
            )
        {
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
        if !SimtyPolicy::is_applicable(alarm_perceptible, entry.is_perceptible(), time) {
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
        let hw_rank = granularity.rank(alarm_hw, entry.hardware());
        let pref = Preferability::from_ranks(hw_rank, time);
        if let Some(a) = audit.as_deref_mut() {
            a.push(CandidateAudit {
                index: idx,
                delivery_time: entry.delivery_time(),
                time,
                hw_rank: Some(hw_rank),
                preferability: Some(pref),
                verdict: CandidateVerdict::Outranked,
            });
        }
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

/// DURSIM: SIMTY's search, selection by `(hardware, duration, time)`.
pub(crate) fn dursim(
    queue: &AlarmQueue,
    alarm: &Alarm,
    mut audit: Option<&mut Vec<CandidateAudit>>,
) -> Placement {
    let alarm_hw = alarm.known_hardware();
    let alarm_perceptible = alarm.is_perceptible();
    let cutoff = alarm
        .window_interval()
        .end()
        .max(alarm.grace_interval().end());
    let mut best: Option<((u8, u8, u8), usize)> = None;
    for (idx, entry) in queue.iter().enumerate() {
        if entry.delivery_time() > cutoff
            && matches!(
                entry.discipline(),
                DeliveryDiscipline::Window | DeliveryDiscipline::PerceptibilityAware
            )
        {
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
        if !SimtyPolicy::is_applicable(alarm_perceptible, entry.is_perceptible(), time) {
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
        debug_assert_ne!(time, TimeSimilarity::Low);
        let hw_rank = HardwareGranularity::Three.rank(alarm_hw, entry.hardware());
        let dur_rank =
            DurationSimilarityPolicy::duration_rank(alarm.task_duration(), mean_duration(entry));
        let key = (hw_rank, dur_rank, time.rank());
        if let Some(a) = audit.as_deref_mut() {
            a.push(CandidateAudit {
                index: idx,
                delivery_time: entry.delivery_time(),
                time,
                hw_rank: Some(hw_rank),
                preferability: Some(Preferability::from_ranks(hw_rank, time)),
                verdict: CandidateVerdict::Outranked,
            });
        }
        if best.is_none_or(|(b, _)| key < b) {
            best = Some((key, idx));
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

fn mean_duration(entry: &QueueEntry) -> SimDuration {
    let total: SimDuration = entry.alarms().iter().map(Alarm::task_duration).sum();
    total / entry.len() as u64
}

/// NATIVE: the first entry whose window intersection overlaps the
/// alarm's window.
pub(crate) fn native(queue: &AlarmQueue, alarm: &Alarm) -> Placement {
    let window = alarm.window_interval();
    for (idx, entry) in queue.iter().enumerate() {
        if entry.delivery_time() > window.end()
            && matches!(
                entry.discipline(),
                DeliveryDiscipline::Window | DeliveryDiscipline::PerceptibilityAware
            )
        {
            break;
        }
        if entry.window().is_some_and(|w| w.overlaps(window)) {
            return Placement::Existing(idx);
        }
    }
    Placement::NewEntry
}

/// FIXED and DOZE: the first entry delivering at `target`.
pub(crate) fn first_at(queue: &AlarmQueue, target: SimTime) -> Placement {
    for (idx, entry) in queue.iter().enumerate() {
        if entry.delivery_time() == target {
            return Placement::Existing(idx);
        }
    }
    Placement::NewEntry
}
