//! Placement decision auditing.
//!
//! The paper's Table 1 ranking is the heart of SIMTY, yet a normal run
//! leaves no trace of it: the policy inspects candidate entries, ranks
//! them by hardware/time similarity, and returns a bare
//! [`Placement`]. An audit record captures that reasoning — every
//! candidate considered, its similarity ranks, and why it won or lost —
//! so a run can answer "*why* was alarm X batched with entry Y?" after
//! the fact (surfaced by the `standby explain` subcommand).
//!
//! Policies fill in the per-candidate half via
//! [`AlignmentPolicy::place_audited`](crate::policy::AlignmentPolicy::place_audited);
//! the [`AlarmManager`](crate::manager::AlarmManager) wraps it with the
//! alarm's identity into one [`PlacementAudit`] per decision.

use std::sync::Arc;

use crate::alarm::AlarmId;
use crate::policy::Placement;
use crate::similarity::{Preferability, TimeSimilarity};
use crate::time::SimTime;

/// How one candidate entry fared during a placement search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateVerdict {
    /// The candidate won the selection phase: the alarm joins it.
    Won,
    /// Applicable, but a better-ranked candidate won.
    Outranked,
    /// Rejected by the search phase's applicability filter (low time
    /// similarity, or a perceptible party without high time similarity).
    NotApplicable,
    /// Past the alarm's delivery-order cutoff: this entry (and everything
    /// after it) delivers too late to host the alarm, so the search
    /// stopped here.
    PastCutoff,
}

impl CandidateVerdict {
    /// A stable snake_case name for exports.
    pub fn as_str(self) -> &'static str {
        match self {
            CandidateVerdict::Won => "won",
            CandidateVerdict::Outranked => "outranked",
            CandidateVerdict::NotApplicable => "not_applicable",
            CandidateVerdict::PastCutoff => "past_cutoff",
        }
    }
}

/// One candidate entry considered during a placement search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateAudit {
    /// The entry's queue position at decision time.
    pub index: usize,
    /// The entry's scheduled delivery time at decision time.
    pub delivery_time: SimTime,
    /// Time similarity between the entry and the alarm (§3.1).
    pub time: TimeSimilarity,
    /// Hardware-similarity rank (0 = most similar), when the search
    /// phase reached the ranking step; `None` for candidates rejected
    /// before ranking, and for every NATIVE candidate (NATIVE ranks
    /// nothing: the first window-overlapping entry wins).
    pub hw_rank: Option<u8>,
    /// The Table 1 preferability derived from the ranks, when ranked.
    pub preferability: Option<Preferability>,
    /// Why the candidate won or lost.
    pub verdict: CandidateVerdict,
}

/// One complete placement decision: which alarm was placed, where, and
/// every candidate the policy weighed.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementAudit {
    /// The manager clock when the decision was made.
    pub at: SimTime,
    /// The placed alarm's id.
    pub alarm_id: AlarmId,
    /// The placed alarm's app label.
    pub app: Arc<str>,
    /// The placed alarm's nominal time — together with
    /// [`alarm_id`](Self::alarm_id) this uniquely identifies one
    /// occurrence of a repeating alarm.
    pub nominal: SimTime,
    /// Whether the placed alarm is perceptible.
    pub perceptible: bool,
    /// The decision's outcome.
    pub placement: Placement,
    /// Every candidate entry the policy weighed, in queue order. Empty
    /// for policies that do not audit their search (or when the queue
    /// held no candidates).
    pub candidates: Vec<CandidateAudit>,
}

/// How much of each placement decision an
/// [`AlarmManager`](crate::manager::AlarmManager) records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditLevel {
    /// Nothing.
    Off,
    /// Only each decision's outcome, tallied into a [`PlacementTally`].
    /// The policy places without auditing its candidates.
    Outcomes,
    /// One [`PlacementAudit`] per decision, candidates included.
    Full,
}

/// Placement outcomes tallied at [`AuditLevel::Outcomes`] since the last
/// [`take_placement_tally`](crate::manager::AlarmManager::take_placement_tally).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlacementTally {
    /// Decisions that joined an existing entry.
    pub existing: u64,
    /// Decisions that opened a new entry.
    pub new_entry: u64,
}

impl PlacementTally {
    /// Decisions tallied, whatever their outcome.
    pub fn total(&self) -> u64 {
        self.existing + self.new_entry
    }
}

impl PlacementAudit {
    /// The winning candidate, if an existing entry was chosen by an
    /// auditing policy.
    pub fn winner(&self) -> Option<&CandidateAudit> {
        self.candidates
            .iter()
            .find(|c| c.verdict == CandidateVerdict::Won)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn winner_is_found_by_verdict() {
        let candidate = |index, verdict| CandidateAudit {
            index,
            delivery_time: SimTime::from_secs(60),
            time: TimeSimilarity::High,
            hw_rank: Some(0),
            preferability: Some(Preferability::from_ranks(0, TimeSimilarity::High)),
            verdict,
        };
        let audit = PlacementAudit {
            at: SimTime::from_secs(10),
            alarm_id: AlarmId::from_raw(7),
            app: "Line".into(),
            nominal: SimTime::from_secs(60),
            perceptible: false,
            placement: Placement::Existing(1),
            candidates: vec![
                candidate(0, CandidateVerdict::Outranked),
                candidate(1, CandidateVerdict::Won),
            ],
        };
        assert_eq!(audit.winner().unwrap().index, 1);
        assert_eq!(CandidateVerdict::Won.as_str(), "won");
        assert_eq!(CandidateVerdict::NotApplicable.as_str(), "not_applicable");
    }
}
