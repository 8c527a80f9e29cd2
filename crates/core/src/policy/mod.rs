//! Alarm alignment policies.
//!
//! A policy decides, for every alarm being (re)inserted, which queue entry
//! should host it. Six policies ship with the crate:
//!
//! * [`ExactPolicy`] — no alignment; every alarm gets its own entry and is
//!   delivered at its nominal time (the "expected number of wakeups"
//!   denominator of the paper's Table 4).
//! * [`NativePolicy`] — Android ≥ 4.4's window-overlap batching with
//!   realignment on reinsert (§2.1).
//! * [`SimtyPolicy`] — the paper's similarity-based policy: a search phase
//!   filtering on time similarity and perceptibility, and a selection
//!   phase ranking by Table 1 (§3.2.1).
//! * [`DurationSimilarityPolicy`] — the §5 extension that additionally
//!   prefers entries whose tasks wakelock hardware for a similar duration.
//! * [`FixedIntervalPolicy`] — the fixed-grid "immediate remedy" baseline
//!   the paper cites from Lin et al. \[5\].
//! * [`DozePolicy`] — escalating maintenance windows in the spirit of
//!   Android 6's Doze, the platform's eventual answer to this problem.
//!
//! Every policy but EXACT finds its entry with one scan, `search`: a
//! search phase that filters entries, then a selection phase that ranks
//! the survivors by a policy-supplied key. NATIVE filters on window
//! overlap and takes the first entry found; SIMTY filters on time
//! similarity and perceptibility and ranks by Table 1; DURSIM adds task
//! duration to SIMTY's key; FIXED and DOZE take the first entry on their
//! grid point, and stop at the first one past it.
//!
//! Custom policies implement [`AlignmentPolicy`]; the trait is
//! object-safe, and the [`AlarmManager`](crate::manager::AlarmManager)
//! stores policies as `Box<dyn AlignmentPolicy>`.

mod doze;
mod duration;
mod exact;
mod fixed;
mod native;
mod simty;

pub use doze::DozePolicy;
pub use duration::DurationSimilarityPolicy;
pub use exact::ExactPolicy;
pub use fixed::FixedIntervalPolicy;
pub use native::NativePolicy;
pub use simty::SimtyPolicy;

use std::fmt;

use crate::alarm::Alarm;
use crate::audit::{CandidateAudit, CandidateVerdict};
use crate::entry::{DeliveryDiscipline, QueueEntry};
use crate::queue::AlarmQueue;
use crate::similarity::{Preferability, TimeSimilarity};
use crate::time::SimTime;

/// Where a new alarm should be placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Join the existing entry at this queue position.
    Existing(usize),
    /// No applicable entry exists (or the queue is empty): create a new
    /// entry for the alarm.
    NewEntry,
}

/// An alarm alignment policy.
///
/// Implementations must be deterministic: given the same queue and alarm
/// they must return the same [`Placement`], because experiment runs are
/// replayed bit-for-bit. Policies must also be [`Send`] + [`Sync`] so a
/// manager can be shared across threads; the built-in policies are
/// stateless, which satisfies this trivially.
///
/// # Examples
///
/// A policy that never aligns anything:
///
/// ```
/// use simty_core::alarm::Alarm;
/// use simty_core::entry::DeliveryDiscipline;
/// use simty_core::policy::{AlignmentPolicy, Placement};
/// use simty_core::queue::AlarmQueue;
///
/// #[derive(Debug)]
/// struct Isolate;
///
/// impl AlignmentPolicy for Isolate {
///     fn name(&self) -> &str {
///         "ISOLATE"
///     }
///
///     fn place(&self, _queue: &AlarmQueue, _alarm: &Alarm) -> Placement {
///         Placement::NewEntry
///     }
///
///     fn discipline(&self) -> DeliveryDiscipline {
///         DeliveryDiscipline::Window
///     }
/// }
/// ```
pub trait AlignmentPolicy: fmt::Debug + Send + Sync {
    /// A short display name used in reports (e.g. `"SIMTY"`).
    fn name(&self) -> &str;

    /// Chooses the entry that should host `alarm`, or
    /// [`Placement::NewEntry`] if none is applicable.
    ///
    /// The queue passed in has already had any stale copy of the same
    /// alarm removed by the manager.
    fn place(&self, queue: &AlarmQueue, alarm: &Alarm) -> Placement;

    /// [`place`](Self::place), additionally recording how every
    /// candidate entry fared into `audit` (one
    /// [`CandidateAudit`] per entry weighed, in queue order).
    ///
    /// Must return exactly the placement [`place`](Self::place) would:
    /// auditing is observation, never influence. The default
    /// implementation delegates to [`place`](Self::place) and records
    /// nothing. NATIVE, SIMTY and DURSIM override it: their rows carry
    /// each entry's time similarity and verdict, and SIMTY's and
    /// DURSIM's ranked rows also carry the hardware and Table 1 ranks.
    fn place_audited(
        &self,
        queue: &AlarmQueue,
        alarm: &Alarm,
        audit: &mut Vec<CandidateAudit>,
    ) -> Placement {
        let _ = audit;
        self.place(queue, alarm)
    }

    /// How entries created under this policy derive their delivery times.
    fn discipline(&self) -> DeliveryDiscipline;

    /// Whether reinserting an alarm that is still queued triggers
    /// realignment of its entry-mates (NATIVE does this, §2.1; SIMTY only
    /// removes the stale copy, §3.2.1).
    fn realigns_on_reinsert(&self) -> bool {
        false
    }
}

/// The one placement scan behind every policy that joins entries: the
/// search phase filters the queue's entries, the selection phase keeps
/// the applicable entry with the smallest key (§3.2.1).
///
/// Entries are weighed in delivery order. `cutoff`, when set, ends the
/// scan at the first entry that delivers after it; the caller vouches
/// that no such entry can be applicable. The queue is delivery-ordered
/// and a manager's queue is discipline-homogeneous (entries are only
/// created with its policy's discipline), so every later entry is past
/// the cutoff too. Under `Window` and `PerceptibilityAware`, every
/// member's intervals start at its nominal, so an entry's window and
/// grace intersections start at its latest nominal, which is its
/// delivery time: no entry past an alarm interval's end can overlap it.
/// Under FIXED's and DOZE's grids an entry joins only at its own grid
/// point, so none past the alarm's point can. `applicable` is the search
/// phase's filter, given the
/// entry and its [`TimeSimilarity`] to the alarm. `rank` gives each
/// applicable entry its selection key, and the hardware-similarity rank
/// its audit row shows, if the policy has one. A strictly smaller key is
/// needed to displace the best so far, so the first of equal keys wins.
/// A zero-sized key has one value, so the first applicable entry wins
/// outright and the scan stops there.
///
/// `audit`, when present, receives one [`CandidateAudit`] per entry
/// weighed and never influences the outcome. Inlined into each caller,
/// so `place`, which passes `None`, runs the loop without the audit
/// branches.
#[inline]
pub(crate) fn search<K: Ord>(
    queue: &AlarmQueue,
    alarm: &Alarm,
    cutoff: Option<SimTime>,
    applicable: impl Fn(&QueueEntry, TimeSimilarity) -> bool,
    rank: impl Fn(&QueueEntry, TimeSimilarity) -> (K, Option<u8>),
    mut audit: Option<&mut Vec<CandidateAudit>>,
) -> Placement {
    let first_row = audit.as_ref().map_or(0, |a| a.len());
    let mut best: Option<(K, usize)> = None;
    for (idx, entry) in queue.iter().enumerate() {
        let row = |time, hw_rank: Option<u8>, verdict| CandidateAudit {
            index: idx,
            delivery_time: entry.delivery_time(),
            time,
            hw_rank,
            preferability: hw_rank.map(|hw| Preferability::from_ranks(hw, time)),
            verdict,
        };
        if cutoff.is_some_and(|c| entry.delivery_time() > c) {
            if let Some(a) = audit.as_deref_mut() {
                let time = entry.time_similarity_to(alarm);
                a.push(row(time, None, CandidateVerdict::PastCutoff));
            }
            break;
        }
        let time = entry.time_similarity_to(alarm);
        if !applicable(entry, time) {
            if let Some(a) = audit.as_deref_mut() {
                a.push(row(time, None, CandidateVerdict::NotApplicable));
            }
            continue;
        }
        let (key, hw_rank) = rank(entry, time);
        if let Some(a) = audit.as_deref_mut() {
            // Provisionally outranked; the winner is corrected below.
            a.push(row(time, hw_rank, CandidateVerdict::Outranked));
        }
        if best.as_ref().is_none_or(|(b, _)| key < *b) {
            best = Some((key, idx));
        }
        if size_of::<K>() == 0 {
            break;
        }
    }
    let Some((_, idx)) = best else {
        return Placement::NewEntry;
    };
    if let Some(a) = audit {
        // One row per entry weighed, from queue position 0.
        a[first_row + idx].verdict = CandidateVerdict::Won;
    }
    Placement::Existing(idx)
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hardware::HardwareSet;
    use crate::similarity::HardwareGranularity;
    use crate::time::SimDuration;
    use proptest::prelude::*;

    #[test]
    fn trait_is_object_safe() {
        fn _takes_object(_p: &dyn AlignmentPolicy) {}
        let policies: Vec<Box<dyn AlignmentPolicy>> = vec![
            Box::new(ExactPolicy::new()),
            Box::new(NativePolicy::new()),
            Box::new(SimtyPolicy::new()),
            Box::new(DurationSimilarityPolicy::new()),
            Box::new(FixedIntervalPolicy::new(
                crate::time::SimDuration::from_secs(60),
            )),
            Box::new(DozePolicy::android_like()),
        ];
        let names: Vec<_> = policies.iter().map(|p| p.name().to_owned()).collect();
        assert_eq!(
            names,
            ["EXACT", "NATIVE", "SIMTY", "DURSIM", "FIXED", "DOZE"]
        );
    }

    /// A policy under differential test, with its reference loop in
    /// [`oracle`].
    #[derive(Debug, Clone, Copy)]
    enum Subject {
        Native,
        Simty(HardwareGranularity),
        Dursim,
        Fixed,
        Doze,
    }

    const SUBJECTS: [Subject; 7] = [
        Subject::Native,
        Subject::Simty(HardwareGranularity::Two),
        Subject::Simty(HardwareGranularity::Three),
        Subject::Simty(HardwareGranularity::Four),
        Subject::Dursim,
        Subject::Fixed,
        Subject::Doze,
    ];

    fn fixed() -> FixedIntervalPolicy {
        FixedIntervalPolicy::new(SimDuration::from_mins(5))
    }

    fn doze() -> DozePolicy {
        DozePolicy::new(SimDuration::from_mins(5), SimDuration::from_mins(20), 2)
    }

    impl Subject {
        fn policy(self) -> Box<dyn AlignmentPolicy> {
            match self {
                Subject::Native => Box::new(NativePolicy::new()),
                Subject::Simty(g) => Box::new(SimtyPolicy::with_granularity(g)),
                Subject::Dursim => Box::new(DurationSimilarityPolicy::new()),
                Subject::Fixed => Box::new(fixed()),
                Subject::Doze => Box::new(doze()),
            }
        }

        /// The reference placement, and the audit rows of the loops
        /// that kept them.
        fn oracle(
            self,
            queue: &AlarmQueue,
            alarm: &Alarm,
        ) -> (Placement, Option<Vec<CandidateAudit>>) {
            let mut rows = Vec::new();
            match self {
                Subject::Native => (oracle::native(queue, alarm), None),
                Subject::Simty(g) => (oracle::simty(g, queue, alarm, Some(&mut rows)), Some(rows)),
                Subject::Dursim => (oracle::dursim(queue, alarm, Some(&mut rows)), Some(rows)),
                Subject::Fixed => (
                    oracle::first_at(queue, fixed().grid_point(alarm.nominal())),
                    None,
                ),
                Subject::Doze => (
                    oracle::first_at(queue, doze().window_after(alarm.nominal())),
                    None,
                ),
            }
        }
    }

    /// One alarm of a script: nominal second, repeat choice (0 makes a
    /// one-shot), window and grace shape, hardware bits (the five
    /// imperceptible components, and the speaker in a third of draws),
    /// whether the hardware is known, task-duration choice, and a forced join
    /// (`Some(pick)` adds the alarm to entry `pick % len` whatever the
    /// policy says, which makes entries with empty intersections).
    #[derive(Debug, Clone)]
    struct Step {
        nominal_s: u64,
        repeat: u8,
        shape: u8,
        hw: u16,
        known: bool,
        task: u8,
        join: Option<usize>,
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        (
            (0..3_600u64, 0..5u8, 0..4u8, 0..48u16),
            (any::<bool>(), 0..6u8, 0..10u8, any::<usize>()),
        )
            .prop_map(
                |((nominal_s, repeat, shape, hw), (known, task, join, pick))| Step {
                    nominal_s,
                    repeat,
                    shape,
                    hw,
                    known,
                    task,
                    join: (join == 0).then_some(pick),
                },
            )
    }

    impl Step {
        fn alarm(&self) -> Alarm {
            const TASK_S: [u64; 6] = [0, 1, 2, 5, 15, 60];
            let builder = Alarm::builder("step")
                .nominal(SimTime::from_secs(self.nominal_s))
                .hardware(HardwareSet::from_bits(self.hw))
                .task_duration(SimDuration::from_secs(TASK_S[usize::from(self.task)]));
            let builder = match self.repeat {
                0 => builder
                    .one_shot()
                    .window(SimDuration::from_secs(u64::from(self.shape) * 60))
                    .grace(SimDuration::from_secs(u64::from(self.shape) * 120)),
                r => {
                    let alpha = [0.0, 0.1, 0.25, 0.75][usize::from(self.shape)];
                    let beta = if self.shape.is_multiple_of(2) {
                        0.96
                    } else {
                        0.8
                    };
                    builder
                        .repeating_static(SimDuration::from_secs(
                            [60, 300, 600, 1_800][usize::from(r - 1)],
                        ))
                        .window_fraction(alpha)
                        .grace_fraction(beta)
                }
            };
            let mut alarm = builder.build().unwrap();
            if self.known {
                alarm.mark_hardware_known();
            }
            alarm
        }
    }

    /// What the scripts exercised, summed to check the generator reaches
    /// every branch of the search.
    #[derive(Debug, Default)]
    struct Coverage {
        joined: u64,
        opened: u64,
        perceptible: u64,
        imperceptible: u64,
        unknown_hardware: u64,
        /// Audit rows seen, by verdict: won, outranked, not applicable,
        /// past the cutoff.
        verdicts: [u64; 4],
    }

    /// Places every step's alarm under `subject` through both the search
    /// and the oracle, asserting they agree, and applies the placement
    /// as the manager does.
    fn run_script(subject: Subject, steps: &[Step]) -> Result<Coverage, TestCaseError> {
        let policy = subject.policy();
        let mut queue = AlarmQueue::new();
        let mut coverage = Coverage::default();
        for step in steps {
            let alarm = step.alarm();
            let placed = policy.place(&queue, &alarm);
            let mut rows = Vec::new();
            let audited = policy.place_audited(&queue, &alarm, &mut rows);
            let (expected, expected_rows) = subject.oracle(&queue, &alarm);
            prop_assert_eq!(placed, expected, "{:?} placed {:?}", subject, step);
            prop_assert_eq!(audited, expected, "{:?} audited {:?}", subject, step);
            if let Some(expected_rows) = expected_rows {
                prop_assert_eq!(
                    &rows,
                    &expected_rows,
                    "{:?} audit rows for {:?}",
                    subject,
                    step
                );
            }
            let winners: Vec<usize> = rows
                .iter()
                .filter(|c| c.verdict == CandidateVerdict::Won)
                .map(|c| c.index)
                .collect();
            match (subject, audited) {
                // The grid policies weigh no similarity and record nothing.
                (Subject::Fixed | Subject::Doze, _) => prop_assert!(rows.is_empty()),
                (_, Placement::Existing(idx)) => prop_assert_eq!(winners, vec![idx]),
                (_, Placement::NewEntry) => prop_assert!(winners.is_empty()),
            }
            if let (Subject::Native, Placement::Existing(idx)) = (subject, audited) {
                // The first window-overlapping entry ends NATIVE's scan.
                prop_assert_eq!(rows.last().map(|c| c.index), Some(idx));
            }
            for c in &rows {
                coverage.verdicts[c.verdict as usize] += 1;
            }
            if alarm.is_perceptible() {
                coverage.perceptible += 1;
            } else {
                coverage.imperceptible += 1;
            }
            coverage.unknown_hardware += u64::from(!alarm.is_hardware_known());
            let placement = match (step.join, queue.len()) {
                (Some(pick), len) if len > 0 => Placement::Existing(pick % len),
                _ => expected,
            };
            match placement {
                Placement::Existing(idx) => {
                    coverage.joined += 1;
                    queue.add_to_entry(idx, alarm);
                }
                Placement::NewEntry => {
                    coverage.opened += 1;
                    queue.insert_new_entry(alarm, policy.discipline());
                }
            }
        }
        Ok(coverage)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The shared search places every alarm where each policy's own
        /// loop did, and SIMTY and DURSIM audit every candidate alike.
        #[test]
        fn search_matches_the_per_policy_loops(steps in prop::collection::vec(arb_step(), 1..80)) {
            for subject in SUBJECTS {
                run_script(subject, &steps)?;
            }
        }
    }

    /// The scripts reach both outcomes, perceptible, imperceptible and
    /// unknown-hardware alarms, and every verdict.
    #[test]
    fn search_scripts_reach_every_verdict() {
        let strategy = prop::collection::vec(arb_step(), 1..80);
        let mut total = Coverage::default();
        for case in 0..32 {
            let steps = strategy.new_value(&mut TestRng::for_case(case));
            for subject in SUBJECTS {
                let c = run_script(subject, &steps).expect("search and oracle agree");
                total.joined += c.joined;
                total.opened += c.opened;
                total.perceptible += c.perceptible;
                total.imperceptible += c.imperceptible;
                total.unknown_hardware += c.unknown_hardware;
                for (sum, n) in total.verdicts.iter_mut().zip(c.verdicts) {
                    *sum += n;
                }
            }
        }
        assert!(total.joined > 500 && total.opened > 500, "{total:?}");
        assert!(
            total.perceptible > 500 && total.imperceptible > 500,
            "{total:?}"
        );
        assert!(total.unknown_hardware > 500, "{total:?}");
        assert!(total.verdicts.iter().all(|&n| n > 100), "{total:?}");
    }
}
