//! Alarm alignment policies.
//!
//! A policy decides, for every alarm being (re)inserted, which queue entry
//! should host it. Four policies ship with the crate:
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
use crate::audit::CandidateAudit;
use crate::entry::DeliveryDiscipline;
use crate::queue::AlarmQueue;

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
    /// nothing, which is honest for policies whose search has no
    /// similarity ranking to expose; SIMTY and DURSIM override it.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_is_object_safe() {
        fn _takes_object(_p: &dyn AlignmentPolicy) {}
        let policies: Vec<Box<dyn AlignmentPolicy>> = vec![
            Box::new(ExactPolicy::new()),
            Box::new(NativePolicy::new()),
            Box::new(SimtyPolicy::new()),
            Box::new(DurationSimilarityPolicy::new()),
            Box::new(FixedIntervalPolicy::new(crate::time::SimDuration::from_secs(60))),
            Box::new(DozePolicy::android_like()),
        ];
        let names: Vec<_> = policies.iter().map(|p| p.name().to_owned()).collect();
        assert_eq!(names, ["EXACT", "NATIVE", "SIMTY", "DURSIM", "FIXED", "DOZE"]);
    }
}
