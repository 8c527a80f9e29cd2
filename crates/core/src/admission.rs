//! Per-app registration admission control.
//!
//! The paper's manager assumes well-behaved resident apps; a production
//! wakeup service does not get that luxury. [`AdmissionController`] puts a
//! deterministic token bucket in front of registration, keyed by app label
//! and split by [`AppClass`]: perceptible registrations (the ones a user
//! would notice losing) get their own, typically more generous, budget,
//! while deferrable (imperceptible) registrations can additionally be
//! *deferred* — pushed later by whole replenish periods — before they are
//! rejected outright. Apps that keep hammering a dry bucket are *demoted*:
//! the simulator composes this with the PR 2 quarantine ledger, so a
//! storming app's alarms lose their window guarantee exactly like a
//! watchdog offender's.
//!
//! All bucket arithmetic is integer millisecond math on the simulation
//! clock — no floats, no wall clock — so decisions replay bit-for-bit and
//! the whole controller round-trips through the checkpoint body.
//!
//! Bucket state is keyed by app *label* and never forgotten: cancelling
//! every alarm and re-registering under the same label continues from the
//! same bucket (and the same demotion), mirroring the sticky-quarantine
//! rule — quota debt cannot be laundered.
//!
//! # Examples
//!
//! ```
//! use simty_core::admission::{AdmissionConfig, AdmissionController, AppClass, AdmissionDecision};
//! use simty_core::time::SimTime;
//!
//! let mut ctl = AdmissionController::new(AdmissionConfig::default());
//! let burst = ctl.config().deferrable.burst;
//! // The bucket starts full: the first `burst` registrations sail through.
//! for _ in 0..burst {
//!     let a = ctl.decide("mail", AppClass::Deferrable, SimTime::ZERO);
//!     assert_eq!(a.decision, AdmissionDecision::Admit);
//! }
//! // The next one is deferred into the future instead of admitted now.
//! let a = ctl.decide("mail", AppClass::Deferrable, SimTime::ZERO);
//! assert!(matches!(a.decision, AdmissionDecision::Defer { .. }));
//! ```

use std::collections::BTreeMap;

use crate::alarm::Alarm;
use crate::manager::AlarmManager;
use crate::time::{SimDuration, SimTime};

/// The admission class of a registration.
///
/// Derived from [`Alarm::is_perceptible`](crate::alarm::Alarm::is_perceptible)
/// at the registration instant: an alarm the manager must treat as
/// perceptible (one-shot, unknown hardware, or perceptible hardware)
/// charges the perceptible budget; a known-imperceptible alarm is
/// deferrable work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppClass {
    /// The user would notice this registration being dropped or deferred.
    Perceptible,
    /// Postponable background work: may be deferred by whole replenish
    /// periods, and is the class the degradation governor sheds first.
    Deferrable,
}

impl AppClass {
    /// The class's display name (used in metric labels).
    pub fn name(self) -> &'static str {
        match self {
            AppClass::Perceptible => "perceptible",
            AppClass::Deferrable => "deferrable",
        }
    }
}

/// One class's token-bucket parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassQuota {
    /// How often the bucket earns one token.
    pub replenish_every: SimDuration,
    /// Bucket capacity; also the initial fill, so an app may burst this
    /// many registrations before the rate limit bites.
    pub burst: u32,
}

/// Controller-wide configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Budget for perceptible registrations (never deferred — rejected
    /// outright when dry, because silently sliding a perceptible alarm
    /// would break the window guarantee the user perceives).
    pub perceptible: ClassQuota,
    /// Budget for deferrable (imperceptible) registrations.
    pub deferrable: ClassQuota,
    /// How many whole replenish periods a deferrable registration may be
    /// pushed into the future before the controller gives up and rejects.
    pub defer_limit: u32,
    /// After this many *consecutive* rejections, the app is demoted
    /// (sticky for the rest of the run; the simulator quarantines it).
    pub demote_after: u32,
}

impl Default for AdmissionConfig {
    /// A budget generous enough that the paper's 18-app workload never
    /// notices it, while a storm (tens of registrations per minute from
    /// one label) drains it within a couple of periods.
    fn default() -> Self {
        AdmissionConfig {
            perceptible: ClassQuota {
                replenish_every: SimDuration::from_secs(30),
                burst: 16,
            },
            deferrable: ClassQuota {
                replenish_every: SimDuration::from_secs(60),
                burst: 8,
            },
            defer_limit: 4,
            demote_after: 8,
        }
    }
}

/// What to do with one registration attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Register now; a token was consumed.
    Admit,
    /// Register, but not before `until`: the caller shifts the alarm's
    /// nominal delivery time to at least that instant.
    Defer {
        /// Earliest admissible nominal delivery time.
        until: SimTime,
    },
    /// Do not register; the app's budget is dry and the defer horizon is
    /// exhausted (or the class never defers).
    Reject {
        /// How long until the bucket earns its next token.
        retry_after: SimDuration,
    },
}

/// The outcome of [`AdmissionController::decide`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admission {
    /// What to do with the registration.
    pub decision: AdmissionDecision,
    /// Whether the app is (now) demoted. The caller stamps demoted apps
    /// into the quarantine ledger so their alarms read imperceptible.
    pub demoted: bool,
    /// Whether *this* decision crossed the demotion threshold (fires
    /// exactly once per app; the caller's cue to quarantine and count).
    pub newly_demoted: bool,
}

/// One class's bucket for one app.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenBucket {
    /// Tokens currently available.
    pub tokens: u32,
    /// The instant the bucket last earned (or was created/saturated at);
    /// refill credit accrues from here in whole periods.
    pub last_refill: SimTime,
}

impl TokenBucket {
    fn full(quota: ClassQuota, now: SimTime) -> TokenBucket {
        TokenBucket {
            tokens: quota.burst,
            last_refill: now,
        }
    }

    /// Credits every whole replenish period elapsed since `last_refill`,
    /// capping at the burst size. Integer math only: `last_refill`
    /// advances by exactly the credited periods (or snaps to `now` when
    /// the bucket saturates), so the same call sequence always produces
    /// the same token stream.
    fn refill(&mut self, quota: ClassQuota, now: SimTime) {
        let period = quota.replenish_every.as_millis();
        if period == 0 {
            self.tokens = quota.burst;
            self.last_refill = now;
            return;
        }
        let elapsed = now.saturating_since(self.last_refill).as_millis();
        let earned = elapsed / period;
        if earned == 0 {
            return;
        }
        let tokens = u64::from(self.tokens) + earned;
        if tokens >= u64::from(quota.burst) {
            self.tokens = quota.burst;
            self.last_refill = now;
        } else {
            self.tokens = tokens as u32;
            self.last_refill += SimDuration::from_millis(earned * period);
        }
    }
}

/// Everything the controller tracks for one app label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppAdmission {
    /// Perceptible-class bucket.
    pub perceptible: TokenBucket,
    /// Deferrable-class bucket.
    pub deferrable: TokenBucket,
    /// The latest nominal time already handed out to a deferral; stacked
    /// deferrals queue behind it, one replenish period apart.
    pub defer_horizon: SimTime,
    /// Consecutive rejections (admissions reset it).
    pub rejections: u32,
    /// Sticky demotion flag.
    pub demoted: bool,
}

/// The deterministic per-app registration rate limiter (see the
/// [module documentation](self)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionController {
    config: AdmissionConfig,
    apps: BTreeMap<String, AppAdmission>,
}

impl AdmissionController {
    /// Creates a controller with the given budgets.
    pub fn new(config: AdmissionConfig) -> Self {
        AdmissionController {
            config,
            apps: BTreeMap::new(),
        }
    }

    /// The governing configuration.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// Decides one registration attempt for `app` at `now`.
    ///
    /// Demoted apps still spend tokens like everyone else — their
    /// admitted registrations simply arrive pre-quarantined (the caller
    /// reads [`Admission::demoted`]) — but they lose the defer courtesy:
    /// a dry bucket rejects immediately.
    pub fn decide(&mut self, app: &str, class: AppClass, now: SimTime) -> Admission {
        let config = self.config;
        let state = self
            .apps
            .entry(app.to_owned())
            .or_insert_with(|| AppAdmission {
                perceptible: TokenBucket::full(config.perceptible, now),
                deferrable: TokenBucket::full(config.deferrable, now),
                defer_horizon: SimTime::ZERO,
                rejections: 0,
                demoted: false,
            });
        let quota = match class {
            AppClass::Perceptible => config.perceptible,
            AppClass::Deferrable => config.deferrable,
        };
        let bucket = match class {
            AppClass::Perceptible => &mut state.perceptible,
            AppClass::Deferrable => &mut state.deferrable,
        };
        bucket.refill(quota, now);
        if bucket.tokens > 0 {
            bucket.tokens -= 1;
            state.rejections = 0;
            return Admission {
                decision: AdmissionDecision::Admit,
                demoted: state.demoted,
                newly_demoted: false,
            };
        }
        // Dry bucket. Deferrable registrations from apps in good standing
        // are pushed later instead of dropped, one replenish period per
        // already-outstanding deferral, up to the defer limit.
        if class == AppClass::Deferrable && !state.demoted {
            let until = state.defer_horizon.max(now) + quota.replenish_every;
            let horizon_cap = now + quota.replenish_every * u64::from(config.defer_limit);
            if until <= horizon_cap {
                state.defer_horizon = until;
                return Admission {
                    decision: AdmissionDecision::Defer { until },
                    demoted: false,
                    newly_demoted: false,
                };
            }
        }
        state.rejections += 1;
        let newly_demoted = !state.demoted && state.rejections >= config.demote_after;
        if newly_demoted {
            state.demoted = true;
        }
        let next_token = state_bucket(state, class).last_refill + quota.replenish_every;
        Admission {
            decision: AdmissionDecision::Reject {
                retry_after: next_token.saturating_since(now),
            },
            demoted: state.demoted,
            newly_demoted,
        }
    }

    /// The registration front door: decides `alarm` at `now` under the
    /// class its perceptibility gives it, and applies the decision. A
    /// decision that demotes the app quarantines its queued alarms in
    /// `manager` and this one; a deferral moves the nominal time to the
    /// deferral horizon when that is later. The caller counts the outcome
    /// and, on a rejection, drops the alarm.
    pub fn admit(
        &mut self,
        alarm: &mut Alarm,
        manager: &mut AlarmManager,
        now: SimTime,
    ) -> Admission {
        let class = if alarm.is_perceptible() {
            AppClass::Perceptible
        } else {
            AppClass::Deferrable
        };
        let outcome = self.decide(alarm.label(), class, now);
        if outcome.newly_demoted {
            manager.set_app_quarantined(alarm.label(), true);
            alarm.set_quarantined(true);
        }
        if let AdmissionDecision::Defer { until } = outcome.decision {
            if until > alarm.nominal() {
                alarm.reschedule(until);
            }
        }
        outcome
    }

    /// Whether `app` has been demoted (sticky).
    pub fn is_demoted(&self, app: &str) -> bool {
        self.apps.get(app).is_some_and(|s| s.demoted)
    }

    /// Per-app state in label order (checkpoint capture).
    pub fn apps(&self) -> impl Iterator<Item = (&str, &AppAdmission)> {
        self.apps.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of apps with tracked state.
    pub fn app_count(&self) -> usize {
        self.apps.len()
    }

    /// Rebuilds a controller from persisted state (checkpoint restore).
    pub fn restore(
        config: AdmissionConfig,
        apps: impl IntoIterator<Item = (String, AppAdmission)>,
    ) -> Self {
        AdmissionController {
            config,
            apps: apps.into_iter().collect(),
        }
    }
}

fn state_bucket(state: &AppAdmission, class: AppClass) -> &TokenBucket {
    match class {
        AppClass::Perceptible => &state.perceptible,
        AppClass::Deferrable => &state.deferrable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight() -> AdmissionConfig {
        AdmissionConfig {
            perceptible: ClassQuota {
                replenish_every: SimDuration::from_secs(30),
                burst: 2,
            },
            deferrable: ClassQuota {
                replenish_every: SimDuration::from_secs(60),
                burst: 2,
            },
            defer_limit: 2,
            demote_after: 3,
        }
    }

    #[test]
    fn burst_admits_then_defers_then_rejects() {
        let mut ctl = AdmissionController::new(tight());
        let t = SimTime::from_secs(10);
        for _ in 0..2 {
            let a = ctl.decide("mail", AppClass::Deferrable, t);
            assert_eq!(a.decision, AdmissionDecision::Admit);
        }
        // Two deferrals stack one period apart...
        let a = ctl.decide("mail", AppClass::Deferrable, t);
        assert_eq!(
            a.decision,
            AdmissionDecision::Defer {
                until: SimTime::from_secs(70)
            }
        );
        let a = ctl.decide("mail", AppClass::Deferrable, t);
        assert_eq!(
            a.decision,
            AdmissionDecision::Defer {
                until: SimTime::from_secs(130)
            }
        );
        // ...then the horizon is exhausted and rejection starts.
        let a = ctl.decide("mail", AppClass::Deferrable, t);
        assert!(matches!(a.decision, AdmissionDecision::Reject { .. }));
        assert!(!a.demoted);
    }

    #[test]
    fn perceptible_class_never_defers() {
        let mut ctl = AdmissionController::new(tight());
        let t = SimTime::ZERO;
        for _ in 0..2 {
            let a = ctl.decide("ring", AppClass::Perceptible, t);
            assert_eq!(a.decision, AdmissionDecision::Admit);
        }
        let a = ctl.decide("ring", AppClass::Perceptible, t);
        assert_eq!(
            a.decision,
            AdmissionDecision::Reject {
                retry_after: SimDuration::from_secs(30)
            }
        );
    }

    #[test]
    fn refill_earns_whole_periods_only() {
        let mut ctl = AdmissionController::new(tight());
        let t = SimTime::ZERO;
        for _ in 0..2 {
            ctl.decide("a", AppClass::Perceptible, t);
        }
        // 29 s: no token yet.
        let a = ctl.decide("a", AppClass::Perceptible, SimTime::from_secs(29));
        assert!(matches!(a.decision, AdmissionDecision::Reject { .. }));
        // 31 s: exactly one token earned; spend it, the next is dry again.
        let a = ctl.decide("a", AppClass::Perceptible, SimTime::from_secs(31));
        assert_eq!(a.decision, AdmissionDecision::Admit);
        let a = ctl.decide("a", AppClass::Perceptible, SimTime::from_secs(31));
        assert!(matches!(a.decision, AdmissionDecision::Reject { .. }));
        // The retry hint counts from the *earned* period boundary (30 s),
        // not from the query instant.
        if let AdmissionDecision::Reject { retry_after } = a.decision {
            assert_eq!(retry_after, SimDuration::from_secs(29));
        }
    }

    #[test]
    fn consecutive_rejections_demote_exactly_once() {
        let mut ctl = AdmissionController::new(tight());
        let t = SimTime::ZERO;
        // Drain the perceptible bucket.
        for _ in 0..2 {
            ctl.decide("storm", AppClass::Perceptible, t);
        }
        for i in 1..=2 {
            let a = ctl.decide("storm", AppClass::Perceptible, t);
            assert!(!a.demoted, "rejection {i} must not demote yet");
        }
        let a = ctl.decide("storm", AppClass::Perceptible, t);
        assert!(a.demoted && a.newly_demoted);
        assert!(ctl.is_demoted("storm"));
        // Sticky, but signalled only once.
        let a = ctl.decide("storm", AppClass::Perceptible, t);
        assert!(a.demoted && !a.newly_demoted);
    }

    #[test]
    fn demoted_apps_lose_the_defer_courtesy_but_keep_earning_tokens() {
        let mut ctl = AdmissionController::new(tight());
        let t = SimTime::ZERO;
        for _ in 0..2 {
            ctl.decide("storm", AppClass::Deferrable, t);
        }
        for _ in 0..2 {
            assert!(matches!(
                ctl.decide("storm", AppClass::Deferrable, t).decision,
                AdmissionDecision::Defer { .. }
            ));
        }
        for _ in 0..3 {
            ctl.decide("storm", AppClass::Deferrable, t);
        }
        assert!(ctl.is_demoted("storm"));
        // Dry + demoted -> straight rejection, no deferral.
        assert!(matches!(
            ctl.decide("storm", AppClass::Deferrable, t).decision,
            AdmissionDecision::Reject { .. }
        ));
        // But a refilled bucket still admits (pre-quarantined by caller).
        let later = SimTime::from_secs(120);
        let a = ctl.decide("storm", AppClass::Deferrable, later);
        assert_eq!(a.decision, AdmissionDecision::Admit);
        assert!(a.demoted);
    }

    #[test]
    fn admission_resets_the_rejection_streak() {
        let mut ctl = AdmissionController::new(tight());
        let t = SimTime::ZERO;
        for _ in 0..2 {
            ctl.decide("a", AppClass::Perceptible, t);
        }
        ctl.decide("a", AppClass::Perceptible, t); // reject 1
        ctl.decide("a", AppClass::Perceptible, t); // reject 2
                                                   // A token arrives; the streak resets before demotion at 3.
        let a = ctl.decide("a", AppClass::Perceptible, SimTime::from_secs(30));
        assert_eq!(a.decision, AdmissionDecision::Admit);
        ctl.decide("a", AppClass::Perceptible, SimTime::from_secs(30)); // reject 1
        assert!(!ctl.is_demoted("a"));
    }

    #[test]
    fn classes_have_independent_buckets() {
        let mut ctl = AdmissionController::new(tight());
        let t = SimTime::ZERO;
        for _ in 0..2 {
            assert_eq!(
                ctl.decide("a", AppClass::Perceptible, t).decision,
                AdmissionDecision::Admit
            );
        }
        // Perceptible is dry; deferrable is untouched.
        assert_eq!(
            ctl.decide("a", AppClass::Deferrable, t).decision,
            AdmissionDecision::Admit
        );
    }

    #[test]
    fn state_is_keyed_by_label_and_survives_restore() {
        let mut ctl = AdmissionController::new(tight());
        let t = SimTime::ZERO;
        for _ in 0..7 {
            ctl.decide("storm", AppClass::Perceptible, t);
        }
        assert!(ctl.is_demoted("storm"));
        assert!(!ctl.is_demoted("bystander"));
        let snapshot: Vec<(String, AppAdmission)> =
            ctl.apps().map(|(k, v)| (k.to_owned(), *v)).collect();
        let restored = AdmissionController::restore(*ctl.config(), snapshot);
        assert_eq!(restored, ctl);
        assert!(restored.is_demoted("storm"));
    }

    #[test]
    fn decisions_are_deterministic() {
        let run = || {
            let mut ctl = AdmissionController::new(AdmissionConfig::default());
            let mut out = Vec::new();
            for i in 0..40u64 {
                let class = if i % 3 == 0 {
                    AppClass::Perceptible
                } else {
                    AppClass::Deferrable
                };
                out.push(ctl.decide("app", class, SimTime::from_secs(i * 7)));
            }
            out
        };
        assert_eq!(run(), run());
    }
}
