//! Deterministic, seeded fault injection.
//!
//! The paper's §1 motivates wakeup management partly with *no-sleep
//! bugs*: misbehaving apps that hold wakelocks and drain the battery
//! imperceptibly. A production alarm manager must keep its delivery
//! guarantees *while* such bugs happen — while tasks overrun, locks
//! leak, apps crash, pushes storm, and the RTC jitters. This module is
//! the adversary side of that story: a [`FaultPlan`] is a builder-style,
//! seeded schedule of faults (mirroring
//! [`PushPlan`](../../simty_apps/push/struct.PushPlan.html)'s style)
//! that the engine compiles into events and per-delivery perturbations.
//! The defender side is the online watchdog in [`crate::watchdog`]
//! ([`OnlineWatchdogConfig`](crate::watchdog::OnlineWatchdogConfig)),
//! which detects the injected no-sleep bugs at runtime, force-releases
//! the offender, and quarantines repeat offenders; the referee is the
//! [`InvariantMonitor`](crate::invariant::InvariantMonitor), which
//! asserts that the paper's zero-delay guarantee for perceptible alarms
//! survives every plan.
//!
//! Everything is deterministic: the same seed yields the same fault
//! schedule on every run, thread, and platform (the workspace's vendored
//! [`rand`] shim is a fixed SplitMix64 stream), so chaos campaigns are
//! byte-replayable.
//!
//! # Fault vocabulary
//!
//! * **RTC jitter** — wakeup fires land up to a bounded delay late
//!   (crystal drift, interrupt latency). Applied as a pure function of
//!   the nominal fire time, so re-arming the same fire re-derives the
//!   same jitter.
//! * **Dropped fires** — an RTC interrupt is lost; the engine's
//!   supervisory re-arm retries after a short delay, with the total
//!   lateness per fire bounded.
//! * **Task overruns** — a delivered task holds the CPU and its locks
//!   far past its declared duration: a synthetic no-sleep bug.
//! * **Wakelock leaks** — the task ends but its hardware locks persist
//!   for a bounded leak duration.
//! * **App crash/restart** — all of an app's alarms are cancelled at the
//!   crash instant and re-registered after a restart delay.
//! * **Activation failures** — a task's hardware fails to power up; the
//!   engine retries with capped exponential backoff.
//! * **Push storms** — bursts of external wakes layered on top of the
//!   workload, seeded like [`PushPlan`]'s Bernoulli arrivals.
//!
//! [`PushPlan`]: ../../simty_apps/push/struct.PushPlan.html

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simty_core::time::{SimDuration, SimTime};

/// One scheduled app crash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashSpec {
    /// The label whose alarms are cancelled.
    pub app: String,
    /// When the crash happens.
    pub at: SimTime,
    /// How long until the process restarts and re-registers.
    pub restart_after: SimDuration,
}

/// One push-storm burst: seeded Bernoulli external wakes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StormSpec {
    /// When the burst begins.
    pub start: SimTime,
    /// How long it lasts.
    pub duration: SimDuration,
    /// Mean inter-arrival time within the burst.
    pub mean_interval: SimDuration,
}

/// A deterministic, seeded fault schedule.
///
/// Build one with the `with_*` methods and hand it to
/// [`Simulation::inject_faults`](crate::engine::Simulation::inject_faults)
/// before running. All knobs default to *off*; a default plan injects
/// nothing.
///
/// # Examples
///
/// ```
/// use simty_core::time::{SimDuration, SimTime};
/// use simty_sim::fault::FaultPlan;
///
/// let plan = FaultPlan::new(42)
///     .with_rtc_jitter(SimDuration::from_millis(500))
///     .with_task_overruns(0.05, SimDuration::from_secs(300))
///     .with_app_crash("mail", SimTime::from_secs(600), SimDuration::from_secs(120));
/// assert!(plan.delivery_slack() >= SimDuration::from_millis(500));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    pub(crate) seed: u64,
    pub(crate) rtc_jitter: SimDuration,
    pub(crate) drop_fire_p: f64,
    pub(crate) drop_retry: SimDuration,
    pub(crate) drop_cap: u32,
    pub(crate) overrun_p: f64,
    pub(crate) overrun: SimDuration,
    pub(crate) leak_p: f64,
    pub(crate) leak: SimDuration,
    pub(crate) activation_failure_p: f64,
    pub(crate) backoff_base: SimDuration,
    pub(crate) backoff_cap: SimDuration,
    pub(crate) max_attempts: u32,
    pub(crate) crashes: Vec<CrashSpec>,
    pub(crate) storms: Vec<StormSpec>,
}

fn assert_probability(p: f64, what: &str) {
    assert!(
        (0.0..=1.0).contains(&p),
        "{what} probability {p} out of [0, 1]"
    );
}

/// SplitMix64 finalizer: the pure hash behind stateless draws (RTC
/// jitter), so the same fire time always jitters identically.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

impl FaultPlan {
    /// Creates an empty (fault-free) plan with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rtc_jitter: SimDuration::ZERO,
            drop_fire_p: 0.0,
            drop_retry: SimDuration::from_secs(1),
            drop_cap: 2,
            overrun_p: 0.0,
            overrun: SimDuration::ZERO,
            leak_p: 0.0,
            leak: SimDuration::ZERO,
            activation_failure_p: 0.0,
            backoff_base: SimDuration::from_millis(250),
            backoff_cap: SimDuration::from_secs(2),
            max_attempts: 4,
            crashes: Vec::new(),
            storms: Vec::new(),
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Wakeup fires land up to `max_jitter` late (uniform, per fire
    /// time).
    pub fn with_rtc_jitter(mut self, max_jitter: SimDuration) -> Self {
        self.rtc_jitter = max_jitter;
        self
    }

    /// Each due RTC fire is lost with probability `p`; the supervisory
    /// re-arm retries `retry` later. At most [`Self::drop_cap`]
    /// consecutive losses are injected per fire, bounding the added
    /// lateness.
    pub fn with_dropped_fires(mut self, p: f64, retry: SimDuration) -> Self {
        assert_probability(p, "dropped-fire");
        assert!(!retry.is_zero(), "drop retry delay must be positive");
        self.drop_fire_p = p;
        self.drop_retry = retry;
        self
    }

    /// Each delivery overruns its declared task duration by `extra` with
    /// probability `p` — the synthetic no-sleep bug the online watchdog
    /// is built to catch.
    pub fn with_task_overruns(mut self, p: f64, extra: SimDuration) -> Self {
        assert_probability(p, "task-overrun");
        self.overrun_p = p;
        self.overrun = extra;
        self
    }

    /// Each delivery leaks its hardware wakelocks for `extra` beyond the
    /// task's end with probability `p` (bounded leak duration).
    pub fn with_wakelock_leaks(mut self, p: f64, extra: SimDuration) -> Self {
        assert_probability(p, "wakelock-leak");
        self.leak_p = p;
        self.leak = extra;
        self
    }

    /// Each delivery's hardware activation fails transiently with
    /// probability `p`; the engine retries with exponential backoff from
    /// 250 ms, capped at 2 s, forcing success after 4 attempts.
    pub fn with_activation_failures(mut self, p: f64) -> Self {
        assert_probability(p, "activation-failure");
        self.activation_failure_p = p;
        self
    }

    /// Crashes `app` at `at`: every alarm registered under the label is
    /// cancelled and re-registered `restart_after` later (with nominal
    /// times advanced past the outage where needed).
    pub fn with_app_crash(
        mut self,
        app: impl Into<String>,
        at: SimTime,
        restart_after: SimDuration,
    ) -> Self {
        self.crashes.push(CrashSpec {
            app: app.into(),
            at,
            restart_after,
        });
        self
    }

    /// Adds a push-storm burst: external wakes with the given mean
    /// inter-arrival time between `start` and `start + duration`.
    pub fn with_push_storm(
        mut self,
        start: SimTime,
        duration: SimDuration,
        mean_interval: SimDuration,
    ) -> Self {
        assert!(
            mean_interval >= SimDuration::from_secs(1),
            "storm mean interval must be at least one second"
        );
        self.storms.push(StormSpec {
            start,
            duration,
            mean_interval,
        });
        self
    }

    /// The scheduled crashes.
    pub fn crashes(&self) -> &[CrashSpec] {
        &self.crashes
    }

    /// Maximum consecutive dropped fires injected per wakeup fire.
    pub fn drop_cap(&self) -> u32 {
        self.drop_cap
    }

    /// How much environmental delay this plan can add to a wakeup
    /// delivery beyond the device's wake latency: the jitter bound plus
    /// the worst-case dropped-fire lateness. The
    /// [`InvariantMonitor`](crate::invariant::InvariantMonitor) widens
    /// its perceptible-window check by exactly this much — the *policy*
    /// still gets zero extra slack.
    pub fn delivery_slack(&self) -> SimDuration {
        let drop_lateness = if self.drop_fire_p > 0.0 {
            self.drop_retry * u64::from(self.drop_cap)
        } else {
            SimDuration::ZERO
        };
        self.rtc_jitter + drop_lateness
    }

    /// The storm arrival instants, seeded per burst: second-granularity
    /// Bernoulli arrivals exactly like `PushPlan::arrivals`.
    pub fn storm_arrivals(&self) -> Vec<SimTime> {
        let mut times = Vec::new();
        for (i, storm) in self.storms.iter().enumerate() {
            let mut rng =
                StdRng::seed_from_u64(self.seed ^ mix64(0x5707_u64.wrapping_add(i as u64)));
            let p = (1.0 / storm.mean_interval.as_secs_f64()).min(1.0);
            let start_s = storm.start.as_millis().div_ceil(1_000);
            let end_s = (storm.start + storm.duration).as_millis() / 1_000;
            for s in start_s..=end_s {
                if rng.gen_bool(p) {
                    times.push(SimTime::from_secs(s));
                }
            }
        }
        times.sort();
        times
    }
}

/// One scheduled device reboot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebootSpec {
    /// When the device loses power.
    pub at: SimTime,
    /// How long it stays down before boot completes.
    pub outage: SimDuration,
}

/// A deterministic, seeded schedule of device reboots — the harshest
/// fault in the vocabulary: the simulated phone loses power mid-standby,
/// dropping every wakelock, in-flight task, and pending retry. Alarms
/// survive only because apps re-register them at boot, and the engine
/// catches up on fires missed during the outage (charged against the
/// perceptible-window guarantee, widened by exactly
/// [`delivery_slack`](Self::delivery_slack)).
///
/// Composable with a [`FaultPlan`]: hand both to the engine and the
/// reboots land on top of the plan's jitter/drops/crashes.
///
/// # Examples
///
/// ```
/// use simty_core::time::{SimDuration, SimTime};
/// use simty_sim::fault::RebootPlan;
///
/// let plan = RebootPlan::new(7)
///     .with_reboot(SimTime::from_secs(2 * 3600), SimDuration::from_secs(90))
///     .with_periodic(
///         SimDuration::from_hours(8),
///         SimDuration::from_mins(30),
///         SimDuration::from_secs(60),
///         SimDuration::from_hours(24),
///     );
/// assert!(plan.reboots().len() >= 3);
/// assert_eq!(plan.delivery_slack(), SimDuration::from_secs(90));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RebootPlan {
    pub(crate) seed: u64,
    pub(crate) reboots: Vec<RebootSpec>,
}

impl RebootPlan {
    /// Creates an empty (reboot-free) plan with the given seed.
    pub fn new(seed: u64) -> Self {
        RebootPlan {
            seed,
            reboots: Vec::new(),
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Schedules one reboot: the device dies at `at` and boot completes
    /// `outage` later.
    pub fn with_reboot(mut self, at: SimTime, outage: SimDuration) -> Self {
        assert!(!outage.is_zero(), "reboot outage must be positive");
        self.reboots.push(RebootSpec { at, outage });
        self.reboots.sort_by_key(|r| r.at);
        self
    }

    /// Schedules seeded-periodic reboots: one kill roughly every `every`
    /// up to `horizon`, each shifted by a deterministic jitter in
    /// `[0, jitter]` (a pure function of the seed and the period index),
    /// with a fixed `outage` per reboot.
    pub fn with_periodic(
        mut self,
        every: SimDuration,
        jitter: SimDuration,
        outage: SimDuration,
        horizon: SimDuration,
    ) -> Self {
        assert!(!every.is_zero(), "reboot period must be positive");
        assert!(!outage.is_zero(), "reboot outage must be positive");
        let mut k = 0u64;
        loop {
            k += 1;
            let base = every * k;
            if base > horizon {
                break;
            }
            let shift = if jitter.is_zero() {
                SimDuration::ZERO
            } else {
                SimDuration::from_millis(
                    mix64(self.seed ^ mix64(0x12E_B007u64.wrapping_add(k)))
                        % (jitter.as_millis() + 1),
                )
            };
            self.reboots.push(RebootSpec {
                at: SimTime::ZERO + base + shift,
                outage,
            });
        }
        self.reboots.sort_by_key(|r| r.at);
        self
    }

    /// The scheduled reboots in kill order.
    pub fn reboots(&self) -> &[RebootSpec] {
        &self.reboots
    }

    /// How late a delivery can land purely because of an outage: an
    /// alarm due the instant the device dies waits out the whole outage
    /// and is caught up at boot completion. The
    /// [`InvariantMonitor`](crate::invariant::InvariantMonitor) widens
    /// its perceptible-window check by exactly this much — the longest
    /// scheduled outage.
    pub fn delivery_slack(&self) -> SimDuration {
        self.reboots
            .iter()
            .map(|r| r.outage)
            .max()
            .unwrap_or(SimDuration::ZERO)
    }
}

/// The engine-side runtime of a [`FaultPlan`]: a stateful RNG stream
/// drawn in event order, plus the per-fire drop bookkeeping.
#[derive(Debug)]
pub(crate) struct FaultState {
    pub(crate) plan: FaultPlan,
    pub(crate) rng: StdRng,
    /// The fire time currently being dropped, and how many times.
    pub(crate) dropping: Option<(SimTime, u32)>,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        let rng = StdRng::seed_from_u64(mix64(plan.seed ^ 0xFA017));
        FaultState {
            plan,
            rng,
            dropping: None,
        }
    }

    /// Rebuilds the runtime from checkpointed parts: the plan, the RNG's
    /// raw state word, and the in-flight drop bookkeeping. Because the
    /// vendored RNG's `seed_from_u64` is the identity on its state, the
    /// restored stream continues exactly where the original left off.
    pub(crate) fn restore(
        plan: FaultPlan,
        rng_state: u64,
        dropping: Option<(SimTime, u32)>,
    ) -> Self {
        FaultState {
            plan,
            rng: StdRng::seed_from_u64(rng_state),
            dropping,
        }
    }

    /// Jitter for the wakeup fire nominally at `fire`: a pure function
    /// of (seed, fire), so repeated arming of the same head re-derives
    /// the same jittered instant and the event dedup keeps working.
    pub(crate) fn jitter_for(&self, fire: SimTime) -> SimDuration {
        let max = self.plan.rtc_jitter.as_millis();
        if max == 0 {
            return SimDuration::ZERO;
        }
        let h = mix64(self.plan.seed ^ mix64(fire.as_millis()));
        SimDuration::from_millis(h % (max + 1))
    }

    /// Whether the due fire for head time `head`, observed at `now`, is
    /// lost. Returns the retry delay when dropped. The added lateness
    /// per head is bounded by `drop_cap * retry`, keeping the
    /// invariant-monitor slack exact.
    pub(crate) fn drop_fire(&mut self, head: SimTime, now: SimTime) -> Option<SimDuration> {
        if self.plan.drop_fire_p == 0.0 {
            return None;
        }
        let count = match self.dropping {
            Some((h, c)) if h == head => c,
            _ => 0,
        };
        if count >= self.plan.drop_cap {
            return None;
        }
        // Never let a retry land beyond the bounded lateness.
        let lateness_cap = head + self.plan.drop_retry * u64::from(self.plan.drop_cap);
        if now + self.plan.drop_retry > lateness_cap {
            return None;
        }
        if self.rng.gen_bool(self.plan.drop_fire_p) {
            self.dropping = Some((head, count + 1));
            Some(self.plan.drop_retry)
        } else {
            self.dropping = None;
            None
        }
    }

    /// Extra task duration for this delivery (zero = no overrun).
    pub(crate) fn overrun(&mut self) -> SimDuration {
        if self.plan.overrun_p > 0.0 && self.rng.gen_bool(self.plan.overrun_p) {
            self.plan.overrun
        } else {
            SimDuration::ZERO
        }
    }

    /// Extra wakelock hold beyond the task end (zero = no leak).
    pub(crate) fn leak(&mut self) -> SimDuration {
        if self.plan.leak_p > 0.0 && self.rng.gen_bool(self.plan.leak_p) {
            self.plan.leak
        } else {
            SimDuration::ZERO
        }
    }

    /// Whether the activation attempt number `attempt` (0 = the original
    /// try) fails; returns the backoff before the next attempt. Success
    /// is forced once `max_attempts` is reached so no alarm's hardware
    /// is lost forever.
    pub(crate) fn activation_fails(&mut self, attempt: u32) -> Option<SimDuration> {
        if self.plan.activation_failure_p == 0.0 || attempt >= self.plan.max_attempts {
            return None;
        }
        if self.rng.gen_bool(self.plan.activation_failure_p) {
            let shift = attempt.min(16);
            let backoff = (self.plan.backoff_base * (1u64 << shift)).min(self.plan.backoff_cap);
            Some(backoff)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_injects_nothing() {
        let mut s = FaultState::new(FaultPlan::new(7));
        assert_eq!(s.jitter_for(SimTime::from_secs(100)), SimDuration::ZERO);
        assert_eq!(
            s.drop_fire(SimTime::from_secs(100), SimTime::from_secs(100)),
            None
        );
        assert_eq!(s.overrun(), SimDuration::ZERO);
        assert_eq!(s.leak(), SimDuration::ZERO);
        assert_eq!(s.activation_fails(0), None);
        assert_eq!(FaultPlan::new(7).delivery_slack(), SimDuration::ZERO);
        assert!(FaultPlan::new(7).storm_arrivals().is_empty());
    }

    #[test]
    fn jitter_is_bounded_and_stable_per_fire_time() {
        let plan = FaultPlan::new(11).with_rtc_jitter(SimDuration::from_secs(2));
        let s = FaultState::new(plan.clone());
        let s2 = FaultState::new(plan);
        let mut seen_nonzero = false;
        for i in 0..200u64 {
            let t = SimTime::from_secs(60 * i);
            let j = s.jitter_for(t);
            assert!(j <= SimDuration::from_secs(2));
            assert_eq!(j, s2.jitter_for(t), "jitter must be a pure function");
            seen_nonzero |= !j.is_zero();
        }
        assert!(seen_nonzero);
    }

    #[test]
    fn dropped_fire_lateness_is_capped() {
        let plan = FaultPlan::new(3).with_dropped_fires(1.0, SimDuration::from_secs(1));
        let cap = plan.drop_cap();
        let mut s = FaultState::new(plan);
        let head = SimTime::from_secs(100);
        let mut now = head;
        let mut drops = 0;
        while let Some(retry) = s.drop_fire(head, now) {
            now += retry;
            drops += 1;
            assert!(drops <= cap, "unbounded consecutive drops");
        }
        assert_eq!(drops, cap);
        // A new head resets the counter.
        assert!(s
            .drop_fire(SimTime::from_secs(500), SimTime::from_secs(500))
            .is_some());
    }

    #[test]
    fn activation_backoff_grows_and_is_capped() {
        let plan = FaultPlan::new(5).with_activation_failures(1.0);
        let mut s = FaultState::new(plan);
        let b0 = s.activation_fails(0).unwrap();
        let b1 = s.activation_fails(1).unwrap();
        let b3 = s.activation_fails(3).unwrap();
        assert_eq!(b0, SimDuration::from_millis(250));
        assert_eq!(b1, SimDuration::from_millis(500));
        assert_eq!(b3, SimDuration::from_secs(2)); // capped
                                                   // Forced success at the attempt cap.
        assert_eq!(s.activation_fails(4), None);
    }

    #[test]
    fn storms_are_seed_deterministic_and_windowed() {
        let plan = |seed| {
            FaultPlan::new(seed).with_push_storm(
                SimTime::from_secs(100),
                SimDuration::from_secs(300),
                SimDuration::from_secs(5),
            )
        };
        let a = plan(1).storm_arrivals();
        let b = plan(1).storm_arrivals();
        let c = plan(2).storm_arrivals();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(!a.is_empty());
        assert!(a
            .iter()
            .all(|t| *t >= SimTime::from_secs(100) && *t <= SimTime::from_secs(400)));
    }

    #[test]
    fn slack_covers_jitter_and_drops() {
        let plan = FaultPlan::new(0)
            .with_rtc_jitter(SimDuration::from_secs(2))
            .with_dropped_fires(0.1, SimDuration::from_secs(1));
        assert_eq!(
            plan.delivery_slack(),
            SimDuration::from_secs(2) + SimDuration::from_secs(1) * u64::from(plan.drop_cap())
        );
    }

    #[test]
    #[should_panic(expected = "out of [0, 1]")]
    fn probabilities_are_validated() {
        let _ = FaultPlan::new(0).with_task_overruns(1.5, SimDuration::ZERO);
    }

    #[test]
    fn reboot_plan_is_sorted_and_seed_deterministic() {
        let plan = |seed| {
            RebootPlan::new(seed).with_periodic(
                SimDuration::from_hours(6),
                SimDuration::from_hours(1),
                SimDuration::from_secs(45),
                SimDuration::from_hours(24),
            )
        };
        let a = plan(1);
        let b = plan(1);
        let c = plan(2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.reboots().len(), 4);
        assert!(a.reboots().windows(2).all(|w| w[0].at <= w[1].at));
        // Every kill lands within [k*period, k*period + jitter].
        for (k, r) in a.reboots().iter().enumerate() {
            let base = SimTime::ZERO + SimDuration::from_hours(6) * (k as u64 + 1);
            assert!(r.at >= base && r.at <= base + SimDuration::from_hours(1));
        }
        assert_eq!(a.delivery_slack(), SimDuration::from_secs(45));
    }

    #[test]
    fn explicit_reboots_sort_into_place() {
        let plan = RebootPlan::new(0)
            .with_reboot(SimTime::from_secs(5 * 3600), SimDuration::from_secs(30))
            .with_reboot(SimTime::from_secs(3600), SimDuration::from_secs(120));
        assert_eq!(plan.reboots()[0].at, SimTime::from_secs(3600));
        assert_eq!(plan.delivery_slack(), SimDuration::from_secs(120));
        assert_eq!(RebootPlan::new(0).delivery_slack(), SimDuration::ZERO);
    }

    #[test]
    fn fault_state_restore_resumes_the_stream() {
        let plan = FaultPlan::new(9).with_task_overruns(0.5, SimDuration::from_secs(10));
        let mut a = FaultState::new(plan.clone());
        for _ in 0..7 {
            let _ = a.overrun();
        }
        let mut b = FaultState::restore(plan, a.rng.state(), a.dropping);
        for _ in 0..50 {
            assert_eq!(a.overrun(), b.overrun());
        }
    }
}
