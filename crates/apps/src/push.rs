//! Push-message traffic (the GCM path).
//!
//! The paper's footnote 1 separates `AlarmManager` (internal task
//! wakeups, the subject of the paper) from Google Cloud Messaging
//! (wakeups caused by *external* messages) and notes the two are
//! orthogonal. This module models the GCM side: each push message
//!
//! 1. awakens the device (an external wake), and
//! 2. makes the receiving app *re-register* its sync alarm relative to
//!    the message instant (a fresh inbox state resets the sync schedule),
//!
//! which is exactly the "reinsert while the same alarm still exists in
//! the queue" traffic that drives NATIVE's realignment step (§2.1).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use simty_core::alarm::AlarmId;
use simty_core::time::{SimDuration, SimTime};
use simty_sim::engine::Simulation;

/// One app's push subscription.
#[derive(Debug, Clone)]
struct Subscription {
    alarm: AlarmId,
    mean_interval: SimDuration,
}

/// A seeded plan of push-message arrivals for a set of apps.
///
/// # Examples
///
/// ```
/// use simty_apps::push::PushPlan;
/// use simty_core::alarm::Alarm;
/// use simty_core::policy::NativePolicy;
/// use simty_core::time::{SimDuration, SimTime};
/// use simty_sim::{SimConfig, Simulation};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = SimConfig::new().with_duration(SimDuration::from_hours(1));
/// let mut sim = Simulation::new(Box::new(NativePolicy::new()), config);
/// let id = sim.register(
///     Alarm::builder("chat")
///         .nominal(SimTime::from_secs(300))
///         .repeating_static(SimDuration::from_secs(300))
///         .build()?,
/// )?;
/// PushPlan::new(7)
///     .subscribe(id, SimDuration::from_mins(10))
///     .apply(&mut sim, SimDuration::from_hours(1));
/// sim.run();
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PushPlan {
    seed: u64,
    subscriptions: Vec<Subscription>,
}

impl PushPlan {
    /// Creates an empty plan with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        PushPlan {
            seed,
            subscriptions: Vec::new(),
        }
    }

    /// Subscribes an alarm to push messages with the given mean
    /// inter-arrival time.
    ///
    /// # Panics
    ///
    /// Panics if `mean_interval` is shorter than one second.
    pub fn subscribe(mut self, alarm: AlarmId, mean_interval: SimDuration) -> Self {
        assert!(
            mean_interval >= SimDuration::from_secs(1),
            "push mean interval must be at least one second"
        );
        self.subscriptions.push(Subscription {
            alarm,
            mean_interval,
        });
        self
    }

    /// Number of subscribed alarms.
    pub fn len(&self) -> usize {
        self.subscriptions.len()
    }

    /// Whether no alarm is subscribed.
    pub fn is_empty(&self) -> bool {
        self.subscriptions.is_empty()
    }

    /// Generates the arrival times for every subscription over
    /// `duration`, without touching a simulation (exposed for tests and
    /// offline analysis). Returned per subscription, sorted in time.
    ///
    /// Arrivals are drawn per whole second over `(0, duration]` — the
    /// final second is a valid arrival slot. A `duration` shorter than
    /// one second has no whole-second slots and yields no arrivals
    /// (debug builds assert on it, since it is almost certainly a
    /// unit mix-up).
    pub fn arrivals(&self, duration: SimDuration) -> Vec<(AlarmId, Vec<SimTime>)> {
        let total_secs = duration.as_millis() / 1_000;
        debug_assert!(
            total_secs > 0 || duration.is_zero(),
            "push plan duration {duration} truncates to zero whole seconds"
        );
        let mut out = Vec::with_capacity(self.subscriptions.len());
        for (i, sub) in self.subscriptions.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(0x9e37 * (i as u64 + 1)));
            let p = (1.0 / sub.mean_interval.as_secs_f64()).min(1.0);
            let mut times = Vec::new();
            for s in 1..=total_secs {
                if rng.gen_bool(p) {
                    times.push(SimTime::from_secs(s));
                }
            }
            out.push((sub.alarm, times));
        }
        out
    }

    /// Schedules every arrival into the simulation: an external wake plus
    /// a re-registration of the subscribed alarm at each message instant.
    pub fn apply(&self, sim: &mut Simulation, duration: SimDuration) {
        for (alarm, times) in self.arrivals(duration) {
            for t in times {
                sim.inject_external_wake(t);
                sim.schedule_reregistration(t, alarm);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simty_core::alarm::Alarm;
    use simty_core::policy::{NativePolicy, SimtyPolicy};
    use simty_sim::config::SimConfig;

    fn chat_alarm(nominal_s: u64) -> Alarm {
        Alarm::builder("chat")
            .nominal(SimTime::from_secs(nominal_s))
            .repeating_static(SimDuration::from_secs(300))
            .window_fraction(0.5)
            .grace_fraction(0.9)
            .task_duration(SimDuration::from_secs(1))
            .build()
            .unwrap()
    }

    #[test]
    fn arrivals_are_deterministic_and_per_subscription() {
        let id_a = chat_alarm(300).id();
        let id_b = chat_alarm(300).id();
        let plan = PushPlan::new(3)
            .subscribe(id_a, SimDuration::from_mins(5))
            .subscribe(id_b, SimDuration::from_mins(5));
        let x = plan.arrivals(SimDuration::from_hours(2));
        let y = plan.arrivals(SimDuration::from_hours(2));
        assert_eq!(x.len(), 2);
        assert_eq!(x[0].1, y[0].1);
        // Different subscriptions see different streams.
        assert_ne!(x[0].1, x[1].1);
        assert!(!plan.is_empty());
        assert_eq!(plan.len(), 2);
    }

    #[test]
    fn pushes_reschedule_the_alarm() {
        let config = SimConfig::new().with_duration(SimDuration::from_mins(30));
        let mut sim = Simulation::new(Box::new(SimtyPolicy::new()), config);
        let alarm = chat_alarm(600);
        let id = sim.register(alarm).unwrap();
        // A push at 300 s moves the nominal from 600 s to 300 + 300 = 600...
        // use 400 s: nominal becomes 700 s.
        sim.inject_external_wake(SimTime::from_secs(400));
        sim.schedule_reregistration(SimTime::from_secs(400), id);
        sim.run_until(SimTime::from_secs(450));
        let requeued = sim.manager().find_alarm(id).expect("still queued");
        assert_eq!(requeued.nominal(), SimTime::from_secs(700));
        // Exactly one copy remains.
        assert_eq!(sim.manager().alarm_count(), 1);
    }

    #[test]
    fn rereg_of_unknown_or_one_shot_alarms_is_ignored() {
        let config = SimConfig::new().with_duration(SimDuration::from_mins(30));
        let mut sim = Simulation::new(Box::new(NativePolicy::new()), config);
        let one_shot = Alarm::builder("once")
            .nominal(SimTime::from_secs(900))
            .build()
            .unwrap();
        let one_shot_id = sim.register(one_shot).unwrap();
        let ghost = chat_alarm(600).id(); // never registered
        sim.schedule_reregistration(SimTime::from_secs(100), ghost);
        sim.schedule_reregistration(SimTime::from_secs(100), one_shot_id);
        sim.run_until(SimTime::from_secs(200));
        // The one-shot is untouched at its original nominal.
        assert_eq!(
            sim.manager().find_alarm(one_shot_id).unwrap().nominal(),
            SimTime::from_secs(900)
        );
    }

    #[test]
    fn push_traffic_preserves_delivery_guarantees_under_simty() {
        let config = SimConfig::new().with_duration(SimDuration::from_hours(2));
        let mut sim = Simulation::new(Box::new(SimtyPolicy::new()), config);
        let mut ids = Vec::new();
        for n in [300u64, 420, 540] {
            ids.push(sim.register(chat_alarm(n)).unwrap());
        }
        let mut plan = PushPlan::new(11);
        for id in ids {
            plan = plan.subscribe(id, SimDuration::from_mins(12));
        }
        plan.apply(&mut sim, SimDuration::from_hours(2));
        sim.run();
        let latency = SimDuration::from_millis(250);
        assert!(!sim.trace().deliveries().is_empty());
        for d in sim.trace().deliveries() {
            assert!(d.delivered_at >= d.nominal);
            assert!(d.delivered_at <= d.grace_end + latency, "{d}");
        }
    }

    #[test]
    fn arrivals_include_the_final_second() {
        // With mean 1 s, p = 1: every whole second of the span arrives,
        // including the last one (1..=total, not the old 1..total).
        let id = chat_alarm(300).id();
        let plan = PushPlan::new(0).subscribe(id, SimDuration::from_secs(1));
        let arrivals = &plan.arrivals(SimDuration::from_secs(10))[0].1;
        assert_eq!(arrivals.len(), 10);
        assert_eq!(*arrivals.last().unwrap(), SimTime::from_secs(10));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "truncates to zero whole seconds")]
    fn sub_second_duration_asserts_in_debug() {
        let id = chat_alarm(300).id();
        let _ = PushPlan::new(0)
            .subscribe(id, SimDuration::from_secs(1))
            .arrivals(SimDuration::from_millis(500));
    }

    #[test]
    #[should_panic(expected = "at least one second")]
    fn sub_second_mean_is_rejected() {
        let _ = PushPlan::new(0).subscribe(chat_alarm(1).id(), SimDuration::from_millis(10));
    }
}
