//! The device state machine: asleep / waking / awake, with exact energy
//! accounting.
//!
//! The device follows the aggressive sleeping philosophy of mobile
//! systems (§2.1): it is asleep unless awakened by the real-time clock
//! (wakeup alarms) or an external event, stays awake while any task holds
//! it busy, lingers briefly, and falls back asleep.
//!
//! The owner (the simulator engine) must call the mutating methods in
//! nondecreasing time order; every method first integrates energy up to
//! the call instant, so the meter is exact as long as the owner calls in
//! at every instant the active component set changes (which the engine
//! guarantees by scheduling an event per wakelock expiry).

use std::fmt;

use simty_core::hardware::{HardwareComponent, HardwareSet};
use simty_core::time::{SimDuration, SimTime};

use crate::energy::{EnergyBreakdown, EnergyMeter};
use crate::monsoon::PowerTrace;
use crate::power::PowerModel;
use crate::wakelock::WakeLockTable;

/// The device's power state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DevicePowerState {
    /// Dormant: only the sleep-floor power is drawn.
    Asleep,
    /// Transitioning out of sleep after an RTC interrupt; alarms can be
    /// delivered once the transition completes at `until`.
    Waking {
        /// When the transition completes.
        until: SimTime,
    },
    /// Fully awake: base power plus any wakelocked components.
    Awake,
}

/// The complete resumable state of a [`Device`] (checkpoint capture),
/// minus the power model, which lives in the simulation config.
#[derive(Debug, Clone)]
pub struct DeviceSnapshot {
    /// The power state at capture time.
    pub state: DevicePowerState,
    /// The energy accumulators.
    pub meter: EnergyMeter,
    /// The wakelock table.
    pub locks: WakeLockTable,
    /// The instant up to which energy has been integrated.
    pub clock: SimTime,
    /// The CPU-busy deadline.
    pub cpu_busy_until: SimTime,
    /// When the device last became idle, if it currently is.
    pub idle_since: Option<SimTime>,
    /// Sleep→awake transitions so far.
    pub wake_count: u64,
    /// Total time spent waking or awake.
    pub awake_time: SimDuration,
    /// The recorded power waveform, if a monitor was attached.
    pub monitor: Option<PowerTrace>,
}

/// A simulated smartphone in connected standby.
///
/// # Examples
///
/// ```
/// use simty_core::time::SimTime;
/// use simty_device::device::Device;
/// use simty_device::power::PowerModel;
///
/// let mut device = Device::new(PowerModel::nexus5());
/// let ready = device.request_wake(SimTime::from_secs(60));
/// device.complete_wake(ready);
/// assert!(device.is_awake());
/// assert_eq!(device.wake_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Device {
    model: PowerModel,
    state: DevicePowerState,
    meter: EnergyMeter,
    locks: WakeLockTable,
    clock: SimTime,
    cpu_busy_until: SimTime,
    idle_since: Option<SimTime>,
    wake_count: u64,
    awake_time: SimDuration,
    monitor: Option<PowerTrace>,
}

impl Device {
    /// Creates a device, asleep at t = 0.
    pub fn new(model: PowerModel) -> Self {
        Device {
            model,
            state: DevicePowerState::Asleep,
            meter: EnergyMeter::new(),
            locks: WakeLockTable::new(),
            clock: SimTime::ZERO,
            cpu_busy_until: SimTime::ZERO,
            idle_since: None,
            wake_count: 0,
            awake_time: SimDuration::ZERO,
            monitor: None,
        }
    }

    /// Captures the device's complete resumable state.
    pub fn snapshot(&self) -> DeviceSnapshot {
        DeviceSnapshot {
            state: self.state,
            meter: self.meter.clone(),
            locks: self.locks.clone(),
            clock: self.clock,
            cpu_busy_until: self.cpu_busy_until,
            idle_since: self.idle_since,
            wake_count: self.wake_count,
            awake_time: self.awake_time,
            monitor: self.monitor.clone(),
        }
    }

    /// Rebuilds a device from a persisted snapshot under `model`
    /// (checkpoint restore).
    pub fn restore(model: PowerModel, snapshot: DeviceSnapshot) -> Self {
        Device {
            model,
            state: snapshot.state,
            meter: snapshot.meter,
            locks: snapshot.locks,
            clock: snapshot.clock,
            cpu_busy_until: snapshot.cpu_busy_until,
            idle_since: snapshot.idle_since,
            wake_count: snapshot.wake_count,
            awake_time: snapshot.awake_time,
            monitor: snapshot.monitor,
        }
    }

    /// Hard-kills the device at `now`: every wakelock drops, the CPU-busy
    /// deadline clears, and the device falls straight to the sleep-floor
    /// power state (the outage accrues sleep-floor power, modelling the
    /// powered-off baseline). Returns the components that were active.
    ///
    /// No wake-transition energy is charged and no activation state
    /// survives — boot-time re-acquisition pays full activation costs,
    /// which is exactly the recovery overhead a reboot plan measures.
    pub fn reboot(&mut self, now: SimTime) -> HardwareSet {
        self.advance_to(now);
        let released = self.locks.release_all();
        self.cpu_busy_until = now;
        self.idle_since = None;
        self.state = DevicePowerState::Asleep;
        self.sample_monitor(now);
        released
    }

    /// Attaches a simulated Monsoon power monitor, recording the power
    /// waveform from the current instant on.
    pub fn attach_monitor(&mut self) {
        let mut trace = PowerTrace::new();
        trace.record_level(self.clock, self.current_power_mw());
        self.monitor = Some(trace);
    }

    /// The recorded power waveform, if a monitor is attached.
    pub fn monitor(&self) -> Option<&PowerTrace> {
        self.monitor.as_ref()
    }

    /// The instantaneous power draw (mW): the sleep floor when asleep,
    /// otherwise the awake base plus every active component.
    pub fn current_power_mw(&self) -> f64 {
        match self.state {
            DevicePowerState::Asleep => self.model.sleep_power_mw,
            DevicePowerState::Waking { .. } | DevicePowerState::Awake => {
                self.model.awake_base_power_mw
                    + self
                        .locks
                        .active()
                        .iter()
                        .map(|c| self.model.component(c).active_power_mw)
                        .sum::<f64>()
            }
        }
    }

    fn sample_monitor(&mut self, now: SimTime) {
        // The level costs a walk of the active lock set: skip it when
        // nothing records it.
        if self.monitor.is_none() {
            return;
        }
        let level = self.current_power_mw();
        if let Some(m) = &mut self.monitor {
            m.record_level(now, level);
        }
    }

    fn impulse_monitor(&mut self, now: SimTime, mj: f64) {
        if let Some(m) = &mut self.monitor {
            m.record_impulse(now, mj);
        }
    }

    /// The power model in force.
    pub fn model(&self) -> &PowerModel {
        &self.model
    }

    /// The current power state.
    pub fn state(&self) -> DevicePowerState {
        self.state
    }

    /// Whether the device is fully awake (able to deliver alarms).
    pub fn is_awake(&self) -> bool {
        matches!(self.state, DevicePowerState::Awake)
    }

    /// Whether the device is asleep.
    pub fn is_asleep(&self) -> bool {
        matches!(self.state, DevicePowerState::Asleep)
    }

    /// The instant up to which energy has been integrated.
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// Number of sleep→awake transitions so far — the paper's CPU wakeup
    /// count (Table 4).
    pub fn wake_count(&self) -> u64 {
        self.wake_count
    }

    /// Total time spent waking or awake.
    pub fn awake_time(&self) -> SimDuration {
        self.awake_time
    }

    /// Number of inactive→active transitions for a component — the
    /// paper's per-hardware wakeup count (Table 4).
    pub fn activation_count(&self, c: HardwareComponent) -> u64 {
        self.locks.activation_count(c)
    }

    /// The currently active component set.
    pub fn active_components(&self) -> HardwareSet {
        self.locks.active()
    }

    /// The energy breakdown so far.
    pub fn energy(&self) -> EnergyBreakdown {
        self.meter.breakdown()
    }

    /// Integrates energy up to `now` without changing state.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the device clock.
    pub fn advance_to(&mut self, now: SimTime) {
        let dt = now
            .checked_since(self.clock)
            .expect("device driven backwards in time");
        if dt.is_zero() {
            return;
        }
        match self.state {
            DevicePowerState::Asleep => self.meter.accrue_sleep(&self.model, dt),
            DevicePowerState::Waking { .. } | DevicePowerState::Awake => {
                self.meter
                    .accrue_awake(&self.model, self.locks.active(), dt);
                self.awake_time += dt;
            }
        }
        self.clock = now;
    }

    /// Requests that the device be awake, returning the instant it will
    /// be ready to deliver alarms: `now` if already awake, the pending
    /// transition end if waking, or `now + wake_latency` after paying the
    /// transition energy if asleep.
    pub fn request_wake(&mut self, now: SimTime) -> SimTime {
        self.advance_to(now);
        match self.state {
            DevicePowerState::Awake => now,
            DevicePowerState::Waking { until } => until,
            DevicePowerState::Asleep => {
                self.meter.charge_wake_transition(&self.model);
                self.impulse_monitor(now, self.model.wake_transition_energy_mj);
                self.wake_count += 1;
                let until = now + self.model.wake_latency;
                self.state = DevicePowerState::Waking { until };
                self.sample_monitor(now);
                until
            }
        }
    }

    /// Completes a pending wake transition. No-op unless the device is in
    /// [`DevicePowerState::Waking`] and `now` has reached its end.
    pub fn complete_wake(&mut self, now: SimTime) {
        self.advance_to(now);
        if let DevicePowerState::Waking { until } = self.state {
            if now >= until {
                self.state = DevicePowerState::Awake;
                self.refresh_idle(now);
            }
        }
    }

    /// Runs a delivered task: holds the CPU busy and wakelocks `set`
    /// until `now + duration`, charging activation energy for components
    /// that were inactive. Returns the components this task newly
    /// activated (whose activation energy it triggered).
    ///
    /// # Panics
    ///
    /// Panics if the device is not awake — alarms are only delivered to
    /// an awake device.
    pub fn run_task(
        &mut self,
        set: HardwareSet,
        duration: SimDuration,
        now: SimTime,
    ) -> HardwareSet {
        self.advance_to(now);
        assert!(
            self.is_awake(),
            "task delivered while the device is not awake"
        );
        let until = now + duration;
        self.cpu_busy_until = self.cpu_busy_until.max(until);
        let newly = self.locks.acquire(set, until);
        for c in newly {
            self.meter.charge_activation(&self.model, c);
            self.impulse_monitor(now, self.model.component(c).activation_energy_mj);
        }
        self.idle_since = None;
        self.sample_monitor(now);
        newly
    }

    /// Releases wakelocks that expired at or before `now`, returning the
    /// deactivated components.
    pub fn release_expired(&mut self, now: SimTime) -> HardwareSet {
        self.advance_to(now);
        let released = self.locks.release_expired(now);
        self.refresh_idle(now);
        self.sample_monitor(now);
        released
    }

    /// The earliest future instant the device has work scheduled on its
    /// own (a pending wake transition, a busy CPU, or a wakelock expiry).
    pub fn next_internal_event(&self) -> Option<SimTime> {
        let mut next: Option<SimTime> = None;
        let mut consider = |t: SimTime| {
            if t > self.clock {
                next = Some(next.map_or(t, |n| n.min(t)));
            }
        };
        if let DevicePowerState::Waking { until } = self.state {
            consider(until);
        }
        if let Some(t) = self.locks.next_expiry() {
            consider(t);
        }
        if self.cpu_busy_until > self.clock {
            consider(self.cpu_busy_until);
        }
        next
    }

    /// When the device may fall asleep: `idle_since + sleep_linger`, if it
    /// is awake and idle.
    pub fn earliest_sleep_time(&self) -> Option<SimTime> {
        match (self.state, self.idle_since) {
            (DevicePowerState::Awake, Some(since)) => Some(since + self.model.sleep_linger),
            _ => None,
        }
    }

    /// Attempts to fall asleep at `now`; succeeds only if the device is
    /// awake, idle, and has lingered long enough.
    pub fn try_sleep(&mut self, now: SimTime) -> bool {
        self.advance_to(now);
        match self.earliest_sleep_time() {
            Some(t) if now >= t => {
                self.state = DevicePowerState::Asleep;
                self.idle_since = None;
                self.sample_monitor(now);
                true
            }
            _ => false,
        }
    }

    /// Extends already-held wakelocks on `set` until at least `until`
    /// without marking the CPU busy — failure injection: a leaked lock
    /// outliving its task (the no-sleep bugs of the paper's §1).
    /// Components in `set` that happen to be inactive are activated and
    /// charged like a normal acquire.
    pub fn leak_locks(&mut self, set: HardwareSet, until: SimTime, now: SimTime) {
        self.advance_to(now);
        let newly = self.locks.acquire(set, until);
        for c in newly {
            self.meter.charge_activation(&self.model, c);
            self.impulse_monitor(now, self.model.component(c).activation_energy_mj);
        }
        if !set.is_empty() {
            self.idle_since = None;
        }
        self.sample_monitor(now);
    }

    /// Rescopes the lock table and the CPU-busy deadline to the given
    /// surviving holds — the per-offender failure remedy: one app's
    /// leaked locks are revoked while every other task keeps its own.
    ///
    /// Each surviving hold is a hardware set plus the instant it lets go.
    /// Active components claimed by no surviving hold are released now
    /// and returned; claimed components have their expiries clamped down
    /// to the latest surviving claim. The CPU-busy deadline is likewise
    /// clamped to the survivors (never extended).
    pub fn rescope_holds(
        &mut self,
        survivors: &[(HardwareSet, SimTime)],
        now: SimTime,
    ) -> HardwareSet {
        self.advance_to(now);
        let mut released = HardwareSet::empty();
        for c in self.locks.active() {
            let latest = survivors
                .iter()
                .filter(|(set, until)| set.contains(c) && *until > now)
                .map(|(_, until)| *until)
                .max();
            match latest {
                Some(t) => self.locks.clamp_expiry(c, t),
                None => {
                    self.locks.release_component(c);
                    released.insert(c);
                }
            }
        }
        let mut cpu_until = now;
        for (_, until) in survivors {
            if *until > now {
                cpu_until = cpu_until.max(*until);
            }
        }
        self.cpu_busy_until = self.cpu_busy_until.min(cpu_until).max(now);
        self.refresh_idle(now);
        self.sample_monitor(now);
        released
    }

    /// Force-releases every wakelock (failure injection: e.g. the user
    /// force-stops all apps). The CPU busy deadline is cleared too.
    pub fn force_release_all(&mut self, now: SimTime) -> HardwareSet {
        self.advance_to(now);
        let released = self.locks.release_all();
        self.cpu_busy_until = now;
        self.refresh_idle(now);
        self.sample_monitor(now);
        released
    }

    fn refresh_idle(&mut self, now: SimTime) {
        if self.is_awake() && self.locks.is_idle() && now >= self.cpu_busy_until {
            if self.idle_since.is_none() {
                self.idle_since = Some(now);
            }
        } else {
            self.idle_since = None;
        }
    }
}

impl fmt::Display for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "device@{} {:?}, {} wakeups, active {}",
            self.clock,
            self.state,
            self.wake_count,
            self.locks.active()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> Device {
        Device::new(PowerModel::nexus5())
    }

    /// Walks a device through one bare wakeup cycle and returns it.
    fn bare_cycle(start_s: u64) -> Device {
        let mut d = device();
        let t0 = SimTime::from_secs(start_s);
        let ready = d.request_wake(t0);
        d.complete_wake(ready);
        let sleep_at = d.earliest_sleep_time().unwrap();
        assert!(d.try_sleep(sleep_at));
        d
    }

    #[test]
    fn bare_wakeup_costs_180_mj_on_top_of_sleep() {
        // 60 s asleep, then a bare wake/sleep cycle.
        let d = bare_cycle(60);
        let b = d.energy();
        assert!((b.sleep_mj - 50.0 * 60.0).abs() < 1e-9);
        assert!(
            (b.awake_related_mj() - 180.0).abs() < 1e-6,
            "bare wakeup cost {}",
            b.awake_related_mj()
        );
        assert_eq!(d.wake_count(), 1);
    }

    #[test]
    fn wps_task_costs_3650_mj() {
        let mut d = device();
        let ready = d.request_wake(SimTime::from_secs(10));
        d.complete_wake(ready);
        d.run_task(
            HardwareComponent::Wps.into(),
            SimDuration::from_secs(8),
            ready,
        );
        let end = d.next_internal_event().unwrap();
        d.release_expired(end);
        let sleep_at = d.earliest_sleep_time().unwrap();
        assert!(d.try_sleep(sleep_at));
        let awake = d.energy().awake_related_mj();
        assert!((awake - 3650.0).abs() < 1e-6, "got {awake}");
    }

    #[test]
    fn aligned_tasks_share_wake_and_activation_costs() {
        // Two identical Wi-Fi tasks delivered at the same wakeup must cost
        // far less than twice a solo delivery.
        let solo = {
            let mut d = device();
            let ready = d.request_wake(SimTime::from_secs(10));
            d.complete_wake(ready);
            d.run_task(
                HardwareComponent::Wifi.into(),
                SimDuration::from_secs(3),
                ready,
            );
            d.release_expired(d.next_internal_event().unwrap());
            assert!(d.try_sleep(d.earliest_sleep_time().unwrap()));
            d.energy().awake_related_mj()
        };
        let aligned = {
            let mut d = device();
            let ready = d.request_wake(SimTime::from_secs(10));
            d.complete_wake(ready);
            d.run_task(
                HardwareComponent::Wifi.into(),
                SimDuration::from_secs(3),
                ready,
            );
            d.run_task(
                HardwareComponent::Wifi.into(),
                SimDuration::from_secs(3),
                ready,
            );
            d.release_expired(d.next_internal_event().unwrap());
            assert!(d.try_sleep(d.earliest_sleep_time().unwrap()));
            d.energy().awake_related_mj()
        };
        // Perfect alignment: the pair costs the same as one delivery.
        assert!((aligned - solo).abs() < 1e-6);
        assert!(aligned < 2.0 * solo - 100.0);
    }

    #[test]
    fn request_wake_while_waking_returns_pending_deadline() {
        let mut d = device();
        let ready = d.request_wake(SimTime::from_secs(10));
        let again = d.request_wake(SimTime::from_millis(10_100));
        assert_eq!(ready, again);
        assert_eq!(d.wake_count(), 1);
    }

    #[test]
    fn request_wake_while_awake_is_free() {
        let mut d = device();
        let ready = d.request_wake(SimTime::from_secs(10));
        d.complete_wake(ready);
        let e_before = d.energy().transition_mj;
        let again = d.request_wake(ready);
        assert_eq!(again, ready);
        assert_eq!(d.energy().transition_mj, e_before);
        assert_eq!(d.wake_count(), 1);
    }

    #[test]
    fn cannot_sleep_while_task_is_running() {
        let mut d = device();
        let ready = d.request_wake(SimTime::from_secs(10));
        d.complete_wake(ready);
        d.run_task(HardwareSet::empty(), SimDuration::from_secs(5), ready);
        assert_eq!(d.earliest_sleep_time(), None);
        assert!(!d.try_sleep(ready + SimDuration::from_secs(2)));
        // After the CPU-busy deadline the device becomes idle.
        let end = d.next_internal_event().unwrap();
        assert_eq!(end, ready + SimDuration::from_secs(5));
        d.release_expired(end);
        assert!(d.earliest_sleep_time().is_some());
    }

    #[test]
    #[should_panic(expected = "not awake")]
    fn task_delivery_requires_awake_device() {
        let mut d = device();
        d.run_task(
            HardwareSet::empty(),
            SimDuration::from_secs(1),
            SimTime::ZERO,
        );
    }

    #[test]
    #[should_panic(expected = "backwards in time")]
    fn advance_is_monotonic() {
        let mut d = device();
        d.advance_to(SimTime::from_secs(10));
        d.advance_to(SimTime::from_secs(5));
    }

    #[test]
    fn overlapping_tasks_activate_components_once() {
        let mut d = device();
        let ready = d.request_wake(SimTime::from_secs(10));
        d.complete_wake(ready);
        d.run_task(
            HardwareComponent::Wifi.into(),
            SimDuration::from_secs(3),
            ready,
        );
        d.run_task(
            HardwareComponent::Wifi.into(),
            SimDuration::from_secs(5),
            ready + SimDuration::from_secs(1),
        );
        assert_eq!(d.activation_count(HardwareComponent::Wifi), 1);
        // The lock survives the first task's end.
        let released = d.release_expired(ready + SimDuration::from_secs(3));
        assert!(released.is_empty());
        let released = d.release_expired(ready + SimDuration::from_secs(6));
        assert_eq!(released, HardwareComponent::Wifi.into());
    }

    #[test]
    fn force_release_clears_everything() {
        let mut d = device();
        let ready = d.request_wake(SimTime::from_secs(10));
        d.complete_wake(ready);
        d.run_task(
            HardwareComponent::Gps.into(),
            SimDuration::from_secs(30),
            ready,
        );
        let released = d.force_release_all(ready + SimDuration::from_secs(1));
        assert_eq!(released, HardwareComponent::Gps.into());
        assert!(d.earliest_sleep_time().is_some());
    }

    #[test]
    fn rescope_releases_only_the_unclaimed_components() {
        let mut d = device();
        let ready = d.request_wake(SimTime::from_secs(10));
        d.complete_wake(ready);
        // Offender holds GPS for 600 s; a bystander holds Wi-Fi for 5 s.
        d.run_task(
            HardwareComponent::Gps.into(),
            SimDuration::from_secs(600),
            ready,
        );
        d.run_task(
            HardwareComponent::Wifi.into(),
            SimDuration::from_secs(5),
            ready,
        );
        let now = ready + SimDuration::from_secs(1);
        let survivor = (
            HardwareSet::from(HardwareComponent::Wifi),
            ready + SimDuration::from_secs(5),
        );
        let released = d.rescope_holds(&[survivor], now);
        assert_eq!(released, HardwareComponent::Gps.into());
        assert_eq!(d.active_components(), HardwareComponent::Wifi.into());
        // CPU-busy deadline shrinks to the survivor's end, so the device
        // becomes idle right after it.
        let end = d.next_internal_event().unwrap();
        assert_eq!(end, ready + SimDuration::from_secs(5));
        d.release_expired(end);
        assert!(d.earliest_sleep_time().is_some());
    }

    #[test]
    fn rescope_clamps_shared_components_to_the_surviving_claim() {
        let mut d = device();
        let ready = d.request_wake(SimTime::from_secs(10));
        d.complete_wake(ready);
        // Both tasks hold Wi-Fi; the offender's claim reaches 600 s.
        d.run_task(
            HardwareComponent::Wifi.into(),
            SimDuration::from_secs(600),
            ready,
        );
        d.run_task(
            HardwareComponent::Wifi.into(),
            SimDuration::from_secs(5),
            ready,
        );
        let survivor = (
            HardwareSet::from(HardwareComponent::Wifi),
            ready + SimDuration::from_secs(5),
        );
        d.rescope_holds(&[survivor], ready + SimDuration::from_secs(1));
        // Still active, but now expiring with the survivor.
        assert_eq!(d.active_components(), HardwareComponent::Wifi.into());
        let released = d.release_expired(ready + SimDuration::from_secs(5));
        assert_eq!(released, HardwareComponent::Wifi.into());
    }

    #[test]
    fn leaked_locks_outlive_the_task_without_cpu_busy() {
        let mut d = device();
        let ready = d.request_wake(SimTime::from_secs(10));
        d.complete_wake(ready);
        d.run_task(
            HardwareComponent::Wifi.into(),
            SimDuration::from_secs(2),
            ready,
        );
        d.leak_locks(
            HardwareComponent::Wifi.into(),
            ready + SimDuration::from_secs(30),
            ready,
        );
        // One activation only — the leak extends the existing lock.
        assert_eq!(d.activation_count(HardwareComponent::Wifi), 1);
        assert!(d
            .release_expired(ready + SimDuration::from_secs(2))
            .is_empty());
        // The device cannot sleep while the leak persists.
        assert_eq!(d.earliest_sleep_time(), None);
        let released = d.release_expired(ready + SimDuration::from_secs(30));
        assert_eq!(released, HardwareComponent::Wifi.into());
    }

    #[test]
    fn monitor_waveform_integral_matches_the_meter() {
        let mut d = device();
        d.attach_monitor();
        // A full cycle with a Wi-Fi task.
        let ready = d.request_wake(SimTime::from_secs(30));
        d.complete_wake(ready);
        d.run_task(
            HardwareComponent::Wifi.into(),
            SimDuration::from_secs(3),
            ready,
        );
        let end = d.next_internal_event().unwrap();
        d.release_expired(end);
        assert!(d.try_sleep(d.earliest_sleep_time().unwrap()));
        d.advance_to(SimTime::from_secs(60));
        let meter_total = d.energy().total_mj();
        let waveform_total = d.monitor().unwrap().energy_mj(d.clock());
        assert!(
            (meter_total - waveform_total).abs() < 1e-6,
            "meter {meter_total} vs waveform {waveform_total}"
        );
        // The waveform peaks at base + Wi-Fi power.
        assert!((d.monitor().unwrap().peak_mw() - 310.0).abs() < 1e-9);
    }

    #[test]
    fn monitor_records_impulses_for_transitions_and_activations() {
        let mut d = device();
        d.attach_monitor();
        let ready = d.request_wake(SimTime::from_secs(1));
        d.complete_wake(ready);
        d.run_task(
            HardwareComponent::Wifi.into(),
            SimDuration::from_secs(1),
            ready,
        );
        let impulses = d.monitor().unwrap().impulses();
        assert_eq!(impulses.len(), 2);
        assert!((impulses[0].1 - 100.0).abs() < 1e-9); // wake transition
        assert!((impulses[1].1 - 200.0).abs() < 1e-9); // wifi activation
    }

    #[test]
    fn snapshot_restore_roundtrip_is_exact() {
        let mut d = device();
        let ready = d.request_wake(SimTime::from_secs(10));
        d.complete_wake(ready);
        d.run_task(
            HardwareComponent::Wifi.into(),
            SimDuration::from_secs(3),
            ready,
        );
        let mut r = Device::restore(PowerModel::nexus5(), d.snapshot());
        let end = d.next_internal_event().unwrap();
        assert_eq!(r.next_internal_event(), Some(end));
        d.release_expired(end);
        r.release_expired(end);
        assert!(d.try_sleep(d.earliest_sleep_time().unwrap()));
        assert!(r.try_sleep(r.earliest_sleep_time().unwrap()));
        // Bit-exact energy: the restored run must be indistinguishable.
        assert_eq!(
            d.energy().total_mj().to_bits(),
            r.energy().total_mj().to_bits()
        );
        assert_eq!(d.wake_count(), r.wake_count());
        assert_eq!(d.awake_time(), r.awake_time());
    }

    #[test]
    fn reboot_drops_everything_and_sleeps() {
        let mut d = device();
        let ready = d.request_wake(SimTime::from_secs(10));
        d.complete_wake(ready);
        d.run_task(
            HardwareComponent::Gps.into(),
            SimDuration::from_secs(600),
            ready,
        );
        let released = d.reboot(ready + SimDuration::from_secs(1));
        assert_eq!(released, HardwareComponent::Gps.into());
        assert!(d.is_asleep());
        assert_eq!(d.next_internal_event(), None);
        // The outage accrues sleep-floor power only.
        let before = d.energy().sleep_mj;
        d.advance_to(ready + SimDuration::from_secs(11));
        assert!((d.energy().sleep_mj - before - 500.0).abs() < 1e-9);
        // No transition was charged by the kill itself.
        assert!((d.energy().transition_mj - 100.0).abs() < 1e-9);
    }

    #[test]
    fn awake_time_is_tracked() {
        let d = bare_cycle(0);
        // latency (250 ms) + linger (250 ms).
        assert_eq!(d.awake_time(), SimDuration::from_millis(500));
    }
}
