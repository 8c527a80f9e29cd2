//! The alarm model: delivery times, window/grace intervals, repetition,
//! perceptibility.
//!
//! An [`Alarm`] carries the attributes Android's `AlarmManager` tracks —
//! nominal delivery time, window interval, repeating interval, wakeup vs
//! non-wakeup — plus the paper's additions: the *grace interval* (§3.1.2)
//! and the wakelocked hardware set, which is *unknown until the alarm's
//! first delivery* (footnote 4) and makes the alarm provisionally
//! perceptible (footnote 5).
//!
//! # Examples
//!
//! ```
//! use simty_core::alarm::Alarm;
//! use simty_core::hardware::HardwareComponent;
//! use simty_core::time::{SimDuration, SimTime};
//!
//! # fn main() -> Result<(), simty_core::error::BuildAlarmError> {
//! let line = Alarm::builder("Line")
//!     .nominal(SimTime::from_secs(200))
//!     .repeating_dynamic(SimDuration::from_secs(200))
//!     .window_fraction(0.75)
//!     .grace_fraction(0.96)
//!     .hardware(HardwareComponent::Wifi.into())
//!     .task_duration(SimDuration::from_secs(3))
//!     .build()?;
//! assert!(line.is_perceptible()); // hardware unknown until first delivery
//! # Ok(())
//! # }
//! ```

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::BuildAlarmError;
use crate::hardware::HardwareSet;
use crate::time::{Interval, SimDuration, SimTime};

/// Unique identifier of a registered alarm.
///
/// Identifiers are process-unique and stable across a repeating alarm's
/// re-insertions, which is how the manager detects that "the same alarm
/// still exists in the queue" (§2.1, §3.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AlarmId(u64);

/// The next identifier [`AlarmId::fresh`] will hand out.
static NEXT_ALARM_ID: AtomicU64 = AtomicU64::new(1);

impl AlarmId {
    /// Allocates a fresh, process-unique identifier.
    pub fn fresh() -> AlarmId {
        AlarmId(NEXT_ALARM_ID.fetch_add(1, Ordering::Relaxed))
    }

    /// Rebuilds an identifier from a persisted raw value (checkpoint
    /// restore). Pair with [`reserve_through`](Self::reserve_through) so
    /// later [`fresh`](Self::fresh) calls cannot collide with restored
    /// identifiers.
    pub fn from_raw(raw: u64) -> AlarmId {
        AlarmId(raw)
    }

    /// Advances the process-wide id counter past `max_seen`, guaranteeing
    /// that every subsequently [`fresh`](Self::fresh) identifier is
    /// strictly greater than `max_seen` — unless `max_seen` is
    /// `u64::MAX`, past which no identifier is left. The counter then
    /// stops at `u64::MAX`; callers restoring persisted ids refuse that
    /// watermark before calling.
    pub fn reserve_through(max_seen: u64) {
        NEXT_ALARM_ID.fetch_max(max_seen.saturating_add(1), Ordering::Relaxed);
    }

    /// The raw numeric value (for traces and reports).
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for AlarmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// How an alarm repeats (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Repeat {
    /// Delivered once and never reinserted (Android: repeating interval 0).
    OneShot,
    /// *Static* repeating: nominal delivery times sit on a fixed grid
    /// (`nominal + k · interval`), regardless of actual delivery times.
    Static(SimDuration),
    /// *Dynamic* repeating: the next nominal delivery time is reappointed
    /// relative to the *actual* delivery time every time it is delivered.
    Dynamic(SimDuration),
}

impl Repeat {
    /// The repeating interval, or `None` for one-shot alarms.
    pub fn interval(self) -> Option<SimDuration> {
        match self {
            Repeat::OneShot => None,
            Repeat::Static(i) | Repeat::Dynamic(i) => Some(i),
        }
    }

    /// Whether this is a one-shot alarm.
    pub fn is_one_shot(self) -> bool {
        matches!(self, Repeat::OneShot)
    }
}

impl fmt::Display for Repeat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Repeat::OneShot => f.write_str("one-shot"),
            Repeat::Static(i) => write!(f, "static every {i}"),
            Repeat::Dynamic(i) => write!(f, "dynamic every {i}"),
        }
    }
}

/// Whether the alarm may awaken a sleeping device (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AlarmKind {
    /// Awakens the device at its delivery time.
    #[default]
    Wakeup,
    /// Delivered only while the device happens to be awake; otherwise
    /// postponed to the next wakeup (by a wakeup alarm or external event).
    NonWakeup,
}

impl fmt::Display for AlarmKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AlarmKind::Wakeup => "wakeup",
            AlarmKind::NonWakeup => "non-wakeup",
        })
    }
}

/// A registered alarm with the paper's full attribute set.
///
/// Invariants enforced at construction:
/// `window ≤ grace`, and `grace < repeating interval` for repeating alarms
/// (§3.1.2), so every imperceptible alarm is still delivered once per
/// repeating interval (§3.2.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alarm {
    id: AlarmId,
    label: Arc<str>,
    nominal: SimTime,
    window: SimDuration,
    grace: SimDuration,
    repeat: Repeat,
    kind: AlarmKind,
    hardware: HardwareSet,
    hardware_known: bool,
    task_duration: SimDuration,
    quarantined: bool,
    grace_stretch: u32,
}

/// The neutral [`Alarm::grace_stretch`] value (millis-style fixed point:
/// 1000 = 1.0×, i.e. the grace interval is exactly as registered).
pub const GRACE_STRETCH_UNIT: u32 = 1_000;

impl Alarm {
    /// Starts building an alarm with the given human-readable label.
    ///
    /// See the [module documentation](self) for a complete example.
    pub fn builder(label: impl Into<Arc<str>>) -> AlarmBuilder {
        AlarmBuilder::new(label)
    }

    /// Rebuilds an alarm from persisted state (checkpoint restore).
    ///
    /// This is a trusted constructor: it bypasses the builder's interval
    /// validation because the persisted alarm was already validated when
    /// it was first built, and a mid-flight alarm may legitimately carry
    /// state a fresh registration could not (e.g. a known hardware set or
    /// an active quarantine). The caller must pass values captured from a
    /// live alarm and must call [`AlarmId::reserve_through`] with the
    /// largest restored raw id so fresh ids cannot collide.
    #[allow(clippy::too_many_arguments)]
    pub fn restore(
        id: AlarmId,
        label: Arc<str>,
        nominal: SimTime,
        window: SimDuration,
        grace: SimDuration,
        repeat: Repeat,
        kind: AlarmKind,
        hardware: HardwareSet,
        hardware_known: bool,
        task_duration: SimDuration,
        quarantined: bool,
        grace_stretch: u32,
    ) -> Alarm {
        Alarm {
            id,
            label,
            nominal,
            window,
            grace,
            repeat,
            kind,
            hardware,
            hardware_known,
            task_duration,
            quarantined,
            grace_stretch,
        }
    }

    /// The alarm's stable identifier.
    pub fn id(&self) -> AlarmId {
        self.id
    }

    /// The human-readable label (typically the app name).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The label as a shared handle — a reference-count bump instead of
    /// a string copy, for the per-delivery paths that store it.
    pub fn label_arc(&self) -> Arc<str> {
        Arc::clone(&self.label)
    }

    /// The current nominal delivery time — the start of both the window
    /// and the grace interval.
    pub fn nominal(&self) -> SimTime {
        self.nominal
    }

    /// The window interval length.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// The *effective* grace interval length: the registered length,
    /// widened by any [`grace_stretch`](Self::grace_stretch) the
    /// degradation governor applied — but only for imperceptible alarms,
    /// and never to (or past) the repeating interval, so once-per-period
    /// delivery survives every degradation tier.
    ///
    /// Perceptible alarms always keep their registered grace: degradation
    /// must never weaken the window guarantee the user can perceive.
    pub fn grace(&self) -> SimDuration {
        if self.grace_stretch == GRACE_STRETCH_UNIT || self.is_perceptible() {
            return self.grace;
        }
        let stretched = SimDuration::from_millis(
            (self.grace.as_millis() as u128 * self.grace_stretch as u128 / 1_000) as u64,
        );
        let cap = match self.repeat.interval() {
            Some(i) => i.saturating_sub(SimDuration::from_millis(1)),
            None => stretched,
        };
        stretched.min(cap).max(self.grace)
    }

    /// The grace interval length as registered, ignoring any degradation
    /// stretch (this is what checkpoints persist and β reports).
    pub fn grace_base(&self) -> SimDuration {
        self.grace
    }

    /// The degradation-governor grace multiplier in millis-style fixed
    /// point ([`GRACE_STRETCH_UNIT`] = 1.0×, no stretch).
    pub fn grace_stretch(&self) -> u32 {
        self.grace_stretch
    }

    /// Applies a degradation-governor grace multiplier (see
    /// [`grace`](Self::grace) for how it takes effect).
    pub fn set_grace_stretch(&mut self, stretch_milli: u32) {
        self.grace_stretch = stretch_milli.max(GRACE_STRETCH_UNIT);
    }

    /// The window interval `[nominal, nominal + window]`, inside which
    /// NATIVE (and SIMTY, for perceptible alarms) must deliver.
    pub fn window_interval(&self) -> Interval {
        Interval::starting_at(self.nominal, self.window)
    }

    /// The grace interval `[nominal, nominal + grace]`, inside which SIMTY
    /// must deliver imperceptible alarms. Uses the *effective* grace
    /// length (see [`grace`](Self::grace)), so degradation-tier stretches
    /// widen the placement flexibility the policies see.
    pub fn grace_interval(&self) -> Interval {
        Interval::starting_at(self.nominal, self.grace())
    }

    /// The repetition mode.
    pub fn repeat(&self) -> Repeat {
        self.repeat
    }

    /// Wakeup or non-wakeup.
    pub fn kind(&self) -> AlarmKind {
        self.kind
    }

    /// The hardware this alarm actually wakelocks when its task runs.
    ///
    /// This is ground truth used by the device at delivery; the *policy*
    /// must use [`known_hardware`](Self::known_hardware), which is empty
    /// until the first delivery (footnote 4).
    pub fn hardware(&self) -> HardwareSet {
        self.hardware
    }

    /// The hardware set as the alarm manager knows it: empty until the
    /// alarm has been delivered once, then equal to
    /// [`hardware`](Self::hardware).
    pub fn known_hardware(&self) -> HardwareSet {
        if self.hardware_known {
            self.hardware
        } else {
            HardwareSet::empty()
        }
    }

    /// Whether the manager has observed this alarm's hardware usage.
    pub fn is_hardware_known(&self) -> bool {
        self.hardware_known
    }

    /// Records that the alarm has been delivered once, making its hardware
    /// set visible to the policy from now on.
    pub fn mark_hardware_known(&mut self) {
        self.hardware_known = true;
    }

    /// Whether the alarm must be treated as perceptible (§3.1.2 and
    /// footnote 5): one-shot alarms and alarms whose hardware set is not
    /// yet known are deemed perceptible; otherwise perceptibility follows
    /// the hardware set.
    ///
    /// A [quarantined](Self::is_quarantined) alarm is always treated as
    /// imperceptible: the watchdog has judged the owning app to be
    /// misbehaving (a no-sleep bug, §1), so its deliveries lose their
    /// window guarantee and may be deferred anywhere inside the grace
    /// interval, exactly like other postponable work.
    pub fn is_perceptible(&self) -> bool {
        if self.quarantined {
            false
        } else if self.repeat.is_one_shot() || !self.hardware_known {
            true
        } else {
            self.hardware.is_perceptible()
        }
    }

    /// Whether the alarm is currently demoted by the online watchdog.
    ///
    /// See [`is_perceptible`](Self::is_perceptible) for the effect; the
    /// simulator's quarantine/probation state machine flips this flag via
    /// the alarm manager.
    pub fn is_quarantined(&self) -> bool {
        self.quarantined
    }

    /// Sets or clears the watchdog quarantine demotion.
    pub fn set_quarantined(&mut self, quarantined: bool) {
        self.quarantined = quarantined;
    }

    /// How long the alarm's task holds its wakelocks after delivery.
    pub fn task_duration(&self) -> SimDuration {
        self.task_duration
    }

    /// Moves the nominal delivery time (the app re-registering its alarm,
    /// e.g. after a push message told it to sync on a new schedule). The
    /// window and grace lengths are unchanged.
    pub fn reschedule(&mut self, nominal: SimTime) {
        self.nominal = nominal;
    }

    /// Advances a repeating alarm to its next period after a delivery at
    /// `delivered_at`, returning `false` for one-shot alarms (which are
    /// never reinserted).
    ///
    /// Static alarms advance along their fixed grid (skipping any periods
    /// that the delivery already passed, which cannot happen while the
    /// `grace < repeat` invariant holds); dynamic alarms reappoint the
    /// nominal time relative to the actual delivery (§2.1).
    pub fn advance_after_delivery(&mut self, delivered_at: SimTime) -> bool {
        match self.repeat {
            Repeat::OneShot => false,
            Repeat::Static(interval) => {
                let mut next = self.nominal + interval;
                while next <= delivered_at {
                    next += interval;
                }
                self.nominal = next;
                true
            }
            Repeat::Dynamic(interval) => {
                self.nominal = delivered_at + interval;
                true
            }
        }
    }

    /// The window length as a fraction of the repeating interval (the
    /// paper's α), or `None` for one-shot alarms.
    pub fn alpha(&self) -> Option<f64> {
        self.repeat
            .interval()
            .map(|i| self.window.div_duration_f64(i))
    }

    /// The grace length as a fraction of the repeating interval (the
    /// paper's β), or `None` for one-shot alarms.
    pub fn beta(&self) -> Option<f64> {
        self.repeat
            .interval()
            .map(|i| self.grace.div_duration_f64(i))
    }
}

impl fmt::Display for Alarm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} ({}, {}, nominal {}, window {}, grace {})",
            self.id, self.label, self.kind, self.repeat, self.nominal, self.window, self.grace
        )
    }
}

/// Builder for [`Alarm`] (see [`Alarm::builder`]).
///
/// Window and grace intervals may be given either as absolute durations
/// ([`window`](Self::window) / [`grace`](Self::grace)) or, for repeating
/// alarms, as fractions of the repeating interval
/// ([`window_fraction`](Self::window_fraction) /
/// [`grace_fraction`](Self::grace_fraction)) — the paper's α and β.
/// Defaults: nominal = 0, one-shot, wakeup, empty hardware set,
/// zero window, grace = window, 1 s task.
#[derive(Debug, Clone)]
pub struct AlarmBuilder {
    label: Arc<str>,
    nominal: SimTime,
    window: WindowSpec,
    grace: Option<WindowSpec>,
    repeat: Repeat,
    kind: AlarmKind,
    hardware: HardwareSet,
    task_duration: SimDuration,
}

#[derive(Debug, Clone, Copy)]
enum WindowSpec {
    Absolute(SimDuration),
    Fraction(f64),
}

impl AlarmBuilder {
    fn new(label: impl Into<Arc<str>>) -> Self {
        AlarmBuilder {
            label: label.into(),
            nominal: SimTime::ZERO,
            window: WindowSpec::Absolute(SimDuration::ZERO),
            grace: None,
            repeat: Repeat::OneShot,
            kind: AlarmKind::Wakeup,
            hardware: HardwareSet::empty(),
            task_duration: SimDuration::from_secs(1),
        }
    }

    /// Sets the first nominal delivery time.
    pub fn nominal(mut self, nominal: SimTime) -> Self {
        self.nominal = nominal;
        self
    }

    /// Makes this a static repeating alarm with the given interval.
    pub fn repeating_static(mut self, interval: SimDuration) -> Self {
        self.repeat = Repeat::Static(interval);
        self
    }

    /// Makes this a dynamic repeating alarm with the given interval.
    pub fn repeating_dynamic(mut self, interval: SimDuration) -> Self {
        self.repeat = Repeat::Dynamic(interval);
        self
    }

    /// Makes this a one-shot alarm (the default).
    pub fn one_shot(mut self) -> Self {
        self.repeat = Repeat::OneShot;
        self
    }

    /// Sets the window interval as an absolute duration.
    pub fn window(mut self, window: SimDuration) -> Self {
        self.window = WindowSpec::Absolute(window);
        self
    }

    /// Sets the window interval as a fraction α of the repeating interval
    /// (Android's default is α = 0.75; see Table 3 for per-app values).
    pub fn window_fraction(mut self, alpha: f64) -> Self {
        self.window = WindowSpec::Fraction(alpha);
        self
    }

    /// Sets the grace interval as an absolute duration.
    pub fn grace(mut self, grace: SimDuration) -> Self {
        self.grace = Some(WindowSpec::Absolute(grace));
        self
    }

    /// Sets the grace interval as a fraction β of the repeating interval
    /// (the paper's experiments use β = 0.96).
    pub fn grace_fraction(mut self, beta: f64) -> Self {
        self.grace = Some(WindowSpec::Fraction(beta));
        self
    }

    /// Sets wakeup vs non-wakeup (the default is wakeup).
    pub fn kind(mut self, kind: AlarmKind) -> Self {
        self.kind = kind;
        self
    }

    /// Declares the hardware set the alarm's task wakelocks. The policy
    /// will not see this until the first delivery (footnote 4).
    pub fn hardware(mut self, hardware: HardwareSet) -> Self {
        self.hardware = hardware;
        self
    }

    /// Sets how long the task holds its wakelocks after delivery.
    pub fn task_duration(mut self, duration: SimDuration) -> Self {
        self.task_duration = duration;
        self
    }

    /// Builds the alarm, validating the paper's interval constraints.
    ///
    /// # Errors
    ///
    /// Returns [`BuildAlarmError`] if `grace < window`, if a repeating
    /// alarm's grace is not strictly below its repeating interval, if a
    /// repeating interval is zero, or if a window/grace *fraction* is used
    /// on a one-shot alarm or lies outside `[0, 1)`.
    pub fn build(self) -> Result<Alarm, BuildAlarmError> {
        if let Some(interval) = self.repeat.interval() {
            if interval.is_zero() {
                return Err(BuildAlarmError::ZeroRepeatInterval);
            }
        }
        let window = Self::resolve(self.window, self.repeat)?;
        let grace = match self.grace {
            Some(spec) => Self::resolve(spec, self.repeat)?,
            None => window,
        };
        if grace < window {
            return Err(BuildAlarmError::GraceShorterThanWindow { window, grace });
        }
        if let Some(interval) = self.repeat.interval() {
            if grace >= interval {
                return Err(BuildAlarmError::GraceNotBelowRepeat {
                    grace,
                    repeat: interval,
                });
            }
        }
        Ok(Alarm {
            id: AlarmId::fresh(),
            label: self.label,
            nominal: self.nominal,
            window,
            grace,
            repeat: self.repeat,
            kind: self.kind,
            hardware: self.hardware,
            hardware_known: false,
            task_duration: self.task_duration,
            quarantined: false,
            grace_stretch: GRACE_STRETCH_UNIT,
        })
    }

    fn resolve(spec: WindowSpec, repeat: Repeat) -> Result<SimDuration, BuildAlarmError> {
        match spec {
            WindowSpec::Absolute(d) => Ok(d),
            WindowSpec::Fraction(f) => {
                if !(0.0..1.0).contains(&f) {
                    return Err(BuildAlarmError::FractionOutOfRange { fraction: f });
                }
                let interval = repeat
                    .interval()
                    .ok_or(BuildAlarmError::FractionWithoutRepeat { fraction: f })?;
                Ok(interval.mul_f64(f))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hardware::HardwareComponent;

    fn wifi_alarm(alpha: f64, beta: f64) -> Alarm {
        Alarm::builder("test")
            .nominal(SimTime::from_secs(100))
            .repeating_static(SimDuration::from_secs(100))
            .window_fraction(alpha)
            .grace_fraction(beta)
            .hardware(HardwareComponent::Wifi.into())
            .build()
            .unwrap()
    }

    #[test]
    fn ids_are_unique() {
        let a = wifi_alarm(0.5, 0.9);
        let b = wifi_alarm(0.5, 0.9);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn fractions_scale_the_repeating_interval() {
        let a = wifi_alarm(0.75, 0.96);
        assert_eq!(a.window(), SimDuration::from_secs(75));
        assert_eq!(a.grace(), SimDuration::from_secs(96));
        assert!((a.alpha().unwrap() - 0.75).abs() < 1e-9);
        assert!((a.beta().unwrap() - 0.96).abs() < 1e-9);
    }

    #[test]
    fn intervals_start_at_nominal() {
        let a = wifi_alarm(0.75, 0.96);
        assert_eq!(a.window_interval().start(), SimTime::from_secs(100));
        assert_eq!(a.window_interval().end(), SimTime::from_secs(175));
        assert_eq!(a.grace_interval().end(), SimTime::from_secs(196));
    }

    #[test]
    fn grace_defaults_to_window() {
        let a = Alarm::builder("w")
            .repeating_static(SimDuration::from_secs(60))
            .window_fraction(0.5)
            .build()
            .unwrap();
        assert_eq!(a.grace(), a.window());
    }

    #[test]
    fn build_rejects_grace_below_window() {
        let err = Alarm::builder("bad")
            .repeating_static(SimDuration::from_secs(100))
            .window_fraction(0.75)
            .grace_fraction(0.5)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            BuildAlarmError::GraceShorterThanWindow { .. }
        ));
    }

    #[test]
    fn build_rejects_grace_at_or_above_repeat() {
        let err = Alarm::builder("bad")
            .repeating_static(SimDuration::from_secs(100))
            .grace(SimDuration::from_secs(100))
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildAlarmError::GraceNotBelowRepeat { .. }));
    }

    #[test]
    fn build_rejects_zero_repeat() {
        let err = Alarm::builder("bad")
            .repeating_dynamic(SimDuration::ZERO)
            .build()
            .unwrap_err();
        assert_eq!(err, BuildAlarmError::ZeroRepeatInterval);
    }

    #[test]
    fn build_rejects_fraction_on_one_shot() {
        let err = Alarm::builder("bad")
            .window_fraction(0.5)
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildAlarmError::FractionWithoutRepeat { .. }));
    }

    #[test]
    fn build_rejects_out_of_range_fraction() {
        let err = Alarm::builder("bad")
            .repeating_static(SimDuration::from_secs(10))
            .window_fraction(1.0)
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildAlarmError::FractionOutOfRange { .. }));
    }

    #[test]
    fn perceptibility_per_footnote_5() {
        // Unknown hardware -> perceptible, even if the declared set is not.
        let mut a = wifi_alarm(0.75, 0.96);
        assert!(a.is_perceptible());
        a.mark_hardware_known();
        assert!(!a.is_perceptible());
        assert_eq!(a.known_hardware(), HardwareComponent::Wifi.into());

        // One-shot alarms are always perceptible.
        let mut one_shot = Alarm::builder("once").build().unwrap();
        one_shot.mark_hardware_known();
        assert!(one_shot.is_perceptible());

        // Perceptible hardware -> perceptible once known.
        let mut notify = Alarm::builder("cal")
            .repeating_static(SimDuration::from_secs(1800))
            .hardware(HardwareComponent::Speaker | HardwareComponent::Vibrator)
            .build()
            .unwrap();
        notify.mark_hardware_known();
        assert!(notify.is_perceptible());
    }

    #[test]
    fn known_hardware_is_empty_until_first_delivery() {
        let a = wifi_alarm(0.75, 0.96);
        assert!(a.known_hardware().is_empty());
        assert!(!a.hardware().is_empty());
    }

    #[test]
    fn static_advance_stays_on_grid() {
        let mut a = wifi_alarm(0.0, 0.5);
        // Nominal 100, interval 100; delivered late at 140 -> next nominal 200.
        assert!(a.advance_after_delivery(SimTime::from_secs(140)));
        assert_eq!(a.nominal(), SimTime::from_secs(200));
        // Delivered exactly on a later grid point -> skips to the one after.
        assert!(a.advance_after_delivery(SimTime::from_secs(300)));
        assert_eq!(a.nominal(), SimTime::from_secs(400));
    }

    #[test]
    fn dynamic_advance_reappoints_from_delivery() {
        let mut a = Alarm::builder("d")
            .nominal(SimTime::from_secs(60))
            .repeating_dynamic(SimDuration::from_secs(60))
            .build()
            .unwrap();
        assert!(a.advance_after_delivery(SimTime::from_secs(95)));
        assert_eq!(a.nominal(), SimTime::from_secs(155));
    }

    #[test]
    fn one_shot_does_not_advance() {
        let mut a = Alarm::builder("o").build().unwrap();
        assert!(!a.advance_after_delivery(SimTime::from_secs(10)));
    }

    #[test]
    fn display_is_informative() {
        let a = wifi_alarm(0.75, 0.96);
        let s = a.to_string();
        assert!(s.contains("test"));
        assert!(s.contains("static"));
    }

    #[test]
    fn grace_stretch_widens_only_imperceptible_alarms() {
        // interval 100 s, grace 50 s.
        let mut a = wifi_alarm(0.25, 0.5);
        a.set_grace_stretch(1_500);
        // Hardware still unknown -> perceptible -> no stretch.
        assert!(a.is_perceptible());
        assert_eq!(a.grace(), SimDuration::from_secs(50));
        a.mark_hardware_known();
        assert!(!a.is_perceptible());
        assert_eq!(a.grace(), SimDuration::from_secs(75));
        assert_eq!(a.grace_base(), SimDuration::from_secs(50));
        assert_eq!(a.grace_interval().end(), SimTime::from_secs(175));
        // Beta reports the registered fraction, not the stretched one.
        assert!((a.beta().unwrap() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn grace_stretch_is_capped_below_the_repeating_interval() {
        let mut a = wifi_alarm(0.25, 0.5);
        a.mark_hardware_known();
        a.set_grace_stretch(10_000); // 10x of 50 s would blow past 100 s
        assert_eq!(a.grace(), SimDuration::from_millis(99_999));
        // Resetting to the unit restores the registered grace exactly.
        a.set_grace_stretch(GRACE_STRETCH_UNIT);
        assert_eq!(a.grace(), SimDuration::from_secs(50));
        // Below-unit requests clamp to the unit: degradation may only
        // widen, never shrink (§3.1.2 forbids grace < window).
        a.set_grace_stretch(100);
        assert_eq!(a.grace_stretch(), GRACE_STRETCH_UNIT);
    }

    #[test]
    fn quarantined_alarms_are_stretched_too() {
        let mut a = wifi_alarm(0.25, 0.5);
        a.set_quarantined(true); // quarantine demotes to imperceptible
        a.set_grace_stretch(2_000);
        assert_eq!(
            a.grace(),
            SimDuration::from_secs(100).min(SimDuration::from_millis(99_999))
        );
    }
}
