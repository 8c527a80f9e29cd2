//! The alarm manager: registration, batching, delivery, and reinsertion.
//!
//! Mirrors the role of Android's `AlarmManager` (§2.1, Figure 1): apps
//! register alarms; the manager keeps them batched in queue entries
//! according to its [`AlignmentPolicy`]; the real-time clock (in this
//! library: the simulator) pops due entries and delivers them; repeating
//! alarms are reinserted with their next nominal delivery time.
//!
//! Wakeup and non-wakeup alarms are managed in *separate* queues, and the
//! alignment policy is applied to each queue separately, exactly as in
//! the paper ("the above policy is applied to wakeup and non-wakeup
//! alarms separately").

use std::fmt;

use crate::alarm::{Alarm, AlarmId, AlarmKind, GRACE_STRETCH_UNIT};
use crate::audit::{AuditLevel, CandidateAudit, PlacementAudit, PlacementTally};
use crate::entry::QueueEntry;
use crate::error::RegisterAlarmError;
use crate::policy::{AlignmentPolicy, Placement};
use crate::queue::AlarmQueue;
use crate::time::SimTime;

/// The central wakeup manager.
///
/// # Examples
///
/// ```
/// use simty_core::alarm::Alarm;
/// use simty_core::manager::AlarmManager;
/// use simty_core::policy::SimtyPolicy;
/// use simty_core::time::{SimDuration, SimTime};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut manager = AlarmManager::new(Box::new(SimtyPolicy::new()));
/// let alarm = Alarm::builder("sync")
///     .nominal(SimTime::from_secs(60))
///     .repeating_dynamic(SimDuration::from_secs(60))
///     .grace_fraction(0.96)
///     .build()?;
/// manager.register(alarm)?;
/// assert_eq!(manager.next_wakeup_time(), Some(SimTime::from_secs(60)));
/// # Ok(())
/// # }
/// ```
pub struct AlarmManager {
    policy: Box<dyn AlignmentPolicy>,
    wakeup: AlarmQueue,
    non_wakeup: AlarmQueue,
    now: SimTime,
    /// What placement decisions leave behind until the next drain (see
    /// [`set_audit_level`](Self::set_audit_level)).
    audit_sink: AuditSink,
    /// Cleared candidate buffers of retired audits, reused by the next
    /// audited decisions (see [`drain_audits`](Self::drain_audits)).
    spare_candidates: Vec<Vec<CandidateAudit>>,
    /// The degradation governor's current grace multiplier (millis-style
    /// fixed point; [`GRACE_STRETCH_UNIT`] = no stretch). Stamped onto
    /// every alarm at registration/reinsertion so placement sees the
    /// widened grace intervals.
    grace_stretch: u32,
}

impl AlarmManager {
    /// Creates a manager governed by the given alignment policy.
    pub fn new(policy: Box<dyn AlignmentPolicy>) -> Self {
        AlarmManager {
            policy,
            wakeup: AlarmQueue::new(),
            non_wakeup: AlarmQueue::new(),
            now: SimTime::ZERO,
            audit_sink: AuditSink::Off,
            spare_candidates: Vec::new(),
            grace_stretch: GRACE_STRETCH_UNIT,
        }
    }

    /// Replaces both queues, the clock and the degradation grace
    /// multiplier with persisted ones, keeping the policy (checkpoint
    /// restore).
    ///
    /// The queues must have been captured from a live manager governed by
    /// an identical policy: restore bypasses [`register`](Self::register)
    /// because mid-flight state is not re-registrable — entries already
    /// reflect the policy's historical placement decisions, and alarms may
    /// carry nominal times at (or, transiently, before) `now`. Likewise
    /// the stretch re-places nothing: restored alarms already carry their
    /// historical stamps. Use [`set_grace_stretch`](Self::set_grace_stretch)
    /// everywhere else.
    pub fn restore_state(
        &mut self,
        wakeup: AlarmQueue,
        non_wakeup: AlarmQueue,
        now: SimTime,
        stretch_milli: u32,
    ) {
        self.wakeup = wakeup;
        self.non_wakeup = non_wakeup;
        self.now = now;
        self.grace_stretch = stretch_milli.max(GRACE_STRETCH_UNIT);
    }

    /// Sets how much of each placement decision the manager records.
    ///
    /// At [`AuditLevel::Full`], every [`register`](Self::register) /
    /// [`complete_delivery`](Self::complete_delivery) /
    /// [`set_app_quarantined`](Self::set_app_quarantined) records one
    /// [`PlacementAudit`] per placement decision into an internal sink;
    /// drain it with [`drain_audits`](Self::drain_audits). At
    /// [`AuditLevel::Outcomes`] it only tallies each decision's outcome;
    /// take the tally with
    /// [`take_placement_tally`](Self::take_placement_tally). Changing the
    /// level discards anything not yet drained. Auditing never changes
    /// placement outcomes.
    pub fn set_audit_level(&mut self, level: AuditLevel) {
        if level == self.audit_level() {
            return;
        }
        self.audit_sink = match level {
            AuditLevel::Off => AuditSink::Off,
            AuditLevel::Outcomes => AuditSink::Outcomes(PlacementTally::default()),
            AuditLevel::Full => AuditSink::Full(Vec::new()),
        };
    }

    /// How much of each placement decision the manager records.
    pub fn audit_level(&self) -> AuditLevel {
        match self.audit_sink {
            AuditSink::Off => AuditLevel::Off,
            AuditSink::Outcomes(_) => AuditLevel::Outcomes,
            AuditSink::Full(_) => AuditLevel::Full,
        }
    }

    /// The placement outcomes tallied since the last call, resetting the
    /// tally; all zero unless the level is [`AuditLevel::Outcomes`].
    pub fn take_placement_tally(&mut self) -> PlacementTally {
        match &mut self.audit_sink {
            AuditSink::Outcomes(tally) => std::mem::take(tally),
            _ => PlacementTally::default(),
        }
    }

    /// Hands every placement decision recorded since the last drain to
    /// `ingest`, in decision order; nothing below [`AuditLevel::Full`].
    /// The sink keeps its buffer. `ingest` may return an audit it has
    /// retired (one evicted from a bounded ring, say): the manager keeps
    /// its cleared candidate buffer for a later decision, so a full ring
    /// costs no allocation per decision.
    pub fn drain_audits(
        &mut self,
        mut ingest: impl FnMut(PlacementAudit) -> Option<PlacementAudit>,
    ) {
        let AuditSink::Full(sink) = &mut self.audit_sink else {
            return;
        };
        for audit in sink.drain(..) {
            if let Some(retired) = ingest(audit) {
                let mut candidates = retired.candidates;
                candidates.clear();
                self.spare_candidates.push(candidates);
            }
        }
    }

    /// The governing policy's display name.
    pub fn policy_name(&self) -> &str {
        self.policy.name()
    }

    /// The governing policy.
    pub fn policy(&self) -> &dyn AlignmentPolicy {
        self.policy.as_ref()
    }

    /// The manager's current clock.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the manager's clock (monotonic; earlier times are ignored).
    pub fn advance_clock(&mut self, now: SimTime) {
        self.now = self.now.max(now);
    }

    /// The wakeup-alarm queue (inspection only).
    pub fn wakeup_queue(&self) -> &AlarmQueue {
        &self.wakeup
    }

    /// The non-wakeup-alarm queue (inspection only).
    pub fn non_wakeup_queue(&self) -> &AlarmQueue {
        &self.non_wakeup
    }

    /// Every registered alarm, the wakeup queue's first, in queue order.
    pub fn alarms(&self) -> impl Iterator<Item = &Alarm> {
        [&self.wakeup, &self.non_wakeup]
            .into_iter()
            .flat_map(|q| q.entries())
            .flat_map(QueueEntry::alarms)
    }

    /// Total number of registered alarms across both queues.
    pub fn alarm_count(&self) -> usize {
        self.wakeup.alarm_count() + self.non_wakeup.alarm_count()
    }

    /// Registers (or re-registers) an alarm.
    ///
    /// If the same alarm is still queued, its stale copy is removed first
    /// (§3.2.1). Under a policy with
    /// [`realigns_on_reinsert`](AlignmentPolicy::realigns_on_reinsert)
    /// (NATIVE), the stale copy's entry-mates are additionally re-placed
    /// together with the new alarm, in nominal-delivery-time order (§2.1).
    ///
    /// # Errors
    ///
    /// Returns [`RegisterAlarmError::NominalInPast`] if the alarm's
    /// nominal delivery time precedes the manager's clock, and a
    /// shape-specific variant if the alarm's intervals are degenerate
    /// (zero repeat, window > repeat, grace < window, grace ≥ repeat, or a
    /// non-finite grace fraction). The builder already rejects such specs,
    /// but [`Alarm::restore`] is a trusted constructor and must not let a
    /// corrupted snapshot poison the queues silently.
    pub fn register(&mut self, mut alarm: Alarm) -> Result<AlarmId, RegisterAlarmError> {
        self.validate(&alarm)?;
        alarm.set_grace_stretch(self.grace_stretch);
        let id = alarm.id();
        let kind = alarm.kind();
        let queued = self.queue(kind).position_of(id);
        match queued {
            Some(idx) if self.policy.realigns_on_reinsert() => {
                let mut entry = self.queue_mut(kind).take_entry(idx);
                entry.remove(id);
                let mut batch = entry.into_alarms();
                batch.push(alarm);
                batch.sort_by_key(Alarm::nominal);
                for a in batch {
                    self.place(a);
                }
            }
            Some(_) => {
                self.queue_mut(kind).remove_alarm(id);
                self.place(alarm);
            }
            None => self.place(alarm),
        }
        Ok(id)
    }

    /// Shape-validates a registration (see [`register`](Self::register)).
    fn validate(&self, alarm: &Alarm) -> Result<(), RegisterAlarmError> {
        let id = alarm.id();
        if let Some(interval) = alarm.repeat().interval() {
            if interval.is_zero() {
                return Err(RegisterAlarmError::ZeroRepeatInterval { id });
            }
            if alarm.window() > interval {
                return Err(RegisterAlarmError::WindowExceedsRepeat {
                    id,
                    window: alarm.window(),
                    repeat: interval,
                });
            }
            if alarm.grace_base() >= interval {
                return Err(RegisterAlarmError::GraceNotBelowRepeat {
                    id,
                    grace: alarm.grace_base(),
                    repeat: interval,
                });
            }
            if alarm.beta().is_some_and(|b| !b.is_finite()) {
                return Err(RegisterAlarmError::NonFiniteGraceFraction { id });
            }
        }
        if alarm.grace_base() < alarm.window() {
            return Err(RegisterAlarmError::GraceShorterThanWindow {
                id,
                window: alarm.window(),
                grace: alarm.grace_base(),
            });
        }
        if alarm.nominal() < self.now {
            return Err(RegisterAlarmError::NominalInPast { id });
        }
        Ok(())
    }

    /// The degradation governor's current grace multiplier.
    pub fn grace_stretch(&self) -> u32 {
        self.grace_stretch
    }

    /// Applies a degradation-tier grace multiplier (millis-style fixed
    /// point; [`GRACE_STRETCH_UNIT`] = 1.0×, values below it clamp to it)
    /// to every queued alarm and to all future registrations, returning
    /// how many queued alarms were restamped.
    ///
    /// On a change, both queues are drained and every alarm re-placed
    /// under the policy in nominal order, exactly like
    /// [`set_app_quarantined`](Self::set_app_quarantined): imperceptible
    /// alarms' wider (or re-narrowed) grace intervals change how entries
    /// batch, and stale batching would under- or over-defer them.
    pub fn set_grace_stretch(&mut self, stretch_milli: u32) -> usize {
        let stretch = stretch_milli.max(GRACE_STRETCH_UNIT);
        if stretch == self.grace_stretch {
            return 0;
        }
        self.grace_stretch = stretch;
        let mut changed = 0;
        for kind in [AlarmKind::Wakeup, AlarmKind::NonWakeup] {
            let mut batch: Vec<Alarm> = Vec::new();
            while !self.queue(kind).is_empty() {
                batch.extend(self.queue_mut(kind).take_entry(0).into_alarms());
            }
            for alarm in &mut batch {
                if alarm.grace_stretch() != stretch {
                    alarm.set_grace_stretch(stretch);
                    changed += 1;
                }
            }
            batch.sort_by_key(Alarm::nominal);
            for alarm in batch {
                self.place(alarm);
            }
        }
        changed
    }

    /// Cancels a registered alarm, returning it if it was queued.
    pub fn cancel(&mut self, id: AlarmId) -> Option<Alarm> {
        self.wakeup
            .remove_alarm(id)
            .or_else(|| self.non_wakeup.remove_alarm(id))
    }

    /// Cancels every queued alarm whose label is `label`, across both
    /// queues, returning them in nominal order.
    ///
    /// This is the crash-injection path (`simty_sim`'s fault plans): a
    /// crashed app loses all of its registrations at once and re-registers
    /// them only after its process restarts.
    pub fn cancel_app(&mut self, label: &str) -> Vec<Alarm> {
        let mut ids = Vec::new();
        for queue in [&self.wakeup, &self.non_wakeup] {
            for entry in queue.entries() {
                for alarm in entry.alarms() {
                    if alarm.label() == label {
                        ids.push(alarm.id());
                    }
                }
            }
        }
        let mut cancelled: Vec<Alarm> = ids.into_iter().filter_map(|id| self.cancel(id)).collect();
        cancelled.sort_by_key(Alarm::nominal);
        cancelled
    }

    /// Sets or clears the watchdog quarantine demotion on every queued
    /// alarm of `label` (see [`Alarm::is_quarantined`]), returning how
    /// many alarms changed state.
    ///
    /// Affected entries are re-placed under the policy so batching,
    /// perceptibility, and delivery times are recomputed: a quarantined
    /// alarm's entry may move later in the queue (SIMTY defers it into its
    /// grace interval), and a recovered alarm's entry snaps back to its
    /// window.
    pub fn set_app_quarantined(&mut self, label: &str, quarantined: bool) -> usize {
        let mut changed = 0;
        for kind in [AlarmKind::Wakeup, AlarmKind::NonWakeup] {
            loop {
                let idx = self.queue(kind).entries().iter().position(|e| {
                    e.alarms()
                        .iter()
                        .any(|a| a.label() == label && a.is_quarantined() != quarantined)
                });
                let Some(idx) = idx else { break };
                let mut batch = self.queue_mut(kind).take_entry(idx).into_alarms();
                for alarm in &mut batch {
                    if alarm.label() == label && alarm.is_quarantined() != quarantined {
                        alarm.set_quarantined(quarantined);
                        changed += 1;
                    }
                }
                batch.sort_by_key(Alarm::nominal);
                for alarm in batch {
                    self.place(alarm);
                }
            }
        }
        changed
    }

    /// Looks up a queued alarm by id (either queue).
    pub fn find_alarm(&self, id: AlarmId) -> Option<&Alarm> {
        for queue in [&self.wakeup, &self.non_wakeup] {
            if let Some(idx) = queue.position_of(id) {
                return queue.entries()[idx].alarms().iter().find(|a| a.id() == id);
            }
        }
        None
    }

    /// The next time the real-time clock must awaken the device, i.e. the
    /// front of the wakeup queue.
    pub fn next_wakeup_time(&self) -> Option<SimTime> {
        self.wakeup.next_delivery_time()
    }

    /// Pops every entry due at or before `now` into `out`, wakeup entries
    /// first, then non-wakeup ones, and advances the clock to `now`. Call
    /// it at a wake: non-wakeup alarms must not awaken the device, so
    /// they wait for the next one (§2.1). The caller delivers the entries
    /// and then calls [`complete_delivery`](Self::complete_delivery) per
    /// alarm and [`recycle`](Self::recycle) per emptied buffer.
    pub fn pop_due_into(&mut self, now: SimTime, out: &mut Vec<QueueEntry>) {
        self.advance_clock(now);
        self.wakeup.pop_due_into(now, out);
        self.non_wakeup.pop_due_into(now, out);
    }

    /// Hands back a delivered entry's member buffer, emptied or not, to
    /// the queue of `kind`, whose next new entry reuses it (see
    /// [`AlarmQueue::recycle`]).
    pub fn recycle(&mut self, kind: AlarmKind, buffer: Vec<Alarm>) {
        self.queue_mut(kind).recycle(buffer);
    }

    /// Finishes a delivery: records the alarm's hardware usage as known
    /// (footnote 4) and, for repeating alarms, reinserts the alarm with
    /// its next nominal delivery time. Returns the id if it was
    /// reinserted, `None` for one-shot alarms.
    ///
    /// The alarm must have come out of
    /// [`pop_due_into`](Self::pop_due_into), so no stale copy of it is
    /// queued: unlike
    /// [`register`](Self::register), the reinsertion validates, stamps
    /// the grace stretch and places the alarm without searching the queue
    /// for one. Debug builds check this precondition.
    ///
    /// # Panics
    ///
    /// Panics if the computed next nominal time is in the past, which the
    /// `grace < repeat` alarm invariant rules out.
    pub fn complete_delivery(
        &mut self,
        mut alarm: Alarm,
        delivered_at: SimTime,
    ) -> Option<AlarmId> {
        self.advance_clock(delivered_at);
        alarm.mark_hardware_known();
        if !alarm.advance_after_delivery(delivered_at) {
            return None;
        }
        let id = alarm.id();
        debug_assert!(
            !self.queue(alarm.kind()).contains_alarm(id),
            "alarm {id:?} completed while still queued"
        );
        self.validate(&alarm)
            .expect("next nominal delivery time must be in the future");
        alarm.set_grace_stretch(self.grace_stretch);
        self.place(alarm);
        Some(id)
    }

    fn queue(&self, kind: AlarmKind) -> &AlarmQueue {
        match kind {
            AlarmKind::Wakeup => &self.wakeup,
            AlarmKind::NonWakeup => &self.non_wakeup,
        }
    }

    fn queue_mut(&mut self, kind: AlarmKind) -> &mut AlarmQueue {
        match kind {
            AlarmKind::Wakeup => &mut self.wakeup,
            AlarmKind::NonWakeup => &mut self.non_wakeup,
        }
    }

    fn place(&mut self, alarm: Alarm) {
        let kind = alarm.kind();
        // Borrow the queue by field so the sink can be borrowed mutably
        // alongside it (`self.queue(kind)` would freeze all of `self`).
        let queue = match kind {
            AlarmKind::Wakeup => &self.wakeup,
            AlarmKind::NonWakeup => &self.non_wakeup,
        };
        let placement = match &mut self.audit_sink {
            AuditSink::Off => self.policy.place(queue, &alarm),
            AuditSink::Outcomes(tally) => {
                let placement = self.policy.place(queue, &alarm);
                match placement {
                    Placement::Existing(_) => tally.existing += 1,
                    Placement::NewEntry => tally.new_entry += 1,
                }
                placement
            }
            AuditSink::Full(sink) => {
                // A typical decision weighs only a few candidates; reserve
                // so a fresh buffer costs one allocation, not a growth
                // series.
                let mut candidates = self
                    .spare_candidates
                    .pop()
                    .unwrap_or_else(|| Vec::with_capacity(8));
                let placement = self.policy.place_audited(queue, &alarm, &mut candidates);
                sink.push(PlacementAudit {
                    at: self.now,
                    alarm_id: alarm.id(),
                    app: alarm.label_arc(),
                    nominal: alarm.nominal(),
                    perceptible: alarm.is_perceptible(),
                    placement,
                    candidates,
                });
                placement
            }
        };
        let discipline = self.policy.discipline();
        match placement {
            Placement::Existing(idx) => self.queue_mut(kind).add_to_entry(idx, alarm),
            Placement::NewEntry => self.queue_mut(kind).insert_new_entry(alarm, discipline),
        }
    }
}

/// The manager's record of placement decisions, one shape per
/// [`AuditLevel`].
enum AuditSink {
    Off,
    Outcomes(PlacementTally),
    Full(Vec<PlacementAudit>),
}

impl fmt::Debug for AlarmManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AlarmManager")
            .field("policy", &self.policy.name())
            .field("now", &self.now)
            .field("wakeup_entries", &self.wakeup.len())
            .field("non_wakeup_entries", &self.non_wakeup.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hardware::HardwareComponent;
    use crate::policy::{ExactPolicy, NativePolicy, SimtyPolicy};
    use crate::time::SimDuration;

    fn wifi_alarm(label: &str, nominal_s: u64, repeat_s: u64, alpha: f64) -> Alarm {
        Alarm::builder(label)
            .nominal(SimTime::from_secs(nominal_s))
            .repeating_static(SimDuration::from_secs(repeat_s))
            .window_fraction(alpha)
            .grace_fraction(0.9)
            .hardware(HardwareComponent::Wifi.into())
            .build()
            .unwrap()
    }

    #[test]
    fn register_and_next_wakeup() {
        let mut m = AlarmManager::new(Box::new(ExactPolicy::new()));
        m.register(wifi_alarm("a", 100, 600, 0.75)).unwrap();
        m.register(wifi_alarm("b", 50, 600, 0.75)).unwrap();
        assert_eq!(m.next_wakeup_time(), Some(SimTime::from_secs(50)));
        assert_eq!(m.alarm_count(), 2);
    }

    #[test]
    fn register_rejects_past_nominal() {
        let mut m = AlarmManager::new(Box::new(NativePolicy::new()));
        m.advance_clock(SimTime::from_secs(100));
        let err = m.register(wifi_alarm("late", 50, 600, 0.75)).unwrap_err();
        assert!(matches!(err, RegisterAlarmError::NominalInPast { .. }));
    }

    #[test]
    fn native_batches_by_window_overlap() {
        let mut m = AlarmManager::new(Box::new(NativePolicy::new()));
        m.register(wifi_alarm("a", 100, 600, 0.75)).unwrap(); // window [100,550]
        m.register(wifi_alarm("b", 200, 600, 0.75)).unwrap(); // window [200,650]
        assert_eq!(m.wakeup_queue().len(), 1);
        assert_eq!(m.wakeup_queue().alarm_count(), 2);
        // Batched entry fires at the intersection start.
        assert_eq!(m.next_wakeup_time(), Some(SimTime::from_secs(200)));
    }

    #[test]
    fn pop_due_and_complete_delivery_reinserts_repeating() {
        let mut m = AlarmManager::new(Box::new(NativePolicy::new()));
        m.register(wifi_alarm("a", 100, 600, 0.0)).unwrap();
        let mut due = Vec::new();
        m.pop_due_into(SimTime::from_secs(100), &mut due);
        assert_eq!(due.len(), 1);
        assert_eq!(m.alarm_count(), 0);
        for entry in due {
            for alarm in entry.into_alarms() {
                let reinserted = m.complete_delivery(alarm, SimTime::from_secs(100));
                assert!(reinserted.is_some());
            }
        }
        assert_eq!(m.alarm_count(), 1);
        assert_eq!(m.next_wakeup_time(), Some(SimTime::from_secs(700)));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "completed while still queued")]
    fn completing_a_still_queued_alarm_trips_the_debug_check() {
        let mut m = AlarmManager::new(Box::new(SimtyPolicy::new()));
        let a = wifi_alarm("a", 100, 600, 0.75);
        m.register(a.clone()).unwrap();
        m.complete_delivery(a, SimTime::from_secs(100));
    }

    #[test]
    fn hardware_becomes_known_after_delivery() {
        let mut m = AlarmManager::new(Box::new(SimtyPolicy::new()));
        m.register(wifi_alarm("a", 100, 600, 0.75)).unwrap();
        let mut due = Vec::new();
        m.pop_due_into(SimTime::from_secs(100), &mut due);
        let alarm = due.pop().unwrap().into_alarms().pop().unwrap();
        assert!(!alarm.is_hardware_known());
        m.complete_delivery(alarm, SimTime::from_secs(100));
        let requeued = &m.wakeup_queue().entries()[0].alarms()[0];
        assert!(requeued.is_hardware_known());
        assert!(!requeued.is_perceptible());
    }

    #[test]
    fn one_shot_is_not_reinserted() {
        let mut m = AlarmManager::new(Box::new(NativePolicy::new()));
        let one_shot = Alarm::builder("once")
            .nominal(SimTime::from_secs(10))
            .build()
            .unwrap();
        m.register(one_shot).unwrap();
        let mut due = Vec::new();
        m.pop_due_into(SimTime::from_secs(10), &mut due);
        let alarm = due.pop().unwrap().into_alarms().pop().unwrap();
        assert_eq!(m.complete_delivery(alarm, SimTime::from_secs(10)), None);
        assert_eq!(m.alarm_count(), 0);
    }

    #[test]
    fn reinsert_removes_stale_copy() {
        let mut m = AlarmManager::new(Box::new(SimtyPolicy::new()));
        let a = wifi_alarm("a", 100, 600, 0.75);
        let id = a.id();
        m.register(a.clone()).unwrap();
        // Re-register the same alarm with a later nominal time.
        let mut later = a;
        assert!(later.advance_after_delivery(SimTime::from_secs(100)));
        m.register(later).unwrap();
        assert_eq!(m.alarm_count(), 1);
        assert!(m.wakeup_queue().contains_alarm(id));
        assert_eq!(m.next_wakeup_time(), Some(SimTime::from_secs(700)));
    }

    #[test]
    fn native_realignment_rebatches_entry_mates() {
        let mut m = AlarmManager::new(Box::new(NativePolicy::new()));
        // Three alarms batched into one entry.
        let a = wifi_alarm("a", 100, 600, 0.75);
        let a_id = a.id();
        m.register(a.clone()).unwrap();
        m.register(wifi_alarm("b", 150, 600, 0.75)).unwrap();
        m.register(wifi_alarm("c", 200, 600, 0.75)).unwrap();
        assert_eq!(m.wakeup_queue().len(), 1);
        // Re-register `a` one period later: its mates are re-placed too.
        let mut later = a;
        later.advance_after_delivery(SimTime::from_secs(100));
        m.register(later).unwrap();
        assert_eq!(m.alarm_count(), 3);
        // b and c still share a window ([200,750] ∩ [150,700] overlap) and
        // rebatch together; `a` now lives at nominal 700 and joins them,
        // since its window [700,1150] overlaps theirs.
        assert!(m.wakeup_queue().contains_alarm(a_id));
    }

    #[test]
    fn non_wakeup_alarms_live_in_their_own_queue() {
        let mut m = AlarmManager::new(Box::new(NativePolicy::new()));
        let nw = Alarm::builder("nw")
            .nominal(SimTime::from_secs(100))
            .repeating_static(SimDuration::from_secs(600))
            .window_fraction(0.75)
            .kind(AlarmKind::NonWakeup)
            .build()
            .unwrap();
        m.register(nw).unwrap();
        m.register(wifi_alarm("w", 100, 600, 0.75)).unwrap();
        assert_eq!(m.wakeup_queue().alarm_count(), 1);
        assert_eq!(m.non_wakeup_queue().alarm_count(), 1);
        // Non-wakeup alarms never drive the RTC.
        assert_eq!(m.next_wakeup_time(), Some(SimTime::from_secs(100)));
        let mut due = Vec::new();
        m.pop_due_into(SimTime::from_secs(150), &mut due);
        let kinds: Vec<AlarmKind> = due.iter().map(|e| e.alarms()[0].kind()).collect();
        assert_eq!(kinds, [AlarmKind::Wakeup, AlarmKind::NonWakeup]);
    }

    #[test]
    fn cancel_removes_from_either_queue() {
        let mut m = AlarmManager::new(Box::new(ExactPolicy::new()));
        let a = wifi_alarm("a", 100, 600, 0.75);
        let id = a.id();
        m.register(a).unwrap();
        assert!(m.cancel(id).is_some());
        assert!(m.cancel(id).is_none());
        assert_eq!(m.alarm_count(), 0);
    }

    #[test]
    fn debug_shows_policy_and_counts() {
        let m = AlarmManager::new(Box::new(SimtyPolicy::new()));
        let s = format!("{m:?}");
        assert!(s.contains("SIMTY"));
    }

    #[test]
    fn cancel_app_removes_every_alarm_with_the_label() {
        let mut m = AlarmManager::new(Box::new(SimtyPolicy::new()));
        m.register(wifi_alarm("victim", 100, 600, 0.75)).unwrap();
        m.register(wifi_alarm("victim", 300, 900, 0.75)).unwrap();
        m.register(wifi_alarm("bystander", 200, 600, 0.75)).unwrap();
        let gone = m.cancel_app("victim");
        assert_eq!(gone.len(), 2);
        assert_eq!(gone[0].nominal(), SimTime::from_secs(100));
        assert_eq!(m.alarm_count(), 1);
        assert!(m.cancel_app("victim").is_empty());
    }

    #[test]
    fn audit_sink_records_one_decision_per_placement() {
        let mut m = AlarmManager::new(Box::new(SimtyPolicy::new()));
        assert_eq!(m.audit_level(), AuditLevel::Off);
        m.set_audit_level(AuditLevel::Full);
        m.register(wifi_alarm("a", 100, 600, 0.75)).unwrap();
        m.register(wifi_alarm("b", 150, 600, 0.75)).unwrap();
        let drain = |m: &mut AlarmManager| {
            let mut audits = Vec::new();
            m.drain_audits(|a| {
                audits.push(a);
                None
            });
            audits
        };
        let audits = drain(&mut m);
        assert_eq!(audits.len(), 2);
        assert_eq!(&*audits[0].app, "a");
        assert_eq!(audits[0].placement, Placement::NewEntry);
        assert!(audits[0].candidates.is_empty());
        assert_eq!(&*audits[1].app, "b");
        // The second decision weighed the first alarm's entry, whatever
        // the verdict came out to be.
        assert_eq!(audits[1].candidates.len(), 1);
        // Drained; sink refills on the next placement only.
        assert!(drain(&mut m).is_empty());
        // A retired audit's candidate buffer serves the next decision.
        let mut retired = audits[1].clone();
        retired.candidates.reserve_exact(64);
        let capacity = retired.candidates.capacity();
        let mut handed = Some(retired);
        m.register(wifi_alarm("c", 160, 600, 0.75)).unwrap();
        m.drain_audits(|_| handed.take());
        assert!(handed.is_none());
        m.register(wifi_alarm("d", 170, 600, 0.75)).unwrap();
        let reused = drain(&mut m);
        assert_eq!(reused.len(), 1);
        assert!(!reused[0].candidates.is_empty());
        assert_eq!(reused[0].candidates.capacity(), capacity);
        m.set_audit_level(AuditLevel::Off);
        m.register(wifi_alarm("e", 200, 600, 0.75)).unwrap();
        assert!(drain(&mut m).is_empty());
    }

    #[test]
    fn outcome_level_tallies_without_audits() {
        let mut m = AlarmManager::new(Box::new(SimtyPolicy::new()));
        m.set_audit_level(AuditLevel::Outcomes);
        m.register(wifi_alarm("a", 100, 600, 0.75)).unwrap();
        m.register(wifi_alarm("b", 150, 600, 0.75)).unwrap();
        m.register(wifi_alarm("c", 5_000, 600, 0.75)).unwrap();
        let mut audited = 0;
        m.drain_audits(|_| {
            audited += 1;
            None
        });
        assert_eq!(audited, 0, "the outcome level builds no audit");
        let tally = m.take_placement_tally();
        assert_eq!(m.wakeup_queue().entries().len() as u64, tally.new_entry);
        assert_eq!(tally.total(), 3);
        assert_eq!(m.take_placement_tally(), PlacementTally::default());
        m.set_audit_level(AuditLevel::Off);
        m.register(wifi_alarm("d", 170, 600, 0.75)).unwrap();
        assert_eq!(m.take_placement_tally().total(), 0);
    }

    #[test]
    fn audited_placement_matches_unaudited_placement() {
        // Auditing must be observation only: replay the same registration
        // sequence with and without the sink and compare queues.
        let mk = |label: &str, nominal: u64, repeat: u64| {
            Alarm::builder(label)
                .nominal(SimTime::from_secs(nominal))
                .repeating_static(SimDuration::from_secs(repeat))
                .window_fraction(0.75)
                .grace_fraction(0.9)
                .hardware(HardwareComponent::Wifi.into())
                .build()
                .unwrap()
        };
        for level in [AuditLevel::Off, AuditLevel::Outcomes, AuditLevel::Full] {
            let mut plain = AlarmManager::new(Box::new(SimtyPolicy::new()));
            let mut subject = AlarmManager::new(Box::new(SimtyPolicy::new()));
            subject.set_audit_level(level);
            for (label, nominal, repeat) in [
                ("a", 100, 600),
                ("b", 150, 600),
                ("c", 500, 900),
                ("d", 160, 600),
            ] {
                plain.register(mk(label, nominal, repeat)).unwrap();
                subject.register(mk(label, nominal, repeat)).unwrap();
            }
            let shape = |m: &AlarmManager| {
                m.wakeup_queue()
                    .entries()
                    .iter()
                    .map(|e| {
                        (
                            e.delivery_time(),
                            e.alarms()
                                .iter()
                                .map(|a| a.label().to_owned())
                                .collect::<Vec<_>>(),
                        )
                    })
                    .collect::<Vec<_>>()
            };
            assert_eq!(shape(&plain), shape(&subject));
        }
    }

    /// A degenerate alarm, buildable only through the trusted
    /// [`Alarm::restore`] path (the builder rejects these shapes).
    fn restored_alarm(nominal_s: u64, window_s: u64, grace_s: u64, repeat_s: u64) -> Alarm {
        use crate::alarm::{Repeat, GRACE_STRETCH_UNIT};
        Alarm::restore(
            AlarmId::fresh(),
            "degenerate".into(),
            SimTime::from_secs(nominal_s),
            SimDuration::from_secs(window_s),
            SimDuration::from_secs(grace_s),
            if repeat_s == 0 {
                Repeat::Static(SimDuration::ZERO)
            } else {
                Repeat::Static(SimDuration::from_secs(repeat_s))
            },
            AlarmKind::Wakeup,
            HardwareComponent::Wifi.into(),
            false,
            SimDuration::from_secs(1),
            false,
            GRACE_STRETCH_UNIT,
        )
    }

    #[test]
    fn register_rejects_zero_repeat_interval() {
        let mut m = AlarmManager::new(Box::new(SimtyPolicy::new()));
        let err = m.register(restored_alarm(100, 0, 0, 0)).unwrap_err();
        assert!(matches!(err, RegisterAlarmError::ZeroRepeatInterval { .. }));
        assert_eq!(m.alarm_count(), 0);
    }

    #[test]
    fn register_rejects_window_exceeding_repeat() {
        let mut m = AlarmManager::new(Box::new(NativePolicy::new()));
        // window 120 s > repeat 100 s (grace kept ≥ window so only the
        // window check can fire... except grace ≥ repeat fires first; use
        // grace = window = 120 to pin the precedence explicitly).
        let err = m.register(restored_alarm(100, 120, 99, 100)).unwrap_err();
        assert!(
            matches!(err, RegisterAlarmError::WindowExceedsRepeat { .. }),
            "got {err:?}"
        );
        assert_eq!(m.alarm_count(), 0);
    }

    #[test]
    fn register_rejects_grace_shorter_than_window() {
        let mut m = AlarmManager::new(Box::new(SimtyPolicy::new()));
        let err = m.register(restored_alarm(100, 80, 40, 100)).unwrap_err();
        assert!(matches!(
            err,
            RegisterAlarmError::GraceShorterThanWindow { .. }
        ));
        assert_eq!(m.alarm_count(), 0);
    }

    #[test]
    fn register_rejects_grace_at_or_above_repeat() {
        let mut m = AlarmManager::new(Box::new(SimtyPolicy::new()));
        let err = m.register(restored_alarm(100, 50, 100, 100)).unwrap_err();
        assert!(matches!(
            err,
            RegisterAlarmError::GraceNotBelowRepeat { .. }
        ));
        assert_eq!(m.alarm_count(), 0);
    }

    #[test]
    fn register_still_accepts_valid_restored_alarms() {
        let mut m = AlarmManager::new(Box::new(SimtyPolicy::new()));
        assert!(m.register(restored_alarm(100, 50, 90, 100)).is_ok());
        assert_eq!(m.alarm_count(), 1);
    }

    #[test]
    fn grace_stretch_restamps_queued_alarms_and_new_registrations() {
        let mut m = AlarmManager::new(Box::new(SimtyPolicy::new()));
        let a = wifi_alarm("a", 100, 600, 0.0);
        let a_id = a.id();
        m.register(a).unwrap();
        assert_eq!(m.grace_stretch(), GRACE_STRETCH_UNIT);
        // Same value: no work, no restamp.
        assert_eq!(m.set_grace_stretch(GRACE_STRETCH_UNIT), 0);
        assert_eq!(m.set_grace_stretch(1_500), 1);
        assert_eq!(m.find_alarm(a_id).unwrap().grace_stretch(), 1_500);
        // A new registration inherits the live stretch.
        let b = wifi_alarm("b", 200, 600, 0.0);
        let b_id = b.id();
        m.register(b).unwrap();
        assert_eq!(m.find_alarm(b_id).unwrap().grace_stretch(), 1_500);
        // Returning to the unit restamps both.
        assert_eq!(m.set_grace_stretch(GRACE_STRETCH_UNIT), 2);
        assert_eq!(
            m.find_alarm(a_id).unwrap().grace_stretch(),
            GRACE_STRETCH_UNIT
        );
    }

    #[test]
    fn grace_stretch_re_placement_widens_imperceptible_batching() {
        // Two Wi-Fi alarms whose grace intervals do not overlap at the
        // unit stretch but do at 2.5x: under SIMTY they must merge into
        // one entry once the stretch applies.
        let mk = |label: &str, nominal: u64| {
            let mut a = Alarm::builder(label)
                .nominal(SimTime::from_secs(nominal))
                .repeating_static(SimDuration::from_secs(600))
                .window(SimDuration::from_secs(10))
                .grace(SimDuration::from_secs(60))
                .hardware(HardwareComponent::Wifi.into())
                .build()
                .unwrap();
            a.mark_hardware_known(); // imperceptible from the start
            a
        };
        let mut m = AlarmManager::new(Box::new(SimtyPolicy::new()));
        m.register(mk("a", 100)).unwrap();
        m.register(mk("b", 200)).unwrap();
        assert_eq!(m.wakeup_queue().len(), 2, "disjoint grace at 1.0x");
        m.set_grace_stretch(2_500); // grace 60 s -> 150 s: [100,250] ∩ [200,350]
        assert_eq!(m.wakeup_queue().len(), 1, "merged at 2.5x");
        m.set_grace_stretch(GRACE_STRETCH_UNIT);
        assert_eq!(m.wakeup_queue().len(), 2, "re-narrowed at 1.0x");
    }

    #[test]
    fn quarantine_demotes_and_recovery_restores_perceptibility() {
        let mut m = AlarmManager::new(Box::new(SimtyPolicy::new()));
        let a = wifi_alarm("leaky", 100, 600, 0.75);
        let id = a.id();
        m.register(a).unwrap();
        // Deliver once so hardware is known and Wi-Fi reads imperceptible;
        // quarantine must flip the *flag* regardless.
        assert_eq!(m.set_app_quarantined("leaky", true), 1);
        assert_eq!(m.set_app_quarantined("leaky", true), 0);
        let queued = m.find_alarm(id).unwrap();
        assert!(queued.is_quarantined());
        assert!(!queued.is_perceptible());
        assert_eq!(m.set_app_quarantined("leaky", false), 1);
        let queued = m.find_alarm(id).unwrap();
        assert!(!queued.is_quarantined());
        // Hardware still unknown, so the alarm is perceptible again.
        assert!(queued.is_perceptible());
    }
}
