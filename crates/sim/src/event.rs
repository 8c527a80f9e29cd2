//! The simulator's event queue.
//!
//! A binary heap ordered on `(time, seq)`: events at the same instant
//! fire in the order they were scheduled (a monotone sequence number), so
//! simulation runs replay bit-for-bit. The engine plays Fig. 1's RTC: it
//! wakes at the queue head, delivers and sleeps (§2.1), so the queue stays
//! shallow (the paper's 3 h runs never hold more than 8 pending events)
//! and a heap's O(log n) push and pop cost next to nothing. The engine
//! drains one instant at a time: [`EventQueue::next_due`] names the next
//! instant, and [`EventQueue::pop_at`] pops its events until none is left,
//! including those the handlers schedule at that same instant.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use simty_core::alarm::AlarmId;
use simty_core::time::{SimDuration, SimTime};

/// What the engine should do when an event fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// The real-time clock fires for the head of the wakeup queue: wake
    /// the device (if needed) and deliver due entries.
    RtcAlarm,
    /// A pending sleep→awake transition completes; due entries can now be
    /// delivered.
    WakeComplete,
    /// A task's wakelocks expire.
    TaskEnd,
    /// The device has lingered idle long enough to go back to sleep.
    TrySleep,
    /// The head of the non-wakeup queue is due; deliverable only if the
    /// device happens to be awake (§2.1).
    NonWakeupCheck,
    /// An external stimulus (push message, user pressing the power
    /// button) awakens the device.
    ExternalWake,
    /// An app re-registers its still-queued alarm (e.g. a push message
    /// told it to sync on a new schedule): the alarm's nominal time moves
    /// one repeating interval past this instant and the alarm is
    /// re-placed — the path that triggers NATIVE's realignment (§2.1).
    Reregister {
        /// The alarm being re-registered.
        id: AlarmId,
    },
    /// The online watchdog inspects outstanding task holds and
    /// force-releases any that exceeded the policy's hold budget (see
    /// [`crate::watchdog`] and [`crate::fault`]).
    WatchdogCheck,
    /// A transient hardware-activation failure is retried: the engine
    /// re-attempts the activation recorded in the retry slot, with capped
    /// exponential backoff between attempts.
    ActivationRetry {
        /// Index into the engine's retry-slot table.
        slot: usize,
    },
    /// A fault-injected app crash: every alarm registered under the label
    /// is cancelled and stashed for re-registration at the restart.
    AppCrash {
        /// The crashing app's label.
        app: String,
        /// How long until the process restarts.
        restart_after: SimDuration,
    },
    /// The crashed app's process restarts and re-registers its stashed
    /// alarms (with nominal times advanced past the outage if needed).
    AppRestart {
        /// The restarting app's label.
        app: String,
    },
    /// A fault-injected device reboot: the simulated phone loses power
    /// mid-standby. Every wakelock, in-flight task, and pending retry is
    /// dropped; alarms survive only because apps re-register them at boot
    /// (see [`crate::fault::RebootPlan`]).
    Reboot {
        /// How long the device stays down before the OS is back up.
        outage: SimDuration,
    },
    /// Boot finished after a [`EventKind::Reboot`]: apps re-register
    /// their alarms and the engine catches up on fires missed during the
    /// outage.
    BootComplete,
    /// The engine captures a crash-consistent checkpoint of the full
    /// simulation state (see [`crate::checkpoint`]).
    Checkpoint,
    /// The degradation governor samples the battery's state of charge
    /// and, crossing a hysteresis threshold, shifts the degradation
    /// tier (see [`crate::degrade`]).
    GovernorTick,
    /// One planned registration of a registration-storm burst fires:
    /// the burst's alarm is built and pushed through the admission
    /// front door (see [`crate::overload`]).
    StormRegister {
        /// Index into the engine's storm-burst table.
        burst: usize,
        /// Which registration of the burst this is (0-based).
        k: u32,
    },
}

/// A scheduled event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// When the event fires.
    pub time: SimTime,
    /// Scheduling order, used as a tie-break.
    pub seq: u64,
    /// What to do.
    pub kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Event) -> Ordering {
        // Reversed: BinaryHeap is a max-heap and we want earliest-first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Event) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A time-ordered event queue with stable ties.
///
/// Scheduling before the instant being processed (the time of the last
/// popped event) is a bug in the caller: debug builds assert.
///
/// # Examples
///
/// ```
/// use simty_core::time::SimTime;
/// use simty_sim::event::{EventKind, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(2), EventKind::TrySleep);
/// q.schedule(SimTime::from_secs(1), EventKind::RtcAlarm);
/// assert_eq!(q.pop().unwrap().kind, EventKind::RtcAlarm);
/// ```
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Event>,
    next_seq: u64,
    /// The time of the last popped event.
    now: SimTime,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules `kind` at `time`.
    pub fn schedule(&mut self, time: SimTime, kind: EventKind) {
        debug_assert!(time >= self.now, "scheduled into the past: {time:?}");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { time, seq, kind });
    }

    /// The time of the earliest pending event.
    pub fn next_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// The time of the earliest pending event, if it fires at or before
    /// `bound`.
    pub fn next_due(&self, bound: SimTime) -> Option<SimTime> {
        self.next_time().filter(|&t| t <= bound)
    }

    /// Pops the next event only if it fires exactly at `t` — the engine's
    /// same-instant drain: events scheduled at `t` while handling `t` are
    /// picked up in the same batch.
    pub fn pop_at(&mut self, t: SimTime) -> Option<Event> {
        if self.next_time()? != t {
            return None;
        }
        self.pop()
    }

    /// Pops the earliest pending event.
    pub fn pop(&mut self) -> Option<Event> {
        let event = self.heap.pop()?;
        self.now = event.time;
        Some(event)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The pending events in deterministic `(time, seq)` order plus the
    /// next sequence number (checkpoint capture). Sequence numbers are
    /// preserved so a restored queue breaks ties exactly like the
    /// original.
    pub fn snapshot(&self) -> (Vec<Event>, u64) {
        let mut events: Vec<Event> = self.heap.iter().cloned().collect();
        events.sort_unstable_by_key(|e| (e.time, e.seq));
        (events, self.next_seq)
    }

    /// Rebuilds a queue from a [`snapshot`](Self::snapshot) in one O(n)
    /// heapify that keeps the list's allocation. Events keep their
    /// recorded sequence numbers; `next_seq` must be at least one past
    /// the largest of them.
    pub fn restore(events: Vec<Event>, next_seq: u64) -> Self {
        debug_assert!(events.iter().all(|e| e.seq < next_seq));
        EventQueue {
            heap: BinaryHeap::from(events),
            next_seq,
            now: SimTime::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), EventKind::TaskEnd);
        q.schedule(SimTime::from_secs(1), EventKind::RtcAlarm);
        q.schedule(SimTime::from_secs(2), EventKind::TrySleep);
        let times: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.time.as_millis() / 1000)
            .collect();
        assert_eq!(times, vec![1, 2, 3]);
    }

    #[test]
    fn ties_fire_in_scheduling_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        q.schedule(t, EventKind::WakeComplete);
        q.schedule(t, EventKind::RtcAlarm);
        q.schedule(t, EventKind::TrySleep);
        assert_eq!(q.pop().unwrap().kind, EventKind::WakeComplete);
        assert_eq!(q.pop().unwrap().kind, EventKind::RtcAlarm);
        assert_eq!(q.pop().unwrap().kind, EventKind::TrySleep);
    }

    #[test]
    fn snapshot_restore_preserves_order_and_ties() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        q.schedule(t, EventKind::WakeComplete);
        q.schedule(SimTime::from_secs(1), EventKind::RtcAlarm);
        q.schedule(t, EventKind::TrySleep);
        let (events, next_seq) = q.snapshot();
        assert_eq!(events.len(), 3);
        assert_eq!(next_seq, 3);
        let mut r = EventQueue::restore(events, next_seq);
        // New scheduling continues the sequence, so restored ties still
        // lose to pre-existing events at the same instant.
        r.schedule(t, EventKind::TaskEnd);
        assert_eq!(r.pop().unwrap().kind, EventKind::RtcAlarm);
        assert_eq!(r.pop().unwrap().kind, EventKind::WakeComplete);
        assert_eq!(r.pop().unwrap().kind, EventKind::TrySleep);
        assert_eq!(r.pop().unwrap().kind, EventKind::TaskEnd);
    }

    #[test]
    fn next_time_peeks_without_popping() {
        let mut q = EventQueue::new();
        assert_eq!(q.next_time(), None);
        q.schedule(SimTime::from_secs(7), EventKind::RtcAlarm);
        assert_eq!(q.next_time(), Some(SimTime::from_secs(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn next_time_sees_through_high_levels() {
        let mut q = EventQueue::new();
        // Scheduled out of order, more than 16 minutes out.
        let far = SimTime::from_millis(1_000_003);
        let farther = SimTime::from_millis(1_000_900);
        q.schedule(farther, EventKind::TaskEnd);
        q.schedule(far, EventKind::RtcAlarm);
        assert_eq!(q.next_time(), Some(far));
        assert_eq!(q.pop().unwrap().time, far);
        assert_eq!(q.next_time(), Some(farther));
    }

    #[test]
    fn same_instant_events_scheduled_mid_drain_join_the_batch() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(9);
        q.schedule(t, EventKind::RtcAlarm);
        assert_eq!(q.next_due(t), Some(t));
        assert_eq!(q.pop_at(t).unwrap().kind, EventKind::RtcAlarm);
        // A handler at t schedules more work at t: same batch, after it.
        q.schedule(t, EventKind::WakeComplete);
        q.schedule(SimTime::from_secs(10), EventKind::TrySleep);
        assert_eq!(q.pop_at(t).unwrap().kind, EventKind::WakeComplete);
        assert_eq!(q.pop_at(t), None);
        assert_eq!(q.next_due(SimTime::from_secs(9)), None);
        assert_eq!(
            q.next_due(SimTime::from_secs(10)),
            Some(SimTime::from_secs(10))
        );
    }

    #[test]
    fn bounded_peek_does_not_pass_the_bound() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(100), EventKind::RtcAlarm);
        assert_eq!(q.next_due(SimTime::from_secs(50)), None);
        // Scheduling between the bound and the pending event still fires
        // in time order.
        q.schedule(SimTime::from_secs(60), EventKind::TrySleep);
        assert_eq!(q.pop().unwrap().kind, EventKind::TrySleep);
        assert_eq!(q.pop().unwrap().kind, EventKind::RtcAlarm);
    }

    /// One step of a model-based script.
    #[derive(Debug, Clone)]
    enum Op {
        /// Schedule at `ahead` ms past the instant last popped, or
        /// `ahead` ms short of the end of time (but not before that
        /// instant) when `far`.
        Schedule { ahead: u64, far: bool, code: u64 },
        /// Pop the earliest event.
        Pop,
        /// Drain the next instant as the engine does, scheduling `joins`
        /// more events at that instant after its first pop.
        Drain { joins: u64 },
        /// Capture the queue and rebuild it from the capture.
        Checkpoint,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        // Mostly schedules a few ms ahead, so ties abound.
        (0u64..12, 0u64..4, any::<u64>()).prop_map(|(pick, ahead, code)| match pick {
            0..=4 => Op::Schedule {
                ahead,
                far: false,
                code,
            },
            5 => Op::Schedule {
                ahead: code % 5_000_000,
                far: code % 3 == 0,
                code,
            },
            6..=8 => Op::Pop,
            9 | 10 => Op::Drain { joins: ahead },
            _ => Op::Checkpoint,
        })
    }

    fn kind_for(code: u64) -> EventKind {
        match code % 6 {
            0 => EventKind::RtcAlarm,
            1 => EventKind::TaskEnd,
            2 => EventKind::TrySleep,
            3 => EventKind::WakeComplete,
            4 => EventKind::Reregister {
                id: AlarmId::from_raw(code),
            },
            _ => EventKind::StormRegister {
                burst: (code / 7) as usize,
                k: (code % 13) as u32,
            },
        }
    }

    /// How often a script reached each case the queue must get right.
    #[derive(Debug, Default)]
    struct Coverage {
        /// Pops that had another event pending at the same instant.
        ties: u64,
        /// Events scheduled at the instant being drained.
        joins: u64,
        /// Checkpoint round trips with events pending.
        restores: u64,
        /// Pops of events more than a day past the one before.
        far: u64,
    }

    /// The queue beside a reference that keeps its events in a list and
    /// finds the minimum by a linear scan.
    struct Script {
        queue: EventQueue,
        model: Vec<Event>,
        next_seq: u64,
        now: u64,
        coverage: Coverage,
    }

    impl Script {
        fn schedule(&mut self, time: SimTime, kind: EventKind) {
            self.queue.schedule(time, kind.clone());
            self.model.push(Event {
                time,
                seq: self.next_seq,
                kind,
            });
            self.next_seq += 1;
        }

        /// Pops from both sides (only at `at` when given) and checks that
        /// the queue returned the model's minimum by `(time, seq)`.
        fn pop(&mut self, at: Option<SimTime>) -> Result<Option<Event>, TestCaseError> {
            let min =
                (0..self.model.len()).min_by_key(|&i| (self.model[i].time, self.model[i].seq));
            let want = min
                .filter(|&i| at.is_none_or(|t| self.model[i].time == t))
                .map(|i| self.model.swap_remove(i));
            let got = match at {
                Some(t) => self.queue.pop_at(t),
                None => self.queue.pop(),
            };
            prop_assert_eq!(&got, &want);
            if let Some(e) = &want {
                if self.model.iter().any(|m| m.time == e.time) {
                    self.coverage.ties += 1;
                }
                if e.time.as_millis() - self.now > 86_400_000 {
                    self.coverage.far += 1;
                }
                self.now = e.time.as_millis();
            }
            Ok(want)
        }

        /// Drains instant `t` as the engine does: `pop_at` until it
        /// returns nothing, with `joins` events scheduled at `t` after
        /// the first pop.
        fn drain(&mut self, t: SimTime, joins: u64) -> Result<(), TestCaseError> {
            if let Some(before) = t.as_millis().checked_sub(1) {
                prop_assert_eq!(self.queue.next_due(SimTime::from_millis(before)), None);
            }
            let mut first = true;
            while let Some(event) = self.pop(Some(t))? {
                prop_assert_eq!(event.time, t);
                if first {
                    for k in 0..joins {
                        self.schedule(t, kind_for(event.seq + k));
                        self.coverage.joins += 1;
                    }
                    first = false;
                }
            }
            prop_assert!(self.model.iter().all(|e| e.time > t));
            Ok(())
        }

        fn step(&mut self, op: &Op) -> Result<(), TestCaseError> {
            match *op {
                Op::Schedule { ahead, far, code } => {
                    let ms = if far {
                        self.now.max(u64::MAX - ahead)
                    } else {
                        self.now.saturating_add(ahead)
                    };
                    self.schedule(SimTime::from_millis(ms), kind_for(code));
                }
                Op::Pop => {
                    self.pop(None)?;
                }
                Op::Drain { joins } => {
                    let next = self.model.iter().map(|e| e.time).min();
                    prop_assert_eq!(self.queue.next_due(SimTime::from_millis(u64::MAX)), next);
                    if let Some(t) = next {
                        self.drain(t, joins)?;
                    }
                }
                Op::Checkpoint => {
                    let (events, next_seq) = self.queue.snapshot();
                    let mut want = self.model.clone();
                    want.sort_by_key(|e| (e.time, e.seq));
                    prop_assert_eq!(&events, &want);
                    prop_assert_eq!(next_seq, self.next_seq);
                    if !events.is_empty() {
                        self.coverage.restores += 1;
                    }
                    self.queue = EventQueue::restore(events, next_seq);
                }
            }
            prop_assert_eq!(self.queue.len(), self.model.len());
            prop_assert_eq!(self.queue.is_empty(), self.model.is_empty());
            Ok(())
        }
    }

    /// Random scripts of schedules, pops, engine-style drains and
    /// checkpoint round trips: every pop returns the pending minimum by
    /// `(time, seq)`, every capture lists the pending events in that
    /// order with the next sequence number, and the scripts reach
    /// same-instant ties, events joining the instant being drained,
    /// round trips mid-stream and far-future times.
    #[test]
    fn every_pop_is_the_pending_minimum_by_time_then_seq() {
        let strategy = prop::collection::vec(arb_op(), 1..300);
        let mut total = Coverage::default();
        for case in 0..256 {
            let ops = strategy.new_value(&mut TestRng::for_case(case));
            let mut script = Script {
                queue: EventQueue::new(),
                model: Vec::new(),
                next_seq: 0,
                now: 0,
                coverage: Coverage::default(),
            };
            for (n, op) in ops.iter().enumerate() {
                if let Err(e) = script.step(op) {
                    panic!("case {case}, step {n} ({op:?}): {e}");
                }
            }
            // Drain to the end: nothing is left behind or out of order.
            while script.pop(None).expect("drain").is_some() {}
            let c = script.coverage;
            total.ties += c.ties;
            total.joins += c.joins;
            total.restores += c.restores;
            total.far += c.far;
        }
        assert!(total.ties > 1_000, "{total:?}");
        assert!(total.joins > 1_000, "{total:?}");
        assert!(total.restores > 1_000, "{total:?}");
        assert!(total.far > 100, "{total:?}");
    }
}
