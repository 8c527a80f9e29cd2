//! Model-based property tests: drive the production data structures with
//! random operation sequences and cross-check them against trivially
//! correct reference models.

use std::collections::BTreeMap;

use proptest::prelude::*;

use simty::experiments::PolicyKind;
use simty::prelude::*;
use simty_device::WakeLockTable;

// ---------------------------------------------------------------------------
// AlarmQueue vs a naive sorted-vector model
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum QueueOp {
    /// Insert a fresh alarm as its own entry (nominal seconds, window s).
    Insert(u64, u64),
    /// Remove the k-th oldest still-present alarm (modulo count).
    Remove(usize),
    /// Pop everything due at or before the given second.
    PopDue(u64),
}

fn arb_queue_op() -> impl Strategy<Value = QueueOp> {
    prop_oneof![
        (0u64..2_000, 0u64..300).prop_map(|(n, w)| QueueOp::Insert(n, w)),
        (0usize..16).prop_map(QueueOp::Remove),
        (0u64..2_500).prop_map(QueueOp::PopDue),
    ]
}

fn make_alarm(nominal_s: u64, window_s: u64) -> Alarm {
    Alarm::builder("m")
        .nominal(SimTime::from_secs(nominal_s))
        .repeating_static(SimDuration::from_secs(3_600))
        .window(SimDuration::from_secs(window_s))
        .grace(SimDuration::from_secs(window_s.max(60)))
        .build()
        .expect("valid model alarm")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The queue agrees with a reference map from alarm id to delivery
    /// time: same membership, same due sets, entries always sorted.
    #[test]
    fn alarm_queue_matches_reference_model(ops in prop::collection::vec(arb_queue_op(), 1..60)) {
        let mut queue = simty::core::queue::AlarmQueue::new();
        // Reference: id -> delivery time (nominal, since every alarm is a
        // singleton entry under Window discipline).
        let mut model: BTreeMap<AlarmId, SimTime> = BTreeMap::new();

        for op in ops {
            match op {
                QueueOp::Insert(n, w) => {
                    let alarm = make_alarm(n, w);
                    model.insert(alarm.id(), alarm.nominal());
                    queue.insert_new_entry(alarm, DeliveryDiscipline::Window);
                }
                QueueOp::Remove(k) => {
                    if model.is_empty() {
                        continue;
                    }
                    let id = *model.keys().nth(k % model.len()).expect("nonempty");
                    let removed = queue.remove_alarm(id);
                    prop_assert!(removed.is_some());
                    model.remove(&id);
                }
                QueueOp::PopDue(s) => {
                    let t = SimTime::from_secs(s);
                    let popped = queue.pop_due(t);
                    let expected: Vec<AlarmId> = model
                        .iter()
                        .filter(|(_, dt)| **dt <= t)
                        .map(|(id, _)| *id)
                        .collect();
                    let mut got: Vec<AlarmId> = popped
                        .iter()
                        .flat_map(|e| e.alarms().iter().map(Alarm::id))
                        .collect();
                    got.sort();
                    prop_assert_eq!(got, expected.clone());
                    for id in expected {
                        model.remove(&id);
                    }
                }
            }
            // Invariants after every step.
            prop_assert_eq!(queue.alarm_count(), model.len());
            let times: Vec<SimTime> = queue.iter().map(|e| e.delivery_time()).collect();
            prop_assert!(times.windows(2).all(|w| w[0] <= w[1]), "queue unsorted");
            for (id, dt) in &model {
                prop_assert!(queue.contains_alarm(*id));
                let idx = queue.position_of(*id).expect("present");
                prop_assert_eq!(queue.entries()[idx].delivery_time(), *dt);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// WakeLockTable vs a naive per-component expiry map
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum LockOp {
    Acquire(u8, u64),
    ReleaseExpired(u64),
}

fn arb_lock_op() -> impl Strategy<Value = LockOp> {
    prop_oneof![
        (0u8..8, 1u64..500).prop_map(|(c, t)| LockOp::Acquire(c, t)),
        (0u64..600).prop_map(LockOp::ReleaseExpired),
    ]
}

fn component(idx: u8) -> HardwareComponent {
    HardwareComponent::ALL[idx as usize % HardwareComponent::ALL.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The wakelock table agrees with a reference expiry map on active
    /// sets, next expiries, and activation counts.
    #[test]
    fn wakelock_table_matches_reference_model(ops in prop::collection::vec(arb_lock_op(), 1..80)) {
        let mut table = WakeLockTable::new();
        let mut model: BTreeMap<HardwareComponent, SimTime> = BTreeMap::new();
        let mut activations: BTreeMap<HardwareComponent, u64> = BTreeMap::new();

        for op in ops {
            match op {
                LockOp::Acquire(c, until_s) => {
                    let c = component(c);
                    let until = SimTime::from_secs(until_s);
                    let newly = table.acquire(c.into(), until);
                    match model.get(&c) {
                        Some(existing) => {
                            prop_assert!(newly.is_empty(), "reactivated a held lock");
                            model.insert(c, (*existing).max(until));
                        }
                        None => {
                            prop_assert_eq!(newly, HardwareSet::from(c));
                            *activations.entry(c).or_insert(0) += 1;
                            model.insert(c, until);
                        }
                    }
                }
                LockOp::ReleaseExpired(now_s) => {
                    let now = SimTime::from_secs(now_s);
                    let released = table.release_expired(now);
                    let expected: HardwareSet = model
                        .iter()
                        .filter(|(_, e)| **e <= now)
                        .map(|(c, _)| *c)
                        .collect();
                    prop_assert_eq!(released, expected);
                    model.retain(|_, e| *e > now);
                }
            }
            let expected_active: HardwareSet = model.keys().copied().collect();
            prop_assert_eq!(table.active(), expected_active);
            prop_assert_eq!(table.next_expiry(), model.values().copied().min());
            prop_assert_eq!(table.is_idle(), model.is_empty());
            for (c, n) in &activations {
                prop_assert_eq!(table.activation_count(*c), *n);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// AlarmManager structural invariants under random registration traffic
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct RegSpec {
    nominal_s: u64,
    repeat_s: u64,
    alpha_pct: u8,
    wifi: bool,
}

fn arb_reg() -> impl Strategy<Value = RegSpec> {
    (1u64..1_200, 60u64..900, 0u8..96, any::<bool>()).prop_map(
        |(nominal_s, repeat_s, alpha_pct, wifi)| RegSpec {
            nominal_s,
            repeat_s,
            alpha_pct,
            wifi,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Under any registration sequence, for both NATIVE and SIMTY: the
    /// total alarm count is preserved, every queue stays sorted, every
    /// entry's attributes are consistent with its members, and no alarm
    /// appears in two entries.
    #[test]
    fn manager_structural_invariants(regs in prop::collection::vec(arb_reg(), 1..25), simty_policy in any::<bool>()) {
        let policy: Box<dyn AlignmentPolicy> = if simty_policy {
            Box::new(SimtyPolicy::new())
        } else {
            Box::new(NativePolicy::new())
        };
        let mut manager = AlarmManager::new(policy);
        let mut ids = Vec::new();
        for spec in &regs {
            let alpha = spec.alpha_pct as f64 / 100.0;
            let mut alarm = Alarm::builder("r")
                .nominal(SimTime::from_secs(spec.nominal_s))
                .repeating_static(SimDuration::from_secs(spec.repeat_s))
                .window_fraction(alpha)
                .grace_fraction(alpha.max(0.9))
                .hardware(if spec.wifi {
                    HardwareComponent::Wifi.into()
                } else {
                    HardwareSet::empty()
                })
                .build()
                .expect("valid alarm");
            // Half the population has known hardware (perceptibility off).
            if spec.wifi {
                alarm.mark_hardware_known();
            }
            ids.push(alarm.id());
            manager.register(alarm).expect("registers");
        }
        prop_assert_eq!(manager.alarm_count(), regs.len());

        let queue = manager.wakeup_queue();
        let times: Vec<SimTime> = queue.iter().map(|e| e.delivery_time()).collect();
        prop_assert!(times.windows(2).all(|w| w[0] <= w[1]));

        let mut seen = std::collections::BTreeSet::new();
        for entry in queue.iter() {
            prop_assert!(!entry.is_empty());
            for alarm in entry.alarms() {
                prop_assert!(seen.insert(alarm.id()), "alarm in two entries");
            }
            // Entry attributes are exactly the fold of member attributes.
            let mut hw = HardwareSet::empty();
            let mut perceptible = false;
            let mut window = Some(entry.alarms()[0].window_interval());
            for alarm in entry.alarms() {
                hw |= alarm.known_hardware();
                perceptible |= alarm.is_perceptible();
            }
            for alarm in &entry.alarms()[1..] {
                window = window.and_then(|w| w.intersection(alarm.window_interval()));
            }
            prop_assert_eq!(entry.hardware(), hw);
            prop_assert_eq!(entry.is_perceptible(), perceptible);
            prop_assert_eq!(entry.window(), window);
            // Delivery never precedes any member's nominal time.
            for alarm in entry.alarms() {
                prop_assert!(entry.delivery_time() >= alarm.nominal());
            }
        }
        for id in ids {
            prop_assert!(seen.contains(&id));
        }
    }
}

// ---------------------------------------------------------------------------
// complete_delivery's scan-free requeue vs reinsertion through register
// ---------------------------------------------------------------------------

/// Every policy the experiments build, each variant's parameters
/// included.
const EVERY_POLICY: [PolicyKind; 11] = [
    PolicyKind::Exact,
    PolicyKind::Native,
    PolicyKind::NativeNoRealign,
    PolicyKind::Simty,
    PolicyKind::SimtyGranularity(HardwareGranularity::Two),
    PolicyKind::SimtyGranularity(HardwareGranularity::Three),
    PolicyKind::SimtyGranularity(HardwareGranularity::Four),
    PolicyKind::Dursim,
    PolicyKind::FixedInterval(60),
    PolicyKind::FixedInterval(300),
    PolicyKind::Doze,
];

#[derive(Debug, Clone)]
enum RequeueOp {
    /// Register a fresh alarm `delay` seconds from now.
    Register {
        delay_s: u64,
        repeat_s: u64,
        alpha_pct: u8,
        hardware: u8,
        wakeup: bool,
        dynamic: bool,
        one_shot: bool,
        label: u8,
    },
    /// Advance the clock, pop everything due and complete each delivery.
    Deliver(u64),
    /// Apply a degradation grace multiplier (millis fixed point).
    Stretch(u32),
}

fn arb_requeue_op() -> impl Strategy<Value = RequeueOp> {
    prop_oneof![
        (
            0u64..900,
            60u64..900,
            0u8..96,
            0u8..8,
            any::<bool>(),
            any::<bool>(),
            0u8..6,
            0u8..4,
        )
            .prop_map(
                |(delay_s, repeat_s, alpha_pct, hardware, wakeup, dynamic, kind, label)| {
                    RequeueOp::Register {
                        delay_s,
                        repeat_s,
                        alpha_pct,
                        hardware,
                        wakeup,
                        dynamic,
                        one_shot: kind == 0,
                        label,
                    }
                }
            ),
        (1u64..600).prop_map(RequeueOp::Deliver),
        prop_oneof![Just(1_000u32), Just(1_500), Just(2_000)].prop_map(RequeueOp::Stretch),
    ]
}

/// One queue as comparable data: per entry its delivery time and
/// discipline, per alarm its id, nominal time and placement-relevant
/// state, in queue order.
#[allow(clippy::type_complexity)]
fn queue_shape(
    queue: &simty::core::queue::AlarmQueue,
) -> Vec<(
    SimTime,
    DeliveryDiscipline,
    Vec<(AlarmId, SimTime, u32, bool, HardwareSet)>,
)> {
    queue
        .iter()
        .map(|e| {
            let alarms = e
                .alarms()
                .iter()
                .map(|a| {
                    (
                        a.id(),
                        a.nominal(),
                        a.grace_stretch(),
                        a.is_perceptible(),
                        a.known_hardware(),
                    )
                })
                .collect();
            (e.delivery_time(), e.discipline(), alarms)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `complete_delivery` reinserts without searching for a stale copy;
    /// a manager that reinserts through `register` (which searches, and
    /// re-places a stale copy's entry-mates under NATIVE) must end every
    /// step with the same queues, entry for entry, under every policy.
    #[test]
    fn scan_free_requeue_matches_register(
        policy in 0usize..EVERY_POLICY.len(),
        ops in prop::collection::vec(arb_requeue_op(), 1..80),
    ) {
        let kind = EVERY_POLICY[policy];
        let mut fast = AlarmManager::new(kind.build());
        let mut reference = AlarmManager::new(kind.build());
        let mut now = SimTime::ZERO;
        for op in ops {
            match op {
                RequeueOp::Register { delay_s, repeat_s, alpha_pct, hardware, wakeup, dynamic, one_shot, label } => {
                    let alpha = alpha_pct as f64 / 100.0;
                    let mut hw = HardwareSet::empty();
                    for (bit, c) in [HardwareComponent::Wifi, HardwareComponent::Gps, HardwareComponent::Cellular]
                        .into_iter()
                        .enumerate()
                    {
                        if hardware & (1 << bit) != 0 {
                            hw |= HardwareSet::from(c);
                        }
                    }
                    let builder = Alarm::builder(["a", "b", "c", "d"][label as usize])
                        .nominal(now + SimDuration::from_secs(delay_s))
                        .kind(if wakeup { AlarmKind::Wakeup } else { AlarmKind::NonWakeup })
                        .hardware(hw)
                        .task_duration(SimDuration::from_secs(2));
                    let builder = if one_shot {
                        // Fractions need a repeating interval.
                        let window = SimDuration::from_secs(repeat_s * alpha_pct as u64 / 100);
                        builder.one_shot().window(window).grace(window.max(SimDuration::from_secs(60)))
                    } else {
                        let repeat = SimDuration::from_secs(repeat_s);
                        let builder = if dynamic {
                            builder.repeating_dynamic(repeat)
                        } else {
                            builder.repeating_static(repeat)
                        };
                        builder.window_fraction(alpha).grace_fraction(alpha.max(0.9))
                    };
                    let alarm = builder.build().expect("valid alarm");
                    let id = fast.register(alarm.clone()).expect("registers");
                    prop_assert_eq!(reference.register(alarm).expect("registers"), id);
                }
                RequeueOp::Deliver(dt) => {
                    now += SimDuration::from_secs(dt);
                    let (mut due, mut due_ref) = (Vec::new(), Vec::new());
                    fast.pop_due_into(now, &mut due);
                    reference.pop_due_into(now, &mut due_ref);
                    let ids = |d: &[QueueEntry]| -> Vec<AlarmId> {
                        d.iter().flat_map(|e| e.alarms().iter().map(Alarm::id)).collect()
                    };
                    prop_assert_eq!(ids(&due), ids(&due_ref));
                    for (entry, entry_ref) in due.into_iter().zip(due_ref) {
                        for (alarm, mut alarm_ref) in entry.into_alarms().into_iter().zip(entry_ref.into_alarms()) {
                            let requeued = fast.complete_delivery(alarm, now);
                            // complete_delivery as it was: through register.
                            reference.advance_clock(now);
                            alarm_ref.mark_hardware_known();
                            let requeued_ref = if alarm_ref.advance_after_delivery(now) {
                                Some(reference.register(alarm_ref).expect("future nominal"))
                            } else {
                                None
                            };
                            prop_assert_eq!(requeued, requeued_ref);
                        }
                    }
                }
                RequeueOp::Stretch(milli) => {
                    prop_assert_eq!(fast.set_grace_stretch(milli), reference.set_grace_stretch(milli));
                }
            }
            prop_assert_eq!(queue_shape(fast.wakeup_queue()), queue_shape(reference.wakeup_queue()));
            prop_assert_eq!(queue_shape(fast.non_wakeup_queue()), queue_shape(reference.non_wakeup_queue()));
        }
    }
}
