//! Differential oracle: the live scheduler delivers by the simulator's
//! rule.
//!
//! One script of registers, cancels and advances, with advances at
//! random granularity, drives an in-process [`LiveScheduler`] and a
//! [`Simulation`] that models no wake latency, no sleep linger and no
//! task time, under the default admission budget. After every step the
//! two must agree on each tenant's delivered count and on the nominal
//! time of every live alarm. A second property checks that one far
//! advance leaves the scheduler exactly as many short ones do.

use std::collections::BTreeMap;

use proptest::prelude::*;
use simty::core::AdmissionConfig;
use simty::prelude::{Alarm, AlarmId, AlarmKind, HardwareSet, SimDuration, SimTime};
use simty::sim::{ObsLevel, SimConfig, Simulation};
use simty_serve::live::{parse_policy_token, LiveScheduler, RegisterOutcome, RegisterRequest};

const POLICIES: [&str; 5] = ["exact", "native", "simty", "dursim", "doze"];
const TENANTS: [&str; 3] = ["mail", "chat", "maps"];

#[derive(Debug, Clone)]
enum Op {
    /// Register an alarm `delay_s` past the clock; `repeat_s` 0 is a
    /// one-shot. `now_s` moves the clock first, through the register.
    Register {
        tenant: usize,
        delay_s: u64,
        repeat_s: u64,
        dynamic: bool,
        non_wakeup: bool,
        hardware: u16,
        beta_pct: u8,
        now_s: Option<u64>,
    },
    /// Register `count` one-shots at once: drains the admission bucket.
    Burst { tenant: usize, count: u64 },
    /// Cancel the tenant's `pick`-th ordinal (modulo the ordinals minted).
    Cancel { tenant: usize, pick: u64 },
    /// Advance the clock by `step_s`.
    Advance { step_s: u64 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (
            0usize..TENANTS.len(),
            0u64..900,
            prop_oneof![Just(0u64), 60u64..1_800],
            any::<bool>(),
            0u8..4,
            0u8..8,
            0u8..96,
            prop_oneof![Just(None), (0u64..600).prop_map(Some)],
        )
            .prop_map(
                |(tenant, delay_s, repeat_s, dynamic, kind, hardware, beta_pct, now_s)| {
                    Op::Register {
                        tenant,
                        delay_s,
                        repeat_s,
                        dynamic,
                        non_wakeup: kind == 0,
                        hardware: u16::from(hardware),
                        beta_pct,
                        now_s,
                    }
                }
            ),
        (0usize..TENANTS.len(), 1u64..24).prop_map(|(tenant, count)| Op::Burst { tenant, count }),
        (0usize..TENANTS.len(), 0u64..16).prop_map(|(tenant, pick)| Op::Cancel { tenant, pick }),
        prop_oneof![0u64..5, 5u64..300, 300u64..7_200].prop_map(|step_s| Op::Advance { step_s }),
    ]
}

/// The request `op` registers, and the same alarm built for the
/// simulator (serve's defaults: no window unless a fraction gives one).
fn request(
    tenant: &str,
    nominal_ms: u64,
    repeat_s: u64,
    dynamic: bool,
    non_wakeup: bool,
    hardware: u16,
    beta_pct: u8,
) -> (RegisterRequest, Alarm) {
    let mut req = RegisterRequest::simple(tenant, nominal_ms);
    req.non_wakeup = non_wakeup;
    req.hardware_bits = hardware;
    let mut builder = Alarm::builder(tenant)
        .nominal(SimTime::from_millis(nominal_ms))
        .hardware(HardwareSet::from_bits(hardware))
        .task_duration(SimDuration::ZERO)
        .window(SimDuration::ZERO);
    if repeat_s > 0 {
        let repeat = SimDuration::from_secs(repeat_s);
        let beta = f64::from(beta_pct) / 100.0;
        req.repeat_ms = Some(repeat.as_millis());
        req.repeat_dynamic = dynamic;
        req.beta = Some(beta);
        builder = if dynamic {
            builder.repeating_dynamic(repeat)
        } else {
            builder.repeating_static(repeat)
        }
        .grace_fraction(beta);
    } else {
        builder = builder.one_shot();
    }
    if non_wakeup {
        builder = builder.kind(AlarmKind::NonWakeup);
    }
    (req, builder.build().expect("a valid alarm"))
}

/// The simulator side: the engine plus the tenant ordinals serve mints.
struct Reference {
    sim: Simulation,
    /// `(tenant, ordinal)` → the simulator's id for that alarm.
    ids: BTreeMap<(String, u64), AlarmId>,
    next_ordinal: BTreeMap<String, u64>,
}

impl Reference {
    fn new(policy: &str) -> Self {
        let mut config = SimConfig::new()
            .with_duration(SimDuration::from_hours(10_000))
            .with_admission(AdmissionConfig::default())
            .with_obs(ObsLevel::Off);
        config.power.wake_latency = SimDuration::ZERO;
        config.power.sleep_linger = SimDuration::ZERO;
        let kind = parse_policy_token(policy).expect("a serve policy");
        Reference {
            sim: Simulation::new(kind.build(), config),
            ids: BTreeMap::new(),
            next_ordinal: BTreeMap::new(),
        }
    }

    fn register(&mut self, tenant: &str, alarm: Alarm) -> bool {
        let Ok(id) = self.sim.register(alarm) else {
            return false;
        };
        let ordinal = self.next_ordinal.entry(tenant.to_owned()).or_default();
        self.ids.insert((tenant.to_owned(), *ordinal), id);
        *ordinal += 1;
        true
    }

    fn delivered(&self, tenant: &str) -> u64 {
        let deliveries = self.sim.trace().deliveries();
        deliveries.iter().filter(|d| &*d.label == tenant).count() as u64
    }

    /// The tenant's live alarms as `(ordinal, nominal ms)`.
    fn live(&self, tenant: &str) -> Vec<(u64, u64)> {
        self.ids
            .range((tenant.to_owned(), 0)..=(tenant.to_owned(), u64::MAX))
            .filter_map(|(&(_, ordinal), &id)| {
                let alarm = self.sim.manager().find_alarm(id)?;
                Some((ordinal, alarm.nominal().as_millis()))
            })
            .collect()
    }
}

/// An admitted registration's ordinal (the raw id differs between two
/// schedulers in one process).
fn ordinal(outcome: RegisterOutcome) -> Option<u64> {
    match outcome {
        RegisterOutcome::Admitted { ordinal, .. } => Some(ordinal),
        _ => None,
    }
}

/// Every tenant's delivered count and live alarms on the serve side.
fn serve_view(live: &LiveScheduler, tenant: &str) -> (u64, Vec<(u64, u64)>) {
    live.query(tenant)
        .map_or((0, Vec::new()), |(stats, views)| {
            (
                stats.delivered,
                views.iter().map(|v| (v.ordinal, v.nominal_ms)).collect(),
            )
        })
}

fn run_script(policy: &str, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut live = LiveScheduler::new(policy).expect("a serve policy");
    let mut reference = Reference::new(policy);
    let mut clock_ms = 0u64;
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Register {
                tenant,
                delay_s,
                repeat_s,
                dynamic,
                non_wakeup,
                hardware,
                beta_pct,
                now_s,
            } => {
                let tenant = TENANTS[tenant];
                let now_ms = now_s.map(|s| clock_ms + s * 1_000);
                if let Some(now_ms) = now_ms {
                    reference.sim.run_until(SimTime::from_millis(now_ms));
                    clock_ms = clock_ms.max(now_ms);
                }
                let nominal_ms = clock_ms + delay_s * 1_000;
                let (mut req, alarm) = request(
                    tenant, nominal_ms, repeat_s, dynamic, non_wakeup, hardware, beta_pct,
                );
                req.now_ms = now_ms;
                let admitted = matches!(live.register(&req), RegisterOutcome::Admitted { .. });
                prop_assert_eq!(
                    admitted,
                    reference.register(tenant, alarm),
                    "step {}: admission",
                    step
                );
            }
            Op::Burst { tenant, count } => {
                let tenant = TENANTS[tenant];
                for k in 0..count {
                    let (req, alarm) =
                        request(tenant, clock_ms + 60_000 + k, 0, false, false, 0, 0);
                    let admitted = matches!(live.register(&req), RegisterOutcome::Admitted { .. });
                    prop_assert_eq!(
                        admitted,
                        reference.register(tenant, alarm),
                        "step {}: burst admission",
                        step
                    );
                }
            }
            Op::Cancel { tenant, pick } => {
                let tenant = TENANTS[tenant];
                let minted = reference.next_ordinal.get(tenant).copied().unwrap_or(0);
                if minted > 0 {
                    let ordinal = pick % minted;
                    let id = reference.ids[&(tenant.to_owned(), ordinal)];
                    let cancelled = reference.sim.cancel(id).is_some();
                    prop_assert_eq!(
                        live.cancel(tenant, ordinal),
                        cancelled,
                        "step {}: cancel",
                        step
                    );
                }
            }
            Op::Advance { step_s } => {
                clock_ms += step_s * 1_000;
                live.advance(clock_ms);
                reference.sim.run_until(SimTime::from_millis(clock_ms));
            }
        }
        for tenant in TENANTS {
            let (delivered, alarms) = serve_view(&live, tenant);
            prop_assert_eq!(
                delivered,
                reference.delivered(tenant),
                "step {} ({:?}): {} delivered",
                step,
                op,
                tenant
            );
            prop_assert_eq!(
                alarms,
                reference.live(tenant),
                "step {} ({:?}): {} live nominals",
                step,
                op,
                tenant
            );
        }
        prop_assert!(
            live.verify().is_empty(),
            "step {}: {:?}",
            step,
            live.verify()
        );
    }
    Ok(())
}

/// One 60 s static alarm and one 1 h advance: serve delivers what the
/// simulator delivers, which is every instance (sixty) except under
/// DOZE, whose maintenance windows batch the instances.
#[test]
fn a_one_hour_advance_delivers_every_instance_of_a_minute_alarm() {
    for policy in POLICIES {
        let mut live = LiveScheduler::new(policy).expect("a serve policy");
        let mut reference = Reference::new(policy);
        let (req, alarm) = request("mail", 60_000, 60, false, false, 0, 50);
        assert!(matches!(
            live.register(&req),
            RegisterOutcome::Admitted { .. }
        ));
        assert!(reference.register("mail", alarm));
        let delivered = live.advance(3_600_000);
        reference.sim.run_until(SimTime::from_millis(3_600_000));
        assert_eq!(delivered, reference.delivered("mail"), "{policy}");
        if policy != "doze" {
            assert_eq!(delivered, 60, "{policy}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn serve_delivers_what_the_simulator_delivers(
        policy in 0usize..POLICIES.len(),
        ops in prop::collection::vec(arb_op(), 1..60),
    ) {
        run_script(POLICIES[policy], &ops)?;
    }

    #[test]
    fn one_far_advance_equals_many_short_ones(
        policy in 0usize..POLICIES.len(),
        registers in prop::collection::vec(arb_op(), 1..24),
        steps in prop::collection::vec(0u64..900, 1..40),
    ) {
        let policy = POLICIES[policy];
        let mut far = LiveScheduler::new(policy).expect("a serve policy");
        let mut short = LiveScheduler::new(policy).expect("a serve policy");
        for op in &registers {
            if let Op::Register { tenant, delay_s, repeat_s, dynamic, non_wakeup, hardware, beta_pct, .. } = *op {
                let (req, _) = request(TENANTS[tenant], delay_s * 1_000, repeat_s, dynamic, non_wakeup, hardware, beta_pct);
                prop_assert_eq!(ordinal(far.register(&req)), ordinal(short.register(&req)));
            }
        }
        let mut clock_ms = 0;
        let mut delivered = 0;
        for step_s in steps {
            clock_ms += step_s * 1_000;
            delivered += short.advance(clock_ms);
        }
        prop_assert_eq!(far.advance(clock_ms), delivered);
        prop_assert_eq!(far.digest(), short.digest());
    }
}
