//! End-to-end behaviour of Android's NATIVE alignment policy (§2.1)
//! across manager, device, and simulator.

use simty::prelude::*;

fn alarm(
    label: &str,
    nominal_s: u64,
    repeat_s: u64,
    alpha: f64,
    hw: HardwareSet,
    dynamic: bool,
) -> Alarm {
    let builder = Alarm::builder(label)
        .nominal(SimTime::from_secs(nominal_s))
        .window_fraction(alpha)
        .grace_fraction(0.9_f64.max(alpha))
        .hardware(hw)
        .task_duration(SimDuration::from_secs(2));
    if dynamic {
        builder.repeating_dynamic(SimDuration::from_secs(repeat_s))
    } else {
        builder.repeating_static(SimDuration::from_secs(repeat_s))
    }
    .build()
    .expect("valid alarm")
}

fn hour_sim() -> Simulation {
    Simulation::new(
        Box::new(NativePolicy::new()),
        SimConfig::new().with_duration(SimDuration::from_hours(1)),
    )
}

const LATENCY: SimDuration = SimDuration::from_millis(250);

#[test]
fn every_delivery_lands_within_its_window_plus_wake_latency() {
    let mut sim = hour_sim();
    sim.register(alarm(
        "a",
        60,
        60,
        0.0,
        HardwareComponent::Wifi.into(),
        true,
    ))
    .unwrap();
    sim.register(alarm(
        "b",
        90,
        120,
        0.75,
        HardwareComponent::Wifi.into(),
        false,
    ))
    .unwrap();
    sim.register(alarm(
        "c",
        300,
        300,
        0.5,
        HardwareComponent::Wps.into(),
        false,
    ))
    .unwrap();
    sim.run();
    assert!(!sim.trace().deliveries().is_empty());
    for d in sim.trace().deliveries() {
        assert!(d.delivered_at >= d.nominal, "{d} delivered before nominal");
        assert!(
            d.delivered_at <= d.window_end + LATENCY,
            "{d} delivered beyond window end {} + latency",
            d.window_end
        );
    }
}

#[test]
fn overlapping_windows_batch_into_shared_wakeups() {
    // Two alarms with identical periods and overlapping windows must share
    // wakeups after the first round.
    let mut sim = hour_sim();
    sim.register(alarm(
        "a",
        100,
        300,
        0.75,
        HardwareComponent::Wifi.into(),
        false,
    ))
    .unwrap();
    sim.register(alarm(
        "b",
        150,
        300,
        0.75,
        HardwareComponent::Wifi.into(),
        false,
    ))
    .unwrap();
    let report = sim.run();
    // 12 two-alarm periods in the hour: without batching 24 wakeups, with
    // batching 12.
    assert_eq!(report.total_deliveries, 24);
    assert_eq!(report.cpu_wakeups, 12);
    for d in sim.trace().deliveries() {
        assert_eq!(d.entry_size, 2, "{d} was not batched");
    }
}

#[test]
fn disjoint_windows_never_batch() {
    let mut sim = hour_sim();
    sim.register(alarm(
        "a",
        100,
        600,
        0.1,
        HardwareComponent::Wifi.into(),
        false,
    ))
    .unwrap();
    sim.register(alarm(
        "b",
        400,
        600,
        0.1,
        HardwareComponent::Wifi.into(),
        false,
    ))
    .unwrap();
    let report = sim.run();
    assert_eq!(report.cpu_wakeups, report.total_deliveries);
}

#[test]
fn native_ignores_hardware_similarity() {
    // A WPS alarm joins the first window-overlapping entry even when a
    // hardware-identical entry also overlaps later in the queue.
    let mut sim = hour_sim();
    sim.register(alarm(
        "wifi",
        100,
        900,
        0.75,
        HardwareComponent::Wifi.into(),
        false,
    ))
    .unwrap();
    sim.register(alarm(
        "wps1",
        150,
        900,
        0.75,
        HardwareComponent::Wps.into(),
        false,
    ))
    .unwrap();
    sim.register(alarm(
        "wps2",
        200,
        900,
        0.75,
        HardwareComponent::Wps.into(),
        false,
    ))
    .unwrap();
    sim.run();
    // All three overlap pairwise -> one batch of three per period.
    for d in sim.trace().deliveries() {
        assert_eq!(d.entry_size, 3);
    }
}

#[test]
fn adjacent_delivery_gaps_respect_the_alpha_bounds() {
    let mut sim = hour_sim();
    let static_alarm = alarm("s", 120, 120, 0.75, HardwareComponent::Wifi.into(), false);
    let dynamic_alarm = alarm("d", 60, 60, 0.75, HardwareComponent::Wifi.into(), true);
    let static_id = sim.register(static_alarm).unwrap();
    let dynamic_id = sim.register(dynamic_alarm).unwrap();
    sim.run();
    let gaps = sim.trace().adjacent_gaps();

    let static_bounds =
        simty::core::bounds::DeliveryBounds::new(Repeat::Static(SimDuration::from_secs(120)), 0.75)
            .unwrap();
    for gap in &gaps[&static_id] {
        assert!(
            static_bounds.admits(*gap, LATENCY),
            "static gap {gap} outside {static_bounds:?}"
        );
    }
    let dynamic_bounds =
        simty::core::bounds::DeliveryBounds::new(Repeat::Dynamic(SimDuration::from_secs(60)), 0.75)
            .unwrap();
    for gap in &gaps[&dynamic_id] {
        assert!(
            dynamic_bounds.admits(*gap, LATENCY),
            "dynamic gap {gap} outside {dynamic_bounds:?}"
        );
    }
}

#[test]
fn perceptible_notifier_fires_once_per_period() {
    let mut sim = hour_sim();
    // First nominal at 300 s so the sixth delivery (3 300 s + latency)
    // completes inside the hour.
    sim.register(alarm(
        "clock",
        300,
        600,
        0.0,
        HardwareComponent::Speaker | HardwareComponent::Vibrator,
        false,
    ))
    .unwrap();
    let report = sim.run();
    assert_eq!(report.total_deliveries, 6);
    // "Zero" up to the 250 ms wake latency on a point-window alarm
    // (250 ms / 600 s ≈ 0.04 %).
    assert!(report.delays.perceptible_avg < 1e-3);
    let row = report.wakeup_row(HardwareComponent::Speaker).unwrap();
    assert_eq!(row.expected, 6);
    assert_eq!(row.actual, 6);
}

#[test]
fn realignment_differs_from_no_realignment() {
    // Dynamic alarms re-registered each delivery churn the queue; the
    // realigning NATIVE should never wake the device more often than the
    // non-realigning variant on this workload.
    let run = |realign: bool| {
        let policy: Box<dyn AlignmentPolicy> = if realign {
            Box::new(NativePolicy::new())
        } else {
            Box::new(NativePolicy::without_realignment())
        };
        let mut sim = Simulation::new(
            policy,
            SimConfig::new().with_duration(SimDuration::from_hours(1)),
        );
        for (i, secs) in [60u64, 90, 120, 150, 200].iter().enumerate() {
            sim.register(alarm(
                &format!("a{i}"),
                *secs,
                *secs,
                0.75,
                HardwareComponent::Wifi.into(),
                true,
            ))
            .unwrap();
        }
        sim.run()
    };
    let with = run(true);
    let without = run(false);
    assert!(with.cpu_wakeups <= without.cpu_wakeups);
}

#[test]
fn energy_breakdown_is_internally_consistent() {
    let mut sim = hour_sim();
    sim.register(alarm(
        "a",
        60,
        60,
        0.0,
        HardwareComponent::Wifi.into(),
        true,
    ))
    .unwrap();
    let report = sim.run();
    let e = &report.energy;
    let sum = e.sleep_mj + e.transition_mj + e.awake_base_mj + e.hardware_mj();
    assert!((sum - e.total_mj()).abs() < 1e-6);
    // Transition energy is exactly wake_count x 100 mJ.
    assert!((e.transition_mj - report.cpu_wakeups as f64 * 100.0).abs() < 1e-6);
}
