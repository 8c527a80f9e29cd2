//! End-to-end behaviour of the SIMTY policy (§3) across manager, device,
//! and simulator.

use simty::prelude::*;

const LATENCY: SimDuration = SimDuration::from_millis(250);

fn alarm(
    label: &str,
    nominal_s: u64,
    repeat_s: u64,
    alpha: f64,
    beta: f64,
    hw: HardwareSet,
    dynamic: bool,
) -> Alarm {
    let builder = Alarm::builder(label)
        .nominal(SimTime::from_secs(nominal_s))
        .window_fraction(alpha)
        .grace_fraction(beta)
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

fn simty_sim(duration: SimDuration) -> Simulation {
    Simulation::new(
        Box::new(SimtyPolicy::new()),
        SimConfig::new().with_duration(duration),
    )
}

#[test]
fn imperceptible_deliveries_stay_within_grace() {
    let mut sim = simty_sim(SimDuration::from_hours(1));
    for (i, secs) in [60u64, 90, 120, 180, 270].iter().enumerate() {
        sim.register(alarm(
            &format!("a{i}"),
            *secs,
            *secs,
            0.0,
            0.9,
            HardwareComponent::Wifi.into(),
            i % 2 == 0,
        ))
        .unwrap();
    }
    sim.run();
    for d in sim.trace().deliveries() {
        assert!(d.delivered_at >= d.nominal);
        assert!(
            d.delivered_at <= d.grace_end + LATENCY,
            "{d} beyond grace {}",
            d.grace_end
        );
    }
}

#[test]
fn perceptible_deliveries_stay_within_their_windows() {
    let mut sim = simty_sim(SimDuration::from_hours(2));
    sim.register(alarm(
        "clock",
        1800,
        1800,
        0.0,
        0.9,
        HardwareComponent::Speaker | HardwareComponent::Vibrator,
        false,
    ))
    .unwrap();
    for (i, secs) in [60u64, 300, 600].iter().enumerate() {
        sim.register(alarm(
            &format!("w{i}"),
            *secs,
            *secs,
            0.5,
            0.9,
            HardwareComponent::Wifi.into(),
            false,
        ))
        .unwrap();
    }
    let report = sim.run();
    for d in sim.trace().deliveries().iter().filter(|d| d.perceptible) {
        assert!(
            d.delivered_at <= d.window_end + LATENCY,
            "perceptible {d} beyond its window"
        );
    }
    assert!(report.delays.perceptible_avg < 0.001);
}

#[test]
fn simty_wakes_less_than_native_on_identical_workloads() {
    let run = |policy: Box<dyn AlignmentPolicy>| {
        let mut sim = Simulation::new(
            policy,
            SimConfig::new().with_duration(SimDuration::from_hours(1)),
        );
        for (i, secs) in [60u64, 90, 150, 200, 300, 420].iter().enumerate() {
            sim.register(alarm(
                &format!("a{i}"),
                *secs,
                *secs,
                0.0,
                0.9,
                HardwareComponent::Wifi.into(),
                i < 3,
            ))
            .unwrap();
        }
        sim.run()
    };
    let native = run(Box::new(NativePolicy::new()));
    let simty = run(Box::new(SimtyPolicy::new()));
    // alpha = 0 leaves NATIVE no flexibility at all; the grace interval is
    // SIMTY's entire advantage here.
    assert!(simty.cpu_wakeups < native.cpu_wakeups / 2);
    assert!(simty.energy.total_mj() < native.energy.total_mj());
    // Aligned batches postpone imperceptible alarms, never perceptible ones.
    assert!(simty.delays.imperceptible_avg > 0.0);
    assert_eq!(simty.delays.perceptible_count, 0);
}

#[test]
fn each_imperceptible_alarm_fires_once_per_repeating_interval() {
    let mut sim = simty_sim(SimDuration::from_hours(2));
    let ids: Vec<AlarmId> = [120u64, 300, 450]
        .iter()
        .enumerate()
        .map(|(i, secs)| {
            sim.register(alarm(
                &format!("a{i}"),
                *secs,
                *secs,
                0.1,
                0.9,
                HardwareComponent::Wifi.into(),
                false,
            ))
            .unwrap()
        })
        .collect();
    sim.run();
    let by_alarm = sim.trace().deliveries_by_alarm();
    for (id, interval_s) in ids.iter().zip([120u64, 300, 450]) {
        let times = &by_alarm[id];
        // Static alarm, first nominal at interval: every period k must hold
        // exactly one delivery in [k*i, (k+1)*i + latency].
        let total_periods = 7_200 / interval_s;
        assert!(
            (times.len() as u64).abs_diff(total_periods) <= 1,
            "alarm {id} delivered {} times over {total_periods} periods",
            times.len()
        );
        let bounds = simty::core::bounds::DeliveryBounds::new(
            Repeat::Static(SimDuration::from_secs(interval_s)),
            0.9,
        )
        .unwrap();
        for w in times.windows(2) {
            assert!(bounds.admits(w[1] - w[0], LATENCY));
        }
    }
}

#[test]
fn hardware_similar_alarms_group_together() {
    // Two WPS trackers and two Wi-Fi messengers with interleaved timing:
    // SIMTY should group WPS with WPS and Wi-Fi with Wi-Fi.
    let mut sim = simty_sim(SimDuration::from_hours(2));
    sim.register(alarm(
        "wps-a",
        300,
        300,
        0.75,
        0.9,
        HardwareComponent::Wps.into(),
        false,
    ))
    .unwrap();
    sim.register(alarm(
        "wps-b",
        450,
        300,
        0.75,
        0.9,
        HardwareComponent::Wps.into(),
        false,
    ))
    .unwrap();
    sim.register(alarm(
        "wifi-a",
        280,
        300,
        0.75,
        0.9,
        HardwareComponent::Wifi.into(),
        false,
    ))
    .unwrap();
    sim.register(alarm(
        "wifi-b",
        430,
        300,
        0.75,
        0.9,
        HardwareComponent::Wifi.into(),
        false,
    ))
    .unwrap();
    let report = sim.run();
    // After the first learning round, WPS activations should be about half
    // the WPS deliveries (two trackers per activation).
    let wps = report.wakeup_row(HardwareComponent::Wps).unwrap();
    assert!(
        (wps.actual as f64) < 0.7 * wps.expected as f64,
        "wps {}/{}",
        wps.actual,
        wps.expected
    );
}

#[test]
fn unknown_hardware_is_learned_after_first_delivery() {
    let mut sim = simty_sim(SimDuration::from_mins(30));
    let id = sim
        .register(alarm(
            "a",
            300,
            300,
            0.5,
            0.9,
            HardwareComponent::Wifi.into(),
            false,
        ))
        .unwrap();
    sim.run_until(SimTime::from_secs(400));
    let entry = &sim.manager().wakeup_queue().entries()[0];
    let requeued = entry.alarms().iter().find(|a| a.id() == id).unwrap();
    assert!(requeued.is_hardware_known());
    assert!(!requeued.is_perceptible());
}

#[test]
fn four_level_granularity_also_respects_grace_bounds() {
    let mut sim = Simulation::new(
        Box::new(SimtyPolicy::with_granularity(HardwareGranularity::Four)),
        SimConfig::new().with_duration(SimDuration::from_hours(1)),
    );
    for (i, secs) in [60u64, 120, 300].iter().enumerate() {
        sim.register(alarm(
            &format!("a{i}"),
            *secs,
            *secs,
            0.0,
            0.9,
            HardwareComponent::Wifi.into(),
            false,
        ))
        .unwrap();
    }
    sim.run();
    for d in sim.trace().deliveries() {
        assert!(d.delivered_at <= d.grace_end + LATENCY);
    }
}

#[test]
fn dursim_matches_simty_guarantees() {
    let mut sim = Simulation::new(
        Box::new(DurationSimilarityPolicy::new()),
        SimConfig::new().with_duration(SimDuration::from_hours(1)),
    );
    for (i, secs) in [60u64, 120, 300].iter().enumerate() {
        sim.register(alarm(
            &format!("a{i}"),
            *secs,
            *secs,
            0.0,
            0.9,
            HardwareComponent::Wifi.into(),
            false,
        ))
        .unwrap();
    }
    let report = sim.run();
    assert!(report.delays.perceptible_count == 0 || report.delays.perceptible_avg == 0.0);
    for d in sim.trace().deliveries() {
        assert!(d.delivered_at <= d.grace_end + LATENCY);
    }
}
