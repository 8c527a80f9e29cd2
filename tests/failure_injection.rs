//! Failure injection: the simulator and manager under abnormal
//! conditions — cancellations mid-run, forced wakelock release, external
//! wake storms, late registrations, and degenerate workloads.

use simty::prelude::*;

fn wifi(label: &str, nominal_s: u64, repeat_s: u64) -> Alarm {
    Alarm::builder(label)
        .nominal(SimTime::from_secs(nominal_s))
        .repeating_static(SimDuration::from_secs(repeat_s))
        .window_fraction(0.5)
        .grace_fraction(0.9)
        .hardware(HardwareComponent::Wifi.into())
        .task_duration(SimDuration::from_secs(2))
        .build()
        .expect("valid alarm")
}

#[test]
fn empty_workload_only_pays_the_sleep_floor() {
    let mut sim = Simulation::new(
        Box::new(SimtyPolicy::new()),
        SimConfig::new().with_duration(SimDuration::from_hours(1)),
    );
    let report = sim.run();
    assert_eq!(report.cpu_wakeups, 0);
    assert_eq!(report.total_deliveries, 0);
    assert!((report.energy.total_mj() - report.energy.sleep_mj).abs() < 1e-9);
    // 50 mW for an hour = 180 J.
    assert!((report.energy.sleep_mj - 180_000.0).abs() < 1.0);
}

#[test]
fn cancelling_mid_run_stops_deliveries_and_saves_energy() {
    let run = |cancel_at: Option<SimTime>| {
        let mut sim = Simulation::new(
            Box::new(SimtyPolicy::new()),
            SimConfig::new().with_duration(SimDuration::from_hours(1)),
        );
        let id = sim.register(wifi("victim", 300, 300)).unwrap();
        sim.register(wifi("survivor", 400, 400)).unwrap();
        if let Some(t) = cancel_at {
            sim.run_until(t);
            assert!(sim.cancel(id).is_some());
        }
        (sim.run(), id)
    };
    let (full, _) = run(None);
    let (cancelled, victim) = run(Some(SimTime::from_secs(1_000)));
    assert!(cancelled.total_deliveries < full.total_deliveries);
    assert!(cancelled.energy.total_mj() < full.energy.total_mj());
    // No victim deliveries after the cancellation instant.
    let _ = victim;
}

#[test]
fn cancelling_one_member_of_a_batch_leaves_the_rest_intact() {
    let mut sim = Simulation::new(
        Box::new(NativePolicy::new()),
        SimConfig::new().with_duration(SimDuration::from_hours(1)),
    );
    let a = sim.register(wifi("a", 300, 600)).unwrap();
    sim.register(wifi("b", 350, 600)).unwrap();
    // Both batch together (windows overlap). Cancel `a` before delivery.
    assert_eq!(sim.manager().wakeup_queue().len(), 1);
    assert!(sim.cancel(a).is_some());
    assert_eq!(sim.manager().wakeup_queue().alarm_count(), 1);
    sim.run();
    assert!(sim.trace().deliveries().iter().all(|d| &*d.label == "b"));
}

#[test]
fn forced_wakelock_release_lets_the_device_sleep_early() {
    let mut sim = Simulation::new(
        Box::new(SimtyPolicy::new()),
        SimConfig::new().with_duration(SimDuration::from_mins(30)),
    );
    // A pathological app holds its wakelock for ten minutes (a no-sleep
    // bug, §1).
    sim.register(
        Alarm::builder("nosleep-bug")
            .nominal(SimTime::from_secs(60))
            .repeating_static(SimDuration::from_secs(1_200))
            .hardware(HardwareComponent::Gps.into())
            .task_duration(SimDuration::from_secs(600))
            .build()
            .unwrap(),
    )
    .unwrap();
    // Let the buggy task start, then force-stop *that app* (the
    // targeted WakeScope-style remedy; the blunt drop-everything shim
    // is covered by the engine's unit tests).
    sim.run_until(SimTime::from_secs(120));
    assert!(sim.device().is_awake());
    assert!(sim.force_release_app("nosleep-bug"));
    // A second release finds nothing left to free.
    assert!(!sim.force_release_app("nosleep-bug"));
    sim.run_until(SimTime::from_secs(400));
    assert!(
        sim.device().is_asleep(),
        "device slept after the forced release"
    );
    // Compare against letting the bug run: forced release must save energy.
    let mut buggy = Simulation::new(
        Box::new(SimtyPolicy::new()),
        SimConfig::new().with_duration(SimDuration::from_mins(30)),
    );
    buggy
        .register(
            Alarm::builder("nosleep-bug")
                .nominal(SimTime::from_secs(60))
                .repeating_static(SimDuration::from_secs(1_200))
                .hardware(HardwareComponent::Gps.into())
                .task_duration(SimDuration::from_secs(600))
                .build()
                .unwrap(),
        )
        .unwrap();
    let buggy_report = buggy.run();
    let fixed_report = sim.run();
    assert!(fixed_report.energy.total_mj() < buggy_report.energy.total_mj() * 0.7);
}

#[test]
fn watchdog_detects_the_no_sleep_bug_the_remedy_fixes() {
    use simty::sim::watchdog::{scan, Anomaly, WatchdogPolicy};
    let mut sim = Simulation::new(
        Box::new(SimtyPolicy::new()),
        SimConfig::new().with_duration(SimDuration::from_mins(30)),
    );
    sim.register(
        Alarm::builder("leaky")
            .nominal(SimTime::from_secs(60))
            .repeating_static(SimDuration::from_secs(1_200))
            .hardware(HardwareComponent::Gps.into())
            .task_duration(SimDuration::from_secs(600))
            .build()
            .expect("valid alarm"),
    )
    .expect("registers");
    sim.register(wifi("honest", 120, 300)).expect("registers");
    sim.run_until(SimTime::ZERO + SimDuration::from_mins(30));
    let report = scan(
        sim.trace(),
        SimDuration::from_mins(30),
        WatchdogPolicy::default(),
    );
    // Only the leaky app is flagged, under both criteria.
    assert_eq!(report.flagged_apps(), vec!["leaky"]);
    assert!(report
        .findings
        .iter()
        .any(|f| matches!(f.anomaly, Anomaly::LongHold { .. })));
    assert!(report
        .findings
        .iter()
        .any(|f| matches!(f.anomaly, Anomaly::HighDutyCycle { .. })));
}

#[test]
fn quarantine_and_recovery_round_trip_end_to_end() {
    // A no-sleep bug offends twice, gets quarantined (demoted to
    // imperceptible batching), is then patched (re-registered with a
    // short task), delivers cleanly through probation, and recovers —
    // all under strict invariants.
    let config = SimConfig::new()
        .with_duration(SimDuration::from_hours(1))
        .with_online_watchdog(OnlineWatchdogConfig::default())
        .with_strict_invariants();
    let mut sim = Simulation::new(Box::new(SimtyPolicy::new()), config);
    let greedy = |nominal_s: u64, task_s: u64| {
        Alarm::builder("greedy")
            .nominal(SimTime::from_secs(nominal_s))
            .repeating_static(SimDuration::from_secs(300))
            .hardware(HardwareComponent::Gps.into())
            .task_duration(SimDuration::from_secs(task_s))
            .build()
            .unwrap()
    };
    // 90 s task > the 60 s hold budget: every delivery is an offense.
    let id = sim.register(greedy(60, 90)).unwrap();
    sim.register(wifi("honest", 120, 300)).unwrap();
    sim.run_until(SimTime::from_secs(700));
    assert!(
        sim.is_app_quarantined("greedy"),
        "two offenses must trigger quarantine"
    );
    // The "patch": cancel the buggy alarm, re-register a 5 s version.
    assert!(sim.cancel(id).is_some());
    sim.register(greedy(900, 5)).unwrap();
    let report = sim.run();
    assert!(
        !sim.is_app_quarantined("greedy"),
        "probation-clean deliveries must recover the app"
    );
    let r = &report.resilience;
    assert_eq!(r.invariant_violations, 0);
    assert_eq!(r.quarantines, 1);
    assert_eq!(r.recoveries, 1);
    assert!(r.forced_releases >= 2);
    assert!(r.mean_time_to_recovery_ms > 0.0);
    // Every intervention is attributed to the offender in the trace.
    assert!(sim
        .trace()
        .interventions()
        .iter()
        .all(|i| i.app == "greedy"));
    // The honest bystander kept delivering throughout.
    assert!(sim
        .trace()
        .deliveries()
        .iter()
        .any(|d| &*d.label == "honest"));
}

#[test]
fn external_wake_storm_does_not_violate_delivery_guarantees() {
    let wakes: Vec<SimTime> = (1..120).map(|i| SimTime::from_secs(i * 30)).collect();
    let mut sim = Simulation::new(
        Box::new(SimtyPolicy::new()),
        SimConfig::new()
            .with_duration(SimDuration::from_hours(1))
            .with_external_wakes(wakes),
    );
    sim.register(wifi("a", 300, 300)).unwrap();
    let report = sim.run();
    let latency = SimDuration::from_millis(250);
    for d in sim.trace().deliveries() {
        assert!(d.delivered_at >= d.nominal);
        assert!(d.delivered_at <= d.grace_end + latency);
    }
    // The storm wakes the device many more times than the alarm alone.
    assert!(report.cpu_wakeups > 100);
}

#[test]
fn registering_in_the_past_is_rejected_cleanly() {
    let mut sim = Simulation::new(
        Box::new(SimtyPolicy::new()),
        SimConfig::new().with_duration(SimDuration::from_hours(1)),
    );
    sim.register(wifi("a", 60, 300)).unwrap();
    sim.run_until(SimTime::from_secs(120));
    let err = sim.register(wifi("late", 30, 300));
    assert!(err.is_err());
    // The failed registration left the queue intact.
    assert_eq!(sim.manager().alarm_count(), 1);
}

#[test]
fn late_registration_joins_the_running_system() {
    let mut sim = Simulation::new(
        Box::new(SimtyPolicy::new()),
        SimConfig::new().with_duration(SimDuration::from_hours(1)),
    );
    sim.register(wifi("early", 300, 300)).unwrap();
    sim.run_until(SimTime::from_secs(1_000));
    sim.register(wifi("late", 1_200, 300)).unwrap();
    sim.run();
    assert!(sim.trace().deliveries().iter().any(|d| &*d.label == "late"));
}

#[test]
fn zero_length_tasks_still_wake_and_sleep_correctly() {
    let mut sim = Simulation::new(
        Box::new(ExactPolicy::new()),
        SimConfig::new().with_duration(SimDuration::from_mins(10)),
    );
    // First nominal at 30 s so the tenth delivery (at 570 s + wake
    // latency) still completes inside the 600 s run.
    sim.register(
        Alarm::builder("ping")
            .nominal(SimTime::from_secs(30))
            .repeating_static(SimDuration::from_secs(60))
            .task_duration(SimDuration::ZERO)
            .build()
            .unwrap(),
    )
    .unwrap();
    let report = sim.run();
    assert_eq!(report.total_deliveries, 10);
    assert_eq!(report.cpu_wakeups, 10);
    // Each wakeup costs exactly the bare 180 mJ.
    assert!((report.energy.awake_related_mj() - 10.0 * 180.0).abs() < 1e-6);
}

#[test]
fn duplicate_registration_replaces_rather_than_duplicates() {
    let mut sim = Simulation::new(
        Box::new(SimtyPolicy::new()),
        SimConfig::new().with_duration(SimDuration::from_mins(30)),
    );
    let alarm = wifi("dup", 600, 600);
    sim.register(alarm.clone()).unwrap();
    sim.register(alarm).unwrap();
    assert_eq!(sim.manager().alarm_count(), 1);
}
