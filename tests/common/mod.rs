//! A simulation with every optional subsystem on, shared by the
//! checkpoint tests: the waveform monitor, invariants, the online
//! watchdog, admission, the degradation governor, faults (an app crash
//! and a push storm included), reboots, a registration storm and
//! external wakes. Its labels need escaping (`%`, `,`, `:`, `=`, `;`,
//! `.`, non-ASCII) or look like numbers (`"007"`, `"42"`, `"+5"`), so a
//! restore that re-types or mis-unescapes a value shows in the bytes.

use simty::prelude::*;
use simty::sim::watchdog::WatchdogPolicy;
use simty::sim::{GovernorConfig, RegistrationStormPlan, StormBurst};

/// The run's length.
const DURATION: SimDuration = SimDuration::from_hours(1);

/// The labels, one alarm each, with their first nominal time, repeat
/// period and hardware.
const ALARMS: [(&str, u64, u64, HardwareComponent); 6] = [
    ("a%b,c:d=e;f.g", 60, 300, HardwareComponent::Wifi),
    ("naïve ✓ mail", 90, 240, HardwareComponent::Cellular),
    ("007", 45, 180, HardwareComponent::Wifi),
    ("42", 120, 600, HardwareComponent::Cellular),
    ("+5", 200, 420, HardwareComponent::Wps),
    ("0", 30, 900, HardwareComponent::Accelerometer),
];

/// The simulation, registered and scheduled but not yet run; `seed`
/// drives its fault plan.
pub fn every_subsystem_sim(seed: u64) -> Simulation {
    let mut sim = Simulation::new(
        Box::new(SimtyPolicy::new()),
        SimConfig::new()
            .with_duration(DURATION)
            .with_waveform()
            .with_invariants()
            .with_online_watchdog(OnlineWatchdogConfig {
                policy: WatchdogPolicy {
                    max_task_hold: SimDuration::from_secs(10),
                    ..WatchdogPolicy::default()
                },
                ..OnlineWatchdogConfig::default()
            })
            .with_admission(simty::core::AdmissionConfig::default())
            .with_degradation(GovernorConfig {
                capacity_mj: 190_000.0,
                ..GovernorConfig::default()
            })
            .with_external_wakes([SimTime::from_secs(700), SimTime::from_secs(2_500)]),
    );
    for (i, (label, nominal_s, repeat_s, hardware)) in ALARMS.into_iter().enumerate() {
        let builder = Alarm::builder(label)
            .nominal(SimTime::from_secs(nominal_s))
            .window_fraction(0.5)
            .grace_fraction(0.9)
            .hardware(hardware.into())
            .task_duration(SimDuration::from_millis(1_500));
        let builder = if i % 2 == 0 {
            builder.repeating_static(SimDuration::from_secs(repeat_s))
        } else {
            builder.repeating_dynamic(SimDuration::from_secs(repeat_s))
        };
        sim.register(builder.build().expect("valid alarm"))
            .expect("alarm registers");
    }
    sim.register(
        Alarm::builder("clock;tick")
            .nominal(SimTime::from_secs(20))
            .repeating_static(SimDuration::from_secs(600))
            .kind(AlarmKind::NonWakeup)
            .build()
            .expect("valid alarm"),
    )
    .expect("alarm registers");
    sim.inject_faults(
        &FaultPlan::new(seed)
            .with_rtc_jitter(SimDuration::from_millis(300))
            .with_dropped_fires(0.05, SimDuration::from_secs(5))
            .with_task_overruns(0.10, SimDuration::from_secs(3))
            .with_wakelock_leaks(0.15, SimDuration::from_secs(20))
            .with_activation_failures(0.05)
            .with_app_crash(
                "007",
                SimTime::from_secs(25 * 60),
                SimDuration::from_mins(20),
            )
            .with_push_storm(
                SimTime::from_secs(10 * 60),
                SimDuration::from_mins(5),
                SimDuration::from_secs(30),
            ),
    );
    sim.inject_reboots(
        &RebootPlan::new(3).with_reboot(SimTime::from_secs(50 * 60), SimDuration::from_secs(40)),
    );
    sim.inject_storm(&RegistrationStormPlan::new().burst(StormBurst {
        app: "storm,%=.;ü".to_owned(),
        start: SimTime::from_secs(15 * 60),
        count: 12,
        every: SimDuration::from_secs(20),
        period: SimDuration::from_secs(300),
        perceptible: false,
        task: SimDuration::from_secs(1),
        window_milli: 250,
        grace_milli: 500,
    }));
    sim
}

/// The observability exports a resumed run must reproduce: the span
/// JSONL, the metrics JSON, the audit JSONL and the Chrome trace of the
/// span ring.
pub fn obs_exports(sim: &Simulation) -> [String; 4] {
    let obs = sim.obs();
    let mut chrome = simty::obs::TraceBuilder::new("standby");
    chrome.add_track(0, "SIMTY");
    chrome.add_spans(0, obs.spans().iter());
    [
        obs.spans_jsonl(),
        obs.metrics_json(),
        obs.audits_jsonl(),
        chrome.finish(),
    ]
}
