//! A realistic mixed day: the 18-app workload in connected standby,
//! interrupted by interactive user sessions (screen-on periods) and push
//! messages that reschedule the messengers' alarms.
//!
//! This is the setting the paper's motivation describes — smartphones
//! spend 89 % of their time in standby [9], yet standby accounts for
//! 46.3 % of energy — reproduced end to end: SIMTY's savings survive the
//! interruptions, and the screen dwarfs everything while it is on.
//!
//! Run with `cargo run --release --example full_day -p simty`.

use simty::prelude::*;

fn run(policy: Box<dyn AlignmentPolicy>, hours: u64) -> Simulation {
    let duration = SimDuration::from_hours(hours);
    let workload = WorkloadBuilder::heavy()
        .with_seed(5)
        .with_duration(duration)
        .build();
    let sessions = UserSessions::new(5).generate(duration);
    let config = SimConfig::new().with_duration(duration);
    let mut sim = Simulation::new(policy, config);

    let mut push_plan = PushPlan::new(5);
    for alarm in workload.alarms {
        let label = alarm.label().to_owned();
        let id = sim.register(alarm).expect("workload registers");
        // The chatty messengers receive pushes that reset their sync
        // schedules (the GCM path of the paper's footnote 1).
        if matches!(label.as_str(), "Facebook" | "Line" | "WeChat") {
            push_plan = push_plan.subscribe(id, SimDuration::from_mins(20));
        }
    }
    push_plan.apply(&mut sim, duration);
    for session in sessions {
        sim.register(session).expect("session registers");
    }
    sim.run_until(SimTime::ZERO + duration);
    sim
}

fn main() {
    const HOURS: u64 = 12;
    println!("a {HOURS}-hour day: 18 apps + user sessions + push messages\n");

    let native = run(Box::new(NativePolicy::new()), HOURS);
    let simty = run(Box::new(SimtyPolicy::new()), HOURS);
    let battery = Battery::nexus5();

    for sim in [&native, &simty] {
        let r = sim.report();
        let screen_mj = r.energy.component_mj(HardwareComponent::Screen);
        println!(
            "{:<7} total {:>7.1} J (screen {:>6.1} J), {} batch deliveries, \
             projected battery life {:.1} days",
            r.policy,
            r.energy.total_mj() / 1_000.0,
            screen_mj / 1_000.0,
            r.entry_deliveries,
            battery.standby_time(r.average_power_mw()).as_secs_f64() / 86_400.0,
        );
    }

    let n = native.report();
    let s = simty.report();
    // Screen energy is identical under both policies (the user is the
    // user); the *standby* savings live in everything else.
    let non_screen =
        |r: &SimReport| r.energy.total_mj() - r.energy.component_mj(HardwareComponent::Screen);
    println!(
        "\nexcluding the screen, SIMTY saves {:.0}% of the day's energy \
         (perceptible delay: NATIVE {:.2}%, SIMTY {:.2}%)",
        100.0 * (1.0 - non_screen(&s) / non_screen(&n)),
        n.delays.perceptible_avg * 100.0,
        s.delays.perceptible_avg * 100.0,
    );

    // Sessions also flush non-wakeup work and merge alarm deliveries: how
    // often did an alarm ride on an already-awake device?
    let free_rides = |sim: &Simulation| {
        let r = sim.report();
        r.entry_deliveries - r.cpu_wakeups
    };
    println!(
        "deliveries served without a fresh wakeup (device already on): \
         NATIVE {}, SIMTY {}",
        free_rides(&native),
        free_rides(&simty),
    );
}
