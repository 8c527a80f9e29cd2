//! Scalability sweep over synthetic app populations: the delivery
//! guarantees and the SIMTY-beats-NATIVE ordering must hold not just on
//! Table 3 but on arbitrary resident-app mixes, at increasing scale.

use simty::prelude::*;

const LATENCY: SimDuration = SimDuration::from_millis(250);

fn run(n_apps: usize, seed: u64, policy: Box<dyn AlignmentPolicy>) -> Simulation {
    let workload = WorkloadBuilder::synthetic(n_apps, seed)
        .with_duration(SimDuration::from_hours(1))
        .build();
    let config = SimConfig::new().with_duration(SimDuration::from_hours(1));
    let mut sim = Simulation::new(policy, config);
    for alarm in workload.alarms {
        sim.register(alarm).expect("synthetic alarm registers");
    }
    sim.run_until(SimTime::ZERO + SimDuration::from_hours(1));
    sim
}

#[test]
fn guarantees_hold_at_every_scale() {
    for n_apps in [10, 40, 120] {
        let sim = run(n_apps, 5, Box::new(SimtyPolicy::new()));
        assert!(
            sim.trace().deliveries().len() > n_apps,
            "{n_apps} apps produced too few deliveries"
        );
        for d in sim.trace().deliveries() {
            assert!(d.delivered_at >= d.nominal);
            assert!(
                d.delivered_at <= d.grace_end + LATENCY,
                "{n_apps} apps: {d} beyond grace"
            );
            if d.perceptible {
                assert!(
                    d.delivered_at <= d.window_end + LATENCY,
                    "{n_apps} apps: perceptible {d} beyond window"
                );
            }
        }
    }
}

#[test]
fn simty_beats_native_on_synthetic_populations() {
    for seed in [1, 2, 3] {
        let native = run(40, seed, Box::new(NativePolicy::new())).report();
        let simty = run(40, seed, Box::new(SimtyPolicy::new())).report();
        assert!(
            simty.energy.awake_related_mj() < native.energy.awake_related_mj(),
            "seed {seed}: simty {} !< native {}",
            simty.energy.awake_related_mj(),
            native.energy.awake_related_mj()
        );
        assert!(
            simty.entry_deliveries < native.entry_deliveries,
            "seed {seed}"
        );
        // Perceptible alarms stay on time under both.
        assert!(native.delays.perceptible_avg < 1e-3);
        assert!(simty.delays.perceptible_avg < 1e-3);
    }
}

#[test]
fn denser_populations_align_better() {
    // With more alarms registered, a larger fraction of deliveries should
    // share wakeups under SIMTY (the paper's heavy-beats-light argument
    // generalized).
    let sparse = run(10, 7, Box::new(SimtyPolicy::new()));
    let dense = run(120, 7, Box::new(SimtyPolicy::new()));
    let aligned = |sim: &Simulation| {
        let h = simty::sim::analysis::BatchHistogram::from_trace(sim.trace());
        h.aligned_fraction()
    };
    assert!(
        aligned(&dense) > aligned(&sparse),
        "dense {} !> sparse {}",
        aligned(&dense),
        aligned(&sparse)
    );
}

#[test]
fn attribution_stays_conserved_at_scale() {
    let sim = run(80, 11, Box::new(SimtyPolicy::new()));
    let meter = sim.device().energy().awake_related_mj();
    let ledger = sim.attribution();
    let accounted = ledger.attributed_mj() + ledger.overhead_mj();
    assert!(
        (accounted - meter).abs() < 1e-2,
        "ledger {accounted} vs meter {meter}"
    );
}
