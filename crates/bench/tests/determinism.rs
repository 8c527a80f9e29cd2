//! Regression: a parallel sweep must produce byte-identical serialized
//! reports to a sequential one. Each `Simulation` is seed-deterministic,
//! results are keyed by enqueue index, and the JSON serializer is
//! deterministic — so thread count, scheduling, and completion order
//! must leave no trace in the output.

use simty::core::similarity::HardwareGranularity;
use simty::core::time::SimDuration;
use simty_bench::{
    matrix, motivating_example_report, run_campaign, CampaignOptions, Chaos, FaultProfile,
    PolicyKind, Profile, RunSpec, Scenario, Sweep,
};

/// A mixed grid exercising every spec dimension: policy, scenario, seed,
/// β, granularity, and a closure job — 14 runs, kept short.
fn grid() -> Sweep {
    let mut sweep = Sweep::new();
    let short = SimDuration::from_mins(20);
    for scenario in [Scenario::Light, Scenario::Heavy] {
        for policy in [PolicyKind::Native, PolicyKind::Simty] {
            for seed in 1..=2 {
                sweep.spec(RunSpec::paper(policy, scenario, seed).with_duration(short));
            }
        }
    }
    for beta in [0.5, 0.96] {
        sweep.spec(
            RunSpec::paper(PolicyKind::Simty, Scenario::Heavy, 1)
                .with_beta(beta)
                .with_duration(short),
        );
    }
    sweep.spec(
        RunSpec::paper(
            PolicyKind::SimtyGranularity(HardwareGranularity::Two),
            Scenario::Heavy,
            1,
        )
        .with_duration(short),
    );
    sweep.job("fig2/SIMTY", || motivating_example_report(PolicyKind::Simty));
    sweep
}

#[test]
fn parallel_sweep_is_byte_identical_to_sequential() {
    let sequential = grid().run_with_threads(1);
    let parallel = grid().run_with_threads(4);
    // 8 policy×scenario×seed specs + β 0.5 + 2-level granularity + the
    // closure job; β 0.96 deduplicates against the seed-1 heavy SIMTY spec.
    assert!(sequential.len() >= 11, "grid should be non-trivial");
    assert_eq!(sequential.len(), parallel.len());
    assert_eq!(
        sequential.reports_json(),
        parallel.reports_json(),
        "parallel sweep diverged from sequential"
    );
}

#[test]
fn repeated_parallel_sweeps_are_byte_identical() {
    let first = grid().run_with_threads(3);
    let second = grid().run_with_threads(3);
    assert_eq!(first.reports_json(), second.reports_json());
}

#[test]
fn chaos_campaigns_are_byte_identical_across_thread_counts() {
    // Every fault profile over both headline policies: faults, watchdog
    // interventions, quarantines, and invariant accounting must all be
    // scheduling-independent.
    let specs = matrix(
        &[PolicyKind::Native, PolicyKind::Simty],
        &[Scenario::Light],
        FaultProfile::ALL,
        1,
        SimDuration::from_mins(20),
    );
    let run = |threads| {
        run_campaign::<Chaos>(&specs, &CampaignOptions::with_threads(threads))
            .expect("a journal-less campaign opens no journal")
    };
    let sequential = run(1);
    let parallel = run(3);
    assert_eq!(sequential.runs().len(), specs.len());
    assert_eq!(
        sequential.to_json(),
        parallel.to_json(),
        "parallel chaos campaign diverged from sequential"
    );
}

#[test]
fn labels_preserve_enqueue_order_across_thread_counts() {
    let sequential = grid().run_with_threads(1);
    let parallel = grid().run_with_threads(8);
    let labels = |r: &simty_bench::SweepResults| -> Vec<String> {
        r.outcomes().iter().map(|o| o.label.clone()).collect()
    };
    assert_eq!(labels(&sequential), labels(&parallel));
}
