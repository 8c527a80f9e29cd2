//! Regression: a parallel sweep must produce byte-identical serialized
//! reports to a sequential one. Each `Simulation` is seed-deterministic,
//! results are keyed by enqueue index, and the JSON serializer is
//! deterministic — so thread count, scheduling, and completion order
//! must leave no trace in the output.

use simty::core::similarity::HardwareGranularity;
use simty::core::time::SimDuration;
use simty_bench::{
    deterministic_view, matrix, run_campaign, CampaignOptions, CampaignResults, Chaos,
    FaultProfile, Grid, PolicyKind, Profile, RunSpec, Scenario,
};

/// A document's deterministic view: its bytes across thread counts.
fn view(document: &str) -> String {
    deterministic_view(document)
        .expect("a campaign document's view")
        .to_string()
}

/// A mixed sweep exercising every spec dimension: policy, scenario,
/// seed, β and granularity — 11 runs, kept short — on `threads` workers.
fn grid(threads: usize) -> CampaignResults<Grid> {
    let mut cells = Vec::new();
    let short = SimDuration::from_mins(20);
    for scenario in [Scenario::Light, Scenario::Heavy] {
        for policy in [PolicyKind::Native, PolicyKind::Simty] {
            for seed in 1..=2 {
                cells.push(RunSpec::paper(policy, scenario, seed).with_duration(short));
            }
        }
    }
    for beta in [0.5, 0.75] {
        cells.push(
            RunSpec::paper(PolicyKind::Simty, Scenario::Heavy, 1)
                .with_beta(beta)
                .with_duration(short),
        );
    }
    cells.push(
        RunSpec::paper(
            PolicyKind::SimtyGranularity(HardwareGranularity::Two),
            Scenario::Heavy,
            1,
        )
        .with_duration(short),
    );
    run_campaign::<Grid>(&cells, &CampaignOptions::with_threads(threads))
        .expect("a journal-less sweep opens no journal")
}

#[test]
fn parallel_sweep_is_byte_identical_to_sequential() {
    let sequential = grid(1);
    let parallel = grid(4);
    assert_eq!(sequential.runs().len(), 11, "grid should be non-trivial");
    assert_eq!(sequential.runs().len(), parallel.runs().len());
    assert_eq!(
        view(&sequential.to_json()),
        view(&parallel.to_json()),
        "parallel sweep diverged from sequential"
    );
}

#[test]
fn repeated_parallel_sweeps_are_byte_identical() {
    let first = grid(3);
    let second = grid(3);
    assert_eq!(view(&first.to_json()), view(&second.to_json()));
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
        view(&sequential.to_json()),
        view(&parallel.to_json()),
        "parallel chaos campaign diverged from sequential"
    );
}

#[test]
fn labels_preserve_enqueue_order_across_thread_counts() {
    let sequential = grid(1);
    let parallel = grid(8);
    let labels = |r: &CampaignResults<Grid>| -> Vec<String> {
        r.outcomes().iter().map(|o| o.label.clone()).collect()
    };
    assert_eq!(labels(&sequential), labels(&parallel));
}
