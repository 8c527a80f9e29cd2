//! The engine's stage profile stays spread over its stages. On NATIVE
//! and SIMTY runs of the light and heavy scenarios (one seed, one hour,
//! the stage clocks on), event dispatch takes at most 90 % of the stage
//! time; an engine that timed each whole batch as dispatch, queue search
//! and delivery included, would take nearly all of it.
//!
//! Stage times are wall clock, so the share is measured in an optimized
//! build too: CI runs this file in its release step.

use simty::core::time::SimDuration;
use simty::obs::{Stage, StageProfile};
use simty_bench::{PolicyKind, RunSpec, Scenario};

#[test]
fn event_dispatch_takes_at_most_90_percent_of_stage_time() {
    let mut profile = StageProfile::new();
    for policy in [PolicyKind::Native, PolicyKind::Simty] {
        for scenario in [Scenario::Light, Scenario::Heavy] {
            let spec =
                RunSpec::paper(policy, scenario, 1).with_duration(SimDuration::from_hours(1));
            profile.merge(&spec.run_instrumented().1);
        }
    }
    let total = profile.total_nanos();
    assert!(total > 0, "the instrumented runs recorded no stage time");
    let share = profile.nanos(Stage::EventDispatch) as f64 / total as f64;
    assert!(
        share <= 0.90,
        "event_dispatch is {:.0} % of stage time",
        share * 100.0
    );
}
