//! Chaos campaign: fault-matrix resilience sweeps.
//!
//! The paper's guarantee — perceptible alarms never slip past their
//! windows — is easy to keep on a healthy device. This module asks the
//! harder question the paper's §1 motivates with no-sleep bugs: does the
//! guarantee survive a *hostile* device? A chaos campaign runs a grid of
//! policy × scenario × [fault profile](FaultProfile) × seed cells, each a
//! full simulation with deterministic fault injection ([`FaultPlan`]),
//! the online watchdog ([`OnlineWatchdogConfig`]), and the runtime
//! invariant monitor armed in report mode. The campaign runs on the
//! [campaign kernel](crate::campaign), so results are byte-identical
//! regardless of thread count, and serializes to the
//! `simty-bench-chaos/v1` document (`BENCH_chaos.json`).

use std::collections::BTreeSet;

use simty::core::{SimDuration, SimTime};
use simty::sim::{FaultPlan, OnlineWatchdogConfig, SimConfig, SimReport};

use crate::campaign::{
    self, profiles, sum, Campaign, CampaignOptions, CampaignResults, CampaignSpec,
};
use crate::json::{json_object, json_pairs};

/// A named bundle of fault-injection knobs: one adversary per campaign
/// cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultProfile {
    /// No faults: the control cell (its resilience stats must be quiet).
    Baseline,
    /// RTC fires land up to 2 s late.
    Jitter,
    /// 5% of RTC fires are lost; the supervisory re-arm retries after 1 s.
    Drops,
    /// 2% of tasks overrun their declared duration by 5 minutes — the
    /// synthetic no-sleep bug the online watchdog exists for.
    Overruns,
    /// 2% of tasks leak their hardware wakelocks for 3 minutes.
    Leaks,
    /// 5% of hardware activations fail transiently and are retried with
    /// capped exponential backoff.
    Flaky,
    /// One app crashes at 40% of the run and restarts 2 minutes later.
    Crashes,
    /// A 2-minute push storm (mean inter-arrival 5 s) hits at 30% of the
    /// run.
    Storm,
    /// Everything at once, at milder rates.
    Mixed,
}

profiles!(FaultProfile, "fault" {
    Baseline = "baseline",
    Jitter = "jitter",
    Drops = "drops",
    Overruns = "overruns",
    Leaks = "leaks",
    Flaky = "flaky",
    Crashes = "crashes",
    Storm = "storm",
    Mixed = "mixed",
});

impl FaultProfile {
    /// Compiles the profile into a concrete [`FaultPlan`] for a run of
    /// `duration`. `crash_app` is the label sacrificed by crash-bearing
    /// profiles (callers pick it deterministically from the workload).
    pub fn plan(self, seed: u64, duration: SimDuration, crash_app: &str) -> FaultPlan {
        let at = |fraction_pct: u64| {
            SimTime::ZERO + SimDuration::from_millis(duration.as_millis() * fraction_pct / 100)
        };
        let plan = FaultPlan::new(seed);
        match self {
            FaultProfile::Baseline => plan,
            FaultProfile::Jitter => plan.with_rtc_jitter(SimDuration::from_secs(2)),
            FaultProfile::Drops => plan.with_dropped_fires(0.05, SimDuration::from_secs(1)),
            FaultProfile::Overruns => plan.with_task_overruns(0.02, SimDuration::from_secs(300)),
            FaultProfile::Leaks => plan.with_wakelock_leaks(0.02, SimDuration::from_secs(180)),
            FaultProfile::Flaky => plan.with_activation_failures(0.05),
            FaultProfile::Crashes => {
                plan.with_app_crash(crash_app, at(40), SimDuration::from_secs(120))
            }
            FaultProfile::Storm => plan.with_push_storm(
                at(30),
                SimDuration::from_secs(120),
                SimDuration::from_secs(5),
            ),
            FaultProfile::Mixed => plan
                .with_rtc_jitter(SimDuration::from_secs(1))
                .with_dropped_fires(0.03, SimDuration::from_secs(1))
                .with_task_overruns(0.01, SimDuration::from_secs(120))
                .with_wakelock_leaks(0.01, SimDuration::from_secs(90))
                .with_activation_failures(0.03)
                .with_app_crash(crash_app, at(40), SimDuration::from_secs(120))
                .with_push_storm(
                    at(30),
                    SimDuration::from_secs(120),
                    SimDuration::from_secs(5),
                ),
        }
    }
}

/// The chaos campaign: every cell defends against a [`FaultProfile`].
#[derive(Debug, Clone, Copy)]
pub enum Chaos {}

/// One chaos cell.
pub type ChaosSpec = CampaignSpec<FaultProfile>;

/// A finished chaos campaign.
pub type ChaosResults = CampaignResults<Chaos>;

impl Campaign for Chaos {
    type Cell = ChaosSpec;
    type Drill = ();
    type Aggregate = PolicyResilience;

    const KIND: &'static str = "chaos";

    /// Executes the cell: builds the workload, arms the online watchdog
    /// and the invariant monitor (report mode), injects the profile's
    /// fault plan, and runs to the end.
    fn run_cell(spec: &ChaosSpec, _options: &CampaignOptions) -> (SimReport, ()) {
        let workload = campaign::workload(spec.scenario, spec.seed, spec.duration);
        // Crash-bearing profiles sacrifice one app, picked
        // deterministically from the workload's label set by seed.
        let labels: BTreeSet<&str> = workload.alarms.iter().map(|a| a.label()).collect();
        let crash_app = labels
            .iter()
            .nth(spec.seed as usize % labels.len().max(1))
            .copied()
            .unwrap_or("none");
        let plan = spec.profile.plan(spec.seed, spec.duration, crash_app);
        let config = SimConfig::new()
            .with_duration(spec.duration)
            .with_online_watchdog(OnlineWatchdogConfig::default())
            .with_invariants();
        let mut sim = campaign::simulation(spec.policy, workload, config);
        sim.inject_faults(&plan);
        (sim.run(), ())
    }

    fn aggregate(policy: String, cells: &[(&SimReport, ())]) -> PolicyResilience {
        let n = cells.len() as u64;
        let recoveries = sum(cells, |(r, _)| r.resilience.recoveries);
        let mttr_weighted: f64 = cells
            .iter()
            .map(|(r, _)| r.resilience.mean_time_to_recovery_ms * r.resilience.recoveries as f64)
            .sum();
        PolicyResilience {
            policy,
            runs: n,
            invariant_violations: sum(cells, |(r, _)| r.resilience.invariant_violations),
            perceptible_window_misses: sum(cells, |(r, _)| r.resilience.perceptible_window_misses),
            interventions: sum(cells, |(r, _)| r.resilience.interventions),
            forced_releases: sum(cells, |(r, _)| r.resilience.forced_releases),
            activation_retries: sum(cells, |(r, _)| r.resilience.activation_retries),
            quarantines: sum(cells, |(r, _)| r.resilience.quarantines),
            recoveries,
            mean_time_to_recovery_ms: if recoveries > 0 {
                mttr_weighted / recoveries as f64
            } else {
                0.0
            },
            intervention_overhead_mj: cells
                .iter()
                .map(|(r, _)| r.resilience.intervention_overhead_mj)
                .sum(),
            perceptible_delay_avg: cells
                .iter()
                .map(|(r, _)| r.delays.perceptible_avg)
                .sum::<f64>()
                / n as f64,
            perceptible_delay_max: cells
                .iter()
                .map(|(r, _)| r.delays.perceptible_max)
                .fold(0.0, f64::max),
        }
    }

    fn aggregate_json(agg: &PolicyResilience) -> String {
        json_object(&json_pairs!(Some(agg);
            policy, runs, invariant_violations, perceptible_window_misses, interventions,
            forced_releases, activation_retries, quarantines, recoveries,
            mean_time_to_recovery_ms, intervention_overhead_mj, perceptible_delay_avg,
            perceptible_delay_max))
    }
}

/// Per-policy resilience aggregate over every cell the policy defended.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyResilience {
    /// The policy's display name.
    pub policy: String,
    /// How many cells it ran.
    pub runs: u64,
    /// Total invariant violations (the headline: must be zero).
    pub invariant_violations: u64,
    /// Total perceptible-window misses.
    pub perceptible_window_misses: u64,
    /// Total watchdog/retry interventions.
    pub interventions: u64,
    /// Total forced wakelock releases.
    pub forced_releases: u64,
    /// Total hardware-activation retries.
    pub activation_retries: u64,
    /// Total quarantines imposed.
    pub quarantines: u64,
    /// Total quarantine recoveries.
    pub recoveries: u64,
    /// Mean time from quarantine to recovery, in ms, weighted by
    /// recoveries (0 when nothing recovered).
    pub mean_time_to_recovery_ms: f64,
    /// Total energy spent by interventions (mJ).
    pub intervention_overhead_mj: f64,
    /// Mean normalized perceptible delay across cells.
    pub perceptible_delay_avg: f64,
    /// Worst normalized perceptible delay across cells.
    pub perceptible_delay_max: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{matrix, run_campaign, Cell, Profile};
    use crate::supervisor::CellStatus;
    use simty::experiments::{PolicyKind, Scenario};

    fn tiny(profile: FaultProfile, policy: PolicyKind) -> ChaosSpec {
        ChaosSpec {
            policy,
            scenario: Scenario::Light,
            profile,
            seed: 1,
            duration: SimDuration::from_mins(20),
        }
    }

    #[test]
    fn profile_names_round_trip() {
        for &p in FaultProfile::ALL {
            assert_eq!(FaultProfile::parse(p.name()), Some(p));
        }
        assert_eq!(FaultProfile::parse("bogus"), None);
    }

    #[test]
    fn baseline_cell_is_quiet() {
        let (report, ()) = Chaos::run_cell(
            &tiny(FaultProfile::Baseline, PolicyKind::Simty),
            &CampaignOptions::default(),
        );
        assert!(report.resilience.is_quiet(), "{:?}", report.resilience);
    }

    #[test]
    fn overrun_cell_triggers_the_watchdog_without_violations() {
        // An hour gives the 2% overrun draw enough deliveries to land.
        let mut spec = tiny(FaultProfile::Overruns, PolicyKind::Simty);
        spec.duration = SimDuration::from_hours(1);
        let (report, ()) = Chaos::run_cell(&spec, &CampaignOptions::default());
        assert!(report.resilience.forced_releases > 0);
        assert_eq!(report.resilience.invariant_violations, 0);
    }

    #[test]
    fn matrix_covers_the_grid_in_order() {
        let specs = matrix(
            &[PolicyKind::Native, PolicyKind::Simty],
            &[Scenario::Light],
            FaultProfile::ALL,
            2,
            SimDuration::from_hours(1),
        );
        assert_eq!(specs.len(), 2 * 9 * 2);
        assert_eq!(specs[0].label(), "NATIVE/light/baseline/seed1/3600s");
        assert!(specs
            .last()
            .unwrap()
            .label()
            .starts_with("SIMTY/light/mixed"));
    }

    #[test]
    fn campaign_aggregates_and_serializes() {
        let specs = matrix(
            &[PolicyKind::Native, PolicyKind::Simty],
            &[Scenario::Light],
            &[FaultProfile::Baseline, FaultProfile::Overruns],
            1,
            SimDuration::from_mins(20),
        );
        let results =
            run_campaign::<Chaos>(&specs, &CampaignOptions::with_threads(2)).expect("no journal");
        assert_eq!(results.runs().len(), 4);
        assert!(results
            .runs()
            .all(|(_, status, report, _)| *status == CellStatus::Ok && report.is_some()));
        assert!(results.poisoned().is_empty());
        assert_eq!(results.journal_skips(), 0);
        let harness = results.harness();
        assert_eq!((harness.cells, harness.ok, harness.poisoned), (4, 4, 0));
        let aggs = results.aggregates();
        assert_eq!(aggs.len(), 2);
        assert_eq!(aggs[0].policy, "NATIVE");
        assert_eq!(aggs[1].policy, "SIMTY");
        assert_eq!(aggs[0].runs, 2);
        assert_eq!(results.total_violations(), 0);
        let doc = results.to_json();
        assert!(doc.starts_with("{\"schema\":\"simty-bench-chaos/v1\",\"journal_skips\":0"));
        let json = crate::deterministic_view(&doc).unwrap().to_string();
        assert!(json.starts_with("{\"schema\":\"simty-bench-chaos/v1\",\"runs\":4"));
        assert!(json.contains("\"profile\":\"overruns\""));
        assert!(json.contains("\"status\":\"ok\""));
        assert!(json.contains("\"harness\":{\"cells\":4"));
        assert!(json.contains("\"policies\":["));
        assert!(
            !json.contains("wall"),
            "chaos documents must be deterministic"
        );
        assert!(
            !json.contains("journal_skips"),
            "per-invocation counters must stay out of the deterministic body"
        );
    }

    #[test]
    fn journaled_counters_that_overflow_together_saturate() {
        let scratch =
            std::env::temp_dir().join(format!("simty-chaos-forged-{}", std::process::id()));
        std::fs::remove_dir_all(&scratch).ok();
        let specs = matrix(
            &[PolicyKind::Native],
            &[Scenario::Light],
            &[FaultProfile::Baseline],
            2,
            SimDuration::from_mins(10),
        );
        let options = CampaignOptions {
            threads: 1,
            journal_dir: Some(scratch.clone()),
            ..CampaignOptions::default()
        };
        run_campaign::<Chaos>(&specs, &options).unwrap();
        crate::journal::forge_records(&scratch, |entry| {
            entry.report.resilience.invariant_violations = 1 << 63;
            entry.report.resilience.perceptible_window_misses = 1 << 63;
        });
        let resumed = run_campaign::<Chaos>(&specs, &options).unwrap();
        std::fs::remove_dir_all(&scratch).ok();
        assert_eq!(resumed.journal_skips(), 2);
        assert_eq!(resumed.total_violations(), u64::MAX);
        assert_eq!(resumed.total_misses(), u64::MAX);
        let aggregate = &resumed.aggregates()[0];
        assert_eq!(aggregate.invariant_violations, u64::MAX);
        assert_eq!(aggregate.perceptible_window_misses, u64::MAX);
    }
}
