//! Overload campaign: registration storms against admission control and
//! battery-aware degradation.
//!
//! The chaos campaign ([`crate::chaos`]) attacks the *device* and the
//! soak campaign ([`crate::soak`]) attacks *time*; this module attacks
//! the *front door*: seeded registration storms flood the alarm manager
//! while the battery drains through the degradation tiers. Every cell
//! runs under the invariant monitor — the perceptible-window guarantee
//! must hold in every tier, protected or not — and re-runs from its
//! final mid-run snapshot to prove admission and governor state resume
//! byte-identically. Results serialize to the `simty-bench-storm/v1`
//! document (`BENCH_storm.json`).

use simty::core::admission::AdmissionConfig;
use simty::core::{SimDuration, SimTime};
use simty::sim::codec::record;
use simty::sim::{
    GovernorConfig, RegistrationStormPlan, SimConfig, SimReport, Simulation, StormBurst,
};

use crate::campaign::{
    self, profiles, sum, Campaign, CampaignOptions, CampaignResults, CampaignSpec, Drill,
};
use crate::json::{json_object, json_pairs};

/// A named overload adversary: what floods the manager and how far the
/// battery falls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StormProfile {
    /// Storms against a healthy battery: the admission quota is the only
    /// defence (no degradation tiers are reached).
    QuotaStorm,
    /// Battery sized to end the run inside the saver band; the governor
    /// widens imperceptible grace mid-run.
    DrainSaver,
    /// Battery sized to traverse saver into critical; deferrable
    /// registrations are shed near the end.
    DrainCritical,
    /// A doubled storm against the critical-bound battery: quota,
    /// demotion, stretch, and shedding all fire in one cell.
    StormAndDrain,
    /// The control cell: the same storm with no admission control and no
    /// governor. The invariant monitor still must report zero
    /// perceptible-window misses.
    Unprotected,
}

profiles!(StormProfile, "storm" {
    QuotaStorm = "quota-storm",
    DrainSaver = "drain-saver",
    DrainCritical = "drain-critical",
    StormAndDrain = "storm-and-drain",
    Unprotected = "unprotected",
});

impl StormProfile {
    /// The admission quota the profile registers under.
    fn admission(self) -> Option<AdmissionConfig> {
        match self {
            StormProfile::Unprotected => None,
            _ => Some(AdmissionConfig::default()),
        }
    }

    /// Battery capacity as a multiple of the cell's measured draw
    /// (`None` = no governor). 1.6x leaves the run ending in the saver
    /// band; 1.05x pushes it through to critical.
    fn capacity_factor(self) -> Option<f64> {
        match self {
            StormProfile::QuotaStorm | StormProfile::Unprotected => None,
            StormProfile::DrainSaver => Some(1.6),
            StormProfile::DrainCritical | StormProfile::StormAndDrain => Some(1.05),
        }
    }

    /// How many seeded burst pairs the profile's storm plan carries.
    fn storm_scale(self) -> u64 {
        match self {
            StormProfile::StormAndDrain => 2,
            _ => 1,
        }
    }
}

/// What the resume drill observed for one cell, alongside its
/// straight-through report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StormRecovery {
    /// Snapshots captured during the straight-through run.
    pub checkpoints: u64,
    /// The run resumed from its final snapshot matched the
    /// straight-through run byte-for-byte (trace CSV and report JSON).
    pub resumed_identical: bool,
    /// The drill restored successfully.
    pub restore_ok: bool,
}

record!(StormRecovery in ':': checkpoints, resumed_identical, restore_ok);

impl Drill for StormRecovery {
    fn cell_fields(rec: Option<&StormRecovery>) -> Vec<(&'static str, String)> {
        json_pairs!(rec; checkpoints, restore_ok, resumed_identical)
    }

    fn recovered(&self) -> bool {
        self.restore_ok && self.resumed_identical
    }
}

/// The storm campaign: every cell endures a [`StormProfile`], then
/// proves it resumes from its final snapshot.
#[derive(Debug, Clone, Copy)]
pub enum Storm {}

/// One storm cell.
pub type StormSpec = CampaignSpec<StormProfile>;

/// A finished storm campaign.
pub type StormResults = CampaignResults<Storm>;

/// The cell's seeded storm plan: most bursts land in the first two
/// thirds of the horizon and are mostly imperceptible (perceptible
/// bursts keep the invariant monitor honest in degraded tiers); the
/// final burst lands at 85–90 % so drain profiles register into the
/// critical tier and exercise the shedder.
fn plan(spec: &StormSpec) -> RegistrationStormPlan {
    let mut state = spec
        .seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(0xd1b5_4a32_d192_ed03);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let span = spec.duration.as_millis();
    let bursts = 2 * spec.profile.storm_scale();
    let mut plan = RegistrationStormPlan::new();
    for b in 0..bursts {
        let start_ms = if b + 1 == bursts {
            span * 17 / 20 + next() % (span / 20).max(1)
        } else {
            span / 10 + next() % (span / 2).max(1)
        };
        plan = plan.burst(StormBurst {
            app: format!("storm{b}"),
            start: SimTime::ZERO + SimDuration::from_millis(start_ms),
            count: (20 + next() % 40) as u32,
            every: SimDuration::from_millis(500 + next() % 4_500),
            period: SimDuration::from_secs(60 + next() % 540),
            perceptible: next() % 4 == 0,
            task: SimDuration::from_millis(500 + next() % 1_500),
            window_milli: (next() % 250) as u32,
            grace_milli: (250 + next() % 700) as u32,
        });
    }
    plan
}

/// The cell's simulation under the profile's admission quota and, given
/// a battery `capacity_mj`, its degradation governor. The catalogue apps
/// register under distinct labels, far below any per-app burst; only
/// storm apps face pushback.
fn storm_sim(spec: &StormSpec, capacity_mj: Option<f64>) -> Simulation {
    let mut config = SimConfig::new()
        .with_duration(spec.duration)
        .with_checkpoints(SimDuration::from_millis(
            (spec.duration.as_millis() / 8).max(1),
        ))
        .with_invariants();
    if let Some(quota) = spec.profile.admission() {
        config = config.with_admission(quota);
    }
    if let Some(capacity_mj) = capacity_mj {
        config = config.with_degradation(GovernorConfig {
            capacity_mj,
            check_every: SimDuration::from_millis((spec.duration.as_millis() / 180).max(30_000)),
            ..GovernorConfig::default()
        });
    }
    let mut sim = spec.simulation(config);
    sim.inject_storm(&plan(spec));
    sim
}

impl Campaign for Storm {
    type Cell = StormSpec;
    type Drill = StormRecovery;
    type Aggregate = PolicyOverload;

    const KIND: &'static str = "storm";

    /// Executes the cell: an ungoverned probe sizes the battery for
    /// drain profiles, the straight-through run produces the report, and
    /// the resume drill restores from the final mid-run snapshot and
    /// compares bytes.
    fn run_cell(spec: &StormSpec, _options: &CampaignOptions) -> (SimReport, StormRecovery) {
        let capacity = spec.profile.capacity_factor().map(|factor| {
            let mut probe = storm_sim(spec, None);
            probe.run().energy.total_mj() * factor
        });
        let mut straight = storm_sim(spec, capacity);
        let report = straight.run();
        let expected = campaign::fingerprint(&straight);
        let mut recovery = StormRecovery {
            checkpoints: straight.checkpoints().len() as u64,
            ..StormRecovery::default()
        };
        if let Some(snapshot) = straight.checkpoints().last() {
            if let Ok(identical) = campaign::resumes_identically(spec.policy, snapshot, &expected) {
                recovery.restore_ok = true;
                recovery.resumed_identical = identical;
            }
        }
        (report, recovery)
    }

    fn aggregate(policy: String, cells: &[(&SimReport, StormRecovery)]) -> PolicyOverload {
        PolicyOverload {
            policy,
            runs: cells.len() as u64,
            storm_registrations: sum(cells, |(r, _)| r.overload.storm_registrations),
            admitted: sum(cells, |(r, _)| r.overload.admitted),
            deferred: sum(cells, |(r, _)| r.overload.deferred),
            rejected: sum(cells, |(r, _)| r.overload.rejected),
            shed: sum(cells, |(r, _)| r.overload.shed),
            demotions: sum(cells, |(r, _)| r.overload.demotions),
            tier_changes: sum(cells, |(r, _)| r.overload.tier_changes),
            invariant_violations: sum(cells, |(r, _)| r.resilience.invariant_violations),
            perceptible_window_misses: sum(cells, |(r, _)| r.resilience.perceptible_window_misses),
            all_resumed_identical: cells.iter().all(|(_, rec)| rec.resumed_identical),
            all_restores_ok: cells.iter().all(|(_, rec)| rec.restore_ok),
        }
    }

    fn aggregate_json(agg: &PolicyOverload) -> String {
        json_object(&json_pairs!(Some(agg);
            policy, runs, storm_registrations, admitted, deferred, rejected, shed, demotions,
            tier_changes, invariant_violations, perceptible_window_misses, all_resumed_identical,
            all_restores_ok))
    }
}

/// Per-policy overload aggregate across every cell the policy endured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyOverload {
    /// The policy's display name.
    pub policy: String,
    /// How many cells it ran.
    pub runs: u64,
    /// Storm registrations fired at the front door, summed.
    pub storm_registrations: u64,
    /// Registrations the quota admitted outright.
    pub admitted: u64,
    /// Registrations admitted late with a pushed-back nominal.
    pub deferred: u64,
    /// Registrations rejected with a typed retry-after error.
    pub rejected: u64,
    /// Registrations shed by the critical tier.
    pub shed: u64,
    /// Apps demoted into quarantine for sustained storming.
    pub demotions: u64,
    /// Degradation tier transitions across all cells.
    pub tier_changes: u64,
    /// Total invariant violations (must be zero).
    pub invariant_violations: u64,
    /// Total perceptible-window misses (the headline: must be zero, in
    /// every tier, protected or not).
    pub perceptible_window_misses: u64,
    /// Every cell's resumed run was byte-identical.
    pub all_resumed_identical: bool,
    /// Every cell's resume drill restored successfully.
    pub all_restores_ok: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{matrix, run_campaign, Profile};
    use crate::supervisor::CellStatus;
    use simty::experiments::{PolicyKind, Scenario};
    use simty::sim::codec;

    fn tiny(profile: StormProfile, policy: PolicyKind) -> StormSpec {
        StormSpec {
            policy,
            scenario: Scenario::Light,
            profile,
            seed: 1,
            duration: SimDuration::from_hours(1),
        }
    }

    fn run_storm(specs: &[StormSpec], threads: usize) -> StormResults {
        run_campaign::<Storm>(specs, &CampaignOptions::with_threads(threads)).expect("no journal")
    }

    #[test]
    fn profile_names_round_trip() {
        for &p in StormProfile::ALL {
            assert_eq!(StormProfile::parse(p.name()), Some(p));
        }
        assert_eq!(StormProfile::parse("bogus"), None);
    }

    #[test]
    fn matrix_is_policy_major() {
        let specs = matrix(
            &[PolicyKind::Native, PolicyKind::Simty],
            &[Scenario::Light],
            StormProfile::ALL,
            2,
            SimDuration::from_hours(1),
        );
        assert_eq!(specs.len(), 2 * 5 * 2);
        assert_eq!(specs[0].policy, PolicyKind::Native);
        assert_eq!(specs[0].seed, 1);
        assert_eq!(specs[1].seed, 2);
        assert_eq!(specs.last().unwrap().policy, PolicyKind::Simty);
    }

    #[test]
    fn quota_storm_rejects_and_holds_invariants() {
        let (report, rec) = Storm::run_cell(
            &tiny(StormProfile::QuotaStorm, PolicyKind::Simty),
            &CampaignOptions::default(),
        );
        let ov = &report.overload;
        assert!(ov.storm_registrations > 0);
        assert!(ov.rejected > 0, "quota never pushed back: {ov:?}");
        assert!(ov.demotions > 0, "storm app never demoted: {ov:?}");
        assert_eq!(report.resilience.perceptible_window_misses, 0);
        assert_eq!(report.resilience.invariant_violations, 0);
        assert!(rec.restore_ok && rec.resumed_identical, "{rec:?}");
    }

    #[test]
    fn drain_profiles_traverse_their_tiers() {
        let (saver, _) = Storm::run_cell(
            &tiny(StormProfile::DrainSaver, PolicyKind::Simty),
            &CampaignOptions::default(),
        );
        assert_eq!(saver.overload.final_tier, "saver", "{:?}", saver.overload);
        assert!(saver.overload.time_in_saver_ms > 0);
        let (critical, rec) = Storm::run_cell(
            &tiny(StormProfile::DrainCritical, PolicyKind::Simty),
            &CampaignOptions::default(),
        );
        assert_eq!(
            critical.overload.final_tier, "critical",
            "{:?}",
            critical.overload
        );
        assert!(critical.overload.time_in_critical_ms > 0);
        assert_eq!(critical.resilience.perceptible_window_misses, 0);
        assert!(rec.restore_ok && rec.resumed_identical, "{rec:?}");
    }

    #[test]
    fn unprotected_cell_reports_no_pushback() {
        let (report, _) = Storm::run_cell(
            &tiny(StormProfile::Unprotected, PolicyKind::Native),
            &CampaignOptions::default(),
        );
        let ov = &report.overload;
        assert!(ov.storm_registrations > 0);
        assert_eq!(ov.rejected + ov.shed + ov.demotions, 0, "{ov:?}");
        // The guarantee holds even without the defences.
        assert_eq!(report.resilience.perceptible_window_misses, 0);
    }

    #[test]
    fn campaign_is_deterministic_across_thread_counts() {
        let specs = matrix(
            &[PolicyKind::Native, PolicyKind::Simty],
            &[Scenario::Light],
            &[StormProfile::QuotaStorm, StormProfile::StormAndDrain],
            1,
            SimDuration::from_hours(1),
        );
        let results = run_storm(&specs, 1);
        assert!(results
            .runs()
            .all(|(_, status, report, recovery)| *status == CellStatus::Ok
                && report.is_some()
                && recovery.is_some()));
        assert!(results.poisoned().is_empty());
        let harness = results.harness();
        assert_eq!((harness.cells, harness.ok, harness.poisoned), (4, 4, 0));
        let doc = results.to_json();
        let view = |doc: &str| crate::deterministic_view(doc).unwrap().to_string();
        let sequential = view(&doc);
        assert_eq!(sequential, view(&run_storm(&specs, 3).to_json()));
        assert!(sequential.contains("\"schema\":\"simty-bench-storm/v1\""));
        assert!(sequential.contains("\"storm_registrations\""));
        assert!(sequential.contains("\"status\":\"ok\""));
        assert!(sequential.contains("\"harness\":{\"cells\":4"));
        assert!(!sequential.contains("journal_skips"));
        assert!(doc.starts_with("{\"schema\":\"simty-bench-storm/v1\",\"journal_skips\":0"));
    }

    #[test]
    fn recovery_extra_round_trips() {
        let rec = StormRecovery {
            checkpoints: 7,
            resumed_identical: true,
            restore_ok: true,
        };
        assert_eq!(codec::encode(&rec), "7:1:1");
        assert_eq!(codec::decode::<StormRecovery>("7:1:1").ok(), Some(rec));
        for hostile in ["", "1:1", "x:1:1"] {
            assert!(
                codec::decode::<StormRecovery>(hostile).is_err(),
                "{hostile}"
            );
        }
    }
}
