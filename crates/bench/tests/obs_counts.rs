//! Differential oracles: runs below the full observability level
//! against the same runs at the full level.
//!
//! `fleet::run_device` runs every device at `ObsLevel::Counts`, which
//! builds no span, audit or stage clock. Everything the fleet reads must
//! still equal a full-level run of the same device: the report JSON
//! bytes (its `metrics` block included) and both ring eviction counts.
//! The first oracle builds each device's workload itself and simulates
//! it at the default (full) level, over 2 000 `(fleet_seed, device)`
//! pairs under both NATIVE and SIMTY.
//!
//! `RunSpec::run` runs at `ObsLevel::Counts` too, and
//! `RunSpec::run_instrumented` at `ObsLevel::Timed`, which also reads
//! the stage clocks. The second oracle checks both against a full-level
//! run of each spec of a paper-shaped grid: the same report bytes, and
//! a timed stage profile with time in it and the full run's call count
//! in every stage. The spec run with no observability at all must leave
//! an empty profile and the full run's report but for its `metrics`.

use std::thread;

use simty::apps::{DeviceMix, ScenarioCatalog, WorkloadBuilder};
use simty::core::{HardwareComponent, HardwareGranularity, SimDuration};
use simty::device::PowerModel;
use simty::experiments::{PolicyKind, RunSpec, Scenario};
use simty::obs::{Stage, StageProfile};
use simty::sim::json::report_to_json;
use simty::sim::{ObsLevel, SimConfig, Simulation};
use simty_bench::fleet::{run_device, FleetConfig};
use simty_bench::JsonValue;

const FLEET_SEEDS: [u64; 8] = [1, 2, 3, 7, 42, 901, 0x5eed, u64::MAX];
const DEVICES_PER_SEED: u64 = 250;

/// What the fleet reads from one device run.
#[derive(Debug, PartialEq)]
struct Observed {
    report: String,
    span_evictions: u64,
    audit_evictions: u64,
}

/// Device `device` of `config`'s fleet, simulated at the full level.
fn full_level(config: &FleetConfig, policy: PolicyKind, device: u64) -> Observed {
    let seed = ScenarioCatalog::device_seed(config.seed, device);
    let builder = match config.catalog.sample(config.seed, device) {
        DeviceMix::Light => WorkloadBuilder::light(),
        DeviceMix::Heavy => WorkloadBuilder::heavy(),
        DeviceMix::Synthetic(n) => WorkloadBuilder::synthetic(n, seed),
    };
    let workload = builder
        .with_seed(seed)
        .with_beta(config.beta)
        .with_duration(config.duration)
        .build();
    let sim_config = SimConfig::new()
        .with_duration(config.duration)
        .with_span_capacity(config.span_capacity)
        .with_audit_capacity(config.audit_capacity);
    assert_eq!(sim_config.obs, ObsLevel::Full);
    let mut sim = Simulation::new(policy.build(), sim_config);
    for alarm in workload.alarms {
        sim.register(alarm)
            .expect("workload alarm registers cleanly");
    }
    let report = sim.run();
    Observed {
        report: report_to_json(&report),
        span_evictions: sim.obs().spans().dropped(),
        audit_evictions: sim.obs().audit_dropped(),
    }
}

/// Compares every device of one fleet seed; returns the mismatches and
/// the eviction totals seen.
fn compare_seed(fleet_seed: u64) -> (Vec<String>, u64, u64) {
    let mut config = FleetConfig::new(DEVICES_PER_SEED);
    config.seed = fleet_seed;
    let (mut mismatches, mut spans, mut audits) = (Vec::new(), 0, 0);
    for policy in [PolicyKind::Native, PolicyKind::Simty] {
        for device in 0..DEVICES_PER_SEED {
            let run = run_device(&config, policy, device);
            let counts = Observed {
                report: report_to_json(&run.report),
                span_evictions: run.span_evictions,
                audit_evictions: run.audit_evictions,
            };
            let full = full_level(&config, policy, device);
            if counts != full {
                mismatches.push(format!(
                    "seed {fleet_seed} {} device {device}: report equal {}, \
                     span evictions {} vs {}, audit evictions {} vs {}",
                    policy.name(),
                    counts.report == full.report,
                    counts.span_evictions,
                    full.span_evictions,
                    counts.audit_evictions,
                    full.audit_evictions
                ));
            }
            spans += full.span_evictions;
            audits += full.audit_evictions;
        }
    }
    (mismatches, spans, audits)
}

#[test]
fn counts_level_fleet_devices_match_full_level_runs() {
    // Two workers, each taking every other seed.
    let halves: Vec<_> = thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|w| {
                s.spawn(move || {
                    FLEET_SEEDS
                        .iter()
                        .skip(w)
                        .step_by(2)
                        .map(|&seed| compare_seed(seed))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let (mut mismatches, mut spans, mut audits) = (Vec::new(), 0, 0);
    for (m, s, a) in halves.into_iter().flatten() {
        mismatches.extend(m);
        spans += s;
        audits += a;
    }
    assert!(
        spans > 0 && audits > 0,
        "the oracle must exercise evictions from both rings"
    );
    assert!(
        mismatches.is_empty(),
        "{} of {} device runs differ, first: {:?}",
        mismatches.len(),
        2 * FLEET_SEEDS.len() as u64 * DEVICES_PER_SEED,
        mismatches.first()
    );
}

/// Every policy kind × both scenarios × 4 seeds × β ∈ {0.5, 0.96} over
/// 3 h, then a power-model override and a 1 h run.
fn paper_specs() -> Vec<RunSpec> {
    let policies = [
        PolicyKind::Exact,
        PolicyKind::Native,
        PolicyKind::NativeNoRealign,
        PolicyKind::Simty,
        PolicyKind::SimtyGranularity(HardwareGranularity::Four),
        PolicyKind::Dursim,
        PolicyKind::FixedInterval(300),
        PolicyKind::Doze,
    ];
    let mut specs = Vec::new();
    for policy in policies {
        for scenario in [Scenario::Light, Scenario::Heavy] {
            for seed in 1..=4 {
                for beta in [0.5, 0.96] {
                    specs.push(RunSpec::paper(policy, scenario, seed).with_beta(beta));
                }
            }
        }
    }
    let mut power = PowerModel::nexus5();
    power.wake_transition_energy_mj *= 2.0;
    let mut wifi = power.component(HardwareComponent::Wifi);
    wifi.active_power_mw *= 0.5;
    power.set_component(HardwareComponent::Wifi, wifi);
    specs.push(RunSpec::paper(PolicyKind::Simty, Scenario::Heavy, 5).with_power(power));
    specs.push(
        RunSpec::paper(PolicyKind::Native, Scenario::Light, 6)
            .with_duration(SimDuration::from_hours(1)),
    );
    specs
}

/// `spec` simulated at the full level, its configuration built here
/// rather than by `RunSpec`: the report JSON and the stage profile.
fn full_level_spec(spec: &RunSpec) -> (String, StageProfile) {
    let workload = spec
        .scenario
        .builder()
        .with_seed(spec.seed)
        .with_beta(spec.beta)
        .with_duration(spec.duration)
        .build();
    let mut config = SimConfig::new().with_duration(spec.duration);
    if let Some(power) = &spec.power {
        config = config.with_power(power.clone());
    }
    assert_eq!(config.obs, ObsLevel::Full);
    let mut sim = Simulation::new(spec.policy.build(), config);
    for alarm in workload.alarms {
        sim.register(alarm)
            .expect("workload alarm registers cleanly");
    }
    let report = sim.run();
    (report_to_json(&report), *sim.stage_profile())
}

/// What differs between `spec`'s counts-, timed- and off-level runs and
/// its full-level run, if anything.
/// A report's JSON without its `metrics` block: what an uninstrumented
/// run must still equal.
fn without_metrics(report: &str) -> JsonValue {
    let mut report = JsonValue::parse(report).expect("a report parses");
    if let JsonValue::Obj(members) = &mut report {
        members.retain(|(key, _)| key != "metrics");
    }
    report
}

fn compare_spec(spec: &RunSpec) -> Option<String> {
    let (full, full_stages) = full_level_spec(spec);
    let counts = report_to_json(&spec.run());
    let (timed, stages) = spec.run_instrumented();
    let timed = report_to_json(&timed);
    let (off_report, off) = spec.clone().with_no_obs().run_instrumented();
    let calls = |p: &StageProfile| Stage::ALL.map(|s| p.calls(s));
    let verdicts = [
        ("run() report", counts == full),
        ("run_instrumented() report", timed == full),
        ("timed profile has time", stages.total_nanos() > 0),
        ("stage calls", calls(&stages) == calls(&full_stages)),
        ("no-obs profile empty", off.is_empty()),
        (
            "no-obs report but its metrics",
            without_metrics(&report_to_json(&off_report)) == without_metrics(&full),
        ),
    ];
    let failed: Vec<_> = verdicts
        .iter()
        .filter(|(_, ok)| !ok)
        .map(|(what, _)| *what)
        .collect();
    (!failed.is_empty()).then(|| format!("{}: {failed:?}", spec.label()))
}

#[test]
fn paper_runs_at_counts_and_timed_levels_match_full_level_runs() {
    let specs = paper_specs();
    // Two workers, each taking every other spec.
    let mismatches: Vec<String> = thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|w| {
                let specs = &specs;
                s.spawn(move || {
                    specs
                        .iter()
                        .skip(w)
                        .step_by(2)
                        .filter_map(compare_spec)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    assert!(
        mismatches.is_empty(),
        "{} of {} specs differ, first: {:?}",
        mismatches.len(),
        specs.len(),
        mismatches.first()
    );
}
