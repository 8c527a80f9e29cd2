//! Differential oracle: fleet devices at the counts observability level
//! against the same devices at the full level.
//!
//! `fleet::run_device` runs every device at `ObsLevel::Counts`, which
//! builds no span, audit or stage clock. Everything the fleet reads must
//! still equal a full-level run of the same device: the report JSON
//! bytes (its `metrics` block included) and both ring eviction counts.
//! The oracle below builds each device's workload itself and simulates
//! it at the default (full) level, over 2 000 `(fleet_seed, device)`
//! pairs under both NATIVE and SIMTY.

use std::thread;

use simty::apps::{DeviceMix, ScenarioCatalog, WorkloadBuilder};
use simty::experiments::PolicyKind;
use simty::sim::json::report_to_json;
use simty::sim::{ObsLevel, SimConfig, Simulation};
use simty_bench::fleet::{run_device, FleetConfig};

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
