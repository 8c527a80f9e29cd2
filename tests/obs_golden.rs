//! Byte-identity goldens for every observability export.
//!
//! Each run below is digested export by export with
//! [`fnv1a64`](simty::sim::codec::fnv1a64): the report JSON, the span
//! JSONL, the audit JSONL, the metrics exposition, and the end-of-run
//! checkpoint bytes. The constants were taken from the code before the
//! observability layer was made allocation-free, so they pin that a
//! cheaper instrumentation path still writes the same bytes. The
//! checkpoint digests were re-pinned when the envelope moved to
//! `simty-checkpoint/v2`, whose bodies were checked equal to the v1
//! captures' byte for byte. NATIVE's span, audit and checkpoint digests
//! were re-pinned when NATIVE moved onto the shared placement search and
//! began auditing its candidates: the `policy_place` span's `candidates`
//! count, the audit rows and the persisted audits now hold them, while
//! its report and exposition digests stayed put. Two sets of runs cover
//! both ring regimes:
//!
//! * SIMTY and NATIVE heavy 3 h runs, seed 1, default ring capacities
//!   (the audit ring never fills);
//! * fleet devices `[0, 64)` under both policies with the fleet ring
//!   capacities (both rings evict).
//!
//! Checkpoints carry raw alarm ids, which come from a process-global
//! counter, so the whole file is one test: its runs build their alarms
//! in a fixed order in a process of their own.

use simty::apps::{DeviceMix, ScenarioCatalog, WorkloadBuilder};
use simty::core::{SimDuration, SimTime};
use simty::experiments::PolicyKind;
use simty::sim::codec::fnv1a64;
use simty::sim::json::report_to_json;
use simty::sim::{SimConfig, Simulation};
use simty_bench::fleet::{run_device, FleetConfig, FLEET_AUDIT_CAPACITY, FLEET_SPAN_CAPACITY};

/// The digested exports, in [`Exports::digests`] order.
const EXPORTS: [&str; 5] = ["report", "spans", "audits", "exposition", "checkpoint"];

/// Heavy 3 h runs, seed 1, default capacities.
const HEAVY: [(PolicyKind, [u64; 5]); 2] = [
    (
        PolicyKind::Simty,
        [
            0xbc25b1f80ffc1cfa,
            0x749718506ef83898,
            0x9422db4089dd95ab,
            0x706d9d7e7ac886f6,
            0x3e45157c91bcd01a,
        ],
    ),
    (
        PolicyKind::Native,
        [
            0x5fef73886f13f4b0,
            0x8cc19501486381e7,
            0x38119df80dc55dba,
            0xd3b9ec293e78a06e,
            0x3d6f3e6fd71479ec,
        ],
    ),
];

/// Fleet devices `[0, FLEET_DEVICES)`, each device's exports
/// concatenated in index order.
const FLEET: [(PolicyKind, [u64; 5]); 2] = [
    (
        PolicyKind::Simty,
        [
            0x53089a974abf6541,
            0x21a2409b99fe12c0,
            0xa8d86ea75616e831,
            0xe56d5f56055f54f2,
            0x82c2dd75edbcfb3e,
        ],
    ),
    (
        PolicyKind::Native,
        [
            0x858629e2de336cde,
            0x1f8ce209537c012e,
            0xe131a1d4fe6b2ab9,
            0xd254eddfa08a201d,
            0x005e9cd1d6fb8cfd,
        ],
    ),
];

const FLEET_DEVICES: u64 = 64;

/// The exports of one or more finished runs, concatenated.
#[derive(Default)]
struct Exports {
    report: Vec<u8>,
    spans: Vec<u8>,
    audits: Vec<u8>,
    exposition: Vec<u8>,
    checkpoint: Vec<u8>,
    span_evictions: u64,
    audit_evictions: u64,
}

impl Exports {
    fn add(&mut self, sim: &Simulation) {
        let obs = sim.obs();
        self.report
            .extend_from_slice(report_to_json(&sim.report()).as_bytes());
        self.spans.extend_from_slice(obs.spans_jsonl().as_bytes());
        self.audits.extend_from_slice(obs.audits_jsonl().as_bytes());
        self.exposition
            .extend_from_slice(obs.metrics_exposition().as_bytes());
        self.checkpoint
            .extend_from_slice(&sim.checkpoint().to_bytes());
        self.span_evictions += obs.spans().dropped();
        self.audit_evictions += obs.audit_dropped();
    }

    fn digests(&self) -> [u64; 5] {
        [
            fnv1a64(&self.report),
            fnv1a64(&self.spans),
            fnv1a64(&self.audits),
            fnv1a64(&self.exposition),
            fnv1a64(&self.checkpoint),
        ]
    }
}

fn heavy_run(policy: PolicyKind) -> Simulation {
    let duration = SimDuration::from_hours(3);
    let workload = WorkloadBuilder::heavy()
        .with_seed(1)
        .with_beta(0.96)
        .with_duration(duration)
        .build();
    let mut sim = Simulation::new(policy.build(), SimConfig::new().with_duration(duration));
    for alarm in workload.alarms {
        sim.register(alarm)
            .expect("workload alarm registers cleanly");
    }
    sim.run_until(SimTime::ZERO + duration);
    sim
}

/// Device `device` of the fleet, built and run exactly as
/// `fleet::run_device` does, but kept so its exports can be read.
fn fleet_run(config: &FleetConfig, policy: PolicyKind, device: u64) -> Simulation {
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
    let mut sim = Simulation::new(policy.build(), sim_config);
    for alarm in workload.alarms {
        sim.register(alarm)
            .expect("workload alarm registers cleanly");
    }
    sim.run_until(SimTime::ZERO + config.duration);
    sim
}

/// Compares every digest and names each export that moved, printing the
/// digests seen so a deliberate change can update the constants.
fn check(set: &str, policy: PolicyKind, want: [u64; 5], got: [u64; 5]) -> Vec<String> {
    let moved: Vec<String> = EXPORTS
        .iter()
        .zip(want.iter().zip(&got))
        .filter(|(_, (w, g))| w != g)
        .map(|(name, _)| format!("{set}/{}/{name}", policy.name()))
        .collect();
    if !moved.is_empty() {
        let hex: Vec<String> = got.iter().map(|d| format!("0x{d:016x}")).collect();
        eprintln!("{set} {}: [{}]", policy.name(), hex.join(", "));
    }
    moved
}

#[test]
fn every_observability_export_matches_its_golden_digest() {
    let mut moved = Vec::new();
    for (policy, want) in HEAVY {
        let mut exports = Exports::default();
        exports.add(&heavy_run(policy));
        assert_eq!(
            exports.audit_evictions, 0,
            "the heavy runs must fit the audit ring"
        );
        moved.extend(check("heavy", policy, want, exports.digests()));
    }

    let config = FleetConfig::new(FLEET_DEVICES);
    assert_eq!(
        (config.span_capacity, config.audit_capacity),
        (FLEET_SPAN_CAPACITY, FLEET_AUDIT_CAPACITY)
    );
    for (policy, want) in FLEET {
        let mut exports = Exports::default();
        for device in 0..FLEET_DEVICES {
            let sim = fleet_run(&config, policy, device);
            // The kept run is the fleet's run: same report, same evictions.
            let fleet = run_device(&config, policy, device);
            assert_eq!(report_to_json(&sim.report()), report_to_json(&fleet.report));
            assert_eq!(sim.obs().spans().dropped(), fleet.span_evictions);
            assert_eq!(sim.obs().audit_dropped(), fleet.audit_evictions);
            exports.add(&sim);
        }
        assert!(
            exports.span_evictions > 0 && exports.audit_evictions > 0,
            "the fleet rings must evict"
        );
        moved.extend(check("fleet", policy, want, exports.digests()));
    }
    assert!(moved.is_empty(), "exports changed: {moved:?}");
}
