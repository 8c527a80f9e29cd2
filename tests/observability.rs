//! The observability layer end to end: the decision-audit log is
//! complete, the deterministic exports (span JSONL, metrics snapshot,
//! exposition, audit JSONL) are byte-identical across worker threads and
//! across a mid-run checkpoint resume, and the metrics registry agrees
//! with the run report.

use simty::prelude::*;

fn heavy_sim(audit_capacity: usize) -> Simulation {
    let duration = SimDuration::from_hours(2);
    let workload = WorkloadBuilder::heavy()
        .with_seed(1)
        .with_beta(0.96)
        .with_duration(duration)
        .build();
    let mut sim = Simulation::new(
        Box::new(SimtyPolicy::new()),
        SimConfig::new()
            .with_duration(duration)
            .with_audit_capacity(audit_capacity),
    );
    for alarm in workload.alarms {
        sim.register(alarm)
            .expect("workload alarm registers cleanly");
    }
    sim
}

/// Every deterministic export of a finished run, concatenated.
fn obs_fingerprint(sim: &Simulation) -> String {
    let obs = sim.obs();
    format!(
        "{}\n---\n{}\n---\n{}\n---\n{}",
        obs.spans_jsonl(),
        obs.metrics_exposition(),
        obs.metrics_json(),
        obs.audits_jsonl(),
    )
}

/// Every SIMTY wakeup delivery traces back to exactly one placement
/// decision — identified by the alarm occurrence `(alarm_id, nominal)`.
#[test]
fn every_simty_delivery_has_exactly_one_placement_decision() {
    let mut sim = heavy_sim(1 << 20);
    sim.run();
    assert_eq!(sim.obs().audit_dropped(), 0, "ring must hold the full run");
    let audits: Vec<_> = sim.obs().audits().cloned().collect();
    assert!(!audits.is_empty());
    let mut checked = 0;
    for rec in sim.trace().deliveries() {
        if rec.kind != AlarmKind::Wakeup {
            continue; // non-wakeup alarms piggyback without a placement
        }
        let matching = audits
            .iter()
            .filter(|a| a.alarm_id == rec.alarm_id && a.nominal == rec.nominal)
            .count();
        assert_eq!(
            matching,
            1,
            "delivery of alarm #{} (nominal {}) has {matching} audits",
            rec.alarm_id.as_u64(),
            rec.nominal
        );
        checked += 1;
    }
    assert!(checked > 100, "expected a substantial run, got {checked}");
    // The heavy scenario exercises hardware similarity: some decision
    // must have ranked candidates with a Table 1 preferability.
    assert!(
        audits.iter().any(|a| a
            .candidates
            .iter()
            .any(|c| c.hw_rank.is_some() && c.preferability.is_some())),
        "no candidate carried Table 1 ranks"
    );
}

/// The same grid cell executed on different worker threads yields
/// byte-identical observability exports — nothing in the layer depends
/// on wall time or scheduling.
#[test]
fn exports_are_byte_identical_across_threads() {
    let run = || {
        let mut sim = heavy_sim(1 << 20);
        sim.run();
        obs_fingerprint(&sim)
    };
    let sequential = run();
    let handles: Vec<_> = (0..2).map(|_| std::thread::spawn(run)).collect();
    for handle in handles {
        let parallel = handle.join().expect("worker finished");
        assert_eq!(sequential, parallel);
    }
}

/// Resuming from any mid-run checkpoint reproduces the straight-through
/// run's spans, metrics, and audit log byte for byte.
#[test]
fn exports_are_byte_identical_across_checkpoint_resume() {
    let build = || {
        let duration = SimDuration::from_hours(2);
        let workload = WorkloadBuilder::heavy()
            .with_seed(3)
            .with_duration(duration)
            .build();
        let mut sim = Simulation::new(
            Box::new(SimtyPolicy::new()),
            SimConfig::new()
                .with_duration(duration)
                .with_checkpoints(SimDuration::from_mins(20))
                .with_audit_capacity(1 << 20)
                .with_invariants(),
        );
        for alarm in workload.alarms {
            sim.register(alarm)
                .expect("workload alarm registers cleanly");
        }
        sim
    };
    let mut straight = build();
    straight.run();
    let expected = obs_fingerprint(&straight);
    let checkpoints = straight.checkpoints();
    assert!(
        checkpoints.len() >= 4,
        "got {} checkpoints",
        checkpoints.len()
    );
    for (i, ckpt) in checkpoints.iter().enumerate() {
        let mut resumed = Simulation::restore(Box::new(SimtyPolicy::new()), ckpt).expect("restore");
        resumed.run();
        assert_eq!(
            obs_fingerprint(&resumed),
            expected,
            "exports diverged from checkpoint {i}"
        );
    }
}

/// Renders the Chrome trace of a finished run — the library-level
/// analogue of `standby trace --out` (sim-clock spans only; the
/// wall-clock stage tracks are opt-in and excluded here on purpose).
fn trace_of(sim: &Simulation) -> String {
    let mut trace = simty::obs::TraceBuilder::new("standby");
    trace.add_track(0, "SIMTY");
    trace.add_spans(0, sim.obs().spans().iter());
    trace.finish()
}

/// Golden shape of the Chrome trace export: well-formed envelope, the
/// two metadata records first, and every span on the sim clock. A
/// failure means the trace format changed — update Perfetto/chrome://
/// tracing consumers (and EXPERIMENTS.md) deliberately.
#[test]
fn chrome_trace_export_matches_the_golden_shape() {
    let mut sim = heavy_sim(1 << 20);
    sim.run();
    let trace = trace_of(&sim);
    assert!(trace.starts_with(
        "{\"traceEvents\":[\
         {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\
         \"args\":{\"name\":\"standby\"}},\
         {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
         \"args\":{\"name\":\"SIMTY\"}},"
    ));
    assert!(trace.ends_with("],\"displayTimeUnit\":\"ms\"}"));
    // Complete events and zero-duration instants both appear, with
    // microsecond timestamps derived from the sim clock.
    assert!(trace.contains("\"ph\":\"X\""));
    assert!(trace.contains("\"cat\":\"sim\""));
    let events = trace.matches("\"ph\":").count();
    assert_eq!(events, sim.obs().spans().len() + 2, "one event per span");
}

/// The trace export is a pure function of the deterministic span ring:
/// byte-identical whether the run executed on this thread or any of
/// three workers.
#[test]
fn chrome_trace_is_byte_identical_across_threads() {
    let run = || {
        let mut sim = heavy_sim(1 << 20);
        sim.run();
        trace_of(&sim)
    };
    let sequential = run();
    let handles: Vec<_> = (0..3).map(|_| std::thread::spawn(run)).collect();
    for handle in handles {
        assert_eq!(
            handle.join().expect("worker finished"),
            sequential,
            "trace diverged across threads"
        );
    }
}

/// Resuming from any mid-run checkpoint reproduces the straight-through
/// run's Chrome trace byte for byte (the span ring is checkpointed
/// state, and the export adds no wall-clock data).
#[test]
fn chrome_trace_is_byte_identical_across_checkpoint_resume() {
    let build = || {
        let duration = SimDuration::from_hours(2);
        let workload = WorkloadBuilder::heavy()
            .with_seed(3)
            .with_duration(duration)
            .build();
        let mut sim = Simulation::new(
            Box::new(SimtyPolicy::new()),
            SimConfig::new()
                .with_duration(duration)
                .with_checkpoints(SimDuration::from_mins(20))
                .with_audit_capacity(1 << 20),
        );
        for alarm in workload.alarms {
            sim.register(alarm)
                .expect("workload alarm registers cleanly");
        }
        sim
    };
    let mut straight = build();
    straight.run();
    let expected = trace_of(&straight);
    let checkpoints = straight.checkpoints();
    assert!(
        checkpoints.len() >= 4,
        "got {} checkpoints",
        checkpoints.len()
    );
    for (i, ckpt) in checkpoints.iter().enumerate() {
        let mut resumed = Simulation::restore(Box::new(SimtyPolicy::new()), ckpt).expect("restore");
        resumed.run();
        assert_eq!(
            trace_of(&resumed),
            expected,
            "trace diverged from checkpoint {i}"
        );
    }
}

/// The metrics registry and the run report are two views of one run:
/// the headline counters must agree exactly.
#[test]
fn metrics_registry_agrees_with_the_report() {
    let mut sim = heavy_sim(1 << 20);
    let report = sim.run();
    let m = sim.obs().metrics();
    assert_eq!(
        m.counter("sim_wakeups_total{policy=\"SIMTY\"}"),
        report.cpu_wakeups
    );
    assert_eq!(
        m.counter("sim_entry_deliveries_total"),
        report.entry_deliveries
    );
    assert_eq!(
        m.counter("sim_alarm_deliveries_total"),
        report.total_deliveries
    );
    let placements = m.counter("sim_placements_total{placement=\"existing\"}")
        + m.counter("sim_placements_total{placement=\"new_entry\"}");
    assert_eq!(placements as usize, sim.obs().audits().count());
    // The entry-size histogram saw every batch delivery.
    let h = m.histogram("sim_entry_size").expect("registered");
    assert_eq!(h.count(), report.entry_deliveries);
    // The report embeds the same snapshot the registry renders.
    assert_eq!(report.metrics_json, m.to_json());
}
