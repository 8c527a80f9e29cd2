//! Criterion benchmarks of the `simty-checkpoint/v2` codec on a heavy
//! snapshot: a SIMTY heavy run paused at 2.5 h, whose span ring is full
//! and whose body carries about a thousand deliveries and audits.
//! `encode` and `decode` are the envelope (the body's checksum, a copy
//! of the body and, for decode, its UTF-8 check); `checksum` is the v2
//! body checksum alone and `checksum_fnv1a64` the v1 one it replaced;
//! `restore` rebuilds the simulation from the decoded body. Beside them,
//! `full_run_3h` runs the snapshot's workload straight from t = 0 to its
//! 3 h end at the full observability level (`Simulation::new`, every
//! registration and `run`), and `resume` restores the snapshot and runs
//! it to the same end, so restore's cost reads against re-running the
//! simulation from one `cargo bench -p simty-bench --bench checkpoint`.
use criterion::{black_box, criterion_group, criterion_main, Criterion};

use simty::prelude::*;
use simty::sim::codec::{fnv1a64, wordsum64};

const DURATION: SimDuration = SimDuration::from_hours(3);

/// The heavy workload's alarms, and a fresh simulation of them at t = 0.
fn heavy_run() -> (Vec<Alarm>, impl Fn(&[Alarm]) -> Simulation) {
    let workload = WorkloadBuilder::heavy()
        .with_seed(1)
        .with_beta(0.96)
        .with_duration(DURATION)
        .build();
    let start = |alarms: &[Alarm]| {
        let mut sim = Simulation::new(
            Box::new(SimtyPolicy::new()),
            SimConfig::new().with_duration(DURATION),
        );
        for alarm in alarms.iter().cloned() {
            sim.register(alarm).expect("registers");
        }
        sim
    };
    (workload.alarms, start)
}

fn bench_checkpoint(c: &mut Criterion) {
    let (alarms, start) = heavy_run();
    let snapshot = {
        let mut sim = start(&alarms);
        sim.run_until(SimTime::ZERO + SimDuration::from_mins(150));
        sim.checkpoint()
    };
    let bytes = snapshot.to_bytes();
    let mut group = c.benchmark_group("checkpoint_heavy_snapshot");
    group.bench_function("encode", |b| b.iter(|| black_box(&snapshot).to_bytes()));
    group.bench_function("decode", |b| {
        b.iter(|| Checkpoint::from_bytes(black_box(&bytes)).expect("decodes"))
    });
    let body = bytes
        .splitn(4, |&b| b == b'\n')
        .nth(3)
        .expect("a three-line envelope");
    group.bench_function("checksum", |b| b.iter(|| wordsum64(black_box(body))));
    group.bench_function("checksum_fnv1a64", |b| b.iter(|| fnv1a64(black_box(body))));
    group.bench_function("restore", |b| {
        b.iter(|| {
            Simulation::restore(Box::new(SimtyPolicy::new()), black_box(&snapshot))
                .expect("restores")
        })
    });
    group.bench_function("full_run_3h", |b| {
        b.iter(|| start(black_box(&alarms)).run())
    });
    group.bench_function("resume", |b| {
        b.iter(|| {
            Simulation::restore(Box::new(SimtyPolicy::new()), black_box(&snapshot))
                .expect("restores")
                .run()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_checkpoint);
criterion_main!(benches);
