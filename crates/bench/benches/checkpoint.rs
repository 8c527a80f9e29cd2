//! Criterion benchmarks of the `simty-checkpoint/v2` codec on a heavy
//! snapshot: a SIMTY heavy run paused at 2.5 h, whose span ring is full
//! and whose body carries about a thousand deliveries and audits.
//! `encode` and `decode` are the envelope (the body's checksum, a copy
//! of the body and, for decode, its UTF-8 check); `checksum` is the v2
//! body checksum alone and `checksum_fnv1a64` the v1 one it replaced;
//! `restore` rebuilds the simulation from the decoded body.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use simty::prelude::*;
use simty::sim::codec::{fnv1a64, wordsum64};

fn heavy_snapshot() -> Checkpoint {
    let duration = SimDuration::from_hours(3);
    let workload = WorkloadBuilder::heavy()
        .with_seed(1)
        .with_beta(0.96)
        .with_duration(duration)
        .build();
    let mut sim = Simulation::new(
        Box::new(SimtyPolicy::new()),
        SimConfig::new().with_duration(duration),
    );
    for alarm in workload.alarms {
        sim.register(alarm).expect("registers");
    }
    sim.run_until(SimTime::ZERO + SimDuration::from_mins(150));
    sim.checkpoint()
}

fn bench_checkpoint(c: &mut Criterion) {
    let snapshot = heavy_snapshot();
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
    group.finish();
}

criterion_group!(benches, bench_checkpoint);
criterion_main!(benches);
