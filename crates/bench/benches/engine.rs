//! Criterion benchmarks of the end-to-end simulation engine: how fast a
//! full paper-scale experiment replays. This bounds the cost of the
//! sweeps in the `ablation` binary and of the property-based test suite.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use simty::prelude::*;

fn run_scenario(policy: Box<dyn AlignmentPolicy>, minutes: u64) -> SimReport {
    let workload = WorkloadBuilder::heavy().with_seed(1).build();
    let config = SimConfig::new().with_duration(SimDuration::from_mins(minutes));
    let mut sim = Simulation::new(policy, config);
    for alarm in workload.alarms {
        sim.register(alarm).expect("registers");
    }
    sim.run()
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_heavy_workload");
    group.sample_size(10);
    for minutes in [30u64, 180] {
        group.bench_with_input(BenchmarkId::new("native", minutes), &minutes, |b, &m| {
            b.iter(|| run_scenario(Box::new(NativePolicy::new()), m))
        });
        group.bench_with_input(BenchmarkId::new("simty", minutes), &minutes, |b, &m| {
            b.iter(|| run_scenario(Box::new(SimtyPolicy::new()), m))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
