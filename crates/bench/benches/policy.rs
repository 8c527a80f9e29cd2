//! Criterion micro-benchmarks of the alignment policies: the per-insert
//! cost of the search + selection phases as the queue grows. The paper
//! describes NATIVE's realignment as trading "slight computation
//! overhead" for fewer wakeups; this quantifies that overhead for every
//! policy.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use simty::prelude::*;

/// Builds a queue-shaped manager preloaded with `n` spread-out alarms.
fn preloaded_manager(policy: Box<dyn AlignmentPolicy>, n: usize) -> AlarmManager {
    let mut manager = AlarmManager::new(policy);
    for i in 0..n {
        let mut alarm = Alarm::builder(format!("bg{i}"))
            .nominal(SimTime::from_secs(60 + (i as u64 * 37) % 1_800))
            .repeating_static(SimDuration::from_secs(600))
            .window_fraction(0.5)
            .grace_fraction(0.9)
            .hardware(if i % 3 == 0 {
                HardwareComponent::Wps.into()
            } else {
                HardwareComponent::Wifi.into()
            })
            .build()
            .expect("valid alarm");
        alarm.mark_hardware_known();
        manager.register(alarm).expect("registers");
    }
    manager
}

fn candidate() -> Alarm {
    let mut alarm = Alarm::builder("candidate")
        .nominal(SimTime::from_secs(900))
        .repeating_static(SimDuration::from_secs(600))
        .window_fraction(0.5)
        .grace_fraction(0.9)
        .hardware(HardwareComponent::Wifi.into())
        .build()
        .expect("valid alarm");
    alarm.mark_hardware_known();
    alarm
}

fn bench_place(c: &mut Criterion) {
    let mut group = c.benchmark_group("policy_place");
    for n in [8usize, 64, 256] {
        for (name, policy) in [
            (
                "native",
                Box::new(NativePolicy::new()) as Box<dyn AlignmentPolicy>,
            ),
            ("simty", Box::new(SimtyPolicy::new())),
            ("dursim", Box::new(DurationSimilarityPolicy::new())),
        ] {
            let manager = preloaded_manager(policy, n);
            let queue = manager.wakeup_queue();
            let alarm = candidate();
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter(|| manager.policy().place(std::hint::black_box(queue), &alarm));
            });
        }
    }
    group.finish();
}

fn boxed_native() -> Box<dyn AlignmentPolicy> {
    Box::new(NativePolicy::new())
}

fn boxed_simty() -> Box<dyn AlignmentPolicy> {
    Box::new(SimtyPolicy::new())
}

fn bench_register(c: &mut Criterion) {
    let mut group = c.benchmark_group("manager_register");
    type PolicyCtor = fn() -> Box<dyn AlignmentPolicy>;
    let policies: [(&str, PolicyCtor); 2] = [("native", boxed_native), ("simty", boxed_simty)];
    for (name, make) in policies {
        group.bench_function(name, |b| {
            b.iter_batched(
                || (preloaded_manager(make(), 128), candidate()),
                |(mut manager, alarm)| manager.register(alarm).expect("registers"),
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_place, bench_register);
criterion_main!(benches);
