//! Criterion micro-benchmarks of the hot paths every registration
//! exercises: `AlarmQueue::insert_entry` (binary-search insert into the
//! delivery-ordered queue), `add_to_entry` (joining an entry that then
//! moves), `position_of` on a fresh id, and the SIMTY search/selection
//! scan (`SimtyPolicy::place`), at queue depths 10 / 100 / 1 000 / 10 000.
//!
//! `insert_entry` should scale sublinearly in the queue depth (the
//! `partition_point` search is O(log n); the `Vec` shift dominates only
//! at the deepest sizes), and `place` should stay flat for candidates
//! whose window closes early thanks to the delivery-time early-exit.
//! The join and lookup cases run beside the pre-rotation queue
//! ([`oracle::ShiftingAlarmQueue`]) to show what rotation and the id
//! high-water mark save.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

use simty::core::entry::{DeliveryDiscipline, QueueEntry};
use simty::core::queue::{oracle::ShiftingAlarmQueue, AlarmQueue};
use simty::prelude::*;
use simty::sim::event::{oracle::HeapEventQueue, EventKind, EventQueue};

const DEPTHS: [usize; 4] = [10, 100, 1_000, 10_000];

/// A spread-out background alarm; nominal times stride so the queue
/// spans many non-overlapping windows.
fn bg_alarm(i: usize) -> Alarm {
    let mut alarm = Alarm::builder(format!("bg{i}"))
        .nominal(SimTime::from_secs(60 + i as u64 * 30))
        .repeating_static(SimDuration::from_secs(600_000))
        // Narrow explicit intervals: neighbouring entries don't overlap,
        // so a candidate's window only ever reaches a few entries.
        .window(SimDuration::from_secs(20))
        .grace(SimDuration::from_secs(40))
        .hardware(if i.is_multiple_of(3) {
            HardwareComponent::Wps.into()
        } else {
            HardwareComponent::Wifi.into()
        })
        .build()
        .expect("valid alarm");
    alarm.mark_hardware_known();
    alarm
}

fn preloaded_queue(n: usize) -> AlarmQueue {
    let mut queue = AlarmQueue::new();
    for i in 0..n {
        queue.insert_entry(QueueEntry::new(
            bg_alarm(i),
            DeliveryDiscipline::PerceptibilityAware,
        ));
    }
    queue
}

/// The same entries in the pre-rotation reference queue.
fn shifting_copy(queue: &AlarmQueue) -> ShiftingAlarmQueue {
    let mut shifting = ShiftingAlarmQueue::new();
    for entry in queue.entries() {
        shifting.insert_entry(entry.clone());
    }
    shifting
}

/// A candidate delivering at the given fraction of the preloaded span —
/// `0.5` lands mid-queue, `1.0` past the tail.
fn candidate_at(n: usize, fraction: f64) -> Alarm {
    let pos = ((n as f64) * fraction) as u64;
    let mut alarm = Alarm::builder("candidate")
        .nominal(SimTime::from_secs(60 + pos * 30 + 5))
        .repeating_static(SimDuration::from_secs(600_000))
        .window(SimDuration::from_secs(20))
        .grace(SimDuration::from_secs(40))
        .hardware(HardwareComponent::Wifi.into())
        .build()
        .expect("valid alarm");
    alarm.mark_hardware_known();
    alarm
}

/// The `tail` case isolates the `partition_point` search (the insert
/// position is the back, so no elements shift): it should stay near-flat
/// as the depth grows 1 000×. The `mid` case adds the `Vec` shift, which
/// is linear in the elements behind the insert position.
fn bench_insert_entry(c: &mut Criterion) {
    let mut group = c.benchmark_group("queue_insert_entry");
    group.sample_size(10);
    for n in DEPTHS {
        let queue = preloaded_queue(n);
        for (position, fraction) in [("tail", 1.0), ("mid", 0.5)] {
            group.bench_with_input(BenchmarkId::new(position, n), &n, |b, &n| {
                b.iter_batched(
                    || {
                        let mut queue = queue.clone();
                        // A clone's capacity equals its length; reserve so
                        // the timed insert can't hide a realloc-and-copy.
                        queue.reserve(1);
                        (
                            queue,
                            QueueEntry::new(
                                candidate_at(n, fraction),
                                DeliveryDiscipline::PerceptibilityAware,
                            ),
                        )
                    },
                    |(mut queue, entry)| {
                        queue.insert_entry(entry);
                        queue // dropping the deep queue stays off the clock
                    },
                    BatchSize::SmallInput,
                );
            });
        }
    }
    group.finish();
}

/// `add_to_entry` on the mid-queue entry with an alarm whose nominal time
/// lies past the next `k` entries: the two windows no longer intersect,
/// so the entry delivers at the joiner's nominal and moves `k` slots
/// back. Rotation shifts only those `k` entries; the shifting reference
/// removes the entry and re-inserts it, moving the queue's tail twice.
fn bench_join_moves(c: &mut Criterion) {
    let mut group = c.benchmark_group("queue_join_moves");
    group.sample_size(10);
    for n in DEPTHS {
        let rotating = preloaded_queue(n);
        let shifting = shifting_copy(&rotating);
        let index = n / 2;
        for k in [1, 4] {
            let joiner = candidate_at(n, (index + k) as f64 / n as f64);
            let mut moved = rotating.clone();
            moved.add_to_entry(index, joiner.clone());
            assert_eq!(moved.position_of(joiner.id()), Some(index + k));
            group.bench_with_input(BenchmarkId::new(format!("rotating_k{k}"), n), &n, |b, _| {
                b.iter_batched(
                    || (rotating.clone(), joiner.clone()),
                    |(mut queue, alarm)| {
                        queue.add_to_entry(index, alarm);
                        queue
                    },
                    BatchSize::SmallInput,
                );
            });
            group.bench_with_input(BenchmarkId::new(format!("shifting_k{k}"), n), &n, |b, _| {
                b.iter_batched(
                    || (shifting.clone(), joiner.clone()),
                    |(mut queue, alarm)| {
                        queue.add_to_entry(index, alarm);
                        queue
                    },
                    BatchSize::SmallInput,
                );
            });
        }
    }
    group.finish();
}

/// `position_of` for an id minted after the queue was filled, the lookup
/// every registration makes: the high-water mark answers at once, the
/// shifting reference scans every entry.
fn bench_position_of_miss(c: &mut Criterion) {
    let mut group = c.benchmark_group("queue_position_of_miss");
    group.sample_size(10);
    for n in DEPTHS {
        let rotating = preloaded_queue(n);
        let shifting = shifting_copy(&rotating);
        let fresh = AlarmId::fresh();
        group.bench_with_input(BenchmarkId::new("rotating", n), &n, |b, _| {
            b.iter(|| std::hint::black_box(&rotating).position_of(fresh));
        });
        group.bench_with_input(BenchmarkId::new("shifting", n), &n, |b, _| {
            b.iter(|| std::hint::black_box(&shifting).position_of(fresh));
        });
    }
    group.finish();
}

/// The `head` case's candidate window closes near the front of the
/// delivery-ordered queue, so the cutoff early-exit stops the scan after
/// a handful of entries — near-flat in depth. The `mid` case scans half
/// the queue before hitting the cutoff (the entries before a candidate's
/// window can never be skipped, only the ones past it).
fn bench_simty_place(c: &mut Criterion) {
    let mut group = c.benchmark_group("simty_place");
    group.sample_size(10);
    let policy = SimtyPolicy::new();
    for n in DEPTHS {
        let queue = preloaded_queue(n);
        for (position, fraction) in [("head", 0.0), ("mid", 0.5)] {
            let alarm = candidate_at(n, fraction);
            group.bench_with_input(BenchmarkId::new(position, n), &n, |b, _| {
                b.iter(|| policy.place(std::hint::black_box(&queue), &alarm));
            });
        }
    }
    group.finish();
}

/// Deterministic pseudo-random spread of event times across ~18 hours,
/// hitting several wheel levels (sub-second to multi-hour gaps).
fn spread_times(n: usize) -> Vec<SimTime> {
    let mut x: u64 = 0x9e3779b97f4a7c15;
    (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            SimTime::from_millis(1 + (x >> 38)) // 0..~67e6 ms
        })
        .collect()
}

/// Benchmarks one event-queue implementation in *steady state*: the
/// queue is constructed once and kept warm across iterations, the way
/// the engine holds one queue for a whole run, so the wheel's slab and
/// free-list reuse (and the heap's retained capacity) are what's
/// measured — not construction. `insert` times scheduling `n`
/// spread-out events (the drain back to empty stays off the clock),
/// `pop` times the drain (the refill stays off the clock), and
/// `push_storm` times a full schedule+drain cycle of `n` events at the
/// *same* instant — the same-instant batch the engine's delivery loop
/// feeds on, where the wheel must preserve FIFO `seq` order.
macro_rules! bench_event_queue {
    ($group:expr, $name:literal, $queue:ty, $n:expr, $times:expr) => {{
        $group.bench_with_input(
            BenchmarkId::new(concat!($name, "_insert"), $n),
            &$n,
            |b, _| {
                b.iter_custom(|iters| {
                    let mut q = <$queue>::new();
                    let mut total = std::time::Duration::ZERO;
                    for _ in 0..iters {
                        let start = std::time::Instant::now();
                        for &t in $times {
                            q.schedule(t, EventKind::RtcAlarm);
                        }
                        total += start.elapsed();
                        while q.pop().is_some() {}
                    }
                    total
                });
            },
        );
        $group.bench_with_input(BenchmarkId::new(concat!($name, "_pop"), $n), &$n, |b, _| {
            b.iter_custom(|iters| {
                let mut q = <$queue>::new();
                let mut total = std::time::Duration::ZERO;
                for _ in 0..iters {
                    for &t in $times {
                        q.schedule(t, EventKind::RtcAlarm);
                    }
                    let start = std::time::Instant::now();
                    while let Some(e) = q.pop() {
                        std::hint::black_box(e.seq);
                    }
                    total += start.elapsed();
                }
                total
            });
        });
        $group.bench_with_input(
            BenchmarkId::new(concat!($name, "_push_storm"), $n),
            &$n,
            |b, _| {
                b.iter_custom(|iters| {
                    let mut q = <$queue>::new();
                    let t = SimTime::from_secs(1);
                    let mut total = std::time::Duration::ZERO;
                    for _ in 0..iters {
                        let start = std::time::Instant::now();
                        for _ in 0..$n {
                            q.schedule(t, EventKind::RtcAlarm);
                        }
                        while let Some(e) = q.pop() {
                            std::hint::black_box(e.seq);
                        }
                        total += start.elapsed();
                    }
                    total
                });
            },
        );
    }};
}

/// Head-to-head of the engine's hierarchical timer wheel
/// ([`EventQueue`]) against the retired `BinaryHeap` implementation
/// (kept as [`oracle::HeapEventQueue`] for differential testing). The
/// wheel's wins should be largest on `push_storm` (same-instant FIFO is
/// an O(1) append/drain for the wheel, a heap sift per event for the
/// oracle) and on `pop` at depth (no log-n sift-down per pop).
fn bench_event_queues(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    group.sample_size(10);
    for n in DEPTHS {
        let times = spread_times(n);
        bench_event_queue!(group, "wheel", EventQueue, n, &times);
        bench_event_queue!(group, "heap", HeapEventQueue, n, &times);
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_insert_entry,
    bench_join_moves,
    bench_position_of_miss,
    bench_simty_place,
    bench_event_queues
);
criterion_main!(benches);
