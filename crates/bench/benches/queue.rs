//! Criterion micro-benchmarks of the hot paths every registration
//! exercises: `AlarmQueue::insert_entry` (binary-search insert into the
//! delivery-ordered queue), `add_to_entry` (joining an entry that then
//! moves), `position_of` on a fresh id, `pop_due_into` (the delivery
//! loop's pop of the due front entries), and the SIMTY search/selection
//! scan (`SimtyPolicy::place`), at queue depths 10 / 100 / 1 000 / 10 000.
//!
//! `insert_entry` should scale sublinearly in the queue depth (the
//! `partition_point` search is O(log n); the `Vec` shift dominates only
//! at the deepest sizes), and `place` should stay flat for candidates
//! whose window closes early thanks to the delivery-time early-exit.
//! The join, lookup and pop cases run beside the pre-rotation queue
//! ([`oracle::ShiftingAlarmQueue`]) to show what rotation, the id
//! high-water mark and the ring save. The simulator's event queue runs
//! at the depths the engine and a registration storm give it.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

use simty::core::entry::{DeliveryDiscipline, QueueEntry};
use simty::core::queue::{oracle::ShiftingAlarmQueue, AlarmQueue};
use simty::prelude::*;
use simty::sim::event::{EventKind, EventQueue};

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

/// `pop_due_into` taking the `k` due front entries of an `n`-entry
/// queue, the delivery loop's pop. The ring's head steps past the `k`
/// entries and nothing else moves; the shifting reference moves the
/// `n - k` entries behind them to the front.
fn bench_pop_due(c: &mut Criterion) {
    let mut group = c.benchmark_group("queue_pop_due");
    group.sample_size(10);
    for n in DEPTHS {
        let rotating = preloaded_queue(n);
        let shifting = shifting_copy(&rotating);
        for k in [1, 4] {
            // Entry `i` delivers at 60 + 30 i s.
            let now = SimTime::from_secs(60 + 30 * (k as u64 - 1));
            group.bench_with_input(BenchmarkId::new(format!("rotating_k{k}"), n), &n, |b, _| {
                b.iter_batched(
                    || (rotating.clone(), Vec::with_capacity(k)),
                    |(mut queue, mut due)| {
                        queue.pop_due_into(now, &mut due);
                        assert_eq!(due.len(), k);
                        (queue, due)
                    },
                    BatchSize::SmallInput,
                );
            });
            group.bench_with_input(BenchmarkId::new(format!("shifting_k{k}"), n), &n, |b, _| {
                b.iter_batched(
                    || (shifting.clone(), Vec::with_capacity(k)),
                    |(mut queue, mut due)| {
                        queue.pop_due_into(now, &mut due);
                        assert_eq!(due.len(), k);
                        (queue, due)
                    },
                    BatchSize::SmallInput,
                );
            });
        }
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

/// Deterministic pseudo-random spread of event times across ~18 hours.
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

/// The engine's event queue at the depth the engine keeps (the paper's
/// 3 h runs never hold more than 8 pending events) and at a storm cell's
/// (4 bursts of 59 registrations, scheduled up front). `hold` pops the
/// head and schedules a replacement further out, the engine's steady
/// state on a queue it keeps for the whole run; `fill_drain` schedules
/// `n` spread-out events on a new queue and drains it.
fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    group.sample_size(10);
    for n in [8, 4 * 59] {
        let times = spread_times(n);
        group.bench_with_input(BenchmarkId::new("hold", n), &n, |b, _| {
            let mut q = EventQueue::new();
            for &t in &times {
                q.schedule(t, EventKind::RtcAlarm);
            }
            b.iter(|| {
                let e = q.pop().expect("the queue holds n events");
                let gap = SimDuration::from_millis(1 + e.seq.wrapping_mul(7_919) % 600_000);
                q.schedule(e.time + gap, e.kind);
            });
        });
        group.bench_with_input(BenchmarkId::new("fill_drain", n), &n, |b, _| {
            b.iter(|| {
                let mut q = EventQueue::new();
                for &t in &times {
                    q.schedule(t, EventKind::RtcAlarm);
                }
                while let Some(e) = q.pop() {
                    std::hint::black_box(e.seq);
                }
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_insert_entry,
    bench_join_moves,
    bench_position_of_miss,
    bench_pop_due,
    bench_simty_place,
    bench_event_queue
);
criterion_main!(benches);
