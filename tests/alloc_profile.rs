//! The observability layer's allocation profile.
//!
//! A counting global allocator tallies the heap allocations of the
//! calling thread. Once a fleet-capacity device's span and audit rings
//! are full, recording a span or retiring an audit must reuse storage
//! the run already owns, so the instrumented run's second half allocates
//! about as often as its uninstrumented twin's. A counts-level run,
//! which builds no span or audit at all, must allocate no more often
//! than a full-level one, and a timed-level run exactly as often as a
//! counts-level one. Restoring a checkpoint rebuilds its span
//! values, delivery labels and audits without a heap allocation per
//! line: the heavy snapshot's restore is pinned to the count it makes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use simty::apps::WorkloadBuilder;
use simty::core::{SimDuration, SimTime};
use simty::experiments::PolicyKind;
use simty::sim::{Checkpoint, ObsLevel, SimConfig, Simulation};
use simty_bench::fleet::{FLEET_AUDIT_CAPACITY, FLEET_SPAN_CAPACITY};

/// Forwards to the system allocator, counting this thread's
/// allocations (reallocations included).
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: allocations made while the thread tears down its
    // locals go uncounted instead of panicking.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards unchanged to `System`; the counter is a
// const-initialized thread-local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

const DURATION: SimDuration = SimDuration::from_hours(3);
const MID_RUN: SimDuration = SimDuration::from_mins(90);

/// A SIMTY heavy device with the fleet's ring capacities at `level`,
/// registered and run to mid-run.
fn half_run(level: ObsLevel) -> Simulation {
    let workload = WorkloadBuilder::heavy()
        .with_seed(1)
        .with_beta(0.96)
        .with_duration(DURATION)
        .build();
    let config = SimConfig::new()
        .with_duration(DURATION)
        .with_span_capacity(FLEET_SPAN_CAPACITY)
        .with_audit_capacity(FLEET_AUDIT_CAPACITY)
        .with_obs(level);
    let mut sim = Simulation::new(PolicyKind::Simty.build(), config);
    for alarm in workload.alarms {
        sim.register(alarm)
            .expect("workload alarm registers cleanly");
    }
    sim.run_until(SimTime::ZERO + MID_RUN);
    sim
}

#[test]
fn a_full_ring_run_allocates_like_its_uninstrumented_twin() {
    let end = SimTime::ZERO + DURATION;
    let mut on = half_run(ObsLevel::Full);
    assert_eq!(
        on.obs().spans().len(),
        FLEET_SPAN_CAPACITY,
        "span ring full"
    );
    assert_eq!(
        on.obs().audits().count(),
        FLEET_AUDIT_CAPACITY,
        "audit ring full"
    );
    let mut off = half_run(ObsLevel::Off);
    let (spans, audits) = (on.obs().spans().dropped(), on.obs().audit_dropped());

    let on_allocs = allocations(|| on.run_until(end));
    let off_allocs = allocations(|| off.run_until(end));
    eprintln!("second half: {on_allocs} allocations instrumented, {off_allocs} not");
    assert!(
        on.obs().spans().dropped() > spans && on.obs().audit_dropped() > audits,
        "the second half evicted from both rings"
    );
    assert!(
        on_allocs as f64 <= off_allocs as f64 * 1.05,
        "instrumented second half allocated {on_allocs} times, uninstrumented {off_allocs}"
    );
}

#[test]
fn a_counts_level_run_allocates_no_more_than_a_full_one() {
    let end = SimTime::ZERO + DURATION;
    let levels = [
        ObsLevel::Full,
        ObsLevel::Timed,
        ObsLevel::Counts,
        ObsLevel::Off,
    ];
    let [full, timed, counts, off] = levels.map(|level| {
        let mut sim = None;
        let allocs = allocations(|| {
            let mut half = half_run(level);
            half.run_until(end);
            sim = Some(half);
        });
        (allocs, sim.expect("the run finished"))
    });
    eprintln!(
        "whole run: {} allocations full, {} timed, {} counts, {} off",
        full.0, timed.0, counts.0, off.0
    );
    let evictions = |sim: &Simulation| (sim.obs().spans().dropped(), sim.obs().audit_dropped());
    assert_eq!(evictions(&counts.1), evictions(&full.1));
    assert!(
        counts.0 <= full.0,
        "counts-level run allocated {} times, full-level {}",
        counts.0,
        full.0
    );
    // Reading the stage clocks allocates nothing.
    assert_eq!(
        timed.0, counts.0,
        "timed-level and counts-level allocations"
    );
    assert_eq!(evictions(&timed.1), evictions(&counts.1));
}

#[test]
fn restoring_a_heavy_snapshot_allocates_less_than_once_per_line() {
    let workload = WorkloadBuilder::heavy()
        .with_seed(1)
        .with_beta(0.96)
        .with_duration(DURATION)
        .build();
    let mut sim = Simulation::new(
        PolicyKind::Simty.build(),
        SimConfig::new().with_duration(DURATION),
    );
    for alarm in workload.alarms {
        sim.register(alarm)
            .expect("workload alarm registers cleanly");
    }
    sim.run_until(SimTime::ZERO + SimDuration::from_mins(150));
    let snapshot =
        Checkpoint::from_bytes(&sim.checkpoint().to_bytes()).expect("a fresh capture validates");
    let body = String::from_utf8(snapshot.to_bytes()).expect("utf-8 checkpoint");
    let lines = |key: &str| body.lines().filter(|l| l.starts_with(key)).count() as u64;
    let (spans, deliveries) = (lines("os="), lines("d="));
    assert!(
        spans > 1_000 && deliveries > 500,
        "a heavy snapshot: {spans} spans, {deliveries} deliveries"
    );

    let mut restored = None;
    let allocs = allocations(|| {
        restored = Some(
            Simulation::restore(PolicyKind::Simty.build(), &snapshot)
                .expect("the snapshot restores"),
        );
    });
    eprintln!("restore: {allocs} allocations for {spans} span and {deliveries} delivery lines");
    let restored = restored.expect("restore ran");
    assert!(
        restored.checkpoint().to_bytes() == snapshot.to_bytes(),
        "the restored run recaptures the snapshot"
    );
    assert!(
        allocs <= RESTORE_ALLOCS,
        "restore allocated {allocs} times for {spans} span and {deliveries} delivery lines \
         (at most {RESTORE_ALLOCS})"
    );
}

/// What restoring the heavy snapshot allocates, in debug and release
/// builds alike: about one list per audit (each audit's candidates),
/// plus the rings, the queues and one shared string per distinct label.
/// The event queue is heapified in the list the reader parsed, so it
/// adds no allocation of its own. A reader that allocates per field or
/// per line goes far past it.
const RESTORE_ALLOCS: u64 = 1_215;
