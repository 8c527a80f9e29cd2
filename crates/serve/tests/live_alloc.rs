//! The live scheduler's allocation profile.
//!
//! A counting global allocator tallies the heap allocations of the
//! calling thread. Once a population of repeating alarms has cycled
//! through the queues, an advance reuses what the scheduler already
//! owns: the buffer one delivery round pops into, and each delivered
//! entry's member buffer, which hosts a later new entry. The count is
//! pinned; it runs in both debug and release builds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use simty_serve::live::{LiveScheduler, RegisterOutcome, RegisterRequest};

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

/// The repeat intervals of the `serve-live` benchmark's warm-up; every
/// one divides the longest, so the population cycles every 1 280 s.
const REPEAT_MS: [u64; 4] = [160_000, 320_000, 640_000, 1_280_000];
const CYCLE_MS: u64 = 1_280_000;
/// The clock step of one advance, as in `serve-live`.
const STEP_MS: u64 = 20_000;

/// Allocations of one cycle of steady-state advances: 64 advances and
/// 454 deliveries. What remains is a joined entry growing its member
/// buffer. A scheduler that collects each advance's due entries into
/// fresh `Vec`s and drops every delivered entry's buffer makes 115.
const STEADY_ALLOCS: u64 = 61;

#[test]
fn steady_state_advances_reuse_their_buffers() {
    let mut live = LiveScheduler::new("simty").expect("scheduler");
    for i in 0..128u64 {
        let mut req = RegisterRequest::simple(&format!("tenant-{}", i % 16), 60_000 + i * 9_973);
        req.repeat_ms = Some(REPEAT_MS[(i % 4) as usize]);
        req.beta = Some(0.5);
        assert!(matches!(
            live.register(&req),
            RegisterOutcome::Admitted { .. }
        ));
    }
    let mut clock = 0;
    let mut advance = |live: &mut LiveScheduler| {
        clock += STEP_MS;
        live.advance(clock)
    };
    // Two cycles settle the entries and fill the spare buffers.
    for _ in 0..2 * CYCLE_MS / STEP_MS {
        advance(&mut live);
    }
    let mut delivered = 0;
    let allocs = allocations(|| {
        for _ in 0..CYCLE_MS / STEP_MS {
            delivered += advance(&mut live);
        }
    });
    eprintln!("steady state: {allocs} allocations for {delivered} deliveries");
    assert!(delivered > 200, "a busy cycle: {delivered} deliveries");
    assert!(live.verify().is_empty(), "{:?}", live.verify());
    assert!(
        allocs <= STEADY_ALLOCS,
        "a cycle of advances allocated {allocs} times for {delivered} deliveries \
         (at most {STEADY_ALLOCS})"
    );
}
