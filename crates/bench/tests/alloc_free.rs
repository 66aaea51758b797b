//! Allocation audit for the polling hot path.
//!
//! The round-index/arena rework's claim is that a fault-free inventory
//! allocates O(rounds) — arena high-water growth — never O(slots). A
//! counting `#[global_allocator]` shim proves it: the allocation count of a
//! full HPP run must stay far below the poll count, and growing the
//! population (hence the slot count) several-fold must not grow the
//! allocation count proportionally. The shim lives here, not in a library
//! crate, because every workspace lib `forbid(unsafe_code)`s — an
//! integration test is its own crate root and may implement `GlobalAlloc`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use rfid_protocols::{HppConfig, PollingProtocol};
use rfid_system::{BitVec, SimConfig, SimContext, TagPopulation};

/// Counts heap acquisitions (alloc + realloc — the events arena reuse is
/// supposed to eliminate) while armed; frees are deliberately not counted.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ACQUISITIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ACQUISITIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ACQUISITIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs a fault-free HPP inventory of `n` tags with the counter armed only
/// around the protocol run (population/context construction may allocate
/// freely) and returns (allocations, polls).
fn counted_hpp_run(n: usize) -> (u64, u64) {
    let pop = TagPopulation::sequential(n, |i| BitVec::from_value((i % 16) as u64, 4));
    let mut ctx = SimContext::new(pop, &SimConfig::paper(7));
    let protocol = HppConfig::default();
    ACQUISITIONS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let report = protocol.run(&mut ctx);
    ARMED.store(false, Ordering::SeqCst);
    (ACQUISITIONS.load(Ordering::SeqCst), report.counters.polls)
}

/// One test drives both checks — the counter is process-global and the
/// default test harness runs `#[test]`s concurrently.
#[test]
fn hpp_inner_loop_does_not_allocate_per_slot() {
    let (small_allocs, small_polls) = counted_hpp_run(2_000);
    assert_eq!(small_polls, 2_000);
    // O(rounds) arena growth plus the final report: a couple hundred
    // acquisitions at the most, never one per poll.
    assert!(
        small_allocs < small_polls / 4,
        "HPP allocated {small_allocs} times for {small_polls} polls"
    );

    // Scaling check: 8× the tags (and ≈ 8× the slots) must not cost
    // anywhere near 8× the allocations — arenas grow to a high-water mark,
    // they are not reacquired per slot.
    let (large_allocs, large_polls) = counted_hpp_run(16_000);
    assert_eq!(large_polls, 16_000);
    assert!(
        large_allocs < small_allocs + large_polls / 8,
        "allocations scale with slots: {small_allocs} at n=2k vs {large_allocs} at n=16k"
    );
}
