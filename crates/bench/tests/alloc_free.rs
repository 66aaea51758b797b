//! Allocation audit for the polling and contention-slot hot paths.
//!
//! The round-index/arena rework's claim is that a fault-free inventory
//! allocates O(rounds) — arena high-water growth — never O(slots). A
//! counting `#[global_allocator]` shim proves it: the allocation count of a
//! full HPP, FSA, binary-splitting or Q-algorithm run must stay far below
//! its slot count, and growing the population (hence the slot count)
//! several-fold must not grow the allocation count proportionally. An EHPP
//! run's allocation count must not grow with its circle count. Opening
//! EHPP again must not redo its subset-size search, and building a
//! population makes the same number of allocations at any size. The shim
//! lives here, not in a library crate, because every workspace lib
//! `forbid(unsafe_code)`s — an integration test is its own crate root and
//! may implement `GlobalAlloc`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use rfid_baselines::FsaConfig;
use rfid_identify::{BinarySplitConfig, QAlgorithmConfig};
use rfid_protocols::{EhppConfig, HppConfig, PollingProtocol};
use rfid_system::{BitVec, SimConfig, SimContext, TagPopulation};
use rfid_workloads::Scenario;

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

/// Runs a fault-free inventory of `n` tags with the counter armed only
/// around the protocol run (population/context construction may allocate
/// freely) and returns (allocations, slots, circles).
fn counted_run(protocol: &dyn PollingProtocol, n: usize) -> (u64, u64, u64) {
    let pop = TagPopulation::sequential(n, |i| BitVec::from_value((i % 16) as u64, 4));
    let mut ctx = SimContext::new(pop, &SimConfig::paper(7));
    let (allocs, report) = counted(|| protocol.run(&mut ctx));
    let c = &report.counters;
    assert_eq!(c.polls, n as u64, "{}", protocol.name());
    (
        allocs,
        c.polls + c.empty_slots + c.collision_slots,
        c.circles,
    )
}

/// Heap acquisitions made while running `f`.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    ACQUISITIONS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let out = f();
    ARMED.store(false, Ordering::SeqCst);
    (ACQUISITIONS.load(Ordering::SeqCst), out)
}

/// One test drives every check — the counter is process-global and the
/// default test harness runs `#[test]`s concurrently. HPP polls; FSA,
/// binary splitting and the Q-algorithm resolve contention slots; EHPP
/// opens circles.
#[test]
fn hpp_inner_loop_does_not_allocate_per_slot() {
    let protocols: [Box<dyn PollingProtocol>; 4] = [
        Box::new(HppConfig::default()),
        Box::new(FsaConfig::default()),
        Box::new(BinarySplitConfig::default()),
        Box::new(QAlgorithmConfig::default()),
    ];
    for protocol in &protocols {
        let name = protocol.name();
        let (small_allocs, small_slots, _) = counted_run(protocol.as_ref(), 2_000);
        // O(rounds) arena growth plus the final report: a couple hundred
        // acquisitions at the most, never one per slot.
        assert!(
            small_allocs < small_slots / 4,
            "{name} allocated {small_allocs} times for {small_slots} slots"
        );

        // Scaling check: 8× the tags (and ≈ 8× the slots) must not cost
        // anywhere near 8× the allocations — arenas grow to a high-water
        // mark, they are not reacquired per slot.
        let (large_allocs, large_slots, _) = counted_run(protocol.as_ref(), 16_000);
        assert!(
            large_allocs < small_allocs + large_slots / 8,
            "{name}: allocations scale with slots: {small_allocs} at n=2k vs {large_allocs} at n=16k"
        );
    }

    // The optimal subset size is searched once per process: a second open
    // allocates its stepper, not the search's ~4,000 recurrence buffers.
    let ctx = SimContext::new(
        TagPopulation::sequential(64, |_| BitVec::new()),
        &SimConfig::paper(7),
    );
    let ehpp = EhppConfig::default();
    drop(ehpp.open_stepper(&ctx));
    let (reopen, _) = counted(|| ehpp.open_stepper(&ctx));
    assert!(reopen < 100, "a second EHPP open allocated {reopen} times");

    // EHPP selects each circle into one reused keep-mask buffer: 8× the
    // tags open 8× the circles, and the allocation count must not grow
    // with them (the inner HPP rounds' arenas still grow to a larger
    // high-water mark, a few reallocations).
    let (small_allocs, _, small_circles) = counted_run(&ehpp, 2_000);
    let (large_allocs, _, large_circles) = counted_run(&ehpp, 16_000);
    assert!(small_circles >= 5, "EHPP opened {small_circles} circles");
    assert!(
        large_allocs - small_allocs < (large_circles - small_circles) / 4,
        "EHPP: allocations grow with circles: {small_allocs} over {small_circles} circles \
         vs {large_allocs} over {large_circles}"
    );

    // A build allocates a fixed set of columns, the payload column among
    // them: nothing per tag, no column regrowth.
    let build_allocs = |n: usize| {
        let (allocs, population) = counted(|| Scenario::uniform(n, 4).build_population());
        assert_eq!(population.len(), n);
        allocs
    };
    let (small, large) = (build_allocs(1_000), build_allocs(8_000));
    assert_eq!(small, large, "a build's fixed allocations grew with n");
}
