//! Profiling-plane overhead and bit-identity gates (DESIGN.md §14).
//!
//! Three gates, each a gated record in `BENCH_obsplane.json`:
//!
//! 1. **Disabled span path is free.** `SimContext::span_enter/span_exit`
//!    guard on a cold `is_enabled()` flag exactly like the trace log; a
//!    full HPP run with profiling compiled in but disabled must cost no
//!    more than the *profiled* run plus 5 % timer headroom, best-of-sample
//!    (the mean is at the mercy of scheduler noise on sub-100 µs runs).
//! 2. **Enabled profiling is bounded.** A 100 k-tag HPP session with full
//!    profiling (spans on every session/pass/round/poll) must stay within
//!    `ENABLED_CEILING`× the unprofiled run — the profiler is two clock
//!    reads and a last-child-cached trie walk per span, not an allocation.
//! 3. **Profiling never perturbs the run.** On an impaired traced run, the
//!    final report JSON and the FNV-1a digest of the full event trace must
//!    be bit-identical with profiling on and off: the profiler reads the
//!    sim clock but never touches RNG, counters, or the trace.

use std::hint::black_box;
use std::time::Instant;

use rfid_bench::{Bench, BenchRecord, Gate};
use rfid_protocols::{HppConfig, Session};
use rfid_system::{BitVec, FaultModel, SimConfig, SimContext, TagPopulation, ToJson};

/// Population for the disabled-path and bit-identity gates.
const N_SMALL: usize = 500;
/// Population for the enabled-overhead gate.
const N_LARGE: usize = 100_000;
/// Disabled-path headroom: off must cost ≤ 1.05 × on, best-of-sample.
const DISABLED_CEILING: f64 = 1.05;
/// Enabled-path ceiling: full profiling ≤ 3 × the unprofiled run.
const ENABLED_CEILING: f64 = 3.0;

fn session_run(n: usize, cfg: &SimConfig) -> SimContext {
    let pop = TagPopulation::sequential(n, |i| BitVec::from_value((i % 2) as u64, 1));
    let mut ctx = SimContext::new(pop, cfg);
    let protocol = HppConfig::default();
    let end = Session::open(&protocol, &ctx).run(&mut ctx);
    assert!(end.is_complete(), "HPP must complete on this channel");
    ctx
}

/// Best-of-`k` wall time of one full session run, nanoseconds.
fn best_of(k: usize, n: usize, cfg: &SimConfig) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..k {
        let start = Instant::now();
        black_box(session_run(n, cfg).counters.polls);
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    best
}

/// Records one overhead gate: both timings and their `ratio` (off/on for
/// the disabled gate, on/off for the enabled one), gated ≤ `ceiling`.
fn record_ratio(
    b: &mut Bench,
    case: &str,
    n: usize,
    off_ns: f64,
    on_ns: f64,
    ratio: f64,
    ceiling: f64,
) {
    let record = |metric, unit, value| BenchRecord::new(case, metric, unit, value).param("n", &n);
    b.record(record("off_ns", "ns", off_ns));
    b.record(record("on_ns", "ns", on_ns));
    b.record(record("ratio", "x", ratio).gate(Gate::AtMost(ceiling)));
}

fn main() {
    // Gate 1: the disabled span path. Functional zero-cost proof first —
    // an unprofiled run must record nothing at all.
    let off_cfg = SimConfig::paper(7);
    let on_cfg = SimConfig::paper(7).with_profile();
    let quiet = session_run(N_SMALL, &off_cfg);
    assert!(!quiet.profiler.is_enabled(), "profiler must stay off");
    assert!(quiet.profiler.is_empty(), "disabled run recorded spans");
    let profiled = session_run(N_SMALL, &on_cfg);
    assert!(!profiled.profiler.is_empty(), "profiled run lost its spans");

    let mut b = Bench::new("obsplane");
    b.sample_size(20);
    let off = b.bench(&format!("hpp_{N_SMALL}/profile_disabled"), || {
        black_box(session_run(N_SMALL, &off_cfg).counters.polls)
    });
    let on = b.bench(&format!("hpp_{N_SMALL}/profile_enabled"), || {
        black_box(session_run(N_SMALL, &on_cfg).counters.polls)
    });
    if let (Some(off), Some(on)) = (off, on) {
        let (off, on) = (off.min, on.min);
        record_ratio(
            &mut b,
            "disabled_span_path",
            N_SMALL,
            off,
            on,
            off / on,
            DISABLED_CEILING,
        );
    }

    // Gate 2: full profiling on a 100 k-tag session stays under the
    // ceiling. One cold run each way would measure the allocator; take the
    // best of three so both sides see warm caches.
    let off = best_of(3, N_LARGE, &off_cfg);
    let on = best_of(3, N_LARGE, &on_cfg);
    record_ratio(
        &mut b,
        "enabled_profiling_overhead",
        N_LARGE,
        off,
        on,
        on / off,
        ENABLED_CEILING,
    );

    // Gate 3: bit-identity on an impaired traced run — profiling must not
    // move a single RNG draw, counter, or trace event.
    let fault = FaultModel::perfect().with_downlink_loss(0.3);
    let base_cfg = SimConfig::paper(11).with_trace().with_fault(fault.clone());
    let prof_cfg = SimConfig::paper(11)
        .with_trace()
        .with_fault(fault)
        .with_profile();
    let reported_run = |cfg: &SimConfig| {
        let pop = TagPopulation::sequential(N_SMALL, |i| BitVec::from_value((i % 2) as u64, 1));
        let mut ctx = SimContext::new(pop, cfg);
        let protocol = HppConfig::default();
        let end = Session::open(&protocol, &ctx).run(&mut ctx);
        assert!(end.is_complete(), "HPP must complete under 0.3 loss");
        (end.report().to_json().to_string(), ctx)
    };
    let (plain_report, plain) = reported_run(&base_cfg);
    let (prof_report, profiled) = reported_run(&prof_cfg);
    for (metric, same) in [
        ("report_identical", plain_report == prof_report),
        ("counters_identical", plain.counters == profiled.counters),
        (
            "trace_identical",
            plain.log.digest() == profiled.log.digest(),
        ),
    ] {
        b.record(
            BenchRecord::new("bit_identity", metric, "bool", f64::from(u8::from(same)))
                .param("n", &N_SMALL)
                .gate(Gate::AtLeast(1.0)),
        );
    }

    b.finish();
}
