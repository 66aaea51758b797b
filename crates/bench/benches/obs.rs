//! Telemetry overhead guard: a full HPP run with tracing disabled must cost
//! the same as before the observability layer existed — `SimContext::emit`
//! applies the event to the counters and only then branches on a cold flag
//! before recording it. The enabled and ring variants quantify what a
//! consumer pays when they *do* ask for a trace, and the derive benchmarks
//! price the trace→metrics and trace→counters replays.

use std::hint::black_box;

use rfid_bench::{Bench, BenchRecord, Gate};
use rfid_protocols::{HppConfig, PollingProtocol};
use rfid_system::{BitVec, SimConfig, SimContext, TagPopulation};

const N: usize = 500;

fn run_once(cfg: &SimConfig) -> SimContext {
    let pop = TagPopulation::sequential(N, |i| BitVec::from_value((i % 2) as u64, 1));
    let mut ctx = SimContext::new(pop, cfg);
    HppConfig::default().into_protocol().run(&mut ctx);
    ctx
}

fn main() {
    let mut b = Bench::new("obs");
    b.sample_size(20);

    let disabled = SimConfig::paper(7);
    // Functional zero-cost proof: the disabled path must leave the log
    // untouched — no events, no timestamps, nothing to serialize.
    let quiet = run_once(&disabled);
    assert!(
        !quiet.log.is_enabled(),
        "disabled run must keep the log off"
    );
    assert_eq!(quiet.log.len(), 0, "disabled run recorded events");
    assert!(
        quiet.log.to_jsonl().is_empty(),
        "disabled run serialized a trace"
    );
    let off = b.bench(&format!("hpp_{N}/trace_disabled"), || {
        black_box(run_once(&disabled).counters.polls)
    });

    let enabled = SimConfig::paper(7).with_trace();
    let on = b.bench(&format!("hpp_{N}/trace_enabled"), || {
        black_box(run_once(&enabled).log.len())
    });

    let ring = SimConfig::paper(7).with_trace_ring(256);
    b.bench(&format!("hpp_{N}/trace_ring_256"), || {
        black_box(run_once(&ring).log.dropped())
    });

    let traced = run_once(&enabled);
    b.bench(&format!("hpp_{N}/metrics_from_log"), || {
        black_box(rfid_obs::metrics_from_log(&traced.log).counter("polls"))
    });
    b.bench(&format!("hpp_{N}/counters_from_events"), || {
        black_box(rfid_obs::counters_from_events(traced.log.events()).polls)
    });

    // Overhead bound: with telemetry off the run must never cost more than
    // the traced run — the disabled path is a cold branch, not a cheaper
    // serializer. Compare best-of-sample times (the mean is at the mercy of
    // scheduler noise on sub-100 µs runs); 5 % headroom absorbs the timer.
    if let (Some(off), Some(on)) = (off, on) {
        b.record(
            BenchRecord::new(
                "overhead_bound",
                "disabled_over_enabled",
                "x",
                off.min / on.min,
            )
            .param("n", &N)
            .gate(Gate::AtMost(1.05)),
        );
    }

    b.finish();
}
