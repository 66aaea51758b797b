//! Telemetry quickstart: trace a TPP run on the C1G2 clock, derive the
//! standard metric set, export the trace as JSONL, and show the trace
//! replays into the run's counters bit-for-bit.
//!
//! ```text
//! cargo run --example telemetry
//! ```

use fast_rfid_polling::prelude::*;
use fast_rfid_polling::system::{Counters, SimConfig, SimContext};

fn main() {
    // Same scenario as the quickstart, but with tracing switched on:
    // every counter bump now also records a timestamped event.
    let scenario = Scenario::uniform(300, 4).with_seed(7);
    let cfg = SimConfig::paper(scenario.protocol_seed()).with_trace();
    let mut ctx = SimContext::new(scenario.build_population(), &cfg);
    let report = TppConfig::default().run(&mut ctx);
    println!(
        "TPP read {} tags in {} ({} events traced)",
        report.counters.polls,
        report.total_time,
        ctx.log.len()
    );

    // Derive the paper-relevant metrics from the trace alone.
    let metrics = metrics_from_log(&ctx.log);
    let vector = metrics.histogram("vector_bits").expect("polls were traced");
    let latency = metrics
        .histogram("poll_latency_us")
        .expect("polls were traced");
    println!(
        "polling vector: mean {:.2} bits, p95 ≤ {} bits",
        vector.mean(),
        vector.percentile(0.95).unwrap()
    );
    println!(
        "poll latency:   mean {:.0} µs, p95 ≤ {} µs",
        latency.mean(),
        latency.percentile(0.95).unwrap()
    );

    // Replaying the trace recomputes the counters exactly: the simulator
    // writes both through one call. `tag_listen_us` is a time integral, not
    // an event, so the replay leaves it zero.
    let replayed = Counters::from_events(ctx.log.events());
    assert_eq!(
        replayed,
        Counters {
            tag_listen_us: 0.0,
            ..ctx.counters
        }
    );
    println!("replay: the trace folds back into the counters exactly");

    // Traces round-trip through JSONL for offline analysis.
    let jsonl = ctx.log.to_jsonl();
    println!("first trace lines of {}:", jsonl.lines().count());
    for line in jsonl.lines().take(3) {
        println!("  {line}");
    }
}
